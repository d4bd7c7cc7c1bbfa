//! The repository benchmark. One command runs one named workload for a
//! fixed time, checks the program's outputs, and prints its metrics: the
//! human-readable lines first, then one JSON object as the last line.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper-campaign --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (no shims, no profiling);
//! `--trace 1` runs the workload's script plainly and through the timing
//! shims and prints the per-layer metrics. See `README.md`.

mod dense;
mod heap;
mod layers;
mod paper;
mod service;
mod shims;
mod stats;

use std::fmt::Write as _;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Scratch directory for service roots, relative to the working directory
/// (the checkout root); every run removes what it created.
pub const WORK_DIR: &str = ".bench_work";

const USAGE: &str = "usage: repo-benchmark --workload paper-campaign|dense-world|service-mix \
                     --seed N --seconds N --trace 0|1";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds as f64,
            trace: match trace.ok_or("--trace is required")? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace wants 0 or 1, got {t}")),
            },
        })
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Output checks: every check counts as attempted, every failure as
/// failed, and each failure is explained on stderr.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("output check failed: {}", what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a workload run produced.
pub struct Report {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Report {
    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        println!(
            "peak_rss_mib: {} MiB (VmHWM; not a JSON metric, see README.md)",
            stats::peak_rss_mib()
        );
        let Checks { attempted, failed } = self.checks;
        println!(
            "failed_ratio: {} ({failed} failed of {attempted} attempted)",
            failed as f64 / attempted as f64
        );
        let mut json = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "{} is not finite: {}", m.name, m.value);
            println!("{}: {} {}", m.name, m.value, m.unit);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("string write");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            failed == 0
        );
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "paper-campaign" => paper::run(&args),
        "dense-world" => dense::run(&args),
        "service-mix" => service::run(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    assert!(
        report.checks.attempted >= 1,
        "a run attempts at least one check"
    );
    report.print();
}

/// The end-to-end metrics every workload reports.
pub fn end_to_end(setup_s: f64, ops_per_s: f64, op_ms: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_heap_mib", heap::peak_mib(), "MiB"),
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new("op_ms", op_ms, "ms"),
    ]
}
