//! `dense-world`: the scaling extension. Single large worlds run straight
//! through `Simulator` with `Flooding`, bypassing `aedb`, the optimisers
//! and `serve`. Each world stresses the delivery layer differently:
//!
//! * `10000@400` — log-free decode, interference-heavy;
//! * `2000@200@4` — shadowed, so the dB-domain outcome path runs;
//! * `1000@200+500:still:20dbm` — heterogeneous, mostly the scalar sweep.

use crate::layers::{overhead_abba, Layers};
use crate::stats::{geomean, median, mix, timing_line, SetupTimes};
use crate::{end_to_end, Args, Checks, Report};
use manet::protocol::Flooding;
use manet::sim::{DeliveryMode, SimReport, Simulator};
use manet::world::{DenseScenario, WorldSpec};
use std::time::Instant;

const WORLDS: [(&str, &str); 3] = [
    ("world_wall_s", "10000@400"),
    ("shadowed_world_wall_s", "2000@200@4"),
    ("hetero_world_wall_s", "1000@200+500:still:20dbm"),
];

/// Flooding's forwarding jitter, as in `exp_scale`.
const JITTER: (f64, f64) = (0.0, 0.1);

/// Set-ups before and again after the measured phase; the median of all
/// is reported.
const SETUP_REPS: usize = 15;

/// Simulated horizon of the naive-oracle parity check (s): short, since
/// the oracle scans every node per frame, but with the broadcast started
/// inside it so the window covers beacons and data frames.
const PARITY_BROADCAST_S: f64 = 0.25;
const PARITY_END_S: f64 = 0.5;

fn worlds(seed: u64) -> Vec<WorldSpec> {
    WORLDS
        .iter()
        .enumerate()
        .map(|(i, (_, spec))| {
            let mut d = DenseScenario::parse_spec(spec).expect("workload spec parses");
            d.base_seed = mix(seed, i as u64) % 1_000_000_000;
            d.world_spec(0)
        })
        .collect()
}

fn flooding(world: &WorldSpec) -> Flooding {
    Flooding::new(world.n_nodes(), JITTER)
}

fn same_report(a: &SimReport, b: &SimReport) -> bool {
    a.broadcast == b.broadcast && a.counters == b.counters && a.n_nodes == b.n_nodes
}

/// One pass over the three worlds, untraced: wall seconds of each run.
fn cycle(worlds: &[WorldSpec], reports: &mut [Vec<SimReport>]) -> Vec<f64> {
    worlds
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut sim = Simulator::from_world(w, flooding(w));
            let t0 = Instant::now();
            let report = sim.run_to_end();
            let secs = t0.elapsed().as_secs_f64();
            reports[i].push(report);
            secs
        })
        .collect()
}

/// Each world against the naive O(n) oracle on a shortened horizon.
fn naive_parity(worlds: &[WorldSpec], checks: &mut Checks) {
    for (w, (_, spec)) in worlds.iter().zip(WORLDS) {
        let mut short = w.clone();
        short.broadcast_time = PARITY_BROADCAST_S;
        short.end_time = PARITY_END_S;
        let run = |mode: DeliveryMode| {
            let mut sim = Simulator::from_world(&short, flooding(&short));
            sim.set_delivery_mode(mode);
            sim.run_to_end()
        };
        let (inc, naive) = (run(DeliveryMode::Incremental), run(DeliveryMode::Naive));
        checks.check(same_report(&inc, &naive), || {
            format!("{spec}: incremental delivery differs from the naive oracle")
        });
    }
}

pub fn run(args: &Args) -> Report {
    let worlds = worlds(args.seed);
    let set_up = || {
        worlds
            .iter()
            .map(|w| Simulator::from_world(w, flooding(w)))
            .collect::<Vec<_>>()
    };
    let mut setup = SetupTimes::default();
    setup.sample(SETUP_REPS, set_up);

    let mut checks = Checks::default();
    let mut reports: Vec<Vec<SimReport>> = vec![Vec::new(); worlds.len()];
    let mut lines = Vec::new();
    let metrics = if args.trace {
        let mut layers = Layers::default();
        let ratio = overhead_abba(|traced| {
            if !traced {
                cycle(&worlds, &mut reports);
                return;
            }
            for (i, w) in worlds.iter().enumerate() {
                let report = layers.manet.simulate(w, flooding(w));
                reports[i].push(report);
            }
        });
        layers.trace_overhead_ratio = ratio;
        layers.validate();
        lines.extend(layers.lines());
        layers.metrics()
    } else {
        let mut walls: Vec<Vec<f64>> = vec![Vec::new(); worlds.len()];
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < args.seconds {
            for (i, s) in cycle(&worlds, &mut reports).into_iter().enumerate() {
                walls[i].push(s);
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        setup.sample(SETUP_REPS, set_up);
        let runs: usize = walls.iter().map(Vec::len).sum();
        for ((name, spec), w) in WORLDS.iter().zip(&walls) {
            lines.push(timing_line(&format!("{name} ({spec})"), "s", w));
        }
        let medians_ms: Vec<f64> = walls.iter().map(|w| 1e3 * median(w)).collect();
        end_to_end(
            setup.median_s(),
            runs as f64 / elapsed,
            geomean(&medians_ms),
        )
    };

    // Output checks, outside the timed region.
    for (r, (_, spec)) in reports.iter().zip(WORLDS) {
        for later in &r[1..] {
            checks.check(same_report(&r[0], later), || {
                format!("{spec}: a repeated run of one seed gave another report")
            });
        }
        checks.check(r[0].broadcast.coverage() > 0, || {
            format!("{spec}: the broadcast reached nobody")
        });
    }
    naive_parity(&worlds, &mut checks);
    Report {
        checks,
        metrics,
        lines,
    }
}
