//! Experiment scaling: paper-faithful or reduced budgets, parsed from CLI
//! flags shared by all `exp_*` binaries — plus the beyond-paper
//! [`DenseScenario`]s (hundreds of nodes) that the simulator's spatial
//! grid makes tractable.
//!
//! # The `bench-scale-v7` artifact schema
//!
//! `exp_scale` writes `BENCH_scale.json` with `"schema": "bench-scale-v7"`
//! so the performance trajectory stays machine-readable across PRs (and so
//! CI can fail on regressions — see `scripts/check_bench_regression.py`).
//! The prose reference — including how the regression gate consumes the
//! calibration workload and the RSS/ceiling semantics — is
//! `docs/BENCH_SCHEMA.md`; the table below is the field list.
//! The artifact is emitted by [`ScaleArtifact`] in this module — the one
//! place the field list lives, so the schema checker
//! (`scripts/check_bench_schema.py`) and the emitter cannot silently
//! drift apart. A top-level `calibration` object records the wall time of
//! a fixed reference workload (the 500@200 preset, full protocol,
//! min-of-3) measured in the same job, which turns per-row absolute wall
//! times into runner-speed-independent ratios the regression gate can
//! hold ceilings against. Per scenario row ([`ScaleRow`]):
//!
//! | field | meaning |
//! |---|---|
//! | `spec` | the scenario in the canonical shared grammar ([`DenseScenario::spec_string`]) — also the row key the perf gate matches floors against |
//! | `nodes`, `per_km2`, `shadowing_sigma_db` | the [`DenseScenario`] (nodes = total across groups) |
//! | `beacons_per_sec`, `coverage` | workload sanity numbers (identical across modes, asserted in-run) |
//! | `incremental_s`, `naive_s` | end-to-end wall time per delivery mode (`naive_s` is `null` above the naive cap) |
//! | `incremental_filter_s`, `incremental_outcome_s` | candidate-filter vs receive-outcome split of the incremental query (`Simulator::query_profile`) |
//! | `incremental_interference_s` | interference+capture share of `incremental_outcome_s` (the phase the spatialised active window optimises; always ≤ the outcome time) |
//! | `incremental_bucket_ops` | grid-maintenance bucket membership writes of the incremental run |
//! | `sweep_cells_visited`, `sweep_cells_culled` | non-empty cells the incremental run's batched sweep reached, and how many the event horizon skipped whole ([`manet::SweepStats`]; culled ≤ visited) |
//! | `sweep_batched_candidates`, `sweep_scalar_candidates` | candidates evaluated by full-width chunk kernels vs the scalar fallback (mixed-kind chunks + per-query tails) |
//! | `peak_rss_bytes` | process peak RSS high-water mark when the row finished ([`peak_rss_bytes`]) |
//! | `speedup_naive_over_incremental` | the headline ratio CI's perf gate checks against committed floors — `naive_s / incremental_s`, derived by the emitter, never hand-set (`null` above the naive cap) |
//!
//! The trailing `batched_eval` object records one batched AEDB evaluation
//! posed directly on the first dense scenario. v6 → v7 removed the
//! horizon-rebuild and sharded columns, their speedups and the top-level
//! `host_parallelism`, along with the delivery paths they measured; v5 →
//! v6 added those sharded columns; v4 → v5 added the four sweep counters
//! and moved emission into [`ScaleArtifact`]; v3 → v4 added `spec`, the
//! `calibration` object and the absolute-ceiling gate contract; v2 → v3
//! added `incremental_interference_s` and the regression-gate (speedup
//! floor) contract; v1 → v2 added the filter/outcome split and
//! `peak_rss_bytes`.

use aedb::scenario::Density;
use manet::SweepStats;
use std::fmt::Write as _;

// The dense scenarios now live beside the tuning problem (so `AedbProblem`
// itself can be posed at 10⁴-node scale); re-exported here because the
// experiment binaries and benches address them through `bench::scale`.
pub use aedb::scenario::DenseScenario;

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where that interface does not exist.
/// The value is a process-lifetime high-water mark — monotone across
/// scenarios — which is exactly what the scale experiment records per row:
/// "how much memory had this run needed by the time the row finished".
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Schema identifier written by [`ScaleArtifact::to_json`]; bump it here
/// (and in `scripts/check_bench_schema.py`) when the field list changes.
pub const SCALE_SCHEMA: &str = "bench-scale-v7";

/// One scenario row of the scale artifact — the measured columns of the
/// v7 schema (see the module docs for the field table). The speedup
/// column is *derived* from the wall times at emission, so it cannot
/// disagree with the ratio it summarises.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Canonical scenario spec text (the perf gate's row key).
    pub spec: String,
    /// Total devices across all groups.
    pub nodes: usize,
    /// Devices per km².
    pub per_km2: u32,
    /// Log-normal shadowing σ (dB); 0 = disabled.
    pub shadowing_sigma_db: f64,
    /// Beacon rate of the workload (identical across modes).
    pub beacons_per_sec: f64,
    /// Broadcast coverage (identical across modes, asserted in-run).
    pub coverage: usize,
    /// End-to-end wall time of the incremental delivery mode.
    pub incremental_s: f64,
    /// End-to-end wall time of the naive O(n²) scan; `None` above the cap.
    pub naive_s: Option<f64>,
    /// Candidate-filter share of the incremental query.
    pub incremental_filter_s: f64,
    /// Receive-outcome share of the incremental query.
    pub incremental_outcome_s: f64,
    /// Interference+capture share of `incremental_outcome_s`.
    pub incremental_interference_s: f64,
    /// Grid bucket membership writes, incremental mode.
    pub incremental_bucket_ops: u64,
    /// Batched-sweep work counters from the incremental run.
    pub sweep: SweepStats,
    /// Process peak RSS when the row finished.
    pub peak_rss_bytes: Option<u64>,
}

/// A batched AEDB evaluation posed directly on a dense scenario.
#[derive(Debug, Clone, Copy)]
pub struct BatchedEval {
    /// Nodes of the dense scenario evaluated.
    pub nodes: usize,
    /// Candidate configurations in the batch.
    pub candidates: usize,
    /// Fixed evaluation networks per candidate.
    pub networks: usize,
    /// Wall time of the whole batch.
    pub seconds: f64,
}

/// The whole `BENCH_scale.json` artifact; [`write`](Self::write) is the
/// single emission path shared by `exp_scale` and the schema docs above.
#[derive(Debug, Clone)]
pub struct ScaleArtifact {
    /// Wall time of the fixed calibration workload (500@200 full
    /// protocol, min-of-3) measured in the same job.
    pub calibration_seconds: f64,
    /// One row per dense scenario, in run order.
    pub rows: Vec<ScaleRow>,
    /// The trailing batched-evaluation record.
    pub batched_eval: BatchedEval,
}

/// JSON number: finite values with 6 decimals, else `null` (matches what
/// the schema checker accepts for nullable columns).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or("null".into(), json_num)
}

impl ScaleArtifact {
    /// Renders the artifact as the v7 JSON document.
    pub fn to_json(&self) -> String {
        let mut rows = String::new();
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            let _ = write!(
                rows,
                "    {{\"spec\": \"{}\", \
                 \"nodes\": {}, \"per_km2\": {}, \"shadowing_sigma_db\": {}, \
                 \"beacons_per_sec\": {}, \"coverage\": {},\n     \
                 \"incremental_s\": {}, \"naive_s\": {},\n     \
                 \"incremental_filter_s\": {}, \"incremental_outcome_s\": {},\n     \
                 \"incremental_interference_s\": {},\n     \
                 \"incremental_bucket_ops\": {},\n     \
                 \"sweep_cells_visited\": {}, \"sweep_cells_culled\": {},\n     \
                 \"sweep_batched_candidates\": {}, \"sweep_scalar_candidates\": {},\n     \
                 \"peak_rss_bytes\": {},\n     \
                 \"speedup_naive_over_incremental\": {}}}",
                r.spec,
                r.nodes,
                r.per_km2,
                json_num(r.shadowing_sigma_db),
                json_num(r.beacons_per_sec),
                r.coverage,
                json_num(r.incremental_s),
                json_opt(r.naive_s),
                json_num(r.incremental_filter_s),
                json_num(r.incremental_outcome_s),
                json_num(r.incremental_interference_s),
                r.incremental_bucket_ops,
                r.sweep.cells_visited,
                r.sweep.cells_culled,
                r.sweep.batched_candidates,
                r.sweep.scalar_candidates,
                r.peak_rss_bytes.map_or("null".into(), |b| b.to_string()),
                json_opt(r.naive_s.map(|n| n / r.incremental_s)),
            );
        }
        let b = &self.batched_eval;
        format!(
            "{{\n  \"schema\": \"{SCALE_SCHEMA}\",\n  \
             \"calibration\": {{\"workload\": \"500@200 full protocol, min of 3\", \
             \"seconds\": {}}},\n  \
             \"scenarios\": [\n{rows}\n  ],\n  \
             \"batched_eval\": {{\"nodes\": {}, \"candidates\": {}, \
             \"networks\": {}, \"seconds\": {}}}\n}}\n",
            json_num(self.calibration_seconds),
            b.nodes,
            b.candidates,
            b.networks,
            json_num(b.seconds),
        )
    }

    /// Writes the artifact to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Scale knobs of an experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Independent repetitions per algorithm (paper: 30).
    pub reps: usize,
    /// Fixed evaluation networks per fitness computation (paper: 10).
    pub networks: usize,
    /// Evaluation budget per run for the MOEAs (paper: 10 000; the MLS
    /// budget is 2.4× this, matching §VI's "2.4 times more evaluations").
    pub evals: u64,
    /// Densities to run.
    pub densities: Vec<Density>,
    /// Whether full paper scale was requested.
    pub paper: bool,
    /// FAST99 samples per parameter (sensitivity experiment only).
    pub fast_samples: usize,
    /// Beyond-paper dense scenarios (`--dense nodes@density,...`); the
    /// scale experiments iterate these.
    pub dense: Vec<DenseScenario>,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self {
            reps: 3,
            networks: 5,
            evals: 240,
            densities: vec![Density::D100],
            paper: false,
            fast_samples: 129,
            dense: vec![DenseScenario::PRESETS[0].clone()],
        }
    }
}

impl ExperimentScale {
    /// The paper's full protocol.
    pub fn paper() -> Self {
        Self {
            reps: 30,
            networks: 10,
            evals: 10_000,
            densities: Density::ALL.to_vec(),
            paper: true,
            fast_samples: 1001,
            dense: DenseScenario::PRESETS.to_vec(),
        }
    }

    /// Parses flags from `std::env::args`:
    /// `--paper`, `--reps N`, `--evals N`, `--networks N`,
    /// `--densities 100,200,300`, `--fast-samples N`, `--dense SPEC,...`.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit iterator of arguments (testable).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut scale = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--paper" => scale = Self::paper(),
                "--reps" => scale.reps = expect_num(&mut it, "--reps") as usize,
                "--evals" => scale.evals = expect_num(&mut it, "--evals"),
                "--networks" => scale.networks = expect_num(&mut it, "--networks") as usize,
                "--fast-samples" => {
                    scale.fast_samples = expect_num(&mut it, "--fast-samples") as usize
                }
                "--densities" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| panic!("--densities needs a value"));
                    scale.densities = v
                        .split(',')
                        .map(|d| {
                            Density::from_per_km2(d.trim().parse().unwrap_or(0))
                                .unwrap_or_else(|| panic!("unknown density {d}"))
                        })
                        .collect();
                }
                "--dense" => {
                    let v = it.next().unwrap_or_else(|| panic!("--dense needs a value"));
                    scale.dense = v.split(',').map(parse_dense_spec).collect();
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --paper | --reps N --evals N --networks N \
                         --densities 100,200,300 \
                         --dense 500@200,2000@200@4,500@200+50:still:10dbm \
                         (nodes@density[@shadowing_db][+n[:still|:walkI|:rwpP][:POWERdbm]...]) \
                         --fast-samples N"
                    );
                    std::process::exit(0);
                }
                other => eprintln!("warning: ignoring unknown flag {other}"),
            }
        }
        scale
    }

    /// MLS evaluation budget: 2.4× the MOEA budget, as in the paper
    /// (24 000 vs 10 000).
    pub fn mls_evals(&self) -> u64 {
        (self.evals as f64 * 2.4).round() as u64
    }

    /// The campaign budget these scale knobs denote — the bridge into
    /// the resident service's vocabulary
    /// ([`serve::campaign::CampaignBudget`]); `algorithms_for` routes
    /// through this, so harness rows and service campaigns are
    /// constructed identically.
    pub fn campaign_budget(&self) -> serve::campaign::CampaignBudget {
        serve::campaign::CampaignBudget {
            paper: self.paper,
            evals: self.evals,
            reps: self.reps,
        }
    }
}

fn expect_num<I: Iterator<Item = String>>(it: &mut I, flag: &str) -> u64 {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a numeric value"))
}

/// Parses one `--dense` component through the **shared scenario grammar**
/// ([`DenseScenario::parse_spec`] in `manet::world`): the historical
/// `nodes@density[@sigma]` form (e.g. `2000@200@4` = 2000 nodes at
/// 200 dev/km² under 4 dB log-normal shadowing), optionally extended with
/// heterogeneous `+n[:still|:walkI|:rwpP][:POWERdbm]` groups (e.g.
/// `500@200+50:still:10dbm`). Malformed specs — wrong component counts (a
/// trailing `@` included), empty or non-numeric fields, unknown modifiers
/// — are rejected with a usage error instead of being silently
/// part-parsed; the strictness (and its wording) lives in the one shared
/// parser, this wrapper only keeps the bench usage message.
fn parse_dense_spec(spec: &str) -> DenseScenario {
    DenseScenario::parse_spec(spec).unwrap_or_else(|e| {
        panic!(
            "--dense wants nodes@density[@sigma][+group...], got {:?}: {}",
            e.spec, e.detail
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExperimentScale {
        ExperimentScale::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick() {
        let s = parse(&[]);
        assert!(!s.paper);
        assert_eq!(s.densities, vec![Density::D100]);
        assert!(s.evals <= 1000);
    }

    #[test]
    fn paper_flag_sets_protocol() {
        let s = parse(&["--paper"]);
        assert!(s.paper);
        assert_eq!(s.reps, 30);
        assert_eq!(s.networks, 10);
        assert_eq!(s.evals, 10_000);
        assert_eq!(s.mls_evals(), 24_000);
        assert_eq!(s.densities.len(), 3);
    }

    #[test]
    fn individual_flags() {
        let s = parse(&["--reps", "7", "--evals", "500", "--densities", "200,300"]);
        assert_eq!(s.reps, 7);
        assert_eq!(s.evals, 500);
        assert_eq!(s.densities, vec![Density::D200, Density::D300]);
    }

    #[test]
    fn mls_budget_ratio() {
        let s = parse(&["--evals", "1000"]);
        assert_eq!(s.mls_evals(), 2400);
    }

    #[test]
    #[should_panic(expected = "numeric")]
    fn bad_number_panics() {
        let _ = parse(&["--reps", "x"]);
    }

    #[test]
    fn dense_scenarios_hold_density_while_scaling() {
        let d = DenseScenario::new(200, 500);
        let field = d.field();
        // 500 nodes at 200/km² need 2.5 km² => side ≈ 1581 m
        assert!((field.area() - 2.5e6).abs() < 1.0, "area {}", field.area());
        assert!((field.width - 1581.14).abs() < 0.1);
        let c = d.sim_config(0);
        assert_eq!(c.n_nodes, 500);
        assert_eq!(c.radio.default_tx_dbm, 16.02);
        // fixed networks: seeds deterministic and distinct
        assert_eq!(d.sim_config(3).seed, d.sim_config(3).seed);
        assert_ne!(d.sim_config(0).seed, d.sim_config(1).seed);
    }

    #[test]
    fn dense_presets_meet_scale_floor() {
        for p in DenseScenario::PRESETS {
            assert!(p.per_km2 >= 200, "{p}");
            assert!(p.n_nodes >= 500, "{p}");
        }
    }

    #[test]
    fn dense_flag_parses() {
        let s = parse(&["--dense", "600@250, 800@300"]);
        assert_eq!(s.dense.len(), 2);
        assert_eq!(s.dense[0].n_nodes, 600);
        assert_eq!(s.dense[0].per_km2, 250);
        assert_eq!(s.dense[0].shadowing_sigma_db, 0.0);
        assert_eq!(s.dense[1].n_nodes, 800);
        assert_eq!(s.dense[1].per_km2, 300);
    }

    #[test]
    #[should_panic(expected = "expected 2 or 3 @-separated components")]
    fn dense_flag_rejects_trailing_at() {
        // the historical parser silently ignored the empty 4th component
        let _ = parse(&["--dense", "2000@200@4@"]);
    }

    #[test]
    #[should_panic(expected = "expected 2 or 3 @-separated components")]
    fn dense_flag_rejects_extra_components() {
        let _ = parse(&["--dense", "2000@200@4@9"]);
    }

    #[test]
    #[should_panic(expected = "bad density")]
    fn dense_flag_rejects_empty_density() {
        let _ = parse(&["--dense", "2000@"]);
    }

    #[test]
    #[should_panic(expected = "bad node count")]
    fn dense_flag_rejects_non_numeric_nodes() {
        let _ = parse(&["--dense", "many@200"]);
    }

    #[test]
    #[should_panic(expected = "bad shadowing sigma")]
    fn dense_flag_rejects_bad_sigma() {
        let _ = parse(&["--dense", "2000@200@x"]);
    }

    #[test]
    fn dense_flag_parses_heterogeneous_groups() {
        // The bench flag is a thin wrapper over the shared grammar: group
        // syntax flows straight through to heterogeneous DenseScenarios.
        let s = parse(&["--dense", "500@200+50:still:10dbm"]);
        assert_eq!(s.dense.len(), 1);
        let d = &s.dense[0];
        assert_eq!(d.n_nodes, 550);
        assert_eq!(d.groups.len(), 2);
        assert_eq!(d.groups[1].tx_power_dbm, Some(10.0));
        assert_eq!(d.spec_string(), "500@200+50:still:10dbm");
    }

    #[test]
    #[should_panic(expected = "unknown group modifier")]
    fn dense_flag_rejects_unknown_modifier() {
        let _ = parse(&["--dense", "500@200+50:hover"]);
    }

    #[test]
    fn dense_flag_parses_shadowing() {
        let s = parse(&["--dense", "2000@200@4, 10000@400"]);
        assert_eq!(s.dense.len(), 2);
        assert_eq!(s.dense[0].shadowing_sigma_db, 4.0);
        assert_eq!(s.dense[0].n_nodes, 2000);
        assert_eq!(s.dense[1].shadowing_sigma_db, 0.0);
        assert_eq!(s.dense[1].n_nodes, 10_000);
        let c = s.dense[0].sim_config(0);
        assert_eq!(c.radio.shadowing_sigma_db, 4.0);
    }

    #[test]
    fn bounded_tail_grid_matches_naive_on_shadowed_dense() {
        // Shadowed scenarios no longer fall back to the naive scan: the
        // bounded-tail grid query must agree with it bit for bit at
        // 200 dev/km². Shortened window: the debug build is slow. That the
        // grid is also ≥ 2× faster is gated in release, where timing is
        // stable: the `1000@200@4` `speedup_naive_over_incremental` floor
        // in `scripts/perf_floors.json`.
        use manet::protocol::Flooding;
        use manet::sim::{DeliveryMode, Simulator};
        let d = DenseScenario::new(200, 1000).with_shadowing(4.0);
        let mut cfg = d.sim_config(0);
        cfg.broadcast_time = 8.0;
        cfg.end_time = 10.0;
        let n = cfg.n_nodes;
        let run = |mode: DeliveryMode| {
            let mut sim = Simulator::new(cfg.clone(), Flooding::new(n, (0.0, 0.1)));
            sim.set_delivery_mode(mode);
            sim.run_to_end()
        };
        let (r_grid, r_naive) = (run(DeliveryMode::Incremental), run(DeliveryMode::Naive));
        assert_eq!(r_grid.broadcast, r_naive.broadcast, "paths must agree");
        assert_eq!(r_grid.counters, r_naive.counters, "paths must agree");
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        // The scale artifact records peak RSS per row; on Linux the
        // /proc-based reading must exist, be monotone and be plausibly
        // sized (this test process certainly uses more than 1 MB).
        if !cfg!(target_os = "linux") {
            return;
        }
        let a = peak_rss_bytes().expect("VmHWM available on Linux");
        assert!(a > 1 << 20, "peak RSS {a} implausibly small");
        let _ballast = vec![0u8; 8 << 20];
        let b = peak_rss_bytes().expect("VmHWM available on Linux");
        assert!(b >= a, "high-water mark must be monotone");
    }

    #[test]
    fn xl_preset_runs_end_to_end_shortened() {
        // The 10⁴-node XL preset is exercised end-to-end (full protocol)
        // by exp_scale in release; here a shortened window proves the
        // preset wiring (field scaling, seeds, incremental default) works.
        use manet::protocol::Flooding;
        use manet::sim::Simulator;
        let d = DenseScenario::XL_PRESETS[1].clone();
        assert_eq!(d.n_nodes, 10_000);
        let mut cfg = d.sim_config(0);
        cfg.broadcast_time = 0.5;
        cfg.end_time = 1.0;
        let n = cfg.n_nodes;
        let report = Simulator::new(cfg, Flooding::new(n, (0.0, 0.1))).run();
        assert_eq!(report.n_nodes, 10_000);
        assert!(report.counters.beacons_sent >= 5_000);
        assert!(report.broadcast.coverage() > 100);
    }

    #[test]
    fn dense_simulation_is_tractable() {
        // A full 500-node broadcast simulation must run end to end — the
        // workload the spatial grid exists for.
        use aedb::params::AedbParams;
        use aedb::protocol::Aedb;
        use manet::sim::Simulator;
        let d = DenseScenario::new(200, 500);
        let cfg = d.sim_config(0);
        let n = cfg.n_nodes;
        let report = Simulator::new(cfg, Aedb::new(n, AedbParams::default_config())).run();
        assert_eq!(report.n_nodes, 500);
        assert!(report.counters.beacons_sent > 10_000);
    }
}
