//! Beyond-paper scale experiment: simulation throughput on the dense
//! scenarios (hundreds to 10⁵ nodes, optionally shadowed) for the
//! incremental delivery path against the naive O(n²) oracle, plus a
//! batched AEDB evaluation posed directly on a dense scenario.
//!
//! Emits **`BENCH_scale.json`** (schema `bench-scale-v7`, documented and
//! rendered in [`bench_harness::scale`] — this binary only fills in
//! [`ScaleRow`]s) so the perf trajectory stays machine-readable across
//! PRs: per row, the canonical scenario spec text, wall time per delivery
//! mode (fastest of five identical runs below the 10⁵-node ceiling row,
//! which is single-shot), the candidate-filter vs receive-outcome split
//! of the query (from [`Simulator::query_profile`]) plus the
//! interference-phase share of the incremental outcome, the batched
//! sweep's work counters ([`Simulator::sweep_stats`]) and the process's
//! peak RSS high-water mark when the row finished. A fixed **calibration
//! workload** is timed first, so CI's perf-regression gate
//! (`scripts/check_bench_regression.py`) can check *absolute* wall-time
//! ceilings (normalised by the calibration run, robust to runner speed)
//! on top of the speedup floors.
//!
//! Flags: `--dense 500@200,2000@200@4,10000@400` selects scenarios in the
//! shared grammar (`nodes@density[@sigma]`, plus heterogeneous
//! `+n[:still|:walkI|:rwpP][:POWERdbm]` groups), `--paper` runs all
//! presets including the 10⁴/10⁵-node, shadowed and heterogeneous ones.
use aedb::params::AedbParams;
use aedb::scenario::DenseScenario;
use bench_harness::scale::{peak_rss_bytes, BatchedEval, ExperimentScale, ScaleArtifact, ScaleRow};
use bench_harness::tables::{f, Table};
use manet::protocol::Flooding;
use manet::sim::{DeliveryMode, Simulator};
use manet::SweepStats;
use std::time::Instant;

/// Above this node count the naive O(n²) baseline is skipped — it would
/// dominate the whole run without telling us anything new.
const NAIVE_CAP: usize = 2_500;

struct ModeRun {
    seconds: f64,
    coverage: usize,
    beacons_per_sec: f64,
    bucket_ops: u64,
    /// Candidate gathering/filtering/ordering seconds (profiled).
    filter_s: f64,
    /// Exact receive-outcome seconds (profiled).
    outcome_s: f64,
    /// Interference-resolution share of `outcome_s` (incremental only;
    /// the naive oracle has no finer split).
    interference_s: f64,
    /// Batched-sweep work counters (all zero outside incremental mode,
    /// which is the only path that sweeps).
    sweep: SweepStats,
}

/// Rows at or above this node count are measured single-shot — repeating
/// a run of minutes would dominate the whole experiment for one row's
/// noise margin.
const SINGLE_SHOT_NODES: usize = 50_000;

/// Measure one delivery mode on one scenario, keeping the fastest of a
/// few identical runs. Wall times bounce with host contention; the
/// minimum is the robust estimator of the un-contended cost (the same
/// reasoning as [`calibration_seconds`]). The runs are deterministic
/// (same seed), so the kept run's coverage/profile/counters are the
/// row's values, not a mix.
fn run_mode(d: &DenseScenario, mode: DeliveryMode) -> ModeRun {
    let reps = if d.n_nodes >= SINGLE_SHOT_NODES { 1 } else { 5 };
    let mut best: Option<ModeRun> = None;
    for _ in 0..reps {
        let r = run_mode_once(d, mode);
        let faster = match &best {
            None => true,
            Some(b) => r.seconds < b.seconds,
        };
        if faster {
            best = Some(r);
        }
    }
    best.expect("reps >= 1")
}

fn run_mode_once(d: &DenseScenario, mode: DeliveryMode) -> ModeRun {
    // Every scenario — homogeneous or heterogeneous — compiles through the
    // declarative WorldSpec path.
    let world = d.world_spec(0);
    let n = world.n_nodes();
    let duration = world.end_time;
    let mut sim = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1)));
    sim.set_delivery_mode(mode);
    // Profiling samples two `Instant`s per delivery query in both modes,
    // so the overhead cancels out of the naive-over-incremental speedup.
    sim.set_query_profiling(true);
    let t0 = Instant::now();
    let report = sim.run_to_end();
    let seconds = t0.elapsed().as_secs_f64();
    let profile = sim.query_profile();
    ModeRun {
        seconds,
        coverage: report.broadcast.coverage(),
        beacons_per_sec: report.counters.beacons_sent as f64 / duration,
        bucket_ops: sim.grid_stats().bucket_ops,
        filter_s: profile.filter_s,
        outcome_s: profile.outcome_s,
        interference_s: profile.interference_s,
        sweep: sim.sweep_stats(),
    }
}

/// Wall time (s) of the fixed calibration workload: a full paper-protocol
/// run of the 500-node 200 dev/km² preset on the incremental path,
/// min-of-3 (the minimum is the robust estimator of the un-contended
/// cost). Every row's absolute wall time is meaningful *relative to this
/// number* — the gate divides by it, cancelling runner speed.
fn calibration_seconds() -> f64 {
    let world = DenseScenario::new(200, 500).world_spec(0);
    let n = world.n_nodes();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut sim = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1)));
        // Profiling on, exactly like every measured row (`run_mode`), so
        // the per-query `Instant` overhead cancels out of the
        // row-over-calibration ratios the absolute gate checks.
        sim.set_query_profiling(true);
        let t0 = Instant::now();
        let _ = sim.run_to_end();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut scale = ExperimentScale::from_args();
    if scale.paper {
        let mut dense = DenseScenario::PRESETS.to_vec();
        dense.extend(DenseScenario::SHADOWED_PRESETS);
        dense.push(DenseScenario::hetero_preset());
        dense.extend(DenseScenario::XL_PRESETS);
        scale.dense = dense;
    }
    let calibration_s = calibration_seconds();
    println!("calibration workload (500@200 full protocol, min of 3): {calibration_s:.3} s");
    println!("== dense-scenario simulation throughput: incremental vs naive ==");
    let mut t = Table::new(vec![
        "scenario",
        "field (m)",
        "incremental (s)",
        "filter/outcome/intf (s)",
        "naive (s)",
        "bucket ops",
        "cull/visit cells",
        "coverage",
    ]);
    let mut rows: Vec<ScaleRow> = Vec::new();
    for d in &scale.dense {
        let inc = run_mode(d, DeliveryMode::Incremental);
        let naive = (d.n_nodes <= NAIVE_CAP).then(|| {
            let r = run_mode(d, DeliveryMode::Naive);
            assert_eq!(inc.coverage, r.coverage, "delivery modes must agree");
            r
        });
        t.row(vec![
            d.to_string(),
            f(d.field().width, 0),
            f(inc.seconds, 3),
            format!(
                "{}/{}/{}",
                f(inc.filter_s, 3),
                f(inc.outcome_s, 3),
                f(inc.interference_s, 3)
            ),
            naive.as_ref().map_or("-".into(), |n| f(n.seconds, 3)),
            inc.bucket_ops.to_string(),
            format!("{}/{}", inc.sweep.cells_culled, inc.sweep.cells_visited),
            inc.coverage.to_string(),
        ]);
        rows.push(ScaleRow {
            spec: d.spec_string(),
            nodes: d.n_nodes,
            per_km2: d.per_km2,
            shadowing_sigma_db: d.shadowing_sigma_db,
            beacons_per_sec: inc.beacons_per_sec,
            coverage: inc.coverage,
            incremental_s: inc.seconds,
            naive_s: naive.as_ref().map(|n| n.seconds),
            incremental_filter_s: inc.filter_s,
            incremental_outcome_s: inc.outcome_s,
            incremental_interference_s: inc.interference_s,
            incremental_bucket_ops: inc.bucket_ops,
            sweep: inc.sweep,
            peak_rss_bytes: peak_rss_bytes(),
        });
    }
    t.print();

    // A batched AEDB evaluation posed *directly on a dense scenario* —
    // the tuning problem at beyond-paper scale (the paper-scale problems
    // are covered by the other experiment binaries).
    let batched_eval = {
        use aedb::scenario::Scenario;
        use mopt::problem::Problem;
        let dense = scale.dense[0].clone();
        let scenario = Scenario::dense(dense.clone(), scale.networks.min(3));
        let n_networks = scenario.n_networks;
        let problem = aedb::problem::AedbProblem::paper(scenario);
        let xs: Vec<Vec<f64>> = vec![
            AedbParams::default_config().to_vec(),
            vec![0.0, 0.2, -70.0, 1.0, 50.0],
            vec![0.3, 1.0, -85.0, 1.5, 20.0],
        ];
        let t0 = Instant::now();
        let evals = problem.evaluate_batch(&xs);
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "\nbatched evaluation on the dense problem ({dense}: {} candidates x {n_networks} \
             networks): {secs:.3} s",
            xs.len(),
        );
        for (x, ev) in xs.iter().zip(&evals) {
            println!(
                "  delays [{:.2},{:.2}] border {:>6.1} -> energy {:>8.2} coverage {:>7.1} fwd {:>7.1} viol {:.3}",
                x[0], x[1], x[2], ev.objectives[0], -ev.objectives[1], ev.objectives[2], ev.violation
            );
        }
        BatchedEval {
            nodes: dense.n_nodes,
            candidates: xs.len(),
            networks: n_networks,
            seconds: secs,
        }
    };

    let artifact = ScaleArtifact {
        calibration_seconds: calibration_s,
        rows,
        batched_eval,
    };
    artifact
        .write("BENCH_scale.json")
        .expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json ({} scenarios)", scale.dense.len());
}
