//! Per-layer accounting of the traced run, grouped by module, with the
//! cross-checks that fail the run rather than print a wrong number.
//!
//! Every workload reports every metric: a layer a workload bypasses reads
//! zero. Seconds are only reported for the simulator, which every workload
//! runs; the other layers report counts and shares (their seconds are
//! printed on the human-readable lines).

use crate::shims::{ProtocolStats, StorageStats, TimedProtocol};
use crate::stats::ratio;
use crate::Metric;
use manet::protocol::Protocol;
use manet::sim::{SimReport, Simulator};
use manet::world::WorldSpec;
use std::sync::Arc;
use std::time::Instant;

/// Simulator layer (`manet`), summed over the traced simulations.
#[derive(Debug, Default)]
pub struct Manet {
    pub sims: u64,
    pub setup_s: f64,
    pub run_s: f64,
    pub filter_s: f64,
    pub outcome_s: f64,
    pub interference_s: f64,
    pub protocol_s: f64,
    pub protocol_calls: u64,
    pub bucket_ops: u64,
    pub node_moves: u64,
    pub refresh_events: u64,
    pub cells_visited: u64,
    pub cells_culled: u64,
    pub batched_candidates: u64,
    pub scalar_candidates: u64,
    pub beacons_sent: u64,
    pub beacons_received: u64,
    pub data_sent: u64,
    pub collision_losses: u64,
    pub half_duplex_losses: u64,
}

impl Manet {
    /// Builds and runs `world` with the protocol shim and query profiling
    /// on, adding what the simulator reports to the layer totals.
    pub fn simulate<P: Protocol>(&mut self, world: &WorldSpec, protocol: P) -> SimReport {
        let stats = Arc::new(ProtocolStats::default());
        let t0 = Instant::now();
        let mut sim = Simulator::from_world(world, TimedProtocol::new(protocol, stats.clone()));
        sim.set_query_profiling(true);
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let report = sim.run_to_end();
        let run_s = t1.elapsed().as_secs_f64();

        let q = sim.query_profile();
        let grid = sim.grid_stats();
        let sweep = sim.sweep_stats();
        let c = &report.counters;
        self.sims += 1;
        self.setup_s += setup_s;
        self.run_s += run_s;
        self.filter_s += q.filter_s;
        self.outcome_s += q.outcome_s;
        self.interference_s += q.interference_s;
        self.protocol_s += stats.seconds();
        self.protocol_calls += stats.calls();
        self.bucket_ops += grid.bucket_ops;
        self.node_moves += grid.node_moves;
        self.refresh_events += sim.grid_refresh_events();
        self.cells_visited += sweep.cells_visited;
        self.cells_culled += sweep.cells_culled;
        self.batched_candidates += sweep.batched_candidates;
        self.scalar_candidates += sweep.scalar_candidates;
        self.beacons_sent += c.beacons_sent;
        self.beacons_received += c.beacons_received;
        self.data_sent += c.data_sent;
        self.collision_losses += c.collision_losses;
        self.half_duplex_losses += c.half_duplex_losses;
        report
    }

    fn query_s(&self) -> f64 {
        self.filter_s + self.outcome_s
    }
}

/// Evaluation layer (`aedb`), seen through the `Problem` shim.
#[derive(Debug, Default)]
pub struct Aedb {
    /// Thread-seconds inside `evaluate` / `evaluate_batch`.
    pub batch_s: f64,
    /// Σ campaign wall × threads that call into the problem: the most
    /// evaluation time the campaigns could have held.
    pub capacity_s: f64,
    pub batch_calls: u64,
    pub batch_vectors: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Optimiser layers: NSGA-II self time, island and AEDB-MLS busy ratios.
#[derive(Debug, Default)]
pub struct Optimisers {
    pub nsga2_run_s: f64,
    pub nsga2_eval_s: f64,
    pub island_eval_s: f64,
    pub island_capacity_s: f64,
    pub mls_eval_s: f64,
    pub mls_capacity_s: f64,
}

/// Service layer (`serve`), seen by the event-stream client.
#[derive(Debug, Default)]
pub struct Serve {
    pub jobs: u64,
    pub replays: u64,
    pub events: u64,
    pub queue_wait_s: f64,
    pub run_s: f64,
    /// One fresh campaign through the service vs the same spec run
    /// directly, both in seconds.
    pub service_campaign_s: f64,
    pub direct_campaign_s: f64,
}

/// Storage layer (`store`), seen through the `Storage` shim, plus the run
/// time of the campaign jobs that did the storage calls.
#[derive(Debug, Default)]
pub struct Store {
    pub io: StorageStats,
    pub campaign_run_s: f64,
    pub campaign_jobs: u64,
}

/// Everything the traced run measures.
#[derive(Debug, Default)]
pub struct Layers {
    pub manet: Manet,
    pub aedb: Aedb,
    pub opt: Optimisers,
    pub serve: Serve,
    pub store: Store,
    pub trace_overhead_ratio: f64,
}

/// Fails the run unless `ok`: a traced number that contradicts another is
/// a bug in the benchmark or the program, and must not be printed.
pub fn cross_check(ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        fail(&what());
    }
}

/// Exits with code 1 and no result.
pub fn fail(what: &str) -> ! {
    eprintln!("cross-check failed: {what}");
    // Exiting skips destructors, so remove any service roots here.
    let _ = std::fs::remove_dir_all(crate::WORK_DIR);
    std::process::exit(1)
}

/// Runs `script` plain, traced, traced, plain (`script(true)` is a traced
/// run) and returns the traced ÷ plain wall-time ratio. The symmetric
/// order cancels warm-up and a steady drift of host speed.
pub fn overhead_abba(mut script: impl FnMut(bool)) -> f64 {
    let mut wall = [0.0; 2];
    for traced in [false, true, true, false] {
        let t0 = Instant::now();
        script(traced);
        wall[traced as usize] += t0.elapsed().as_secs_f64();
    }
    wall[1] / wall[0]
}

/// Slack for sums of independently sampled clocks.
const CLOCK_SLACK: f64 = 1.0001;

impl Layers {
    /// The cross-checks every workload's traced numbers must pass.
    pub fn validate(&self) {
        let m = &self.manet;
        cross_check(m.sims > 0, || "no traced simulation".into());
        cross_check(m.query_s() + m.protocol_s <= m.run_s * CLOCK_SLACK, || {
            format!(
                "query {} s + protocol {} s exceed simulator run {} s",
                m.query_s(),
                m.protocol_s,
                m.run_s
            )
        });
        cross_check(m.interference_s <= m.outcome_s * CLOCK_SLACK, || {
            format!(
                "interference {} s exceeds outcome {} s",
                m.interference_s, m.outcome_s
            )
        });
        cross_check(m.cells_culled <= m.cells_visited, || {
            format!(
                "culled {} cells of {} visited",
                m.cells_culled, m.cells_visited
            )
        });
        let a = &self.aedb;
        cross_check(a.cache_hits + a.cache_misses == a.batch_vectors, || {
            format!(
                "cache hits {} + misses {} != vectors through the problem shim {}",
                a.cache_hits, a.cache_misses, a.batch_vectors
            )
        });
        cross_check(a.batch_s <= a.capacity_s * CLOCK_SLACK, || {
            format!(
                "evaluation {} thread-s exceed campaign capacity {} s",
                a.batch_s, a.capacity_s
            )
        });
        let o = &self.opt;
        for (name, busy, cap) in [
            ("nsga2", o.nsga2_eval_s, o.nsga2_run_s),
            ("island", o.island_eval_s, o.island_capacity_s),
            ("mls", o.mls_eval_s, o.mls_capacity_s),
        ] {
            cross_check(busy <= cap * CLOCK_SLACK, || {
                format!("{name}: evaluation {busy} s exceed its wall capacity {cap} s")
            });
        }
        let s = &self.store;
        cross_check(
            s.io.get_s + s.io.put_s <= s.campaign_run_s * CLOCK_SLACK,
            || {
                format!(
                    "storage {} s exceed campaign job run time {} s",
                    s.io.get_s + s.io.put_s,
                    s.campaign_run_s
                )
            },
        );
        cross_check(self.trace_overhead_ratio > 0.0, || {
            "tracing overhead not measured".into()
        });
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = &self.manet;
        let a = &self.aedb;
        let o = &self.opt;
        let s = &self.serve;
        let st = &self.store;
        let swept = (m.batched_candidates + m.scalar_candidates) as f64;
        vec![
            Metric::new("manet.setup_s", m.setup_s, "s"),
            Metric::new("manet.run_s", m.run_s, "s"),
            Metric::new("manet.query.filter_s", m.filter_s, "s"),
            Metric::new("manet.query.outcome_s", m.outcome_s, "s"),
            Metric::new("manet.query.interference_s", m.interference_s, "s"),
            Metric::new("manet.protocol_s", m.protocol_s, "s"),
            Metric::new("manet.protocol_calls", m.protocol_calls as f64, "count"),
            Metric::new(
                "manet.unattributed_share",
                1.0 - ratio(m.query_s() + m.protocol_s, m.run_s),
                "ratio",
            ),
            Metric::new("manet.grid.bucket_ops", m.bucket_ops as f64, "count"),
            Metric::new("manet.grid.node_moves", m.node_moves as f64, "count"),
            Metric::new(
                "manet.grid.refresh_events",
                m.refresh_events as f64,
                "count",
            ),
            Metric::new("manet.sweep.cells_visited", m.cells_visited as f64, "count"),
            Metric::new(
                "manet.sweep.cull_ratio",
                ratio(m.cells_culled as f64, m.cells_visited as f64),
                "ratio",
            ),
            Metric::new(
                "manet.sweep.batched_share",
                ratio(m.batched_candidates as f64, swept),
                "ratio",
            ),
            Metric::new("manet.beacons_sent", m.beacons_sent as f64, "count"),
            Metric::new("manet.beacons_received", m.beacons_received as f64, "count"),
            Metric::new("manet.data_sent", m.data_sent as f64, "count"),
            Metric::new("manet.collision_losses", m.collision_losses as f64, "count"),
            Metric::new(
                "manet.half_duplex_losses",
                m.half_duplex_losses as f64,
                "count",
            ),
            Metric::new("aedb.batch_calls", a.batch_calls as f64, "count"),
            Metric::new("aedb.batch_vectors", a.batch_vectors as f64, "count"),
            Metric::new(
                "aedb.cache_hit_ratio",
                ratio(a.cache_hits as f64, a.batch_vectors as f64),
                "ratio",
            ),
            Metric::new("aedb.batch_share", ratio(a.batch_s, a.capacity_s), "ratio"),
            Metric::new(
                "moea.nsga2.self_share",
                ratio(o.nsga2_run_s - o.nsga2_eval_s, o.nsga2_run_s),
                "ratio",
            ),
            Metric::new(
                "island.eval_busy_ratio",
                ratio(o.island_eval_s, o.island_capacity_s),
                "ratio",
            ),
            Metric::new(
                "core.mls.eval_busy_ratio",
                ratio(o.mls_eval_s, o.mls_capacity_s),
                "ratio",
            ),
            Metric::new(
                "serve.queue_wait_share",
                ratio(s.queue_wait_s, s.queue_wait_s + s.run_s),
                "ratio",
            ),
            Metric::new(
                "serve.events_per_job",
                ratio(s.events as f64, s.jobs as f64),
                "count",
            ),
            Metric::new(
                "serve.replay_ratio",
                ratio(s.replays as f64, s.jobs as f64),
                "ratio",
            ),
            Metric::new(
                "serve.overhead_ratio",
                ratio(s.service_campaign_s, s.direct_campaign_s),
                "ratio",
            ),
            Metric::new("store.get_calls", st.io.get_calls as f64, "count"),
            Metric::new("store.put_calls", st.io.put_calls as f64, "count"),
            Metric::new("store.bytes_read", st.io.bytes_read as f64, "bytes"),
            Metric::new("store.bytes_written", st.io.bytes_written as f64, "bytes"),
            Metric::new(
                "store.time_share",
                ratio(st.io.get_s + st.io.put_s, st.campaign_run_s),
                "ratio",
            ),
            Metric::new("trace_overhead_ratio", self.trace_overhead_ratio, "ratio"),
        ]
    }

    /// Seconds of the layers whose JSON metrics are counts and shares.
    pub fn lines(&self) -> Vec<String> {
        let a = &self.aedb;
        let o = &self.opt;
        let s = &self.serve;
        let st = &self.store;
        vec![
            format!(
                "aedb.batch_s: {:.3} thread-s over {} calls; aedb.eval_ms: {:.3} ms per fresh evaluation ({} fresh)",
                a.batch_s,
                a.batch_calls,
                1e3 * ratio(a.batch_s, a.cache_misses as f64),
                a.cache_misses
            ),
            format!(
                "moea.nsga2.self_s: {:.4} s of {:.3} s NSGA-II wall",
                o.nsga2_run_s - o.nsga2_eval_s,
                o.nsga2_run_s
            ),
            format!(
                "serve.queue_wait_ms: {:.3} ms, serve.run_ms: {:.3} ms (means over {} jobs)",
                1e3 * ratio(s.queue_wait_s, s.jobs as f64),
                1e3 * ratio(s.run_s, s.jobs as f64),
                s.jobs
            ),
            format!(
                "store.get_s: {:.5} s, store.put_s: {:.5} s, store bytes per campaign job: {:.0}",
                st.io.get_s,
                st.io.put_s,
                ratio(
                    (st.io.bytes_read + st.io.bytes_written) as f64,
                    st.campaign_jobs as f64
                )
            ),
            format!(
                "manet query share of traced simulator run time: {:.3}",
                ratio(self.manet.query_s(), self.manet.run_s)
            ),
        ]
    }
}
