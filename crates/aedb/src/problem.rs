//! The AEDB tuning problem — Eq. 1 of the paper.
//!
//! ```text
//! F(s) = [ min energy(s), max coverage(s), min forwardings(s) ]
//!        subject to broadcast_time(s) < 2 s
//! ```
//!
//! where every quantity is the average over 10 fixed simulated networks.
//! Internally the objectives are stored in minimisation form:
//! `[energy, −coverage, forwardings]`; the constraint becomes the
//! violation `max(0, bt − 2)`.

use crate::params::{AedbParams, N_PARAMS};
use crate::protocol::Aedb;
use crate::scenario::Scenario;
use manet::metrics::BroadcastMetrics;
use manet::sim::{Checkpoint, Simulator};
use mopt::problem::{Evaluation, Problem};
use mopt::solution::Bounds;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use store::Storage;

/// Broadcast-time constraint limit (s): "any solution that takes longer
/// than 2 seconds is no longer valid".
pub const BT_LIMIT: f64 = 2.0;

/// Lattice resolution of the evaluation cache: each decision variable is
/// snapped to this many steps across its bound range (~1e-6 relative),
/// far below any step the optimisers take, so only genuinely repeated
/// configurations collide.
const CACHE_STEPS: f64 = (1u64 << 20) as f64;

/// Quantized decision vector — the evaluation-cache key.
type CacheKey = [u64; N_PARAMS];

/// The four raw observables of one configuration, averaged over the
/// scenario's networks (the sensitivity analysis needs all four).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AedbOutcome {
    /// Σ of forwarding transmit powers (dBm), averaged.
    pub energy: f64,
    /// Devices reached (count), averaged.
    pub coverage: f64,
    /// Forwarding transmissions (count), averaged.
    pub forwardings: f64,
    /// Dissemination duration (s), averaged.
    pub broadcast_time: f64,
}

/// How many simulations an [`AedbProblem`] ran, how many broadcast edges
/// it simulated to start them from, and how many stopped once their
/// broadcast settled instead of at `end_time`
/// ([`AedbProblem::sim_stats`]). Cache hits simulate nothing, so
/// `simulations` counts `networks` per fresh evaluation.
///
/// Over a problem's whole life the counters cross-check:
/// `checkpoints ≤ networks`, `restores == simulations` and
/// `settled ≤ simulations`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Simulations run.
    pub simulations: u64,
    /// Broadcast-edge checkpoints taken: one the first time each network
    /// is simulated, kept for the problem's life.
    pub checkpoints: u64,
    /// Simulations that resumed from a network's edge — every one, since
    /// no simulation runs from `t = 0`.
    pub restores: u64,
    /// Simulations that stopped when their broadcast settled
    /// ([`Simulator::settle`]); the others ran to `end_time` with a
    /// protocol timer or data frame still pending.
    pub settled: u64,
}

/// The tuning problem for one density scenario.
///
/// Evaluation simulates the candidate on every fixed network of the
/// scenario (the inner loop of the paper, which dominates runtime) and
/// averages the metrics. Each network is simulated up to its broadcast
/// once for the problem's life, and every simulation on it restores that
/// edge and settles only its own broadcast. Every entry point —
/// [`Problem::evaluate_batch`], [`Problem::evaluate`] and
/// [`evaluate_full`](Self::evaluate_full) —
/// runs one pipeline that fans the (candidate × network) product out over
/// the thread pool at once, one job per pair: the unit of parallelism the
/// optimisers feed a generation at a time, and the network axis of a lone
/// candidate. A quantized-parameter cache dedupes repeated configurations
/// across generations.
///
/// The problem owns the simulators its jobs run on: the batched pipeline
/// runs thousands of simulations per generation through the same handful
/// of pre-allocated event queues, tables and scratch buffers, and they are
/// freed with the problem, so a finished campaign keeps none alive.
pub struct AedbProblem {
    scenario: Scenario,
    /// Each network's broadcast edge, taken the first time the network is
    /// simulated (see [`simulate_one`](Self::simulate_one)).
    edges: Vec<OnceLock<Checkpoint>>,
    /// Idle simulators, reused across batches; never more than the peak
    /// number of concurrent simulations.
    sims: Mutex<Vec<Simulator<Aedb>>>,
    bounds: Bounds,
    /// Whether evaluation fans its jobs over the thread pool (`true` by
    /// default); off, the calling thread walks them in order (the
    /// sequential reference of tests and probes).
    parallel_batches: bool,
    /// Evaluation memo keyed by quantized decision vectors; `None`
    /// disables caching (perf baselines).
    cache: Option<Mutex<HashMap<CacheKey, Evaluation>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// [`SimStats`] counters.
    simulations: AtomicU64,
    checkpoints: AtomicU64,
    restores: AtomicU64,
    settled: AtomicU64,
    /// When set, the cache is loaded from this storage slot on
    /// construction and flushed back on drop — repeated experiments start
    /// warm. The slot is any [`Storage`] backend plus the `(namespace,
    /// key)` the serialized cache lives under.
    cache_store: Option<CacheSlot>,
}

/// Where a persisted evaluation cache lives: a storage backend plus the
/// namespaced key of the serialized cache document.
#[derive(Clone)]
struct CacheSlot {
    storage: Arc<dyn Storage>,
    namespace: String,
    key: String,
}

impl AedbProblem {
    /// Paper-faithful problem: Table III bounds and the scenario's fixed
    /// networks. Every evaluation entry point fans its (candidate ×
    /// network) jobs over the thread pool — a lone candidate's networks
    /// included — unless
    /// [`with_parallel_batches(false)`](Self::with_parallel_batches) turns
    /// the pool off.
    ///
    /// The quantized evaluation cache is **enabled** by default: decision
    /// vectors are snapped to a `2^20`-step lattice per variable, so two
    /// vectors closer than ~1e-6 of a bound range share one simulated
    /// result. That dedupes the exact repeats optimisers produce
    /// (elitism, archive re-injection) at the cost of a deliberate
    /// approximation for near-identical vectors; callers needing strict
    /// per-vector evaluation (e.g. parity baselines) should opt out via
    /// [`with_eval_cache(false)`](Self::with_eval_cache).
    ///
    /// # Panics
    ///
    /// If the scenario has no networks: the objectives are averages over
    /// them.
    pub fn paper(scenario: Scenario) -> Self {
        assert!(
            scenario.n_networks > 0,
            "a tuning scenario needs at least one network"
        );
        Self {
            edges: (0..scenario.n_networks).map(|_| OnceLock::new()).collect(),
            sims: Mutex::new(Vec::new()),
            scenario,
            bounds: AedbParams::bounds(),
            parallel_batches: true,
            cache: Some(Mutex::new(HashMap::new())),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            simulations: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            settled: AtomicU64::new(0),
            cache_store: None,
        }
    }

    /// Enables/disables the quantized evaluation cache (on by default).
    pub fn with_eval_cache(mut self, on: bool) -> Self {
        self.cache = if on {
            Some(Mutex::new(HashMap::new()))
        } else {
            None
        };
        self
    }

    /// Enables/disables the thread-pool fan-out of every evaluation entry
    /// point — [`Problem::evaluate_batch`], [`Problem::evaluate`] and
    /// [`evaluate_full`](Self::evaluate_full) alike (on by default). On,
    /// a call's (candidate, network) jobs run on the persistent `rayon`
    /// pool; off, the calling thread walks the same job list in order. A
    /// call made inside another pool call (a repetition sharded over the
    /// pool) runs its jobs inline either way. Results are bit-identical
    /// either way.
    pub fn with_parallel_batches(mut self, on: bool) -> Self {
        self.parallel_batches = on;
        self
    }

    /// Backs the quantized evaluation cache with an arbitrary [`Storage`]
    /// slot: the serialized cache document lives under
    /// `(namespace, key)` on `storage`. Entries matching this problem's
    /// [fingerprint](Self::cache_fingerprint) are loaded now and the full
    /// cache is flushed back on drop, so repeated experiments over the
    /// same scenario start warm. Enables the cache if it was disabled.
    /// Load/flush failures are silent (a cold cache is always correct);
    /// call [`flush_eval_cache`](Self::flush_eval_cache) for an explicit,
    /// error-reporting flush. On a [`store::DiskStorage`] rooted at `dir`
    /// with an empty namespace, the document is the file `dir/key`. The
    /// resident simulation service uses this to pool eval caches from
    /// every campaign in one backend (disk, memory, or whatever else
    /// implements the trait), so they outlive any one process.
    pub fn with_eval_cache_storage(
        mut self,
        storage: Arc<dyn Storage>,
        namespace: impl Into<String>,
        key: impl Into<String>,
    ) -> Self {
        if self.cache.is_none() {
            self.cache = Some(Mutex::new(HashMap::new()));
        }
        let slot = CacheSlot {
            storage,
            namespace: namespace.into(),
            key: key.into(),
        };
        if let Ok(Some(bytes)) = slot.storage.get(&slot.namespace, &slot.key) {
            let loaded = Self::parse_cache(&bytes, self.cache_fingerprint());
            let cache = self.cache.as_ref().expect("cache enabled above");
            cache.lock().extend(loaded);
        }
        self.cache_store = Some(slot);
        self
    }

    /// Identity of the cached mapping: any change to the scenario (its
    /// networks, density, dense override), the bounds the quantization
    /// lattice is anchored to, or the lattice itself must invalidate a
    /// persisted cache file.
    pub fn cache_fingerprint(&self) -> u64 {
        let mut text = format!(
            "{:?}|nets={}|steps={}",
            self.scenario, self.scenario.n_networks, CACHE_STEPS
        );
        for i in 0..self.bounds.len() {
            let (lo, hi) = self.bounds.get(i);
            text.push_str(&format!("|{lo:e}..{hi:e}"));
        }
        // FNV-1a, stable across runs and platforms
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Writes the current cache contents to the configured storage slot
    /// (no-op without
    /// [`with_eval_cache_storage`](Self::with_eval_cache_storage)).
    /// Format: a header line `aedb-eval-cache v1 <fingerprint>` followed
    /// by one entry per line — the quantized key and the f64 bit patterns
    /// of the objectives and violation in hex, so persisted evaluations
    /// round-trip bit-exactly. Atomic replacement (a crash mid-write must
    /// never leave a truncated document behind) is the [`Storage::put`]
    /// contract, not re-implemented here.
    pub fn flush_eval_cache(&self) -> std::io::Result<()> {
        let (Some(slot), Some(cache)) = (&self.cache_store, &self.cache) else {
            return Ok(());
        };
        let mut out = String::new();
        out.push_str(&format!(
            "aedb-eval-cache v1 {:016x}\n",
            self.cache_fingerprint()
        ));
        for (key, ev) in cache.lock().iter() {
            for k in key {
                out.push_str(&format!("{k:x} "));
            }
            out.push_str(&format!("{}", ev.objectives.len()));
            for o in &ev.objectives {
                out.push_str(&format!(" {:016x}", o.to_bits()));
            }
            out.push_str(&format!(" {:016x}\n", ev.violation.to_bits()));
        }
        slot.storage.put(&slot.namespace, &slot.key, out.as_bytes())
    }

    /// Parses one whitespace token as the hex bit pattern of an `f64`,
    /// rejecting anything but exactly 16 hex digits (defence in depth
    /// against truncated files: a cut-off token must not reinterpret as a
    /// tiny denormal).
    fn parse_f64_bits(tok: Option<&str>) -> Option<f64> {
        let t = tok?;
        if t.len() != 16 {
            return None;
        }
        u64::from_str_radix(t, 16).ok().map(f64::from_bits)
    }

    /// Parses a serialized cache document (the format
    /// [`flush_eval_cache`](Self::flush_eval_cache) writes) against the
    /// expected fingerprint. Any mismatch or malformation degrades to
    /// fewer entries, never an error — a cold cache is always correct.
    fn parse_cache(bytes: &[u8], fingerprint: u64) -> Vec<(CacheKey, Evaluation)> {
        let text = String::from_utf8_lossy(bytes);
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        let mut parts = header.split_whitespace();
        if parts.next() != Some("aedb-eval-cache")
            || parts.next() != Some("v1")
            || parts.next().and_then(|h| u64::from_str_radix(h, 16).ok()) != Some(fingerprint)
        {
            // Different problem (or a stale/foreign document): a cold
            // start is the correct behaviour, and the flush on drop will
            // replace it.
            return Vec::new();
        }
        let mut entries = Vec::new();
        for line in lines {
            let mut tok = line.split_whitespace();
            let mut key = [0u64; N_PARAMS];
            let mut ok = true;
            for k in key.iter_mut() {
                match tok.next().and_then(|t| u64::from_str_radix(t, 16).ok()) {
                    Some(v) => *k = v,
                    None => ok = false,
                }
            }
            let n_obj = tok.next().and_then(|t| t.parse::<usize>().ok());
            let Some(n_obj) = n_obj else { continue };
            let mut objectives = Vec::with_capacity(n_obj);
            for _ in 0..n_obj {
                match Self::parse_f64_bits(tok.next()) {
                    Some(v) => objectives.push(v),
                    None => ok = false,
                }
            }
            let violation = Self::parse_f64_bits(tok.next());
            let (true, Some(violation), None) = (ok, violation, tok.next()) else {
                continue; // malformed line: skip, never fail the run
            };
            entries.push((
                key,
                Evaluation {
                    objectives,
                    violation,
                },
            ));
        }
        entries
    }

    /// The scenario being optimised.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// `(hits, misses)` of the evaluation cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Simulations run so far, edges checkpointed, restores and
    /// simulations that stopped at settlement. On `N` networks,
    /// `m` fresh evaluations cost `m·N` simulations and `m·N` restores,
    /// while `checkpoints` stays at most `N` for the problem's whole life
    /// (see [`SimStats`]).
    pub fn sim_stats(&self) -> SimStats {
        SimStats {
            simulations: self.simulations.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            settled: self.settled.load(Ordering::Relaxed),
        }
    }

    /// Snaps `x` onto the cache lattice: per variable, the index of its
    /// `CACHE_STEPS`-step cell within the bound range. Out-of-range values
    /// clamp to the edge cells.
    fn quantize(&self, x: &[f64]) -> CacheKey {
        let mut key = [0u64; N_PARAMS];
        for (i, k) in key.iter_mut().enumerate() {
            let (lo, hi) = self.bounds.get(i);
            let span = hi - lo;
            let t = if span > 0.0 {
                ((x[i] - lo) / span).clamp(0.0, 1.0)
            } else {
                0.0
            };
            *k = (t * CACHE_STEPS).round() as u64;
        }
        key
    }

    fn cached(&self, key: &CacheKey) -> Option<Evaluation> {
        let hit = self.cache.as_ref()?.lock().get(key).cloned();
        match &hit {
            Some(_) => self.cache_hits.fetch_add(1, Ordering::Relaxed),
            None => self.cache_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn store(&self, key: CacheKey, ev: &Evaluation) {
        if let Some(cache) = &self.cache {
            cache.lock().insert(key, ev.clone());
        }
    }

    /// Simulates `params` on network `k` and returns its raw observables,
    /// bit-identical to a straight run of the network under `params` from
    /// `t = 0`. Networks compile through the declarative
    /// [`Scenario::world`] path, so heterogeneous dense scenarios (mixed
    /// mobility / power classes) pose the tuning problem exactly like
    /// homogeneous ones.
    ///
    /// No simulation starts at `t = 0`. The first simulation of the network
    /// on this problem runs it once up to the instant before its broadcast,
    /// deferring beacon receptions all the way ([`Simulator::defer_beacons`]):
    /// nothing reads a table before the broadcast, so the beacons a read
    /// could still return wait in the deferred log, and the [`Checkpoint`]
    /// taken at that edge carries the log in compact form and stays alive
    /// for the problem's life. Every simulation restores the edge and runs
    /// [`Simulator::settle`], which resolves a beacon's receivers only when
    /// the protocol reads a table (a few dozen reads per broadcast, against
    /// thousands of receptions) and stops once the broadcast has settled,
    /// not at `end_time`. The simulator is one of the problem's own idle
    /// ones, or a new one when all are busy; the restore re-arms it
    /// whatever network it ran before.
    ///
    /// The memory cost is one edge per network and live problem
    /// (≈ 5.2/9.4/13.6 KiB for the paper's D100/D200/D300 worlds, and
    /// proportionally more for dense scenarios), plus one simulator per
    /// concurrent job, kept idle until the problem is dropped, whose
    /// deferred-beacon logs hold one read window of beacons and frames
    /// while it settles.
    pub fn simulate_one(&self, params: AedbParams, k: usize) -> AedbOutcome {
        // Bind the checkout first: `self.sims.lock().pop().unwrap_or_else(…)`
        // would hold the lock while a new simulator is built.
        let pooled = self.sims.lock().pop();
        let mut sim = pooled.unwrap_or_else(|| {
            let world = self.scenario.world(k);
            Simulator::from_world(&world, Aedb::new(world.n_nodes(), params))
        });
        let edge = self.edges[k].get_or_init(|| self.take_edge(&mut sim, k));
        let n = edge.world().n_nodes();
        sim.restore(edge, |proto| proto.reset(n, params));
        self.restores.fetch_add(1, Ordering::Relaxed);
        let outcome = self.run(&mut sim);
        self.sims.lock().push(sim);
        outcome
    }

    /// Simulates network `k` on `sim` up to its broadcast edge, deferring
    /// beacons from `t = 0`, and checkpoints it there. The engine calls no
    /// protocol before the broadcast, so `sim`'s protocol is left as it
    /// is: every restore re-arms it.
    fn take_edge(&self, sim: &mut Simulator<Aedb>, k: usize) -> Checkpoint {
        let world = self.scenario.world(k);
        sim.reset_world_with(&world, |_| {});
        sim.defer_beacons();
        sim.run_until(world.broadcast_time.next_down());
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        sim.checkpoint()
    }

    /// Settles `sim`'s broadcast (or runs it to `end_time`), counts the
    /// simulation in [`SimStats`] and returns its observables.
    fn run(&self, sim: &mut Simulator<Aedb>) -> AedbOutcome {
        let outcome = Self::outcome(sim.settle());
        self.simulations.fetch_add(1, Ordering::Relaxed);
        if sim.stopped_before_end() {
            self.settled.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    fn outcome(b: &BroadcastMetrics) -> AedbOutcome {
        AedbOutcome {
            energy: b.energy_dbm_sum,
            coverage: b.coverage() as f64,
            forwardings: b.forwardings as f64,
            broadcast_time: b.broadcast_time(),
        }
    }

    fn average(outcomes: impl Iterator<Item = AedbOutcome>, n: usize) -> AedbOutcome {
        let fold = |acc: AedbOutcome, o: AedbOutcome| AedbOutcome {
            energy: acc.energy + o.energy,
            coverage: acc.coverage + o.coverage,
            forwardings: acc.forwardings + o.forwardings,
            broadcast_time: acc.broadcast_time + o.broadcast_time,
        };
        let zero = AedbOutcome {
            energy: 0.0,
            coverage: 0.0,
            forwardings: 0.0,
            broadcast_time: 0.0,
        };
        let sum = outcomes.fold(zero, fold);
        let d = n as f64;
        AedbOutcome {
            energy: sum.energy / d,
            coverage: sum.coverage / d,
            forwardings: sum.forwardings / d,
            broadcast_time: sum.broadcast_time / d,
        }
    }

    /// Full evaluation of one candidate: its observables averaged over
    /// all networks, uncached. The networks fan over the thread pool
    /// unless [`with_parallel_batches(false)`](Self::with_parallel_batches)
    /// is set; the result is bit-identical either way.
    pub fn evaluate_full(&self, params: AedbParams) -> AedbOutcome {
        self.outcomes(&[params])[0]
    }

    /// Simulates every candidate of `params` on every network and returns
    /// each candidate's observables averaged in network order.
    ///
    /// There is one job per (candidate, network), **candidate-major**: job
    /// `j` simulates candidate `j / N` on network `j % N`
    /// ([`simulate_one`](Self::simulate_one)), so the first `N` jobs of a
    /// fresh problem take every network's edge in parallel, and a lone
    /// candidate's jobs **are** its network axis. The jobs fan over the
    /// persistent `rayon` pool, or run in order when
    /// [`with_parallel_batches(false)`](Self::with_parallel_batches) is
    /// set. Outcomes are folded in network order either way, so each
    /// average is bit-identical to a sequential run.
    fn outcomes(&self, params: &[AedbParams]) -> Vec<AedbOutcome> {
        let n_nets = self.scenario.n_networks;
        let job = |j: usize| self.simulate_one(params[j / n_nets], j % n_nets);
        let jobs = params.len() * n_nets;
        let per_job: Vec<AedbOutcome> = if self.parallel_batches {
            (0..jobs).into_par_iter().map(job).collect()
        } else {
            (0..jobs).map(job).collect()
        };
        per_job
            .chunks(n_nets)
            .map(|nets| Self::average(nets.iter().copied(), n_nets))
            .collect()
    }

    fn outcome_to_evaluation(o: AedbOutcome) -> Evaluation {
        Evaluation::with_violation(
            vec![o.energy, -o.coverage, o.forwardings],
            (o.broadcast_time - BT_LIMIT).max(0.0),
        )
    }
}

impl Drop for AedbProblem {
    /// Flushes the disk-backed evaluation cache, if one was configured —
    /// best-effort: persistence is an optimisation, never a correctness
    /// requirement, so failures are swallowed here (use
    /// [`flush_eval_cache`](Self::flush_eval_cache) to observe them).
    fn drop(&mut self) {
        let _ = self.flush_eval_cache();
    }
}

impl Problem for AedbProblem {
    fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    fn n_objectives(&self) -> usize {
        3
    }

    /// A batch of one: [`evaluate_batch`](Problem::evaluate_batch) on
    /// `[x]`, so a lone candidate shares the cache and fans its networks
    /// over the pool like any batch.
    fn evaluate(&self, x: &[f64]) -> Evaluation {
        self.evaluate_batch(&[x.to_vec()])
            .pop()
            .expect("one evaluation per vector")
    }

    /// Batched evaluation: dedupes candidates through the quantized cache,
    /// then simulates the remaining candidates as one pool call of
    /// candidate-major (candidate, network) jobs (`outcomes`), so each
    /// result is bit-identical to a one-at-a-time
    /// [`evaluate`](Problem::evaluate) call.
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Evaluation> {
        let mut results: Vec<Option<Evaluation>> = Vec::with_capacity(xs.len());
        // Unique uncached configurations in first-occurrence order.
        let mut fresh: Vec<(CacheKey, AedbParams)> = Vec::new();
        let mut fresh_index: HashMap<CacheKey, usize> = HashMap::new();
        let mut result_source: Vec<usize> = Vec::with_capacity(xs.len()); // index into `fresh`
        for x in xs {
            let key = self.quantize(x);
            if let Some(hit) = self.cached(&key) {
                results.push(Some(hit));
                result_source.push(usize::MAX);
            } else {
                // In-batch dedupe is part of the cache contract; with the
                // cache disabled every vector simulates independently.
                let idx = if self.cache.is_some() {
                    *fresh_index.entry(key).or_insert_with(|| {
                        fresh.push((key, AedbParams::from_vec(x)));
                        fresh.len() - 1
                    })
                } else {
                    fresh.push((key, AedbParams::from_vec(x)));
                    fresh.len() - 1
                };
                results.push(None);
                result_source.push(idx);
            }
        }
        let params: Vec<AedbParams> = fresh.iter().map(|&(_, p)| p).collect();
        let fresh_evals: Vec<Evaluation> = fresh
            .iter()
            .zip(self.outcomes(&params))
            .map(|((key, _), o)| {
                let ev = Self::outcome_to_evaluation(o);
                self.store(*key, &ev);
                ev
            })
            .collect();
        results
            .into_iter()
            .zip(result_source)
            .map(|(cached, src)| cached.unwrap_or_else(|| fresh_evals[src].clone()))
            .collect()
    }

    fn objective_names(&self) -> Vec<String> {
        vec![
            "energy_dbm".into(),
            "neg_coverage".into(),
            "forwardings".into(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Density;

    fn quick_problem() -> AedbProblem {
        AedbProblem::paper(Scenario::quick(Density::D100, 2))
    }

    #[test]
    fn evaluation_has_three_objectives_and_violation() {
        let p = quick_problem();
        let ev = p.evaluate(&AedbParams::default_config().to_vec());
        assert_eq!(ev.objectives.len(), 3);
        assert!(ev.objectives.iter().all(|v| v.is_finite()));
        assert!(ev.violation >= 0.0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let p = quick_problem();
        let x = AedbParams::default_config().to_vec();
        let a = p.evaluate(&x);
        let b = p.evaluate(&x);
        assert_eq!(a.objectives, b.objectives);
        assert_eq!(a.violation, b.violation);
    }

    #[test]
    fn parallel_matches_sequential() {
        // A lone candidate fans its networks over the pool; with the pool
        // off they run in sequence.
        let x = AedbParams::default_config().to_vec();
        let seq = AedbProblem::paper(Scenario::quick(Density::D100, 4))
            .with_parallel_batches(false)
            .evaluate(&x);
        let par = AedbProblem::paper(Scenario::quick(Density::D100, 4))
            .evaluate_batch(std::slice::from_ref(&x));
        assert_eq!(seq.objectives, par[0].objectives);
    }

    #[test]
    fn permissive_config_reaches_nodes() {
        // A high border threshold (−70 dBm) gives a large forwarding area:
        // only nodes receiving *above* it (closer than ~20 m to a sender)
        // drop, so dissemination spreads. Averaged over 4 networks because
        // individual 25-node placements can be badly partitioned.
        let p = AedbProblem::paper(Scenario::quick(Density::D100, 4));
        let params = AedbParams {
            min_delay: 0.0,
            max_delay: 0.2,
            border_threshold: -70.0,
            margin_threshold: 1.0,
            neighbors_threshold: 50.0,
        };
        let o = p.evaluate_full(params);
        assert!(o.coverage > 5.0, "coverage = {}", o.coverage);
        assert!(o.broadcast_time < BT_LIMIT);
    }

    #[test]
    fn restrictive_border_suppresses_forwarding() {
        // border −95 dBm: essentially every reception is stronger, so
        // almost everyone drops — few forwardings, low energy.
        let p = quick_problem();
        let params = AedbParams {
            min_delay: 0.0,
            max_delay: 0.2,
            border_threshold: -95.0,
            margin_threshold: 1.0,
            neighbors_threshold: 50.0,
        };
        let o = p.evaluate_full(params);
        let permissive = AedbParams {
            border_threshold: -70.0,
            ..params
        };
        let op = p.evaluate_full(permissive);
        assert!(
            o.forwardings <= op.forwardings,
            "{} vs {}",
            o.forwardings,
            op.forwardings
        );
        assert!(o.coverage <= op.coverage);
    }

    #[test]
    fn long_delays_violate_bt_constraint_more_often() {
        let p = quick_problem();
        let slow = AedbParams {
            min_delay: 1.0,
            max_delay: 5.0,
            border_threshold: -70.0,
            margin_threshold: 1.0,
            neighbors_threshold: 50.0,
        };
        let fast = AedbParams {
            min_delay: 0.0,
            max_delay: 0.1,
            ..slow
        };
        let o_slow = p.evaluate_full(slow);
        let o_fast = p.evaluate_full(fast);
        assert!(o_slow.broadcast_time > o_fast.broadcast_time);
    }

    #[test]
    fn batch_matches_per_candidate_evaluation() {
        // The batched (candidate × network) pipeline must be bit-identical
        // to sequential per-candidate evaluation — objectives *and*
        // constraint violations. Caches disabled on the reference problem
        // so it really recomputes.
        let batch_problem = AedbProblem::paper(Scenario::quick(Density::D100, 3));
        let reference =
            AedbProblem::paper(Scenario::quick(Density::D100, 3)).with_eval_cache(false);
        let xs: Vec<Vec<f64>> = vec![
            AedbParams::default_config().to_vec(),
            vec![0.0, 0.2, -70.0, 1.0, 50.0],
            vec![1.0, 5.0, -95.0, 0.0, 0.0], // slow delays: likely violating
            vec![0.5, 2.5, -82.0, 2.0, 25.0],
        ];
        let batch = batch_problem.evaluate_batch(&xs);
        assert_eq!(batch.len(), xs.len());
        for (x, ev) in xs.iter().zip(&batch) {
            let single = reference.evaluate(x);
            assert_eq!(
                ev.objectives, single.objectives,
                "objectives diverge at {x:?}"
            );
            assert_eq!(
                ev.violation, single.violation,
                "violation diverges at {x:?}"
            );
        }
    }

    #[test]
    fn sim_stats_count_shared_prefixes() {
        // m = 3 unique fresh vectors (plus a duplicate) on N = 2 networks,
        // sequentially: the first simulation on each network checkpoints
        // its broadcast edge, and every simulation restores. All six broadcasts
        // settle well before the 40 s end.
        let p = AedbProblem::paper(Scenario::quick(Density::D100, 2)).with_parallel_batches(false);
        let x = AedbParams::default_config().to_vec();
        let y = vec![0.0, 0.2, -70.0, 1.0, 50.0];
        let z = vec![0.5, 2.5, -82.0, 2.0, 25.0];
        p.evaluate_batch(&[x.clone(), y, z, x.clone()]);
        let want = SimStats {
            simulations: 6,
            checkpoints: 2,
            restores: 6,
            settled: 6,
        };
        assert_eq!(p.sim_stats(), want);
        let (hits, misses) = p.cache_stats();
        assert_eq!(hits + misses, 4, "one lookup per vector");
        // A second batch and lone candidates through evaluate and
        // evaluate_batch restore the same checkpoints: N simulations and
        // N restores each, and no new checkpoint. The batch's four
        // broadcasts settle; multi-second forwarding delays leave two of
        // the four lone ones with protocol work pending at 40 s, so those
        // run to the end.
        p.evaluate_batch(&[
            vec![0.1, 0.3, -75.0, 1.5, 10.0],
            vec![0.2, 0.6, -88.0, 0.5, 30.0],
        ]);
        p.evaluate(&[1.0, 5.0, -95.0, 0.0, 0.0]);
        p.evaluate_batch(&[vec![0.9, 4.0, -92.0, 2.5, 45.0]]);
        let stats = p.sim_stats();
        assert_eq!(
            stats.checkpoints, want.checkpoints,
            "one per network for life"
        );
        assert_eq!(stats.simulations, want.simulations + 8);
        assert_eq!(stats.restores, stats.simulations);
        assert_eq!(stats.settled, want.settled + 4 + 2);
        // Cache hits simulate nothing.
        p.evaluate_batch(&[x]);
        assert_eq!(p.sim_stats(), stats);
    }

    #[test]
    fn multi_candidate_jobs_match_one_at_a_time_evaluation() {
        // k = 3 candidates on N = 3 networks, walked in order: the nine
        // (candidate, network) jobs share the problem's simulators and
        // edges, bit-identical to evaluating the candidates one at a time.
        let p = AedbProblem::paper(Scenario::quick(Density::D100, 3))
            .with_eval_cache(false)
            .with_parallel_batches(false);
        let xs: Vec<Vec<f64>> = vec![
            AedbParams::default_config().to_vec(),
            vec![0.0, 0.2, -70.0, 1.0, 50.0],
            vec![0.5, 2.5, -82.0, 2.0, 25.0],
        ];
        let batch = p.evaluate_batch(&xs);
        let stats = p.sim_stats();
        assert_eq!(stats.checkpoints, 3);
        assert_eq!(stats.simulations, 9);
        assert_eq!(stats.restores, stats.simulations);
        for (x, ev) in xs.iter().zip(&batch) {
            assert_eq!(*ev, p.evaluate(x));
        }
        let lone = p.sim_stats();
        assert_eq!(lone.simulations, 18);
        assert_eq!(lone.restores, lone.simulations);
    }

    /// `count` distinct vectors spread over Table III's bounds (an additive
    /// recurrence per variable, so no two share a cache cell).
    fn spread_vectors(count: usize, offset: usize) -> Vec<AedbParams> {
        const STEPS: [f64; N_PARAMS] = [0.618_034, 0.414_214, 0.732_051, 0.236_068, 0.605_551];
        let bounds = AedbParams::bounds();
        (offset..offset + count)
            .map(|c| {
                let x: Vec<f64> = (0..N_PARAMS)
                    .map(|i| {
                        let (lo, hi) = bounds.get(i);
                        lo + (hi - lo) * ((c + 1) as f64 * STEPS[i]).fract()
                    })
                    .collect();
                AedbParams::from_vec(&x)
            })
            .collect()
    }

    fn bits(o: AedbOutcome) -> [u64; 4] {
        [o.energy, o.coverage, o.forwardings, o.broadcast_time].map(f64::to_bits)
    }

    #[test]
    fn split_is_bit_identical_to_sequential_and_lone_evaluation_at_every_width() {
        // Candidate-major (candidate, network) jobs on the pool, the same
        // job list walked in order, and one candidate at a time must agree
        // bit for bit at every batch width, through `outcomes` and through
        // the `Problem` entry points.
        let scenario = || Scenario::quick(Density::D100, 3);
        let par = AedbProblem::paper(scenario()).with_eval_cache(false);
        let seq = AedbProblem::paper(scenario())
            .with_eval_cache(false)
            .with_parallel_batches(false);
        let lone = AedbProblem::paper(scenario()).with_eval_cache(false);
        let mut offset = 0;
        for width in 1..=9 {
            let params = spread_vectors(width, offset);
            offset += width;
            let par_out = par.outcomes(&params);
            let seq_out = seq.outcomes(&params);
            assert_eq!(par_out.len(), width);
            for (c, &p) in params.iter().enumerate() {
                let one = lone.evaluate_full(p);
                assert_eq!(bits(par_out[c]), bits(one), "width {width}, candidate {c}");
                assert_eq!(bits(seq_out[c]), bits(one), "width {width}, candidate {c}");
            }
            let xs: Vec<Vec<f64>> = params.iter().map(|p| p.to_vec()).collect();
            let batch = par.evaluate_batch(&xs);
            for (x, ev) in xs.iter().zip(&batch) {
                assert_eq!(*ev, lone.evaluate(x), "width {width}");
            }
        }
    }

    #[test]
    fn split_first_batch_wider_than_the_pool_takes_each_edge_once() {
        // A fresh problem's first batch has more candidates than the pool
        // has threads, so jobs on the same network run concurrently while
        // its edge is still being taken; each edge is still taken once,
        // and every simulation restores one.
        let n_networks = 3;
        let fresh = rayon::current_num_threads() + 2;
        let p = AedbProblem::paper(Scenario::quick(Density::D100, n_networks));
        let xs: Vec<Vec<f64>> = spread_vectors(fresh, 0)
            .iter()
            .map(|p| p.to_vec())
            .collect();
        p.evaluate_batch(&xs);
        let stats = p.sim_stats();
        assert_eq!(stats.checkpoints, n_networks as u64);
        assert_eq!(stats.simulations, (fresh * n_networks) as u64);
        assert_eq!(stats.restores, stats.simulations);
        assert!(stats.settled <= stats.simulations);
    }

    #[test]
    fn sim_stats_keep_one_checkpoint_per_network_across_entry_points() {
        // Parallel batches, evaluate_full and simulate_one all fill and
        // share the same per-network slots, even when several batch jobs
        // reach an empty slot at once.
        let p = AedbProblem::paper(Scenario::quick(Density::D100, 3));
        let xs: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                vec![
                    0.1 * i as f64,
                    0.2 + 0.1 * i as f64,
                    -90.0 + i as f64,
                    1.0,
                    20.0,
                ]
            })
            .collect();
        let batch = p.evaluate_batch(&xs);
        let params = AedbParams::from_vec(&[0.3, 0.9, -80.0, 2.0, 10.0]);
        let full = p.evaluate_full(params);
        let one = p.simulate_one(params, 2);
        let stats = p.sim_stats();
        assert_eq!(stats.checkpoints, 3, "one per network");
        assert_eq!(stats.simulations, 6 * 3 + 3 + 1);
        assert_eq!(stats.restores, stats.simulations);
        // The same results as a fresh problem evaluating one candidate at
        // a time, and as a straight simulation from t = 0.
        let fresh = AedbProblem::paper(Scenario::quick(Density::D100, 3)).with_eval_cache(false);
        for (x, ev) in xs.iter().zip(&batch) {
            assert_eq!(*ev, fresh.evaluate(x));
        }
        assert_eq!(full, fresh.evaluate_full(params));
        let world = fresh.scenario().world(2);
        let mut sim = Simulator::from_world(&world, Aedb::new(world.n_nodes(), params));
        assert_eq!(one, AedbProblem::outcome(sim.run_broadcast()));
    }

    #[test]
    fn default_aedb_broadcast_settles_before_the_end() {
        // The evaluation stop point: under AEDB's default configuration a
        // paper network's broadcast settles seconds after the 30 s start,
        // so the simulation never reaches the 40 s end.
        let world = Scenario::paper(Density::D100).world(0);
        let n = world.n_nodes();
        let params = AedbParams::default_config();
        let straight = Simulator::from_world(&world, Aedb::new(n, params)).run();
        let mut sim = Simulator::from_world(&world, Aedb::new(n, params));
        assert_eq!(*sim.run_broadcast(), straight.broadcast);
        assert!(sim.stopped_before_end());
        assert!(sim.now() < sim.end_time(), "stopped at {} s", sim.now());
    }

    #[test]
    fn batch_cache_hits_return_identical_results() {
        let p = AedbProblem::paper(Scenario::quick(Density::D100, 2));
        let x = AedbParams::default_config().to_vec();
        let y = vec![0.0, 0.2, -70.0, 1.0, 50.0];
        // Duplicates inside one batch simulate once; repeats across calls
        // hit the cache and must return the very same evaluation.
        let first = p.evaluate_batch(&[x.clone(), y.clone(), x.clone()]);
        assert_eq!(first[0], first[2]);
        let (h0, m0) = p.cache_stats();
        assert_eq!(h0, 0, "first batch cannot hit");
        assert_eq!(m0, 3, "all three lookups miss (dedupe happens after)");
        let second = p.evaluate_batch(&[y.clone(), x.clone()]);
        assert_eq!(second[0], first[1]);
        assert_eq!(second[1], first[0]);
        let (h1, _) = p.cache_stats();
        assert_eq!(h1, 2, "second batch is fully cached");
        // the per-candidate path shares the same cache
        assert_eq!(p.evaluate(&x), first[0]);
        assert_eq!(p.cache_stats().0, 3);
    }

    #[test]
    fn quantization_dedupes_only_negligible_differences() {
        let p = AedbProblem::paper(Scenario::quick(Density::D100, 1));
        let x = AedbParams::default_config().to_vec();
        let mut nudged = x.clone();
        nudged[0] += 1e-9; // far below one lattice step
        assert_eq!(p.quantize(&x), p.quantize(&nudged));
        let mut moved = x.clone();
        moved[0] += 1e-2; // thousands of steps away
        assert_ne!(p.quantize(&x), p.quantize(&moved));
    }

    fn temp_cache_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "aedb-eval-cache-test-{tag}-{}.txt",
            std::process::id()
        ))
    }

    /// Backs `problem`'s cache with the single file `path`: a
    /// [`store::DiskStorage`] rooted at its directory, empty namespace.
    fn with_cache_file(problem: AedbProblem, path: &std::path::Path) -> AedbProblem {
        let dir = path.parent().expect("temp file has a directory");
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        problem.with_eval_cache_storage(Arc::new(store::DiskStorage::new(dir)), "", name)
    }

    #[test]
    fn disk_cache_round_trips_bit_exactly() {
        let path = temp_cache_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let x = AedbParams::default_config().to_vec();
        let y = vec![0.0, 0.2, -70.0, 1.0, 50.0];
        let first = {
            let p = with_cache_file(AedbProblem::paper(Scenario::quick(Density::D100, 2)), &path);
            let evs = p.evaluate_batch(&[x.clone(), y.clone()]);
            assert_eq!(p.cache_stats(), (0, 2), "cold cache cannot hit");
            evs
            // drop flushes
        };
        assert!(path.exists(), "drop must flush the cache file");
        let p = with_cache_file(AedbProblem::paper(Scenario::quick(Density::D100, 2)), &path);
        assert_eq!(
            p.evaluate(&x),
            first[0],
            "warm-started eval must be bit-exact"
        );
        assert_eq!(p.evaluate(&y), first[1]);
        assert_eq!(
            p.cache_stats(),
            (2, 0),
            "warm cache serves without simulating"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_cache_ignores_foreign_fingerprints() {
        let path = temp_cache_path("fingerprint");
        let _ = std::fs::remove_file(&path);
        let x = AedbParams::default_config().to_vec();
        {
            let p = with_cache_file(AedbProblem::paper(Scenario::quick(Density::D100, 2)), &path);
            let _ = p.evaluate(&x);
        }
        // Different scenario (more networks) => different mapping: the
        // persisted entries must not leak in.
        let p = with_cache_file(AedbProblem::paper(Scenario::quick(Density::D100, 3)), &path);
        let _ = p.evaluate(&x);
        assert_eq!(p.cache_stats().0, 0, "foreign cache file must be ignored");
        // ... and garbage files must not break construction.
        std::fs::write(&path, "not a cache file\n1 2 3\n").unwrap();
        let p = with_cache_file(AedbProblem::paper(Scenario::quick(Density::D100, 2)), &path);
        let _ = p.evaluate(&x);
        assert_eq!(p.cache_stats().0, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn storage_backed_cache_round_trips_on_memory_backend() {
        // The generalised slot: same warm-start semantics as the disk
        // file, on a backend that never touches the filesystem.
        use store::MemoryStorage;
        let storage: Arc<dyn store::Storage> = Arc::new(MemoryStorage::new());
        let x = AedbParams::default_config().to_vec();
        let first =
            {
                let p = AedbProblem::paper(Scenario::quick(Density::D100, 2))
                    .with_eval_cache_storage(storage.clone(), "eval-cache", "test-slot");
                let ev = p.evaluate(&x);
                p.flush_eval_cache().unwrap();
                ev
            };
        assert!(
            storage.get("eval-cache", "test-slot").unwrap().is_some(),
            "flush must write the slot"
        );
        let p = AedbProblem::paper(Scenario::quick(Density::D100, 2)).with_eval_cache_storage(
            storage.clone(),
            "eval-cache",
            "test-slot",
        );
        assert_eq!(p.evaluate(&x), first, "warm-started eval must be bit-exact");
        assert_eq!(p.cache_stats(), (1, 0), "served from storage, no sim");
    }

    #[test]
    fn sequential_batches_match_parallel_batches() {
        let xs: Vec<Vec<f64>> = vec![
            AedbParams::default_config().to_vec(),
            vec![0.0, 0.2, -70.0, 1.0, 50.0],
            vec![0.5, 2.5, -82.0, 2.0, 25.0],
        ];
        let par = AedbProblem::paper(Scenario::quick(Density::D100, 3)).evaluate_batch(&xs);
        let seq = AedbProblem::paper(Scenario::quick(Density::D100, 3))
            .with_parallel_batches(false)
            .evaluate_batch(&xs);
        assert_eq!(par, seq);
    }

    #[test]
    fn dense_single_candidate_fans_networks_bit_identically() {
        // The per-network parallelism *inside one candidate*: a lone dense
        // candidate fans its networks over the pool by default, and the
        // result must be bit-identical to the fully sequential path
        // (outcomes are folded in network index order either way).
        use crate::scenario::DenseScenario;
        let dense = DenseScenario::new(200, 500);
        let x = AedbParams::default_config().to_vec();
        let par = AedbProblem::paper(Scenario::dense(dense.clone(), 3));
        let seq =
            AedbProblem::paper(Scenario::dense(dense.clone(), 3)).with_parallel_batches(false);
        let a = par.evaluate(&x);
        let b = seq.evaluate(&x);
        assert_eq!(a.objectives, b.objectives);
        assert_eq!(a.violation, b.violation);
        // ... and the batch-of-one shape agrees too.
        let c =
            AedbProblem::paper(Scenario::dense(dense, 3)).evaluate_batch(std::slice::from_ref(&x));
        assert_eq!(c[0], a);
    }

    #[test]
    #[should_panic(expected = "at least one network")]
    fn scenario_without_networks_is_refused() {
        let _ = AedbProblem::paper(Scenario::quick(Density::D100, 0));
    }

    #[test]
    fn dense_scenario_problem_evaluates() {
        // The tuning problem posed at beyond-paper scale: a 500-node dense
        // network (shadowed) evaluated through the same pipeline.
        use crate::scenario::DenseScenario;
        let d = DenseScenario::new(200, 500)
            .with_shadowing(4.0)
            .expect("valid sigma");
        let scenario = Scenario::dense(d, 1);
        let p = AedbProblem::paper(scenario);
        let ev = p.evaluate(&AedbParams::default_config().to_vec());
        assert_eq!(ev.objectives.len(), 3);
        assert!(ev.objectives.iter().all(|v| v.is_finite()));
        assert!(-ev.objectives[1] >= 0.0, "coverage is a count");
    }

    #[test]
    fn coverage_maximisation_encoded_as_negation() {
        let p = quick_problem();
        let params = AedbParams::default_config();
        let o = p.evaluate_full(params);
        let ev = p.evaluate(&params.to_vec());
        assert_eq!(ev.objectives[1], -o.coverage);
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use crate::scenario::Density;

    #[test]
    fn timing_probe() {
        let p = AedbProblem::paper(Scenario::paper(Density::D300));
        let t0 = std::time::Instant::now();
        let _ = p.evaluate(&AedbParams::default_config().to_vec());
        eprintln!("D300 full eval (10 nets, 75 nodes): {:?}", t0.elapsed());
        let p = AedbProblem::paper(Scenario::paper(Density::D100));
        let t0 = std::time::Instant::now();
        let _ = p.evaluate(&AedbParams::default_config().to_vec());
        eprintln!("D100 full eval (10 nets, 25 nodes): {:?}", t0.elapsed());
    }
}
