//! The resident service: a worker thread draining priority FIFO queues of
//! [`JobSpec`]s, streaming [`JobEvent`]s to each submitter and persisting
//! campaign results through a pluggable [`Storage`] backend.
//!
//! ## Lifecycle of a job
//!
//! ```text
//! submit ──▶ Accepted ──▶ (queued) ──▶ Started ──▶ Generation*/Progress* ──▶ Finished
//!     │                        │                                        └──▶ Failed
//!     └──▶ Failed(Rejected)    └──(cancel)──▶ Failed(Cancelled)
//! ```
//!
//! Every job emits exactly one terminal event; [`JobHandle::wait`] blocks
//! until it arrives. Cancellation is cooperative: a flag checked before
//! each simulate seed starts, between campaign repetitions and — through
//! the [`RunObserver`] hooks — at MOEA generation boundaries, so a
//! cancelled campaign stops within one generation without poisoning the
//! service.
//!
//! Jobs run one at a time, but a Simulate job runs its seeds concurrently,
//! one thread per core, each seed on a simulator of its own. Its
//! summaries still come back in seed order, bit-identical to running the
//! seeds one after another, and its `Progress` events count completed
//! seeds: `completed` runs `1..=total` in order, whichever seed finished.
//!
//! Campaigns running the island optimizer
//! ([`AlgorithmKind::Island`])
//! stream [`JobEvent::AnytimeFront`] epochs instead of `Generation`
//! snapshots: each carries the global anytime archive — the best-so-far
//! front, hypervolume non-decreasing over epochs — so a client that
//! cancels mid-campaign has already received the best front the budget
//! bought (the terminal event is still `Failed(Cancelled)` and nothing
//! partial is archived).
//!
//! ## Determinism and the campaign archive
//!
//! A campaign is a pure function of its [`CampaignSpec`] (seeds are
//! implied by [`rep_seed`]). The service
//! exploits that twice:
//!
//! * results are archived under the spec's fingerprint (namespace
//!   `campaigns`); resubmitting a finished campaign **replays** the
//!   archived result — bit-identical fronts, zero simulation — and marks
//!   the terminal event `replayed`;
//! * the AEDB eval cache is bound to the same backend (namespace
//!   `eval-cache`, keyed by the problem's cache fingerprint), so even a
//!   *fresh* campaign on a warm scenario skips simulations.
//!
//! With [`DiskStorage`] both survive the process; with
//! [`MemoryStorage`] they live as long as the
//! service (the two backends behave identically otherwise, pinned by the
//! service test-suite).

use crate::campaign::{
    algorithm_for, rep_seed, AlgorithmKind, CampaignResult, CampaignSpec, RepRun,
};
use crate::job::{
    JobError, JobEvent, JobId, JobOutput, JobSpec, Priority, ProtocolSpec, SimSummary, SimulateSpec,
};
use aedb::problem::AedbProblem;
use aedb::protocol::Aedb;
use manet::protocol::{Flooding, Protocol, SourceOnly};
use manet::sim::{SimReport, Simulator};
use mopt::algorithm::RunObserver;
use mopt::dominance::non_dominated;
use mopt::solution::Candidate;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use store::{DiskStorage, MemoryStorage, Storage};

/// Storage namespace holding campaign archives (key = spec fingerprint).
pub const CAMPAIGN_NAMESPACE: &str = "campaigns";
/// Storage namespace holding AEDB eval caches (key = cache fingerprint).
pub const EVAL_CACHE_NAMESPACE: &str = "eval-cache";

/// Terminal payload of a successful job, as returned by
/// [`JobHandle::wait`].
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job that produced this result.
    pub job: JobId,
    /// Whether a campaign was answered from the archive without
    /// re-simulating.
    pub replayed: bool,
    /// The payload.
    pub output: JobOutput,
}

/// The submitter's end of a job: its id and the ordered event stream.
#[derive(Debug)]
pub struct JobHandle {
    id: JobId,
    events: mpsc::Receiver<JobEvent>,
}

impl JobHandle {
    /// The job's identifier (pass to
    /// [`SimService::cancel`]).
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Blocks for the next event; `None` once the stream is exhausted
    /// (after the terminal event, or if the service died).
    pub fn next_event(&self) -> Option<JobEvent> {
        self.events.recv().ok()
    }

    /// Non-blocking poll for the next event.
    pub fn try_event(&self) -> Option<JobEvent> {
        self.events.try_recv().ok()
    }

    /// Blocks until the job's terminal event and returns its payload,
    /// discarding intermediate progress events (drain them first with
    /// [`next_event`](Self::next_event) if you want them).
    pub fn wait(self) -> Result<JobResult, JobError> {
        while let Some(ev) = self.next_event() {
            match ev {
                JobEvent::Finished {
                    job,
                    replayed,
                    output,
                } => {
                    return Ok(JobResult {
                        job,
                        replayed,
                        output,
                    })
                }
                JobEvent::Failed { error, .. } => return Err(error),
                _ => {}
            }
        }
        Err(JobError::Execution(
            "service dropped the job's event channel".into(),
        ))
    }
}

/// Per-job control block shared between the submitter-facing service API
/// and the worker executing the job.
struct JobCtl {
    cancelled: AtomicBool,
}

impl JobCtl {
    fn new() -> Arc<Self> {
        Arc::new(JobCtl {
            cancelled: AtomicBool::new(false),
        })
    }
    fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }
    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// The event channel of one job. `mpsc::Sender` is not `Sync`, but the
/// generation observer must be (`RunObserver: Sync`), hence the mutex;
/// send failures mean the submitter dropped the handle and are ignored —
/// the job still runs to completion and its archive is still written.
struct EventSender(Mutex<mpsc::Sender<JobEvent>>);

impl EventSender {
    fn send(&self, ev: JobEvent) {
        let _ = self.0.lock().expect("event sender poisoned").send(ev);
    }
}

struct Queued {
    id: JobId,
    spec: JobSpec,
    ctl: Arc<JobCtl>,
    events: EventSender,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shutdown {
    /// Accepting and executing jobs.
    Running,
    /// No new jobs; queued jobs still execute, then the worker exits.
    Drain,
    /// No new jobs; queued jobs fail as cancelled, then the worker exits.
    Now,
}

struct QueueState {
    /// One FIFO per [`Priority`], drained highest-priority-first.
    queues: [VecDeque<Queued>; 3],
    /// Control blocks of queued *and* running jobs, for cancel-by-id.
    registry: HashMap<JobId, Arc<JobCtl>>,
    shutdown: Shutdown,
}

struct Inner {
    storage: Arc<dyn Storage>,
    state: Mutex<QueueState>,
    available: Condvar,
}

/// The resident simulation service. See the [module docs](self) for the
/// lifecycle; construction spawns the worker thread, dropping the service
/// shuts it down (cancelling queued jobs — call
/// [`drain`](Self::drain) instead to let them finish).
pub struct SimService {
    inner: Arc<Inner>,
    worker: Option<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl SimService {
    /// Starts the service on the given storage backend.
    pub fn new(storage: Arc<dyn Storage>) -> Self {
        let inner = Arc::new(Inner {
            storage,
            state: Mutex::new(QueueState {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                registry: HashMap::new(),
                shutdown: Shutdown::Running,
            }),
            available: Condvar::new(),
        });
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("sim-service".into())
            .spawn(move || worker_loop(worker_inner))
            .expect("spawning the service worker");
        SimService {
            inner,
            worker: Some(worker),
            next_id: AtomicU64::new(0),
        }
    }

    /// Starts the service on a fresh in-memory backend (tests,
    /// throwaway sessions — nothing survives the service).
    pub fn in_memory() -> Self {
        Self::new(Arc::new(MemoryStorage::new()))
    }

    /// Starts the service on a [`DiskStorage`] rooted at `root` —
    /// campaign archives and eval caches survive the process, and a
    /// service restarted on the same root replays finished campaigns.
    pub fn on_disk(root: impl Into<PathBuf>) -> Self {
        Self::new(Arc::new(DiskStorage::new(root)))
    }

    /// The storage backend (e.g. to inspect archives out-of-band).
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.inner.storage
    }

    /// Submits a job. The returned handle streams the job's events;
    /// invalid specs fail immediately with
    /// [`JobError::Rejected`] (no `Accepted` event).
    pub fn submit(&self, spec: JobSpec, priority: Priority) -> JobHandle {
        let id = JobId(self.next_id.fetch_add(1, Ordering::SeqCst) + 1);
        let (tx, rx) = mpsc::channel();
        let events = EventSender(Mutex::new(tx));
        let handle = JobHandle { id, events: rx };

        if let Err(why) = validate(&spec) {
            events.send(JobEvent::Failed {
                job: id,
                error: JobError::Rejected(why),
            });
            return handle;
        }

        let ctl = JobCtl::new();
        let mut st = self.inner.state.lock().expect("service state poisoned");
        if st.shutdown != Shutdown::Running {
            events.send(JobEvent::Failed {
                job: id,
                error: JobError::Rejected("service is shutting down".into()),
            });
            return handle;
        }
        events.send(JobEvent::Accepted { job: id });
        st.registry.insert(id, Arc::clone(&ctl));
        st.queues[priority.index()].push_back(Queued {
            id,
            spec,
            ctl,
            events,
        });
        drop(st);
        self.inner.available.notify_all();
        handle
    }

    /// Requests cancellation of a queued or running job. Returns `true`
    /// while the job is registered — from submission until the worker
    /// retires it, repeated calls included — and `false` once it is gone
    /// or never existed. A job is retired *before* its terminal event is
    /// sent, so after a client has seen `Finished` or `Failed` every call
    /// returns `false`. The stream of a cancelled job terminates with
    /// [`JobError::Cancelled`] once the flag takes effect, at the job's
    /// next cancellation point.
    pub fn cancel(&self, id: JobId) -> bool {
        let st = self.inner.state.lock().expect("service state poisoned");
        match st.registry.get(&id) {
            Some(ctl) => {
                ctl.cancel();
                true
            }
            None => false,
        }
    }

    /// Fingerprint keys of every archived campaign on the backend.
    pub fn archived_campaigns(&self) -> std::io::Result<Vec<String>> {
        self.inner.storage.scan(CAMPAIGN_NAMESPACE)
    }

    /// Graceful shutdown: stops accepting jobs, lets everything already
    /// queued run to completion, then stops the worker.
    pub fn drain(mut self) {
        self.stop(Shutdown::Drain);
    }

    /// Immediate shutdown: stops accepting jobs and cancels everything
    /// queued or running (their streams terminate with
    /// [`JobError::Cancelled`]). This is also what dropping the service
    /// does.
    pub fn shutdown(mut self) {
        self.stop(Shutdown::Now);
    }

    fn stop(&mut self, mode: Shutdown) {
        {
            let mut st = self.inner.state.lock().expect("service state poisoned");
            st.shutdown = mode;
            if mode == Shutdown::Now {
                for ctl in st.registry.values() {
                    ctl.cancel();
                }
            }
        }
        self.inner.available.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for SimService {
    fn drop(&mut self) {
        if self.worker.is_some() {
            self.stop(Shutdown::Now);
        }
    }
}

/// Pre-queue validation; errors become [`JobError::Rejected`].
fn validate(spec: &JobSpec) -> Result<(), String> {
    match spec {
        JobSpec::Simulate(s) => {
            if s.seeds.is_empty() {
                return Err("simulate job needs at least one seed".into());
            }
            s.world
                .validate()
                .map_err(|e| format!("invalid world: {e}"))
        }
        JobSpec::Campaign(c) => {
            if c.budget.reps == 0 {
                return Err("campaign needs at least one repetition".into());
            }
            if c.budget.evals == 0 {
                return Err("campaign needs a non-zero evaluation budget".into());
            }
            if c.scenario.n_networks == 0 {
                return Err("campaign scenario needs at least one network".into());
            }
            // Every network compiles from one world shape; only the seed
            // differs, so checking the first covers them all.
            c.scenario
                .world(0)
                .validate()
                .map_err(|e| format!("invalid scenario world: {e}"))
        }
    }
}

fn worker_loop(inner: Arc<Inner>) {
    loop {
        let next = {
            let mut st = inner.state.lock().expect("service state poisoned");
            loop {
                if let Some(job) = st.queues.iter_mut().find_map(VecDeque::pop_front) {
                    break Some(job);
                }
                match st.shutdown {
                    Shutdown::Running => {
                        st = inner.available.wait(st).expect("service state poisoned");
                    }
                    Shutdown::Drain | Shutdown::Now => break None,
                }
            }
        };
        let Some(job) = next else { return };
        execute(&inner, job);
    }
}

fn execute(inner: &Inner, q: Queued) {
    let outcome = if q.ctl.is_cancelled() {
        Err(JobError::Cancelled)
    } else {
        q.events.send(JobEvent::Started { job: q.id });
        match q.spec {
            JobSpec::Simulate(ref s) => run_simulate(q.id, s, &q.ctl, &q.events)
                .map(|summaries| (false, JobOutput::Simulated(summaries))),
            JobSpec::Campaign(ref c) => run_campaign(inner, q.id, c, &q.ctl, &q.events)
                .map(|(replayed, result)| (replayed, JobOutput::Campaign(result))),
        }
    };
    // Retire the job before its terminal event, so a client that has seen
    // the event can no longer cancel it (see `SimService::cancel`).
    inner
        .state
        .lock()
        .expect("service state poisoned")
        .registry
        .remove(&q.id);
    match outcome {
        Ok((replayed, output)) => q.events.send(JobEvent::Finished {
            job: q.id,
            replayed,
            output,
        }),
        Err(error) => q.events.send(JobEvent::Failed { job: q.id, error }),
    }
}

fn run_simulate(
    job: JobId,
    spec: &SimulateSpec,
    ctl: &JobCtl,
    events: &EventSender,
) -> Result<Vec<SimSummary>, JobError> {
    match spec.protocol {
        ProtocolSpec::Aedb(params) => {
            simulate_seeds(job, spec, ctl, events, |n| Aedb::new(n, params))
        }
        ProtocolSpec::Flooding { jitter } => {
            simulate_seeds(job, spec, ctl, events, |n| Flooding::new(n, jitter))
        }
        ProtocolSpec::SourceOnly => simulate_seeds(job, spec, ctl, events, |_| SourceOnly),
    }
}

/// Runs the job's seeds on every core: `available_parallelism` scoped
/// threads, the worker among them, pull seed indices from a shared counter.
/// Each seed builds its own simulator and drops it after its run, so no
/// seed inherits the tables an earlier one grew. Summaries come back in
/// seed order, bit-identical to running the seeds one after another.
/// Cancellation is checked before each seed starts; `Progress` counts
/// completions, numbered and sent under one lock so `completed` runs
/// `1..=total` in order.
fn simulate_seeds<P: Protocol>(
    job: JobId,
    spec: &SimulateSpec,
    ctl: &JobCtl,
    events: &EventSender,
    make_protocol: impl Fn(usize) -> P + Sync,
) -> Result<Vec<SimSummary>, JobError> {
    let total = spec.seeds.len();
    let n = spec.world.n_nodes();
    let next = AtomicUsize::new(0);
    let completed = Mutex::new(0);
    let run = || -> Result<Vec<(usize, SimSummary)>, JobError> {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&seed) = spec.seeds.get(i) else {
                return Ok(done);
            };
            if ctl.is_cancelled() {
                return Err(JobError::Cancelled);
            }
            let mut world = spec.world.clone();
            world.seed = seed;
            let report = Simulator::from_world(&world, make_protocol(n)).run_to_end();
            done.push((i, summarize(seed, &report)));
            let mut completed = completed.lock().expect("progress counter poisoned");
            *completed += 1;
            events.send(JobEvent::Progress {
                job,
                completed: *completed,
                total,
            });
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(total);
    let parts = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(run)).collect();
        let mut parts = vec![run()];
        parts.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("simulate thread panicked")),
        );
        parts
    });
    let mut out = Vec::with_capacity(total);
    for part in parts {
        out.extend(part?);
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    Ok(out.into_iter().map(|(_, summary)| summary).collect())
}

fn summarize(seed: u64, report: &SimReport) -> SimSummary {
    SimSummary {
        seed,
        n_nodes: report.n_nodes,
        coverage: report.broadcast.coverage(),
        broadcast_time: report.broadcast.broadcast_time(),
        forwardings: report.broadcast.forwardings,
        energy_dbm_sum: report.broadcast.energy_dbm_sum,
        beacons_sent: report.counters.beacons_sent,
        data_sent: report.counters.data_sent,
        collision_losses: report.counters.collision_losses,
    }
}

/// Streams per-generation (or, for island campaigns, per-epoch anytime)
/// front snapshots of one repetition into the job's event channel and
/// forwards the job's cancellation flag into the run.
struct StreamObserver<'a> {
    job: JobId,
    rep: usize,
    /// Island campaigns report the global anytime archive — already
    /// mutually non-dominated — as [`JobEvent::AnytimeFront`] epochs;
    /// every other algorithm reports its raw pool, filtered here, as
    /// [`JobEvent::Generation`] snapshots.
    anytime: bool,
    ctl: &'a JobCtl,
    events: &'a EventSender,
}

impl RunObserver for StreamObserver<'_> {
    fn on_generation(&self, generation: u64, evaluations: u64, pool: &[Candidate]) {
        if self.anytime {
            self.events.send(JobEvent::AnytimeFront {
                job: self.job,
                rep: self.rep,
                epoch: generation,
                evaluations,
                front: pool.iter().map(|c| c.objectives.clone()).collect(),
            });
            return;
        }
        let front: Vec<Vec<f64>> = non_dominated(pool)
            .iter()
            .map(|c| c.objectives.clone())
            .collect();
        self.events.send(JobEvent::Generation {
            job: self.job,
            rep: self.rep,
            generation,
            evaluations,
            front,
        });
    }

    fn cancelled(&self) -> bool {
        self.ctl.is_cancelled()
    }
}

fn run_campaign(
    inner: &Inner,
    job: JobId,
    spec: &CampaignSpec,
    ctl: &JobCtl,
    events: &EventSender,
) -> Result<(bool, CampaignResult), JobError> {
    let fingerprint = spec.fingerprint();
    let key = format!("{fingerprint:016x}");

    // Replay path: a finished campaign is answered from the archive —
    // bit-identical result, no simulation, no Generation events.
    if let Ok(Some(bytes)) = inner.storage.get(CAMPAIGN_NAMESPACE, &key) {
        if let Some(result) = CampaignResult::decode(&bytes, fingerprint) {
            return Ok((true, result));
        }
    }

    // Fresh run. The problem's eval cache binds to the service backend,
    // so repeated campaigns on the same scenario share simulations even
    // when their (algorithm, budget) differ.
    let problem = AedbProblem::paper(spec.scenario.clone()).with_parallel_batches(true);
    let cache_key = format!("{:016x}", problem.cache_fingerprint());
    let problem = problem.with_eval_cache_storage(
        Arc::clone(&inner.storage),
        EVAL_CACHE_NAMESPACE,
        cache_key,
    );

    let total = spec.budget.reps;
    let mut reps = Vec::with_capacity(total);
    for rep in 0..total {
        if ctl.is_cancelled() {
            return Err(JobError::Cancelled);
        }
        let algorithm = algorithm_for(&spec.budget, spec.algorithm);
        let seed = rep_seed(rep);
        let observer = StreamObserver {
            job,
            rep,
            anytime: spec.algorithm == AlgorithmKind::Island,
            ctl,
            events,
        };
        let run = algorithm.run_observed(&problem, seed, &observer);
        if ctl.is_cancelled() {
            // The observer stopped the run early; its partial front must
            // not be archived.
            return Err(JobError::Cancelled);
        }
        reps.push(RepRun {
            seed,
            evaluations: run.evaluations,
            front: run.front,
        });
        events.send(JobEvent::Progress {
            job,
            completed: rep + 1,
            total,
        });
    }

    let result = CampaignResult {
        algorithm: spec.algorithm,
        reps,
    };
    inner
        .storage
        .put(CAMPAIGN_NAMESPACE, &key, &result.encode(spec))
        .map_err(|e| JobError::Execution(format!("archiving campaign {key}: {e}")))?;
    problem
        .flush_eval_cache()
        .map_err(|e| JobError::Execution(format!("flushing eval cache: {e}")))?;
    Ok((false, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{AlgorithmKind, CampaignBudget};
    use aedb::scenario::{DenseScenario, Density, Scenario};
    use manet::world::{NodeGroup, WorldSpec};

    fn tiny_world() -> WorldSpec {
        WorldSpec::builder()
            .group(NodeGroup::new(6))
            .build()
            .expect("valid world")
    }

    #[test]
    fn simulate_job_runs_each_seed() {
        let service = SimService::in_memory();
        let handle = service.submit(
            JobSpec::Simulate(SimulateSpec {
                world: tiny_world(),
                protocol: ProtocolSpec::Flooding { jitter: (0.0, 0.0) },
                seeds: vec![1, 2, 3],
            }),
            Priority::High,
        );
        let result = handle.wait().expect("job succeeds");
        assert!(!result.replayed);
        let summaries = result.output.simulated().expect("simulate output");
        assert_eq!(summaries.len(), 3);
        assert_eq!(
            summaries.iter().map(|s| s.seed).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        for s in summaries {
            assert_eq!(s.n_nodes, 6);
        }
        service.drain();
    }

    /// `SourceOnly`, except that the instance holding `gate` blocks at the
    /// broadcast start until the gate is released.
    struct Held {
        gate: Option<mpsc::Receiver<()>>,
    }

    impl Protocol for Held {
        fn on_start(&mut self, node: usize, api: &mut dyn manet::protocol::ProtocolApi) {
            if let Some(gate) = self.gate.take() {
                gate.recv().expect("the test releases the gate");
            }
            SourceOnly.on_start(node, api);
        }
        fn on_receive(
            &mut self,
            node: usize,
            from: usize,
            rx_dbm: f64,
            api: &mut dyn manet::protocol::ProtocolApi,
        ) {
            SourceOnly.on_receive(node, from, rx_dbm, api);
        }
        fn on_timer(&mut self, node: usize, tag: u64, api: &mut dyn manet::protocol::ProtocolApi) {
            SourceOnly.on_timer(node, tag, api);
        }
    }

    #[test]
    fn simulate_seeds_finishing_out_of_order_keep_seed_order() {
        // Holding one seed while the others finish needs a second thread.
        if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
            return;
        }
        let spec = SimulateSpec {
            world: tiny_world(),
            protocol: ProtocolSpec::SourceOnly,
            seeds: (1..=6).collect(),
        };
        let total = spec.seeds.len();
        // The first protocol built, for seed 1 or 2, holds its seed until
        // every other seed has finished.
        let (release, gate) = mpsc::channel();
        let gate = Mutex::new(Some(gate));
        let make = |_| Held {
            gate: gate.lock().expect("gate poisoned").take(),
        };
        let (tx, rx) = mpsc::channel();
        let events = EventSender(Mutex::new(tx));
        let ctl = JobCtl::new();
        let progress = |rx: &mpsc::Receiver<JobEvent>| match rx.recv() {
            Ok(JobEvent::Progress {
                completed, total, ..
            }) => (completed, total),
            other => panic!("expected progress, got {other:?}"),
        };
        let (summaries, seen) = std::thread::scope(|scope| {
            let job = scope.spawn(|| simulate_seeds(JobId(1), &spec, &ctl, &events, make));
            let mut seen: Vec<_> = (1..total).map(|_| progress(&rx)).collect();
            release.send(()).expect("the held seed is waiting");
            seen.push(progress(&rx));
            (job.join().expect("simulate thread panicked"), seen)
        });
        assert_eq!(seen, (1..=total).map(|c| (c, total)).collect::<Vec<_>>());
        let summaries = summaries.expect("not cancelled");
        assert_eq!(
            summaries.iter().map(|s| s.seed).collect::<Vec<_>>(),
            spec.seeds
        );
    }

    #[test]
    fn rejected_jobs_fail_without_running() {
        let service = SimService::in_memory();
        let handle = service.submit(
            JobSpec::Simulate(SimulateSpec {
                world: tiny_world(),
                protocol: ProtocolSpec::SourceOnly,
                seeds: vec![],
            }),
            Priority::Normal,
        );
        match handle.wait() {
            Err(JobError::Rejected(_)) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        let handle = service.submit(
            JobSpec::Campaign(CampaignSpec {
                scenario: Scenario::quick(Density::D100, 1),
                algorithm: AlgorithmKind::Nsga2,
                budget: CampaignBudget::quick(100, 0),
            }),
            Priority::Normal,
        );
        assert!(matches!(handle.wait(), Err(JobError::Rejected(_))));
        // Inputs that would panic the worker, or average over nothing,
        // are rejected with a message naming the fault.
        let mut nan_world = tiny_world();
        nan_world.radio.shadowing_sigma_db = f64::NAN;
        let mut nan_dense = DenseScenario::new(200, 50);
        nan_dense.shadowing_sigma_db = f64::NAN;
        let campaign = |scenario| {
            JobSpec::Campaign(CampaignSpec {
                scenario,
                algorithm: AlgorithmKind::Nsga2,
                budget: CampaignBudget::quick(8, 1),
            })
        };
        let faulty = [
            (
                JobSpec::Simulate(SimulateSpec {
                    world: nan_world,
                    protocol: ProtocolSpec::SourceOnly,
                    seeds: vec![1],
                }),
                "shadowing",
            ),
            (campaign(Scenario::dense(nan_dense, 1)), "shadowing"),
            (campaign(Scenario::quick(Density::D100, 0)), "network"),
        ];
        for (spec, fault) in faulty {
            match service.submit(spec, Priority::High).wait() {
                Err(JobError::Rejected(why)) => assert!(why.contains(fault), "{why}"),
                other => panic!("expected rejection naming {fault}, got {other:?}"),
            }
        }
        // ... and the worker keeps serving.
        let handle = service.submit(
            JobSpec::Simulate(SimulateSpec {
                world: tiny_world(),
                protocol: ProtocolSpec::SourceOnly,
                seeds: vec![1],
            }),
            Priority::Normal,
        );
        assert_eq!(
            handle
                .wait()
                .expect("valid job finishes")
                .output
                .simulated()
                .map(<[_]>::len),
            Some(1)
        );
        service.drain();
    }

    #[test]
    fn cancel_of_queued_job_and_unknown_id() {
        let service = SimService::in_memory();
        // A queued job the worker hasn't reached yet can be raced — but
        // cancelling an already-finished or unknown id reports false.
        assert!(!service.cancel(JobId(999)));
        let handle = service.submit(
            JobSpec::Simulate(SimulateSpec {
                world: tiny_world(),
                protocol: ProtocolSpec::SourceOnly,
                seeds: vec![1],
            }),
            Priority::Normal,
        );
        let _ = handle.wait();
        service.drain();
    }

    #[test]
    fn drain_finishes_queued_jobs() {
        let service = SimService::in_memory();
        let handles: Vec<JobHandle> = (0..3)
            .map(|i| {
                service.submit(
                    JobSpec::Simulate(SimulateSpec {
                        world: tiny_world(),
                        protocol: ProtocolSpec::SourceOnly,
                        seeds: vec![i],
                    }),
                    Priority::Low,
                )
            })
            .collect();
        service.drain();
        for handle in handles {
            handle.wait().expect("drained job still completes");
        }
    }

    #[test]
    fn shutdown_cancels_queued_jobs() {
        let service = SimService::in_memory();
        // Enough queued work that some of it must still be pending when
        // shutdown lands.
        let handles: Vec<JobHandle> = (0..8)
            .map(|_| {
                service.submit(
                    JobSpec::Campaign(CampaignSpec {
                        scenario: Scenario::quick(Density::D100, 1),
                        algorithm: AlgorithmKind::Nsga2,
                        budget: CampaignBudget::quick(40, 1),
                    }),
                    Priority::Normal,
                )
            })
            .collect();
        service.shutdown();
        let mut cancelled = 0;
        for handle in handles {
            if let Err(JobError::Cancelled) = handle.wait() {
                cancelled += 1;
            }
        }
        assert!(cancelled > 0, "shutdown should cancel pending jobs");
    }
}
