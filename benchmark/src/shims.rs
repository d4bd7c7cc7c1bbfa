//! Timing shims around the program's public traits. They forward every
//! call unchanged and only count calls, bytes and wall time, so the traced
//! run can attribute time to layers without any change to the program.
//! The end-to-end runs never construct them.

use manet::protocol::{Protocol, ProtocolApi};
use manet::sim::NodeId;
use mopt::problem::{Evaluation, Problem};
use mopt::solution::Bounds;
use serve::job::{JobError, JobEvent, JobOutput};
use serve::service::JobHandle;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use store::Storage;

fn add_since(counter: &AtomicU64, t0: Instant) {
    counter.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

fn secs(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Decision vectors with their evaluations.
pub type Batch = Vec<(Vec<f64>, Evaluation)>;

/// `Problem` shim: counts entry-point calls, the vectors they carried and
/// the thread-seconds spent inside them, and keeps the first batch it saw
/// (with its results) for the replay cross-check.
pub struct TimedProblem<P> {
    inner: P,
    calls: AtomicU64,
    vectors: AtomicU64,
    nanos: AtomicU64,
    first_batch: Mutex<Option<Batch>>,
}

impl<P: Problem> TimedProblem<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            vectors: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            first_batch: Mutex::new(None),
        }
    }

    /// Calls into `evaluate` / `evaluate_batch`.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Decision vectors evaluated through the shim.
    pub fn vectors(&self) -> u64 {
        self.vectors.load(Ordering::Relaxed)
    }

    /// Thread-seconds spent inside the evaluation entry points (calls from
    /// concurrent threads add up).
    pub fn eval_s(&self) -> f64 {
        secs(&self.nanos)
    }

    /// The first evaluated batch with its results.
    pub fn first_batch(&self) -> Batch {
        self.first_batch
            .lock()
            .expect("shim mutex poisoned")
            .clone()
            .unwrap_or_default()
    }

    fn record(&self, xs: &[Vec<f64>], evs: &[Evaluation], t0: Instant) {
        add_since(&self.nanos, t0);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.vectors.fetch_add(xs.len() as u64, Ordering::Relaxed);
        let mut first = self.first_batch.lock().expect("shim mutex poisoned");
        if first.is_none() {
            *first = Some(xs.iter().cloned().zip(evs.iter().cloned()).collect());
        }
    }
}

impl<P: Problem> Problem for TimedProblem<P> {
    fn bounds(&self) -> &Bounds {
        self.inner.bounds()
    }

    fn n_objectives(&self) -> usize {
        self.inner.n_objectives()
    }

    fn evaluate(&self, x: &[f64]) -> Evaluation {
        let t0 = Instant::now();
        let ev = self.inner.evaluate(x);
        self.record(&[x.to_vec()], std::slice::from_ref(&ev), t0);
        ev
    }

    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<Evaluation> {
        let t0 = Instant::now();
        let evs = self.inner.evaluate_batch(xs);
        self.record(xs, &evs, t0);
        evs
    }

    fn objective_names(&self) -> Vec<String> {
        self.inner.objective_names()
    }
}

/// Counters a [`TimedProtocol`] reports into (the simulator owns the
/// protocol, so the counts live outside it).
#[derive(Debug, Default)]
pub struct ProtocolStats {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl ProtocolStats {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds inside protocol callbacks, including the simulator API
    /// calls they make (transmit, timers, neighbour reads).
    pub fn seconds(&self) -> f64 {
        secs(&self.nanos)
    }
}

/// `Protocol` shim: times every callback of the wrapped protocol.
pub struct TimedProtocol<P> {
    inner: P,
    stats: Arc<ProtocolStats>,
}

impl<P> TimedProtocol<P> {
    pub fn new(inner: P, stats: Arc<ProtocolStats>) -> Self {
        Self { inner, stats }
    }

    fn timed(&mut self, f: impl FnOnce(&mut P)) {
        let t0 = Instant::now();
        f(&mut self.inner);
        add_since(&self.stats.nanos, t0);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
        self.timed(|p| p.on_start(node, api));
    }

    fn on_receive(&mut self, node: NodeId, from: NodeId, rx_dbm: f64, api: &mut dyn ProtocolApi) {
        self.timed(|p| p.on_receive(node, from, rx_dbm, api));
    }

    fn on_timer(&mut self, node: NodeId, tag: u64, api: &mut dyn ProtocolApi) {
        self.timed(|p| p.on_timer(node, tag, api));
    }
}

/// `Storage` shim: counts calls, bytes and seconds of `get` and `put`.
pub struct TimedStorage {
    inner: Arc<dyn Storage>,
    get_calls: AtomicU64,
    put_calls: AtomicU64,
    get_nanos: AtomicU64,
    put_nanos: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A snapshot of [`TimedStorage`]'s counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageStats {
    pub get_calls: u64,
    pub put_calls: u64,
    pub get_s: f64,
    pub put_s: f64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl std::ops::Sub for StorageStats {
    type Output = StorageStats;
    fn sub(self, b: StorageStats) -> StorageStats {
        StorageStats {
            get_calls: self.get_calls - b.get_calls,
            put_calls: self.put_calls - b.put_calls,
            get_s: self.get_s - b.get_s,
            put_s: self.put_s - b.put_s,
            bytes_read: self.bytes_read - b.bytes_read,
            bytes_written: self.bytes_written - b.bytes_written,
        }
    }
}

impl TimedStorage {
    pub fn new(inner: Arc<dyn Storage>) -> Self {
        Self {
            inner,
            get_calls: AtomicU64::new(0),
            put_calls: AtomicU64::new(0),
            get_nanos: AtomicU64::new(0),
            put_nanos: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }

    pub fn stats(&self) -> StorageStats {
        StorageStats {
            get_calls: self.get_calls.load(Ordering::Relaxed),
            put_calls: self.put_calls.load(Ordering::Relaxed),
            get_s: secs(&self.get_nanos),
            put_s: secs(&self.put_nanos),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

impl Storage for TimedStorage {
    fn get(&self, namespace: &str, key: &str) -> io::Result<Option<Vec<u8>>> {
        let t0 = Instant::now();
        let out = self.inner.get(namespace, key);
        add_since(&self.get_nanos, t0);
        self.get_calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(Some(bytes)) = &out {
            self.bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn put(&self, namespace: &str, key: &str, value: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let out = self.inner.put(namespace, key, value);
        add_since(&self.put_nanos, t0);
        self.put_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        out
    }

    fn scan(&self, namespace: &str) -> io::Result<Vec<String>> {
        self.inner.scan(namespace)
    }

    fn delete(&self, namespace: &str, key: &str) -> io::Result<bool> {
        self.inner.delete(namespace, key)
    }
}

/// What the event-stream client saw of one job.
pub struct JobTrace {
    /// Submit → `Started`, as the client sees it.
    pub queue_wait_s: f64,
    /// `Started` → terminal event.
    pub run_s: f64,
    /// Events received, terminal included.
    pub events: u64,
    /// The terminal outcome: `(replayed, output)` or the job's error.
    pub outcome: Result<(bool, JobOutput), JobError>,
}

/// Event-stream client: drains `handle` to its terminal event, stamping
/// each event as it arrives. `submitted` is when the client called
/// `submit`.
pub fn follow(handle: JobHandle, submitted: Instant) -> JobTrace {
    let mut started = None;
    let mut events = 0;
    while let Some(ev) = handle.next_event() {
        events += 1;
        let outcome = match ev {
            JobEvent::Started { .. } => {
                started = Some(Instant::now());
                continue;
            }
            JobEvent::Finished {
                replayed, output, ..
            } => Ok((replayed, output)),
            JobEvent::Failed { error, .. } => Err(error),
            _ => continue,
        };
        let end = Instant::now();
        let started = started.unwrap_or(end);
        return JobTrace {
            queue_wait_s: (started - submitted).as_secs_f64(),
            run_s: (end - started).as_secs_f64(),
            events,
            outcome,
        };
    }
    JobTrace {
        queue_wait_s: 0.0,
        run_s: 0.0,
        events,
        outcome: Err(JobError::Execution("event stream ended early".into())),
    }
}
