//! `service-mix`: two closed-loop clients on one `SimService` over a
//! `DiskStorage` in a fresh root inside the checkout.
//!
//! * Client A sends `High`-priority Simulate probes: D300, AEDB default
//!   parameters, 10 seeds.
//! * Client B sends `Normal`-priority NSGA-II campaigns in chains of
//!   [`CHAIN_LEN`] on one D100 scenario per chain. Each fresh budget in a
//!   chain adds one seeded repetition to the last, so it reads the
//!   persisted eval cache (the earlier repetitions hit) and flush-writes
//!   it; each is followed by exact resubmissions, which read and replay
//!   the archive. The next chain starts cold on other networks, so the
//!   eval cache a campaign loads, and with it the heap peak, stays the
//!   same however many campaigns a run completes.
//!
//! The service has one worker and no preemption, so a probe that arrives
//! while a campaign runs waits for it; the probe tail latency shows that.

use crate::layers::{cross_check, fail, Layers};
use crate::shims::{follow, StorageStats, TimedProblem, TimedStorage};
use crate::stats::{geomean, median, mix, quantile, timing_line, SetupTimes};
use crate::{end_to_end, Args, Checks, Report, WORK_DIR};
use aedb::params::AedbParams;
use aedb::problem::AedbProblem;
use aedb::protocol::Aedb;
use aedb::scenario::{Density, Scenario};
use manet::sim::Simulator;
use serve::campaign::{
    algorithm_for, rep_seed, AlgorithmKind, CampaignBudget, CampaignResult, CampaignSpec, RepRun,
};
use serve::job::{JobOutput, JobSpec, Priority, ProtocolSpec, SimSummary, SimulateSpec};
use serve::service::{SimService, EVAL_CACHE_NAMESPACE};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use store::{DiskStorage, MemoryStorage, Storage};

/// Evaluations per campaign repetition (NSGA-II population 8).
const REP_EVALS: u64 = 40;
/// Fresh campaigns per chain; the last one has this many repetitions.
const CHAIN_LEN: u64 = 4;
/// Exact resubmissions after each fresh campaign.
const REPLAYS_PER_FRESH: usize = 2;
/// Seeds per Simulate probe.
const PROBE_SEEDS: u64 = 10;
/// Set-ups before and again after the measured phase; the median of all
/// is reported.
const SETUP_REPS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Probe,
    Fresh(u64),
    Replay(u64),
}

/// What a client keeps of a job's output while checking it: a digest of
/// its bit-exact content.
#[derive(PartialEq)]
enum Seen {
    Probe(u64),
    /// `sound`: every repetition used its budget and has a finite front.
    Campaign {
        digest: u64,
        reps: usize,
        sound: bool,
    },
}

/// What a client records of its jobs. Outputs are checked as they arrive
/// and only latencies are kept, so the client's own memory stays small and
/// the heap peak does not depend on how many jobs a run completes.
#[derive(Default)]
struct Tally {
    probe_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    /// Per job, what the event-stream client saw (traced phases only):
    /// whether it was a campaign, queue wait, run time and event count.
    traces: Vec<(bool, f64, f64, u64)>,
    checks: Checks,
}

impl Tally {
    fn jobs(&self) -> usize {
        self.probe_ms.len() + self.fresh_ms.len() + self.replay_ms.len()
    }

    fn absorb(&mut self, other: Tally) {
        self.probe_ms.extend(other.probe_ms);
        self.fresh_ms.extend(other.fresh_ms);
        self.replay_ms.extend(other.replay_ms);
        self.traces.extend(other.traces);
        self.checks.absorb(other.checks);
    }
}

/// FNV-1a over text written into it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of `value`'s `Debug` form, which prints every f64 in its
/// shortest round-trip form, so equal digests mean bit-identical values.
/// The text is hashed as it is written, never held, so checking a job
/// allocates nothing while the service works on the next one.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

fn seen(output: JobOutput) -> Seen {
    match output {
        JobOutput::Simulated(s) => Seen::Probe(digest(&s)),
        JobOutput::Campaign(c) => Seen::Campaign {
            digest: digest(&c),
            reps: c.reps.len(),
            sound: c.reps.iter().all(|r| {
                r.evaluations == REP_EVALS
                    && !r.front.is_empty()
                    && r.front
                        .iter()
                        .all(|s| s.objectives.iter().all(|o| o.is_finite()))
            }),
        },
    }
}

/// Repetitions of fresh campaign `i`: 1 to [`CHAIN_LEN`] within a chain.
fn campaign_reps(i: u64) -> usize {
    1 + (i % CHAIN_LEN) as usize
}

/// Campaign `i` runs on chain `i / CHAIN_LEN`'s ten D100 networks: the
/// paper's fixed ones for chain 0, the next ten network seeds for chain 1,
/// and so on. The workload seed varies the probes only.
fn campaign_spec(i: u64) -> CampaignSpec {
    let mut scenario = Scenario::paper(Density::D100);
    scenario.base_seed += (i / CHAIN_LEN) * scenario.n_networks as u64;
    CampaignSpec {
        scenario,
        algorithm: AlgorithmKind::Nsga2,
        budget: CampaignBudget::quick(REP_EVALS, campaign_reps(i)),
    }
}

fn probe_spec(seed: u64) -> SimulateSpec {
    SimulateSpec {
        world: Scenario::paper(Density::D300).world(0),
        protocol: ProtocolSpec::Aedb(AedbParams::default_config()),
        seeds: (0..PROBE_SEEDS).map(|j| mix(seed, 100 + j)).collect(),
    }
}

/// A running service on its own fresh root; dropping it shuts the
/// service down and deletes the root.
struct Svc {
    service: Option<SimService>,
    root: PathBuf,
    shim: Option<Arc<TimedStorage>>,
}

impl Svc {
    /// Starts a service on a fresh root and runs the cold one-repetition
    /// base campaign, which fills the eval cache and the archive.
    fn start(traced: bool, checks: &mut Checks) -> Svc {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = PathBuf::from(WORK_DIR).join(format!(
            "service-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        let disk: Arc<dyn Storage> = Arc::new(DiskStorage::new(&root));
        let (storage, shim) = if traced {
            let shim = Arc::new(TimedStorage::new(disk));
            (shim.clone() as Arc<dyn Storage>, Some(shim))
        } else {
            (disk, None)
        };
        let service = SimService::new(storage);
        let base = service
            .submit(JobSpec::Campaign(campaign_spec(0)), Priority::Normal)
            .wait();
        checks.check(base.is_ok_and(|r| !r.replayed), || {
            "the cold base campaign did not run fresh".into()
        });
        Svc {
            service: Some(service),
            root,
            shim,
        }
    }

    fn service(&self) -> &SimService {
        self.service.as_ref().expect("service running")
    }

    fn io(&self) -> StorageStats {
        self.shim.as_ref().map(|s| s.stats()).unwrap_or_default()
    }
}

impl Drop for Svc {
    fn drop(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// One closed-loop client of a phase: it submits one job at a time and
/// records and checks each.
struct Client<'a> {
    svc: &'a Svc,
    traced: bool,
    /// Digest of direct runs of the probe's seeds; every probe must match.
    probe: u64,
    tally: Tally,
}

impl Client<'_> {
    /// Submits `spec` as a job of `kind` (probes at `High` priority,
    /// campaigns at `Normal`), waits for its terminal event, records its
    /// latency and checks its output; a replay is checked against `fresh`,
    /// what the fresh run of its campaign returned. Returns what the job
    /// returned.
    fn run(&mut self, spec: JobSpec, kind: Kind, fresh: Option<&Seen>) -> Option<Seen> {
        let tally = &mut self.tally;
        let priority = match kind {
            Kind::Probe => Priority::High,
            Kind::Fresh(_) | Kind::Replay(_) => Priority::Normal,
        };
        let t0 = Instant::now();
        let handle = self.svc.service().submit(spec, priority);
        let outcome = if self.traced {
            let t = follow(handle, t0);
            let is_campaign = kind != Kind::Probe;
            tally
                .traces
                .push((is_campaign, t.queue_wait_s, t.run_s, t.events));
            t.outcome
        } else {
            handle.wait().map(|r| (r.replayed, r.output))
        };
        let ms = 1e3 * t0.elapsed().as_secs_f64();
        match kind {
            Kind::Probe => tally.probe_ms.push(ms),
            Kind::Fresh(_) => tally.fresh_ms.push(ms),
            Kind::Replay(_) => tally.replay_ms.push(ms),
        }

        let (replayed, output) = match outcome {
            Ok((replayed, out)) => (replayed, seen(out)),
            Err(e) => {
                tally.checks.check(false, || format!("a job failed: {e}"));
                return None;
            }
        };
        let ok = match (kind, &output) {
            (Kind::Probe, Seen::Probe(d)) => *d == self.probe,
            (Kind::Fresh(i), Seen::Campaign { reps, sound, .. }) => {
                !replayed && *reps == campaign_reps(i) && *sound
            }
            (Kind::Replay(_), Seen::Campaign { .. }) => replayed && fresh == Some(&output),
            _ => false,
        };
        tally.checks.check(ok, || match kind {
            Kind::Probe => "a Simulate probe differs from direct Simulator runs".into(),
            Kind::Fresh(i) => format!("fresh campaign {i}: replayed, wrong budget or bad front"),
            Kind::Replay(i) => {
                format!("replay of campaign {i} is not flagged or not bit-identical")
            }
        });
        Some(output)
    }
}

/// Both clients for `seconds`, client B starting at fresh campaign
/// `first`; `probe` is the digest every probe must match. Returns what the
/// clients recorded, the phase wall time and the next fresh campaign index.
fn phase(
    svc: &Svc,
    seed: u64,
    probe: u64,
    seconds: f64,
    traced: bool,
    first: u64,
) -> (Tally, f64, u64) {
    let t0 = Instant::now();
    let spec = probe_spec(seed);
    let client = || Client {
        svc,
        traced,
        probe,
        tally: Tally::default(),
    };
    let (mut tally, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let mut c = client();
            while t0.elapsed().as_secs_f64() < seconds {
                c.run(JobSpec::Simulate(spec.clone()), Kind::Probe, None);
            }
            c.tally
        });
        let b = scope.spawn(|| {
            let mut c = client();
            let mut i = first;
            while t0.elapsed().as_secs_f64() < seconds {
                let spec = campaign_spec(i);
                let job = JobSpec::Campaign(spec.clone());
                let fresh = c.run(job, Kind::Fresh(i), None);
                for _ in 0..REPLAYS_PER_FRESH {
                    let job = JobSpec::Campaign(spec.clone());
                    c.run(job, Kind::Replay(i), fresh.as_ref());
                }
                i += 1;
            }
            (c.tally, i)
        });
        let a = a.join().expect("probe client panicked");
        (a, b.join().expect("campaign client panicked"))
    });
    let wall = t0.elapsed().as_secs_f64();
    tally.absorb(b.0);
    (tally, wall, b.1)
}

fn summary(seed: u64, report: &manet::sim::SimReport) -> SimSummary {
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

/// Direct `Simulator` runs of the probe's seeds (through the traced
/// simulator when `layers` is given).
fn direct_probe(seed: u64, layers: Option<&mut Layers>) -> Vec<SimSummary> {
    let spec = probe_spec(seed);
    let ProtocolSpec::Aedb(params) = spec.protocol else {
        unreachable!("probes run AEDB")
    };
    let n = spec.world.n_nodes();
    let mut layers = layers;
    spec.seeds
        .iter()
        .map(|&s| {
            let mut world = spec.world.clone();
            world.seed = s;
            let report = match layers.as_mut() {
                Some(l) => l.manet.simulate(&world, Aedb::new(n, params)),
                None => Simulator::from_world(&world, Aedb::new(n, params)).run_to_end(),
            };
            summary(s, &report)
        })
        .collect()
}

/// Fresh campaigns timed through the service and run directly, for
/// `serve.overhead_ratio`.
const OVERHEAD_SAMPLES: u64 = 3;

/// One fresh campaign through the service against the same spec run
/// directly on a copy of the eval cache it starts from (none at the start
/// of a chain).
fn overhead(svc: &Svc, next: u64, layers: &mut Layers) {
    let spec = campaign_spec(next);
    let problem = AedbProblem::paper(spec.scenario.clone()).with_parallel_batches(true);
    let key = format!("{:016x}", problem.cache_fingerprint());
    let snapshot = DiskStorage::new(&svc.root)
        .get(EVAL_CACHE_NAMESPACE, &key)
        .expect("reading the eval cache");
    cross_check(snapshot.is_some() == (campaign_reps(next) > 1), || {
        format!("campaign {next}: the eval cache is not where its chain left it")
    });
    let copy = Arc::new(MemoryStorage::new());
    if let Some(snapshot) = snapshot {
        copy.put(EVAL_CACHE_NAMESPACE, &key, &snapshot)
            .expect("memory put");
    }

    let t0 = Instant::now();
    let handle = svc
        .service()
        .submit(JobSpec::Campaign(spec.clone()), Priority::Normal);
    let job = follow(handle, t0);
    let service_s = t0.elapsed().as_secs_f64();
    let Ok((false, JobOutput::Campaign(service_result))) = job.outcome else {
        fail("the overhead campaign did not run fresh");
    };

    let problem = problem.with_eval_cache_storage(copy, EVAL_CACHE_NAMESPACE, key);
    let shim = TimedProblem::new(&problem);
    let t0 = Instant::now();
    let reps: Vec<RepRun> = (0..spec.budget.reps)
        .map(|rep| {
            let run = algorithm_for(&spec.budget, spec.algorithm).run(&shim, rep_seed(rep));
            RepRun {
                seed: rep_seed(rep),
                evaluations: run.evaluations,
                front: run.front,
            }
        })
        .collect();
    let direct_s = t0.elapsed().as_secs_f64();
    let direct = CampaignResult {
        algorithm: spec.algorithm,
        reps,
    };
    cross_check(direct == service_result, || {
        "the service campaign differs from the direct run of its spec".into()
    });
    let (hits, misses) = problem.cache_stats();
    let a = &mut layers.aedb;
    a.batch_s += shim.eval_s();
    a.capacity_s += direct_s;
    a.batch_calls += shim.calls();
    a.batch_vectors += shim.vectors();
    a.cache_hits += hits;
    a.cache_misses += misses;
    layers.opt.nsga2_run_s += direct_s;
    layers.opt.nsga2_eval_s += shim.eval_s();
    layers.serve.service_campaign_s += service_s;
    layers.serve.direct_campaign_s += direct_s;
}

pub fn run(args: &Args) -> Report {
    let mut checks = Checks::default();
    let mut lines = Vec::new();
    let mut layers = Layers::default();
    // The probe output check's reference, computed before any timing:
    // direct `Simulator` runs of the probe's seeds (traced when tracing).
    let probe = digest(&direct_probe(args.seed, args.trace.then_some(&mut layers)));
    let (tally, metrics) = if args.trace {
        // Plain and traced services run in the order plain, traced,
        // traced, plain, a quarter of the time each, so warm-up and host
        // drift cancel out of the overhead ratio.
        let plain = Svc::start(false, &mut checks);
        let svc = Svc::start(true, &mut checks);
        let before = svc.io();
        let (mut all, mut tally) = (Tally::default(), Tally::default());
        let mut next = [1, 1];
        let mut rate = [(0, 0.0); 2];
        for traced in [false, true, true, false] {
            let side = traced as usize;
            let on = if traced { &svc } else { &plain };
            let quarter = args.seconds / 4.0;
            let (done, wall, n) = phase(on, args.seed, probe, quarter, traced, next[side]);
            next[side] = n;
            rate[side].0 += done.jobs();
            rate[side].1 += wall;
            if traced {
                tally.absorb(done);
            } else {
                all.absorb(done);
            }
        }
        drop(plain);
        let io = svc.io() - before;

        let fresh = tally.fresh_ms.len() as u64;
        let replays = tally.replay_ms.len() as u64;
        cross_check(replays == REPLAYS_PER_FRESH as u64 * fresh, || {
            format!("{replays} replays for {fresh} fresh campaigns")
        });
        // A fresh campaign reads the archive and the eval cache, then
        // writes the archive and flushes the cache twice: once explicitly
        // and once more when its problem is dropped. A replay reads the
        // archive only.
        cross_check(
            io.put_calls == 3 * fresh && io.get_calls == 2 * fresh + replays,
            || {
                format!(
                    "{} gets / {} puts for {fresh} fresh campaigns and {replays} replays",
                    io.get_calls, io.put_calls
                )
            },
        );
        let s = &mut layers.serve;
        for &(is_campaign, wait, run, events) in &tally.traces {
            s.jobs += 1;
            s.events += events;
            s.queue_wait_s += wait;
            s.run_s += run;
            if is_campaign {
                layers.store.campaign_run_s += run;
                layers.store.campaign_jobs += 1;
            }
        }
        s.replays = replays;
        layers.store.io = io;
        let per_s = |(jobs, wall): (usize, f64)| jobs as f64 / wall;
        layers.trace_overhead_ratio = per_s(rate[0]) / per_s(rate[1]);
        for k in 0..OVERHEAD_SAMPLES {
            overhead(&svc, next[1] + k, &mut layers);
        }
        layers.validate();
        lines.extend(layers.lines());
        all.absorb(tally);
        (all, layers.metrics())
    } else {
        let mut setup = SetupTimes::default();
        let svc = setup.sample(SETUP_REPS, || Svc::start(false, &mut checks));
        let (tally, wall, _) = phase(&svc, args.seed, probe, args.seconds, false, 1);
        drop(svc);
        setup.sample(SETUP_REPS, || Svc::start(false, &mut checks));
        let sims = &tally.probe_ms;
        let fresh = &tally.fresh_ms;
        lines.push(timing_line("sim_job_ms", "ms", sims));
        lines.push(format!("sim_job_p90_ms: {:.3} ms", quantile(sims, 0.9)));
        lines.push(timing_line("campaign_job_ms (fresh)", "ms", fresh));
        lines.push(timing_line(
            "replay_job_ms (checked, not timed)",
            "ms",
            &tally.replay_ms,
        ));
        let jobs_per_s = tally.jobs() as f64 / wall;
        lines.push(format!("service_jobs_per_s: {jobs_per_s:.3} 1/s"));
        let op_ms = geomean(&[median(sims), quantile(sims, 0.9), median(fresh)]);
        (tally, end_to_end(setup.median_s(), jobs_per_s, op_ms))
    };

    checks.absorb(tally.checks);
    Report {
        checks,
        metrics,
        lines,
    }
}
