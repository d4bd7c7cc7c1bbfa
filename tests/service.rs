//! Integration tests of the resident service (`serve::SimService`):
//! lifecycle event ordering, bit-identity with the bench-harness
//! experiment path and of multi-seed Simulate jobs with direct runs,
//! archive replay across a service restart, cooperative cancellation
//! (AEDB-MLS rounds and running Simulate jobs included), and memory/disk
//! backend parity.

use aedb_repro::prelude::*;
use bench_harness::{run_algorithm, ExperimentScale};
use serve::job::SimSummary;
use serve::JobError;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_campaign(evals: u64, reps: usize) -> CampaignSpec {
    CampaignSpec {
        scenario: Scenario::quick(Density::D100, 2),
        algorithm: AlgorithmKind::Nsga2,
        budget: CampaignBudget::quick(evals, reps),
    }
}

/// Objective vectors of every repetition front, bit-comparable.
fn front_bits(reps: &[serve::campaign::RepRun]) -> Vec<Vec<Vec<u64>>> {
    reps.iter()
        .map(|r| {
            r.front
                .iter()
                .map(|c| c.objectives.iter().map(|v| v.to_bits()).collect())
                .collect()
        })
        .collect()
}

#[test]
fn job_lifecycle_events_arrive_in_order() {
    let service = SimService::in_memory();
    let handle = service.submit(JobSpec::Campaign(quick_campaign(60, 2)), Priority::Normal);
    let mut events = Vec::new();
    while let Some(ev) = handle.next_event() {
        let terminal = ev.is_terminal();
        events.push(ev);
        if terminal {
            break;
        }
    }
    assert!(
        matches!(events.first(), Some(JobEvent::Accepted { .. })),
        "first event is Accepted"
    );
    assert!(
        matches!(events.get(1), Some(JobEvent::Started { .. })),
        "second event is Started"
    );
    assert!(
        matches!(
            events.last(),
            Some(JobEvent::Finished {
                replayed: false,
                ..
            })
        ),
        "last event is a fresh Finished"
    );
    let generations = events
        .iter()
        .filter(|e| matches!(e, JobEvent::Generation { .. }))
        .count();
    assert!(generations > 0, "campaign streams generation snapshots");
    // Progress covers both repetitions, in order.
    let progress: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Progress {
                completed, total, ..
            } => Some((*completed, *total)),
            _ => None,
        })
        .collect();
    assert_eq!(progress, vec![(1, 2), (2, 2)]);
    service.drain();
}

#[test]
fn campaign_via_service_matches_bench_path() {
    // The acceptance criterion: a campaign submitted through the service
    // is bit-identical to the bench harness running the same experiment
    // rows (rayon-sharded reps, batch parallelism off).
    let scale = ExperimentScale {
        reps: 2,
        networks: 2,
        evals: 60,
        ..ExperimentScale::default()
    };
    let scenario = Scenario::quick(Density::D100, scale.networks);
    let service = SimService::in_memory();
    for algorithm in AlgorithmKind::ALL {
        let problem = AedbProblem::paper(scenario.clone()).with_parallel_batches(false);
        let bench_runs = run_algorithm(&scale, algorithm, &problem);

        let handle = service.submit(
            JobSpec::Campaign(CampaignSpec {
                scenario: scenario.clone(),
                algorithm,
                budget: scale.campaign_budget(),
            }),
            Priority::Normal,
        );
        let result = handle.wait().expect("campaign runs");
        let campaign = result.output.campaign().expect("campaign output");

        assert_eq!(campaign.reps.len(), bench_runs.len());
        for (rep, (service_rep, bench_run)) in campaign.reps.iter().zip(&bench_runs).enumerate() {
            assert_eq!(service_rep.evaluations, bench_run.evaluations);
            let service_front: Vec<Vec<u64>> = service_rep
                .front
                .iter()
                .map(|c| c.objectives.iter().map(|v| v.to_bits()).collect())
                .collect();
            let bench_front: Vec<Vec<u64>> = bench_run
                .front
                .iter()
                .map(|c| c.objectives.iter().map(|v| v.to_bits()).collect())
                .collect();
            assert_eq!(
                service_front,
                bench_front,
                "{} rep {rep} diverged from the bench path",
                algorithm.name()
            );
        }
    }
    service.drain();
}

#[test]
fn archive_replays_bit_identically_across_restart() {
    let root = temp_root("replay");
    let spec = quick_campaign(60, 2);

    // First service: fresh run, archived to disk.
    let service = SimService::on_disk(&root);
    let handle = service.submit(JobSpec::Campaign(spec.clone()), Priority::Normal);
    let fresh = handle.wait().expect("fresh campaign runs");
    assert!(!fresh.replayed);
    let fresh_campaign = fresh.output.campaign().expect("campaign output").clone();
    assert_eq!(service.archived_campaigns().unwrap().len(), 1);
    service.drain();

    // Second service on the same root — a process restart in miniature.
    let service = SimService::on_disk(&root);
    let handle = service.submit(JobSpec::Campaign(spec), Priority::Normal);
    let mut saw_generation = false;
    let replayed = loop {
        match handle.next_event() {
            Some(JobEvent::Generation { .. }) => saw_generation = true,
            Some(JobEvent::Finished {
                replayed, output, ..
            }) => break (replayed, output),
            Some(JobEvent::Failed { error, .. }) => panic!("replay failed: {error}"),
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    };
    assert!(replayed.0, "resubmission must be answered from the archive");
    assert!(
        !saw_generation,
        "a replay simulates nothing, so it streams no generations"
    );
    let replayed_campaign = replayed.1.campaign().expect("campaign output");
    assert_eq!(
        front_bits(&replayed_campaign.reps),
        front_bits(&fresh_campaign.reps),
        "replayed fronts are bit-identical to the fresh run"
    );
    assert!(*replayed_campaign == fresh_campaign);
    service.drain();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cancellation_mid_campaign_stops_the_job_not_the_service() {
    let service = SimService::in_memory();
    // A budget far too large to finish: cancellation must stop it.
    let handle = service.submit(
        JobSpec::Campaign(quick_campaign(2_000_000, 1)),
        Priority::Normal,
    );
    // Cancel once, at the first generation (proof the campaign is
    // mid-run), then drain the stream to its terminal event: generations
    // already buffered may still arrive after the cancel.
    let mut cancelled = false;
    loop {
        match handle.next_event() {
            Some(JobEvent::Generation { .. }) if !cancelled => {
                assert!(service.cancel(handle.id()));
                cancelled = true;
            }
            Some(JobEvent::Failed { error, .. }) => {
                assert_eq!(error, JobError::Cancelled);
                break;
            }
            Some(JobEvent::Finished { .. }) => panic!("cancelled campaign finished"),
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    }
    assert!(
        cancelled,
        "the campaign streamed a generation before finishing"
    );
    // Nothing partial was archived, and the service still serves jobs.
    assert_eq!(service.archived_campaigns().unwrap().len(), 0);
    let handle = service.submit(JobSpec::Campaign(quick_campaign(60, 1)), Priority::High);
    handle
        .wait()
        .expect("service still healthy after a cancellation");
    service.drain();
}

#[test]
fn mls_campaign_streams_rounds_and_cancels() {
    let service = SimService::in_memory();
    // A budget far too large to finish: only cancellation ends it.
    let spec = CampaignSpec {
        algorithm: AlgorithmKind::Mls,
        ..quick_campaign(2_000_000, 1)
    };
    let handle = service.submit(JobSpec::Campaign(spec), Priority::Normal);
    // Every lockstep round streams one Generation: round g has spent the
    // 2 × 2 walkers' starts plus g moves each. Cancel once, after round
    // 1, then drain to the terminal event.
    let mut next_generation = 0;
    let mut cancelled = false;
    loop {
        match handle.next_event() {
            Some(JobEvent::Generation {
                generation,
                evaluations,
                front,
                ..
            }) => {
                assert_eq!(generation, next_generation, "rounds stream in order");
                assert_eq!(evaluations, 4 * (generation + 1));
                assert!(!front.is_empty());
                next_generation += 1;
                if generation >= 1 && !cancelled {
                    assert!(service.cancel(handle.id()));
                    cancelled = true;
                }
            }
            Some(JobEvent::Failed { error, .. }) => {
                assert_eq!(error, JobError::Cancelled);
                break;
            }
            Some(JobEvent::Finished { .. }) => panic!("cancelled campaign finished"),
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    }
    assert!(
        cancelled,
        "the campaign streamed two rounds before finishing"
    );
    assert_eq!(service.archived_campaigns().unwrap().len(), 0);
    service.drain();
}

/// Events of `handle` up to and including the terminal one.
fn drain_to_terminal(handle: &JobHandle) -> JobEvent {
    loop {
        match handle.next_event() {
            Some(ev) if ev.is_terminal() => return ev,
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    }
}

#[test]
fn cancel_is_true_while_registered_and_false_after_the_terminal_event() {
    let service = SimService::in_memory();
    // A campaign far too large to finish occupies the single worker, so
    // the job queued behind it stays registered until `running` is
    // cancelled: its repeated cancels must all report `true`.
    let running = service.submit(
        JobSpec::Campaign(quick_campaign(2_000_000, 1)),
        Priority::Normal,
    );
    let queued = service.submit(JobSpec::Campaign(quick_campaign(60, 1)), Priority::Normal);
    assert!(service.cancel(queued.id()));
    assert!(service.cancel(queued.id()), "repeated cancel while queued");
    loop {
        match running.next_event() {
            Some(JobEvent::Started { .. }) => break,
            Some(ev) => assert!(!ev.is_terminal(), "job ended before it started"),
            None => panic!("service dropped the job"),
        }
    }
    // A second call here could race the worker retiring the job, so the
    // repeated-call half of the contract is pinned on `queued` above.
    assert!(service.cancel(running.id()));
    for handle in [&running, &queued] {
        match drain_to_terminal(handle) {
            JobEvent::Failed { error, .. } => assert_eq!(error, JobError::Cancelled),
            other => panic!("cancelled job ended with {other:?}"),
        }
        assert!(
            !service.cancel(handle.id()),
            "no job to cancel after its terminal event"
        );
    }
    service.drain();
}

/// The headline numbers of a direct run of `world` under `seed`, as a
/// Simulate job reports them.
fn direct_summary<P: Protocol>(world: &WorldSpec, seed: u64, protocol: P) -> SimSummary {
    let mut world = world.clone();
    world.seed = seed;
    let report = Simulator::from_world(&world, protocol).run_to_end();
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

#[test]
fn multi_seed_simulate_jobs_match_direct_runs() {
    let service = SimService::in_memory();
    let world = Scenario::paper(Density::D100).world(0);
    let n = world.n_nodes();
    let params = AedbParams::default_config();
    let jitter = (0.0, 0.1);
    // More seeds than cores, so every thread runs several and finishes
    // them out of seed order.
    let seeds: Vec<u64> = (11..18).collect();
    let cases: [(ProtocolSpec, Vec<SimSummary>); 3] = [
        (
            ProtocolSpec::Flooding { jitter },
            seeds
                .iter()
                .map(|&s| direct_summary(&world, s, Flooding::new(n, jitter)))
                .collect(),
        ),
        (
            ProtocolSpec::SourceOnly,
            seeds
                .iter()
                .map(|&s| direct_summary(&world, s, SourceOnly))
                .collect(),
        ),
        (
            ProtocolSpec::Aedb(params),
            seeds
                .iter()
                .map(|&s| direct_summary(&world, s, Aedb::new(n, params)))
                .collect(),
        ),
    ];
    for (protocol, direct) in cases {
        let handle = service.submit(
            JobSpec::Simulate(SimulateSpec {
                world: world.clone(),
                protocol: protocol.clone(),
                seeds: seeds.clone(),
            }),
            Priority::Normal,
        );
        let mut progress = Vec::new();
        let terminal = loop {
            match handle.next_event() {
                Some(JobEvent::Progress {
                    completed, total, ..
                }) => progress.push((completed, total)),
                Some(ev) if ev.is_terminal() => break ev,
                Some(_) => {}
                None => panic!("service dropped the job"),
            }
        };
        let total = seeds.len();
        assert_eq!(
            progress,
            (1..=total).map(|c| (c, total)).collect::<Vec<_>>(),
            "{protocol:?}: progress counts completions in order"
        );
        match terminal {
            JobEvent::Finished {
                replayed: false,
                output,
                ..
            } => assert_eq!(
                output.simulated().expect("simulate output"),
                &direct[..],
                "{protocol:?}: summaries match direct runs, in seed order"
            ),
            other => panic!("{protocol:?}: job ended with {other:?}"),
        }
    }
    service.drain();
}

#[test]
fn cancelling_a_running_simulate_job_fails_it_once() {
    let service = SimService::in_memory();
    let world = Scenario::paper(Density::D100).world(0);
    // Far more seeds than finish before the cancel lands.
    let total = 10_000;
    let handle = service.submit(
        JobSpec::Simulate(SimulateSpec {
            world: world.clone(),
            protocol: ProtocolSpec::SourceOnly,
            seeds: (0..total).collect(),
        }),
        Priority::Normal,
    );
    // Cancel at the first completed seed (proof the job is mid-run), then
    // drain: seeds already running still report their progress.
    let mut cancelled = false;
    let mut last = 0;
    loop {
        match handle.next_event() {
            Some(JobEvent::Progress { completed, .. }) => {
                assert_eq!(completed, last + 1, "progress counts completions");
                last = completed;
                if !cancelled {
                    assert!(service.cancel(handle.id()));
                    cancelled = true;
                }
            }
            Some(JobEvent::Failed { error, .. }) => {
                assert_eq!(error, JobError::Cancelled);
                break;
            }
            Some(JobEvent::Finished { .. }) => panic!("cancelled simulate job finished"),
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    }
    assert!(cancelled, "the job completed a seed before finishing");
    assert!(last < total as usize, "the cancel stopped the job early");
    // The terminal event was the stream's last: nothing follows it once
    // the worker lets go of the job.
    assert!(handle.next_event().is_none(), "one terminal event only");
    // The worker is free and runs the next job to completion.
    let next = service.submit(
        JobSpec::Simulate(SimulateSpec {
            world,
            protocol: ProtocolSpec::SourceOnly,
            seeds: vec![1, 2, 3],
        }),
        Priority::Normal,
    );
    let result = next.wait().expect("the next job finishes");
    assert_eq!(result.output.simulated().map(<[_]>::len), Some(3));
    service.drain();
}

#[test]
fn memory_and_disk_backends_agree() {
    let root = temp_root("parity");
    let spec = quick_campaign(60, 2);
    let run_on = |service: SimService| {
        let handle = service.submit(JobSpec::Campaign(spec.clone()), Priority::Normal);
        let result = handle.wait().expect("campaign runs");
        let campaign = result.output.campaign().expect("campaign output").clone();
        let archived = service.archived_campaigns().unwrap();
        service.drain();
        (campaign, archived)
    };
    let (mem, mem_keys) = run_on(SimService::in_memory());
    let (disk, disk_keys) = run_on(SimService::new(Arc::new(DiskStorage::new(&root))));
    assert!(mem == disk, "backends must not affect results");
    assert_eq!(mem_keys, disk_keys, "archive keys agree across backends");
    let _ = std::fs::remove_dir_all(&root);
}
