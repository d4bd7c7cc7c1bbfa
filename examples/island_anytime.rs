//! The lockstep island optimizer streaming its anytime front through
//! the resident service.
//!
//! Walks the island campaign lifecycle in one process:
//!
//! 1. an **island campaign** (2 islands on the sparsest scenario) whose
//!    epochs stream [`JobEvent::AnytimeFront`] snapshots of the global
//!    anytime archive — the best-so-far front, improving monotonically,
//! 2. the *same* campaign run **directly** through [`IslandOptimizer`]
//!    with the problem's batch pool off — bit-identical, because each
//!    island draws from its own RNG in a fixed order and the merge order
//!    is fixed,
//! 3. a long campaign **cancelled mid-run**: the stream has already
//!    delivered the best-so-far front, so cancellation loses nothing.
//!
//! ```sh
//! cargo run --release --example island_anytime
//! ```

use aedb_repro::prelude::*;

fn main() {
    let service = SimService::in_memory();

    // 1. An island campaign with a live anytime front. Epoch 0 is the
    //    merged initial island populations; every later epoch merges the
    //    island elite archives in island-index order.
    let spec = CampaignSpec {
        scenario: Scenario::quick(Density::D100, 2),
        algorithm: AlgorithmKind::Island,
        budget: CampaignBudget::quick(200, 1),
    };
    println!(
        "== island campaign on {}: streaming the anytime front ==",
        spec.scenario.label()
    );
    let job = service.submit(JobSpec::Campaign(spec.clone()), Priority::Normal);
    let mut last_front_size = 0usize;
    let result = loop {
        match job.next_event() {
            Some(JobEvent::AnytimeFront {
                epoch,
                evaluations,
                front,
                ..
            }) => {
                println!(
                    "  epoch {epoch:>2}: {evaluations:>4} evals, anytime front size {:>2}{}",
                    front.len(),
                    if front.len() >= last_front_size {
                        ""
                    } else {
                        "  (a new point swept several members)"
                    },
                );
                last_front_size = front.len();
            }
            Some(JobEvent::Generation { .. }) => {
                unreachable!("island campaigns stream AnytimeFront, never Generation")
            }
            Some(JobEvent::Finished { output, .. }) => break output,
            Some(JobEvent::Failed { error, .. }) => panic!("campaign failed: {error}"),
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    };
    let campaign = result.campaign().expect("campaign output").clone();
    let service_front = &campaign.reps[0].front;
    println!("  finished: terminal front size {}", service_front.len());

    // 2. The same run, directly and with every batch evaluated on one
    //    thread. The pool only changes throughput — never the result.
    let problem = AedbProblem::paper(spec.scenario.clone()).with_parallel_batches(false);
    let cfg = IslandConfig::quick(2, spec.budget.evals);
    let direct = IslandOptimizer::new(cfg).run(&problem, 0xBEEF); // rep 0's seed
    let bits = |front: &[Candidate]| -> Vec<Vec<u64>> {
        front
            .iter()
            .map(|c| c.objectives.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(
        bits(service_front),
        bits(&direct.front),
        "the sequential batches diverged from the service run"
    );
    println!("\n== direct sequential-batch run is bit-identical to the service run ==");

    // 3. Cancellation at an epoch boundary keeps the streamed front.
    let job = service.submit(
        JobSpec::Campaign(CampaignSpec {
            scenario: Scenario::quick(Density::D100, 2),
            algorithm: AlgorithmKind::Island,
            budget: CampaignBudget::quick(1_000_000, 1),
        }),
        Priority::Low,
    );
    let mut best: Option<(u64, usize)> = None;
    loop {
        match job.next_event() {
            Some(JobEvent::AnytimeFront {
                evaluations, front, ..
            }) => {
                best = Some((evaluations, front.len()));
                service.cancel(job.id());
            }
            Some(JobEvent::Failed { error, .. }) => {
                let (evals, size) = best.expect("an epoch streamed before cancellation");
                println!(
                    "== long campaign cancelled ({error}); \
                     best-so-far front of {size} points after {evals} evals \
                     was already streamed =="
                );
                break;
            }
            Some(JobEvent::Finished { .. }) => panic!("cancelled campaign finished"),
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    }

    service.drain();
    println!("service drained; bye");
}
