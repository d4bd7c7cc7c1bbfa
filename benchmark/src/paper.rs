//! `paper-campaign`: the paper's own workload. Fixed-budget tuning
//! campaigns on `Scenario::paper(D100/D200/D300)` (25/50/75 nodes × 10
//! networks), closed loop: each algorithm waits on its own batches. NSGA-II,
//! AEDB-MLS and the island optimizer are built through
//! `serve::campaign::algorithm_for`, each on a fresh `AedbProblem`, so the
//! eval cache starts cold as it does for users. NSGA-II stands in for
//! CellDE and MOCell, which share its batch-per-generation shape.

use crate::layers::{cross_check, overhead_abba, Layers};
use crate::shims::TimedProblem;
use crate::stats::{geomean, median, mix, timing_line, SetupTimes};
use crate::{end_to_end, Args, Checks, Report};
use aedb::params::AedbParams;
use aedb::problem::{AedbProblem, BT_LIMIT};
use aedb::protocol::Aedb;
use aedb::scenario::{Density, Scenario};
use mopt::problem::{Evaluation, Problem};
use mopt::solution::Candidate;
use serve::campaign::{algorithm_for, AlgorithmKind, CampaignBudget};
use std::time::Instant;

const ALGORITHMS: [(&str, AlgorithmKind); 3] = [
    ("nsga2_evals_per_s", AlgorithmKind::Nsga2),
    ("mls_evals_per_s", AlgorithmKind::Mls),
    ("island_evals_per_s", AlgorithmKind::Island),
];

/// Evaluations per MOEA and island campaign; AEDB-MLS gets 2.4× this.
const BUDGET: CampaignBudget = CampaignBudget {
    paper: false,
    evals: 40,
    reps: 1,
};

/// AEDB-MLS topology `algorithm_for` builds below paper scale.
const MLS_THREADS: u64 = 2 * 2;

/// Islands `algorithm_for` builds below paper scale; at most one worker
/// thread per island evaluates.
const ISLANDS: usize = 2;

/// Set-ups before and again after the measured phase; the median of all
/// is reported.
const SETUP_REPS: usize = 5;

/// First-batch vectors per density re-simulated through the traced
/// simulator in the traced run.
const REPLAY_VECTORS: usize = 2;

fn expected_evals(kind: AlgorithmKind) -> u64 {
    match kind {
        AlgorithmKind::Mls => MLS_THREADS * (BUDGET.mls_evals() / MLS_THREADS).max(10),
        _ => BUDGET.evals,
    }
}

/// Threads that call into the problem during a campaign.
fn caller_threads(kind: AlgorithmKind) -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    match kind {
        AlgorithmKind::Mls => MLS_THREADS as f64,
        AlgorithmKind::Island => cores.min(ISLANDS) as f64,
        _ => 1.0,
    }
}

/// Evaluated vectors kept for the traced re-simulation.
type Replay = Vec<(Density, Vec<f64>, Evaluation)>;

struct Campaign {
    density: Density,
    kind: AlgorithmKind,
    evaluations: u64,
    secs: f64,
    front: Vec<Candidate>,
    cache: (u64, u64),
}

/// Runs one campaign on a fresh problem, through the `Problem` shim when
/// `layers` is given.
fn campaign(
    density: Density,
    kind: AlgorithmKind,
    seed: u64,
    layers: Option<(&mut Layers, &mut Replay)>,
) -> Campaign {
    let problem = AedbProblem::paper(Scenario::paper(density));
    let algorithm = algorithm_for(&BUDGET, kind);
    let (run, secs) = match layers {
        None => {
            let t0 = Instant::now();
            let run = algorithm.run(&problem, seed);
            (run, t0.elapsed().as_secs_f64())
        }
        Some((layers, replay)) => {
            let shim = TimedProblem::new(&problem);
            let t0 = Instant::now();
            let run = algorithm.run(&shim, seed);
            let secs = t0.elapsed().as_secs_f64();
            let (hits, misses) = problem.cache_stats();
            let eval_s = shim.eval_s();
            let a = &mut layers.aedb;
            a.batch_s += eval_s;
            a.capacity_s += secs * caller_threads(kind);
            a.batch_calls += shim.calls();
            a.batch_vectors += shim.vectors();
            a.cache_hits += hits;
            a.cache_misses += misses;
            let o = &mut layers.opt;
            match kind {
                AlgorithmKind::Nsga2 => {
                    o.nsga2_run_s += secs;
                    o.nsga2_eval_s += eval_s;
                    let first = shim.first_batch().into_iter().take(REPLAY_VECTORS);
                    replay.extend(first.map(|(x, ev)| (density, x, ev)));
                }
                AlgorithmKind::Island => {
                    o.island_eval_s += eval_s;
                    o.island_capacity_s += secs * caller_threads(kind);
                }
                _ => {
                    o.mls_eval_s += eval_s;
                    o.mls_capacity_s += secs * caller_threads(kind);
                }
            }
            (run, secs)
        }
    };
    Campaign {
        density,
        kind,
        evaluations: run.evaluations,
        secs,
        front: run.front,
        cache: problem.cache_stats(),
    }
}

/// All three algorithms on all three densities.
fn super_round(seed: u64, mut layers: Option<(&mut Layers, &mut Replay)>) -> Vec<Campaign> {
    let mut out = Vec::new();
    for density in Density::ALL {
        for (i, (_, kind)) in ALGORITHMS.iter().enumerate() {
            let alg_seed = mix(seed, density.per_km2() as u64 * 16 + i as u64);
            let traced = layers.as_mut().map(|(l, r)| (&mut **l, &mut **r));
            out.push(campaign(density, *kind, alg_seed, traced));
        }
    }
    out
}

/// Re-simulates first-batch vectors through the traced simulator: gives
/// the `manet` layer of this workload and cross-checks that the shimmed
/// simulator reproduces the evaluations bit for bit.
fn replay(layers: &mut Layers, vectors: &Replay) {
    for (density, x, ev) in vectors {
        let scenario = Scenario::paper(*density);
        let params = AedbParams::from_vec(x);
        let (mut energy, mut coverage, mut forwardings, mut bt) = (0.0, 0.0, 0.0, 0.0);
        for k in 0..scenario.n_networks {
            let world = scenario.world(k);
            let n = world.n_nodes();
            let r = layers.manet.simulate(&world, Aedb::new(n, params));
            energy += r.broadcast.energy_dbm_sum;
            coverage += r.broadcast.coverage() as f64;
            forwardings += r.broadcast.forwardings as f64;
            bt += r.broadcast.broadcast_time();
        }
        let d = scenario.n_networks as f64;
        let objectives = [energy / d, -(coverage / d), forwardings / d];
        let violation = (bt / d - BT_LIMIT).max(0.0);
        let same = objectives
            .iter()
            .zip(&ev.objectives)
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && violation.to_bits() == ev.violation.to_bits();
        cross_check(same, || {
            format!("{density}: traced re-simulation of {x:?} differs from its evaluation")
        });
    }
}

fn same_front(a: &[Candidate], b: &[Candidate]) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            bits(&x.params) == bits(&y.params)
                && bits(&x.objectives) == bits(&y.objectives)
                && x.violation.to_bits() == y.violation.to_bits()
        })
}

pub fn run(args: &Args) -> Report {
    let default = AedbParams::default_config().to_vec();
    let set_up = || Density::ALL.map(|d| AedbProblem::paper(Scenario::paper(d)).evaluate(&default));
    let mut setup = SetupTimes::default();
    setup.sample(SETUP_REPS, set_up);

    let mut lines = Vec::new();
    let mut campaigns = Vec::new();
    let metrics = if args.trace {
        let mut layers = Layers::default();
        let mut vectors = Vec::new();
        let ratio = overhead_abba(|traced| {
            let round = if traced {
                // Both traced rounds evaluate the same vectors; keep one
                // round's for the re-simulation.
                let mut replay = Vec::new();
                let round = super_round(args.seed, Some((&mut layers, &mut replay)));
                if vectors.is_empty() {
                    vectors = replay;
                }
                round
            } else {
                super_round(args.seed, None)
            };
            campaigns.extend(round);
        });
        layers.trace_overhead_ratio = ratio;
        replay(&mut layers, &vectors);
        layers.validate();
        lines.extend(layers.lines());
        layers.metrics()
    } else {
        let mut round_walls = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < args.seconds {
            let t = Instant::now();
            campaigns.extend(super_round(args.seed, None));
            round_walls.push(t.elapsed().as_secs_f64());
        }
        setup.sample(SETUP_REPS, set_up);
        for (name, kind) in ALGORITHMS {
            let mine: Vec<&Campaign> = campaigns.iter().filter(|c| c.kind == kind).collect();
            let evals: u64 = mine.iter().map(|c| c.evaluations).sum();
            let secs: f64 = mine.iter().map(|c| c.secs).sum();
            lines.push(format!(
                "{name}: {:.3} 1/s ({evals} evaluations in {:.3} s)",
                evals as f64 / secs,
                secs
            ));
            let walls: Vec<f64> = mine.iter().map(|c| c.secs).collect();
            lines.push(timing_line(
                &format!("{} campaign wall", kind.name()),
                "s",
                &walls,
            ));
        }
        // Per (algorithm, density): the median over repeats of the time
        // per evaluation, robust to a repeat slowed by the host.
        let per_eval_ms: Vec<f64> = ALGORITHMS
            .iter()
            .flat_map(|(_, kind)| Density::ALL.map(|d| (*kind, d)))
            .map(|(kind, density)| {
                let ms: Vec<f64> = campaigns
                    .iter()
                    .filter(|c| c.kind == kind && c.density == density)
                    .map(|c| 1e3 * c.secs / c.evaluations as f64)
                    .collect();
                median(&ms)
            })
            .collect();
        // Every super-round repeats the same campaigns, so evaluations
        // per round are fixed and the median round wall gives the rate.
        let evals: u64 = campaigns.iter().map(|c| c.evaluations).sum();
        let per_round = evals as f64 / round_walls.len() as f64;
        lines.push(timing_line("super-round wall", "s", &round_walls));
        end_to_end(
            setup.median_s(),
            per_round / median(&round_walls),
            geomean(&per_eval_ms),
        )
    };

    let (hits, misses) = campaigns
        .iter()
        .fold((0, 0), |(h, m), c| (h + c.cache.0, m + c.cache.1));
    lines.push(format!(
        "eval cache hit ratio (all campaigns): {:.4}",
        hits as f64 / (hits + misses).max(1) as f64
    ));
    let mls_fronts: Vec<String> = campaigns
        .iter()
        .filter(|c| c.kind == AlgorithmKind::Mls)
        .map(|c| format!("{}:{}", c.density, c.front.len()))
        .collect();
    lines.push(format!("AEDB-MLS front sizes: {}", mls_fronts.join(" ")));

    // Output checks, outside the timed region.
    let mut checks = Checks::default();
    for (i, c) in campaigns.iter().enumerate() {
        let what = format!("{} on {}", c.kind.name(), c.density);
        checks.check(c.evaluations == expected_evals(c.kind), || {
            format!(
                "{what}: {} evaluations, budget {}",
                c.evaluations,
                expected_evals(c.kind)
            )
        });
        let finite = !c.front.is_empty()
            && c.front
                .iter()
                .all(|s| s.objectives.iter().all(|o| o.is_finite()) && s.violation.is_finite());
        checks.check(finite, || {
            format!("{what}: empty front or non-finite objectives")
        });
        if c.kind != AlgorithmKind::Mls {
            let first = campaigns[..i]
                .iter()
                .find(|p| p.kind == c.kind && p.density == c.density);
            if let Some(first) = first {
                checks.check(same_front(&first.front, &c.front), || {
                    format!("{what}: the front changed between repeats of one seed")
                });
            }
        }
    }
    Report {
        checks,
        metrics,
        lines,
    }
}
