//! Runs the three algorithms under the paper's protocol (N independent
//! seeded repetitions per density) at a configurable scale.
//!
//! Parallelism lives at the **repetition** level (the ROADMAP's "shard
//! whole repetitions/densities" item): every (density × algorithm ×
//! repetition) job is an independent unit fanned over the thread pool,
//! and the per-density problem is built with
//! [`AedbProblem::with_parallel_batches`]`(false)` so the batched
//! evaluator inside each repetition does not multiply the outer
//! parallelism into oversubscription. Seeds are per-repetition, so the
//! sharded schedule is bit-identical to the historical sequential loop.

use crate::scale::ExperimentScale;
use aedb::problem::AedbProblem;
use aedb::scenario::{Density, Scenario};
use mopt::algorithm::{MoAlgorithm, RunResult};
use mopt::problem::Problem;
use rayon::prelude::*;

// The campaign vocabulary — which algorithm, instantiated how, seeded how
// — moved to `serve::campaign` so the resident service and this harness
// share one definition (a campaign submitted through `SimService` is
// bit-identical to the harness rows by construction). Re-exported here
// because the experiment binaries historically import it from `runner`.
pub use serve::campaign::{rep_seed, AlgorithmKind};

/// Instantiates an algorithm scaled to the experiment budget.
///
/// Delegates to [`serve::campaign::algorithm_for`] via
/// [`ExperimentScale::campaign_budget`]:
///
/// * MOEAs receive `scale.evals` evaluations (paper: 10 000),
/// * AEDB-MLS receives `scale.mls_evals()` = 2.4× that (paper: 24 000,
///   §VI: "it performs 2.4 times more evaluations"), split over the
///   paper's 8 × 12 walker topology at `--paper` scale and a 2 × 2
///   topology otherwise.
pub fn algorithms_for(scale: &ExperimentScale, kind: AlgorithmKind) -> Box<dyn MoAlgorithm> {
    serve::campaign::algorithm_for(&scale.campaign_budget(), kind)
}

/// Runs `scale.reps` seeded repetitions of `kind` on `problem`, sharding
/// whole repetitions across the thread pool. When `problem` parallelises
/// its own batches, prefer handing it
/// [`AedbProblem::with_parallel_batches`]`(false)` so only one layer owns
/// the pool.
pub fn run_algorithm(
    scale: &ExperimentScale,
    kind: AlgorithmKind,
    problem: &dyn Problem,
) -> Vec<RunResult> {
    (0..scale.reps)
        .into_par_iter()
        .map(|rep| algorithms_for(scale, kind).run(problem, rep_seed(rep)))
        .collect()
}

/// All repetitions of all algorithms for one density.
pub struct DensityResults {
    /// The density simulated.
    pub density: Density,
    /// Per algorithm: the repetition results.
    pub runs: Vec<(AlgorithmKind, Vec<RunResult>)>,
}

impl DensityResults {
    /// Runs the full per-density protocol: every (algorithm × repetition)
    /// job fans out over the thread pool at once.
    pub fn collect(scale: &ExperimentScale, density: Density) -> Self {
        Self::collect_all(scale, &[density])
            .pop()
            .expect("one density in, one result out")
    }

    /// Runs the protocol for several densities in one parallel scope —
    /// the widest shard: (density × algorithm × repetition) jobs all
    /// compete for the pool, so a slow density cannot serialise the rest.
    pub fn collect_all(scale: &ExperimentScale, densities: &[Density]) -> Vec<Self> {
        // One problem per density, shared by its jobs; inner batch
        // parallelism off — the repetition jobs already saturate the pool.
        let problems: Vec<AedbProblem> = densities
            .iter()
            .map(|&d| {
                AedbProblem::paper(Scenario::quick(d, scale.networks)).with_parallel_batches(false)
            })
            .collect();
        let jobs: Vec<(usize, AlgorithmKind, usize)> = (0..densities.len())
            .flat_map(|di| {
                AlgorithmKind::ALL
                    .iter()
                    .flat_map(move |&kind| (0..scale.reps).map(move |rep| (di, kind, rep)))
            })
            .collect();
        let problems_ref = &problems;
        let results: Vec<RunResult> = jobs
            .into_par_iter()
            .map(|(di, kind, rep)| {
                algorithms_for(scale, kind).run(&problems_ref[di], rep_seed(rep))
            })
            .collect();
        // Regroup the flat results: jobs were emitted density-major,
        // algorithm-major, repetition-minor.
        let mut it = results.into_iter();
        densities
            .iter()
            .map(|&density| {
                let runs = AlgorithmKind::ALL
                    .iter()
                    .map(|&kind| (kind, it.by_ref().take(scale.reps).collect()))
                    .collect();
                DensityResults { density, runs }
            })
            .collect()
    }

    /// The repetition results of one algorithm.
    pub fn of(&self, kind: AlgorithmKind) -> &[RunResult] {
        &self
            .runs
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("algorithm missing")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt::problem::test_problems::Zdt1;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            reps: 2,
            networks: 2,
            evals: 60,
            ..ExperimentScale::default()
        }
    }

    #[test]
    fn algorithms_scale_budgets() {
        let scale = tiny_scale();
        // 5 variables so the AEDB-specific search criteria are valid
        for kind in AlgorithmKind::ALL {
            let alg = algorithms_for(&scale, kind);
            let r = alg.run(&Zdt1::new(5), 5);
            let budget = if kind == AlgorithmKind::Mls {
                scale.mls_evals()
            } else {
                scale.evals
            };
            assert!(
                r.evaluations <= budget + 4,
                "{}: {} evals vs budget {budget}",
                kind.name(),
                r.evaluations
            );
        }
    }

    #[test]
    fn mls_gets_2_4x_budget() {
        let scale = tiny_scale();
        let mls = algorithms_for(&scale, AlgorithmKind::Mls);
        let r = mls.run(&Zdt1::new(5), 1);
        assert_eq!(r.evaluations, scale.mls_evals() / 4 * 4);
    }

    #[test]
    fn density_results_shape() {
        let scale = tiny_scale();
        let d = DensityResults::collect(&scale, Density::D100);
        assert_eq!(d.runs.len(), 3);
        for (kind, runs) in &d.runs {
            assert_eq!(runs.len(), 2, "{}", kind.name());
            for r in runs {
                assert!(
                    !r.front.is_empty(),
                    "{} produced an empty front",
                    kind.name()
                );
            }
        }
        assert_eq!(d.of(AlgorithmKind::Mls).len(), 2);
    }

    #[test]
    fn sharded_reps_match_sequential_schedule() {
        // Sharding whole repetitions over the pool must reproduce the
        // historical sequential loop exactly: same per-rep seeds, fresh
        // algorithm instance per run.
        let scale = tiny_scale();
        let problem = Zdt1::new(5);
        for kind in AlgorithmKind::ALL {
            let sharded = run_algorithm(&scale, kind, &problem);
            let sequential: Vec<_> = (0..scale.reps)
                .map(|rep| algorithms_for(&scale, kind).run(&problem, 0xBEEF + 97 * rep as u64))
                .collect();
            assert_eq!(sharded.len(), sequential.len());
            for (a, b) in sharded.iter().zip(&sequential) {
                let objs = |r: &RunResult| {
                    r.front
                        .iter()
                        .map(|c| c.objectives.clone())
                        .collect::<Vec<_>>()
                };
                assert_eq!(objs(a), objs(b), "{} shard diverged", kind.name());
                assert_eq!(a.evaluations, b.evaluations);
            }
        }
    }

    #[test]
    fn collect_all_groups_by_density() {
        let scale = tiny_scale();
        let all = DensityResults::collect_all(&scale, &[Density::D100, Density::D200]);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].density, Density::D100);
        assert_eq!(all[1].density, Density::D200);
        for d in &all {
            assert_eq!(d.runs.len(), 3);
            for (kind, runs) in &d.runs {
                assert_eq!(runs.len(), scale.reps, "{}", kind.name());
            }
        }
    }

    #[test]
    fn names_stable() {
        assert_eq!(AlgorithmKind::CellDe.name(), "CellDE");
        assert_eq!(AlgorithmKind::Nsga2.name(), "NSGAII");
        assert_eq!(AlgorithmKind::Mls.name(), "AEDB-MLS");
    }
}
