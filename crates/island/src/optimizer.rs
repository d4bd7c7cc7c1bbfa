//! The island optimizer: epoch loop, lockstep steps, global merge.

use crate::anytime::AnytimeArchive;
use crate::config::IslandConfig;
use crate::island::Island;
use crate::migration::{migrate_ring, MIGRATION_COUNT};
use mopt::algorithm::{MoAlgorithm, RunObserver, RunResult};
use mopt::problem::Problem;
use std::time::Instant;

/// The lockstep island-model optimizer. See the [crate docs](crate)
/// for the epoch/migration/deterministic-merge contract.
#[derive(Debug, Clone, Default)]
pub struct IslandOptimizer {
    /// Algorithm parameters.
    pub config: IslandConfig,
}

impl IslandOptimizer {
    /// Creates the optimizer with the given configuration.
    pub fn new(config: IslandConfig) -> Self {
        Self { config }
    }
}

/// Advances each island by its quota in lockstep steps: at step `s`,
/// every island with quota left proposes one child from its own RNG, the
/// children are evaluated as one [`Problem::make_candidates`] batch, and
/// each island then accepts its child, in island-index order. An island
/// touches only its own state during the epoch, so its RNG draws come in
/// the same order as if it ran its steps alone: the results are those of
/// advancing the islands one after another.
fn advance_islands(islands: &mut [Island], quotas: &[u64], problem: &dyn Problem) {
    let steps = quotas.iter().copied().max().unwrap_or(0);
    for step in 0..steps {
        let active: Vec<usize> = (0..islands.len()).filter(|&i| quotas[i] > step).collect();
        let children = active
            .iter()
            .map(|&i| islands[i].propose(problem.bounds()))
            .collect();
        for (&i, child) in active.iter().zip(problem.make_candidates(children)) {
            islands[i].accept(child);
        }
    }
}

impl MoAlgorithm for IslandOptimizer {
    fn name(&self) -> &'static str {
        "Island"
    }

    /// The observer is called once per epoch with `(epoch, evaluations,
    /// anytime archive members)` — the pool is already the mutually
    /// non-dominated global front. Cancellation is honoured at epoch
    /// boundaries: the run returns the sanitized best-so-far front.
    fn run_observed(
        &self,
        problem: &dyn Problem,
        seed: u64,
        observer: &dyn RunObserver,
    ) -> RunResult {
        let start = Instant::now();
        let cfg = &self.config;
        let mut islands: Vec<Island> = (0..cfg.islands.max(1))
            .map(|i| Island::new(i, seed, cfg))
            .collect();
        let mut evals: u64 = 0;

        // Initial populations, drawn and batch-evaluated in island-index
        // order; clamped so tiny budgets stay exact.
        for isl in islands.iter_mut() {
            let quota = (cfg.max_evaluations - evals).min(cfg.population.max(1) as u64);
            isl.init(problem, quota as usize);
            evals += quota;
        }

        let mut global = AnytimeArchive::new();
        for isl in &islands {
            global.merge(isl.archive.members());
        }
        let mut epoch: u64 = 0;
        observer.on_generation(epoch, evals, global.members());

        while evals < cfg.max_evaluations && !observer.cancelled() {
            // Quotas fixed up front, in island-index order; an empty
            // island gets none.
            let mut remaining = cfg.max_evaluations - evals;
            let quotas: Vec<u64> = islands
                .iter()
                .map(|isl| {
                    if isl.population.is_empty() {
                        return 0;
                    }
                    let q = remaining.min(cfg.epoch_evals.max(1));
                    remaining -= q;
                    q
                })
                .collect();
            let spent: u64 = quotas.iter().sum();
            if spent == 0 {
                break; // every island is empty: the budget can't be spent
            }
            advance_islands(&mut islands, &quotas, problem);
            evals += spent;
            epoch += 1;
            if cfg.migration_every > 0 && epoch.is_multiple_of(cfg.migration_every) {
                migrate_ring(&mut islands, MIGRATION_COUNT);
            }
            for isl in &islands {
                global.merge(isl.archive.members());
            }
            observer.on_generation(epoch, evals, global.members());
        }

        let result = RunResult {
            front: global.into_members(),
            evaluations: evals,
            elapsed: start.elapsed(),
        };
        result.sanitize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt::indicators::hypervolume;
    use mopt::problem::test_problems::{ConstrainedSchaffer, Schaffer, Zdt1};
    use mopt::solution::Candidate;
    use std::sync::Mutex;

    fn front_bits(r: &RunResult) -> Vec<(Vec<u64>, Vec<u64>)> {
        r.front
            .iter()
            .map(|c| {
                (
                    c.params.iter().map(|v| v.to_bits()).collect(),
                    c.objectives.iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn deterministic_given_seed() {
        let alg = IslandOptimizer::new(IslandConfig::quick(3, 600));
        let p = Schaffer::new();
        let a = alg.run(&p, 42);
        let b = alg.run(&p, 42);
        assert_eq!(front_bits(&a), front_bits(&b));
        assert_eq!(a.evaluations, b.evaluations);
        let c = alg.run(&p, 43);
        assert_ne!(front_bits(&a), front_bits(&c), "seed must matter");
    }

    #[test]
    fn lockstep_batches_match_islands_advanced_one_by_one() {
        // Every lockstep step is one batch of one child per island with
        // quota left; the same islands advanced one at a time, each child
        // evaluated alone, end in the same state.
        use mopt::problem::CountingProblem;
        let p = CountingProblem::new(Zdt1::new(5));
        let cfg = IslandConfig::quick(3, 600);
        let mut lockstep: Vec<Island> = (0..3).map(|i| Island::new(i, 9, &cfg)).collect();
        let mut alone: Vec<Island> = (0..3).map(|i| Island::new(i, 9, &cfg)).collect();
        for isl in lockstep.iter_mut().chain(alone.iter_mut()) {
            isl.init(&p, cfg.population);
        }
        let quotas = [7, 0, 4];
        let before = p.evaluations();
        advance_islands(&mut lockstep, &quotas, &p);
        assert_eq!(p.evaluations() - before, 11, "exactly the quotas");
        for (isl, &q) in alone.iter_mut().zip(&quotas) {
            for _ in 0..q {
                let child = isl.propose(p.bounds());
                isl.accept(p.make_candidate(child));
            }
        }
        for (a, b) in lockstep.iter().zip(&alone) {
            assert_eq!(a.population, b.population, "island {}", a.index);
            assert_eq!(a.archive.members(), b.archive.members());
        }
    }

    #[test]
    fn evaluation_budget_respected_exactly() {
        let alg = IslandOptimizer::new(IslandConfig::quick(3, 777));
        let r = alg.run(&Schaffer::new(), 9);
        assert_eq!(r.evaluations, 777);
    }

    #[test]
    fn observed_run_matches_plain_run() {
        struct Recorder(Mutex<Vec<(u64, u64, usize)>>);
        impl RunObserver for Recorder {
            fn on_generation(&self, epoch: u64, evaluations: u64, pool: &[Candidate]) {
                self.0
                    .lock()
                    .unwrap()
                    .push((epoch, evaluations, pool.len()));
            }
        }
        let alg = IslandOptimizer::new(IslandConfig::quick(2, 400));
        let p = Schaffer::new();
        let plain = alg.run(&p, 42);
        let rec = Recorder(Mutex::new(Vec::new()));
        let observed = alg.run_observed(&p, 42, &rec);
        assert_eq!(front_bits(&plain), front_bits(&observed));
        assert_eq!(plain.evaluations, observed.evaluations);
        let events = rec.0.into_inner().unwrap();
        assert!(events.len() > 1, "epoch 0 plus the loop");
        assert_eq!(events[0].0, 0);
        assert!(events.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        assert!(events.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(events.last().unwrap().1, 400);
    }

    #[test]
    fn cancellation_at_epoch_boundary_returns_best_so_far() {
        struct CancelAfter(std::sync::atomic::AtomicU64);
        impl RunObserver for CancelAfter {
            fn on_generation(&self, _e: u64, _v: u64, _p: &[Candidate]) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            fn cancelled(&self) -> bool {
                self.0.load(std::sync::atomic::Ordering::Relaxed) >= 3
            }
        }
        let alg = IslandOptimizer::new(IslandConfig::quick(2, 1_000_000));
        let obs = CancelAfter(std::sync::atomic::AtomicU64::new(0));
        let r = alg.run_observed(&Schaffer::new(), 7, &obs);
        assert!(!r.front.is_empty(), "best-so-far front survives");
        assert!(
            r.evaluations < 1_000_000,
            "stopped early: {}",
            r.evaluations
        );
    }

    #[test]
    fn anytime_front_hypervolume_is_monotone_over_epochs() {
        struct Fronts(Mutex<Vec<Vec<Vec<f64>>>>);
        impl RunObserver for Fronts {
            fn on_generation(&self, _e: u64, _v: u64, pool: &[Candidate]) {
                self.0
                    .lock()
                    .unwrap()
                    .push(pool.iter().map(|c| c.objectives.clone()).collect());
            }
        }
        let alg = IslandOptimizer::new(IslandConfig::quick(3, 1200));
        let rec = Fronts(Mutex::new(Vec::new()));
        alg.run_observed(&Zdt1::new(6), 5, &rec);
        let fronts = rec.0.into_inner().unwrap();
        assert!(fronts.len() > 3);
        let mut last = f64::NEG_INFINITY;
        for (epoch, front) in fronts.iter().enumerate() {
            let hv = hypervolume(front, &[11.0, 11.0]);
            assert!(
                hv >= last,
                "epoch {epoch}: hypervolume dropped from {last} to {hv}"
            );
            last = hv;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn front_is_feasible_and_mutually_nondominated() {
        use mopt::dominance::{constrained_dominance, DominanceOrd};
        let alg = IslandOptimizer::new(IslandConfig::quick(3, 1500));
        let r = alg.run(&ConstrainedSchaffer::new(), 5);
        assert!(r.front.iter().all(|c| c.is_feasible()));
        for i in 0..r.front.len() {
            for j in 0..r.front.len() {
                if i != j {
                    assert_ne!(
                        constrained_dominance(&r.front[j], &r.front[i]),
                        DominanceOrd::Dominates
                    );
                }
            }
        }
    }

    #[test]
    fn migration_disabled_still_runs() {
        let mut cfg = IslandConfig::quick(2, 300);
        cfg.migration_every = 0;
        let r = IslandOptimizer::new(cfg).run(&Schaffer::new(), 3);
        assert_eq!(r.evaluations, 300);
        assert!(!r.front.is_empty());
    }

    #[test]
    fn tiny_budget_smaller_than_one_population() {
        let mut cfg = IslandConfig::quick(4, 0);
        cfg.max_evaluations = 5; // smaller than one island's population
        let r = IslandOptimizer::new(cfg).run(&Schaffer::new(), 1);
        assert_eq!(r.evaluations, 5);
    }

    #[test]
    fn converges_on_zdt1() {
        let alg = IslandOptimizer::new(IslandConfig::quick(4, 4000));
        let r = alg.run(&Zdt1::new(8), 3);
        let hv = hypervolume(&r.objectives(), &[1.1, 1.1]);
        assert!(hv > 0.4, "hv = {hv}");
    }
}
