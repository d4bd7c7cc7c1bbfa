//! MOCell (Nebro, Durillo, Luna, Dorronsoro, Alba 2007) — the cellular
//! multi-objective GA that CellDE descends from (CellDE replaces MOCell's
//! SBX variation with differential evolution). The paper's §VII plans to
//! parallelise "the cellular multi-objective evolutionary algorithm";
//! having the SBX-based ancestor alongside CellDE lets the harness compare
//! the whole cellular family.
//!
//! A cell's trial vector comes from two parents picked in its C9
//! neighbourhood by binary tournament, recombined by SBX crossover and
//! perturbed by polynomial mutation, at the fixed settings of
//! [`mopt::ops`]. Replacement, the bounded external archive and the
//! archive feedback are the synchronous cellular loop this crate shares
//! with CellDE.

use crate::cellular::Cellular;
use mopt::algorithm::{MoAlgorithm, RunObserver, RunResult};
use mopt::ops::{binary_tournament, polynomial_mutation, sbx_crossover};
use mopt::problem::Problem;
use mopt::solution::Candidate;

/// MOCell parameters.
#[derive(Debug, Clone)]
pub struct MoCellConfig {
    /// Grid side; population = side².
    pub grid_side: usize,
    /// Evaluation budget.
    pub max_evaluations: u64,
    /// External archive capacity.
    pub archive_capacity: usize,
    /// Archive members re-injected per generation.
    pub feedback: usize,
}

impl Default for MoCellConfig {
    fn default() -> Self {
        Self {
            grid_side: 10,
            max_evaluations: 25_000,
            archive_capacity: 100,
            feedback: 20,
        }
    }
}

impl MoCellConfig {
    /// Reduced-budget configuration for tests/quick experiments.
    pub fn quick(grid_side: usize, max_evaluations: u64) -> Self {
        Self {
            grid_side,
            max_evaluations,
            archive_capacity: (grid_side * grid_side).max(20),
            feedback: (grid_side * grid_side / 5).max(2),
        }
    }
}

/// The MOCell optimiser.
#[derive(Debug, Clone, Default)]
pub struct MoCell {
    /// Algorithm parameters.
    pub config: MoCellConfig,
}

impl MoCell {
    /// Creates the optimiser with the given configuration.
    pub fn new(config: MoCellConfig) -> Self {
        Self { config }
    }
}

impl MoAlgorithm for MoCell {
    fn name(&self) -> &'static str {
        "MOCell"
    }

    fn run_observed(
        &self,
        problem: &dyn Problem,
        seed: u64,
        observer: &dyn RunObserver,
    ) -> RunResult {
        let cfg = &self.config;
        let bounds = problem.bounds();
        let cellular = Cellular {
            grid_side: cfg.grid_side,
            max_evaluations: cfg.max_evaluations,
            archive_capacity: cfg.archive_capacity,
            feedback: cfg.feedback,
        };
        cellular.run(problem, seed, observer, |grid, _cell, hood, rng| {
            let hood_pop: Vec<Candidate> = hood.iter().map(|&i| grid[i].clone()).collect();
            let p1 = binary_tournament(&hood_pop, rng);
            let p2 = binary_tournament(&hood_pop, rng);
            let (mut child, _) =
                sbx_crossover(&hood_pop[p1].params, &hood_pop[p2].params, bounds, rng);
            polynomial_mutation(&mut child, bounds, rng);
            child
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt::indicators::hypervolume;
    use mopt::problem::test_problems::{ConstrainedSchaffer, Schaffer, Zdt1};

    #[test]
    fn converges_on_schaffer() {
        let alg = MoCell::new(MoCellConfig::quick(6, 2500));
        let r = alg.run(&Schaffer::new(), 2);
        assert!(!r.front.is_empty());
        let inside = r
            .front
            .iter()
            .filter(|c| c.params[0] > -0.5 && c.params[0] < 2.5)
            .count();
        assert!(
            inside * 10 >= r.front.len() * 9,
            "{}/{}",
            inside,
            r.front.len()
        );
    }

    #[test]
    fn zdt1_reasonable_hypervolume() {
        let alg = MoCell::new(MoCellConfig::quick(6, 5000));
        let r = alg.run(&Zdt1::new(8), 7);
        let hv = hypervolume(&r.objectives(), &[1.1, 1.1]);
        assert!(hv > 0.55, "hv = {hv}");
    }

    #[test]
    fn constraint_handling() {
        let alg = MoCell::new(MoCellConfig::quick(5, 1500));
        let r = alg.run(&ConstrainedSchaffer::new(), 3);
        assert!(r.front.iter().all(|c| c.is_feasible()));
    }

    #[test]
    fn deterministic_given_seed() {
        let alg = MoCell::new(MoCellConfig::quick(4, 600));
        let p = Schaffer::new();
        let a = alg.run(&p, 10);
        let b = alg.run(&p, 10);
        assert_eq!(
            a.front
                .iter()
                .map(|c| c.objectives.clone())
                .collect::<Vec<_>>(),
            b.front
                .iter()
                .map(|c| c.objectives.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn observed_run_matches_plain_run() {
        struct Counter(std::sync::atomic::AtomicU64);
        impl RunObserver for Counter {
            fn on_generation(&self, _g: u64, _e: u64, _p: &[Candidate]) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let alg = MoCell::new(MoCellConfig::quick(4, 600));
        let p = Schaffer::new();
        let plain = alg.run(&p, 10);
        let obs = Counter(std::sync::atomic::AtomicU64::new(0));
        let observed = alg.run_observed(&p, 10, &obs);
        let project = |r: &RunResult| {
            r.front
                .iter()
                .map(|c| (c.params.clone(), c.objectives.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(project(&plain), project(&observed));
        assert_eq!(plain.evaluations, observed.evaluations);
        assert!(obs.0.load(std::sync::atomic::Ordering::Relaxed) > 1);
    }

    #[test]
    fn budget_not_exceeded() {
        let alg = MoCell::new(MoCellConfig::quick(5, 999));
        let r = alg.run(&Schaffer::new(), 1);
        assert!(r.evaluations <= 999);
        assert!(r.evaluations >= 990);
    }
}
