//! CellDE (Durillo, Nebro, Luna, Alba 2008) — the second baseline: a
//! cellular genetic algorithm whose variation operator is differential
//! evolution, with a bounded external archive and archive feedback.
//!
//! Each individual lives on a toroidal √N×√N grid and only interacts with
//! its C9 neighbourhood (the 8 surrounding cells). A cell's trial vector
//! is DE/rand/1/bin ([`DE_F`] = 0.5, [`DE_CR`] = 0.9) over three distinct
//! neighbours `r1, r2, r3`; replacement, the external AGA archive and the
//! archive feedback that gives the algorithm its strong diversity (the
//! paper's spread results for CellDE) are the synchronous cellular loop
//! this crate shares with MOCell.

use crate::cellular::Cellular;
use mopt::algorithm::{MoAlgorithm, RunObserver, RunResult};
use mopt::ops::{de_rand_1_bin, distinct_indices};
use mopt::problem::Problem;

/// DE differential weight `F` of the paper's CellDE baseline.
pub const DE_F: f64 = 0.5;
/// DE crossover rate `CR` of the paper's CellDE baseline.
pub const DE_CR: f64 = 0.9;

/// CellDE parameters.
#[derive(Debug, Clone)]
pub struct CellDeConfig {
    /// Grid side; population = side².  Paper baseline: 10 (pop 100).
    pub grid_side: usize,
    /// Evaluation budget (paper baseline: 25 000).
    pub max_evaluations: u64,
    /// External archive capacity.
    pub archive_capacity: usize,
    /// Archive members re-injected into the grid per generation.
    pub feedback: usize,
}

impl Default for CellDeConfig {
    fn default() -> Self {
        Self {
            grid_side: 10,
            max_evaluations: 25_000,
            archive_capacity: 100,
            feedback: 20,
        }
    }
}

impl CellDeConfig {
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

/// The CellDE optimiser.
#[derive(Debug, Clone, Default)]
pub struct CellDe {
    /// Algorithm parameters.
    pub config: CellDeConfig,
}

impl CellDe {
    /// Creates the optimiser with the given configuration.
    pub fn new(config: CellDeConfig) -> Self {
        Self { config }
    }
}

impl MoAlgorithm for CellDe {
    fn name(&self) -> &'static str {
        "CellDE"
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
        cellular.run(problem, seed, observer, |grid, cell, hood, rng| {
            // Three distinct donors from the neighbourhood (two on a 2×2
            // grid, whose neighbourhood has only three cells).
            let k = 3.min(hood.len() - 1).max(1);
            let picks = distinct_indices(hood.len(), k, usize::MAX, rng);
            let r1 = &grid[hood[picks[0]]];
            let r2 = &grid[hood[picks[1 % picks.len()]]];
            let r3 = &grid[hood[picks[2 % picks.len()]]];
            de_rand_1_bin(
                &grid[cell].params,
                &r1.params,
                &r2.params,
                &r3.params,
                DE_F,
                DE_CR,
                bounds,
                rng,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt::indicators::hypervolume;
    use mopt::problem::test_problems::{ConstrainedSchaffer, Schaffer, Zdt1};
    use mopt::solution::Candidate;

    #[test]
    fn converges_on_schaffer() {
        let alg = CellDe::new(CellDeConfig::quick(6, 2500));
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
        let alg = CellDe::new(CellDeConfig::quick(6, 5000));
        let r = alg.run(&Zdt1::new(8), 7);
        let hv = hypervolume(&r.objectives(), &[1.1, 1.1]);
        assert!(hv > 0.55, "hv = {hv}");
    }

    #[test]
    fn constraint_handling() {
        let alg = CellDe::new(CellDeConfig::quick(5, 1500));
        let r = alg.run(&ConstrainedSchaffer::new(), 3);
        assert!(r.front.iter().all(|c| c.is_feasible()));
    }

    #[test]
    fn deterministic_given_seed() {
        let alg = CellDe::new(CellDeConfig::quick(4, 600));
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
        let alg = CellDe::new(CellDeConfig::quick(4, 600));
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
        let alg = CellDe::new(CellDeConfig::quick(5, 999));
        let r = alg.run(&Schaffer::new(), 1);
        assert!(r.evaluations <= 999, "{}", r.evaluations);
        assert!(r.evaluations >= 990);
    }

    #[test]
    fn archive_bounded() {
        let mut cfg = CellDeConfig::quick(6, 3000);
        cfg.archive_capacity = 25;
        let alg = CellDe::new(cfg);
        let r = alg.run(&Zdt1::new(4), 5);
        assert!(r.front.len() <= 25);
    }
}
