//! Shared optimiser interface: every algorithm in this reproduction
//! (NSGA-II, CellDE, AEDB-MLS) runs a seeded search against a
//! [`Problem`] and returns a Pareto front approximation
//! plus bookkeeping, so the experiment harness can treat them uniformly —
//! the paper's §VI compares exactly these three under one protocol.

use crate::dominance::non_dominated;
use crate::problem::Problem;
use crate::solution::Candidate;
use std::time::Duration;

/// Outcome of one independent algorithm run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Non-dominated solutions found (the run's Pareto front approximation).
    pub front: Vec<Candidate>,
    /// Solution evaluations performed.
    pub evaluations: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl RunResult {
    /// Objective vectors of the front (used by the indicator machinery).
    pub fn objectives(&self) -> Vec<Vec<f64>> {
        self.front.iter().map(|c| c.objectives.clone()).collect()
    }

    /// Keeps only feasible, mutually non-dominated solutions (defensive
    /// post-filter; algorithms should already guarantee this). When no
    /// feasible solution exists the least-violating front is kept instead.
    pub fn sanitize(mut self) -> Self {
        let feasible: Vec<Candidate> = self
            .front
            .iter()
            .filter(|c| c.is_feasible())
            .cloned()
            .collect();
        let pool = if feasible.is_empty() {
            self.front.clone()
        } else {
            feasible
        };
        self.front = non_dominated(&pool);
        self
    }
}

/// Observer of a run's progress, called from inside
/// [`MoAlgorithm::run_observed`] between generations.
///
/// Two guarantees make observers safe to bolt onto any algorithm:
///
/// * **Read-only**: an observer never feeds back into the search — the
///   observed run's RNG stream, trajectory and result are bit-identical
///   to an unobserved [`MoAlgorithm::run`] (pinned per algorithm by the
///   `observed_run_matches_plain_run` tests).
/// * **Cooperative cancellation**: [`cancelled`](Self::cancelled) is
///   polled at generation boundaries; once it returns `true` the
///   algorithm stops early and returns the front it has (sanitized), so
///   a resident service can abandon a long campaign without killing the
///   process.
///
/// Every optimiser in the workspace reports through this hook: the
/// generational MOEAs per generation, AEDB-MLS per lockstep round and the
/// island model per epoch. [`MoAlgorithm::run_observed`] is the one
/// method an algorithm implements; [`MoAlgorithm::run`] is it under
/// [`NoProgress`].
pub trait RunObserver: Sync {
    /// Called after every evaluated generation with the generation index
    /// (0 = the evaluated initial population), the evaluations consumed
    /// so far and the algorithm's current solution pool — the population
    /// or archive the final front will be drawn from, *not* yet filtered
    /// to non-dominated solutions (observers that want a front snapshot
    /// apply [`non_dominated`]
    /// themselves, keeping the common no-observer path free of that
    /// cost).
    fn on_generation(&self, generation: u64, evaluations: u64, pool: &[Candidate]) {
        let _ = (generation, evaluations, pool);
    }

    /// Polled at generation boundaries; returning `true` makes the run
    /// stop early with the solutions found so far.
    fn cancelled(&self) -> bool {
        false
    }
}

/// The do-nothing observer; [`MoAlgorithm::run`] is exactly
/// `run_observed` through this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl RunObserver for NoProgress {}

/// A multi-objective optimiser with deterministic seeded runs.
pub trait MoAlgorithm {
    /// Short display name ("NSGAII", "CellDE", "AEDB-MLS").
    fn name(&self) -> &'static str;

    /// Runs the algorithm once, reporting per-generation progress to
    /// `observer` and honouring its cancellation flag. The observed run
    /// is bit-identical to [`run`](Self::run).
    fn run_observed(
        &self,
        problem: &dyn Problem,
        seed: u64,
        observer: &dyn RunObserver,
    ) -> RunResult;

    /// Runs the algorithm once with the given seed: `run_observed`
    /// through [`NoProgress`].
    fn run(&self, problem: &dyn Problem, seed: u64) -> RunResult {
        self.run_observed(problem, seed, &NoProgress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_filters_infeasible_and_dominated() {
        let mk = |o: &[f64], v: f64| Candidate::evaluated(vec![], o.to_vec(), v);
        let r = RunResult {
            front: vec![
                mk(&[1.0, 1.0], 0.0),
                mk(&[2.0, 2.0], 0.0),
                mk(&[0.0, 0.0], 3.0),
            ],
            evaluations: 3,
            elapsed: Duration::ZERO,
        };
        let s = r.sanitize();
        assert_eq!(s.front.len(), 1);
        assert_eq!(s.front[0].objectives, vec![1.0, 1.0]);
    }

    #[test]
    fn sanitize_keeps_infeasible_when_nothing_feasible() {
        let mk = |o: &[f64], v: f64| Candidate::evaluated(vec![], o.to_vec(), v);
        let r = RunResult {
            front: vec![mk(&[1.0, 1.0], 2.0), mk(&[0.5, 0.5], 1.0)],
            evaluations: 2,
            elapsed: Duration::ZERO,
        };
        let s = r.sanitize();
        assert_eq!(s.front.len(), 1); // lower violation dominates
        assert_eq!(s.front[0].violation, 1.0);
    }

    #[test]
    fn objectives_projection() {
        let r = RunResult {
            front: vec![Candidate::evaluated(vec![9.0], vec![1.0, 2.0], 0.0)],
            evaluations: 1,
            elapsed: Duration::ZERO,
        };
        assert_eq!(r.objectives(), vec![vec![1.0, 2.0]]);
    }
}
