//! CellDE + AEDB-MLS — the paper's stated future work, implemented.
//!
//! §VII: *"we plan to parallelise the cellular multi-objective evolutionary
//! algorithm, and include AEDB-MLS in it as a local search for fine tuning
//! the solutions generated by CellDE."*
//!
//! The hybrid runs in two phases: a CellDE exploration phase produces a
//! first front; the AEDB-MLS engine then refines it, with every walker
//! starting from one of the CellDE solutions (round-robin, without
//! re-evaluating them). The final front is the non-dominated union of both phases, so refinement can
//! never lose ground against phase 1. Both phases report to the run's
//! observer as one continuous generation stream.

use crate::mls::{Mls, MlsConfig};
use moea::cellde::{CellDe, CellDeConfig};
use mopt::algorithm::{MoAlgorithm, RunObserver, RunResult};
use mopt::dominance::non_dominated;
use mopt::problem::Problem;
use mopt::solution::Candidate;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the two-phase hybrid.
#[derive(Debug, Clone)]
pub struct CellDeMlsConfig {
    /// Phase 1: the cellular DE exploration.
    pub cellde: CellDeConfig,
    /// Phase 2: the local-search refinement (its own evaluation budget).
    pub mls: MlsConfig,
}

impl CellDeMlsConfig {
    /// A laptop-sized hybrid splitting `total_evals` roughly 60/40 between
    /// exploration and refinement.
    pub fn quick(total_evals: u64) -> Self {
        let phase1 = (total_evals * 3) / 5;
        let phase2 = total_evals - phase1;
        Self {
            cellde: CellDeConfig {
                grid_side: 4,
                max_evaluations: phase1,
                ..Default::default()
            },
            mls: MlsConfig::quick(1, 2, (phase2 / 2).max(5)),
        }
    }
}

/// The hybrid optimiser.
#[derive(Debug, Clone)]
pub struct CellDeMls {
    /// Configuration of both phases.
    pub config: CellDeMlsConfig,
}

impl CellDeMls {
    /// Creates the hybrid.
    pub fn new(config: CellDeMlsConfig) -> Self {
        Self { config }
    }
}

impl MoAlgorithm for CellDeMls {
    fn name(&self) -> &'static str {
        "CellDE+MLS"
    }

    fn run_observed(
        &self,
        problem: &dyn Problem,
        seed: u64,
        observer: &dyn RunObserver,
    ) -> RunResult {
        // Phase 1: exploration, with per-generation progress.
        let phase1_observer = Continued::new(observer, 0, 0);
        let phase1 =
            CellDe::new(self.config.cellde.clone()).run_observed(problem, seed, &phase1_observer);
        if observer.cancelled() {
            return phase1;
        }
        // Phase 2: local-search refinement seeded with the phase-1 front;
        // its rounds continue phase 1's generation and evaluation counts.
        let mls = Mls::new(self.config.mls.clone());
        let phase2_observer = Continued::new(
            observer,
            phase1_observer.last_generation.load(Ordering::Relaxed) + 1,
            phase1.evaluations,
        );
        let phase2 =
            mls.optimize_impl(problem, seed ^ 0x5EED_CE11, &phase1.front, &phase2_observer);
        // Union: refinement must never lose phase-1 ground.
        let mut all = phase1.front.clone();
        all.extend(phase2.front.iter().cloned());
        let front = non_dominated(&all);
        RunResult {
            front,
            evaluations: phase1.evaluations + phase2.evaluations,
            elapsed: phase1.elapsed + phase2.elapsed,
        }
        .sanitize()
    }
}

/// Forwards one phase's progress with its generation and evaluation
/// counts shifted by what earlier phases reported, remembering the last
/// generation it forwarded.
struct Continued<'a> {
    inner: &'a dyn RunObserver,
    generations: u64,
    evaluations: u64,
    last_generation: AtomicU64,
}

impl<'a> Continued<'a> {
    fn new(inner: &'a dyn RunObserver, generations: u64, evaluations: u64) -> Self {
        Self {
            inner,
            generations,
            evaluations,
            last_generation: AtomicU64::new(generations),
        }
    }
}

impl RunObserver for Continued<'_> {
    fn on_generation(&self, generation: u64, evaluations: u64, pool: &[Candidate]) {
        let generation = self.generations + generation;
        self.last_generation.store(generation, Ordering::Relaxed);
        self.inner
            .on_generation(generation, self.evaluations + evaluations, pool);
    }

    fn cancelled(&self) -> bool {
        self.inner.cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt::dominance::dominates;
    use mopt::indicators::hypervolume;
    use mopt::problem::test_problems::{Schaffer, Zdt1};

    #[test]
    fn hybrid_runs_both_phases() {
        let hybrid = CellDeMls::new(CellDeMlsConfig::quick(600));
        let r = hybrid.run(&Schaffer::new(), 3);
        assert!(!r.front.is_empty());
        // evaluations: phase1 (360 rounded to generations) + phase2
        // (2 walkers × 120 each); seeded walkers skip their init eval
        assert!(r.evaluations > 400, "evals = {}", r.evaluations);
        assert!(r.evaluations <= 600, "evals = {}", r.evaluations);
    }

    #[test]
    fn observed_run_streams_both_phases() {
        use std::sync::Mutex;
        struct Recorder(Mutex<Vec<(u64, u64)>>);
        impl RunObserver for Recorder {
            fn on_generation(&self, generation: u64, evaluations: u64, _: &[Candidate]) {
                self.0.lock().unwrap().push((generation, evaluations));
            }
        }
        let hybrid = CellDeMls::new(CellDeMlsConfig::quick(600));
        let p = Schaffer::new();
        let plain = hybrid.run(&p, 3);
        let rec = Recorder(Mutex::new(Vec::new()));
        let observed = hybrid.run_observed(&p, 3, &rec);
        let objectives = |r: &RunResult| r.objectives();
        assert_eq!(objectives(&plain), objectives(&observed));
        assert_eq!(plain.evaluations, observed.evaluations);
        // One stream: generations count up by one across the phase
        // boundary, evaluations never go back, and the last report is
        // the whole budget.
        let events = rec.0.into_inner().unwrap();
        assert!(events.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        assert!(events.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(events.last().unwrap().1, plain.evaluations);
    }

    #[test]
    fn hybrid_front_never_dominated_by_phase1() {
        let problem = Zdt1::new(5);
        let cfg = CellDeMlsConfig::quick(800);
        let phase1 = CellDe::new(cfg.cellde.clone()).run(&problem, 7);
        let hybrid = CellDeMls::new(cfg);
        let r = hybrid.run(&problem, 7);
        for h in &r.front {
            for p in &phase1.front {
                assert!(
                    !dominates(p, h),
                    "hybrid point dominated by a phase-1 point"
                );
            }
        }
    }

    #[test]
    fn refinement_does_not_hurt_hypervolume() {
        let problem = Zdt1::new(5);
        let cfg = CellDeMlsConfig::quick(900);
        let phase1 = CellDe::new(cfg.cellde.clone()).run(&problem, 11);
        let hv1 = hypervolume(&phase1.objectives(), &[1.1, 1.1]);
        let hybrid = CellDeMls::new(cfg).run(&problem, 11);
        let hv2 = hypervolume(&hybrid.objectives(), &[1.1, 1.1]);
        assert!(
            hv2 >= hv1 - 1e-9,
            "refinement lost hypervolume: {hv2} < {hv1}"
        );
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(
            CellDeMls::new(CellDeMlsConfig::quick(100)).name(),
            "CellDE+MLS"
        );
    }
}
