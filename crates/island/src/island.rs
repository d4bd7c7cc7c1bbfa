//! One island: a steady-state population plus its bounded elite archive.

use crate::config::IslandConfig;
use mopt::archive::{AgaArchive, ARCHIVE_BISECTIONS};
use mopt::dominance::{constrained_dominance, DominanceOrd};
use mopt::ops::{binary_tournament, polynomial_mutation, sbx_crossover, uniform_init};
use mopt::problem::Problem;
use mopt::solution::{Bounds, Candidate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An island's state. Between epoch boundaries an island touches nothing
/// but itself (population, archive, own RNG), which is what lets the
/// optimizer evaluate every island's child of a step as one batch without
/// changing results.
#[derive(Debug)]
pub struct Island {
    /// Ring position (also the RNG stream selector).
    pub index: usize,
    /// Steady-state population.
    pub population: Vec<Candidate>,
    /// Bounded elite archive (the island's migration currency).
    pub archive: AgaArchive,
    /// The island's private RNG stream.
    pub rng: SmallRng,
}

impl Island {
    /// Derives island `index`'s RNG seed from the run seed — a
    /// splitmix-style odd-multiplier hash, so neighbouring islands get
    /// uncorrelated streams and the mapping is stable across versions.
    pub fn seed_for(run_seed: u64, index: usize) -> u64 {
        run_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)
    }

    /// A fresh, empty island.
    pub fn new(index: usize, run_seed: u64, cfg: &IslandConfig) -> Self {
        Self {
            index,
            population: Vec::with_capacity(cfg.population),
            archive: AgaArchive::new(cfg.archive_capacity.max(1), ARCHIVE_BISECTIONS),
            rng: SmallRng::seed_from_u64(Self::seed_for(run_seed, index)),
        }
    }

    /// Draws and evaluates the initial population (`n` individuals, batch
    /// evaluated), seeding the archive. `n` may be clamped below the
    /// configured population when the run budget is nearly spent.
    pub fn init(&mut self, problem: &dyn Problem, n: usize) {
        let bounds = problem.bounds();
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| uniform_init(bounds, &mut self.rng))
            .collect();
        self.population = problem.make_candidates(xs);
        for c in &self.population {
            self.archive.try_insert(c.clone());
        }
    }

    /// The first half of one steady-state step: selects two parents by
    /// binary tournament and returns one SBX + polynomial-mutation
    /// offspring, still to be evaluated. The population must not be empty.
    pub fn propose(&mut self, bounds: &Bounds) -> Vec<f64> {
        let p1 = binary_tournament(&self.population, &mut self.rng);
        let p2 = binary_tournament(&self.population, &mut self.rng);
        let (mut child, _twin) = sbx_crossover(
            &self.population[p1].params,
            &self.population[p2].params,
            bounds,
            &mut self.rng,
        );
        polynomial_mutation(&mut child, bounds, &mut self.rng);
        child
    }

    /// The second half of the step: offers the evaluated offspring to the
    /// archive and lets it contest a death-tournament slot in the
    /// population (the loser is replaced unless it dominates the
    /// offspring).
    pub fn accept(&mut self, child: Candidate) {
        self.archive.try_insert(child.clone());
        let slot = death_slot(&self.population, &mut self.rng);
        if constrained_dominance(&self.population[slot], &child) != DominanceOrd::Dominates {
            self.population[slot] = child;
        }
    }
}

/// Reverse binary tournament: of two random members, the *dominated* one
/// is put up for replacement (ties broken at random).
fn death_slot<R: Rng>(pop: &[Candidate], rng: &mut R) -> usize {
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    match constrained_dominance(&pop[a], &pop[b]) {
        DominanceOrd::Dominates => b,
        DominanceOrd::DominatedBy => a,
        DominanceOrd::Indifferent => {
            if rng.gen::<bool>() {
                a
            } else {
                b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt::problem::test_problems::Schaffer;

    #[test]
    fn seeds_differ_per_island_and_are_stable() {
        let s: Vec<u64> = (0..4).map(|i| Island::seed_for(42, i)).collect();
        for i in 0..s.len() {
            for j in 0..s.len() {
                if i != j {
                    assert_ne!(s[i], s[j]);
                }
            }
        }
        assert_eq!(
            s,
            (0..4)
                .map(|i| Island::seed_for(42, i))
                .collect::<Vec<u64>>()
        );
    }

    #[test]
    fn proposals_stay_in_bounds() {
        let cfg = IslandConfig::quick(1, 1000);
        let problem = Schaffer::new();
        let mut isl = Island::new(0, 5, &cfg);
        isl.init(&problem, cfg.population);
        for _ in 0..50 {
            let child = isl.propose(problem.bounds());
            assert!(problem.bounds().contains(&child), "{child:?}");
            isl.accept(problem.make_candidate(child));
        }
        assert_eq!(isl.population.len(), cfg.population);
    }

    #[test]
    fn archive_collects_elites() {
        let cfg = IslandConfig::quick(1, 1000);
        let problem = Schaffer::new();
        let mut isl = Island::new(0, 9, &cfg);
        isl.init(&problem, cfg.population);
        for _ in 0..100 {
            let child = isl.propose(problem.bounds());
            isl.accept(problem.make_candidate(child));
        }
        assert!(!isl.archive.is_empty());
        assert!(isl.archive.len() <= cfg.archive_capacity);
    }
}
