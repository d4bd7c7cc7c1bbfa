//! The synchronous cellular loop MOCell and CellDE share. The two differ
//! only in how a cell's trial vector is built; everything else lives here.
//!
//! Each individual lives on a toroidal `side × side` grid and only
//! interacts with its C9 neighbourhood (the 8 surrounding cells). Per
//! generation:
//!
//! 1. every cell builds a trial vector from the generation-start grid
//!    (the algorithm's variation),
//! 2. all trials are evaluated as ONE batch, so expensive problems fan
//!    the whole generation out at once,
//! 3. in cell order, a trial replaces its incumbent if it
//!    constrained-dominates it; if they are incomparable it replaces the
//!    *worst neighbour* (the most dominated cell of the neighbourhood),
//! 4. every trial is offered to a bounded external AGA archive,
//! 5. `feedback` random archive members are re-injected into random
//!    cells — the MOCell feedback loop behind the family's strong spread.

use mopt::algorithm::{RunObserver, RunResult};
use mopt::archive::{AgaArchive, ARCHIVE_BISECTIONS};
use mopt::dominance::{constrained_dominance, DominanceOrd};
use mopt::ops::uniform_init;
use mopt::problem::Problem;
use mopt::solution::Candidate;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// C9 neighbourhood of `cell` on a `side × side` torus: the 8 surrounding
/// cells, sorted, excluding the cell itself. Tiny grids fold neighbours
/// together, so duplicates are removed.
pub(crate) fn neighborhood(side: usize, cell: usize) -> Vec<usize> {
    let side = side as isize;
    let (r, c) = ((cell as isize) / side, (cell as isize) % side);
    let mut out = Vec::with_capacity(8);
    for dr in -1..=1 {
        for dc in -1..=1 {
            if dr == 0 && dc == 0 {
                continue;
            }
            let rr = (r + dr).rem_euclid(side);
            let cc = (c + dc).rem_euclid(side);
            out.push((rr * side + cc) as usize);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The shape of a cellular run: grid, budget and archive.
pub(crate) struct Cellular {
    /// Grid side; population = side².
    pub grid_side: usize,
    /// Evaluation budget.
    pub max_evaluations: u64,
    /// External archive capacity.
    pub archive_capacity: usize,
    /// Archive members re-injected per generation.
    pub feedback: usize,
}

impl Cellular {
    /// Runs the loop with seed `seed`. `vary(grid, cell, hood, rng)` builds
    /// the trial vector of `cell` from the generation-start `grid`, where
    /// `hood` is the cell's [`neighborhood`].
    pub fn run(
        &self,
        problem: &dyn Problem,
        seed: u64,
        observer: &dyn RunObserver,
        mut vary: impl FnMut(&[Candidate], usize, &[usize], &mut SmallRng) -> Vec<f64>,
    ) -> RunResult {
        let start = Instant::now();
        assert!(self.grid_side >= 2, "grid must be at least 2×2");
        let n = self.grid_side * self.grid_side;
        let hoods: Vec<Vec<usize>> = (0..n).map(|c| neighborhood(self.grid_side, c)).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut evals: u64 = 0;
        let mut generation: u64 = 0;

        let init_xs: Vec<Vec<f64>> = (0..n)
            .map(|_| uniform_init(problem.bounds(), &mut rng))
            .collect();
        evals += init_xs.len() as u64;
        let mut grid: Vec<Candidate> = problem.make_candidates(init_xs);
        let mut archive = AgaArchive::new(self.archive_capacity, ARCHIVE_BISECTIONS);
        for c in &grid {
            archive.try_insert(c.clone());
        }
        observer.on_generation(generation, evals, archive.members());

        while evals < self.max_evaluations && !observer.cancelled() {
            let trials_this_gen = n.min((self.max_evaluations - evals) as usize);
            let trial_xs: Vec<Vec<f64>> = (0..trials_this_gen)
                .map(|cell| vary(&grid, cell, &hoods[cell], &mut rng))
                .collect();
            evals += trial_xs.len() as u64;
            let trials = problem.make_candidates(trial_xs);
            for (cell, trial) in trials.into_iter().enumerate() {
                match constrained_dominance(&trial, &grid[cell]) {
                    DominanceOrd::Dominates => grid[cell] = trial.clone(),
                    DominanceOrd::DominatedBy => {}
                    DominanceOrd::Indifferent => {
                        let hood = &hoods[cell];
                        let worst = hood
                            .iter()
                            .copied()
                            .max_by_key(|&i| {
                                hood.iter()
                                    .filter(|&&j| {
                                        constrained_dominance(&grid[j], &grid[i])
                                            == DominanceOrd::Dominates
                                    })
                                    .count()
                            })
                            .unwrap_or(cell);
                        grid[worst] = trial.clone();
                    }
                }
                archive.try_insert(trial);
            }
            for _ in 0..self.feedback {
                if let Some(elite) = archive.sample(&mut rng) {
                    let slot = rng.gen_range(0..n);
                    grid[slot] = elite.clone();
                }
            }
            generation += 1;
            observer.on_generation(generation, evals, archive.members());
        }

        RunResult {
            front: archive.into_members(),
            evaluations: evals,
            elapsed: start.elapsed(),
        }
        .sanitize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighborhood_is_c9_on_torus() {
        // Interior cell of a 5×5 grid: 8 distinct neighbours.
        let hood = neighborhood(5, 12);
        assert_eq!(hood.len(), 8);
        assert!(!hood.contains(&12));
        // Corner cell of a 4×4 grid wraps to the opposite corner.
        let hood = neighborhood(4, 0);
        assert_eq!(hood.len(), 8);
        assert!(!hood.contains(&0));
        assert!(hood.contains(&15) && hood.contains(&5));
        // A 2×2 grid folds duplicates together.
        let hood = neighborhood(2, 0);
        assert_eq!(hood, vec![1, 2, 3]);
    }
}
