//! NSGA-II (Deb, Pratap, Agarwal, Meyarivan 2002) — the first baseline the
//! paper compares AEDB-MLS against.
//!
//! Standard real-coded configuration, as used for the AEDB problem in Ruiz
//! et al. 2012: population 100, binary tournament on (rank, crowding), SBX
//! crossover (`pc = 0.9`, `η = 20`) and polynomial mutation (`pm = 1/n`,
//! `η = 20`) at the fixed settings of [`mopt::ops`], μ+λ environmental
//! selection by non-dominated rank and crowding distance. Constraints use
//! Deb's feasibility-first dominance throughout (`mopt::dominance`).

use mopt::algorithm::{MoAlgorithm, RunObserver, RunResult};
use mopt::ops::{polynomial_mutation, sbx_crossover, uniform_init};
use mopt::problem::Problem;
use mopt::solution::Candidate;
use mopt::sorting::{crowding_distance, fast_non_dominated_sort, select_by_rank_and_crowding};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// NSGA-II parameters.
#[derive(Debug, Clone)]
pub struct Nsga2Config {
    /// Population size (paper baseline: 100).
    pub population: usize,
    /// Evaluation budget (paper baseline: 25 000).
    pub max_evaluations: u64,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Self {
            population: 100,
            max_evaluations: 25_000,
        }
    }
}

impl Nsga2Config {
    /// A configuration with the given population and budget (tests and
    /// quick experiments run far below the paper's).
    pub fn quick(population: usize, max_evaluations: u64) -> Self {
        Self {
            population,
            max_evaluations,
        }
    }
}

/// The NSGA-II optimiser.
#[derive(Debug, Clone, Default)]
pub struct Nsga2 {
    /// Algorithm parameters.
    pub config: Nsga2Config,
}

impl Nsga2 {
    /// Creates the optimiser with the given configuration.
    pub fn new(config: Nsga2Config) -> Self {
        Self { config }
    }
}

/// Tournament comparator on (rank, crowding): lower rank wins, ties by
/// larger crowding, further ties at random.
fn crowded_tournament<R: Rng>(rank: &[usize], crowd: &[f64], rng: &mut R) -> usize {
    let n = rank.len();
    let a = rng.gen_range(0..n);
    let b = rng.gen_range(0..n);
    if rank[a] != rank[b] {
        if rank[a] < rank[b] {
            a
        } else {
            b
        }
    } else if crowd[a] != crowd[b] {
        if crowd[a] > crowd[b] {
            a
        } else {
            b
        }
    } else if rng.gen::<bool>() {
        a
    } else {
        b
    }
}

impl MoAlgorithm for Nsga2 {
    fn name(&self) -> &'static str {
        "NSGAII"
    }

    fn run_observed(
        &self,
        problem: &dyn Problem,
        seed: u64,
        observer: &dyn RunObserver,
    ) -> RunResult {
        let start = Instant::now();
        let cfg = &self.config;
        let bounds = problem.bounds();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut evals: u64 = 0;
        let mut generation: u64 = 0;

        // Initial population, evaluated as one batch so expensive problems
        // can parallelise across the whole generation.
        let init_xs: Vec<Vec<f64>> = (0..cfg.population)
            .map(|_| uniform_init(bounds, &mut rng))
            .collect();
        evals += init_xs.len() as u64;
        let mut pop: Vec<Candidate> = problem.make_candidates(init_xs);
        observer.on_generation(generation, evals, &pop);

        while evals < cfg.max_evaluations && !observer.cancelled() {
            // Rank/crowding of the current population for selection.
            let fronts = fast_non_dominated_sort(&pop);
            let mut rank = vec![0usize; pop.len()];
            let mut crowd = vec![0.0f64; pop.len()];
            for (r, front) in fronts.iter().enumerate() {
                let cd = crowding_distance(&pop, front);
                for (k, &i) in front.iter().enumerate() {
                    rank[i] = r;
                    crowd[i] = cd[k];
                }
            }

            // Offspring generation (λ = μ): variation first, then the whole
            // generation is evaluated through the batch pipeline. Selection
            // only reads the parent population, so deferring evaluation
            // changes neither the RNG stream nor the search trajectory.
            let remaining = (cfg.max_evaluations - evals) as usize;
            let mut child_xs: Vec<Vec<f64>> = Vec::with_capacity(cfg.population);
            while child_xs.len() < cfg.population && child_xs.len() < remaining {
                let p1 = crowded_tournament(&rank, &crowd, &mut rng);
                let p2 = crowded_tournament(&rank, &crowd, &mut rng);
                let (mut c1, mut c2) =
                    sbx_crossover(&pop[p1].params, &pop[p2].params, bounds, &mut rng);
                polynomial_mutation(&mut c1, bounds, &mut rng);
                polynomial_mutation(&mut c2, bounds, &mut rng);
                for child in [c1, c2] {
                    if child_xs.len() < cfg.population && child_xs.len() < remaining {
                        child_xs.push(child);
                    }
                }
            }
            evals += child_xs.len() as u64;
            let offspring = problem.make_candidates(child_xs);

            // μ+λ environmental selection.
            pop.extend(offspring);
            let chosen = select_by_rank_and_crowding(&pop, cfg.population);
            let mut next = Vec::with_capacity(cfg.population);
            for i in chosen {
                next.push(pop[i].clone());
            }
            pop = next;
            generation += 1;
            observer.on_generation(generation, evals, &pop);
        }

        let result = RunResult {
            front: pop,
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

    #[test]
    fn converges_on_schaffer() {
        let alg = Nsga2::new(Nsga2Config::quick(40, 2000));
        let r = alg.run(&Schaffer::new(), 1);
        assert!(!r.front.is_empty());
        assert_eq!(r.evaluations, 2000);
        // Pareto set is x in [0,2]: most solutions should be close.
        let inside = r
            .front
            .iter()
            .filter(|c| c.params[0] > -0.5 && c.params[0] < 2.5)
            .count();
        assert!(
            inside * 10 >= r.front.len() * 9,
            "{} of {} near the Pareto set",
            inside,
            r.front.len()
        );
    }

    #[test]
    fn zdt1_hypervolume_improves_with_budget() {
        let problem = Zdt1::new(8);
        let hv_for = |evals| {
            let alg = Nsga2::new(Nsga2Config::quick(32, evals));
            let r = alg.run(&problem, 3);
            hypervolume(&r.objectives(), &[1.1, 1.1])
        };
        let small = hv_for(500);
        let large = hv_for(4000);
        assert!(large > small, "hv {large} should beat {small}");
        // theoretical optimum for ZDT1 with ref (1.1,1.1) is ≈ 0.87
        assert!(large > 0.6, "hv = {large}");
    }

    #[test]
    fn respects_constraints() {
        let alg = Nsga2::new(Nsga2Config::quick(30, 1500));
        let r = alg.run(&ConstrainedSchaffer::new(), 5);
        assert!(r.front.iter().all(|c| c.is_feasible()));
        // feasible region is x >= 0.5 => f1 >= 0.25
        assert!(r.front.iter().all(|c| c.objectives[0] >= 0.25 - 1e-9));
    }

    #[test]
    fn deterministic_given_seed() {
        let alg = Nsga2::new(Nsga2Config::quick(20, 600));
        let p = Schaffer::new();
        let a = alg.run(&p, 42);
        let b = alg.run(&p, 42);
        let pa: Vec<_> = a.front.iter().map(|c| c.params.clone()).collect();
        let pb: Vec<_> = b.front.iter().map(|c| c.params.clone()).collect();
        assert_eq!(pa, pb);
        let c = alg.run(&p, 43);
        assert_ne!(
            a.front
                .iter()
                .map(|x| x.objectives.clone())
                .collect::<Vec<_>>(),
            c.front
                .iter()
                .map(|x| x.objectives.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn observed_run_matches_plain_run() {
        use std::sync::Mutex;
        struct Recorder(Mutex<Vec<(u64, u64, usize)>>);
        impl RunObserver for Recorder {
            fn on_generation(&self, generation: u64, evaluations: u64, pool: &[Candidate]) {
                self.0
                    .lock()
                    .unwrap()
                    .push((generation, evaluations, pool.len()));
            }
        }
        let alg = Nsga2::new(Nsga2Config::quick(20, 600));
        let p = Schaffer::new();
        let plain = alg.run(&p, 42);
        let rec = Recorder(Mutex::new(Vec::new()));
        let observed = alg.run_observed(&p, 42, &rec);
        let project = |r: &RunResult| {
            r.front
                .iter()
                .map(|c| (c.params.clone(), c.objectives.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(project(&plain), project(&observed));
        assert_eq!(plain.evaluations, observed.evaluations);
        let events = rec.0.into_inner().unwrap();
        assert!(events.len() > 1, "should see generation 0 plus the loop");
        assert_eq!(events[0].0, 0);
        assert!(events.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        assert!(events.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(events.last().unwrap().1, 600);
    }

    #[test]
    fn cancellation_stops_early_with_partial_front() {
        struct CancelAfter(std::sync::atomic::AtomicU64);
        impl RunObserver for CancelAfter {
            fn on_generation(&self, _g: u64, _e: u64, _p: &[Candidate]) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            fn cancelled(&self) -> bool {
                self.0.load(std::sync::atomic::Ordering::Relaxed) >= 3
            }
        }
        let alg = Nsga2::new(Nsga2Config::quick(20, 10_000));
        let obs = CancelAfter(std::sync::atomic::AtomicU64::new(0));
        let r = alg.run_observed(&Schaffer::new(), 7, &obs);
        assert!(!r.front.is_empty());
        assert!(r.evaluations < 10_000, "stopped early: {}", r.evaluations);
    }

    #[test]
    fn evaluation_budget_respected_exactly() {
        let alg = Nsga2::new(Nsga2Config::quick(25, 777));
        let r = alg.run(&Schaffer::new(), 9);
        assert_eq!(r.evaluations, 777);
    }

    #[test]
    fn front_is_mutually_nondominated() {
        use mopt::dominance::{constrained_dominance, DominanceOrd};
        let alg = Nsga2::new(Nsga2Config::quick(30, 1200));
        let r = alg.run(&Zdt1::new(5), 11);
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
}
