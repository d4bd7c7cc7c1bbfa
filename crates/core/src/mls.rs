//! The AEDB-MLS engine: Fig. 3/Fig. 4 of the paper, as lockstep rounds.
//!
//! Round structure of a run with `P` populations of `T` walkers:
//!
//! ```text
//!   round r │ walker (0,0) … (0,T−1) │ … │ walker (P−1,0) … (P−1,T−1) │  one BLX-α move each
//!           └──────────────── one Problem::evaluate_batch ──────────────┘
//!           serial merge in (p, k) order: archive offer (AGA, §IV-A), acceptance
//!           every `reset_iterations` rounds: walkers re-seed from archive elites
//! ```
//!
//! Walkers of one population collaborate through the population as it
//! stood at the end of the previous round: each move's reference solution
//! `t` is one of those `T` solutions. All walkers collaborate globally
//! *only* through the elite archive, which collects every feasible move
//! and hands out random elites for the periodic reinitialisation. The
//! paper's hybrid model (MPI between populations, threads within one)
//! becomes one batch per round: the problem's evaluation pool is the
//! parallelism, and on `AedbProblem` the round's `P·T` candidates all
//! restore each network's one simulated broadcast edge. Every
//! random draw comes from a per-walker RNG or the archive's RNG, consumed
//! in `(p, k)` order, so a run is a pure function of its configuration
//! and seed.

use crate::criteria::SearchCriteria;
use mopt::algorithm::{MoAlgorithm, NoProgress, RunObserver, RunResult};
use mopt::archive::{AgaArchive, ARCHIVE_BISECTIONS};
use mopt::ops::{blx_alpha_step, uniform_init};
use mopt::problem::Problem;
use mopt::solution::{Bounds, Candidate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Which search criteria the local search uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CriteriaChoice {
    /// The paper's three AEDB groups (§IV-B); requires ≥ 5 parameters.
    Aedb,
    /// One group containing every parameter (generic problems).
    AllParams,
    /// Explicit custom groups.
    Custom(SearchCriteria),
}

impl CriteriaChoice {
    fn resolve(&self, n_params: usize) -> SearchCriteria {
        let c = match self {
            CriteriaChoice::Aedb => SearchCriteria::aedb(),
            CriteriaChoice::AllParams => SearchCriteria::all_params(n_params),
            CriteriaChoice::Custom(c) => c.clone(),
        };
        assert!(
            c.max_param_index() < n_params,
            "criteria reference parameter {} but the problem has {}",
            c.max_param_index(),
            n_params
        );
        c
    }
}

/// AEDB-MLS parameters.
#[derive(Debug, Clone)]
pub struct MlsConfig {
    /// Number of distributed populations (paper: 8).
    pub n_populations: usize,
    /// Local-search walkers per population, each proposing one move per
    /// round (paper: 12 threads).
    pub threads_per_population: usize,
    /// Evaluations each walker performs, its start included (paper: 250;
    /// total = P·T·E).
    pub evals_per_thread: u64,
    /// Iterations between population reinitialisations from the archive
    /// (paper's tuned value: 50).
    pub reset_iterations: u64,
    /// BLX-α perturbation magnitude (paper's tuned value: 0.2).
    pub alpha: f64,
    /// External archive capacity (its grid has
    /// [`ARCHIVE_BISECTIONS`] bisections per objective).
    pub archive_capacity: usize,
    /// Search-criteria selection.
    pub criteria: CriteriaChoice,
}

impl Default for MlsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl MlsConfig {
    /// The paper's experimental configuration (§V): 8 populations × 12
    /// threads × 250 evaluations = 24 000 evaluations, `α = 0.2`,
    /// reset every 50 iterations.
    pub fn paper() -> Self {
        Self {
            n_populations: 8,
            threads_per_population: 12,
            evals_per_thread: 250,
            reset_iterations: 50,
            alpha: 0.2,
            archive_capacity: 100,
            criteria: CriteriaChoice::Aedb,
        }
    }

    /// A reduced configuration for tests and quick experiments.
    pub fn quick(n_populations: usize, threads: usize, evals_per_thread: u64) -> Self {
        Self {
            n_populations,
            threads_per_population: threads,
            evals_per_thread,
            reset_iterations: 25,
            alpha: 0.2,
            archive_capacity: 100,
            criteria: CriteriaChoice::AllParams,
        }
    }

    /// Total evaluation budget of a run.
    pub fn total_evaluations(&self) -> u64 {
        self.n_populations as u64 * self.threads_per_population as u64 * self.evals_per_thread
    }
}

/// The AEDB-MLS optimiser.
#[derive(Debug, Clone, Default)]
pub struct Mls {
    /// Algorithm parameters.
    pub config: MlsConfig,
}

impl Mls {
    /// Creates the optimiser with the given configuration.
    pub fn new(config: MlsConfig) -> Self {
        assert!(config.n_populations >= 1);
        assert!(config.threads_per_population >= 1);
        assert!(config.evals_per_thread >= 1);
        assert!(config.alpha > 0.0 && config.alpha < 1.0);
        assert!(config.reset_iterations >= 1);
        Self { config }
    }

    /// Runs the search. The front is a pure function of the configuration
    /// and `seed`: every round is one batch, merged serially, so neither
    /// the pool size nor scheduling can change it.
    ///
    /// Every walker's starting point is drawn up front and the `P·T`
    /// starts are evaluated as one batch ([`Problem::evaluate_batch`]),
    /// like every later round.
    ///
    /// The front is the raw archive, in archive order;
    /// [`MoAlgorithm::run`] returns it sanitized.
    pub fn optimize(&self, problem: &dyn Problem, seed: u64) -> RunResult {
        let starts = self.random_starts(problem, seed);
        self.optimize_impl(problem, seed, &starts, &NoProgress)
    }

    /// `P·T` unevaluated uniform starting points.
    fn random_starts(&self, problem: &dyn Problem, seed: u64) -> Vec<Candidate> {
        let cfg = &self.config;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7C_41D5_EED0_0113);
        (0..cfg.n_populations * cfg.threads_per_population)
            .map(|_| Candidate::new(uniform_init(problem.bounds(), &mut rng)))
            .collect()
    }

    /// The lockstep engine behind every entry point. Walker `(p, k)`
    /// starts from `seeds[(p·T + k) mod len]` (`seeds` must not be
    /// empty); the unevaluated starts are evaluated as one batch (round
    /// 0) and counted, already-evaluated ones are not (the CellDE+MLS
    /// hybrid seeds its phase-1 front). Then every round evaluates one
    /// move per walker as one batch. `observer` sees the archive after
    /// round 0 and after every round, and cancellation stops the run at a
    /// round boundary.
    pub(crate) fn optimize_impl(
        &self,
        problem: &dyn Problem,
        seed: u64,
        seeds: &[Candidate],
        observer: &dyn RunObserver,
    ) -> RunResult {
        let start = Instant::now();
        let cfg = &self.config;
        let bounds = problem.bounds();
        let criteria = cfg.criteria.resolve(bounds.len());
        let t = cfg.threads_per_population;
        let walkers = cfg.n_populations * t;
        let mut rngs: Vec<SmallRng> = (0..walkers)
            .map(|i| {
                let (p, k) = (i / t, i % t);
                SmallRng::seed_from_u64(
                    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul((p * 1024 + k + 1) as u64),
                )
            })
            .collect();

        // Lines 1–3: initialise (randomly, or from a provided seed solution
        // when running as a refinement stage), evaluate, archive.
        assert!(!seeds.is_empty(), "AEDB-MLS needs at least one start");
        let mut current: Vec<Candidate> = (0..walkers)
            .map(|i| seeds[i % seeds.len()].clone())
            .collect();
        let pending: Vec<usize> = (0..walkers)
            .filter(|&i| !current[i].is_evaluated())
            .collect();
        if !pending.is_empty() {
            let xs = pending
                .iter()
                .map(|&i| std::mem::take(&mut current[i].params))
                .collect();
            for (&i, c) in pending.iter().zip(problem.make_candidates(xs)) {
                current[i] = c;
            }
        }
        let mut evaluations = pending.len() as u64;
        let mut archive = AgaArchive::new(cfg.archive_capacity, ARCHIVE_BISECTIONS);
        for s in &current {
            archive.try_insert(s.clone());
        }
        let mut sample_rng = SmallRng::seed_from_u64(seed ^ 0xA5C4_17E5_0C1A_1BEDu64);
        observer.on_generation(0, evaluations, archive.members());

        // Line 5: stopping condition = per-walker evaluation budget (§V);
        // the start was each walker's first evaluation.
        for round in 1..cfg.evals_per_thread {
            if observer.cancelled() {
                break;
            }
            // Lines 6–7: every walker moves against its population as it
            // stood at the end of the previous round.
            let xs: Vec<Vec<f64>> = (0..walkers)
                .map(|i| {
                    let pop = &current[i - i % t..][..t];
                    propose(&current[i], pop, &criteria, cfg.alpha, bounds, &mut rngs[i])
                })
                .collect();

            // Line 8: evaluate the whole round at once.
            let moved = problem.make_candidates(xs);
            evaluations += walkers as u64;

            // Lines 9–12: accept every feasible move and share it, in
            // (p, k) order.
            for (s, cand) in current.iter_mut().zip(moved) {
                if cand.is_feasible() {
                    archive.try_insert(cand.clone());
                    *s = cand;
                }
            }

            // Lines 13–16: periodic reinitialisation from the archive.
            if round.is_multiple_of(cfg.reset_iterations) && round + 1 < cfg.evals_per_thread {
                for s in current.iter_mut() {
                    if let Some(elite) = archive.sample(&mut sample_rng) {
                        *s = elite.clone();
                    }
                }
            }
            observer.on_generation(round, evaluations, archive.members());
        }

        RunResult {
            front: archive.into_members(),
            evaluations,
            elapsed: start.elapsed(),
        }
    }
}

/// One walker's move — the paper's Fig. 3 lines 6–7: pick a random
/// reference solution `t` from `population` and a search criterion, then
/// BLX-α each of the criterion's parameters (Eq. 2).
fn propose(
    s: &Candidate,
    population: &[Candidate],
    criteria: &SearchCriteria,
    alpha: f64,
    bounds: &Bounds,
    rng: &mut SmallRng,
) -> Vec<f64> {
    let t = &population[rng.gen_range(0..population.len())];
    let group = criteria.pick(rng);
    let mut x = s.params.clone();
    for &pidx in group {
        let (lo, hi) = bounds.get(pidx);
        let tp = t.params[pidx];
        if (x[pidx] - tp).abs() > 0.0 {
            x[pidx] = blx_alpha_step(x[pidx], tp, alpha, rng);
        } else {
            // Absorbing state (s == t in this coordinate): domain-scaled
            // minimal kick so the walk cannot freeze. Implementation
            // choice — the paper leaves this case unspecified.
            let phi = alpha * 0.01 * (hi - lo);
            let rho: f64 = rng.gen();
            x[pidx] += phi * (3.0 * rho - 2.0);
        }
    }
    bounds.clamp(&mut x);
    x
}

impl MoAlgorithm for Mls {
    fn name(&self) -> &'static str {
        "AEDB-MLS"
    }

    fn run_observed(
        &self,
        problem: &dyn Problem,
        seed: u64,
        observer: &dyn RunObserver,
    ) -> RunResult {
        let starts = self.random_starts(problem, seed);
        self.optimize_impl(problem, seed, &starts, observer)
            .sanitize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt::dominance::{constrained_dominance, DominanceOrd};
    use mopt::indicators::hypervolume;
    use mopt::problem::test_problems::{ConstrainedSchaffer, Schaffer, Zdt1};

    #[test]
    fn budget_is_exact() {
        let mls = Mls::new(MlsConfig::quick(2, 3, 40));
        let r = mls.optimize(&Schaffer::new(), 1);
        assert_eq!(r.evaluations, 2 * 3 * 40);
        assert_eq!(r.evaluations, mls.config.total_evaluations());
    }

    #[test]
    fn converges_on_schaffer() {
        let mls = Mls::new(MlsConfig::quick(2, 4, 150));
        let r = mls.optimize(&Schaffer::new(), 7);
        assert!(!r.front.is_empty());
        let inside = r
            .front
            .iter()
            .filter(|c| c.params[0] > -1.0 && c.params[0] < 3.0)
            .count();
        assert!(
            inside * 10 >= r.front.len() * 8,
            "{}/{}",
            inside,
            r.front.len()
        );
    }

    #[test]
    fn zdt1_beats_random_search_at_equal_budget() {
        // Fig. 3 accepts *every* feasible move, so AEDB-MLS has no hill
        // climbing pressure beyond the archive (the paper's own results
        // show it losing to the MOEAs on IGD/HV). It must still clearly
        // beat pure random sampling at the same evaluation budget.
        use mopt::archive::AgaArchive;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let problem = Zdt1::new(6);
        let budget = 3200;
        let mls = Mls::new(MlsConfig::quick(1, 1, budget));
        let r = mls.optimize(&problem, 3);
        let hv_mls = hypervolume(&r.objectives(), &[1.1, 1.1]);

        let mut rng = SmallRng::seed_from_u64(3);
        let mut archive = AgaArchive::new(100, ARCHIVE_BISECTIONS);
        for _ in 0..budget {
            let c = problem.make_candidate(uniform_init(problem.bounds(), &mut rng));
            archive.try_insert(c);
        }
        let rand_front: Vec<Vec<f64>> = archive
            .members()
            .iter()
            .map(|c| c.objectives.clone())
            .collect();
        let hv_rand = hypervolume(&rand_front, &[1.1, 1.1]);
        assert!(hv_mls > hv_rand, "mls {hv_mls} vs random {hv_rand}");
        assert!(hv_mls > 0.1, "hv = {hv_mls}");
    }

    #[test]
    fn feasible_only_acceptance() {
        let mls = Mls::new(MlsConfig::quick(2, 2, 200));
        let r = mls.optimize(&ConstrainedSchaffer::new(), 11);
        // the archive may hold an infeasible seed only if nothing feasible
        // was ever found — impossible here
        assert!(r.front.iter().all(|c| c.is_feasible()));
    }

    #[test]
    fn front_is_mutually_nondominated() {
        let mls = Mls::new(MlsConfig::quick(1, 2, 150));
        let r = mls.optimize(&Schaffer::new(), 23);
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
    fn multi_walker_runs_are_deterministic() {
        let p = Schaffer::new();
        for (pops, walkers) in [(1, 1), (2, 3)] {
            let mls = Mls::new(MlsConfig::quick(pops, walkers, 60));
            let a = mls.optimize(&p, 99);
            let b = mls.optimize(&p, 99);
            let project = |r: &RunResult| {
                r.front
                    .iter()
                    .map(|c| (c.params.clone(), c.objectives.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(project(&a), project(&b), "{pops}x{walkers}");
        }
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
        let mls = Mls::new(MlsConfig::quick(2, 3, 40));
        let p = Zdt1::new(4);
        let plain = mls.run(&p, 42);
        let rec = Recorder(Mutex::new(Vec::new()));
        let observed = mls.run_observed(&p, 42, &rec);
        let project = |r: &RunResult| {
            r.front
                .iter()
                .map(|c| (c.params.clone(), c.objectives.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(project(&plain), project(&observed));
        assert_eq!(plain.evaluations, observed.evaluations);
        // Round 0 (the starts) plus one report per round, 6 evaluations
        // (one per walker) apart.
        let events = rec.0.into_inner().unwrap();
        assert_eq!(events.len(), 40);
        for (round, &(generation, evaluations, pool)) in events.iter().enumerate() {
            assert_eq!(generation, round as u64);
            assert_eq!(evaluations, 6 * (round as u64 + 1));
            assert!(pool > 0);
        }
    }

    #[test]
    fn cancellation_stops_at_a_round_boundary() {
        use std::sync::atomic::{AtomicU64, Ordering};
        /// Cancels once the run has reported round 3.
        struct StopAfter(AtomicU64);
        impl RunObserver for StopAfter {
            fn on_generation(&self, generation: u64, _: u64, _: &[Candidate]) {
                self.0.store(generation, Ordering::Relaxed);
            }
            fn cancelled(&self) -> bool {
                self.0.load(Ordering::Relaxed) >= 3
            }
        }
        let mls = Mls::new(MlsConfig::quick(2, 2, 50));
        let r = mls.run_observed(&Zdt1::new(4), 8, &StopAfter(AtomicU64::new(0)));
        assert_eq!(r.evaluations, 4 * 4, "start plus three rounds");
        assert!(!r.front.is_empty());
    }

    #[test]
    fn archive_capacity_respected() {
        let mut cfg = MlsConfig::quick(2, 2, 300);
        cfg.archive_capacity = 10;
        let mls = Mls::new(cfg);
        let r = mls.optimize(&Zdt1::new(4), 5);
        assert!(r.front.len() <= 10);
    }

    #[test]
    fn paper_config_totals_24000() {
        assert_eq!(MlsConfig::paper().total_evaluations(), 24_000);
    }

    #[test]
    fn custom_criteria_respected() {
        // restrict moves to parameter 0 only: parameter 1 stays at its
        // initial random value forever (reset draws come from the archive,
        // whose members also never moved in param 1 beyond initial values)
        let cfg = MlsConfig {
            criteria: CriteriaChoice::Custom(SearchCriteria::new(vec![vec![0]])),
            ..MlsConfig::quick(1, 1, 50)
        };
        let mls = Mls::new(cfg);
        let r = mls.optimize(&Zdt1::new(2), 31);
        assert!(!r.front.is_empty());
    }

    #[test]
    #[should_panic(expected = "criteria reference parameter")]
    fn criteria_arity_checked() {
        let cfg = MlsConfig {
            criteria: CriteriaChoice::Aedb,
            ..MlsConfig::quick(1, 1, 10)
        };
        let mls = Mls::new(cfg);
        let _ = mls.optimize(&Schaffer::new(), 1); // Schaffer has 1 param
    }
}
