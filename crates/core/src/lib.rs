//! # aedb-mls — the parallel multi-objective local search (the paper's
//! contribution)
//!
//! AEDB-MLS (§IV) is a **multi-start population-based local search**:
//!
//! * `P` distributed populations × `T` walkers per population; every
//!   walker runs the iterative local-search procedure of Fig. 3 on its own
//!   current solution,
//! * a move perturbs the solution with the **BLX-α step of Eq. 2**, scaled
//!   by the distance to a random *reference* solution `t` drawn from the
//!   same population,
//! * which parameters are perturbed is decided by one of three **search
//!   criteria** distilled from the FAST99 sensitivity analysis (§IV-B),
//! * every feasible perturbed solution replaces the current one and is
//!   offered to an **external archive** maintained with Adaptive Grid
//!   Archiving,
//! * every `reset_iterations` iterations the population is thrown away and
//!   re-seeded with random archive members (restart + collaboration),
//! * each walker stops after `evals_per_thread` evaluations — the paper
//!   runs 8 populations × 12 threads × 250 evaluations = 24 000.
//!
//! The paper's *hybrid parallel model* (message passing between
//! populations and the archive, shared memory within a population) is
//! re-expressed as **lockstep rounds**: in every round each of the `P·T`
//! walkers proposes one move against its population as it stood after
//! the previous round, the round's moves are evaluated as one
//! [`Problem::evaluate_batch`](mopt::problem::Problem::evaluate_batch)
//! (the problem's thread pool is the parallelism), and archive offers,
//! acceptance and reinitialisation apply serially in walker order. A run
//! is therefore a pure function of its configuration and seed, at any
//! pool size, and streams and cancels through
//! [`RunObserver`](mopt::algorithm::RunObserver) at round boundaries.

pub mod criteria;
pub mod hybrid;
pub mod mls;

pub use criteria::SearchCriteria;
pub use hybrid::{CellDeMls, CellDeMlsConfig};
pub use mls::{CriteriaChoice, Mls, MlsConfig};
