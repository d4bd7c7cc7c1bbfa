//! Lockstep island-model multi-objective optimizer with a live,
//! deterministic **anytime archive**.
//!
//! The paper's MOEAs (NSGA-II, MOCell, CellDE) are synchronous: the whole
//! population waits at every generation barrier and a campaign only yields
//! a front at the very end. This crate runs N **islands** instead, each a
//! steady-state loop — binary-tournament selection, SBX crossover +
//! polynomial mutation ([`mopt::ops`]), immediate evaluation, death-slot
//! replacement — feeding a per-island bounded Pareto archive
//! ([`mopt::archive::AgaArchive`]). Elites migrate on a ring, and a global
//! unbounded anytime archive accumulates every island's elites, so the
//! best-so-far front improves continuously and can be streamed while the
//! run is in flight.
//!
//! ## The epoch / migration / deterministic-merge contract
//!
//! Island runs are **bit-reproducible for a fixed seed regardless of how
//! the problem evaluates a batch**. The contract that makes this true:
//!
//! * Time is divided into **epochs**. Within an epoch, island `i` advances
//!   by a pre-computed evaluation quota as a *pure function* of its
//!   epoch-start state and its own RNG ([`Island::seed_for`] derives a
//!   per-island stream from `(run seed, island index)`); islands share no
//!   mutable state mid-epoch.
//! * An epoch runs in **lockstep steps**: at each step every island with
//!   quota left proposes one child ([`Island::propose`]), the children are
//!   evaluated as one [`mopt::problem::Problem::make_candidates`] batch —
//!   where the problem's own thread pool parallelises them — and each
//!   island accepts its child ([`Island::accept`]) in island-index order.
//!   Each island draws from its RNG in the same order as if it ran alone.
//! * **Migration** happens only at epoch boundaries (every
//!   [`IslandConfig::migration_every`] epochs), serially in island-index
//!   order, from pre-migration archive snapshots: island `i` receives the
//!   first [`MIGRATION_COUNT`](migration::MIGRATION_COUNT) members of island
//!   `(i−1) mod N`'s archive — a ring.
//! * The **global merge** into the [`AnytimeArchive`] also runs serially
//!   in island-index order at each epoch boundary. The anytime archive is
//!   dominance-only and unbounded, so its hypervolume against any fixed
//!   reference point is **non-decreasing over epochs** (points are only
//!   ever removed when a dominating point arrives).
//!
//! The determinism tests pin that batch evaluation with the problem's
//! pool on and off produces bit-identical final archives.
//!
//! Cancellation (via [`mopt::algorithm::RunObserver::cancelled`]) is
//! honoured at epoch boundaries and returns the sanitized best-so-far
//! anytime front — every run is an anytime computation.
//!
//! ```
//! use island::{IslandConfig, IslandOptimizer};
//! use mopt::algorithm::MoAlgorithm;
//! use mopt::problem::test_problems::Schaffer;
//!
//! let alg = IslandOptimizer::new(IslandConfig::quick(2, 400));
//! let a = alg.run(&Schaffer::new(), 7);
//! let b = alg.run(&Schaffer::new(), 7);
//! assert_eq!(a.front.len(), b.front.len()); // deterministic
//! assert!(!a.front.is_empty());
//! ```

#![warn(missing_docs)]

pub mod anytime;
pub mod config;
pub mod island;
pub mod migration;
pub mod optimizer;

pub use anytime::AnytimeArchive;
pub use config::IslandConfig;
pub use island::Island;
pub use migration::migrate_ring;
pub use optimizer::IslandOptimizer;
