//! # mopt — multi-objective optimisation core
//!
//! Substrate crate for the AEDB-MLS reproduction. It provides every
//! multi-objective building block the paper relies on:
//!
//! * [`solution`] — real-coded candidate solutions with objectives (held in
//!   minimisation form) and a constraint-violation scalar,
//! * [`problem`] — the [`Problem`] trait every tunable
//!   system (here: the AEDB protocol) implements,
//! * [`dominance`] — Pareto dominance with Deb's feasibility-first
//!   constraint handling,
//! * [`sorting`] — fast non-dominated sorting and crowding distance
//!   (the NSGA-II machinery),
//! * [`archive`] — the Adaptive Grid Archiving (AGA) bounded elite archive
//!   from PAES, used by the paper as the external archive,
//! * [`indicators`] — hypervolume, (inverted) generational distance and
//!   generalised spread Δ* quality indicators plus front normalisation,
//! * [`ops`] — variation operators: BLX-α (Eq. 2 of the paper), SBX,
//!   polynomial mutation, DE/rand/1/bin and selection helpers,
//! * [`stats`] — Wilcoxon rank-sum test (the paper's Table IV) and
//!   boxplot summaries (Figure 7).
//!
//! The crate is dependency-light (only `rand`/`serde`) so the algorithm
//! crates (`moea`, `aedb-mls`) and the problem crate (`aedb`) can share it.

pub mod algorithm;
pub mod archive;
pub mod dominance;
pub mod indicators;
pub mod ops;
pub mod problem;
pub mod solution;
pub mod sorting;
pub mod stats;

pub use algorithm::{MoAlgorithm, RunResult};
pub use archive::AgaArchive;
pub use dominance::{dominates, DominanceOrd};
pub use problem::{Evaluation, Problem};
pub use solution::{Bounds, Candidate};
