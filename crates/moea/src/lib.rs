//! # moea — the paper's baseline multi-objective evolutionary algorithms
//!
//! AEDB-MLS is validated against two MOEAs (§VI): **NSGA-II** (Deb et al.
//! 2002) and **CellDE** (Durillo et al. 2008, a cellular GA with
//! differential-evolution variation and an external archive). **MOCell**
//! (Nebro et al. 2007), CellDE's SBX-based ancestor, rounds out the
//! cellular family. All three are implemented here from scratch over the
//! `mopt` substrate, with the same constrained-dominance handling as the
//! rest of the system, so that the comparison harness can reproduce
//! Table IV, Figures 6–7 and the §VI domination/runtime analyses.
//!
//! MOCell and CellDE run one shared synchronous cellular loop (C9
//! neighbourhood, one evaluation batch per generation, replacement in cell
//! order, AGA archive with feedback) and differ only in the variation that
//! builds a cell's trial vector.

pub mod cellde;
mod cellular;
pub mod mocell;
pub mod nsga2;

pub use cellde::{CellDe, CellDeConfig};
pub use mocell::{MoCell, MoCellConfig};
pub use nsga2::{Nsga2, Nsga2Config};
