//! # bench-harness — regenerates every table and figure of the paper
//!
//! One binary per artifact (see `src/bin/`):
//!
//! | binary            | paper artifact                                         |
//! |-------------------|--------------------------------------------------------|
//! | `exp_config`      | Tables II & III (scenario + variable domains)          |
//! | `exp_sensitivity` | Figure 2 + Table I (FAST99 sensitivity analysis)       |
//! | `exp_fronts`      | Figure 6 (Pareto fronts, AEDB-MLS vs Reference)        |
//! | `exp_metrics`     | Table IV + Figure 7 (Wilcoxon + boxplots of indicators)|
//! | `exp_domination`  | §VI domination counts                                  |
//! | `exp_timing`      | §VI runtime / speed-up analysis                        |
//! | `exp_param_study` | §V α / reset-condition configuration study             |
//! | `exp_hybrid`      | §VII future work: CellDE + AEDB-MLS hybrid             |
//! | `exp_all`         | everything above in sequence                           |
//!
//! Beyond the paper's artifacts, on their own:
//!
//! | binary              | experiment                                           |
//! |---------------------|------------------------------------------------------|
//! | `exp_network_stats` | connectivity of the fixed evaluation networks        |
//! | `exp_scale`         | dense-world delivery throughput (`BENCH_scale.json`) |
//! | `exp_serve`         | campaigns through the resident service               |
//!
//! Every binary accepts `--paper` (full protocol: 30 repetitions, 24 000
//! evaluations, 10 networks, all three densities — hours of CPU) and quick
//! flags (`--reps`, `--evals`, `--networks`, `--densities`); defaults are
//! laptop-friendly reductions that preserve the comparisons' shape.

pub mod experiments;
pub mod fronts;
pub mod runner;
pub mod scale;
pub mod tables;

pub use fronts::{front_metrics, merge_fronts, FrontMetrics};
pub use runner::{algorithms_for, run_algorithm, AlgorithmKind, DensityResults};
pub use scale::ExperimentScale;
