//! # aedb-repro — reproduction of *"A Parallel Multi-objective Local Search
//! for AEDB Protocol Tuning"* (Iturriaga, Ruiz, Nesmachnow, Dorronsoro,
//! Bouvry; IPDPS Workshops 2013)
//!
//! This façade crate re-exports the whole system so examples and downstream
//! users need a single dependency:
//!
//! * [`manet`] — discrete-event MANET simulator (the ns-3 substitute) with
//!   an incremental, reusable core: delivery queries go through a uniform
//!   grid maintained by per-node cell-crossing events (O(1) moves, checked
//!   against a naive oracle — see [`manet::sim::DeliveryMode`]), interference
//!   tracking is O(active-set), shadowed scenarios use a bounded-tail
//!   (+4σ) finite-range query, and a simulator instance can be
//!   [`reset_world`](manet::sim::Simulator::reset_world) across runs without
//!   reallocating,
//! * [`aedb`] — the AEDB broadcast protocol and its tuning problem, with
//!   batched (candidate × network) evaluation and a quantized evaluation
//!   cache,
//! * [`mopt`] — multi-objective optimisation substrate (dominance, AGA
//!   archive, quality indicators, operators, statistics) and the
//!   [`Problem`](mopt::problem::Problem) trait with its batched
//!   [`evaluate_batch`](mopt::problem::Problem::evaluate_batch) entry
//!   point,
//! * [`moea`] — the NSGA-II, MOCell and CellDE baselines, feeding whole
//!   generations to the problem at once,
//! * [`island`] — the lockstep island-model optimizer: steady-state
//!   islands with bounded elite archives, ring migration and a
//!   deterministic epoch-merged anytime archive whose front improves
//!   monotonically and can be streamed mid-run,
//! * [`mls`] — AEDB-MLS, the paper's parallel multi-objective local search,
//! * [`fast99`] — the FAST99 global sensitivity analysis,
//! * [`serve`] — the resident simulation service: submit simulate or
//!   campaign jobs to a [`SimService`](serve::SimService), stream progress
//!   events, cancel, and replay archived campaigns across restarts,
//! * [`store`] — the pluggable [`Storage`](store::Storage) trait behind the
//!   service's campaign archive and the AEDB eval cache (disk and
//!   in-memory backends).
//!
//! ## Quickstart
//!
//! Evaluate AEDB configurations against the paper's fixed networks — one
//! at a time or as a batch (the batch fans the candidate × network
//! product over all cores and caches repeated configurations):
//!
//! ```
//! use aedb_repro::prelude::*;
//!
//! // Density 100 dev/km², 2 fixed networks (10 in the paper's protocol).
//! let problem = AedbProblem::paper(Scenario::quick(Density::D100, 2));
//!
//! let defaults = AedbParams::default_config().to_vec();
//! let eager = vec![0.0, 0.2, -70.0, 1.0, 50.0];
//! let batch = problem.evaluate_batch(&[defaults.clone(), eager]);
//!
//! // Minimisation form: [energy_dbm, -coverage, forwardings]; the 2 s
//! // broadcast-time constraint is a violation scalar.
//! assert_eq!(batch.len(), 2);
//! assert_eq!(batch[0], problem.evaluate(&defaults)); // cached, identical
//! assert!(batch.iter().all(|ev| ev.objectives.len() == 3 && ev.violation >= 0.0));
//! ```
//!
//! Scenarios themselves are declarative: a
//! [`WorldSpec`](manet::world::WorldSpec) describes a whole world — field,
//! radio, and any number of node groups with their own mobility, placement
//! and power class — and compiles into the simulator through one call:
//!
//! ```
//! use aedb_repro::prelude::*;
//! use manet::mobility::MobilityModel;
//!
//! // 40 random-walk handsets plus 4 stationary 10 dBm sinks.
//! let spec = WorldSpec::builder()
//!     .area(400.0, 400.0)
//!     .seed(7)
//!     .group(NodeGroup::new(40))
//!     .group(NodeGroup::new(4)
//!         .mobility(MobilityModel::Stationary)
//!         .tx_power_dbm(10.0))
//!     .build()
//!     .expect("valid spec");
//! let n = spec.n_nodes();
//! let report = Simulator::from_world(&spec, Flooding::new(n, (0.0, 0.1))).run();
//! assert_eq!(report.n_nodes, 44);
//! ```
//!
//! A full optimisation run (laptop-sized budget; the paper uses
//! 8 populations × 12 threads × 250 evaluations per density):
//!
//! ```no_run
//! use aedb_repro::prelude::*;
//!
//! let problem = AedbProblem::paper(Scenario::paper(Density::D100));
//! let mls = Mls::new(MlsConfig::quick(2, 2, 250));
//! let result = mls.optimize(&problem, 42);
//!
//! for c in &result.front {
//!     let p = AedbParams::from_vec(&c.params);
//!     println!("{:?} -> energy {:.1} dBm, coverage {:.1}, forwardings {:.1}",
//!              p, c.objectives[0], -c.objectives[1], c.objectives[2]);
//! }
//! ```

pub use aedb;
pub use aedb_mls as mls;
pub use fast99;
pub use island;
pub use manet;
pub use moea;
pub use mopt;
pub use serve;
pub use store;

/// One-stop imports for examples and quick experiments.
pub mod prelude {
    pub use aedb::params::AedbParams;
    pub use aedb::problem::{AedbOutcome, AedbProblem};
    pub use aedb::protocol::Aedb;
    pub use aedb::scenario::{DenseScenario, Density, Scenario};
    pub use aedb_mls::criteria::SearchCriteria;
    pub use aedb_mls::hybrid::{CellDeMls, CellDeMlsConfig};
    pub use aedb_mls::mls::{CriteriaChoice, Mls, MlsConfig};
    pub use fast99::{Fast99, Indices};
    pub use island::{AnytimeArchive, IslandConfig, IslandOptimizer};
    pub use manet::grid::SpatialGrid;
    pub use manet::protocol::{Flooding, Protocol, ProtocolApi, SourceOnly};
    pub use manet::sim::{DeliveryMode, SimReport, Simulator};
    pub use manet::world::{GroupPlacement, NodeGroup, WorldSpec};
    pub use moea::cellde::{CellDe, CellDeConfig};
    pub use moea::mocell::{MoCell, MoCellConfig};
    pub use moea::nsga2::{Nsga2, Nsga2Config};
    pub use mopt::algorithm::{MoAlgorithm, RunResult};
    pub use mopt::archive::AgaArchive;
    pub use mopt::indicators::{
        generalized_spread, hypervolume, inverted_generational_distance, Normalizer,
    };
    pub use mopt::problem::{Evaluation, Problem};
    pub use mopt::solution::{Bounds, Candidate};
    pub use mopt::stats::{boxplot, wilcoxon_rank_sum};
    pub use serve::campaign::{AlgorithmKind, CampaignBudget, CampaignSpec};
    pub use serve::{
        JobEvent, JobHandle, JobResult, JobSpec, Priority, ProtocolSpec, SimService, SimulateSpec,
    };
    pub use store::{DiskStorage, MemoryStorage, Storage};
}
