//! # manet — a discrete-event mobile ad-hoc network simulator
//!
//! This crate replaces the ns-3 substrate of the paper *"A Parallel
//! Multi-objective Local Search for AEDB Protocol Tuning"*. It simulates a
//! MANET of mobile devices in a rectangular field and exposes exactly the
//! machinery the AEDB broadcast protocol needs:
//!
//! * [`geometry`] — 2-D vectors and field geometry,
//! * [`mobility`] — the random-walk mobility model of the paper (speed and
//!   direction re-drawn every 20 s, reflecting walls) plus random-waypoint
//!   and static models for extensions,
//! * [`radio`] — dBm/mW arithmetic and path-loss models (log-distance with
//!   ns-3's default parameters, plus Friis and two-ray ground),
//! * [`events`] — a binary-heap event scheduler with stable ordering,
//! * [`neighbor`] — beacon-maintained one-hop neighbour tables carrying
//!   received signal strength,
//! * [`protocol`] — the [`Protocol`](protocol::Protocol) trait broadcast
//!   algorithms implement (AEDB lives in the `aedb` crate; a flooding
//!   baseline ships here),
//! * [`snapshot`] — flat structure-of-arrays kinematic snapshots of every
//!   node's current mobility segment, the cache-friendly data the delivery
//!   query filters candidates against,
//! * [`sweep`] — the batched candidate filter: fixed-width lane sweeps
//!   over the snapshot (SIMD-friendly, bit-identical to the scalar
//!   filter) plus per-cell event-horizon culling,
//! * [`sim`] — the simulator proper: beaconing, half-duplex radios,
//!   collision/capture modelling, timers and metric collection,
//! * [`world`] — the declarative scenario API: a validated
//!   [`WorldSpec`](world::WorldSpec) of heterogeneous node groups (per-group
//!   mobility, placement and transmit-power class) that compiles into the
//!   simulator through [`Simulator::from_world`](sim::Simulator::from_world),
//!   plus the shared scenario text grammar,
//! * [`metrics`] — per-broadcast metrics (coverage, energy, forwardings,
//!   broadcast time) that form the objectives of the tuning problem.
//!
//! The simulator is deterministic: the same [`sim::SimConfig`] and seed
//! always produce the same trajectory, which the paper relies on ("these 10
//! networks are always the same for evaluating every solution").

pub mod analysis;
pub mod events;
pub mod geometry;
pub mod grid;
pub mod metrics;
pub mod mobility;
pub mod neighbor;
pub mod protocol;
pub mod radio;
pub mod sim;
pub mod snapshot;
pub mod sweep;
pub mod trace;
pub mod world;

pub use geometry::Vec2;
pub use grid::GridStats;
pub use metrics::BroadcastMetrics;
pub use protocol::{Protocol, ProtocolApi};
pub use radio::{dbm_to_mw, mw_to_dbm, PathLoss, RadioConfig, SHADOW_TAIL_SIGMAS};
pub use sim::{DeliveryMode, NodeId, SimConfig, Simulator, GRID_BUCKET_SLACK_M};
pub use sweep::{DeliverySweep, SweepStats, SWEEP_WIDTH};
pub use world::{DenseScenario, GroupPlacement, NodeGroup, WorldSpec};
