//! The discrete-event simulator: beaconing, mobility, half-duplex radios
//! with a capture-based collision model, protocol timers and metric
//! collection.
//!
//! One [`Simulator`] run reproduces the paper's evaluation protocol
//! (Table II): nodes are placed uniformly in the field, move under random
//! walk and exchange beacons from `t = 0`; the broadcast starts at
//! `t = 30 s` and the simulation ends at `t = 40 s`.
//!
//! Scenarios are described declaratively by a
//! [`WorldSpec`](crate::world::WorldSpec) — possibly **heterogeneous**:
//! several node groups with their own mobility model, placement, speed
//! range and transmit-power class — and compile into the engine through
//! [`Simulator::from_world`]; the flat [`SimConfig`] is a single-group
//! adapter kept for the paper's homogeneous setups.
//!
//! ## Performance architecture — the incremental simulation core
//!
//! Delivery resolution — "who hears this frame?" — is the inner loop of
//! the whole reproduction (every candidate evaluation simulates 10
//! networks). The mechanisms that keep it fast:
//!
//! * a [`SpatialGrid`] over the field (cell = half the maximum radio
//!   range, see [`GRID_CELL_DIVISOR`]) limits each query to the cells
//!   overlapping the transmission's range disc. The grid stays exact
//!   through **event-driven cell transitions**: every node schedules a
//!   refresh at the earliest time it could cross its current cell
//!   boundary (`distance-to-edge / segment-speed`), and each refresh
//!   moves the node between cell lists in O(1). Total maintenance is
//!   proportional to actual cell crossings, not to `n` per time step.
//! * the **SoA kinematic snapshot** ([`crate::snapshot`]): flat per-node
//!   lanes of every mobility segment (origin, velocity/displacement,
//!   start, arrival), refreshed in O(1) from the same mobility-change
//!   events that re-anchor the grid schedule. The incremental delivery
//!   query walks grid cells *directly* into a filter over these lanes
//!   (no intermediate id list, no per-candidate `dyn Mobility` dispatch)
//!   and hands each survivor's exact position and squared distance
//!   straight to the outcome test, whose arithmetic is bit-identical to
//!   the naive oracle's per-receiver test.
//! * a **log-free receive test**: each transmission precomputes
//!   squared-distance decode thresholds (the dB-domain `rx ≥ sensitivity`
//!   comparison reproduced exactly at precompute time, see
//!   [`crate::radio::PathLoss::threshold_band_sq`]), so the unshadowed
//!   decode test is a `d²` compare against the snapshot lanes with no
//!   `log10` per candidate; the received power of a decodable candidate
//!   is deferred until a delivery or capture comparison needs its value.
//!   Interferers likewise carry precomputed floor/gating radii
//!   ([`crate::radio::INTERFERENCE_FLOOR_DB`], shadowing tail included),
//!   so provably irrelevant terms are skipped by a squared-distance
//!   compare — the sums are unchanged because skipped terms contribute
//!   exactly zero. Shadowed links keep the dB-domain test but share one
//!   shadowing draw per (transmitter, receiver) pair across a frame's
//!   outcome evaluations.
//! * a **spatialised active window**
//!   ([`crate::events::SpatialActiveWindow`]): in-flight frames are
//!   bucketed by grid cell, a query gathers only the frames near its
//!   receivers (O(nearby), not O(on air) per receiver) and replays them
//!   in transmission order, so interference sums stay bit-identical to
//!   the oracle's scan of every live frame.
//! * shadowed scenarios (`shadowing_sigma_db > 0`) do not fall back to
//!   the naive O(n) receiver scan: the per-link shadowing gain is
//!   truncated at `+4σ` ([`crate::radio::SHADOW_TAIL_SIGMAS`], with an
//!   asserted error budget), which gives every transmission the finite
//!   decode range [`crate::radio::RadioConfig::max_decode_range`] the grid
//!   needs.
//!
//! [`DeliveryMode::Naive`] is the oracle all of this is checked against:
//! every node is a candidate, and each one goes through one exact receive
//! test against a plain `Vec` of the frames still on the air. The
//! incremental path is a conservative pre-filter followed by the same
//! exact received-power test, so both produce **bit-identical**
//! [`SimReport`]s (asserted by `tests/determinism.rs` and the property
//! suite).
//! [`Simulator::set_delivery_mode`] selects the oracle for parity tests
//! and benchmarks. [`Simulator::set_query_profiling`] splits query wall
//! time into candidate-filter vs receive-outcome phases
//! ([`QueryProfile`]), the breakdown `exp_scale` records per
//! `BENCH_scale.json` row.
//!
//! The simulator is also **reusable**: [`Simulator::reset`] re-arms every
//! pre-allocated structure (event queue, active window, neighbour tables,
//! mobility states, delivery scratch buffers) for a new configuration
//! without per-run heap churn — batched evaluation runs thousands of
//! simulations per optimizer generation. [`Simulator::checkpoint`] and
//! [`Simulator::restore`] go one step further: the state before the
//! broadcast does not depend on the protocol, so a batch simulates that
//! prefix of each network once and restores it for every further
//! candidate (see [`Checkpoint`]). At the other end,
//! [`Simulator::run_broadcast`] stops a run as soon as the broadcast has
//! settled — no protocol timer and no data frame left in flight — since
//! the broadcast metrics cannot change after that.

use crate::events::{EventQueue, SpatialActiveWindow};
use crate::geometry::{Field, Vec2};
use crate::grid::{CellGeometry, GridStats, SpatialGrid};
use crate::metrics::{BroadcastMetrics, SimCounters};
use crate::mobility::{
    AnyMobility, Mobility, MobilityModel, RandomWalk, RandomWaypoint, Stationary,
};
use crate::neighbor::{NeighborEntry, NeighborTable};
use crate::protocol::{Protocol, ProtocolApi};
use crate::radio::{dbm_to_mw, RadioConfig, INTERFERENCE_FLOOR_DB};
use crate::snapshot::KinematicSnapshot;
use crate::sweep::{DeliverySweep, SweepStats};
use crate::world::{GroupPlacement, WorldSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Node identifier: an index in `0..n_nodes`.
pub type NodeId = usize;

/// Relative + absolute inflation of the query radius guarding against
/// floating-point rounding at the exact range boundary.
const RANGE_EPSILON: f64 = 1e-6;

/// Scheduling floor of the incremental grid refresh (metres): a node's
/// next refresh fires after `max(distance-to-cell-edge, SLACK) / speed`
/// seconds. The floor prevents a Zeno cascade of refreshes while a node
/// rides a cell boundary; in exchange a bucket may lag the node's true
/// cell by up to `SLACK` metres, which every incremental query compensates
/// by inflating its radius by the same constant. 0.1 m against ~139 m
/// cells costs nothing and keeps worst-case refresh rates at
/// `speed / SLACK` ≈ 20 events/s only while a node hugs an edge.
///
/// Public so external harnesses modelling the incremental query (the
/// criterion filter benches) inflate their radius by the *same* constant
/// instead of a hard-coded copy that could drift.
pub const GRID_BUCKET_SLACK_M: f64 = 0.1;

/// How the receivers of a frame are resolved. Both modes are
/// bit-identical in their results (the grid is a conservative pre-filter
/// before the exact received-power test); they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// The spatial grid, the batched snapshot sweep and the spatialised
    /// active window (the default; see the module docs).
    #[default]
    Incremental,
    /// Exact O(n) scan of every node per transmission against every frame
    /// on the air — the oracle for parity tests and benchmarks.
    Naive,
}

/// Complete flat configuration of one *homogeneous* simulation run — the
/// paper's shape: one mobility model, one speed range, one power class.
///
/// Internally the engine speaks the declarative
/// [`WorldSpec`](crate::world::WorldSpec); `SimConfig` is a thin adapter
/// over it ([`SimConfig::to_world`] lifts it into a single-group spec with
/// identical RNG draw order, so the conversion is bit-exact).
/// Heterogeneous scenarios — several node groups with their own mobility,
/// placement and transmit-power class — are built with
/// [`WorldSpec::builder`](crate::world::WorldSpec::builder) and run through
/// [`Simulator::from_world`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The simulation field.
    pub field: Field,
    /// Number of devices.
    pub n_nodes: usize,
    /// Node speed range (m/s); Table II: `[0, 2]`.
    pub speed_range: (f64, f64),
    /// Mobility model; Table II: random walk, re-draw every 20 s.
    pub mobility: MobilityModel,
    /// Physical layer.
    pub radio: RadioConfig,
    /// Beacon (hello) period in seconds; the paper's AEDB uses 1 s.
    pub beacon_interval: f64,
    /// Neighbour entries older than this many seconds are considered gone.
    pub neighbor_expiry: f64,
    /// Time the broadcast starts (warm-up before it); Table II: 30 s.
    pub broadcast_time: f64,
    /// End of the simulation; Table II: 40 s.
    pub end_time: f64,
    /// The broadcasting source node.
    pub source: NodeId,
    /// RNG seed — fixing it fixes the *network*: placement, mobility and
    /// beacon phases are all derived from it.
    pub seed: u64,
    /// How initial node positions are chosen.
    pub placement: Placement,
}

/// Initial node placement.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Uniformly random in the field (the paper's setup).
    UniformRandom,
    /// Explicit positions (deterministic topologies for tests/examples);
    /// must provide exactly `n_nodes` points inside the field.
    Explicit(Vec<Vec2>),
}

impl SimConfig {
    /// The paper's scenario (Table II) for a given node count and seed.
    /// Node counts for the three densities on the 500 m × 500 m field:
    /// 25 (100 dev/km²), 50 (200 dev/km²), 75 (300 dev/km²).
    pub fn paper(n_nodes: usize, seed: u64) -> Self {
        Self {
            field: Field::paper(),
            n_nodes,
            speed_range: (0.0, 2.0),
            mobility: MobilityModel::RandomWalk {
                change_interval: 20.0,
            },
            radio: RadioConfig::paper(),
            beacon_interval: 1.0,
            neighbor_expiry: 2.5,
            broadcast_time: 30.0,
            end_time: 40.0,
            source: 0,
            seed,
            placement: Placement::UniformRandom,
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Metrics of the broadcast dissemination.
    pub broadcast: BroadcastMetrics,
    /// Network-wide counters.
    pub counters: SimCounters,
    /// Number of nodes simulated.
    pub n_nodes: usize,
}

/// What kind of frame a transmission carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Beacon,
    Data,
}

/// An on-air transmission (positions frozen at its start).
#[derive(Debug, Clone, Copy)]
struct Transmission {
    sender: NodeId,
    pos: Vec2,
    tx_dbm: f64,
    start: f64,
    end: f64,
    kind: FrameKind,
    /// Squared interference gating radius: beyond this distance from
    /// `pos`, this frame's received power is provably below the
    /// interference floor (`sensitivity − `[`INTERFERENCE_FLOOR_DB`], with
    /// the bounded shadowing tail and an epsilon inflation against
    /// floating-point rounding), so the optimised delivery path skips the
    /// `log10` for it without changing any interference sum. Precomputed
    /// once per transmission.
    gate_r2: f64,
    /// Log-free decode band (`lo²`, `hi²`) of this frame's power against
    /// the receiver sensitivity ([`PathLoss::threshold_band_sq`]): in the
    /// unshadowed case the receive test becomes a squared-distance compare
    /// against these bounds, with only the hair-thin in-band sliver
    /// falling back to the exact dB comparison. Meaningless under
    /// shadowing (the per-link draw shifts the threshold), where the fused
    /// path keeps the dB-domain test.
    ///
    /// [`PathLoss::threshold_band_sq`]: crate::radio::PathLoss::threshold_band_sq
    decode_lo_r2: f64,
    decode_hi_r2: f64,
    /// Upper bound of the log-free *interference-floor* band: beyond this
    /// squared distance this frame's unshadowed received power is provably
    /// below `sensitivity − `[`INTERFERENCE_FLOOR_DB`], so the fused
    /// interference loop skips its `log10` — exactly the terms the
    /// oracle's loop evaluates and then discards.
    floor_hi_r2: f64,
}

/// A queued event. Node ids are stored as `u32` and a transmission as its
/// [`InFlight`] slot, which keeps every queue entry at 32 bytes.
#[derive(Debug, Clone, Copy)]
enum Event {
    Beacon(u32),
    MobilityChange(u32),
    /// End of the transmission in this [`InFlight`] slot.
    TxEnd(u32),
    Timer {
        node: u32,
        tag: u64,
    },
    StartBroadcast(u32),
    /// Earliest possible cell crossing of `node`; stale when `gen` no
    /// longer matches (the node's mobility segment changed since).
    GridRefresh {
        node: u32,
        gen: u32,
    },
}

// Every queued event is an `Event` plus its time and sequence number, so an
// inline payload would grow the whole queue (and every checkpoint of it).
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// The transmissions on the air, each in the slot its [`Event::TxEnd`]
/// carries: the queue holds a 4-byte slot instead of the whole
/// [`Transmission`]. Freed slots are reused last-in first-out, so the slab
/// never grows past the most frames ever on the air at once.
#[derive(Debug, Clone, Default)]
struct InFlight {
    slots: Vec<Transmission>,
    free: Vec<u32>,
}

impl InFlight {
    /// Stores `tx` and returns its slot.
    fn insert(&mut self, tx: Transmission) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = tx;
                slot
            }
            None => {
                self.slots.push(tx);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Removes the transmission in `slot`, freeing the slot.
    fn take(&mut self, slot: u32) -> Transmission {
        self.free.push(slot);
        self.slots[slot as usize]
    }

    /// Number of transmissions stored.
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

impl FrameKind {
    /// [`SpatialActiveWindow`] lane of this duration class.
    fn lane(self) -> usize {
        match self {
            FrameKind::Beacon => 0,
            FrameKind::Data => 1,
        }
    }
}

/// Wall-time split of the delivery query, accumulated per
/// [`compute_deliveries`](World::compute_deliveries) call when profiling
/// is enabled ([`Simulator::set_query_profiling`]). The two phases are the
/// ones the query-side perf work optimises independently: candidate
/// *filtering* (grid walk + position filter + ordering) and the exact
/// per-receiver *outcome* tests (propagation, half-duplex, capture).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryProfile {
    /// Seconds spent gathering, filtering and ordering candidates.
    pub filter_s: f64,
    /// Seconds spent in exact receive-outcome tests (incl. interference).
    pub outcome_s: f64,
    /// Seconds of `outcome_s` spent resolving interference and capture
    /// (the per-decodable-receiver frame loop) — the phase the spatialised
    /// active window optimises. Only the incremental path is instrumented
    /// at this granularity; the naive oracle's split stays filter/outcome
    /// only.
    pub interference_s: f64,
}

/// Simulator state visible to protocols through [`ProtocolApi`].
struct World {
    /// The compiled scenario — the engine speaks [`WorldSpec`] natively;
    /// [`SimConfig`] is a single-group adapter over it
    /// ([`SimConfig::to_world`]).
    spec: WorldSpec,
    /// Total node count (cached sum over the spec's groups).
    n_nodes: usize,
    /// Per-node transmit-power class (dBm): the group's override or the
    /// radio default — what beacons (and default-power data frames) are
    /// sent at.
    node_tx: Vec<f64>,
    /// Worst-case node speed across all groups (cached), the bound behind
    /// the half-duplex reach.
    max_speed: f64,
    queue: EventQueue<Event>,
    /// The payloads of the queued [`Event::TxEnd`]s.
    in_flight: InFlight,
    mobility: Vec<AnyMobility>,
    tables: Vec<NeighborTable>,
    rng: SmallRng,
    /// Transmissions that can still interfere with an in-flight frame, in
    /// transmission order: the naive oracle scans all of them. Each query
    /// first drops the frames that ended at or before its start.
    live: Vec<Transmission>,
    /// The same live transmissions bucketed by grid cell
    /// ([`SpatialActiveWindow`]): the incremental path gathers only the
    /// frames *near* a query's receivers, in O(nearby) instead of
    /// O(on air), then replays them in transmission order so every
    /// interference sum stays bit-identical to the oracle's scan of
    /// `live`. Pruned at the same thresholds as `live`.
    frames: SpatialActiveWindow<Transmission>,
    metrics: BroadcastMetrics,
    counters: SimCounters,
    broadcast_started: bool,
    /// Queued events that will call the protocol: protocol timers plus
    /// the `TxEnd`s of data frames in flight. Once the broadcast has
    /// started and this is zero, the broadcast has settled (see
    /// [`Simulator::run_broadcast`]). Always zero before the broadcast,
    /// which is the only time a checkpoint can be taken.
    protocol_pending: usize,
    /// Spatial index over node positions (see module docs).
    grid: SpatialGrid,
    /// Flat SoA copy of every node's current mobility segment — the
    /// cache-friendly lanes the incremental delivery query evaluates
    /// exact positions from (bit-identical to the `mobility` structs).
    snapshot: KinematicSnapshot,
    /// Per-node refresh generation; bumped whenever a node's mobility
    /// segment changes so in-flight [`Event::GridRefresh`]s go stale.
    refresh_gen: Vec<u32>,
    /// Live (non-stale) grid-refresh events handled so far.
    refresh_events: u64,
    /// The incremental delivery pipeline's mutable state — sweep, scratch
    /// buffers, shadow cache and profile (see [`QueryScratch`]).
    scratch: QueryScratch,
    /// Scratch: successful deliveries of the current frame.
    delivery_scratch: Vec<(NodeId, f64)>,
    /// Largest (ε-inflated) interference gating radius of any transmission
    /// since reset — a monotone bound on how far any live frame can
    /// matter, used to size the per-query frame gather.
    max_gate_r: f64,
    /// How far a receiver can drift from one of its *own* frames during
    /// the longest possible frame overlap — the gather disc is widened by
    /// this so half-duplex detection can never miss a receiver's own
    /// transmission.
    hd_reach: f64,
    /// `dbm_to_mw(capture_db)`, hoisted out of the per-candidate outcome
    /// test (bit-identical: same input, same `powf`).
    capture_ratio_mw: f64,
    /// Which delivery path resolves receivers (see [`DeliveryMode`]).
    mode: DeliveryMode,
    /// Whether delivery queries sample wall time into the profile.
    profile_on: bool,
}

/// The mutable state of the snapshot delivery pipeline: the batched
/// candidate sweep, the query scratch buffers, the per-receiver shadowing
/// cache and the accumulated [`QueryProfile`]. Every field is either a
/// pure cache of a deterministic function (shadow draws, the
/// decode-radius memo) or query-local scratch.
#[derive(Debug)]
struct QueryScratch {
    /// The batched candidate filter (fixed-width lane sweeps over the
    /// snapshot plus the per-cell event-horizon cache) driving the
    /// incremental delivery query — see [`crate::sweep`].
    sweep: DeliverySweep,
    /// Scratch: `(id, exact position, squared distance)` of candidates
    /// surviving the snapshot filter — the position and distance feed
    /// straight into the outcome test.
    filtered: Vec<(NodeId, Vec2, f64)>,
    /// One-entry memo of [`decode_radius`](QueryScratch::decode_radius)
    /// keyed by the transmit power's bit pattern: the radius costs a
    /// `powf` per call, every delivery query needs it, and in practice
    /// transmissions cycle through a handful of power classes.
    decode_radius_memo: (u64, f64),
    /// Scratch: candidates that passed the (log-free) decode test, with
    /// their received power (NaN = deferred: computed only if the capture
    /// comparison or a delivery actually needs it).
    decodable: Vec<(NodeId, Vec2, f64, f64)>,
    /// Scratch: `(seq, frame)` gathered from the spatial window for the
    /// current query, sorted by `seq` to replay insertion order.
    frames: Vec<(u64, Transmission)>,
    /// Per-node cache of `link_shadowing_db(·, sender, receiver)` draws
    /// for the receiver currently under evaluation: one draw per
    /// (transmitter, receiver) pair is shared across all of that
    /// transmitter's overlapping frames in the query. Keyed by a
    /// monotonically bumped epoch so invalidation is O(1). The draw is a
    /// pure hash of (σ, seed, sender, receiver).
    shadow_val: Vec<f64>,
    shadow_stamp: Vec<u64>,
    shadow_epoch: u64,
    /// Accumulated query-phase timings (zeroed on reset).
    profile: QueryProfile,
}

impl Default for QueryScratch {
    fn default() -> Self {
        QueryScratch {
            sweep: DeliverySweep::new(),
            filtered: Vec::new(),
            // `u64::MAX` is a NaN bit pattern, so a real power never
            // collides with the initial sentinel.
            decode_radius_memo: (u64::MAX, 0.0),
            decodable: Vec::new(),
            frames: Vec::new(),
            shadow_val: Vec::new(),
            shadow_stamp: Vec::new(),
            shadow_epoch: 0,
            profile: QueryProfile::default(),
        }
    }
}

impl QueryScratch {
    /// Re-arms the scratch for a world of `n_cells` grid cells and
    /// `n_nodes` nodes, keeping allocations.
    fn reset(&mut self, n_cells: usize, n_nodes: usize) {
        self.sweep.reset(n_cells, n_nodes);
        self.filtered.clear();
        self.decodable.clear();
        self.frames.clear();
        self.shadow_val.clear();
        self.shadow_val.resize(n_nodes, 0.0);
        self.shadow_stamp.clear();
        self.shadow_stamp.resize(n_nodes, 0);
        self.shadow_epoch = 0;
        self.decode_radius_memo = (u64::MAX, 0.0);
        self.profile = QueryProfile::default();
    }

    /// The finite radius within which `tx` can possibly be decoded:
    /// the bounded-tail decode range (shadowing gain truncated at `+4σ`)
    /// inflated against floating-point rounding at the exact boundary.
    fn decode_radius(&mut self, radio: &RadioConfig, tx: &Transmission) -> f64 {
        let bits = tx.tx_dbm.to_bits();
        if self.decode_radius_memo.0 == bits {
            return self.decode_radius_memo.1;
        }
        let r = radio.max_decode_range(tx.tx_dbm) * (1.0 + RANGE_EPSILON) + RANGE_EPSILON;
        self.decode_radius_memo = (bits, r);
        r
    }
}

/// Outcome of the exact per-receiver delivery test.
enum Reception {
    OutOfRange,
    HalfDuplex,
    Collided,
    Delivered(f64),
}

impl World {
    fn empty(spec: WorldSpec) -> Self {
        let max_tx = spec.max_tx_dbm();
        let grid = SpatialGrid::new(spec.field, grid_cell(&spec.radio, spec.field, max_tx));
        let frames = SpatialActiveWindow::new(
            CellGeometry::new(spec.field, frame_cell(&spec.radio, spec.field, max_tx)),
            2,
        );
        let snapshot = KinematicSnapshot::new(spec.field);
        let metrics = BroadcastMetrics::new(spec.source, spec.broadcast_time);
        let mut world = World {
            spec,
            n_nodes: 0,
            node_tx: Vec::new(),
            max_speed: 0.0,
            queue: EventQueue::new(),
            in_flight: InFlight::default(),
            mobility: Vec::new(),
            tables: Vec::new(),
            rng: SmallRng::seed_from_u64(0),
            live: Vec::new(),
            frames,
            metrics,
            counters: SimCounters::default(),
            broadcast_started: false,
            protocol_pending: 0,
            grid,
            snapshot,
            refresh_gen: Vec::new(),
            refresh_events: 0,
            scratch: QueryScratch::default(),
            delivery_scratch: Vec::new(),
            max_gate_r: 0.0,
            hd_reach: 0.0,
            capture_ratio_mw: 0.0,
            mode: DeliveryMode::default(),
            profile_on: false,
        };
        let spec = world.spec.clone();
        world.reset(spec);
        world
    }

    /// Re-arms the world for `spec`, reusing every allocation: the event
    /// queue, mobility states, neighbour tables, the live-frame windows,
    /// the spatial grid and the scratch buffers all keep their capacity.
    fn reset(&mut self, spec: WorldSpec) {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        let n_nodes = spec.n_nodes();
        // Makes every `node as u32` of an `Event` lossless.
        assert!(
            u32::try_from(n_nodes).is_ok(),
            "{n_nodes} nodes: events store node ids as u32"
        );
        let max_tx = spec.max_tx_dbm();

        let cell = grid_cell(&spec.radio, spec.field, max_tx);
        if spec.field != self.spec.field || (cell - self.grid.cell_size()).abs() > 1e-12 {
            self.grid = SpatialGrid::new(spec.field, cell);
        }
        self.grid.reset_stats();
        let fcell = frame_cell(&spec.radio, spec.field, max_tx);
        let fgeom = CellGeometry::new(spec.field, fcell);
        if fgeom != self.frames.geometry() {
            // No frames are in flight at reset, so this is a pure
            // re-decomposition (the migration path is still exercised by
            // the events-module tests).
            self.frames.reset_geometry(fgeom);
        }
        self.refresh_events = 0;

        self.queue.clear();
        self.in_flight.clear();
        self.rng = SmallRng::seed_from_u64(spec.seed);
        self.mobility.clear();
        self.node_tx.clear();
        let mut node = 0usize;
        for group in &spec.groups {
            let tx = group.tx_power_dbm.unwrap_or(spec.radio.default_tx_dbm);
            for member in 0..group.n {
                let start = match &group.placement {
                    GroupPlacement::Uniform => Vec2::new(
                        self.rng.gen_range(0.0..spec.field.width),
                        self.rng.gen_range(0.0..spec.field.height),
                    ),
                    GroupPlacement::Rect { min, max } => Vec2::new(
                        self.rng.gen_range(min.x..max.x),
                        self.rng.gen_range(min.y..max.y),
                    ),
                    GroupPlacement::Explicit(pts) => pts[member],
                };
                let m = match group.mobility {
                    MobilityModel::RandomWalk { change_interval } => {
                        AnyMobility::Walk(RandomWalk::new(
                            spec.field,
                            start,
                            group.speed_range,
                            change_interval,
                            0.0,
                            &mut self.rng,
                        ))
                    }
                    MobilityModel::RandomWaypoint { pause } => {
                        AnyMobility::Waypoint(RandomWaypoint::new(
                            spec.field,
                            start,
                            (group.speed_range.0.max(0.1), group.speed_range.1.max(0.2)),
                            pause,
                            0.0,
                            &mut self.rng,
                        ))
                    }
                    MobilityModel::Stationary => AnyMobility::Still(Stationary { pos: start }),
                };
                if m.next_change().is_finite() {
                    self.queue
                        .schedule(m.next_change(), Event::MobilityChange(node as u32));
                }
                self.mobility.push(m);
                self.node_tx.push(tx);
                // Desynchronised beacon phases.
                let offset = self.rng.gen_range(0.0..spec.beacon_interval);
                self.queue.schedule(offset, Event::Beacon(node as u32));
                node += 1;
            }
        }
        self.queue.schedule(
            spec.broadcast_time,
            Event::StartBroadcast(spec.source as u32),
        );

        self.clear_tables(n_nodes);

        self.live.clear();
        self.frames.clear();
        self.metrics.reset(spec.source, spec.broadcast_time);
        self.counters = SimCounters::default();
        self.broadcast_started = false;
        self.protocol_pending = 0;
        self.delivery_scratch.clear();
        self.max_gate_r = 0.0;
        // Worst-case drift between a receiver and its own frozen frame
        // position over any possible frame overlap (two full on-air
        // durations), plus a metre of slack — see `hd_reach`'s field docs.
        let max_duration = spec.radio.beacon_duration.max(spec.radio.data_duration);
        self.capture_ratio_mw = dbm_to_mw(spec.radio.capture_db);
        self.max_speed = spec.max_speed();
        self.n_nodes = n_nodes;
        self.spec = spec;
        self.hd_reach = self.max_speed * 2.0 * max_duration + 1.0;

        // Initial placement of the spatial index and of the SoA kinematic
        // snapshot, then one cell-crossing refresh per node. Grid
        // maintenance is mode-independent — it depends only on mobility
        // and cell geometry — so both DeliveryModes process an identical
        // event stream and parity comparisons are exact.
        let n = self.n_nodes;
        let mobility = &self.mobility;
        self.grid.rebuild(n, |i| mobility[i].position(0.0));
        self.snapshot
            .rebuild(self.spec.field, mobility.iter().map(|m| m.segment()));
        self.reset_query_scratch();
        self.refresh_gen.clear();
        self.refresh_gen.resize(n, 0);
        for node in 0..n {
            self.schedule_grid_refresh(node);
        }
    }

    /// Empties every neighbour table and sizes the set to `n_nodes`,
    /// keeping the tables' allocations.
    fn clear_tables(&mut self, n_nodes: usize) {
        self.tables.truncate(n_nodes);
        for t in &mut self.tables {
            t.clear();
        }
        self.tables.resize_with(n_nodes, NeighborTable::new);
    }

    /// Re-arms the delivery pipeline's [`QueryScratch`] for the current
    /// grid and node count. This drops every cached sweep event horizon
    /// along with the accumulated [`QueryProfile`] and [`SweepStats`].
    fn reset_query_scratch(&mut self) {
        self.scratch
            .reset(self.grid.geometry().n_cells(), self.n_nodes);
    }

    /// Schedules `node`'s next grid refresh at the earliest time it could
    /// leave its current cell: `max(distance-to-edge, slack) / speed`.
    /// Over-reporting speed or under-reporting distance only fires the
    /// refresh early, so the bucket can never lag its node by more than
    /// [`GRID_BUCKET_SLACK_M`] metres.
    fn schedule_grid_refresh(&mut self, node: NodeId) {
        let now = self.queue.now();
        let speed = self.mobility[node].speed(now);
        if speed <= 0.0 {
            return; // parked until the next mobility change re-anchors it
        }
        let p = self.mobility[node].position(now);
        let dt = self.grid.boundary_distance(p).max(GRID_BUCKET_SLACK_M) / speed;
        if !dt.is_finite() {
            return;
        }
        let gen = self.refresh_gen[node];
        self.queue.schedule(
            now + dt,
            Event::GridRefresh {
                node: node as u32,
                gen,
            },
        );
    }

    /// Handles a [`Event::GridRefresh`]: ignores it when stale, otherwise
    /// applies the O(1) bucket move and schedules the next refresh.
    fn handle_grid_refresh(&mut self, node: NodeId, gen: u32) {
        if self.refresh_gen[node] != gen {
            return;
        }
        self.refresh_events += 1;
        let p = self.mobility[node].position(self.queue.now());
        if self.grid.update_node(node, p) {
            // the node entered a new cell: its event-horizon bound no
            // longer covers every member
            let cell = self.grid.node_cell(node);
            self.scratch.sweep.invalidate_cell(cell);
        }
        self.schedule_grid_refresh(node);
    }

    /// Re-anchors `node`'s refresh schedule after its mobility segment
    /// changed: refreshes the node's SoA snapshot lanes in O(1) (the
    /// snapshot must always mirror the mobility structs), stale-marks any
    /// in-flight refresh, re-buckets the node at its current (exact)
    /// position and schedules against the new speed.
    fn reanchor_grid_refresh(&mut self, node: NodeId) {
        self.snapshot.set(node, self.mobility[node].segment());
        self.refresh_gen[node] = self.refresh_gen[node].wrapping_add(1);
        let p = self.mobility[node].position(self.queue.now());
        self.grid.update_node(node, p);
        // the node's speed/heading (and possibly cell) changed: the
        // cached event horizon of the cell it now occupies is stale
        let cell = self.grid.node_cell(node);
        self.scratch.sweep.invalidate_cell(cell);
        self.schedule_grid_refresh(node);
    }

    fn position(&self, node: NodeId, t: f64) -> Vec2 {
        self.mobility[node].position(t)
    }

    /// Whether the broadcast has settled: it has started and no event that
    /// could call the protocol is queued (see [`Simulator::run_broadcast`]).
    fn settled(&self) -> bool {
        self.broadcast_started && self.protocol_pending == 0
    }

    fn start_transmission(&mut self, node: NodeId, tx_dbm: f64, kind: FrameKind) {
        let now = self.queue.now();
        let duration = match kind {
            FrameKind::Beacon => self.spec.radio.beacon_duration,
            FrameKind::Data => self.spec.radio.data_duration,
        };
        // Amortise the interference gate over every query this frame will
        // ever appear in: one `range_for` here instead of a `log10` per
        // (candidate × active frame) in the delivery loop.
        let radio = &self.spec.radio;
        let gate = radio.interference_floor_range(tx_dbm) * (1.0 + RANGE_EPSILON) + RANGE_EPSILON;
        // Log-free decode/floor bands (exact-threshold distances with the
        // dB-domain comparison reproduced at precompute time): three
        // `powf`s here buy away a `log10` per candidate×frame pair in the
        // unshadowed receive tests below.
        let (decode_lo_r2, decode_hi_r2) = radio
            .path_loss
            .threshold_band_sq(tx_dbm, radio.rx_sensitivity_dbm);
        let (_, floor_hi_r2) = radio
            .path_loss
            .threshold_band_sq(tx_dbm, radio.rx_sensitivity_dbm - INTERFERENCE_FLOOR_DB);
        let tx = Transmission {
            sender: node,
            pos: self.snapshot.position(node, now),
            tx_dbm,
            start: now,
            end: now + duration,
            kind,
            gate_r2: gate * gate,
            decode_lo_r2,
            decode_hi_r2,
            floor_hi_r2,
        };
        match kind {
            FrameKind::Beacon => self.counters.beacons_sent += 1,
            FrameKind::Data => {
                self.counters.data_sent += 1;
                self.protocol_pending += 1;
                self.metrics.record_transmission(node, tx_dbm);
            }
        }
        self.max_gate_r = self.max_gate_r.max(gate);
        self.live.push(tx);
        self.frames.insert(kind.lane(), tx.end, tx.pos, tx);
        let slot = self.in_flight.insert(tx);
        self.queue.schedule(tx.end, Event::TxEnd(slot));
    }

    /// The naive oracle's exact delivery test for receiver `r` under
    /// propagation, half-duplex and capture rules, scanning every live
    /// frame. [`compute_deliveries_snapshot`](World::compute_deliveries_snapshot)
    /// reproduces its arithmetic bit for bit.
    fn receive_outcome(&self, tx: &Transmission, r: NodeId) -> Reception {
        let pl = self.spec.radio.path_loss;
        let sens = self.spec.radio.rx_sensitivity_dbm;
        let capture_ratio = dbm_to_mw(self.spec.radio.capture_db);
        let sigma = self.spec.radio.shadowing_sigma_db;
        let seed = self.spec.seed;
        // Receiver position sampled at frame end (= now): frames last
        // milliseconds while nodes move at ≤ 2 m/s, so start-vs-end
        // sampling differs by millimetres — but `now` is always ahead
        // of any mobility-segment origin, keeping queries monotone.
        let rpos = self.position(r, tx.end);
        let rx_dbm = pl.rx_dbm(tx.tx_dbm, tx.pos.distance(rpos))
            + crate::radio::link_shadowing_db(sigma, seed, tx.sender, r);
        if rx_dbm < sens {
            return Reception::OutOfRange;
        }
        // Half duplex: a node that transmitted during the frame loses it.
        let mut interference_mw = 0.0;
        for o in &self.live {
            if o.start >= tx.end || o.end <= tx.start {
                continue; // no overlap
            }
            if o.sender == tx.sender && o.start == tx.start && o.end == tx.end {
                continue; // the frame itself (copy in the log)
            }
            if o.sender == r {
                return Reception::HalfDuplex;
            }
            let o_rx = pl.rx_dbm(o.tx_dbm, o.pos.distance(rpos))
                + crate::radio::link_shadowing_db(sigma, seed, o.sender, r);
            if o_rx >= sens - INTERFERENCE_FLOOR_DB {
                // Only energy near the sensitivity floor matters.
                interference_mw += dbm_to_mw(o_rx);
            }
        }
        if interference_mw > 0.0 && dbm_to_mw(rx_dbm) < capture_ratio * interference_mw {
            return Reception::Collided;
        }
        Reception::Delivered(rx_dbm)
    }

    fn record_loss(&mut self, tx: &Transmission, outcome: &Reception) {
        match outcome {
            Reception::HalfDuplex => {
                self.counters.half_duplex_losses += 1;
                if tx.kind == FrameKind::Data {
                    self.metrics.collisions += 1;
                }
            }
            Reception::Collided => {
                self.counters.collision_losses += 1;
                if tx.kind == FrameKind::Data {
                    self.metrics.collisions += 1;
                }
            }
            Reception::OutOfRange | Reception::Delivered(_) => {}
        }
    }

    /// Folds a query's loss tallies (from
    /// [`compute_deliveries_snapshot`](World::compute_deliveries_snapshot))
    /// into the world counters — the counting equivalent of per-receiver
    /// [`record_loss`](World::record_loss) calls: u64 sums, so applying
    /// them per receiver or in bulk is identical.
    fn apply_losses(&mut self, tx: &Transmission, half_duplex: u64, collided: u64) {
        self.counters.half_duplex_losses += half_duplex;
        self.counters.collision_losses += collided;
        if tx.kind == FrameKind::Data {
            self.metrics.collisions += (half_duplex + collided) as usize;
        }
    }

    /// Successful receivers of `tx` under propagation, half-duplex and
    /// capture rules, appended to `out` as `(node, rx_dbm)` in ascending
    /// node order. Both [`DeliveryMode`]s run the same exact per-receiver
    /// arithmetic, so they produce identical results.
    fn compute_deliveries(&mut self, tx: &Transmission, out: &mut Vec<(NodeId, f64)>) {
        let t_start = self.profile_on.then(Instant::now);
        // Transmissions that ended at or before this frame's start can no
        // longer overlap it — nor any future frame, since simulation time
        // is monotone. Both views of the air are pruned at the same
        // threshold.
        self.live.retain(|o| o.end > tx.start);
        self.frames.prune(tx.start);
        match self.mode {
            DeliveryMode::Incremental => self.compute_deliveries_snapshot(tx, out, t_start),
            DeliveryMode::Naive => self.compute_deliveries_naive(tx, out, t_start),
        }
    }

    /// The optimised delivery query (the default [`DeliveryMode`]):
    /// iterates the grid cells overlapping the decode disc directly into a
    /// filter over the SoA kinematic snapshot — no intermediate id list,
    /// no per-candidate `dyn Mobility` dispatch — then resolves outcomes
    /// in two passes whose arithmetic is bit-identical to the oracle's
    /// per-receiver test ([`receive_outcome`](World::receive_outcome)):
    ///
    /// 1. **decode**: unshadowed, the `rx ≥ sensitivity` comparison is a
    ///    squared-distance compare against the frame's precomputed
    ///    [`threshold band`](crate::radio::PathLoss::threshold_band_sq) —
    ///    no `log10`; the received power of a decodable candidate is
    ///    deferred until a delivery (or capture comparison) actually needs
    ///    it. Shadowed, the dB-domain test runs as before with the
    ///    per-link draw.
    /// 2. **interference**: live frames near this query are gathered
    ///    *once* from the [`SpatialActiveWindow`] (O(nearby), not
    ///    O(on air)) and replayed per decodable receiver in transmission
    ///    order, so every interference sum accumulates in exactly the
    ///    oracle's order. Frames beyond their own floor/gating radius
    ///    are skipped by a squared-distance compare — terms the oracle's
    ///    loop evaluates and then discards, so the sums cannot differ.
    ///
    /// Dropping candidates beyond the decode radius cannot change any
    /// outcome (they can neither decode nor register a loss). The gather
    /// disc covers every frame that could matter to any candidate: the
    /// decode radius (bounding candidate positions) plus the largest live
    /// gating radius (bounding interference reach) and the half-duplex
    /// drift bound (bounding how far a receiver's own frozen frame can sit
    /// from its current position).
    fn compute_deliveries_snapshot(
        &mut self,
        tx: &Transmission,
        out: &mut Vec<(NodeId, f64)>,
        t_start: Option<Instant>,
    ) {
        let s = &mut self.scratch;
        let radio = &self.spec.radio;
        let extra_reach = self.max_gate_r.max(self.hd_reach);
        let profile_on = t_start.is_some();
        let mut filtered = std::mem::take(&mut s.filtered);
        filtered.clear();
        // Buckets are exact up to the refresh slack; stored positions may
        // be older than the bucket, so walk whole cells (inflated by the
        // slack) and filter on *current* exact positions from the lanes —
        // batched into fixed-width chunk kernels by the sweep, which also
        // skips cells its event-horizon cache proves out of decode reach
        // (see `crate::sweep` for the bit-exactness argument).
        let r = s.decode_radius(radio, tx);
        let t = tx.end;
        s.sweep.filter_into(
            &self.grid,
            &self.snapshot,
            tx.pos,
            t,
            r,
            GRID_BUCKET_SLACK_M,
            &mut filtered,
        );
        // Ascending node order: delivery order feeds protocol callbacks
        // (and their RNG draws), so every mode must match the naive scan.
        // The sweep evaluates its gathered ids in sorted order, so the
        // survivors arrive exactly as the historical post-filter sort
        // left them.
        debug_assert!(filtered.windows(2).all(|w| w[0].0 < w[1].0));
        let t_mid = profile_on.then(Instant::now);

        // Frames that can matter to *any* candidate of this query, in
        // transmission order (sorting by sequence number replays the
        // order the oracle scans `live` in).
        let mut frames = std::mem::take(&mut s.frames);
        frames.clear();
        self.frames
            .gather_into(tx.pos, r + extra_reach, &mut frames);
        frames.sort_unstable_by_key(|&(seq, _)| seq);

        let pl = radio.path_loss;
        let sens = radio.rx_sensitivity_dbm;
        let sigma = radio.shadowing_sigma_db;
        let seed = self.spec.seed;

        // Pass 1 — decode. `rx = NaN` marks a deferred received power (the
        // certain-decode fast path never evaluated the `log10`).
        let mut decodable = std::mem::take(&mut s.decodable);
        decodable.clear();
        if sigma <= 0.0 {
            for &(i, p, d2) in &filtered {
                if i == tx.sender {
                    continue;
                }
                if d2 <= tx.decode_lo_r2 {
                    decodable.push((i, p, d2, f64::NAN));
                } else if d2 > tx.decode_hi_r2 {
                    // provably below sensitivity: the oracle's
                    // OutOfRange branch, which records nothing
                } else {
                    // in the hair-thin threshold band: exact dB test
                    let rx = pl.rx_dbm(tx.tx_dbm, d2.sqrt());
                    if rx >= sens {
                        decodable.push((i, p, d2, rx));
                    }
                }
            }
        } else {
            for &(i, p, d2) in &filtered {
                if i == tx.sender {
                    continue;
                }
                let rx = pl.rx_dbm(tx.tx_dbm, d2.sqrt())
                    + crate::radio::link_shadowing_db(sigma, seed, tx.sender, i);
                if rx >= sens {
                    decodable.push((i, p, d2, rx));
                }
            }
        }

        // Pass 2 — interference + capture per decodable receiver.
        let t_int = profile_on.then(Instant::now);
        let floor = sens - INTERFERENCE_FLOOR_DB;
        let capture_ratio = self.capture_ratio_mw;
        let mut half_duplex = 0u64;
        let mut collided = 0u64;
        for &(rid, rpos, d2, rx0) in &decodable {
            let interference = if sigma <= 0.0 {
                // Unshadowed: skip by the exact floor threshold, add no
                // shadow term (link_shadowing_db is identically 0 here,
                // so the accumulated terms match the oracle's loop
                // bit-for-bit).
                interference_sum(
                    tx,
                    rid,
                    rpos,
                    &frames,
                    pl,
                    floor,
                    |o| o.floor_hi_r2,
                    |_| 0.0,
                )
            } else {
                // One shadowing draw per (transmitter, receiver) pair,
                // shared across all of that transmitter's overlapping
                // frames in this query.
                s.shadow_epoch += 1;
                let epoch = s.shadow_epoch;
                let stamps = &mut s.shadow_stamp;
                let vals = &mut s.shadow_val;
                interference_sum(
                    tx,
                    rid,
                    rpos,
                    &frames,
                    pl,
                    floor,
                    |o| o.gate_r2,
                    |sender| {
                        if stamps[sender] == epoch {
                            vals[sender]
                        } else {
                            let v = crate::radio::link_shadowing_db(sigma, seed, sender, rid);
                            stamps[sender] = epoch;
                            vals[sender] = v;
                            v
                        }
                    },
                )
            };
            if let Some(interference_mw) = interference {
                let rx = if rx0.is_nan() {
                    pl.rx_dbm(tx.tx_dbm, d2.sqrt())
                } else {
                    rx0
                };
                if interference_mw > 0.0 && dbm_to_mw(rx) < capture_ratio * interference_mw {
                    collided += 1;
                } else {
                    out.push((rid, rx));
                }
            } else {
                half_duplex += 1;
            }
        }

        s.filtered = filtered;
        s.frames = frames;
        s.decodable = decodable;
        if let (Some(start), Some(mid), Some(intf)) = (t_start, t_mid, t_int) {
            let done = Instant::now();
            s.profile.filter_s += (mid - start).as_secs_f64();
            s.profile.outcome_s += (done - mid).as_secs_f64();
            s.profile.interference_s += (done - intf).as_secs_f64();
        }
        self.apply_losses(tx, half_duplex, collided);
    }

    /// The naive oracle: every node but the sender goes through
    /// [`receive_outcome`](World::receive_outcome), in ascending order.
    fn compute_deliveries_naive(
        &mut self,
        tx: &Transmission,
        out: &mut Vec<(NodeId, f64)>,
        t_start: Option<Instant>,
    ) {
        let t_mid = self.profile_on.then(Instant::now);
        for r in (0..self.n_nodes).filter(|&r| r != tx.sender) {
            let outcome = self.receive_outcome(tx, r);
            self.record_loss(tx, &outcome);
            if let Reception::Delivered(rx_dbm) = outcome {
                out.push((r, rx_dbm));
            }
        }
        if let (Some(start), Some(mid)) = (t_start, t_mid) {
            self.scratch.profile.filter_s += (mid - start).as_secs_f64();
            self.scratch.profile.outcome_s += mid.elapsed().as_secs_f64();
        }
    }
}

/// Cell-size divisor of the spatial grid: cell edge = maximum radio range
/// / this. Cells of a full radio range (divisor 1, the historical sizing)
/// overfetch ~2.25× the decode disc's area per query; halving the edge
/// cuts that to ~1.55× — measurably fewer per-candidate position
/// evaluations in the snapshot filter — while cell-crossing maintenance
/// stays negligible (it scales only linearly with the divisor). Measured
/// on `exp_scale`, 2 is the knee: 3 shaves little more off the filter but
/// grows the cell walk and the refresh stream.
const GRID_CELL_DIVISOR: f64 = 2.0;

/// The shared interference/half-duplex frame loop of the fused delivery
/// query: replays the gathered `frames` (already sorted into global
/// insertion order) for one decodable receiver, accumulating interfering
/// power in exactly the oracle's iteration order. Returns `None` when
/// one of the receiver's own frames overlaps (half duplex), otherwise the
/// summed interference in mW.
///
/// `gate_r2` selects the per-frame squared skip radius (the exact floor
/// threshold when unshadowed, the conservative `+4σ` gate when shadowed)
/// and `shadow` the per-transmitter shadowing term; both are monomorphised
/// per call site, so the unshadowed instantiation keeps its branch-free
/// shape while the skip/overlap/self-frame logic exists exactly once.
#[allow(clippy::too_many_arguments)] // internal monomorphised kernel
#[inline(always)]
fn interference_sum<G, S>(
    tx: &Transmission,
    rid: NodeId,
    rpos: Vec2,
    frames: &[(u64, Transmission)],
    pl: crate::radio::PathLoss,
    floor: f64,
    gate_r2: G,
    mut shadow: S,
) -> Option<f64>
where
    G: Fn(&Transmission) -> f64,
    S: FnMut(NodeId) -> f64,
{
    let mut interference_mw = 0.0;
    for &(_, o) in frames {
        if o.start >= tx.end || o.end <= tx.start {
            continue; // no overlap
        }
        if o.sender == tx.sender && o.start == tx.start && o.end == tx.end {
            continue; // the frame itself (copy in the log)
        }
        if o.sender == rid {
            return None; // half duplex
        }
        let od2 = o.pos.distance_sq(rpos);
        if od2 > gate_r2(&o) {
            continue; // provably below the interference floor
        }
        let o_rx = pl.rx_dbm(o.tx_dbm, od2.sqrt()) + shadow(o.sender);
        if o_rx >= floor {
            // Only energy near the sensitivity floor matters.
            interference_mw += dbm_to_mw(o_rx);
        }
    }
    Some(interference_mw)
}

/// Cell edge for the spatialised active window: the interference gating
/// reach at the world's *largest* transmit-power class (shadowing tail
/// included), clamped to the field diagonal. Frames matter out to roughly
/// this distance, so one-reach cells keep a query's gather to a small
/// constant block of buckets while still pruning far-away bursts; sizing
/// by the largest class keeps that true for every group of a
/// heterogeneous world (cell size is a perf heuristic only — queries pass
/// their own exact radii).
fn frame_cell(radio: &RadioConfig, field: Field, max_tx_dbm: f64) -> f64 {
    let reach = radio.interference_floor_range(max_tx_dbm);
    let diag = (field.width * field.width + field.height * field.height).sqrt();
    if reach.is_finite() && reach > 1.0 {
        reach.min(diag)
    } else {
        diag
    }
}

/// Cell edge for the spatial grid: a [`GRID_CELL_DIVISOR`]-th of the
/// maximum radio range (the largest power class of the world at receiver
/// sensitivity — per-group powers only shrink individual query discs, see
/// [`frame_cell`]), clamped to the field diagonal so degenerate radio
/// configurations cannot create absurd cell counts.
fn grid_cell(radio: &RadioConfig, field: Field, max_tx_dbm: f64) -> f64 {
    let range = radio
        .path_loss
        .range_for(max_tx_dbm, radio.rx_sensitivity_dbm);
    let diag = (field.width * field.width + field.height * field.height).sqrt();
    if range.is_finite() && range > 1.0 {
        (range / GRID_CELL_DIVISOR).min(diag)
    } else {
        diag
    }
}

impl ProtocolApi for World {
    fn now(&self) -> f64 {
        self.queue.now()
    }

    fn set_timer(&mut self, node: NodeId, delay: f64, tag: u64) {
        self.protocol_pending += 1;
        self.queue.schedule_in(
            delay,
            Event::Timer {
                node: node as u32,
                tag,
            },
        );
    }

    fn transmit(&mut self, node: NodeId, tx_dbm: f64) {
        self.start_transmission(node, tx_dbm, FrameKind::Data);
    }

    fn neighbors(&self, node: NodeId) -> Vec<NeighborEntry> {
        self.tables[node].live(self.queue.now(), self.spec.neighbor_expiry)
    }

    fn neighbors_into(&self, node: NodeId, out: &mut Vec<NeighborEntry>) {
        self.tables[node].live_into(self.queue.now(), self.spec.neighbor_expiry, out);
    }

    fn default_tx_dbm(&self) -> f64 {
        self.spec.radio.default_tx_dbm
    }

    fn node_tx_dbm(&self, node: NodeId) -> f64 {
        self.node_tx[node]
    }

    fn rx_sensitivity_dbm(&self) -> f64 {
        self.spec.radio.rx_sensitivity_dbm
    }

    fn rand(&mut self) -> f64 {
        self.rng.gen()
    }
}

/// A configured simulation run driving a protocol `P`.
///
/// Construction allocates; [`Simulator::reset`] re-arms the same instance
/// for another run (same or different configuration) without heap churn —
/// the batched evaluation pipeline keeps one simulator per worker thread
/// alive across thousands of runs.
pub struct Simulator<P: Protocol> {
    world: World,
    protocol: P,
}

/// A protocol-independent copy of a simulation's state, taken before the
/// broadcast starts ([`Simulator::checkpoint`]) and restored into any
/// simulator, under any protocol, with [`Simulator::restore`].
///
/// Until the broadcast starts the engine never calls the protocol:
/// placement, mobility, beacons, grid maintenance and neighbour-table
/// updates are all protocol-free, so every candidate configuration
/// simulated on one network shares the same state up to that point. The
/// tuning problem uses this to simulate that shared prefix once per
/// network for its whole life; each candidate's tail then runs from the
/// restored checkpoint only until its broadcast settles
/// ([`Simulator::run_broadcast`]).
///
/// A checkpoint holds only what restore cannot derive, so that one per
/// network can stay alive (≈ 20 KiB for a 75-node paper world):
///
/// * The neighbour tables: a checkpoint can only be taken more than
///   `neighbor_expiry` seconds before the broadcast, so every entry
///   observed up to then has expired by the first instant a protocol can
///   read a table, and restore starts from empty tables instead.
/// * The SoA kinematic snapshot: it always mirrors the mobility segments
///   (kept so by every re-anchor), so restore rebuilds it from them.
/// * The broadcast metrics: nothing records into them before the
///   broadcast, so restore resets them to their initial state.
/// * The delivery pipeline's caches (sweep event horizons, shadowing memo,
///   scratch buffers), which restore re-arms, and the count of queued
///   protocol events, which is zero before the broadcast and which restore
///   zeroes.
#[derive(Debug)]
pub struct Checkpoint {
    spec: WorldSpec,
    n_nodes: usize,
    node_tx: Vec<f64>,
    max_speed: f64,
    queue: EventQueue<Event>,
    in_flight: InFlight,
    mobility: Vec<AnyMobility>,
    rng: SmallRng,
    live: Vec<Transmission>,
    frames: SpatialActiveWindow<Transmission>,
    counters: SimCounters,
    grid: SpatialGrid,
    refresh_gen: Vec<u32>,
    refresh_events: u64,
    max_gate_r: f64,
    hd_reach: f64,
    capture_ratio_mw: f64,
    mode: DeliveryMode,
}

impl Checkpoint {
    /// The world this checkpoint was taken in.
    pub fn world(&self) -> &WorldSpec {
        &self.spec
    }
}

impl<P: Protocol> Simulator<P> {
    /// Builds the simulator from a flat [`SimConfig`] — a thin adapter
    /// over [`from_world`](Self::from_world) through
    /// [`SimConfig::to_world`], kept for the homogeneous scenarios the
    /// paper evaluates.
    pub fn new(config: SimConfig, protocol: P) -> Self {
        let spec = config.to_world();
        Self {
            world: World::empty(spec),
            protocol,
        }
    }

    /// Builds the simulator from a declarative [`WorldSpec`]: places every
    /// group's nodes, seeds their mobility models, resolves per-group
    /// transmit-power classes and schedules the initial
    /// beacon/mobility/broadcast events. The single compilation path every
    /// scenario surface funnels through (`SimConfig`, dense scenarios, the
    /// text grammar).
    ///
    /// Panics with the spec's [`WorldError`](crate::world::WorldError)
    /// message when the spec is invalid; call
    /// [`WorldSpec::validate`] first to handle errors gracefully.
    pub fn from_world(spec: &WorldSpec, protocol: P) -> Self {
        let mut sim = Self {
            world: World::empty(spec.clone()),
            protocol,
        };
        sim.world.mode = spec.delivery_mode;
        sim
    }

    /// Re-arms the simulator for a new run, replacing the protocol state
    /// and reusing every internal allocation. The currently selected
    /// [`DeliveryMode`] is kept (the historical contract of the
    /// `SimConfig` surface); [`reset_world`](Self::reset_world) applies
    /// the spec's mode instead.
    pub fn reset(&mut self, config: SimConfig, protocol: P) {
        self.world.reset(config.to_world());
        self.protocol = protocol;
    }

    /// Like [`reset`](Self::reset), but re-arms the existing protocol in
    /// place through `rearm` instead of replacing it — protocols with
    /// per-node buffers (e.g. AEDB) avoid reallocating them every run.
    pub fn reset_with<F: FnOnce(&mut P)>(&mut self, config: SimConfig, rearm: F) {
        self.world.reset(config.to_world());
        rearm(&mut self.protocol);
    }

    /// Re-arms the simulator for a [`WorldSpec`], replacing the protocol
    /// and applying the spec's [`DeliveryMode`].
    pub fn reset_world(&mut self, spec: &WorldSpec, protocol: P) {
        self.world.reset(spec.clone());
        self.world.mode = spec.delivery_mode;
        self.protocol = protocol;
    }

    /// Like [`reset_world`](Self::reset_world), but re-arms the existing
    /// protocol in place through `rearm`.
    pub fn reset_world_with<F: FnOnce(&mut P)>(&mut self, spec: &WorldSpec, rearm: F) {
        self.world.reset(spec.clone());
        self.world.mode = spec.delivery_mode;
        rearm(&mut self.protocol);
    }

    /// Selects the delivery-resolution path (default:
    /// [`DeliveryMode::Incremental`]). Both modes are bit-identical
    /// (asserted by the determinism test suite) and keep the grid and the
    /// live-frame windows maintained, so the mode can change mid-run; the
    /// naive oracle exists for parity checks and as a benchmark baseline.
    pub fn set_delivery_mode(&mut self, mode: DeliveryMode) {
        self.world.mode = mode;
    }

    /// The currently selected delivery-resolution path.
    pub fn delivery_mode(&self) -> DeliveryMode {
        self.world.mode
    }

    /// Spatial-grid maintenance counters accumulated since the last
    /// reset (the initial placement costs `n` bucket ops, each cell
    /// crossing 2).
    pub fn grid_stats(&self) -> GridStats {
        self.world.grid.stats()
    }

    /// Live (non-stale) grid-refresh events handled since the last reset.
    pub fn grid_refresh_events(&self) -> u64 {
        self.world.refresh_events
    }

    /// Work counters of the batched candidate sweep since the last reset:
    /// cells visited/culled and candidates evaluated by chunk kernels vs
    /// the scalar fallback (all zero outside
    /// [`DeliveryMode::Incremental`], which is the only path that
    /// sweeps). Exported per row of the scale artifact.
    pub fn sweep_stats(&self) -> SweepStats {
        self.world.scratch.sweep.stats()
    }

    /// Cell edge (m) of the spatial delivery grid — exposed so tests can
    /// construct node placements exactly on cell boundaries.
    pub fn grid_cell_size(&self) -> f64 {
        self.world.grid.cell_size()
    }

    /// Enables/disables wall-time profiling of the delivery query (off by
    /// default — the two extra `Instant::now` samples per query are only
    /// taken when enabled, so unprofiled runs pay nothing). The setting
    /// survives [`reset`](Self::reset); the accumulators do not.
    pub fn set_query_profiling(&mut self, on: bool) {
        self.world.profile_on = on;
    }

    /// The accumulated candidate-filter / receive-outcome wall-time split
    /// since the last reset (all zeros unless
    /// [`set_query_profiling`](Self::set_query_profiling) is on).
    pub fn query_profile(&self) -> QueryProfile {
        self.world.scratch.profile
    }

    /// Runs the simulation to `end_time` and returns the report.
    pub fn run(mut self) -> SimReport {
        self.run_to_end()
    }

    /// The scenario's configured end time in seconds — the horizon
    /// [`run_to_end`](Self::run_to_end) runs to. Exposed so drivers that
    /// advance the clock in chunks via [`run_until`](Self::run_until)
    /// (e.g. a service streaming progress) know where the run finishes.
    pub fn end_time(&self) -> f64 {
        self.world.spec.end_time
    }

    /// Runs to `end_time` and returns the report, keeping the simulator
    /// alive for a subsequent [`reset`](Self::reset).
    pub fn run_to_end(&mut self) -> SimReport {
        self.run_until(self.world.spec.end_time);
        SimReport {
            broadcast: self.world.metrics.clone(),
            counters: self.world.counters.clone(),
            n_nodes: self.world.n_nodes,
        }
    }

    /// Processes events up to (and including) time `t`, leaving the
    /// simulator inspectable — used for topology snapshots and debugging.
    pub fn run_until(&mut self, t: f64) {
        self.run_events(t, |_| false);
    }

    /// Runs until the broadcast has **settled** or until `end_time`,
    /// whichever comes first, and returns the broadcast's metrics —
    /// bit-identical to [`run_to_end`](Self::run_to_end)`().broadcast`.
    ///
    /// The broadcast has settled once it has started and no protocol
    /// `Timer` and no data-frame `TxEnd` is queued. The stop is exact
    /// because the engine calls the protocol only from the broadcast
    /// start, a protocol timer and a data frame's `TxEnd`, and only those
    /// events (and the transmissions the protocol starts from them)
    /// change the [`BroadcastMetrics`]. Once none is queued, none can be
    /// queued again: everything left until `end_time` is beacons,
    /// mobility and grid maintenance, which the metrics never see. The
    /// events processed up to the stop are exactly those a full run
    /// processes first, in the same order.
    ///
    /// The [`counters`](SimReport::counters) stop with the run, so
    /// callers that need full-horizon beacon counters use
    /// [`run_to_end`](Self::run_to_end) instead (which also runs on from
    /// here to the same report a straight run gives).
    /// [`stopped_before_end`](Self::stopped_before_end) tells whether the
    /// run stopped at settlement or ran to `end_time` with protocol work
    /// still pending.
    pub fn run_broadcast(&mut self) -> &BroadcastMetrics {
        self.run_events(self.world.spec.end_time, World::settled);
        &self.world.metrics
    }

    /// Whether events due at or before `end_time` are still queued: after
    /// [`run_broadcast`](Self::run_broadcast), whether it stopped at
    /// settlement and skipped the rest of the run; after
    /// [`run_to_end`](Self::run_to_end), always `false`.
    pub fn stopped_before_end(&self) -> bool {
        self.world
            .queue
            .peek_time()
            .is_some_and(|t| t <= self.world.spec.end_time)
    }

    /// The event loop behind [`run_until`](Self::run_until) and
    /// [`run_broadcast`](Self::run_broadcast): dispatches every event up
    /// to time `t` unless `stop` holds first. `run_until` passes a
    /// constant `false`, so its loop compiles without the check.
    #[inline(always)]
    fn run_events(&mut self, t: f64, stop: impl Fn(&World) -> bool) {
        while let Some(next) = self.world.queue.peek_time() {
            if next > t || stop(&self.world) {
                break;
            }
            let (_, ev) = self.world.queue.pop().expect("peeked event vanished");
            self.dispatch(ev);
        }
    }

    /// Node positions at time `t` (must be ≥ the last processed event).
    pub fn positions_at(&self, t: f64) -> Vec<Vec2> {
        self.world.mobility.iter().map(|m| m.position(t)).collect()
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.world.queue.now()
    }

    /// Frames on the air now: started, with their end not yet processed.
    pub fn on_air(&self) -> usize {
        self.world.in_flight.len()
    }

    /// Copies the simulation state at the current time into a
    /// protocol-independent [`Checkpoint`]: drive the simulator with
    /// [`run_until`](Self::run_until) first, then restore the checkpoint
    /// into any simulator with [`restore`](Self::restore) — one driving
    /// another protocol included: a checkpoint taken under
    /// [`Flooding`](crate::protocol::Flooding) restores into a simulator of
    /// any other [`Protocol`].
    ///
    /// # Panics
    /// Panics if the broadcast has started, or if it starts within
    /// `neighbor_expiry` seconds of now: a checkpoint omits the neighbour
    /// tables, which is exact only while every entry observed so far is
    /// guaranteed to have expired when the broadcast starts.
    pub fn checkpoint(&self) -> Checkpoint {
        // Exhaustive on purpose: a new `World` field fails to compile here
        // until someone decides whether a checkpoint must carry it.
        let World {
            spec,
            n_nodes,
            node_tx,
            max_speed,
            queue,
            in_flight,
            mobility,
            // Expired by the broadcast (asserted below): restore clears them.
            tables: _,
            rng,
            live,
            frames,
            // Initial until the broadcast (asserted below): restore resets
            // them.
            metrics,
            counters,
            broadcast_started,
            // Zero before the broadcast (asserted below): restore zeroes it.
            protocol_pending,
            grid,
            // Mirrors the mobility segments (asserted below): restore
            // rebuilds it from them.
            snapshot,
            refresh_gen,
            refresh_events,
            // Delivery scratch, caches and settings of the simulator, not
            // state of the run: restore re-arms the target's own.
            scratch: _,
            delivery_scratch: _,
            max_gate_r,
            hd_reach,
            capture_ratio_mw,
            mode,
            profile_on: _,
        } = &self.world;
        let now = queue.now();
        assert!(
            !*broadcast_started && spec.broadcast_time - now > spec.neighbor_expiry,
            "checkpoint at t = {now} s: neighbour tables could still be read at the \
             broadcast (t = {} s, expiry {} s)",
            spec.broadcast_time,
            spec.neighbor_expiry
        );
        debug_assert_eq!(*protocol_pending, 0, "nothing calls the protocol yet");
        debug_assert_eq!(
            *metrics,
            BroadcastMetrics::new(spec.source, spec.broadcast_time),
            "nothing records into the metrics before the broadcast"
        );
        debug_assert!(
            (0..*n_nodes).all(|i| snapshot.segment(i) == mobility[i].segment()),
            "the snapshot mirrors the mobility segments"
        );
        Checkpoint {
            spec: spec.clone(),
            n_nodes: *n_nodes,
            node_tx: node_tx.clone(),
            max_speed: *max_speed,
            queue: queue.clone(),
            in_flight: in_flight.clone(),
            mobility: mobility.clone(),
            rng: rng.clone(),
            live: live.clone(),
            frames: frames.clone(),
            counters: counters.clone(),
            grid: grid.clone(),
            refresh_gen: refresh_gen.clone(),
            refresh_events: *refresh_events,
            max_gate_r: *max_gate_r,
            hd_reach: *hd_reach,
            capture_ratio_mw: *capture_ratio_mw,
            mode: *mode,
        }
    }

    /// Rewinds (or fast-forwards) this simulator to `checkpoint` and
    /// re-arms its protocol in place through `rearm`, like
    /// [`reset_world_with`](Self::reset_world_with) does at `t = 0`.
    /// Running on from here gives the report a straight run of the
    /// checkpoint's world under this protocol gives, bit for bit — whatever
    /// world this simulator ran before.
    ///
    /// The neighbour tables start empty, the broadcast metrics initial and
    /// the kinematic snapshot rebuilt from the mobility segments (see
    /// [`Checkpoint`]), and the delivery scratch of the previous run is
    /// re-armed — including every cached sweep event horizon, which
    /// described the previous world's cells. The delivery mode is the
    /// checkpoint's; the profiling switch stays this simulator's, and the
    /// profiling and sweep accumulators restart from zero.
    pub fn restore<F: FnOnce(&mut P)>(&mut self, checkpoint: &Checkpoint, rearm: F) {
        let Checkpoint {
            spec,
            n_nodes,
            node_tx,
            max_speed,
            queue,
            in_flight,
            mobility,
            rng,
            live,
            frames,
            counters,
            grid,
            refresh_gen,
            refresh_events,
            max_gate_r,
            hd_reach,
            capture_ratio_mw,
            mode,
        } = checkpoint;
        let w = &mut self.world;
        w.spec.clone_from(spec);
        w.n_nodes = *n_nodes;
        w.node_tx.clone_from(node_tx);
        w.max_speed = *max_speed;
        w.queue.clone_from(queue);
        w.in_flight.clone_from(in_flight);
        w.mobility.clone_from(mobility);
        w.rng.clone_from(rng);
        w.live.clone_from(live);
        w.frames.clone_from(frames);
        w.metrics.reset(spec.source, spec.broadcast_time);
        w.counters.clone_from(counters);
        w.broadcast_started = false;
        w.protocol_pending = 0;
        w.grid.clone_from(grid);
        w.snapshot
            .rebuild(spec.field, mobility.iter().map(|m| m.segment()));
        w.refresh_gen.clone_from(refresh_gen);
        w.refresh_events = *refresh_events;
        w.max_gate_r = *max_gate_r;
        w.hd_reach = *hd_reach;
        w.capture_ratio_mw = *capture_ratio_mw;
        w.mode = *mode;
        w.clear_tables(*n_nodes);
        w.delivery_scratch.clear();
        w.reset_query_scratch();
        rearm(&mut self.protocol);
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Beacon(id) => {
                let node = id as NodeId;
                // Beacons go out at the node's power *class* (per-group in
                // heterogeneous worlds; the radio default otherwise).
                self.world
                    .start_transmission(node, self.world.node_tx[node], FrameKind::Beacon);
                // Re-arm with ±5 % jitter so persistent phase collisions
                // cannot lock in (there is no CSMA in this model).
                let base = self.world.spec.beacon_interval;
                let jitter = base * (0.95 + 0.1 * self.world.rng.gen::<f64>());
                self.world.queue.schedule_in(jitter, Event::Beacon(id));
            }
            Event::MobilityChange(id) => {
                let node = id as NodeId;
                self.world.mobility[node].advance(&mut self.world.rng);
                let next = self.world.mobility[node].next_change();
                if next.is_finite() {
                    self.world.queue.schedule(next, Event::MobilityChange(id));
                }
                self.world.reanchor_grid_refresh(node);
            }
            Event::GridRefresh { node, gen } => {
                self.world.handle_grid_refresh(node as NodeId, gen);
            }
            Event::TxEnd(slot) => {
                let tx = self.world.in_flight.take(slot);
                let mut deliveries = std::mem::take(&mut self.world.delivery_scratch);
                deliveries.clear();
                self.world.compute_deliveries(&tx, &mut deliveries);
                match tx.kind {
                    FrameKind::Beacon => {
                        let now = self.world.queue.now();
                        self.world.counters.beacons_received += deliveries.len() as u64;
                        for &(r, rx_dbm) in &deliveries {
                            self.world.tables[r].observe(tx.sender, rx_dbm, tx.tx_dbm, now);
                        }
                    }
                    FrameKind::Data => {
                        let now = self.world.queue.now();
                        self.world.protocol_pending -= 1;
                        self.world.counters.data_received += deliveries.len() as u64;
                        for &(r, rx_dbm) in &deliveries {
                            self.world.metrics.record_reception(r, now);
                            self.protocol
                                .on_receive(r, tx.sender, rx_dbm, &mut self.world);
                        }
                    }
                }
                self.world.delivery_scratch = deliveries;
            }
            Event::Timer { node, tag } => {
                self.world.counters.timers_fired += 1;
                self.world.protocol_pending -= 1;
                self.protocol.on_timer(node as NodeId, tag, &mut self.world);
            }
            Event::StartBroadcast(node) => {
                self.world.broadcast_started = true;
                self.protocol.on_start(node as NodeId, &mut self.world);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Flooding, SourceOnly};

    fn dense_config(seed: u64) -> SimConfig {
        // 50 nodes in a small field: fully connected at default power.
        let mut c = SimConfig::paper(50, seed);
        c.field = Field::new(100.0, 100.0);
        c
    }

    #[test]
    fn source_only_reaches_one_hop_neighbors() {
        let c = dense_config(1);
        let report = Simulator::new(c, SourceOnly).run();
        // 100 m field, ~150 m range: everyone is one hop away.
        assert_eq!(
            report.broadcast.coverage(),
            49,
            "counters: {:?}",
            report.counters
        );
        assert_eq!(report.broadcast.forwardings, 0);
        assert_eq!(report.broadcast.energy_dbm_sum, 0.0);
        assert!(report.broadcast.broadcast_time() < 0.1);
    }

    #[test]
    fn flooding_covers_multihop_network() {
        let mut c = SimConfig::paper(60, 4);
        c.field = Field::new(400.0, 400.0); // multi-hop but well connected
        let n = c.n_nodes;
        let report = Simulator::new(c, Flooding::new(n, (0.0, 0.05))).run();
        assert!(
            report.broadcast.coverage() > 50,
            "coverage {} too small; counters {:?}",
            report.broadcast.coverage(),
            report.counters
        );
        assert!(report.broadcast.forwardings > 10);
        assert!(report.broadcast.broadcast_time() < 2.0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = |seed| {
            let c = SimConfig::paper(40, seed);
            let n = c.n_nodes;
            let r = Simulator::new(c, Flooding::new(n, (0.0, 0.1))).run();
            (
                r.broadcast.coverage(),
                r.broadcast.forwardings,
                r.broadcast.energy_dbm_sum,
                r.broadcast.broadcast_time(),
                r.counters.beacons_sent,
            )
        };
        assert_eq!(run(123), run(123));
        assert_ne!(
            run(123),
            run(124),
            "different seeds should differ somewhere"
        );
    }

    fn run_mode(mode: DeliveryMode, c: SimConfig) -> SimReport {
        let n = c.n_nodes;
        let mut sim = Simulator::new(c, Flooding::new(n, (0.0, 0.1)));
        sim.set_delivery_mode(mode);
        sim.run_to_end()
    }

    #[test]
    fn all_delivery_modes_are_identical() {
        // The parity guarantee, asserted across densities and mobility
        // models: full metric + counter equality between the incremental
        // grid and the naive scan.
        for seed in [1u64, 7, 23, 99] {
            for mk in [
                SimConfig::paper(75, seed),
                SimConfig::paper(25, seed),
                dense_config(seed),
                {
                    let mut c = SimConfig::paper(30, seed);
                    c.mobility = MobilityModel::Stationary;
                    c
                },
                {
                    let mut c = SimConfig::paper(30, seed);
                    c.mobility = MobilityModel::RandomWaypoint { pause: 3.0 };
                    c
                },
            ] {
                let inc = run_mode(DeliveryMode::Incremental, mk.clone());
                let naive = run_mode(DeliveryMode::Naive, mk);
                assert_eq!(inc.broadcast, naive.broadcast, "inc vs naive, seed {seed}");
                assert_eq!(inc.counters, naive.counters, "inc vs naive, seed {seed}");
            }
        }
    }

    #[test]
    fn shadowed_scenarios_use_the_grid_and_stay_exact() {
        // Under the bounded-tail shadowing model the radio range is finite
        // (gain truncated at +4σ), so shadowed scenarios keep the spatial
        // grid — no naive fallback — and both delivery paths remain
        // bit-identical.
        for sigma in [4.0, 6.0] {
            let mut c = SimConfig::paper(40, 3);
            c.radio.shadowing_sigma_db = sigma;
            let inc = run_mode(DeliveryMode::Incremental, c.clone());
            let naive = run_mode(DeliveryMode::Naive, c);
            assert_eq!(inc.broadcast, naive.broadcast, "sigma {sigma}");
            assert_eq!(inc.counters, naive.counters, "sigma {sigma}");
        }
    }

    #[test]
    fn reset_reuses_simulator_across_configs() {
        // A fresh simulator and a reset one must agree bit-for-bit, even
        // when the reset crosses node counts and field sizes.
        let c1 = SimConfig::paper(40, 11);
        let c2 = dense_config(5);
        let n1 = c1.n_nodes;
        let n2 = c2.n_nodes;
        let fresh1 = Simulator::new(c1.clone(), Flooding::new(n1, (0.0, 0.1))).run();
        let fresh2 = Simulator::new(c2.clone(), Flooding::new(n2, (0.0, 0.2))).run();

        let mut sim = Simulator::new(c1.clone(), Flooding::new(n1, (0.0, 0.1)));
        let r1 = sim.run_to_end();
        sim.reset(c2, Flooding::new(n2, (0.0, 0.2)));
        let r2 = sim.run_to_end();
        sim.reset(c1, Flooding::new(n1, (0.0, 0.1)));
        let r1_again = sim.run_to_end();

        assert_eq!(r1.broadcast, fresh1.broadcast);
        assert_eq!(r2.broadcast, fresh2.broadcast);
        assert_eq!(r1_again.broadcast, fresh1.broadcast);
        assert_eq!(r1_again.counters, fresh1.counters);
    }

    #[test]
    fn ten_thousand_node_scenario_end_to_end() {
        // The 10⁴-node acceptance scenario (the XL dense preset's
        // geometry: 400 dev/km² on a 5 km field) on the dense-world parity
        // window — broadcast at 0.25 s, end at 0.5 s — so the naive oracle
        // stays affordable in a debug build; `exp_scale` runs the full
        // 40 s protocol in release. Asserts the incremental grid is
        // bit-identical to the all-nodes scan.
        let mut c = SimConfig::paper(10_000, 7_410_000);
        c.field = Field::new(5000.0, 5000.0);
        c.broadcast_time = 0.25;
        c.end_time = 0.5;
        let r_inc = run_mode(DeliveryMode::Incremental, c.clone());
        let r_naive = run_mode(DeliveryMode::Naive, c);
        assert!(
            r_inc.broadcast.coverage() > 500,
            "a dense 10⁴-node broadcast should spread in 0.25 s, got {}",
            r_inc.broadcast.coverage()
        );
        assert_eq!(r_inc.broadcast, r_naive.broadcast, "10⁴-node parity");
        assert_eq!(r_inc.counters, r_naive.counters, "10⁴-node parity");
    }

    #[test]
    fn snapshot_lanes_reanchor_when_advance_fires_mid_transmission() {
        // A mobility segment change lands strictly between a data frame's
        // start (30.0 s) and its end (31.0 s): the snapshot lanes must be
        // re-anchored by the MobilityChange event so the delivery query at
        // tx.end filters against the *new* segment — bit-identically to
        // the mobility structs — and both modes must stay in lockstep.
        let mut c = SimConfig::paper(40, 21);
        c.mobility = MobilityModel::RandomWalk {
            change_interval: 30.5, // fires once, mid-transmission
        };
        c.radio.data_duration = 1.0;
        let n = c.n_nodes;
        let mut sim = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.0)));
        sim.run_until(30.7); // past the change, before the frame ends
        let w = &sim.world;
        for i in 0..n {
            let seg = w.mobility[i].segment();
            assert_eq!(seg.t0, 30.5, "segment must have re-anchored");
            assert_eq!(
                w.snapshot.segment(i),
                seg,
                "snapshot lanes of node {i} must mirror the mobility struct"
            );
            let t = w.queue.now();
            assert_eq!(w.snapshot.position(i, t), w.mobility[i].position(t));
        }
        sim.run_until(c.end_time);
        let inc = SimReport {
            broadcast: sim.world.metrics.clone(),
            counters: sim.world.counters.clone(),
            n_nodes: n,
        };
        let naive = run_mode_jitterless(DeliveryMode::Naive, c);
        assert_eq!(inc.broadcast, naive.broadcast);
        assert_eq!(inc.counters, naive.counters);
    }

    /// Like [`run_mode`] but with zero forwarding jitter, so data-frame
    /// timings are fully determined by the radio constants (the exact
    /// alignment the segment-boundary tests need).
    fn run_mode_jitterless(mode: DeliveryMode, c: SimConfig) -> SimReport {
        let n = c.n_nodes;
        let mut sim = Simulator::new(c, Flooding::new(n, (0.0, 0.0)));
        sim.set_delivery_mode(mode);
        sim.run_to_end()
    }

    #[test]
    fn segment_change_exactly_at_query_time_stays_in_parity() {
        // data_duration == change_interval == 2.0 with zero forwarding
        // jitter makes every data frame end *exactly* on a mobility
        // re-draw instant (30.0 + k·2.0): the delivery query samples
        // receiver positions at the precise boundary between two
        // segments, in whatever event order the queue resolves the tie —
        // the sharpest case for the snapshot lanes. Both modes must agree
        // bit-for-bit.
        for seed in [2u64, 13, 77] {
            let mut c = SimConfig::paper(50, seed);
            c.mobility = MobilityModel::RandomWalk {
                change_interval: 2.0,
            };
            c.radio.data_duration = 2.0;
            let inc = run_mode_jitterless(DeliveryMode::Incremental, c.clone());
            let naive = run_mode_jitterless(DeliveryMode::Naive, c);
            assert_eq!(inc.broadcast, naive.broadcast, "seed {seed}");
            assert_eq!(inc.counters, naive.counters, "seed {seed}");
        }
    }

    #[test]
    fn beacons_populate_neighbor_tables() {
        let c = dense_config(3);
        let sim = Simulator::new(c, SourceOnly);
        // run manually to just after a couple of beacon rounds
        let mut world = sim.world;
        let mut protocol = sim.protocol;
        let mut ds: Vec<(NodeId, f64)> = Vec::new();
        while let Some(t) = world.queue.peek_time() {
            if t > 3.0 {
                break;
            }
            let (_, ev) = world.queue.pop().unwrap();
            match ev {
                Event::Beacon(id) => {
                    let node = id as NodeId;
                    world.start_transmission(node, world.node_tx[node], FrameKind::Beacon);
                    let base = world.spec.beacon_interval;
                    world.queue.schedule_in(base, Event::Beacon(id));
                }
                Event::TxEnd(slot) => {
                    let tx = world.in_flight.take(slot);
                    ds.clear();
                    world.compute_deliveries(&tx, &mut ds);
                    let now = world.queue.now();
                    if tx.kind == FrameKind::Beacon {
                        for &(r, rx) in &ds {
                            world.tables[r].observe(tx.sender, rx, tx.tx_dbm, now);
                        }
                    }
                }
                Event::MobilityChange(id) => {
                    let n = id as NodeId;
                    world.mobility[n].advance(&mut world.rng);
                    let next = world.mobility[n].next_change();
                    if next.is_finite() {
                        world.queue.schedule(next, Event::MobilityChange(id));
                    }
                    world.reanchor_grid_refresh(n);
                }
                Event::GridRefresh { node, gen } => world.handle_grid_refresh(node as NodeId, gen),
                Event::StartBroadcast(n) => protocol.on_start(n as NodeId, &mut world),
                Event::Timer { node, tag } => protocol.on_timer(node as NodeId, tag, &mut world),
            }
        }
        // dense network: every node should know (almost) everyone
        let neigh = world.neighbors(0);
        assert!(neigh.len() >= 45, "only {} neighbors known", neigh.len());
        // received powers must be decodable and ordered fields sane
        for e in &neigh {
            assert!(e.rx_dbm >= world.spec.radio.rx_sensitivity_dbm);
            assert!(e.last_seen <= world.queue.now());
        }
    }

    #[test]
    fn sparse_network_partitions_limit_coverage() {
        // 5 nodes in a huge field: almost surely out of range of each other.
        let mut c = SimConfig::paper(5, 11);
        c.field = Field::new(5000.0, 5000.0);
        let n = c.n_nodes;
        let report = Simulator::new(c, Flooding::new(n, (0.0, 0.05))).run();
        assert!(report.broadcast.coverage() < 4);
    }

    #[test]
    fn no_self_delivery_and_energy_accounting() {
        let c = dense_config(5);
        let n = c.n_nodes;
        let report = Simulator::new(c, Flooding::new(n, (0.0, 0.2))).run();
        // flooding: everyone forwards once at default power
        let f = report.broadcast.forwardings as f64;
        assert!((report.broadcast.energy_dbm_sum - f * 16.02).abs() < 1e-6);
        assert!(
            !report.broadcast.covered.contains(&0),
            "source must not count as covered"
        );
    }

    #[test]
    fn broadcast_time_monotone_with_flooding_jitter() {
        // larger forwarding jitter stretches the dissemination in time
        let bt = |jitter: (f64, f64)| {
            let mut c = SimConfig::paper(60, 17);
            c.field = Field::new(400.0, 400.0);
            let n = c.n_nodes;
            Simulator::new(c, Flooding::new(n, jitter))
                .run()
                .broadcast
                .broadcast_time()
        };
        let fast = bt((0.0, 0.01));
        let slow = bt((1.0, 2.0));
        assert!(slow > fast, "slow {slow} <= fast {fast}");
    }

    #[test]
    fn explicit_placement_chain_topology() {
        // A 4-node chain spaced 120 m apart (range ≈ 150 m): flooding must
        // traverse hop by hop and reach the far end.
        let mut c = SimConfig::paper(4, 1);
        c.mobility = crate::mobility::MobilityModel::Stationary;
        c.placement = Placement::Explicit(vec![
            Vec2::new(10.0, 250.0),
            Vec2::new(130.0, 250.0),
            Vec2::new(250.0, 250.0),
            Vec2::new(370.0, 250.0),
        ]);
        let report = Simulator::new(c, Flooding::new(4, (0.01, 0.05))).run();
        assert_eq!(
            report.broadcast.coverage(),
            3,
            "counters {:?}",
            report.counters
        );
        // last hop needs at least 3 frames: source + 2 relays
        assert!(report.broadcast.forwardings >= 2);
    }

    #[test]
    #[should_panic(expected = "placement size mismatch")]
    fn explicit_placement_arity_checked() {
        let mut c = SimConfig::paper(3, 1);
        c.placement = Placement::Explicit(vec![Vec2::new(0.0, 0.0)]);
        let _ = Simulator::new(c, SourceOnly);
    }

    #[test]
    fn run_until_snapshots_positions() {
        let c = SimConfig::paper(10, 5);
        let field = c.field;
        let mut sim = Simulator::new(c, SourceOnly);
        sim.run_until(30.0);
        assert!(sim.now() <= 30.0);
        let pos = sim.positions_at(30.0);
        assert_eq!(pos.len(), 10);
        assert!(pos.iter().all(|p| field.contains(*p)));
        // continuing to the end still works
        sim.run_until(40.0);
        assert!(sim.now() > 30.0);
    }

    #[test]
    fn delivery_mode_can_change_mid_run() {
        // Both modes keep the grid and the live-frame windows maintained,
        // so switching between run_until segments leaves the trajectory
        // exactly where a run in either mode would have been.
        let mut c = SimConfig::paper(80, 9);
        c.field = Field::new(500.0, 500.0);
        let n = c.n_nodes;
        let baseline = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1))).run();
        let mut sim = Simulator::new(c, Flooding::new(n, (0.0, 0.1)));
        sim.run_until(10.0);
        sim.set_delivery_mode(DeliveryMode::Naive);
        sim.run_until(25.0);
        sim.set_delivery_mode(DeliveryMode::Incremental);
        sim.run_until(31.0);
        sim.set_delivery_mode(DeliveryMode::Naive);
        sim.run_until(33.0);
        sim.set_delivery_mode(DeliveryMode::Incremental);
        let toggled = sim.run_to_end();
        assert_eq!(baseline.broadcast, toggled.broadcast);
        assert_eq!(baseline.counters, toggled.counters);
    }

    #[test]
    fn simultaneous_transmissions_collide() {
        // Two forwarders with zero jitter transmit in the same instant;
        // their frames overlap at common receivers. With capture at 10 dB
        // equidistant receivers lose both.
        let mut c = dense_config(23);
        c.radio.capture_db = 10.0;
        let n = c.n_nodes;
        let report = Simulator::new(c, Flooding::new(n, (0.0, 0.0))).run();
        // all forwarders fire at exactly the same time => massive collisions
        assert!(
            report.counters.collision_losses + report.counters.half_duplex_losses > 0,
            "expected losses, got {:?}",
            report.counters
        );
    }

    #[test]
    fn checkpoint_restores_the_paper_prefix() {
        // Table II: broadcast at 30 s, expiry 2.5 s, beacons every 1 s —
        // the prefix the tuning problem shares is [0, 26.5] s.
        let c = SimConfig::paper(40, 9);
        let n = c.n_nodes;
        let straight = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1))).run();
        let mut sim = Simulator::new(c, Flooding::new(n, (0.0, 0.1)));
        sim.run_until(26.5);
        let at = sim.now();
        assert!(at <= 26.5 && at > 25.0);
        let checkpoint = sim.checkpoint();
        sim.run_to_end();
        sim.restore(&checkpoint, |p| *p = Flooding::new(n, (0.0, 0.1)));
        assert_eq!(sim.now(), at);
        let restored = sim.run_to_end();
        assert_eq!(restored.broadcast, straight.broadcast);
        assert_eq!(restored.counters, straight.counters);
    }

    #[test]
    fn run_broadcast_stops_once_the_broadcast_settles() {
        // Jittered flooding on a paper world: every forwarder fires within
        // a fraction of a second of the 30 s start, so the broadcast
        // settles long before the 40 s end.
        let c = SimConfig::paper(40, 9);
        let n = c.n_nodes;
        let straight = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1))).run();
        let mut sim = Simulator::new(c, Flooding::new(n, (0.0, 0.1)));
        assert_eq!(*sim.run_broadcast(), straight.broadcast);
        assert!(sim.stopped_before_end());
        let stopped = sim.now();
        assert!(
            stopped > 30.0 && stopped < sim.end_time(),
            "stopped at {stopped} s"
        );
        // Running on from the stop gives the full-horizon report.
        let full = sim.run_to_end();
        assert!(!sim.stopped_before_end());
        assert_eq!(full.broadcast, straight.broadcast);
        assert_eq!(full.counters, straight.counters);
        // The source's own frame is the whole broadcast without forwarders.
        let c = SimConfig::paper(40, 9);
        let mut sim = Simulator::new(c, SourceOnly);
        sim.run_broadcast();
        assert!(sim.stopped_before_end() && sim.now() < 30.1);
    }

    #[test]
    fn run_broadcast_runs_to_end_time_while_timers_are_pending() {
        // A 20–30 s forwarding jitter puts every forwarder's timer past
        // the 40 s end: the broadcast never settles, so the run stops at
        // `end_time` with the timers pending, exactly where run_to_end does.
        let c = dense_config(4);
        let n = c.n_nodes;
        let straight = Simulator::new(c.clone(), Flooding::new(n, (20.0, 30.0))).run();
        let mut sim = Simulator::new(c, Flooding::new(n, (20.0, 30.0)));
        assert_eq!(*sim.run_broadcast(), straight.broadcast);
        assert!(!sim.stopped_before_end());
        assert_eq!(straight.broadcast.forwardings, 0);
        let rest = sim.run_to_end();
        assert_eq!(rest.counters, straight.counters, "nothing was left to run");
    }

    #[test]
    #[should_panic(expected = "neighbour tables could still be read")]
    fn checkpoint_inside_the_expiry_horizon_panics() {
        // 28 s is within 2.5 s of the 30 s broadcast: a beacon observed
        // now would still be live when the protocol first reads a table.
        let c = SimConfig::paper(20, 3);
        let n = c.n_nodes;
        let mut sim = Simulator::new(c, Flooding::new(n, (0.0, 0.1)));
        sim.run_until(28.0);
        let _ = sim.checkpoint();
    }
}
