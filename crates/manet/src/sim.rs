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
//! [`WorldSpec`] — possibly **heterogeneous**:
//! several node groups with their own mobility model, placement, speed
//! range and transmit-power class — and compile into the engine through
//! [`Simulator::from_world`]. The paper's homogeneous setup is
//! [`WorldSpec::paper`](crate::world::WorldSpec::paper).
//!
//! ## Performance architecture — the incremental simulation core
//!
//! Delivery resolution — "who hears this frame?" — is the inner loop of
//! the whole reproduction (every candidate evaluation simulates 10
//! networks). The mechanisms that keep it fast:
//!
//! * a [`SpatialGrid`] over the field (cell = half the maximum radio
//!   range, see `GRID_CELL_DIVISOR`) limits each query to the cells
//!   overlapping the transmission's range disc. The grid stays exact
//!   through **event-driven cell transitions**: every node schedules a
//!   refresh at the earliest time it could cross its current cell
//!   boundary (`distance-to-edge / segment-speed`), and each refresh
//!   moves the node between cell lists in O(1). Total maintenance is
//!   proportional to actual cell crossings, not to `n` per time step.
//! * the **kinematic snapshot** ([`crate::snapshot`]): one flat
//!   cache-line record per node of its mobility segment (origin,
//!   velocity/displacement, start, arrival), refreshed in O(1) from the
//!   same mobility-change events that re-anchor the grid schedule. The
//!   incremental delivery query walks grid cells *directly* into a
//!   filter over these records (no intermediate id list, no
//!   per-candidate `dyn Mobility` dispatch) and hands each survivor's
//!   exact position and squared distance straight to the outcome test,
//!   whose arithmetic is bit-identical to the naive oracle's
//!   per-receiver test.
//! * a **log-free receive test**: each transmission precomputes
//!   squared-distance decode thresholds (the dB-domain `rx ≥ sensitivity`
//!   comparison reproduced exactly at precompute time, see
//!   [`crate::radio::PathLoss::threshold_band_sq`]), so the unshadowed
//!   decode test is a `d²` compare against the snapshot records with no
//!   `log10` per candidate; the received power of a decodable candidate
//!   is deferred until a delivery or capture comparison needs its value.
//!   Interferers likewise carry precomputed floor/gating radii
//!   ([`crate::radio::INTERFERENCE_FLOOR_DB`], shadowing tail included),
//!   so provably irrelevant terms are skipped by a squared-distance
//!   compare — the sums are unchanged because skipped terms contribute
//!   exactly zero. Shadowed links keep the dB-domain test, behind an exact
//!   **pre-cull** ([`crate::radio::ShadowCull`]): a candidate beyond the
//!   decode distance of `tx + k·σ` whose link hash bounds its Gaussian
//!   draw below `k` (one uniform, no transcendental) provably cannot
//!   decode and skips the `log10` and the Box–Muller draw. Interferers
//!   share one shadowing draw per (transmitter, receiver) pair across a
//!   frame's outcome evaluations.
//! * a **spatialised active window**
//!   ([`crate::events::SpatialActiveWindow`]): in-flight frames are
//!   bucketed by grid cell, a query gathers only the frames near its
//!   receivers (O(nearby), not O(on air) per receiver) and replays them
//!   in transmission order, so interference sums stay bit-identical to
//!   the oracle's scan of every live frame.
//! * **neighbour tables** ([`crate::neighbor`]) are per-node
//!   open-addressed slot arrays keyed by a fixed hash of the `u32` id, so
//!   writing each delivered beacon into its receiver's table — one write
//!   per reception, the hottest step outside the query in dense worlds —
//!   touches one or two cache lines and never hashes with a random state.
//! * shadowed scenarios (`shadowing_sigma_db > 0`) do not fall back to
//!   the naive O(n) receiver scan: the per-link shadowing gain is
//!   truncated at `+4σ` ([`crate::radio::SHADOW_TAIL_SIGMAS`], with an
//!   asserted error budget), which gives every transmission the finite
//!   decode range [`crate::radio::RadioConfig::max_decode_range`] the grid
//!   needs.
//! * **reach lists** ([`crate::reach`]) keep shadowed queries from
//!   sweeping that `+4σ` disc on every frame. Link gains are fixed, so
//!   the nodes that can decode a sender change only as fast as nodes
//!   move. Each sender keeps the nodes that would decode its class-power
//!   frames from [`REACH_SKIN_M`] closer, with their cached link draws,
//!   rebuilt by one sweep of the disc grown by that skin. The list serves
//!   the sender's frames at or below its power class until sender and
//!   receiver could have closed the skin at the world's top speed
//!   (`2·v_max·Δt`), and a query evaluates only its members, in ascending
//!   id order, through the same arithmetic as the sweep path. A node left
//!   off is farther than its reach plus the skin, and field reflection is
//!   1-Lipschitz, so it is still beyond its reach: the lists drop no
//!   decodable receiver. Frames above the class power sweep as before.
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
//! time into candidate-filter vs receive-outcome phases and times the
//! neighbour-table writes ([`QueryProfile`]), the breakdown `exp_scale`
//! records per `BENCH_scale.json` row.
//!
//! The simulator is also **reusable**: [`Simulator::reset_world`] re-arms
//! every pre-allocated structure (event queue, active window, neighbour
//! tables, mobility states, delivery scratch buffers) for a new world
//! without per-run heap churn — batched evaluation runs thousands of
//! simulations per optimizer generation. [`Simulator::checkpoint`] and
//! [`Simulator::restore`] go one step further: the state before the
//! broadcast does not depend on the protocol, so the tuning problem
//! simulates each network up to its broadcast once and restores that edge
//! for every candidate (see [`Checkpoint`]). At the other end,
//! [`Simulator::run_broadcast`] stops a run as soon as the broadcast has
//! settled — no protocol timer and no data frame left in flight — since
//! the broadcast metrics cannot change after that.
//!
//! [`Simulator::settle`] is the terminal form of `run_broadcast` that the
//! tuning problem evaluates with: the metrics see beacons only through the
//! neighbour tables a protocol reads, a few dozen reads per broadcast
//! against thousands of beacon receptions, so from its entry a beacon's
//! end only prunes the air and is logged, and a table read resolves the
//! reader's logged beacons with the oracle's receive test against the air
//! and positions their eager queries saw. The metrics are bit-identical;
//! the beacon counters and unread tables are not, so a settled simulator
//! is spent until a restore or reset re-arms it. `run_broadcast` stays
//! eager and continuable, the oracle `settle` is tested against.
//! [`Simulator::defer_beacons`] is `settle`'s first half: a simulator
//! deferring from before the broadcast still runs and checkpoints up to
//! the broadcast start, and the checkpoint carries the log, so every
//! candidate's restore starts deferring at the broadcast edge.

use crate::events::{EventQueue, SpatialActiveWindow};
use crate::geometry::{Field, Vec2};
use crate::grid::{CellGeometry, GridStats, PackedGrid, SpatialGrid};
use crate::metrics::{BroadcastMetrics, SimCounters};
use crate::mobility::{
    AnyMobility, KinematicSegment, Mobility, MobilityModel, RandomWalk, RandomWaypoint, Stationary,
};
use crate::neighbor::{NeighborEntry, NeighborTable, Observation};
use crate::protocol::{Protocol, ProtocolApi};
use crate::radio::{dbm_to_mw, LinkDraw, RadioConfig, ShadowCull, INTERFERENCE_FLOOR_DB};
use crate::reach::{ReachLists, REACH_SKIN_M};
use crate::snapshot::KinematicSnapshot;
use crate::sweep::{DeliverySweep, SweepStats};
use crate::world::{GroupPlacement, NodeGroup, WorldSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
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

/// What a [`Transmission`] derives from its transmit power alone: the
/// ε-inflated interference gating radius and the log-free decode and
/// floor bands. Three `powf`s plus the bands' `d = 0` checks, so the world
/// keeps one per power class ([`World::classes`]): every beacon goes out at
/// its sender's class power.
#[derive(Debug, Clone, Copy)]
struct FrameConsts {
    gate: f64,
    decode_lo_r2: f64,
    decode_hi_r2: f64,
    floor_hi_r2: f64,
}

impl FrameConsts {
    fn new(radio: &RadioConfig, tx_dbm: f64) -> Self {
        // Amortise the interference gate over every query this frame will
        // ever appear in: one `range_for` here instead of a `log10` per
        // (candidate × active frame) in the delivery loop.
        let gate = radio.interference_floor_range(tx_dbm) * (1.0 + RANGE_EPSILON) + RANGE_EPSILON;
        // Log-free decode/floor bands (exact-threshold distances with the
        // dB-domain comparison reproduced at precompute time): they buy
        // away a `log10` per candidate×frame pair in the unshadowed receive
        // tests.
        let (decode_lo_r2, decode_hi_r2) = radio
            .path_loss
            .threshold_band_sq(tx_dbm, radio.rx_sensitivity_dbm);
        let (_, floor_hi_r2) = radio
            .path_loss
            .threshold_band_sq(tx_dbm, radio.rx_sensitivity_dbm - INTERFERENCE_FLOOR_DB);
        FrameConsts {
            gate,
            decode_lo_r2,
            decode_hi_r2,
            floor_hi_r2,
        }
    }

    /// The constants of a frame sent at `tx_dbm`: its power class's entry
    /// in `classes` ([`World::classes`]), or computed afresh for any other
    /// power (the same function of the same input either way).
    fn lookup(classes: &[(u64, FrameConsts)], radio: &RadioConfig, tx_dbm: f64) -> Self {
        let bits = tx_dbm.to_bits();
        match classes.iter().find(|&&(b, _)| b == bits) {
            Some(&(_, c)) => c,
            None => FrameConsts::new(radio, tx_dbm),
        }
    }
}

impl Transmission {
    /// The frame `sender` starts at `start` from `pos`, at `tx_dbm` with
    /// that power's constants `c`.
    fn new(
        sender: NodeId,
        pos: Vec2,
        tx_dbm: f64,
        start: f64,
        duration: f64,
        kind: FrameKind,
        c: FrameConsts,
    ) -> Self {
        Transmission {
            sender,
            pos,
            tx_dbm,
            start,
            end: start + duration,
            kind,
            gate_r2: c.gate * c.gate,
            decode_lo_r2: c.decode_lo_r2,
            decode_hi_r2: c.decode_hi_r2,
            floor_hi_r2: c.floor_hi_r2,
        }
    }
}

/// Wall-time split of the delivery query, accumulated per
/// `World::compute_deliveries` call when profiling
/// is enabled ([`Simulator::set_query_profiling`]). The two phases are the
/// ones the query-side perf work optimises independently: candidate
/// *filtering* (grid walk + position filter + ordering) and the exact
/// per-receiver *outcome* tests (propagation, half-duplex, capture). The
/// profile also times what the simulator does with a delivered beacon
/// afterwards, the neighbour-table writes ([`observe_s`](Self::observe_s)).
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
    /// Seconds spent writing beacon receptions into the receivers'
    /// neighbour tables — outside the query, one write per delivered
    /// beacon.
    pub observe_s: f64,
}

/// Simulator state visible to protocols through [`ProtocolApi`].
struct World {
    /// The compiled scenario.
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
    /// Flat copy of every node's current mobility segment — the
    /// cache-friendly records the incremental delivery query evaluates
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
    /// The [`FrameConsts`] of every power class in `node_tx`, keyed by the
    /// power's bit pattern: a few entries even in heterogeneous worlds.
    classes: Vec<(u64, FrameConsts)>,
    /// Which delivery path resolves receivers (see [`DeliveryMode`]).
    mode: DeliveryMode,
    /// Whether delivery queries sample wall time into the profile.
    profile_on: bool,
    /// Beacon receptions deferred by [`Simulator::settle`] until a
    /// protocol reads a table; boxed, since runs that never settle only
    /// test its flag.
    deferred: Box<Deferred>,
}

/// The mutable state of the snapshot delivery pipeline: the batched
/// candidate sweep, the shadowed worlds' reach lists, the query scratch
/// buffers, the per-receiver shadowing cache and the accumulated
/// [`QueryProfile`]. Every field is either a pure cache of a
/// deterministic function (reach lists, shadow draws, the decode-radius
/// memo) or query-local scratch.
#[derive(Debug)]
struct QueryScratch {
    /// The batched candidate filter (fixed-width lane sweeps over the
    /// snapshot plus the per-cell event-horizon cache) driving the
    /// incremental delivery query — see [`crate::sweep`].
    sweep: DeliverySweep,
    /// Per-sender reach lists of shadowed worlds (see [`crate::reach`]):
    /// the receivers that could decode a sender's frames at or below its
    /// power class until nodes have moved [`REACH_SKIN_M`] closer.
    reach: ReachLists,
    /// Scratch: `(id, exact position, squared distance)` of candidates
    /// surviving the snapshot filter — the position and distance feed
    /// straight into the outcome test.
    filtered: Vec<(NodeId, Vec2, f64)>,
    /// One-entry memo of [`power_class`](QueryScratch::power_class)
    /// keyed by the transmit power's bit pattern: the radius and the cull
    /// cost four `powf`s between them, every delivery query needs them, and
    /// in practice transmissions cycle through a handful of power classes.
    power_memo: Option<(u64, PowerClass)>,
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
            reach: ReachLists::new(),
            filtered: Vec::new(),
            power_memo: None,
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
    /// Re-arms the scratch for `spec` on a grid of `n_cells` cells over
    /// `n_nodes` nodes, keeping allocations (but dropping every reach
    /// list).
    fn reset(&mut self, spec: &WorldSpec, n_cells: usize, n_nodes: usize) {
        self.sweep.reset(n_cells, n_nodes);
        self.reach.reset(spec, n_nodes);
        self.filtered.clear();
        self.decodable.clear();
        self.frames.clear();
        self.shadow_val.clear();
        self.shadow_val.resize(n_nodes, 0.0);
        self.shadow_stamp.clear();
        self.shadow_stamp.resize(n_nodes, 0);
        self.shadow_epoch = 0;
        self.power_memo = None;
        self.profile = QueryProfile::default();
    }

    /// The query constants of a frame sent at `tx_dbm` (see
    /// [`PowerClass`]).
    fn power_class(&mut self, radio: &RadioConfig, tx_dbm: f64) -> PowerClass {
        let bits = tx_dbm.to_bits();
        match self.power_memo {
            Some((memo_bits, class)) if memo_bits == bits => class,
            _ => {
                let class = PowerClass {
                    decode_r: radio.max_decode_range(tx_dbm) * (1.0 + RANGE_EPSILON)
                        + RANGE_EPSILON,
                    cull: ShadowCull::new(
                        radio.path_loss,
                        tx_dbm,
                        radio.shadowing_sigma_db,
                        radio.rx_sensitivity_dbm,
                    ),
                };
                self.power_memo = Some((bits, class));
                class
            }
        }
    }
}

/// What a delivery query derives from the frame's transmit power alone.
#[derive(Debug, Clone, Copy)]
struct PowerClass {
    /// The finite radius within which the frame can possibly be decoded:
    /// the bounded-tail decode range (shadowing gain truncated at `+4σ`)
    /// inflated against floating-point rounding at the exact boundary.
    decode_r: f64,
    /// The shadowed decode test's pre-cull (culls nothing unshadowed).
    cull: ShadowCull,
}

/// Slack (m) of the lazy resolution's distance pre-filter, on top of the
/// decode range and the reader's worst-case drift since the beacon: the
/// drift bound is exact up to floating-point rounding, which a metre
/// covers many times over (the same margin `hd_reach` adds).
const DRIFT_SLACK_M: f64 = 1.0;

/// The beacon receptions deferred from [`Simulator::defer_beacons`] (which
/// [`Simulator::settle`] calls on entry) until a protocol reads the
/// receiver's table.
///
/// From entry, a beacon's `TxEnd` only prunes the air and logs the beacon
/// here. A read of node `r`'s table first resolves, for `r` alone, the
/// logged beacons it has not resolved yet and that the read filter could
/// still return, oldest first, each with the oracle's exact receive test
/// ([`receive_outcome`]) against what the eager query saw:
///
/// * **the air**: the logged frames that overlap the beacon and end after
///   the prune floor in force at its query (the running maximum of every
///   query start since entry), in insertion order — exactly the frames of
///   `World::live` that overlap it when its `TxEnd` ran;
/// * **the receiver**: its position at the beacon's end under the mobility
///   version current at the beacon's dispatch, which the
///   `MobilityChange`s since entry keep as replaced versions, each tagged
///   with the number of beacons logged before it was replaced.
///
/// The table then sees the same observations, at the same times and in
/// the same order per sender, as the eager path writes; the ones it
/// skips either were not decoded or are older than the read expiry, so
/// no later read could return them. Everything is dropped once no read
/// can need it, so the logs hold about one read window of beacons and
/// frames, however long the run. A checkpoint taken while deferring
/// carries the log in compact form ([`DeferredLog`]).
#[derive(Debug, Default)]
struct Deferred {
    /// Whether beacons are deferred: from `defer_beacons` until `settle`
    /// returns or a reset or restore re-arms the simulator.
    on: bool,
    /// Whether `settle` has returned: the simulator is spent until a reset
    /// or restore re-arms it.
    spent: bool,
    /// The running prune floor since entry: the latest start any delivery
    /// query pruned the air at. Frames live at entry end after every
    /// earlier floor, so `start` setting it to −∞ is exact.
    floor: f64,
    /// Every frame live at entry or started since, in start order;
    /// `frames[i]` has sequence number `frames_base + i`.
    frames: VecDeque<Transmission>,
    frames_base: u64,
    /// The beacons ended since entry, in dispatch order; `beacons[i]` has
    /// sequence number `beacons_base + i`.
    beacons: VecDeque<DeferredBeacon>,
    beacons_base: u64,
    /// Per node: the sequence number of the first beacon not yet resolved
    /// into its table.
    cursor: Vec<u64>,
    /// Per node: the sequence number of its latest logged beacon, or
    /// [`NO_BEACON`]; each beacon links to its sender's previous one, so a
    /// read visits only the beacons of the senders near the reader.
    last: Vec<u64>,
    /// How much farther apart than its decode range a sender and a reader
    /// can be now, if the reader decoded one of the sender's beacons that
    /// a read can still return (see `World::deferral_bounds`).
    sender_drift: f64,
    /// The largest decode range of any beacon, the `+4σ` tail included.
    max_decode_r: f64,
    /// Scratch: the beacons one read resolves, by sequence number, with
    /// their link's decode range and `u1` draw.
    pending: Vec<(u64, f64, f64)>,
    /// Per node: the mobility versions replaced since entry that a logged
    /// beacon may still need, oldest first, each tagged with the sequence
    /// number the next beacon logged after the replacement gets. Beacon
    /// `s` ended under the oldest version tagged above `s`, or under the
    /// current one.
    replaced: Vec<Vec<(u64, AnyMobility)>>,
}

/// The `last`/`prev` link of a node without a logged beacon.
const NO_BEACON: u64 = u64::MAX;

/// A beacon logged by [`Deferred`].
#[derive(Debug, Clone, Copy)]
struct DeferredBeacon {
    /// Sequence number of its frame in [`Deferred::frames`].
    frame: u64,
    /// The prune floor of its query, its own start included.
    floor: f64,
    /// Sequence number of its sender's previous logged beacon, or
    /// [`NO_BEACON`]. A link below `beacons_base` points at a dropped
    /// beacon and is never followed.
    prev: u64,
}

/// A checkpoint's copy of the [`Deferred`] log, taken before the
/// broadcast. Every frame in it is then a beacon at its sender's power
/// class that started at its sender's position, and every beacon ended in
/// log order, so it keeps only what restore cannot derive:
///
/// * each frame's sender and start; its position is its sender's
///   current segment evaluated at the start
///   ([`KinematicSnapshot::position`]) whenever that reproduces it bit for
///   bit, which it does unless the sender's segment changed since, and is
///   kept otherwise; the rest of the [`Transmission`] follows from the
///   power;
/// * the logged beacons as a range of frames;
/// * the oldest beacon's prune floor: a later one's is the running
///   maximum of it and the later beacons' starts, since nothing but a
///   beacon's end prunes the air before the broadcast;
/// * the replaced mobility versions a logged beacon may still need.
///
/// The per-node links and cursors are rebuilt.
#[derive(Debug, Clone)]
struct DeferredLog {
    floor: f64,
    /// The prune floor of the oldest logged beacon.
    first_floor: f64,
    senders: Vec<u32>,
    starts: Vec<f64>,
    /// `(index, position)` of each frame whose position its sender's
    /// current segment does not reproduce, in log order.
    moved: Vec<(u32, Vec2)>,
    frames_base: u64,
    /// The logged beacons are the frames `first_beacon..first_beacon +
    /// n_beacons`, oldest first.
    first_beacon: u32,
    n_beacons: u32,
    beacons_base: u64,
    /// `(node, tag, version)` of the replaced mobility versions a logged
    /// beacon may still need.
    replaced: Vec<(u32, u64, AnyMobility)>,
}

impl Deferred {
    /// Starts deferring over `n_nodes` nodes with `live` on the air (see
    /// the fields for `sender_drift` and `max_decode_r`).
    fn start(
        &mut self,
        n_nodes: usize,
        live: &[Transmission],
        sender_drift: f64,
        max_decode_r: f64,
    ) {
        self.release();
        self.on = true;
        self.spent = false;
        self.sender_drift = sender_drift;
        self.max_decode_r = max_decode_r;
        self.floor = f64::NEG_INFINITY;
        self.frames.extend(live.iter().copied());
        self.frames_base = 0;
        self.beacons_base = 0;
        self.cursor.resize(n_nodes, 0);
        self.last.resize(n_nodes, NO_BEACON);
        self.replaced.resize_with(n_nodes, Vec::new);
    }

    /// Stops deferring, for a reset or the restore of a checkpoint taken
    /// eagerly.
    fn stop(&mut self) {
        if self.on {
            self.release();
        }
        self.on = false;
        self.spent = false;
    }

    /// Frees the logs once `settle` has returned: nothing can read a
    /// table of a spent simulator, and an idle pooled simulator should
    /// not hold a read window.
    fn release(&mut self) {
        self.frames = VecDeque::new();
        self.beacons = VecDeque::new();
        self.cursor = Vec::new();
        self.last = Vec::new();
        self.pending = Vec::new();
        self.replaced = Vec::new();
    }

    /// The logged frame with sequence number `seq`.
    fn frame(&self, seq: u64) -> &Transmission {
        &self.frames[(seq - self.frames_base) as usize]
    }

    /// Logs the beacon `tx` whose `TxEnd` runs now, at `now`, after its
    /// query's prune, and drops what no read at `now` or later can need.
    fn log_beacon(&mut self, tx: &Transmission, now: f64, expiry: f64) {
        // The frame was logged when it started (or was on the air at
        // entry); starts are sorted, and a node starts one beacon at a time.
        let from = self.frames.partition_point(|o| o.start < tx.start);
        let offset = self
            .frames
            .range(from..)
            .position(|o| o.sender == tx.sender && o.kind == FrameKind::Beacon)
            .expect("a beacon ending while deferred was logged when it started");
        let seq = self.beacons_base + self.beacons.len() as u64;
        self.beacons.push_back(DeferredBeacon {
            frame: self.frames_base + (from + offset) as u64,
            floor: self.floor,
            prev: std::mem::replace(&mut self.last[tx.sender], seq),
        });
        // Reads filter on `now − end <= expiry` and happen at `now` or
        // later: an older beacon can never be returned again.
        while let Some(b) = self.beacons.front() {
            if now - self.frame(b.frame).end <= expiry {
                break;
            }
            self.beacons.pop_front();
            self.beacons_base += 1;
        }
        // Every retained or future beacon has a floor at least the oldest
        // retained one's and reads only frames ending after its floor. A
        // retained beacon's own frame ends after its floor, so it stays.
        let floor = self.beacons.front().map_or(self.floor, |b| b.floor);
        while self.frames.front().is_some_and(|o| o.end < floor) {
            self.frames.pop_front();
            self.frames_base += 1;
        }
    }

    /// Keeps `old`, the mobility version of `node` that the
    /// `MobilityChange` dispatched now replaces, for the logged beacons
    /// that ended under it.
    #[cold]
    #[inline(never)]
    fn replace(&mut self, node: NodeId, old: &AnyMobility) {
        let versions = &mut self.replaced[node];
        // A version replaced before the oldest logged beacon's dispatch is
        // no beacon's; and with no beacon logged, neither is this one.
        if self.beacons.is_empty() {
            versions.clear();
            return;
        }
        let oldest = self.beacons_base;
        versions.retain(|&(tag, _)| tag > oldest);
        versions.push((oldest + self.beacons.len() as u64, old.clone()));
    }

    /// The log in a checkpoint's compact form (see [`DeferredLog`]):
    /// taken before the broadcast, when every logged frame is a beacon at
    /// its sender's class power (`node_tx`) lasting `beacon_duration` and
    /// no protocol has read a table. `snapshot` holds the current segments.
    fn compact(
        &self,
        node_tx: &[f64],
        beacon_duration: f64,
        snapshot: &KinematicSnapshot,
    ) -> DeferredLog {
        debug_assert!(self.frames.iter().all(|o| o.kind == FrameKind::Beacon
            && o.tx_dbm.to_bits() == node_tx[o.sender].to_bits()
            && o.end == o.start + beacon_duration));
        debug_assert!(self.cursor.iter().all(|&c| c == 0), "no table was read");
        let index = |seq: u64| u32::try_from(seq - self.frames_base).expect("frames fit u32");
        let first_beacon = self.beacons.front().map_or(0, |b| index(b.frame));
        debug_assert!(
            (first_beacon..)
                .zip(&self.beacons)
                .all(|(i, b)| index(b.frame) == i),
            "beacons end in log order"
        );
        let same =
            |a: Vec2, b: Vec2| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits();
        let moved = (0..)
            .zip(&self.frames)
            .filter(|(_, o)| !same(snapshot.position(o.sender, o.start), o.pos))
            .map(|(i, o)| (i, o.pos));
        let oldest = self.beacons_base;
        let replaced = self
            .replaced
            .iter()
            .enumerate()
            .flat_map(|(node, versions)| {
                // Only a version tagged above the oldest logged beacon can be
                // a logged beacon's (with none logged, no tag is above it).
                versions
                    .iter()
                    .filter(move |&&(tag, _)| tag > oldest)
                    .map(move |(tag, m)| (node as u32, *tag, m.clone()))
            });
        let log = DeferredLog {
            floor: self.floor,
            first_floor: self.beacons.front().map_or(self.floor, |b| b.floor),
            senders: self.frames.iter().map(|o| o.sender as u32).collect(),
            starts: self.frames.iter().map(|o| o.start).collect(),
            moved: moved.collect(),
            frames_base: self.frames_base,
            first_beacon,
            n_beacons: u32::try_from(self.beacons.len()).expect("beacons fit u32"),
            beacons_base: self.beacons_base,
            replaced: replaced.collect(),
        };
        debug_assert!(
            log.floors().zip(&self.beacons).all(|(f, b)| f == b.floor),
            "the prune floors follow from the log order"
        );
        log
    }

    /// Re-arms deferral from a checkpoint's `log` (see
    /// [`compact`](Self::compact)), whose frames `frames` rebuilds in log
    /// order.
    fn restore(
        &mut self,
        log: &DeferredLog,
        n_nodes: usize,
        (sender_drift, max_decode_r): (f64, f64),
        frames: impl Iterator<Item = Transmission>,
    ) {
        self.start(n_nodes, &[], sender_drift, max_decode_r);
        self.floor = log.floor;
        self.frames_base = log.frames_base;
        self.beacons_base = log.beacons_base;
        // The logs stay about one read window long, as many entries
        // dropped as logged, plus the broadcast's data frames: a quarter
        // more room keeps them from doubling their capacity mid-run.
        let headroom = |len: usize| len + len / 4 + 8;
        self.frames.reserve_exact(headroom(log.senders.len()));
        self.beacons.reserve_exact(headroom(log.n_beacons as usize));
        self.frames.extend(frames);
        let first = log.first_beacon as usize;
        let seqs = log.beacons_base..;
        for ((seq, i), floor) in seqs.zip(first..).zip(log.floors()) {
            let sender = log.senders[i] as usize;
            self.beacons.push_back(DeferredBeacon {
                frame: log.frames_base + i as u64,
                floor,
                prev: std::mem::replace(&mut self.last[sender], seq),
            });
        }
        for (node, tag, m) in &log.replaced {
            self.replaced[*node as usize].push((*tag, m.clone()));
        }
    }
}

impl DeferredLog {
    /// The prune floor of every logged beacon, oldest first.
    fn floors(&self) -> impl Iterator<Item = f64> + '_ {
        let first = self.first_beacon as usize;
        let starts = &self.starts[first..first + self.n_beacons as usize];
        let mut floor = self.first_floor;
        starts.iter().enumerate().map(move |(k, &start)| {
            if k > 0 {
                floor = floor.max(start);
            }
            floor
        })
    }

    /// Every logged frame's sender, start and position, in log order, with
    /// `snapshot` holding the segments current when the log was taken.
    fn frames<'a>(
        &'a self,
        snapshot: &'a KinematicSnapshot,
    ) -> impl Iterator<Item = (NodeId, f64, Vec2)> + 'a {
        let mut moved = self.moved.iter().peekable();
        (0..)
            .zip(self.senders.iter().zip(&self.starts))
            .map(move |(i, (&sender, &start))| {
                let sender = sender as NodeId;
                let pos = match moved.next_if(|&&(j, _)| j == i) {
                    Some(&(_, pos)) => pos,
                    None => snapshot.position(sender, start),
                };
                (sender, start, pos)
            })
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
            classes: Vec::new(),
            mode: DeliveryMode::default(),
            profile_on: false,
            deferred: Box::default(),
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
        // `validate` caps the node count below `u32::MAX`, which makes
        // every `node as u32` of an `Event` and a neighbour table lossless.
        let n_nodes = spec.n_nodes();
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
        self.deferred.stop();
        // Per-node vectors are sized to the node count, not to the next
        // power of two pushes would grow them to; a reused simulator keeps
        // whatever capacity it already has.
        self.mobility.clear();
        self.mobility.reserve_exact(n_nodes);
        self.node_tx.clear();
        self.node_tx.reserve_exact(n_nodes);
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
                            model_speeds(group),
                            change_interval,
                            0.0,
                            &mut self.rng,
                        ))
                    }
                    MobilityModel::RandomWaypoint { pause } => {
                        AnyMobility::Waypoint(RandomWaypoint::new(
                            spec.field,
                            start,
                            model_speeds(group),
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
        self.memo_power_classes();

        // Initial placement of the spatial index and of the kinematic
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
        self.refresh_gen.reserve_exact(n);
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
        self.tables.reserve_exact(n_nodes - self.tables.len());
        self.tables.resize_with(n_nodes, NeighborTable::new);
    }

    /// Re-arms the delivery pipeline's [`QueryScratch`] for the current
    /// world, grid and node count. This drops every cached sweep event
    /// horizon and reach list along with the accumulated [`QueryProfile`]
    /// and [`SweepStats`].
    fn reset_query_scratch(&mut self) {
        self.scratch
            .reset(&self.spec, self.grid.geometry().n_cells(), self.n_nodes);
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
    /// changed: refreshes the node's snapshot record in O(1) (the
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

    /// Fills [`classes`](World::classes) from the power classes in
    /// `node_tx`.
    fn memo_power_classes(&mut self) {
        self.classes.clear();
        for &tx in &self.node_tx {
            if !self.classes.iter().any(|&(b, _)| b == tx.to_bits()) {
                let c = FrameConsts::new(&self.spec.radio, tx);
                self.classes.push((tx.to_bits(), c));
            }
        }
    }

    fn start_transmission(&mut self, node: NodeId, tx_dbm: f64, kind: FrameKind) {
        let now = self.queue.now();
        let duration = match kind {
            FrameKind::Beacon => self.spec.radio.beacon_duration,
            FrameKind::Data => self.spec.radio.data_duration,
        };
        let c = FrameConsts::lookup(&self.classes, &self.spec.radio, tx_dbm);
        let pos = self.snapshot.position(node, now);
        let tx = Transmission::new(node, pos, tx_dbm, now, duration, kind, c);
        match kind {
            FrameKind::Beacon => self.counters.beacons_sent += 1,
            FrameKind::Data => {
                self.counters.data_sent += 1;
                self.protocol_pending += 1;
                self.metrics.record_transmission(node, tx_dbm);
            }
        }
        self.max_gate_r = self.max_gate_r.max(c.gate);
        self.live.push(tx);
        self.frames.insert(kind.lane(), tx.end, tx.pos, tx);
        if self.deferred.on {
            self.deferred.frames.push_back(tx);
        }
        let slot = self.in_flight.insert(tx);
        self.queue.schedule(tx.end, Event::TxEnd(slot));
    }

    /// Resolves the beacons deferred since [`Simulator::settle`]'s entry
    /// into `reader`'s table before a read (see [`Deferred`]): those it
    /// has not resolved yet that the read filter could still return,
    /// oldest first.
    ///
    /// Conservative distance checks come first. A receiver that decoded a
    /// beacon sat within the link's decode range of the beacon's position
    /// at its end: the power class's range, or under shadowing the
    /// narrower one the link's draw allows ([`ShadowCull::decode_bound_sq`]).
    /// Since then it has moved at most `max_speed` per second, and so has
    /// the sender. So the grid sweep gathers only the senders near the
    /// reader now, and a beacon whose position is farther from the reader
    /// than that range plus the reader's drift is skipped. Then the exact
    /// position, the log-free decode band (unshadowed) or the shadow
    /// pre-cull, and the oracle's receive test. Skipped beacons are never
    /// revisited: they could not have been decoded.
    fn resolve_deferred(&mut self, reader: NodeId) {
        let d = &mut self.deferred;
        let end = d.beacons_base + d.beacons.len() as u64;
        let first = d.cursor[reader].max(d.beacons_base);
        d.cursor[reader] = end;
        if first == end {
            return;
        }
        let now = self.queue.now();
        let expiry = self.spec.neighbor_expiry;
        let radio = &self.spec.radio;
        let seed = self.spec.seed;
        let sigma = radio.shadowing_sigma_db;
        let max_duration = radio.beacon_duration.max(radio.data_duration);
        let here = self.mobility[reader].position(now);
        // The beacons of the senders near the reader, in log order. A
        // sender farther than its link's decode range plus `sender_drift`
        // now cannot have reached it (see `Simulator::settle`). Under
        // shadowing the link's draw bounds its gain (`ShadowCull`), so the
        // range is usually the link's own rather than the `+4σ` one.
        let mut near = std::mem::take(&mut self.scratch.filtered);
        near.clear();
        self.scratch.sweep.filter_into(
            &self.grid,
            &self.snapshot,
            here,
            now,
            d.max_decode_r + d.sender_drift,
            GRID_BUCKET_SLACK_M,
            &mut near,
        );
        d.pending.clear();
        for &(sender, _, d2) in &near {
            if sender == reader {
                continue;
            }
            let class = self.scratch.power_class(radio, self.node_tx[sender]);
            let u1 = if sigma > 0.0 {
                LinkDraw::new(seed, sender, reader).u1
            } else {
                0.0
            };
            let link_r = class
                .cull
                .decode_bound_sq(u1)
                .map_or(class.decode_r, f64::sqrt);
            let reach = link_r + d.sender_drift;
            if d2 > reach * reach {
                continue;
            }
            let mut seq = d.last[sender];
            while seq != NO_BEACON && seq >= first {
                d.pending.push((seq, link_r, u1));
                seq = d.beacons[(seq - d.beacons_base) as usize].prev;
            }
        }
        self.scratch.filtered = near;
        d.pending.sort_unstable_by_key(|&(seq, _, _)| seq);
        let d = &self.deferred;
        for &(seq, link_r, u1) in &d.pending {
            let b = &d.beacons[(seq - d.beacons_base) as usize];
            let tx = d.frame(b.frame);
            if now - tx.end > expiry {
                continue;
            }
            let reach = link_r + self.max_speed * (now - tx.end) + DRIFT_SLACK_M;
            if tx.pos.distance_sq(here) > reach * reach {
                continue;
            }
            // The version current at the beacon's dispatch: the oldest one
            // replaced after it, or the current one.
            let mobility = d.replaced[reader]
                .iter()
                .find(|&&(tag, _)| tag > seq)
                .map_or(&self.mobility[reader], |(_, m)| m);
            let rpos = mobility.position(tx.end);
            let d2 = tx.pos.distance_sq(rpos);
            let culled = if sigma <= 0.0 {
                d2 > tx.decode_hi_r2
            } else {
                self.scratch
                    .power_class(radio, tx.tx_dbm)
                    .cull
                    .culls(d2, u1)
            };
            if culled {
                continue;
            }
            // The frames of the beacon's query that can overlap it: no
            // frame starting `max_duration` or more before it reaches its
            // start, none starting at or after its end overlaps it. A frame
            // beyond its gating radius adds nothing to the oracle's sum
            // (it is below the interference floor), so only the reader's
            // own frames, which decide half duplex, pass from out there.
            let from = d
                .frames
                .partition_point(|o| o.start + max_duration <= tx.start);
            let air = d
                .frames
                .range(from..)
                .take_while(|o| o.start < tx.end)
                .filter(|o| o.end > b.floor)
                .filter(|o| o.sender == reader || o.pos.distance_sq(rpos) <= o.gate_r2);
            if let Reception::Delivered(rx_dbm) =
                receive_outcome(radio, seed, self.capture_ratio_mw, tx, reader, rpos, air)
            {
                self.tables[reader].observe(tx.sender, rx_dbm, tx.end, expiry);
            }
        }
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

    /// A beacon's `TxEnd` while deferring ([`Simulator::defer_beacons`]):
    /// later queries must see the air its query would have left, and its
    /// receivers wait for a read (see [`Deferred`]). Kept out of line: runs
    /// that never defer never call it.
    #[cold]
    #[inline(never)]
    fn defer_beacon(&mut self, tx: &Transmission) {
        self.prune_air(tx.start);
        let now = self.queue.now();
        self.deferred.log_beacon(tx, now, self.spec.neighbor_expiry);
    }

    /// The `(sender_drift, max_decode_r)` of a [`Deferred`] log in this
    /// world. A reader decoded a beacon within the link's decode range of
    /// its sender's position at its start; both have moved at most
    /// `max_speed` per second since, for at most the read expiry plus the
    /// beacon.
    fn deferral_bounds(&mut self) -> (f64, f64) {
        let radio = &self.spec.radio;
        let drift = 2.0 * self.max_speed * (self.spec.neighbor_expiry + radio.beacon_duration);
        let max_decode_r = self
            .scratch
            .power_class(radio, self.spec.max_tx_dbm())
            .decode_r;
        (drift + DRIFT_SLACK_M, max_decode_r)
    }

    /// Drops the transmissions that ended at or before `start`, the start
    /// of the frame being queried: they can no longer overlap it — nor any
    /// future frame, since simulation time is monotone. Both views of the
    /// air are pruned at the same threshold, and the deferred beacons'
    /// prune floor follows it.
    fn prune_air(&mut self, start: f64) {
        self.live.retain(|o| o.end > start);
        self.frames.prune(start);
        self.deferred.floor = self.deferred.floor.max(start);
    }

    /// Successful receivers of `tx` under propagation, half-duplex and
    /// capture rules, appended to `out` as `(node, rx_dbm)` in ascending
    /// node order. Both [`DeliveryMode`]s run the same exact per-receiver
    /// arithmetic, so they produce identical results.
    fn compute_deliveries(&mut self, tx: &Transmission, out: &mut Vec<(NodeId, f64)>) {
        let t_start = self.profile_on.then(Instant::now);
        self.prune_air(tx.start);
        match self.mode {
            DeliveryMode::Incremental => self.compute_deliveries_snapshot(tx, out, t_start),
            DeliveryMode::Naive => self.compute_deliveries_naive(tx, out, t_start),
        }
    }

    /// The optimised delivery query (the default [`DeliveryMode`]):
    /// iterates the grid cells overlapping the decode disc directly into a
    /// filter over the kinematic snapshot — no intermediate id list,
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
    ///    per-link draw; a frame at or below its sender's power class
    ///    takes its candidates, and their link draws, from the sender's
    ///    reach list ([`crate::reach`]) instead of the disc sweep.
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
        let class = s.power_class(radio, tx.tx_dbm);
        let r = class.decode_r;
        let t = tx.end;
        // Shadowed frames at or below the sender's power class are
        // resolved against its reach list, rebuilt here once it has
        // expired (see `crate::reach` for the exactness argument); every
        // other frame sweeps its whole decode disc.
        let class_dbm = self.node_tx[tx.sender];
        let listed = s.reach.enabled() && tx.tx_dbm <= class_dbm;
        // Buckets are exact up to the refresh slack; stored positions may
        // be older than the bucket, so the sweep walks whole cells
        // (inflated by the slack) and filters on *current* exact positions
        // from the records — batched into fixed-width chunk kernels, and
        // skipping cells its event-horizon cache proves out of reach (see
        // `crate::sweep` for the bit-exactness argument).
        if !listed {
            s.sweep.filter_into(
                &self.grid,
                &self.snapshot,
                tx.pos,
                t,
                r,
                GRID_BUCKET_SLACK_M,
                &mut filtered,
            );
        } else {
            if !s.reach.is_live(tx.sender, t) {
                let reach = s.power_class(radio, class_dbm);
                s.sweep.filter_into(
                    &self.grid,
                    &self.snapshot,
                    tx.pos,
                    t,
                    reach.decode_r + REACH_SKIN_M,
                    GRID_BUCKET_SLACK_M,
                    &mut filtered,
                );
                s.reach
                    .rebuild(tx.sender, tx.start, class_dbm, &reach.cull, &filtered);
                filtered.clear();
            }
            s.reach
                .positions_into(tx.sender, &self.snapshot, tx.pos, t, &mut filtered);
        }
        // Ascending node order: delivery order feeds protocol callbacks
        // (and their RNG draws), so every mode must match the naive scan.
        // The sweep evaluates its gathered ids in sorted order, and reach
        // lists keep that order, so the survivors arrive exactly as the
        // historical post-filter sort left them.
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
        } else if listed {
            // The same cull and received-power arithmetic as below, with
            // the link draws the list cached (the sender is never listed).
            let members = s.reach.members(tx.sender);
            debug_assert_eq!(members.len(), filtered.len());
            for (&(i, p, d2), m) in filtered.iter().zip(members) {
                if class.cull.culls(d2, m.u1) {
                    continue;
                }
                let rx = pl.rx_dbm(tx.tx_dbm, d2.sqrt()) + m.shadowing_db;
                if rx >= sens {
                    decodable.push((i, p, d2, rx));
                }
            }
        } else {
            for &(i, p, d2) in &filtered {
                if i == tx.sender {
                    continue;
                }
                let draw = LinkDraw::new(seed, tx.sender, i);
                if class.cull.culls(d2, draw.u1) {
                    // provably below sensitivity without the `log10` or
                    // the draw (see `ShadowCull`): the oracle's OutOfRange
                    // branch
                    continue;
                }
                let rx = pl.rx_dbm(tx.tx_dbm, d2.sqrt()) + draw.shadowing_db(sigma);
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
            // Receiver position sampled at frame end (= now): frames last
            // milliseconds while nodes move at ≤ 2 m/s, so start-vs-end
            // sampling differs by millimetres — but `now` is always ahead
            // of any mobility-segment origin, keeping queries monotone.
            let rpos = self.position(r, tx.end);
            let outcome = receive_outcome(
                &self.spec.radio,
                self.spec.seed,
                self.capture_ratio_mw,
                tx,
                r,
                rpos,
                &self.live,
            );
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

/// The speed range `group`'s mobility model draws from: a waypoint leg
/// needs a positive speed.
fn model_speeds(group: &NodeGroup) -> (f64, f64) {
    match group.mobility {
        MobilityModel::RandomWaypoint { .. } => {
            (group.speed_range.0.max(0.1), group.speed_range.1.max(0.2))
        }
        MobilityModel::RandomWalk { .. } | MobilityModel::Stationary => group.speed_range,
    }
}

/// Whether every node's model in `mobility` is its group's model in
/// `spec` resumed on the node's segment ([`AnyMobility::resume`]), to the
/// bit.
fn resumes_exactly(spec: &WorldSpec, mobility: &[AnyMobility]) -> bool {
    let mut nodes = mobility.iter();
    spec.groups.iter().all(|g| {
        nodes.by_ref().take(g.n).all(|m| {
            let resumed =
                AnyMobility::resume(g.mobility, spec.field, model_speeds(g), &m.segment());
            format!("{resumed:?}") == format!("{m:?}")
        })
    })
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

/// The oracle's exact delivery test of `tx` at receiver `r`, at `rpos` at
/// the frame's end, under propagation, half-duplex and capture rules
/// against the frames on the `air` in transmission order (the frame
/// itself may be among them). The naive oracle passes every live frame,
/// the deferred beacon resolution the logged frames of the beacon's query
/// ([`Deferred`]);
/// [`compute_deliveries_snapshot`](World::compute_deliveries_snapshot)
/// reproduces its arithmetic bit for bit. `capture_ratio` is
/// `dbm_to_mw(radio.capture_db)` ([`World::capture_ratio_mw`]).
fn receive_outcome<'a>(
    radio: &RadioConfig,
    seed: u64,
    capture_ratio: f64,
    tx: &Transmission,
    r: NodeId,
    rpos: Vec2,
    air: impl IntoIterator<Item = &'a Transmission>,
) -> Reception {
    let pl = radio.path_loss;
    let sens = radio.rx_sensitivity_dbm;
    let sigma = radio.shadowing_sigma_db;
    let rx_dbm = pl.rx_dbm(tx.tx_dbm, tx.pos.distance(rpos))
        + crate::radio::link_shadowing_db(sigma, seed, tx.sender, r);
    if rx_dbm < sens {
        return Reception::OutOfRange;
    }
    // Half duplex: a node that transmitted during the frame loses it.
    let mut interference_mw = 0.0;
    for o in air {
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

    fn neighbors(&mut self, node: NodeId) -> Vec<NeighborEntry> {
        let mut out = Vec::new();
        self.neighbors_into(node, &mut out);
        out
    }

    fn neighbors_into(&mut self, node: NodeId, out: &mut Vec<NeighborEntry>) {
        if self.deferred.on {
            self.resolve_deferred(node);
        }
        self.tables[node].live_into(
            self.queue.now(),
            self.spec.neighbor_expiry,
            &self.node_tx,
            out,
        );
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
/// Construction allocates; [`Simulator::reset_world`] re-arms the same
/// instance for another run (same or different world) without heap churn —
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
/// tuning problem keeps one checkpoint per network for its whole life, at
/// the broadcast edge (the instant before the broadcast), taken while
/// deferring beacons ([`Simulator::defer_beacons`]): every candidate
/// restores it and [settles](Simulator::settle) only its broadcast.
///
/// A checkpoint holds only what restore cannot derive, so that one per
/// network can stay alive (≈ 5.2/9.4/13.6 KiB at the edge of a
/// 25/50/75-node paper world):
///
/// * The neighbour tables keep only the entries still live at
///   `broadcast_time`, the first instant a protocol can read a table,
///   stored flat as 24-byte [`Observation`]s (one `Vec` plus per-node
///   ends); restore refills the target's existing tables from them in
///   place. This is exact:
///   the read filter `now − last_seen <= neighbor_expiry` is monotone in
///   `now`, so an entry that fails it at the broadcast fails it at every
///   later read, and readers only see the filtered, id-sorted output. A
///   checkpoint taken before `broadcast_time − neighbor_expiry` therefore
///   holds no entries, and one taken exactly there only beacons received
///   at that very instant. While deferring, the beacons a read could still
///   return wait in the deferred log instead, which a checkpoint keeps in
///   compact form (about 12 bytes per beacon, see `DeferredLog`); restore
///   defers from it.
/// * The event queue as a packed list in pop order, renumbered on
///   restore; the grid's buckets as one array; each node's mobility as its
///   segment, which with its group's model is all of its state
///   ([`AnyMobility::resume`]).
/// * The kinematic snapshot: it always mirrors the mobility segments
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
    queue: QueuedEvents,
    in_flight: InFlight,
    /// Every node's mobility segment: with its group's model, all of its
    /// mobility state ([`AnyMobility::resume`]).
    segments: Vec<KinematicSegment>,
    /// Every node's neighbour entries live at the broadcast, node by node.
    neighbors: Vec<Observation>,
    /// Node `i`'s entries are `neighbors[neighbor_ends[i - 1]..neighbor_ends[i]]`,
    /// starting at 0 for node 0.
    neighbor_ends: Vec<u32>,
    rng: SmallRng,
    live: Vec<Transmission>,
    frames: SpatialActiveWindow<Transmission>,
    counters: SimCounters,
    grid: PackedGrid,
    refresh_gen: Vec<u32>,
    refresh_events: u64,
    max_gate_r: f64,
    hd_reach: f64,
    capture_ratio_mw: f64,
    classes: Vec<(u64, FrameConsts)>,
    /// The beacons deferred since [`Simulator::defer_beacons`], when the
    /// checkpoint was taken while deferring.
    deferred: Option<DeferredLog>,
}

/// A checkpoint's event queue, packed: the events in pop order, each a
/// time, a kind and a node or slot id, plus the generation of every grid
/// refresh. A protocol timer cannot be queued before the broadcast, so
/// every event a checkpoint holds fits, in about 14 bytes instead of a
/// 32-byte queue entry. Restore renumbers them in that order
/// ([`EventQueue::refill_in_order`]), which keeps every tie as it was.
#[derive(Debug, Clone)]
struct QueuedEvents {
    now: f64,
    times: Vec<f64>,
    kinds: Vec<QueuedKind>,
    ids: Vec<u32>,
    /// The generation of each grid refresh, in order.
    gens: Vec<u32>,
}

/// The [`Event`] variant of a [`QueuedEvents`] entry.
#[derive(Debug, Clone, Copy)]
enum QueuedKind {
    Beacon,
    MobilityChange,
    TxEnd,
    StartBroadcast,
    GridRefresh,
}

impl QueuedEvents {
    fn pack(queue: &EventQueue<Event>) -> Self {
        let events = queue.in_order();
        let mut packed = QueuedEvents {
            now: queue.now(),
            times: Vec::with_capacity(events.len()),
            kinds: Vec::with_capacity(events.len()),
            ids: Vec::with_capacity(events.len()),
            gens: Vec::new(),
        };
        for (time, &ev) in events {
            let (kind, id) = match ev {
                Event::Beacon(node) => (QueuedKind::Beacon, node),
                Event::MobilityChange(node) => (QueuedKind::MobilityChange, node),
                Event::TxEnd(slot) => (QueuedKind::TxEnd, slot),
                Event::StartBroadcast(node) => (QueuedKind::StartBroadcast, node),
                Event::GridRefresh { node, gen } => {
                    packed.gens.push(gen);
                    (QueuedKind::GridRefresh, node)
                }
                Event::Timer { .. } => unreachable!("no protocol timer before the broadcast"),
            };
            packed.times.push(time);
            packed.kinds.push(kind);
            packed.ids.push(id);
        }
        packed.gens.shrink_to_fit();
        packed
    }

    /// Replaces `queue`'s events and clock with these.
    fn unpack_into(&self, queue: &mut EventQueue<Event>) {
        let mut gens = self.gens.iter();
        let events = self
            .kinds
            .iter()
            .zip(&self.ids)
            .map(|(kind, &id)| match kind {
                QueuedKind::Beacon => Event::Beacon(id),
                QueuedKind::MobilityChange => Event::MobilityChange(id),
                QueuedKind::TxEnd => Event::TxEnd(id),
                QueuedKind::StartBroadcast => Event::StartBroadcast(id),
                QueuedKind::GridRefresh => Event::GridRefresh {
                    node: id,
                    gen: *gens.next().expect("one generation per grid refresh"),
                },
            });
        queue.refill_in_order(self.now, self.times.iter().copied().zip(events));
    }
}

impl Checkpoint {
    /// The world this checkpoint was taken in.
    pub fn world(&self) -> &WorldSpec {
        &self.spec
    }
}

impl<P: Protocol> Simulator<P> {
    /// Builds the simulator from a declarative [`WorldSpec`]: places every
    /// group's nodes, seeds their mobility models, resolves per-group
    /// transmit-power classes and schedules the initial
    /// beacon/mobility/broadcast events. The single compilation path every
    /// scenario surface funnels through (the paper's scenarios, dense
    /// scenarios, the text grammar).
    ///
    /// Panics with the spec's [`WorldError`](crate::world::WorldError)
    /// message when the spec is invalid; call
    /// [`WorldSpec::validate`] first to handle errors gracefully.
    pub fn from_world(spec: &WorldSpec, protocol: P) -> Self {
        Self {
            world: World::empty(spec.clone()),
            protocol,
        }
    }

    /// Re-arms the simulator for a [`WorldSpec`], replacing the protocol.
    /// The delivery mode and the profiling switch stay this simulator's.
    pub fn reset_world(&mut self, spec: &WorldSpec, protocol: P) {
        self.world.reset(spec.clone());
        self.protocol = protocol;
    }

    /// Like [`reset_world`](Self::reset_world), but re-arms the existing
    /// protocol in place through `rearm`.
    pub fn reset_world_with<F: FnOnce(&mut P)>(&mut self, spec: &WorldSpec, rearm: F) {
        self.world.reset(spec.clone());
        rearm(&mut self.protocol);
    }

    /// Selects the delivery-resolution path (default:
    /// [`DeliveryMode::Incremental`]), the only switch there is: the mode
    /// is a setting of the simulator, kept across
    /// [`reset_world`](Self::reset_world),
    /// [`reset_world_with`](Self::reset_world_with) and
    /// [`restore`](Self::restore). Both modes are bit-identical (asserted
    /// by the determinism test suite) and keep the grid and the live-frame
    /// windows maintained, so the mode can change mid-run; the naive
    /// oracle exists for parity checks and as a benchmark baseline.
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

    /// Work counters of the candidate filter since the last reset: cells
    /// visited/culled, candidates evaluated by chunk kernels vs the scalar
    /// fallback, and reach lists rebuilt vs candidates served from them
    /// (all zero outside [`DeliveryMode::Incremental`], which is the only
    /// path that filters). Exported per row of the scale artifact.
    pub fn sweep_stats(&self) -> SweepStats {
        let reach = &self.world.scratch.reach;
        SweepStats {
            list_rebuilds: reach.rebuilds(),
            list_candidates: reach.candidates(),
            ..self.world.scratch.sweep.stats()
        }
    }

    /// Cell edge (m) of the spatial delivery grid — exposed so tests can
    /// construct node placements exactly on cell boundaries.
    pub fn grid_cell_size(&self) -> f64 {
        self.world.grid.cell_size()
    }

    /// Enables/disables wall-time profiling of the delivery query and of
    /// the neighbour-table writes (off by default — the extra
    /// `Instant::now` samples per query and per delivered beacon are only
    /// taken when enabled, so unprofiled runs pay nothing). The setting
    /// survives [`reset_world`](Self::reset_world); the accumulators do not.
    pub fn set_query_profiling(&mut self, on: bool) {
        self.world.profile_on = on;
    }

    /// The accumulated candidate-filter / receive-outcome / table-write
    /// wall times since the last reset (all zeros unless
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
    /// alive for a subsequent [`reset_world`](Self::reset_world).
    ///
    /// # Panics
    /// Panics on a simulator deferring beacons or spent by
    /// [`settle`](Self::settle): its counters are incomplete.
    pub fn run_to_end(&mut self) -> SimReport {
        self.check_eager("run_to_end");
        self.run_until(self.world.spec.end_time);
        SimReport {
            broadcast: self.world.metrics.clone(),
            counters: self.world.counters.clone(),
            n_nodes: self.world.n_nodes,
        }
    }

    /// Processes events up to (and including) time `t`, leaving the
    /// simulator inspectable — used for topology snapshots and debugging,
    /// and to run a simulator deferring beacons
    /// ([`defer_beacons`](Self::defer_beacons)) up to a checkpoint.
    ///
    /// # Panics
    /// Panics on a simulator spent by [`settle`](Self::settle), like every
    /// method that runs events.
    pub fn run_until(&mut self, t: f64) {
        self.check_armed("run_until");
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
    ///
    /// Every beacon is resolved as it ends, so the run can go on. When
    /// nothing will, [`settle`](Self::settle) gives the same metrics for
    /// less.
    ///
    /// # Panics
    /// Panics on a simulator deferring beacons or spent by `settle`.
    pub fn run_broadcast(&mut self) -> &BroadcastMetrics {
        self.check_eager("run_broadcast");
        self.run_events(self.world.spec.end_time, World::settled);
        &self.world.metrics
    }

    /// Starts deferring beacon receptions now, the first half of
    /// [`settle`](Self::settle): from here on a beacon's end only prunes
    /// the air, as its query would, and is logged, and a protocol's table
    /// read first resolves, for the reader alone, the logged beacons it
    /// could still return (see [`ProtocolApi::neighbors`]). A no-op on a
    /// simulator already deferring.
    ///
    /// Nothing reads a table before the broadcast, so a simulator deferring
    /// from before it can run on with [`run_until`](Self::run_until) and be
    /// [checkpointed](Self::checkpoint) up to the broadcast start: the
    /// checkpoint carries the log, and its restores defer from it. That is
    /// how a tuning problem starts every candidate at the broadcast edge.
    /// Beacon reception and loss counters and the unread tables are
    /// incomplete while deferring, so [`run_to_end`](Self::run_to_end) and
    /// [`run_broadcast`](Self::run_broadcast) refuse until a restore or
    /// reset re-arms the simulator.
    ///
    /// # Panics
    /// Panics on a simulator spent by `settle`.
    pub fn defer_beacons(&mut self) {
        self.check_armed("defer_beacons");
        let w = &mut self.world;
        if !w.deferred.on {
            let bounds = w.deferral_bounds();
            w.deferred.start(w.n_nodes, &w.live, bounds.0, bounds.1);
        }
    }

    /// Runs to the same stop as [`run_broadcast`](Self::run_broadcast) and
    /// returns the same [`BroadcastMetrics`], bit for bit, resolving a
    /// beacon's receivers only when a protocol reads the receiver's
    /// neighbour table: [`defer_beacons`](Self::defer_beacons), unless the
    /// simulator already defers (restored from a checkpoint taken while
    /// deferring, say), then the run to settlement. This is the terminal
    /// form: the simulator is **spent** once it returns, until
    /// [`restore`](Self::restore), [`reset_world`](Self::reset_world) or
    /// [`reset_world_with`](Self::reset_world_with) re-arms it.
    ///
    /// The broadcast metrics see beacons only through the tables a
    /// protocol reads, a few per forwarding decision, while every beacon
    /// reaches dozens of receivers, so a read resolves only what it could
    /// return, with the oracle's receive test against the air and the
    /// receiver position that beacon's eager query saw. The logs keep one
    /// read window of beacons and frames (`neighbor_expiry`), however long
    /// the run.
    ///
    /// Beacon reception and loss counters and the tables nobody read are
    /// incomplete afterwards, which is why the simulator refuses to run on
    /// or to [`checkpoint`](Self::checkpoint). Read-only accessors such as
    /// [`now`](Self::now) and
    /// [`stopped_before_end`](Self::stopped_before_end) still answer.
    ///
    /// # Panics
    /// Panics on a spent simulator.
    pub fn settle(&mut self) -> &BroadcastMetrics {
        self.check_armed("settle");
        self.defer_beacons();
        self.run_events(self.world.spec.end_time, World::settled);
        let d = &mut self.world.deferred;
        d.release();
        d.on = false;
        d.spent = true;
        &self.world.metrics
    }

    /// Panics when [`settle`](Self::settle) spent this simulator and no
    /// reset or restore has re-armed it since.
    fn check_armed(&self, what: &str) {
        assert!(
            !self.world.deferred.spent,
            "{what} on a simulator spent by settle(): restore a checkpoint or reset the world first"
        );
    }

    /// Like [`check_armed`](Self::check_armed), and panics on a simulator
    /// deferring beacons too: for what needs every beacon resolved.
    fn check_eager(&self, what: &str) {
        self.check_armed(what);
        assert!(
            !self.world.deferred.on,
            "{what} on a simulator deferring beacons: settle() it, or restore a checkpoint or reset the world first"
        );
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
    /// A checkpoint is exact at any instant before the broadcast, up to
    /// `broadcast_time.next_down()`: it keeps the neighbour entries still
    /// live at `broadcast_time` (see [`Checkpoint`]), so one taken at or
    /// before `broadcast_time − neighbor_expiry` carries (next to) none. On
    /// a simulator deferring beacons ([`defer_beacons`](Self::defer_beacons))
    /// it also carries the deferred log, and a restore of it defers from
    /// there: the checkpoint then only settles
    /// ([`settle`](Self::settle)).
    ///
    /// # Panics
    /// Panics if the broadcast has started, or on a simulator spent by
    /// [`settle`](Self::settle).
    pub fn checkpoint(&self) -> Checkpoint {
        self.check_armed("checkpoint");
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
            tables,
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
            // state of the run: restore re-arms the target's own scratch
            // and keeps its settings.
            scratch: _,
            delivery_scratch: _,
            mode: _,
            profile_on: _,
            // Compacted below when on.
            deferred,
            max_gate_r,
            hd_reach,
            capture_ratio_mw,
            classes,
        } = &self.world;
        assert!(
            !*broadcast_started,
            "checkpoint at t = {} s: the broadcast has started",
            queue.now()
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
        debug_assert!(
            resumes_exactly(spec, mobility),
            "a node's mobility is its group's model resumed on its segment"
        );
        // Only entries live at the broadcast can ever be read again; the
        // capacity is trimmed to them, so a checkpoint kept for a
        // problem's life allocates nothing here when they are none.
        let mut neighbors = Vec::new();
        let neighbor_ends = tables
            .iter()
            .map(|t| {
                t.extend_live(spec.broadcast_time, spec.neighbor_expiry, &mut neighbors);
                u32::try_from(neighbors.len()).expect("neighbour entries fit u32")
            })
            .collect();
        neighbors.shrink_to_fit();
        Checkpoint {
            spec: spec.clone(),
            n_nodes: *n_nodes,
            node_tx: node_tx.clone(),
            max_speed: *max_speed,
            queue: QueuedEvents::pack(queue),
            in_flight: in_flight.clone(),
            segments: mobility.iter().map(Mobility::segment).collect(),
            neighbors,
            neighbor_ends,
            rng: rng.clone(),
            live: live.clone(),
            frames: frames.clone(),
            counters: counters.clone(),
            grid: grid.pack(),
            refresh_gen: refresh_gen.clone(),
            refresh_events: *refresh_events,
            max_gate_r: *max_gate_r,
            hd_reach: *hd_reach,
            capture_ratio_mw: *capture_ratio_mw,
            classes: classes.clone(),
            deferred: deferred
                .on
                .then(|| deferred.compact(node_tx, spec.radio.beacon_duration, snapshot)),
        }
    }

    /// Rewinds (or fast-forwards) this simulator to `checkpoint` and
    /// re-arms its protocol in place through `rearm`, like
    /// [`reset_world_with`](Self::reset_world_with) does at `t = 0`.
    /// Running on from here gives the report a straight run of the
    /// checkpoint's world under this protocol gives, bit for bit — whatever
    /// world this simulator ran before. A checkpoint taken while deferring
    /// beacons leaves the simulator deferring from its log, so only
    /// [`settle`](Self::settle) reports its metrics (bit for bit those of
    /// [`run_broadcast`](Self::run_broadcast) from `t = 0`).
    ///
    /// The neighbour tables are refilled in place from the checkpoint's
    /// live entries ([`NeighborTable::refill`]), each sized to its own
    /// entries rather than to the capacity this simulator's tables grew to
    /// before (a table keeps its allocation where that is large enough);
    /// the broadcast metrics start
    /// initial and the kinematic snapshot is rebuilt from the mobility
    /// segments (see [`Checkpoint`]). The delivery scratch of the previous
    /// run is re-armed — including every cached sweep event horizon, which
    /// described the previous world's cells. The delivery mode and the
    /// profiling switch stay this simulator's, and the profiling and sweep
    /// accumulators restart from zero.
    pub fn restore<F: FnOnce(&mut P)>(&mut self, checkpoint: &Checkpoint, rearm: F) {
        let Checkpoint {
            spec,
            n_nodes,
            node_tx,
            max_speed,
            queue,
            in_flight,
            segments,
            neighbors,
            neighbor_ends,
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
            classes,
            deferred,
        } = checkpoint;
        let w = &mut self.world;
        w.spec.clone_from(spec);
        w.n_nodes = *n_nodes;
        w.node_tx.clone_from(node_tx);
        w.max_speed = *max_speed;
        queue.unpack_into(&mut w.queue);
        w.in_flight.clone_from(in_flight);
        w.mobility.clear();
        let mut resumed = segments.iter();
        for group in &spec.groups {
            let (model, speeds) = (group.mobility, model_speeds(group));
            let members = resumed.by_ref().take(group.n);
            let members = members.map(|s| AnyMobility::resume(model, spec.field, speeds, s));
            w.mobility.extend(members);
        }
        w.tables.truncate(*n_nodes);
        w.tables.resize_with(*n_nodes, NeighborTable::new);
        let mut start = 0;
        for (table, &end) in w.tables.iter_mut().zip(neighbor_ends) {
            table.refill(&neighbors[start..end as usize]);
            start = end as usize;
        }
        w.rng.clone_from(rng);
        w.live.clone_from(live);
        w.frames.clone_from(frames);
        w.metrics.reset(spec.source, spec.broadcast_time);
        w.counters.clone_from(counters);
        w.broadcast_started = false;
        w.protocol_pending = 0;
        w.grid.unpack(grid);
        w.snapshot.rebuild(spec.field, segments.iter().copied());
        w.refresh_gen.clone_from(refresh_gen);
        w.refresh_events = *refresh_events;
        w.max_gate_r = *max_gate_r;
        w.hd_reach = *hd_reach;
        w.capture_ratio_mw = *capture_ratio_mw;
        w.classes.clone_from(classes);
        w.delivery_scratch.clear();
        w.reset_query_scratch();
        match deferred {
            Some(log) => {
                let bounds = w.deferral_bounds();
                let duration = spec.radio.beacon_duration;
                let (node_tx, classes, radio) = (&w.node_tx, &w.classes, &w.spec.radio);
                let frames = log.frames(&w.snapshot).map(|(sender, start, pos)| {
                    let tx_dbm = node_tx[sender];
                    let c = FrameConsts::lookup(classes, radio, tx_dbm);
                    Transmission::new(sender, pos, tx_dbm, start, duration, FrameKind::Beacon, c)
                });
                w.deferred.restore(log, *n_nodes, bounds, frames);
            }
            None => w.deferred.stop(),
        }
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
                if self.world.deferred.on {
                    self.world
                        .deferred
                        .replace(node, &self.world.mobility[node]);
                }
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
                if tx.kind == FrameKind::Beacon && self.world.deferred.on {
                    self.world.defer_beacon(&tx);
                    return;
                }
                let mut deliveries = std::mem::take(&mut self.world.delivery_scratch);
                deliveries.clear();
                self.world.compute_deliveries(&tx, &mut deliveries);
                match tx.kind {
                    FrameKind::Beacon => {
                        let w = &mut self.world;
                        let now = w.queue.now();
                        let expiry = w.spec.neighbor_expiry;
                        w.counters.beacons_received += deliveries.len() as u64;
                        let t0 = w.profile_on.then(Instant::now);
                        for &(r, rx_dbm) in &deliveries {
                            w.tables[r].observe(tx.sender, rx_dbm, now, expiry);
                        }
                        if let Some(t0) = t0 {
                            w.scratch.profile.observe_s += t0.elapsed().as_secs_f64();
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
    use crate::world::GroupPlacement;

    fn dense_config(seed: u64) -> WorldSpec {
        // 50 nodes in a small field: fully connected at default power.
        let mut c = WorldSpec::paper(50, seed);
        c.field = Field::new(100.0, 100.0);
        c
    }

    #[test]
    fn source_only_reaches_one_hop_neighbors() {
        let c = dense_config(1);
        let report = Simulator::from_world(&c, SourceOnly).run();
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
        let mut c = WorldSpec::paper(60, 4);
        c.field = Field::new(400.0, 400.0); // multi-hop but well connected
        let n = c.n_nodes();
        let report = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.05))).run();
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
            let c = WorldSpec::paper(40, seed);
            let n = c.n_nodes();
            let r = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.1))).run();
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

    fn run_mode(mode: DeliveryMode, c: WorldSpec) -> SimReport {
        let n = c.n_nodes();
        let mut sim = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.1)));
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
                WorldSpec::paper(75, seed),
                WorldSpec::paper(25, seed),
                dense_config(seed),
                {
                    let mut c = WorldSpec::paper(30, seed);
                    c.groups[0].mobility = MobilityModel::Stationary;
                    c
                },
                {
                    let mut c = WorldSpec::paper(30, seed);
                    c.groups[0].mobility = MobilityModel::RandomWaypoint { pause: 3.0 };
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
            let mut c = WorldSpec::paper(40, 3);
            c.radio.shadowing_sigma_db = sigma;
            let inc = run_mode(DeliveryMode::Incremental, c.clone());
            let naive = run_mode(DeliveryMode::Naive, c);
            assert_eq!(inc.broadcast, naive.broadcast, "sigma {sigma}");
            assert_eq!(inc.counters, naive.counters, "sigma {sigma}");
        }
    }

    #[test]
    fn reach_lists_serve_only_shadowed_worlds() {
        // Unshadowed decode tests are log-free `d²` compares, so those
        // worlds never build a reach list; a shadowed world rebuilds each
        // sender's list as it expires and serves most queries from it.
        let run = |sigma: f64| {
            let mut c = WorldSpec::paper(40, 3);
            c.radio.shadowing_sigma_db = sigma;
            let mut sim = Simulator::from_world(&c, Flooding::new(40, (0.0, 0.1)));
            let report = sim.run_to_end();
            (report, sim.sweep_stats())
        };
        let (_, plain) = run(0.0);
        assert_eq!((plain.list_rebuilds, plain.list_candidates), (0, 0));
        assert!(plain.batched_candidates + plain.scalar_candidates > 0);
        let (report, shadowed) = run(4.0);
        // 40 s at 2 m/s walkers: a list lives just under 10 s, so every
        // sender rebuilds about four times and serves ~40 frames from
        // its lists.
        assert!(
            shadowed.list_rebuilds >= 4 * 40 && shadowed.list_rebuilds <= 6 * 40,
            "{shadowed:?}"
        );
        let served = report.counters.beacons_sent + report.counters.data_sent;
        assert!(shadowed.list_rebuilds * 5 < served, "{shadowed:?}");
        assert!(shadowed.list_candidates > 0, "{shadowed:?}");
    }

    #[test]
    fn reset_reuses_simulator_across_configs() {
        // A fresh simulator and a reset one must agree bit-for-bit, even
        // when the reset crosses node counts and field sizes.
        let c1 = WorldSpec::paper(40, 11);
        let c2 = dense_config(5);
        let n1 = c1.n_nodes();
        let n2 = c2.n_nodes();
        let fresh1 = Simulator::from_world(&c1, Flooding::new(n1, (0.0, 0.1))).run();
        let fresh2 = Simulator::from_world(&c2, Flooding::new(n2, (0.0, 0.2))).run();

        let mut sim = Simulator::from_world(&c1, Flooding::new(n1, (0.0, 0.1)));
        let r1 = sim.run_to_end();
        sim.reset_world(&c2, Flooding::new(n2, (0.0, 0.2)));
        let r2 = sim.run_to_end();
        sim.reset_world(&c1, Flooding::new(n1, (0.0, 0.1)));
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
        let mut c = WorldSpec::paper(10_000, 7_410_000);
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
        let mut c = WorldSpec::paper(40, 21);
        c.groups[0].mobility = MobilityModel::RandomWalk {
            change_interval: 30.5, // fires once, mid-transmission
        };
        c.radio.data_duration = 1.0;
        let n = c.n_nodes();
        let mut sim = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.0)));
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
    fn run_mode_jitterless(mode: DeliveryMode, c: WorldSpec) -> SimReport {
        let n = c.n_nodes();
        let mut sim = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.0)));
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
            let mut c = WorldSpec::paper(50, seed);
            c.groups[0].mobility = MobilityModel::RandomWalk {
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
        let sim = Simulator::from_world(&c, SourceOnly);
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
                            world.tables[r].observe(tx.sender, rx, now, world.spec.neighbor_expiry);
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
        let mut c = WorldSpec::paper(5, 11);
        c.field = Field::new(5000.0, 5000.0);
        let n = c.n_nodes();
        let report = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.05))).run();
        assert!(report.broadcast.coverage() < 4);
    }

    #[test]
    fn no_self_delivery_and_energy_accounting() {
        let c = dense_config(5);
        let n = c.n_nodes();
        let report = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.2))).run();
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
            let mut c = WorldSpec::paper(60, 17);
            c.field = Field::new(400.0, 400.0);
            let n = c.n_nodes();
            Simulator::from_world(&c, Flooding::new(n, jitter))
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
        let mut c = WorldSpec::paper(4, 1);
        c.groups[0].mobility = crate::mobility::MobilityModel::Stationary;
        c.groups[0].placement = GroupPlacement::Explicit(vec![
            Vec2::new(10.0, 250.0),
            Vec2::new(130.0, 250.0),
            Vec2::new(250.0, 250.0),
            Vec2::new(370.0, 250.0),
        ]);
        let report = Simulator::from_world(&c, Flooding::new(4, (0.01, 0.05))).run();
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
        let mut c = WorldSpec::paper(3, 1);
        c.groups[0].placement = GroupPlacement::Explicit(vec![Vec2::new(0.0, 0.0)]);
        let _ = Simulator::from_world(&c, SourceOnly);
    }

    #[test]
    fn run_until_snapshots_positions() {
        let c = WorldSpec::paper(10, 5);
        let field = c.field;
        let mut sim = Simulator::from_world(&c, SourceOnly);
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
        let mut c = WorldSpec::paper(80, 9);
        c.field = Field::new(500.0, 500.0);
        let n = c.n_nodes();
        let baseline = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.1))).run();
        let mut sim = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.1)));
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
    fn delivery_mode_survives_reset_and_restore() {
        // The mode is a setting of the simulator, not of the world: it
        // stays through re-arming for a world and through restoring a
        // checkpoint taken in the other mode, and the restored run uses it
        // (only the incremental path sweeps grid cells).
        let spec = WorldSpec::paper(40, 4);
        let n = spec.n_nodes();
        let flooding = || Flooding::new(n, (0.0, 0.1));
        let straight = Simulator::from_world(&spec, flooding()).run();
        for (mode, other) in [
            (DeliveryMode::Naive, DeliveryMode::Incremental),
            (DeliveryMode::Incremental, DeliveryMode::Naive),
        ] {
            let mut donor = Simulator::from_world(&spec, flooding());
            donor.set_delivery_mode(other);
            donor.run_until(20.0);
            let checkpoint = donor.checkpoint();

            let mut sim = Simulator::from_world(&spec, flooding());
            sim.set_delivery_mode(mode);
            sim.reset_world(&spec, flooding());
            assert_eq!(sim.delivery_mode(), mode);
            sim.reset_world_with(&spec, |p| *p = flooding());
            assert_eq!(sim.delivery_mode(), mode);
            sim.restore(&checkpoint, |p| *p = flooding());
            assert_eq!(sim.delivery_mode(), mode);
            let report = sim.run_to_end();
            assert_eq!(report.broadcast, straight.broadcast);
            assert_eq!(report.counters, straight.counters);
            let swept = sim.sweep_stats().cells_visited > 0;
            assert_eq!(swept, mode == DeliveryMode::Incremental, "{mode:?}");
        }
    }

    #[test]
    fn simultaneous_transmissions_collide() {
        // Two forwarders with zero jitter transmit in the same instant;
        // their frames overlap at common receivers. With capture at 10 dB
        // equidistant receivers lose both.
        let mut c = dense_config(23);
        c.radio.capture_db = 10.0;
        let n = c.n_nodes();
        let report = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.0))).run();
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
        // the eager prefix [0, 27.5] s, whose tables hold nothing live at
        // the broadcast.
        let c = WorldSpec::paper(40, 9);
        let n = c.n_nodes();
        let straight = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.1))).run();
        let mut sim = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.1)));
        sim.run_until(27.5);
        let at = sim.now();
        assert!(at <= 27.5 && at > 26.0);
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
        let c = WorldSpec::paper(40, 9);
        let n = c.n_nodes();
        let straight = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.1))).run();
        let mut sim = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.1)));
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
        let c = WorldSpec::paper(40, 9);
        let mut sim = Simulator::from_world(&c, SourceOnly);
        sim.run_broadcast();
        assert!(sim.stopped_before_end() && sim.now() < 30.1);
    }

    /// A flooding variant that reads the forwarder's neighbour table
    /// before every transmission, so settled runs resolve deferred
    /// beacons, and lowers its power by 0.01 dB per live neighbour, so a
    /// wrong table changes the energy metric.
    struct ReadingFlood(Flooding);

    impl Protocol for ReadingFlood {
        fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
            let _ = api.neighbors(node);
            self.0.on_start(node, api);
        }
        fn on_receive(&mut self, node: NodeId, from: NodeId, rx: f64, api: &mut dyn ProtocolApi) {
            self.0.on_receive(node, from, rx, api);
        }
        fn on_timer(&mut self, node: NodeId, _tag: u64, api: &mut dyn ProtocolApi) {
            let table = api.neighbors(node);
            let tx = api.node_tx_dbm(node) - table.len() as f64 * 0.01;
            api.transmit(node, tx);
        }
    }

    #[test]
    fn settle_matches_run_broadcast_and_spends_the_simulator() {
        let c = WorldSpec::paper(60, 4);
        let n = c.n_nodes();
        let flood = || ReadingFlood(Flooding::new(n, (0.01, 0.3)));
        let straight = Simulator::from_world(&c, flood()).run();
        let mut sim = Simulator::from_world(&c, flood());
        sim.run_until(c.broadcast_time - c.neighbor_expiry);
        let prefix = sim.checkpoint();
        assert_eq!(*sim.settle(), straight.broadcast);
        assert!(sim.stopped_before_end());
        // Restored, the spent simulator reproduces a straight run, and
        // settles again.
        sim.restore(&prefix, |p| *p = flood());
        let again = sim.run_to_end();
        assert_eq!(again.broadcast, straight.broadcast);
        assert_eq!(again.counters, straight.counters);
        sim.reset_world_with(&c, |p| *p = flood());
        assert_eq!(*sim.settle(), straight.broadcast);
    }

    #[test]
    #[should_panic(expected = "run_until on a simulator spent by settle()")]
    fn a_settled_simulator_refuses_to_run_on() {
        let c = WorldSpec::paper(20, 3);
        let mut sim = Simulator::from_world(&c, Flooding::new(20, (0.0, 0.1)));
        sim.settle();
        sim.run_until(c.end_time);
    }

    #[test]
    #[should_panic(expected = "checkpoint on a simulator spent by settle()")]
    fn a_settled_simulator_refuses_to_checkpoint() {
        let c = WorldSpec::paper(20, 3);
        let mut sim = Simulator::from_world(&c, Flooding::new(20, (0.0, 0.1)));
        sim.settle();
        let _ = sim.checkpoint();
    }

    #[test]
    fn run_broadcast_runs_to_end_time_while_timers_are_pending() {
        // A 20–30 s forwarding jitter puts every forwarder's timer past
        // the 40 s end: the broadcast never settles, so the run stops at
        // `end_time` with the timers pending, exactly where run_to_end does.
        let c = dense_config(4);
        let n = c.n_nodes();
        let straight = Simulator::from_world(&c, Flooding::new(n, (20.0, 30.0))).run();
        let mut sim = Simulator::from_world(&c, Flooding::new(n, (20.0, 30.0)));
        assert_eq!(*sim.run_broadcast(), straight.broadcast);
        assert!(!sim.stopped_before_end());
        assert_eq!(straight.broadcast.forwardings, 0);
        let rest = sim.run_to_end();
        assert_eq!(rest.counters, straight.counters, "nothing was left to run");
    }

    #[test]
    fn checkpoints_carry_the_entries_live_at_the_broadcast() {
        // At `broadcast − expiry` every entry observed so far is stale by
        // the broadcast; at the edge the tables are full, and the restored
        // tables read exactly like the donor's from the broadcast on.
        let c = WorldSpec::paper(40, 9);
        let n = c.n_nodes();
        let mut sim = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.1)));
        sim.run_until(c.broadcast_time - c.neighbor_expiry);
        assert!(sim.checkpoint().neighbors.is_empty());
        sim.run_until(c.broadcast_time.next_down());
        let edge = sim.checkpoint();
        assert!(edge.neighbors.len() >= n, "{}", edge.neighbors.len());
        let mut restored =
            Simulator::from_world(&WorldSpec::paper(20, 3), Flooding::new(20, (0.0, 0.1)));
        restored.restore(&edge, |p| *p = Flooding::new(n, (0.0, 0.1)));
        let bt = c.broadcast_time;
        for node in 0..n {
            let tx = &sim.world.node_tx;
            let live = sim.world.tables[node].live(bt, c.neighbor_expiry, tx);
            assert_eq!(
                restored.world.tables[node].live(bt, c.neighbor_expiry, tx),
                live
            );
            assert_eq!(restored.world.tables[node].len(), live.len());
        }
    }

    #[test]
    #[should_panic(expected = "the broadcast has started")]
    fn checkpoint_after_the_broadcast_start_panics() {
        // The protocol has run: its state is no longer the same for every
        // candidate.
        let c = WorldSpec::paper(20, 3);
        let n = c.n_nodes();
        let mut sim = Simulator::from_world(&c, Flooding::new(n, (0.0, 0.1)));
        sim.run_until(c.broadcast_time);
        let _ = sim.checkpoint();
    }

    /// A paper world run, deferring beacons from `defer_at`, to the instant
    /// before its broadcast, and the checkpoint taken there.
    fn deferred_edge(c: &WorldSpec, defer_at: f64) -> (Simulator<ReadingFlood>, Checkpoint) {
        let n = c.n_nodes();
        let mut sim = Simulator::from_world(c, ReadingFlood(Flooding::new(n, (0.01, 0.3))));
        sim.run_until(defer_at);
        sim.defer_beacons();
        sim.run_until(c.broadcast_time.next_down());
        let edge = sim.checkpoint();
        (sim, edge)
    }

    #[test]
    fn checkpoints_taken_while_deferring_restore_the_broadcast_edge() {
        // Deferring from the start or from `broadcast − expiry`, the edge
        // carries the deferred log: restored into a simulator that ran
        // another world, it settles to the eager run's metrics, again and
        // again, and the donor settles to them too.
        let c = WorldSpec::paper(60, 4);
        let n = c.n_nodes();
        let flood = || ReadingFlood(Flooding::new(n, (0.01, 0.3)));
        let straight = Simulator::from_world(&c, flood()).run();
        let mut pooled = Simulator::from_world(&WorldSpec::paper(20, 3), flood());
        pooled.settle();
        for defer_at in [0.0, c.broadcast_time - c.neighbor_expiry] {
            let (mut donor, edge) = deferred_edge(&c, defer_at);
            assert!(edge.deferred.as_ref().is_some_and(|log| log.n_beacons > 0));
            assert!(edge.neighbors.is_empty(), "beacons wait in the log");
            for _ in 0..2 {
                pooled.restore(&edge, |p| *p = flood());
                assert_eq!(pooled.now(), donor.now());
                assert_eq!(*pooled.settle(), straight.broadcast);
            }
            assert_eq!(*donor.settle(), straight.broadcast);
        }
    }

    #[test]
    #[should_panic(expected = "the broadcast has started")]
    fn checkpoint_while_deferring_after_the_broadcast_start_panics() {
        let c = WorldSpec::paper(20, 3);
        let mut sim = Simulator::from_world(&c, Flooding::new(20, (0.0, 0.1)));
        sim.defer_beacons();
        sim.run_until(c.broadcast_time);
        let _ = sim.checkpoint();
    }

    #[test]
    fn a_restored_edge_is_spent_only_once_settle_returns() {
        // Restored from an edge, a simulator defers: it runs on and
        // checkpoints up to the broadcast, but refuses what needs every
        // beacon resolved; once settle returns it refuses everything.
        let c = WorldSpec::paper(30, 5);
        let flood = || ReadingFlood(Flooding::new(30, (0.01, 0.3)));
        let straight = Simulator::from_world(&c, flood()).run();
        let (_, edge) = deferred_edge(&c, 0.0);
        let mut sim = Simulator::from_world(&c, flood());
        sim.restore(&edge, |p| *p = flood());
        sim.defer_beacons();
        sim.run_until(c.broadcast_time.next_down());
        let again = sim.checkpoint();
        assert!(again.deferred.is_some());
        assert_eq!(*sim.settle(), straight.broadcast);
        sim.restore(&again, |p| *p = flood());
        assert_eq!(*sim.settle(), straight.broadcast);
        let spent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_until(c.end_time);
        }));
        assert!(spent.is_err(), "a settled simulator refuses to run on");
    }

    #[test]
    #[should_panic(expected = "run_to_end on a simulator deferring beacons")]
    fn a_deferring_simulator_refuses_to_report_counters() {
        let c = WorldSpec::paper(20, 3);
        let (_, edge) = deferred_edge(&c, 0.0);
        let mut sim = Simulator::from_world(&c, ReadingFlood(Flooding::new(20, (0.01, 0.3))));
        sim.restore(&edge, |p| *p = ReadingFlood(Flooding::new(20, (0.01, 0.3))));
        sim.run_to_end();
    }
}
