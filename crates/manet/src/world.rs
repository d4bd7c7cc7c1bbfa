//! # Declarative world specification — scenarios as data
//!
//! A [`WorldSpec`] describes a whole simulation scenario declaratively: a
//! field, a radio, the timing of the broadcast protocol, and a set of
//! **node groups**, each with its own mobility model, placement discipline,
//! speed range and transmit-power class. The spec compiles into the
//! simulator through a single entry point,
//! [`Simulator::from_world`](crate::sim::Simulator::from_world), so adding
//! a new workload is a builder call instead of a cross-crate surgery:
//!
//! ```
//! use manet::world::{NodeGroup, WorldSpec};
//! use manet::mobility::MobilityModel;
//! use manet::protocol::Flooding;
//! use manet::sim::Simulator;
//!
//! // A mixed population: 60 random-walk handsets at full power and a
//! // backbone of 5 stationary low-power sinks — two mobility models and
//! // two radio power classes in one world.
//! let spec = WorldSpec::builder()
//!     .area(400.0, 400.0)
//!     .seed(7)
//!     .group(NodeGroup::new(60)) // paper defaults: random walk, 16.02 dBm
//!     .group(
//!         NodeGroup::new(5)
//!             .mobility(MobilityModel::Stationary)
//!             .tx_power_dbm(10.0),
//!     )
//!     .build()
//!     .expect("valid spec");
//!
//! let n = spec.n_nodes();
//! let report = Simulator::from_world(&spec, Flooding::new(n, (0.0, 0.1))).run();
//! assert_eq!(report.n_nodes, 65);
//! ```
//!
//! ## Heterogeneity without losing bit-exact parity
//!
//! Groups only vary inputs the delivery core already treats per-entity:
//! mobility segments live in per-node lanes of the kinematic snapshot
//! (which carries a per-node [`SegmentKind`](crate::mobility::SegmentKind)
//! since this API landed), and transmit power was always a per-transmission
//! quantity — the log-free decode/floor threshold bands and the
//! interference gating radius are precomputed from each frame's own
//! `tx_dbm`, so a low-power group simply produces frames with smaller
//! decode discs. Both [`DeliveryMode`](crate::sim::DeliveryMode)s
//! therefore stay bit-identical on heterogeneous worlds, exactly as on
//! homogeneous ones (pinned by the property suite).
//!
//! ## The scenario text grammar
//!
//! Dense scenarios have a compact text form shared by every CLI that used
//! to hand-roll its own parser (`--dense` in the bench harness):
//!
//! ```text
//! spec   := head ( '+' group )*
//! head   := n '@' per_km2 [ '@' sigma ] modifier*
//! group  := n modifier*
//! modifier := ':' ( 'still' | 'walk' [interval] | 'rwp' [pause]
//!               | 'speed' lo '-' hi
//!               | 'rect' x 'x' y '-' x 'x' y
//!               | 'at' x 'x' y ( '-' x 'x' y )*
//!               | power 'dbm' )
//! ```
//!
//! `2000@200@4` is 2000 random-walk nodes at 200 devices/km² under 4 dB
//! shadowing; `500@200+50:still:10dbm` adds a group of 50 stationary
//! 10 dBm sinks to a 500-node walking population (the field is sized so
//! the *total* population sits at the requested density).
//! [`DenseScenario::parse_spec`] and [`DenseScenario::spec_string`]
//! round-trip the grammar (`parse(format(s)) == s`, a pinned property).
//!
//! The grammar covers the **whole group surface of the builder**: mobility
//! kind (`still`/`walk`/`rwp`), the speed range the model draws from
//! (`:speed0.5-1.5`), the placement discipline — `:rect10x20-100x200` for
//! a [`GroupPlacement::Rect`] sub-rectangle (min corner – max corner),
//! `:at50x50-150x50` for [`GroupPlacement::Explicit`] positions, one
//! `x`-pair per node — and transmit power. Coordinates are field
//! coordinates and therefore non-negative, which is what lets `-`
//! separate corners and points unambiguously; none of the payloads may
//! contain `+`, `:` or `,` (those delimit groups, modifiers and the
//! `--dense` CLI list). The canonical form emitted by
//! [`DenseScenario::spec_string`] omits every default (walk 20 s, speeds
//! `[0, 2]`, uniform placement, default power) — in modifier order
//! mobility, speed, placement, power.
//!
//! The paper's scenario is [`WorldSpec::paper`]; `Scenario::dense` and the
//! bench `--dense` flag go through [`DenseScenario::world_spec`], which
//! starts from it and compiles a density-scaled scenario (heterogeneous
//! groups included) into a [`WorldSpec`].

use crate::geometry::{Field, Vec2};
use crate::mobility::MobilityModel;
use crate::radio::RadioConfig;
use crate::sim::{NodeId, GRID_BUCKET_SLACK_M};
use serde::{Deserialize, Serialize};

/// Largest shadowing σ (dB) [`WorldSpec::validate`] accepts. Measured
/// urban and indoor shadowing stays within 4–12 dB; 20 dB leaves room for
/// stress worlds while keeping the `+4σ` decode disc (and every squared
/// distance and threshold the delivery query derives from it) finite.
pub const MAX_SHADOWING_SIGMA_DB: f64 = 20.0;

/// Smallest transmit power (dBm) [`WorldSpec::validate`] accepts for a
/// group's power class.
pub const MIN_TX_POWER_DBM: f64 = -30.0;

/// Largest transmit power (dBm) [`WorldSpec::validate`] accepts for a
/// group's power class. `[MIN_TX_POWER_DBM, MAX_TX_POWER_DBM]` covers every
/// Wi-Fi power class (Table II's 16.02 dBm included) and the −10..30 dBm
/// the scenario-grammar fuzz draws.
pub const MAX_TX_POWER_DBM: f64 = 40.0;

/// How one group's initial positions are chosen. Every variant draws (or
/// takes) positions in node order, so a spec is fully determined by the
/// seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GroupPlacement {
    /// Uniformly random anywhere in the field (the paper's setup).
    Uniform,
    /// Uniformly random within a sub-rectangle of the field — clustered
    /// populations (a campus, a convoy staging area) without explicit
    /// coordinates.
    Rect {
        /// Lower-left corner.
        min: Vec2,
        /// Upper-right corner (exclusive for the RNG draw).
        max: Vec2,
    },
    /// Explicit positions, one per node of the group (deterministic
    /// topologies: sinks, gateways, test chains).
    Explicit(Vec<Vec2>),
}

/// One population of identically-configured nodes inside a [`WorldSpec`]:
/// a count plus the mobility model, speed range, placement discipline and
/// transmit-power class shared by its members.
///
/// Constructed builder-style; unset knobs keep the paper's Table II
/// defaults (random walk re-drawn every 20 s, speeds in [0, 2] m/s,
/// uniform placement, the radio's default power).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeGroup {
    /// Number of nodes in this group.
    pub n: usize,
    /// Mobility model instantiated per node.
    pub mobility: MobilityModel,
    /// Speed range (m/s) the mobility model draws from.
    pub speed_range: (f64, f64),
    /// Transmit power (dBm) for this group's beacons and its default data
    /// power; `None` uses [`RadioConfig::default_tx_dbm`].
    pub tx_power_dbm: Option<f64>,
    /// Initial placement of the group's nodes.
    pub placement: GroupPlacement,
}

impl NodeGroup {
    /// A group of `n` nodes with the paper's defaults.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            mobility: MobilityModel::RandomWalk {
                change_interval: 20.0,
            },
            speed_range: (0.0, 2.0),
            tx_power_dbm: None,
            placement: GroupPlacement::Uniform,
        }
    }

    /// Sets the mobility model.
    pub fn mobility(mut self, m: MobilityModel) -> Self {
        self.mobility = m;
        self
    }

    /// Sets the speed range (m/s) drawn by the mobility model.
    pub fn speed_range(mut self, lo: f64, hi: f64) -> Self {
        self.speed_range = (lo, hi);
        self
    }

    /// Sets the group's transmit-power class (dBm).
    pub fn tx_power_dbm(mut self, dbm: f64) -> Self {
        self.tx_power_dbm = Some(dbm);
        self
    }

    /// Sets the placement discipline.
    pub fn placement(mut self, p: GroupPlacement) -> Self {
        self.placement = p;
        self
    }

    /// Whether every knob still has its default value (the implicit head
    /// group of the text grammar).
    fn is_default(&self) -> bool {
        *self == NodeGroup::new(self.n)
    }

    /// The worst-case speed bound of this group (the grid staleness /
    /// refresh bound). Random waypoint clamps its draw range up to at
    /// least 0.2 m/s, mirroring the simulator's constructor.
    pub fn max_speed(&self) -> f64 {
        match self.mobility {
            MobilityModel::RandomWaypoint { .. } => self.speed_range.1.max(0.2),
            MobilityModel::Stationary => 0.0,
            MobilityModel::RandomWalk { .. } => self.speed_range.1,
        }
    }
}

/// Why a [`WorldSpec`] failed validation. The `Display` text of each
/// variant is the message [`Simulator::from_world`] panics with when handed
/// an unvalidated spec, and the error [`WorldSpecBuilder::build`] returns.
///
/// [`Simulator::from_world`]: crate::sim::Simulator::from_world
#[derive(Debug, Clone, PartialEq)]
pub enum WorldError {
    /// The spec contains no nodes at all.
    NoNodes,
    /// A group has `n == 0`.
    EmptyGroup(usize),
    /// `source` is not a valid node index.
    SourceOutOfRange {
        /// The offending source id.
        source: NodeId,
        /// Total nodes in the spec.
        n_nodes: usize,
    },
    /// An explicit placement's point count differs from the group size.
    PlacementArity {
        /// Index of the offending group.
        group: usize,
        /// Points provided.
        points: usize,
        /// Nodes in the group.
        n: usize,
    },
    /// A placement point (or rectangle) lies outside the field.
    PlacementOutsideField(usize),
    /// A placement rectangle is inverted or degenerate.
    EmptyPlacementRect(usize),
    /// A group's speed range is negative, inverted or non-finite, or its
    /// top speed is so high that a grid refresh [`GRID_BUCKET_SLACK_M`]
    /// metres away would be scheduled at the current instant by
    /// `end_time`, so the run could never advance.
    BadSpeedRange(usize),
    /// `end_time < broadcast_time`.
    BadTimes,
    /// `beacon_interval <= 0`.
    BadBeaconInterval,
    /// The shadowing σ is negative, non-finite or above
    /// [`MAX_SHADOWING_SIGMA_DB`].
    BadShadowing,
    /// A group's power class (its override, else the radio default) is
    /// non-finite or outside [`MIN_TX_POWER_DBM`]`..=`[`MAX_TX_POWER_DBM`].
    BadTxPower(usize),
    /// More than `u32::MAX` nodes: events and neighbour tables store node
    /// ids as `u32`, with `u32::MAX` itself marking a free table slot.
    TooManyNodes,
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::NoNodes => write!(f, "need at least one node"),
            WorldError::EmptyGroup(g) => write!(f, "group {g} is empty"),
            WorldError::SourceOutOfRange { source, n_nodes } => {
                write!(f, "source out of range: {source} >= {n_nodes}")
            }
            WorldError::PlacementArity { group, points, n } => write!(
                f,
                "placement size mismatch in group {group}: {points} points for {n} nodes"
            ),
            WorldError::PlacementOutsideField(g) => {
                write!(f, "placement outside field in group {g}")
            }
            WorldError::EmptyPlacementRect(g) => {
                write!(f, "empty placement rect in group {g}")
            }
            WorldError::BadSpeedRange(g) => write!(f, "bad speed range in group {g}"),
            WorldError::BadTimes => write!(f, "end_time must be >= broadcast_time"),
            WorldError::BadBeaconInterval => write!(f, "beacon interval must be positive"),
            WorldError::BadShadowing => write!(
                f,
                "shadowing sigma must be finite and within 0..={MAX_SHADOWING_SIGMA_DB} dB"
            ),
            WorldError::BadTxPower(g) => write!(
                f,
                "transmit power of group {g} must be finite and within \
                 {MIN_TX_POWER_DBM}..={MAX_TX_POWER_DBM} dBm"
            ),
            WorldError::TooManyNodes => write!(f, "more than {} nodes", u32::MAX),
        }
    }
}

impl std::error::Error for WorldError {}

/// A validated, declarative description of one simulation scenario: field,
/// radio, protocol timing and a set of [`NodeGroup`]s. See the
/// [module docs](self) for the design and a worked heterogeneous example.
///
/// Start from the paper's scenario with [`WorldSpec::paper`] or build one
/// with [`WorldSpec::builder`] (validates on
/// [`build`](WorldSpecBuilder::build)); run it with
/// [`Simulator::from_world`](crate::sim::Simulator::from_world).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldSpec {
    /// The simulation field.
    pub field: Field,
    /// Physical layer shared by all nodes (per-group `tx_power_dbm`
    /// overrides only the transmit power class).
    pub radio: RadioConfig,
    /// The node populations, concatenated in order: group 0 holds node ids
    /// `0..groups[0].n`, group 1 the next block, and so on.
    pub groups: Vec<NodeGroup>,
    /// Beacon (hello) period in seconds.
    pub beacon_interval: f64,
    /// Neighbour entries older than this many seconds are considered gone.
    pub neighbor_expiry: f64,
    /// Time the broadcast starts (warm-up before it).
    pub broadcast_time: f64,
    /// End of the simulation.
    pub end_time: f64,
    /// The broadcasting source node (a global node id).
    pub source: NodeId,
    /// RNG seed — fixing it fixes the network: placement, mobility and
    /// beacon phases all derive from it.
    pub seed: u64,
}

impl WorldSpec {
    /// A builder seeded with the paper's Table II defaults (500 m field,
    /// ns-3 radio, broadcast at 30 s, end at 40 s, source 0, seed 0).
    pub fn builder() -> WorldSpecBuilder {
        WorldSpecBuilder {
            spec: WorldSpec {
                field: Field::paper(),
                radio: RadioConfig::paper(),
                groups: Vec::new(),
                beacon_interval: 1.0,
                neighbor_expiry: 2.5,
                broadcast_time: 30.0,
                end_time: 40.0,
                source: 0,
                seed: 0,
            },
        }
    }

    /// The paper's scenario (Table II) for `n_nodes` nodes on the network
    /// fixed by `seed`: the builder's defaults plus one [`NodeGroup::new`]
    /// group — uniform placement, random walk at [0, 2] m/s re-drawn every
    /// 20 s. The paper's densities are 25, 50 and 75 nodes (100, 200 and
    /// 300 dev/km²). Valid for any `n_nodes >= 1`; callers edit
    /// `groups[0]` to change placement, mobility or speeds.
    pub fn paper(n_nodes: usize, seed: u64) -> Self {
        Self::builder()
            .group(NodeGroup::new(n_nodes))
            .seed(seed)
            .spec
    }

    /// Total node count across all groups.
    pub fn n_nodes(&self) -> usize {
        self.groups.iter().map(|g| g.n).sum()
    }

    /// The largest transmit power (dBm) any node of this world beacons at
    /// — what the spatial index sizes its cells against.
    pub fn max_tx_dbm(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| g.tx_power_dbm.unwrap_or(self.radio.default_tx_dbm))
            .fold(self.radio.default_tx_dbm, f64::max)
    }

    /// Worst-case node speed (m/s) across all groups — the bound the
    /// horizon-rebuild staleness margin and the half-duplex drift reach
    /// are derived from.
    pub fn max_speed(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| g.max_speed())
            .fold(0.0, f64::max)
    }

    /// Checks every structural invariant the simulator will otherwise
    /// panic on; [`WorldSpecBuilder::build`] calls this for you.
    pub fn validate(&self) -> Result<(), WorldError> {
        let n_nodes = self
            .groups
            .iter()
            .try_fold(0usize, |n, g| n.checked_add(g.n))
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or(WorldError::TooManyNodes)?;
        if n_nodes == 0 {
            return Err(WorldError::NoNodes);
        }
        let sigma = self.radio.shadowing_sigma_db;
        if !(0.0..=MAX_SHADOWING_SIGMA_DB).contains(&sigma) {
            return Err(WorldError::BadShadowing);
        }
        for (gi, g) in self.groups.iter().enumerate() {
            if g.n == 0 {
                return Err(WorldError::EmptyGroup(gi));
            }
            let power = g.tx_power_dbm.unwrap_or(self.radio.default_tx_dbm);
            if !(MIN_TX_POWER_DBM..=MAX_TX_POWER_DBM).contains(&power) {
                return Err(WorldError::BadTxPower(gi));
            }
            let (lo, hi) = g.speed_range;
            let stalls = self.end_time + GRID_BUCKET_SLACK_M / g.max_speed() == self.end_time;
            if !(lo >= 0.0 && hi >= lo && hi.is_finite()) || stalls {
                return Err(WorldError::BadSpeedRange(gi));
            }
            match &g.placement {
                GroupPlacement::Uniform => {}
                GroupPlacement::Rect { min, max } => {
                    if !(min.x < max.x && min.y < max.y) {
                        return Err(WorldError::EmptyPlacementRect(gi));
                    }
                    if !(self.field.contains(*min) && self.field.contains(*max)) {
                        return Err(WorldError::PlacementOutsideField(gi));
                    }
                }
                GroupPlacement::Explicit(pts) => {
                    if pts.len() != g.n {
                        return Err(WorldError::PlacementArity {
                            group: gi,
                            points: pts.len(),
                            n: g.n,
                        });
                    }
                    if !pts.iter().all(|p| self.field.contains(*p)) {
                        return Err(WorldError::PlacementOutsideField(gi));
                    }
                }
            }
        }
        if self.source >= n_nodes {
            return Err(WorldError::SourceOutOfRange {
                source: self.source,
                n_nodes,
            });
        }
        if self.end_time < self.broadcast_time {
            return Err(WorldError::BadTimes);
        }
        let beacon_ok = self.beacon_interval.is_finite() && self.beacon_interval > 0.0;
        if !beacon_ok {
            return Err(WorldError::BadBeaconInterval);
        }
        Ok(())
    }
}

/// Chainable constructor for [`WorldSpec`]; see [`WorldSpec::builder`].
#[derive(Debug, Clone)]
pub struct WorldSpecBuilder {
    spec: WorldSpec,
}

impl WorldSpecBuilder {
    /// Sets a `width × height` metre field.
    pub fn area(mut self, width: f64, height: f64) -> Self {
        self.spec.field = Field::new(width, height);
        self
    }

    /// Sets the field directly.
    pub fn field(mut self, field: Field) -> Self {
        self.spec.field = field;
        self
    }

    /// Sets the shared physical layer.
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.spec.radio = radio;
        self
    }

    /// Appends a node group (node ids continue from the previous group).
    pub fn group(mut self, group: NodeGroup) -> Self {
        self.spec.groups.push(group);
        self
    }

    /// Sets the beacon (hello) period in seconds.
    pub fn beacon_interval(mut self, seconds: f64) -> Self {
        self.spec.beacon_interval = seconds;
        self
    }

    /// Sets the neighbour-table expiry in seconds.
    pub fn neighbor_expiry(mut self, seconds: f64) -> Self {
        self.spec.neighbor_expiry = seconds;
        self
    }

    /// Sets the traffic pattern: broadcast start and simulation end (s).
    pub fn broadcast_window(mut self, broadcast_time: f64, end_time: f64) -> Self {
        self.spec.broadcast_time = broadcast_time;
        self.spec.end_time = end_time;
        self
    }

    /// Sets the broadcasting source node (global id).
    pub fn source(mut self, source: NodeId) -> Self {
        self.spec.source = source;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Validates and returns the spec.
    pub fn build(self) -> Result<WorldSpec, WorldError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

// ---------------------------------------------------------------------------
// Dense scenarios and the shared text grammar
// ---------------------------------------------------------------------------

/// A beyond-paper dense evaluation scenario: an areal density plus an
/// explicit node count (and optionally heterogeneous [`NodeGroup`]s). The
/// field grows so that `area = n_nodes / per_km2`, holding the density
/// (and therefore the local connectivity structure) fixed while the
/// network scales — the regime where the simulator's incremental spatial
/// grid turns an O(n²) beacon interval into a near-O(n) one. Optional
/// log-normal shadowing exercises the bounded-tail grid query
/// ([`crate::radio::SHADOW_TAIL_SIGMAS`]).
///
/// `groups` empty means one homogeneous paper-default population of
/// `n_nodes` (the historical behaviour); non-empty groups partition
/// `n_nodes` exactly. The text grammar (see the [module docs](self))
/// round-trips through [`parse_spec`](Self::parse_spec) /
/// [`spec_string`](Self::spec_string).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseScenario {
    /// Devices per square kilometre (of the *total* population).
    pub per_km2: u32,
    /// Total devices across all groups.
    pub n_nodes: usize,
    /// Base seed; network `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Log-normal shadowing σ (dB); `0` disables it.
    pub shadowing_sigma_db: f64,
    /// Heterogeneous node groups; empty = one homogeneous default group.
    pub groups: Vec<NodeGroup>,
}

impl DenseScenario {
    /// Scale-up presets: paper densities, 10–20× the paper's node counts.
    pub const PRESETS: [DenseScenario; 3] = [
        DenseScenario {
            per_km2: 200,
            n_nodes: 500,
            base_seed: 7_200_500,
            shadowing_sigma_db: 0.0,
            groups: Vec::new(),
        },
        DenseScenario {
            per_km2: 300,
            n_nodes: 750,
            base_seed: 7_300_750,
            shadowing_sigma_db: 0.0,
            groups: Vec::new(),
        },
        DenseScenario {
            per_km2: 400,
            n_nodes: 1000,
            base_seed: 7_401_000,
            shadowing_sigma_db: 0.0,
            groups: Vec::new(),
        },
    ];

    /// Extreme-scale presets (10⁴ nodes): the incremental-grid regime.
    pub const XL_PRESETS: [DenseScenario; 3] = [
        DenseScenario {
            per_km2: 300,
            n_nodes: 5_000,
            base_seed: 7_305_000,
            shadowing_sigma_db: 0.0,
            groups: Vec::new(),
        },
        DenseScenario {
            per_km2: 400,
            n_nodes: 10_000,
            base_seed: 7_410_000,
            shadowing_sigma_db: 0.0,
            groups: Vec::new(),
        },
        DenseScenario {
            per_km2: 400,
            n_nodes: 100_000,
            base_seed: 7_500_000,
            shadowing_sigma_db: 0.0,
            groups: Vec::new(),
        },
    ];

    /// Shadowed-dense presets: urban-like 4 dB log-normal shadowing at the
    /// paper's middle density — the workload the bounded-tail grid query
    /// exists for (it used to force the naive O(n²) scan).
    pub const SHADOWED_PRESETS: [DenseScenario; 2] = [
        DenseScenario {
            per_km2: 200,
            n_nodes: 1_000,
            base_seed: 7_201_000,
            shadowing_sigma_db: 4.0,
            groups: Vec::new(),
        },
        DenseScenario {
            per_km2: 200,
            n_nodes: 2_000,
            base_seed: 7_202_000,
            shadowing_sigma_db: 4.0,
            groups: Vec::new(),
        },
    ];

    /// The heterogeneous preset of the scale experiments: 1000 paper-default
    /// walkers plus a 500-node stationary mesh at 20 dBm, at the paper's
    /// middle density (`1000@200+500:still:20dbm` in the shared grammar).
    /// Mixed mobility and mixed power exercise the per-group code paths —
    /// max-gate-radius growth, stationary re-anchor elision — that the
    /// homogeneous presets cannot. A fn rather than a const because
    /// non-empty group vectors are not const-constructible.
    pub fn hetero_preset() -> Self {
        Self::parse_spec("1000@200+500:still:20dbm").expect("preset spec is valid")
    }

    /// A scenario with the given density and node count (no shadowing,
    /// homogeneous).
    pub fn new(per_km2: u32, n_nodes: usize) -> Self {
        assert!(per_km2 > 0 && n_nodes > 0);
        Self {
            per_km2,
            n_nodes,
            base_seed: 7_000_000 + per_km2 as u64 * 10_000 + n_nodes as u64,
            shadowing_sigma_db: 0.0,
            groups: Vec::new(),
        }
    }

    /// The same scenario with log-normal shadowing of `sigma_db` enabled.
    ///
    /// # Errors
    /// [`WorldError::BadShadowing`] unless `sigma_db` lies in
    /// `0..=`[`MAX_SHADOWING_SIGMA_DB`] — the bound
    /// [`WorldSpec::validate`] holds every compiled world to.
    pub fn with_shadowing(mut self, sigma_db: f64) -> Result<Self, WorldError> {
        if !(0.0..=MAX_SHADOWING_SIGMA_DB).contains(&sigma_db) {
            return Err(WorldError::BadShadowing);
        }
        self.shadowing_sigma_db = sigma_db;
        Ok(self)
    }

    /// Appends a heterogeneous group, growing the total population (and
    /// therefore the field, which holds the density fixed). A homogeneous
    /// scenario first materialises its implicit default group so existing
    /// nodes keep their ids. A `base_seed` still at its derived default is
    /// re-derived from the new total (matching what
    /// [`parse_spec`](Self::parse_spec) produces for the same text);
    /// explicitly overridden seeds are left alone.
    pub fn with_group(mut self, group: NodeGroup) -> Self {
        assert!(group.n > 0, "group must not be empty");
        if self.groups.is_empty() {
            self.groups.push(NodeGroup::new(self.n_nodes));
        }
        let derived = |n: usize| 7_000_000 + self.per_km2 as u64 * 10_000 + n as u64;
        let seed_is_default = self.base_seed == derived(self.n_nodes);
        self.n_nodes += group.n;
        if seed_is_default {
            self.base_seed = derived(self.n_nodes);
        }
        self.groups.push(group);
        self
    }

    /// The square field holding `n_nodes` at `per_km2` devices/km².
    pub fn field(&self) -> Field {
        let area_km2 = self.n_nodes as f64 / self.per_km2 as f64;
        let side_m = (area_km2 * 1e6).sqrt();
        Field::new(side_m, side_m)
    }

    /// Compiles network `k` into a [`WorldSpec`]: [`WorldSpec::paper`]
    /// (so the scale experiments can never drift from the paper protocol)
    /// on the density-scaled field with this scenario's shadowing and
    /// groups.
    pub fn world_spec(&self, k: usize) -> WorldSpec {
        let mut w = WorldSpec::paper(self.n_nodes, self.base_seed + k as u64);
        w.field = self.field();
        w.radio.shadowing_sigma_db = self.shadowing_sigma_db;
        if !self.groups.is_empty() {
            w.groups = self.groups.clone();
        }
        w
    }

    /// Parses the scenario text grammar (see the [module docs](self)):
    /// `n@density[@sigma]` optionally followed by `+n`-groups with
    /// `:still` / `:walk[interval]` / `:rwp[pause]` / `:speedLO-HI` /
    /// `:rectXxY-XxY` / `:atXxY[-XxY...]` / `:POWERdbm` modifiers.
    /// Strict: malformed component counts, empty or non-numeric fields,
    /// unknown modifiers, inverted speed ranges or rectangles, negative
    /// coordinates and explicit placements whose point count differs from
    /// the group size are errors, never silently part-parsed.
    pub fn parse_spec(spec: &str) -> Result<Self, SpecError> {
        let err = |detail: &str| SpecError {
            spec: spec.to_string(),
            detail: detail.to_string(),
        };
        let mut segments = spec.trim().split('+');
        let head = segments.next().expect("split yields at least one");
        let mut head_fields = head.trim().split(':');
        let density_part = head_fields.next().expect("split yields at least one");
        let parts: Vec<&str> = density_part.trim().split('@').collect();
        if !(2..=3).contains(&parts.len()) {
            return Err(err("expected 2 or 3 @-separated components"));
        }
        let head_n: usize = parts[0].trim().parse().map_err(|_| err("bad node count"))?;
        let per_km2: u32 = parts[1].trim().parse().map_err(|_| err("bad density"))?;
        if head_n == 0 {
            return Err(err("bad node count"));
        }
        if per_km2 == 0 {
            return Err(err("bad density"));
        }
        let sigma: f64 = match parts.get(2) {
            None => 0.0,
            Some(s) => s.trim().parse().map_err(|_| err("bad shadowing sigma"))?,
        };
        let mut groups = vec![parse_group_modifiers(
            NodeGroup::new(head_n),
            head_fields,
            &err,
        )?];
        for seg in segments {
            let mut fields = seg.trim().split(':');
            let n: usize = fields
                .next()
                .expect("split yields at least one")
                .trim()
                .parse()
                .map_err(|_| err("bad node count"))?;
            if n == 0 {
                return Err(err("bad node count"));
            }
            groups.push(parse_group_modifiers(NodeGroup::new(n), fields, &err)?);
        }
        let n_nodes: usize = groups.iter().map(|g| g.n).sum();
        let mut d = DenseScenario::new(per_km2, n_nodes)
            .with_shadowing(sigma)
            .map_err(|_| err("bad shadowing sigma"))?;
        // Canonical homogeneous form: a single all-default group is the
        // implicit head, so `parse(format(s)) == s` holds for specs built
        // with `DenseScenario::new`.
        if !(groups.len() == 1 && groups[0].is_default()) {
            d.groups = groups;
        }
        Ok(d)
    }

    /// The canonical text form of this scenario in the shared grammar —
    /// the inverse of [`parse_spec`](Self::parse_spec)
    /// (`parse_spec(spec_string(s)) == s` for every grammar-expressible
    /// scenario; builder-only knobs like explicit placements have no text
    /// form and are omitted).
    pub fn spec_string(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let head_n = self.groups.first().map_or(self.n_nodes, |g| g.n);
        write!(out, "{head_n}@{}", self.per_km2).expect("string write");
        if self.shadowing_sigma_db > 0.0 {
            write!(out, "@{}", self.shadowing_sigma_db).expect("string write");
        }
        if let Some(head) = self.groups.first() {
            format_group_modifiers(&mut out, head);
        }
        for g in self.groups.iter().skip(1) {
            write!(out, "+{}", g.n).expect("string write");
            format_group_modifiers(&mut out, g);
        }
        out
    }
}

/// Applies `:modifier` fields to a group being parsed from the grammar.
fn parse_group_modifiers<'a, I, F>(
    mut group: NodeGroup,
    fields: I,
    err: &F,
) -> Result<NodeGroup, SpecError>
where
    I: Iterator<Item = &'a str>,
    F: Fn(&str) -> SpecError,
{
    let (mut saw_mobility, mut saw_power) = (false, false);
    let (mut saw_speed, mut saw_placement) = (false, false);
    // A field coordinate: non-negative and finite, so `-` can separate
    // corners and points without colliding with a sign.
    let coord = |s: &str, detail: &'static str| -> Result<f64, SpecError> {
        let v: f64 = s.trim().parse().map_err(|_| err(detail))?;
        if !(v >= 0.0 && v.is_finite()) {
            return Err(err(detail));
        }
        Ok(v)
    };
    let point = |s: &str, detail: &'static str| -> Result<Vec2, SpecError> {
        let (x, y) = s.split_once('x').ok_or_else(|| err(detail))?;
        Ok(Vec2::new(coord(x, detail)?, coord(y, detail)?))
    };
    for field in fields {
        let m = field.trim();
        if let Some(power) = m.strip_suffix("dbm") {
            if saw_power {
                return Err(err("duplicate power modifier"));
            }
            saw_power = true;
            let dbm: f64 = power.trim().parse().map_err(|_| err("bad power"))?;
            if !dbm.is_finite() {
                return Err(err("bad power"));
            }
            group.tx_power_dbm = Some(dbm);
            continue;
        }
        if let Some(range) = m.strip_prefix("speed") {
            if saw_speed {
                return Err(err("duplicate speed modifier"));
            }
            saw_speed = true;
            let (lo, hi) = range
                .split_once('-')
                .ok_or_else(|| err("bad speed range"))?;
            let lo = coord(lo, "bad speed range")?;
            let hi = coord(hi, "bad speed range")?;
            if hi < lo {
                return Err(err("bad speed range"));
            }
            group.speed_range = (lo, hi);
            continue;
        }
        if let Some(corners) = m.strip_prefix("rect") {
            if saw_placement {
                return Err(err("duplicate placement modifier"));
            }
            saw_placement = true;
            let (min, max) = corners
                .split_once('-')
                .ok_or_else(|| err("bad placement rect"))?;
            let min = point(min, "bad placement rect")?;
            let max = point(max, "bad placement rect")?;
            if !(min.x < max.x && min.y < max.y) {
                return Err(err("bad placement rect"));
            }
            group.placement = GroupPlacement::Rect { min, max };
            continue;
        }
        if let Some(points) = m.strip_prefix("at") {
            if saw_placement {
                return Err(err("duplicate placement modifier"));
            }
            saw_placement = true;
            let pts = points
                .split('-')
                .map(|p| point(p, "bad placement point"))
                .collect::<Result<Vec<_>, _>>()?;
            if pts.len() != group.n {
                return Err(err("placement point count differs from group size"));
            }
            group.placement = GroupPlacement::Explicit(pts);
            continue;
        }
        if saw_mobility {
            return Err(err("duplicate mobility modifier"));
        }
        saw_mobility = true;
        group.mobility = if m == "still" {
            MobilityModel::Stationary
        } else if let Some(rest) = m.strip_prefix("walk") {
            let change_interval = if rest.is_empty() {
                20.0
            } else {
                let v: f64 = rest.parse().map_err(|_| err("bad walk interval"))?;
                if !(v > 0.0 && v.is_finite()) {
                    return Err(err("bad walk interval"));
                }
                v
            };
            MobilityModel::RandomWalk { change_interval }
        } else if let Some(rest) = m.strip_prefix("rwp") {
            let pause = if rest.is_empty() {
                0.0
            } else {
                let v: f64 = rest.parse().map_err(|_| err("bad waypoint pause"))?;
                if !(v >= 0.0 && v.is_finite()) {
                    return Err(err("bad waypoint pause"));
                }
                v
            };
            MobilityModel::RandomWaypoint { pause }
        } else {
            return Err(err("unknown group modifier"));
        };
    }
    Ok(group)
}

/// Writes a group's `:modifier` suffixes in canonical form.
fn format_group_modifiers(out: &mut String, g: &NodeGroup) {
    use std::fmt::Write;
    match g.mobility {
        MobilityModel::RandomWalk { change_interval } => {
            if change_interval != 20.0 {
                write!(out, ":walk{change_interval}").expect("string write");
            }
        }
        MobilityModel::RandomWaypoint { pause } => {
            if pause == 0.0 {
                out.push_str(":rwp");
            } else {
                write!(out, ":rwp{pause}").expect("string write");
            }
        }
        MobilityModel::Stationary => out.push_str(":still"),
    }
    if g.speed_range != (0.0, 2.0) {
        let (lo, hi) = g.speed_range;
        write!(out, ":speed{lo}-{hi}").expect("string write");
    }
    match &g.placement {
        GroupPlacement::Uniform => {}
        GroupPlacement::Rect { min, max } => {
            write!(out, ":rect{}x{}-{}x{}", min.x, min.y, max.x, max.y).expect("string write");
        }
        GroupPlacement::Explicit(pts) => {
            out.push_str(":at");
            for (i, p) in pts.iter().enumerate() {
                if i > 0 {
                    out.push('-');
                }
                write!(out, "{}x{}", p.x, p.y).expect("string write");
            }
        }
    }
    if let Some(dbm) = g.tx_power_dbm {
        write!(out, ":{dbm}dbm").expect("string write");
    }
}

impl std::fmt::Display for DenseScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} nodes @ {} dev/km²", self.n_nodes, self.per_km2)?;
        if self.shadowing_sigma_db > 0.0 {
            write!(f, " (σ={} dB)", self.shadowing_sigma_db)?;
        }
        if !self.groups.is_empty() {
            write!(f, " [{} groups]", self.groups.len())?;
        }
        Ok(())
    }
}

/// A scenario text that does not parse under the shared grammar; `detail`
/// keeps the historical `--dense` error wording (`"bad node count"`,
/// `"bad density"`, `"bad shadowing sigma"`, …) so CLI messages stay
/// stable.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// The offending input.
    pub spec: String,
    /// What was wrong with it.
    pub detail: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad scenario spec {:?}: {}", self.spec, self.detail)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper_config() {
        let spec = WorldSpec::builder()
            .group(NodeGroup::new(50))
            .seed(9)
            .build()
            .expect("valid");
        assert_eq!(spec, WorldSpec::paper(50, 9));
        assert_eq!(spec.n_nodes(), 50);
        assert_eq!(spec.max_tx_dbm(), 16.02);
        assert_eq!(spec.max_speed(), 2.0);
    }

    #[test]
    fn builder_validates() {
        let b = || WorldSpec::builder().group(NodeGroup::new(10));
        assert_eq!(
            WorldSpec::builder().build().unwrap_err(),
            WorldError::NoNodes
        );
        assert_eq!(
            b().group(NodeGroup::new(0)).build().unwrap_err(),
            WorldError::EmptyGroup(1)
        );
        assert!(matches!(
            b().source(10).build().unwrap_err(),
            WorldError::SourceOutOfRange { .. }
        ));
        assert_eq!(
            b().broadcast_window(30.0, 20.0).build().unwrap_err(),
            WorldError::BadTimes
        );
        assert_eq!(
            b().beacon_interval(0.0).build().unwrap_err(),
            WorldError::BadBeaconInterval
        );
        assert_eq!(
            b().group(NodeGroup::new(3).speed_range(2.0, 1.0))
                .build()
                .unwrap_err(),
            WorldError::BadSpeedRange(1)
        );
        // At 1e300 m/s a 0.1 m grid refresh lands at `now` itself, so the
        // run would livelock: the spec parses but must not validate.
        let probe = DenseScenario::parse_spec("3@200+1:speed0-1e300").expect("parses");
        assert_eq!(
            probe.world_spec(0).validate().unwrap_err(),
            WorldError::BadSpeedRange(1)
        );
        // σ = 10³⁰⁰ dB and a 10⁶ dBm group ran before `validate` bounded
        // them; σ is now refused by the grammar itself.
        let e = DenseScenario::parse_spec("3@200@1e300").unwrap_err();
        assert_eq!(e.detail, "bad shadowing sigma");
        let probe = DenseScenario::parse_spec("3@200+2:1e6dbm").expect("parses");
        assert_eq!(
            probe.world_spec(0).validate().unwrap_err(),
            WorldError::BadTxPower(1)
        );
        let mut w = WorldSpec::paper(10, 1);
        for sigma in [-1.0, f64::NAN, f64::INFINITY, MAX_SHADOWING_SIGMA_DB * 1.01] {
            w.radio.shadowing_sigma_db = sigma;
            assert_eq!(
                w.validate().unwrap_err(),
                WorldError::BadShadowing,
                "{sigma}"
            );
        }
        w.radio.shadowing_sigma_db = MAX_SHADOWING_SIGMA_DB;
        assert_eq!(w.validate(), Ok(()));
        for power in [f64::NAN, MIN_TX_POWER_DBM - 1.0, MAX_TX_POWER_DBM + 1.0] {
            assert_eq!(
                b().group(NodeGroup::new(3).tx_power_dbm(power))
                    .build()
                    .unwrap_err(),
                WorldError::BadTxPower(1),
                "{power}"
            );
            let mut w = WorldSpec::paper(10, 1);
            w.radio.default_tx_dbm = power;
            assert_eq!(w.validate().unwrap_err(), WorldError::BadTxPower(0));
        }
        // Ids must fit below `u32::MAX`, and the count must not overflow.
        assert_eq!(
            b().group(NodeGroup::new(u32::MAX as usize))
                .build()
                .unwrap_err(),
            WorldError::TooManyNodes
        );
        assert_eq!(
            b().group(NodeGroup::new(usize::MAX)).build().unwrap_err(),
            WorldError::TooManyNodes
        );
        assert!(matches!(
            b().group(
                NodeGroup::new(2).placement(GroupPlacement::Explicit(vec![Vec2::new(1.0, 1.0)]))
            )
            .build()
            .unwrap_err(),
            WorldError::PlacementArity {
                group: 1,
                points: 1,
                n: 2
            }
        ));
        assert_eq!(
            b().group(
                NodeGroup::new(1).placement(GroupPlacement::Explicit(vec![Vec2::new(-1.0, 0.0)]))
            )
            .build()
            .unwrap_err(),
            WorldError::PlacementOutsideField(1)
        );
        assert_eq!(
            b().group(NodeGroup::new(4).placement(GroupPlacement::Rect {
                min: Vec2::new(9.0, 9.0),
                max: Vec2::new(3.0, 12.0),
            }))
            .build()
            .unwrap_err(),
            WorldError::EmptyPlacementRect(1)
        );
        // error text is what the simulator panics with
        assert!(WorldError::NoNodes.to_string().contains("at least one"));
        assert!(WorldError::PlacementArity {
            group: 0,
            points: 1,
            n: 2
        }
        .to_string()
        .contains("placement size mismatch"));
    }

    #[test]
    fn max_bounds_cover_all_groups() {
        let spec = WorldSpec::builder()
            .group(NodeGroup::new(10).tx_power_dbm(5.0))
            .group(
                NodeGroup::new(10)
                    .mobility(MobilityModel::RandomWaypoint { pause: 1.0 })
                    .speed_range(0.05, 0.1),
            )
            .group(NodeGroup::new(10).tx_power_dbm(20.0))
            .build()
            .expect("valid");
        assert_eq!(spec.max_tx_dbm(), 20.0);
        // RWP clamps its range up to 0.2 m/s; walk group caps at 2.0
        assert_eq!(spec.max_speed(), 2.0);
        let solo = WorldSpec::builder()
            .group(
                NodeGroup::new(5)
                    .mobility(MobilityModel::RandomWaypoint { pause: 1.0 })
                    .speed_range(0.05, 0.1),
            )
            .build()
            .expect("valid");
        assert_eq!(solo.max_speed(), 0.2);
    }

    #[test]
    fn paper_world_carries_table_ii() {
        let w = WorldSpec::paper(30, 5);
        w.validate().expect("the paper's world is valid");
        assert_eq!((w.field.width, w.field.height), (500.0, 500.0));
        assert_eq!(w.radio, RadioConfig::paper());
        assert_eq!(w.radio.default_tx_dbm, 16.02);
        assert_eq!(w.radio.shadowing_sigma_db, 0.0);
        assert_eq!(w.groups.len(), 1);
        let g = &w.groups[0];
        assert_eq!(g.n, 30);
        assert_eq!(
            g.mobility,
            MobilityModel::RandomWalk {
                change_interval: 20.0
            }
        );
        assert_eq!(g.speed_range, (0.0, 2.0));
        assert_eq!(g.tx_power_dbm, None);
        assert_eq!(g.placement, GroupPlacement::Uniform);
        assert_eq!(w.beacon_interval, 1.0);
        assert_eq!(w.neighbor_expiry, 2.5);
        assert_eq!((w.broadcast_time, w.end_time), (30.0, 40.0));
        assert_eq!(w.source, 0);
        assert_eq!(w.seed, 5);
        // Explicit placements go on the one group.
        let mut e = w;
        e.groups[0].placement =
            GroupPlacement::Explicit((0..30).map(|i| Vec2::new(10.0 + i as f64, 20.0)).collect());
        e.validate().expect("explicit placement is valid");
    }

    #[test]
    fn grammar_parses_historical_specs() {
        let d = DenseScenario::parse_spec("2000@200").expect("valid");
        assert_eq!(d, DenseScenario::new(200, 2000));
        let d = DenseScenario::parse_spec(" 1000@200@4 ").expect("valid");
        assert_eq!(
            d,
            DenseScenario::new(200, 1000)
                .with_shadowing(4.0)
                .expect("valid sigma")
        );
        assert!(d.groups.is_empty());
    }

    #[test]
    fn shadowing_outside_the_validated_range_is_a_typed_error() {
        // The builder holds σ to the bound `validate` enforces, so an
        // out-of-range σ is refused here instead of panicking later in
        // `Simulator::from_world`.
        for sigma in [
            -1.0,
            f64::NAN,
            f64::INFINITY,
            25.0,
            MAX_SHADOWING_SIGMA_DB * 1.01,
        ] {
            assert_eq!(
                DenseScenario::new(200, 100).with_shadowing(sigma),
                Err(WorldError::BadShadowing),
                "sigma {sigma}"
            );
        }
        for sigma in [0.0, 4.0, MAX_SHADOWING_SIGMA_DB] {
            let d = DenseScenario::new(200, 100)
                .with_shadowing(sigma)
                .expect("in range");
            d.world_spec(0)
                .validate()
                .expect("compiles to a valid world");
        }
        let e = DenseScenario::parse_spec("100@200@25").unwrap_err();
        assert_eq!(e.detail, "bad shadowing sigma");
        for bad in ["100@200@-1", "100@200@inf", "100@200@NaN", "100@200@x"] {
            assert!(DenseScenario::parse_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn grammar_parses_heterogeneous_groups() {
        let d = DenseScenario::parse_spec("500@200@4+50:still:10dbm+20:rwp2.5").expect("valid");
        assert_eq!(d.n_nodes, 570);
        assert_eq!(d.per_km2, 200);
        assert_eq!(d.shadowing_sigma_db, 4.0);
        assert_eq!(d.groups.len(), 3);
        assert_eq!(d.groups[0], NodeGroup::new(500));
        assert_eq!(
            d.groups[1],
            NodeGroup::new(50)
                .mobility(MobilityModel::Stationary)
                .tx_power_dbm(10.0)
        );
        assert_eq!(
            d.groups[2],
            NodeGroup::new(20).mobility(MobilityModel::RandomWaypoint { pause: 2.5 })
        );
        // base seed follows the total population, like `new`
        assert_eq!(d.base_seed, 7_000_000 + 200 * 10_000 + 570);
    }

    #[test]
    fn grammar_parses_placement_and_speed() {
        let d = DenseScenario::parse_spec(
            "200@200+10:still:rect10x20-100x200:5dbm+2:at1x2-3.5x4:speed0.5-1.5",
        )
        .expect("valid");
        assert_eq!(d.n_nodes, 212);
        assert_eq!(d.groups.len(), 3);
        assert_eq!(
            d.groups[1],
            NodeGroup::new(10)
                .mobility(MobilityModel::Stationary)
                .placement(GroupPlacement::Rect {
                    min: Vec2::new(10.0, 20.0),
                    max: Vec2::new(100.0, 200.0),
                })
                .tx_power_dbm(5.0)
        );
        assert_eq!(
            d.groups[2],
            NodeGroup::new(2)
                .speed_range(0.5, 1.5)
                .placement(GroupPlacement::Explicit(vec![
                    Vec2::new(1.0, 2.0),
                    Vec2::new(3.5, 4.0),
                ]))
        );
        // modifier order in the text is free; the canonical form is fixed
        assert_eq!(
            d.spec_string(),
            "200@200+10:still:rect10x20-100x200:5dbm+2:speed0.5-1.5:at1x2-3.5x4"
        );
    }

    #[test]
    fn grammar_round_trips() {
        for text in [
            "2000@200",
            "1000@200@4",
            "500@200+50:still:10dbm",
            "500@300@6:walk5+50:rwp+20:rwp1.5:0.5dbm",
            "100@100:still",
            "500@200+50:speed0-3.5",
            "400@200@2+10:still:rect10x20-100x120:8dbm",
            "100@100+3:at1x2-3x4-5x6",
            "60@150:speed0.25-1:rect0x0-50x50",
        ] {
            let d = DenseScenario::parse_spec(text).expect("valid");
            assert_eq!(d.spec_string(), text, "canonical form");
            assert_eq!(
                DenseScenario::parse_spec(&d.spec_string()).expect("valid"),
                d,
                "round trip of {text}"
            );
        }
        // constructed scenarios round-trip too
        let d = DenseScenario::new(250, 800)
            .with_shadowing(2.5)
            .expect("valid sigma")
            .with_group(NodeGroup::new(40).mobility(MobilityModel::Stationary));
        assert_eq!(
            DenseScenario::parse_spec(&d.spec_string()).expect("valid"),
            d
        );
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        for (text, detail) in [
            ("2000@200@4@", "expected 2 or 3 @-separated components"),
            ("2000@200@4@9", "expected 2 or 3 @-separated components"),
            ("2000", "expected 2 or 3 @-separated components"),
            ("2000@", "bad density"),
            ("many@200", "bad node count"),
            ("0@200", "bad node count"),
            ("2000@0", "bad density"),
            ("2000@200@x", "bad shadowing sigma"),
            ("2000@200@-4", "bad shadowing sigma"),
            ("500@200+x", "bad node count"),
            ("500@200+0", "bad node count"),
            ("500@200+50:hover", "unknown group modifier"),
            ("500@200+50:walkx", "bad walk interval"),
            ("500@200+50:walk0", "bad walk interval"),
            ("500@200+50:rwp-1", "bad waypoint pause"),
            ("500@200+50:xdbm", "bad power"),
            ("500@200+50:still:walk", "duplicate mobility modifier"),
            ("500@200+50:1dbm:2dbm", "duplicate power modifier"),
            ("500@200+50:speed2", "bad speed range"),
            ("500@200+50:speed3-1", "bad speed range"),
            ("500@200+50:speedx-1", "bad speed range"),
            ("500@200+50:speed1-2:speed1-2", "duplicate speed modifier"),
            ("500@200+50:rect10x20", "bad placement rect"),
            ("500@200+50:rect10x20-5x30", "bad placement rect"),
            ("500@200+50:rect10,20,30,40", "bad placement rect"),
            ("500@200+2:at1x2-3xq", "bad placement point"),
            (
                "500@200+2:at1x2",
                "placement point count differs from group size",
            ),
            (
                "500@200+50:rect0x0-9x9:at1x2",
                "duplicate placement modifier",
            ),
        ] {
            let e = DenseScenario::parse_spec(text).expect_err(text);
            assert_eq!(e.detail, detail, "for {text}");
            assert!(e.to_string().contains(detail));
        }
    }

    #[test]
    fn heterogeneous_world_spec_partitions_population() {
        let d = DenseScenario::parse_spec("400@200+100:still:8dbm").expect("valid");
        let w = d.world_spec(3);
        assert_eq!(w.n_nodes(), 500);
        assert_eq!(w.seed, d.base_seed + 3);
        assert_eq!(w.groups.len(), 2);
        assert_eq!(w.groups[1].tx_power_dbm, Some(8.0));
        // the field holds the density for the *total* population
        assert!((w.field.area() - 2.5e6).abs() < 1.0);
        w.validate().expect("valid world");
        // the homogeneous path is the paper's world on the scaled field
        let h = DenseScenario::new(200, 500);
        let mut paper = WorldSpec::paper(500, h.base_seed + 1);
        paper.field = h.field();
        assert_eq!(h.world_spec(1), paper);
    }

    #[test]
    fn with_group_materialises_the_implicit_head() {
        let d = DenseScenario::new(200, 500)
            .with_group(NodeGroup::new(100).mobility(MobilityModel::Stationary));
        assert_eq!(d.n_nodes, 600);
        assert_eq!(d.groups.len(), 2);
        assert_eq!(d.groups[0].n, 500);
        assert_eq!(d.spec_string(), "500@200+100:still");
    }
}
