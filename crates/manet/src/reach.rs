//! Per-sender **reach lists** for shadowed delivery queries: the
//! neighbour-list idea of molecular dynamics (Verlet, Phys. Rev. 159, 98,
//! 1967) applied to radio links.
//!
//! # Why
//!
//! Under log-normal shadowing every link `{a, b}` carries a fixed gain
//! `g_ab` ([`LinkDraw`], truncated at `+4σ`), so a delivery query has to
//! sweep the whole decode disc of `tx + 4σ` — about 3.4× the unshadowed
//! radius at σ = 4 dB — and hash every link in it, although few of its
//! nodes can decode: at `2000@200@4` a beacon sweeps 166 candidates in 107
//! grid cells for 16 deliveries. Which nodes can decode a sender depends
//! only on the links' fixed gains and on distance, and distances change
//! only as fast as nodes move. So a sender keeps the list of nodes that
//! could reach it, and its next queries evaluate only those.
//!
//! # The list
//!
//! A sender `a` with power class `P_c` (its beacon power) builds its list
//! from one ordinary [`DeliverySweep`](crate::sweep::DeliverySweep) of
//! radius `decode_r(P_c) + `[`REACH_SKIN_M`] around the query's frame
//! position `c₀`, with candidate positions at the query's end `t₀` (the
//! frame started at `s₀`). A candidate `b` at distance `d₀` is admitted,
//! with its link's `u1` and `g_ab`, when a node at the shrunk distance
//! `d_eff = max(d₀ − SKIN, 0)` would decode a frame of `a` sent at `P_c`:
//!
//! ```text
//! ¬ ShadowCull(P_c).culls(d_eff², u1)   and   rx(P_c, d_eff) + g_ab ≥ sensitivity − 10⁻⁶ dB
//! ```
//!
//! The list serves every later frame of `a` sent at or below `P_c` whose
//! query ends at `t` with
//!
//! ```text
//! 2 · v_max · (t − s₀ + D) ≤ SKIN − margin
//! ```
//!
//! where `v_max` is [`WorldSpec::max_speed`](crate::world::WorldSpec::max_speed)
//! and `D` the longest frame duration. A query served by the list
//! evaluates only its members, in ascending id order, through the same
//! position, `d²`, [`ShadowCull`] and received-power arithmetic as the
//! sweep path, so deliveries, losses and counters are bit-identical. A
//! frame above `P_c` keeps the disc sweep.
//!
//! # Exactness
//!
//! A node the list drops cannot decode any frame the list serves. Take a
//! later frame of `a` at power `P ≤ P_c`, sent from `c` at `s` and decoded
//! by `b` at position `b(t)`, so `rx(P, |b(t) − c|) + g_ab ≥ sensitivity`.
//!
//! * **Distance.** Every node moves at most `v_max` per second, and field
//!   reflection is 1-Lipschitz, so `|b(t) − b(t₀)| ≤ v_max (t − t₀)`.
//!   Query times never decrease, so `t ≥ t₀ ≥ s₀`, and `s ≥ t − D ≥ s₀ − D`.
//!   Hence `|c − c₀| ≤ v_max (t − s₀ + D)`, and `|b(t) − c|` is at least
//!   `d₀ − 2 v_max (t − s₀ + D) ≥ d₀ − SKIN + margin`: `b` is now farther
//!   from the frame than `d_eff` by at least `margin` (10⁻⁶ m, far above
//!   the ~10⁻¹² m of rounding in positions and distances).
//! * **Power.** Path loss is non-decreasing in distance for every
//!   [`PathLoss`] model, and `P ≤ P_c`. So `rx(P_c, d_eff) + g_ab ≥
//!   rx(P, |b(t) − c|) + g_ab ≥ sensitivity`.
//! * **Admission.** That is the admission test, which therefore kept `b`:
//!   its `10⁻⁶ dB` margin dwarfs the ~10⁻¹² dB the sums round by, and
//!   [`ShadowCull`] only drops candidates that provably fail the exact
//!   test at `d_eff` (see its docs).
//!
//! The frame that builds a list is served from it too: there `t = t₀` and
//! `c = c₀`, so `|b(t) − c| = d₀ ≥ d_eff` without any bound on motion.
//!
//! # Scope
//!
//! The lists are a cache of a pure function of the trajectory: they are
//! not part of a [`Checkpoint`](crate::sim::Checkpoint), `reset` and
//! `restore` drop them, and unshadowed worlds (whose decode test is a
//! log-free `d²` compare already) never allocate them.

use crate::geometry::Vec2;
use crate::radio::{LinkDraw, PathLoss, ShadowCull};
use crate::snapshot::KinematicSnapshot;
use crate::world::WorldSpec;

/// How far (m) beyond its class-power reach a node may sit and still be
/// listed: the distance sender and receiver may close between rebuilds.
/// A list lives `SKIN / (2 · v_max)` simulated seconds — 10 s at the
/// paper's 2 m/s walkers, ten beacons. A wider skin lists more nodes per
/// query but rebuilds less often. On `2000@200@4`, `1000@200@4` and
/// `1000@200@8` (2-core x86-64 host), 40 m ran 0–10 % faster than 30 m
/// and within noise of 50 m.
pub const REACH_SKIN_M: f64 = 40.0;

/// Distance slack (m) the list lifetime reserves against rounding in
/// positions and distances (~10⁻¹² m at field scales).
const REACH_MARGIN_M: f64 = 1e-6;

/// Received-power slack (dB) of the admission test, against rounding in
/// the path-loss and shadowing sums (~10⁻¹² dB).
const REACH_MARGIN_DB: f64 = 1e-6;

/// One listed receiver: its id and its link's cached shadowing draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachMember {
    /// The receiver.
    pub id: u32,
    /// The link's first Box–Muller uniform ([`LinkDraw::u1`]), for the
    /// query's [`ShadowCull`].
    pub u1: f64,
    /// The link's shadowing, exactly [`LinkDraw::shadowing_db`].
    pub shadowing_db: f64,
}

#[derive(Debug, Clone)]
struct ReachList {
    /// The latest query end time the list may serve; `-∞` when there is
    /// no list.
    expires: f64,
    members: Vec<ReachMember>,
}

/// Every sender's reach list plus the world constants that build them
/// (see the module docs). One instance lives in the simulator's delivery
/// scratch.
#[derive(Debug, Clone, Default)]
pub struct ReachLists {
    lists: Vec<ReachList>,
    /// How long (s) after its frame's start a list stays valid; 0 when
    /// lists are off (unshadowed world).
    lifetime: f64,
    path_loss: Option<PathLoss>,
    sigma_db: f64,
    sensitivity_dbm: f64,
    seed: u64,
    rebuilds: u64,
    candidates: u64,
}

impl ReachLists {
    /// No lists; call [`reset`](Self::reset) with a world first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-arms for `spec`'s `n_nodes` nodes: drops every list and zeroes
    /// the counters. An unshadowed world frees the lists and turns them
    /// off; a shadowed one keeps the per-sender allocations.
    pub fn reset(&mut self, spec: &WorldSpec, n_nodes: usize) {
        let radio = &spec.radio;
        let v = spec.max_speed();
        let longest_frame = radio.beacon_duration.max(radio.data_duration);
        self.lifetime = if radio.shadowing_sigma_db <= 0.0 {
            0.0
        } else if v > 0.0 {
            (REACH_SKIN_M - REACH_MARGIN_M) / (2.0 * v) - longest_frame
        } else {
            f64::INFINITY
        };
        self.rebuilds = 0;
        self.candidates = 0;
        if !self.enabled() {
            self.lists = Vec::new();
            return;
        }
        self.path_loss = Some(radio.path_loss);
        self.sigma_db = radio.shadowing_sigma_db;
        self.sensitivity_dbm = radio.rx_sensitivity_dbm;
        self.seed = spec.seed;
        self.lists.truncate(n_nodes);
        for list in &mut self.lists {
            list.expires = f64::NEG_INFINITY;
            list.members.clear();
        }
        self.lists.resize_with(n_nodes, || ReachList {
            expires: f64::NEG_INFINITY,
            members: Vec::new(),
        });
    }

    /// Whether this world resolves frames through reach lists: shadowed,
    /// and slow enough that a list outlives the frame that builds it.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.lifetime > 0.0
    }

    /// Whether `sender` holds a list valid for a query ending at `t`.
    #[inline]
    pub fn is_live(&self, sender: usize, t: f64) -> bool {
        t <= self.lists[sender].expires
    }

    /// Rebuilds `sender`'s list from `swept`, the `(id, position, d²)`
    /// triples of a sweep of radius `decode_r(class_dbm) + `[`REACH_SKIN_M`]
    /// around the position of a frame that started at `start`, in
    /// ascending id order. `cull` is the [`ShadowCull`] of `class_dbm`.
    pub fn rebuild(
        &mut self,
        sender: usize,
        start: f64,
        class_dbm: f64,
        cull: &ShadowCull,
        swept: &[(usize, Vec2, f64)],
    ) {
        let pl = self.path_loss.expect("reset() with a shadowed world");
        let floor = self.sensitivity_dbm - REACH_MARGIN_DB;
        let list = &mut self.lists[sender];
        list.members.clear();
        for &(b, _, d2) in swept {
            if b == sender {
                continue;
            }
            let d_eff = (d2.sqrt() - REACH_SKIN_M).max(0.0);
            let draw = LinkDraw::new(self.seed, sender, b);
            if cull.culls(d_eff * d_eff, draw.u1) {
                continue;
            }
            let g = draw.shadowing_db(self.sigma_db);
            if pl.rx_dbm(class_dbm, d_eff) + g >= floor {
                list.members.push(ReachMember {
                    id: b as u32,
                    u1: draw.u1,
                    shadowing_db: g,
                });
            }
        }
        list.expires = start + self.lifetime;
        self.rebuilds += 1;
    }

    /// Appends `(id, position, d²)` at `t` from `center` for every member
    /// of `sender`'s list, in ascending id order — the arithmetic of the
    /// sweep's emit pass ([`KinematicSnapshot::position`], then
    /// [`Vec2::distance_sq`]).
    pub fn positions_into(
        &mut self,
        sender: usize,
        snap: &KinematicSnapshot,
        center: Vec2,
        t: f64,
        out: &mut Vec<(usize, Vec2, f64)>,
    ) {
        let members = &self.lists[sender].members;
        self.candidates += members.len() as u64;
        out.extend(members.iter().map(|m| {
            let p = snap.position(m.id as usize, t);
            (m.id as usize, p, p.distance_sq(center))
        }));
    }

    /// `sender`'s listed receivers, in ascending id order.
    #[inline]
    pub fn members(&self, sender: usize) -> &[ReachMember] {
        &self.lists[sender].members
    }

    /// Lists rebuilt since the last [`reset`](Self::reset).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Members evaluated by list-served queries since the last
    /// [`reset`](Self::reset).
    pub fn candidates(&self) -> u64 {
        self.candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::MobilityModel;

    #[test]
    fn lists_live_for_the_skin_over_twice_the_top_speed() {
        let mut w = WorldSpec::paper(10, 1);
        w.radio.shadowing_sigma_db = 4.0;
        let mut lists = ReachLists::new();
        lists.reset(&w, 10);
        let longest = w.radio.data_duration;
        assert_eq!(lists.lists.len(), 10);
        assert!((lists.lifetime - (REACH_SKIN_M / 4.0 - longest)).abs() < 1e-6);
        assert!(lists.enabled() && !lists.is_live(3, 0.0));
        // Nobody moves: a list never expires.
        w.groups[0].mobility = MobilityModel::Stationary;
        lists.reset(&w, 10);
        assert_eq!(lists.lifetime, f64::INFINITY);
        // Too fast for a list to outlive its own frame: lists are off.
        w.groups[0].mobility = MobilityModel::RandomWalk {
            change_interval: 20.0,
        };
        w.groups[0].speed_range = (0.0, 1e6);
        lists.reset(&w, 10);
        assert!(!lists.enabled());
    }

    #[test]
    fn unshadowed_worlds_hold_no_lists() {
        let mut w = WorldSpec::paper(10, 1);
        w.radio.shadowing_sigma_db = 4.0;
        let mut lists = ReachLists::new();
        lists.reset(&w, 10);
        assert!(lists.lists.capacity() >= 10);
        w.radio.shadowing_sigma_db = 0.0;
        lists.reset(&w, 10);
        assert!(!lists.enabled());
        assert_eq!(
            lists.lists.capacity(),
            0,
            "the previous world's lists are freed"
        );
    }

    #[test]
    fn rebuild_lists_every_node_a_skin_closer_could_decode() {
        // Receivers on a line away from the sender: a node is listed iff
        // it would decode a class-power frame from `REACH_SKIN_M` closer,
        // and the sender never lists itself.
        let mut w = WorldSpec::paper(2, 1);
        w.radio.shadowing_sigma_db = 6.0;
        let radio = w.radio;
        let mut lists = ReachLists::new();
        lists.reset(&w, 400);
        let class = radio.default_tx_dbm;
        let cull = ShadowCull::new(
            radio.path_loss,
            class,
            radio.shadowing_sigma_db,
            radio.rx_sensitivity_dbm,
        );
        let swept: Vec<(usize, Vec2, f64)> = (0..400)
            .map(|i| {
                let d = 2.0 * i as f64;
                (i, Vec2::new(d, 0.0), d * d)
            })
            .collect();
        lists.rebuild(0, 1.0, class, &cull, &swept);
        assert!(lists.is_live(0, 1.0) && lists.is_live(0, 1.0 + lists.lifetime));
        assert!(!lists.is_live(0, 1.0 + lists.lifetime + 1e-9));
        let listed: Vec<u32> = lists.members(0).iter().map(|m| m.id).collect();
        for &(i, _, d2) in &swept[1..] {
            let g = crate::radio::link_shadowing_db(radio.shadowing_sigma_db, w.seed, 0, i);
            let closer = (d2.sqrt() - REACH_SKIN_M).max(0.0);
            let decodes = radio.path_loss.rx_dbm(class, closer) + g >= radio.rx_sensitivity_dbm;
            assert_eq!(listed.contains(&(i as u32)), decodes, "node {i}");
        }
        assert!(!listed.contains(&0));
        assert!(listed.windows(2).all(|p| p[0] < p[1]));
        for m in lists.members(0) {
            let draw = LinkDraw::new(w.seed, 0, m.id as usize);
            assert_eq!((m.u1, m.shadowing_db), (draw.u1, draw.shadowing_db(6.0)));
        }
        assert_eq!(lists.rebuilds(), 1);
    }
}
