//! Flat **kinematic snapshot** of every node's current
//! mobility segment — the flat data the delivery query filters candidates
//! against.
//!
//! The simulator's inner loop ("who hears this frame?") has to evaluate
//! the *current, exact* position of every candidate a spatial-grid query
//! returns. Doing that through `dyn Mobility::position(t)` costs an enum
//! dispatch plus a pointer chase into a ~100-byte mobility struct per
//! candidate — a cache miss each at 10⁴ nodes. The snapshot instead keeps
//! each node's segment in one 64-byte [`PackedSegment`] record (origin,
//! velocity/displacement, segment start, arrival time and the
//! [`SegmentKind`] discriminant heterogeneous worlds need), plus a
//! waypoint-destination lane. The candidate filter reads one cache line
//! per candidate with a single branch on the kind — perfectly predicted
//! whenever a world (or a spatial neighbourhood of it) is dominated by
//! one mobility model.
//!
//! Since the log-free receive-outcome rewrite, the squared distances this
//! filter computes are not just a pre-filter input but the *decode test
//! itself*: unshadowed, the delivery query compares each candidate's `d²`
//! straight against the transmission's precomputed threshold band
//! ([`PathLoss::threshold_band_sq`]) — no per-candidate `log10` — so the
//! records feed the exact outcome classification, not merely a candidate
//! list.
//!
//! Records are refreshed in **O(1)** when a node's mobility segment changes
//! (the simulator drives [`KinematicSnapshot::set`] from the same
//! mobility-change events that bump its per-node refresh generations) and
//! rebuilt in O(n) on simulator reset. [`KinematicSnapshot::position`]
//! evaluates the segment arithmetic **bit-identically** to
//! [`Mobility::position`] — the contract documented on
//! [`KinematicSegment`] and asserted by this module's tests plus the
//! cross-mode parity suites — which is what lets the optimised delivery
//! path produce the same results as the naive oracle down to the last
//! bit.
//!
//! [`Mobility::position`]: crate::mobility::Mobility::position
//! [`PathLoss::threshold_band_sq`]: crate::radio::PathLoss::threshold_band_sq

use crate::geometry::{Field, Vec2};
use crate::mobility::{KinematicSegment, SegmentKind};

/// One node's hot segment fields packed (and padded) into a single
/// 64-byte cache line.
///
/// The chunk kernels of [`crate::sweep`] evaluate candidates *gathered*
/// by a spatial query, so every access is effectively random: one lane
/// per field would cost one cache line per field touched (kind, origin,
/// velocity, segment start — four lines per candidate at 10⁴+ nodes),
/// while this record serves all four from one.
///
/// Waypoint destinations are deliberately absent (they would overflow
/// the line): they live in their own lane, read only by the waypoint
/// arm of [`KinematicSnapshot::position`].
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub struct PackedSegment {
    /// Segment origin (walk/waypoint) or fixed position (still).
    pub origin: Vec2,
    /// Walk velocity / waypoint leg displacement.
    pub velocity: Vec2,
    /// Segment start time.
    pub t0: f64,
    /// Waypoint arrival time (`+∞` otherwise).
    pub arrival: f64,
    /// Trajectory-family discriminant.
    pub kind: SegmentKind,
}

impl From<KinematicSegment> for PackedSegment {
    fn from(s: KinematicSegment) -> Self {
        Self {
            origin: s.origin,
            velocity: s.velocity,
            t0: s.t0,
            arrival: s.arrival,
            kind: s.kind,
        }
    }
}

/// Per-node segment records plus the waypoint-destination lane, both
/// index-aligned by node id (see the module docs). Each record carries
/// its own [`SegmentKind`]: heterogeneous worlds
/// ([`crate::world::WorldSpec`]) mix mobility models across node groups.
/// For the homogeneous worlds the paper evaluates, every record has the
/// same kind and the per-candidate branch stays perfectly predicted.
#[derive(Debug, Clone)]
pub struct KinematicSnapshot {
    field: Field,
    packed: Vec<PackedSegment>,
    dest: Vec<Vec2>,
}

impl KinematicSnapshot {
    /// An empty snapshot over `field`; call [`rebuild`](Self::rebuild)
    /// before querying.
    pub fn new(field: Field) -> Self {
        Self {
            field,
            packed: Vec::new(),
            dest: Vec::new(),
        }
    }

    /// Number of nodes captured.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether the snapshot holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The simulation field (walk segments reflect off its walls).
    pub fn field(&self) -> Field {
        self.field
    }

    /// The segment kind of node `i`.
    pub fn kind_of(&self, i: usize) -> SegmentKind {
        self.packed[i].kind
    }

    /// Re-captures every node's segment, reusing the allocations. Kinds
    /// may differ per node (heterogeneous worlds).
    pub fn rebuild<I: IntoIterator<Item = KinematicSegment>>(&mut self, field: Field, segs: I) {
        self.field = field;
        self.packed.clear();
        self.dest.clear();
        for s in segs {
            self.packed.push(PackedSegment::from(s));
            self.dest.push(s.dest);
        }
    }

    /// O(1) refresh of node `i`'s record after its mobility segment
    /// changed (a waypoint arrival, a random-walk re-draw).
    pub fn set(&mut self, i: usize, s: KinematicSegment) {
        self.packed[i] = PackedSegment::from(s);
        self.dest[i] = s.dest;
    }

    /// The segment of node `i`, reassembled (tests/diagnostics).
    pub fn segment(&self, i: usize) -> KinematicSegment {
        let s = &self.packed[i];
        KinematicSegment {
            kind: s.kind,
            origin: s.origin,
            velocity: s.velocity,
            t0: s.t0,
            arrival: s.arrival,
            dest: self.dest[i],
        }
    }

    /// The per-node segment records (see [`PackedSegment`]), index-aligned
    /// by node id — what the chunk kernels of [`crate::sweep`] read.
    /// Evaluating record `i` per [`KinematicSegment`]'s contract
    /// reproduces [`position`](Self::position) bit-for-bit.
    pub fn packed(&self) -> &[PackedSegment] {
        &self.packed
    }

    /// Exact position of node `i` at time `t` — bit-identical to the
    /// backing [`Mobility::position`] call (see the module docs).
    ///
    /// [`Mobility::position`]: crate::mobility::Mobility::position
    #[inline]
    pub fn position(&self, i: usize, t: f64) -> Vec2 {
        let s = &self.packed[i];
        match s.kind {
            SegmentKind::Walk => {
                let dt = (t - s.t0).max(0.0);
                self.field.reflect(s.origin + s.velocity * dt)
            }
            SegmentKind::Waypoint => {
                if t >= s.arrival {
                    return self.dest[i];
                }
                let total = s.arrival - s.t0;
                if total <= 0.0 {
                    return self.dest[i];
                }
                let frac = ((t - s.t0) / total).clamp(0.0, 1.0);
                s.origin + s.velocity * frac
            }
            SegmentKind::Still => s.origin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{AnyMobility, Mobility, RandomWalk, RandomWaypoint, Stationary};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn field() -> Field {
        Field::new(400.0, 300.0)
    }

    fn capture(ms: &[AnyMobility]) -> KinematicSnapshot {
        let mut s = KinematicSnapshot::new(field());
        s.rebuild(field(), ms.iter().map(|m| m.segment()));
        s
    }

    #[test]
    fn walk_positions_bit_identical_across_segments() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut ms: Vec<AnyMobility> = (0..40)
            .map(|i| {
                AnyMobility::Walk(RandomWalk::new(
                    field(),
                    Vec2::new(10.0 + i as f64 * 7.3, 20.0 + i as f64 * 5.1),
                    (0.0, 2.0),
                    4.0,
                    0.0,
                    &mut rng,
                ))
            })
            .collect();
        let mut snap = capture(&ms);
        let mut t = 0.0;
        for step in 0..60 {
            t += 0.37;
            for (i, m) in ms.iter_mut().enumerate() {
                while m.next_change() <= t {
                    m.advance(&mut rng);
                    snap.set(i, m.segment());
                }
                // Bit-exact equality, including exactly at segment starts.
                assert_eq!(snap.position(i, t), m.position(t), "step {step} node {i}");
                let t0 = m.segment().t0;
                assert_eq!(snap.position(i, t0), m.position(t0), "at t0, node {i}");
            }
        }
    }

    #[test]
    fn waypoint_positions_bit_identical_including_pauses() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut ms: Vec<AnyMobility> = (0..20)
            .map(|i| {
                AnyMobility::Waypoint(RandomWaypoint::new(
                    field(),
                    Vec2::new(5.0 + i as f64 * 11.0, 9.0 + i as f64 * 3.0),
                    (0.5, 2.0),
                    1.5,
                    0.0,
                    &mut rng,
                ))
            })
            .collect();
        let mut snap = capture(&ms);
        let mut t = 0.0;
        for _ in 0..80 {
            t += 0.61;
            for (i, m) in ms.iter_mut().enumerate() {
                while m.next_change() <= t {
                    m.advance(&mut rng);
                    snap.set(i, m.segment());
                }
                assert_eq!(snap.position(i, t), m.position(t), "node {i} t {t}");
                // exactly at the arrival instant (parked thereafter)
                let arr = m.segment().arrival;
                if arr.is_finite() && arr >= t {
                    assert_eq!(snap.position(i, arr), m.position(arr));
                }
            }
        }
    }

    #[test]
    fn stationary_positions_are_constant() {
        let ms = vec![
            AnyMobility::Still(Stationary {
                pos: Vec2::new(1.0, 2.0),
            }),
            AnyMobility::Still(Stationary {
                pos: Vec2::new(399.0, 299.0),
            }),
        ];
        let snap = capture(&ms);
        assert_eq!(snap.kind_of(0), SegmentKind::Still);
        assert_eq!(snap.position(0, 0.0), Vec2::new(1.0, 2.0));
        assert_eq!(snap.position(0, 1e6), Vec2::new(1.0, 2.0));
        assert_eq!(snap.position(1, 40.0), ms[1].position(40.0));
    }

    #[test]
    fn rebuild_reuses_lanes_and_resizes() {
        let mut rng = SmallRng::seed_from_u64(3);
        let ms: Vec<AnyMobility> = (0..10)
            .map(|_| {
                AnyMobility::Walk(RandomWalk::new(
                    field(),
                    Vec2::new(50.0, 50.0),
                    (1.0, 2.0),
                    20.0,
                    0.0,
                    &mut rng,
                ))
            })
            .collect();
        let mut snap = capture(&ms);
        assert_eq!(snap.len(), 10);
        snap.rebuild(field(), ms[..3].iter().map(|m| m.segment()));
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
        assert_eq!(snap.position(2, 7.0), ms[2].position(7.0));
    }

    #[test]
    fn mixed_kinds_evaluate_bit_identically() {
        // Heterogeneous worlds put different mobility models side by side
        // in one snapshot; every node must still evaluate exactly its own
        // model's arithmetic.
        let mut rng = SmallRng::seed_from_u64(4);
        let mut ms = vec![
            AnyMobility::Still(Stationary { pos: Vec2::ZERO }),
            AnyMobility::Walk(RandomWalk::new(
                field(),
                Vec2::new(1.0, 1.0),
                (0.5, 2.0),
                4.0,
                0.0,
                &mut rng,
            )),
            AnyMobility::Waypoint(RandomWaypoint::new(
                field(),
                Vec2::new(200.0, 100.0),
                (0.5, 2.0),
                1.0,
                0.0,
                &mut rng,
            )),
        ];
        let mut snap = capture(&ms);
        assert_eq!(snap.kind_of(0), SegmentKind::Still);
        assert_eq!(snap.kind_of(1), SegmentKind::Walk);
        assert_eq!(snap.kind_of(2), SegmentKind::Waypoint);
        let mut t = 0.0;
        for _ in 0..40 {
            t += 0.83;
            for (i, m) in ms.iter_mut().enumerate() {
                while m.next_change() <= t {
                    m.advance(&mut rng);
                    snap.set(i, m.segment());
                }
                assert_eq!(snap.position(i, t), m.position(t), "node {i} t {t}");
                assert_eq!(snap.segment(i), m.segment(), "node {i}");
            }
        }
    }
}
