//! Node mobility models.
//!
//! The paper's evaluation uses the **random walk** model (Table II: speed
//! uniform in [0, 2] m/s, direction and speed re-drawn every 20 s, 500 m
//! square field). Positions are evaluated *analytically* between waypoint
//! events: the trajectory between two re-draws is a straight line folded
//! into the field by mirror reflection, so the simulator never needs
//! per-tick position updates.
//!
//! [`RandomWaypoint`] and [`Stationary`] are provided for extensions and
//! tests.

use crate::geometry::{Field, Vec2};
use rand::Rng;

/// Which closed-form trajectory family a [`KinematicSegment`] belongs to —
/// the discriminant the kinematic snapshot (`manet::snapshot`) branches on
/// *once per query*, instead of dispatching through `dyn Mobility` per
/// candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Straight segment folded into the field by mirror reflection
    /// ([`RandomWalk`]).
    Walk,
    /// Linear interpolation towards a destination, parked on arrival
    /// ([`RandomWaypoint`]).
    Waypoint,
    /// No movement ([`Stationary`]).
    Still,
}

/// The closed-form description of a node's trajectory between two internal
/// state changes, exported in flat scalar form so positions can be
/// evaluated from structure-of-arrays lanes **bit-identically** to the
/// model's own [`Mobility::position`]:
///
/// * [`SegmentKind::Walk`]: `reflect(origin + velocity · max(t − t0, 0))`
/// * [`SegmentKind::Waypoint`]: `dest` once `t ≥ arrival`, else
///   `origin + velocity · clamp((t − t0) / (arrival − t0), 0, 1)` with
///   `velocity = dest − origin` (the *displacement* of the leg, matching
///   the model's `origin + (dest − origin) · frac` arithmetic exactly)
/// * [`SegmentKind::Still`][]: `origin`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KinematicSegment {
    /// Trajectory family.
    pub kind: SegmentKind,
    /// Segment origin (walk/waypoint) or the fixed position (still).
    pub origin: Vec2,
    /// Walk: velocity (m/s). Waypoint: leg displacement `dest − origin`.
    /// Still: zero.
    pub velocity: Vec2,
    /// Segment start time (s).
    pub t0: f64,
    /// Waypoint: arrival time at `dest`; `+∞` for the other kinds.
    pub arrival: f64,
    /// Waypoint: the destination; equals `origin` for the other kinds.
    pub dest: Vec2,
}

/// A mobility model: a (possibly stochastic) trajectory for one node.
pub trait Mobility {
    /// Position at absolute simulation time `t` (seconds). `t` must be
    /// ≥ the time of the last [`advance`](Mobility::advance) call.
    fn position(&self, t: f64) -> Vec2;

    /// Time of the next internal state change (waypoint / re-draw), or
    /// `f64::INFINITY` for models without one.
    fn next_change(&self) -> f64;

    /// Advances the internal state across the change point at
    /// [`next_change`](Mobility::next_change). `rng` supplies the new
    /// random speed/direction.
    fn advance(&mut self, rng: &mut dyn rand::RngCore);

    /// An upper bound on the node's speed (m/s) from time `t` until
    /// [`next_change`](Mobility::next_change). The incremental spatial
    /// index divides the distance to the node's current grid-cell boundary
    /// by this bound to schedule the next possible cell crossing; it must
    /// therefore never under-report (over-reporting merely fires a refresh
    /// early, while reporting `0` suppresses refreshes until the next
    /// mobility change re-anchors the schedule).
    fn speed(&self, t: f64) -> f64;

    /// The closed-form description of the *current* segment, valid until
    /// the next [`advance`](Mobility::advance). Evaluating the segment per
    /// [`KinematicSegment`]'s contract must reproduce
    /// [`position`](Mobility::position) bit-for-bit — the kinematic snapshot
    /// layer (`manet::snapshot`) relies on this to keep every delivery
    /// path bit-identical.
    fn segment(&self) -> KinematicSegment;
}

/// Random-walk mobility (Table II): straight segments with uniform random
/// speed and direction, re-drawn every `change_interval` seconds; walls
/// reflect.
#[derive(Debug, Clone)]
pub struct RandomWalk {
    field: Field,
    speed_range: (f64, f64),
    change_interval: f64,
    /// Unfolded origin of the current segment.
    origin: Vec2,
    /// Start time of the current segment.
    t0: f64,
    velocity: Vec2,
}

impl RandomWalk {
    /// Creates a walker starting at `start` at time `t0`.
    pub fn new<R: Rng>(
        field: Field,
        start: Vec2,
        speed_range: (f64, f64),
        change_interval: f64,
        t0: f64,
        rng: &mut R,
    ) -> Self {
        assert!(speed_range.0 >= 0.0 && speed_range.1 >= speed_range.0);
        assert!(change_interval > 0.0);
        let mut w = Self {
            field,
            speed_range,
            change_interval,
            origin: start,
            t0,
            velocity: Vec2::ZERO,
        };
        w.redraw(rng);
        w
    }

    fn redraw<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let (lo, hi) = self.speed_range;
        let speed = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        self.velocity = Vec2::from_angle(theta) * speed;
    }
}

impl Mobility for RandomWalk {
    fn position(&self, t: f64) -> Vec2 {
        debug_assert!(t >= self.t0 - 1e-9, "time ran backwards: {t} < {}", self.t0);
        let dt = (t - self.t0).max(0.0);
        self.field.reflect(self.origin + self.velocity * dt)
    }

    fn next_change(&self) -> f64 {
        self.t0 + self.change_interval
    }

    fn advance(&mut self, rng: &mut dyn rand::RngCore) {
        let t1 = self.next_change();
        self.origin = self.position(t1);
        self.t0 = t1;
        self.redraw(rng);
    }

    fn speed(&self, _t: f64) -> f64 {
        // Constant within a segment; reflection preserves magnitude.
        self.velocity.norm()
    }

    fn segment(&self) -> KinematicSegment {
        KinematicSegment {
            kind: SegmentKind::Walk,
            origin: self.origin,
            velocity: self.velocity,
            t0: self.t0,
            arrival: f64::INFINITY,
            dest: self.origin,
        }
    }
}

/// Random-waypoint mobility: pick a random destination and speed, travel
/// there, optionally pause, repeat. Not used by the paper's evaluation but
/// provided as an extension (common in follow-up MANET studies).
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    field: Field,
    speed_range: (f64, f64),
    pause: f64,
    origin: Vec2,
    dest: Vec2,
    t0: f64,
    /// Arrival time at `dest`; between `arrival` and `arrival + pause` the
    /// node is parked.
    arrival: f64,
}

impl RandomWaypoint {
    /// Creates a walker starting at `start` at time `t0`.
    pub fn new<R: Rng>(
        field: Field,
        start: Vec2,
        speed_range: (f64, f64),
        pause: f64,
        t0: f64,
        rng: &mut R,
    ) -> Self {
        assert!(
            speed_range.0 > 0.0 && speed_range.1 >= speed_range.0,
            "RWP needs positive speed"
        );
        let mut w = Self {
            field,
            speed_range,
            pause,
            origin: start,
            dest: start,
            t0,
            arrival: t0,
        };
        w.pick_waypoint(rng);
        w
    }

    fn pick_waypoint<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.dest = Vec2::new(
            rng.gen_range(0.0..self.field.width),
            rng.gen_range(0.0..self.field.height),
        );
        let (lo, hi) = self.speed_range;
        let speed = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        let dist = self.origin.distance(self.dest);
        self.arrival = self.t0
            + if speed > 0.0 {
                dist / speed
            } else {
                f64::INFINITY
            };
    }
}

impl Mobility for RandomWaypoint {
    fn position(&self, t: f64) -> Vec2 {
        if t >= self.arrival {
            return self.dest;
        }
        let total = self.arrival - self.t0;
        if total <= 0.0 {
            return self.dest;
        }
        let frac = ((t - self.t0) / total).clamp(0.0, 1.0);
        self.origin + (self.dest - self.origin) * frac
    }

    fn next_change(&self) -> f64 {
        self.arrival + self.pause
    }

    fn advance(&mut self, rng: &mut dyn rand::RngCore) {
        self.origin = self.dest;
        self.t0 = self.next_change();
        self.pick_waypoint(rng);
    }

    fn speed(&self, t: f64) -> f64 {
        // Travel speed of the leg while en route; once arrived the node is
        // parked until the next waypoint, so refreshes can stop (the
        // mobility-change event at `arrival + pause` re-anchors them).
        if t >= self.arrival {
            return 0.0;
        }
        let total = self.arrival - self.t0;
        if total > 0.0 && total.is_finite() {
            self.origin.distance(self.dest) / total
        } else {
            0.0
        }
    }

    fn segment(&self) -> KinematicSegment {
        KinematicSegment {
            kind: SegmentKind::Waypoint,
            origin: self.origin,
            // The leg displacement: the model's position arithmetic is
            // `origin + (dest − origin) · frac`, and `dest − origin` is a
            // deterministic subtraction, so precomputing it here preserves
            // bit-identity.
            velocity: self.dest - self.origin,
            t0: self.t0,
            arrival: self.arrival,
            dest: self.dest,
        }
    }
}

/// A node that never moves (useful for static-topology tests).
#[derive(Debug, Clone, Copy)]
pub struct Stationary {
    /// Fixed position.
    pub pos: Vec2,
}

impl Mobility for Stationary {
    fn position(&self, _t: f64) -> Vec2 {
        self.pos
    }
    fn next_change(&self) -> f64 {
        f64::INFINITY
    }
    fn advance(&mut self, _rng: &mut dyn rand::RngCore) {}
    fn speed(&self, _t: f64) -> f64 {
        0.0
    }
    fn segment(&self) -> KinematicSegment {
        KinematicSegment {
            kind: SegmentKind::Still,
            origin: self.pos,
            velocity: Vec2::ZERO,
            t0: 0.0,
            arrival: f64::INFINITY,
            dest: self.pos,
        }
    }
}

/// Which mobility model the simulator should instantiate per node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityModel {
    /// Paper model: straight segments, re-draw every `change_interval` s.
    RandomWalk {
        /// Seconds between speed/direction re-draws (paper: 20 s).
        change_interval: f64,
    },
    /// Random waypoint with the given pause time at each waypoint.
    RandomWaypoint {
        /// Pause at each waypoint (s).
        pause: f64,
    },
    /// No movement.
    Stationary,
}

/// Boxed mobility dispatcher used by the simulator.
#[derive(Debug, Clone)]
pub enum AnyMobility {
    /// Random walk instance.
    Walk(RandomWalk),
    /// Random waypoint instance.
    Waypoint(RandomWaypoint),
    /// Static instance.
    Still(Stationary),
}

impl AnyMobility {
    /// An instance of `model`, drawing speeds from `speed_range` in
    /// `field`, resumed on `segment`, which one of its own
    /// [`segment`](Mobility::segment)s returned: the state a model keeps
    /// beyond its group's settings is exactly its current segment, so a
    /// simulator can store a node's mobility as the segment alone.
    pub fn resume(
        model: MobilityModel,
        field: Field,
        speed_range: (f64, f64),
        segment: &KinematicSegment,
    ) -> Self {
        match model {
            MobilityModel::RandomWalk { change_interval } => AnyMobility::Walk(RandomWalk {
                field,
                speed_range,
                change_interval,
                origin: segment.origin,
                t0: segment.t0,
                velocity: segment.velocity,
            }),
            MobilityModel::RandomWaypoint { pause } => AnyMobility::Waypoint(RandomWaypoint {
                field,
                speed_range,
                pause,
                origin: segment.origin,
                dest: segment.dest,
                t0: segment.t0,
                arrival: segment.arrival,
            }),
            MobilityModel::Stationary => AnyMobility::Still(Stationary {
                pos: segment.origin,
            }),
        }
    }
}

impl Mobility for AnyMobility {
    fn position(&self, t: f64) -> Vec2 {
        match self {
            AnyMobility::Walk(m) => m.position(t),
            AnyMobility::Waypoint(m) => m.position(t),
            AnyMobility::Still(m) => m.position(t),
        }
    }
    fn next_change(&self) -> f64 {
        match self {
            AnyMobility::Walk(m) => m.next_change(),
            AnyMobility::Waypoint(m) => m.next_change(),
            AnyMobility::Still(m) => m.next_change(),
        }
    }
    fn advance(&mut self, rng: &mut dyn rand::RngCore) {
        match self {
            AnyMobility::Walk(m) => m.advance(rng),
            AnyMobility::Waypoint(m) => m.advance(rng),
            AnyMobility::Still(m) => m.advance(rng),
        }
    }
    fn speed(&self, t: f64) -> f64 {
        match self {
            AnyMobility::Walk(m) => m.speed(t),
            AnyMobility::Waypoint(m) => m.speed(t),
            AnyMobility::Still(m) => m.speed(t),
        }
    }
    fn segment(&self) -> KinematicSegment {
        match self {
            AnyMobility::Walk(m) => m.segment(),
            AnyMobility::Waypoint(m) => m.segment(),
            AnyMobility::Still(m) => m.segment(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn field() -> Field {
        Field::new(100.0, 100.0)
    }

    #[test]
    fn random_walk_stays_in_field() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut w = RandomWalk::new(
            field(),
            Vec2::new(50.0, 50.0),
            (0.0, 2.0),
            20.0,
            0.0,
            &mut rng,
        );
        let mut t = 0.0;
        for _ in 0..200 {
            t += 7.3;
            while w.next_change() <= t {
                w.advance(&mut rng);
            }
            let p = w.position(t);
            assert!(field().contains(p), "escaped at t={t}: {p:?}");
        }
    }

    #[test]
    fn random_walk_speed_bounded() {
        let mut rng = SmallRng::seed_from_u64(2);
        let w = RandomWalk::new(
            field(),
            Vec2::new(50.0, 50.0),
            (0.0, 2.0),
            20.0,
            0.0,
            &mut rng,
        );
        // displacement over dt <= max_speed * dt (reflection only shortens)
        let p0 = w.position(0.0);
        let p1 = w.position(5.0);
        assert!(p0.distance(p1) <= 2.0 * 5.0 + 1e-9);
    }

    #[test]
    fn random_walk_continuous_across_advance() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut w = RandomWalk::new(
            field(),
            Vec2::new(10.0, 10.0),
            (1.0, 2.0),
            20.0,
            0.0,
            &mut rng,
        );
        let before = w.position(20.0);
        w.advance(&mut rng);
        let after = w.position(20.0);
        assert!(
            before.distance(after) < 1e-9,
            "jump at waypoint: {before:?} vs {after:?}"
        );
    }

    #[test]
    fn random_walk_zero_speed_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        let w = RandomWalk::new(
            field(),
            Vec2::new(5.0, 5.0),
            (0.0, 0.0),
            20.0,
            0.0,
            &mut rng,
        );
        assert_eq!(w.position(15.0), Vec2::new(5.0, 5.0));
    }

    #[test]
    fn resumed_models_continue_like_the_originals() {
        // Resumed on its segment, each model moves, re-draws and reports
        // exactly like the original, through several changes.
        let models = [
            (
                MobilityModel::RandomWalk {
                    change_interval: 1.5,
                },
                (0.0, 2.0),
            ),
            (MobilityModel::RandomWaypoint { pause: 0.5 }, (0.5, 3.0)),
            (MobilityModel::Stationary, (0.0, 0.0)),
        ];
        for (model, speeds) in models {
            let mut rng = SmallRng::seed_from_u64(8);
            let start = Vec2::new(40.0, 60.0);
            let mut original = match model {
                MobilityModel::RandomWalk { change_interval } => AnyMobility::Walk(
                    RandomWalk::new(field(), start, speeds, change_interval, 0.0, &mut rng),
                ),
                MobilityModel::RandomWaypoint { pause } => AnyMobility::Waypoint(
                    RandomWaypoint::new(field(), start, speeds, pause, 0.0, &mut rng),
                ),
                MobilityModel::Stationary => AnyMobility::Still(Stationary { pos: start }),
            };
            original.advance(&mut rng);
            let mut resumed = AnyMobility::resume(model, field(), speeds, &original.segment());
            let mut twin = rng.clone();
            for _ in 0..4 {
                let t = original.next_change().min(100.0);
                assert_eq!(format!("{resumed:?}"), format!("{original:?}"));
                assert_eq!(
                    resumed.position(t * 0.999).x.to_bits(),
                    original.position(t * 0.999).x.to_bits()
                );
                assert_eq!(resumed.speed(t), original.speed(t));
                original.advance(&mut rng);
                resumed.advance(&mut twin);
            }
        }
    }

    #[test]
    fn waypoint_reaches_destination_and_pauses() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut w = RandomWaypoint::new(
            field(),
            Vec2::new(0.0, 0.0),
            (1.0, 1.0001),
            2.0,
            0.0,
            &mut rng,
        );
        let arrive = w.arrival;
        let dest = w.dest;
        assert!(w.position(arrive + 0.5).distance(dest) < 1e-9);
        assert!(w.position(arrive + 1.9).distance(dest) < 1e-9);
        assert_eq!(w.next_change(), arrive + 2.0);
        w.advance(&mut rng);
        assert_eq!(w.origin, dest);
    }

    #[test]
    fn waypoint_moves_toward_destination_linearly() {
        let mut rng = SmallRng::seed_from_u64(6);
        let w = RandomWaypoint::new(
            field(),
            Vec2::new(0.0, 0.0),
            (2.0, 2.0001),
            0.0,
            0.0,
            &mut rng,
        );
        let mid = w.position((w.t0 + w.arrival) / 2.0);
        let expect = w.origin + (w.dest - w.origin) * 0.5;
        assert!(mid.distance(expect) < 1e-6);
    }

    #[test]
    fn stationary_never_moves() {
        let s = Stationary {
            pos: Vec2::new(1.0, 2.0),
        };
        assert_eq!(s.position(0.0), s.position(1e6));
        assert_eq!(s.next_change(), f64::INFINITY);
    }

    #[test]
    fn any_mobility_dispatch() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut m = AnyMobility::Walk(RandomWalk::new(
            field(),
            Vec2::new(50.0, 50.0),
            (1.0, 2.0),
            20.0,
            0.0,
            &mut rng,
        ));
        assert_eq!(m.next_change(), 20.0);
        m.advance(&mut rng);
        assert_eq!(m.next_change(), 40.0);
        let m = AnyMobility::Still(Stationary { pos: Vec2::ZERO });
        assert_eq!(m.position(123.0), Vec2::ZERO);
    }

    #[test]
    fn determinism_same_seed_same_trajectory() {
        let make = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            RandomWalk::new(
                field(),
                Vec2::new(30.0, 30.0),
                (0.0, 2.0),
                20.0,
                0.0,
                &mut rng,
            )
        };
        let a = make(42);
        let b = make(42);
        for k in 0..10 {
            let t = k as f64 * 1.9;
            assert_eq!(a.position(t), b.position(t));
        }
    }
}
