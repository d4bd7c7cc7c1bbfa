//! Batched **lane sweeps** over the kinematic snapshot — the delivery
//! query's candidate filter, restructured for the autovectorizer — plus
//! per-cell **event-horizon culling**.
//!
//! # Why a sweep instead of a per-candidate filter
//!
//! The historical incremental filter interleaved three very different
//! kinds of work per candidate: a linked-list pointer chase through the
//! grid cell, a gather into the snapshot records to evaluate the exact
//! position, and a push of the survivor triple. The mix defeats both the
//! hardware prefetcher and the compiler's vectorizer. [`DeliverySweep`]
//! splits the phases:
//!
//! 1. **Gather** — walk the cells overlapping the decode disc (the same
//!    disc, in the same order, as the historical query) and copy each
//!    cell's member ids into one flat scratch list. Pure pointer chasing,
//!    no arithmetic. (The grid's *stored* positions cannot prefilter
//!    here: the incremental discipline only guarantees the bucketed
//!    *cell* stays correct within the slack — the stored point itself
//!    may lag its node by most of a cell until the next crossing
//!    refresh.)
//! 2. **Sweep** — evaluate exact squared distances for the whole list, in
//!    the historical visit order, in fixed-width chunks of [`SWEEP_WIDTH`]
//!    ids. A chunk whose ids share one [`SegmentKind`] runs a
//!    branch-free straight-line kernel over the nodes'
//!    [`PackedSegment`] records (one
//!    cache line per candidate);
//!    mixed-kind chunks and the tail fall back to the scalar
//!    [`KinematicSnapshot::position`] path. Each candidate within the
//!    decode radius is *marked* in a two-level survivor bitset.
//! 3. **Emit** — walk the bitset's set bits in ascending id order,
//!    re-derive each survivor's exact position and `d²` from its (still
//!    cache-hot) packed record, and append the `(id, position, d²)`
//!    triples. Ascending emission falls out of the bitset walk, so the
//!    historical post-filter **sort disappears entirely** — at dense
//!    scales the comparison sort was the single most expensive phase of
//!    the query.
//!
//! # The fixed-width-chunk contract
//!
//! Each chunk kernel performs, per lane, **exactly** the f64 operations of
//! [`KinematicSnapshot::position`] followed by
//! [`Vec2::distance_sq`] — same operations, same order, no fused
//! multiply-adds, no re-association — so the sweep is bit-identical to the
//! scalar filter for every candidate, and both
//! [`DeliveryMode`](crate::sim::DeliveryMode)s stay parity-pinned (asserted
//! by the property suite's sweep-vs-scalar pin and the cross-mode
//! determinism tests). Chunking only restructures *which loop* the
//! operations run in; it never changes what is computed. The kernels
//! read the same packed records [`KinematicSnapshot::position`] reads,
//! and the emission pass re-runs the identical
//! operation sequence per survivor, so recomputation cannot drift: the
//! survivor *set* is decided by the sweep, and every emitted triple
//! equals the one the historical filter produced. The set is
//! order-independent (each id's predicate depends only on its own record),
//! and ascending-id emission reproduces the historical sort order exactly
//! because node ids are unique.
//!
//! # Event-horizon culling
//!
//! Every time the sweep evaluates a cell whose membership changed since
//! the last evaluation, it also derives a **bound** from the records it just
//! touched: a disc (centre + radius) covering every member's exact
//! position at sweep time `t₀`, plus the maximum member speed `v`. Until
//! the cell's membership or a member's segment changes again, every member
//! stays inside that disc grown by `v · (t − t₀)` — walk reflection is
//! 1-Lipschitz and a waypoint leg never moves faster than its own leg
//! speed, so straight-line drift bounds folded drift. A later query from
//! centre `c` with decode radius `r` can therefore skip the whole cell
//! without touching its records whenever
//!
//! ```text
//! |c − centre| > r + radius + v · (t − t₀) + margin
//! ```
//!
//! — the cell is beyond the query's *event horizon* until the grown disc
//! reaches the decode disc. The bound is invalidated (O(1) stamp bump)
//! whenever a node is bucketed into the cell or a bucketed member's
//! mobility segment re-anchors; members *leaving* only shrink the true
//! extent, so departures need no invalidation. Culling can never drop a
//! survivor: a skipped cell provably contains no position within the
//! decode radius, and a conservative `CULL_MARGIN_M` absorbs the few
//! ulps of rounding in the bound arithmetic.

use crate::geometry::Vec2;
use crate::grid::SpatialGrid;
use crate::mobility::SegmentKind;
use crate::snapshot::{KinematicSnapshot, PackedSegment};

/// Hints the CPU to start loading the cache line at `p` without blocking.
/// The gather is latency-bound, not work-bound: per query it touches a
/// couple of dozen cells' metadata plus ~44 packed segment records, each
/// on its own line scattered across multi-hundred-KiB arrays, so almost
/// every access is a demand miss unless something issues the load early.
/// Purely a latency hint: cache state is the only effect, so no computed
/// value can change.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is side-effect-free and architecturally valid for
    // any address, even an unmapped one.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(p.cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// [`prefetch`] of node `i`'s packed segment record, which the eval
/// kernels will read a few hundred nanoseconds after the gather pushes
/// the id.
#[inline(always)]
fn prefetch_packed(packed: &[PackedSegment], i: usize) {
    prefetch(&packed[i] as *const PackedSegment);
}

/// Width of one batched chunk: how many candidate ids each straight-line
/// kernel invocation evaluates. Eight f64 lanes fill two AVX2 registers
/// (or one AVX-512 register) per coordinate, and the gathered id lists of
/// a dense query are long enough that most candidates land in full
/// chunks.
pub const SWEEP_WIDTH: usize = 8;

/// Conservative slack (m) added to the event-horizon cull comparison so
/// floating-point rounding in the bound arithmetic (bbox midpoint, member
/// distances, drift product) can never cull a cell whose exact sweep
/// would keep a survivor. Metres-scale distances carry ~1e-10 m of f64
/// rounding; a micrometre of margin is orders of magnitude above it and
/// still culls everything worth culling.
const CULL_MARGIN_M: f64 = 1e-6;

/// Work counters of the delivery query's candidate filter — the batched
/// sweep plus the shadowed worlds' reach lists — accumulated across
/// queries and zeroed on reset: the measurable shape of the filter
/// (exported per scale row of the `BENCH_scale.json` artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Non-empty grid cells the disc walks reached (including culled).
    pub cells_visited: u64,
    /// Cells skipped whole by the event horizon — their candidates were
    /// never gathered and their lanes never touched.
    pub cells_culled: u64,
    /// Candidates evaluated by full-width single-kind chunk kernels.
    pub batched_candidates: u64,
    /// Candidates evaluated on the scalar path (mixed-kind chunks and the
    /// sub-width tail of each query's id list).
    pub scalar_candidates: u64,
    /// Reach lists rebuilt by shadowed queries ([`crate::reach`]); each
    /// rebuild is one sweep. Zero in unshadowed worlds.
    pub list_rebuilds: u64,
    /// Candidates evaluated from reach lists instead of a sweep. Zero in
    /// unshadowed worlds.
    pub list_candidates: u64,
}

/// A cached per-cell event horizon: every member's exact position at time
/// `t` lies within `radius` of `center`, and no member moves faster than
/// `vmax` until the cell is invalidated. Valid only while `stamp` is
/// non-zero — invalidation clears the stamp in place, so validity and the
/// bound live on the same cache line (the gather reads exactly one line
/// of metadata per cell).
#[derive(Debug, Clone, Copy)]
struct CellBound {
    stamp: u64,
    t: f64,
    center: Vec2,
    radius: f64,
    vmax: f64,
}

const NO_BOUND: CellBound = CellBound {
    stamp: 0, // 0 = stale; a refreshed bound stores 1
    t: 0.0,
    center: Vec2::ZERO,
    radius: 0.0,
    vmax: 0.0,
};

/// The batched candidate filter: scratch buffers plus the per-cell
/// event-horizon cache (see the module docs). One instance lives in the
/// simulator's `World` and is reused across every delivery query.
#[derive(Debug, Clone, Default)]
pub struct DeliverySweep {
    /// Per-cell bounds; `bounds[c]` is valid iff its stamp is non-zero.
    bounds: Vec<CellBound>,
    /// Scratch: non-empty cells collected by the prefetching first pass of
    /// the gather.
    cells: Vec<u32>,
    /// Scratch: candidate ids gathered from the visited cells.
    ids: Vec<u32>,
    /// Survivor bitset, one bit per node id; all-zero between queries
    /// (the emit pass clears the words it visits).
    survivors: Vec<u64>,
    /// Summary bitset over `survivors`: bit `w` set iff word `w` is
    /// non-zero, so the emit pass only touches words holding survivors.
    summary: Vec<u64>,
    /// Scratch: cells visited with an invalid bound, refreshed after the
    /// gather.
    stale: Vec<u32>,
    /// Scratch: member positions while refreshing one cell bound.
    bound_pos: Vec<Vec2>,
    stats: SweepStats,
}

impl DeliverySweep {
    /// An empty sweep; call [`reset`](Self::reset) before filtering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-arms the sweep for a grid of `n_cells` cells over `n_nodes`
    /// nodes: drops every cached bound, zeroes the counters and the
    /// survivor bitsets, keeps the scratch allocations.
    pub fn reset(&mut self, n_cells: usize, n_nodes: usize) {
        self.bounds.clear();
        self.bounds.resize(n_cells, NO_BOUND);
        let words = n_nodes.div_ceil(64);
        self.survivors.clear();
        self.survivors.resize(words, 0);
        self.summary.clear();
        self.summary.resize(words.div_ceil(64), 0);
        self.stats = SweepStats::default();
    }

    /// Invalidates the event-horizon bound of `cell` in O(1). Call
    /// whenever a node is bucketed *into* the cell or a bucketed member's
    /// mobility segment changes; departures need no call (they only
    /// shrink the cell's true extent).
    #[inline]
    pub fn invalidate_cell(&mut self, cell: usize) {
        self.bounds[cell].stamp = 0;
    }

    /// Work counters accumulated since the last [`reset`](Self::reset).
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// The batched equivalent of the historical scalar filter: appends to
    /// `out` every node bucketed in a cell overlapping the disc of
    /// `radius + slack` around `center` whose exact position at `t` is
    /// within `radius`, as `(id, position, d²)` triples in **ascending id
    /// order** — the same survivors, positions and distances (bit-for-bit)
    /// and the same final ordering as `SpatialGrid::for_each_in_cells`
    /// plus `KinematicSnapshot::position` plus an ascending sort, minus
    /// the cells the event horizon proves empty of survivors.
    #[allow(clippy::too_many_arguments)] // mirrors the scalar query's parameter list
    pub fn filter_into(
        &mut self,
        grid: &SpatialGrid,
        snap: &KinematicSnapshot,
        center: Vec2,
        t: f64,
        radius: f64,
        slack: f64,
        out: &mut Vec<(usize, Vec2, f64)>,
    ) {
        let geom = grid.geometry();
        debug_assert_eq!(
            self.bounds.len(),
            geom.n_cells(),
            "reset() before filtering"
        );
        // One range check up front licenses the unchecked indexing in the
        // eval kernels: grid buckets only hold ids below the grid's node
        // count, so bounding that count by the packed-record and bitset
        // sizes covers every gathered id. (The sweep, grid and snapshot
        // are sized by separate calls — this is the seam where they could
        // disagree.)
        assert!(
            grid.n_nodes() <= snap.packed().len() && grid.n_nodes() <= self.survivors.len() * 64,
            "sweep/snapshot sized for fewer nodes than the grid buckets"
        );
        self.ids.clear();
        self.stale.clear();
        self.cells.clear();
        // The gather is three tiny passes over the disc's cells so that
        // every load the latency-critical final pass performs was
        // prefetched one pass earlier — nothing on the critical path is a
        // demand miss:
        //
        // 1. collect cell indices, prefetch each cell's bound line and
        //    bucket header line (pure address arithmetic, no loads);
        // 2. read the (now warm) headers, prefetch each non-empty
        //    bucket's member data line;
        // 3. cull or gather against warm bounds and warm member data,
        //    prefetching every gathered candidate's packed record for the
        //    eval kernels behind it.
        {
            let bounds = &self.bounds;
            let cells = &mut self.cells;
            geom.for_each_cell_in_disc(center, radius + slack, |cell| {
                prefetch(&bounds[cell] as *const CellBound);
                grid.prefetch_bucket(cell);
                cells.push(cell as u32);
            });
        }
        let packed = snap.packed();
        // Lookahead distance of the member-data prefetch in the fused
        // cull/gather pass: far enough ahead that a bucket's data line
        // arrives by the time its cell is processed, near enough that it
        // is rarely wasted on culled cells.
        const LOOKAHEAD: usize = 4;
        for k in 0..self.cells.len() {
            if let Some(&ahead) = self.cells.get(k + LOOKAHEAD) {
                // Header is warm (prefetched in the collect pass), so this
                // only dereferences it to start the data line loading.
                prefetch(grid.bucket(ahead as usize).as_ptr());
            }
            let cell = self.cells[k] as usize;
            let members = grid.bucket(cell);
            if members.is_empty() {
                continue;
            }
            self.stats.cells_visited += 1;
            let b = self.bounds[cell];
            if b.stamp != 0 {
                let reach = radius + b.radius + b.vmax * (t - b.t) + CULL_MARGIN_M;
                if center.distance_sq(b.center) > reach * reach {
                    self.stats.cells_culled += 1;
                    continue;
                }
            } else {
                self.stale.push(cell as u32);
            }
            for &i in members {
                prefetch_packed(packed, i as usize);
                self.ids.push(i);
            }
        }
        // Refresh stale bounds from the cells' full membership (walked
        // again — refreshes are invalidation-driven and rare relative to
        // queries, and decoupling them from the gather keeps the gather a
        // pure id copy).
        for k in 0..self.stale.len() {
            let cell = self.stale[k] as usize;
            self.refresh_bound(grid, snap, cell, t);
        }
        let r2 = radius * radius;
        self.eval_mark(snap, center, t, r2);
        self.emit(snap, center, t, out);
    }

    /// Recomputes the event horizon of `cell` from its full current
    /// membership: the tightest disc around the members' exact positions
    /// at `t` plus the largest per-member speed bound derivable from the
    /// segment records.
    fn refresh_bound(&mut self, grid: &SpatialGrid, snap: &KinematicSnapshot, cell: usize, t: f64) {
        let packed = snap.packed();
        self.bound_pos.clear();
        let bound_pos = &mut self.bound_pos;
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut v2max = 0.0f64;
        grid.for_each_in_cell(cell, |i| {
            let p = snap.position(i, t);
            bound_pos.push(p);
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
            let s = &packed[i];
            let v2 = match s.kind {
                SegmentKind::Walk => s.velocity.x * s.velocity.x + s.velocity.y * s.velocity.y,
                SegmentKind::Waypoint => {
                    // `velocity` is the leg displacement; the node covers
                    // it over `arrival - t0` seconds and then parks. Once
                    // parked (or for a degenerate leg) it cannot move
                    // again without a segment change, which invalidates
                    // this bound.
                    let total = s.arrival - s.t0;
                    if total > 0.0 && t < s.arrival {
                        let v = s.velocity;
                        (v.x * v.x + v.y * v.y) / (total * total)
                    } else {
                        0.0
                    }
                }
                SegmentKind::Still => 0.0,
            };
            v2max = v2max.max(v2);
        });
        let center = Vec2::new((min_x + max_x) * 0.5, (min_y + max_y) * 0.5);
        let mut radius = 0.0f64;
        for p in &self.bound_pos {
            radius = radius.max(center.distance(*p));
        }
        self.bounds[cell] = CellBound {
            stamp: 1,
            t,
            center,
            radius,
            vmax: v2max.sqrt(),
        };
    }

    /// Evaluates every gathered id's exact squared distance in fixed-width
    /// chunks (see the module docs for the bit-exactness contract) and
    /// marks survivors (`d² ≤ r²`) in the two-level bitset.
    ///
    /// Precondition (asserted by [`filter_into`](Self::filter_into), the
    /// only caller): every id in `self.ids` is below `snap.packed().len()`
    /// and `self.survivors.len() * 64`.
    fn eval_mark(&mut self, snap: &KinematicSnapshot, center: Vec2, t: f64, r2: f64) {
        let n = self.ids.len();
        if n == 0 {
            return;
        }
        let field = snap.field();
        let packed = snap.packed();
        let ids = &self.ids[..];
        let survivors = &mut self.survivors[..];
        let summary = &mut self.summary[..];
        // Branchless: a non-survivor ORs in a zero bit. Survival is
        // data-dependent noise to the branch predictor, so predicating
        // the mark beats an `if` in the middle of the kernels.
        #[inline]
        fn mark(survivors: &mut [u64], summary: &mut [u64], id: u32, survives: bool) {
            let w = (id / 64) as usize;
            debug_assert!(w < survivors.len() && w / 64 < summary.len());
            // SAFETY: `filter_into`'s up-front assert bounds every
            // gathered id below `survivors.len() * 64`, hence
            // `w < survivors.len()` and `w / 64 < summary.len()` (summary
            // has one bit per word).
            unsafe {
                *survivors.get_unchecked_mut(w) |= (survives as u64) << (id % 64);
                *summary.get_unchecked_mut(w / 64) |= (survives as u64) << (w % 64);
            }
        }
        // SAFETY of every `get_unchecked` below: `filter_into`'s up-front
        // assert bounds all gathered ids below `packed.len()`.
        #[inline(always)]
        fn rec(packed: &[PackedSegment], id: u32) -> &PackedSegment {
            debug_assert!((id as usize) < packed.len());
            unsafe { packed.get_unchecked(id as usize) }
        }
        let mut j = 0;
        while j + SWEEP_WIDTH <= n {
            let chunk: &[u32; SWEEP_WIDTH] = ids[j..j + SWEEP_WIDTH].try_into().unwrap();
            // The kind probe pulls each candidate's packed line into
            // cache; the kernel below re-reads the same lines for free.
            let k0 = rec(packed, chunk[0]).kind;
            let single_kind = chunk.iter().all(|&id| rec(packed, id).kind == k0);
            match (single_kind, k0) {
                (true, SegmentKind::Walk) => {
                    // Per lane: exactly the Walk arm of
                    // `KinematicSnapshot::position`, then `distance_sq`.
                    for &id in chunk {
                        let s = rec(packed, id);
                        let dt = (t - s.t0).max(0.0);
                        let p = field.reflect(s.origin + s.velocity * dt);
                        mark(survivors, summary, id, p.distance_sq(center) <= r2);
                    }
                    self.stats.batched_candidates += SWEEP_WIDTH as u64;
                }
                (true, SegmentKind::Still) => {
                    for &id in chunk {
                        let p = rec(packed, id).origin;
                        mark(survivors, summary, id, p.distance_sq(center) <= r2);
                    }
                    self.stats.batched_candidates += SWEEP_WIDTH as u64;
                }
                _ => {
                    // Mixed kinds or waypoint legs (whose arrival/parking
                    // branches defeat straight-line code): the scalar
                    // path, shared with `position` so it cannot drift.
                    for &id in chunk {
                        let p = snap.position(id as usize, t);
                        mark(survivors, summary, id, p.distance_sq(center) <= r2);
                    }
                    self.stats.scalar_candidates += SWEEP_WIDTH as u64;
                }
            }
            j += SWEEP_WIDTH;
        }
        while j < n {
            let id = ids[j];
            let p = snap.position(id as usize, t);
            mark(survivors, summary, id, p.distance_sq(center) <= r2);
            self.stats.scalar_candidates += 1;
            j += 1;
        }
    }

    /// Walks the survivor bitset in ascending id order, re-derives each
    /// survivor's exact position and `d²` (identical operation sequence,
    /// identical inputs — so identical bits) and appends the triples,
    /// clearing the bitset words behind itself.
    fn emit(
        &mut self,
        snap: &KinematicSnapshot,
        center: Vec2,
        t: f64,
        out: &mut Vec<(usize, Vec2, f64)>,
    ) {
        let field = snap.field();
        let packed = snap.packed();
        for sw in 0..self.summary.len() {
            let mut sbits = self.summary[sw];
            if sbits == 0 {
                continue;
            }
            self.summary[sw] = 0;
            while sbits != 0 {
                let w = sw * 64 + sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                let mut bits = self.survivors[w];
                self.survivors[w] = 0;
                while bits != 0 {
                    let id = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let s = &packed[id];
                    let p = match s.kind {
                        SegmentKind::Walk => {
                            let dt = (t - s.t0).max(0.0);
                            field.reflect(s.origin + s.velocity * dt)
                        }
                        SegmentKind::Still => s.origin,
                        SegmentKind::Waypoint => snap.position(id, t),
                    };
                    out.push((id, p, p.distance_sq(center)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Field;
    use crate::mobility::{AnyMobility, Mobility, RandomWalk, RandomWaypoint, Stationary};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn field() -> Field {
        Field::new(600.0, 400.0)
    }

    /// The historical scalar filter, verbatim: cell walk + per-candidate
    /// position/d² + ascending sort.
    fn scalar_filter(
        grid: &SpatialGrid,
        snap: &KinematicSnapshot,
        center: Vec2,
        t: f64,
        radius: f64,
        slack: f64,
    ) -> Vec<(usize, Vec2, f64)> {
        let r2 = radius * radius;
        let mut out = Vec::new();
        grid.for_each_in_cells(center, radius + slack, |i| {
            let p = snap.position(i, t);
            let d2 = p.distance_sq(center);
            if d2 <= r2 {
                out.push((i, p, d2));
            }
        });
        out.sort_unstable_by_key(|&(i, _, _)| i);
        out
    }

    fn mixed_world(n: usize, seed: u64) -> (Vec<AnyMobility>, KinematicSnapshot, SpatialGrid) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ms: Vec<AnyMobility> = (0..n)
            .map(|i| {
                let start = Vec2::new(
                    rng.gen_range(0.0..field().width),
                    rng.gen_range(0.0..field().height),
                );
                match i % 3 {
                    0 => AnyMobility::Walk(RandomWalk::new(
                        field(),
                        start,
                        (0.0, 2.0),
                        20.0,
                        0.0,
                        &mut rng,
                    )),
                    1 => AnyMobility::Waypoint(RandomWaypoint::new(
                        field(),
                        start,
                        (0.5, 2.0),
                        1.0,
                        0.0,
                        &mut rng,
                    )),
                    _ => AnyMobility::Still(Stationary { pos: start }),
                }
            })
            .collect();
        let mut snap = KinematicSnapshot::new(field());
        snap.rebuild(field(), ms.iter().map(|m| m.segment()));
        let mut grid = SpatialGrid::new(field(), 70.0);
        grid.rebuild(n, |i| ms[i].position(0.0));
        (ms, snap, grid)
    }

    #[test]
    fn sweep_matches_scalar_filter_bit_for_bit() {
        let (mut ms, mut snap, mut grid) = mixed_world(257, 9);
        let mut sweep = DeliverySweep::new();
        sweep.reset(grid.geometry().n_cells(), ms.len());
        let mut rng = SmallRng::seed_from_u64(77);
        let mut t = 0.0;
        for step in 0..120 {
            t += 0.31;
            // advance mobility, mirroring the simulator's maintenance
            for (i, m) in ms.iter_mut().enumerate() {
                while m.next_change() <= t {
                    m.advance(&mut rng);
                    snap.set(i, m.segment());
                    // segment changed: invalidate the node's (possibly
                    // new) cell, as the simulator's re-anchor path does
                    grid.update_node(i, m.position(t));
                    sweep.invalidate_cell(grid.node_cell(i));
                }
            }
            let center = Vec2::new(
                rng.gen_range(0.0..field().width),
                rng.gen_range(0.0..field().height),
            );
            let radius = rng.gen_range(10.0..150.0);
            let want = scalar_filter(&grid, &snap, center, t, radius, 0.1);
            let mut got = Vec::new();
            sweep.filter_into(&grid, &snap, center, t, radius, 0.1, &mut got);
            assert_eq!(got, want, "step {step} t {t} r {radius}");
        }
        let s = sweep.stats();
        assert!(
            s.scalar_candidates > 0,
            "mixed chunks / tails must have run"
        );
    }

    #[test]
    fn homogeneous_walk_world_runs_chunk_kernels() {
        let mut rng = SmallRng::seed_from_u64(21);
        let ms: Vec<AnyMobility> = (0..300)
            .map(|_| {
                let start = Vec2::new(
                    rng.gen_range(0.0..field().width),
                    rng.gen_range(0.0..field().height),
                );
                AnyMobility::Walk(RandomWalk::new(
                    field(),
                    start,
                    (0.0, 2.0),
                    20.0,
                    0.0,
                    &mut rng,
                ))
            })
            .collect();
        let mut snap = KinematicSnapshot::new(field());
        snap.rebuild(field(), ms.iter().map(|m| m.segment()));
        let mut grid = SpatialGrid::new(field(), 70.0);
        grid.rebuild(ms.len(), |i| ms[i].position(0.0));
        let mut sweep = DeliverySweep::new();
        sweep.reset(grid.geometry().n_cells(), ms.len());
        for q in 0..40 {
            let center = Vec2::new(
                rng.gen_range(0.0..field().width),
                rng.gen_range(0.0..field().height),
            );
            let t = q as f64 * 0.25;
            let want = scalar_filter(&grid, &snap, center, t, 120.0, 0.1);
            let mut got = Vec::new();
            sweep.filter_into(&grid, &snap, center, t, 120.0, 0.1, &mut got);
            assert_eq!(got, want, "query {q}");
        }
        let s = sweep.stats();
        assert!(
            s.batched_candidates > 0,
            "chunk kernels must have run: {s:?}"
        );
    }

    #[test]
    fn culling_fires_and_stays_exact_for_still_clusters() {
        // Stationary nodes clustered in far cell corners: once a bound is
        // cached, queries whose decode disc only clips the cell must skip
        // it — and still return exactly the scalar answer.
        let f = Field::new(300.0, 300.0);
        let cell = 100.0;
        let mut positions = Vec::new();
        for cx in 0..3 {
            for cy in 0..3 {
                // members hug the far corner of each cell
                positions.push(Vec2::new(cx as f64 * cell + 95.0, cy as f64 * cell + 95.0));
                positions.push(Vec2::new(cx as f64 * cell + 92.0, cy as f64 * cell + 97.0));
            }
        }
        let ms: Vec<AnyMobility> = positions
            .iter()
            .map(|&pos| AnyMobility::Still(Stationary { pos }))
            .collect();
        let mut snap = KinematicSnapshot::new(f);
        snap.rebuild(f, ms.iter().map(|m| m.segment()));
        let mut grid = SpatialGrid::new(f, cell);
        grid.rebuild(ms.len(), |i| ms[i].position(0.0));
        let mut sweep = DeliverySweep::new();
        sweep.reset(grid.geometry().n_cells(), ms.len());
        // query from a cell's near corner: the disc clips neighbour cells
        // whose members (far corners) are all out of reach
        let center = Vec2::new(105.0, 105.0);
        let radius = 60.0;
        for t in [0.0, 1.0, 2.0] {
            let want = scalar_filter(&grid, &snap, center, t, radius, 0.1);
            let mut got = Vec::new();
            sweep.filter_into(&grid, &snap, center, t, radius, 0.1, &mut got);
            assert_eq!(got, want, "t {t}");
        }
        assert!(
            sweep.stats().cells_culled > 0,
            "corner clusters must be culled after their bounds are cached: {:?}",
            sweep.stats()
        );
    }

    #[test]
    fn invalidation_keeps_cull_conservative_when_members_arrive() {
        // A node walking into a previously-culled cell must invalidate its
        // bound, or the cull would skip a now-decodable receiver.
        let f = Field::new(200.0, 100.0);
        let cell = 100.0;
        // one still node in the far corner of the right cell
        let ms = [
            AnyMobility::Still(Stationary {
                pos: Vec2::new(195.0, 95.0),
            }),
            AnyMobility::Still(Stationary {
                pos: Vec2::new(10.0, 10.0),
            }),
        ];
        let mut snap = KinematicSnapshot::new(f);
        snap.rebuild(f, ms.iter().map(|m| m.segment()));
        let mut grid = SpatialGrid::new(f, cell);
        grid.rebuild(ms.len(), |i| ms[i].position(0.0));
        let mut sweep = DeliverySweep::new();
        sweep.reset(grid.geometry().n_cells(), ms.len());
        let center = Vec2::new(95.0, 50.0);
        let radius = 40.0;
        // prime + cull the right cell (its only member is ~112 m away)
        for _ in 0..2 {
            let mut got = Vec::new();
            sweep.filter_into(&grid, &snap, center, 0.0, radius, 0.1, &mut got);
            assert!(got.iter().all(|&(i, _, _)| i == 1));
        }
        assert!(sweep.stats().cells_culled > 0);
        // teleport node 1 into the right cell, inside the decode disc
        let new_pos = Vec2::new(120.0, 50.0);
        let moved_snap = crate::mobility::KinematicSegment {
            kind: SegmentKind::Still,
            origin: new_pos,
            velocity: Vec2::ZERO,
            t0: 1.0,
            arrival: f64::INFINITY,
            dest: new_pos,
        };
        snap.set(1, moved_snap);
        assert!(grid.update_node(1, new_pos));
        sweep.invalidate_cell(grid.node_cell(1));
        let want = scalar_filter(&grid, &snap, center, 1.0, radius, 0.1);
        assert!(want.iter().any(|&(i, _, _)| i == 1), "node 1 is in range");
        let mut got = Vec::new();
        sweep.filter_into(&grid, &snap, center, 1.0, radius, 0.1, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn chunk_boundaries_cover_all_residues() {
        // candidate counts hitting every residue mod SWEEP_WIDTH, so both
        // the full-chunk kernels and the scalar tail are exercised
        for n in [1, 7, 8, 9, 15, 16, 17, 64, 65] {
            let (_, snap, grid) = mixed_world(n, 1000 + n as u64);
            let mut sweep = DeliverySweep::new();
            sweep.reset(grid.geometry().n_cells(), n);
            let center = Vec2::new(300.0, 200.0);
            let want = scalar_filter(&grid, &snap, center, 0.0, 1e4, 0.1);
            assert_eq!(want.len(), n, "disc larger than field sees everyone");
            let mut got = Vec::new();
            sweep.filter_into(&grid, &snap, center, 0.0, 1e4, 0.1, &mut got);
            assert_eq!(got, want, "n {n}");
        }
    }
}
