//! A uniform spatial grid over the simulation [`Field`] used to answer
//! "which nodes can possibly hear this transmission?" without scanning all
//! `n` nodes.
//!
//! The grid buckets node positions into square cells whose edge is the
//! **maximum radio range** (the distance at which a frame sent at the
//! default/maximum power fades to the receiver sensitivity). A delivery
//! query for a transmission at power `tx_dbm` then only has to visit the
//! cells overlapping a disc of radius `range(tx_dbm) ≤ cell` around the
//! sender — at most a 3 × 3 block — instead of the whole field. Shadowed
//! scenarios query a larger disc (the bounded-tail decode range, see
//! [`crate::radio::SHADOW_TAIL_SIGMAS`]) spanning more cells, but still a
//! constant-area neighbourhood instead of the whole field.
//!
//! # Event-driven maintenance
//!
//! [`rebuild`](SpatialGrid::rebuild) places all `n` nodes once, at the
//! start of a run. From then on each cell is a compact array of member
//! ids (push to insert, swap-remove to delete) so
//! [`update_node`](SpatialGrid::update_node) moves one node between cells
//! in O(1). The simulator drives these updates from per-node
//! *cell-crossing events*: a node at distance `d` from its cell boundary
//! moving at speed `s` cannot change cell before `d / s`, so a refresh
//! scheduled then keeps every bucket exact (up to a tiny Zeno floor,
//! compensated in the query radius) at a total cost proportional to the
//! number of actual cell crossings.
//!
//! The grid is a *conservative pre-filter*: candidates still undergo the
//! precise received-power test, so extra candidates cost a little time
//! but can never change the outcome, and the query radius is inflated by
//! a small epsilon so floating-point rounding at the range boundary
//! cannot exclude a node the exact test would accept. This is what makes
//! the incremental delivery path bit-identical to the naive oracle
//! (asserted by `tests/determinism.rs` and the property suite).

use crate::geometry::{Field, Vec2};

/// The uniform cell decomposition of a [`Field`]: edge length plus the
/// column/row counts it induces. Shared by the node-position
/// [`SpatialGrid`] and the spatialised in-flight-frame window
/// ([`crate::events::SpatialActiveWindow`]), which bucket different things
/// (nodes vs transmissions) over the same kind of geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGeometry {
    /// Cell edge length (m).
    cell: f64,
    /// Number of cell columns.
    cols: usize,
    /// Number of cell rows.
    rows: usize,
}

impl CellGeometry {
    /// Decomposes `field` into square cells of the given edge (m).
    pub fn new(field: Field, cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell edge must be positive");
        Self {
            cell,
            cols: (field.width / cell).ceil().max(1.0) as usize,
            rows: (field.height / cell).ceil().max(1.0) as usize,
        }
    }

    /// Cell edge length (m).
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Total number of cells.
    pub fn n_cells(&self) -> usize {
        self.cols * self.rows
    }

    /// Index of the cell containing `p`. Positions are expected inside the
    /// field; boundary values (x == width) clamp to the last column/row.
    pub fn cell_of(&self, p: Vec2) -> usize {
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1);
        let cy = ((p.y / self.cell) as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    /// Number of cell columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance (m) from `p` to the nearest boundary of the cell that
    /// contains it — the incremental refresh scheduler divides this by the
    /// node's speed bound to find the earliest possible cell crossing.
    pub fn boundary_distance(&self, p: Vec2) -> f64 {
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1) as f64;
        let cy = ((p.y / self.cell) as usize).min(self.rows - 1) as f64;
        let dx = (p.x - cx * self.cell).min((cx + 1.0) * self.cell - p.x);
        let dy = (p.y - cy * self.cell).min((cy + 1.0) * self.cell - p.y);
        dx.min(dy).max(0.0)
    }

    /// Calls `visit(cell_index)` for every cell overlapping the disc of
    /// `radius` around `center` (cells whose closest point to `center`
    /// exceeds the radius are skipped).
    #[inline]
    pub fn for_each_cell_in_disc<F: FnMut(usize)>(&self, center: Vec2, radius: f64, mut visit: F) {
        let r2 = radius * radius;
        let inv = 1.0 / self.cell;
        let cx0 = (((center.x - radius) * inv).floor().max(0.0)) as usize;
        let cy0 = (((center.y - radius) * inv).floor().max(0.0)) as usize;
        let cx1 = (((center.x + radius) * inv).floor())
            .min(self.cols as f64 - 1.0)
            .max(0.0) as usize;
        let cy1 = (((center.y + radius) * inv).floor())
            .min(self.rows as f64 - 1.0)
            .max(0.0) as usize;
        for cy in cy0..=cy1 {
            // Closest approach of this cell row to the centre.
            let row_lo = cy as f64 * self.cell;
            let dy = (center.y - (center.y.clamp(row_lo, row_lo + self.cell))).abs();
            for cx in cx0..=cx1 {
                let col_lo = cx as f64 * self.cell;
                let dx = (center.x - (center.x.clamp(col_lo, col_lo + self.cell))).abs();
                if dx * dx + dy * dy > r2 {
                    continue; // cell entirely outside the disc
                }
                visit(cy * self.cols + cx);
            }
        }
    }
}

/// Maintenance-cost counters of a [`SpatialGrid`]. A bucket *op* is one
/// membership write: a rebuild costs `n` ops, an incremental node move
/// costs 2 (swap-remove from the old cell + push into the new one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Bucket membership writes performed so far.
    pub bucket_ops: u64,
    /// Incremental cell transitions applied by [`SpatialGrid::update_node`].
    pub node_moves: u64,
}

/// Node ids bucketed by cell in contiguous per-cell member arrays (no
/// per-query allocation; rebuilds reuse every buffer, incremental updates
/// are O(1) via swap-remove + push).
///
/// Earlier revisions threaded an intrusive doubly-linked list through
/// per-node `next`/`prev` arrays. That made `update_node` O(1) too, but a
/// *query* then chased one pointer per member (head + `next[]` walk), each
/// landing on an unrelated cache line — the dominant cost of the delivery
/// query's gather phase once the arithmetic was batched (see
/// [`crate::sweep`]). Compact buckets keep a cell's member ids adjacent
/// (4 bytes each), so walking a typical 2–3-member cell touches one line
/// after the bucket header instead of three or four.
///
/// Within-cell visit order is **unspecified** (swap-remove perturbs it):
/// every consumer either sorts the gathered candidates or — like the
/// batched sweep — produces output whose order is independent of gather
/// order, so this is not observable in any delivery outcome.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    /// Cell decomposition of the field.
    geom: CellGeometry,
    /// Member node ids per cell, contiguous, in unspecified order.
    buckets: Vec<Vec<u32>>,
    /// Index of each node within its cell's bucket.
    slot: Vec<u32>,
    /// Cell index each node is currently bucketed in.
    cell_idx: Vec<usize>,
    /// Maintenance counters.
    stats: GridStats,
}

const NONE: usize = usize::MAX;

impl SpatialGrid {
    /// Creates a grid for `field` with the given cell edge (m), typically
    /// the maximum radio range. Buffers start empty; call
    /// [`rebuild`](Self::rebuild) before querying.
    pub fn new(field: Field, cell: f64) -> Self {
        let geom = CellGeometry::new(field, cell);
        Self {
            geom,
            buckets: vec![Vec::new(); geom.n_cells()],
            slot: Vec::new(),
            cell_idx: Vec::new(),
            stats: GridStats::default(),
        }
    }

    /// Cell edge length (m).
    pub fn cell_size(&self) -> f64 {
        self.geom.cell_size()
    }

    /// The grid's cell decomposition of the field.
    pub fn geometry(&self) -> CellGeometry {
        self.geom
    }

    /// Maintenance counters accumulated since the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> GridStats {
        self.stats
    }

    /// Zeroes the maintenance counters.
    pub fn reset_stats(&mut self) {
        self.stats = GridStats::default();
    }

    fn cell_of(&self, p: Vec2) -> usize {
        self.geom.cell_of(p)
    }

    /// Distance (m) from `p` to the nearest boundary of the cell that
    /// contains it (see [`CellGeometry::boundary_distance`]).
    pub fn boundary_distance(&self, p: Vec2) -> f64 {
        self.geom.boundary_distance(p)
    }

    fn link(&mut self, i: usize, c: usize) {
        let bucket = &mut self.buckets[c];
        self.slot[i] = bucket.len() as u32;
        bucket.push(i as u32);
        self.cell_idx[i] = c;
        self.stats.bucket_ops += 1;
    }

    fn unlink(&mut self, i: usize) {
        let s = self.slot[i] as usize;
        let bucket = &mut self.buckets[self.cell_idx[i]];
        bucket.swap_remove(s);
        // The former last member now occupies slot `s` (if any remained).
        if let Some(&moved) = bucket.get(s) {
            self.slot[moved as usize] = s as u32;
        }
        self.stats.bucket_ops += 1;
    }

    /// Buckets all `n` nodes at `position(i)` — the initial placement.
    /// Reuses every internal buffer; O(cells + n).
    pub fn rebuild<F: FnMut(usize) -> Vec2>(&mut self, n: usize, mut position: F) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.slot.clear();
        self.slot.resize(n, u32::MAX);
        self.cell_idx.clear();
        self.cell_idx.resize(n, NONE);
        for i in 0..n {
            let c = self.cell_of(position(i));
            self.link(i, c);
        }
    }

    /// Moves node `i` (already bucketed by a previous
    /// [`rebuild`](Self::rebuild)) to the cell containing `p` in O(1).
    /// Returns whether the node actually changed cell.
    pub fn update_node(&mut self, i: usize, p: Vec2) -> bool {
        let c = self.cell_of(p);
        if c == self.cell_idx[i] {
            return false;
        }
        self.unlink(i);
        self.link(i, c);
        self.stats.node_moves += 1;
        true
    }

    /// Calls `f(node)` for every node bucketed in a cell overlapping the
    /// disc of `radius` around `center`, cell-major and in bucket order
    /// within a cell. There is no per-node distance filter: buckets are
    /// exact, so callers filter on the nodes' current positions.
    #[inline]
    pub fn for_each_in_cells<F: FnMut(usize)>(&self, center: Vec2, radius: f64, mut f: F) {
        self.geom.for_each_cell_in_disc(center, radius, |cell| {
            for &i in &self.buckets[cell] {
                f(i as usize);
            }
        });
    }

    /// The member ids bucketed in `cell`, contiguous, in unspecified
    /// order — the same order [`for_each_in_cells`](Self::for_each_in_cells)
    /// walks the cell, so a caller enumerating cells via
    /// [`CellGeometry::for_each_cell_in_disc`] and members via this slice
    /// reproduces the disc query's exact visit order. Exposing the slice
    /// (rather than only a callback walk) lets the batched sweep prefetch
    /// a bucket's data line before it needs the members.
    #[inline]
    pub fn bucket(&self, cell: usize) -> &[u32] {
        &self.buckets[cell]
    }

    /// Hints the CPU to start loading `cell`'s bucket *header* (length +
    /// data pointer) without reading it. A delivery query touches a couple
    /// of dozen cells whose headers scatter across a multi-hundred-KiB
    /// array; issuing these hints one pass ahead of the
    /// [`bucket`](Self::bucket) calls takes the header loads off the
    /// gather's critical path. No observable effect beyond cache state.
    #[inline]
    pub fn prefetch_bucket(&self, cell: usize) {
        let p: *const Vec<u32> = &self.buckets[cell];
        #[cfg(target_arch = "x86_64")]
        // SAFETY: prefetch is side-effect-free and architecturally valid
        // for any address.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(p.cast::<i8>(), _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = p;
    }

    /// Calls `f(node)` for every node bucketed in `cell`, in
    /// [`bucket`](Self::bucket) order.
    #[inline]
    pub fn for_each_in_cell<F: FnMut(usize)>(&self, cell: usize, mut f: F) {
        for &i in &self.buckets[cell] {
            f(i as usize);
        }
    }

    /// The cell node `i` is currently bucketed in (the invalidation hook
    /// of the sweep's event-horizon cache needs the *destination* cell of
    /// a node move).
    #[inline]
    pub fn node_cell(&self, i: usize) -> usize {
        self.cell_idx[i]
    }

    /// Number of nodes bucketed by the last [`rebuild`](Self::rebuild) —
    /// every id in every [`bucket`](Self::bucket) is below this.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.cell_idx.len()
    }

    /// The grid in the compact form [`unpack`](Self::unpack) takes back:
    /// every bucket's members, in order, one array for all cells.
    pub(crate) fn pack(&self) -> PackedGrid {
        let mut ends = Vec::with_capacity(self.buckets.len());
        let mut members = Vec::with_capacity(self.cell_idx.len());
        for bucket in &self.buckets {
            members.extend_from_slice(bucket);
            ends.push(u32::try_from(members.len()).expect("node ids fit u32"));
        }
        PackedGrid {
            geom: self.geom,
            ends,
            members,
            stats: self.stats,
        }
    }

    /// Makes this grid the one `packed` was taken from: the same cells,
    /// members in the same bucket order, and counters. Reuses the bucket
    /// allocations where the geometry matches.
    pub(crate) fn unpack(&mut self, packed: &PackedGrid) {
        if self.geom != packed.geom {
            self.geom = packed.geom;
            self.buckets.clear();
            self.buckets.resize_with(self.geom.n_cells(), Vec::new);
        }
        self.stats = packed.stats;
        let n = packed.members.len();
        self.slot.clear();
        self.slot.resize(n, u32::MAX);
        self.cell_idx.clear();
        self.cell_idx.resize(n, NONE);
        let mut start = 0;
        for (c, (bucket, &end)) in self.buckets.iter_mut().zip(&packed.ends).enumerate() {
            let members = &packed.members[start..end as usize];
            bucket.clear();
            bucket.extend_from_slice(members);
            for (s, &i) in members.iter().enumerate() {
                self.slot[i as usize] = s as u32;
                self.cell_idx[i as usize] = c;
            }
            start = end as usize;
        }
    }
}

/// A [`SpatialGrid`] packed by [`SpatialGrid::pack`]: cell `c`'s members
/// are `members[ends[c - 1]..ends[c]]` (from 0 for cell 0), in bucket
/// order. About 4 bytes per node and per cell, against a bucket header
/// and allocation per cell plus two per-node indices.
#[derive(Debug, Clone)]
pub(crate) struct PackedGrid {
    geom: CellGeometry,
    ends: Vec<u32>,
    members: Vec<u32>,
    stats: GridStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nodes the cell walk visits whose position in `pts` lies within
    /// `radius` of `center`, sorted — what the delivery query's filter
    /// keeps.
    fn within(grid: &SpatialGrid, pts: &[Vec2], center: Vec2, radius: f64) -> Vec<usize> {
        let mut v = Vec::new();
        grid.for_each_in_cells(center, radius, |i| {
            if pts[i].distance_sq(center) <= radius * radius {
                v.push(i);
            }
        });
        v.sort_unstable();
        v
    }

    fn brute_force(pts: &[Vec2], center: Vec2, radius: f64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..pts.len())
            .filter(|&i| pts[i].distance_sq(center) <= radius * radius)
            .collect();
        v.sort_unstable();
        v
    }

    fn pseudo_points(n: usize, side: f64) -> Vec<Vec2> {
        let mut x: u64 = 0x1234_5678_9ABC_DEF0;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Vec2::new(step() * side, step() * side))
            .collect()
    }

    #[test]
    fn matches_brute_force_scan() {
        let field = Field::new(500.0, 500.0);
        let mut grid = SpatialGrid::new(field, 140.0);
        let pts = pseudo_points(200, 500.0);
        grid.rebuild(pts.len(), |i| pts[i]);
        assert_eq!(grid.n_nodes(), pts.len());
        for &(cx, cy, r) in &[
            (250.0, 250.0, 139.0),
            (0.0, 0.0, 100.0),
            (499.0, 10.0, 139.9),
            (250.0, 0.0, 50.0),
        ] {
            let center = Vec2::new(cx, cy);
            assert_eq!(
                within(&grid, &pts, center, r),
                brute_force(&pts, center, r),
                "query ({cx},{cy}) r={r}"
            );
        }
    }

    #[test]
    fn unpacking_a_packed_grid_reproduces_it() {
        // Moves perturb the bucket orders; a grid of another field unpacks
        // the packed copy into the same buckets, cells and counters, and
        // moves on from there exactly like the original.
        let field = Field::new(500.0, 500.0);
        let mut grid = SpatialGrid::new(field, 140.0);
        let pts = pseudo_points(200, 500.0);
        grid.rebuild(pts.len(), |i| pts[i]);
        let moved = pseudo_points(60, 500.0);
        for (i, &p) in moved.iter().enumerate() {
            grid.update_node(3 * i, p);
        }
        let mut copy = SpatialGrid::new(Field::new(90.0, 90.0), 30.0);
        copy.rebuild(4, |_| Vec2::new(1.0, 1.0));
        copy.unpack(&grid.pack());
        for (i, &p) in pts.iter().enumerate().take(50) {
            assert_eq!(grid.update_node(i, p), copy.update_node(i, p));
        }
        assert_eq!(copy.geometry(), grid.geometry());
        assert_eq!(copy.stats(), grid.stats());
        assert_eq!(copy.n_nodes(), grid.n_nodes());
        for cell in 0..grid.geometry().n_cells() {
            assert_eq!(copy.bucket(cell), grid.bucket(cell));
        }
        for i in 0..grid.n_nodes() {
            assert_eq!(copy.node_cell(i), grid.node_cell(i));
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_replaces_placement() {
        let field = Field::new(100.0, 100.0);
        let mut grid = SpatialGrid::new(field, 50.0);
        let near = [Vec2::new(10.0, 10.0), Vec2::new(11.0, 10.0)];
        grid.rebuild(2, |i| near[i]);
        assert_eq!(within(&grid, &near, Vec2::new(10.0, 10.0), 5.0).len(), 2);
        // Move both nodes far away; the grid must reflect the new state.
        let far = [Vec2::new(90.0, 90.0); 2];
        grid.rebuild(2, |i| far[i]);
        assert!(within(&grid, &far, Vec2::new(10.0, 10.0), 5.0).is_empty());
        assert_eq!(within(&grid, &far, Vec2::new(90.0, 90.0), 5.0).len(), 2);
    }

    #[test]
    fn incremental_updates_match_rebuild() {
        // Random walks applied via update_node must leave the grid in the
        // same queryable state as a from-scratch rebuild at every step.
        let field = Field::new(300.0, 300.0);
        let mut inc = SpatialGrid::new(field, 70.0);
        let mut pts = pseudo_points(120, 300.0);
        inc.rebuild(pts.len(), |i| pts[i]);
        let mut x: u64 = 0xDEAD_BEEF_1234_5678;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for round in 0..20 {
            for (i, p) in pts.iter_mut().enumerate() {
                p.x = (p.x + step() * 120.0).clamp(0.0, 300.0);
                p.y = (p.y + step() * 120.0).clamp(0.0, 300.0);
                inc.update_node(i, *p);
            }
            let mut reference = SpatialGrid::new(field, 70.0);
            reference.rebuild(pts.len(), |i| pts[i]);
            for cell in 0..reference.geometry().n_cells() {
                let mut a = inc.bucket(cell).to_vec();
                let mut b = reference.bucket(cell).to_vec();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "round {round} cell {cell}");
            }
        }
        let stats = inc.stats();
        assert!(stats.node_moves > 0, "walks this large must cross cells");
        assert_eq!(
            stats.bucket_ops,
            pts.len() as u64 + 2 * stats.node_moves,
            "one placement, then two ops per move"
        );
    }

    #[test]
    fn update_node_within_cell_is_free() {
        let field = Field::new(100.0, 100.0);
        let mut grid = SpatialGrid::new(field, 50.0);
        grid.rebuild(1, |_| Vec2::new(10.0, 10.0));
        let ops0 = grid.stats().bucket_ops;
        assert!(!grid.update_node(0, Vec2::new(12.0, 11.0)));
        assert_eq!(grid.stats().bucket_ops, ops0, "same-cell move costs 0 ops");
        assert!(grid.update_node(0, Vec2::new(80.0, 10.0)));
        assert_eq!(grid.stats().bucket_ops, ops0 + 2, "move = unlink + link");
        assert_eq!(grid.stats().node_moves, 1);
    }

    #[test]
    fn boundary_distance_is_a_crossing_lower_bound() {
        let field = Field::new(100.0, 100.0);
        let grid = SpatialGrid::new(field, 30.0);
        // interior of cell (1,1): 15 m from the nearest edge at (45,45)
        assert!((grid.boundary_distance(Vec2::new(45.0, 45.0)) - 15.0).abs() < 1e-9);
        // right on an edge
        assert_eq!(grid.boundary_distance(Vec2::new(60.0, 45.0)), 0.0);
        // clamped last cell (ragged edge): still non-negative
        assert!(grid.boundary_distance(Vec2::new(99.9, 99.9)) >= 0.0);
    }

    #[test]
    fn boundary_positions_bucket_into_last_cells() {
        let field = Field::new(100.0, 100.0);
        let mut grid = SpatialGrid::new(field, 30.0); // 4x4 cells, ragged edge
        let pts = [Vec2::new(100.0, 100.0)];
        grid.rebuild(1, |i| pts[i]);
        assert_eq!(within(&grid, &pts, Vec2::new(99.0, 99.0), 2.0), vec![0]);
    }

    #[test]
    fn cell_geometry_disc_visits_match_grid_queries() {
        // The extracted CellGeometry must enumerate exactly the cells the
        // grid's own disc walk visits (the frame window reuses it).
        let field = Field::new(500.0, 300.0);
        let geom = CellGeometry::new(field, 70.0);
        assert_eq!(geom.n_cells(), 8 * 5);
        // every point maps into a valid cell, boundary included
        for p in [
            Vec2::new(0.0, 0.0),
            Vec2::new(500.0, 300.0),
            Vec2::new(69.999, 70.001),
            Vec2::new(499.0, 0.0),
        ] {
            assert!(geom.cell_of(p) < geom.n_cells());
        }
        // disc visits: brute-force over all cells via their corner boxes
        for &(cx, cy, r) in &[
            (250.0, 150.0, 69.0),
            (0.0, 0.0, 150.0),
            (499.0, 299.0, 40.0),
        ] {
            let center = Vec2::new(cx, cy);
            let mut got = Vec::new();
            geom.for_each_cell_in_disc(center, r, |c| got.push(c));
            // any cell containing a point within r must be visited
            for gx in 0..100 {
                for gy in 0..60 {
                    let p = Vec2::new(gx as f64 * 5.0, gy as f64 * 5.0);
                    if field.contains(p) && p.distance(center) <= r {
                        assert!(
                            got.contains(&geom.cell_of(p)),
                            "cell of {p:?} missed for disc ({cx},{cy},{r})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn query_disc_larger_than_field_sees_everyone() {
        let field = Field::new(50.0, 50.0);
        let mut grid = SpatialGrid::new(field, 60.0); // single cell
        let pts: Vec<Vec2> = (0..5).map(|i| Vec2::new(i as f64 * 10.0, 25.0)).collect();
        grid.rebuild(5, |i| pts[i]);
        assert_eq!(within(&grid, &pts, Vec2::new(25.0, 25.0), 1_000.0).len(), 5);
    }
}
