//! A deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: ties in time are broken by
//! insertion order, which makes simulation runs fully reproducible — a
//! property the paper's evaluation protocol depends on (the same 10
//! networks must evaluate every candidate configuration identically).

use crate::geometry::Vec2;
use crate::grid::CellGeometry;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// A scheduled event.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap event queue keyed by simulation time.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time `0`.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Empties the queue and rewinds the clock to `0`, retaining the heap
    /// allocation (the reusable simulator resets between runs).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.now = 0.0;
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or lies in the past.
    pub fn schedule(&mut self, time: f64, payload: E) {
        assert!(!time.is_nan(), "cannot schedule at NaN");
        assert!(
            time >= self.now,
            "cannot schedule in the past: {time} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Schedules `payload` after a non-negative delay.
    pub fn schedule_in(&mut self, delay: f64, payload: E) {
        self.schedule(self.now + delay.max(0.0), payload);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, e.payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// The pending events in pop order, with their times.
    pub(crate) fn in_order(&self) -> Vec<(f64, &E)> {
        let mut entries: Vec<&Entry<E>> = self.heap.iter().collect();
        // `Ord` is reversed for the max-heap: the greatest entry pops first.
        entries.sort_unstable_by(|a, b| b.cmp(a));
        entries.into_iter().map(|e| (e.time, &e.payload)).collect()
    }

    /// Replaces the pending events with `events`, given in pop order (as
    /// [`in_order`](Self::in_order) lists them), and sets the clock to
    /// `now`. The events are renumbered in that order, so equal times pop
    /// as they did and every event scheduled later ranks after them: the
    /// queue pops exactly like the one the list was taken from.
    pub(crate) fn refill_in_order(&mut self, now: f64, events: impl IntoIterator<Item = (f64, E)>) {
        self.heap.clear();
        self.seq = 0;
        self.now = now;
        for (time, payload) in events {
            debug_assert!(time >= now, "an event before the clock");
            // In pop order every push is the heap's least entry: no sift.
            self.heap.push(Entry {
                time,
                seq: self.seq,
                payload,
            });
            self.seq += 1;
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The **spatialised** active window: in-flight transmissions bucketed by
/// grid cell, so a delivery query only touches the frames *near* its
/// receivers instead of every frame on the air — O(nearby frames) per
/// query where a flat list of live frames is O(on air) per receiver.
///
/// The structure is the product of two decompositions:
///
/// * **cells** ([`CellGeometry`], typically sized to the interference
///   gating reach) bound which frames can physically matter to a receiver:
///   a frame bucketed in a cell farther from the receiver than the query
///   radius is provably outside its own gating radius, so skipping it
///   cannot change any interference sum;
/// * **lanes** (one per on-air duration class) keep expiry a pure
///   front-pop: within one `(cell, lane)` bucket, insertion order is
///   expiry order, because every entry of a lane has the same duration
///   and simulation time is monotone.
///
/// Pruning stays O(dropped) across all buckets through one per-lane
/// *order queue* recording which bucket received each insertion: the front
/// of lane `l`'s order queue always names the bucket holding lane `l`'s
/// globally-oldest entry, so expiry pops pairs of queue fronts without
/// scanning cells.
///
/// Every entry carries the global insertion sequence number. A gather over
/// the cells of a query disc returns `(seq, item)` pairs; sorting them by
/// `seq` replays the exact insertion order, which is what keeps
/// interference sums (accumulated in iteration order) **bit-identical**
/// to the naive oracle's scan of a plain list of live frames — asserted
/// by the unit tests here and the random-trace proptest in the property
/// suite.
#[derive(Debug, Clone)]
pub struct SpatialActiveWindow<T> {
    geom: CellGeometry,
    lanes: usize,
    /// Per `(cell × lanes + lane)` FIFO of `(seq, end, pos, item)`.
    buckets: Vec<VecDeque<(u64, f64, Vec2, T)>>,
    /// Per lane: FIFO of bucket indices, parallel to the lane's global
    /// insertion order (the expiry cursor described above).
    order: Vec<VecDeque<u32>>,
    seq: u64,
    live: usize,
    /// Conservative lower bound on the earliest `end` among lane fronts
    /// (`+inf` when empty): [`prune`](Self::prune) is called once per
    /// delivery query but only drops anything when a frame actually
    /// expired, so a one-compare fast path beats walking every lane front.
    next_expiry: f64,
}

impl<T> SpatialActiveWindow<T> {
    /// Creates a window over `geom` with `lanes` duration classes.
    pub fn new(geom: CellGeometry, lanes: usize) -> Self {
        assert!(lanes >= 1);
        let n = geom
            .n_cells()
            .checked_mul(lanes)
            .expect("cell × lane count overflow");
        assert!(n < u32::MAX as usize, "bucket index must fit in u32");
        Self {
            geom,
            lanes,
            buckets: (0..n).map(|_| VecDeque::new()).collect(),
            order: (0..lanes).map(|_| VecDeque::new()).collect(),
            seq: 0,
            live: 0,
            next_expiry: f64::INFINITY,
        }
    }

    /// The window's cell decomposition.
    pub fn geometry(&self) -> CellGeometry {
        self.geom
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Empties the window, retaining bucket allocations.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        for o in &mut self.order {
            o.clear();
        }
        self.seq = 0;
        self.live = 0;
        self.next_expiry = f64::INFINITY;
    }

    /// Inserts `item`, transmitted from `pos` and expiring at `end`, into
    /// `lane`. Entries of one lane must arrive with non-decreasing `end`
    /// (same duration class + monotone simulation time guarantees this).
    pub fn insert(&mut self, lane: usize, end: f64, pos: Vec2, item: T) {
        let bucket = self.geom.cell_of(pos) * self.lanes + lane;
        debug_assert!(
            self.order[lane]
                .back()
                .map(|&b| self.buckets[b as usize].back().expect("order desync").1)
                .is_none_or(|prev| prev <= end),
            "lane {lane} end times must be non-decreasing"
        );
        self.buckets[bucket].push_back((self.seq, end, pos, item));
        self.order[lane].push_back(bucket as u32);
        self.seq += 1;
        self.live += 1;
        self.next_expiry = self.next_expiry.min(end);
    }

    /// Drops every entry with `end <= threshold` — O(dropped), so the
    /// total prune work over a run is bounded by the number of insertions,
    /// and a cached earliest-expiry bound short-circuits the (common)
    /// calls with nothing to drop in one compare.
    pub fn prune(&mut self, threshold: f64) {
        if threshold < self.next_expiry {
            return;
        }
        let mut min_end = f64::INFINITY;
        for lane in 0..self.lanes {
            while let Some(&bucket) = self.order[lane].front() {
                let front = self.buckets[bucket as usize]
                    .front()
                    .expect("order queue names an empty bucket");
                if front.1 > threshold {
                    break;
                }
                self.buckets[bucket as usize].pop_front();
                self.order[lane].pop_front();
                self.live -= 1;
            }
            if let Some(&bucket) = self.order[lane].front() {
                min_end = min_end.min(
                    self.buckets[bucket as usize]
                        .front()
                        .expect("order queue names an empty bucket")
                        .1,
                );
            }
        }
        self.next_expiry = min_end;
    }

    /// Re-bins every live entry into a new cell decomposition, preserving
    /// sequence numbers (and therefore the global insertion order) — the
    /// *migration* path taken when the window's geometry changes while
    /// frames are still in flight (e.g. a reconfiguration to a different
    /// field or gating reach).
    pub fn reset_geometry(&mut self, geom: CellGeometry) {
        let lanes = self.lanes;
        let n = geom
            .n_cells()
            .checked_mul(lanes)
            .expect("cell × lane count overflow");
        assert!(n < u32::MAX as usize, "bucket index must fit in u32");
        // Recover each entry's lane from its old bucket index, then
        // re-insert in seq order, which restores both the per-bucket FIFO
        // (= expiry order) and the per-lane order queues.
        let mut entries: Vec<(usize, (u64, f64, Vec2, T))> = Vec::with_capacity(self.live);
        for (b, bucket) in self.buckets.iter_mut().enumerate() {
            let lane = b % lanes;
            entries.extend(bucket.drain(..).map(|e| (lane, e)));
        }
        entries.sort_unstable_by_key(|&(_, (seq, _, _, _))| seq);
        self.geom = geom;
        self.buckets.truncate(n);
        while self.buckets.len() < n {
            self.buckets.push(VecDeque::new());
        }
        for o in &mut self.order {
            o.clear();
        }
        for (lane, (seq, end, pos, item)) in entries {
            let bucket = geom.cell_of(pos) * lanes + lane;
            self.buckets[bucket].push_back((seq, end, pos, item));
            self.order[lane].push_back(bucket as u32);
        }
    }

    /// Appends `(seq, item)` for every live entry bucketed in a cell
    /// overlapping the disc of `radius` around `center`. Unsorted — sort by
    /// `seq` to replay global insertion order. Conservative in the same
    /// sense as the node grid: the caller still applies its exact per-frame
    /// tests, so visiting extra cells can never change an outcome.
    pub fn gather_into(&self, center: Vec2, radius: f64, out: &mut Vec<(u64, T)>)
    where
        T: Copy,
    {
        self.geom.for_each_cell_in_disc(center, radius, |cell| {
            for bucket in &self.buckets[cell * self.lanes..(cell + 1) * self.lanes] {
                for &(seq, _, _, item) in bucket {
                    out.push((seq, item));
                }
            }
        });
    }

    /// Every live entry as `(seq, end, pos, item)` in global insertion
    /// order — the view the parity tests compare against a plain list of
    /// live frames.
    pub fn entries_in_order(&self) -> Vec<(u64, f64, Vec2, T)>
    where
        T: Copy,
    {
        let mut v: Vec<(u64, f64, Vec2, T)> = self
            .buckets
            .iter()
            .flat_map(|b| b.iter().copied())
            .collect();
        v.sort_unstable_by_key(|&(seq, _, _, _)| seq);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(5.0, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn a_queue_refilled_in_order_pops_like_the_original() {
        // Ties at 2.0 across the heap, then events scheduled after the
        // copy at an existing time: they must pop after the copied ones.
        let mut q = EventQueue::new();
        for (t, v) in [(2.0, 0), (1.0, 1), (2.0, 2), (3.0, 3), (2.0, 4), (1.5, 5)] {
            q.schedule(t, v);
        }
        q.pop();
        let listed: Vec<(f64, i32)> = q.in_order().into_iter().map(|(t, &v)| (t, v)).collect();
        let mut copy = EventQueue::new();
        copy.schedule(9.0, -1);
        copy.refill_in_order(q.now(), listed);
        assert_eq!(copy.now(), q.now());
        for queue in [&mut q, &mut copy] {
            queue.schedule(2.0, 6);
        }
        while let Some(want) = q.pop() {
            assert_eq!(copy.pop(), Some(want));
        }
        assert_eq!(copy.pop(), None);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(2.5, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 2.5);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.pop();
        q.schedule_in(0.5, "second");
        assert_eq!(q.pop(), Some((1.5, "second")));
    }

    #[test]
    fn negative_delay_clamped_to_now() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "x");
        q.pop();
        q.schedule_in(-5.0, "y");
        assert_eq!(q.pop(), Some((1.0, "y")));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(4.0, ());
        q.schedule(2.0, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2.0));
    }

    #[test]
    fn stress_many_random_times_sorted() {
        // pseudo-random insertion order must still drain sorted
        let mut q = EventQueue::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut times = Vec::new();
        for i in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = (x % 1_000_000) as f64 / 100.0;
            q.schedule(t, i);
            times.push(t);
        }
        let mut prev = f64::NEG_INFINITY;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= prev);
            prev = t;
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    #[test]
    fn zero_duration_chain_preserves_causal_order() {
        // an event scheduled "now" during processing runs after currently
        // queued same-time events (FIFO among ties)
        let mut q = EventQueue::new();
        q.schedule(1.0, "a");
        q.schedule(1.0, "b");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (1.0, "a"));
        q.schedule_in(0.0, "c"); // same timestamp as "b", inserted later
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    fn test_geom(side: f64, cell: f64) -> CellGeometry {
        CellGeometry::new(crate::geometry::Field::new(side, side), cell)
    }

    #[test]
    fn spatial_window_inserts_bucket_by_cell_and_gathers_nearby() {
        // 300 m field, 100 m cells (3×3). Entries land in the bucket of
        // their position; a gather only sees cells overlapping its disc.
        let mut w: SpatialActiveWindow<u32> = SpatialActiveWindow::new(test_geom(300.0, 100.0), 2);
        w.insert(0, 1.0, Vec2::new(50.0, 50.0), 1); // cell (0,0)
        w.insert(1, 5.0, Vec2::new(250.0, 50.0), 2); // cell (2,0)
        w.insert(0, 1.5, Vec2::new(50.0, 250.0), 3); // cell (0,2)
        assert_eq!(w.len(), 3);
        let mut got = Vec::new();
        w.gather_into(Vec2::new(40.0, 40.0), 30.0, &mut got);
        assert_eq!(got, vec![(0, 1)], "only the near corner is visited");
        got.clear();
        // a disc covering the whole field sees everything, in any order
        w.gather_into(Vec2::new(150.0, 150.0), 500.0, &mut got);
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn spatial_window_prunes_across_buckets_in_o_dropped() {
        // Short frames that expired *behind* a long-lived frame, scattered
        // over different cells: a long data frame in one bucket must not
        // shield expired beacons in other buckets.
        let mut w: SpatialActiveWindow<u32> = SpatialActiveWindow::new(test_geom(300.0, 100.0), 2);
        w.insert(1, 100.0, Vec2::new(150.0, 150.0), 1); // long data frame
        w.insert(0, 2.0, Vec2::new(10.0, 10.0), 2);
        w.insert(0, 3.0, Vec2::new(290.0, 10.0), 3);
        w.insert(0, 50.0, Vec2::new(10.0, 290.0), 4);
        w.prune(3.0);
        let live: Vec<u32> = w.entries_in_order().iter().map(|&(_, _, _, v)| v).collect();
        assert_eq!(live, vec![1, 4]);
        assert_eq!(w.len(), 2);
        w.prune(100.0);
        assert!(w.is_empty());
        // clear resets the sequence counter
        w.insert(0, 1.0, Vec2::new(5.0, 5.0), 9);
        w.clear();
        assert!(w.is_empty());
        w.insert(0, 1.0, Vec2::new(5.0, 5.0), 10);
        assert_eq!(w.entries_in_order()[0].0, 0, "seq restarts after clear");
    }

    #[test]
    fn spatial_window_gather_replays_insertion_order_after_sort() {
        // Entries interleaved across lanes and cells: sorting a gather by
        // seq must reproduce the global insertion order.
        let mut spatial: SpatialActiveWindow<u32> =
            SpatialActiveWindow::new(test_geom(300.0, 100.0), 2);
        let pts = [
            (1usize, 10.0, 150.0, 150.0, 1u32),
            (0, 2.0, 10.0, 10.0, 2),
            (0, 2.5, 290.0, 290.0, 3),
            (1, 11.0, 10.0, 290.0, 4),
            (0, 3.0, 150.0, 10.0, 5),
        ];
        for &(lane, end, x, y, v) in &pts {
            spatial.insert(lane, end, Vec2::new(x, y), v);
        }
        let mut got = Vec::new();
        spatial.gather_into(Vec2::new(150.0, 150.0), 1000.0, &mut got);
        got.sort_unstable_by_key(|&(seq, _)| seq);
        let spatial_order: Vec<u32> = got.iter().map(|&(_, v)| v).collect();
        assert_eq!(spatial_order, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn spatial_window_migrates_entries_to_new_geometry() {
        // Rebinning live entries into a different cell decomposition keeps
        // every entry, its sequence number and its expiry behaviour.
        let mut w: SpatialActiveWindow<u32> = SpatialActiveWindow::new(test_geom(300.0, 100.0), 2);
        w.insert(1, 10.0, Vec2::new(150.0, 150.0), 1);
        w.insert(0, 2.0, Vec2::new(10.0, 10.0), 2);
        w.insert(0, 4.0, Vec2::new(290.0, 290.0), 3);
        let before = w.entries_in_order();
        w.reset_geometry(test_geom(300.0, 40.0)); // 8×8 cells
        assert_eq!(w.len(), 3);
        assert_eq!(w.entries_in_order(), before, "migration preserves entries");
        // gathers respect the new, finer cells
        let mut got = Vec::new();
        w.gather_into(Vec2::new(10.0, 10.0), 15.0, &mut got);
        assert_eq!(got, vec![(1, 2)]);
        // expiry still works through the rebuilt order queues
        w.prune(2.0);
        let live: Vec<u32> = w.entries_in_order().iter().map(|&(_, _, _, v)| v).collect();
        assert_eq!(live, vec![1, 3]);
    }

    #[test]
    fn interleaved_schedule_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(10.0, 10);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(5.0, 5);
        q.schedule(2.0, 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
    }
}
