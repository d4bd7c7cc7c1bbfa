//! One-hop neighbour tables maintained from received beacons.
//!
//! AEDB's cross-layer design (§III of the paper) exposes the received
//! signal strength of the periodic hello/beacon messages (every 1 s) to the
//! protocol layer: transmission-power estimation and the forwarding-area
//! test are both expressed in terms of these per-neighbour dBm readings.
//!
//! Every beacon a node decodes is written into its table, so in dense
//! worlds this write is one of the simulator's hottest operations (one per
//! beacon reception: ~10⁷ in a 40 s run of 10⁴ nodes). A table is therefore
//! a small **open-addressed slot array** rather than a general-purpose map:
//!
//! * a slot is one [`Observation`] — the neighbour's `u32` id, the beacon's
//!   received power and its time, 24 bytes — so a probe stays within a
//!   cache line or two;
//! * the home slot of an id is a fixed multiplicative (Fibonacci) hash of
//!   the id, probing is linear, and there is no per-table random state, so
//!   the slot layout is a deterministic function of the observation
//!   sequence;
//! * the power a beacon was *sent* at is not stored: a beacon always goes
//!   out at its sender's power class, so readers take it from the
//!   per-node class table they pass in (see [`NeighborTable::live_into`]);
//! * an observation may overwrite a slot whose entry has **expired**
//!   (older than the read expiry), and growth drops expired entries. Both
//!   are exact: the read filter `now − last_seen <= expiry` is monotone in
//!   `now` and simulation time never runs backwards, so an entry that is
//!   expired at one observation is never read again. A table thus holds
//!   the node's live neighbours, not everyone it heard during the run.
//!
//! Reads return [`NeighborEntry`]s sorted by id, so nothing observable
//! depends on the slot layout.

use crate::sim::NodeId;

/// What a node knows about one neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// The neighbour's identifier.
    pub id: NodeId,
    /// Received signal strength of its most recent beacon (dBm).
    pub rx_dbm: f64,
    /// The power the beacon was *sent* at (dBm) — the sender's power
    /// class, as a real cross-layer hello frame would carry it. `tx_dbm −
    /// rx_dbm` is the link's observed path loss, exact even when
    /// neighbours belong to different transmit-power classes
    /// (heterogeneous [`WorldSpec`](crate::world::WorldSpec) groups).
    pub tx_dbm: f64,
    /// Simulation time the beacon was received.
    pub last_seen: f64,
}

/// One stored beacon reception: the slot record of a [`NeighborTable`],
/// and the flat form a [`Checkpoint`](crate::sim::Checkpoint) keeps tables
/// in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The neighbour's identifier.
    pub id: u32,
    /// Received signal strength of its most recent beacon (dBm).
    pub rx_dbm: f64,
    /// Simulation time the beacon was received.
    pub last_seen: f64,
}

const _: () = assert!(std::mem::size_of::<Observation>() <= 24);

/// Marks a free slot. Node ids are below `u32::MAX`, since
/// [`WorldSpec::validate`](crate::world::WorldSpec::validate) caps the node
/// count at it.
const EMPTY: u32 = u32::MAX;

const FREE_SLOT: Observation = Observation {
    id: EMPTY,
    rx_dbm: 0.0,
    last_seen: 0.0,
};

/// Smallest non-zero slot count.
const MIN_SLOTS: usize = 8;

/// A table grows once more than `MAX_LOAD_NUM / MAX_LOAD_DEN` of its slots
/// would be occupied.
const MAX_LOAD_NUM: usize = 3;
const MAX_LOAD_DEN: usize = 4;

/// Slot count for `n` entries: 0 for none, else the smallest power of two
/// (at least [`MIN_SLOTS`]) that holds them within the load factor.
fn slots_for(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let mut slots = MIN_SLOTS;
    while n * MAX_LOAD_DEN > slots * MAX_LOAD_NUM {
        slots *= 2;
    }
    slots
}

/// Whether `o` holds an entry that a read at `now` returns.
fn live_at(o: &Observation, now: f64, expiry: f64) -> bool {
    o.id != EMPTY && now - o.last_seen <= expiry
}

/// A beacon-maintained neighbour table with age-based expiry (see the
/// [module docs](self) for the layout and why expired slots may be
/// reused).
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    /// A power-of-two number of slots, or none before the first entry.
    slots: Vec<Observation>,
    /// Occupied slots, expired entries included.
    len: usize,
}

impl NeighborTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Home slot of `id`: the top bits of a Fibonacci hash.
    fn home(&self, id: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        ((u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Records a beacon from `id` received at `rx_dbm` at time `now`,
    /// overwriting any previous reading. An entry older than `expiry` at
    /// `now` may be overwritten by another neighbour's reading; `expiry`
    /// must be the expiry every later read passes.
    pub fn observe(&mut self, id: NodeId, rx_dbm: f64, now: f64, expiry: f64) {
        assert!(
            id < EMPTY as usize,
            "node id {id} does not fit below u32::MAX"
        );
        let obs = Observation {
            id: id as u32,
            rx_dbm,
            last_seen: now,
        };
        if self.slots.is_empty() {
            self.rehash(MIN_SLOTS, now, expiry);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(obs.id);
        let mut expired = None;
        loop {
            let slot = &mut self.slots[i];
            if slot.id == obs.id {
                *slot = obs;
                return;
            }
            if slot.id == EMPTY {
                break;
            }
            if expired.is_none() && now - slot.last_seen > expiry {
                expired = Some(i);
            }
            i = (i + 1) & mask;
        }
        // `id` is not stored: take the first expired slot on its probe
        // path, else the free slot that ended the probe.
        if let Some(j) = expired {
            self.slots[j] = obs;
        } else if (self.len + 1) * MAX_LOAD_DEN > self.slots.len() * MAX_LOAD_NUM {
            let live = self.iter_live(now, expiry).count();
            self.rehash(slots_for(live + 1).max(self.slots.len()), now, expiry);
            self.insert_new(obs);
        } else {
            self.slots[i] = obs;
            self.len += 1;
        }
    }

    /// Stores `obs`, whose id is known to be absent, in the first free
    /// slot of its probe path.
    fn insert_new(&mut self, obs: Observation) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(obs.id);
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = obs;
        self.len += 1;
    }

    /// Re-lays the live entries out over `slots` slots, dropping expired
    /// ones.
    fn rehash(&mut self, slots: usize, now: f64, expiry: f64) {
        let old = std::mem::replace(&mut self.slots, vec![FREE_SLOT; slots]);
        self.len = 0;
        for obs in old.into_iter().filter(|o| live_at(o, now, expiry)) {
            self.insert_new(obs);
        }
    }

    /// Replaces the contents with `entries` (distinct ids), reusing the
    /// allocation. The slot count is sized to the entries, so a table that
    /// grew in an earlier run gives its surplus back.
    pub fn refill(&mut self, entries: &[Observation]) {
        let slots = slots_for(entries.len());
        self.slots.clear();
        self.slots.shrink_to(slots);
        self.slots.resize(slots, FREE_SLOT);
        self.len = 0;
        for &obs in entries {
            self.insert_new(obs);
        }
    }

    /// Drops every entry, keeping the allocation (simulator reuse).
    pub fn clear(&mut self) {
        self.slots.fill(FREE_SLOT);
        self.len = 0;
    }

    /// The stored entries live at `now`, in slot order.
    fn iter_live(&self, now: f64, expiry: f64) -> impl Iterator<Item = &Observation> {
        self.slots.iter().filter(move |o| live_at(o, now, expiry))
    }

    /// Live entries at time `now`: beacons older than `expiry` are
    /// skipped. `node_tx[id]` is neighbour `id`'s power class, which its
    /// beacons were sent at. Allocates a fresh vector per call — hot paths
    /// should prefer [`live_into`](Self::live_into).
    pub fn live(&self, now: f64, expiry: f64, node_tx: &[f64]) -> Vec<NeighborEntry> {
        let mut v = Vec::new();
        self.live_into(now, expiry, node_tx, &mut v);
        v
    }

    /// Allocation-free variant of [`live`](Self::live): clears `out` and
    /// fills it with the live entries sorted by id, reusing its capacity.
    /// The protocol hot path calls this once per forwarding decision,
    /// thousands of times per simulation.
    pub fn live_into(&self, now: f64, expiry: f64, node_tx: &[f64], out: &mut Vec<NeighborEntry>) {
        out.clear();
        out.extend(self.iter_live(now, expiry).map(|o| NeighborEntry {
            id: o.id as NodeId,
            rx_dbm: o.rx_dbm,
            tx_dbm: node_tx[o.id as usize],
            last_seen: o.last_seen,
        }));
        out.sort_unstable_by_key(|e| e.id);
    }

    /// Appends the entries live at `now` to `out`, in slot order — the
    /// flat form [`refill`](Self::refill) takes back.
    pub fn extend_live(&self, now: f64, expiry: f64, out: &mut Vec<Observation>) {
        out.extend(self.iter_live(now, expiry));
    }

    /// Stored entries, expired ones not yet overwritten included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table stores no entry at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TX: [f64; 10] = [16.02; 10];

    #[test]
    fn observe_and_query() {
        let mut t = NeighborTable::new();
        t.observe(3, -70.0, 1.0, 2.5);
        t.observe(5, -80.0, 1.5, 2.5);
        let live = t.live(2.0, 2.5, &TX);
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].id, 3);
        assert_eq!(live[0].rx_dbm, -70.0);
        assert_eq!(live[0].tx_dbm, 16.02);
        assert_eq!(live[1].id, 5);
    }

    #[test]
    fn newer_beacon_overwrites() {
        let mut t = NeighborTable::new();
        t.observe(1, -70.0, 1.0, 10.0);
        t.observe(1, -75.0, 2.0, 10.0);
        let live = t.live(2.0, 10.0, &TX);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].rx_dbm, -75.0);
        assert_eq!(live[0].last_seen, 2.0);
    }

    #[test]
    fn stale_entries_filtered() {
        let mut t = NeighborTable::new();
        t.observe(1, -70.0, 0.0, 2.5);
        t.observe(2, -70.0, 9.0, 2.5);
        let live = t.live(10.0, 2.5, &TX);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id, 2);
        assert_eq!(t.len(), 2); // the expired one is still stored
    }

    #[test]
    fn live_is_sorted_by_id() {
        let mut t = NeighborTable::new();
        for id in [9, 2, 7, 1, 5] {
            t.observe(id, -50.0, 0.0, 1.0);
        }
        let ids: Vec<_> = t.live(0.0, 1.0, &TX).iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 5, 7, 9]);
    }

    #[test]
    fn tx_power_comes_from_the_sender_class() {
        let mut t = NeighborTable::new();
        t.observe(1, -70.0, 0.0, 2.5);
        t.observe(2, -71.0, 0.0, 2.5);
        let classes = [16.02, 20.0, 5.0];
        let live = t.live(0.0, 2.5, &classes);
        assert_eq!((live[0].tx_dbm, live[1].tx_dbm), (20.0, 5.0));
    }

    #[test]
    fn expired_slots_are_reused_and_growth_drops_them() {
        let mut t = NeighborTable::new();
        for id in 0..6 {
            t.observe(id, -60.0, 0.0, 2.5);
        }
        assert_eq!((t.len(), t.slots.len()), (6, 8));
        // Six new neighbours once the first six have expired: they take
        // expired slots or trigger a growth that drops them, so the table
        // never holds more than the live set plus what fits unexpired.
        for id in 100..106 {
            t.observe(id, -61.0, 10.0, 2.5);
        }
        assert!(
            t.len() <= 8 && t.slots.len() == 8,
            "{} in {}",
            t.len(),
            t.slots.len()
        );
        let ids: Vec<_> = t
            .live(10.0, 2.5, &[0.0; 106])
            .iter()
            .map(|e| e.id)
            .collect();
        assert_eq!(ids, (100..106).collect::<Vec<_>>());
    }

    #[test]
    fn refill_sizes_to_the_entries() {
        let mut t = NeighborTable::new();
        for id in 0..100 {
            t.observe(id, -60.0, 0.0, 2.5);
        }
        assert_eq!(t.slots.len(), 256);
        let mut flat = Vec::new();
        t.extend_live(0.0, 2.5, &mut flat);
        t.refill(&flat[..5]);
        assert_eq!((t.len(), t.slots.len()), (5, 8));
        assert!(t.slots.capacity() < 256);
        t.refill(&[]);
        assert!(t.is_empty() && t.slots.is_empty());
        assert!(t.live(0.0, 2.5, &TX).is_empty());
    }
}
