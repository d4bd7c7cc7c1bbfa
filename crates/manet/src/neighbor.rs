//! One-hop neighbour tables maintained from received beacons.
//!
//! AEDB's cross-layer design (§III of the paper) exposes the received
//! signal strength of the periodic hello/beacon messages (every 1 s) to the
//! protocol layer: transmission-power estimation and the forwarding-area
//! test are both expressed in terms of these per-neighbour dBm readings.

use crate::sim::NodeId;
use std::collections::HashMap;

/// What a node knows about one neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// The neighbour's identifier.
    pub id: NodeId,
    /// Received signal strength of its most recent beacon (dBm).
    pub rx_dbm: f64,
    /// The power the beacon was *sent* at (dBm) — carried in the hello
    /// frame, as a real cross-layer beacon would. `tx_dbm − rx_dbm` is the
    /// link's observed path loss, exact even when neighbours belong to
    /// different transmit-power classes (heterogeneous
    /// [`WorldSpec`](crate::world::WorldSpec) groups).
    pub tx_dbm: f64,
    /// Simulation time the beacon was received.
    pub last_seen: f64,
}

/// A beacon-maintained neighbour table with age-based expiry.
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    entries: HashMap<NodeId, (f64, f64, f64)>, // id -> (rx_dbm, tx_dbm, last_seen)
}

impl NeighborTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a beacon from `id` received at `rx_dbm` (sent at `tx_dbm`)
    /// at time `now`. Overwrites any previous reading.
    pub fn observe(&mut self, id: NodeId, rx_dbm: f64, tx_dbm: f64, now: f64) {
        self.entries.insert(id, (rx_dbm, tx_dbm, now));
    }

    /// Removes `id` (e.g. when a node deliberately discards a neighbour).
    pub fn forget(&mut self, id: NodeId) {
        self.entries.remove(&id);
    }

    /// Drops every entry, retaining the map's allocation (simulator reuse).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Live entries at time `now`: beacons older than `expiry` are skipped
    /// (and lazily evicted on the next [`sweep`](Self::sweep)). Allocates
    /// a fresh vector per call — hot paths should prefer
    /// [`live_into`](Self::live_into).
    pub fn live(&self, now: f64, expiry: f64) -> Vec<NeighborEntry> {
        let mut v = Vec::new();
        self.live_into(now, expiry, &mut v);
        v
    }

    /// Allocation-free variant of [`live`](Self::live): clears `out` and
    /// fills it with the live entries in the same deterministic (id-sorted)
    /// order, reusing its capacity. The protocol hot path calls this once
    /// per forwarding decision, thousands of times per simulation.
    pub fn live_into(&self, now: f64, expiry: f64, out: &mut Vec<NeighborEntry>) {
        out.clear();
        self.extend_live(now, expiry, out);
        // Deterministic order regardless of hash-map iteration.
        out.sort_by_key(|e| e.id);
    }

    /// Appends the entries live at `now` to `out`, in hash-map order.
    pub fn extend_live(&self, now: f64, expiry: f64, out: &mut Vec<NeighborEntry>) {
        out.extend(
            self.entries
                .iter()
                .filter(|(_, &(_, _, seen))| now - seen <= expiry)
                .map(|(&id, &(rx_dbm, tx_dbm, last_seen))| NeighborEntry {
                    id,
                    rx_dbm,
                    tx_dbm,
                    last_seen,
                }),
        );
    }

    /// A table holding exactly `entries`, sized to them.
    pub fn from_entries(entries: &[NeighborEntry]) -> Self {
        let mut map = HashMap::with_capacity(entries.len());
        map.extend(
            entries
                .iter()
                .map(|e| (e.id, (e.rx_dbm, e.tx_dbm, e.last_seen))),
        );
        Self { entries: map }
    }

    /// Evicts entries older than `expiry`.
    pub fn sweep(&mut self, now: f64, expiry: f64) {
        self.entries
            .retain(|_, &mut (_, _, seen)| now - seen <= expiry);
    }

    /// Total entries (including possibly stale ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_and_query() {
        let mut t = NeighborTable::new();
        t.observe(3, -70.0, 16.02, 1.0);
        t.observe(5, -80.0, 16.02, 1.5);
        let live = t.live(2.0, 2.5);
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].id, 3);
        assert_eq!(live[0].rx_dbm, -70.0);
        assert_eq!(live[1].id, 5);
    }

    #[test]
    fn newer_beacon_overwrites() {
        let mut t = NeighborTable::new();
        t.observe(1, -70.0, 16.02, 1.0);
        t.observe(1, -75.0, 16.02, 2.0);
        let live = t.live(2.0, 10.0);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].rx_dbm, -75.0);
        assert_eq!(live[0].last_seen, 2.0);
    }

    #[test]
    fn stale_entries_filtered() {
        let mut t = NeighborTable::new();
        t.observe(1, -70.0, 16.02, 0.0);
        t.observe(2, -70.0, 16.02, 9.0);
        let live = t.live(10.0, 2.5);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id, 2);
        assert_eq!(t.len(), 2); // stale one still stored
        t.sweep(10.0, 2.5);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn forget_removes() {
        let mut t = NeighborTable::new();
        t.observe(7, -60.0, 16.02, 0.0);
        t.forget(7);
        assert!(t.is_empty());
        assert!(t.live(0.0, 10.0).is_empty());
    }

    #[test]
    fn live_is_sorted_by_id() {
        let mut t = NeighborTable::new();
        for id in [9, 2, 7, 1, 5] {
            t.observe(id, -50.0, 16.02, 0.0);
        }
        let ids: Vec<_> = t.live(0.0, 1.0).iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 5, 7, 9]);
    }
}
