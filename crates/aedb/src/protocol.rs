//! The AEDB state machine — a faithful transcription of Fig. 1 of the
//! paper onto the [`manet::Protocol`] trait.
//!
//! Per-node behaviour on the broadcast message `m`:
//!
//! 1. **First reception**: record the received power `p` as `pmin`; if it
//!    already exceeds the border threshold the node is inside the senders'
//!    core area and drops `m`; otherwise it waits a random delay drawn
//!    from the configured delay interval.
//! 2. **Duplicates while waiting**: `pmin` tracks the *strongest* copy
//!    received (lines 11–14 update it when `p > pmin` — despite its name,
//!    a node learns it is well covered when *any* copy arrives strongly).
//! 3. **Delay expiry**: re-test `pmin` against the border threshold; if
//!    still in the forwarding area, estimate the transmission power:
//!    * count the *potential forwarders* — live neighbours whose beacons
//!      arrive at or below the border threshold (by beacon-power
//!      reciprocity these are exactly the nodes that would land in this
//!      node's forwarding area);
//!    * **dense** (count > neighbors threshold): shrink the range to the
//!      potential forwarder *closest to the border threshold* (the
//!      strongest-beacon member of the forwarding area), deliberately
//!      dropping farther one-hop neighbours;
//!    * **sparse** (otherwise): discard the node `m` was heard from and
//!      reach the *furthest* remaining neighbour (weakest beacon);
//!    * add the margin threshold and clamp to the node's power class
//!      (the default power in the paper's homogeneous worlds).
//! 4. Transmit `m` at the estimated power.
//!
//! Beacons carry their transmit power ([`NeighborEntry::tx_dbm`]), so the
//! path-loss inference `tx − rx` stays exact when neighbours belong to
//! different transmit-power classes (heterogeneous `WorldSpec` groups).

use crate::params::AedbParams;
use manet::neighbor::NeighborEntry;
use manet::protocol::{Protocol, ProtocolApi};
use manet::sim::NodeId;

/// Per-node protocol state for the broadcast message.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    received: bool,
    waiting: bool,
    done: bool,
    /// Strongest received copy so far (dBm); see module docs.
    pmin: f64,
    /// The node the message was last heard from (discarded from the
    /// neighbour list in the sparse branch).
    heard_from: NodeId,
}

/// The AEDB protocol with a fixed parameter configuration.
#[derive(Debug, Clone)]
pub struct Aedb {
    params: AedbParams,
    nodes: Vec<NodeState>,
    /// Scratch for the neighbour table of the node currently deciding —
    /// filled through [`ProtocolApi::neighbors_into`] so the per-forward
    /// power estimate allocates nothing after warm-up.
    neighbor_scratch: Vec<NeighborEntry>,
}

impl Aedb {
    /// Creates the protocol for `n` nodes with configuration `params`.
    pub fn new(n: usize, params: AedbParams) -> Self {
        Self {
            params,
            nodes: vec![NodeState::default(); n],
            neighbor_scratch: Vec::new(),
        }
    }

    /// Re-arms the protocol for a new run, reusing the per-node state
    /// buffer (the batched evaluation pipeline resets one protocol
    /// instance thousands of times per generation).
    pub fn reset(&mut self, n: usize, params: AedbParams) {
        self.params = params;
        self.nodes.clear();
        self.nodes.resize(n, NodeState::default());
    }

    /// The configuration in use.
    pub fn params(&self) -> AedbParams {
        self.params
    }

    /// Estimates the transmit power (dBm) for `node`, implementing lines
    /// 19–24 of Fig. 1. Exposed for unit tests.
    fn estimate_tx_power(&mut self, node: NodeId, api: &mut dyn ProtocolApi) -> f64 {
        let p = &self.params;
        // The node's own power class: the conservative fallback and the
        // hard cap. Equals `default_tx_dbm` in the paper's homogeneous
        // worlds; a low-power group caps lower.
        let max_tx = api.node_tx_dbm(node);
        let sensitivity = api.rx_sensitivity_dbm();
        let neighbors = &mut self.neighbor_scratch;
        api.neighbors_into(node, neighbors);
        // Required power to make a neighbour decode us: each beacon
        // carries its own transmit power, so `tx − rx` is that link's
        // observed path loss (exact even across heterogeneous power
        // classes) and we must emit at sensitivity + loss (+ margin).
        let needed = |e: &NeighborEntry| sensitivity + (e.tx_dbm - e.rx_dbm) + p.margin_threshold;
        // The potential forwarders — live neighbours whose beacons arrive
        // at or below the border threshold — reduced in one pass (count +
        // strongest beacon) instead of collecting them.
        let mut n_potential = 0usize;
        let mut strongest: Option<&NeighborEntry> = None;
        for e in neighbors.iter().filter(|e| e.rx_dbm <= p.border_threshold) {
            n_potential += 1;
            if strongest.is_none_or(|s| e.rx_dbm > s.rx_dbm) {
                strongest = Some(e);
            }
        }
        let tx = if n_potential as f64 > p.neighbors_threshold && n_potential > 0 {
            // Dense: reach only the forwarding-area node closest to the
            // border threshold (strongest beacon among the potential
            // forwarders).
            needed(strongest.expect("n_potential > 0"))
        } else {
            // Sparse: keep connectivity — reach the furthest neighbour,
            // excluding the node we heard the message from.
            let heard = self.nodes[node].heard_from;
            let weakest = neighbors.iter().filter(|e| e.id != heard).fold(
                None::<&NeighborEntry>,
                |acc, e| {
                    if acc.is_none_or(|w| e.rx_dbm < w.rx_dbm) {
                        Some(e)
                    } else {
                        acc
                    }
                },
            );
            match weakest {
                Some(w) => needed(w),
                // No usable neighbour information: be conservative.
                None => max_tx,
            }
        };
        tx.min(max_tx)
    }
}

impl Protocol for Aedb {
    fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
        let st = &mut self.nodes[node];
        st.received = true;
        st.done = true;
        st.heard_from = node; // nothing to discard
        let tx = self.estimate_tx_power(node, api);
        api.transmit(node, tx);
    }

    fn on_receive(&mut self, node: NodeId, from: NodeId, rx_dbm: f64, api: &mut dyn ProtocolApi) {
        let border = self.params.border_threshold;
        let st = &mut self.nodes[node];
        if !st.received {
            // Lines 1–9: first copy.
            st.received = true;
            st.pmin = rx_dbm;
            st.heard_from = from;
            if st.pmin > border {
                st.done = true; // drop: inside someone's core area
                return;
            }
            st.waiting = true;
            let (lo, hi) = self.params.delay_interval();
            let delay = lo + api.rand() * (hi - lo).max(0.0);
            api.set_timer(node, delay, 0);
        } else if st.waiting {
            // Lines 10–15: refresh pmin with stronger copies.
            if rx_dbm > st.pmin {
                st.pmin = rx_dbm;
                st.heard_from = from;
            }
        }
    }

    fn on_timer(&mut self, node: NodeId, _tag: u64, api: &mut dyn ProtocolApi) {
        let border = self.params.border_threshold;
        {
            let st = &mut self.nodes[node];
            if !st.waiting || st.done {
                return;
            }
            st.waiting = false;
            st.done = true;
            if st.pmin > border {
                return; // lines 16–17: drop after the wait
            }
        }
        // Lines 18–25: estimate power and forward.
        let tx = self.estimate_tx_power(node, api);
        api.transmit(node, tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scripted ProtocolApi for unit-testing the state machine without a
    /// full simulation.
    struct FakeApi {
        now: f64,
        timers: Vec<(NodeId, f64, u64)>,
        transmissions: Vec<(NodeId, f64)>,
        neighbors: Vec<NeighborEntry>,
        rand_value: f64,
    }

    impl FakeApi {
        fn new() -> Self {
            Self {
                now: 0.0,
                timers: vec![],
                transmissions: vec![],
                neighbors: vec![],
                rand_value: 0.5,
            }
        }

        fn with_neighbors(rx: &[(NodeId, f64)]) -> Self {
            let mut api = Self::new();
            api.neighbors = rx
                .iter()
                .map(|&(id, rx_dbm)| NeighborEntry {
                    id,
                    rx_dbm,
                    tx_dbm: 16.02,
                    last_seen: 0.0,
                })
                .collect();
            api
        }
    }

    impl ProtocolApi for FakeApi {
        fn now(&self) -> f64 {
            self.now
        }
        fn set_timer(&mut self, node: NodeId, delay: f64, tag: u64) {
            self.timers.push((node, delay, tag));
        }
        fn transmit(&mut self, node: NodeId, tx_dbm: f64) {
            self.transmissions.push((node, tx_dbm));
        }
        fn neighbors(&mut self, _node: NodeId) -> Vec<NeighborEntry> {
            self.neighbors.clone()
        }
        fn default_tx_dbm(&self) -> f64 {
            16.02
        }
        fn rx_sensitivity_dbm(&self) -> f64 {
            -96.0
        }
        fn rand(&mut self) -> f64 {
            self.rand_value
        }
    }

    fn params() -> AedbParams {
        AedbParams {
            min_delay: 0.2,
            max_delay: 1.0,
            border_threshold: -80.0,
            margin_threshold: 1.0,
            neighbors_threshold: 2.0,
        }
    }

    #[test]
    fn strong_first_copy_is_dropped() {
        let mut aedb = Aedb::new(4, params());
        let mut api = FakeApi::new();
        // -70 dBm > border (-80): node is deep inside coverage -> drop.
        aedb.on_receive(1, 0, -70.0, &mut api);
        assert!(api.timers.is_empty());
        assert!(api.transmissions.is_empty());
        assert!(aedb.nodes[1].done);
    }

    #[test]
    fn weak_copy_schedules_delay_in_interval() {
        let mut aedb = Aedb::new(4, params());
        let mut api = FakeApi::new();
        api.rand_value = 0.5;
        aedb.on_receive(1, 0, -85.0, &mut api);
        assert_eq!(api.timers.len(), 1);
        let (_, delay, _) = api.timers[0];
        // delay = 0.2 + 0.5*(1.0-0.2) = 0.6
        assert!((delay - 0.6).abs() < 1e-12);
        assert!(aedb.nodes[1].waiting);
    }

    #[test]
    fn stronger_duplicate_updates_pmin_and_cancels_forward() {
        let mut aedb = Aedb::new(4, params());
        let mut api = FakeApi::with_neighbors(&[(0, -85.0), (2, -85.0)]);
        aedb.on_receive(1, 0, -85.0, &mut api); // waits
        aedb.on_receive(1, 2, -75.0, &mut api); // strong duplicate
        assert_eq!(aedb.nodes[1].pmin, -75.0);
        aedb.on_timer(1, 0, &mut api);
        // pmin (-75) > border (-80): dropped at line 16
        assert!(api.transmissions.is_empty());
    }

    #[test]
    fn weaker_duplicate_does_not_downgrade_pmin() {
        let mut aedb = Aedb::new(4, params());
        let mut api = FakeApi::with_neighbors(&[(0, -85.0)]);
        aedb.on_receive(1, 0, -82.0, &mut api);
        aedb.on_receive(1, 2, -90.0, &mut api);
        assert_eq!(aedb.nodes[1].pmin, -82.0);
        aedb.on_timer(1, 0, &mut api);
        assert_eq!(api.transmissions.len(), 1);
    }

    #[test]
    fn sparse_branch_reaches_furthest_excluding_sender() {
        let mut aedb = Aedb::new(4, params());
        // one potential forwarder (-85 <= border -80) — not above the
        // neighbors threshold (2), so sparse branch.
        let mut api = FakeApi::with_neighbors(&[(0, -60.0), (2, -85.0), (3, -75.0)]);
        aedb.on_receive(1, 0, -85.0, &mut api);
        aedb.on_timer(1, 0, &mut api);
        assert_eq!(api.transmissions.len(), 1);
        let (_, tx) = api.transmissions[0];
        // furthest neighbour excluding sender 0: node 2 at -85 dBm beacon.
        // needed = -96 + (16.02 − (−85)) + 1 = 6.02
        assert!((tx - 6.02).abs() < 1e-9, "tx = {tx}");
    }

    #[test]
    fn dense_branch_reaches_closest_potential_forwarder() {
        let mut p = params();
        p.neighbors_threshold = 1.0; // two potential forwarders > 1
        let mut aedb = Aedb::new(5, p);
        let mut api = FakeApi::with_neighbors(&[(0, -60.0), (2, -85.0), (3, -92.0)]);
        aedb.on_receive(1, 0, -85.0, &mut api);
        aedb.on_timer(1, 0, &mut api);
        let (_, tx) = api.transmissions[0];
        // potential forwarders at −85, −92; strongest (closest to border) −85
        // needed = −96 + (16.02 + 85) + 1 = 6.02
        assert!((tx - 6.02).abs() < 1e-9, "tx = {tx}");
    }

    #[test]
    fn power_clamped_to_default() {
        let mut aedb = Aedb::new(4, params());
        // single very far neighbour (−95.9): raw estimate would exceed default
        let mut api = FakeApi::with_neighbors(&[(2, -95.9)]);
        aedb.on_receive(1, 0, -85.0, &mut api);
        aedb.on_timer(1, 0, &mut api);
        let (_, tx) = api.transmissions[0];
        assert_eq!(tx, 16.02);
    }

    #[test]
    fn no_neighbors_uses_default_power() {
        let mut aedb = Aedb::new(4, params());
        let mut api = FakeApi::new();
        aedb.on_receive(1, 0, -85.0, &mut api);
        aedb.on_timer(1, 0, &mut api);
        assert_eq!(api.transmissions, vec![(1, 16.02)]);
    }

    #[test]
    fn source_transmits_immediately() {
        let mut aedb = Aedb::new(4, params());
        let mut api = FakeApi::with_neighbors(&[(1, -70.0), (2, -88.0)]);
        aedb.on_start(0, &mut api);
        assert_eq!(api.transmissions.len(), 1);
        assert!(api.timers.is_empty());
    }

    #[test]
    fn duplicate_after_done_is_ignored() {
        let mut aedb = Aedb::new(4, params());
        let mut api = FakeApi::with_neighbors(&[(0, -85.0)]);
        aedb.on_receive(1, 0, -85.0, &mut api);
        aedb.on_timer(1, 0, &mut api);
        let sent = api.transmissions.len();
        aedb.on_receive(1, 3, -85.0, &mut api);
        aedb.on_timer(1, 0, &mut api); // stale timer
        assert_eq!(api.transmissions.len(), sent, "must not forward twice");
    }

    #[test]
    fn zero_delay_interval_fires_with_zero_delay() {
        let mut p = params();
        p.min_delay = 0.0;
        p.max_delay = 0.0;
        let mut aedb = Aedb::new(2, p);
        let mut api = FakeApi::new();
        aedb.on_receive(1, 0, -85.0, &mut api);
        assert_eq!(api.timers[0].1, 0.0);
    }

    #[test]
    fn margin_increases_power() {
        let tx_with_margin = |margin: f64| {
            let mut p = params();
            p.margin_threshold = margin;
            let mut aedb = Aedb::new(3, p);
            let mut api = FakeApi::with_neighbors(&[(2, -85.0)]);
            aedb.on_receive(1, 0, -85.0, &mut api);
            aedb.on_timer(1, 0, &mut api);
            api.transmissions[0].1
        };
        assert!(tx_with_margin(3.0) > tx_with_margin(0.0));
        assert!((tx_with_margin(3.0) - tx_with_margin(0.0) - 3.0).abs() < 1e-9);
    }
}
