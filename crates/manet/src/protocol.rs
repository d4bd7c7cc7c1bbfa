//! The protocol trait broadcast algorithms implement, and a flooding
//! baseline.
//!
//! The simulator drives a [`Protocol`] through three callbacks: the start
//! of a dissemination at the source, every successful reception of the
//! broadcast frame (including duplicates — AEDB updates its `pmin` state
//! from them), and timer expirations (AEDB's random-delay wait). The
//! [`ProtocolApi`] passed to each callback exposes exactly the facilities a
//! real cross-layer implementation would have: the clock, one-shot timers,
//! transmission at a chosen power, the beacon-derived neighbour table and
//! the radio constants.

use crate::neighbor::NeighborEntry;
use crate::sim::NodeId;

/// Simulator services available to protocol callbacks.
pub trait ProtocolApi {
    /// Current simulation time (s).
    fn now(&self) -> f64;

    /// Schedules [`Protocol::on_timer`] for `node` after `delay` seconds
    /// with an opaque `tag`.
    fn set_timer(&mut self, node: NodeId, delay: f64, tag: u64);

    /// Transmits the broadcast message from `node` at `tx_dbm`. The frame
    /// is delivered (subject to propagation and collisions) to every node
    /// in range after the configured data-frame duration.
    fn transmit(&mut self, node: NodeId, tx_dbm: f64);

    /// The live one-hop neighbour table of `node` (beacon-derived,
    /// age-filtered), sorted by node id. Allocates per call; protocol hot
    /// paths should prefer [`neighbors_into`](Self::neighbors_into) with a
    /// reused scratch buffer.
    ///
    /// A read takes `&mut self`: under
    /// [`Simulator::settle`](crate::sim::Simulator::settle) the simulator
    /// resolves the reader's beacon receptions only when its table is
    /// read.
    fn neighbors(&mut self, node: NodeId) -> Vec<NeighborEntry>;

    /// Fills `out` with the live one-hop neighbour table of `node` (same
    /// contents and id-sorted order as [`neighbors`](Self::neighbors)),
    /// clearing it first and reusing its capacity. The simulator overrides
    /// this to run allocation-free; the default delegates to `neighbors`
    /// so scripted test harnesses need not implement both.
    fn neighbors_into(&mut self, node: NodeId, out: &mut Vec<NeighborEntry>) {
        out.clear();
        out.extend(self.neighbors(node));
    }

    /// Default (maximum) transmit power in dBm — Table II: 16.02.
    fn default_tx_dbm(&self) -> f64;

    /// The transmit-power class of `node` in dBm: what its beacons go out
    /// at, and the natural full-power choice for its data frames. Equal to
    /// [`default_tx_dbm`](Self::default_tx_dbm) in homogeneous worlds; in
    /// heterogeneous [`WorldSpec`](crate::world::WorldSpec)s it is the
    /// node's group override. The default implementation returns the
    /// shared default so scripted test harnesses need not implement both.
    fn node_tx_dbm(&self, node: NodeId) -> f64 {
        let _ = node;
        self.default_tx_dbm()
    }

    /// Receiver sensitivity in dBm (minimum decodable power).
    fn rx_sensitivity_dbm(&self) -> f64;

    /// Uniform random number in `[0, 1)` from the simulation RNG.
    fn rand(&mut self) -> f64;
}

/// A broadcast dissemination protocol under test.
pub trait Protocol {
    /// The dissemination starts: `node` is the source and should transmit.
    fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi);

    /// `node` successfully received the broadcast frame from `from` at
    /// `rx_dbm` (called for duplicates too).
    fn on_receive(&mut self, node: NodeId, from: NodeId, rx_dbm: f64, api: &mut dyn ProtocolApi);

    /// A timer set through [`ProtocolApi::set_timer`] fired.
    fn on_timer(&mut self, node: NodeId, tag: u64, api: &mut dyn ProtocolApi);
}

/// Blind flooding: every node re-broadcasts the first copy it receives at
/// its full power class ([`ProtocolApi::node_tx_dbm`]). The classic
/// broadcast-storm baseline (Ni et al. 1999) — useful as a sanity
/// reference in examples and tests.
#[derive(Debug, Clone)]
pub struct Flooding {
    seen: Vec<bool>,
    /// Optional fixed forwarding jitter drawn uniformly from this interval
    /// (s); `(0.0, 0.0)` re-broadcasts immediately.
    pub jitter: (f64, f64),
}

impl Flooding {
    /// Creates a flooding protocol for `n` nodes with the given jitter
    /// interval.
    pub fn new(n: usize, jitter: (f64, f64)) -> Self {
        assert!(jitter.0 >= 0.0 && jitter.1 >= jitter.0);
        Self {
            seen: vec![false; n],
            jitter,
        }
    }
}

impl Protocol for Flooding {
    fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
        self.seen[node] = true;
        let p = api.node_tx_dbm(node);
        api.transmit(node, p);
    }

    fn on_receive(&mut self, node: NodeId, _from: NodeId, _rx_dbm: f64, api: &mut dyn ProtocolApi) {
        if self.seen[node] {
            return;
        }
        self.seen[node] = true;
        let (lo, hi) = self.jitter;
        let delay = if hi > lo {
            lo + api.rand() * (hi - lo)
        } else {
            lo
        };
        if delay > 0.0 {
            api.set_timer(node, delay, 0);
        } else {
            let p = api.node_tx_dbm(node);
            api.transmit(node, p);
        }
    }

    fn on_timer(&mut self, node: NodeId, _tag: u64, api: &mut dyn ProtocolApi) {
        let p = api.node_tx_dbm(node);
        api.transmit(node, p);
    }
}

/// A protocol that does nothing after the source send — the "no forwarding"
/// lower bound on coverage; used by tests.
#[derive(Debug, Clone, Default)]
pub struct SourceOnly;

impl Protocol for SourceOnly {
    fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
        let p = api.node_tx_dbm(node);
        api.transmit(node, p);
    }
    fn on_receive(&mut self, _: NodeId, _: NodeId, _: f64, _: &mut dyn ProtocolApi) {}
    fn on_timer(&mut self, _: NodeId, _: u64, _: &mut dyn ProtocolApi) {}
}
