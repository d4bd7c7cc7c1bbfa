//! Baseline dissemination protocols from the broadcast-storm literature the
//! paper builds on (§I–§II): plain flooding lives in `manet::protocol`;
//! here are the classic mitigations of Ni et al. 1999 and the fixed
//! distance-based scheme AEDB descends from. They let examples and
//! experiments position AEDB's trade-offs against its ancestors, and they
//! exercise the same simulator/protocol interfaces as AEDB itself.

use manet::protocol::{Protocol, ProtocolApi};
use manet::sim::NodeId;

/// Probabilistic broadcasting: re-broadcast the first copy with probability
/// `p` after a random jitter (Ni et al. 1999; optimised by Abdou et al.
/// 2011, cited as \[1\] in the paper).
#[derive(Debug, Clone)]
pub struct Probabilistic {
    seen: Vec<bool>,
    /// Forwarding probability `p ∈ [0, 1]`.
    pub probability: f64,
    /// Jitter interval (s) before the forwarding decision fires.
    pub jitter: (f64, f64),
}

impl Probabilistic {
    /// Creates the protocol for `n` nodes.
    pub fn new(n: usize, probability: f64, jitter: (f64, f64)) -> Self {
        assert!((0.0..=1.0).contains(&probability));
        assert!(jitter.0 >= 0.0 && jitter.1 >= jitter.0);
        Self {
            seen: vec![false; n],
            probability,
            jitter,
        }
    }
}

impl Protocol for Probabilistic {
    fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
        self.seen[node] = true;
        let p = api.node_tx_dbm(node);
        api.transmit(node, p);
    }

    fn on_receive(&mut self, node: NodeId, _from: NodeId, _rx: f64, api: &mut dyn ProtocolApi) {
        if self.seen[node] {
            return;
        }
        self.seen[node] = true;
        if api.rand() < self.probability {
            let (lo, hi) = self.jitter;
            let d = lo + api.rand() * (hi - lo).max(0.0);
            api.set_timer(node, d, 0);
        }
    }

    fn on_timer(&mut self, node: NodeId, _tag: u64, api: &mut dyn ProtocolApi) {
        let p = api.node_tx_dbm(node);
        api.transmit(node, p);
    }
}

/// Counter-based broadcasting (Ni et al. 1999): wait a random assessment
/// delay counting duplicate copies; forward only if fewer than
/// `counter_threshold` copies were overheard.
#[derive(Debug, Clone)]
pub struct CounterBased {
    state: Vec<CbState>,
    /// Maximum overheard copies before suppressing the forward.
    pub counter_threshold: u32,
    /// Assessment delay interval (s).
    pub delay: (f64, f64),
}

#[derive(Debug, Clone, Copy, Default)]
struct CbState {
    seen: bool,
    count: u32,
    decided: bool,
}

impl CounterBased {
    /// Creates the protocol for `n` nodes.
    pub fn new(n: usize, counter_threshold: u32, delay: (f64, f64)) -> Self {
        assert!(counter_threshold >= 1);
        assert!(delay.0 >= 0.0 && delay.1 >= delay.0);
        Self {
            state: vec![CbState::default(); n],
            counter_threshold,
            delay,
        }
    }
}

impl Protocol for CounterBased {
    fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
        self.state[node].seen = true;
        self.state[node].decided = true;
        let p = api.node_tx_dbm(node);
        api.transmit(node, p);
    }

    fn on_receive(&mut self, node: NodeId, _from: NodeId, _rx: f64, api: &mut dyn ProtocolApi) {
        let st = &mut self.state[node];
        st.count += 1;
        if st.seen {
            return;
        }
        st.seen = true;
        let (lo, hi) = self.delay;
        let d = lo + api.rand() * (hi - lo).max(0.0);
        api.set_timer(node, d, 0);
    }

    fn on_timer(&mut self, node: NodeId, _tag: u64, api: &mut dyn ProtocolApi) {
        let threshold = self.counter_threshold;
        let st = &mut self.state[node];
        if st.decided {
            return;
        }
        st.decided = true;
        if st.count < threshold {
            let p = api.node_tx_dbm(node);
            api.transmit(node, p);
        }
    }
}

/// Fixed distance-based broadcasting — the EDB ancestor of AEDB: forward
/// (at **full power**) only if the strongest received copy is below the
/// border threshold. AEDB adds the adaptive power reduction and the
/// density switch on top of this rule.
#[derive(Debug, Clone)]
pub struct DistanceBased {
    state: Vec<DbState>,
    /// Received-power border of the forwarding area (dBm).
    pub border_threshold: f64,
    /// Forwarding delay interval (s).
    pub delay: (f64, f64),
}

#[derive(Debug, Clone, Copy, Default)]
struct DbState {
    seen: bool,
    waiting: bool,
    done: bool,
    pmin: f64,
}

impl DistanceBased {
    /// Creates the protocol for `n` nodes.
    pub fn new(n: usize, border_threshold: f64, delay: (f64, f64)) -> Self {
        assert!(delay.0 >= 0.0 && delay.1 >= delay.0);
        Self {
            state: vec![DbState::default(); n],
            border_threshold,
            delay,
        }
    }
}

impl Protocol for DistanceBased {
    fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
        self.state[node].seen = true;
        self.state[node].done = true;
        let p = api.node_tx_dbm(node);
        api.transmit(node, p);
    }

    fn on_receive(&mut self, node: NodeId, _from: NodeId, rx: f64, api: &mut dyn ProtocolApi) {
        let border = self.border_threshold;
        let st = &mut self.state[node];
        if !st.seen {
            st.seen = true;
            st.pmin = rx;
            if rx > border {
                st.done = true;
                return;
            }
            st.waiting = true;
            let (lo, hi) = self.delay;
            let d = lo + api.rand() * (hi - lo).max(0.0);
            api.set_timer(node, d, 0);
        } else if st.waiting && rx > st.pmin {
            st.pmin = rx;
        }
    }

    fn on_timer(&mut self, node: NodeId, _tag: u64, api: &mut dyn ProtocolApi) {
        let border = self.border_threshold;
        let st = &mut self.state[node];
        if !st.waiting || st.done {
            return;
        }
        st.waiting = false;
        st.done = true;
        if st.pmin <= border {
            let p = api.node_tx_dbm(node);
            api.transmit(node, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Density, Scenario};
    use manet::sim::Simulator;

    fn run<P: Protocol>(make: impl Fn(usize) -> P, seed_offset: u64) -> manet::sim::SimReport {
        let scenario = Scenario::quick(Density::D200, 1);
        let mut world = scenario.world(0);
        world.seed += seed_offset;
        let n = world.n_nodes();
        Simulator::from_world(&world, make(n)).run()
    }

    #[test]
    fn probabilistic_zero_never_forwards() {
        let r = run(|n| Probabilistic::new(n, 0.0, (0.0, 0.1)), 0);
        assert_eq!(r.broadcast.forwardings, 0);
    }

    #[test]
    fn probabilistic_one_is_flooding() {
        let r1 = run(|n| Probabilistic::new(n, 1.0, (0.0, 0.1)), 0);
        // every covered node forwards exactly once
        assert_eq!(r1.broadcast.forwardings, r1.broadcast.coverage());
    }

    #[test]
    fn probabilistic_scales_with_p() {
        let lo = run(|n| Probabilistic::new(n, 0.2, (0.0, 0.2)), 0);
        let hi = run(|n| Probabilistic::new(n, 0.9, (0.0, 0.2)), 0);
        assert!(hi.broadcast.forwardings >= lo.broadcast.forwardings);
    }

    #[test]
    fn counter_based_suppresses_in_dense_network() {
        let flood = run(|n| CounterBased::new(n, u32::MAX, (0.0, 0.3)), 0);
        let cb = run(|n| CounterBased::new(n, 3, (0.0, 0.3)), 0);
        assert!(
            cb.broadcast.forwardings < flood.broadcast.forwardings,
            "{} vs {}",
            cb.broadcast.forwardings,
            flood.broadcast.forwardings
        );
        // suppression should not destroy coverage in a dense network
        assert!(cb.broadcast.coverage() as f64 >= 0.5 * flood.broadcast.coverage() as f64);
    }

    #[test]
    fn distance_based_restrictive_border_forwards_less() {
        let permissive = run(|n| DistanceBased::new(n, -72.0, (0.0, 0.3)), 0);
        let restrictive = run(|n| DistanceBased::new(n, -93.0, (0.0, 0.3)), 0);
        assert!(restrictive.broadcast.forwardings <= permissive.broadcast.forwardings);
    }

    #[test]
    fn distance_based_always_full_power() {
        let r = run(|n| DistanceBased::new(n, -80.0, (0.0, 0.3)), 0);
        let f = r.broadcast.forwardings as f64;
        assert!((r.broadcast.energy_dbm_sum - f * 16.02).abs() < 1e-6);
    }

    #[test]
    fn aedb_uses_less_energy_than_its_ancestor() {
        // AEDB = distance-based + adaptive power: same border, less energy.
        use crate::params::AedbParams;
        use crate::protocol::Aedb;
        let border = -80.0;
        let db = run(|n| DistanceBased::new(n, border, (0.0, 0.4)), 0);
        let aedb = run(
            |n| {
                Aedb::new(
                    n,
                    AedbParams {
                        min_delay: 0.0,
                        max_delay: 0.4,
                        border_threshold: border,
                        margin_threshold: 1.0,
                        neighbors_threshold: 50.0,
                    },
                )
            },
            0,
        );
        if aedb.broadcast.forwardings > 0 && db.broadcast.forwardings > 0 {
            let per_fwd_aedb = aedb.broadcast.energy_dbm_sum / aedb.broadcast.forwardings as f64;
            let per_fwd_db = db.broadcast.energy_dbm_sum / db.broadcast.forwardings as f64;
            assert!(
                per_fwd_aedb < per_fwd_db,
                "AEDB per-forwarding energy {per_fwd_aedb} should undercut EDB {per_fwd_db}"
            );
        }
    }
}
