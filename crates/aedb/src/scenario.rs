//! Evaluation scenarios — Table II of the paper.
//!
//! Three network densities (100, 200, 300 devices/km²) on a 500 m × 500 m
//! field give 25, 50 and 75 devices respectively (the coverage axes of the
//! paper's Figure 6 — up to 25/50/80 — confirm that reading). Each density
//! is evaluated on **10 fixed networks**: the same 10 seeds for every
//! candidate configuration.

use manet::world::WorldSpec;
use serde::{Deserialize, Serialize};

// The dense-scenario spec (and the scenario text grammar it shares with
// every CLI) lives beside the `WorldSpec` API it compiles into; re-exported
// here because the tuning problem and the bench harness historically
// address it as `aedb::scenario::DenseScenario`.
pub use manet::world::{DenseScenario, NodeGroup, SpecError};

/// The three densities studied in the paper (devices per km²).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Density {
    /// 100 devices/km² → 25 nodes on the 0.25 km² field.
    D100,
    /// 200 devices/km² → 50 nodes.
    D200,
    /// 300 devices/km² → 75 nodes.
    D300,
}

impl Density {
    /// All densities, sparsest first (the order of the paper's tables).
    pub const ALL: [Density; 3] = [Density::D100, Density::D200, Density::D300];

    /// Devices per square kilometre.
    pub fn per_km2(self) -> u32 {
        match self {
            Density::D100 => 100,
            Density::D200 => 200,
            Density::D300 => 300,
        }
    }

    /// Node count on the paper's 500 m × 500 m field.
    pub fn n_nodes(self) -> usize {
        (self.per_km2() as usize) / 4
    }

    /// Parses `100 | 200 | 300`.
    pub fn from_per_km2(d: u32) -> Option<Self> {
        match d {
            100 => Some(Density::D100),
            200 => Some(Density::D200),
            300 => Some(Density::D300),
            _ => None,
        }
    }

    /// The paper density closest to an arbitrary `per_km2` (used to label
    /// beyond-paper dense scenarios in the experiment tables).
    pub fn nearest(per_km2: u32) -> Self {
        *Density::ALL
            .iter()
            .min_by_key(|d| d.per_km2().abs_diff(per_km2))
            .expect("ALL is non-empty")
    }
}

impl std::fmt::Display for Density {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} dev/km²", self.per_km2())
    }
}

/// A full evaluation scenario: density plus the fixed network seeds, with
/// an optional beyond-paper [`DenseScenario`] override so the tuning
/// problem itself can be posed at 10⁴-node scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Network density (for dense scenarios: the nearest paper density,
    /// used for table labels).
    pub density: Density,
    /// Number of fixed networks the fitness is averaged over (paper: 10).
    pub n_networks: usize,
    /// Base seed; network `k` uses seed `base_seed + k`.
    pub base_seed: u64,
    /// When set, networks are generated from this dense scenario (scaled
    /// field, explicit node count, optional shadowing) instead of the
    /// paper's 500 m field.
    pub dense: Option<DenseScenario>,
}

impl Scenario {
    /// The paper's scenario for a density: 10 fixed networks.
    pub fn paper(density: Density) -> Self {
        Self {
            density,
            n_networks: 10,
            base_seed: 1000 * density.per_km2() as u64,
            dense: None,
        }
    }

    /// A reduced scenario (fewer networks) for tests and quick runs.
    pub fn quick(density: Density, n_networks: usize) -> Self {
        Self {
            density,
            n_networks,
            base_seed: 1000 * density.per_km2() as u64,
            dense: None,
        }
    }

    /// A beyond-paper scenario: the tuning problem posed over `n_networks`
    /// fixed networks of a [`DenseScenario`] (hundreds to 10⁴ nodes).
    pub fn dense(dense: DenseScenario, n_networks: usize) -> Self {
        Self {
            density: Density::nearest(dense.per_km2),
            n_networks,
            base_seed: dense.base_seed,
            dense: Some(dense),
        }
    }

    /// Human-readable label (density, or the dense spec when present).
    pub fn label(&self) -> String {
        match &self.dense {
            Some(d) => d.to_string(),
            None => self.density.to_string(),
        }
    }

    /// The seed of evaluation network `k` (`k < n_networks`).
    pub fn network_seed(&self, k: usize) -> u64 {
        debug_assert!(k < self.n_networks);
        self.base_seed + k as u64
    }

    /// Compiles evaluation network `k` into a [`WorldSpec`] — the single
    /// path every evaluation takes into the simulator
    /// (`Simulator::from_world`): Table II verbatim
    /// ([`WorldSpec::paper`]), or the dense override's
    /// [`world_spec`](DenseScenario::world_spec) when one is set, on
    /// network seed [`network_seed(k)`](Self::network_seed).
    pub fn world(&self, k: usize) -> WorldSpec {
        let mut w = match &self.dense {
            Some(d) => d.world_spec(0),
            None => WorldSpec::paper(self.density.n_nodes(), 0),
        };
        w.seed = self.network_seed(k);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn densities_map_to_node_counts() {
        assert_eq!(Density::D100.n_nodes(), 25);
        assert_eq!(Density::D200.n_nodes(), 50);
        assert_eq!(Density::D300.n_nodes(), 75);
    }

    #[test]
    fn parse_round_trip() {
        for d in Density::ALL {
            assert_eq!(Density::from_per_km2(d.per_km2()), Some(d));
        }
        assert_eq!(Density::from_per_km2(42), None);
    }

    #[test]
    fn paper_scenario_matches_table_ii() {
        // Table II itself is pinned on `WorldSpec::paper`; every paper
        // scenario's network is exactly that world on its fixed seed.
        for d in Density::ALL {
            let s = Scenario::paper(d);
            assert_eq!(s.n_networks, 10);
            for k in 0..s.n_networks {
                assert_eq!(s.world(k), WorldSpec::paper(d.n_nodes(), s.network_seed(k)));
            }
        }
    }

    #[test]
    fn homogeneous_dense_worlds_differ_from_paper_only_in_field_and_shadowing() {
        let d = DenseScenario::new(200, 500)
            .with_shadowing(4.0)
            .expect("valid sigma");
        let w = d.world_spec(3);
        let mut paper = WorldSpec::paper(500, d.base_seed + 3);
        assert_ne!(w, paper);
        paper.field = d.field();
        paper.radio.shadowing_sigma_db = 4.0;
        assert_eq!(w, paper);
    }

    #[test]
    fn network_seeds_are_fixed_and_distinct() {
        let s = Scenario::paper(Density::D100);
        let seeds: Vec<u64> = (0..10).map(|k| s.network_seed(k)).collect();
        let again: Vec<u64> = (0..10).map(|k| s.network_seed(k)).collect();
        assert_eq!(seeds, again);
        let mut dedup = seeds.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        // different densities use different networks
        let s2 = Scenario::paper(Density::D300);
        assert_ne!(s.network_seed(0), s2.network_seed(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Density::D100.to_string(), "100 dev/km²");
        assert_eq!(
            DenseScenario::new(200, 500).to_string(),
            "500 nodes @ 200 dev/km²"
        );
        assert_eq!(
            DenseScenario::new(200, 1000)
                .with_shadowing(4.0)
                .expect("valid sigma")
                .to_string(),
            "1000 nodes @ 200 dev/km² (σ=4 dB)"
        );
    }

    #[test]
    fn nearest_density_labels_dense_scenarios() {
        assert_eq!(Density::nearest(150), Density::D100);
        assert_eq!(Density::nearest(250), Density::D200);
        assert_eq!(Density::nearest(400), Density::D300);
    }

    #[test]
    fn dense_scenario_posed_as_tuning_problem() {
        let d = DenseScenario::new(200, 500)
            .with_shadowing(4.0)
            .expect("valid sigma");
        let s = Scenario::dense(d.clone(), 4);
        assert_eq!(s.n_networks, 4);
        assert_eq!(s.label(), d.to_string());
        let c = s.world(2);
        assert_eq!(c.n_nodes(), 500);
        assert_eq!(c.seed, d.base_seed + 2);
        assert_eq!(c.radio.shadowing_sigma_db, 4.0);
        // scaled field holds the density, physical setup stays Table II
        assert!((c.field.area() - 2.5e6).abs() < 1.0);
        assert_eq!(c.radio.default_tx_dbm, 16.02);
        assert_eq!(c.broadcast_time, 30.0);
        // distinct fixed networks
        assert_ne!(s.world(0).seed, s.world(1).seed);
    }

    #[test]
    fn xl_presets_reach_ten_thousand_nodes() {
        assert!(DenseScenario::XL_PRESETS
            .iter()
            .any(|d| d.n_nodes >= 10_000));
        for d in DenseScenario::SHADOWED_PRESETS {
            assert!(d.shadowing_sigma_db > 0.0);
            assert_eq!(d.per_km2, 200, "shadowed presets pin the 200/km² claim");
        }
    }
}
