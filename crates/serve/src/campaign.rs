//! Campaign vocabulary: which algorithm runs, with what budget, on which
//! scenario — and the durable archive format campaign results round-trip
//! through.
//!
//! This module is the **single source of truth** for how the three
//! compared algorithms are instantiated and seeded; the bench harness
//! (`bench-harness`) delegates here, so a campaign submitted through
//! [`SimService`](crate::service::SimService) is constructed exactly like
//! the harness's sharded experiment rows and produces bit-identical
//! fronts (pinned by the service test-suite).

use aedb::scenario::Scenario;
use aedb_mls::mls::{CriteriaChoice, Mls, MlsConfig};
use island::{IslandConfig, IslandOptimizer};
use moea::cellde::{CellDe, CellDeConfig};
use moea::nsga2::{Nsga2, Nsga2Config};
use mopt::algorithm::MoAlgorithm;
use mopt::solution::Candidate;

/// The algorithms a campaign can run: the paper's three compared
/// optimisers plus the asynchronous island extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// CellDE (Durillo et al. 2008).
    CellDe,
    /// NSGA-II (Deb et al. 2002).
    Nsga2,
    /// AEDB-MLS — the paper's contribution.
    Mls,
    /// The asynchronous island optimizer (`crates/island`) — not part of
    /// the paper's comparison ([`ALL`](Self::ALL)), but campaigns running
    /// it stream a live anytime front
    /// ([`JobEvent::AnytimeFront`](crate::job::JobEvent::AnytimeFront)).
    Island,
}

impl AlgorithmKind {
    /// The paper's three compared algorithms, in Table IV's row/column
    /// order. [`Island`](Self::Island) is deliberately excluded — the
    /// experiment tables reproduce the paper's comparison; island rows are
    /// reported separately.
    pub const ALL: [AlgorithmKind; 3] = [
        AlgorithmKind::CellDe,
        AlgorithmKind::Nsga2,
        AlgorithmKind::Mls,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::CellDe => "CellDE",
            AlgorithmKind::Nsga2 => "NSGAII",
            AlgorithmKind::Mls => "AEDB-MLS",
            AlgorithmKind::Island => "Island",
        }
    }

    /// Inverse of [`name`](Self::name) (used by the archive decoder).
    pub fn from_name(name: &str) -> Option<Self> {
        AlgorithmKind::ALL
            .into_iter()
            .chain([AlgorithmKind::Island])
            .find(|k| k.name() == name)
    }
}

/// Evaluation budget of one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignBudget {
    /// Full paper scale: paper population sizes and walker topology.
    pub paper: bool,
    /// Evaluations per MOEA run (paper: 10 000); AEDB-MLS gets 2.4× this.
    pub evals: u64,
    /// Independent seeded repetitions (paper: 30).
    pub reps: usize,
}

impl CampaignBudget {
    /// A reduced budget for tests and interactive runs.
    pub fn quick(evals: u64, reps: usize) -> Self {
        Self {
            paper: false,
            evals,
            reps,
        }
    }

    /// The AEDB-MLS budget: 2.4× the MOEA budget (§VI: "it performs 2.4
    /// times more evaluations").
    pub fn mls_evals(&self) -> u64 {
        (self.evals as f64 * 2.4).round() as u64
    }
}

/// Instantiates an algorithm scaled to the campaign budget.
///
/// * MOEAs receive `budget.evals` evaluations (paper: 10 000),
/// * AEDB-MLS receives [`CampaignBudget::mls_evals`] = 2.4× that (paper:
///   24 000), split over the paper's 8 × 12 walker topology at paper
///   scale and a 2 × 2 topology otherwise,
/// * the island optimizer receives `budget.evals` like the MOEAs (the
///   equal-budget comparison the bench rows record): 8 islands at paper
///   scale, 2 quick islands otherwise.
pub fn algorithm_for(budget: &CampaignBudget, kind: AlgorithmKind) -> Box<dyn MoAlgorithm> {
    match kind {
        AlgorithmKind::Nsga2 => {
            let population = if budget.paper {
                100
            } else {
                (budget.evals / 10).clamp(8, 40) as usize
            };
            Box::new(Nsga2::new(Nsga2Config::quick(population, budget.evals)))
        }
        AlgorithmKind::CellDe => {
            let side = if budget.paper { 10 } else { 5 };
            Box::new(CellDe::new(CellDeConfig {
                grid_side: side,
                max_evaluations: budget.evals,
                ..CellDeConfig::default()
            }))
        }
        AlgorithmKind::Island => {
            let cfg = if budget.paper {
                IslandConfig {
                    islands: 8,
                    max_evaluations: budget.evals,
                    ..IslandConfig::default()
                }
            } else {
                IslandConfig::quick(2, budget.evals)
            };
            Box::new(IslandOptimizer::new(cfg))
        }
        AlgorithmKind::Mls => {
            let cfg = if budget.paper {
                MlsConfig {
                    criteria: CriteriaChoice::Aedb,
                    ..MlsConfig::paper()
                }
            } else {
                let per_thread = (budget.mls_evals() / 4).max(10);
                MlsConfig {
                    criteria: CriteriaChoice::Aedb,
                    ..MlsConfig::quick(2, 2, per_thread)
                }
            };
            Box::new(Mls::new(cfg))
        }
    }
}

/// The seed of repetition `rep` — fixed, so any schedule (the harness's
/// rayon shards, the service's sequential drain) reproduces the
/// historical sequential runs.
pub fn rep_seed(rep: usize) -> u64 {
    0xBEEF + 97 * rep as u64
}

/// A full campaign: scenario × algorithm × budget. Seeds are implied
/// ([`rep_seed`]), so two `CampaignSpec`s with equal fields denote the
/// same deterministic computation — which is what lets the archive answer
/// resubmissions.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The tuning scenario (density, fixed evaluation networks).
    pub scenario: Scenario,
    /// Which algorithm runs.
    pub algorithm: AlgorithmKind,
    /// Evaluation budget and repetition count.
    pub budget: CampaignBudget,
}

impl CampaignSpec {
    /// FNV-1a fingerprint over every field that affects the result — the
    /// archive key. The scenario is hashed through its `Debug` rendering,
    /// which recursively covers all fields (including builder-only dense
    /// group knobs that have no grammar text form). The leading version
    /// tag changes whenever an engine change alters the fronts a spec
    /// produces, so archives written before it miss instead of replaying
    /// (v2: lockstep AEDB-MLS).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(b"campaign v2|");
        h.write(format!("{:?}", self.scenario).as_bytes());
        h.write(b"|");
        h.write(self.algorithm.name().as_bytes());
        h.write(b"|");
        h.write(&(self.budget.paper as u8).to_le_bytes());
        h.write(&self.budget.evals.to_le_bytes());
        h.write(&(self.budget.reps as u64).to_le_bytes());
        h.finish()
    }
}

/// One archived repetition: its seed, evaluation count and final front.
#[derive(Debug, Clone)]
pub struct RepRun {
    /// The repetition's seed ([`rep_seed`]).
    pub seed: u64,
    /// Evaluations the run consumed.
    pub evaluations: u64,
    /// The run's Pareto front approximation.
    pub front: Vec<Candidate>,
}

/// The terminal payload of a campaign: all repetition results in
/// repetition order.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Which algorithm produced these runs.
    pub algorithm: AlgorithmKind,
    /// Per-repetition results, index = repetition.
    pub reps: Vec<RepRun>,
}

/// Bit-exact equality (f64s compared by bit pattern, so `NaN`-safe and
/// `-0.0`-strict) — the equality the replay tests pin fresh runs against.
impl PartialEq for CampaignResult {
    fn eq(&self, other: &Self) -> bool {
        self.algorithm == other.algorithm
            && self.reps.len() == other.reps.len()
            && self.reps.iter().zip(&other.reps).all(|(a, b)| {
                a.seed == b.seed
                    && a.evaluations == b.evaluations
                    && a.front.len() == b.front.len()
                    && a.front.iter().zip(&b.front).all(|(x, y)| {
                        bits_eq(&x.params, &y.params)
                            && bits_eq(&x.objectives, &y.objectives)
                            && x.violation.to_bits() == y.violation.to_bits()
                    })
            })
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

const ARCHIVE_MAGIC: &str = "aedb-campaign-archive v1";

impl CampaignResult {
    /// Serialises the result (plus the submitted spec, for humans reading
    /// the archive) into the line-oriented archive format. All floats are
    /// written as f64 **bit patterns in hex**, so a decoded replay is
    /// bit-identical to the fresh run:
    ///
    /// ```text
    /// aedb-campaign-archive v1 <fingerprint hex>
    /// algorithm <name>
    /// budget <paper 0|1> <evals> <reps>
    /// scenario <Debug rendering of the submitted Scenario>
    /// rep <seed> <evaluations> <front size>
    /// c <n params> <hex>.. <n objectives> <hex>.. <violation hex>
    /// ...
    /// end
    /// ```
    pub fn encode(&self, spec: &CampaignSpec) -> Vec<u8> {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "{ARCHIVE_MAGIC} {:016x}", spec.fingerprint()).expect("string write");
        writeln!(out, "algorithm {}", self.algorithm.name()).expect("string write");
        writeln!(
            out,
            "budget {} {} {}",
            spec.budget.paper as u8, spec.budget.evals, spec.budget.reps
        )
        .expect("string write");
        writeln!(out, "scenario {:?}", spec.scenario).expect("string write");
        for rep in &self.reps {
            writeln!(
                out,
                "rep {} {} {}",
                rep.seed,
                rep.evaluations,
                rep.front.len()
            )
            .expect("string write");
            for c in &rep.front {
                out.push('c');
                write!(out, " {}", c.params.len()).expect("string write");
                for v in &c.params {
                    write!(out, " {:016x}", v.to_bits()).expect("string write");
                }
                write!(out, " {}", c.objectives.len()).expect("string write");
                for v in &c.objectives {
                    write!(out, " {:016x}", v.to_bits()).expect("string write");
                }
                writeln!(out, " {:016x}", c.violation.to_bits()).expect("string write");
            }
        }
        out.push_str("end\n");
        out.into_bytes()
    }

    /// Decodes an archive written by [`encode`](Self::encode), verifying
    /// it against `expected_fingerprint`. Any mismatch — wrong magic,
    /// stale fingerprint, truncation, malformed line — returns `None`, so
    /// the caller falls back to recomputing (an archive can never poison
    /// a campaign, only save one).
    pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Option<CampaignResult> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.lines();
        let header = lines.next()?;
        let fp = header.strip_prefix(ARCHIVE_MAGIC)?.trim();
        if u64::from_str_radix(fp, 16).ok()? != expected_fingerprint {
            return None;
        }
        let algorithm = AlgorithmKind::from_name(lines.next()?.strip_prefix("algorithm ")?)?;
        let _budget = lines.next()?.strip_prefix("budget ")?;
        let _scenario = lines.next()?.strip_prefix("scenario ")?;
        let mut reps = Vec::new();
        loop {
            let line = lines.next()?;
            if line == "end" {
                return Some(CampaignResult { algorithm, reps });
            }
            let mut head = line.strip_prefix("rep ")?.split_ascii_whitespace();
            let seed: u64 = head.next()?.parse().ok()?;
            let evaluations: u64 = head.next()?.parse().ok()?;
            let front_len: usize = head.next()?.parse().ok()?;
            let mut front = Vec::with_capacity(front_len);
            for _ in 0..front_len {
                let mut tok = lines.next()?.strip_prefix("c ")?.split_ascii_whitespace();
                let np: usize = tok.next()?.parse().ok()?;
                let params = read_f64s(&mut tok, np)?;
                let no: usize = tok.next()?.parse().ok()?;
                let objectives = read_f64s(&mut tok, no)?;
                let violation = f64::from_bits(u64::from_str_radix(tok.next()?, 16).ok()?);
                if tok.next().is_some() {
                    return None;
                }
                front.push(Candidate::evaluated(params, objectives, violation));
            }
            reps.push(RepRun {
                seed,
                evaluations,
                front,
            });
        }
    }
}

fn read_f64s<'a>(tok: &mut impl Iterator<Item = &'a str>, n: usize) -> Option<Vec<f64>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f64::from_bits(u64::from_str_radix(tok.next()?, 16).ok()?));
    }
    Some(out)
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aedb::scenario::Density;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            scenario: Scenario::quick(Density::D100, 2),
            algorithm: AlgorithmKind::Nsga2,
            budget: CampaignBudget::quick(80, 2),
        }
    }

    fn result() -> CampaignResult {
        CampaignResult {
            algorithm: AlgorithmKind::Nsga2,
            reps: vec![RepRun {
                seed: rep_seed(0),
                evaluations: 80,
                front: vec![
                    Candidate::evaluated(vec![0.5, 1.5], vec![-0.25, 3.0], 0.0),
                    Candidate::evaluated(vec![f64::MIN_POSITIVE], vec![1.0 / 3.0], 0.5),
                ],
            }],
        }
    }

    #[test]
    fn archive_round_trips_bit_exactly() {
        let s = spec();
        let r = result();
        let bytes = r.encode(&s);
        let back = CampaignResult::decode(&bytes, s.fingerprint()).expect("decodes");
        assert_eq!(back, r);
    }

    #[test]
    fn wrong_fingerprint_rejected() {
        let s = spec();
        let bytes = result().encode(&s);
        assert!(CampaignResult::decode(&bytes, s.fingerprint() ^ 1).is_none());
    }

    #[test]
    fn truncated_archive_rejected() {
        let s = spec();
        let bytes = result().encode(&s);
        let cut = &bytes[..bytes.len() - 5]; // drop "end\n" tail
        assert!(CampaignResult::decode(cut, s.fingerprint()).is_none());
    }

    #[test]
    fn fingerprint_sensitive_to_every_field() {
        let base = spec().fingerprint();
        let mut s = spec();
        s.algorithm = AlgorithmKind::Mls;
        assert_ne!(s.fingerprint(), base);
        let mut s = spec();
        s.budget.evals += 1;
        assert_ne!(s.fingerprint(), base);
        let mut s = spec();
        s.budget.reps += 1;
        assert_ne!(s.fingerprint(), base);
        let mut s = spec();
        s.scenario = Scenario::quick(Density::D200, 2);
        assert_ne!(s.fingerprint(), base);
        assert_eq!(spec().fingerprint(), base, "fingerprint is deterministic");
    }

    #[test]
    fn fingerprint_encoding_is_pinned() {
        // Archives on disk are keyed by this value: an encoding change
        // must be deliberate (bump the version tag) and update this pin.
        assert_eq!(spec().fingerprint(), 0x24da_751f_7c14_4f6e);
    }

    #[test]
    fn algorithm_names_round_trip() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::from_name(kind.name()), Some(kind));
        }
        // Island sits outside ALL (not part of the paper's comparison)
        // but must still round-trip through the archive codec.
        assert_eq!(
            AlgorithmKind::from_name(AlgorithmKind::Island.name()),
            Some(AlgorithmKind::Island)
        );
        assert_eq!(AlgorithmKind::from_name("SPEA2"), None);
    }

    #[test]
    fn island_budget_matches_moeas_exactly() {
        use mopt::problem::test_problems::Zdt1;
        let budget = CampaignBudget::quick(120, 1);
        let alg = algorithm_for(&budget, AlgorithmKind::Island);
        let r = alg.run(&Zdt1::new(5), 3);
        assert_eq!(r.evaluations, budget.evals, "equal-budget comparison");
    }

    #[test]
    fn budget_scales_algorithms() {
        use mopt::problem::test_problems::Zdt1;
        let budget = CampaignBudget::quick(60, 1);
        for kind in AlgorithmKind::ALL {
            let alg = algorithm_for(&budget, kind);
            let r = alg.run(&Zdt1::new(5), 3);
            let cap = if kind == AlgorithmKind::Mls {
                budget.mls_evals()
            } else {
                budget.evals
            };
            assert!(
                r.evaluations <= cap + 4,
                "{}: {} evals vs budget {cap}",
                kind.name(),
                r.evaluations
            );
        }
    }
}
