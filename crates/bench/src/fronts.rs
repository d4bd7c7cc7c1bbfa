//! Front assembly and indicator computation, following §VI's protocol:
//!
//! * the per-algorithm front is the AGA-merged non-dominated set over all
//!   independent runs,
//! * the **Reference** front merges the two MOEAs' results,
//! * before computing indicators all fronts are normalised with a combined
//!   approximation of the true front built from *all three* algorithms.

use mopt::algorithm::RunResult;
use mopt::archive::{AgaArchive, ARCHIVE_BISECTIONS};
use mopt::indicators::{
    generalized_spread, hypervolume, inverted_generational_distance, Normalizer,
};
use mopt::solution::Candidate;

/// Merges many runs' fronts through an AGA archive (capacity as the paper's
/// elite archives: 100), returning the combined non-dominated set.
pub fn merge_fronts(runs: &[RunResult], capacity: usize) -> Vec<Candidate> {
    let mut archive = AgaArchive::new(capacity.max(1), ARCHIVE_BISECTIONS);
    for r in runs {
        for c in &r.front {
            archive.try_insert(c.clone());
        }
    }
    archive.into_members()
}

/// Merges plain candidate sets (used to build the all-algorithms
/// normalisation front).
pub fn merge_candidate_sets(sets: &[&[Candidate]], capacity: usize) -> Vec<Candidate> {
    let mut archive = AgaArchive::new(capacity.max(1), ARCHIVE_BISECTIONS);
    for set in sets {
        for c in *set {
            archive.try_insert(c.clone());
        }
    }
    archive.into_members()
}

/// The three indicators of Table IV / Figure 7 for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontMetrics {
    /// Generalised spread Δ (smaller = better distributed).
    pub spread: f64,
    /// Inverted generational distance (smaller = more accurate).
    pub igd: f64,
    /// Hypervolume of the normalised front (larger = better).
    pub hv: f64,
}

/// Computes the indicators of a front against a reference front, both
/// normalised by the reference (the paper's protocol). The hypervolume
/// reference point is (1.1, …) in normalised space, jMetal-style.
pub fn front_metrics(front: &[Vec<f64>], reference: &[Vec<f64>]) -> FrontMetrics {
    let Some(norm) = Normalizer::from_points(reference) else {
        return FrontMetrics {
            spread: f64::INFINITY,
            igd: f64::INFINITY,
            hv: 0.0,
        };
    };
    let nf = norm.apply_front(front);
    let nr = norm.apply_front(reference);
    let m = reference.first().map(|p| p.len()).unwrap_or(0);
    let ref_point = vec![1.1; m];
    FrontMetrics {
        spread: generalized_spread(&nf, &nr),
        igd: inverted_generational_distance(&nf, &nr),
        hv: hypervolume(&nf, &ref_point),
    }
}

/// Objective vectors of a candidate set.
pub fn objectives_of(set: &[Candidate]) -> Vec<Vec<f64>> {
    set.iter().map(|c| c.objectives.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn run_with(objs: &[[f64; 2]]) -> RunResult {
        RunResult {
            front: objs
                .iter()
                .map(|o| Candidate::evaluated(vec![], o.to_vec(), 0.0))
                .collect(),
            evaluations: objs.len() as u64,
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn merge_keeps_only_nondominated() {
        let a = run_with(&[[1.0, 3.0], [3.0, 1.0]]);
        let b = run_with(&[[2.0, 2.0], [4.0, 4.0]]);
        let merged = merge_fronts(&[a, b], 100);
        assert_eq!(merged.len(), 3); // (4,4) dominated by (2,2)
    }

    #[test]
    fn merge_respects_capacity() {
        let runs: Vec<RunResult> = (0..5)
            .map(|k| {
                run_with(&[
                    [k as f64, 10.0 - k as f64],
                    [k as f64 + 0.5, 9.5 - k as f64],
                ])
            })
            .collect();
        let merged = merge_fronts(&runs, 4);
        assert!(merged.len() <= 4);
    }

    #[test]
    fn metrics_perfect_front() {
        let reference: Vec<Vec<f64>> = (0..=10)
            .map(|i| vec![i as f64 / 10.0, 1.0 - i as f64 / 10.0])
            .collect();
        let m = front_metrics(&reference, &reference);
        assert!(m.igd < 1e-12);
        assert!(m.spread < 0.3, "spread {}", m.spread);
        assert!(m.hv > 0.5);
    }

    #[test]
    fn worse_front_scores_worse() {
        let reference: Vec<Vec<f64>> = (0..=10)
            .map(|i| vec![i as f64 / 10.0, 1.0 - i as f64 / 10.0])
            .collect();
        let shifted: Vec<Vec<f64>> = reference
            .iter()
            .map(|p| vec![p[0] + 0.3, p[1] + 0.3])
            .collect();
        let good = front_metrics(&reference, &reference);
        let bad = front_metrics(&shifted, &reference);
        assert!(bad.igd > good.igd);
        assert!(bad.hv < good.hv);
    }

    #[test]
    fn empty_reference_degenerates_gracefully() {
        let m = front_metrics(&[vec![0.0, 0.0]], &[]);
        assert!(m.igd.is_infinite());
        assert_eq!(m.hv, 0.0);
    }
}
