//! Candidate solutions: a real-coded decision vector plus its evaluation.
//!
//! Objectives are stored in **minimisation form**: a problem that maximises
//! an objective (e.g. coverage in the AEDB tuning problem) negates it before
//! storing. The constraint is condensed into a single non-negative
//! *violation* value; `0.0` means feasible (the paper's broadcast-time
//! constraint `bt < 2 s` maps to `max(0, bt - 2)`).

use serde::{Deserialize, Serialize};

/// A candidate solution: decision variables plus (optional) evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Decision variables (the five AEDB parameters in this reproduction).
    pub params: Vec<f64>,
    /// Objective values in minimisation form; empty until evaluated.
    pub objectives: Vec<f64>,
    /// Aggregate constraint violation; `0.0` iff feasible.
    pub violation: f64,
}

impl Candidate {
    /// Creates an unevaluated candidate from a decision vector.
    pub fn new(params: Vec<f64>) -> Self {
        Self {
            params,
            objectives: Vec::new(),
            violation: 0.0,
        }
    }

    /// Creates a fully evaluated candidate.
    pub fn evaluated(params: Vec<f64>, objectives: Vec<f64>, violation: f64) -> Self {
        debug_assert!(violation >= 0.0, "violation must be non-negative");
        Self {
            params,
            objectives,
            violation,
        }
    }

    /// Whether the candidate has been evaluated.
    pub fn is_evaluated(&self) -> bool {
        !self.objectives.is_empty()
    }

    /// Whether the candidate satisfies all constraints.
    pub fn is_feasible(&self) -> bool {
        self.violation == 0.0
    }

    /// Number of objectives (0 if not evaluated).
    pub fn n_objectives(&self) -> usize {
        self.objectives.len()
    }
}

/// A set of lower/upper bounds, one pair per decision variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bounds {
    bounds: Vec<(f64, f64)>,
}

impl Bounds {
    /// Creates bounds from `(lower, upper)` pairs.
    ///
    /// # Panics
    /// Panics if any lower bound exceeds its upper bound.
    pub fn new(bounds: Vec<(f64, f64)>) -> Self {
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            assert!(lo <= hi, "bound {i} inverted: [{lo}, {hi}]");
            assert!(lo.is_finite() && hi.is_finite(), "bound {i} not finite");
        }
        Self { bounds }
    }

    /// Number of decision variables.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True when there are no variables.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Bounds of variable `i` as `(lower, upper)`.
    pub fn get(&self, i: usize) -> (f64, f64) {
        self.bounds[i]
    }

    /// The underlying slice of `(lower, upper)` pairs.
    pub fn as_slice(&self) -> &[(f64, f64)] {
        &self.bounds
    }

    /// Clamps every coordinate of `x` into its bounds, in place.
    pub fn clamp(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.bounds.len());
        for (v, &(lo, hi)) in x.iter_mut().zip(&self.bounds) {
            if !v.is_finite() {
                *v = lo;
            } else {
                *v = v.clamp(lo, hi);
            }
        }
    }

    /// Whether `x` lies within bounds (inclusive) in every coordinate.
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.bounds.len()
            && x.iter()
                .zip(&self.bounds)
                .all(|(v, &(lo, hi))| *v >= lo && *v <= hi)
    }

    /// Maps a point from the unit hypercube `[0,1]^n` into the bounds.
    pub fn from_unit(&self, u: &[f64]) -> Vec<f64> {
        debug_assert_eq!(u.len(), self.bounds.len());
        u.iter()
            .zip(&self.bounds)
            .map(|(t, &(lo, hi))| lo + t.clamp(0.0, 1.0) * (hi - lo))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_lifecycle() {
        let c = Candidate::new(vec![1.0, 2.0]);
        assert!(!c.is_evaluated());
        assert!(c.is_feasible());
        let c = Candidate::evaluated(vec![1.0, 2.0], vec![3.0, 4.0], 0.5);
        assert!(c.is_evaluated());
        assert!(!c.is_feasible());
        assert_eq!(c.n_objectives(), 2);
    }

    #[test]
    fn bounds_clamp_and_contains() {
        let b = Bounds::new(vec![(0.0, 1.0), (-5.0, 5.0)]);
        let mut x = vec![2.0, -7.0];
        b.clamp(&mut x);
        assert_eq!(x, vec![1.0, -5.0]);
        assert!(b.contains(&x));
        assert!(!b.contains(&[1.5, 0.0]));
    }

    #[test]
    fn bounds_clamp_fixes_nan() {
        let b = Bounds::new(vec![(0.0, 1.0)]);
        let mut x = vec![f64::NAN];
        b.clamp(&mut x);
        assert_eq!(x, vec![0.0]);
    }

    #[test]
    fn from_unit_maps_the_unit_cube_onto_the_bounds() {
        let b = Bounds::new(vec![(0.0, 10.0), (-1.0, 1.0)]);
        let x = b.from_unit(&[0.25, 0.75]);
        assert!((x[0] - 2.5).abs() < 1e-12);
        assert!((x[1] - 0.5).abs() < 1e-12);
        // Outside the unit cube clamps to the bounds.
        assert_eq!(b.from_unit(&[-1.0, 2.0]), vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_bounds_panic() {
        let _ = Bounds::new(vec![(1.0, 0.0)]);
    }
}
