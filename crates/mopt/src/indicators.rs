//! Quality indicators for Pareto front approximations: hypervolume,
//! generational distance (GD), inverted generational distance (IGD) and
//! generalised spread Δ*, plus the front normalisation the
//! paper applies before computing them ("all fronts were normalised
//! because these indicators are not free from arbitrary scaling").
//!
//! All indicators assume **minimisation-form** objective vectors.

/// Min–max normaliser built from a reference set of points (the paper uses
/// the combined best front of all compared algorithms).
#[derive(Debug, Clone)]
pub struct Normalizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl Normalizer {
    /// Builds the normaliser from the per-objective extrema of `points`.
    ///
    /// Returns `None` when `points` is empty.
    pub fn from_points(points: &[Vec<f64>]) -> Option<Self> {
        let first = points.first()?;
        let m = first.len();
        let mut mins = vec![f64::INFINITY; m];
        let mut maxs = vec![f64::NEG_INFINITY; m];
        for p in points {
            debug_assert_eq!(p.len(), m);
            for d in 0..m {
                mins[d] = mins[d].min(p[d]);
                maxs[d] = maxs[d].max(p[d]);
            }
        }
        Some(Self { mins, maxs })
    }

    /// Normalises one point into (roughly) `[0,1]^m`; degenerate axes map
    /// to `0`. Points outside the reference ranges may exceed `[0,1]`.
    pub fn apply(&self, p: &[f64]) -> Vec<f64> {
        p.iter()
            .enumerate()
            .map(|(d, &v)| {
                let span = self.maxs[d] - self.mins[d];
                if span > 0.0 {
                    (v - self.mins[d]) / span
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Normalises a whole front.
    pub fn apply_front(&self, front: &[Vec<f64>]) -> Vec<Vec<f64>> {
        front.iter().map(|p| self.apply(p)).collect()
    }

    /// Per-objective minima of the reference set.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per-objective maxima of the reference set.
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

fn min_dist_to_set(p: &[f64], set: &[Vec<f64>]) -> f64 {
    set.iter()
        .map(|q| euclid(p, q))
        .fold(f64::INFINITY, f64::min)
}

/// Generational distance: `sqrt(Σ dᵢ²)/n` where `dᵢ` is the distance from
/// the `i`-th point of `front` to the closest point of `reference`
/// (Van Veldhuizen 1999 — the formula printed as Eq. 3 in the paper).
pub fn generational_distance(front: &[Vec<f64>], reference: &[Vec<f64>]) -> f64 {
    if front.is_empty() || reference.is_empty() {
        return f64::INFINITY;
    }
    let sum: f64 = front
        .iter()
        .map(|p| min_dist_to_set(p, reference).powi(2))
        .sum();
    sum.sqrt() / front.len() as f64
}

/// Inverted generational distance: the same formula with the roles of the
/// fronts exchanged — the mean (quadratic) distance from each reference
/// point to the closest point of the approximation. Smaller is better;
/// `0` when every reference point is matched exactly.
pub fn inverted_generational_distance(front: &[Vec<f64>], reference: &[Vec<f64>]) -> f64 {
    generational_distance(reference, front)
}

/// Generalised spread Δ* (Zhou et al. 2006, as in jMetal's
/// `GeneralizedSpread`) for fronts with any number of objectives — the
/// paper's three-objective spread values are computed with this estimator.
/// Consecutive distances are replaced by nearest-neighbour distances and
/// the extreme terms sum over the reference extremes of every objective.
pub fn generalized_spread(front: &[Vec<f64>], reference: &[Vec<f64>]) -> f64 {
    if front.is_empty() || reference.is_empty() {
        return f64::INFINITY;
    }
    let m = reference[0].len();
    // Extreme point of the reference front for each objective.
    let extremes: Vec<&Vec<f64>> = (0..m)
        .map(|d| {
            reference
                .iter()
                .min_by(|a, b| a[d].total_cmp(&b[d]))
                .unwrap()
        })
        .collect();
    let ext_term: f64 = extremes.iter().map(|e| min_dist_to_set(e, front)).sum();
    if front.len() == 1 {
        return 1.0;
    }
    // Nearest-neighbour distance of each front point within the front.
    let nn: Vec<f64> = (0..front.len())
        .map(|i| {
            front
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, q)| euclid(&front[i], q))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let dbar = nn.iter().sum::<f64>() / nn.len() as f64;
    let dev: f64 = nn.iter().map(|d| (d - dbar).abs()).sum();
    let denom = ext_term + front.len() as f64 * dbar;
    if denom <= 0.0 {
        return 0.0;
    }
    (ext_term + dev) / denom
}

/// Exact hypervolume dominated by `front` with respect to `reference_point`
/// (all objectives minimised; points not strictly better than the reference
/// point in every coordinate contribute nothing). Exact for 1–3 objectives;
/// higher dimensions use a deterministic quasi-Monte-Carlo estimate.
///
/// # Example
/// ```
/// use mopt::indicators::hypervolume;
/// let front = vec![vec![0.0, 0.5], vec![0.5, 0.0]];
/// let hv = hypervolume(&front, &[1.0, 1.0]);
/// assert!((hv - 0.75).abs() < 1e-12);
/// ```
pub fn hypervolume(front: &[Vec<f64>], reference_point: &[f64]) -> f64 {
    let m = reference_point.len();
    let pts: Vec<Vec<f64>> = front
        .iter()
        .filter(|p| p.iter().zip(reference_point).all(|(a, r)| a < r))
        .cloned()
        .collect();
    if pts.is_empty() {
        return 0.0;
    }
    match m {
        1 => {
            let best = pts.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
            reference_point[0] - best
        }
        2 => hv2d(&pts, reference_point),
        3 => hv3d(&pts, reference_point),
        _ => hv_qmc(&pts, reference_point),
    }
}

/// 2-D hypervolume by a single sweep over points sorted by `f0`.
fn hv2d(pts: &[Vec<f64>], r: &[f64]) -> f64 {
    let mut sorted = pts.to_vec();
    sorted.sort_by(|a, b| a[0].total_cmp(&b[0]));
    let mut hv = 0.0;
    let mut prev_f1 = r[1];
    for p in &sorted {
        if p[1] < prev_f1 {
            hv += (r[0] - p[0]) * (prev_f1 - p[1]);
            prev_f1 = p[1];
        }
    }
    hv
}

/// 3-D hypervolume by sweeping `f2` slabs; each slab multiplies its height
/// by the 2-D hypervolume of the points already seen. O(n² log n).
fn hv3d(pts: &[Vec<f64>], r: &[f64]) -> f64 {
    let mut sorted = pts.to_vec();
    sorted.sort_by(|a, b| a[2].total_cmp(&b[2]));
    let r2 = [r[0], r[1]];
    let mut hv = 0.0;
    let mut active: Vec<Vec<f64>> = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let z = sorted[i][2];
        // absorb all points at this z level
        while i < sorted.len() && sorted[i][2] == z {
            active.push(vec![sorted[i][0], sorted[i][1]]);
            i += 1;
        }
        let z_next = if i < sorted.len() { sorted[i][2] } else { r[2] };
        let area = hv2d(&active, &r2);
        hv += area * (z_next - z);
    }
    hv
}

/// Deterministic quasi-Monte-Carlo hypervolume estimate for m > 3 using a
/// Halton sequence inside the reference box spanned by the ideal point.
fn hv_qmc(pts: &[Vec<f64>], r: &[f64]) -> f64 {
    let m = r.len();
    let ideal: Vec<f64> = (0..m)
        .map(|d| pts.iter().map(|p| p[d]).fold(f64::INFINITY, f64::min))
        .collect();
    let vol: f64 = (0..m).map(|d| r[d] - ideal[d]).product();
    if vol <= 0.0 {
        return 0.0;
    }
    const N: usize = 32_768;
    const PRIMES: [u64; 8] = [2, 3, 5, 7, 11, 13, 17, 19];
    let mut hits = 0usize;
    let mut sample = vec![0.0f64; m];
    for i in 0..N {
        for (d, s) in sample.iter_mut().enumerate() {
            let u = halton(i as u64 + 1, PRIMES[d % PRIMES.len()]);
            *s = ideal[d] + u * (r[d] - ideal[d]);
        }
        if pts
            .iter()
            .any(|p| p.iter().zip(&sample).all(|(a, s)| a <= s))
        {
            hits += 1;
        }
    }
    vol * hits as f64 / N as f64
}

fn halton(mut i: u64, base: u64) -> f64 {
    let mut f = 1.0;
    let mut r = 0.0;
    while i > 0 {
        f /= base as f64;
        r += f * (i % base) as f64;
        i /= base;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizer_maps_extrema_to_unit() {
        let pts = vec![vec![0.0, 10.0], vec![5.0, 20.0]];
        let n = Normalizer::from_points(&pts).unwrap();
        assert_eq!(n.apply(&[0.0, 10.0]), vec![0.0, 0.0]);
        assert_eq!(n.apply(&[5.0, 20.0]), vec![1.0, 1.0]);
        assert_eq!(n.apply(&[2.5, 15.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn normalizer_empty_none() {
        assert!(Normalizer::from_points(&[]).is_none());
    }

    #[test]
    fn gd_zero_when_subset() {
        let reference = vec![vec![0.0, 1.0], vec![0.5, 0.5], vec![1.0, 0.0]];
        let front = vec![vec![0.5, 0.5]];
        assert_eq!(generational_distance(&front, &reference), 0.0);
        // IGD is nonzero: two reference points are unmatched.
        assert!(inverted_generational_distance(&front, &reference) > 0.0);
    }

    #[test]
    fn igd_zero_when_reference_covered() {
        let reference = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let front = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.5, 0.5]];
        assert_eq!(inverted_generational_distance(&front, &reference), 0.0);
    }

    #[test]
    fn gd_known_value() {
        let reference = vec![vec![0.0, 0.0]];
        let front = vec![vec![3.0, 4.0]]; // distance 5
        assert!((generational_distance(&front, &reference) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn hv_2d_rectangles() {
        // single point: rectangle to the reference point
        let hv = hypervolume(&[vec![0.25, 0.25]], &[1.0, 1.0]);
        assert!((hv - 0.5625).abs() < 1e-12);
        // two staircase points
        let hv = hypervolume(&[vec![0.0, 0.5], vec![0.5, 0.0]], &[1.0, 1.0]);
        assert!((hv - 0.75).abs() < 1e-12);
    }

    #[test]
    fn hv_ignores_points_outside_reference() {
        let hv = hypervolume(&[vec![2.0, 2.0]], &[1.0, 1.0]);
        assert_eq!(hv, 0.0);
        let hv = hypervolume(&[vec![0.5, 0.5], vec![5.0, -5.0]], &[1.0, 1.0]);
        assert!((hv - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hv_3d_single_box() {
        let hv = hypervolume(&[vec![0.0, 0.0, 0.0]], &[1.0, 2.0, 3.0]);
        assert!((hv - 6.0).abs() < 1e-12);
    }

    #[test]
    fn hv_3d_two_disjointish_boxes() {
        // box A: (0,0,0)->(1,1,1) vol 1; box B: (0.5,0.5,0.5)->ref, inside union
        let r = [1.0, 1.0, 1.0];
        let hv = hypervolume(&[vec![0.0, 0.5, 0.0], vec![0.5, 0.0, 0.5]], &r);
        // A = 1*0.5*1 = 0.5 ; B = 0.5*1*0.5 = 0.25 ; overlap = 0.5*0.5*0.5=0.125
        assert!((hv - 0.625).abs() < 1e-12, "hv = {hv}");
    }

    #[test]
    fn hv_3d_matches_2d_extrusion() {
        // Extruding a 2-D staircase along f2=0 with ref f2=1 must equal 2-D HV.
        let front2 = vec![vec![0.0, 0.5], vec![0.5, 0.0]];
        let hv2 = hypervolume(&front2, &[1.0, 1.0]);
        let front3: Vec<Vec<f64>> = front2.iter().map(|p| vec![p[0], p[1], 0.0]).collect();
        let hv3 = hypervolume(&front3, &[1.0, 1.0, 1.0]);
        assert!((hv3 - hv2).abs() < 1e-12);
    }

    #[test]
    fn hv_monotone_in_front_quality() {
        let r = [1.0, 1.0, 1.0];
        let worse = hypervolume(&[vec![0.5, 0.5, 0.5]], &r);
        let better = hypervolume(&[vec![0.25, 0.25, 0.25]], &r);
        assert!(better > worse);
        // adding a point never reduces hv
        let more = hypervolume(&[vec![0.5, 0.5, 0.5], vec![0.1, 0.9, 0.9]], &r);
        assert!(more >= worse - 1e-12);
    }

    #[test]
    fn hv_qmc_close_to_exact_for_4d_box() {
        // one point at origin, ref at (1,1,1,1): exact HV = 1
        let hv = hypervolume(&[vec![0.0; 4]], &[1.0; 4]);
        assert!((hv - 1.0).abs() < 0.02, "qmc hv = {hv}");
    }

    #[test]
    fn generalized_spread_prefers_even_fronts() {
        let reference: Vec<Vec<f64>> = (0..=10)
            .map(|i| {
                let t = i as f64 / 10.0;
                vec![t, 1.0 - t, 0.5]
            })
            .collect();
        let even = reference.clone();
        let clumped: Vec<Vec<f64>> = vec![
            vec![0.0, 1.0, 0.5],
            vec![0.02, 0.98, 0.5],
            vec![0.04, 0.96, 0.5],
            vec![1.0, 0.0, 0.5],
        ];
        let s_e = generalized_spread(&even, &reference);
        let s_c = generalized_spread(&clumped, &reference);
        assert!(s_e < s_c, "even {s_e} vs clumped {s_c}");
    }

    #[test]
    fn hv_duplicate_points_counted_once() {
        let hv1 = hypervolume(&[vec![0.5, 0.5]], &[1.0, 1.0]);
        let hv2 = hypervolume(&[vec![0.5, 0.5], vec![0.5, 0.5]], &[1.0, 1.0]);
        assert!((hv1 - hv2).abs() < 1e-12);
    }

    #[test]
    fn hv_point_on_reference_boundary_contributes_nothing() {
        // strict dominance of the reference point is required
        assert_eq!(hypervolume(&[vec![1.0, 0.0]], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn spread_single_point_front_is_one() {
        let reference = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert_eq!(generalized_spread(&[vec![0.5, 0.5]], &reference), 1.0);
    }

    #[test]
    fn normalizer_clamps_nothing_outside_reference() {
        // points outside the reference box legitimately map outside [0,1]
        let pts = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let n = Normalizer::from_points(&pts).unwrap();
        let out = n.apply(&[2.0, -1.0]);
        assert_eq!(out, vec![2.0, -1.0]);
    }

    #[test]
    fn gd_igd_are_transposes() {
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let b = vec![vec![0.2, 0.8], vec![0.9, 0.1], vec![0.5, 0.5]];
        assert_eq!(
            generational_distance(&a, &b),
            inverted_generational_distance(&b, &a)
        );
    }

    #[test]
    fn indicators_handle_empty_fronts() {
        let reference = vec![vec![0.0, 1.0]];
        assert!(generational_distance(&[], &reference).is_infinite());
        assert!(inverted_generational_distance(&[], &reference).is_infinite());
        assert_eq!(hypervolume(&[], &[1.0, 1.0]), 0.0);
    }
}
