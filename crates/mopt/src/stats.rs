//! Statistics for the experimental analysis: the Wilcoxon rank-sum test the
//! paper uses for Table IV ("95% statistical confidence according to
//! Wilcoxon unpaired signed rank test" — i.e. the two-sample rank-sum /
//! Mann–Whitney test), plus boxplot summaries for Figure 7.

/// Five-number summary plus mean, as printed by the Figure 7 harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boxplot {
    /// Smallest observation.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Linear-interpolation percentile (R type-7, matplotlib default).
/// `q` in `[0,1]`. Panics on empty input.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Computes the boxplot summary of a sample. Returns `None` on empty input.
pub fn boxplot(sample: &[f64]) -> Option<Boxplot> {
    if sample.is_empty() {
        return None;
    }
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    let mean = s.iter().sum::<f64>() / s.len() as f64;
    Some(Boxplot {
        min: s[0],
        q1: percentile(&s, 0.25),
        median: percentile(&s, 0.5),
        q3: percentile(&s, 0.75),
        max: *s.last().unwrap(),
        mean,
    })
}

/// Result of a two-sided Wilcoxon rank-sum (Mann–Whitney U) test.
#[derive(Debug, Clone, Copy)]
pub struct RankSum {
    /// Mann–Whitney U statistic of the first sample.
    pub u: f64,
    /// Standardised statistic (tie-corrected, continuity-corrected).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
    /// `> 0` when the first sample tends to larger values, `< 0` when the
    /// second does (sign of the effect).
    pub effect_sign: f64,
}

/// Two-sided Wilcoxon rank-sum test with tie correction and continuity
/// correction (normal approximation; fine for the paper's n = 30 runs).
///
/// Returns `None` when either sample is empty or the variance degenerates
/// (e.g. all observations identical).
///
/// # Example
/// ```
/// use mopt::stats::wilcoxon_rank_sum;
/// let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
/// let b: Vec<f64> = (0..30).map(|i| i as f64 + 50.0).collect();
/// let t = wilcoxon_rank_sum(&a, &b).unwrap();
/// assert!(t.p_value < 0.05); // clearly shifted distributions
/// ```
pub fn wilcoxon_rank_sum(a: &[f64], b: &[f64]) -> Option<RankSum> {
    let (n1, n2) = (a.len(), b.len());
    if n1 == 0 || n2 == 0 {
        return None;
    }
    // Rank the pooled sample with mid-ranks for ties.
    let mut pooled: Vec<(f64, usize)> = a
        .iter()
        .map(|&x| (x, 0usize))
        .chain(b.iter().map(|&x| (x, 1usize)))
        .collect();
    pooled.sort_by(|x, y| x.0.total_cmp(&y.0));
    let n = pooled.len();
    let mut ranks = vec![0.0f64; n];
    let mut tie_term = 0.0f64; // Σ (t³ − t) over tie groups
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0; // ranks are 1-based
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = avg_rank;
        }
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        i = j + 1;
    }
    let r1: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, g), _)| *g == 0)
        .map(|(_, &r)| r)
        .sum();
    let (n1f, n2f) = (n1 as f64, n2 as f64);
    let u1 = r1 - n1f * (n1f + 1.0) / 2.0;
    let mu = n1f * n2f / 2.0;
    let nf = n as f64;
    let sigma2 = n1f * n2f / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)));
    if sigma2 <= 0.0 {
        return None;
    }
    let sigma = sigma2.sqrt();
    // continuity correction toward the mean
    let diff = u1 - mu;
    let z = if diff > 0.0 {
        (diff - 0.5) / sigma
    } else if diff < 0.0 {
        (diff + 0.5) / sigma
    } else {
        0.0
    };
    let p = 2.0 * (1.0 - std_normal_cdf(z.abs()));
    Some(RankSum {
        u: u1,
        z,
        p_value: p.clamp(0.0, 1.0),
        effect_sign: diff.signum(),
    })
}

/// Outcome of a pairwise significance comparison, as encoded in Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Row algorithm significantly better (the paper's `▲`).
    Better,
    /// Row algorithm significantly worse (`▽`).
    Worse,
    /// No statistical significance at the requested level (`–`).
    NoDifference,
}

impl Comparison {
    /// Symbol used by the experiment harness (matches the paper's table).
    pub fn symbol(self) -> char {
        match self {
            Comparison::Better => '▲',
            Comparison::Worse => '▽',
            Comparison::NoDifference => '–',
        }
    }
}

/// Compares two samples of an indicator at significance `alpha`.
/// `smaller_is_better` selects the polarity (true for IGD/spread, false
/// for hypervolume).
pub fn compare_samples(a: &[f64], b: &[f64], smaller_is_better: bool, alpha: f64) -> Comparison {
    match wilcoxon_rank_sum(a, b) {
        Some(r) if r.p_value < alpha && r.effect_sign != 0.0 => {
            let a_larger = r.effect_sign > 0.0;
            match (a_larger, smaller_is_better) {
                (true, true) | (false, false) => Comparison::Worse,
                (true, false) | (false, true) => Comparison::Better,
            }
        }
        _ => Comparison::NoDifference,
    }
}

/// Standard normal CDF via the complementary error function
/// (Abramowitz–Stegun 7.1.26 rational approximation, |error| < 1.5e-7).
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxplot_odd_sample() {
        let b = boxplot(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.mean, 3.0);
    }

    #[test]
    fn boxplot_empty_none() {
        assert!(boxplot(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert!((percentile(&s, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((std_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn wilcoxon_detects_clear_shift() {
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| i as f64 + 100.0).collect();
        let r = wilcoxon_rank_sum(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert!(r.effect_sign < 0.0); // a smaller
    }

    #[test]
    fn wilcoxon_no_difference_for_identical_distributions() {
        let a: Vec<f64> = (0..30).map(|i| (i as f64 * 37.0) % 11.0).collect();
        let r = wilcoxon_rank_sum(&a, &a).unwrap();
        assert!(r.p_value > 0.9, "p = {}", r.p_value);
    }

    #[test]
    fn wilcoxon_handles_ties() {
        let a = vec![1.0, 1.0, 1.0, 2.0, 2.0];
        let b = vec![1.0, 2.0, 2.0, 2.0, 3.0];
        let r = wilcoxon_rank_sum(&a, &b).unwrap();
        assert!(r.p_value > 0.05); // weak evidence only
    }

    #[test]
    fn wilcoxon_degenerate_all_equal() {
        // all observations identical => zero variance => None
        assert!(wilcoxon_rank_sum(&[1.0; 5], &[1.0; 5]).is_none());
        assert!(wilcoxon_rank_sum(&[], &[1.0]).is_none());
    }

    #[test]
    fn comparison_polarity() {
        let small: Vec<f64> = (0..30).map(|i| i as f64 * 0.01).collect();
        let large: Vec<f64> = (0..30).map(|i| 10.0 + i as f64 * 0.01).collect();
        // smaller-is-better indicator (e.g. IGD): `small` sample wins
        assert_eq!(
            compare_samples(&small, &large, true, 0.05),
            Comparison::Better
        );
        assert_eq!(
            compare_samples(&large, &small, true, 0.05),
            Comparison::Worse
        );
        // larger-is-better (hypervolume)
        assert_eq!(
            compare_samples(&small, &large, false, 0.05),
            Comparison::Worse
        );
        assert_eq!(
            compare_samples(&large, &small, false, 0.05),
            Comparison::Better
        );
        assert_eq!(
            compare_samples(&small, &small, false, 0.05),
            Comparison::NoDifference
        );
    }

    #[test]
    fn comparison_symbols() {
        assert_eq!(Comparison::Better.symbol(), '▲');
        assert_eq!(Comparison::Worse.symbol(), '▽');
        assert_eq!(Comparison::NoDifference.symbol(), '–');
    }
}
