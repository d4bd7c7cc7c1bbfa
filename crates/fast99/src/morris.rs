//! Morris elementary-effects screening (Morris 1991, as presented in
//! Saltelli et al., *Sensitivity Analysis in Practice* — the paper's
//! reference \[15\]).
//!
//! A cheap qualitative cross-check of the FAST99 results: `r` random
//! trajectories through a `p`-level grid on `[0,1]^k`, each perturbing one
//! parameter at a time by `Δ`, yield per-parameter elementary effects
//! whose statistics rank influence:
//!
//! * `μ*` — mean absolute effect: overall importance,
//! * `σ` — standard deviation of effects: nonlinearity/interactions,
//! * `μ` — signed mean: direction of the effect.
//!
//! Cost: `r · (k + 1)` model evaluations — far cheaper than FAST99, which
//! is why practitioners screen with Morris first.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Morris screening configuration.
#[derive(Debug, Clone)]
pub struct Morris {
    /// Number of parameters `k`.
    pub n_params: usize,
    /// Number of trajectories `r` (typical: 10–50).
    pub n_trajectories: usize,
    /// Grid levels `p` (even; typical: 4–8).
    pub levels: usize,
    /// RNG seed for trajectory generation.
    pub seed: u64,
}

/// Per-parameter elementary-effect statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectStats {
    /// Signed mean effect `μ` (direction).
    pub mu: f64,
    /// Mean absolute effect `μ*` (importance).
    pub mu_star: f64,
    /// Standard deviation `σ` (nonlinearity / interactions).
    pub sigma: f64,
}

impl Morris {
    /// Creates a screening design.
    pub fn new(n_params: usize, n_trajectories: usize) -> Self {
        assert!(n_params >= 1);
        assert!(n_trajectories >= 2);
        Self {
            n_params,
            n_trajectories,
            levels: 4,
            seed: 0x30B1_5EED,
        }
    }

    /// Model evaluations the full screening performs.
    pub fn total_evaluations(&self) -> usize {
        self.n_trajectories * (self.n_params + 1)
    }

    /// Generates one trajectory: `k + 1` points in `[0,1]^k`, consecutive
    /// points differing in exactly one (randomly ordered) coordinate by
    /// `Δ = p / (2(p−1))`.
    fn trajectory<R: Rng>(&self, rng: &mut R) -> (Vec<Vec<f64>>, Vec<usize>, Vec<f64>) {
        let k = self.n_params;
        let p = self.levels;
        let delta = p as f64 / (2.0 * (p as f64 - 1.0));
        // base point on the grid {0, 1/(p-1), …}, low half so +Δ stays in [0,1]
        let mut x: Vec<f64> = (0..k)
            .map(|_| rng.gen_range(0..p / 2) as f64 / (p as f64 - 1.0))
            .collect();
        // random parameter order and random step signs (folded: when a +Δ
        // would overflow, step −Δ instead — equivalent by symmetry)
        let mut order: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut pts = Vec::with_capacity(k + 1);
        let mut signs = Vec::with_capacity(k);
        pts.push(x.clone());
        for &pi in &order {
            let up = rng.gen::<bool>();
            let sign = if up && x[pi] + delta <= 1.0 + 1e-12 {
                1.0
            } else if !up && x[pi] - delta >= -1e-12 {
                -1.0
            } else if x[pi] + delta <= 1.0 + 1e-12 {
                1.0
            } else {
                -1.0
            };
            x[pi] = (x[pi] + sign * delta).clamp(0.0, 1.0);
            signs.push(sign);
            pts.push(x.clone());
        }
        (pts, order, signs)
    }

    /// Runs the screening of a scalar model over the unit hypercube.
    pub fn analyze<F: FnMut(&[f64]) -> f64>(&self, mut f: F) -> Vec<EffectStats> {
        let k = self.n_params;
        let p = self.levels;
        let delta = p as f64 / (2.0 * (p as f64 - 1.0));
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut effects: Vec<Vec<f64>> = vec![Vec::with_capacity(self.n_trajectories); k];
        for _ in 0..self.n_trajectories {
            let (pts, order, signs) = self.trajectory(&mut rng);
            let ys: Vec<f64> = pts.iter().map(|x| f(x)).collect();
            for (step, (&pi, &sign)) in order.iter().zip(&signs).enumerate() {
                let ee = (ys[step + 1] - ys[step]) / (sign * delta);
                effects[pi].push(ee);
            }
        }
        effects
            .into_iter()
            .map(|es| {
                let n = es.len() as f64;
                let mu = es.iter().sum::<f64>() / n;
                let mu_star = es.iter().map(|e| e.abs()).sum::<f64>() / n;
                let var = es.iter().map(|e| (e - mu) * (e - mu)).sum::<f64>() / (n - 1.0).max(1.0);
                EffectStats {
                    mu,
                    mu_star,
                    sigma: var.sqrt(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_count() {
        let m = Morris::new(5, 10);
        assert_eq!(m.total_evaluations(), 60);
    }

    #[test]
    fn trajectory_structure() {
        let m = Morris::new(4, 5);
        let mut rng = SmallRng::seed_from_u64(1);
        let (pts, order, signs) = m.trajectory(&mut rng);
        assert_eq!(pts.len(), 5);
        assert_eq!(order.len(), 4);
        assert_eq!(signs.len(), 4);
        // consecutive points differ in exactly one coordinate
        for w in pts.windows(2) {
            let diffs = w[0]
                .iter()
                .zip(&w[1])
                .filter(|(a, b)| (*a - *b).abs() > 1e-12)
                .count();
            assert_eq!(diffs, 1, "{w:?}");
        }
        // all coordinates stay in the unit cube
        for pt in &pts {
            assert!(pt.iter().all(|v| (0.0..=1.0).contains(v)), "{pt:?}");
        }
        // order is a permutation
        let mut o = order.clone();
        o.sort_unstable();
        assert_eq!(o, vec![0, 1, 2, 3]);
    }

    #[test]
    fn linear_model_exact_effects() {
        // y = 3 x0 − 2 x1 : every elementary effect is exactly the slope
        let m = Morris::new(2, 8);
        let stats = m.analyze(|x| 3.0 * x[0] - 2.0 * x[1]);
        assert!((stats[0].mu - 3.0).abs() < 1e-9, "{stats:?}");
        assert!((stats[0].mu_star - 3.0).abs() < 1e-9);
        assert!(stats[0].sigma < 1e-9, "linear model has zero σ");
        assert!((stats[1].mu - -2.0).abs() < 1e-9);
        assert!((stats[1].mu_star - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inert_parameter_scores_zero() {
        let m = Morris::new(3, 10);
        let stats = m.analyze(|x| x[0] * x[0] + x[1]);
        assert_eq!(stats[2].mu_star, 0.0);
        assert_eq!(stats[2].sigma, 0.0);
    }

    #[test]
    fn interaction_raises_sigma() {
        let m = Morris::new(2, 20);
        let additive = m.analyze(|x| x[0] + x[1]);
        let multiplicative = m.analyze(|x| 4.0 * x[0] * x[1]);
        assert!(
            multiplicative[0].sigma > additive[0].sigma + 0.1,
            "σ should flag the interaction: {multiplicative:?} vs {additive:?}"
        );
    }

    #[test]
    fn ranking_matches_coefficients() {
        let m = Morris::new(3, 16);
        let stats = m.analyze(|x| 5.0 * x[0] + 1.0 * x[1] + 0.1 * x[2]);
        assert!(stats[0].mu_star > stats[1].mu_star);
        assert!(stats[1].mu_star > stats[2].mu_star);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = Morris::new(3, 6);
        let a = m.analyze(|x| (x[0] * 6.0).sin() + x[1]);
        let b = m.analyze(|x| (x[0] * 6.0).sin() + x[1]);
        assert_eq!(a, b);
    }
}
