//! Variation operators for real-coded metaheuristics.
//!
//! * [`blx_alpha_step`] — the paper's local-search move (Eq. 2), a
//!   BLX-α-style perturbation of one parameter of solution `s` scaled by
//!   its distance to a reference solution `t`,
//! * [`sbx_crossover`] / [`polynomial_mutation`] — the GA operators of
//!   NSGA-II, MOCell and the island model, at the one setting the paper's
//!   comparison uses ([`SBX_PROB`], [`SBX_ETA`], [`PM_ETA`]),
//! * [`de_rand_1_bin`] — the differential-evolution variation CellDE uses,
//! * selection helpers (binary tournament, random distinct picks).

use crate::dominance::{constrained_dominance, DominanceOrd};
use crate::solution::{Bounds, Candidate};
use rand::Rng;

/// SBX crossover probability of the paper's GA baselines (Ruiz et al.
/// 2012).
pub const SBX_PROB: f64 = 0.9;
/// SBX distribution index.
pub const SBX_ETA: f64 = 20.0;
/// Polynomial-mutation distribution index; each variable mutates with
/// probability `1/n`.
pub const PM_ETA: f64 = 20.0;

/// Uniformly random point within bounds.
pub fn uniform_init<R: Rng>(bounds: &Bounds, rng: &mut R) -> Vec<f64> {
    bounds
        .as_slice()
        .iter()
        .map(|&(lo, hi)| if hi > lo { rng.gen_range(lo..hi) } else { lo })
        .collect()
}

/// One BLX-α local-search step on a single parameter, exactly Eq. 2 of the
/// paper:
///
/// ```text
/// ŝ_p = s_p + φ · (3ρ − 2),   φ = α · |s_p − t_p|,   ρ ∈ [0, 1)
/// ```
///
/// The perturbation is uniform in `[−2φ, +φ)`: biased toward decreasing the
/// parameter, with magnitude proportional to how far the reference solution
/// `t` is. When `s_p == t_p` the step is zero — callers that need to escape
/// this absorbing state should fall back to a small random kick (AEDB-MLS
/// does; see the `aedb-mls` crate).
pub fn blx_alpha_step<R: Rng>(sp: f64, tp: f64, alpha: f64, rng: &mut R) -> f64 {
    debug_assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    let phi = alpha * (sp - tp).abs();
    let rho: f64 = rng.gen::<f64>();
    sp + phi * (3.0 * rho - 2.0)
}

/// Simulated binary crossover (Deb & Agrawal 1995). Returns two children;
/// with probability `1 − SBX_PROB` the parents are returned unchanged.
/// The distribution index is [`SBX_ETA`].
#[allow(clippy::needless_range_loop)]
pub fn sbx_crossover<R: Rng>(
    p1: &[f64],
    p2: &[f64],
    bounds: &Bounds,
    rng: &mut R,
) -> (Vec<f64>, Vec<f64>) {
    debug_assert_eq!(p1.len(), p2.len());
    let eta = SBX_ETA;
    let mut c1 = p1.to_vec();
    let mut c2 = p2.to_vec();
    if rng.gen::<f64>() <= SBX_PROB {
        for i in 0..p1.len() {
            if rng.gen::<f64>() > 0.5 {
                continue; // each variable crossed with prob 0.5 (jMetal convention)
            }
            let (x1, x2) = (p1[i], p2[i]);
            if (x1 - x2).abs() < 1e-14 {
                continue;
            }
            let (lo, hi) = bounds.get(i);
            let (y1, y2) = if x1 < x2 { (x1, x2) } else { (x2, x1) };
            let u: f64 = rng.gen();
            let beta = 1.0 + 2.0 * (y1 - lo) / (y2 - y1);
            let alpha = 2.0 - beta.powf(-(eta + 1.0));
            let betaq = if u <= 1.0 / alpha {
                (u * alpha).powf(1.0 / (eta + 1.0))
            } else {
                (1.0 / (2.0 - u * alpha)).powf(1.0 / (eta + 1.0))
            };
            let mut ch1 = 0.5 * ((y1 + y2) - betaq * (y2 - y1));
            let beta = 1.0 + 2.0 * (hi - y2) / (y2 - y1);
            let alpha = 2.0 - beta.powf(-(eta + 1.0));
            let betaq = if u <= 1.0 / alpha {
                (u * alpha).powf(1.0 / (eta + 1.0))
            } else {
                (1.0 / (2.0 - u * alpha)).powf(1.0 / (eta + 1.0))
            };
            let mut ch2 = 0.5 * ((y1 + y2) + betaq * (y2 - y1));
            ch1 = ch1.clamp(lo, hi);
            ch2 = ch2.clamp(lo, hi);
            if rng.gen::<f64>() <= 0.5 {
                c1[i] = ch2;
                c2[i] = ch1;
            } else {
                c1[i] = ch1;
                c2[i] = ch2;
            }
        }
    }
    (c1, c2)
}

/// Polynomial mutation (Deb). Each of the `n` variables mutates with
/// probability `1/n`; the distribution index is [`PM_ETA`].
#[allow(clippy::needless_range_loop)]
pub fn polynomial_mutation<R: Rng>(x: &mut [f64], bounds: &Bounds, rng: &mut R) {
    let (eta, pm) = (PM_ETA, 1.0 / x.len() as f64);
    for i in 0..x.len() {
        if rng.gen::<f64>() > pm {
            continue;
        }
        let (lo, hi) = bounds.get(i);
        if hi <= lo {
            continue;
        }
        let y = x[i];
        let delta1 = (y - lo) / (hi - lo);
        let delta2 = (hi - y) / (hi - lo);
        let u: f64 = rng.gen();
        let mut_pow = 1.0 / (eta + 1.0);
        let deltaq = if u <= 0.5 {
            let xy = 1.0 - delta1;
            let val = 2.0 * u + (1.0 - 2.0 * u) * xy.powf(eta + 1.0);
            val.powf(mut_pow) - 1.0
        } else {
            let xy = 1.0 - delta2;
            let val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy.powf(eta + 1.0);
            1.0 - val.powf(mut_pow)
        };
        x[i] = (y + deltaq * (hi - lo)).clamp(lo, hi);
    }
}

/// DE/rand/1/bin variation: `v = r1 + F·(r2 − r3)`, then binomial crossover
/// with the target `x` at rate `cr`, guaranteeing at least one donor gene.
/// Result is clamped to bounds. CellDE uses `F = 0.5`, `cr = 0.9`.
#[allow(clippy::too_many_arguments)]
pub fn de_rand_1_bin<R: Rng>(
    x: &[f64],
    r1: &[f64],
    r2: &[f64],
    r3: &[f64],
    f: f64,
    cr: f64,
    bounds: &Bounds,
    rng: &mut R,
) -> Vec<f64> {
    let n = x.len();
    debug_assert!(n > 0);
    let jrand = rng.gen_range(0..n);
    let mut child: Vec<f64> = (0..n)
        .map(|j| {
            if j == jrand || rng.gen::<f64>() < cr {
                r1[j] + f * (r2[j] - r3[j])
            } else {
                x[j]
            }
        })
        .collect();
    bounds.clamp(&mut child);
    child
}

/// Binary tournament under constrained dominance; dominance ties are broken
/// uniformly at random. Returns an index into `pop`.
pub fn binary_tournament<R: Rng>(pop: &[Candidate], rng: &mut R) -> usize {
    debug_assert!(!pop.is_empty());
    let a = rng.gen_range(0..pop.len());
    let b = rng.gen_range(0..pop.len());
    match constrained_dominance(&pop[a], &pop[b]) {
        DominanceOrd::Dominates => a,
        DominanceOrd::DominatedBy => b,
        DominanceOrd::Indifferent => {
            if rng.gen::<bool>() {
                a
            } else {
                b
            }
        }
    }
}

/// Picks `k` distinct indices in `0..n`, none equal to `exclude`.
///
/// # Panics
/// Panics if fewer than `k` valid indices exist.
pub fn distinct_indices<R: Rng>(n: usize, k: usize, exclude: usize, rng: &mut R) -> Vec<usize> {
    assert!(n > k, "need at least {} candidates, have {n}", k + 1);
    let mut picked = Vec::with_capacity(k);
    while picked.len() < k {
        let i = rng.gen_range(0..n);
        if i != exclude && !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xAEDB)
    }

    #[test]
    fn uniform_init_in_bounds() {
        let b = Bounds::new(vec![(0.0, 1.0), (-5.0, 5.0), (2.0, 2.0)]);
        let mut r = rng();
        for _ in 0..100 {
            let x = uniform_init(&b, &mut r);
            assert!(b.contains(&x), "{x:?}");
        }
    }

    #[test]
    fn blx_step_range_matches_eq2() {
        // φ = α|s−t| = 0.2*10 = 2 ; step ∈ [−4, +2)
        let mut r = rng();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for _ in 0..5000 {
            let v = blx_alpha_step(5.0, 15.0, 0.2, &mut r);
            lo = lo.min(v);
            hi = hi.max(v);
            assert!((5.0 - 4.0 - 1e-9..5.0 + 2.0 + 1e-9).contains(&v));
        }
        // the sampled extremes should approach the theoretical range
        assert!(lo < 1.2, "lo = {lo}");
        assert!(hi > 6.8, "hi = {hi}");
    }

    #[test]
    fn blx_step_zero_when_equal() {
        let mut r = rng();
        assert_eq!(blx_alpha_step(3.0, 3.0, 0.2, &mut r), 3.0);
    }

    #[test]
    fn sbx_children_in_bounds_and_vary() {
        let b = Bounds::new(vec![(0.0, 1.0); 4]);
        let p1 = vec![0.1, 0.2, 0.3, 0.4];
        let p2 = vec![0.9, 0.8, 0.7, 0.6];
        let mut r = rng();
        let mut saw_change = false;
        for _ in 0..50 {
            let (c1, c2) = sbx_crossover(&p1, &p2, &b, &mut r);
            assert!(b.contains(&c1) && b.contains(&c2));
            if c1 != p1 || c2 != p2 {
                saw_change = true;
            }
        }
        assert!(saw_change);
    }

    #[test]
    fn sbx_identical_parents_unchanged() {
        let b = Bounds::new(vec![(0.0, 1.0); 2]);
        let p = vec![0.5, 0.5];
        let mut r = rng();
        // 50 calls: the crossover branch (taken with SBX_PROB) certainly runs.
        for _ in 0..50 {
            let (c1, c2) = sbx_crossover(&p, &p, &b, &mut r);
            assert_eq!(c1, p);
            assert_eq!(c2, p);
        }
    }

    #[test]
    fn polynomial_mutation_respects_bounds() {
        let b = Bounds::new(vec![(0.0, 1.0); 5]);
        let mut r = rng();
        // Each variable mutates at 1/5, so 1000 rounds mutate about as many
        // values (boundary ones included) as 200 rounds at probability 1.
        for _ in 0..1000 {
            let mut x = vec![0.01, 0.5, 0.99, 0.0, 1.0];
            polynomial_mutation(&mut x, &b, &mut r);
            assert!(b.contains(&x), "{x:?}");
        }
    }

    #[test]
    fn de_variation_clamped_and_inherits() {
        let b = Bounds::new(vec![(0.0, 1.0); 3]);
        let mut r = rng();
        let x = vec![0.5; 3];
        for _ in 0..100 {
            let c = de_rand_1_bin(&x, &[0.9; 3], &[0.9; 3], &[0.1; 3], 0.5, 0.9, &b, &mut r);
            assert!(b.contains(&c));
        }
        // cr = 0: only jrand comes from the donor
        let c = de_rand_1_bin(&x, &[1.0; 3], &[1.0; 3], &[1.0; 3], 0.5, 0.0, &b, &mut r);
        let donor_genes = c.iter().filter(|&&v| v != 0.5).count();
        assert_eq!(donor_genes, 1);
    }

    #[test]
    fn tournament_picks_dominating() {
        let strong = Candidate::evaluated(vec![], vec![0.0, 0.0], 0.0);
        let weak = Candidate::evaluated(vec![], vec![1.0, 1.0], 0.0);
        let pop = vec![strong, weak];
        let mut r = rng();
        let mut wins = [0usize; 2];
        for _ in 0..500 {
            wins[binary_tournament(&pop, &mut r)] += 1;
        }
        assert!(wins[0] > wins[1], "{wins:?}");
    }

    #[test]
    fn distinct_indices_properties() {
        let mut r = rng();
        for _ in 0..100 {
            let v = distinct_indices(10, 3, 4, &mut r);
            assert_eq!(v.len(), 3);
            assert!(!v.contains(&4));
            let mut u = v.clone();
            u.sort_unstable();
            u.dedup();
            assert_eq!(u.len(), 3);
        }
    }
}
