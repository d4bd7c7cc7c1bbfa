//! Radio propagation: dBm arithmetic and path-loss models.
//!
//! The paper evaluates AEDB with ns-3; we reproduce ns-3's default
//! wide-area propagation setup: **log-distance path loss** with exponent
//! 3.0 and reference loss 46.6777 dB at 1 m (the `LogDistancePropagation-
//! LossModel` defaults), a default transmit power of 16.02 dBm (Table II)
//! and an energy-detection threshold of −96 dBm. With those numbers the
//! default-power radio range is ≈ 139 m — a sensible one-hop radius inside
//! the 500 m field.

use serde::{Deserialize, Serialize};

/// Converts a power in dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts a power in milliwatts to dBm. `mw` must be positive.
pub fn mw_to_dbm(mw: f64) -> f64 {
    debug_assert!(mw > 0.0, "mw_to_dbm needs positive power, got {mw}");
    10.0 * mw.log10()
}

/// A distance-dependent path-loss model (loss in dB, distance in metres).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PathLoss {
    /// `PL(d) = PL₀ + 10·n·log₁₀(d/d₀)` — ns-3's default model.
    LogDistance {
        /// Path-loss exponent `n` (ns-3 default 3.0).
        exponent: f64,
        /// Loss at the reference distance (dB; ns-3 default 46.6777).
        reference_loss_db: f64,
        /// Reference distance `d₀` (m; ns-3 default 1.0).
        reference_distance: f64,
    },
    /// Free-space Friis loss at the given frequency.
    Friis {
        /// Carrier frequency in Hz (e.g. 2.4e9).
        frequency_hz: f64,
    },
    /// Two-ray ground-reflection model with antenna heights `h` (m);
    /// falls back to Friis below the crossover distance.
    TwoRayGround {
        /// Carrier frequency in Hz.
        frequency_hz: f64,
        /// Antenna height above ground (m), both ends.
        antenna_height: f64,
    },
}

impl PathLoss {
    /// ns-3 default log-distance model (exponent 3, 46.6777 dB @ 1 m).
    pub fn ns3_default() -> Self {
        PathLoss::LogDistance {
            exponent: 3.0,
            reference_loss_db: 46.6777,
            reference_distance: 1.0,
        }
    }

    /// Path loss in dB at distance `d` metres. Distances below 1 mm are
    /// clamped (colocated nodes would otherwise yield −∞).
    pub fn loss_db(self, d: f64) -> f64 {
        let d = d.max(1e-3);
        match self {
            PathLoss::LogDistance {
                exponent,
                reference_loss_db,
                reference_distance,
            } => {
                if d <= reference_distance {
                    reference_loss_db
                } else {
                    reference_loss_db + 10.0 * exponent * (d / reference_distance).log10()
                }
            }
            PathLoss::Friis { frequency_hz } => {
                let lambda = 299_792_458.0 / frequency_hz;
                let ratio = 4.0 * std::f64::consts::PI * d / lambda;
                20.0 * ratio.log10()
            }
            PathLoss::TwoRayGround {
                frequency_hz,
                antenna_height,
            } => {
                let lambda = 299_792_458.0 / frequency_hz;
                let crossover =
                    4.0 * std::f64::consts::PI * antenna_height * antenna_height / lambda;
                if d < crossover {
                    PathLoss::Friis { frequency_hz }.loss_db(d)
                } else {
                    // PL = 40 log d − 20 log(h_t h_r)
                    40.0 * d.log10() - 20.0 * (antenna_height * antenna_height).log10()
                }
            }
        }
    }

    /// Received power (dBm) for a transmission at `tx_dbm` over `d` metres.
    pub fn rx_dbm(self, tx_dbm: f64, d: f64) -> f64 {
        tx_dbm - self.loss_db(d)
    }

    /// The distance at which a transmission at `tx_dbm` is received at
    /// exactly `rx_dbm` (the radio range for that threshold). Inverse of
    /// [`rx_dbm`](PathLoss::rx_dbm); only exact for monotone models
    /// (all provided models are monotone).
    pub fn range_for(self, tx_dbm: f64, rx_dbm: f64) -> f64 {
        let loss = tx_dbm - rx_dbm;
        match self {
            PathLoss::LogDistance {
                exponent,
                reference_loss_db,
                reference_distance,
            } => {
                if loss <= reference_loss_db {
                    reference_distance
                } else {
                    reference_distance * 10f64.powf((loss - reference_loss_db) / (10.0 * exponent))
                }
            }
            PathLoss::Friis { frequency_hz } => {
                let lambda = 299_792_458.0 / frequency_hz;
                lambda / (4.0 * std::f64::consts::PI) * 10f64.powf(loss / 20.0)
            }
            PathLoss::TwoRayGround { .. } => {
                // invert numerically by bisection (model is monotone)
                let (mut lo, mut hi) = (1e-3, 1e7);
                for _ in 0..200 {
                    let mid = 0.5 * (lo + hi);
                    if self.loss_db(mid) < loss {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                0.5 * (lo + hi)
            }
        }
    }

    /// The transmit power (dBm) needed for the receiver at distance `d` to
    /// see `rx_dbm`.
    pub fn tx_for(self, rx_dbm: f64, d: f64) -> f64 {
        rx_dbm + self.loss_db(d)
    }

    /// Squared-distance bounds `(lo², hi²)` for the **log-free** receive
    /// test of a transmission at `tx_dbm` against `threshold_dbm`:
    ///
    /// * `d² ≤ lo²` ⟹ `rx_dbm(tx_dbm, d) ≥ threshold_dbm` (certainly
    ///   above threshold),
    /// * `d² > hi²` ⟹ `rx_dbm(tx_dbm, d) < threshold_dbm` (certainly
    ///   below),
    /// * `lo² < d² ≤ hi²` ⟹ undetermined: evaluate the exact dB-domain
    ///   comparison (the band is [`THRESHOLD_BAND`]-thin, so this is
    ///   essentially never taken).
    ///
    /// When no distance satisfies the threshold (the link budget is below
    /// the model's close-in plateau) both bounds are negative, so every
    /// `d² ≥ 0` takes the certainly-below branch. Precomputing this once
    /// per transmission replaces the per-candidate `log10` of the receive
    /// test with a squared-distance compare whose classification is
    /// identical to the dB-domain test.
    pub fn threshold_band_sq(self, tx_dbm: f64, threshold_dbm: f64) -> (f64, f64) {
        // The dB test at d = 0 decides the degenerate cases: models clamp
        // the close-in loss (log-distance plateaus below the reference
        // distance, everything clamps below 1 mm), so a budget below the
        // plateau loss decodes nowhere even though `range_for` still
        // returns its reference distance.
        if self.rx_dbm(tx_dbm, 0.0) < threshold_dbm {
            return (-1.0, -1.0);
        }
        let d = self.range_for(tx_dbm, threshold_dbm);
        let lo = (d * (1.0 - THRESHOLD_BAND) - THRESHOLD_BAND).max(0.0);
        let hi = d * (1.0 + THRESHOLD_BAND) + THRESHOLD_BAND;
        (lo * lo, hi * hi)
    }
}

/// Physical-layer configuration shared by all nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadioConfig {
    /// Path-loss model.
    pub path_loss: PathLoss,
    /// Default transmit power (Table II: 16.02 dBm).
    pub default_tx_dbm: f64,
    /// Minimum received power for successful decoding (−96 dBm, the ns-3
    /// Wi-Fi energy-detection default).
    pub rx_sensitivity_dbm: f64,
    /// Capture threshold: a frame survives interference when it is at
    /// least this many dB above the sum of interfering frames.
    pub capture_db: f64,
    /// On-air duration of a beacon frame (s).
    pub beacon_duration: f64,
    /// On-air duration of a broadcast data frame (s).
    pub data_duration: f64,
    /// Standard deviation of static per-link log-normal shadowing (dB);
    /// `0` disables it (the paper's setup — ns-3's default log-distance
    /// model has no shadowing — but real deployments see 4–8 dB).
    pub shadowing_sigma_db: f64,
}

/// Upper truncation point of the shadowing distribution, in standard
/// deviations — the **bounded tail** that gives shadowed radio links a
/// finite maximum range.
///
/// # The bounded-tail error budget
///
/// An untruncated log-normal shadowing term makes the radio range
/// unbounded: any receiver, however far, could in principle see a large
/// enough shadowing *gain* to decode the frame, so a spatial index has no
/// finite disc to query and the simulator used to fall back to the naive
/// all-nodes scan whenever `shadowing_sigma_db > 0`.
///
/// Truncating the per-link gain at `+SHADOW_TAIL_SIGMAS · σ` restores a
/// hard range bound: a frame sent at `tx_dbm` is decodable only within
/// `range_for(tx_dbm + SHADOW_TAIL_SIGMAS·σ, sensitivity)`. The modelling
/// error is the clipped upper tail of the Gaussian, whose mass is
/// `P(Z > 4) ≈ 3.17 × 10⁻⁵` (see [`shadow_tail_error_budget`] for the
/// asserted analytic bound): about one link in 30 000 has its shadowing
/// gain reduced, and only links that additionally sit in the narrow
/// distance band where that extra gain decides decodability behave
/// differently from the untruncated model. Losses (negative shadowing) are
/// untouched — only the gain tail needs bounding, and a one-sided clip
/// keeps the deep-fade behaviour of the model intact.
///
/// Because the clip is applied inside [`link_shadowing_db`] itself, every
/// delivery path — incremental grid, horizon-rebuild grid and naive scan —
/// sees the *same* bounded-tail propagation model and remains bit-identical
/// to the others, shadowed or not.
pub const SHADOW_TAIL_SIGMAS: f64 = 4.0;

/// Interference is only accumulated from frames arriving within this many
/// dB *below* the receiver sensitivity — energy fainter than that cannot
/// tip the capture comparison at simulation precision (the historical
/// `o_rx >= sensitivity − 10` test in the delivery loop). The optimised
/// delivery path turns the same floor into a per-transmission *gating
/// radius* ([`RadioConfig::interference_floor_range`]) so provably
/// irrelevant interferers are skipped by a squared-distance compare
/// instead of a `log10`.
pub const INTERFERENCE_FLOOR_DB: f64 = 10.0;

/// Relative half-width of the uncertainty band around a precomputed
/// decode-threshold distance (see [`PathLoss::threshold_band_sq`]).
///
/// The log-free receive test classifies a candidate by comparing its
/// squared distance against a precomputed threshold instead of evaluating
/// the dB-domain `rx_dbm ≥ sensitivity` comparison (a `log10`) per
/// candidate. Floating-point `log10`/`powf` round, so the distance-domain
/// and dB-domain comparisons could in principle disagree within a few ulps
/// of the exact threshold. The band makes that impossible by construction:
/// distances within `±BAND` (relative, plus `BAND` absolute for
/// threshold-at-zero cases) of the inverted threshold fall back to the
/// exact dB comparison, and only distances *outside* the band use the fast
/// compare. `1e-9` relative is ~10⁷ ulps — astronomically wider than the
/// ≤ few-ulp wobble of `log10`/`powf` — while still vanishingly thin
/// physically (nanometres at radio ranges), so the fallback is essentially
/// never taken. Boundary proptests in the property suite pin the
/// classification equivalence at randomly sampled near-threshold
/// distances.
pub const THRESHOLD_BAND: f64 = 1e-9;

/// Analytic upper bound on the probability mass clipped by the
/// [`SHADOW_TAIL_SIGMAS`] truncation: the Mills-ratio bound
/// `P(Z > t) ≤ φ(t)/t` with `t = SHADOW_TAIL_SIGMAS`.
///
/// With `t = 4` this evaluates to ≈ 3.35 × 10⁻⁵ (the exact tail mass is
/// ≈ 3.17 × 10⁻⁵); tests assert the budget stays below `3.5 × 10⁻⁵` and
/// that the empirical clip rate of the link-shadowing hash matches it.
pub fn shadow_tail_error_budget() -> f64 {
    let t = SHADOW_TAIL_SIGMAS;
    let phi = (-0.5 * t * t).exp() / (2.0 * std::f64::consts::PI).sqrt();
    phi / t
}

/// Deterministic static shadowing of the link `{a, b}`: a zero-mean
/// Gaussian (Box–Muller over a hash of the unordered pair and the
/// simulation seed) scaled by `sigma_db`, with the gain tail truncated at
/// `+`[`SHADOW_TAIL_SIGMAS`]` · sigma_db` so shadowed links have a finite
/// maximum range (see the constant's docs for the error budget). Symmetric
/// and reproducible — the same link sees the same shadowing for the whole
/// simulation, which is the standard quasi-static model.
pub fn link_shadowing_db(sigma_db: f64, seed: u64, a: usize, b: usize) -> f64 {
    if sigma_db <= 0.0 {
        return 0.0;
    }
    LinkDraw::new(seed, a, b).shadowing_db(sigma_db)
}

/// The first half of [`link_shadowing_db`]: the hash of the unordered
/// pair `{a, b}` under the seed, and the first Box–Muller uniform `u1`
/// drawn from it. `u1` alone bounds the draw (`|g| ≤ √(−2 ln u1)`), which
/// is what [`ShadowCull`] tests before paying for the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDraw {
    hash: u64,
    /// The first uniform of the Box–Muller pair, in `[0, 1)`.
    pub u1: f64,
}

impl LinkDraw {
    /// Hashes the link `{a, b}` under `seed` and draws its `u1`.
    pub fn new(seed: u64, a: usize, b: usize) -> Self {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15u64;
        for v in [lo as u64, hi as u64] {
            h ^= v
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(h << 6)
                .wrapping_add(h >> 2);
            h = splitmix64(h);
        }
        let u1 = (splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64;
        LinkDraw { hash: h, u1 }
    }

    /// The link's shadowing in dB for `sigma_db > 0`: exactly
    /// [`link_shadowing_db`]`(sigma_db, seed, a, b)`.
    pub fn shadowing_db(self, sigma_db: f64) -> f64 {
        let u2 = (splitmix64(self.hash ^ 0xDEAD_BEEF) >> 11) as f64 / (1u64 << 53) as f64;
        let g = (-2.0 * (self.u1.max(1e-300)).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        sigma_db * g.min(SHADOW_TAIL_SIGMAS)
    }
}

/// An exact pre-cull for the shadowed decode test of one transmission:
/// decides from a candidate's squared distance `d²` and its link's
/// [`LinkDraw::u1`] alone that `rx_dbm(tx_dbm, d) + link_shadowing_db(σ)`
/// is below the sensitivity, skipping the `log10` of the path loss and the
/// `ln`/`sqrt`/`cos` of the draw.
///
/// For `k ∈ {3, 2, 1}` it holds `hi²_k`, the upper bound of the
/// [`threshold_band_sq`](PathLoss::threshold_band_sq) of `tx_dbm + k·σ`
/// against the sensitivity, and `U_k = e^{−k²/2}·(1 + `[`THRESHOLD_BAND`]`)`.
/// A candidate with `d² > hi²_k` and `u1 > U_k` cannot decode:
///
/// * the Box–Muller draw is `g = √(−2 ln u1)·cos(2π u2)`, so
///   `g ≤ √(−2 ln u1)`; with `u1 > e^{−k²/2}(1 + 10⁻⁹)` that is below
///   `k − 10⁻⁹/k`, far more than the few ulps `ln`, `sqrt` and `cos` can
///   round by. So the shadowing `σ·min(g, 4)` is below `k·σ`, as
///   `k ≤ 3 < 4`;
/// * `d² > hi²_k` puts `d` beyond the band around the distance where a
///   frame at `tx_dbm + k·σ` arrives at exactly the sensitivity, so
///   `rx_dbm(tx_dbm + k·σ, d)` is below it by at least the band's margin
///   (`10·n·log₁₀(1 + 10⁻⁹)`, ~10⁻⁸ dB for path-loss exponent `n = 3`), again
///   far above the rounding of the sums involved;
/// * hence `rx_dbm(tx_dbm, d) + σ·min(g, 4) < rx_dbm(tx_dbm + k·σ, d) <
///   sensitivity`: the exact test fails, and skipping the candidate is
///   what the exact test's out-of-range branch does.
///
/// A candidate the cull keeps goes through the exact test unchanged, so
/// outcomes are bit-identical with or without it. With σ ≤ 0 it culls
/// nothing (the unshadowed path has its own log-free test).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowCull {
    /// `hi²_k` for `k = 3, 2, 1`.
    hi_r2: [f64; 3],
    /// `U_k` for `k = 3, 2, 1`.
    u_min: [f64; 3],
}

impl ShadowCull {
    /// The cull for a frame sent at `tx_dbm` under shadowing `sigma_db`,
    /// decoded at `sensitivity_dbm`.
    pub fn new(path_loss: PathLoss, tx_dbm: f64, sigma_db: f64, sensitivity_dbm: f64) -> Self {
        if sigma_db <= 0.0 {
            return ShadowCull {
                hi_r2: [f64::INFINITY; 3],
                u_min: [f64::INFINITY; 3],
            };
        }
        let k = [3.0f64, 2.0, 1.0];
        ShadowCull {
            hi_r2: k.map(|k| {
                path_loss
                    .threshold_band_sq(tx_dbm + k * sigma_db, sensitivity_dbm)
                    .1
            }),
            u_min: k.map(|k| (-0.5 * k * k).exp() * (1.0 + THRESHOLD_BAND)),
        }
    }

    /// The squared distance beyond which a link that drew `u1` certainly
    /// fails the decode test, `None` when `u1` is too small to bound it
    /// below the `+4σ` range: the smallest `hi²_k` whose `U_k` it exceeds,
    /// so `culls(d2, u1)` holds exactly when `d2` is beyond it.
    pub fn decode_bound_sq(&self, u1: f64) -> Option<f64> {
        (0..3)
            .rev()
            .find(|&k| u1 > self.u_min[k])
            .map(|k| self.hi_r2[k])
    }

    /// Whether a candidate at squared distance `d2` whose link drew `u1`
    /// certainly fails the decode test (see the type docs for the proof).
    #[inline]
    pub fn culls(&self, d2: f64, u1: f64) -> bool {
        (d2 > self.hi_r2[0] && u1 > self.u_min[0])
            || (d2 > self.hi_r2[1] && u1 > self.u_min[1])
            || (d2 > self.hi_r2[2] && u1 > self.u_min[2])
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RadioConfig {
    /// Paper-faithful defaults: ns-3 log-distance propagation, 16.02 dBm
    /// default power, −96 dBm sensitivity, 10 dB capture, ~1 Mb/s frame
    /// timings (beacon 50 B, data 512 B).
    pub fn paper() -> Self {
        Self {
            path_loss: PathLoss::ns3_default(),
            default_tx_dbm: 16.02,
            rx_sensitivity_dbm: -96.0,
            capture_db: 10.0,
            beacon_duration: 50.0 * 8.0 / 1.0e6,
            data_duration: 512.0 * 8.0 / 1.0e6,
            shadowing_sigma_db: 0.0,
        }
    }

    /// Radio range (m) at the default transmit power.
    pub fn default_range(&self) -> f64 {
        self.path_loss
            .range_for(self.default_tx_dbm, self.rx_sensitivity_dbm)
    }

    /// The maximum possible shadowing *gain* (dB) under the bounded-tail
    /// model: [`SHADOW_TAIL_SIGMAS`]` · shadowing_sigma_db` (0 when
    /// shadowing is disabled).
    pub fn max_shadow_gain_db(&self) -> f64 {
        if self.shadowing_sigma_db > 0.0 {
            SHADOW_TAIL_SIGMAS * self.shadowing_sigma_db
        } else {
            0.0
        }
    }

    /// The hard upper bound on the distance at which a frame sent at
    /// `tx_dbm` can be decoded, **including** the bounded shadowing tail —
    /// the finite query radius that lets shadowed scenarios use the
    /// spatial grid instead of the naive all-nodes scan.
    pub fn max_decode_range(&self, tx_dbm: f64) -> f64 {
        self.path_loss
            .range_for(tx_dbm + self.max_shadow_gain_db(), self.rx_sensitivity_dbm)
    }

    /// The hard upper bound on the distance at which a frame sent at
    /// `tx_dbm` can still register above the interference floor
    /// (`sensitivity − `[`INTERFERENCE_FLOOR_DB`]), including the bounded
    /// shadowing tail. Beyond this distance a frame's received power is
    /// provably below the floor, so the delivery loop's interference sum
    /// is bit-identical whether the frame is evaluated or skipped.
    pub fn interference_floor_range(&self, tx_dbm: f64) -> f64 {
        self.path_loss.range_for(
            tx_dbm + self.max_shadow_gain_db(),
            self.rx_sensitivity_dbm - INTERFERENCE_FLOOR_DB,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_mw_round_trip() {
        for dbm in [-96.0, -30.0, 0.0, 16.02, 30.0] {
            let mw = dbm_to_mw(dbm);
            assert!((mw_to_dbm(mw) - dbm).abs() < 1e-9);
        }
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(10.0) - 10.0).abs() < 1e-12);
        assert!((dbm_to_mw(-10.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn log_distance_reference_point() {
        let m = PathLoss::ns3_default();
        assert!((m.loss_db(1.0) - 46.6777).abs() < 1e-9);
        // +30 dB per decade with exponent 3
        assert!((m.loss_db(10.0) - 76.6777).abs() < 1e-9);
        assert!((m.loss_db(100.0) - 106.6777).abs() < 1e-9);
    }

    #[test]
    fn log_distance_monotone() {
        let m = PathLoss::ns3_default();
        let mut prev = m.loss_db(0.5);
        for i in 1..200 {
            let d = i as f64;
            let l = m.loss_db(d);
            assert!(l >= prev - 1e-12);
            prev = l;
        }
    }

    #[test]
    fn paper_range_is_reasonable() {
        let r = RadioConfig::paper();
        let range = r.default_range();
        // 16.02 + 96 = 112.02 dB budget; 46.6777 + 30 log10(d) = 112.02
        // => d = 10^(65.34/30) ≈ 150 m
        assert!((130.0..170.0).contains(&range), "range = {range}");
    }

    #[test]
    fn range_for_inverts_rx_dbm() {
        let m = PathLoss::ns3_default();
        let d = m.range_for(16.02, -80.0);
        assert!((m.rx_dbm(16.02, d) - -80.0).abs() < 1e-9);
    }

    #[test]
    fn tx_for_inverts_rx() {
        let m = PathLoss::ns3_default();
        let tx = m.tx_for(-96.0, 75.0);
        assert!((m.rx_dbm(tx, 75.0) - -96.0).abs() < 1e-9);
    }

    #[test]
    fn friis_known_value() {
        // 2.4 GHz, 100 m: FSPL ≈ 80.1 dB
        let m = PathLoss::Friis {
            frequency_hz: 2.4e9,
        };
        assert!(
            (m.loss_db(100.0) - 80.1).abs() < 0.2,
            "{}",
            m.loss_db(100.0)
        );
        let d = m.range_for(0.0, -80.1);
        assert!((d - 100.0).abs() < 2.0);
    }

    #[test]
    fn two_ray_reduces_to_friis_close_in() {
        let tr = PathLoss::TwoRayGround {
            frequency_hz: 2.4e9,
            antenna_height: 1.5,
        };
        let fr = PathLoss::Friis {
            frequency_hz: 2.4e9,
        };
        assert_eq!(tr.loss_db(10.0), fr.loss_db(10.0));
        // far away: 40 dB/decade slope
        let l1 = tr.loss_db(1000.0);
        let l2 = tr.loss_db(10_000.0);
        assert!((l2 - l1 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn two_ray_range_inversion() {
        let tr = PathLoss::TwoRayGround {
            frequency_hz: 2.4e9,
            antenna_height: 1.5,
        };
        let d = tr.range_for(16.0, -90.0);
        assert!((tr.rx_dbm(16.0, d) - -90.0).abs() < 1e-6);
    }

    #[test]
    fn threshold_band_classifies_like_the_db_test() {
        // The log-free receive test's contract: outside the band, the
        // squared-distance compare and the dB-domain compare must agree.
        for model in [
            PathLoss::ns3_default(),
            PathLoss::Friis {
                frequency_hz: 2.4e9,
            },
            PathLoss::TwoRayGround {
                frequency_hz: 2.4e9,
                antenna_height: 1.5,
            },
        ] {
            for (tx, thr) in [(16.02, -96.0), (0.0, -80.0), (10.0, -106.0)] {
                let (lo2, hi2) = model.threshold_band_sq(tx, thr);
                let d_star = model.range_for(tx, thr);
                for k in 1..200 {
                    let d = d_star * (k as f64 / 100.0);
                    let d2 = d * d;
                    let db_says = model.rx_dbm(tx, d) >= thr;
                    if d2 <= lo2 {
                        assert!(db_says, "lo bound unsound at d={d} ({model:?})");
                    } else if d2 > hi2 {
                        assert!(!db_says, "hi bound unsound at d={d} ({model:?})");
                    }
                }
                // exactly at the inverted threshold we must be in-band or
                // classified consistently
                let d2 = d_star * d_star;
                if d2 > hi2 {
                    assert!(model.rx_dbm(tx, d_star) < thr);
                } else if d2 <= lo2 {
                    assert!(model.rx_dbm(tx, d_star) >= thr);
                }
            }
        }
    }

    #[test]
    fn threshold_band_handles_undecodable_budget() {
        // Link budget below the close-in plateau: nothing decodes, both
        // bounds are negative so every distance takes the fast "below"
        // branch — matching the dB test at any d, including 0.
        let m = PathLoss::ns3_default();
        // 46.6777 dB reference loss: a -50 dB budget decodes nowhere
        let (lo2, hi2) = m.threshold_band_sq(-10.0, -50.0);
        assert!(lo2 < 0.0 && hi2 < 0.0);
        assert!(m.rx_dbm(-10.0, 0.0) < -50.0);
        assert!(m.rx_dbm(-10.0, 1e-6) < -50.0);
        // budget exactly at the plateau: the plateau distances decode
        let thr = 16.02 - 46.6777;
        let (lo2, _) = m.threshold_band_sq(16.02, thr);
        assert!(lo2 > 0.0, "plateau-exact budget must decode close in");
        assert!(m.rx_dbm(16.02, 0.5) >= thr);
    }

    #[test]
    fn shadowing_zero_sigma_is_zero() {
        assert_eq!(link_shadowing_db(0.0, 42, 1, 2), 0.0);
    }

    #[test]
    fn shadowing_symmetric_and_deterministic() {
        let a = link_shadowing_db(6.0, 42, 3, 9);
        let b = link_shadowing_db(6.0, 42, 9, 3);
        assert_eq!(a, b);
        assert_eq!(a, link_shadowing_db(6.0, 42, 3, 9));
        // different seed or link gives (almost surely) a different value
        assert_ne!(a, link_shadowing_db(6.0, 43, 3, 9));
        assert_ne!(a, link_shadowing_db(6.0, 42, 3, 10));
    }

    #[test]
    fn shadowing_distribution_plausible() {
        let sigma = 6.0;
        let n = 2000;
        let samples: Vec<f64> = (0..n)
            .map(|i| link_shadowing_db(sigma, 7, i, i + 1))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.5, "mean = {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.5, "std = {}", var.sqrt());
    }

    #[test]
    fn shadow_tail_budget_is_asserted() {
        // The documented bounded-tail error budget: the Mills-ratio bound
        // on the clipped Gaussian mass must stay below 3.5e-5, and the
        // empirical clip rate of the link-shadowing hash must respect it
        // (sampling slack: 3x the bound over 2e6 links).
        let budget = shadow_tail_error_budget();
        assert!(budget < 3.5e-5, "budget = {budget}");
        assert!(budget > 3.0e-5, "Mills bound should be tight: {budget}");
        let sigma = 6.0;
        let n: usize = 2_000_000;
        let max = SHADOW_TAIL_SIGMAS * sigma;
        let mut clipped = 0u64;
        for i in 0..n {
            let s = link_shadowing_db(sigma, 11, i, i + n);
            assert!(s <= max + 1e-12, "gain {s} exceeds bounded tail {max}");
            if s >= max - 1e-12 {
                clipped += 1;
            }
        }
        let rate = clipped as f64 / n as f64;
        assert!(rate <= 3.0 * budget, "clip rate {rate} vs budget {budget}");
        assert!(clipped > 0, "a 2e6-link sample should clip a few links");
    }

    #[test]
    fn max_decode_range_bounds_shadowed_links() {
        let mut r = RadioConfig::paper();
        assert_eq!(r.max_shadow_gain_db(), 0.0);
        assert_eq!(r.max_decode_range(r.default_tx_dbm), r.default_range());
        r.shadowing_sigma_db = 4.0;
        assert_eq!(r.max_shadow_gain_db(), 16.0);
        let bound = r.max_decode_range(r.default_tx_dbm);
        assert!(bound > r.default_range());
        // No link can decode beyond the bound: even the maximum clipped
        // gain leaves the received power exactly at sensitivity there.
        let rx_at_bound = r.path_loss.rx_dbm(r.default_tx_dbm, bound) + r.max_shadow_gain_db();
        assert!((rx_at_bound - r.rx_sensitivity_dbm).abs() < 1e-9);
    }

    #[test]
    fn colocated_nodes_do_not_blow_up() {
        let m = PathLoss::ns3_default();
        assert!(m.loss_db(0.0).is_finite());
        assert!(m.rx_dbm(16.0, 0.0).is_finite());
    }
}
