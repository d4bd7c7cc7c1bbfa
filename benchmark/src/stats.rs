//! Small statistics and process helpers shared by the workloads.

use std::time::Instant;

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond its nearest rank, with its value; `None` below 20
/// samples. Percentiles are in per-mille so the rank is exact.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|pm| n - (pm * n).div_ceil(1000) >= 10)
        .map(|pm| (pm as f64 / 10.0, quantile(v, pm as f64 / 1000.0)))
}

/// Geometric mean of strictly positive values.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(v.iter().all(|x| *x > 0.0), "geomean needs positive values");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One human-readable timing line: median, tail percentile and sample
/// count, as the benchmark notes ask of every timing.
pub fn timing_line(name: &str, unit: &str, samples: &[f64]) -> String {
    let tail = match tail(samples) {
        Some((p, v)) => format!("p{p} {v:.3} {unit}"),
        None => "no tail percentile (fewer than 20 samples)".to_string(),
    };
    format!(
        "{name}: median {:.3} {unit}, {tail}, n={}",
        median(samples),
        samples.len()
    )
}

/// Set-up wall times of one run. A workload times its set-up several
/// times before its measured phase and as many times after it, so the
/// median reflects the host over the whole run rather than over the
/// second or so before measuring starts.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs `f` `reps` times, timing each, and returns the product of the
    /// last repetition.
    pub fn sample<T>(&mut self, reps: usize, mut f: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let product = f();
            self.0.push(t0.elapsed().as_secs_f64());
            last = Some(product);
        }
        last.expect("at least one set-up")
    }

    /// Median of every set-up timed so far, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.0)
    }
}

/// Peak resident-set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// SplitMix64 of `seed` mixed with `tag`: derives independent input seeds
/// from the one workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..19]), None);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
