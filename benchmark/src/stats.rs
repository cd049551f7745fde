//! Estimators: percentiles with the "ten samples beyond" rule, per-slice
//! summaries, and the median over slices that every timing metric uses.
//!
//! Why slices, and why their median: the reference host (a shared 2-vCPU
//! VM) flips between a calm and a 30-45 % slower mode, and only ever in the
//! slow direction. A whole-run mean moves with the share of slow seconds;
//! the median of equal-count slice values stays in the calm cluster as long
//! as half the slices were calm (see README, noise study).

/// Samples that must lie beyond a percentile for it to be reported
/// (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// R-7 linear-interpolation quantile of an ascending slice (the same rule
/// as `irisobs::quantile_sorted` and Python's `statistics.quantiles`
/// inclusive method).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted_copy(values), 0.5)
}

/// Whether `n` samples support the `q`-quantile: at least
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    // floor with a guard against 200 * 0.05 = 10.000000000000009 vs 9.99...
    (n as f64 * (1.0 - q) + 1e-9).floor() as usize >= MIN_SAMPLES_BEYOND
}

/// First quartile, median, third quartile and the quartile distance as a
/// share of the median — the spread the acceptance rule is stated in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Spread {
    /// Exclusive-method quartiles, as Python's
    /// `statistics.quantiles(values, n=4)` gives them (the driver's rule).
    pub fn of(values: &[f64]) -> Spread {
        let s = sorted_copy(values);
        let n = s.len();
        assert!(n >= 2, "quartiles need two values");
        let at = |k: usize| {
            // position k*(n+1)/4, 1-based, clamped to the data
            let pos = k as f64 * (n + 1) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            s[j - 1] + (s[j] - s[j - 1]) * frac
        };
        Spread {
            q1: at(1),
            median: at(2),
            q3: at(3),
        }
    }

    /// `(q3 - q1) / median`; 0 when the median is 0.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One measured slice: a fixed number of consecutive user queries.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Seconds the slice took, every operation in it included.
    pub wall_s: f64,
    /// Per-query latencies in seconds, in issue order.
    pub latencies_s: Vec<f64>,
}

/// The three timing metrics, each the median over slices of the slice's
/// own value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceEstimates {
    pub qps: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// IQR of slice qps as a share of its median (host noise indicator).
    pub qps_spread: f64,
}

impl Slice {
    /// This slice's own `(qps, p50 ms, p95 ms)`.
    pub fn values(&self) -> (f64, f64, f64) {
        assert!(
            percentile_supported(self.latencies_s.len(), 0.95),
            "slice of {} queries cannot support p95",
            self.latencies_s.len()
        );
        let sorted = sorted_copy(&self.latencies_s);
        (
            sorted.len() as f64 / self.wall_s,
            quantile_sorted(&sorted, 0.50) * 1e3,
            quantile_sorted(&sorted, 0.95) * 1e3,
        )
    }
}

pub fn slice_estimates<'a>(slices: impl IntoIterator<Item = &'a Slice>) -> SliceEstimates {
    let (mut qps, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    for s in slices {
        let (q, m, t) = s.values();
        qps.push(q);
        p50.push(m);
        p95.push(t);
    }
    assert!(qps.len() >= 2, "need at least two slices");
    SliceEstimates {
        qps: median(&qps),
        p50_ms: median(&p50),
        p95_ms: median(&p95),
        qps_spread: Spread::of(&qps).iqr_share(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 needs 200 samples, p99 needs 1000.
        assert!(percentile_supported(200, 0.95));
        assert!(!percentile_supported(199, 0.95));
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(250, 0.99));
        assert!(percentile_supported(20, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn slice_median_ignores_a_slow_minority_and_sees_a_slow_majority() {
        let calm = Slice {
            wall_s: 1.0,
            latencies_s: vec![0.005; 200],
        };
        let slow = Slice {
            wall_s: 1.4,
            latencies_s: vec![0.007; 200],
        };
        // Four of ten slices ran while the host was 40 % slower: the mean
        // moves, the median over slices does not.
        let mut slices = vec![calm.clone(); 6];
        slices.extend(vec![slow.clone(); 4]);
        let m = slice_estimates(&slices);
        assert_eq!((m.qps, m.p50_ms, m.p95_ms), (200.0, 5.0, 5.0));
        let mean_qps = 2000.0 / 11.6;
        assert!(mean_qps < 0.9 * m.qps);
        assert!(
            m.qps_spread > 0.2,
            "the noise indicator sees the slow slices"
        );
        // A slow-down that reaches most slices is a change, not noise.
        let mut slices = vec![calm; 4];
        slices.extend(vec![slow; 6]);
        let m = slice_estimates(&slices);
        assert_eq!((m.qps, m.p50_ms, m.p95_ms), (200.0 / 1.4, 7.0, 7.0));
    }

    #[test]
    fn slice_values_are_per_slice_percentiles() {
        let mut lat: Vec<f64> = (1..=200).map(|i| i as f64 * 1e-3).collect();
        lat.reverse(); // order must not matter
        let s = Slice {
            wall_s: 2.0,
            latencies_s: lat,
        };
        let m = slice_estimates(&[s.clone(), s]);
        assert_eq!(m.qps, 100.0);
        assert!((m.p50_ms - 100.5).abs() < 1e-9);
        assert!((m.p95_ms - 190.05).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot support p95")]
    fn short_slice_is_refused() {
        let s = Slice {
            wall_s: 1.0,
            latencies_s: vec![0.001; 100],
        };
        slice_estimates(&[s.clone(), s]);
    }
}
