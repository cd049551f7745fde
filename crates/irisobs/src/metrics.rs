//! Lock-free named metric series: counters and log2-bucket histograms.
//!
//! The hot path never takes a lock: callers hold `Arc<Counter>` /
//! `Arc<Histogram>` handles resolved once at registration time, and every
//! update is a single relaxed atomic op. The [`Registry`] map itself is
//! behind an `RwLock`, but it is only touched at registration and snapshot
//! time, never per-message.
//!
//! Histograms bucket a nanosecond-resolution fixed point (`value × 1e9`)
//! by its top two mantissa bits past the leading one: four linear
//! sub-buckets per power of two, 252 buckets spanning sub-nanosecond to
//! centuries — the classic HDR-lite trade: ≤ 1.25× relative error per
//! bucket, zero allocation, zero contention beyond the bucket increment
//! itself. (Pure log2 bucketing collapsed all sub-millisecond latencies
//! of one octave into a single bucket, biasing p50 on fast paths by up
//! to 2×.) The same shape serves durations (seconds in, seconds out) and
//! small dimensionless gauges like queue depth.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value. For counters that mirror an externally-owned
    /// tally published at snapshot time (not for hot-path increments).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// Number of buckets: four exact buckets for fixed-point values 0–3,
/// then four linear sub-buckets per power of two up to `2^64`. Bucket
/// `4(m-1)+s` (for `m ≥ 2`, `s ∈ 0..4`) covers fixed-point values in
/// `[2^(m-2)·(4+s), 2^(m-2)·(5+s))`.
pub const HIST_BUCKETS: usize = 252;

/// A lock-free log2-bucket histogram over non-negative `f64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    /// Sum of fixed-point (×1e9) sample values, for exact means.
    sum_fp: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_fp: AtomicU64::new(0),
        }
    }
}

/// Fixed-point encode: nanosecond resolution for second-denominated values.
fn to_fp(v: f64) -> u64 {
    (v.max(0.0) * 1e9) as u64
}

/// Bucket index of a fixed-point sample: the octave (position of the
/// leading one bit) refined by the next two bits, so each power of two
/// splits into four linear sub-buckets.
pub fn bucket_of(fp: u64) -> usize {
    if fp < 4 {
        return fp as usize; // exact buckets for 0..4
    }
    let m = 63 - fp.leading_zeros() as usize; // 2^m <= fp < 2^(m+1), m >= 2
    let sub = ((fp >> (m - 2)) & 3) as usize; // next two bits: 0..4
    4 * (m - 1) + sub
}

/// Upper edge of bucket `i`, decoded back to the sample domain. The edge
/// is exclusive: every sample in bucket `i` is strictly below it, and at
/// most 1.25× below it.
pub fn bucket_upper(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else if i < 4 {
        (i + 1) as f64 / 1e9 // buckets 1..4 each hold one exact value
    } else {
        let m = i / 4 + 1;
        let s = i % 4;
        // (5+s)·2^(m-2); u128 because m=63, s=3 reaches 2^64.
        (((5 + s) as u128) << (m - 2)) as f64 / 1e9
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    #[inline]
    pub fn observe(&self, v: f64) {
        let fp = to_fp(v);
        self.buckets[bucket_of(fp)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_fp.fetch_add(fp, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact mean of observed samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_fp.load(Ordering::Relaxed) as f64 / 1e9 / n as f64
        }
    }

    /// Approximate `q`-quantile: the upper edge of the bucket containing
    /// the q-th sample (≤ 1.25× relative error by construction).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    /// Non-empty buckets as `(bucket index, count)`.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((i, c))
            })
            .collect()
    }
}

/// Point-in-time value of one counter series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub site: u32,
    pub name: String,
    pub value: u64,
}

/// Point-in-time value of one histogram series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub site: u32,
    pub name: String,
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    pub buckets: Vec<(usize, u64)>,
}

/// All series at one instant, sorted by `(site, name)`.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of counter `name` at `site`, 0 if absent.
    pub fn counter(&self, site: u32, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.site == site && c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Sum of counter `name` across all sites.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|c| c.name == name).map(|c| c.value).sum()
    }

    /// The histogram series `name` at `site`, if it was ever observed.
    pub fn histogram(&self, site: u32, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.site == site && h.name == name)
    }

    /// All histogram series at `site` whose name starts with `prefix`, as
    /// `(full name, snapshot)` pairs — the per-shard runtime series
    /// (`runtime.shard<i>.*`) are enumerated this way without knowing the
    /// shard count up front, and the returned name says which shard each
    /// snapshot belongs to (callers used to have to re-infer that from
    /// position).
    pub fn histograms_with_prefix(
        &self,
        site: u32,
        prefix: &str,
    ) -> Vec<(&str, &HistogramSnapshot)> {
        self.histograms
            .iter()
            .filter(|h| h.site == site && h.name.starts_with(prefix))
            .map(|h| (h.name.as_str(), h))
            .collect()
    }
}

/// A per-site registry of named series. Site 0 is reserved for
/// cluster-global series (client hub, substrate internals).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<(u32, String), Arc<Counter>>>,
    histograms: RwLock<BTreeMap<(u32, String), Arc<Histogram>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-create the counter `(site, name)`, returning a hot-path
    /// handle. Call once at setup; update through the handle.
    pub fn counter(&self, site: u32, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().unwrap().get(&(site, name.to_string())) {
            return Arc::clone(c);
        }
        let mut w = self.counters.write().unwrap();
        Arc::clone(
            w.entry((site, name.to_string()))
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get-or-create the histogram `(site, name)`.
    pub fn histogram(&self, site: u32, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(&(site, name.to_string())) {
            return Arc::clone(h);
        }
        let mut w = self.histograms.write().unwrap();
        Arc::clone(
            w.entry((site, name.to_string()))
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// The series of a single site, sorted by name. O(series at that
    /// site) via the BTreeMap key order — this is what the telemetry
    /// plane samples per quiescent point, so it must not scan the whole
    /// cluster's registry.
    pub fn snapshot_site(&self, site: u32) -> MetricsSnapshot {
        let from = (site, String::new());
        let counters = self
            .counters
            .read()
            .unwrap()
            .range(from.clone()..)
            .take_while(|((s, _), _)| *s == site)
            .map(|((site, name), c)| CounterSnapshot {
                site: *site,
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap()
            .range(from..)
            .take_while(|((s, _), _)| *s == site)
            .map(|((site, name), h)| HistogramSnapshot {
                site: *site,
                name: name.clone(),
                count: h.count(),
                mean: h.mean(),
                p50: h.quantile(0.5),
                p99: h.quantile(0.99),
                buckets: h.nonzero_buckets(),
            })
            .collect();
        MetricsSnapshot { counters, histograms }
    }

    /// All series, sorted by `(site, name)` for deterministic export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|((site, name), c)| CounterSnapshot {
                site: *site,
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|((site, name), h)| HistogramSnapshot {
                site: *site,
                name: name.clone(),
                count: h.count(),
                mean: h.mean(),
                p50: h.quantile(0.5),
                p99: h.quantile(0.99),
                buckets: h.nonzero_buckets(),
            })
            .collect();
        MetricsSnapshot { counters, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_are_log2_with_linear_subscale() {
        // Exact buckets below 4, then four sub-buckets per octave.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 3);
        assert_eq!(bucket_of(4), 4);
        assert_eq!(bucket_of(7), 7);
        assert_eq!(bucket_of(8), 8);
        assert_eq!(bucket_of(9), 8);
        assert_eq!(bucket_of(10), 9);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Upper edges decode back into the sample domain.
        assert_eq!(bucket_upper(0), 0.0);
        assert_eq!(bucket_upper(1), 2e-9);
        assert_eq!(bucket_upper(4), 5e-9);
        assert_eq!(bucket_upper(8), 1e-8);
        // bucket_of and bucket_upper agree: each sample sits strictly
        // below its bucket's upper edge and at/above the previous one's.
        // (u64::MAX itself is excluded: it rounds to exactly 2^64 in f64
        // and so ties, rather than undercuts, the top bucket's edge.)
        for fp in [1u64, 5, 100, 12_345, 1 << 40, (1 << 63) + 12_345] {
            let i = bucket_of(fp);
            assert!((fp as f64 / 1e9) < bucket_upper(i), "fp={fp}");
            if i > 0 {
                assert!((fp as f64 / 1e9) >= bucket_upper(i - 1) - 1e-18, "fp={fp}");
            }
        }
    }

    #[test]
    fn sub_millisecond_latencies_stay_distinguishable() {
        // 300µs and 400µs share an octave (2^18 ≤ fp < 2^19): pure log2
        // bucketing collapsed them, the sub-scale keeps them apart.
        let (a, b) = (to_fp(3e-4), to_fp(4e-4));
        assert_eq!(63 - a.leading_zeros(), 63 - b.leading_zeros(), "same octave");
        assert_ne!(bucket_of(a), bucket_of(b), "distinct sub-buckets");
    }

    #[test]
    fn histogram_quantile_error_is_within_a_quarter() {
        // The estimate always bounds the true value from above, by ≤ 1.25×.
        for v in [2.5e-7, 3e-4, 0.123, 0.9, 17.0] {
            let h = Histogram::new();
            for _ in 0..100 {
                h.observe(v);
            }
            let est = h.quantile(0.5);
            assert!(est > v, "estimate {est} not above true {v}");
            assert!(est <= v * 1.250_001, "estimate {est} > 1.25× true {v}");
        }
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64 * 1e-3); // 1ms .. 1s
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 0.5005).abs() < 1e-6);
        let p50 = h.quantile(0.5);
        // Bucket upper edge: true p50 is 0.5s, the estimate must be within
        // [0.5, 1.0) (≤2× error, never below the true quantile).
        assert!((0.5..1.0).contains(&p50), "p50 estimate {p50}");
        let p99 = h.quantile(0.99);
        assert!((0.99..2.0).contains(&p99), "p99 estimate {p99}");
        assert!(h.quantile(1.0) >= 1.0);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        h.observe(0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1)]);
    }

    #[test]
    fn registry_shares_storage() {
        let r = Registry::new();
        let a = r.counter(1, "asks");
        let b = r.counter(1, "asks");
        a.add(3);
        assert_eq!(b.get(), 3);
        assert_eq!(r.snapshot().counter(1, "asks"), 3);
        assert_eq!(r.snapshot().counter(2, "asks"), 0);
    }

    #[test]
    fn snapshot_is_sorted() {
        let r = Registry::new();
        r.counter(2, "b");
        r.counter(1, "z");
        r.counter(1, "a");
        let keys: Vec<(u32, String)> =
            r.snapshot().counters.into_iter().map(|c| (c.site, c.name)).collect();
        assert_eq!(
            keys,
            vec![(1, "a".into()), (1, "z".into()), (2, "b".into())]
        );
    }

    #[test]
    fn snapshot_site_is_exactly_that_sites_series() {
        let r = Registry::new();
        r.counter(1, "a").add(1);
        r.counter(2, "a").add(2);
        r.counter(2, "b").add(3);
        r.counter(3, "a").add(4);
        r.histogram(2, "lat").observe(0.1);
        r.histogram(3, "lat").observe(0.2);
        let s = r.snapshot_site(2);
        assert_eq!(
            s.counters.iter().map(|c| (c.name.as_str(), c.value)).collect::<Vec<_>>(),
            vec![("a", 2), ("b", 3)]
        );
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].count, 1);
        assert!(r.snapshot_site(9).counters.is_empty());
    }

    #[test]
    fn histograms_with_prefix_names_the_match() {
        let r = Registry::new();
        r.histogram(0, "runtime.shard0.mailbox_wait").observe(0.1);
        r.histogram(0, "runtime.shard1.mailbox_wait").observe(0.2);
        r.histogram(0, "other").observe(0.3);
        let s = r.snapshot();
        let got = s.histograms_with_prefix(0, "runtime.shard");
        let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["runtime.shard0.mailbox_wait", "runtime.shard1.mailbox_wait"]
        );
        for (name, h) in got {
            assert_eq!(name, h.name, "pair name matches the snapshot it labels");
            assert_eq!(h.count, 1);
        }
    }

    #[test]
    fn counter_total_sums_sites() {
        let r = Registry::new();
        r.counter(1, "retries").add(2);
        r.counter(2, "retries").add(3);
        assert_eq!(r.snapshot().counter_total("retries"), 5);
    }
}
