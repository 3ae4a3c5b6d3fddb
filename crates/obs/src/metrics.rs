//! Named counters and fixed-bucket duration histograms.
//!
//! A [`Registry`] is a map from metric names to lock-free instruments:
//! every increment or recording after the first lookup is a handful of
//! atomic operations, so instruments can sit on hot paths. Call sites that
//! fire per batch or per kernel should cache the [`Counter`]/[`Histogram`]
//! handle (e.g. in a `OnceLock`) instead of looking it up each time — the
//! lookup takes the registry's map lock.
//!
//! Histograms use fixed power-of-two buckets over nanoseconds
//! ([`HIST_BUCKETS`] of them), which keeps recording allocation-free and
//! makes snapshots mergeable; quantiles are linearly interpolated within
//! the bucket containing the requested rank (and clamped to the observed
//! maximum, so a single-recording histogram reports its exact value).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use tdfm_json::json_struct;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the count to at least `n` — a high-water mark (peak bytes,
    /// say) that stays monotonic like every other count.
    pub fn raise_to(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` counts durations whose
/// nanosecond value is `< 2^(i+1)` (and at least `2^i`, except bucket 0).
/// `2^47` ns is about 39 hours, far beyond any single cell or sweep.
pub const HIST_BUCKETS: usize = 48;

/// A fixed-bucket histogram of wall-clock durations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    fn bucket_index(nanos: u64) -> usize {
        // Bucket i covers [2^i, 2^(i+1)) ns; 0 and 1 ns share bucket 0.
        ((64 - nanos.max(1).leading_zeros()) as usize - 1).min(HIST_BUCKETS - 1)
    }

    /// Upper bound of bucket `i` in seconds.
    fn bucket_upper_seconds(i: usize) -> f64 {
        (1u64 << (i + 1).min(63)) as f64 * 1e-9
    }

    /// Lower bound of bucket `i` in seconds (bucket 0 starts at zero:
    /// 0 ns and 1 ns recordings both land there).
    fn bucket_lower_seconds(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            (1u64 << i.min(63)) as f64 * 1e-9
        }
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Records a duration given in (non-negative, finite) seconds.
    pub fn record_secs(&self, seconds: f64) {
        if seconds.is_finite() && seconds >= 0.0 {
            self.record(Duration::from_secs_f64(seconds));
        }
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean recorded duration in seconds (0 when empty).
    pub fn mean_seconds(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum_nanos.load(Ordering::Relaxed) as f64 * 1e-9 / count as f64
    }

    /// Largest recorded duration in seconds.
    pub fn max_seconds(&self) -> f64 {
        self.max_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// The `q`-quantile (`0 < q <= 1`) in seconds, estimated by linear
    /// interpolation inside the power-of-two bucket holding that rank: the
    /// rank's recordings are assumed uniform over the bucket, so rank `r`
    /// of `n` in-bucket recordings sits at fraction `(r - 0.5) / n` of the
    /// bucket's width. The estimate is clamped to the observed maximum —
    /// a single-recording histogram therefore reports its exact value for
    /// every quantile instead of its bucket's upper bound. Returns 0 when
    /// empty.
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        if rank >= count {
            // The top rank is the observed maximum itself; interpolating
            // would report the middle of its bucket instead.
            return self.max_seconds();
        }
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket > 0 && seen + in_bucket >= rank {
                let lo = Self::bucket_lower_seconds(i);
                let hi = Self::bucket_upper_seconds(i);
                let frac = ((rank - seen) as f64 - 0.5) / in_bucket as f64;
                let estimate = lo + frac * (hi - lo);
                return estimate.min(self.max_seconds());
            }
            seen += in_bucket;
        }
        self.max_seconds()
    }

    /// Snapshot of this histogram under `name`.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            mean_seconds: self.mean_seconds(),
            p50_seconds: self.quantile_seconds(0.50),
            p90_seconds: self.quantile_seconds(0.90),
            p99_seconds: self.quantile_seconds(0.99),
            max_seconds: self.max_seconds(),
        }
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Count at snapshot time.
    pub value: u64,
}

json_struct!(CounterSnapshot { name, value });

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of recordings.
    pub count: u64,
    /// Mean duration, seconds.
    pub mean_seconds: f64,
    /// Median, interpolated within its bucket, seconds.
    pub p50_seconds: f64,
    /// 90th percentile, interpolated within its bucket, seconds.
    pub p90_seconds: f64,
    /// 99th percentile, interpolated within its bucket, seconds.
    pub p99_seconds: f64,
    /// Largest recording, seconds.
    pub max_seconds: f64,
}

json_struct!(HistogramSnapshot {
    name,
    count,
    mean_seconds,
    p50_seconds,
    p90_seconds,
    p99_seconds,
    max_seconds
});

/// Every instrument of a [`Registry`] at one point in time, sorted by
/// name — the `metrics` section of a run manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, by name.
    pub histograms: Vec<HistogramSnapshot>,
}

json_struct!(MetricsSnapshot {
    counters,
    histograms
});

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Merges `other` into `self`: counters with the same name add up,
    /// histograms with the same name keep the one with more recordings
    /// (bucket-level merging is not needed by any current caller).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|mine| mine.name == c.name) {
                Some(mine) => mine.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|mine| mine.name == h.name) {
                Some(mine) => {
                    if h.count > mine.count {
                        *mine = h.clone();
                    }
                }
                None => self.histograms.push(h.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

/// A named collection of counters and histograms.
///
/// The process-wide registry is [`crate::global`]; components that need
/// isolated counts (e.g. one experiment runner among several in the same
/// process) own their own `Registry`.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map poisoned");
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::new());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Snapshots every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Drops every instrument (tests only — outstanding handles keep
    /// counting into instruments that are no longer reachable by name).
    pub fn clear(&self) {
        self.counters.lock().expect("counter map poisoned").clear();
        self.histograms
            .lock()
            .expect("histogram map poisoned")
            .clear();
    }
}

/// The process-wide metrics registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_up() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.counter("a").add(4);
        assert_eq!(reg.counter("a").get(), 5);
        assert_eq!(reg.counter("b").get(), 0);
    }

    #[test]
    fn raise_to_keeps_the_high_water_mark() {
        let c = Counter::new();
        c.raise_to(7);
        c.raise_to(3);
        assert_eq!(c.get(), 7);
        c.raise_to(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_summarises() {
        let h = Histogram::new();
        for micros in [1u64, 2, 4, 1000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 4);
        let mean = h.mean_seconds();
        assert!((mean - 1007e-6 / 4.0).abs() < 1e-9, "mean {mean}");
        // p50 interpolates inside the bucket of the 2 µs sample
        // ([1024 ns, 2048 ns)) instead of snapping to its upper bound.
        let p50 = h.quantile_seconds(0.5);
        assert!((1024e-9..2048e-9).contains(&p50), "p50 {p50}");
        // The top rank is the exact maximum, not a bucket bound.
        assert!((h.quantile_seconds(1.0) - 1e-3).abs() < 1e-9);
        assert!(h.max_seconds() >= 1e-3);
    }

    #[test]
    fn quantiles_interpolate_within_the_winning_bucket() {
        // 100 recordings spread over bucket [1024 ns, 2048 ns).
        let h = Histogram::new();
        for i in 0..100u64 {
            h.record(Duration::from_nanos(1024 + i * 10));
        }
        let p50 = h.quantile_seconds(0.50);
        let p90 = h.quantile_seconds(0.90);
        // Rank 50 of 100 sits at fraction (50 - 0.5)/100 of the bucket.
        let expected_p50 = 1024e-9 + 0.495 * 1024e-9;
        assert!((p50 - expected_p50).abs() < 1e-12, "p50 {p50}");
        assert!(p50 < p90, "interpolated ranks are monotonic");
        // High ranks clamp to the observed maximum (2014 ns) rather than
        // extrapolating past every recording.
        assert!((h.quantile_seconds(0.99) - 2014e-9).abs() < 1e-12);
    }

    #[test]
    fn single_recording_reports_its_exact_value_at_every_quantile() {
        let h = Histogram::new();
        h.record(Duration::from_nanos(1500));
        for q in [0.5, 0.9, 0.99, 1.0] {
            let got = h.quantile_seconds(q);
            assert!((got - 1500e-9).abs() < 1e-12, "q={q} got {got}");
        }
    }

    #[test]
    fn empty_histogram_quantiles_are_exactly_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_seconds(q), 0.0, "q={q}");
        }
        assert_eq!(h.snapshot("empty").p50_seconds, 0.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_seconds(), 0.0);
        assert_eq!(h.quantile_seconds(0.99), 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_serialisable() {
        let reg = Registry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").add(2);
        reg.histogram("lat").record(Duration::from_millis(3));
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "alpha");
        assert_eq!(snap.counters[1].name, "zeta");
        assert_eq!(snap.counter("zeta"), Some(1));
        let text = tdfm_json::to_string(&snap);
        let back: MetricsSnapshot = tdfm_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn merge_adds_counters_and_keeps_fuller_histograms() {
        let a = Registry::new();
        a.counter("x").add(2);
        a.histogram("h").record(Duration::from_millis(1));
        let b = Registry::new();
        b.counter("x").add(3);
        b.counter("y").inc();
        let h = b.histogram("h");
        h.record(Duration::from_millis(1));
        h.record(Duration::from_millis(2));
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("x"), Some(5));
        assert_eq!(snap.counter("y"), Some(1));
        assert_eq!(snap.histograms[0].count, 2);
    }
}
