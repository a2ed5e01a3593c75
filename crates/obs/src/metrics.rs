//! Lock-light metrics: atomic counters, gauges and fixed log-bucket
//! latency histograms, handed out by name from a [`Registry`].
//!
//! The registry lock is only taken to *resolve a name to a handle*
//! (typically once per metric per owner, cached in a field); every
//! update after that is a single atomic RMW on the shared handle, so
//! hot paths never contend on the registry itself.
//!
//! Histograms bucket by powers of two (bucket `i ≥ 1` covers
//! `[2^(i-1), 2^i)`, bucket 0 is the value 0), which keeps recording to
//! one `leading_zeros` + one atomic increment and bounds the quantile
//! error of a snapshot to the bucket width: a reported p95 is exact to
//! within its power-of-two bracket, refined by linear interpolation and
//! clamped to the observed min/max. Values are unitless `u64`s; the
//! workspace convention is **nanoseconds** for latency histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (occupancy, queue depth, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (negative to decrease).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: bucket 0 for the value 0, bucket `i` for
/// `[2^(i-1), 2^i)` up to `i = 64` (which closes at `u64::MAX`).
const BUCKETS: usize = 65;

/// A fixed log-bucket histogram of `u64` observations (by convention,
/// latencies in nanoseconds). Recording is two relaxed atomic adds plus
/// one per-bucket increment; snapshots are taken live without stopping
/// writers (see [`Histogram::snapshot`] for the consistency contract).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index of a value.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The value range `[lo, hi]` a bucket covers.
fn bucket_range(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else {
        (1u64 << (i - 1), if i >= 64 { u64::MAX } else { (1u64 << i) - 1 })
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time summary with interpolated p50/p95/p99.
    ///
    /// Concurrent writers are not stopped: the summary is *torn-read
    /// consistent* — each field is individually correct at some instant
    /// during the call, but `count`/`sum`/quantiles may disagree by the
    /// handful of observations recorded while it ran. Good enough for a
    /// live `/stats` poll; never used to prove exact invariants.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let (min, max) = if count == 0 { (0, 0) } else { (min, max) };
        let q = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if seen + c >= rank {
                    let (lo, hi) = bucket_range(i);
                    let frac = (rank - seen) as f64 / c as f64;
                    let v = lo as f64 + frac * (hi.saturating_sub(lo)) as f64;
                    return (v as u64).clamp(min, max);
                }
                seen += c;
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
        }
    }
}

/// A point-in-time histogram summary (see [`Histogram::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Median, interpolated within its log bucket.
    pub p50: u64,
    /// 95th percentile, interpolated within its log bucket.
    pub p95: u64,
    /// 99th percentile, interpolated within its log bucket.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One named metric handle (what a [`Registry`] stores).
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named metrics registry. Clone the `Arc` handles out once and
/// update them lock-free; the map lock guards only name resolution and
/// whole-registry snapshots.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().expect("registry mutex poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().expect("registry mutex poisoned");
        match m.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().expect("registry mutex poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// A point-in-time snapshot of every registered metric, in name
    /// order. Same torn-read consistency as [`Histogram::snapshot`]:
    /// the registry lock pins the *set* of metrics, not their values.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let m = self.metrics.lock().expect("registry mutex poisoned");
        RegistrySnapshot {
            metrics: m
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "a counter",
        Metric::Gauge(_) => "a gauge",
        Metric::Histogram(_) => "a histogram",
    }
}

/// One snapshotted metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// A point-in-time view of a whole [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs in name order.
    pub metrics: Vec<(String, MetricValue)>,
}

impl RegistrySnapshot {
    /// Looks up a snapshotted value by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// A counter's value, or `None` if absent / not a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// A gauge's value, or `None` if absent / not a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's summary, or `None` if absent / not a histogram.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(*h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn bucket_layout_covers_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert!(lo <= hi);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_accurate_and_ordered() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // Exact rank values are 500 / 950 / 990; a log-bucket estimate
        // must land inside the bracketing power-of-two bucket.
        assert!((256..=511).contains(&s.p50), "p50 {}", s.p50);
        assert!((512..=1000).contains(&s.p95), "p95 {}", s.p95);
        assert!((512..=1000).contains(&s.p99), "p99 {}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_single_value_is_exact() {
        let h = Histogram::new();
        h.record(42);
        let s = h.snapshot();
        assert_eq!((s.min, s.max, s.p50, s.p95, s.p99), (42, 42, 42, 42, 42));
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn registry_hands_out_shared_handles_and_sorted_snapshots() {
        let reg = Registry::new();
        let a = reg.counter("he.rotations");
        let b = reg.counter("he.rotations");
        a.add(3);
        assert_eq!(b.get(), 3, "same name must be the same cell");
        reg.gauge("serve.workers.active").set(2);
        reg.histogram("phase.online.ns").record(100);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(snap.counter("he.rotations"), Some(3));
        assert_eq!(snap.gauge("serve.workers.active"), Some(2));
        assert_eq!(snap.histogram("phase.online.ns").map(|h| h.count), Some(1));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
