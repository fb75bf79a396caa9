//! Lock-free metrics: counters, gauges, log-linear histograms, and a
//! registry that exports them as Prometheus text or JSON.
//!
//! All recording paths are single relaxed atomic operations — safe to call
//! from every serve worker concurrently with readers. Snapshots taken while
//! writers are active are per-atomic consistent (each value is a real value
//! that counter held) but not a cross-counter atomic cut; exact cross-metric
//! reconciliation holds once writers are quiescent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Values below this each have a bucket of their own.
const EXACT: u64 = 16;

/// Sub-buckets per octave (`[2^e, 2^(e+1))`) at and above [`EXACT`].
const SUB_BUCKETS: usize = 8;

/// Number of histogram buckets: log-linear, exact below 16, then 8 equal
/// sub-buckets per octave up to `u64::MAX`.
///
/// Bucket `i < 16` holds exactly the value `i`. Above that, octave
/// `[2^e, 2^(e+1))` (`e = 4..=63`) is cut into 8 buckets `2^(e-3)` wide, so
/// a bucket's upper bound is at most 1.125× any value in it: that bounds
/// the relative quantile error. Bucket indexing is a `leading_zeros` and a
/// shift — no search, no configuration.
pub const BUCKETS: usize = EXACT as usize + (64 - 4) * SUB_BUCKETS;

/// Inclusive `[lo, hi]` value range covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < EXACT as usize {
        return (i as u64, i as u64);
    }
    let j = i - EXACT as usize;
    // Octave `[2^e, 2^(e+1))`, sub-bucket `sub` of it, `2^(e-3)` wide.
    let (e, sub) = (j / SUB_BUCKETS + 4, (j % SUB_BUCKETS) as u64);
    let lo = (SUB_BUCKETS as u64 + sub) << (e - 3);
    (lo, lo + ((1u64 << (e - 3)) - 1))
}

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize;
    // The three bits below the leading one pick the sub-bucket.
    let sub = (v >> (e - 3)) as usize & (SUB_BUCKETS - 1);
    EXACT as usize + (e - 4) * SUB_BUCKETS + sub
}

/// Lock-free log-linear-bucketed histogram ([`BUCKETS`]).
///
/// `record` is three relaxed atomic RMWs; snapshots are mergeable across
/// worker threads and over time.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`], mergeable and queryable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub counts: [u64; BUCKETS],
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Combine two snapshots (e.g. per-worker histograms into a pool-wide
    /// view). Associative and commutative. `sum` wraps on overflow — the
    /// same modular semantics `Histogram::record`'s atomic `fetch_add`
    /// has, so merging N worker snapshots equals one histogram that saw
    /// every observation, bit for bit.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].wrapping_add(other.counts[i])),
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (clamped by the exact recorded maximum). Returns 0 on an empty
    /// histogram. The true quantile lies within the returned bucket's
    /// range, i.e. the estimate is exact below 16 and at most 1.125× the
    /// true value above.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// One exported metric sample.
///
/// The `Histogram` variant inlines its ~4 KB snapshot rather than
/// boxing it: samples only exist transiently during a scrape, never in
/// bulk.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSnapshot),
}

struct Metric {
    name: String,
    help: String,
    collect: Box<dyn Fn() -> MetricValue + Send + Sync>,
}

/// A set of named metrics, each backed by a collector closure.
///
/// Collectors read the *same* atomics the stats structs read, so the
/// exported totals reconcile exactly with `PoolStats` / `CacheStats`
/// whenever writers are quiescent. The registry mutex guards only the
/// metric list — registration and export — never a recording hot path.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Vec<Metric>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a collector. `name` should be a valid Prometheus metric
    /// name (`[a-zA-Z_][a-zA-Z0-9_]*`); counters conventionally end in
    /// `_total`.
    pub fn register(
        &self,
        name: impl Into<String>,
        help: impl Into<String>,
        collect: impl Fn() -> MetricValue + Send + Sync + 'static,
    ) {
        self.metrics.lock().unwrap().push(Metric {
            name: name.into(),
            help: help.into(),
            collect: Box::new(collect),
        });
    }

    /// Sample every collector.
    pub fn collect(&self) -> Vec<(String, String, MetricValue)> {
        self.metrics
            .lock()
            .unwrap()
            .iter()
            .map(|m| (m.name.clone(), m.help.clone(), (m.collect)()))
            .collect()
    }

    /// Sample one metric by name.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.metrics
            .lock()
            .unwrap()
            .iter()
            .find(|m| m.name == name)
            .map(|m| (m.collect)())
    }

    /// Render all metrics in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, help, value) in self.collect() {
            out.push_str(&format!("# HELP {name} {help}\n"));
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cumulative = 0u64;
                    for (i, &c) in h.counts.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let le = bucket_bounds(i).1;
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                    out.push_str(&format!("{name}_sum {}\n", h.sum));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }

    /// Render all metrics as a JSON object keyed by metric name.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        let samples = self.collect();
        for (i, (name, _, value)) in samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "\"{name}\":{{\"type\":\"counter\",\"value\":{v}}}"
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("\"{name}\":{{\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "\"{name}\":{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        h.count(),
                        h.sum,
                        h.max,
                        h.p50(),
                        h.p95(),
                        h.p99()
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_cover_u64_contiguously() {
        assert_eq!(bucket_bounds(0), (0, 0));
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, bucket_bounds(i - 1).1.wrapping_add(1));
            assert!(lo <= hi);
        }
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn record_lands_in_its_bucket() {
        for v in [0u64, 1, 2, 3, 4, 15, 16, 17, 31, 32, 1023, 1024, u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            let snap = h.snapshot();
            let i = snap.counts.iter().position(|&c| c == 1).unwrap();
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} not in bucket {i} [{lo},{hi}]");
        }
    }

    #[test]
    fn quantiles_bounded_by_max() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum, 1060);
        assert_eq!(s.max, 1000);
        assert!(s.p50() >= 10 && s.p50() <= 31);
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(HistogramSnapshot::empty().p99(), 0);
    }

    #[test]
    fn registry_exports_prometheus_and_json() {
        let reg = Registry::new();
        let c = std::sync::Arc::new(Counter::new());
        c.add(5);
        let cc = c.clone();
        reg.register("test_events_total", "events", move || {
            MetricValue::Counter(cc.get())
        });
        let h = std::sync::Arc::new(Histogram::new());
        h.record(3);
        h.record(300);
        let hh = h.clone();
        reg.register("test_latency_us", "latency", move || {
            MetricValue::Histogram(hh.snapshot())
        });
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE test_events_total counter"));
        assert!(text.contains("test_events_total 5"));
        assert!(text.contains("# TYPE test_latency_us histogram"));
        assert!(text.contains("test_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("test_latency_us_sum 303"));
        assert!(text.contains("test_latency_us_count 2"));
        let json = reg.json();
        assert!(json.contains("\"test_events_total\":{\"type\":\"counter\",\"value\":5}"));
        assert!(json.contains("\"count\":2"));
        assert!(matches!(
            reg.get("test_events_total"),
            Some(MetricValue::Counter(5))
        ));
    }
}
