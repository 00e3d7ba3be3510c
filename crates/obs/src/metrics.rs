//! Lock-free metric primitives and the named registry behind `/metrics`.
//!
//! All update paths are single relaxed atomic operations — no locks, no
//! allocation, no panics — so they are safe to call from pool workers and
//! connection threads at any rate. The registry's mutex is touched only at
//! registration time (startup) and render time (a scrape), never on the
//! metric update path. Counts may be mutually inconsistent by a handful of
//! in-flight updates at render time; snapshots re-derive totals from the
//! bucket array so every rendered histogram is internally consistent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (queue depth, in-flight count).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per power of two of nanoseconds, so the
/// full `u64` nanosecond range (584 years) is covered with no configuration.
pub const HIST_BUCKETS: usize = 64;

/// A fixed-bucket log2 latency histogram on relaxed atomics.
///
/// Bucket `i` counts observations whose nanosecond value `v` satisfies
/// `ilog2(v) == i` (bucket 0 additionally holds `v == 0`), i.e. bucket `i`
/// spans `[2^i, 2^(i+1) - 1]` ns. Relative resolution is a factor of two
/// everywhere — coarse, but monotone, allocation-free, and mergeable — and
/// percentile queries return the bucket *bounds*, making the error explicit.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        let idx = if ns == 0 { 0 } else { ns.ilog2() as usize };
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one duration observation.
    pub fn observe(&self, d: Duration) {
        self.observe_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the bucket array, safe to query at leisure.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| {
                self.buckets.get(i).map_or(0, |b| b.load(Ordering::Relaxed))
            }),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Inclusive lower bound of bucket `i`, in nanoseconds.
pub(crate) fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i.min(63)
    }
}

/// Inclusive upper bound of bucket `i`, in nanoseconds.
pub(crate) fn bucket_hi(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (`buckets[i]` spans `[2^i, 2^(i+1))` ns).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all observed nanosecond values.
    pub sum_ns: u64,
}

impl HistSnapshot {
    /// Total observation count (derived from the buckets, so it is always
    /// consistent with them even under concurrent updates).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Nearest-rank percentile bounds: the `(lo, hi)` nanosecond range of
    /// the bucket containing the `p`-th percentile observation. The exact
    /// nearest-rank value over the same samples always lies in `[lo, hi]`.
    /// Returns `(0, 0)` for an empty histogram.
    pub fn percentile_bounds_ns(&self, p: f64) -> (u64, u64) {
        let n = self.count();
        if n == 0 {
            return (0, 0);
        }
        let p = p.clamp(0.0, 100.0);
        // Nearest-rank: rank = ceil(p/100 * n), clamped to [1, n].
        let rank = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return (bucket_lo(i), bucket_hi(i));
            }
        }
        // Unreachable when count() > 0, but stay total.
        (0, 0)
    }

    /// Conservative (upper-bound) nearest-rank percentile in nanoseconds.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        self.percentile_bounds_ns(p).1
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Clone)]
struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// A named collection of metrics renderable as Prometheus text.
///
/// Registration is idempotent: registering the same name with the same kind
/// returns the existing handle, so independent components can share a metric
/// by name. A name re-registered with a *different* kind yields a detached
/// handle (usable, but never rendered) rather than panicking or clobbering.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn find(entries: &[Entry], name: &str) -> Option<usize> {
        entries.iter().position(|e| e.name == name)
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut entries = self.lock();
        if let Some(i) = Self::find(&entries, name) {
            if let Some(Metric::Counter(c)) = entries.get(i).map(|e| &e.metric) {
                return Arc::clone(c);
            }
            return Arc::new(Counter::new());
        }
        let c = Arc::new(Counter::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut entries = self.lock();
        if let Some(i) = Self::find(&entries, name) {
            if let Some(Metric::Gauge(g)) = entries.get(i).map(|e| &e.metric) {
                return Arc::clone(g);
            }
            return Arc::new(Gauge::new());
        }
        let g = Arc::new(Gauge::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut entries = self.lock();
        if let Some(i) = Self::find(&entries, name) {
            if let Some(Metric::Histogram(h)) = entries.get(i).map(|e| &e.metric) {
                return Arc::clone(h);
            }
            return Arc::new(Histogram::new());
        }
        let h = Arc::new(Histogram::new());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            metric: Metric::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// Renders every registered metric as Prometheus text exposition,
    /// sorted by metric name for a stable scrape.
    pub fn render(&self) -> String {
        // Copy the handles out and format with no lock held.
        let mut entries = self.lock().clone();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out = String::new();
        for e in &entries {
            out.push_str(&format!("# HELP {} {}\n", e.name, e.help));
            out.push_str(&format!("# TYPE {} {}\n", e.name, e.metric.kind()));
            match &e.metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{} {}\n", e.name, c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{} {}\n", e.name, g.get()));
                }
                Metric::Histogram(h) => {
                    render_histogram(&mut out, &e.name, &h.snapshot());
                }
            }
        }
        out
    }
}

/// Renders one histogram in Prometheus exposition format: cumulative
/// `_bucket{le="..."}` lines (seconds) up to the highest populated bucket,
/// then `+Inf`, `_sum`, and `_count`.
fn render_histogram(out: &mut String, name: &str, snap: &HistSnapshot) {
    let count = snap.count();
    let top = snap
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map_or(0, |i| i.min(62));
    let mut cum = 0u64;
    for (i, &c) in snap.buckets.iter().enumerate().take(top + 1) {
        cum = cum.saturating_add(c);
        let le = bucket_hi(i) as f64 / 1e9;
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
    out.push_str(&format!("{name}_sum {}\n", snap.sum_ns as f64 / 1e9));
    out.push_str(&format!("{name}_count {count}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn histogram_bucket_placement() {
        let h = Histogram::new();
        h.observe_ns(0); // bucket 0
        h.observe_ns(1); // bucket 0
        h.observe_ns(2); // bucket 1
        h.observe_ns(3); // bucket 1
        h.observe_ns(1024); // bucket 10
        h.observe_ns(u64::MAX); // bucket 63
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[63], 1);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        // Each bucket's hi is one below the next bucket's lo; no gaps, no
        // overlap, and the last bucket reaches u64::MAX.
        for i in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_hi(i), bucket_lo(i + 1) - 1, "bucket {i}");
        }
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_hi(63), u64::MAX);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().percentile_bounds_ns(50.0), (0, 0));
        assert_eq!(h.snapshot().percentile_ns(99.0), 0);
    }

    #[test]
    fn percentile_bounds_bracket_exact_value() {
        let h = Histogram::new();
        let samples: Vec<u64> = vec![10, 20, 35, 900, 1_000_000, 5, 77, 77, 2, 450];
        for &v in &samples {
            h.observe_ns(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let s = h.snapshot();
        for p in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let (lo, hi) = s.percentile_bounds_ns(p);
            assert!(
                lo <= exact && exact <= hi,
                "p{p}: exact {exact} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn registry_is_idempotent_per_name_and_kind() {
        let r = Registry::new();
        let a = r.counter("x_total", "a counter");
        let b = r.counter("x_total", "a counter");
        assert!(Arc::ptr_eq(&a, &b));
        // Same name, different kind: detached handle, render unchanged.
        let h = r.histogram("x_total", "oops");
        h.observe_ns(5);
        a.inc();
        let text = r.render();
        assert_eq!(text.matches("# TYPE x_total").count(), 1);
        assert!(text.contains("x_total 1\n"));
    }

    #[test]
    fn render_shapes_prometheus_text() {
        let r = Registry::new();
        r.counter("ascend_requests_total", "requests").add(3);
        r.gauge("ascend_queue_depth", "depth").set(2);
        let h = r.histogram("ascend_latency_seconds", "latency");
        h.observe(Duration::from_micros(100));
        h.observe(Duration::from_micros(200));
        let text = r.render();
        // Rendered in name order, not registration order.
        let help: Vec<&str> = text.lines().filter(|l| l.starts_with("# HELP")).collect();
        assert_eq!(
            help,
            [
                "# HELP ascend_latency_seconds latency",
                "# HELP ascend_queue_depth depth",
                "# HELP ascend_requests_total requests",
            ]
        );
        assert!(text.contains("# TYPE ascend_requests_total counter"));
        assert!(text.contains("ascend_requests_total 3"));
        assert!(text.contains("# TYPE ascend_queue_depth gauge"));
        assert!(text.contains("ascend_queue_depth 2"));
        assert!(text.contains("# TYPE ascend_latency_seconds histogram"));
        assert!(text.contains("ascend_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ascend_latency_seconds_count 2"));
        // Buckets are cumulative and end at the total count.
        let bucket_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("ascend_latency_seconds_bucket"))
            .collect();
        let mut last = 0u64;
        for line in &bucket_lines {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone bucket line: {line}");
            last = v;
        }
        assert_eq!(last, 2);
    }
}
