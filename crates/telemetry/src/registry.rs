//! The metrics registry: counters, gauges, fixed-bucket histograms, and
//! volatile wall-clock durations.
//!
//! Metric names are dotted paths (`grader.searches`, `ra.eval.rows_scanned`).
//! Each kind lives in its own namespace, so a counter and a histogram may
//! share a name without colliding, though instrumentation here never does.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::escape_json;

/// Bucket upper bounds (inclusive) shared by every histogram: powers of two up
/// to 4096, with a final overflow bucket. Fixed bounds keep bucket *counts*
/// deterministic — only the number of observations in each bucket is stored,
/// never a quantile estimate.
pub const HISTOGRAM_BOUNDS: [u64; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

#[derive(Debug, Default, Clone)]
struct Histogram {
    /// One count per bound in [`HISTOGRAM_BOUNDS`], plus a trailing overflow
    /// bucket for observations above the last bound.
    buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
    count: u64,
    sum: u64,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        let idx = HISTOGRAM_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }
}

#[derive(Debug, Default, Clone)]
struct DurationTotal {
    count: u64,
    total: Duration,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    durations: BTreeMap<String, DurationTotal>,
}

/// A global-free registry of metrics. Thread-safe; intended to be shared via
/// `Arc` (usually through a [`MetricsHandle`]).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (created at zero on first touch).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Increment the named counter by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Read a counter; zero if it has never been touched.
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge to `value`.
    ///
    /// This is the right primitive for **occupancy** gauges (queue depth,
    /// warm-session count): the gauge reports the current value and can go
    /// back down. Use [`MetricsRegistry::gauge_max`] only for genuine
    /// high-water marks — a long-running daemon that reports occupancy via
    /// `gauge_max` shows fictional, monotone state forever.
    pub fn gauge_set(&self, name: &str, value: i64) {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.insert(name.to_string(), value);
    }

    /// Raise the named gauge to `value` if it is below it (high-water mark).
    pub fn gauge_max(&self, name: &str, value: i64) {
        let mut inner = self.inner.lock().unwrap();
        let slot = inner.gauges.entry(name.to_string()).or_insert(i64::MIN);
        if *slot < value {
            *slot = value;
        }
    }

    /// Read a gauge; `None` if it has never been set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        let inner = self.inner.lock().unwrap();
        inner.gauges.get(name).copied()
    }

    /// Record one observation into the named fixed-bucket histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Record a wall-clock duration. Durations are **volatile**: they appear
    /// only in the volatile section of a snapshot and are excluded from
    /// byte-reproducible artifacts.
    pub fn record_duration(&self, name: &str, elapsed: Duration) {
        let mut inner = self.inner.lock().unwrap();
        let slot = inner.durations.entry(name.to_string()).or_default();
        slot.count += 1;
        slot.total += elapsed;
    }

    /// Fold every metric of `other` into this registry: counters,
    /// histograms and durations add up, and gauges take `other`'s value.
    pub fn absorb(&self, other: &MetricsRegistry) {
        let other = other.inner.lock().unwrap();
        let mut inner = self.inner.lock().unwrap();
        for (name, value) in &other.counters {
            *inner.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            inner.gauges.insert(name.clone(), *value);
        }
        for (name, h) in &other.histograms {
            let slot = inner.histograms.entry(name.clone()).or_default();
            for (total, count) in slot.buckets.iter_mut().zip(&h.buckets) {
                *total += count;
            }
            slot.count += h.count;
            slot.sum += h.sum;
        }
        for (name, d) in &other.durations {
            let slot = inner.durations.entry(name.clone()).or_default();
            slot.count += d.count;
            slot.total += d.total;
        }
    }

    /// Take a point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        HistogramSnapshot {
                            buckets: h.buckets.to_vec(),
                            count: h.count,
                            sum: h.sum,
                        },
                    )
                })
                .collect(),
            durations_ms: inner
                .durations
                .iter()
                .map(|(name, d)| (name.clone(), (d.count, d.total.as_secs_f64() * 1e3)))
                .collect(),
        }
    }
}

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Counts per bucket; index `i` covers values `<= HISTOGRAM_BOUNDS[i]`,
    /// the final entry is the overflow bucket.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

/// A point-in-time copy of a registry.
///
/// [`MetricsSnapshot::to_json`] renders the deterministic part (counters,
/// gauges, histograms) with sorted keys; volatile durations are emitted only
/// on request, isolated under a single top-level `"volatile"` key so that
/// stripping them is structural, not name-by-name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// name -> (observation count, total milliseconds).
    pub durations_ms: BTreeMap<String, (u64, f64)>,
}

impl MetricsSnapshot {
    /// Read a counter from the snapshot; zero if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counter delta against an earlier baseline snapshot (saturating).
    pub fn counter_since(&self, baseline: &MetricsSnapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(baseline.counter(name))
    }

    /// Read a gauge from the snapshot; `None` if it was never set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Render as JSON. The deterministic sections always appear (possibly as
    /// empty objects); `include_volatile` adds the `"volatile"` section with
    /// wall-clock duration totals.
    pub fn to_json(&self, include_volatile: bool) -> String {
        let mut out = String::from("{\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str("{\"buckets\":[");
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push_str(&format!("],\"count\":{},\"sum\":{}}}", h.count, h.sum));
        });
        out.push('}');
        if include_volatile {
            out.push_str(",\"volatile\":{\"durations_ms\":{");
            push_entries(&mut out, self.durations_ms.iter(), |out, (count, ms)| {
                out.push_str(&format!("{{\"count\":{count},\"total_ms\":{ms:.3}}}"));
            });
            out.push_str("}}");
        }
        out.push('}');
        out
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut render: impl FnMut(&mut String, &V),
) {
    for (i, (name, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape_json(name));
        out.push_str("\":");
        render(out, value);
    }
}

/// Cheap cloneable handle to an optional registry, mirroring the
/// `EventHandle` / `Interrupt` pattern: the default handle is inert and every
/// recording method is a no-op on it.
#[derive(Debug, Clone, Default)]
pub struct MetricsHandle(Option<Arc<MetricsRegistry>>);

impl MetricsHandle {
    /// A handle that records nothing.
    pub fn none() -> Self {
        MetricsHandle(None)
    }

    /// A handle backed by `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        MetricsHandle(Some(registry))
    }

    /// Whether a registry is attached.
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// The backing registry, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.0.as_ref()
    }

    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(r) = &self.0 {
            r.counter_add(name, delta);
        }
    }

    pub fn counter_inc(&self, name: &str) {
        if let Some(r) = &self.0 {
            r.counter_inc(name);
        }
    }

    pub fn gauge_set(&self, name: &str, value: i64) {
        if let Some(r) = &self.0 {
            r.gauge_set(name, value);
        }
    }

    pub fn gauge_max(&self, name: &str, value: i64) {
        if let Some(r) = &self.0 {
            r.gauge_max(name, value);
        }
    }

    pub fn observe(&self, name: &str, value: u64) {
        if let Some(r) = &self.0 {
            r.observe(name, value);
        }
    }

    pub fn record_duration(&self, name: &str, elapsed: Duration) {
        if let Some(r) = &self.0 {
            r.record_duration(name, elapsed);
        }
    }

    /// Snapshot the backing registry; `None` when inert.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.as_ref().map(|r| r.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let reg = MetricsRegistry::new();
        reg.counter_inc("a.b");
        reg.counter_add("a.b", 4);
        assert_eq!(reg.counter("a.b"), 5);
        assert_eq!(reg.counter("never.touched"), 0);
    }

    #[test]
    fn gauges_set_and_high_water() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("depth", 3);
        reg.gauge_max("depth", 1);
        assert_eq!(reg.gauge("depth"), Some(3));
        reg.gauge_max("depth", 9);
        assert_eq!(reg.gauge("depth"), Some(9));
        assert_eq!(reg.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_are_deterministic() {
        let reg = MetricsRegistry::new();
        for v in [0, 1, 2, 3, 4096, 5000] {
            reg.observe("sizes", v);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["sizes"];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1 + 2 + 3 + 4096 + 5000);
        // 0 and 1 land in the <=1 bucket, 2 in <=2, 3 in <=4, 4096 in <=4096,
        // 5000 in the overflow bucket.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[HISTOGRAM_BOUNDS.len() - 1], 1);
        assert_eq!(h.buckets[HISTOGRAM_BOUNDS.len()], 1);
    }

    #[test]
    fn snapshot_json_is_sorted_and_volatile_is_isolated() {
        let reg = MetricsRegistry::new();
        reg.counter_inc("zeta");
        reg.counter_inc("alpha");
        reg.gauge_set("g", -2);
        reg.record_duration("phase_ms", Duration::from_millis(5));
        let snap = reg.snapshot();

        let stripped = snap.to_json(false);
        assert!(stripped.contains("\"alpha\":1,\"zeta\":1"));
        assert!(!stripped.contains("volatile"));

        let full = snap.to_json(true);
        assert!(full.contains("\"volatile\":{\"durations_ms\":{\"phase_ms\":"));
        // Stripping is structural: the deterministic prefix is shared.
        assert!(full.starts_with(&stripped[..stripped.len() - 1]));
    }

    #[test]
    fn identical_work_renders_byte_identical_deterministic_json() {
        let run = || {
            let reg = MetricsRegistry::new();
            reg.counter_add("work", 7);
            reg.observe("sizes", 3);
            reg.record_duration("wall_ms", Duration::from_nanos(12345));
            reg.snapshot().to_json(false)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn the_inert_handle_is_a_no_op() {
        let handle = MetricsHandle::none();
        handle.counter_inc("x");
        handle.observe("y", 1);
        assert!(!handle.is_active());
        assert!(handle.snapshot().is_none());
    }

    #[test]
    fn absorbing_a_registry_is_recording_its_work_directly() {
        let work = |reg: &MetricsRegistry, scale: u64| {
            reg.counter_add("calls", 2 * scale);
            reg.observe("sizes", 3 * scale);
            reg.gauge_set("depth", scale as i64);
            reg.record_duration("wall_ms", Duration::from_millis(scale));
        };
        let direct = MetricsRegistry::new();
        work(&direct, 1);
        work(&direct, 5);
        let folded = MetricsRegistry::new();
        work(&folded, 1);
        let local = MetricsRegistry::new();
        work(&local, 5);
        folded.absorb(&local);
        assert_eq!(folded.snapshot(), direct.snapshot());
    }

    #[test]
    fn counter_since_computes_saturating_deltas() {
        let reg = MetricsRegistry::new();
        reg.counter_add("n", 2);
        let base = reg.snapshot();
        reg.counter_add("n", 3);
        let now = reg.snapshot();
        assert_eq!(now.counter_since(&base, "n"), 3);
        assert_eq!(base.counter_since(&now, "n"), 0);
    }
}
