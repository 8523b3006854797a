//! The metrics registry: named counters, gauges, and log-bucketed
//! histograms.
//!
//! Names are dotted paths (`planner.builds_started`); storage is
//! `BTreeMap`-keyed so exports iterate in sorted order — together with
//! the hand-rolled [`JsonWriter`](crate::json::JsonWriter), that makes
//! the export a pure function of the recorded values. Histograms use
//! logarithmic (power-of-two) buckets so one histogram covers
//! microsecond steps and hour-long builds alike with bounded memory,
//! the same shape Prometheus/OpenTelemetry exponential histograms use.

use crate::json::JsonWriter;
use std::collections::BTreeMap;

/// A histogram with power-of-two buckets over positive values.
///
/// Bucket `i` covers `(2^(i-1), 2^i]`; non-positive observations land
/// in a dedicated zero bucket. Exact count/sum/min/max are kept next to
/// the buckets, so means are exact and only percentiles are quantized
/// (to a factor-of-two upper bound — plenty for dashboards, and cheap
/// enough for per-event hot paths).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Bucket exponent → count. Exponent `i` means value ≤ 2^i.
    buckets: BTreeMap<i32, u64>,
    zero: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: BTreeMap::new(),
            zero: 0,
        }
    }

    fn bucket_of(v: f64) -> i32 {
        // Smallest i with v <= 2^i. log2 is monotone; ceil ties are
        // resolved exactly for powers of two by the bit representation,
        // and a one-step fixup keeps boundaries exact otherwise.
        let mut i = v.log2().ceil() as i32;
        while 2f64.powi(i) < v {
            i += 1;
        }
        while i > i32::MIN && 2f64.powi(i - 1) >= v {
            i -= 1;
        }
        i
    }

    /// Record one observation. Non-finite values are ignored (a stray
    /// NaN must not poison the export).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= 0.0 {
            self.zero += 1;
        } else {
            *self.buckets.entry(Self::bucket_of(v)).or_insert(0) += 1;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as a bucket upper bound:
    /// exact min/max at the extremes, otherwise correct to within the
    /// factor-of-two bucket width. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.zero;
        if rank <= seen {
            return Some(0.0);
        }
        for (&exp, &n) in &self.buckets {
            seen += n;
            if rank <= seen {
                return Some(2f64.powi(exp).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Write the histogram as a JSON object (summary + buckets).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("count", self.count);
        w.field_f64("sum", self.sum);
        if self.count > 0 {
            w.field_f64("min", self.min);
            w.field_f64("max", self.max);
            w.field_f64("mean", self.sum / self.count as f64);
            w.field_f64("p50", self.quantile(0.50).unwrap_or(0.0));
            w.field_f64("p95", self.quantile(0.95).unwrap_or(0.0));
            w.field_f64("p99", self.quantile(0.99).unwrap_or(0.0));
        }
        w.key("buckets");
        w.begin_array();
        if self.zero > 0 {
            w.begin_array();
            w.value_f64(0.0);
            w.value_u64(self.zero);
            w.end_array();
        }
        for (&exp, &n) in &self.buckets {
            w.begin_array();
            w.value_f64(2f64.powi(exp)); // bucket upper bound
            w.value_u64(n);
            w.end_array();
        }
        w.end_array();
        w.end_object();
    }
}

/// Named counters, gauges, and histograms with deterministic export.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    enabled: bool,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, f64>,
    pub(crate) histograms: BTreeMap<String, LogHistogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: true,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    /// A registry whose recording calls are all no-ops.
    pub fn disabled() -> Self {
        MetricsRegistry {
            enabled: false,
            ..MetricsRegistry::new()
        }
    }

    /// True iff recording calls take effect.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Increment counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `n`.
    pub fn add(&mut self, name: &str, n: u64) {
        if !self.enabled {
            return;
        }
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reconcile counter `name` against a *cumulative running total*
    /// maintained by the instrumented subsystem (e.g. a `*Stats`
    /// struct's lifetime totals). The counter is raised to `total` and
    /// never lowered, so periodic exporters can hand the same snapshot
    /// over and over without double counting: exporting a total of 7
    /// twice leaves the counter at 7, not 14. `add` is the wrong tool
    /// for such sources — it is reserved for per-event deltas.
    ///
    /// A `total` below the current counter value is left as-is rather
    /// than clamped down; cumulative sources are monotone, so a smaller
    /// total means the caller mixed two sources under one name.
    pub fn record_total(&mut self, name: &str, total: u64) {
        if !self.enabled {
            return;
        }
        match self.counters.get_mut(name) {
            Some(c) => *c = (*c).max(total),
            None => {
                self.counters.insert(name.to_string(), total);
            }
        }
    }

    /// Set gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if !self.enabled {
            return;
        }
        self.gauges.insert(name.to_string(), v);
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record `v` into histogram `name` (created on first use).
    pub fn observe(&mut self, name: &str, v: f64) {
        if !self.enabled {
            return;
        }
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = LogHistogram::new();
                h.observe(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// The histogram named `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Write the registry as a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (k, &v) in &self.counters {
            w.field_u64(k, v);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (k, &v) in &self.gauges {
            w.field_f64(k, v);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (k, h) in &self.histograms {
            w.key(k);
            h.write_json(w);
        }
        w.end_object();
        w.end_object();
    }

    /// The registry as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = MetricsRegistry::new();
        m.inc("a");
        m.add("a", 2);
        m.inc("b");
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counter("b"), 1);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), Some(2.5));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        for (v, exp) in [
            (1.0, 0),
            (1.5, 1),
            (2.0, 1),
            (2.1, 2),
            (4.0, 2),
            (1024.0, 10),
            (0.5, -1),
            (0.25, -2),
            (0.3, -1),
        ] {
            assert_eq!(LogHistogram::bucket_of(v), exp, "v = {v}");
        }
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = LogHistogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // ignored
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum, 110.0);
        assert_eq!((h.min, h.max), (1.0, 100.0));
        // p50: rank 3 → value 3.0 lives in (2,4] → upper bound 4.
        assert_eq!(h.quantile(0.5), Some(4.0));
        // Extremes are exact.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        // The top bucket's bound is clamped to the true max.
        assert_eq!(h.quantile(0.99), Some(100.0));
    }

    #[test]
    fn histogram_zero_and_negative_observations() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-5.0);
        h.observe(8.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min, -5.0);
        assert_eq!(h.quantile(0.5), Some(0.0));
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn export_is_sorted_and_deterministic() {
        let mut m = MetricsRegistry::new();
        m.inc("z.last");
        m.inc("a.first");
        m.observe("h", 3.0);
        m.set_gauge("g", 0.5);
        let j = m.to_json();
        assert!(j.find("a.first").unwrap() < j.find("z.last").unwrap());
        assert_eq!(j, m.clone().to_json());
        assert!(j.starts_with("{\"counters\":{"));
    }

    #[test]
    fn disabled_registry_is_inert() {
        let mut m = MetricsRegistry::disabled();
        m.inc("c");
        m.observe("h", 1.0);
        m.set_gauge("g", 1.0);
        assert_eq!(m.counter("c"), 0);
        assert!(m.histogram("h").is_none());
        assert_eq!(m.gauge("g"), None);
    }
}
