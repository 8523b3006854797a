//! # sq-obs — deterministic observability
//!
//! The paper's entire evaluation (Section 8) is a set of measurements —
//! turnaround CDFs, builds-per-change, worker utilization — and Uber's
//! follow-up work (*CI at Scale: Lean, Green, and Fast*) attributes the
//! SubmitQueue-era wins to per-stage instrumentation of exactly those
//! quantities. This crate is the measurement substrate for the
//! reproduction:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and log-bucketed
//!   histograms ([`LogHistogram`]), with deterministic JSON export
//!   (keys sorted, no wall-clock anywhere).
//! * [`Observer`] — the registry as passed through the planner's hot
//!   path. A disabled observer costs one branch per call site, so the
//!   uninstrumented configurations stay honest baselines.
//! * [`check`] — the exporter-hygiene harness: periodic exporters must
//!   be idempotent (same snapshot exported twice == exported once), and
//!   [`check::exporter_idempotence`] is the shared regression check
//!   every `record_*_into` in the workspace runs under.
//! * [`json`] — the tiny hand-rolled JSON writer every export shares. No
//!   external dependency: exports must stay byte-stable across runs, so
//!   the serializer is owned here and floats go through Rust's shortest
//!   round-trip formatting.
//!
//! Everything is deterministic given deterministic inputs: the registry
//! stores names in `BTreeMap`s and reads no clock. The acceptance test
//! for the whole layer is byte equality of exports across same-seed
//! reruns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod json;
pub mod metrics;

pub use check::{assert_idempotent_export, exporter_idempotence};
pub use json::JsonWriter;
pub use metrics::{LogHistogram, MetricsRegistry};

/// The metrics registry travelling through the planner's hot path. A
/// wrapper of one field, kept because `benchmark/` names it.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    /// Counters, gauges, histograms.
    pub metrics: MetricsRegistry,
}

impl Observer {
    /// An enabled observer: metrics are recorded.
    pub fn new() -> Self {
        Observer {
            metrics: MetricsRegistry::new(),
        }
    }

    /// A disabled observer: every recording call is a cheap no-op.
    /// [`run`](Self::is_enabled)-style call sites need no `Option`
    /// plumbing — pass a disabled observer instead.
    pub fn disabled() -> Self {
        Observer {
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// True iff the metrics registry records.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_records_nothing() {
        let mut o = Observer::disabled();
        o.metrics.inc("c");
        o.metrics.set_gauge("g", 1.0);
        o.metrics.observe("h", 2.0);
        assert!(!o.is_enabled());
        assert_eq!(o.metrics.counter("c"), 0);
    }

    #[test]
    fn exports_are_reproducible() {
        let build = || {
            let mut o = Observer::new();
            for i in 0..100u64 {
                o.metrics.add("c", i);
                o.metrics.observe("h", (i as f64) * 0.37);
            }
            o.metrics.set_gauge("g", 0.123456789);
            o.metrics.to_json()
        };
        assert_eq!(build(), build());
    }
}
