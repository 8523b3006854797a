//! Export-hygiene checks shared by exporter regression tests.
//!
//! The server exports metrics periodically, so every `record_*_into`
//! exporter in the workspace must be *idempotent*: handing the same
//! stats snapshot to the same registry twice must leave the export
//! byte-identical to handing it over once. Exporters that `add()` a
//! cumulative lifetime total break this — each export doubles the
//! counter — and the breakage is invisible in one-shot tests. The
//! checker here is the shared regression harness: it runs an exporter
//! twice against one registry and diffs the registry's maps before and
//! after the second pass.

use crate::metrics::MetricsRegistry;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Run `export` twice against one registry and verify the second pass
/// changed nothing. Returns `Err` naming every counter, gauge, and
/// histogram that drifted between the two passes.
///
/// `export` receives the registry each time, exactly like a periodic
/// exporter handing over the latest stats snapshot; the snapshot is
/// assumed unchanged between the two calls (callers should not mutate
/// the instrumented subsystem inside `export`).
pub fn exporter_idempotence(mut export: impl FnMut(&mut MetricsRegistry)) -> Result<(), String> {
    let mut m = MetricsRegistry::new();
    export(&mut m);
    let first = m.clone();
    export(&mut m);
    let mut drift = String::new();
    diff("counters", &first.counters, &m.counters, &mut drift);
    diff("gauges", &first.gauges, &m.gauges, &mut drift);
    diff("histograms", &first.histograms, &m.histograms, &mut drift);
    if drift.is_empty() {
        Ok(())
    } else {
        Err(drift)
    }
}

/// Assert-flavoured wrapper over [`exporter_idempotence`] for tests.
///
/// # Panics
///
/// Panics with the drift report when the exporter double-counts.
pub fn assert_idempotent_export(export: impl FnMut(&mut MetricsRegistry)) {
    if let Err(drift) = exporter_idempotence(export) {
        panic!("exporter is not idempotent across repeated exports:\n{drift}");
    }
}

/// Append one line per name of `second` whose value differs from
/// `first`'s, as `<kind>.<name>` (`counters.replication.ships`). A
/// registry never drops a name, so `second` holds every name of `first`.
fn diff<V: PartialEq + Debug>(
    kind: &str,
    first: &BTreeMap<String, V>,
    second: &BTreeMap<String, V>,
    out: &mut String,
) {
    for (name, vb) in second {
        match first.get(name) {
            Some(va) if va == vb => {}
            Some(va) => out.push_str(&format!(
                "  {kind}.{name}: first export {va:?} != second export {vb:?}\n"
            )),
            None => out.push_str(&format!(
                "  {kind}.{name}: appeared only in second export: {vb:?}\n"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_exporter_passes() {
        // A correct exporter reconciles cumulative totals via
        // record_total and refreshes gauges in place.
        assert_idempotent_export(|m| {
            m.record_total("sub.ships", 42);
            m.set_gauge("sub.lag", 3.0);
        });
    }

    #[test]
    fn cumulative_add_exporter_is_caught() {
        let err = exporter_idempotence(|m| {
            m.add("sub.ships", 42); // classic double-counting bug
        })
        .unwrap_err();
        assert!(err.contains("counters.sub.ships"), "drift report: {err}");
        assert!(
            err.contains("42") && err.contains("84"),
            "drift report: {err}"
        );
    }

    #[test]
    fn repeated_observe_is_caught() {
        let err = exporter_idempotence(|m| {
            m.observe("sub.bytes", 100.0); // re-observed point-in-time value
        })
        .unwrap_err();
        assert!(err.contains("sub.bytes"), "drift report: {err}");
    }

    #[test]
    fn record_total_is_monotone_and_idempotent() {
        let mut m = MetricsRegistry::new();
        m.record_total("c", 7);
        m.record_total("c", 7);
        assert_eq!(m.counter("c"), 7);
        m.record_total("c", 9);
        assert_eq!(m.counter("c"), 9);
        // Never lowered: a smaller total is a caller bug, not a reset.
        m.record_total("c", 2);
        assert_eq!(m.counter("c"), 9);
    }

    #[test]
    fn drift_paths_are_qualified() {
        let mut g = 0.0;
        let err = exporter_idempotence(|m| {
            m.add("a.x", 1);
            g += 1.0;
            m.set_gauge("a.x", g);
            m.observe("a.x", 5.0);
        })
        .unwrap_err();
        for path in ["counters.a.x", "gauges.a.x", "histograms.a.x"] {
            assert!(err.contains(&format!("  {path}: ")), "drift report: {err}");
        }
        assert!(
            err.contains("first export 1 != second export 2"),
            "drift report: {err}"
        );
    }
}
