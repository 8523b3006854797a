//! Integration test for the conflict benchmark: a small real run must
//! produce byte-identical matrices across all three modes, a document
//! that validates, and a passing perf-regression gate on the 256-change
//! window.

use sq_bench::conflict::{run_conflict, ConflictParams, SUITE};
use sq_bench::suite::check_doc;

#[test]
fn small_run_gates_and_validates() {
    let params = ConflictParams {
        seed: 0x5EED,
        n_parts: 16,
        windows: vec![32, 256],
        threads: 8,
        reps: 2,
    };
    let report = run_conflict(&params);
    assert_eq!(report.windows.len(), 2);
    for r in &report.windows {
        assert!(r.identical, "window {}: matrices diverged", r.n);
        assert_eq!(r.pairs, (r.n * (r.n - 1) / 2) as u64);
        assert!(
            r.conflicts > 0,
            "window {}: a 16-part repo under 256 changes must conflict somewhere",
            r.n
        );
        assert!(r.conflicts <= r.pairs);
    }
    // The indexed mode must beat per-pair set materialization outright
    // on the gate window (the parallel bound is asserted by the gate).
    let gate = report.windows.iter().find(|r| r.n == 256).unwrap();
    assert!(
        gate.speedup_indexed() > 1.0,
        "indexed slower than serial: {:?}",
        gate
    );
    report.smoke_gate().expect("perf gate holds");
    check_doc(&report.to_json(), SUITE.schema, SUITE.keys).expect("document validates");
}
