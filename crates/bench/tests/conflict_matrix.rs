//! Integration test for the conflict suite: a small real run must
//! produce byte-identical matrices from the name-set reference and the
//! index, sane counts, a document that validates, and the same document
//! again from the same params.

use sq_bench::conflict::{run_conflict, ConflictParams, SUITE};
use sq_bench::suite::{check_doc, Report};

#[test]
fn small_run_gates_and_validates() {
    let params = ConflictParams {
        seed: 0x5EED,
        n_parts: 16,
        windows: vec![32, 256],
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
    assert_eq!(report.gate(), Vec::<String>::new());
    let doc = report.to_json();
    check_doc(&doc, SUITE.schema, SUITE.keys).expect("document validates");
    assert_eq!(
        run_conflict(&params).to_json(),
        doc,
        "same params, same bytes"
    );
}
