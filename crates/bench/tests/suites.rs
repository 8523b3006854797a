//! The suite table, end to end: every row's smoke run under the
//! driver's protocol, every committed document against its row's
//! required keys, and the command line's failure paths.

use sq_bench::suite::{check_doc, first_difference, SUITES};
use std::process::Command;

#[test]
fn every_smoke_run_is_clean_keyed_and_reproducible() {
    for suite in SUITES {
        let name = suite.name;
        let report = (suite.run)(true, &[]).expect("a suite runs without flags");
        assert_eq!(report.gate(), Vec::<String>::new(), "{name}: gate");
        let doc = report.doc();
        check_doc(&doc, suite.schema, suite.keys).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (path, extra) in report.extras() {
            let parsed = serde_json::from_str::<serde::__private::Value>(&extra);
            assert!(parsed.is_ok(), "{name}: {path} is not JSON");
        }
        let rerun = (suite.run)(true, &[]).expect("same flags").doc();
        assert_eq!(rerun, doc, "{name}: same-seed rerun diverged");
    }
}

#[test]
fn committed_documents_carry_every_required_key() {
    for suite in SUITES {
        let path = sq_bench::repo_root().join(format!("BENCH_{}.json", suite.name));
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: no committed document: {e}", path.display()));
        check_doc(&json, suite.schema, suite.keys)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

#[test]
fn one_changed_byte_fails_the_comparison_and_names_the_line() {
    let path = sq_bench::repo_root().join("BENCH_server.json");
    let committed = std::fs::read_to_string(path).expect("committed document");
    assert_eq!(first_difference(&committed, &committed), None);
    let at = committed.find("\"lost\":0").expect("the lost counter") + 7;
    let mut changed = committed.clone().into_bytes();
    changed[at] = b'1';
    let changed = String::from_utf8(changed).expect("still ASCII");
    let diff = first_difference(&committed, &changed).expect("documents differ");
    assert!(diff.starts_with(&format!("line 1, byte {at}:")), "{diff}");
    assert!(
        diff.contains("\"lost\":0") && diff.contains("\"lost\":1"),
        "{diff}"
    );
    // A truncated document differs where it ends.
    let diff = first_difference(&committed, &committed[..at]).expect("documents differ");
    assert!(diff.starts_with(&format!("line 1, byte {at}:")), "{diff}");
}

#[test]
fn usage_errors_exit_2_and_list_the_valid_names() {
    for (args, expected) in [
        (
            &["nope"][..],
            "valid: all e2e lean shard scenarios replication server conflict",
        ),
        (
            &["fig", "fig99"][..],
            "valid: all fig01 fig02 fig05_08 fig09",
        ),
        (&[][..], "no suite named; valid: all e2e"),
        // A flag the named suite does not take fails before any run.
        (&["e2e", "--smoke", "--uds"][..], "unknown flag \"--uds\""),
        // The figure table has no committed documents to write.
        (&["fig", "all", "--write"][..], "no flag but --smoke"),
    ] {
        let driver = Command::new(env!("CARGO_BIN_EXE_sq-bench"))
            .args(args)
            .output();
        let out = driver.expect("driver starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
}

#[test]
fn fig_takes_smoke() {
    let driver = Command::new(env!("CARGO_BIN_EXE_sq-bench"))
        .args(["fig", "fig05_08", "--smoke"])
        .output();
    let out = driver.expect("driver starts");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
