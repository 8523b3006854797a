//! The one bench driver: the suite table, the protocol every suite
//! runs under, the one run-record writer and the one document checker.
//!
//! `sq-bench <suite>...|all [--smoke|--write]` runs each named row of
//! [`SUITES`] through the same steps: run → print the summary → gate
//! the typed report → check the document's required keys → write the
//! fresh document under `target/figures/` → then, by mode,
//!
//! * default: byte-compare the document with the committed
//!   `BENCH_<suite>.json` at the repository root;
//! * `--write`: overwrite that committed document instead;
//! * `--smoke`: small params, and a same-seed rerun must reproduce the
//!   document byte for byte.
//!
//! No suite reads a clock: every document is a pure function of its
//! params (wall-clock numbers live in `benchmark/`; the only `Instant`
//! in this crate is the seconds this driver prints per suite). A failed
//! gate writes nothing. `sq-bench fig <name>...|all [--smoke]` runs rows
//! of [`crate::figures::FIGURES`] in-process, at full or smoke size.

use crate::figures::FIGURES;
use serde::__private::Value;
use sq_core::audit::AuditedRun;
use sq_obs::JsonWriter;
use std::path::Path;
use std::time::Instant;

/// Required keys of a document, each entry `"<dotted path>: <keys>"`:
/// the object at the path (empty for the top level; a path that crosses
/// an array applies to every element, and the array must not be empty)
/// has every one of the space-separated keys. A path step ending in `?`
/// may be absent.
pub type KeyPaths = &'static [&'static str];

/// The keys of every run record ([`write_record`]), relative to the
/// record; a sharded run's record adds its lanes.
pub const RECORD_KEYS: KeyPaths = &[
    ": strategy green rejections_justified wrongful_rejections commits rejects",
    ": throughput_per_hour sustained_throughput_per_hour turnaround_mins builds infra",
    ": worker_utilization makespan_hours",
    "turnaround_mins: mean p50 p95 p99",
    "builds: started aborted needed wasted",
    "infra: retries backoff_mins quarantined",
    "lanes?: name workers routed committed rejected wrongful",
];

/// Write one audited run's fields into the open object of its record:
/// the only place a record key is spelled. Suites add their own fields
/// around it.
pub fn write_record(w: &mut JsonWriter, run: &AuditedRun) {
    let r = &run.result;
    let (p50, p95, p99) = r.turnaround_p50_p95_p99();
    w.field_str("strategy", r.strategy.name());
    w.key("green");
    w.value_bool(run.green.is_ok());
    w.key("rejections_justified");
    w.value_bool(run.rejections_justified.is_ok());
    w.field_u64("wrongful_rejections", run.wrongful as u64);
    w.field_u64("commits", r.committed() as u64);
    w.field_u64("rejects", r.rejected() as u64);
    w.field_f64("throughput_per_hour", r.throughput_per_hour());
    w.field_f64(
        "sustained_throughput_per_hour",
        r.sustained_throughput_per_hour(),
    );
    w.key("turnaround_mins");
    w.begin_object();
    w.field_f64("mean", r.mean_turnaround_mins());
    w.field_f64("p50", p50);
    w.field_f64("p95", p95);
    w.field_f64("p99", p99);
    w.end_object();
    w.key("builds");
    w.begin_object();
    w.field_u64("started", r.builds_started);
    w.field_u64("aborted", r.builds_aborted);
    w.field_u64("needed", run.needed());
    w.field_u64("wasted", run.wasted());
    w.end_object();
    w.key("infra");
    w.begin_object();
    w.field_u64("retries", r.infra_retries);
    w.field_f64("backoff_mins", r.infra_backoff.as_mins_f64());
    w.field_u64("quarantined", r.quarantined.len() as u64);
    w.end_object();
    w.field_f64("worker_utilization", r.utilization);
    w.field_f64("makespan_hours", r.makespan.as_hours_f64());
    if let Some(report) = &run.lanes {
        w.key("lanes");
        w.begin_array();
        for lane in &report.lanes {
            w.begin_object();
            w.field_str("name", &lane.name);
            w.field_u64("workers", lane.workers as u64);
            w.field_u64("routed", lane.routed as u64);
            w.field_u64("committed", lane.committed as u64);
            w.field_u64("rejected", lane.rejected as u64);
            w.field_u64("wrongful", lane.wrongful as u64);
            w.end_object();
        }
        w.end_array();
    }
}

/// What a finished run answers to the driver.
pub trait Report {
    /// The params line, then one line per cell.
    fn summary(&self) -> Vec<String>;
    /// Every correctness rule of the suite, checked on the typed
    /// report in every mode. Empty means clean.
    fn gate(&self) -> Vec<String>;
    /// The suite's document: `BENCH_<suite>.json`.
    fn doc(&self) -> String;
    /// Further files, as (path under `target/figures/`, content).
    fn extras(&self) -> Vec<(String, String)> {
        Vec::new()
    }
}

/// One row of the suite table.
pub struct Suite {
    /// The name on the command line and in `BENCH_<name>.json`.
    pub name: &'static str,
    /// The document's `schema` value.
    pub schema: &'static str,
    /// The keys the document must contain.
    pub keys: KeyPaths,
    /// Where its run records are (dotted paths, as in `keys`): each
    /// carries [`RECORD_KEYS`].
    pub records: &'static [&'static str],
    /// Build the params and run.
    pub run: Run,
}

/// Build smoke or standard params and run.
pub type Run = fn(smoke: bool) -> Box<dyn Report>;

/// The suite table, in the order `all` runs it.
pub const SUITES: &[Suite] = &[
    crate::lean::SUITE,
    crate::shard::SUITE,
    crate::scenarios::SUITE,
];

/// Smoke or standard params.
pub(crate) fn pick<P>(smoke: bool, small: fn() -> P, standard: fn() -> P) -> P {
    if smoke {
        small()
    } else {
        standard()
    }
}

/// Check a suite's document: it parses as a JSON object, carries the
/// schema, contains every required key, and every record carries
/// [`RECORD_KEYS`]. Returns the first problem found.
pub fn check_doc(json: &str, suite: &Suite) -> Result<(), String> {
    let value: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let Value::Map(top) = &value else {
        return Err("top level is not an object".to_string());
    };
    match top.iter().find(|(k, _)| k == "schema") {
        Some((_, Value::Str(s))) if s == suite.schema => {}
        other => return Err(format!("schema is {other:?}, expected {:?}", suite.schema)),
    }
    let check = |at: &str, entry: &str| {
        let (path, required) = entry.split_once(": ").expect("entries are `path: keys`");
        let path = [at, path].into_iter().filter(|p| !p.is_empty());
        require(&value, "", &path.collect::<Vec<_>>().join("."), required)
    };
    suite.keys.iter().try_for_each(|entry| check("", entry))?;
    (suite.records.iter())
        .try_for_each(|at| RECORD_KEYS.iter().try_for_each(|entry| check(at, entry)))
}

fn require(value: &Value, at: &str, path: &str, keys: &str) -> Result<(), String> {
    let child = |key: &str| match at {
        "" => key.to_string(),
        _ => format!("{at}.{key}"),
    };
    match value {
        Value::Seq(items) if items.is_empty() => Err(format!("{at} is empty")),
        Value::Seq(items) => items
            .iter()
            .enumerate()
            .try_for_each(|(i, item)| require(item, &format!("{at}[{i}]"), path, keys)),
        Value::Map(entries) => {
            let get = |key: &str| {
                let found = entries.iter().find(|(k, _)| k == key);
                found.ok_or_else(|| format!("missing key {}", child(key)))
            };
            if path.is_empty() {
                return (keys.split_whitespace()).try_for_each(|key| get(key).map(|_| ()));
            }
            let (first, rest) = path.split_once('.').unwrap_or((path, ""));
            let (first, optional) = first
                .strip_suffix('?')
                .map_or((first, false), |f| (f, true));
            match get(first) {
                Err(_) if optional => Ok(()),
                found => require(&found?.1, &child(first), rest, keys),
            }
        }
        other => Err(format!("{at} is {}, expected an object", other.kind())),
    }
}

/// Where two documents first differ: the line number, the byte offset,
/// and that line of each (clipped around the difference — the committed
/// documents are one long line). `None` when they are identical.
pub fn first_difference(committed: &str, fresh: &str) -> Option<String> {
    let (a, b) = (committed.as_bytes(), fresh.as_bytes());
    if a == b {
        return None;
    }
    let at = a.iter().zip(b).position(|(x, y)| x != y);
    let at = at.unwrap_or(a.len().min(b.len()));
    let line = a[..at].iter().filter(|&&c| c == b'\n').count() + 1;
    let newline = |c: &u8| *c == b'\n';
    let excerpt = |s: &[u8]| {
        let (before, after) = s.split_at(at);
        let start = before.iter().rposition(newline).map_or(0, |i| i + 1);
        let end = after.iter().position(newline).map_or(s.len(), |i| at + i);
        let clip = &s[start.max(at.saturating_sub(60))..end.min(at + 60)];
        String::from_utf8_lossy(clip).into_owned()
    };
    Some(format!(
        "line {line}, byte {at}:\n  committed: {}\n  fresh:     {}",
        excerpt(a),
        excerpt(b)
    ))
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Check,
    Write,
    Smoke,
}

fn write(path: &Path, content: &str) -> Result<(), String> {
    let dir = path.parent().expect("output files live in a directory");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, content))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  wrote {} ({} bytes)", path.display(), content.len());
    Ok(())
}

/// Everything after `run`: summary, gate, key check, rerun, files, and
/// the comparison with (or overwrite of) the committed document.
fn finish(suite: &Suite, mode: Mode, report: &dyn Report) -> Result<(), String> {
    for line in report.summary() {
        println!("  {line}");
    }
    let problems = report.gate();
    if !problems.is_empty() {
        return Err(format!("gate: {}", problems.join("; ")));
    }
    let doc = report.doc();
    check_doc(&doc, suite).map_err(|e| format!("emitted document is invalid: {e}"))?;
    let smoke = mode == Mode::Smoke;
    if smoke {
        if (suite.run)(true).doc() != doc {
            return Err("same-seed rerun diverged from the first run".to_string());
        }
        println!("  same-seed rerun is byte-identical");
    }
    let dir = crate::figures_dir();
    let stem = format!("BENCH_{}", suite.name);
    let suffix = if smoke { "_smoke" } else { "" };
    write(&dir.join(format!("{stem}{suffix}.json")), &doc)?;
    for (path, content) in report.extras() {
        write(&dir.join(path), &content)?;
    }
    let committed = crate::repo_root().join(format!("{stem}.json"));
    if mode == Mode::Write {
        write(&committed, &doc)?;
    } else if mode == Mode::Check {
        let old = std::fs::read_to_string(&committed)
            .map_err(|e| format!("cannot read {}: {e}", committed.display()))?;
        if let Some(diff) = first_difference(&old, &doc) {
            return Err(format!("differs from the committed {stem}.json at {diff}"));
        }
        println!("  byte-identical to the committed {stem}.json");
    }
    Ok(())
}

const USAGE: &str = "usage: sq-bench <suite>...|all [--smoke|--write]
       sq-bench fig <figure>...|all [--smoke]";

/// Rows of `table` by name, or every row for `all`.
fn select<'t, T>(
    what: &str,
    names: &[&String],
    table: &'t [T],
    name_of: fn(&T) -> &'static str,
) -> Result<Vec<&'t T>, String> {
    if names.len() == 1 && names[0] == "all" {
        return Ok(table.iter().collect());
    }
    let row = |name: &&String| table.iter().find(|row| name_of(row) == name.as_str());
    let problem = match names.iter().find(|name| row(name).is_none()) {
        None if !names.is_empty() => return Ok(names.iter().filter_map(row).collect()),
        None => format!("no {what} named"),
        Some(name) => format!("unknown {what} {name:?}"),
    };
    let valid = table.iter().map(name_of).collect::<Vec<_>>().join(" ");
    Err(format!("{USAGE}\n{problem}; valid: all {valid}"))
}

/// The whole command line (program name excluded). Returns the exit
/// code: 0 clean, 1 a suite failed, 2 usage.
pub fn cli(args: &[String]) -> i32 {
    let usage = |message: String| {
        eprintln!("{message}");
        2
    };
    let fig = args.first().is_some_and(|a| a == "fig");
    let (flags, names): (Vec<&String>, Vec<&String>) = args[usize::from(fig)..]
        .iter()
        .partition(|a| a.starts_with("--"));
    let has = |flag: &str| flags.iter().any(|a| *a == flag);
    if fig {
        if let Some(flag) = flags.iter().find(|f| **f != "--smoke") {
            return usage(format!(
                "{USAGE}\nfig takes no flag but --smoke, got {flag:?}"
            ));
        }
        let figures = match select("figure", &names, FIGURES, |f| f.0) {
            Ok(figures) => figures,
            Err(e) => return usage(e),
        };
        for (name, run) in figures {
            println!("\n━━━━━━━━━━━━━━━━ {name} ━━━━━━━━━━━━━━━━");
            run(has("--smoke"));
        }
        return 0;
    }
    if let Some(flag) = flags.iter().find(|f| **f != "--smoke" && **f != "--write") {
        return usage(format!("{USAGE}\nunknown flag {flag:?}"));
    }
    let mode = match (has("--smoke"), has("--write")) {
        (true, true) => return usage("--smoke and --write do not combine".to_string()),
        (true, false) => Mode::Smoke,
        (false, true) => Mode::Write,
        (false, false) => Mode::Check,
    };
    let suites = match select("suite", &names, SUITES, |s| s.name) {
        Ok(suites) => suites,
        Err(e) => return usage(e),
    };
    let smoke = mode == Mode::Smoke;
    let label = if smoke { "smoke" } else { "standard" };
    let mut failed = Vec::new();
    for suite in suites {
        let start = Instant::now();
        println!("[{}] {label} run", suite.name);
        let outcome = finish(suite, mode, (suite.run)(smoke).as_ref());
        let secs = start.elapsed().as_secs_f64();
        match outcome {
            Ok(()) => println!("[{}] ok ({secs:.1}s)", suite.name),
            Err(e) => {
                eprintln!("[{}] FAIL ({secs:.1}s): {e}", suite.name);
                failed.push(suite.name);
            }
        }
    }
    if failed.is_empty() {
        0
    } else {
        eprintln!("FAILED: {}", failed.join(" "));
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: Suite = Suite {
        name: "s",
        schema: "s/v1",
        keys: &[
            ": params",
            "params: seed",
            "cells.builds: started wasted",
            "cells.lanes?: name",
        ],
        records: &[],
        run: |_| unreachable!("the checker runs nothing"),
    };

    #[test]
    fn check_doc_names_the_first_problem() {
        let check = |json: &str| check_doc(json, &SUITE);
        let ok = r#"{"schema":"s/v1","params":{"seed":1},
            "cells":[{"builds":{"started":2,"wasted":1}},{"builds":{"started":3,"wasted":0}}]}"#;
        assert_eq!(check(ok), Ok(()));
        assert!(check("not json").unwrap_err().contains("not valid JSON"));
        assert!(check("[1,2]").unwrap_err().contains("not an object"));
        assert!(check("{}").unwrap_err().contains("schema"));
        assert!(check(&ok.replace("s/v1", "s/v2"))
            .unwrap_err()
            .contains("expected \"s/v1\""));
        // One nested key missing, in the second element only.
        let missing = ok.replace(r#""started":3,"#, "");
        assert_eq!(
            check(&missing).unwrap_err(),
            "missing key cells[1].builds.started"
        );
        assert_eq!(
            check(&ok.replace("\"seed\":1", "")).unwrap_err(),
            "missing key params.seed"
        );
        // An array on a path must have elements, and a path ends in an object.
        let empty = r#"{"schema":"s/v1","params":{"seed":1},"cells":[]}"#;
        assert_eq!(check(empty).unwrap_err(), "cells is empty");
        // An optional step may be absent, but what is there is checked.
        let lanes = ok.replace(r#""wasted":0}"#, r#""wasted":0},"lanes":[{"nom":"a"}]"#);
        assert_eq!(
            check(&lanes).unwrap_err(),
            "missing key cells[1].lanes[0].name"
        );
        let scalar = r#"{"schema":"s/v1","params":{"seed":1},"cells":[{"builds":7}]}"#;
        assert!(check(scalar)
            .unwrap_err()
            .contains("cells[0].builds is integer"));
    }
}
