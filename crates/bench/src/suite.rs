//! The one bench driver: the suite table, the protocol every suite
//! runs under, and the one document checker.
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
use std::path::Path;
use std::time::Instant;

/// Required keys of a document, each entry `"<dotted path>: <keys>"`:
/// the object at the path (empty for the top level; a path that crosses
/// an array applies to every element, and the array must not be empty)
/// has every one of the space-separated keys.
pub type KeyPaths = &'static [&'static str];

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
    /// Build the params and run.
    pub run: Run,
}

/// Build smoke or standard params and run.
pub type Run = fn(smoke: bool) -> Box<dyn Report>;

/// The suite table, in the order `all` runs it.
pub const SUITES: &[Suite] = &[
    crate::e2e::SUITE,
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

/// Check a document: it parses as a JSON object, carries the schema,
/// and contains every required key. Returns the first problem found.
pub fn check_doc(json: &str, schema: &str, keys: KeyPaths) -> Result<(), String> {
    let value: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let Value::Map(top) = &value else {
        return Err("top level is not an object".to_string());
    };
    match top.iter().find(|(k, _)| k == "schema") {
        Some((_, Value::Str(s))) if s == schema => {}
        other => return Err(format!("schema is {other:?}, expected {schema:?}")),
    }
    keys.iter().try_for_each(|entry| {
        let (path, required) = entry.split_once(": ").expect("entries are `path: keys`");
        require(&value, "", path, required)
    })
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
            require(&get(first)?.1, &child(first), rest, keys)
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
    check_doc(&doc, suite.schema, suite.keys)
        .map_err(|e| format!("emitted document is invalid: {e}"))?;
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

    const KEYS: KeyPaths = &[": params", "params: seed", "cells.builds: started wasted"];

    #[test]
    fn check_doc_names_the_first_problem() {
        let check = |json: &str| check_doc(json, "s/v1", KEYS);
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
        let scalar = r#"{"schema":"s/v1","params":{"seed":1},"cells":[{"builds":7}]}"#;
        assert!(check(scalar)
            .unwrap_err()
            .contains("cells[0].builds is integer"));
    }
}
