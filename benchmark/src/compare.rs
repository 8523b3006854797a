//! `sq-benchmark compare <set-a> <set-b>`: per workload and end-to-end
//! metric, both sets' medians and quartiles and a verdict under the
//! metric's bound from `BENCHMARK.json`.
//!
//! A set is a directory of files written by `--save`, one per run. A
//! spread (inter-quartile distance over the median) wider than the bound
//! makes the cell `unresolved` rather than `no-change`, unless every run
//! of B reads better than every run of A.

use crate::stats::quartiles;
use serde::__private::Value;
use std::collections::BTreeMap;
use std::path::Path;

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn parse(json: &str) -> Result<Value, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` list of a `BENCHMARK.json` document.
pub fn bounds(doc: &Value) -> Result<Vec<Bound>, String> {
    let Some(Value::Seq(list)) = field(doc, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            let get = |k| {
                field(m, k)
                    .and_then(text)
                    .ok_or(format!("metric without {k}"))
            };
            Ok(Bound {
                name: get("name")?.to_string(),
                unit: get("unit")?.to_string(),
                lower_is_better: get("better")? == "lower",
                bound: field(m, "bound")
                    .and_then(number)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// The runs of one set: workload → metric → one value per run, plus the
/// distinct (commit, machine) pairs the files carry.
#[derive(Debug, Default)]
pub struct RunSet {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub fingerprints: Vec<(String, String)>,
    pub failed_runs: usize,
}

pub fn load_set(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    for path in files {
        let doc = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| parse(&s))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        // Traced runs carry the per-layer metrics; they are not compared.
        if field(&doc, "trace").and_then(number) != Some(0.0) {
            continue;
        }
        let workload = field(&doc, "workload")
            .and_then(text)
            .ok_or("file without workload")?;
        let env = field(&doc, "env").ok_or("file without env")?;
        let part = |k| field(env, k).and_then(text).unwrap_or("?");
        let fingerprint = (
            part("commit").to_string(),
            format!(
                "nproc {} | {} | kernel {}",
                part("nproc"),
                part("cpu_model"),
                part("kernel")
            ),
        );
        if !set.fingerprints.contains(&fingerprint) {
            set.fingerprints.push(fingerprint);
        }
        let result = field(&doc, "result").ok_or("file without result")?;
        if field(result, "correct") != Some(&Value::Bool(true)) {
            set.failed_runs += 1;
        }
        let Some(Value::Map(metrics)) = field(result, "metrics") else {
            return Err(format!("{}: result without metrics", path.display()));
        };
        let by_metric = set.values.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = field(m, "value").and_then(number) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Improved,
    NoChange,
    Regressed,
    Unresolved,
}

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::Improved => "improved",
            Outcome::NoChange => "no-change",
            Outcome::Regressed => "regressed",
            Outcome::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A on one metric of one workload.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Option<Outcome> {
    let ((a1, am, a3), (b1, bm, b3)) = (quartiles(a)?, quartiles(b)?);
    if am == 0.0 || bm == 0.0 {
        return Some(Outcome::Unresolved);
    }
    let spread = ((a3 - a1) / am).abs().max(((b3 - b1) / bm).abs());
    // Positive: B is worse than A by this share of A's median.
    let worse = if bound.lower_is_better {
        (bm - am) / am
    } else {
        (am - bm) / am
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let b_always_better = if bound.lower_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    Some(if b_always_better {
        Outcome::Improved
    } else if spread > bound.bound {
        Outcome::Unresolved
    } else if worse > bound.bound {
        Outcome::Regressed
    } else if -worse > spread {
        Outcome::Improved
    } else {
        Outcome::NoChange
    })
}

/// Print the comparison; `Ok(true)` when no cell regressed.
pub fn compare(dir_a: &Path, dir_b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let doc = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))
        .and_then(|s| parse(&s))?;
    let bounds = bounds(&doc)?;
    let (a, b) = (load_set(dir_a)?, load_set(dir_b)?);
    for (label, set, dir) in [("A", &a, dir_a), ("B", &b, dir_b)] {
        println!(
            "set {label}: {} ({} failed runs)",
            dir.display(),
            set.failed_runs
        );
        for (commit, machine) in &set.fingerprints {
            println!("  commit {commit} | {machine}");
        }
    }
    let machines =
        |s: &RunSet| -> Vec<String> { s.fingerprints.iter().map(|(_, m)| m.clone()).collect() };
    if machines(&a) != machines(&b) || a.fingerprints.len() > 1 || b.fingerprints.len() > 1 {
        println!("WARNING: the sets come from different machines or mixed runs; timings are not comparable");
    }
    println!(
        "\n{:<12} {:<18} {:>5} {:>36} {:>36} {:>8}  verdict (bound)",
        "workload", "metric", "unit", "A q1 / median / q3 (n)", "B q1 / median / q3 (n)", "B vs A"
    );
    let mut clean = true;
    for (workload, metrics_a) in &a.values {
        let Some(metrics_b) = b.values.get(workload) else {
            continue;
        };
        for bound in &bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                continue;
            };
            let Some(outcome) = judge(va, vb, bound) else {
                println!("{workload:<12} {:<18} needs two runs a side", bound.name);
                continue;
            };
            clean &= outcome != Outcome::Regressed;
            let cell = |v: &[f64]| {
                let (q1, m, q3) = quartiles(v).expect("judged, so two runs a side");
                format!("{q1:.4} / {m:.4} / {q3:.4} ({})", v.len())
            };
            let (am, bm) = (
                quartiles(va).expect("judged").1,
                quartiles(vb).expect("judged").1,
            );
            println!(
                "{workload:<12} {:<18} {:>5} {:>36} {:>36} {:>+7.1}%  {} ({})",
                bound.name,
                bound.unit,
                cell(va),
                cell(vb),
                (bm - am) / am * 100.0,
                outcome.label(),
                bound.bound,
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "verdict_ms_p50".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8];
        let same = [10.05, 10.1, 9.95, 10.0, 10.15, 9.9];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.2, 11.8];
        let faster = [8.0, 8.1, 7.9, 8.0, 8.2, 7.8];
        let noisy = [8.0, 12.0, 9.0, 11.0, 7.0, 13.0];
        assert_eq!(judge(&a, &same, &lower(0.1)), Some(Outcome::NoChange));
        assert_eq!(judge(&a, &slower, &lower(0.1)), Some(Outcome::Regressed));
        assert_eq!(judge(&a, &faster, &lower(0.1)), Some(Outcome::Improved));
        assert_eq!(judge(&a, &noisy, &lower(0.1)), Some(Outcome::Unresolved));
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(judge(&a, &slower, &higher), Some(Outcome::Improved));
        assert_eq!(judge(&a, &faster, &higher), Some(Outcome::Regressed));
        assert_eq!(judge(&a[..1], &same, &lower(0.1)), None);
    }
}
