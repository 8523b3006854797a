//! `sq-benchmark`: one wall-clock benchmark for the served queue and the
//! planner core. One process runs one workload; see `README.md`.
//!
//! ```text
//! sq-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke]
//!              [--save <dir>] [--commit <id>]
//! sq-benchmark compare <set-a> <set-b>
//! ```

mod compare;
mod input;
mod layers;
mod metrics;
mod plan;
mod serve;
mod spans;
mod stats;
mod sys;

use metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use plan::PlanScale;
use serve::{run_served, Scale, ServeSpec, Stop};
use spans::{Recorder, Span};
use sq_obs::JsonWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The seed of a run that names none.
const DEFAULT_SEED: u64 = 24301;
/// Seconds a run measures when it names none: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

/// Everything one run is told.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    save: Option<PathBuf>,
    commit: String,
}

/// Sizes of the full benchmark; `--smoke` divides each by twenty.
struct Sizes {
    serve: Scale,
    plan: PlanScale,
    /// Changes the layer replay covers.
    replay_changes: usize,
}

impl Sizes {
    fn new(smoke: bool, trace: bool) -> Sizes {
        let div = if smoke { 20 } else { 1 };
        // Set-up repeats so that `setup_s` is a median; a traced run does
        // not report it.
        let setups = if smoke || trace { 1 } else { 3 };
        Sizes {
            serve: Scale {
                warmup_changes: 100 / div,
                setups,
            },
            plan: PlanScale {
                history_changes: 4_000 / div,
                sim_changes: 500 / div,
                reference_changes: 300 / div,
                setups,
            },
            replay_changes: 300 / div,
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sq-benchmark --workload <{}> [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
         [--smoke] [--save <dir>] [--commit <id>]\n       \
         sq-benchmark compare <set-a> <set-b>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        save: None,
        commit: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--traced" => args.trace = true,
            "--workload" => args.workload = it.next()?.clone(),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok()?,
            "--trace" => args.trace = it.next()?.parse::<u8>().ok()? != 0,
            "--save" => args.save = Some(PathBuf::from(it.next()?)),
            "--commit" => args.commit = it.next()?.clone(),
            _ => return None,
        }
    }
    if args.seconds == 0 {
        args.seconds = if args.smoke { 1 } else { DEFAULT_SECONDS };
    }
    WORKLOADS.contains(&args.workload.as_str()).then_some(args)
}

fn served_spec(workload: &str) -> Option<ServeSpec> {
    match workload {
        "serve_queue" => Some(serve::SERVE_QUEUE),
        "serve_build" => Some(serve::SERVE_BUILD),
        "serve_open" => Some(serve::SERVE_OPEN),
        _ => None,
    }
}

/// Run the workload; returns its report and, when traced, the spans of
/// the live run and of the layer replay.
fn run(args: &Args) -> (Report, Vec<(&'static str, Vec<Span>)>) {
    let sizes = Sizes::new(args.smoke, args.trace);
    let rec = Arc::new(Recorder::default());
    let seconds = Duration::from_secs(args.seconds);
    let (mut report, input, footprint, step_delay) = match served_spec(&args.workload) {
        Some(spec) => {
            let stop = Stop::After(seconds);
            let run = run_served(
                &spec,
                &sizes.serve,
                args.seed,
                stop,
                args.trace,
                &args.out,
                &rec,
            );
            (run.report, run.input, spec.footprint(), spec.step_delay)
        }
        None => {
            // plan_sim serves nothing: a traced run reads the client and
            // server cells from a closed loop as long as a warm-up, with
            // instant steps.
            let mut report = Report::default();
            if args.trace {
                let spec = ServeSpec {
                    step_delay: Duration::ZERO,
                    ..serve::SERVE_BUILD
                };
                let stop = Stop::Changes(sizes.serve.warmup_changes);
                report =
                    run_served(&spec, &sizes.serve, args.seed, stop, true, &args.out, &rec).report;
                report.notes.clear();
                report.note("client.* and server.* are from a reference closed loop, not from this workload".into());
                rec.take();
            }
            report.merge(plan::run_plan(
                args.seed,
                seconds,
                &sizes.plan,
                args.trace,
                &rec,
            ));
            if !args.trace {
                require_all(&mut report, END_TO_END);
                return (report, Vec::new());
            }
            let (w, generate_ms) = plan::workload(args.seed, sizes.replay_changes);
            (
                report,
                input::materialize(w, generate_ms),
                input::Footprint::Plain,
                Duration::ZERO,
            )
        }
    };
    if !args.trace {
        require_all(&mut report, END_TO_END);
        return (report, Vec::new());
    }
    let live = rec.take();
    let replayed = layers::replay(
        &input,
        footprint,
        sizes.replay_changes,
        step_delay,
        &args.out,
        &rec,
        &mut report,
    );
    report.set("workload.materialize_ms", input.materialize_ms);
    let coverage = report.values["core.service.replay_coverage"];
    report.check((0.85..=1.15).contains(&coverage), || {
        format!("core.service.replay_coverage {coverage:.3} outside [0.85, 1.15]: the replay has drifted from process_next")
    });
    layers::planner_lab(args.seed, &sizes.plan, &mut report);
    require_all(&mut report, PER_LAYER);
    (report, vec![("live", live), ("replay", replayed)])
}

/// Every metric of the table must have been measured, as a finite number.
fn require_all(report: &mut Report, table: &[(&'static str, &'static str)]) {
    for (name, _) in table {
        let measured = report.values.get(name).is_some_and(|v| v.is_finite());
        report.check(measured, || format!("{name} was not measured"));
    }
}

fn write_result(w: &mut JsonWriter, report: &Report, table: &[(&str, &str)]) {
    w.begin_object();
    w.key("correct");
    w.value_bool(report.correct());
    w.field_u64("attempted", report.attempted.max(1));
    w.field_u64("failed", report.failed);
    w.key("metrics");
    w.begin_object();
    for (name, unit) in table {
        w.key(name);
        w.begin_object();
        w.field_f64("value", report.values.get(name).copied().unwrap_or(0.0));
        w.field_str("unit", unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
}

/// Where a result came from: the commit and the machine.
fn env_fields(env: &sys::Fingerprint) -> [(&'static str, String); 4] {
    [
        ("commit", env.commit.clone()),
        ("nproc", env.nproc.to_string()),
        ("cpu_model", env.cpu_model.clone()),
        ("kernel", env.kernel.clone()),
    ]
}

fn header(args: &Args, env: &sys::Fingerprint) -> Vec<(&'static str, String)> {
    let mut header = vec![
        ("schema", "sq-benchmark/v1".into()),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("smoke", args.smoke.to_string()),
    ];
    header.extend(env_fields(env));
    header
}

/// The file `--save <dir>` writes, one per run: what ran, where, and the
/// result object.
fn save(
    dir: &Path,
    args: &Args,
    env: &sys::Fingerprint,
    report: &Report,
    table: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("workload", &args.workload);
    w.field_u64("seed", args.seed);
    w.field_u64("seconds", args.seconds);
    w.field_u64("trace", u64::from(args.trace));
    w.key("smoke");
    w.value_bool(args.smoke);
    w.key("env");
    w.begin_object();
    for (k, v) in env_fields(env) {
        w.field_str(k, &v);
    }
    w.end_object();
    w.key("result");
    write_result(&mut w, report, table);
    w.end_object();
    std::fs::create_dir_all(dir)?;
    let traced = if args.trace { "-traced" } else { "" };
    std::fs::write(
        dir.join(format!("{}-{}{traced}.json", args.workload, args.seed)),
        w.finish(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = argv.as_slice() else {
            return usage();
        };
        // Both commands run from the repository root (run.sh goes there).
        let bounds = Path::new("BENCHMARK.json");
        return match compare::compare(Path::new(a), Path::new(b), bounds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    let (report, sections) = run(&args);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let env = sys::Fingerprint::read(&args.commit);
    let header = header(&args, &env);
    for (k, v) in &header {
        println!("# {k}: {v}");
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit) in table {
        println!(
            "{name:<40} {:>16.4} {unit}",
            report.values.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{:<40} {:>16} count", "attempted", report.attempted);
    println!("{:<40} {:>16} count", "failed", report.failed);
    for failed in &report.failed_checks {
        println!("FAILED CHECK: {failed}");
    }
    if args.trace {
        let path = args.out.join(format!("trace-{}.json", args.workload));
        match spans::write_json(&path, &header, &sections) {
            Ok(()) => println!("# trace: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    if let Some(dir) = &args.save {
        if let Err(e) = save(dir, &args, &env, &report, table) {
            eprintln!("cannot write into {}: {e}", dir.display());
        }
    }
    let mut w = JsonWriter::new();
    write_result(&mut w, &report, table);
    println!("{}", w.finish());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::__private::Value;
    use std::collections::BTreeSet;

    fn smoke(workload: &str, trace: bool) -> Args {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        Args {
            workload: workload.into(),
            seed: DEFAULT_SEED,
            seconds: 1,
            trace,
            smoke: true,
            out: out.join(format!("test-{workload}-{}", u8::from(trace))),
            save: None,
            commit: "test".into(),
        }
    }

    fn declared(doc: &Value, list: &str) -> BTreeSet<(String, String)> {
        let Value::Map(top) = doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let Some((_, Value::Seq(items))) = top.iter().find(|(k, _)| k == list) else {
            panic!("BENCHMARK.json has no {list}")
        };
        let text = |item: &Value, key: &str| match item {
            Value::Map(m) => match m.iter().find(|(k, _)| k == key) {
                Some((_, Value::Str(s))) => s.clone(),
                _ => String::new(),
            },
            _ => String::new(),
        };
        items
            .iter()
            .map(|i| (text(i, "name"), text(i, "unit")))
            .collect()
    }

    /// The names (and units) a smoke run of every workload prints, with
    /// tracing off and on, are the names `BENCHMARK.json` declares.
    #[test]
    fn smoke_runs_print_exactly_the_declared_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = compare::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
            .expect("BENCHMARK.json parses");
        let owned = |table: &[(&str, &str)]| -> BTreeSet<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: BTreeSet<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.to_string()).collect());

        for workload in WORKLOADS {
            for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
                let args = smoke(workload, trace);
                std::fs::create_dir_all(&args.out).expect("out directory is writable");
                let (report, sections) = run(&args);
                assert_eq!(
                    report.failed_checks,
                    Vec::<String>::new(),
                    "{workload} trace={trace}"
                );
                for (name, _) in table {
                    assert!(
                        report.values.contains_key(name),
                        "{workload} did not measure {name}"
                    );
                }
                assert_eq!(trace, !sections.is_empty());
                let _ = std::fs::remove_dir_all(&args.out);
            }
        }
    }

    #[test]
    fn arguments_follow_the_drivers_form() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv(
            "--workload serve_open --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("serve_open", 7, 3, true)
        );
        let args = parse_args(&argv("--workload plan_sim --smoke")).unwrap();
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.smoke),
            (DEFAULT_SEED, 1, false, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_none());
        assert!(parse_args(&argv("--workload plan_sim --bogus")).is_none());
        assert!(parse_args(&argv("--seed 1")).is_none());
    }
}
