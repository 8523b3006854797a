//! The machine-readable scenario matrix: the `scenarios` suite.
//!
//! Runs every named manifest from [`ScenarioManifest::matrix`] through
//! every strategy in `StrategyKind::all()` (one source of truth for both
//! axes), audits each run, and distills the results into JSON documents:
//! one per scenario, plus a combined matrix document (the committed
//! trajectory `BENCH_scenarios.json`). Like every suite's, the documents
//! are pure functions of the parameters — simulated time only, sorted
//! metric keys, shortest-round-trip floats — so same-seed reruns emit
//! byte-identical files, which `--smoke` asserts.

use crate::suite::{pick, write_record, Report, Suite};
use sq_core::audit::AuditedRun;
use sq_core::scenario::{run_scenario, ScenarioRun};
use sq_core::strategy::StrategyKind;
use sq_obs::JsonWriter;
use sq_workload::{ArrivalCurve, ScenarioManifest};

/// Parameters of one scenario-matrix run.
#[derive(Debug, Clone)]
pub struct ScenarioBenchParams {
    /// Master seed (trace; the training history salts it).
    pub seed: u64,
    /// Replay length per scenario; `None` runs each manifest's full
    /// configured duration.
    pub n_changes_override: Option<usize>,
    /// Training-history size for the SubmitQueue predictor.
    pub history_changes: usize,
}

impl ScenarioBenchParams {
    /// The recorded configuration (what `BENCH_scenarios.json` reports):
    /// every scenario at its full configured duration.
    pub fn standard() -> Self {
        ScenarioBenchParams {
            seed: crate::BENCH_SEED,
            n_changes_override: None,
            history_changes: 1_500,
        }
    }

    /// A small configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ScenarioBenchParams {
            seed: crate::BENCH_SEED,
            n_changes_override: Some(70),
            history_changes: 600,
        }
    }
}

/// Run the full named matrix. Panics only on manifest bugs (the named
/// matrix always validates).
pub fn run_matrix(params: &ScenarioBenchParams) -> Vec<ScenarioRun> {
    ScenarioManifest::matrix()
        .iter()
        .map(|m| {
            let n = params
                .n_changes_override
                .unwrap_or_else(|| m.n_changes().expect("named manifest validates"));
            run_scenario(m, params.seed, n, params.history_changes)
                .expect("named manifest validates")
        })
        .collect()
}

/// Audit-gate a finished matrix: every named scenario in order, each
/// with every strategy in `all()` order, and every scenario × strategy
/// passing [`AuditedRun::problems`]. Returns every violation found
/// (empty = pass).
pub fn violations(runs: &[ScenarioRun]) -> Vec<String> {
    let mut problems = Vec::new();
    let expected = ScenarioManifest::matrix();
    if !(runs.iter().map(|r| &r.manifest.name)).eq(expected.iter().map(|m| &m.name)) {
        problems.push(format!(
            "matrix is not the {} named scenarios in order",
            expected.len()
        ));
    }
    for run in runs {
        // The census check: a kind added to the enum that never
        // reaches the matrix fails here.
        if !(run.outcomes.iter().map(|o| o.result.strategy)).eq(StrategyKind::all()) {
            problems.push(format!(
                "{}: strategy rows are not StrategyKind::all() in order",
                run.manifest.name
            ));
        }
        for o in &run.outcomes {
            problems.extend(o.problems(&cell(run, o)));
        }
    }
    problems
}

fn cell(run: &ScenarioRun, o: &AuditedRun) -> String {
    format!("{} / {}", run.manifest.name, o.result.strategy.name())
}

fn arrival_kind(curve: &ArrivalCurve) -> &'static str {
    match curve {
        ArrivalCurve::Constant => "constant",
        ArrivalCurve::Diurnal { .. } => "diurnal",
    }
}

/// Write one scenario's object (shared by the per-scenario documents and
/// the combined matrix document).
fn write_scenario(w: &mut JsonWriter, run: &ScenarioRun) {
    let m = &run.manifest;
    w.begin_object();
    w.field_str("scenario", &m.name);
    w.field_str("description", &m.description);
    w.key("params");
    w.begin_object();
    w.field_u64("seed", run.seed);
    w.field_str("platform", &m.platform.to_string());
    w.field_u64("n_changes", run.workload.changes.len() as u64);
    w.field_f64("rate_per_hour", run.workload.params.changes_per_hour);
    w.field_f64("duration_hours", m.duration_hours);
    w.field_u64("workers", m.workers as u64);
    w.field_f64("infra_fault_rate", m.infra_fault_rate);
    w.field_u64("shards", m.shards as u64);
    w.field_str("arrival", arrival_kind(&m.arrival));
    w.key("adversary");
    w.begin_object();
    w.key("revert_storm");
    w.value_bool(m.adversary.revert_storm.is_some());
    w.key("flaky");
    w.value_bool(m.adversary.flaky.is_some());
    w.key("hub");
    w.value_bool(m.adversary.hub.is_some());
    w.end_object();
    w.field_f64(
        "isolated_success_rate",
        run.workload.isolated_success_rate(),
    );
    w.end_object();
    w.key("strategies");
    w.begin_array();
    for o in &run.outcomes {
        w.begin_object();
        write_record(w, o);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/// One scenario's standalone JSON document (the per-scenario artifact
/// CI uploads).
pub fn scenario_json(run: &ScenarioRun) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "sq-bench-scenario/v1");
    w.key("run");
    write_scenario(&mut w, run);
    w.end_object();
    w.finish()
}

/// The combined matrix document (`BENCH_scenarios.json`).
pub fn matrix_json(params: &ScenarioBenchParams, runs: &[ScenarioRun]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "sq-bench-scenario-matrix/v1");
    w.field_u64("seed", params.seed);
    w.field_u64("history_changes", params.history_changes as u64);
    w.field_u64("scenario_count", runs.len() as u64);
    // StrategyKind::COUNT keeps the document honest: a strategy added to
    // `all()` changes this field and every strategies array in lockstep.
    w.field_u64("strategy_count", StrategyKind::COUNT as u64);
    w.key("scenarios");
    w.begin_array();
    for run in runs {
        write_scenario(&mut w, run);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The `scenarios` row of the suite table.
pub const SUITE: Suite = Suite {
    name: "scenarios",
    schema: "sq-bench-scenario-matrix/v1",
    keys: &[
        ": scenario_count strategy_count",
        "scenarios: scenario params",
    ],
    records: &["scenarios.strategies"],
    run: |smoke| {
        let params = pick(
            smoke,
            ScenarioBenchParams::smoke,
            ScenarioBenchParams::standard,
        );
        let runs = run_matrix(&params);
        Box::new(ScenarioMatrix { params, runs })
    },
};

struct ScenarioMatrix {
    params: ScenarioBenchParams,
    runs: Vec<ScenarioRun>,
}

impl Report for ScenarioMatrix {
    fn summary(&self) -> Vec<String> {
        let mut lines = vec![format!("{:?}", self.params)];
        lines.extend(self.runs.iter().map(|run| {
            let clean = (run.outcomes.iter()).all(|o| o.problems(&cell(run, o)).is_empty());
            format!(
                "  {:14} {} strategies, {}",
                run.manifest.name,
                run.outcomes.len(),
                if clean { "all clean" } else { "VIOLATIONS" },
            )
        }));
        lines
    }

    fn gate(&self) -> Vec<String> {
        violations(&self.runs)
    }

    fn doc(&self) -> String {
        matrix_json(&self.params, &self.runs)
    }

    fn extras(&self) -> Vec<(String, String)> {
        let file = |run: &ScenarioRun| format!("scenarios/{}.json", run.manifest.name);
        (self.runs.iter().map(|run| (file(run), scenario_json(run)))).collect()
    }
}
