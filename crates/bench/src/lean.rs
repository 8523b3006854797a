//! The lean-speculation ablation matrix: the `lean` suite.
//!
//! One seeded run of the whole planner stack — workload synthesis,
//! predictor training, planning under an infra-fault model — replayed
//! through five [`LeanConfig`] cells: baseline (decision-identical to
//! plain SubmitQueue), each lean optimization alone, and all three
//! together. Every cell is audited: always-green must hold and wrongful
//! rejections must be zero (a wrong skip or bypass may only cost
//! latency, never a rejection). Each cell also carries its observer's
//! metrics export. The JSON is a pure function of its [`LeanParams`] —
//! simulated time only, sorted metric keys, shortest-round-trip floats
//! — so same-seed reruns are byte-identical.

use crate::suite::{pick, write_record, Report, Suite};
use sq_core::audit::AuditedRun;
use sq_core::planner::{run_simulation_observed, PlannerConfig, SimFaults};
use sq_core::predict::LearnedPredictor;
use sq_core::strategy::Strategy;
use sq_core::{LeanConfig, LeanReport, SKIP_MISS_BUDGET};
use sq_obs::{JsonWriter, MetricsRegistry, Observer};
use sq_workload::{Workload, WorkloadBuilder, WorkloadParams};

/// Parameters of one ablation matrix.
#[derive(Debug, Clone)]
pub struct LeanParams {
    /// Master seed (workload, training history, fault model).
    pub seed: u64,
    /// Number of changes in the replayed workload.
    pub n_changes: usize,
    /// Ingestion rate in changes/hour.
    pub rate: f64,
    /// Worker fleet size.
    pub workers: usize,
    /// Per-attempt infra-fault probability in `[0, 1]`.
    pub fault_rate: f64,
    /// Training-history size for the SubmitQueue predictor.
    pub history_changes: usize,
}

impl LeanParams {
    /// The recorded configuration (what `BENCH_lean.json` reports).
    pub fn standard() -> Self {
        LeanParams {
            seed: crate::BENCH_SEED,
            n_changes: 400,
            rate: 250.0,
            workers: 150,
            fault_rate: 0.05,
            history_changes: 4_000,
        }
    }

    /// A small configuration for CI smoke runs (seconds, not minutes).
    pub fn smoke() -> Self {
        LeanParams {
            seed: crate::BENCH_SEED,
            n_changes: 60,
            rate: 200.0,
            workers: 40,
            fault_rate: 0.1,
            history_changes: 800,
        }
    }
}

/// One ablation cell: its flags, its audited run and its metrics.
#[derive(Debug)]
pub struct LeanCell {
    /// Which lean flags were active.
    pub config: LeanConfig,
    /// The audited simulation.
    pub run: AuditedRun,
    /// The observer's metrics export of the run.
    pub metrics: MetricsRegistry,
}

impl LeanCell {
    /// The per-run lean accounting (present for every lean strategy).
    pub fn lean_report(&self) -> LeanReport {
        self.run.result.lean.unwrap_or_default()
    }
}

/// A finished ablation matrix.
#[derive(Debug)]
pub struct LeanMatrix {
    /// The parameters that produced it.
    pub params: LeanParams,
    /// The calibrated skip threshold shared by the skip-enabled cells.
    pub skip_threshold: f64,
    /// One cell per ablation row, baseline first.
    pub cells: Vec<LeanCell>,
}

impl LeanMatrix {
    /// The baseline cell (always first).
    pub fn baseline(&self) -> &LeanCell {
        &self.cells[0]
    }

    /// The all-on cell (always last).
    pub fn all_on(&self) -> &LeanCell {
        self.cells.last().expect("matrix has cells")
    }
}

/// The ablation rows, baseline first and all-on last.
fn ablation_cells(threshold: f64) -> Vec<LeanConfig> {
    vec![
        LeanConfig::baseline(),
        LeanConfig::lean(threshold),
        LeanConfig::prioritized(),
        LeanConfig::bypass_only(),
        LeanConfig::all_on(threshold),
    ]
}

/// Run the full ablation matrix: build the workload, train the
/// predictor on a disjoint history and calibrate it once, then replay
/// the same workload through every cell under the infra-fault model.
pub fn run_matrix(params: &LeanParams) -> LeanMatrix {
    let workload = WorkloadBuilder::new(WorkloadParams::ios().with_rate(params.rate))
        .seed(params.seed)
        .n_changes(params.n_changes)
        .build()
        .expect("valid workload params");
    let history = WorkloadBuilder::new(WorkloadParams::ios())
        .seed(params.seed ^ 0xA11CE)
        .n_changes(params.history_changes)
        .build()
        .expect("valid history params");
    let (predictor, _) = LearnedPredictor::train(&history, params.seed);
    let config = PlannerConfig {
        workers: params.workers,
        faults: Some(SimFaults::at_rate(params.fault_rate, params.seed)),
        ..PlannerConfig::default()
    };
    let skip_threshold = predictor.calibrate_skip_threshold(&history, SKIP_MISS_BUDGET);
    let cells = ablation_cells(skip_threshold)
        .into_iter()
        .map(|cfg| run_cell(&workload, &predictor, cfg, &config))
        .collect();
    LeanMatrix {
        params: params.clone(),
        skip_threshold,
        cells,
    }
}

fn run_cell(
    workload: &Workload,
    predictor: &LearnedPredictor,
    config: LeanConfig,
    planner: &PlannerConfig,
) -> LeanCell {
    let strategy = Strategy::lean_with(predictor.clone(), config);
    let mut obs = Observer::new();
    let result = run_simulation_observed(workload, &strategy, planner, &mut obs);
    LeanCell {
        config,
        run: AuditedRun::new(workload, result, None),
        metrics: obs.metrics,
    }
}

/// Gate a finished matrix. The cells must be the ablation rows in
/// order; every cell must pass [`AuditedRun::problems`] and keep its
/// skip accounting consistent; the all-on cell must not start more
/// wasted builds than the baseline, and must sustain at least the
/// baseline throughput (the headline claim: waste drops, the queue does
/// not slow down). Returns every violation found.
pub fn violations(matrix: &LeanMatrix) -> Vec<String> {
    let mut problems = Vec::new();
    // `baseline()` and `all_on()` below read the first and last cell.
    let expected = ablation_cells(matrix.skip_threshold);
    let labels = matrix.cells.iter().map(|c| c.config.label());
    if !labels.eq(expected.iter().map(|c| c.label())) {
        problems.push("cells are not the ablation rows in order".to_string());
    }
    for cell in &matrix.cells {
        let label = cell.config.label();
        problems.extend(cell.run.problems(&label));
        let report = cell.lean_report();
        if report.skip_hits + report.skip_misses != report.skipped {
            problems.push(format!(
                "{label}: skip accounting does not add up ({} + {} != {})",
                report.skip_hits, report.skip_misses, report.skipped
            ));
        }
    }
    let (baseline, all_on) = (&matrix.baseline().run, &matrix.all_on().run);
    if all_on.wasted() > baseline.wasted() {
        problems.push(format!(
            "all-on wasted {} builds, baseline wasted {}",
            all_on.wasted(),
            baseline.wasted()
        ));
    }
    let (base_tp, lean_tp) = (
        baseline.result.sustained_throughput_per_hour(),
        all_on.result.sustained_throughput_per_hour(),
    );
    if lean_tp < base_tp {
        problems.push(format!(
            "all-on sustained throughput {lean_tp} below baseline {base_tp}"
        ));
    }
    problems
}

/// The combined matrix document (`BENCH_lean.json`).
pub fn matrix_json(matrix: &LeanMatrix) -> String {
    let params = &matrix.params;
    let baseline_wasted = matrix.baseline().run.wasted();
    let all_on_wasted = matrix.all_on().run.wasted();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "sq-bench-lean/v1");
    w.key("params");
    w.begin_object();
    w.field_u64("seed", params.seed);
    w.field_u64("n_changes", params.n_changes as u64);
    w.field_f64("rate_per_hour", params.rate);
    w.field_u64("workers", params.workers as u64);
    w.field_f64("fault_rate", params.fault_rate);
    w.field_u64("history_changes", params.history_changes as u64);
    w.field_f64("skip_threshold", matrix.skip_threshold);
    w.field_f64("skip_miss_budget", SKIP_MISS_BUDGET);
    w.end_object();
    w.key("cells");
    w.begin_array();
    for cell in &matrix.cells {
        let report = cell.lean_report();
        w.begin_object();
        w.field_str("cell", &cell.config.label());
        w.key("flags");
        w.begin_object();
        w.key("skip");
        w.value_bool(cell.config.skip_threshold.is_some());
        w.key("prioritize");
        w.value_bool(cell.config.prioritize);
        w.key("bypass");
        w.value_bool(cell.config.bypass);
        w.end_object();
        write_record(&mut w, &cell.run);
        w.key("lean");
        w.begin_object();
        w.field_u64("skipped", report.skipped);
        w.field_u64("skip_hits", report.skip_hits);
        w.field_u64("skip_misses", report.skip_misses);
        w.field_f64("skip_miss_rate", report.miss_rate());
        w.field_u64("bypassed", report.bypassed);
        w.end_object();
        w.key("metrics");
        cell.metrics.write_json(&mut w);
        w.end_object();
    }
    w.end_array();
    w.key("summary");
    w.begin_object();
    w.field_u64("baseline_wasted", baseline_wasted);
    w.field_u64("all_on_wasted", all_on_wasted);
    // Signed: the gate's own failure case is an all-on cell that wastes
    // more than the baseline.
    let saved = baseline_wasted as f64 - all_on_wasted as f64;
    w.field_f64(
        "wasted_reduction_pct",
        if baseline_wasted == 0 {
            0.0
        } else {
            100.0 * saved / baseline_wasted as f64
        },
    );
    w.end_object();
    w.end_object();
    w.finish()
}

/// The `lean` row of the suite table.
pub const SUITE: Suite = Suite {
    name: "lean",
    schema: "sq-bench-lean/v1",
    keys: &[": params cells summary", "cells: cell flags lean metrics"],
    records: &["cells"],
    run: |smoke| {
        let params = pick(smoke, LeanParams::smoke, LeanParams::standard);
        Box::new(run_matrix(&params))
    },
};

impl Report for LeanMatrix {
    fn summary(&self) -> Vec<String> {
        let mut lines = vec![
            format!("{:?}", self.params),
            format!("calibrated skip threshold: {}", self.skip_threshold),
        ];
        lines.extend(self.cells.iter().map(|cell| {
            let report = cell.lean_report();
            format!(
                "  {:22} started={:4} wasted={:4} sustained={:8.3}/h \
                 skipped={:3} (hits={} misses={}) bypassed={:3}",
                cell.config.label(),
                cell.run.result.builds_started,
                cell.run.wasted(),
                cell.run.result.sustained_throughput_per_hour(),
                report.skipped,
                report.skip_hits,
                report.skip_misses,
                report.bypassed,
            )
        }));
        lines
    }

    fn gate(&self) -> Vec<String> {
        violations(self)
    }

    fn doc(&self) -> String {
        matrix_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_pct(json: &str) -> f64 {
        let key = "\"wasted_reduction_pct\":";
        let at = json.find(key).expect("summary field") + key.len();
        let end = json[at..].find('}').expect("summary closes") + at;
        json[at..end].parse().expect("a number")
    }

    #[test]
    fn a_matrix_whose_all_on_cell_wastes_more_reads_a_negative_reduction() {
        let mut matrix = run_matrix(&LeanParams::smoke());
        assert!(summary_pct(&matrix_json(&matrix)) > 0.0);
        let last = matrix.cells.len() - 1;
        matrix.cells.swap(0, last);
        assert!(summary_pct(&matrix_json(&matrix)) < 0.0);
        let problems = violations(&matrix);
        assert!(problems.iter().any(|p| p.starts_with("all-on wasted")));
    }

    #[test]
    fn different_seeds_change_the_document() {
        let tiny = |seed| LeanParams {
            seed,
            n_changes: 25,
            rate: 150.0,
            workers: 30,
            fault_rate: 0.1,
            history_changes: 400,
        };
        let doc = |seed| matrix_json(&run_matrix(&tiny(seed)));
        assert_ne!(doc(7), doc(8));
    }
}
