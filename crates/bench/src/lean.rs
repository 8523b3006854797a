//! The lean-speculation ablation matrix: the `lean` suite.
//!
//! One seeded workload replayed through five [`LeanConfig`] cells —
//! baseline (decision-identical to plain SubmitQueue), each lean
//! optimization alone, and all three together — under the same planner
//! configuration as the `e2e` suite, so the baseline cell reproduces the
//! committed `BENCH_e2e.json` build counts. Every cell is audited:
//! always-green must hold and wrongful rejections must be zero (a wrong
//! skip or bypass may only cost latency, never a rejection). Like the
//! other committed benchmark documents, the JSON is a pure function of
//! [`LeanBenchParams`] — simulated time only, sorted metric keys,
//! shortest-round-trip floats — so same-seed reruns are byte-identical.

use crate::suite::{no_flags, pick, Report, Suite};
use sq_core::audit::{audit_green, count_wrongful_rejections};
use sq_core::planner::{run_simulation_observed, PlannerConfig, SimFaults, SimResult};
use sq_core::predict::LearnedPredictor;
use sq_core::strategy::Strategy;
use sq_core::{LeanConfig, LeanReport, SKIP_MISS_BUDGET};
use sq_obs::{JsonWriter, Observer};
use sq_workload::{Workload, WorkloadBuilder, WorkloadParams};

/// Parameters of one ablation-matrix run. Mirrors `E2eParams` so the
/// baseline cell is directly comparable to `BENCH_e2e.json`.
#[derive(Debug, Clone)]
pub struct LeanBenchParams {
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
    /// Training-history size for the predictor and calibration.
    pub history_changes: usize,
}

impl LeanBenchParams {
    /// The recorded configuration (what `BENCH_lean.json` at the repo
    /// root reports) — identical to `E2eParams::standard`.
    pub fn standard() -> Self {
        LeanBenchParams {
            seed: crate::BENCH_SEED,
            n_changes: 400,
            rate: 250.0,
            workers: 150,
            fault_rate: 0.05,
            history_changes: 4_000,
        }
    }

    /// A small configuration for CI smoke runs.
    pub fn smoke() -> Self {
        LeanBenchParams {
            seed: crate::BENCH_SEED,
            n_changes: 60,
            rate: 200.0,
            workers: 40,
            fault_rate: 0.1,
            history_changes: 800,
        }
    }
}

/// One audited ablation cell.
#[derive(Debug)]
pub struct LeanCell {
    /// Which lean flags were active.
    pub config: LeanConfig,
    /// Stable cell label ("baseline", "skip", …, "skip+prioritize+bypass").
    pub label: String,
    /// The finished simulation.
    pub result: SimResult,
    /// Gating builds actually required (`planner.builds_needed`).
    pub needed: u64,
    /// Always-green audit verdict.
    pub green: Result<(), String>,
    /// Wrongful-rejection count (must be zero in every cell).
    pub wrongful: usize,
}

impl LeanCell {
    /// Builds started beyond the needed gating builds.
    pub fn wasted(&self) -> u64 {
        self.result.builds_started.saturating_sub(self.needed)
    }

    /// The per-run lean accounting (present for every lean strategy).
    pub fn lean_report(&self) -> LeanReport {
        self.result.lean.unwrap_or_default()
    }
}

/// A finished ablation matrix.
#[derive(Debug)]
pub struct LeanMatrix {
    /// The parameters that produced it.
    pub params: LeanBenchParams,
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

/// Run the full ablation matrix: train and calibrate once, then replay
/// the same workload through every cell.
pub fn run_matrix(params: &LeanBenchParams) -> LeanMatrix {
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
    // Same training seed as the e2e suite, so the baseline cell's planner
    // decisions match the committed BENCH_e2e.json run bit for bit.
    let (predictor, _) = LearnedPredictor::train(&history, params.seed);
    let skip_threshold = predictor.calibrate_skip_threshold(&history, SKIP_MISS_BUDGET);
    let config = PlannerConfig {
        workers: params.workers,
        faults: Some(SimFaults::at_rate(params.fault_rate, params.seed)),
        ..PlannerConfig::default()
    };
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
    cfg: LeanConfig,
    config: &PlannerConfig,
) -> LeanCell {
    let strategy = Strategy::lean_with(predictor.clone(), cfg);
    let mut obs = Observer::new();
    let result = run_simulation_observed(workload, &strategy, config, &mut obs);
    let needed = obs.metrics.counter("planner.builds_needed");
    let green = audit_green(workload, &result);
    let wrongful = count_wrongful_rejections(workload, &result);
    LeanCell {
        config: cfg,
        label: cfg.label(),
        result,
        needed,
        green,
        wrongful,
    }
}

/// Gate a finished matrix. The cells must be the ablation rows in
/// order; every cell must resolve every change, need the same gating
/// builds as the baseline, and be always-green with zero
/// wrongful rejections and a non-empty commit log; the all-on cell must
/// not start more wasted builds than the baseline, and must sustain at
/// least the baseline throughput (the headline claim: waste drops, the
/// queue does not slow down). Returns every violation found.
pub fn violations(matrix: &LeanMatrix) -> Vec<String> {
    let mut problems = Vec::new();
    // `baseline()` and `all_on()` below read the first and last cell.
    let expected = ablation_cells(matrix.skip_threshold);
    if !(matrix.cells.iter().map(|c| c.label.as_str())).eq(expected.iter().map(|c| c.label())) {
        problems.push("cells are not the ablation rows in order".to_string());
    }
    for cell in &matrix.cells {
        if let Err(e) = &cell.green {
            problems.push(format!("{}: always-green violated: {e}", cell.label));
        }
        if cell.wrongful > 0 {
            problems.push(format!(
                "{}: {} wrongful rejection(s)",
                cell.label, cell.wrongful
            ));
        }
        if cell.result.committed() == 0 {
            problems.push(format!("{}: nothing committed", cell.label));
        }
        if cell.result.records.len() != matrix.params.n_changes {
            problems.push(format!(
                "{}: {} of {} changes resolved",
                cell.label,
                cell.result.records.len(),
                matrix.params.n_changes
            ));
        }
        // A wrong skip may delay, never inflate the gating-build count.
        if cell.needed != matrix.baseline().needed {
            problems.push(format!(
                "{}: {} gating builds needed, baseline needed {}",
                cell.label,
                cell.needed,
                matrix.baseline().needed
            ));
        }
        let report = cell.lean_report();
        if report.skip_hits + report.skip_misses != report.skipped {
            problems.push(format!(
                "{}: skip accounting does not add up ({} + {} != {})",
                cell.label, report.skip_hits, report.skip_misses, report.skipped
            ));
        }
    }
    let (baseline, all_on) = (matrix.baseline(), matrix.all_on());
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
    let baseline_wasted = matrix.baseline().wasted();
    let all_on_wasted = matrix.all_on().wasted();
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
        let (p50, p95, p99) = cell.result.turnaround_p50_p95_p99();
        let report = cell.lean_report();
        w.begin_object();
        w.field_str("cell", &cell.label);
        w.field_str("strategy", cell.config.canonical_kind().name());
        w.key("flags");
        w.begin_object();
        w.key("skip");
        w.value_bool(cell.config.skip_threshold.is_some());
        w.key("prioritize");
        w.value_bool(cell.config.prioritize);
        w.key("bypass");
        w.value_bool(cell.config.bypass);
        w.end_object();
        w.key("green");
        w.value_bool(cell.green.is_ok());
        w.field_u64("wrongful_rejections", cell.wrongful as u64);
        w.field_u64("commits", cell.result.committed() as u64);
        w.field_u64("rejects", cell.result.rejected() as u64);
        w.field_f64("throughput_per_hour", cell.result.throughput_per_hour());
        w.field_f64(
            "sustained_throughput_per_hour",
            cell.result.sustained_throughput_per_hour(),
        );
        w.key("turnaround_mins");
        w.begin_object();
        w.field_f64("mean", cell.result.mean_turnaround_mins());
        w.field_f64("p50", p50);
        w.field_f64("p95", p95);
        w.field_f64("p99", p99);
        w.end_object();
        w.key("builds");
        w.begin_object();
        w.field_u64("started", cell.result.builds_started);
        w.field_u64("aborted", cell.result.builds_aborted);
        w.field_u64("needed", cell.needed);
        w.field_u64("wasted", cell.wasted());
        w.end_object();
        w.key("lean");
        w.begin_object();
        w.field_u64("skipped", report.skipped);
        w.field_u64("skip_hits", report.skip_hits);
        w.field_u64("skip_misses", report.skip_misses);
        w.field_f64("skip_miss_rate", report.miss_rate());
        w.field_u64("bypassed", report.bypassed);
        w.end_object();
        w.field_u64("infra_retries", cell.result.infra_retries);
        w.end_object();
    }
    w.end_array();
    w.key("summary");
    w.begin_object();
    w.field_u64("baseline_wasted", baseline_wasted);
    w.field_u64("all_on_wasted", all_on_wasted);
    w.field_f64(
        "wasted_reduction_pct",
        if baseline_wasted == 0 {
            0.0
        } else {
            100.0 * (baseline_wasted - all_on_wasted) as f64 / baseline_wasted as f64
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
    keys: &[
        ": params cells summary",
        "cells: cell strategy flags green wrongful_rejections commits turnaround_mins builds lean",
        "cells.builds: started aborted needed wasted",
    ],
    run: |smoke, flags| {
        no_flags(flags)?;
        let params = pick(smoke, LeanBenchParams::smoke, LeanBenchParams::standard);
        Ok(Box::new(run_matrix(&params)))
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
                cell.label,
                cell.result.builds_started,
                cell.wasted(),
                cell.result.sustained_throughput_per_hour(),
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
