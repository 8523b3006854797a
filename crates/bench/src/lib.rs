//! # sq-bench — the benchmark and figure-regeneration harness
//!
//! One binary. `sq-bench <suite>...|all [--smoke|--write]` runs rows of
//! the suite table ([`suite::SUITES`]) under one protocol (see
//! [`suite`]); `sq-bench fig <figure>...|all [--smoke]` runs rows of the
//! figure table ([`figures::FIGURES`]).
//!
//! | suite       | document (repo root)   | what it measures                          |
//! |-------------|------------------------|-------------------------------------------|
//! | `lean`      | `BENCH_lean.json`      | lean-speculation ablation matrix; its baseline cell is the recorded run of the whole planner stack |
//! | `shard`     | `BENCH_shard.json`     | sharded vs single-queue planner           |
//! | `scenarios` | `BENCH_scenarios.json` | adversarial scenario × strategy matrix    |
//!
//! Every suite runs the simulator on its simulated clock: no store,
//! executor or thread. Every run is an audited record
//! ([`sq_core::audit::AuditedRun`]), gated by its one `problems()` and
//! written by the one [`suite::write_record`]. Every document is a pure
//! function of its params and is compared byte for byte with the
//! committed copy; wall-clock numbers live in `benchmark/`.
//!
//! | figure              | paper figure/claim                                  |
//! |---------------------|-----------------------------------------------------|
//! | `fig01`             | P(real conflict) vs concurrent conflicting changes  |
//! | `fig02`             | P(breakage) vs change staleness                     |
//! | `fig05_08`          | speculation trees/graphs + Fig. 8 counterexample    |
//! | `fig09`             | CDF of build durations                              |
//! | `fig10`             | CDF of Oracle turnaround at 100..500 changes/h      |
//! | `fig11`             | P50/P95/P99 turnaround grids normalized vs Oracle   |
//! | `fig12`             | normalized average throughput                       |
//! | `fig13`             | P95 turnaround improvement from conflict analyzer   |
//! | `fig14`             | mainline green rate before SubmitQueue              |
//! | `model_eval`        | §7.2: accuracy, top features, RFE                   |
//! | `graph_change_rate` | §5.2: fraction of changes altering the build graph  |
//! | `ablation_s10`      | §10 extensions: reorder, guard, batching, boosting  |
//! | `flake_sweep`       | infra-flake rate vs latency, zero wrongful rejects  |
//!
//! Every figure prints its series to stdout and writes a CSV to
//! `target/figures/`. `--smoke` shrinks the grids, trial counts and
//! simulated hours; it is the only knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod lean;
pub mod scenarios;
pub mod shard;
pub mod suite;

use sq_core::planner::{run_simulation, PlannerConfig, SimResult};
use sq_core::predict::LearnedPredictor;
use sq_core::strategy::{Strategy, StrategyKind};
use sq_workload::{Workload, WorkloadBuilder, WorkloadParams};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Master seed for all workloads.
pub const BENCH_SEED: u64 = 0x5EED;

/// Simulated hours of arrivals per grid cell.
pub fn bench_hours(smoke: bool) -> f64 {
    if smoke {
        1.0
    } else {
        3.0
    }
}

/// The rate axis of the paper's grids (changes/hour).
pub fn rates(smoke: bool) -> Vec<f64> {
    match smoke {
        true => vec![100.0, 300.0],
        false => vec![100.0, 200.0, 300.0, 400.0, 500.0],
    }
}

/// The worker axis of the paper's grids.
pub fn worker_counts(smoke: bool) -> Vec<usize> {
    match smoke {
        true => vec![100, 300],
        false => vec![100, 200, 300, 400, 500],
    }
}

/// The repository root: `crates/bench/` is two levels below it.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("bench crate lives two levels below the repo root")
        .to_path_buf()
}

/// Where figure CSVs and fresh benchmark documents land: `figures/`
/// under the target directory, resolved against the repository root.
pub fn figures_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = repo_root().join(target).join("figures");
    fs::create_dir_all(&dir).expect("create figures dir");
    dir
}

/// Write a CSV (plus announce the path on stdout).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = figures_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    println!("\n[csv] {}", path.display());
}

/// Build the controlled-replay workload for a given ingestion rate
/// (Section 8.1: same changes, different rates).
pub fn workload_at_rate(rate: f64, smoke: bool) -> Workload {
    WorkloadBuilder::new(WorkloadParams::ios().with_rate(rate))
        .seed(BENCH_SEED)
        .duration_hours(bench_hours(smoke))
        .build()
        .expect("valid workload params")
}

/// The training history for SubmitQueue's models (disjoint seed).
pub fn training_history(smoke: bool) -> Workload {
    let n = if smoke { 3_000 } else { 10_000 };
    WorkloadBuilder::new(WorkloadParams::ios())
        .seed(BENCH_SEED ^ 0xA11CE)
        .n_changes(n)
        .build()
        .expect("valid workload params")
}

/// Train the SubmitQueue predictor once for the whole grid.
pub fn trained_predictor(smoke: bool) -> LearnedPredictor {
    let history = training_history(smoke);
    let (p, _) = LearnedPredictor::train(&history, BENCH_SEED);
    p
}

/// Instantiate a strategy for a workload, reusing a trained predictor
/// (the lean kinds calibrate their skip threshold against the shared
/// training history).
pub fn strategy_for(
    kind: StrategyKind,
    workload: &Workload,
    predictor: &LearnedPredictor,
    smoke: bool,
) -> Strategy {
    Strategy::for_kind(
        kind,
        workload,
        || predictor.clone(),
        |trained| {
            trained.calibrate_skip_threshold(&training_history(smoke), sq_core::SKIP_MISS_BUDGET)
        },
    )
}

/// Run one grid cell.
pub fn run_cell(
    workload: &Workload,
    strategy: &Strategy,
    workers: usize,
    conflict_analyzer: bool,
) -> SimResult {
    let config = PlannerConfig {
        workers,
        conflict_analyzer,
        ..PlannerConfig::default()
    };
    run_simulation(workload, strategy, &config)
}

/// Render a rate × workers matrix the way the paper's heatmaps read:
/// rows = changes/hour (descending), columns = workers (ascending).
pub fn print_matrix(
    title: &str,
    rates: &[f64],
    workers: &[usize],
    cell: impl Fn(f64, usize) -> f64,
) {
    println!("\n=== {title} ===");
    print!("{:>14} |", "#changes/hour");
    for &w in workers {
        print!(" {w:>8}");
    }
    println!("  (workers)");
    println!("{}", "-".repeat(16 + 9 * workers.len()));
    for &r in rates.iter().rev() {
        print!("{r:>14.0} |",);
        for &w in workers {
            print!(" {:>8.2}", cell(r, w));
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_smoke_grid_is_a_corner_of_the_full_one() {
        assert!(bench_hours(true) < bench_hours(false));
        assert!(rates(true).iter().all(|r| rates(false).contains(r)));
        assert!(worker_counts(true)
            .iter()
            .all(|w| worker_counts(false).contains(w)));
    }

    #[test]
    fn workload_rate_is_respected() {
        let w = workload_at_rate(200.0, true);
        assert!(!w.changes.is_empty());
        assert!((w.params.changes_per_hour - 200.0).abs() < 1e-9);
    }

    #[test]
    fn run_cell_smoke() {
        let w = WorkloadBuilder::new(WorkloadParams::ios().with_rate(100.0))
            .seed(1)
            .n_changes(30)
            .build()
            .unwrap();
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let r = run_cell(&w, &strategy, 50, true);
        assert_eq!(r.records.len(), 30);
    }
}
