//! The machine-readable end-to-end benchmark: the `e2e` suite.
//!
//! One seeded run of the whole system — workload synthesis, predictor
//! training, SubmitQueue planning under an infra-fault model, plus a
//! real threaded-executor pass for artifact-cache behaviour — distilled
//! into a single JSON document (`BENCH_e2e.json`). The document is a
//! pure function of [`E2eParams`]: timestamps are simulated, map keys
//! are sorted, floats use shortest round-trip formatting, so two
//! same-seed runs emit byte-identical files and a diff between two
//! commits is a genuine performance diff.

use crate::suite::{no_flags, pick, Report, Suite};
use sq_core::planner::{run_simulation_observed, PlannerConfig, SimFaults};
use sq_core::predict::LearnedPredictor;
use sq_core::strategy::Strategy;
use sq_exec::{ArtifactCache, RealExecutor, StepOutcome};
use sq_obs::{JsonWriter, Observer};
use sq_workload::{WorkloadBuilder, WorkloadParams};
use std::collections::HashSet;
use std::str::FromStr;

/// Parameters of one end-to-end benchmark run.
#[derive(Debug, Clone)]
pub struct E2eParams {
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

impl E2eParams {
    /// The recorded benchmark configuration (what `sq-bench e2e` runs
    /// by default and what `BENCH_e2e.json` at the repo root reports).
    pub fn standard() -> Self {
        E2eParams {
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
        E2eParams {
            seed: crate::BENCH_SEED,
            n_changes: 60,
            rate: 200.0,
            workers: 40,
            fault_rate: 0.1,
            history_changes: 800,
        }
    }
}

/// Run the end-to-end benchmark and return the JSON document.
pub fn run_e2e(params: &E2eParams) -> String {
    // Phase 1: the full planning pipeline under observation — train the
    // predictor on a disjoint history, replay the workload through the
    // SubmitQueue strategy with infra faults enabled.
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
    let strategy = Strategy::submit_queue_with(predictor);
    let config = PlannerConfig {
        workers: params.workers,
        faults: Some(SimFaults::at_rate(params.fault_rate, params.seed)),
        ..PlannerConfig::default()
    };
    let mut obs = Observer::new();
    let result = run_simulation_observed(&workload, &strategy, &config, &mut obs);

    // Phase 2: the real executor over a small dependency chain, run
    // twice against one artifact cache: the first pass is all misses,
    // the second all hits. Only *counts* go into the document — wall
    // clock never does.
    let (exec_first, exec_second, cache_stats) = executor_cache_pass();

    // Compose the document.
    let changes = result.records.len().max(1) as f64;
    let (p50, p95, p99) = result.turnaround_p50_p95_p99();
    let needed = obs.metrics.counter("planner.builds_needed");
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "sq-bench-e2e/v1");
    w.key("params");
    w.begin_object();
    w.field_u64("seed", params.seed);
    w.field_u64("n_changes", params.n_changes as u64);
    w.field_f64("rate_per_hour", params.rate);
    w.field_u64("workers", params.workers as u64);
    w.field_f64("fault_rate", params.fault_rate);
    w.field_u64("history_changes", params.history_changes as u64);
    w.field_str("strategy", result.strategy.name());
    w.end_object();
    w.field_f64("throughput_changes_per_hour", result.throughput_per_hour());
    w.field_f64(
        "sustained_throughput_per_hour",
        result.sustained_throughput_per_hour(),
    );
    w.key("turnaround_mins");
    w.begin_object();
    w.field_f64("mean", result.mean_turnaround_mins());
    w.field_f64("p50", p50);
    w.field_f64("p95", p95);
    w.field_f64("p99", p99);
    w.end_object();
    w.field_f64("builds_per_change", result.builds_started as f64 / changes);
    w.field_f64("worker_utilization", result.utilization);
    w.key("builds");
    w.begin_object();
    w.field_u64("started", result.builds_started);
    w.field_u64("aborted", result.builds_aborted);
    w.field_u64("needed", needed);
    w.field_u64("wasted", result.builds_started.saturating_sub(needed));
    w.end_object();
    w.field_u64("commits", result.committed() as u64);
    w.field_u64("rejects", result.rejected() as u64);
    w.key("infra");
    w.begin_object();
    w.field_u64("retries", result.infra_retries);
    w.field_f64("backoff_mins", result.infra_backoff.as_mins_f64());
    w.field_u64("quarantined", result.quarantined.len() as u64);
    w.end_object();
    w.key("cache");
    w.begin_object();
    w.field_u64("hits", cache_stats.hits);
    w.field_u64("misses", cache_stats.misses);
    w.field_f64("hit_rate", cache_stats.hit_rate());
    w.field_u64("entries", cache_stats.entries as u64);
    w.field_u64("first_pass_executed", exec_first as u64);
    w.field_u64("second_pass_cache_hits", exec_second as u64);
    w.end_object();
    w.key("metrics");
    obs.metrics.write_json(&mut w);
    w.end_object();
    w.finish()
}

/// Drive the threaded executor over a diamond-shaped build graph twice
/// against one artifact cache. Returns (steps executed on the first
/// pass, cache hits on the second pass, final cache statistics) — all
/// deterministic counts regardless of thread interleaving.
fn executor_cache_pass() -> (usize, usize, sq_exec::CacheStats) {
    use sq_build::{BuildGraph, RuleKind, Target, TargetHashes, TargetName};
    use sq_vcs::{ObjectStore, RepoPath, Tree};
    let name = |s: &str| TargetName::from_str(s).expect("valid target name");
    let path = |s: &str| RepoPath::new(s).expect("valid repo path");
    let mut store = ObjectStore::new();
    let mut tree = Tree::new();
    for (p, content) in [
        ("base/s.rs", "base"),
        ("left/s.rs", "left"),
        ("right/s.rs", "right"),
        ("app/s.rs", "app"),
    ] {
        let id = store.put(content.as_bytes().to_vec());
        tree.insert(path(p), id)
            .expect("no file is another's directory");
    }
    let graph = BuildGraph::from_targets([
        Target::new(
            name("//base:base"),
            RuleKind::Library,
            vec![path("base/s.rs")],
            vec![],
        ),
        Target::new(
            name("//left:left"),
            RuleKind::Library,
            vec![path("left/s.rs")],
            vec![name("//base:base")],
        ),
        Target::new(
            name("//right:right"),
            RuleKind::Library,
            vec![path("right/s.rs")],
            vec![name("//base:base")],
        ),
        Target::new(
            name("//app:app"),
            RuleKind::Test,
            vec![path("app/s.rs")],
            vec![name("//left:left"), name("//right:right")],
        ),
    ])
    .expect("acyclic graph");
    let hashes = TargetHashes::compute(&graph, &tree, &store).expect("hashable");
    let targets: HashSet<TargetName> = ["//base:base", "//left:left", "//right:right", "//app:app"]
        .iter()
        .map(|s| name(s))
        .collect();
    let cache = parking_lot::Mutex::new(ArtifactCache::new());
    let executor = RealExecutor::new(4);
    let first = executor.execute(&graph, &targets, &hashes, &cache, |_| StepOutcome::Success);
    let second = executor.execute(&graph, &targets, &hashes, &cache, |_| StepOutcome::Success);
    assert!(first.is_success() && second.is_success());
    let stats = cache.lock().stats();
    (first.executed.len(), second.cache_hits, stats)
}

/// The `e2e` row of the suite table.
pub const SUITE: Suite = Suite {
    name: "e2e",
    schema: "sq-bench-e2e/v1",
    keys: &[
        ": params throughput_changes_per_hour sustained_throughput_per_hour",
        ": turnaround_mins builds_per_change worker_utilization builds infra cache metrics",
        "turnaround_mins: mean p50 p95 p99",
        "cache: hits misses hit_rate",
        "builds: started aborted needed wasted",
    ],
    run: |smoke, flags| {
        no_flags(flags)?;
        let params = pick(smoke, E2eParams::smoke, E2eParams::standard);
        let json = run_e2e(&params);
        Ok(Box::new(E2eRun { params, json }))
    },
};

struct E2eRun {
    params: E2eParams,
    json: String,
}

impl Report for E2eRun {
    fn summary(&self) -> Vec<String> {
        vec![format!("{:?}", self.params)]
    }

    /// The document is the run's only output; its audited twin is the
    /// `lean` suite's baseline cell.
    fn gate(&self) -> Vec<String> {
        Vec::new()
    }

    fn doc(&self) -> String {
        self.json.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_cache_pass_is_deterministic() {
        let (first, second, stats) = executor_cache_pass();
        // base/left/right compile + app compile/run-tests = 5 steps.
        assert_eq!(first, 5);
        assert_eq!(second, 5);
        assert_eq!((stats.hits, stats.misses), (5, 5));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_change_the_document() {
        let tiny = |seed| E2eParams {
            seed,
            n_changes: 25,
            rate: 150.0,
            workers: 30,
            fault_rate: 0.1,
            history_changes: 400,
        };
        assert_ne!(run_e2e(&tiny(7)), run_e2e(&tiny(8)));
    }
}
