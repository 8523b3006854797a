//! The build controller facade (paper Section 6).
//!
//! Ties the pieces together the way the production controller does:
//! *plan* the minimal step set against the artifact cache, *estimate*
//! the makespan via the duration-history load balancer, *execute* on the
//! worker pool, and *observe* real step durations back into the history
//! so the next estimate is better.

use crate::balance::{DurationModel, LoadBalancer};
use crate::cache::ArtifactCache;
use crate::executor::{ExecReport, RealExecutor, StepOutcome};
use crate::fault::RetryPolicy;
use crate::plan::BuildPlan;
use crate::step::BuildStep;
use parking_lot::Mutex;
use sq_build::{AffectedSet, BuildGraph, TargetHashes, TargetName};
use sq_sim::SimDuration;
use std::collections::HashSet;
use std::time::Instant;

/// Outcome of one controller-driven build.
#[derive(Debug)]
pub struct ControllerReport {
    /// Steps the plan contained (after cache elimination).
    pub planned_steps: usize,
    /// Steps skipped because of cache hits at planning time.
    pub cached_steps: usize,
    /// The balancer's predicted makespan for the plan.
    pub estimated_makespan: SimDuration,
    /// The execution report (per-step results, failures).
    pub exec: ExecReport,
    /// Wall-clock time the execution actually took.
    pub wall: std::time::Duration,
}

impl ControllerReport {
    /// True iff every step succeeded.
    pub fn is_success(&self) -> bool {
        self.exec.is_success()
    }

    /// Record planning counters, the execution report, and per-thread
    /// wall-clock utilization into `metrics`.
    pub fn record_into(&self, metrics: &mut sq_obs::MetricsRegistry) {
        metrics.add("controller.planned_steps", self.planned_steps as u64);
        metrics.add("controller.cached_steps", self.cached_steps as u64);
        metrics.observe(
            "controller.estimated_makespan_secs",
            self.estimated_makespan.as_secs_f64(),
        );
        metrics.observe("controller.wall_ms", self.wall.as_secs_f64() * 1e3);
        self.exec.record_into(metrics);
        for u in self.exec.worker_utilization(self.wall) {
            metrics.observe("exec.worker_utilization", u);
        }
    }
}

/// The build controller: owns the artifact cache and duration history
/// across builds.
pub struct BuildController {
    executor: RealExecutor,
    threads: usize,
    cache: Mutex<ArtifactCache>,
    durations: Mutex<DurationModel>,
    retry: RetryPolicy,
}

impl BuildController {
    /// A controller with `threads` parallel workers and no retries.
    pub fn new(threads: usize) -> Self {
        Self::with_retry_policy(threads, RetryPolicy::none())
    }

    /// A controller that retries infra-failed steps under `retry`.
    pub fn with_retry_policy(threads: usize, retry: RetryPolicy) -> Self {
        BuildController {
            executor: RealExecutor::new(threads),
            threads,
            cache: Mutex::new(ArtifactCache::new()),
            durations: Mutex::new(DurationModel::default()),
            retry,
        }
    }

    /// The retry policy governing infra failures.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Plan and execute the affected set of a change.
    ///
    /// `action` runs each step; observed durations feed the history the
    /// balancer uses for subsequent estimates.
    pub fn execute_affected<F>(
        &self,
        graph: &BuildGraph,
        hashes: &TargetHashes,
        delta: &AffectedSet,
        action: F,
    ) -> ControllerReport
    where
        F: Fn(&BuildStep) -> StepOutcome + Sync,
    {
        // 1. Plan: minimal steps given the cache.
        let plan = {
            let cache = self.cache.lock();
            BuildPlan::for_affected(graph, hashes, delta, &cache)
        };
        // 2. Estimate: balanced makespan under the duration history.
        let estimated_makespan = {
            let durations = self.durations.lock();
            LoadBalancer
                .assign(&plan.steps, &durations, self.threads)
                .makespan
        };
        // 3. Execute, observing real durations.
        let targets: HashSet<TargetName> = plan.steps.iter().map(|s| s.target.clone()).collect();
        let started = Instant::now();
        let exec = self.executor.execute_with_recovery(
            graph,
            &targets,
            hashes,
            &self.cache,
            &self.retry,
            |step| {
                let t0 = Instant::now();
                let out = action(step);
                self.durations.lock().observe(
                    &step.target,
                    step.kind,
                    SimDuration::from_secs_f64(t0.elapsed().as_secs_f64()),
                );
                out
            },
        );
        ControllerReport {
            planned_steps: plan.steps.len(),
            cached_steps: plan.cached_steps,
            estimated_makespan,
            exec,
            wall: started.elapsed(),
        }
    }

    /// Cache statistics (hits/misses/entries).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.lock().stats()
    }

    /// Current duration estimate for a step (from the observed history).
    pub fn estimate(&self, target: &TargetName, kind: crate::step::StepKind) -> SimDuration {
        self.durations.lock().estimate(target, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::StepKind;
    use sq_build::affected::SnapshotAnalysis;
    use sq_vcs::{ObjectStore, Patch, RepoPath, Tree};

    fn workspace() -> (Tree, ObjectStore) {
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        let files = [
            ("lib/BUILD", "library(name = \"lib\", srcs = [\"l.rs\"])"),
            ("lib/l.rs", "v1"),
            (
                "app/BUILD",
                "binary(name = \"app\", srcs = [\"m.rs\"], deps = [\"//lib:lib\"])",
            ),
            ("app/m.rs", "v1"),
        ];
        for (p, c) in files {
            let id = store.put(c.as_bytes().to_vec());
            tree.insert(RepoPath::new(p).unwrap(), id).unwrap();
        }
        (tree, store)
    }

    fn delta_for(
        tree: &Tree,
        store: &mut ObjectStore,
        patch: &Patch,
    ) -> (SnapshotAnalysis, AffectedSet) {
        let base = SnapshotAnalysis::analyze(tree, store).unwrap();
        let new_tree = patch.apply(tree, store).unwrap();
        let new = SnapshotAnalysis::analyze(&new_tree, store).unwrap();
        let delta = AffectedSet::between(&base, &new);
        (new, delta)
    }

    #[test]
    fn executes_plan_and_learns_durations() {
        let (tree, mut store) = workspace();
        let patch = Patch::write(RepoPath::new("lib/l.rs").unwrap(), "v2");
        let (analysis, delta) = delta_for(&tree, &mut store, &patch);
        let controller = BuildController::new(2);
        let report = controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            StepOutcome::Success
        });
        assert!(report.is_success());
        // lib compile + app compile/link/package = 4 steps.
        assert_eq!(report.planned_steps, 4);
        assert_eq!(report.cached_steps, 0);
        // The history now knows these steps take ≥5ms.
        let lib = sq_build::TargetName::resolve("//lib:lib", "").unwrap();
        assert!(controller.estimate(&lib, StepKind::Compile).as_secs_f64() >= 0.004);
    }

    #[test]
    fn second_identical_build_is_fully_cached() {
        let (tree, mut store) = workspace();
        let patch = Patch::write(RepoPath::new("app/m.rs").unwrap(), "v2");
        let (analysis, delta) = delta_for(&tree, &mut store, &patch);
        let controller = BuildController::new(2);
        let r1 = controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |_| {
            StepOutcome::Success
        });
        assert_eq!(r1.planned_steps, 3); // app: compile + link + package
        let r2 = controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |_| {
            StepOutcome::Success
        });
        assert_eq!(r2.planned_steps, 0);
        assert_eq!(r2.cached_steps, 3);
        assert!(r2.is_success());
        assert!(controller.cache_stats().entries >= 3);
    }

    #[test]
    fn failure_surfaces_in_report() {
        let (tree, mut store) = workspace();
        let patch = Patch::write(RepoPath::new("lib/l.rs").unwrap(), "v3");
        let (analysis, delta) = delta_for(&tree, &mut store, &patch);
        let controller = BuildController::new(2);
        let report =
            controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |step| {
                if step.kind == StepKind::Link {
                    StepOutcome::Failure("linker error".into())
                } else {
                    StepOutcome::Success
                }
            });
        assert!(!report.is_success());
        let (step, reason) = report.exec.failure.as_ref().unwrap();
        assert_eq!(step.kind, StepKind::Link);
        assert_eq!(reason, "linker error");
    }

    #[test]
    fn controller_absorbs_flaky_steps_under_retry_policy() {
        use crate::fault::{InfraFault, InfraFaultKind, RetryPolicy};
        use std::collections::HashMap;
        let (tree, mut store) = workspace();
        let patch = Patch::write(RepoPath::new("lib/l.rs").unwrap(), "v5");
        let (analysis, delta) = delta_for(&tree, &mut store, &patch);
        let controller = BuildController::with_retry_policy(2, RetryPolicy::standard(3, 21));
        let attempts: Mutex<HashMap<BuildStep, u32>> = Mutex::new(HashMap::new());
        let report = controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |s| {
            let mut a = attempts.lock();
            let cnt = a.entry(s.clone()).or_insert(0);
            *cnt += 1;
            if *cnt == 1 {
                StepOutcome::InfraFailure(InfraFault {
                    kind: InfraFaultKind::Timeout,
                    attempt: 1,
                })
            } else {
                StepOutcome::Success
            }
        });
        assert!(report.is_success(), "{:?}", report.exec);
        assert_eq!(report.exec.infra_retries as usize, report.planned_steps);
        assert!(report.exec.charged_backoff > sq_sim::SimDuration::ZERO);
        assert!(controller.cache_stats().entries >= report.planned_steps);
    }

    #[test]
    fn controller_without_retries_surfaces_infra_red() {
        use crate::fault::{InfraFault, InfraFaultKind};
        let (tree, mut store) = workspace();
        let patch = Patch::write(RepoPath::new("lib/l.rs").unwrap(), "v6");
        let (analysis, delta) = delta_for(&tree, &mut store, &patch);
        let controller = BuildController::new(2);
        let report = controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |_| {
            StepOutcome::InfraFailure(InfraFault {
                kind: InfraFaultKind::WorkerCrash,
                attempt: 1,
            })
        });
        assert!(!report.is_success());
        assert!(report.exec.is_infra_red());
        assert!(report.exec.failure.is_none());
        // Nothing entered the cache.
        assert_eq!(controller.cache_stats().entries, 0);
    }

    #[test]
    fn estimated_makespan_reflects_history() {
        let (tree, mut store) = workspace();
        let patch = Patch::write(RepoPath::new("lib/l.rs").unwrap(), "v4");
        let (analysis, delta) = delta_for(&tree, &mut store, &patch);
        let controller = BuildController::new(1);
        // Cold start: estimate uses the default.
        let r1 = controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |_| {
            StepOutcome::Success
        });
        assert!(r1.estimated_makespan > SimDuration::ZERO);
    }
}
