//! The build controller facade (paper Section 6).
//!
//! A cache, an executor and a retry policy that outlive one build: the
//! controller hands a change's affected targets to the executor, which
//! checks the hash-keyed [`ArtifactCache`] at the moment each step would
//! run — the one place "is this step already built?" is decided, and
//! the one place a hit or a miss is counted — and spreads the work by
//! letting idle workers claim the next ready target.

use crate::cache::ArtifactCache;
use crate::executor::{ExecReport, RealExecutor, StepOutcome};
use crate::fault::RetryPolicy;
use crate::step::BuildStep;
use parking_lot::Mutex;
use sq_build::{AffectedSet, BuildGraph, TargetHashes, TargetName};
use std::collections::HashSet;

/// The build controller: owns the artifact cache across builds.
pub struct BuildController {
    executor: RealExecutor,
    cache: Mutex<ArtifactCache>,
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
            cache: Mutex::new(ArtifactCache::new()),
            retry,
        }
    }

    /// Build the affected set of a change: every affected target that
    /// still exists in `graph`, in dependency order, `action` running
    /// each step the cache does not already hold.
    pub fn execute_affected<F>(
        &self,
        graph: &BuildGraph,
        hashes: &TargetHashes,
        delta: &AffectedSet,
        action: F,
    ) -> ExecReport
    where
        F: Fn(&BuildStep) -> StepOutcome + Sync,
    {
        let targets: HashSet<TargetName> = delta
            .iter()
            .filter(|(name, state)| state.hash().is_some() && graph.get(name).is_some())
            .map(|(name, _)| name.clone())
            .collect();
        self.executor.execute_with_recovery(
            graph,
            &targets,
            hashes,
            &self.cache,
            &self.retry,
            action,
        )
    }

    /// Cache statistics (hits/misses/entries).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.lock().stats()
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

    /// The executor's property test holds dependency order on random
    /// DAGs (`executor_props.rs`); this holds it for the target set
    /// `execute_affected` derives from a delta.
    #[test]
    fn dependencies_run_before_dependents() {
        let (tree, mut store) = workspace();
        let patch = Patch::write(RepoPath::new("lib/l.rs").unwrap(), "v2");
        let (analysis, delta) = delta_for(&tree, &mut store, &patch);
        let controller = BuildController::new(2);
        let report = controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |_| {
            StepOutcome::Success
        });
        assert!(report.is_success());
        // lib compile + app compile/link/package = 4 steps.
        assert_eq!(report.executed.len(), 4);
        let lib = sq_build::TargetName::resolve("//lib:lib", "").unwrap();
        assert_eq!(
            report.executed[0].target, lib,
            "dependency must be built first"
        );
    }

    #[test]
    fn a_warm_step_is_not_executed() {
        let (tree, mut store) = workspace();
        let patch = Patch::write(RepoPath::new("lib/l.rs").unwrap(), "v2");
        let (analysis, delta) = delta_for(&tree, &mut store, &patch);
        let controller = BuildController::new(2);
        // lib's compile already ran for this exact hash.
        let lib = sq_build::TargetName::resolve("//lib:lib", "").unwrap();
        let lib_hash = analysis.hashes.get(&lib).unwrap();
        controller.cache.lock().insert(lib_hash, StepKind::Compile);
        let report = controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |_| {
            StepOutcome::Success
        });
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.executed.len(), 3);
        assert!(report.executed.iter().all(|s| s.target != lib));
    }

    /// Every step is looked up once, where it would run: a fully warm
    /// rebuild executes nothing and counts each step as a hit.
    #[test]
    fn second_identical_build_is_fully_cached() {
        let (tree, mut store) = workspace();
        let patch = Patch::write(RepoPath::new("app/m.rs").unwrap(), "v2");
        let (analysis, delta) = delta_for(&tree, &mut store, &patch);
        let controller = BuildController::new(2);
        let r1 = controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |_| {
            StepOutcome::Success
        });
        assert_eq!(r1.executed.len(), 3); // app: compile + link + package
        assert_eq!(r1.cache_hits, 0);
        let cold = controller.cache_stats();
        assert_eq!((cold.hits, cold.misses), (0, 3));
        let r2 = controller.execute_affected(&analysis.graph, &analysis.hashes, &delta, |_| {
            StepOutcome::Success
        });
        assert!(r2.is_success());
        assert!(r2.executed.is_empty());
        assert_eq!(r2.cache_hits, r1.executed.len());
        let warm = controller.cache_stats();
        assert_eq!((warm.hits, warm.misses), (3, 3));
        assert_eq!(warm.entries, 3);
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
        let (step, reason) = report.failure.as_ref().unwrap();
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
        assert!(report.is_success(), "{report:?}");
        assert_eq!(report.infra_retries as usize, report.executed.len());
        assert!(controller.cache_stats().entries >= report.executed.len());
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
        assert!(report.infra_failure.is_some());
        assert!(report.failure.is_none());
        // Nothing entered the cache.
        assert_eq!(controller.cache_stats().entries, 0);
    }
}
