//! Build planning: from affected targets to a minimal, ordered step list.
//!
//! Implements the paper's "minimal set of build steps" optimization
//! (Section 6): when scheduling `B_{1.2.3}` after `B_{1.2}`, only steps
//! for `δ_{H⊕C₁⊕C₂⊕C₃} − δ_{H⊕C₁⊕C₂}` are performed; everything else is
//! reused from prior builds via the artifact cache.

use crate::cache::ArtifactCache;
use crate::step::{steps_for, BuildStep};
use sq_build::{AffectedSet, BuildGraph, TargetHashes, TargetName};
use sq_sim::SimDuration;
use std::collections::HashSet;

/// A concrete plan: steps in dependency-respecting order.
#[derive(Debug, Clone, Default)]
pub struct BuildPlan {
    /// Steps to execute, topologically ordered by target.
    pub steps: Vec<BuildStep>,
    /// Steps skipped because an artifact was already cached.
    pub cached_steps: usize,
}

impl BuildPlan {
    /// Plan a full build of the affected set `delta` under `graph`.
    ///
    /// For each affected (non-deleted) target, emits its rule pipeline in
    /// topological order, skipping steps whose artifact is already in the
    /// cache (keyed by the target's hash in `hashes`).
    pub fn for_affected(
        graph: &BuildGraph,
        hashes: &TargetHashes,
        delta: &AffectedSet,
        cache: &ArtifactCache,
    ) -> BuildPlan {
        let affected: HashSet<&TargetName> = delta
            .iter()
            .filter(|(_, state)| !matches!(state, sq_build::affected::AffectedState::Deleted))
            .map(|(name, _)| name)
            .collect();
        let mut plan = BuildPlan::default();
        for name in graph.topo_order() {
            if !affected.contains(name) {
                continue;
            }
            let Some(target) = graph.get(name) else {
                continue;
            };
            let Some(hash) = hashes.get(name) else {
                continue;
            };
            for &kind in steps_for(target.kind) {
                if cache.contains(hash, kind) {
                    plan.cached_steps += 1;
                } else {
                    plan.steps.push(BuildStep::new(name.clone(), kind));
                }
            }
        }
        plan
    }

    /// The incremental plan: steps for targets in `full` that are *not*
    /// already covered by `prior` — the paper's
    /// `δ_{H⊕C₁⊕C₂⊕C₃} − δ_{H⊕C₁⊕C₂}`.
    ///
    /// A target is covered if `prior` contains it with the same state
    /// (same resulting hash). A target affected in both but with
    /// different hashes must be rebuilt.
    pub fn incremental(
        graph: &BuildGraph,
        hashes: &TargetHashes,
        full: &AffectedSet,
        prior: &AffectedSet,
        cache: &ArtifactCache,
    ) -> BuildPlan {
        // The set difference on (name, state) tuples.
        let mut plan_delta: Vec<(&TargetName, &sq_build::affected::AffectedState)> = Vec::new();
        for (name, state) in full.iter() {
            match prior.get(name) {
                Some(prev) if prev == state => {}
                _ => plan_delta.push((name, state)),
            }
        }
        let affected: HashSet<&TargetName> = plan_delta
            .iter()
            .filter(|(_, s)| !matches!(s, sq_build::affected::AffectedState::Deleted))
            .map(|(n, _)| *n)
            .collect();
        let mut plan = BuildPlan::default();
        for name in graph.topo_order() {
            if !affected.contains(name) {
                continue;
            }
            let Some(target) = graph.get(name) else {
                continue;
            };
            let Some(hash) = hashes.get(name) else {
                continue;
            };
            for &kind in steps_for(target.kind) {
                if cache.contains(hash, kind) {
                    plan.cached_steps += 1;
                } else {
                    plan.steps.push(BuildStep::new(name.clone(), kind));
                }
            }
        }
        plan
    }

    /// Number of steps to run.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True iff nothing needs to run.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Estimated serial duration under a per-step duration function.
    pub fn serial_duration(
        &self,
        mut estimate: impl FnMut(&BuildStep) -> SimDuration,
    ) -> SimDuration {
        self.steps
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + estimate(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_build::affected::SnapshotAnalysis;
    use sq_vcs::{ObjectStore, Patch, RepoPath, Tree};
    use std::str::FromStr;

    fn p(s: &str) -> RepoPath {
        RepoPath::new(s).unwrap()
    }

    fn n(s: &str) -> TargetName {
        TargetName::from_str(s).unwrap()
    }

    /// lib ← app (binary); test depends on lib too.
    fn workspace() -> (Tree, ObjectStore) {
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        let files = [
            ("lib/BUILD", "library(name = \"lib\", srcs = [\"l.rs\"])"),
            ("lib/l.rs", "lib-v1"),
            (
                "app/BUILD",
                "binary(name = \"app\", srcs = [\"m.rs\"], deps = [\"//lib:lib\"])",
            ),
            ("app/m.rs", "app-v1"),
            (
                "t/BUILD",
                "test(name = \"t\", srcs = [\"t.rs\"], deps = [\"//lib:lib\"])",
            ),
            ("t/t.rs", "t-v1"),
        ];
        for (path, content) in files {
            let id = store.put(content.as_bytes().to_vec());
            tree.insert(p(path), id).unwrap();
        }
        (tree, store)
    }

    #[test]
    fn full_plan_orders_deps_first() {
        let (tree, mut store) = workspace();
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let t2 = Patch::write(p("lib/l.rs"), "lib-v2")
            .apply(&tree, &mut store)
            .unwrap();
        let new = SnapshotAnalysis::analyze(&t2, &store).unwrap();
        let delta = AffectedSet::between(&base, &new);
        let cache = ArtifactCache::new();
        let plan = BuildPlan::for_affected(&new.graph, &new.hashes, &delta, &cache);
        // lib (compile) + app (compile, link, package) + t (compile, run).
        assert_eq!(plan.len(), 6);
        let lib_pos = plan
            .steps
            .iter()
            .position(|s| s.target == n("//lib:lib"))
            .unwrap();
        let app_pos = plan
            .steps
            .iter()
            .position(|s| s.target == n("//app:app"))
            .unwrap();
        assert!(lib_pos < app_pos, "dependency must be built first");
    }

    #[test]
    fn cache_hits_shrink_plan() {
        let (tree, mut store) = workspace();
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let t2 = Patch::write(p("lib/l.rs"), "lib-v2")
            .apply(&tree, &mut store)
            .unwrap();
        let new = SnapshotAnalysis::analyze(&t2, &store).unwrap();
        let delta = AffectedSet::between(&base, &new);
        let mut cache = ArtifactCache::new();
        // Simulate that lib's compile already ran for this exact hash.
        let lib_hash = new.hashes.get(&n("//lib:lib")).unwrap();
        cache.insert(lib_hash, crate::step::StepKind::Compile);
        let plan = BuildPlan::for_affected(&new.graph, &new.hashes, &delta, &cache);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.cached_steps, 1);
    }

    #[test]
    fn incremental_plan_is_the_delta_difference() {
        let (tree, mut store) = workspace();
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        // C1 touches lib (affects lib, app, t). C1⊕C2 additionally
        // touches app's main.
        let c1 = Patch::write(p("lib/l.rs"), "lib-v2");
        let c12 = c1.compose(&Patch::write(p("app/m.rs"), "app-v2"));
        let t1 = c1.apply(&tree, &mut store).unwrap();
        let t12 = c12.apply(&tree, &mut store).unwrap();
        let a1 = SnapshotAnalysis::analyze(&t1, &store).unwrap();
        let a12 = SnapshotAnalysis::analyze(&t12, &store).unwrap();
        let d1 = AffectedSet::between(&base, &a1);
        let d12 = AffectedSet::between(&base, &a12);
        let cache = ArtifactCache::new();
        let plan = BuildPlan::incremental(&a12.graph, &a12.hashes, &d12, &d1, &cache);
        // Only //app:app differs between the two affected sets (its hash
        // changed again due to m.rs). lib and t carry identical states.
        let targets: HashSet<&TargetName> = plan.steps.iter().map(|s| &s.target).collect();
        assert!(targets.contains(&n("//app:app")));
        assert!(!targets.contains(&n("//lib:lib")));
        assert!(!targets.contains(&n("//t:t")));
    }

    #[test]
    fn incremental_with_identical_sets_is_empty() {
        let (tree, mut store) = workspace();
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let t2 = Patch::write(p("lib/l.rs"), "lib-v2")
            .apply(&tree, &mut store)
            .unwrap();
        let a2 = SnapshotAnalysis::analyze(&t2, &store).unwrap();
        let d = AffectedSet::between(&base, &a2);
        let cache = ArtifactCache::new();
        let plan = BuildPlan::incremental(&a2.graph, &a2.hashes, &d, &d, &cache);
        assert!(plan.is_empty());
    }

    #[test]
    fn serial_duration_sums_estimates() {
        let (tree, mut store) = workspace();
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let t2 = Patch::write(p("app/m.rs"), "app-v2")
            .apply(&tree, &mut store)
            .unwrap();
        let new = SnapshotAnalysis::analyze(&t2, &store).unwrap();
        let delta = AffectedSet::between(&base, &new);
        let cache = ArtifactCache::new();
        let plan = BuildPlan::for_affected(&new.graph, &new.hashes, &delta, &cache);
        // app alone: compile + link + package = 3 steps.
        assert_eq!(plan.len(), 3);
        let d = plan.serial_duration(|_| SimDuration::from_mins(2));
        assert_eq!(d, SimDuration::from_mins(6));
    }
}
