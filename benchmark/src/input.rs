//! Benchmark inputs: every one a pure function of `--seed`, made by
//! `sq-workload`. The program under test sees only the generated patches.

use sq_workload::change::PartId;
use sq_workload::repo_model::MaterializedRepo;
use sq_workload::{ChangeSpec, Workload, WorkloadBuilder, WorkloadParams};
use std::time::Instant;

/// A materialized repository plus the change stream submitted to it.
pub struct ServeInput {
    pub repo: MaterializedRepo,
    pub changes: Vec<ChangeSpec>,
    pub generate_ms: f64,
    pub materialize_ms: f64,
}

/// The iOS preset over `n_parts` packages.
pub fn serve_input(seed: u64, n_parts: usize, n_changes: usize) -> ServeInput {
    let mut params = WorkloadParams::ios();
    params.n_parts = n_parts;
    let t = Instant::now();
    let workload = WorkloadBuilder::new(params)
        .seed(seed)
        .n_changes(n_changes)
        .build()
        .expect("the iOS preset is valid");
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    materialize(workload, generate_ms)
}

/// Materialize the repository of an already generated workload.
pub fn materialize(workload: Workload, generate_ms: f64) -> ServeInput {
    let t = Instant::now();
    let repo = MaterializedRepo::generate(&workload.params).expect("the iOS preset is valid");
    ServeInput {
        repo,
        changes: workload.changes,
        generate_ms,
        materialize_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

/// The change as client `k` of two submits it: every part `p` moves to
/// `2⌊p/2⌋ + k`, so the two clients never touch the same package, no
/// merge can conflict, and every change lands whatever the interleaving.
pub fn for_client(change: &ChangeSpec, k: u32) -> ChangeSpec {
    let mut parts: Vec<PartId> = Vec::with_capacity(change.parts.len());
    for p in &change.parts {
        let moved = PartId(p.0 / 2 * 2 + k);
        if !parts.contains(&moved) {
            parts.push(moved);
        }
    }
    ChangeSpec {
        parts,
        ..change.clone()
    }
}

/// The change cut down to one leaf package, as `serve_open` submits it:
/// its first part moves to the package ≡ 1 + k (mod 3) of its group of
/// three, which nothing depends on, so every build is exactly one step
/// and the service time is the same for every change. Clients 0 and 1
/// never share a package.
pub fn one_leaf(change: &ChangeSpec, k: u32, n_parts: usize) -> ChangeSpec {
    let groups = (n_parts / 3).max(1) as u32;
    let first = change.parts.first().map_or(0, |p| p.0);
    ChangeSpec {
        parts: vec![PartId(first / 3 % groups * 3 + 1 + k)],
        ..change.clone()
    }
}

/// How a workload turns the `index`-th generated change into the one it
/// submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// As generated (`plan_sim`'s replay).
    Plain,
    /// [`for_client`], client = index mod 2 (the closed loops).
    TwoClients,
    /// [`one_leaf`] of an `n_parts` repository, client = index mod 2.
    OneLeaf { n_parts: usize },
}

impl Footprint {
    pub fn shape(self, index: usize, change: &ChangeSpec) -> ChangeSpec {
        let k = (index % 2) as u32;
        match self {
            Footprint::Plain => change.clone(),
            Footprint::TwoClients => for_client(change, k),
            Footprint::OneLeaf { n_parts } => one_leaf(change, k, n_parts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_two_clients_never_share_a_file() {
        for footprint in [Footprint::TwoClients, Footprint::OneLeaf { n_parts: 32 }] {
            clients_are_disjoint(footprint);
        }
    }

    fn clients_are_disjoint(footprint: Footprint) {
        let input = serve_input(24301, 32, 400);
        let mut files: [BTreeSet<String>; 2] = Default::default();
        for (i, c) in input.changes.iter().enumerate() {
            let k = i % 2;
            let patch = input.repo.patch_for(&footprint.shape(i, c));
            assert!(!patch.is_empty());
            let paths: Vec<String> = patch.paths().map(|p| p.as_str().to_string()).collect();
            let distinct: BTreeSet<&String> = paths.iter().collect();
            assert_eq!(distinct.len(), paths.len(), "a patch writes each file once");
            files[k].extend(paths);
        }
        assert!(files[0].is_disjoint(&files[1]));
        assert!(!files[0].is_empty() && !files[1].is_empty());
    }

    #[test]
    fn one_leaf_changes_build_exactly_one_target() {
        use sq_build::{AffectedSet, SnapshotAnalysis};
        let input = serve_input(24301, 32, 200);
        let repo = &input.repo.repo;
        let tree = repo.head_tree().unwrap();
        let base = SnapshotAnalysis::analyze(&tree, repo.store()).unwrap();
        for (i, c) in input.changes.iter().enumerate() {
            let shaped = Footprint::OneLeaf { n_parts: 32 }.shape(i, c);
            let mut store = repo.store().clone();
            let new_tree = input
                .repo
                .patch_for(&shaped)
                .apply(&tree, &mut store)
                .unwrap();
            let new = SnapshotAnalysis::analyze(&new_tree, &store).unwrap();
            assert_eq!(AffectedSet::between(&base, &new).len(), 1, "change {i}");
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let patches = |seed| {
            let input = serve_input(seed, 32, 50);
            input
                .changes
                .iter()
                .map(|c| format!("{:?}", input.repo.patch_for(c)))
                .collect::<Vec<_>>()
        };
        assert_eq!(patches(7), patches(7));
        assert_ne!(patches(7), patches(8));
    }
}
