//! The conflict-analysis counts: the `conflict` suite.
//!
//! One seeded window of changes is rendered against a materialized
//! monorepo and every change's affected set is computed once. The
//! pairwise Step-2 relation — "do the affected target names intersect?"
//! (paper §5.2, Equation 6) — is then evaluated two ways over the same
//! inputs:
//!
//! * **reference** — each change's affected names as a `HashSet`, built
//!   once per change; a pair conflicts iff its two sets overlap.
//! * **indexed** — intern the names, one [`BitSet`] per change in a
//!   [`ConflictIndex`], then [`ConflictIndex::matrix_serial`]: word-wise
//!   ANDs.
//!
//! Both must produce byte-identical [`ConflictMatrix`] serializations —
//! the gate, in every mode. The document holds counts only (`pairs`,
//! `conflicts`, `matrices_identical` per window), so it is a pure
//! function of the params and is compared byte for byte like every
//! other suite's. What the index costs in wall time is
//! `core.index.matrix_us_w256` in `benchmark/`.

use crate::suite::{no_flags, pick, Report, Suite};
use sq_build::{AffectedSet, BitSet, Interner, SnapshotAnalysis, TargetName};
use sq_core::index::{ConflictIndex, ConflictMatrix, TrunkHash};
use sq_obs::JsonWriter;
use sq_workload::repo_model::MaterializedRepo;
use sq_workload::{ChangeId, WorkloadBuilder, WorkloadParams};
use std::collections::HashSet;

/// Parameters of one conflict-suite run.
#[derive(Debug, Clone)]
pub struct ConflictParams {
    /// Master seed for the workload and repository.
    pub seed: u64,
    /// Logical parts (= packages) in the materialized repo.
    pub n_parts: usize,
    /// Window sizes to count (the workload holds `max(windows)`
    /// changes; each window is a prefix).
    pub windows: Vec<usize>,
}

impl ConflictParams {
    /// The recorded configuration (what `sq-bench conflict` runs by default
    /// and what `BENCH_conflict.json` at the repo root reports).
    pub fn standard() -> Self {
        ConflictParams {
            seed: crate::BENCH_SEED,
            n_parts: 128,
            windows: vec![64, 256, 1024],
        }
    }

    /// A small configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ConflictParams {
            seed: crate::BENCH_SEED,
            n_parts: 32,
            windows: vec![64, 256],
        }
    }
}

/// The counts of one window size.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Window size (number of changes).
    pub n: usize,
    /// Pairs evaluated: `n (n - 1) / 2`.
    pub pairs: u64,
    /// Conflicting pairs in the (shared) matrix.
    pub conflicts: u64,
    /// Whether the reference and the index serialized to identical
    /// matrix bytes.
    pub identical: bool,
}

/// A full report: parameters plus one result per window.
#[derive(Debug, Clone)]
pub struct ConflictReport {
    /// The parameters the run used.
    pub params: ConflictParams,
    /// One entry per requested window, in input order.
    pub windows: Vec<WindowResult>,
}

impl ConflictReport {
    /// Render the machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", SUITE.schema);
        w.key("params");
        w.begin_object();
        w.field_u64("seed", self.params.seed);
        w.field_u64("n_parts", self.params.n_parts as u64);
        w.end_object();
        w.key("windows");
        w.begin_array();
        for r in &self.windows {
            w.begin_object();
            w.field_u64("n", r.n as u64);
            w.field_u64("pairs", r.pairs);
            w.field_u64("conflicts", r.conflicts);
            w.key("matrices_identical");
            w.value_bool(r.identical);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Run the suite: materialize the repo, compute each change's affected
/// set once, then count every window both ways.
pub fn run_conflict(params: &ConflictParams) -> ConflictReport {
    let n_changes = params.windows.iter().copied().max().unwrap_or(0);
    let mut wl_params = WorkloadParams::ios();
    wl_params.n_parts = params.n_parts;
    let repo = MaterializedRepo::generate(&wl_params).expect("valid repo params");
    let workload = WorkloadBuilder::new(wl_params)
        .seed(params.seed)
        .n_changes(n_changes)
        .build()
        .expect("valid workload params");

    // One affected set per change against the pristine mainline —
    // exactly what the index memoizes in production.
    let mut store = repo.repo.store().clone();
    let base_tree = repo.repo.head_tree().expect("repo has a head");
    let base = SnapshotAnalysis::analyze(&base_tree, &store).expect("base analyzes");
    let mut ids: Vec<ChangeId> = Vec::with_capacity(n_changes);
    let mut affected: Vec<AffectedSet> = Vec::with_capacity(n_changes);
    for c in &workload.changes {
        let tree = repo
            .patch_for(c)
            .apply(&base_tree, &mut store)
            .expect("generated patches apply");
        let analysis = SnapshotAnalysis::analyze(&tree, &store).expect("snapshot analyzes");
        ids.push(c.id);
        affected.push(AffectedSet::between(&base, &analysis));
    }

    let names: Vec<HashSet<&TargetName>> = affected
        .iter()
        .map(|set| set.iter().map(|(t, _)| t).collect())
        .collect();
    let windows = params
        .windows
        .iter()
        .map(|&n| run_window(&ids[..n], &names[..n], &affected[..n]))
        .collect();
    ConflictReport {
        params: params.clone(),
        windows,
    }
}

fn run_window(
    ids: &[ChangeId],
    names: &[HashSet<&TargetName>],
    affected: &[AffectedSet],
) -> WindowResult {
    let n = ids.len();
    let reference = reference_matrix(names);
    let indexed = indexed_matrix(ids, affected);
    WindowResult {
        n,
        pairs: (n * n.saturating_sub(1) / 2) as u64,
        conflicts: reference.conflict_count(),
        identical: reference.to_bytes() == indexed.to_bytes(),
    }
}

/// The relation by its definition: a pair conflicts iff the two
/// changes' affected target names overlap.
fn reference_matrix(names: &[HashSet<&TargetName>]) -> ConflictMatrix {
    let n = names.len();
    let mut m = ConflictMatrix::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if !names[i].is_disjoint(&names[j]) {
                m.set(i, j);
            }
        }
    }
    m
}

/// Intern the names into a fresh index, then the whole-window matrix.
fn indexed_matrix(ids: &[ChangeId], affected: &[AffectedSet]) -> ConflictMatrix {
    let mut interner: Interner<TargetName> = Interner::new();
    let mut index = ConflictIndex::new(TrunkHash(1));
    for (id, set) in ids.iter().zip(affected) {
        let bits: BitSet = set.iter().map(|(t, _)| interner.intern(t)).collect();
        index.ensure_with(*id, || bits);
    }
    index.matrix_serial(ids)
}

/// The `conflict` row of the suite table.
pub const SUITE: Suite = Suite {
    name: "conflict",
    schema: "sq-bench-conflict/v2",
    keys: &[
        "params: seed n_parts",
        "windows: n pairs conflicts matrices_identical",
    ],
    run: |smoke, flags| {
        no_flags(flags)?;
        let params = pick(smoke, ConflictParams::smoke, ConflictParams::standard);
        Ok(Box::new(run_conflict(&params)))
    },
};

impl Report for ConflictReport {
    fn summary(&self) -> Vec<String> {
        let mut lines = vec![format!("{:?}", self.params)];
        lines.extend(self.windows.iter().map(|r| {
            format!(
                "window {:>5}: {:>8} pairs, {:>7} conflicts | identical={}",
                r.n, r.pairs, r.conflicts, r.identical
            )
        }));
        lines
    }

    /// Every window's reference and indexed matrices are byte-identical.
    fn gate(&self) -> Vec<String> {
        let diverged = self.windows.iter().filter(|r| !r.identical);
        diverged
            .map(|r| format!("window {}: index and name-set reference diverged", r.n))
            .collect()
    }

    fn doc(&self) -> String {
        self.to_json()
    }
}
