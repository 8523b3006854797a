//! The conflict-analysis microbenchmark: the `conflict` suite.
//!
//! One seeded window of changes is rendered against a materialized
//! monorepo and every change's affected set is computed once (untimed
//! setup). The pairwise Step-2 relation — "do the affected target names
//! intersect?" (paper §5.2, Equation 6) — is then evaluated three ways
//! over the same inputs:
//!
//! * **serial** — the pre-index baseline: each pair freshly materializes
//!   both sides' `HashSet<TargetName>` (string clones and all) and
//!   probes for overlap. The *full* uncached pipeline additionally
//!   re-applies both patches and re-analyzes both snapshots per pair,
//!   so every speedup reported here is a lower bound.
//! * **indexed** — intern the names, build one [`BitSet`] per change in
//!   a cold [`ConflictIndex`] (construction is inside the timed region),
//!   then [`ConflictIndex::matrix_serial`]: word-wise ANDs.
//! * **indexed+parallel** — same cold-index build, then
//!   [`ConflictIndex::matrix_parallel`] across scoped worker threads.
//!
//! All three modes must produce byte-identical [`ConflictMatrix`]
//! serializations — the determinism gate, enforced in every mode.
//! Unlike `BENCH_e2e.json`, this document reports wall time, so it is
//! *not* byte-identical across runs; the matrices are.

use crate::suite::{no_flags, pick, Report, Suite};
use sq_build::{AffectedSet, BitSet, Interner, SnapshotAnalysis, TargetName};
use sq_core::index::{ConflictIndex, ConflictMatrix, TrunkHash};
use sq_obs::JsonWriter;
use sq_workload::repo_model::MaterializedRepo;
use sq_workload::{ChangeId, WorkloadBuilder, WorkloadParams};
use std::collections::HashSet;
use std::time::Instant;

/// Parameters of one conflict-benchmark run.
#[derive(Debug, Clone)]
pub struct ConflictParams {
    /// Master seed for the workload and repository.
    pub seed: u64,
    /// Logical parts (= packages) in the materialized repo.
    pub n_parts: usize,
    /// Window sizes to measure (the workload holds `max(windows)`
    /// changes; each window is a prefix).
    pub windows: Vec<usize>,
    /// Worker threads for the parallel mode.
    pub threads: usize,
    /// Repetitions per mode; the minimum wall time is reported.
    pub reps: usize,
}

impl ConflictParams {
    /// The recorded configuration (what `sq-bench conflict` runs by default
    /// and what `BENCH_conflict.json` at the repo root reports).
    pub fn standard() -> Self {
        ConflictParams {
            seed: crate::bench_seed(),
            n_parts: 128,
            windows: vec![64, 256, 1024],
            threads: 8,
            reps: 3,
        }
    }

    /// A small configuration for CI smoke runs. Keeps the 256-change
    /// window: that is where the smoke gate compares parallel against
    /// serial wall time.
    pub fn smoke() -> Self {
        ConflictParams {
            seed: crate::bench_seed(),
            n_parts: 32,
            windows: vec![64, 256],
            threads: 8,
            reps: 2,
        }
    }
}

/// Measured results for one window size.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Window size (number of changes).
    pub n: usize,
    /// Pairs evaluated per mode: `n (n - 1) / 2`.
    pub pairs: u64,
    /// Conflicting pairs in the (shared) matrix.
    pub conflicts: u64,
    /// Best-of-reps wall time of the per-pair set-materialization
    /// baseline, in nanoseconds.
    pub serial_nanos: u64,
    /// Best-of-reps wall time of cold-index build + serial matrix.
    pub indexed_nanos: u64,
    /// Best-of-reps wall time of cold-index build + parallel matrix.
    pub parallel_nanos: u64,
    /// Whether all three modes serialized to identical matrix bytes.
    pub identical: bool,
}

impl WindowResult {
    /// Serial wall over indexed wall.
    pub fn speedup_indexed(&self) -> f64 {
        self.serial_nanos as f64 / self.indexed_nanos.max(1) as f64
    }

    /// Serial wall over indexed+parallel wall.
    pub fn speedup_parallel(&self) -> f64 {
        self.serial_nanos as f64 / self.parallel_nanos.max(1) as f64
    }
}

/// A full benchmark report: parameters plus one result per window.
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
        w.field_str("schema", "sq-bench-conflict/v1");
        w.key("params");
        w.begin_object();
        w.field_u64("seed", self.params.seed);
        w.field_u64("n_parts", self.params.n_parts as u64);
        w.field_u64("threads", self.params.threads as u64);
        w.field_u64("reps", self.params.reps as u64);
        w.end_object();
        w.key("windows");
        w.begin_array();
        for r in &self.windows {
            w.begin_object();
            w.field_u64("n", r.n as u64);
            w.field_u64("pairs", r.pairs);
            w.field_u64("conflicts", r.conflicts);
            w.field_f64("serial_ms", r.serial_nanos as f64 / 1e6);
            w.field_f64("indexed_ms", r.indexed_nanos as f64 / 1e6);
            w.field_f64("indexed_parallel_ms", r.parallel_nanos as f64 / 1e6);
            w.field_f64("speedup_indexed", r.speedup_indexed());
            w.field_f64("speedup_indexed_parallel", r.speedup_parallel());
            w.key("matrices_identical");
            w.value_bool(r.identical);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The CI perf-regression gate: every window's matrices must be
    /// byte-identical across all three modes, and on the gate window
    /// (256 changes if measured, else the largest) the indexed+parallel
    /// wall time must not exceed the serial baseline.
    pub fn smoke_gate(&self) -> Result<(), String> {
        for r in &self.windows {
            if !r.identical {
                return Err(format!(
                    "window {}: conflict matrices diverged across modes",
                    r.n
                ));
            }
        }
        let gate = self
            .windows
            .iter()
            .find(|r| r.n == 256)
            .or_else(|| self.windows.iter().max_by_key(|r| r.n))
            .ok_or("no windows measured")?;
        if gate.parallel_nanos > gate.serial_nanos {
            return Err(format!(
                "window {}: indexed+parallel ({} ns) slower than serial ({} ns)",
                gate.n, gate.parallel_nanos, gate.serial_nanos
            ));
        }
        Ok(())
    }
}

/// Run the benchmark: untimed setup (materialize the repo, compute each
/// change's affected set once), then time the three modes per window.
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

    // Untimed setup: one affected set per change against the pristine
    // mainline — exactly what the index memoizes in production.
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

    let windows = params
        .windows
        .iter()
        .map(|&n| run_window(n, &ids[..n], &affected[..n], params))
        .collect();
    ConflictReport {
        params: params.clone(),
        windows,
    }
}

fn run_window(
    n: usize,
    ids: &[ChangeId],
    affected: &[AffectedSet],
    params: &ConflictParams,
) -> WindowResult {
    let mut serial_nanos = u64::MAX;
    let mut indexed_nanos = u64::MAX;
    let mut parallel_nanos = u64::MAX;
    let mut serial_m = None;
    let mut indexed_m = None;
    let mut parallel_m = None;
    for _ in 0..params.reps.max(1) {
        let (t, m) = time(|| serial_matrix(affected));
        serial_nanos = serial_nanos.min(t);
        serial_m = Some(m);
        let (t, m) = time(|| indexed_matrix(ids, affected, None));
        indexed_nanos = indexed_nanos.min(t);
        indexed_m = Some(m);
        let (t, m) = time(|| indexed_matrix(ids, affected, Some(params.threads)));
        parallel_nanos = parallel_nanos.min(t);
        parallel_m = Some(m);
    }
    let serial_m = serial_m.expect("at least one rep");
    let identical = serial_m.to_bytes() == indexed_m.expect("rep").to_bytes()
        && serial_m.to_bytes() == parallel_m.expect("rep").to_bytes();
    WindowResult {
        n,
        pairs: (n * n.saturating_sub(1) / 2) as u64,
        conflicts: serial_m.conflict_count(),
        serial_nanos,
        indexed_nanos,
        parallel_nanos,
        identical,
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let out = f();
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (nanos, out)
}

/// The pre-index baseline: every pair materializes both name sets from
/// scratch (owned strings, fresh hash tables) before probing overlap.
fn serial_matrix(affected: &[AffectedSet]) -> ConflictMatrix {
    let n = affected.len();
    let mut m = ConflictMatrix::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let a: HashSet<TargetName> = affected[i].iter().map(|(t, _)| t.clone()).collect();
            let b: HashSet<TargetName> = affected[j].iter().map(|(t, _)| t.clone()).collect();
            if !a.is_disjoint(&b) {
                m.set(i, j);
            }
        }
    }
    m
}

/// Cold-index build (interning included in the timed region) followed by
/// the serial or parallel whole-window matrix.
fn indexed_matrix(
    ids: &[ChangeId],
    affected: &[AffectedSet],
    threads: Option<usize>,
) -> ConflictMatrix {
    let mut interner: Interner<TargetName> = Interner::new();
    let mut index = ConflictIndex::new(TrunkHash(1));
    for (id, set) in ids.iter().zip(affected) {
        let bits: BitSet = set.iter().map(|(t, _)| interner.intern(t)).collect();
        index.ensure_with(*id, || bits);
    }
    match threads {
        None => index.matrix_serial(ids),
        Some(t) => index.matrix_parallel(ids, t),
    }
}

/// The `conflict` row of the suite table.
pub const SUITE: Suite = Suite {
    name: "conflict",
    schema: "sq-bench-conflict/v1",
    deterministic: false,
    keys: &[
        "params: seed n_parts threads reps",
        "windows: n pairs conflicts serial_ms indexed_ms indexed_parallel_ms",
        "windows: speedup_indexed speedup_indexed_parallel matrices_identical",
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
                "window {:>5}: {:>8} pairs, {:>7} conflicts | serial {:>9.3} ms | \
                 indexed {:>8.3} ms ({:>6.1}x) | +parallel {:>8.3} ms ({:>6.1}x) | identical={}",
                r.n,
                r.pairs,
                r.conflicts,
                r.serial_nanos as f64 / 1e6,
                r.indexed_nanos as f64 / 1e6,
                r.speedup_indexed(),
                r.parallel_nanos as f64 / 1e6,
                r.speedup_parallel(),
                r.identical
            )
        }));
        lines
    }

    fn gate(&self) -> Vec<String> {
        self.smoke_gate().err().into_iter().collect()
    }

    fn doc(&self) -> String {
        self.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_gate_prefers_the_256_window() {
        let win = |n: usize, serial: u64, parallel: u64| WindowResult {
            n,
            pairs: (n * (n - 1) / 2) as u64,
            conflicts: 0,
            serial_nanos: serial,
            indexed_nanos: parallel,
            parallel_nanos: parallel,
            identical: true,
        };
        let report = |windows: Vec<WindowResult>| ConflictReport {
            params: ConflictParams::smoke(),
            windows,
        };
        // Tiny windows may legitimately lose to thread-spawn overhead;
        // the gate only reads the 256 window.
        let r = report(vec![win(8, 10, 500), win(256, 1_000, 400)]);
        assert!(r.smoke_gate().is_ok());
        let r = report(vec![win(256, 400, 1_000)]);
        assert!(r.smoke_gate().unwrap_err().contains("slower"));
        let mut bad = win(256, 1_000, 400);
        bad.identical = false;
        assert!(report(vec![bad])
            .smoke_gate()
            .unwrap_err()
            .contains("diverged"));
        // Without a 256 window the largest one gates.
        let r = report(vec![win(8, 10, 500), win(64, 2_000, 900)]);
        assert!(r.smoke_gate().is_ok());
    }
}
