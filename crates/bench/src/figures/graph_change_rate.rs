//! Section 5.2 statistic: "only 7.9% (resp. 1.6%) of changes actually
//! cause a change to the build graph for iOS (resp. Backend) monorepos"
//! — the fact that makes the fast-path conflict check worthwhile.
//!
//! Verified at two levels: the workload generator's marginal, and the
//! *materialized* repository where graph changes are detected by actually
//! parsing BUILD files before and after each patch.

use sq_build::affected::SnapshotAnalysis;
use sq_workload::repo_model::MaterializedRepo;
use sq_workload::{WorkloadBuilder, WorkloadParams};

pub(super) fn run(smoke: bool) {
    let n = if smoke { 5_000 } else { 20_000 };
    println!("Section 5.2 — fraction of changes altering the build graph\n");
    println!("{:>10} {:>12} {:>10}", "platform", "generated", "paper");
    let mut rows = Vec::new();
    for (name, params, paper) in [
        ("iOS", WorkloadParams::ios(), 0.079),
        ("Android", WorkloadParams::android(), 0.079),
        ("Backend", WorkloadParams::backend(), 0.016),
    ] {
        let w = WorkloadBuilder::new(params)
            .seed(crate::BENCH_SEED)
            .n_changes(n)
            .build()
            .expect("valid params");
        let rate = w.graph_change_rate();
        println!("{name:>10} {rate:>12.4} {paper:>10.3}");
        rows.push(format!("{name},{rate:.4},{paper}"));
    }

    // Materialized check on a small repo: parse BUILD files for real.
    let mut params = WorkloadParams::ios();
    params.n_parts = 24;
    let m = MaterializedRepo::generate(&params).expect("repo generates");
    let w = WorkloadBuilder::new(params)
        .seed(crate::BENCH_SEED ^ 1)
        .n_changes(if smoke { 150 } else { 400 })
        .build()
        .expect("valid params");
    let mut repo = m.repo.clone();
    let tree = repo.head_tree().expect("head tree");
    let base = SnapshotAnalysis::analyze(&tree, repo.store()).expect("base analyzable");
    let mut structural = 0usize;
    for c in &w.changes {
        let patch = m.patch_for(c);
        let new_tree = patch.apply(&tree, repo.store_mut()).expect("patch applies");
        let analysis = SnapshotAnalysis::analyze(&new_tree, repo.store()).expect("analyzable");
        if !base.same_graph_structure(&analysis) {
            structural += 1;
        }
    }
    let measured = structural as f64 / w.changes.len() as f64;
    println!(
        "\nmaterialized repo cross-check: {:.1}% of {} concrete patches changed the parsed graph",
        measured * 100.0,
        w.changes.len()
    );
    rows.push(format!("materialized_ios,{measured:.4},0.079"));
    crate::write_csv("graph_change_rate.csv", "platform,measured,paper", &rows);
}
