//! Figures 5–8, rendered textually: the speculation tree (Fig. 5), the
//! speculation graphs under partial conflict knowledge (Figs. 6–7), and
//! the Figure 8 target-graph counterexample where two changes conflict
//! although their affected-target *names* are disjoint.

use sq_build::affected::{AffectedSet, SnapshotAnalysis};
use sq_build::conflict::{eq6_conflict, fast_path_conflict, union_graph_conflict};
use sq_core::analyzer::{ConflictAnalyzer, ConflictGraph};
use sq_core::predict::UniformPredictor;
use sq_core::speculation::SpeculationEngine;
use sq_vcs::{ObjectStore, Patch, RepoPath, Tree};
use sq_workload::{ChangeSpec, WorkloadBuilder, WorkloadParams};
use std::collections::HashMap;

/// Analyzer scripted from an explicit edge list over change ids.
struct Scripted(Vec<(u64, u64)>);
impl ConflictAnalyzer for Scripted {
    fn conflicts(&mut self, a: &ChangeSpec, b: &ChangeSpec) -> bool {
        let (x, y) = (a.id.0.min(b.id.0), a.id.0.max(b.id.0));
        self.0.contains(&(x, y))
    }
}

fn show_builds(title: &str, edges: &[(u64, u64)]) {
    let w = WorkloadBuilder::new(WorkloadParams::ios())
        .seed(1)
        .n_changes(3)
        .build()
        .expect("small workload");
    let mut analyzer = Scripted(edges.to_vec());
    let mut graph = ConflictGraph::new();
    let mut pending: Vec<&ChangeSpec> = Vec::new();
    for c in &w.changes {
        graph.admit(c, &pending, &mut analyzer);
        pending.push(c);
    }
    let builds = SpeculationEngine::select_builds(
        &w,
        &pending,
        &graph,
        &UniformPredictor,
        &HashMap::new(),
        &HashMap::new(),
        100,
    );
    println!("\n{title}");
    println!("  conflict edges: {edges:?}   (C1=id0, C2=id1, C3=id2)");
    println!("  speculation builds ({}):", builds.len());
    for b in &builds {
        println!("    {}  P_needed = {:.3}", b.key, b.value);
    }
}

pub(super) fn run(_smoke: bool) {
    println!("Figures 5–7 — speculation tree vs speculation graphs");
    show_builds(
        "Figure 5: all three changes conflict — full tree, 2^3−1 = 7 builds",
        &[(0, 1), (0, 2), (1, 2)],
    );
    show_builds(
        "Figure 6: C1 ⊥ C2, both conflict C3 — 6 builds (C2 needs only B2)",
        &[(0, 2), (1, 2)],
    );
    show_builds(
        "Figure 7: C1 conflicts C2 and C3, C2 ⊥ C3 — 5 builds (paper: 'from seven to five')",
        &[(0, 1), (0, 2)],
    );

    // Figure 8: the dependency counterexample, on a real build graph.
    println!("\nFigure 8 — conflict with disjoint affected-target names");
    let mut store = ObjectStore::new();
    let mut tree = Tree::new();
    for (path, content) in [
        ("x/BUILD", "library(name = \"x\", srcs = [\"a.rs\"])"),
        ("x/a.rs", "x-v1"),
        (
            "y/BUILD",
            "library(name = \"y\", srcs = [\"a.rs\"], deps = [\"//x:x\"])",
        ),
        ("y/a.rs", "y-v1"),
        ("z/BUILD", "library(name = \"z\", srcs = [\"a.rs\"])"),
        ("z/a.rs", "z-v1"),
    ] {
        let id = store.put(content.as_bytes().to_vec());
        tree.insert(RepoPath::new(path).expect("valid"), id)
            .expect("no file is another's directory");
    }
    let base = SnapshotAnalysis::analyze(&tree, &store).expect("analyzable");
    let c1 = Patch::write(RepoPath::new("x/a.rs").expect("valid"), "x-v2");
    let c2 = Patch::write(
        RepoPath::new("z/BUILD").expect("valid"),
        "library(name = \"z\", srcs = [\"a.rs\"], deps = [\"//x:x\"])",
    );
    let t1 = c1.apply(&tree, &mut store).expect("applies");
    let t2 = c2.apply(&tree, &mut store).expect("applies");
    let t12 = c1.compose(&c2).apply(&tree, &mut store).expect("applies");
    let a1 = SnapshotAnalysis::analyze(&t1, &store).expect("analyzable");
    let a2 = SnapshotAnalysis::analyze(&t2, &store).expect("analyzable");
    let a12 = SnapshotAnalysis::analyze(&t12, &store).expect("analyzable");
    let d1 = AffectedSet::between(&base, &a1);
    let d2 = AffectedSet::between(&base, &a2);
    let show = |tag: &str, d: &AffectedSet| {
        let names: Vec<String> = d.names().map(|n| n.to_string()).collect();
        println!("  δ(H⊕{tag}) = {names:?}");
    };
    show("C1", &d1);
    show("C2", &d2);
    println!("  affected names intersect: {}", d1.names_intersect(&d2));
    println!(
        "  Equation 6 conflict:      {}",
        eq6_conflict(&base, &a1, &a2, &a12)
    );
    println!(
        "  fast path applicable:     {}",
        fast_path_conflict(&base, &a1, &a2).is_some()
    );
    println!(
        "  union-graph conflict:     {}",
        union_graph_conflict(&base, &a1, &a2)
    );
    println!("\npaper: names disjoint, yet the changes conflict — Eq. 6 and the union graph both catch it");
}
