//! Property tests for the interned-bitset layer: on arbitrary target
//! graphs and arbitrary pairs of patches, the interned state comparison
//! must agree exactly with the string-keyed `AffectedSet` oracle, and
//! with the §5.2 fast path whenever the fast path applies. The Figure-8
//! counterexample is pinned as a fixture: disjoint affected name sets do
//! *not* mean independence — the union-graph walk still sees the
//! dependency coupling.

use proptest::prelude::*;
use sq_build::bitset::{BitSet, InternedAffected, Interner};
use sq_build::conflict::{fast_path_conflict, union_graph_conflict};
use sq_build::{AffectedSet, SnapshotAnalysis, TargetName};
use sq_vcs::{FileOp, ObjectStore, Patch, RepoPath, Tree};
use std::collections::HashSet;

fn p(s: &str) -> RepoPath {
    RepoPath::new(s).unwrap()
}

/// Build a workspace of `n_pkgs` single-target packages; `dep_bits`
/// linearly encodes "pkg i depends on pkg j" for j < i (acyclic by
/// construction).
fn workspace(n_pkgs: usize, dep_bits: &[bool]) -> (Tree, ObjectStore) {
    let mut store = ObjectStore::new();
    let mut tree = Tree::new();
    let mut bit = 0usize;
    for i in 0..n_pkgs {
        let mut deps = Vec::new();
        for j in 0..i {
            if dep_bits.get(bit).copied().unwrap_or(false) {
                deps.push(format!("\"//pkg{j}:p{j}\""));
            }
            bit += 1;
        }
        let build = format!(
            "library(name = \"p{i}\", srcs = [\"s.rs\"], deps = [{}])",
            deps.join(", ")
        );
        let bid = store.put(build.into_bytes());
        tree.insert(p(&format!("pkg{i}/BUILD")), bid).unwrap();
        let sid = store.put(format!("src-{i}-v0").into_bytes());
        tree.insert(p(&format!("pkg{i}/s.rs")), sid).unwrap();
    }
    (tree, store)
}

/// A patch editing the sources of the selected packages; when `add_dep`
/// names a package other than 0, that package's BUILD is rewritten to
/// depend on pkg0 (a graph-altering, Fig.-8-style edit).
fn patch(n_pkgs: usize, edits: &[u8], rev: &str, add_dep: Option<usize>) -> Patch {
    let mut ops = Vec::new();
    let mut seen = HashSet::new();
    for &e in edits {
        let i = e as usize % n_pkgs;
        if seen.insert(i) {
            ops.push(FileOp::Write {
                path: p(&format!("pkg{i}/s.rs")),
                content: format!("src-{i}-{rev}"),
            });
        }
    }
    if let Some(i) = add_dep {
        if i != 0 && i < n_pkgs && seen.insert(n_pkgs + i) {
            ops.push(FileOp::Write {
                path: p(&format!("pkg{i}/BUILD")),
                content: format!(
                    "library(name = \"p{i}\", srcs = [\"s.rs\"], deps = [\"//pkg0:p0\"])"
                ),
            });
        }
    }
    Patch::from_ops(ops)
}

/// The string-keyed oracle for the fast-path comparison: a target
/// affected by both sides with different resulting states.
fn oracle_disagreement(da: &AffectedSet, db: &AffectedSet) -> bool {
    da.iter()
        .any(|(name, state)| db.get(name).is_some_and(|other| other != state))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn bitset_ops_agree_with_hashset(
        xs in proptest::collection::vec(any::<u16>(), 0..60),
        ys in proptest::collection::vec(any::<u16>(), 0..60),
    ) {
        let sx: HashSet<u32> = xs.iter().map(|&v| u32::from(v)).collect();
        let sy: HashSet<u32> = ys.iter().map(|&v| u32::from(v)).collect();
        let bx: BitSet = sx.iter().copied().collect();
        let by: BitSet = sy.iter().copied().collect();
        let mut all: Vec<u32> = sx.iter().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(bx.intersection(&bx).collect::<Vec<_>>(), all);
        prop_assert_eq!(bx.intersects(&by), !sx.is_disjoint(&sy));
        prop_assert_eq!(by.intersects(&bx), bx.intersects(&by));
        let mut want: Vec<u32> = sx.intersection(&sy).copied().collect();
        want.sort_unstable();
        prop_assert_eq!(bx.intersection(&by).collect::<Vec<_>>(), want);
    }

    #[test]
    fn interned_disagreement_agrees_with_eq6_oracle(
        n_pkgs in 2usize..6,
        dep_bits in proptest::collection::vec(any::<bool>(), 10..11),
        edits_a in proptest::collection::vec(any::<u8>(), 0..4),
        edits_b in proptest::collection::vec(any::<u8>(), 0..4),
        dep_a in 0usize..6,
        graph_edit in any::<bool>(),
    ) {
        let (tree, mut store) = workspace(n_pkgs, &dep_bits);
        let add_dep = if graph_edit { Some(dep_a % n_pkgs) } else { None };
        let ca = patch(n_pkgs, &edits_a, "a", add_dep);
        let cb = patch(n_pkgs, &edits_b, "b", None);
        let ta = ca.apply(&tree, &mut store).unwrap();
        let tb = cb.apply(&tree, &mut store).unwrap();
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let aa = SnapshotAnalysis::analyze(&ta, &store).unwrap();
        let ab = SnapshotAnalysis::analyze(&tb, &store).unwrap();
        let da = AffectedSet::between(&base, &aa);
        let db = AffectedSet::between(&base, &ab);

        let mut interner: Interner<TargetName> = Interner::new();
        let ia = InternedAffected::from_affected(&da, &mut interner);
        let ib = InternedAffected::from_affected(&db, &mut interner);

        // The interned state comparison == the fast-path oracle.
        prop_assert_eq!(ia.shared_disagreement(&ib), oracle_disagreement(&da, &db));
        prop_assert_eq!(ib.shared_disagreement(&ia), oracle_disagreement(&db, &da));

        // When the fast path applies, its verdict IS that comparison.
        if let Some(decided) = fast_path_conflict(&base, &aa, &ab) {
            prop_assert_eq!(decided, ia.shared_disagreement(&ib));
        }

        // Conservativeness: a Step-2 hit always makes the union graph
        // report a conflict.
        if da.names_intersect(&db) {
            prop_assert!(union_graph_conflict(&base, &aa, &ab));
        }
    }
}

/// The paper's Figure 8 fixture, interned: C1 edits a source of `x`
/// (affecting `x` and its dependent `y`); C2 makes `z` depend on `x`.
/// The affected name sets are disjoint — and that is exactly why name
/// intersection alone must never be read as independence: the union-graph
/// walk still finds the dependency coupling.
#[test]
fn fig8_counterexample_interned() {
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
        tree.insert(p(path), id).unwrap();
    }
    let c1 = Patch::write(p("x/a.rs"), "x-v2");
    let c2 = Patch::write(
        p("z/BUILD"),
        "library(name = \"z\", srcs = [\"a.rs\"], deps = [\"//x:x\"])",
    );
    let t1 = c1.apply(&tree, &mut store).unwrap();
    let t2 = c2.apply(&tree, &mut store).unwrap();
    let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
    let a1 = SnapshotAnalysis::analyze(&t1, &store).unwrap();
    let a2 = SnapshotAnalysis::analyze(&t2, &store).unwrap();
    let d1 = AffectedSet::between(&base, &a1);
    let d2 = AffectedSet::between(&base, &a2);
    let mut interner: Interner<TargetName> = Interner::new();
    let i1 = InternedAffected::from_affected(&d1, &mut interner);
    let i2 = InternedAffected::from_affected(&d2, &mut interner);
    // Step 2: the affected names are disjoint.
    assert!(!d1.names_intersect(&d2));
    assert!(!i1.shared_disagreement(&i2));
    // The fast path refuses (C2 altered the graph) and the union-graph
    // walk still reports the conflict — a Step-2 miss is necessary but
    // not sufficient for independence.
    assert_eq!(fast_path_conflict(&base, &a1, &a2), None);
    assert!(union_graph_conflict(&base, &a1, &a2));
}
