//! Property tests for Section 5.2: the union-graph algorithm (Steps 1–4)
//! against the Equation 6 oracle, over randomly generated workspaces and
//! patches.
//!
//! Invariants:
//! * the union-graph detector never misses a conflict Eq. 6 finds
//!   (no false negatives — the cheap pass must be conservative);
//! * when neither patch touches the build graph's structure, the fast
//!   path agrees with Equation 6 exactly;
//! * conflict relations are symmetric in the pair order.

use proptest::prelude::*;
use sq_build::affected::SnapshotAnalysis;
use sq_build::conflict::{eq6_conflict, fast_path_conflict, union_graph_conflict};
use sq_vcs::{FileOp, ObjectStore, Patch, RepoPath, Tree};

/// A small random workspace: a layered DAG of `n` packages, each with
/// two sources; package i may depend on an earlier package.
fn build_workspace(n: usize, dep_mask: u64) -> (Tree, ObjectStore) {
    let mut store = ObjectStore::new();
    let mut tree = Tree::new();
    for i in 0..n {
        for s in 0..2 {
            let id = store.put(format!("pkg{i} src{s}").into_bytes());
            tree.insert(RepoPath::new(format!("p{i}/s{s}.rs")).unwrap(), id)
                .unwrap();
        }
        let dep = if i > 0 && (dep_mask >> i) & 1 == 1 {
            format!(", deps = [\"//p{}:t{}\"]", i - 1, i - 1)
        } else {
            String::new()
        };
        let build = format!("library(name = \"t{i}\", srcs = [\"s0.rs\", \"s1.rs\"]{dep})");
        let id = store.put(build.into_bytes());
        tree.insert(RepoPath::new(format!("p{i}/BUILD")).unwrap(), id)
            .unwrap();
    }
    (tree, store)
}

/// One random patch op against the workspace.
#[derive(Debug, Clone)]
enum Op {
    EditSource { pkg: usize, src: usize, v: u8 },
    AddDep { pkg: usize, on: usize },
    NewFileInBuild { pkg: usize, v: u8 },
}

fn arb_op(n: usize) -> impl proptest::strategy::Strategy<Value = Op> {
    prop_oneof![
        3 => (0..n, 0..2usize, any::<u8>())
            .prop_map(|(pkg, src, v)| Op::EditSource { pkg, src, v }),
        1 => (1..n.max(2), any::<u8>()).prop_map(move |(pkg, v)| Op::NewFileInBuild {
            pkg: pkg.min(n - 1),
            v
        }),
        1 => (0..n, 0..n).prop_map(|(a, b)| Op::AddDep {
            pkg: a.max(b),
            on: a.min(b)
        }),
    ]
}

fn render(ops: &[Op], n: usize, dep_mask: u64) -> Patch {
    let mut patch = Patch::new();
    for op in ops {
        match op {
            Op::EditSource { pkg, src, v } => patch.push(FileOp::Write {
                path: RepoPath::new(format!("p{pkg}/s{src}.rs")).unwrap(),
                content: format!("pkg{pkg} src{src} edited v{v}"),
            }),
            Op::AddDep { pkg, on } if pkg != on => {
                // Rewrite BUILD with an extra dependency (acyclic: on < pkg).
                let base_dep = if *pkg > 0 && (dep_mask >> pkg) & 1 == 1 && *on != pkg - 1 {
                    format!("\"//p{}:t{}\", ", pkg - 1, pkg - 1)
                } else {
                    String::new()
                };
                patch.push(FileOp::Write {
                    path: RepoPath::new(format!("p{pkg}/BUILD")).unwrap(),
                    content: format!(
                        "library(name = \"t{pkg}\", srcs = [\"s0.rs\", \"s1.rs\"], deps = [{base_dep}\"//p{on}:t{on}\"])"
                    ),
                });
            }
            Op::AddDep { .. } => {}
            Op::NewFileInBuild { pkg, v } => {
                patch.push(FileOp::Write {
                    path: RepoPath::new(format!("p{pkg}/extra.rs")).unwrap(),
                    content: format!("extra v{v}"),
                });
                patch.push(FileOp::Write {
                    path: RepoPath::new(format!("p{pkg}/BUILD")).unwrap(),
                    content: format!(
                        "library(name = \"t{pkg}\", srcs = [\"s0.rs\", \"s1.rs\", \"extra.rs\"])"
                    ),
                });
            }
        }
    }
    let _ = n;
    patch
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn union_graph_is_conservative_and_fast_path_exact(
        n in 2usize..6,
        dep_mask in any::<u64>(),
        ops_i in proptest::collection::vec(arb_op(5), 1..3),
        ops_j in proptest::collection::vec(arb_op(5), 1..3),
    ) {
        let ops_i: Vec<Op> = ops_i.into_iter().filter(|op| keep(op, n)).collect();
        let ops_j: Vec<Op> = ops_j.into_iter().filter(|op| keep(op, n)).collect();
        prop_assume!(!ops_i.is_empty() && !ops_j.is_empty());
        let (tree, mut store) = build_workspace(n, dep_mask);
        // Normalize away no-op writes (content identical to the base):
        // a real change's patch is a diff, and an "edit" that changes
        // nothing would otherwise overwrite — and thus revert — the
        // other patch's work under ⊕-composition.
        let normalize = |p: Patch, store: &ObjectStore| -> Patch {
            Patch::from_ops(p.ops().filter(|op| match op {
                FileOp::Write { path, content } => {
                    tree.get(path)
                        .and_then(|id| store.get_text(&id))
                        .as_deref()
                        != Some(content.as_str())
                }
                FileOp::Delete { path } => tree.contains(path),
            }).cloned())
        };
        let pi = normalize(render(&ops_i, n, dep_mask), &store);
        let pj = normalize(render(&ops_j, n, dep_mask), &store);
        prop_assume!(!pi.is_empty() && !pj.is_empty());
        // Textually conflicting pairs are conflicts *by definition* and
        // short-circuit before Equation 6 in the production tiering
        // (`changes_conflict`); last-write-wins composition would
        // misrepresent them (the later patch silently reverts the
        // earlier one's file), so they are out of scope here.
        if sq_vcs::merge::merge_patches(&tree, &store, &pi, &pj).is_err() {
            return Ok(());
        }
        let ti = pi.apply(&tree, &mut store).unwrap();
        let tj = pj.apply(&tree, &mut store).unwrap();
        let tij = pi.compose(&pj).apply(&tree, &mut store).unwrap();

        let base = SnapshotAnalysis::analyze(&tree, &store);
        let ai = SnapshotAnalysis::analyze(&ti, &store);
        let aj = SnapshotAnalysis::analyze(&tj, &store);
        let aij = SnapshotAnalysis::analyze(&tij, &store);
        // Random dep additions can occasionally produce cycles or dangling
        // labels; those snapshots are rejected by the build system itself.
        let (Ok(base), Ok(ai), Ok(aj), Ok(aij)) = (base, ai, aj, aij) else {
            return Ok(());
        };

        let exact = eq6_conflict(&base, &ai, &aj, &aij);
        let cheap = union_graph_conflict(&base, &ai, &aj);
        // Conservative: no false negatives.
        prop_assert!(!exact || cheap, "union-graph missed a conflict");
        // Symmetric.
        prop_assert_eq!(cheap, union_graph_conflict(&base, &aj, &ai));

        // Fast path agrees exactly when applicable.
        if let Some(fast) = fast_path_conflict(&base, &ai, &aj) {
            prop_assert_eq!(fast, exact, "fast path diverged from Eq. 6");
        }
    }
}

fn keep(op: &Op, n: usize) -> bool {
    match op {
        Op::EditSource { pkg, .. } => *pkg < n,
        Op::AddDep { pkg, on } => *pkg < n && on < pkg,
        Op::NewFileInBuild { pkg, .. } => *pkg < n,
    }
}
