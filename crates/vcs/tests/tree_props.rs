//! Model-based tests for the directory tree: whatever sequence of
//! writes, removals and patches it has seen, a [`Tree`] answers as the
//! flat `path → blob` map it replaced would — plus the one thing the
//! flat map could not say, that a file and a directory cannot share a
//! name — and its id depends on its contents alone.

use proptest::prelude::*;
use sq_vcs::{FileOp, ObjectId, ObjectStore, Patch, RepoPath, Tree, VcsError};
use std::collections::BTreeMap;

type Model = BTreeMap<RepoPath, ObjectId>;

/// One to three components over names chosen to collide: `a` can be a
/// file, a directory, or a prefix of `a-b` and `a.x`, which sort on
/// either side of `a/`.
fn arb_path() -> impl proptest::strategy::Strategy<Value = RepoPath> {
    let name = || prop_oneof![Just("a"), Just("b"), Just("a-b"), Just("a.x")];
    proptest::collection::vec(name(), 1..4)
        .prop_map(|parts| RepoPath::new(parts.join("/")).unwrap())
}

#[derive(Debug, Clone)]
enum Op {
    Insert(RepoPath, u8),
    Remove(RepoPath),
    Apply(Vec<(RepoPath, Option<u8>)>),
}

fn arb_ops() -> impl proptest::strategy::Strategy<Value = Vec<Op>> {
    let write_or_delete = || prop_oneof![2 => (0u8..4).prop_map(Some), 1 => Just(None)];
    proptest::collection::vec(
        prop_oneof![
            4 => (arb_path(), 0u8..4).prop_map(|(p, v)| Op::Insert(p, v)),
            2 => arb_path().prop_map(Op::Remove),
            2 => proptest::collection::vec((arb_path(), write_or_delete()), 1..4)
                .prop_map(Op::Apply),
        ],
        1..40,
    )
}

fn content(v: u8) -> String {
    format!("version {v}\n")
}

fn blob(v: u8) -> ObjectId {
    ObjectId::for_bytes(content(v).as_bytes())
}

/// True iff `path` is strictly below directory `dir`.
fn inside(path: &RepoPath, dir: &str) -> bool {
    path.as_str()
        .strip_prefix(dir)
        .is_some_and(|rest| rest.starts_with('/'))
}

/// What `Tree::insert` must refuse: a file on the way to `path`, or
/// files below it.
fn collides(model: &Model, path: &RepoPath) -> bool {
    model
        .keys()
        .any(|held| inside(path, held.as_str()) || inside(held, path.as_str()))
}

/// Run one op on both sides; the tree must fail exactly when the model
/// says so, and be left as it was when it does.
fn step(
    tree: &mut Tree,
    model: &mut Model,
    store: &mut ObjectStore,
    op: &Op,
) -> Result<(), TestCaseError> {
    match op {
        Op::Insert(path, v) => {
            let refused = collides(model, path);
            let got = tree.insert(path.clone(), blob(*v));
            prop_assert_eq!(
                got,
                if refused {
                    Err(VcsError::PathConflict(path.clone()))
                } else {
                    Ok(())
                }
            );
            if !refused {
                model.insert(path.clone(), blob(*v));
            }
        }
        Op::Remove(path) => prop_assert_eq!(tree.remove(path), model.remove(path)),
        Op::Apply(ops) => {
            let patch = Patch::from_ops(ops.iter().map(|(path, v)| match v {
                Some(v) => FileOp::Write {
                    path: path.clone(),
                    content: content(*v),
                },
                None => FileOp::Delete { path: path.clone() },
            }));
            // Deletes first, then writes, each in path order.
            let mut next = model.clone();
            let mut expected = Ok(());
            for op in patch.ops() {
                if let FileOp::Delete { path } = op {
                    if next.remove(path).is_none() && expected.is_ok() {
                        expected = Err(VcsError::MissingPath(path.clone()));
                    }
                }
            }
            for op in patch.ops() {
                if let (FileOp::Write { path, content }, true) = (op, expected.is_ok()) {
                    if collides(&next, path) {
                        expected = Err(VcsError::PathConflict(path.clone()));
                    } else {
                        next.insert(path.clone(), ObjectId::for_bytes(content.as_bytes()));
                    }
                }
            }
            match patch.apply(tree, store) {
                Ok(applied) => {
                    prop_assert_eq!(&expected, &Ok(()));
                    *tree = applied;
                    *model = next;
                }
                Err(e) => prop_assert_eq!(expected, Err(e)),
            }
        }
    }
    Ok(())
}

fn flat_diff(a: &Model, b: &Model) -> Vec<RepoPath> {
    let mut out: Vec<RepoPath> = a
        .iter()
        .filter(|(p, id)| b.get(*p) != Some(*id))
        .map(|(p, _)| p.clone())
        .chain(b.keys().filter(|p| !a.contains_key(*p)).cloned())
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn a_tree_answers_as_the_flat_map_does(
        ops in arb_ops(),
        probes in proptest::collection::vec(arb_path(), 8..9),
    ) {
        let mut store = ObjectStore::new();
        let (mut tree, mut model) = (Tree::new(), Model::new());
        let mut earlier: Vec<(Tree, Model)> = vec![(tree.clone(), model.clone())];
        for (i, op) in ops.iter().enumerate() {
            step(&mut tree, &mut model, &mut store, op)?;
            prop_assert_eq!(tree.len(), model.len());
            prop_assert_eq!(tree.is_empty(), model.is_empty());
            // `iter` is in `RepoPath` order, as the map's was.
            prop_assert_eq!(
                tree.iter().map(|(p, id)| (p.clone(), *id)).collect::<Vec<_>>(),
                model.iter().map(|(p, id)| (p.clone(), *id)).collect::<Vec<_>>()
            );
            for path in model.keys().chain(&probes) {
                prop_assert_eq!(tree.get(path), model.get(path).copied());
                prop_assert_eq!(tree.contains(path), model.contains_key(path));
                let dir = path.as_str();
                let under: Vec<&RepoPath> = model.keys().filter(|p| inside(p, dir)).collect();
                prop_assert_eq!(tree.paths_under(dir).collect::<Vec<_>>(), under);
            }
            // Against every earlier state, with and without known ids.
            if i % 3 == 0 {
                tree.id();
            }
            for (then, then_model) in &earlier {
                let diff = flat_diff(then_model, &model);
                let diff: Vec<&RepoPath> = diff.iter().collect();
                prop_assert_eq!(then.changed_paths(&tree), diff.clone());
                prop_assert_eq!(tree.changed_paths(then), diff);
                prop_assert_eq!(*then == tree, *then_model == model);
            }
            earlier.push((tree.clone(), model.clone()));
        }
        // No earlier state moved under the writes that followed it.
        for (then, then_model) in &earlier {
            prop_assert_eq!(then.iter().collect::<Vec<_>>(), then_model.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn equal_contents_have_equal_ids_whatever_the_history(ops in arb_ops()) {
        let mut store = ObjectStore::new();
        let (mut tree, mut model) = (Tree::new(), Model::new());
        for op in &ops {
            step(&mut tree, &mut model, &mut store, op)?;
        }
        // The same files written once, last path first: directories
        // emptied along the way must have left no trace.
        let mut direct = Tree::new();
        for (path, id) in model.iter().rev() {
            direct.insert(path.clone(), *id).unwrap();
        }
        prop_assert_eq!(direct.id(), tree.id());
        prop_assert_eq!(&direct, &tree);
        let id = tree.store(&mut store);
        let loaded = Tree::load(&store, id).unwrap();
        prop_assert_eq!(loaded.iter().collect::<Vec<_>>(), model.iter().collect::<Vec<_>>());
    }
}
