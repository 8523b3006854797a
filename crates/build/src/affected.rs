//! Affected-target sets: δ(H⊕C) (paper Section 5.2).
//!
//! "δ(H⊕Cᵢ) denotes the set of build targets whose hash changes when
//! change Cᵢ is applied to mainline H." We carry slightly more than the
//! paper's notation: each affected target keeps its *state* — added,
//! changed (with the new hash), or deleted — because the build planner
//! (Section 6) needs the resulting hash to key the artifact cache, and
//! Equation 6 compares affected sets *including* those hashes.

use crate::error::BuildError;
use crate::graph::{BuildGraph, TargetName};
use crate::hash::{TargetHash, TargetHashes};
use crate::parser::parse_workspace;
use sq_vcs::{ObjectStore, Tree};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Everything the conflict analyzer needs to know about one snapshot:
/// its tree, its parsed target graph, and its Algorithm-1 hashes.
#[derive(Debug, Clone)]
pub struct SnapshotAnalysis {
    /// The analyzed snapshot.
    pub tree: Tree,
    /// The parsed, validated target graph.
    pub graph: BuildGraph,
    /// Algorithm-1 hashes of every target.
    pub hashes: TargetHashes,
}

impl SnapshotAnalysis {
    /// Parse and hash a snapshot.
    pub fn analyze(tree: &Tree, store: &ObjectStore) -> Result<SnapshotAnalysis, BuildError> {
        let graph = parse_workspace(tree, store)?;
        let hashes = TargetHashes::compute(&graph, tree, store)?;
        Ok(SnapshotAnalysis {
            tree: tree.clone(),
            graph,
            hashes,
        })
    }

    /// True iff the two snapshots declare structurally identical target
    /// graphs (same targets, kinds, sources, dependencies). This is the
    /// §5.2 fast-path condition — per the paper only 7.9% (iOS) / 1.6%
    /// (Backend) of changes make it false.
    pub fn same_graph_structure(&self, other: &SnapshotAnalysis) -> bool {
        self.graph.same_structure(&other.graph)
    }
}

/// How a change affected one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AffectedState {
    /// The target is new in the changed snapshot.
    Added(TargetHash),
    /// The target exists in both snapshots with different hashes; the
    /// carried hash is the *new* one.
    Changed(TargetHash),
    /// The target no longer exists in the changed snapshot.
    Deleted,
}

impl AffectedState {
    /// The resulting hash, if the target still exists.
    pub fn hash(&self) -> Option<TargetHash> {
        match self {
            AffectedState::Added(h) | AffectedState::Changed(h) => Some(*h),
            AffectedState::Deleted => None,
        }
    }
}

/// δ(H⊕C): the targets whose hash differs between two snapshots, each
/// with its [`AffectedState`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AffectedSet {
    map: BTreeMap<TargetName, AffectedState>,
}

impl AffectedSet {
    /// The affected set between a base analysis and a changed analysis:
    /// the cone the changed hashes recorded, if they were derived from the
    /// base's over the same graph ([`TargetHashes::compute`]), and else
    /// one merge-join over the two name-ordered hash lists.
    pub fn between(base: &SnapshotAnalysis, new: &SnapshotAnalysis) -> AffectedSet {
        if let Some(cone) = new.hashes.changed_from(&base.hashes) {
            let changed = cone.map(|(name, hash)| (name.clone(), AffectedState::Changed(hash)));
            return AffectedSet {
                map: changed.collect(),
            };
        }
        let mut affected: Vec<(TargetName, AffectedState)> = Vec::new();
        let mut old = base.hashes.iter().peekable();
        let mut now = new.hashes.iter().peekable();
        loop {
            let order = match (old.peek(), now.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((o, _)), Some((n, _))) => o.cmp(n),
            };
            match order {
                Ordering::Less => {
                    let (name, _) = old.next().expect("peeked");
                    affected.push((name.clone(), AffectedState::Deleted));
                }
                Ordering::Greater => {
                    let (name, hash) = now.next().expect("peeked");
                    affected.push((name.clone(), AffectedState::Added(hash)));
                }
                Ordering::Equal => {
                    let (_, was) = old.next().expect("peeked");
                    let (name, hash) = now.next().expect("peeked");
                    if was != hash {
                        affected.push((name.clone(), AffectedState::Changed(hash)));
                    }
                }
            }
        }
        AffectedSet {
            map: affected.into_iter().collect(),
        }
    }

    /// This target's state, if affected.
    pub fn get(&self, name: &TargetName) -> Option<&AffectedState> {
        self.map.get(name)
    }

    /// True iff the target is affected.
    pub fn contains(&self, name: &TargetName) -> bool {
        self.map.contains_key(name)
    }

    /// Iterate `(name, state)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&TargetName, &AffectedState)> {
        self.map.iter()
    }

    /// Affected target names in order.
    pub fn names(&self) -> impl Iterator<Item = &TargetName> {
        self.map.keys()
    }

    /// Number of affected targets.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff no target was affected.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True iff the two sets share any affected target name (Step 2 of
    /// the union-graph algorithm; also the Fig. 8 trap — name overlap is
    /// *not* the whole conflict story).
    pub fn names_intersect(&self, other: &AffectedSet) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        // Walk the smaller set, probe the larger.
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.names().any(|n| large.contains(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_vcs::{Patch, RepoPath};
    use std::str::FromStr;

    fn n(s: &str) -> TargetName {
        TargetName::from_str(s).unwrap()
    }

    fn p(s: &str) -> RepoPath {
        RepoPath::new(s).unwrap()
    }

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
            ("tool/BUILD", "library(name = \"tool\", srcs = [\"t.rs\"])"),
            ("tool/t.rs", "tool-v1"),
        ];
        for (path, content) in files {
            let id = store.put(content.as_bytes().to_vec());
            tree.insert(p(path), id).unwrap();
        }
        (tree, store)
    }

    #[test]
    fn identical_snapshots_have_empty_delta() {
        let (tree, store) = workspace();
        let a = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let b = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let d = AffectedSet::between(&a, &b);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert!(a.same_graph_structure(&b));
    }

    #[test]
    fn source_edit_yields_changed_states_transitively() {
        let (tree, mut store) = workspace();
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let t2 = Patch::write(p("lib/l.rs"), "lib-v2")
            .apply(&tree, &mut store)
            .unwrap();
        let new = SnapshotAnalysis::analyze(&t2, &store).unwrap();
        let d = AffectedSet::between(&base, &new);
        assert_eq!(d.len(), 2); // lib + its dependent app; tool untouched
        for t in ["//lib:lib", "//app:app"] {
            let state = d.get(&n(t)).unwrap();
            assert!(matches!(state, AffectedState::Changed(_)), "{t}: {state:?}");
            assert_eq!(state.hash(), new.hashes.get(&n(t)));
        }
        assert!(d.get(&n("//tool:tool")).is_none());
        assert!(!d.contains(&n("//tool:tool")));
        assert!(
            base.same_graph_structure(&new),
            "source edits keep structure"
        );
    }

    #[test]
    fn added_and_deleted_targets_are_reported() {
        let (tree, mut store) = workspace();
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        // Add a package, delete another.
        let patch = Patch::from_ops([
            sq_vcs::FileOp::Write {
                path: p("new/BUILD"),
                content: "library(name = \"new\", srcs = [\"n.rs\"])".into(),
            },
            sq_vcs::FileOp::Write {
                path: p("new/n.rs"),
                content: "new-src".into(),
            },
            sq_vcs::FileOp::Delete {
                path: p("tool/BUILD"),
            },
            sq_vcs::FileOp::Delete {
                path: p("tool/t.rs"),
            },
        ]);
        let t2 = patch.apply(&tree, &mut store).unwrap();
        let new = SnapshotAnalysis::analyze(&t2, &store).unwrap();
        let d = AffectedSet::between(&base, &new);
        assert!(matches!(
            d.get(&n("//new:new")),
            Some(AffectedState::Added(_))
        ));
        assert_eq!(d.get(&n("//tool:tool")), Some(&AffectedState::Deleted));
        assert_eq!(d.get(&n("//tool:tool")).unwrap().hash(), None);
        assert!(!base.same_graph_structure(&new));
        // lib and app are untouched.
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn names_intersect_is_symmetric_and_correct() {
        let (tree, mut store) = workspace();
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let ta = Patch::write(p("lib/l.rs"), "lib-v2")
            .apply(&tree, &mut store)
            .unwrap();
        let tb = Patch::write(p("app/m.rs"), "app-v2")
            .apply(&tree, &mut store)
            .unwrap();
        let tc = Patch::write(p("tool/t.rs"), "tool-v2")
            .apply(&tree, &mut store)
            .unwrap();
        let da = AffectedSet::between(&base, &SnapshotAnalysis::analyze(&ta, &store).unwrap());
        let db = AffectedSet::between(&base, &SnapshotAnalysis::analyze(&tb, &store).unwrap());
        let dc = AffectedSet::between(&base, &SnapshotAnalysis::analyze(&tc, &store).unwrap());
        // da = {lib, app}, db = {app}, dc = {tool}.
        assert!(da.names_intersect(&db));
        assert!(db.names_intersect(&da));
        assert!(!da.names_intersect(&dc));
        assert!(!dc.names_intersect(&da));
    }
}
