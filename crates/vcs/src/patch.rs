//! Developer code patches.
//!
//! A patch is the code portion of a paper "change": a set of file writes
//! and deletes against some snapshot. Patches compose (`⊕` in the paper:
//! `H ⊕ C₁ ⊕ C₂`), apply to trees, and can be inverted against the tree
//! they were applied to (rollback — the expensive manual operation the
//! paper's introduction describes, which SubmitQueue makes unnecessary).

use crate::error::VcsError;
use crate::object::ObjectStore;
use crate::path::RepoPath;
use crate::tree::Tree;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One file-level operation in a patch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FileOp {
    /// Create or replace the file at `path` with `content`.
    Write {
        /// Target path.
        path: RepoPath,
        /// New full content.
        content: String,
    },
    /// Remove the file at `path`.
    Delete {
        /// Target path.
        path: RepoPath,
    },
}

impl FileOp {
    /// The path this operation touches.
    pub fn path(&self) -> &RepoPath {
        match self {
            FileOp::Write { path, .. } | FileOp::Delete { path } => path,
        }
    }
}

/// A code patch: an ordered set of file operations, at most one per path
/// (later operations on the same path overwrite earlier ones).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Patch {
    ops: BTreeMap<RepoPath, FileOp>,
}

impl Patch {
    /// The empty patch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a list of operations; later ops win per path.
    pub fn from_ops(ops: impl IntoIterator<Item = FileOp>) -> Self {
        let mut p = Patch::new();
        for op in ops {
            p.push(op);
        }
        p
    }

    /// Convenience: a patch that writes one file.
    pub fn write(path: RepoPath, content: impl Into<String>) -> Self {
        Patch::from_ops([FileOp::Write {
            path,
            content: content.into(),
        }])
    }

    /// Convenience: a patch that deletes one file.
    pub fn delete(path: RepoPath) -> Self {
        Patch::from_ops([FileOp::Delete { path }])
    }

    /// Add an operation, replacing any previous op on the same path.
    pub fn push(&mut self, op: FileOp) {
        self.ops.insert(op.path().clone(), op);
    }

    /// Number of touched paths.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff the patch has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Paths touched by this patch, in order.
    pub fn paths(&self) -> impl Iterator<Item = &RepoPath> {
        self.ops.keys()
    }

    /// Operations in path order.
    pub fn ops(&self) -> impl Iterator<Item = &FileOp> {
        self.ops.values()
    }

    /// Compose: the patch equivalent to applying `self` then `later`
    /// (paper `C₁ ⊕ C₂`). Later operations win on common paths.
    pub fn compose(&self, later: &Patch) -> Patch {
        let mut out = self.clone();
        for op in later.ops.values() {
            out.push(op.clone());
        }
        out
    }

    /// Apply to a tree, producing the new snapshot. Deleting a missing
    /// path is an error (the patch was made against a different base),
    /// and so is a write the tree cannot hold
    /// ([`VcsError::PathConflict`]).
    ///
    /// Deletes go first: a patch has one op per path, so the order
    /// changes no result, and a patch that replaces a file by a directory
    /// of its name (or the reverse) then applies whichever sorts first.
    pub fn apply(&self, base: &Tree, store: &mut ObjectStore) -> Result<Tree, VcsError> {
        let mut tree = base.clone();
        for path in self.ops.values().filter_map(|op| match op {
            FileOp::Delete { path } => Some(path),
            FileOp::Write { .. } => None,
        }) {
            if tree.remove(path).is_none() {
                return Err(VcsError::MissingPath(path.clone()));
            }
        }
        for op in self.ops.values() {
            if let FileOp::Write { path, content } = op {
                let id = store.put(content.clone().into_bytes());
                tree.insert(path.clone(), id)?;
            }
        }
        Ok(tree)
    }

    /// True iff applying to `base` would change nothing (all writes are
    /// identical content, byte for byte, and there are no deletes of
    /// existing files).
    pub fn is_noop_on(&self, base: &Tree, store: &ObjectStore) -> bool {
        self.ops.values().all(|op| match op {
            FileOp::Write { path, content } => base
                .get(path)
                .and_then(|id| store.get(&id))
                .is_some_and(|old| old.as_ref() == content.as_bytes()),
            FileOp::Delete { path } => !base.contains(path),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(s: &str) -> RepoPath {
        RepoPath::new(s).unwrap()
    }

    fn base_tree(store: &mut ObjectStore) -> Tree {
        let mut t = Tree::new();
        for (p, c) in [("a.rs", "alpha"), ("b.rs", "beta"), ("dir/c.rs", "gamma")] {
            let id = store.put(c.as_bytes().to_vec());
            t.insert(path(p), id).unwrap();
        }
        t
    }

    #[test]
    fn apply_write_and_delete() {
        let mut store = ObjectStore::new();
        let base = base_tree(&mut store);
        let patch = Patch::from_ops([
            FileOp::Write {
                path: path("a.rs"),
                content: "alpha2".into(),
            },
            FileOp::Delete { path: path("b.rs") },
            FileOp::Write {
                path: path("new.rs"),
                content: "nu".into(),
            },
        ]);
        let out = patch.apply(&base, &mut store).unwrap();
        assert_eq!(
            store.get_text(&out.get(&path("a.rs")).unwrap()).unwrap(),
            "alpha2"
        );
        assert!(!out.contains(&path("b.rs")));
        assert!(out.contains(&path("new.rs")));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn delete_missing_path_errors() {
        let mut store = ObjectStore::new();
        let base = base_tree(&mut store);
        let patch = Patch::delete(path("nope.rs"));
        assert!(matches!(
            patch.apply(&base, &mut store),
            Err(VcsError::MissingPath(_))
        ));
    }

    #[test]
    fn later_op_wins_per_path() {
        let patch = Patch::from_ops([
            FileOp::Write {
                path: path("x"),
                content: "first".into(),
            },
            FileOp::Write {
                path: path("x"),
                content: "second".into(),
            },
        ]);
        assert_eq!(patch.len(), 1);
        let mut store = ObjectStore::new();
        let out = patch.apply(&Tree::new(), &mut store).unwrap();
        assert_eq!(
            store.get_text(&out.get(&path("x")).unwrap()).unwrap(),
            "second"
        );
    }

    #[test]
    fn compose_is_sequential_application() {
        let mut store = ObjectStore::new();
        let base = base_tree(&mut store);
        let c1 = Patch::write(path("a.rs"), "from-c1");
        let c2 = Patch::from_ops([
            FileOp::Write {
                path: path("a.rs"),
                content: "from-c2".into(),
            },
            FileOp::Delete { path: path("b.rs") },
        ]);
        let composed = c1.compose(&c2);
        let seq = c2
            .apply(&c1.apply(&base, &mut store).unwrap(), &mut store)
            .unwrap();
        let direct = composed.apply(&base, &mut store).unwrap();
        assert_eq!(seq, direct);
    }

    #[test]
    fn noop_detection() {
        let mut store = ObjectStore::new();
        let base = base_tree(&mut store);
        let same = Patch::write(path("a.rs"), "alpha");
        let diff = Patch::write(path("a.rs"), "other");
        assert!(same.is_noop_on(&base, &store));
        assert!(!diff.is_noop_on(&base, &store));
        assert!(Patch::new().is_noop_on(&base, &store));
    }

    /// A blob that is not UTF-8 reads, lossily, as U+FFFD: a write of
    /// that character is a change, not a no-op.
    #[test]
    fn noop_detection_compares_bytes_not_lossy_text() {
        let mut store = ObjectStore::new();
        let mut base = Tree::new();
        let raw = store.put(vec![0xFF]);
        base.insert(path("bin"), raw).unwrap();
        assert_eq!(store.get_text(&raw).unwrap(), "\u{FFFD}");
        let write = Patch::write(path("bin"), "\u{FFFD}");
        assert!(!write.is_noop_on(&base, &store));
        let out = write.apply(&base, &mut store).unwrap();
        assert_eq!(
            store.get(&out.get(&path("bin")).unwrap()).unwrap().as_ref(),
            "\u{FFFD}".as_bytes()
        );
    }

    #[test]
    fn a_write_through_a_file_or_onto_a_directory_is_refused() {
        let mut store = ObjectStore::new();
        let base = base_tree(&mut store);
        for refused in ["a.rs/BUILD", "dir"] {
            assert_eq!(
                Patch::write(path(refused), "x").apply(&base, &mut store),
                Err(VcsError::PathConflict(path(refused)))
            );
        }
        // One patch may turn a file into a directory and a directory
        // into a file, whichever of its ops sorts first.
        let swap = Patch::from_ops([
            FileOp::Delete { path: path("a.rs") },
            FileOp::Write {
                path: path("a.rs/BUILD"),
                content: "x".into(),
            },
            FileOp::Write {
                path: path("dir"),
                content: "x".into(),
            },
            FileOp::Delete {
                path: path("dir/c.rs"),
            },
        ]);
        let out = swap.apply(&base, &mut store).unwrap();
        let files: Vec<&str> = out.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(files, ["a.rs/BUILD", "b.rs", "dir"]);
    }
}
