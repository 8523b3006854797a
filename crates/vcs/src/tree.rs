//! Immutable snapshots: path → blob mappings.
//!
//! A [`Tree`] is the state of the whole monorepo at one commit point. It
//! is an ordered map so that serialization (and therefore the tree's own
//! content address) is canonical.
//!
//! Trees are copy-on-write: `clone` is a pointer copy, and the entries
//! are copied only when a tree that shares them is first mutated. The
//! queue hands the same snapshot to the analyzer, the executor's step
//! actions and the commit, none of which change it.

use crate::hash::hex_into;
use crate::object::{ObjectId, ObjectStore};
use crate::path::RepoPath;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A snapshot of the repository: every file path mapped to its blob id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tree {
    entries: Arc<BTreeMap<RepoPath, ObjectId>>,
}

impl Tree {
    /// The empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the snapshot has no files.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Blob id at `path`, if present.
    pub fn get(&self, path: &RepoPath) -> Option<ObjectId> {
        self.entries.get(path).copied()
    }

    /// True iff `path` exists in the snapshot.
    pub fn contains(&self, path: &RepoPath) -> bool {
        self.entries.contains_key(path)
    }

    /// Insert or replace a file.
    pub fn insert(&mut self, path: RepoPath, blob: ObjectId) {
        Arc::make_mut(&mut self.entries).insert(path, blob);
    }

    /// Remove a file, returning its old blob id.
    pub fn remove(&mut self, path: &RepoPath) -> Option<ObjectId> {
        Arc::make_mut(&mut self.entries).remove(path)
    }

    /// Iterate entries in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&RepoPath, &ObjectId)> {
        self.entries.iter()
    }

    /// Paths under a directory prefix, in order.
    pub fn paths_under<'a>(&'a self, dir: &'a str) -> impl Iterator<Item = &'a RepoPath> + 'a {
        self.entries.keys().filter(move |p| p.starts_with_dir(dir))
    }

    /// Canonical serialized form: `hex_blob_id SP path NL` per entry, in
    /// path order. Hashing this gives the tree's content address.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries.len() * 80);
        for (path, id) in self.entries.iter() {
            hex_into(id.as_bytes(), &mut out);
            out.push(b' ');
            out.extend_from_slice(path.as_str().as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Store the canonical form and return the tree's content address.
    pub fn store(&self, store: &mut ObjectStore) -> ObjectId {
        store.put(self.canonical_bytes())
    }

    /// Parse a snapshot back from its canonical form.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Option<Tree> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut entries = BTreeMap::new();
        for line in text.lines() {
            let (hex, path) = line.split_once(' ')?;
            if hex.len() != 64 {
                return None;
            }
            let mut raw = [0u8; 32];
            for (i, byte) in raw.iter_mut().enumerate() {
                *byte = u8::from_str_radix(&hex[i * 2..i * 2 + 2], 16).ok()?;
            }
            entries.insert(RepoPath::new(path).ok()?, ObjectId::from_raw(raw));
        }
        Some(Tree {
            entries: Arc::new(entries),
        })
    }

    /// Paths present in `self` or `other` whose blob differs (including
    /// additions and deletions) — the raw file-level diff between two
    /// snapshots.
    pub fn changed_paths<'a>(&'a self, other: &'a Tree) -> Vec<&'a RepoPath> {
        let mut changed = Vec::new();
        // Two reads of one recent commit share their entries.
        if Arc::ptr_eq(&self.entries, &other.entries) {
            return changed;
        }
        for (p, id) in self.entries.iter() {
            match other.entries.get(p) {
                Some(oid) if oid == id => {}
                _ => changed.push(p),
            }
        }
        for p in other.entries.keys() {
            if !self.entries.contains_key(p) {
                changed.push(p);
            }
        }
        changed.sort();
        changed.dedup();
        changed
    }
}

#[cfg(test)]
impl Tree {
    /// True iff both trees read the same allocation (neither was copied).
    pub(crate) fn shares_entries_with(&self, other: &Tree) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(store: &mut ObjectStore, text: &str) -> ObjectId {
        store.put(text.as_bytes().to_vec())
    }

    fn path(s: &str) -> RepoPath {
        RepoPath::new(s).unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut store = ObjectStore::new();
        let mut t = Tree::new();
        let id = blob(&mut store, "hello");
        t.insert(path("a/f.rs"), id);
        assert_eq!(t.get(&path("a/f.rs")), Some(id));
        assert!(t.contains(&path("a/f.rs")));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(&path("a/f.rs")), Some(id));
        assert!(t.is_empty());
    }

    #[test]
    fn canonical_bytes_roundtrip() {
        let mut store = ObjectStore::new();
        let mut t = Tree::new();
        t.insert(path("b/y.rs"), blob(&mut store, "y"));
        t.insert(path("a/x.rs"), blob(&mut store, "x"));
        let bytes = t.canonical_bytes();
        let parsed = Tree::from_canonical_bytes(&bytes).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn canonical_form_is_order_independent() {
        let mut store = ObjectStore::new();
        let x = blob(&mut store, "x");
        let y = blob(&mut store, "y");
        let mut t1 = Tree::new();
        t1.insert(path("a"), x);
        t1.insert(path("b"), y);
        let mut t2 = Tree::new();
        t2.insert(path("b"), y);
        t2.insert(path("a"), x);
        assert_eq!(t1.canonical_bytes(), t2.canonical_bytes());
    }

    #[test]
    fn store_gives_stable_address() {
        let mut store = ObjectStore::new();
        let mut t = Tree::new();
        t.insert(path("f"), blob(&mut store, "1"));
        let id1 = t.store(&mut store);
        let id2 = t.store(&mut store);
        assert_eq!(id1, id2);
        let fetched = Tree::from_canonical_bytes(store.get(&id1).unwrap()).unwrap();
        assert_eq!(fetched, t);
    }

    #[test]
    fn changed_paths_covers_add_modify_delete() {
        let mut store = ObjectStore::new();
        let mut base = Tree::new();
        base.insert(path("keep"), blob(&mut store, "k"));
        base.insert(path("modify"), blob(&mut store, "old"));
        base.insert(path("delete"), blob(&mut store, "d"));
        let mut new = base.clone();
        new.insert(path("modify"), blob(&mut store, "new"));
        new.remove(&path("delete"));
        new.insert(path("add"), blob(&mut store, "a"));
        let changed: Vec<String> = base
            .changed_paths(&new)
            .into_iter()
            .map(|p| p.as_str().to_string())
            .collect();
        assert_eq!(changed, vec!["add", "delete", "modify"]);
        // Symmetric.
        let changed_rev: Vec<String> = new
            .changed_paths(&base)
            .into_iter()
            .map(|p| p.as_str().to_string())
            .collect();
        assert_eq!(changed, changed_rev);
    }

    #[test]
    fn clone_shares_until_either_side_is_mutated() {
        let mut store = ObjectStore::new();
        let mut original = Tree::new();
        original.insert(path("a"), blob(&mut store, "a"));
        let mut copy = original.clone();
        assert!(copy.shares_entries_with(&original));
        copy.insert(path("b"), blob(&mut store, "b"));
        copy.remove(&path("a"));
        assert!(!copy.shares_entries_with(&original));
        assert_eq!(original.len(), 1);
        assert!(original.contains(&path("a")) && !original.contains(&path("b")));
        assert!(copy.contains(&path("b")) && !copy.contains(&path("a")));
    }

    #[test]
    fn paths_under_filters_by_directory() {
        let mut store = ObjectStore::new();
        let b = blob(&mut store, "x");
        let mut t = Tree::new();
        for p in ["apps/a/m.rs", "apps/b/m.rs", "libs/c/m.rs"] {
            t.insert(path(p), b);
        }
        let under: Vec<&str> = t.paths_under("apps").map(|p| p.as_str()).collect();
        assert_eq!(under, vec!["apps/a/m.rs", "apps/b/m.rs"]);
        assert_eq!(t.paths_under("").count(), 3);
    }

    #[test]
    fn from_canonical_rejects_garbage() {
        assert!(Tree::from_canonical_bytes(b"nonsense").is_none());
        assert!(Tree::from_canonical_bytes(b"deadbeef a/b\n").is_none());
        assert_eq!(Tree::from_canonical_bytes(b"").unwrap(), Tree::new());
    }
}
