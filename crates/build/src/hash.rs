//! Algorithm 1: hermetic target hashing (paper Section 5.2).
//!
//! "For each build target, SubmitQueue computes a target hash ... The
//! hash of a target changes if and only if the contents of one of its
//! source files, or the hash of one of its dependencies, changes." We
//! realize exactly that fixpoint: walking the graph in topological order,
//! each target's SHA-256 absorbs its rule kind, its name, the *contents*
//! of its sources (not just their ids — hermeticity), and the hashes of
//! its direct dependencies, which transitively fold in the whole input
//! closure. Every field is length-prefixed so the encoding is injective:
//! two different input closures can only collide if SHA-256 itself does.

use crate::error::BuildError;
use crate::graph::{BuildGraph, TargetName};
use serde::{Deserialize, Serialize};
use sq_vcs::{ObjectStore, Sha256, Tree};
use std::collections::BTreeMap;
use std::fmt;

/// A target's Algorithm-1 hash: 32 bytes covering its transitive inputs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TargetHash([u8; 32]);

impl TargetHash {
    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Full lowercase hex form.
    pub fn to_hex(&self) -> String {
        sq_vcs::hash::to_hex(&self.0)
    }

    /// Abbreviated (12 hex chars) form for logs.
    pub fn short(&self) -> String {
        self.to_hex()[..12].to_string()
    }
}

impl fmt::Debug for TargetHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TargetHash({})", self.short())
    }
}

impl fmt::Display for TargetHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.short())
    }
}

/// The Algorithm-1 hashes of every target in a snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TargetHashes {
    hashes: BTreeMap<TargetName, TargetHash>,
}

/// Absorb one field with a domain tag and a length prefix, keeping the
/// overall byte stream uniquely decodable.
fn feed(h: &mut Sha256, tag: &[u8], bytes: &[u8]) {
    h.update(tag);
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

impl TargetHashes {
    /// Compute every target's hash over a snapshot (Algorithm 1).
    ///
    /// Fails if a declared source is absent from the tree or its blob is
    /// absent from the store — a hash over unknown content would not be
    /// hermetic.
    pub fn compute(
        graph: &BuildGraph,
        tree: &Tree,
        store: &ObjectStore,
    ) -> Result<TargetHashes, BuildError> {
        let mut hashes: BTreeMap<TargetName, TargetHash> = BTreeMap::new();
        for name in graph.topo_order() {
            let target = graph
                .get(name)
                .expect("topo order only lists graph targets");
            let mut h = Sha256::new();
            feed(&mut h, b"kind", target.kind.rule_name().as_bytes());
            feed(&mut h, b"name", name.to_string().as_bytes());
            for src in &target.srcs {
                let id = tree.get(src).ok_or_else(|| BuildError::MissingSource {
                    target: name.clone(),
                    path: src.as_str().to_string(),
                })?;
                let content = store
                    .get(&id)
                    .ok_or_else(|| BuildError::MissingObject(id.to_hex()))?;
                feed(&mut h, b"src", src.as_str().as_bytes());
                feed(&mut h, b"blob", content.as_ref());
            }
            for dep in &target.deps {
                let dep_hash = hashes
                    .get(dep)
                    .expect("topo order puts dependencies before dependents");
                feed(&mut h, b"dep", dep.to_string().as_bytes());
                feed(&mut h, b"dep-hash", dep_hash.as_bytes());
            }
            hashes.insert(name.clone(), TargetHash(h.finalize()));
        }
        Ok(TargetHashes { hashes })
    }

    /// The hash of one target, if it exists in the snapshot.
    pub fn get(&self, name: &TargetName) -> Option<TargetHash> {
        self.hashes.get(name).copied()
    }

    /// Number of hashed targets.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True iff no targets were hashed.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Iterate `(name, hash)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&TargetName, TargetHash)> {
        self.hashes.iter().map(|(n, &h)| (n, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_workspace;
    use sq_vcs::RepoPath;
    use std::str::FromStr;

    fn n(s: &str) -> TargetName {
        TargetName::from_str(s).unwrap()
    }

    /// chain: base ← mid ← top, plus unrelated other.
    fn workspace(base_src: &str) -> (Tree, ObjectStore) {
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        let files = [
            ("base/BUILD", "library(name = \"base\", srcs = [\"b.rs\"])"),
            ("base/b.rs", base_src),
            (
                "mid/BUILD",
                "library(name = \"mid\", srcs = [\"m.rs\"], deps = [\"//base:base\"])",
            ),
            ("mid/m.rs", "mid-src"),
            (
                "top/BUILD",
                "binary(name = \"top\", srcs = [\"t.rs\"], deps = [\"//mid:mid\"])",
            ),
            ("top/t.rs", "top-src"),
            (
                "other/BUILD",
                "library(name = \"other\", srcs = [\"o.rs\"])",
            ),
            ("other/o.rs", "other-src"),
        ];
        for (path, content) in files {
            let id = store.put(content.as_bytes().to_vec());
            tree.insert(RepoPath::new(path).unwrap(), id).unwrap();
        }
        (tree, store)
    }

    fn hashes_of(tree: &Tree, store: &ObjectStore) -> TargetHashes {
        let graph = parse_workspace(tree, store).unwrap();
        TargetHashes::compute(&graph, tree, store).unwrap()
    }

    #[test]
    fn deterministic_across_runs_and_stores() {
        // Two computations over the same snapshot agree...
        let (tree, store) = workspace("base-v1");
        let h1 = hashes_of(&tree, &store);
        let h2 = hashes_of(&tree, &store);
        assert_eq!(h1, h2);
        // ...and so do computations over an independently built store
        // (DESIGN.md invariant 3: the hash is a pure function of the
        // snapshot content).
        let (tree_b, store_b) = workspace("base-v1");
        let h3 = hashes_of(&tree_b, &store_b);
        assert_eq!(h1, h3);
    }

    #[test]
    fn source_edit_propagates_to_transitive_dependents_only() {
        let (tree_v1, store_v1) = workspace("base-v1");
        let (tree_v2, store_v2) = workspace("base-v2");
        let h1 = hashes_of(&tree_v1, &store_v1);
        let h2 = hashes_of(&tree_v2, &store_v2);
        // base changed directly; mid and top transitively (Algorithm 1:
        // a dependency's hash change propagates).
        for t in ["//base:base", "//mid:mid", "//top:top"] {
            assert_ne!(h1.get(&n(t)), h2.get(&n(t)), "{t} must change");
        }
        // The unrelated target is untouched.
        assert_eq!(h1.get(&n("//other:other")), h2.get(&n("//other:other")));
    }

    #[test]
    fn dep_list_change_alone_changes_the_hash() {
        let (tree, mut store) = workspace("base-v1");
        let h1 = hashes_of(&tree, &store);
        // Rewire other to depend on base without touching any source.
        let patched = sq_vcs::Patch::write(
            RepoPath::new("other/BUILD").unwrap(),
            "library(name = \"other\", srcs = [\"o.rs\"], deps = [\"//base:base\"])",
        )
        .apply(&tree, &mut store)
        .unwrap();
        let h2 = hashes_of(&patched, &store);
        assert_ne!(h1.get(&n("//other:other")), h2.get(&n("//other:other")));
        assert_eq!(h1.get(&n("//base:base")), h2.get(&n("//base:base")));
    }

    #[test]
    fn renaming_a_source_changes_the_hash_even_with_same_content() {
        // Path is part of the closure: same bytes under a different name
        // is a different input (e.g. include-by-name semantics).
        let mut store = ObjectStore::new();
        let mut t1 = Tree::new();
        let id = store.put(&b"same content"[..]);
        t1.insert(RepoPath::new("p/a.rs").unwrap(), id).unwrap();
        let b1 = store.put(&b"library(name = \"p\", srcs = [\"a.rs\"])"[..]);
        t1.insert(RepoPath::new("p/BUILD").unwrap(), b1).unwrap();
        let mut t2 = Tree::new();
        t2.insert(RepoPath::new("p/b.rs").unwrap(), id).unwrap();
        let b2 = store.put(&b"library(name = \"p\", srcs = [\"b.rs\"])"[..]);
        t2.insert(RepoPath::new("p/BUILD").unwrap(), b2).unwrap();
        let h1 = hashes_of(&t1, &store);
        let h2 = hashes_of(&t2, &store);
        assert_ne!(h1.get(&n("//p:p")), h2.get(&n("//p:p")));
    }

    #[test]
    fn missing_source_and_missing_blob_are_errors() {
        let (tree, store) = workspace("base-v1");
        let graph = parse_workspace(&tree, &store).unwrap();
        // Drop a declared source from the tree.
        let mut pruned = tree.clone();
        pruned.remove(&RepoPath::new("mid/m.rs").unwrap());
        assert!(matches!(
            TargetHashes::compute(&graph, &pruned, &store),
            Err(BuildError::MissingSource { .. })
        ));
        // Point the tree at a blob the store has never seen.
        let mut dangling = tree.clone();
        dangling
            .insert(
                RepoPath::new("mid/m.rs").unwrap(),
                sq_vcs::ObjectId::for_bytes(b"never stored"),
            )
            .unwrap();
        assert!(matches!(
            TargetHashes::compute(&graph, &dangling, &store),
            Err(BuildError::MissingObject(_))
        ));
    }

    #[test]
    fn accessors() {
        let (tree, store) = workspace("base-v1");
        let h = hashes_of(&tree, &store);
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
        assert_eq!(h.iter().count(), 4);
        let one = h.get(&n("//base:base")).unwrap();
        assert_eq!(one.to_hex().len(), 64);
        assert_eq!(one.short().len(), 12);
        assert!(one.to_hex().starts_with(&one.short()));
        assert!(h.get(&n("//nope:nope")).is_none());
    }
}
