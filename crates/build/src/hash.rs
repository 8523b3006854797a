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
use crate::graph::{BuildGraph, Target, TargetName};
use crate::parser::Package;
use serde::{Deserialize, Serialize};
use sq_vcs::{ObjectId, ObjectStore, Sha256, Tree};
use std::fmt;
use std::ops::Range;

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
    /// Sorted by name, one entry per target.
    hashes: Vec<(TargetName, TargetHash)>,
}

/// Absorb one field with a domain tag and a length prefix, keeping the
/// overall byte stream uniquely decodable.
fn feed(h: &mut Sha256, tag: &[u8], bytes: &[u8]) {
    h.update(tag);
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

/// Each target's Algorithm-1 state after its kind, label and sources,
/// kept on its package directory ([`Package`]) by the first hash over the
/// directory as it is.
pub(crate) struct Sources {
    /// One per target of the package, in name order.
    states: Vec<Sha256>,
    /// Every source blob the states absorbed.
    blobs: Vec<ObjectId>,
}

/// Start a target's hash: its kind, its label, then each source's path
/// and content.
fn absorb(
    target: &Target,
    label: &[u8],
    tree: &Tree,
    store: &ObjectStore,
) -> Result<Sha256, BuildError> {
    let mut h = Sha256::new();
    feed(&mut h, b"kind", target.kind.rule_name().as_bytes());
    feed(&mut h, b"name", label);
    for src in &target.srcs {
        let id = tree.get(src).ok_or_else(|| BuildError::MissingSource {
            target: target.name.clone(),
            path: src.as_str().to_string(),
        })?;
        let content = store
            .get(&id)
            .ok_or_else(|| BuildError::MissingObject(id.to_hex()))?;
        feed(&mut h, b"src", src.as_str().as_bytes());
        feed(&mut h, b"blob", content.as_ref());
    }
    crate::work::sources_absorbed(target.srcs.len());
    Ok(h)
}

/// What the package directories of a tree keep for a graph's targets.
struct Kept<'a> {
    /// Per position, the state after sources of every package whose kept
    /// definitions are the graph's and whose source blobs are all in the
    /// store.
    states: Vec<Option<&'a Sha256>>,
    /// Each package whose definitions are the graph's but that keeps no
    /// states yet, with its positions.
    unkept: Vec<(Range<usize>, &'a Package)>,
}

fn kept_states<'a>(targets: &[Target], tree: &'a Tree, store: &ObjectStore) -> Kept<'a> {
    let mut packages: Vec<&Package> = tree
        .files_named("BUILD")
        .filter_map(|(path, blob, slot)| {
            let package = slot.get::<Package>()?;
            package
                .parsed_from(blob, path.parent().unwrap_or(""))
                .then_some(package)
        })
        .collect();
    // Targets are in name order, so each package's are one run, in
    // package order.
    packages.sort_unstable_by(|a, b| a.package().cmp(b.package()));
    let mut packages = packages.into_iter().peekable();
    let mut states = vec![None; targets.len()];
    let mut unkept = Vec::new();
    let mut lo = 0;
    while lo < targets.len() {
        let package = targets[lo].name.package();
        let hi = targets[lo..]
            .iter()
            .position(|t| t.name.package() != package)
            .map_or(targets.len(), |n| lo + n);
        while packages.next_if(|p| p.package() < package).is_some() {}
        let run = &targets[lo..hi];
        if let Some(p) = packages.next_if(|p| p.package() == package && p.declares(run)) {
            match p.sources.get() {
                None => unkept.push((lo..hi, p)),
                Some(s) if s.blobs.iter().all(|b| store.contains(b)) => {
                    for (at, state) in states[lo..hi].iter_mut().zip(&s.states) {
                        *at = Some(state);
                    }
                }
                // A blob is gone: hashing from the sources names it.
                Some(_) => {}
            }
        }
        lo = hi;
    }
    Kept { states, unkept }
}

impl TargetHashes {
    /// Compute every target's hash over a snapshot (Algorithm 1).
    ///
    /// Fails if a declared source is absent from the tree or its blob is
    /// absent from the store — a hash over unknown content would not be
    /// hermetic.
    ///
    /// A package directory that [`crate::parse_workspace`] parsed keeps
    /// its targets' states after their sources; a later call over a tree
    /// sharing the directory feeds only the dependencies.
    pub fn compute(
        graph: &BuildGraph,
        tree: &Tree,
        store: &ObjectStore,
    ) -> Result<TargetHashes, BuildError> {
        let targets = graph.targets().as_slice();
        // Every label in its `Display` form, rendered once into one
        // buffer: target `i`'s is `labels[ends[i]..ends[i + 1]]`.
        let mut labels = String::new();
        let mut ends: Vec<usize> = Vec::with_capacity(targets.len() + 1);
        ends.push(0);
        for t in targets {
            labels.push_str("//");
            labels.push_str(t.name.package());
            labels.push(':');
            labels.push_str(t.name.short_name());
            ends.push(labels.len());
        }
        let label = |i: usize| &labels.as_bytes()[ends[i]..ends[i + 1]];
        let Kept { states, unkept } = kept_states(targets, tree, store);
        let mut absorbed: Vec<Option<Sha256>> = vec![None; targets.len()];
        let mut hashes = vec![TargetHash([0; 32]); targets.len()];
        for &i in graph.topo_positions() {
            let i = i as usize;
            let mut h = match states[i] {
                Some(state) => state.clone(),
                None => {
                    let h = absorb(&targets[i], label(i), tree, store)?;
                    absorbed[i] = Some(h.clone());
                    h
                }
            };
            // The topological order put every dependency's hash in place.
            for &d in graph.deps_of(i) {
                let d = d as usize;
                feed(&mut h, b"dep", label(d));
                feed(&mut h, b"dep-hash", hashes[d].as_bytes());
            }
            hashes[i] = TargetHash(h.finalize());
        }
        for (run, package) in unkept {
            let states = absorbed[run.clone()]
                .iter_mut()
                .map(|s| s.take().expect("a target kept nothing for is absorbed"))
                .collect();
            let blobs = targets[run]
                .iter()
                .flat_map(|t| &t.srcs)
                .map(|src| tree.get(src).expect("an absorbed source is in the tree"))
                .collect();
            // A concurrent hash over the directory kept the same states.
            let _ = package.sources.set(Sources { states, blobs });
        }
        Ok(TargetHashes {
            hashes: targets.iter().map(|t| t.name.clone()).zip(hashes).collect(),
        })
    }

    /// The hash of one target, if it exists in the snapshot.
    pub fn get(&self, name: &TargetName) -> Option<TargetHash> {
        self.hashes
            .binary_search_by(|(n, _)| n.cmp(name))
            .ok()
            .map(|i| self.hashes[i].1)
    }

    /// Iterate `(name, hash)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&TargetName, TargetHash)> {
        self.hashes.iter().map(|(n, h)| (n, *h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_workspace;
    use crate::SnapshotAnalysis;
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
        assert_eq!(h.iter().count(), 4);
        let one = h.get(&n("//base:base")).unwrap();
        assert_eq!(one.to_hex().len(), 64);
        assert_eq!(one.short().len(), 12);
        assert!(one.to_hex().starts_with(&one.short()));
        assert!(h.get(&n("//nope:nope")).is_none());
    }

    fn files(files: &[(&str, &str)]) -> (Tree, ObjectStore) {
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        for (path, content) in files {
            let id = store.put(content.as_bytes().to_vec());
            tree.insert(RepoPath::new(path).unwrap(), id).unwrap();
        }
        (tree, store)
    }

    fn write(tree: &Tree, store: &mut ObjectStore, path: &str, content: &str) -> Tree {
        sq_vcs::Patch::write(RepoPath::new(path).unwrap(), content)
            .apply(tree, store)
            .unwrap()
    }

    /// The same snapshot in fresh directories, which keep nothing.
    fn cold(tree: &Tree, store: &mut ObjectStore) -> Tree {
        let root = tree.store(store);
        Tree::load(store, root).unwrap()
    }

    #[test]
    fn a_change_parses_and_absorbs_only_the_package_it_touched() {
        let (h, mut store) = files(&[
            ("base/BUILD", "library(name = \"base\", srcs = [\"b.rs\"])"),
            ("base/b.rs", "base"),
            (
                "mid/BUILD",
                "library(name = \"mid\", srcs = [\"m.rs\", \"n.rs\"], deps = [\"//base\"])\n\
                 test(name = \"mid_test\", srcs = [\"t.rs\"], deps = [\":mid\"])",
            ),
            ("mid/m.rs", "m"),
            ("mid/n.rs", "n"),
            ("mid/t.rs", "t"),
            (
                "top/BUILD",
                "binary(name = \"top\", srcs = [\"t.rs\"], deps = [\"//mid\"])",
            ),
            ("top/t.rs", "top"),
        ]);
        let analyze = |tree: &Tree, store: &mut ObjectStore| {
            crate::work::take();
            let kept = hashes_of(tree, store);
            let counts = crate::work::take();
            assert_eq!(kept, hashes_of(&cold(tree, store), store));
            crate::work::take();
            counts
        };
        // Three BUILD files, five sources over four targets.
        assert_eq!(analyze(&h, &mut store), (3, 5));
        // A source edit in `mid`: its three sources, no BUILD file, and
        // `top`'s hash changes from its kept state.
        let edited = write(&h, &mut store, "mid/n.rs", "n, edited");
        assert_eq!(analyze(&edited, &mut store), (0, 3));
        let rewritten = write(
            &h,
            &mut store,
            "mid/BUILD",
            "library(name = \"mid\", srcs = [\"m.rs\"], deps = [\"//base\"])",
        );
        assert_eq!(analyze(&rewritten, &mut store), (1, 1));
        assert_eq!(analyze(&h, &mut store), (0, 0));
    }

    #[test]
    fn a_graph_unlike_the_build_files_is_hashed_from_its_sources() {
        let (tree, mut store) = workspace("base-v1");
        let analysis = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        // `mid` declares another source than mid/BUILD does.
        let graph = BuildGraph::from_targets(analysis.graph.targets().cloned().map(|mut t| {
            if t.name == n("//mid:mid") {
                t.srcs = vec![RepoPath::new("base/b.rs").unwrap()];
            }
            t
        }))
        .unwrap();
        let over_kept = TargetHashes::compute(&graph, &tree, &store).unwrap();
        assert_ne!(
            over_kept.get(&n("//mid:mid")),
            analysis.hashes.get(&n("//mid:mid"))
        );
        let cold = cold(&tree, &mut store);
        assert_eq!(
            over_kept,
            TargetHashes::compute(&graph, &cold, &store).unwrap()
        );
    }

    #[test]
    fn a_kept_state_is_used_only_while_the_store_holds_its_sources() {
        let (tree, store) = workspace("base-v1");
        let analysis = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let m = tree.get(&RepoPath::new("mid/m.rs").unwrap()).unwrap();
        // Every object of the snapshot but `mid`'s source.
        let mut lacking = ObjectStore::new();
        for (_, id) in tree.iter().filter(|(_, id)| **id != m) {
            lacking.put(store.get(id).unwrap().clone());
        }
        assert_eq!(
            TargetHashes::compute(&analysis.graph, &tree, &lacking),
            Err(BuildError::MissingObject(m.to_hex()))
        );
    }

    #[test]
    fn the_first_missing_source_in_topological_order_is_reported() {
        // `a` depends on `z`: `z` is first in topological order, last by name.
        let (tree, mut store) = files(&[
            (
                "a/BUILD",
                "library(name = \"a\", srcs = [\"a.rs\"], deps = [\"//z\"])",
            ),
            ("a/a.rs", "a"),
            ("z/BUILD", "library(name = \"z\", srcs = [\"z.rs\"])"),
            ("z/z.rs", "z"),
        ]);
        SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let mut pruned = tree.clone();
        pruned.remove(&RepoPath::new("a/a.rs").unwrap());
        pruned.remove(&RepoPath::new("z/z.rs").unwrap());
        let graph = parse_workspace(&pruned, &store).unwrap();
        let missing = Err(BuildError::MissingSource {
            target: n("//z:z"),
            path: "z/z.rs".into(),
        });
        assert_eq!(TargetHashes::compute(&graph, &pruned, &store), missing);
        let cold = cold(&pruned, &mut store);
        assert_eq!(TargetHashes::compute(&graph, &cold, &store), missing);
    }
}
