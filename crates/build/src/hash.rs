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
use crate::parser::{Kept, Package};
use serde::{Deserialize, Serialize};
use sq_vcs::{ObjectId, ObjectStore, Sha256, Tree};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

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

/// The Algorithm-1 hashes of every target in a snapshot. A clone is a
/// pointer copy.
#[derive(Clone, Default)]
pub struct TargetHashes {
    /// The graph hashed, which names the targets.
    graph: BuildGraph,
    /// Per position of `graph`.
    hashes: Arc<[TargetHash]>,
}

impl PartialEq for TargetHashes {
    /// Equal iff both hash the same targets to the same hashes.
    fn eq(&self, other: &TargetHashes) -> bool {
        if self.graph.ptr_eq(&other.graph) {
            return self.hashes == other.hashes;
        }
        self.hashes.len() == other.hashes.len() && self.iter().eq(other.iter())
    }
}

impl Eq for TargetHashes {}

impl fmt::Debug for TargetHashes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Absorb one field with a domain tag and a length prefix, keeping the
/// overall byte stream uniquely decodable.
fn feed(h: &mut Sha256, tag: &[u8], bytes: &[u8]) {
    h.update(tag);
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

/// Append one field as [`feed`] absorbs it, its bytes given in parts,
/// so that several small fields reach the hash in one update.
fn field(out: &mut Vec<u8>, tag: &[u8], parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    out.extend_from_slice(tag);
    out.extend_from_slice(&(len as u64).to_le_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
}

/// A label in its `Display` form, `//package:name`, in parts.
fn label(name: &TargetName) -> [&[u8]; 4] {
    [
        b"//",
        name.package().as_bytes(),
        b":",
        name.short_name().as_bytes(),
    ]
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
fn absorb(target: &Target, tree: &Tree, store: &ObjectStore) -> Result<Sha256, BuildError> {
    let mut head = Vec::new();
    field(&mut head, b"kind", &[target.kind.rule_name().as_bytes()]);
    field(&mut head, b"name", &label(&target.name));
    let mut h = Sha256::new();
    h.update(&head);
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

/// What the root directory keeps of the last hash of its graph: enough
/// to tell, per target, whether its inputs are the ones its hash was
/// finalized from.
pub(crate) struct Hashed {
    /// Per position, the state after kind, label and sources that the
    /// target's hash was finalized from.
    states: Vec<Sha256>,
    hashes: TargetHashes,
}

/// What the package directories of a tree keep for a graph's targets.
struct KeptStates<'a> {
    /// Per position, the state after sources of every package whose
    /// source blobs are all in the store.
    states: Vec<Option<&'a Sha256>>,
    /// Each package that keeps no states yet, with its positions.
    unkept: Vec<(Range<usize>, &'a Package)>,
}

/// What `packages`, each with the positions of its targets, keep for a
/// graph of `len` targets.
fn kept_states<'a>(
    packages: impl Iterator<Item = (Range<usize>, &'a Package)>,
    len: usize,
    store: &ObjectStore,
) -> KeptStates<'a> {
    let mut states = vec![None; len];
    let mut unkept = Vec::new();
    for (run, p) in packages {
        match p.sources.get() {
            None => unkept.push((run, p)),
            Some(s) if s.blobs.iter().all(|b| store.contains(b)) => {
                for (at, state) in states[run].iter_mut().zip(&s.states) {
                    *at = Some(state);
                }
            }
            // A blob is gone: hashing from the sources names it.
            Some(_) => {}
        }
    }
    KeptStates { states, unkept }
}

/// Per position of `targets`, the position of the same name in `was`;
/// both are in name order.
fn positions_by_name(targets: &[Target], was: &[Target]) -> Vec<Option<usize>> {
    let mut j = 0;
    targets
        .iter()
        .map(|t| {
            while j < was.len() && was[j].name < t.name {
                j += 1;
            }
            (j < was.len() && was[j].name == t.name).then_some(j)
        })
        .collect()
}

impl TargetHashes {
    /// Compute every target's hash over a snapshot (Algorithm 1).
    ///
    /// Fails if a declared source is absent from the tree or its blob is
    /// absent from the store — a hash over unknown content would not be
    /// hermetic.
    ///
    /// For the graph [`crate::parse_workspace`] kept on the tree's root,
    /// each package directory keeps its targets' states after their
    /// sources, so a later call over a tree sharing the directory absorbs
    /// no source there. The root keeps the hashes, and a later call over
    /// the same tree or one written from it applies the early cutoff: a
    /// target whose state after sources, dependency labels and dependency
    /// hashes are the ones a kept hash was finalized from takes that hash
    /// without finalizing.
    pub fn compute(
        graph: &BuildGraph,
        tree: &Tree,
        store: &ObjectStore,
    ) -> Result<TargetHashes, BuildError> {
        let targets = graph.targets().as_slice();
        // The root's workspace if it holds this graph.
        let root = tree.root_slot();
        let here = root.get::<Kept>().and_then(|k| k.workspace_of(graph));
        // A graph the root does not keep, such as a hand-built one, may
        // declare other targets than the packages do: it is hashed from
        // its sources.
        let packages = here.into_iter().flat_map(|w| w.packages());
        let KeptStates { states, unkept } = kept_states(packages, targets.len(), store);
        // The last hash kept on this tree's root, or else on the root of
        // the tree it was written from. Its graph may be another, whose
        // targets are then found by name.
        let stale = root.stale::<Kept>();
        let last = root
            .get::<Kept>()
            .and_then(Kept::hashed)
            .or_else(|| stale.as_deref()?.hashed());
        let moved = last
            .filter(|last| !last.hashes.graph.ptr_eq(graph))
            .map(|last| positions_by_name(targets, last.hashes.graph.targets().as_slice()));
        let was_at = |i: usize| match &moved {
            None => Some(i),
            Some(moved) => moved[i],
        };
        let mut absorbed: Vec<Option<Sha256>> = vec![None; targets.len()];
        let mut hashes = vec![TargetHash([0; 32]); targets.len()];
        // One target's dependency fields.
        let mut fed = Vec::new();
        for &i in graph.topo_positions() {
            let i = i as usize;
            let state = match states[i] {
                Some(state) => state,
                None => absorbed[i].insert(absorb(&targets[i], tree, store)?),
            };
            // The topological order put every dependency's hash in place.
            let deps = graph.deps_of(i);
            // The early cutoff: the same state, dependency labels and
            // dependency hashes as the kept hash was finalized from.
            let kept = last.and_then(|last| {
                let j = was_at(i)?;
                let was = &last.hashes;
                let same = last.states[j] == *state
                    && (moved.is_none()
                        || targets[i].deps == was.graph.targets().as_slice()[j].deps)
                    && deps.iter().all(|&d| {
                        was_at(d as usize).is_some_and(|e| hashes[d as usize] == was.hashes[e])
                    });
                same.then(|| was.hashes[j])
            });
            if let Some(kept) = kept {
                hashes[i] = kept;
                continue;
            }
            fed.clear();
            for &d in deps {
                let d = d as usize;
                field(&mut fed, b"dep", &label(&targets[d].name));
                field(&mut fed, b"dep-hash", &[hashes[d].as_bytes()]);
            }
            let mut h = state.clone();
            h.update(&fed);
            crate::work::target_finalized();
            hashes[i] = TargetHash(h.finalize());
        }
        let hashes = TargetHashes {
            graph: graph.clone(),
            hashes: hashes.into(),
        };
        if let Some(workspace) = here {
            workspace.hashed.get_or_init(|| Hashed {
                states: states
                    .iter()
                    .zip(&absorbed)
                    .map(|(kept, absorbed)| {
                        kept.or(absorbed.as_ref())
                            .expect("every target has a state")
                            .clone()
                    })
                    .collect(),
                hashes: hashes.clone(),
            });
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
        Ok(hashes)
    }

    /// The hash of one target, if it exists in the snapshot.
    pub fn get(&self, name: &TargetName) -> Option<TargetHash> {
        self.graph.position(name).map(|i| self.hashes[i])
    }

    /// Iterate `(name, hash)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&TargetName, TargetHash)> {
        self.graph.names().zip(self.hashes.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_workspace;
    use crate::work::Work;
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

    /// The work of one analysis of `tree`, which must equal the analysis
    /// of its cold twin: the same order and the same hashes.
    fn counted(tree: &Tree, store: &mut ObjectStore) -> Work {
        crate::work::take();
        let kept = SnapshotAnalysis::analyze(tree, store).unwrap();
        let work = crate::work::take();
        let cold = SnapshotAnalysis::analyze(&cold(tree, store), store).unwrap();
        assert!(kept.graph.topo_order().eq(cold.graph.topo_order()));
        assert_eq!(kept.hashes, cold.hashes);
        crate::work::take();
        work
    }

    fn work(parsed: usize, absorbed: usize, finalized: usize, graphs: usize) -> Work {
        Work {
            parsed,
            absorbed,
            finalized,
            graphs,
        }
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
        // Three BUILD files, five sources over four targets.
        assert_eq!(counted(&h, &mut store), work(3, 5, 4, 1));
        // A source edit in `mid`: its three sources, no BUILD file, and
        // `top`'s hash changes from its kept state.
        let edited = write(&h, &mut store, "mid/n.rs", "n, edited");
        assert_eq!(counted(&edited, &mut store), work(0, 3, 3, 0));
        let rewritten = write(
            &h,
            &mut store,
            "mid/BUILD",
            "library(name = \"mid\", srcs = [\"m.rs\"], deps = [\"//base\"])",
        );
        // Its rewrite: one BUILD file, one graph, and the two targets
        // whose inputs changed, found by name in the last graph.
        assert_eq!(counted(&rewritten, &mut store), work(1, 1, 2, 1));
        assert_eq!(counted(&h, &mut store), work(0, 0, 0, 0));
    }

    #[test]
    fn the_early_cutoff_finalizes_only_targets_whose_inputs_changed() {
        let (h, mut store) = workspace("base-v1");
        // Four BUILD files, four sources, four targets, one graph.
        assert_eq!(counted(&h, &mut store), work(4, 4, 4, 1));
        // `other` stands alone: its own hash, and nothing depends on it.
        let other = write(&h, &mut store, "other/o.rs", "other-v2");
        assert_eq!(counted(&other, &mut store), work(0, 1, 1, 0));
        // `base`'s new hash reaches `mid`, and `mid`'s reaches `top`.
        let base = write(&h, &mut store, "base/b.rs", "base-v2");
        assert_eq!(counted(&base, &mut store), work(0, 1, 3, 0));
        // A second edit, derived from the first: the same three again.
        let again = write(&base, &mut store, "base/b.rs", "base-v3");
        assert_eq!(counted(&again, &mut store), work(0, 1, 3, 0));
        // A BUILD rewrite builds a new graph; the kept hashes of the old
        // one are found by name, and only the rewired target finalizes.
        let rewired = write(
            &h,
            &mut store,
            "other/BUILD",
            "library(name = \"other\", srcs = [\"o.rs\"], deps = [\"//base:base\"])",
        );
        assert_eq!(counted(&rewired, &mut store), work(1, 1, 1, 1));
        // The same tree again: every value as it was kept.
        assert_eq!(counted(&h, &mut store), work(0, 0, 0, 0));
        assert_eq!(counted(&rewired, &mut store), work(0, 0, 0, 0));
    }

    #[test]
    fn a_root_package_and_the_whole_tree_share_the_root_slot() {
        let (h, mut store) = workspace("base-v1");
        let h = write(&h, &mut store, "cfg", "root config");
        let h = write(
            &h,
            &mut store,
            "BUILD",
            "config(name = \"root\", srcs = [\"cfg\"], deps = [\"//top\"])",
        );
        assert_eq!(counted(&h, &mut store), work(5, 5, 5, 1));
        // Every write goes through the root, whose package is re-absorbed;
        // its hash and the graph are reused.
        let other = write(&h, &mut store, "other/o.rs", "other-v2");
        assert_eq!(counted(&other, &mut store), work(0, 2, 1, 0));
        // `base`'s new hash reaches the root target through `top`.
        let base = write(&h, &mut store, "base/b.rs", "base-v2");
        assert_eq!(counted(&base, &mut store), work(0, 2, 4, 0));
        let cfg = write(&h, &mut store, "cfg", "root config v2");
        assert_eq!(counted(&cfg, &mut store), work(0, 1, 1, 0));
        assert_eq!(counted(&h, &mut store), work(0, 0, 0, 0));
    }

    #[test]
    fn what_a_root_package_keeps_dies_with_its_tree() {
        let (h, mut store) = workspace("base-v1");
        let h = write(&h, &mut store, "cfg", "root config");
        let h = write(
            &h,
            &mut store,
            "BUILD",
            "config(name = \"root\", srcs = [\"cfg\"])",
        );
        SnapshotAnalysis::analyze(&h, &store).unwrap();
        let child = write(&h, &mut store, "cfg", "root config v2");
        assert!(child.root_slot().stale::<Kept>().is_some());
        // The root keeps its own package among the tree's: no cycle holds
        // it once the tree is gone.
        drop(h);
        assert!(child.root_slot().stale::<Kept>().is_none());
    }

    #[test]
    fn a_hand_built_graph_reuses_a_kept_hash_only_where_its_inputs_match() {
        let (h, mut store) = workspace("base-v1");
        let analysis = SnapshotAnalysis::analyze(&h, &store).unwrap();
        // The same targets in a graph of their own: hashed from their
        // sources, as no package keeps states for a graph the root does
        // not keep, and every hash is found by name, so none finalizes.
        let twin = BuildGraph::from_targets(analysis.graph.targets().cloned()).unwrap();
        crate::work::take();
        assert_eq!(
            TargetHashes::compute(&twin, &h, &store).unwrap(),
            analysis.hashes
        );
        assert_eq!(crate::work::take(), work(0, 4, 0, 0));
        // `mid` reads `base`'s source instead: its state and `top`'s
        // dependency hash differ, so those two finalize.
        let unlike = BuildGraph::from_targets(analysis.graph.targets().cloned().map(|mut t| {
            if t.name == n("//mid:mid") {
                t.srcs = vec![RepoPath::new("base/b.rs").unwrap()];
            }
            t
        }))
        .unwrap();
        let over_kept = TargetHashes::compute(&unlike, &h, &store).unwrap();
        assert_eq!(crate::work::take(), work(0, 4, 2, 0));
        let cold = cold(&h, &mut store);
        assert_eq!(
            over_kept,
            TargetHashes::compute(&unlike, &cold, &store).unwrap()
        );
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
