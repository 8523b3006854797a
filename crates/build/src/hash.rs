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
use crate::parser::{holds, mark_of, Workspace};
use serde::{Deserialize, Serialize};
use sq_vcs::{Mark, ObjectId, ObjectStore, Sha256, Tree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
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
    /// Where these hashes differ from the ones of the same graph they were
    /// derived from, if any.
    cone: Option<Arc<Cone>>,
}

/// The positions whose hash differs from `from`'s.
struct Cone {
    from: Arc<[TargetHash]>,
    /// In the order the walk finalized them.
    changed: Vec<u32>,
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

/// Start a target's hash: its kind, its label, then each source's path
/// and content. Appends each source's blob to `blobs`.
fn absorb(
    target: &Target,
    tree: &Tree,
    store: &ObjectStore,
    blobs: &mut Vec<ObjectId>,
) -> Result<Sha256, BuildError> {
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
        crate::work::looked_up(1);
        let content = store
            .get(&id)
            .ok_or_else(|| BuildError::MissingObject(id.to_hex()))?;
        feed(&mut h, b"src", src.as_str().as_bytes());
        feed(&mut h, b"blob", content.as_ref());
        blobs.push(id);
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
    /// Taken over every source blob the states absorbed.
    mark: Mark,
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
    /// the root keeps the hashes, so a later call over the same tree
    /// hashes nothing. A call over a tree written from one that keeps its
    /// hashes re-finalizes only the cone of the write: the targets of the
    /// packages whose directory changed are absorbed again, and a target
    /// is visited, in topological order, only if it is one of those or a
    /// dependency's hash moved. A visited target whose state after
    /// sources, dependency labels and dependency hashes are the ones its
    /// kept hash was finalized from takes that hash without finalizing
    /// (the early cutoff). Kept states are used only while the store
    /// provably holds the blobs they absorbed; otherwise every target is
    /// absorbed from the store, as by a call from nothing.
    pub fn compute(
        graph: &BuildGraph,
        tree: &Tree,
        store: &ObjectStore,
    ) -> Result<TargetHashes, BuildError> {
        let targets = graph.targets().as_slice();
        let n = targets.len();
        let root = tree.root_slot();
        let kept = root.get::<Workspace>();
        // The root's workspace if it holds this graph. A graph the root
        // does not keep, such as a hand-built one, may declare other
        // targets than the packages do: it is hashed from its sources.
        let here = kept.filter(|w| w.graph.ptr_eq(graph));
        let own = kept.and_then(|w| w.hashed.get());
        if let Some(hashed) = own.filter(|h| here.is_some() && holds(store, &h.mark)) {
            return Ok(hashed.hashes.clone());
        }
        // The last hash kept on this tree's root, or else on the root of
        // the tree it was written from. Its graph may be another, whose
        // targets are then found by name.
        let stale = root.stale::<Workspace>();
        let last = own.or_else(|| stale.as_deref()?.hashed.get());
        // The packages whose directory the write changed, if the last
        // hash is the stale root's and the store holds what it absorbed.
        let fresh = match (here, own, last) {
            (Some(w), None, Some(last)) if holds(store, &last.mark) => {
                w.fresh.as_deref().map(|fresh| (fresh, last))
            }
            _ => None,
        };
        let moved = last
            .filter(|last| !last.hashes.graph.ptr_eq(graph))
            .map(|last| positions_by_name(targets, last.hashes.graph.targets().as_slice()));
        let was_at = |i: usize| match &moved {
            None => Some(i),
            Some(moved) => moved[i],
        };
        let kept_hash = |i: usize| Some(last?.hashes.hashes[was_at(i)?]);
        // The seeds: every target, or those of the changed packages and
        // those the last hash has no counterpart for.
        let mut seed: Vec<bool> = (0..n)
            .map(|i| fresh.is_none() || kept_hash(i).is_none())
            .collect();
        for run in fresh.map_or(&[][..], |(fresh, _)| fresh) {
            seed[run.clone()].fill(true);
        }
        let mut hashes: Vec<TargetHash> = (0..n)
            .map(|i| kept_hash(i).unwrap_or(TargetHash([0; 32])))
            .collect();
        let mut states: Vec<Sha256> = (0..n)
            .map(|i| match (seed[i], fresh) {
                (false, Some((_, last))) => last.states[was_at(i).expect("kept")].clone(),
                // Absorbed when the walk reaches it.
                _ => Sha256::new(),
            })
            .collect();
        let mut queued = seed.clone();
        let mut ready: BinaryHeap<Reverse<u32>> = (0..n)
            .filter(|&i| seed[i])
            .map(|i| Reverse(graph.rank_of(i)))
            .collect();
        let mut blobs = Vec::new();
        let mut changed = Vec::new();
        // One target's dependency fields.
        let mut fed = Vec::new();
        while let Some(Reverse(rank)) = ready.pop() {
            let i = graph.topo_positions()[rank as usize] as usize;
            crate::work::target_compared();
            if seed[i] {
                states[i] = absorb(&targets[i], tree, store, &mut blobs)?;
            }
            // The topological order put every dependency's hash in place.
            let deps = graph.deps_of(i);
            // The early cutoff: the same state, dependency labels and
            // dependency hashes as the kept hash was finalized from.
            let same = last.zip(was_at(i)).is_some_and(|(last, j)| {
                let was = &last.hashes;
                last.states[j] == states[i]
                    && (moved.is_none()
                        || targets[i].deps == was.graph.targets().as_slice()[j].deps)
                    && deps.iter().all(|&d| {
                        was_at(d as usize).is_some_and(|e| hashes[d as usize] == was.hashes[e])
                    })
            });
            if same {
                continue;
            }
            fed.clear();
            for &d in deps {
                let d = d as usize;
                field(&mut fed, b"dep", &label(&targets[d].name));
                field(&mut fed, b"dep-hash", &[hashes[d].as_bytes()]);
            }
            let mut h = states[i].clone();
            h.update(&fed);
            crate::work::target_finalized();
            hashes[i] = TargetHash(h.finalize());
            if Some(hashes[i]) == kept_hash(i) {
                continue;
            }
            changed.push(i as u32);
            for &j in graph.dependents_of(i) {
                if !std::mem::replace(&mut queued[j as usize], true) {
                    ready.push(Reverse(graph.rank_of(j as usize)));
                }
            }
        }
        let hashes = TargetHashes {
            graph: graph.clone(),
            hashes: hashes.into(),
            cone: last.filter(|_| moved.is_none()).map(|last| {
                let from = Arc::clone(&last.hashes.hashes);
                Arc::new(Cone { from, changed })
            }),
        };
        if let Some(workspace) = here {
            workspace.hashed.get_or_init(|| Hashed {
                // The last hash's mark covers what the seeds did not absorb.
                mark: match fresh {
                    Some((_, last)) => mark_of(store, last.mark.loose().iter().chain(&blobs)),
                    None => mark_of(store, &blobs),
                },
                states,
                hashes: hashes.clone(),
            });
        }
        Ok(hashes)
    }

    /// The targets whose hash differs from `base`'s, in the order found,
    /// if these hashes were derived from `base`'s over the same graph.
    pub(crate) fn changed_from<'a>(
        &'a self,
        base: &TargetHashes,
    ) -> Option<impl Iterator<Item = (&'a TargetName, TargetHash)> + 'a> {
        let cone = self.cone.as_ref().filter(|cone| {
            self.graph.ptr_eq(&base.graph) && Arc::ptr_eq(&cone.from, &base.hashes)
        })?;
        let targets = self.graph.targets().as_slice();
        Some(cone.changed.iter().map(move |&i| {
            let i = i as usize;
            (&targets[i].name, self.hashes[i])
        }))
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
    use crate::{AffectedSet, SnapshotAnalysis};
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

    /// `packages` packages under `parts/`, in chains of four: each but a
    /// chain's first depends on the one before it.
    fn chains(packages: usize) -> (Tree, ObjectStore) {
        let mut files = Vec::new();
        for k in 0..packages {
            let deps = match k % 4 {
                0 => String::new(),
                _ => format!("\"//parts/p{:04}\"", k - 1),
            };
            let build = format!(
                "library(name = \"p{k:04}\", srcs = [\"a.rs\", \"b.rs\"], deps = [{deps}])"
            );
            files.push((format!("parts/p{k:04}/BUILD"), build));
            for src in ["a.rs", "b.rs"] {
                files.push((format!("parts/p{k:04}/{src}"), format!("{k} {src}")));
            }
        }
        let files: Vec<(&str, &str)> = files
            .iter()
            .map(|(p, c)| (p.as_str(), c.as_str()))
            .collect();
        self::files(&files)
    }

    #[test]
    fn an_edit_costs_what_its_cone_costs_at_any_size() {
        let mut at_size = Vec::new();
        for packages in [30, 300] {
            let (h, mut store) = chains(packages);
            SnapshotAnalysis::analyze(&h, &store).unwrap();
            let mut costs = Vec::new();
            // A chain's last package, whose cone is its own target, and a
            // chain's first, whose cone holds its three dependents too.
            for (edit, cone) in [("parts/p0003/a.rs", 1), ("parts/p0004/a.rs", 4)] {
                let edited = write(&h, &mut store, edit, "edited");
                crate::work::take();
                crate::work::take_looked();
                // The served path's two calls and the affected set.
                let base = SnapshotAnalysis::analyze(&h, &store).unwrap();
                let new = SnapshotAnalysis::analyze(&edited, &store).unwrap();
                let delta = AffectedSet::between(&base, &new);
                let (work, looked) = (crate::work::take(), crate::work::take_looked());
                assert_eq!((work.finalized, delta.len()), (cone, cone), "{edit}");
                // One package, the cone, and the two sources read and marked.
                let looked_at = (looked.visited, looked.compared, looked.looked_up);
                assert_eq!(looked_at, (1, cone, 4), "{edit}");
                let cold = SnapshotAnalysis::analyze(&cold(&edited, &mut store), &store).unwrap();
                assert_eq!(new.hashes, cold.hashes);
                assert_eq!(delta, AffectedSet::between(&base, &cold));
                costs.push((work, looked));
            }
            at_size.push(costs);
        }
        assert_eq!(at_size[0], at_size[1]);
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
        assert!(child.root_slot().stale::<Workspace>().is_some());
        // The root keeps its own package among the tree's: no cycle holds
        // it once the tree is gone.
        drop(h);
        assert!(child.root_slot().stale::<Workspace>().is_none());
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
