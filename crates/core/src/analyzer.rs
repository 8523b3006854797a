//! The conflict analyzer and the conflict graph (paper Section 5).
//!
//! The analyzer answers "do changes Cᵢ and Cⱼ conflict?"; the graph
//! accumulates those answers over the pending set so the speculation
//! engine can (1) trim the speculation space and (2) find independent
//! changes that commit in parallel.
//!
//! Two analyzer backends:
//! * [`IndexedAnalyzer`] — the simulation backend: conflicts are the
//!   workload's part-overlap relation
//!   ([`ChangeSpec::potentially_conflicts`] is the reference), served
//!   through the incremental [`ConflictIndex`]: each change's part set
//!   is interned into a bitset once and every pairwise query is a
//!   word-wise AND. With the analyzer *disabled* it reports every pair
//!   as conflicting, which reproduces the Section 4 "assume all pending
//!   changes conflict" regime that Figure 13 ablates against.
//! * [`RealAnalyzer`] — the full Section 5.2 pipeline over a materialized
//!   repository: textual merge check, fast-path name intersection, and
//!   the union-graph algorithm. The base snapshot is analyzed **once**
//!   per trunk and each change's side analysis, interned affected set,
//!   and touched-path bitset are cached until the trunk advances or the
//!   change is rebased — the pairwise hot path never re-materializes a
//!   target set.

use crate::fasthash::FastMap;
use crate::index::{ConflictIndex, IndexStats, TrunkHash};
use sq_build::conflict::{changes_conflict, union_graph_conflict, ConflictVerdict};
use sq_build::{AffectedSet, BitSet, InternedAffected, Interner, SnapshotAnalysis, TargetName};
use sq_vcs::{ObjectStore, Patch, RepoPath, Tree};
use sq_workload::{ChangeId, ChangeSpec};
use std::collections::{BTreeSet, HashMap};

/// A backend that decides whether two changes conflict.
pub trait ConflictAnalyzer {
    /// True iff the two changes must be serialized (cannot commit in
    /// parallel, and speculation about one affects the other).
    fn conflicts(&mut self, a: &ChangeSpec, b: &ChangeSpec) -> bool;
}

/// The part-overlap relation served through the incremental
/// [`ConflictIndex`]: bitset intersection instead of the quadratic part
/// scan, with per-change memoization.
///
/// Decision-for-decision identical to
/// [`ChangeSpec::potentially_conflicts`] — a part bitset intersects iff
/// the part lists overlap. Part ids are already dense
/// (`PartId(u32)`), so no interner is needed, and a part set does not
/// depend on the mainline snapshot, so the trunk key is a constant: only
/// [`IndexedAnalyzer::forget`] (resolution) ever invalidates an entry.
#[derive(Debug, Clone)]
pub struct IndexedAnalyzer {
    enabled: bool,
    index: ConflictIndex,
}

impl IndexedAnalyzer {
    /// An index-backed analyzer detecting independence via part overlap.
    pub fn new() -> Self {
        IndexedAnalyzer {
            enabled: true,
            index: ConflictIndex::new(TrunkHash(0)),
        }
    }

    /// The Figure 13 ablation: analyzer off ⇒ every pair conflicts (the
    /// index is never consulted).
    pub fn disabled() -> Self {
        IndexedAnalyzer {
            enabled: false,
            index: ConflictIndex::new(TrunkHash(0)),
        }
    }

    /// Drop a resolved change's cached bitset.
    pub fn forget(&mut self, id: ChangeId) {
        self.index.forget(id);
    }

    /// The underlying index (for stats export).
    pub fn index(&self) -> &ConflictIndex {
        &self.index
    }

    fn ensure(&mut self, spec: &ChangeSpec) {
        self.index
            .ensure_with(spec.id, || spec.parts.iter().map(|p| p.0).collect());
    }
}

impl Default for IndexedAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl ConflictAnalyzer for IndexedAnalyzer {
    fn conflicts(&mut self, a: &ChangeSpec, b: &ChangeSpec) -> bool {
        if !self.enabled {
            return true;
        }
        // Empty part sets cannot overlap anything: decide before touching
        // the index (the statistical analog of the fast-path empty-set
        // short-circuit in `sq-build`).
        if a.parts.is_empty() || b.parts.is_empty() {
            return false;
        }
        self.ensure(a);
        self.ensure(b);
        self.index.pair_conflict(a.id, b.id)
    }
}

/// Everything cached about one registered change, valid for the current
/// base snapshot until the change is rebased or the trunk advances.
struct RealEntry {
    /// The analyzed side snapshot (base ⊕ change).
    analysis: SnapshotAnalysis,
    /// δ(H⊕C) with names interned to bitset ids.
    affected: InternedAffected,
    /// The patch's *op* paths, interned: two changes can only conflict
    /// textually if these bitsets intersect (`merge_patches` fails only
    /// on a shared op path).
    op_paths: BitSet,
    /// §5.2 fast-path eligibility of this side alone: same graph
    /// structure as base and no BUILD file touched.
    keeps_graph: bool,
}

/// The full build-system-backed analyzer over concrete patches.
///
/// Incremental: the base snapshot is parsed and hashed once per trunk
/// ([`RealAnalyzer::advance_base`] starts a new trunk), each change's
/// [`RealEntry`] is computed once on first query and invalidated only by
/// re-[`RealAnalyzer::register`] (rebase) or [`RealAnalyzer::forget`]
/// (resolution). Pairwise queries then tier exactly as
/// [`changes_conflict`] does, over cached analyses:
///
/// * overlapping op-path bitsets → the full tiered check (textual merge
///   semantics are only reachable here);
/// * both sides keep the graph → interned fast path (state disagreement
///   as a word-wise AND + state probe);
/// * otherwise → the union-graph walk over the cached analyses.
pub struct RealAnalyzer {
    base_tree: Tree,
    store: ObjectStore,
    /// `None` = not yet analyzed; `Some(None)` = base itself is broken
    /// (every pair is conservatively conflicting).
    base: Option<Option<SnapshotAnalysis>>,
    names: Interner<TargetName>,
    paths: Interner<RepoPath>,
    patches: HashMap<ChangeId, Patch>,
    /// `Some(None)` = the change's snapshot failed to apply or analyze
    /// (conservatively conflicting, like the pre-index error path).
    entries: HashMap<ChangeId, Option<RealEntry>>,
    cache: HashMap<(ChangeId, ChangeId), bool>,
    stats: IndexStats,
}

impl RealAnalyzer {
    /// Create over a base snapshot; patches are registered per change.
    pub fn new(base_tree: Tree, store: ObjectStore) -> Self {
        RealAnalyzer {
            base_tree,
            store,
            base: None,
            names: Interner::new(),
            paths: Interner::new(),
            patches: HashMap::new(),
            entries: HashMap::new(),
            cache: HashMap::new(),
            stats: IndexStats::default(),
        }
    }

    /// Register the concrete patch of a change. Re-registering an id is a
    /// rebase: the cached entry and every verdict involving it are
    /// invalidated.
    pub fn register(&mut self, id: ChangeId, patch: Patch) {
        self.patches.insert(id, patch);
        self.entries.remove(&id);
        self.cache.retain(|(a, b), _| *a != id && *b != id);
    }

    /// Advance to a new base snapshot (the trunk moved): every cached
    /// entry and verdict is relative to the old trunk and is dropped.
    /// Registered patches survive — they recompute lazily against the
    /// new base.
    pub fn advance_base(&mut self, base_tree: Tree, store: ObjectStore) {
        self.base_tree = base_tree;
        self.store = store;
        self.base = None;
        self.entries.clear();
        self.cache.clear();
    }

    /// Drop a change's patch and cached verdicts (it resolved).
    pub fn forget(&mut self, id: ChangeId) {
        self.patches.remove(&id);
        self.entries.remove(&id);
        self.cache.retain(|(a, b), _| *a != id && *b != id);
    }

    /// Cache-hit/miss and pairs-checked counters.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    fn ensure_base(&mut self) {
        if self.base.is_none() {
            self.base = Some(SnapshotAnalysis::analyze(&self.base_tree, &self.store).ok());
        }
    }

    fn ensure_entry(&mut self, id: ChangeId) {
        if self.entries.contains_key(&id) {
            self.stats.cache_hits += 1;
            return;
        }
        self.stats.cache_misses += 1;
        let base = self.base.as_ref().and_then(|b| b.as_ref());
        let entry = compute_entry(
            &self.base_tree,
            &mut self.store,
            base,
            self.patches.get(&id),
            &mut self.names,
            &mut self.paths,
        );
        self.entries.insert(id, entry);
    }

    /// Verdict with full detail (textual vs. target conflict), from the
    /// cached analyses. `None` iff either patch is unregistered.
    pub fn verdict(&mut self, a: ChangeId, b: ChangeId) -> Option<ConflictVerdict> {
        if !self.patches.contains_key(&a) || !self.patches.contains_key(&b) {
            return None;
        }
        self.ensure_base();
        self.ensure_entry(a);
        self.ensure_entry(b);
        let (Some(Some(ea)), Some(Some(eb))) = (self.entries.get(&a), self.entries.get(&b)) else {
            // A side snapshot failed to apply or analyze — the same
            // condition the tiered check reports as an error, treated
            // conservatively.
            return Some(ConflictVerdict::TextualConflict);
        };
        if self.base.as_ref().is_none_or(|b| b.is_none()) {
            return Some(ConflictVerdict::TextualConflict);
        }
        if ea.op_paths.intersects(&eb.op_paths) {
            // Only here can a textual conflict exist; fall back to the
            // full tiered check (rare: same-file concurrent edits).
            let pa = self.patches.get(&a).expect("checked above").clone();
            let pb = self.patches.get(&b).expect("checked above").clone();
            return Some(
                changes_conflict(&self.base_tree, &mut self.store, &pa, &pb)
                    .unwrap_or(ConflictVerdict::TextualConflict),
            );
        }
        let conflict = if ea.keeps_graph && eb.keeps_graph {
            ea.affected.shared_disagreement(&eb.affected)
        } else {
            let base = self
                .base
                .as_ref()
                .and_then(|b| b.as_ref())
                .expect("checked above");
            union_graph_conflict(base, &ea.analysis, &eb.analysis)
        };
        Some(if conflict {
            ConflictVerdict::TargetConflict
        } else {
            ConflictVerdict::Independent
        })
    }
}

/// Build one change's cached entry; `None` on any failure (conservative).
fn compute_entry(
    base_tree: &Tree,
    store: &mut ObjectStore,
    base: Option<&SnapshotAnalysis>,
    patch: Option<&Patch>,
    names: &mut Interner<TargetName>,
    paths: &mut Interner<RepoPath>,
) -> Option<RealEntry> {
    let patch = patch?;
    let base = base?;
    let tree = patch.apply(base_tree, store).ok()?;
    let analysis = SnapshotAnalysis::analyze(&tree, store).ok()?;
    let affected_set = AffectedSet::between(base, &analysis);
    let affected = InternedAffected::from_affected(&affected_set, names);
    let changed = base.tree.changed_paths(&analysis.tree);
    let keeps_graph =
        base.same_graph_structure(&analysis) && changed.iter().all(|p| p.file_name() != "BUILD");
    let mut op_paths = BitSet::new();
    for p in patch.paths() {
        op_paths.insert(paths.intern(p));
    }
    Some(RealEntry {
        analysis,
        affected,
        op_paths,
        keeps_graph,
    })
}

impl ConflictAnalyzer for RealAnalyzer {
    fn conflicts(&mut self, a: &ChangeSpec, b: &ChangeSpec) -> bool {
        let key = if a.id.0 <= b.id.0 {
            (a.id, b.id)
        } else {
            (b.id, a.id)
        };
        if let Some(&v) = self.cache.get(&key) {
            return v;
        }
        self.stats.pairs_checked += 1;
        // Unregistered patches are treated as conflicting (conservative:
        // never parallel-commit something we cannot analyze).
        let v = self
            .verdict(key.0, key.1)
            .is_none_or(|verdict| verdict.is_conflict());
        self.cache.insert(key, v);
        v
    }
}

/// The conflict graph over the current pending set.
///
/// Nodes are pending changes; an edge means "must serialize". The graph
/// is maintained incrementally: one analyzer query per (new change ×
/// pending change) on admission, removal on resolution.
#[derive(Debug, Clone, Default)]
pub struct ConflictGraph {
    adj: FastMap<ChangeId, BTreeSet<ChangeId>>,
}

impl ConflictGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admit a change, querying `analyzer` against every tracked change.
    pub fn admit<A: ConflictAnalyzer>(
        &mut self,
        change: &ChangeSpec,
        pending: &[&ChangeSpec],
        analyzer: &mut A,
    ) {
        let mut edges = BTreeSet::new();
        for other in pending {
            if other.id == change.id || !self.adj.contains_key(&other.id) {
                continue;
            }
            if analyzer.conflicts(change, other) {
                edges.insert(other.id);
            }
        }
        for e in &edges {
            self.adj
                .get_mut(e)
                .expect("edge endpoint tracked")
                .insert(change.id);
        }
        self.adj.insert(change.id, edges);
    }

    /// Remove a resolved change.
    pub fn remove(&mut self, id: ChangeId) {
        if let Some(edges) = self.adj.remove(&id) {
            for e in edges {
                if let Some(set) = self.adj.get_mut(&e) {
                    set.remove(&id);
                }
            }
        }
    }

    /// All conflicting neighbours of `id`.
    pub fn neighbors(&self, id: ChangeId) -> impl Iterator<Item = ChangeId> + '_ {
        self.adj.get(&id).into_iter().flatten().copied()
    }

    /// `D_i`: the conflicting neighbours submitted *before* `id`
    /// (submission order = id order). This is the set the speculation
    /// engine's outcome patterns range over.
    pub fn earlier_conflicts(&self, id: ChangeId) -> Vec<ChangeId> {
        self.adj
            .get(&id)
            .map(|set| set.iter().copied().filter(|e| *e < id).collect())
            .unwrap_or_default()
    }

    /// True iff `D_i` is non-empty, without building it.
    pub fn has_earlier_conflicts(&self, id: ChangeId) -> bool {
        self.adj
            .get(&id)
            .is_some_and(|set| set.first().is_some_and(|e| *e < id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_workload::{WorkloadBuilder, WorkloadParams};

    fn workload(n: usize) -> sq_workload::Workload {
        WorkloadBuilder::new(WorkloadParams::ios())
            .seed(9)
            .n_changes(n)
            .build()
            .unwrap()
    }

    #[test]
    fn graph_admission_builds_edges_both_ways() {
        let w = workload(50);
        let mut analyzer = IndexedAnalyzer::disabled(); // full clique
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&sq_workload::ChangeSpec> = Vec::new();
        for c in &w.changes[..5] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        // K5: every change neighbours the other four, i of them earlier.
        for (i, c) in w.changes[..5].iter().enumerate() {
            assert_eq!(g.neighbors(c.id).count(), 4);
            assert_eq!(g.earlier_conflicts(c.id).len(), i);
        }
        // Symmetry: the first change sees the last as a (later) neighbour.
        assert!(g.neighbors(w.changes[0].id).any(|n| n == w.changes[4].id));
    }

    #[test]
    fn graph_removal_cleans_both_endpoints() {
        let w = workload(10);
        let mut analyzer = IndexedAnalyzer::disabled();
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&sq_workload::ChangeSpec> = Vec::new();
        for c in &w.changes[..3] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        g.remove(w.changes[1].id);
        // The removed change has no neighbours and is nobody's.
        assert_eq!(g.neighbors(w.changes[1].id).count(), 0);
        assert!(g.earlier_conflicts(w.changes[1].id).is_empty());
        let left: Vec<ChangeId> = g.neighbors(w.changes[0].id).collect();
        assert_eq!(left, vec![w.changes[2].id]);
        assert_eq!(g.earlier_conflicts(w.changes[2].id), vec![w.changes[0].id]);
    }

    #[test]
    fn independence_reflects_analyzer() {
        let w = workload(200);
        let mut analyzer = IndexedAnalyzer::new();
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&sq_workload::ChangeSpec> = Vec::new();
        for c in &w.changes[..20] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        for i in 0..20 {
            for j in (i + 1)..20 {
                let (a, b) = (&w.changes[i], &w.changes[j]);
                let conflict = a.potentially_conflicts(b);
                assert_eq!(g.neighbors(a.id).any(|n| n == b.id), conflict, "({i}, {j})");
                assert_eq!(
                    g.earlier_conflicts(b.id).contains(&a.id),
                    conflict,
                    "({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn has_earlier_conflicts_agrees_with_the_list() {
        let w = workload(200);
        let mut analyzer = IndexedAnalyzer::new();
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&sq_workload::ChangeSpec> = Vec::new();
        for c in &w.changes[..40] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        // Removing early changes leaves some with later neighbours only.
        for c in &w.changes[..10] {
            g.remove(c.id);
        }
        let (mut with, mut without) = (0, 0);
        for c in &w.changes[..40] {
            let listed = !g.earlier_conflicts(c.id).is_empty();
            assert_eq!(g.has_earlier_conflicts(c.id), listed, "change {}", c.id.0);
            if listed {
                with += 1;
            } else {
                without += 1;
            }
        }
        assert!(with > 0 && without > 10, "{with} with, {without} without");
    }

    #[test]
    fn real_analyzer_full_stack() {
        use sq_workload::repo_model::MaterializedRepo;
        let mut params = WorkloadParams::ios();
        params.n_parts = 10;
        let m = MaterializedRepo::generate(&params).unwrap();
        let w = WorkloadBuilder::new(params)
            .seed(3)
            .n_changes(30)
            .build()
            .unwrap();
        let tree = m.repo.head_tree().unwrap();
        let mut analyzer = RealAnalyzer::new(tree, m.repo.store().clone());
        for c in &w.changes {
            analyzer.register(c.id, m.patch_for(c));
        }
        // Cross-check against the statistical relation on a sample: part
        // overlap must imply a real-analyzer conflict (same package ⇒
        // same targets), and the analyzer result must be symmetric.
        for i in 0..10 {
            for j in (i + 1)..10 {
                let (a, b) = (&w.changes[i], &w.changes[j]);
                let v1 = analyzer.conflicts(a, b);
                let v2 = analyzer.conflicts(b, a);
                assert_eq!(v1, v2);
                if a.potentially_conflicts(b) {
                    assert!(v1, "same-part changes must conflict ({i}, {j})");
                }
            }
        }
        // Forgetting drops the cache and patch.
        analyzer.forget(w.changes[0].id);
        assert!(analyzer.verdict(w.changes[0].id, w.changes[1].id).is_none());
    }

    #[test]
    fn indexed_analyzer_is_decision_identical_to_statistical() {
        let w = workload(300);
        let mut indexed = IndexedAnalyzer::new();
        let mut off = IndexedAnalyzer::disabled();
        let n = 40;
        let mut conflicting = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (&w.changes[i], &w.changes[j]);
                assert_eq!(
                    indexed.conflicts(a, b),
                    a.potentially_conflicts(b),
                    "pair ({i}, {j})"
                );
                assert!(off.conflicts(a, b), "disabled conflicts everything");
                conflicting += usize::from(a.potentially_conflicts(b));
            }
        }
        // Sanity: the relation is neither empty nor total.
        assert!(0 < conflicting && conflicting < n * (n - 1) / 2);
        let s = indexed.index().stats();
        // Each change's bitset is computed at most once...
        assert!(s.cache_misses <= n as u64);
        // ...and every later query over the window is served from cache.
        assert!(s.cache_hits > s.cache_misses);
        assert!(s.pairs_checked <= (n * (n - 1) / 2) as u64);
        // The ablation never touches the index at all.
        assert_eq!(off.index().stats().pairs_checked, 0);
        assert_eq!(off.index().stats().cache_misses, 0);
        // Forgetting a resolved change invalidates its entry only.
        indexed.forget(w.changes[0].id);
        assert!(indexed.index().bits(w.changes[1].id).is_some());
        assert!(indexed.index().bits(w.changes[0].id).is_none());
    }

    #[test]
    fn real_analyzer_matches_the_uncached_tiered_check() {
        use sq_build::conflict::changes_conflict;
        use sq_workload::repo_model::MaterializedRepo;
        let mut params = WorkloadParams::ios();
        params.n_parts = 8;
        let m = MaterializedRepo::generate(&params).unwrap();
        let w = WorkloadBuilder::new(params)
            .seed(11)
            .n_changes(16)
            .build()
            .unwrap();
        let tree = m.repo.head_tree().unwrap();
        let mut analyzer = RealAnalyzer::new(tree.clone(), m.repo.store().clone());
        for c in &w.changes {
            analyzer.register(c.id, m.patch_for(c));
        }
        // The cached, tiered decision must agree verdict-for-verdict with
        // a from-scratch `changes_conflict` on every pair.
        let mut fresh_store = m.repo.store().clone();
        for i in 0..w.changes.len() {
            for j in (i + 1)..w.changes.len() {
                let (a, b) = (&w.changes[i], &w.changes[j]);
                let uncached =
                    changes_conflict(&tree, &mut fresh_store, &m.patch_for(a), &m.patch_for(b))
                        .map(|v| v.is_conflict())
                        .unwrap_or(true);
                assert_eq!(
                    analyzer.conflicts(a, b),
                    uncached,
                    "pair ({i}, {j}) diverged from the uncached pipeline"
                );
            }
        }
        // The base was analyzed once; every change entry computed once.
        let s = *analyzer.stats();
        assert!(s.cache_misses <= w.changes.len() as u64);
        assert!(s.cache_hits > 0);
        // A trunk advance drops everything; queries still work (and
        // recompute) against the new base.
        analyzer.advance_base(tree, m.repo.store().clone());
        let before = analyzer.stats().cache_misses;
        assert!(analyzer.verdict(w.changes[0].id, w.changes[1].id).is_some());
        assert!(analyzer.stats().cache_misses > before, "entries recomputed");
        // Re-registering (a rebase) invalidates the pair verdicts of that
        // change but keeps the others' entries usable.
        analyzer.register(w.changes[0].id, m.patch_for(&w.changes[0]));
        assert!(analyzer.verdict(w.changes[0].id, w.changes[1].id).is_some());
    }
}
