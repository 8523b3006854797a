//! Conflict detection (paper Section 5.2, Equation 6 and Steps 1–4).
//!
//! Two changes Cᵢ, Cⱼ conflict when building them together is not the
//! same as building them apart — Equation 6:
//!
//! ```text
//! δ(H⊕Cᵢ) ∪ δ(H⊕Cⱼ) ≠ δ(H⊕Cᵢ⊕Cⱼ)
//! ```
//!
//! [`eq6_conflict`] evaluates that oracle literally, which requires
//! analyzing the *composed* snapshot — n² graph builds over a pending
//! window of n changes. The paper's production answer is the union-graph
//! algorithm ([`union_graph_conflict`], Steps 1–4): build only the n
//! per-change graphs, then decide conflicts from affected-name overlap
//! and dependency reachability across the union of the graphs. It is
//! deliberately conservative — it may report a false conflict, never a
//! false independence. Figure 8's counterexample (a change that adds a
//! dependency on a target another change touched, with disjoint affected
//! *names*) is exactly what Step 4's reachability walk exists to catch.
//!
//! When neither change alters the build graph's structure — 92.1% (iOS)
//! / 98.4% (Backend) of changes per §5.2 — [`fast_path_conflict`] decides
//! *exactly*: with the dependency structure frozen, hashes propagate
//! identically in the composed snapshot, so comparing per-target states
//! of the two affected sets is equivalent to Equation 6.

use crate::affected::{AffectedSet, AffectedState, SnapshotAnalysis};
use crate::error::BuildError;
use crate::graph::TargetName;
use sq_vcs::merge::merge_patches;
use sq_vcs::{ObjectStore, Patch, RepoPath, Tree};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Outcome of the full tiered conflict check ([`changes_conflict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictVerdict {
    /// The patches overlap textually; a plain merge already fails.
    TextualConflict,
    /// The patches merge cleanly but affect overlapping or
    /// dependency-related build targets (a semantic conflict).
    TargetConflict,
    /// The changes can land in either order with identical results.
    Independent,
}

impl ConflictVerdict {
    /// True iff the changes must be serialized.
    pub fn is_conflict(&self) -> bool {
        !matches!(self, ConflictVerdict::Independent)
    }
}

/// The Equation 6 oracle: compare the union of the two affected sets
/// against the affected set of the composed change.
///
/// Affected sets are compared as maps `target → state`: two changes that
/// touch the same target with *different* resulting hashes disagree about
/// its artifact, which is a conflict even though the name sets coincide —
/// and a composed state differing from the separate ones (Fig. 8's
/// dependency coupling) is a conflict even though the name sets are
/// disjoint.
pub fn eq6_conflict(
    base: &SnapshotAnalysis,
    a: &SnapshotAnalysis,
    b: &SnapshotAnalysis,
    ab: &SnapshotAnalysis,
) -> bool {
    let da = AffectedSet::between(base, a);
    let db = AffectedSet::between(base, b);
    let dab = AffectedSet::between(base, ab);
    // The union is only well-defined where the sides agree.
    let mut union: BTreeMap<&TargetName, AffectedState> = BTreeMap::new();
    for (name, &state) in da.iter().chain(db.iter()) {
        match union.insert(name, state) {
            Some(prev) if prev != state => return true,
            _ => {}
        }
    }
    // Compare the union against the composed delta, keys and values.
    if union.len() != dab.len() {
        return true;
    }
    let disagrees = dab
        .iter()
        .any(|(name, state)| union.get(name) != Some(state));
    disagrees
}

/// The §5.2 fast path: decide exactly, without analyzing the composed
/// snapshot, when neither change touches the build graph.
///
/// Applicable iff both changes leave the target graph structurally
/// identical to the base *and* touch no BUILD file (the second condition
/// guarantees the composed snapshot keeps the same structure too).
/// Returns `None` when not applicable. When applicable: with structure
/// frozen, a target's composed hash differs from its separate hashes only
/// if the two sides pushed *different* hashes onto a shared target — so
/// conflict ⇔ some target is affected by both sides with different
/// states. This agrees with Equation 6 exactly (tested by the
/// `conflict_equivalence_prop` suite).
pub fn fast_path_conflict(
    base: &SnapshotAnalysis,
    a: &SnapshotAnalysis,
    b: &SnapshotAnalysis,
) -> Option<bool> {
    let keeps_graph = |side: &SnapshotAnalysis| {
        base.same_graph_structure(side)
            && base
                .tree
                .changed_paths(&side.tree)
                .iter()
                .all(|p| p.file_name() != "BUILD")
    };
    if !keeps_graph(a) || !keeps_graph(b) {
        return None;
    }
    let da = AffectedSet::between(base, a);
    if da.is_empty() {
        // A no-op side cannot disagree with anything; skip materializing
        // the other side's set entirely.
        return Some(false);
    }
    let db = AffectedSet::between(base, b);
    if db.is_empty() {
        return Some(false);
    }
    let shared_disagreement = da
        .iter()
        .any(|(name, state)| db.get(name).is_some_and(|other| other != state));
    Some(shared_disagreement)
}

/// The union-graph algorithm (Steps 1–4): conservative conflict
/// detection from the two per-change analyses alone.
///
/// 1. Build each change's target graph and affected set (done by the
///    caller via [`SnapshotAnalysis::analyze`]);
/// 2. conflict if the affected-name sets intersect;
/// 3. otherwise form the union of the dependency graphs (base and both
///    sides — the composed snapshot's edges are a subset of this union);
/// 4. conflict if any affected target of one change can reach, or be
///    reached from, an affected target of the other along dependency
///    edges (Fig. 8: `z → x` makes `{z}` and `{x, y}` conflict).
///
/// Never misses an Equation 6 conflict on cleanly-merging changes; may
/// report a conflict Equation 6 would clear (the price of skipping the
/// composed analysis).
pub fn union_graph_conflict(
    base: &SnapshotAnalysis,
    a: &SnapshotAnalysis,
    b: &SnapshotAnalysis,
) -> bool {
    let da = AffectedSet::between(base, a);
    let db = AffectedSet::between(base, b);
    // Step 2: a target affected by both sides.
    if da.names_intersect(&db) {
        return true;
    }
    // A genuinely no-op side — empty delta over an unchanged tree — has
    // nothing to couple through: the composed snapshot is the other side
    // alone. Decide before materializing the name sets and the union
    // dependency maps below.
    let noop = |side: &SnapshotAnalysis, delta: &AffectedSet| {
        delta.is_empty() && base.tree.changed_paths(&side.tree).is_empty()
    };
    if noop(a, &da) || noop(b, &db) {
        return false;
    }
    let na = visible_names(base, a, b, &da);
    let nb = visible_names(base, b, a, &db);
    if na.intersection(&nb).next().is_some() {
        return true;
    }
    // Steps 3–4: dependency reachability over the union of the graphs.
    let mut deps: HashMap<&TargetName, BTreeSet<&TargetName>> = HashMap::new();
    let mut rdeps: HashMap<&TargetName, BTreeSet<&TargetName>> = HashMap::new();
    for analysis in [base, a, b] {
        for target in analysis.graph.targets() {
            for dep in &target.deps {
                deps.entry(&target.name).or_default().insert(dep);
                rdeps.entry(dep).or_default().insert(&target.name);
            }
        }
    }
    reaches(&deps, &na, &nb) || reaches(&rdeps, &na, &nb)
}

/// One side's affected names, widened with *cross-visible* targets:
/// targets declared in the base or in the other side's graph whose
/// sources intersect this side's changed files. A change can touch a file
/// its own graph never references but the other side's graph does (the
/// other side is adding it as a source); without this widening the
/// union-graph pass would be blind to that coupling.
fn visible_names<'a>(
    base: &'a SnapshotAnalysis,
    side: &'a SnapshotAnalysis,
    other: &'a SnapshotAnalysis,
    delta: &'a AffectedSet,
) -> HashSet<&'a TargetName> {
    let mut names: HashSet<&TargetName> = delta.names().collect();
    let changed: HashSet<&RepoPath> = base.tree.changed_paths(&side.tree).into_iter().collect();
    if changed.is_empty() {
        return names;
    }
    for analysis in [base, other] {
        for target in analysis.graph.targets() {
            if target.srcs.iter().any(|s| changed.contains(s)) {
                names.insert(&target.name);
            }
        }
    }
    names
}

/// True iff some member of `from` reaches some member of `to` along
/// `edges` (breadth-first; `from ∩ to` is checked by the caller).
fn reaches<'a>(
    edges: &HashMap<&'a TargetName, BTreeSet<&'a TargetName>>,
    from: &HashSet<&'a TargetName>,
    to: &HashSet<&'a TargetName>,
) -> bool {
    let mut seen: HashSet<&TargetName> = from.clone();
    let mut queue: VecDeque<&TargetName> = from.iter().copied().collect();
    while let Some(name) = queue.pop_front() {
        if let Some(next) = edges.get(name) {
            for &n in next {
                if to.contains(n) {
                    return true;
                }
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
    }
    false
}

/// The full production tiering over two concrete patches (Section 5.2 as
/// deployed): textual merge first, then the fast path, then the
/// union-graph algorithm. Never analyzes the composed snapshot.
///
/// Errors only if a *separate* snapshot fails to apply or analyze (broken
/// BUILD files, cycles); callers treat that conservatively.
pub fn changes_conflict(
    tree: &Tree,
    store: &mut ObjectStore,
    a: &Patch,
    b: &Patch,
) -> Result<ConflictVerdict, BuildError> {
    if merge_patches(tree, store, a, b).is_err() {
        return Ok(ConflictVerdict::TextualConflict);
    }
    let ta = a.apply(tree, store)?;
    let tb = b.apply(tree, store)?;
    let base = SnapshotAnalysis::analyze(tree, store)?;
    let aa = SnapshotAnalysis::analyze(&ta, store)?;
    let ab = SnapshotAnalysis::analyze(&tb, store)?;
    let conflict = match fast_path_conflict(&base, &aa, &ab) {
        Some(decided) => decided,
        None => union_graph_conflict(&base, &aa, &ab),
    };
    Ok(if conflict {
        ConflictVerdict::TargetConflict
    } else {
        ConflictVerdict::Independent
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> RepoPath {
        RepoPath::new(s).unwrap()
    }

    fn workspace(files: &[(&str, &str)]) -> (Tree, ObjectStore) {
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        for (path, content) in files {
            let id = store.put(content.as_bytes().to_vec());
            tree.insert(p(path), id).unwrap();
        }
        (tree, store)
    }

    /// Analyze base, both sides, and the composition.
    fn analyze_all(
        tree: &Tree,
        store: &mut ObjectStore,
        a: &Patch,
        b: &Patch,
    ) -> (
        SnapshotAnalysis,
        SnapshotAnalysis,
        SnapshotAnalysis,
        SnapshotAnalysis,
    ) {
        let ta = a.apply(tree, store).unwrap();
        let tb = b.apply(tree, store).unwrap();
        let tab = a.compose(b).apply(tree, store).unwrap();
        (
            SnapshotAnalysis::analyze(tree, store).unwrap(),
            SnapshotAnalysis::analyze(&ta, store).unwrap(),
            SnapshotAnalysis::analyze(&tb, store).unwrap(),
            SnapshotAnalysis::analyze(&tab, store).unwrap(),
        )
    }

    /// Figure 8: targets x, y (deps on x), z. C1 edits a source of x;
    /// C2 makes z depend on x. The affected-name sets — {x, y} and {z} —
    /// are disjoint, yet the changes conflict: composed, z's hash folds
    /// in the *edited* x, so δ(H⊕C1⊕C2) ≠ δ(H⊕C1) ∪ δ(H⊕C2).
    #[test]
    fn fig8_counterexample() {
        let (tree, mut store) = workspace(&[
            ("x/BUILD", "library(name = \"x\", srcs = [\"a.rs\"])"),
            ("x/a.rs", "x-v1"),
            (
                "y/BUILD",
                "library(name = \"y\", srcs = [\"a.rs\"], deps = [\"//x:x\"])",
            ),
            ("y/a.rs", "y-v1"),
            ("z/BUILD", "library(name = \"z\", srcs = [\"a.rs\"])"),
            ("z/a.rs", "z-v1"),
        ]);
        let c1 = Patch::write(p("x/a.rs"), "x-v2");
        let c2 = Patch::write(
            p("z/BUILD"),
            "library(name = \"z\", srcs = [\"a.rs\"], deps = [\"//x:x\"])",
        );
        let (base, a1, a2, a12) = analyze_all(&tree, &mut store, &c1, &c2);
        let d1 = AffectedSet::between(&base, &a1);
        let d2 = AffectedSet::between(&base, &a2);
        // The paper's setup: affected names are disjoint...
        assert!(!d1.names_intersect(&d2));
        // ...the fast path correctly refuses (C2 altered the graph)...
        assert_eq!(fast_path_conflict(&base, &a1, &a2), None);
        // ...and both the oracle and the union-graph walk see the
        // dependency-induced conflict.
        assert!(eq6_conflict(&base, &a1, &a2, &a12));
        assert!(union_graph_conflict(&base, &a1, &a2));
        assert!(union_graph_conflict(&base, &a2, &a1), "symmetric");
        // The tiered production check agrees.
        assert_eq!(
            changes_conflict(&tree, &mut store, &c1, &c2).unwrap(),
            ConflictVerdict::TargetConflict
        );
    }

    /// lib ← app, plus an unrelated tool package.
    fn chain_workspace() -> (Tree, ObjectStore) {
        workspace(&[
            (
                "lib/BUILD",
                "library(name = \"lib\", srcs = [\"l.rs\", \"l2.rs\"])",
            ),
            ("lib/l.rs", "lib-1"),
            ("lib/l2.rs", "lib-2"),
            (
                "app/BUILD",
                "binary(name = \"app\", srcs = [\"m.rs\"], deps = [\"//lib:lib\"])",
            ),
            ("app/m.rs", "app-1"),
            ("tool/BUILD", "library(name = \"tool\", srcs = [\"t.rs\"])"),
            ("tool/t.rs", "tool-1"),
        ])
    }

    #[test]
    fn union_graph_agrees_with_eq6_on_fixtures() {
        // (patch a, patch b, Eq. 6 verdict, union-graph verdict). The
        // union graph must be conservative everywhere; the one case where
        // it over-approximates (identical edits: same affected names,
        // fully agreeing states) is expected — it skips hash comparison.
        let cases: Vec<(Patch, Patch, bool, bool)> = vec![
            // Same target, different sources: both deltas carry //lib:lib
            // with different hashes — conflict.
            (
                Patch::write(p("lib/l.rs"), "lib-1a"),
                Patch::write(p("lib/l2.rs"), "lib-2b"),
                true,
                true,
            ),
            // Dependency-related targets: lib's edit re-hashes app.
            (
                Patch::write(p("lib/l.rs"), "lib-1a"),
                Patch::write(p("app/m.rs"), "app-1b"),
                true,
                true,
            ),
            // Unrelated packages: independent, and the union graph agrees.
            (
                Patch::write(p("lib/l.rs"), "lib-1a"),
                Patch::write(p("tool/t.rs"), "tool-1b"),
                false,
                false,
            ),
            // Identical edits: Eq. 6 clears them (the sides agree on every
            // state); name overlap still trips the conservative pass.
            (
                Patch::write(p("lib/l.rs"), "lib-same"),
                Patch::write(p("lib/l.rs"), "lib-same"),
                false,
                true,
            ),
        ];
        for (i, (ca, cb, want_exact, want_cheap)) in cases.into_iter().enumerate() {
            let (tree, mut store) = chain_workspace();
            let (base, aa, ab, aab) = analyze_all(&tree, &mut store, &ca, &cb);
            let exact = eq6_conflict(&base, &aa, &ab, &aab);
            assert_eq!(exact, want_exact, "case {i}: oracle");
            let cheap = union_graph_conflict(&base, &aa, &ab);
            assert_eq!(cheap, want_cheap, "case {i}: union graph");
            assert!(!exact || cheap, "case {i}: union graph missed a conflict");
            assert_eq!(
                cheap,
                union_graph_conflict(&base, &ab, &aa),
                "case {i}: symmetry"
            );
        }
    }

    #[test]
    fn fast_path_applies_iff_no_build_file_changes() {
        let (tree, mut store) = chain_workspace();
        // Source-only edits on both sides: eligible, and exact.
        let ca = Patch::write(p("lib/l.rs"), "lib-1a");
        let cb = Patch::write(p("tool/t.rs"), "tool-1b");
        let (base, aa, ab, aab) = analyze_all(&tree, &mut store, &ca, &cb);
        let fast = fast_path_conflict(&base, &aa, &ab);
        assert_eq!(fast, Some(false));
        assert_eq!(fast, Some(eq6_conflict(&base, &aa, &ab, &aab)));

        // Conflicting source edits: still eligible, detects the conflict.
        let (tree, mut store) = chain_workspace();
        let ca = Patch::write(p("lib/l.rs"), "lib-1a");
        let cb = Patch::write(p("lib/l2.rs"), "lib-2b");
        let (base, aa, ab, aab) = analyze_all(&tree, &mut store, &ca, &cb);
        let fast = fast_path_conflict(&base, &aa, &ab);
        assert_eq!(fast, Some(true));
        assert_eq!(fast, Some(eq6_conflict(&base, &aa, &ab, &aab)));

        // A BUILD-file change on either side disables the fast path, even
        // if it leaves the parsed structure intact (comment-only edit):
        // the *composed* structure is no longer guaranteed.
        let (tree, mut store) = chain_workspace();
        let ca = Patch::write(
            p("tool/BUILD"),
            "# note\nlibrary(name = \"tool\", srcs = [\"t.rs\"])",
        );
        let cb = Patch::write(p("lib/l.rs"), "lib-1a");
        let ta = ca.apply(&tree, &mut store).unwrap();
        let tb = cb.apply(&tree, &mut store).unwrap();
        let base = SnapshotAnalysis::analyze(&tree, &store).unwrap();
        let aa = SnapshotAnalysis::analyze(&ta, &store).unwrap();
        let ab = SnapshotAnalysis::analyze(&tb, &store).unwrap();
        assert!(
            base.same_graph_structure(&aa),
            "comment edit keeps structure"
        );
        assert_eq!(fast_path_conflict(&base, &aa, &ab), None);
        assert_eq!(fast_path_conflict(&base, &ab, &aa), None, "symmetric");
    }

    #[test]
    fn tiered_check_classifies_all_three_verdicts() {
        // Textual: same file, different content.
        let (tree, mut store) = chain_workspace();
        let v = changes_conflict(
            &tree,
            &mut store,
            &Patch::write(p("lib/l.rs"), "ours"),
            &Patch::write(p("lib/l.rs"), "theirs"),
        )
        .unwrap();
        assert_eq!(v, ConflictVerdict::TextualConflict);
        assert!(v.is_conflict());

        // Target: different files of the same target.
        let v = changes_conflict(
            &tree,
            &mut store,
            &Patch::write(p("lib/l.rs"), "ours"),
            &Patch::write(p("lib/l2.rs"), "theirs"),
        )
        .unwrap();
        assert_eq!(v, ConflictVerdict::TargetConflict);
        assert!(v.is_conflict());

        // Independent: unrelated packages.
        let v = changes_conflict(
            &tree,
            &mut store,
            &Patch::write(p("lib/l.rs"), "ours"),
            &Patch::write(p("tool/t.rs"), "theirs"),
        )
        .unwrap();
        assert_eq!(v, ConflictVerdict::Independent);
        assert!(!v.is_conflict());
    }

    #[test]
    fn broken_build_file_surfaces_as_error() {
        let (tree, mut store) = chain_workspace();
        let bad = Patch::write(p("lib/BUILD"), "library(name = ");
        let ok = Patch::write(p("tool/t.rs"), "tool-1b");
        assert!(matches!(
            changes_conflict(&tree, &mut store, &bad, &ok),
            Err(BuildError::Parse { .. })
        ));
    }
}
