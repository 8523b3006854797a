//! The speculation engine (paper Section 4 + Section 7.1).
//!
//! For each pending change `Cᵢ`, let `Dᵢ` be the set of *earlier pending
//! conflicting* changes (from the conflict graph). Any build of `Cᵢ`
//! assumes an outcome pattern over `Dᵢ`: a subset `S ⊆ Dᵢ` assumed to
//! commit (the rest assumed to abort), giving build `B_{S∪{i}}` of
//! `H ⊕ S ⊕ Cᵢ`. The build is *needed* iff the pattern matches reality,
//! so with per-change commit probabilities `p_d`:
//!
//! ```text
//! P_needed(B_{S∪{i}}) = Π_{d∈S} p_d · Π_{d∈Dᵢ∖S} (1 − p_d)        (Eqs. 1–3, 5)
//! ```
//!
//! Commit probabilities fold in conflicts per Equation 4 — pairwise the
//! paper writes `P(B_{1.2} succ | B₁ succ) = P_succ(C₂) − P_conf(C₁,C₂)`
//! — generalized *multiplicatively* over the expected committed prefix:
//!
//! ```text
//! p_i = P_succ(Cᵢ) · Π_{d∈Dᵢ} (1 − p_d · P_conf(Cd, Cᵢ))
//! ```
//!
//! which agrees with Equation 4 to first order for a single predecessor
//! but stays calibrated for long conflict chains, where the additive form
//! collapses to zero and would flip every deep pattern to "all abort"
//! (each factor is the probability of surviving one independently-
//! committing conflicter). Computed in submission order (`Dᵢ` only
//! contains earlier changes, so the recurrence is well-founded).
//! Cross-correlations between members of `Dᵢ` that conflict with each
//! other are ignored, as in the paper's speculation-graph approximation.
//!
//! Build *selection* is the paper's greedy best-first (Section 7.1):
//! because `P_needed` can only shrink as patterns deviate from the most
//! likely outcome, the top-K builds are enumerated lazily — per change, a
//! binary-heap walk over "flip sets" (the classic best-first subset
//! enumeration: flip coordinates in decreasing probability-ratio order,
//! children = extend-or-advance the last flip), merged across changes by
//! a global heap. Space is O(flips emitted), never 2ⁿ.

use crate::analyzer::ConflictGraph;
use crate::fasthash::FastMap;
use crate::predict::{Predictor, Roster, SpeculationCounters};
use sq_workload::{ChangeId, ChangeSpec};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// A build in the speculation graph: `B_{assumed ∪ {subject}}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BuildKey {
    /// The change this build gates.
    pub subject: ChangeId,
    /// Earlier conflicting changes assumed committed, sorted ascending.
    /// Everything in `D_subject` not listed is assumed aborted.
    pub assumed: Vec<ChangeId>,
}

impl std::fmt::Display for BuildKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B[")?;
        for a in &self.assumed {
            write!(f, "{}.", a.0)?;
        }
        write!(f, "{}]", self.subject.0)
    }
}

/// A selected build with its value (`V = B · P_needed`, benefit B = 1).
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedBuild {
    /// The build.
    pub key: BuildKey,
    /// `P_needed` under the current probability estimates.
    pub value: f64,
}

/// The speculation engine: stateless functions over the pending set.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpeculationEngine;

impl SpeculationEngine {
    /// Commit probabilities for the pending set, in submission order.
    ///
    /// `pending` must be sorted by id (submission order); `roster` names
    /// their developers; `counters` holds the dynamic speculation counts;
    /// `fixed` holds, per pending change, the specs of the earlier
    /// conflicting changes *already committed* — their conflict mass
    /// applies with certainty (the change is built on top of them).
    pub fn commit_probabilities<P: Predictor + ?Sized>(
        roster: &dyn Roster,
        pending: &[&ChangeSpec],
        graph: &ConflictGraph,
        predictor: &P,
        counters: &HashMap<ChangeId, SpeculationCounters>,
        fixed: &HashMap<ChangeId, Vec<&ChangeSpec>>,
    ) -> HashMap<ChangeId, f64> {
        let by_id: FastMap<ChangeId, &ChangeSpec> = pending.iter().map(|c| (c.id, *c)).collect();
        let mut p_commit: HashMap<ChangeId, f64> = HashMap::with_capacity(pending.len());
        for c in pending {
            let k = counters.get(&c.id).copied().unwrap_or_default();
            let p_succ = predictor.p_success(roster, c, k);
            let mut survive = 1.0;
            for d in graph.earlier_conflicts(c.id) {
                let Some(dc) = by_id.get(&d) else { continue };
                let pd = p_commit.get(&d).copied().unwrap_or(0.0);
                survive *= 1.0 - pd * predictor.p_conflict(roster, dc, c);
            }
            // Already-committed conflicts contribute with probability 1.
            if let Some(fixed_prefix) = fixed.get(&c.id) {
                for e in fixed_prefix {
                    survive *= 1.0 - predictor.p_conflict(roster, e, c);
                }
            }
            p_commit.insert(c.id, (p_succ * survive).clamp(0.0, 1.0));
        }
        p_commit
    }

    /// Select up to `budget` builds with the highest `P_needed`, in
    /// non-increasing value order. Zero-value builds are never emitted.
    pub fn select_builds<P: Predictor>(
        roster: &dyn Roster,
        pending: &[&ChangeSpec],
        graph: &ConflictGraph,
        predictor: &P,
        counters: &HashMap<ChangeId, SpeculationCounters>,
        fixed: &HashMap<ChangeId, Vec<&ChangeSpec>>,
        budget: usize,
    ) -> Vec<PlannedBuild> {
        Self::select_builds_configured(
            roster,
            pending,
            graph,
            predictor,
            counters,
            fixed,
            budget,
            |_| 1.0,
            |_| usize::MAX,
        )
    }

    /// The selector behind [`Self::select_builds`], with a per-change
    /// *benefit* multiplier and a per-change pattern cap.
    ///
    /// `V = B(subject) · P_needed` (paper Section 4.2.1 — "builds for
    /// certain projects or with certain priority (e.g., security
    /// patches) can have higher values, which in turn will be favored by
    /// SubmitQueue. Alternatively, we may assign different quotas to
    /// different teams"). Benefits must be positive and finite.
    ///
    /// `pattern_cap(c)` bounds how many outcome patterns of change `c`
    /// may enter the plan: `usize::MAX` is the paper's unbounded
    /// speculation, `1` admits only the single most-likely pattern (lean
    /// skipping), and `0` removes the change from engine selection
    /// entirely (bypass lanes schedule it out of band). Capping never
    /// changes the order or value of the patterns that *are* emitted.
    #[allow(clippy::too_many_arguments)]
    pub fn select_builds_configured<P, B, K>(
        roster: &dyn Roster,
        pending: &[&ChangeSpec],
        graph: &ConflictGraph,
        predictor: &P,
        counters: &HashMap<ChangeId, SpeculationCounters>,
        fixed: &HashMap<ChangeId, Vec<&ChangeSpec>>,
        budget: usize,
        benefit: B,
        pattern_cap: K,
    ) -> Vec<PlannedBuild>
    where
        P: Predictor + ?Sized,
        B: Fn(ChangeId) -> f64,
        K: Fn(ChangeId) -> usize,
    {
        let p_commit =
            Self::commit_probabilities(roster, pending, graph, predictor, counters, fixed);
        // One lazy pattern generator per pending change, plus how many
        // more patterns it may still emit.
        let mut generators: FastMap<ChangeId, (PatternGen, usize)> = FastMap::default();
        let mut global: BinaryHeap<Frontier> = BinaryHeap::new();
        for c in pending {
            let cap = pattern_cap(c.id);
            if cap == 0 {
                continue;
            }
            let b = benefit(c.id);
            debug_assert!(b.is_finite() && b > 0.0, "benefit must be positive");
            let d_i = graph.earlier_conflicts(c.id);
            let mut g = PatternGen::new(c.id, &d_i, &p_commit);
            if let Some(first) = g.next_pattern() {
                global.push(Frontier {
                    value: first.value * b,
                    key: first.key,
                });
                generators.insert(c.id, (g, cap - 1));
            }
        }
        let mut out = Vec::with_capacity(budget.min(64));
        while out.len() < budget {
            let Some(Frontier { value, key }) = global.pop() else {
                break;
            };
            if value <= 0.0 {
                break; // heap is value-ordered: everything below is zero
            }
            let subject = key.subject;
            out.push(PlannedBuild { key, value });
            if let Some((g, remaining)) = generators.get_mut(&subject) {
                if *remaining > 0 {
                    if let Some(next) = g.next_pattern() {
                        *remaining -= 1;
                        global.push(Frontier {
                            value: next.value * benefit(subject),
                            key: next.key,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Global frontier entry ordered by value (max-heap), tie-broken by key
/// for determinism.
#[derive(Debug, Clone)]
struct Frontier {
    value: f64,
    key: BuildKey,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Frontier {}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value
            .total_cmp(&other.value)
            .then_with(|| other.key.cmp(&self.key))
    }
}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One coordinate of a pattern: an earlier conflicting change with its
/// more-likely outcome and the cost ratio of flipping it.
#[derive(Debug, Clone)]
struct Coord {
    id: ChangeId,
    /// The likely outcome: true = commit.
    base_commit: bool,
    /// `min(p, 1−p) / max(p, 1−p)` — multiplying the pattern value by
    /// this flips the coordinate. Always in [0, 1].
    flip_ratio: f64,
}

/// Lazy best-first enumeration of outcome patterns for one change.
#[derive(Debug)]
struct PatternGen {
    subject: ChangeId,
    coords: Vec<Coord>,
    base_value: f64,
    heap: BinaryHeap<PatternNode>,
    started: bool,
}

#[derive(Debug, Clone)]
struct PatternNode {
    value: f64,
    /// Indices into `coords` that are flipped, ascending; the best-first
    /// children rule (extend last / advance last) enumerates every flip
    /// set exactly once.
    flips: Vec<usize>,
}

impl PartialEq for PatternNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for PatternNode {}
impl Ord for PatternNode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value
            .total_cmp(&other.value)
            .then_with(|| other.flips.cmp(&self.flips))
    }
}
impl PartialOrd for PatternNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PatternGen {
    fn new(subject: ChangeId, d_i: &[ChangeId], p_commit: &HashMap<ChangeId, f64>) -> Self {
        let mut base_value = 1.0;
        let mut coords: Vec<Coord> = d_i
            .iter()
            .map(|&d| {
                let p = p_commit.get(&d).copied().unwrap_or(0.5).clamp(0.0, 1.0);
                let base_commit = p >= 0.5;
                let p_base = if base_commit { p } else { 1.0 - p };
                base_value *= p_base;
                Coord {
                    id: d,
                    base_commit,
                    flip_ratio: if p_base > 0.0 {
                        (1.0 - p_base) / p_base
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        // Cheapest flips first (largest ratio) makes child values
        // monotone non-increasing under extend/advance.
        coords.sort_by(|a, b| {
            b.flip_ratio
                .total_cmp(&a.flip_ratio)
                .then_with(|| a.id.cmp(&b.id))
        });
        PatternGen {
            subject,
            coords,
            base_value,
            heap: BinaryHeap::new(),
            started: false,
        }
    }

    fn key_for(&self, flips: &[usize]) -> BuildKey {
        let mut assumed: Vec<ChangeId> = Vec::new();
        for (i, c) in self.coords.iter().enumerate() {
            let flipped = flips.contains(&i);
            if c.base_commit != flipped {
                assumed.push(c.id);
            }
        }
        assumed.sort_unstable();
        BuildKey {
            subject: self.subject,
            assumed,
        }
    }

    fn next_pattern(&mut self) -> Option<PlannedBuild> {
        if !self.started {
            self.started = true;
            self.heap.push(PatternNode {
                value: self.base_value,
                flips: Vec::new(),
            });
        }
        let node = self.heap.pop()?;
        // Children: extend with the next coordinate after the last flip,
        // or advance the last flip by one.
        let last = node.flips.last().copied();
        let next_idx = last.map_or(0, |l| l + 1);
        if next_idx < self.coords.len() {
            // Extend.
            let mut flips = node.flips.clone();
            flips.push(next_idx);
            self.heap.push(PatternNode {
                value: node.value * self.coords[next_idx].flip_ratio,
                flips,
            });
            // Advance.
            if let Some(l) = last {
                let mut flips = node.flips.clone();
                *flips.last_mut().expect("non-empty") = next_idx;
                let ratio_l = self.coords[l].flip_ratio;
                let advanced = if ratio_l > 0.0 {
                    node.value / ratio_l * self.coords[next_idx].flip_ratio
                } else {
                    0.0
                };
                self.heap.push(PatternNode {
                    value: advanced,
                    flips,
                });
            }
        }
        Some(PlannedBuild {
            key: self.key_for(&node.flips),
            value: node.value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{ConflictAnalyzer, ConflictGraph};
    use crate::predict::{OraclePredictor, UniformPredictor};
    use sq_workload::{Workload, WorkloadBuilder, WorkloadParams};

    /// Analyzer scripted from an explicit edge list.
    struct Scripted(Vec<(u64, u64)>);
    impl ConflictAnalyzer for Scripted {
        fn conflicts(&mut self, a: &ChangeSpec, b: &ChangeSpec) -> bool {
            let (x, y) = (a.id.0.min(b.id.0), a.id.0.max(b.id.0));
            self.0.contains(&(x, y))
        }
    }

    fn workload(n: usize) -> Workload {
        WorkloadBuilder::new(WorkloadParams::ios())
            .seed(21)
            .n_changes(n)
            .build()
            .unwrap()
    }

    fn graph_with(w: &Workload, n: usize, edges: &[(u64, u64)]) -> ConflictGraph {
        let mut analyzer = Scripted(edges.to_vec());
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&ChangeSpec> = Vec::new();
        for c in &w.changes[..n] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        g
    }

    fn key(subject: u64, assumed: &[u64]) -> BuildKey {
        BuildKey {
            subject: ChangeId(subject),
            assumed: assumed.iter().map(|&a| ChangeId(a)).collect(),
        }
    }

    #[test]
    fn figure5_speculation_tree_all_conflicting() {
        // Three mutually conflicting changes + 50/50 odds ⇒ the full
        // 2³−1 = 7-build speculation tree of Figure 5.
        let w = workload(3);
        let g = graph_with(&w, 3, &[(0, 1), (0, 2), (1, 2)]);
        let pending: Vec<&ChangeSpec> = w.changes[..3].iter().collect();
        let builds = SpeculationEngine::select_builds(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            100,
        );
        let keys: std::collections::HashSet<BuildKey> =
            builds.iter().map(|b| b.key.clone()).collect();
        let expected = [
            key(0, &[]),
            key(1, &[]),
            key(1, &[0]),
            key(2, &[]),
            key(2, &[0]),
            key(2, &[1]),
            key(2, &[0, 1]),
        ];
        assert_eq!(keys.len(), 7);
        for e in &expected {
            assert!(keys.contains(e), "missing {e}");
        }
    }

    #[test]
    fn figure6_graph_trims_c2_builds() {
        // C1 ⊥ C2; both conflict with C3 ⇒ 6 builds (B1, B2, and four
        // for C3), exactly the Figure 6 speculation graph.
        let w = workload(3);
        let g = graph_with(&w, 3, &[(0, 2), (1, 2)]);
        let pending: Vec<&ChangeSpec> = w.changes[..3].iter().collect();
        let builds = SpeculationEngine::select_builds(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            100,
        );
        assert_eq!(builds.len(), 6);
        let keys: std::collections::HashSet<BuildKey> =
            builds.iter().map(|b| b.key.clone()).collect();
        assert!(keys.contains(&key(0, &[])));
        assert!(keys.contains(&key(1, &[]))); // C2 independent: one build
        for e in [key(2, &[]), key(2, &[0]), key(2, &[1]), key(2, &[0, 1])] {
            assert!(keys.contains(&e), "missing {e}");
        }
    }

    #[test]
    fn figure7_graph_five_builds() {
        // C1 conflicts with C2 and C3; C2 ⊥ C3 ⇒ 5 builds (paper: "the
        // total number of possible builds decreases from seven to five").
        let w = workload(3);
        let g = graph_with(&w, 3, &[(0, 1), (0, 2)]);
        let pending: Vec<&ChangeSpec> = w.changes[..3].iter().collect();
        let builds = SpeculationEngine::select_builds(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            100,
        );
        assert_eq!(builds.len(), 5);
        let keys: std::collections::HashSet<BuildKey> =
            builds.iter().map(|b| b.key.clone()).collect();
        for e in [
            key(0, &[]),
            key(1, &[]),
            key(1, &[0]),
            key(2, &[]),
            key(2, &[0]),
        ] {
            assert!(keys.contains(&e), "missing {e}");
        }
    }

    #[test]
    fn values_are_non_increasing_and_probabilities() {
        let w = workload(12);
        let mut analyzer = crate::analyzer::IndexedAnalyzer::disabled();
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&ChangeSpec> = Vec::new();
        for c in &w.changes[..12] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        let builds = SpeculationEngine::select_builds(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            50,
        );
        assert_eq!(builds.len(), 50);
        for pair in builds.windows(2) {
            assert!(pair[0].value >= pair[1].value);
        }
        for b in &builds {
            assert!(b.value > 0.0 && b.value <= 1.0);
        }
    }

    #[test]
    fn pattern_probabilities_sum_to_one_per_change() {
        // All 2^|D| patterns of one change partition the outcome space.
        let w = workload(6);
        let g = graph_with(&w, 6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
        let pending: Vec<&ChangeSpec> = w.changes[..6].iter().collect();
        let builds = SpeculationEngine::select_builds(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            1000,
        );
        let total: f64 = builds
            .iter()
            .filter(|b| b.key.subject == ChangeId(5))
            .map(|b| b.value)
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
        // And the change has exactly 2^5 patterns.
        assert_eq!(
            builds
                .iter()
                .filter(|b| b.key.subject == ChangeId(5))
                .count(),
            32
        );
    }

    #[test]
    fn oracle_emits_only_the_realized_path() {
        // With 0/1 probabilities every change has exactly one nonzero
        // pattern — the n needed builds out of 2ⁿ−1 (Section 4.1).
        let w = workload(10);
        let mut analyzer = crate::analyzer::IndexedAnalyzer::disabled();
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&ChangeSpec> = Vec::new();
        for c in &w.changes[..10] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        let oracle = OraclePredictor::new(&w);
        let builds = SpeculationEngine::select_builds(
            &w,
            &pending,
            &g,
            &oracle,
            &HashMap::new(),
            &HashMap::new(),
            10_000,
        );
        assert_eq!(builds.len(), 10, "one build per change");
        for b in &builds {
            assert!((b.value - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn commit_probabilities_fold_in_conflicts() {
        let w = workload(2);
        let mut g = graph_with(&w, 2, &[(0, 1)]);
        let pending: Vec<&ChangeSpec> = w.changes[..2].iter().collect();
        let p = SpeculationEngine::commit_probabilities(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
        );
        // p0 = 0.5; p1 = 0.5 · (1 − 0.5·0.5) = 0.375 (Equation 4 shape,
        // multiplicative generalization).
        assert!((p[&ChangeId(0)] - 0.5).abs() < 1e-12);
        assert!((p[&ChangeId(1)] - 0.375).abs() < 1e-12);
        // C0 has committed: C1 is built on top of it, so its conflict
        // mass applies with certainty — p1 = 0.5 · (1 − 0.5) = 0.25.
        g.remove(ChangeId(0));
        let fixed = HashMap::from([(ChangeId(1), vec![&w.changes[0]])]);
        let p = SpeculationEngine::commit_probabilities(
            &w,
            &pending[1..],
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &fixed,
        );
        assert!((p[&ChangeId(1)] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn budget_caps_selection() {
        let w = workload(20);
        let mut analyzer = crate::analyzer::IndexedAnalyzer::disabled();
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&ChangeSpec> = Vec::new();
        for c in &w.changes[..20] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        let builds = SpeculationEngine::select_builds(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            7,
        );
        assert_eq!(builds.len(), 7);
    }

    #[test]
    fn build_key_displays_assumed_then_subject() {
        assert_eq!(key(9, &[2, 5]).to_string(), "B[2.5.9]");
    }

    #[test]
    fn selection_is_deterministic() {
        let w = workload(15);
        let mut analyzer = crate::analyzer::IndexedAnalyzer::new();
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&ChangeSpec> = Vec::new();
        for c in &w.changes[..15] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        let run = || {
            SpeculationEngine::select_builds(
                &w,
                &pending,
                &g,
                &UniformPredictor,
                &HashMap::new(),
                &HashMap::new(),
                25,
            )
        };
        let b1 = run();
        let b2 = run();
        assert_eq!(b1.len(), b2.len());
        for (x, y) in b1.iter().zip(&b2) {
            assert_eq!(x.key, y.key);
        }
    }

    #[test]
    fn pattern_enumeration_matches_brute_force_ordering() {
        // The lazy extend-or-advance walk must emit every subset exactly
        // once, in non-increasing probability order, for arbitrary
        // (non-uniform) commit probabilities.
        let probs = [0.9, 0.7, 0.55, 0.2, 0.31];
        let ids: Vec<ChangeId> = (0..probs.len() as u64).map(ChangeId).collect();
        let p_commit: HashMap<ChangeId, f64> =
            ids.iter().copied().zip(probs.iter().copied()).collect();
        let subject = ChangeId(99);
        let mut gen = PatternGen::new(subject, &ids, &p_commit);
        let mut emitted: Vec<(Vec<ChangeId>, f64)> = Vec::new();
        while let Some(pb) = gen.next_pattern() {
            emitted.push((pb.key.assumed, pb.value));
        }
        // Exactly 2^5 distinct patterns.
        assert_eq!(emitted.len(), 32);
        let distinct: std::collections::HashSet<&Vec<ChangeId>> =
            emitted.iter().map(|(k, _)| k).collect();
        assert_eq!(distinct.len(), 32);
        // Non-increasing values.
        for pair in emitted.windows(2) {
            assert!(
                pair[0].1 >= pair[1].1 - 1e-12,
                "order violated: {} then {}",
                pair[0].1,
                pair[1].1
            );
        }
        // Values match the brute-force probability of each pattern.
        for (assumed, value) in &emitted {
            let expected: f64 = ids
                .iter()
                .zip(&probs)
                .map(|(id, &p)| if assumed.contains(id) { p } else { 1.0 - p })
                .product();
            assert!(
                (value - expected).abs() < 1e-12,
                "pattern {assumed:?}: {value} vs {expected}"
            );
        }
        // Total probability mass is 1.
        let total: f64 = emitted.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn benefit_weighting_prioritizes_security_patches() {
        // Three mutually conflicting changes; the *last* one is a
        // security patch with 10× benefit. Unweighted, its builds rank
        // below the earlier changes'; weighted, its most likely build
        // jumps the queue (paper §4.2.1 priorities).
        let w = workload(3);
        let g = graph_with(&w, 3, &[(0, 1), (0, 2), (1, 2)]);
        let pending: Vec<&ChangeSpec> = w.changes[..3].iter().collect();
        let security = ChangeId(2);
        let plain = SpeculationEngine::select_builds(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            3,
        );
        let weighted = SpeculationEngine::select_builds_configured(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            3,
            |id| if id == security { 10.0 } else { 1.0 },
            |_| usize::MAX,
        );
        // Unweighted top-3 contains no build for C2 (its best pattern is
        // worth 0.3125 = P(C0 commits)·P(C1 aborts), below C0/C1's
        // builds; p1 = 0.5·(1 − 0.5·0.5) = 0.375).
        assert!(plain.iter().all(|b| b.key.subject != security));
        // Weighted: C2's builds lead the plan.
        assert_eq!(weighted[0].key.subject, security);
        assert!((weighted[0].value - 3.125).abs() < 1e-9); // 10 × 0.3125
    }

    #[test]
    fn pattern_cap_one_keeps_only_the_most_likely_pattern() {
        // Three mutually conflicting changes; capping C2 at one pattern
        // keeps exactly its best build while C0/C1 speculate freely.
        let w = workload(3);
        let g = graph_with(&w, 3, &[(0, 1), (0, 2), (1, 2)]);
        let pending: Vec<&ChangeSpec> = w.changes[..3].iter().collect();
        let capped = ChangeId(2);
        let builds = SpeculationEngine::select_builds_configured(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            100,
            |_| 1.0,
            |id| if id == capped { 1 } else { usize::MAX },
        );
        let uncapped = SpeculationEngine::select_builds(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            100,
        );
        assert_eq!(builds.iter().filter(|b| b.key.subject == capped).count(), 1);
        let best_capped = builds.iter().find(|b| b.key.subject == capped).unwrap();
        let best_uncapped = uncapped.iter().find(|b| b.key.subject == capped).unwrap();
        assert_eq!(best_capped.key, best_uncapped.key, "cap keeps the best");
        // Everything else is untouched.
        let others = |v: &[PlannedBuild]| {
            v.iter()
                .filter(|b| b.key.subject != capped)
                .map(|b| b.key.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(others(&builds), others(&uncapped));
    }

    #[test]
    fn pattern_cap_zero_removes_the_change_from_selection() {
        let w = workload(3);
        let g = graph_with(&w, 3, &[(0, 1), (0, 2), (1, 2)]);
        let pending: Vec<&ChangeSpec> = w.changes[..3].iter().collect();
        let builds = SpeculationEngine::select_builds_configured(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            100,
            |_| 1.0,
            |id| if id == ChangeId(1) { 0 } else { usize::MAX },
        );
        assert!(builds.iter().all(|b| b.key.subject != ChangeId(1)));
        assert!(builds.iter().any(|b| b.key.subject == ChangeId(0)));
        assert!(builds.iter().any(|b| b.key.subject == ChangeId(2)));
    }

    #[test]
    fn unbounded_cap_matches_unweighted_selection() {
        let w = workload(12);
        let mut analyzer = crate::analyzer::IndexedAnalyzer::new();
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&ChangeSpec> = Vec::new();
        for c in &w.changes[..12] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        let a = SpeculationEngine::select_builds(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            30,
        );
        let b = SpeculationEngine::select_builds_configured(
            &w,
            &pending,
            &g,
            &UniformPredictor,
            &HashMap::new(),
            &HashMap::new(),
            30,
            |_| 1.0,
            |_| usize::MAX,
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert!((x.value - y.value).abs() < 1e-12);
        }
    }
}
