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
//!
//! Both live in a `Table`: one row per pending change of a window,
//! holding its `p_i`, its conflict risk, the `P_conf` scores it asked
//! for, its pattern walk and the patterns the walk emitted so far. The
//! decision core keeps one table per planning lane across rounds and
//! marks the rows an event touched; `Table::refresh` recomputes exactly
//! those, in submission order, and a row whose `p_i` changed by so much
//! as a bit marks its later neighbours in turn. The one-shot
//! [`SpeculationEngine`] functions fill a fresh table and select once,
//! through the same code.

use crate::analyzer::ConflictGraph;
use crate::predict::{Predictor, Roster, SpeculationCounters};
use sq_workload::{ChangeId, ChangeSpec};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Deref;

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

/// The speculation engine's one-shot entry points: each fills a fresh
/// `Table` over the window it is given.
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
        let mut table = Table::window(pending, counters, fixed);
        table.refresh(roster, graph, predictor);
        table.rows.iter().map(|r| (r.id, r.p_commit)).collect()
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
    ///
    /// A key lists the change's `fixed` prefix among its assumed
    /// changes: the build is of the change on top of it.
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
        let mut table = Table::window(pending, counters, fixed);
        table.refresh(roster, graph, predictor);
        let picks = table.select(budget, |r| benefit(r.id), |r| pattern_cap(r.id));
        let planned = |p: Pick| PlannedBuild {
            key: table.key(&p).clone(),
            value: p.value,
        };
        picks.into_iter().map(planned).collect()
    }
}

/// One pending change's row of a [`Table`].
#[derive(Debug, Clone)]
pub(crate) struct Row<S> {
    id: ChangeId,
    spec: S,
    counters: SpeculationCounters,
    /// `P_succ` under `counters`, once computed.
    p_succ: Option<f64>,
    /// Committed neighbours the change is built on, in commit order:
    /// the order their conflict mass multiplies into `p_commit`.
    fixed: Vec<S>,
    /// The change on top of exactly its committed prefix.
    realized: BuildKey,
    p_commit: f64,
    /// `1 − Π (1 − P_conf(d, i))` over the row's earlier conflicts in
    /// the window: the score space of the lean skip threshold.
    risk: f64,
    /// `P_conf(d, i)` for each earlier pending or committed neighbour
    /// `d` a refresh has asked about: the predictor scores a pair once
    /// in the row's life, and the memo goes with the row.
    p_conf: Vec<(ChangeId, f64)>,
    /// `p_commit` and `risk` are out of date.
    stale: bool,
    /// `None` once the walk's inputs moved: `D_i`, a member's
    /// `p_commit`, or the committed prefix its keys include.
    walk: Option<Walk>,
}

/// A row's pattern walk and what it emitted so far: only what some
/// round consumed, with the committed prefix already in each key.
#[derive(Debug, Clone)]
struct Walk {
    gen: PatternGen,
    emitted: Vec<PlannedBuild>,
}

impl<S: Deref<Target = ChangeSpec>> Row<S> {
    fn new(spec: S, counters: SpeculationCounters) -> Self {
        let id = spec.id;
        Row {
            id,
            spec,
            counters,
            p_succ: None,
            fixed: Vec::new(),
            realized: BuildKey {
                subject: id,
                assumed: Vec::new(),
            },
            p_commit: f64::NAN,
            risk: f64::NAN,
            p_conf: Vec::new(),
            stale: true,
            walk: None,
        }
    }

    /// The change.
    pub(crate) fn id(&self) -> ChangeId {
        self.id
    }

    /// The change's spec.
    pub(crate) fn spec(&self) -> &ChangeSpec {
        &self.spec
    }

    /// Commit probability as of the last refresh.
    pub(crate) fn p_commit(&self) -> f64 {
        self.p_commit
    }

    /// Conflict risk as of the last refresh.
    pub(crate) fn risk(&self) -> f64 {
        self.risk
    }

    /// The build that decides the change against its committed prefix.
    pub(crate) fn realized(&self) -> &BuildKey {
        &self.realized
    }

    /// A build of the change assuming `assumed` on top of its committed
    /// prefix.
    pub(crate) fn key_with(&self, mut assumed: Vec<ChangeId>) -> BuildKey {
        assumed.extend_from_slice(&self.realized.assumed);
        assumed.sort_unstable();
        assumed.dedup();
        BuildKey {
            subject: self.id,
            assumed,
        }
    }

    /// Value of the `pos`-th pattern, walking on as far as needed.
    fn pattern(&mut self, pos: usize) -> Option<f64> {
        let walk = self.walk.as_mut().expect("a refreshed row has a walk");
        while walk.emitted.len() <= pos {
            let next = walk.gen.next_pattern(self.id, &self.realized.assumed)?;
            walk.emitted.push(next);
        }
        Some(walk.emitted[pos].value)
    }

    fn invalidate(&mut self) {
        self.stale = true;
        self.walk = None;
    }
}

/// The rows of one window of pending changes, in submission order.
///
/// What a row derives is kept until an input of it moves, and exactly
/// four events move one: the change arrives ([`Table::arrive`]), a build
/// finishes and moves its counters ([`Table::counted`]), a neighbour
/// resolves and leaves `D_i` ([`Table::lost_conflict`]) or commits under
/// it ([`Table::build_on`]), and — found by [`Table::refresh`] itself —
/// the `p_commit` of a member of `D_i` changes its bits.
#[derive(Debug, Clone)]
pub(crate) struct Table<S> {
    /// The rows' ids, densely, for lookups.
    ids: Vec<ChangeId>,
    rows: Vec<Row<S>>,
}

impl<S> Default for Table<S> {
    fn default() -> Self {
        Table {
            ids: Vec::new(),
            rows: Vec::new(),
        }
    }
}

/// One selected pattern: the `pos`-th of row `row`, with its value
/// `B · P_needed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pick {
    /// Index of the row in [`Table::rows`].
    pub(crate) row: usize,
    pos: usize,
    /// `B(subject) · P_needed`.
    pub(crate) value: f64,
}

impl<'a> Table<&'a ChangeSpec> {
    /// A table over `pending` (id order), every row yet to compute.
    fn window(
        pending: &[&'a ChangeSpec],
        counters: &HashMap<ChangeId, SpeculationCounters>,
        fixed: &HashMap<ChangeId, Vec<&'a ChangeSpec>>,
    ) -> Self {
        let mut table = Table::default();
        for &c in pending {
            table.arrive(c, counters.get(&c.id).copied().unwrap_or_default());
            for &e in fixed.get(&c.id).into_iter().flatten() {
                table.build_on(c.id, e);
            }
        }
        table
    }
}

impl<S: Deref<Target = ChangeSpec>> Table<S> {
    /// The rows, ascending by id.
    pub(crate) fn rows(&self) -> &[Row<S>] {
        &self.rows
    }

    /// Index of a change's row.
    pub(crate) fn position(&self, id: ChangeId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// A change's row.
    pub(crate) fn get(&self, id: ChangeId) -> Option<&Row<S>> {
        self.position(id).map(|i| &self.rows[i])
    }

    fn row_mut(&mut self, id: ChangeId) -> &mut Row<S> {
        let i = self.position(id).expect("the change has a row");
        &mut self.rows[i]
    }

    /// A change joins the window. Ids ascend, so no existing row can
    /// depend on it.
    pub(crate) fn arrive(&mut self, spec: S, counters: SpeculationCounters) {
        let row = Row::new(spec, counters);
        assert!(
            self.ids.last().is_none_or(|&id| id < row.id),
            "rows arrive in id order"
        );
        self.ids.push(row.id);
        self.rows.push(row);
    }

    /// A change leaves the window; its spec comes back.
    pub(crate) fn remove(&mut self, id: ChangeId) -> S {
        let i = self.position(id).expect("removing a row");
        self.ids.remove(i);
        self.rows.remove(i).spec
    }

    /// A finished build counts for (`ok`) or against the change.
    pub(crate) fn counted(&mut self, id: ChangeId, ok: bool) {
        let row = self.row_mut(id);
        if ok {
            row.counters.succeeded += 1;
        } else {
            row.counters.failed += 1;
        }
        row.p_succ = None;
        row.stale = true;
    }

    /// A neighbour committed: the change is built on top of it from now.
    pub(crate) fn build_on(&mut self, id: ChangeId, committed: S) {
        let row = self.row_mut(id);
        let at = row.realized.assumed.partition_point(|&a| a < committed.id);
        if row.realized.assumed.get(at) != Some(&committed.id) {
            row.realized.assumed.insert(at, committed.id);
        }
        row.fixed.push(committed);
        row.invalidate();
    }

    /// An earlier neighbour resolved and left `D_i`.
    pub(crate) fn lost_conflict(&mut self, id: ChangeId) {
        self.row_mut(id).invalidate();
    }

    /// Recompute what is out of date, in submission order, so that every
    /// `p_commit` is to the bit what a table filled from nothing holds.
    /// Members of `D_i` outside the window take part in the pattern walk
    /// at 50/50 and not in `p_commit`.
    pub(crate) fn refresh<P: Predictor + ?Sized>(
        &mut self,
        roster: &dyn Roster,
        graph: &ConflictGraph,
        predictor: &P,
    ) {
        for i in 0..self.rows.len() {
            if !self.rows[i].stale && self.rows[i].walk.is_some() {
                continue;
            }
            let id = self.rows[i].id;
            let d_i = graph.earlier_conflicts(id);
            if self.rows[i].stale {
                let (earlier, rest) = self.rows.split_at_mut(i);
                let row = &mut rest[0];
                let c = &*row.spec;
                let memo = &mut row.p_conf;
                let mut conf = |e: &ChangeSpec| {
                    let at = memo.iter().position(|m| m.0 == e.id).unwrap_or_else(|| {
                        memo.push((e.id, predictor.p_conflict(roster, e, c)));
                        memo.len() - 1
                    });
                    memo[at].1
                };
                let position = |d| self.ids.binary_search(&d).ok();
                let p_succ = row
                    .p_succ
                    .unwrap_or_else(|| predictor.p_success(roster, c, row.counters));
                let (mut survive, mut clear) = (1.0, 1.0);
                for &d in &d_i {
                    let Some(j) = position(d) else { continue };
                    let p_conf = conf(&earlier[j].spec);
                    survive *= 1.0 - earlier[j].p_commit * p_conf;
                    clear *= 1.0 - p_conf;
                }
                // Already-committed conflicts contribute with probability 1.
                for e in &row.fixed {
                    survive *= 1.0 - conf(e);
                }
                let p_commit = (p_succ * survive).clamp(0.0, 1.0);
                let moved = p_commit.to_bits() != row.p_commit.to_bits();
                row.p_succ = Some(p_succ);
                row.p_commit = p_commit;
                row.risk = (1.0 - clear).clamp(0.0, 1.0);
                row.stale = false;
                if moved {
                    for n in graph.neighbors(id).filter(|&n| n > id) {
                        if let Some(j) = self.position(n) {
                            self.rows[j].invalidate();
                        }
                    }
                }
            }
            if self.rows[i].walk.is_none() {
                let p_of = |d| self.position(d).map_or(0.5, |j| self.rows[j].p_commit);
                let gen = PatternGen::new(d_i.iter().map(|&d| (d, p_of(d))));
                self.rows[i].walk = Some(Walk {
                    gen,
                    emitted: Vec::new(),
                });
            }
        }
    }

    /// The key of a selected pattern.
    pub(crate) fn key(&self, pick: &Pick) -> &BuildKey {
        let walk = self.rows[pick.row]
            .walk
            .as_ref()
            .expect("a picked row has a walk");
        &walk.emitted[pick.pos].key
    }

    /// Up to `budget` patterns of the freshly refreshed rows with the
    /// highest `benefit(row) · P_needed`, best first; zero-value ones
    /// never. `cap(row)` bounds how many of a row's patterns may enter
    /// (see [`SpeculationEngine::select_builds_configured`]).
    ///
    /// A k-way merge over the rows' pattern sequences, extended only as
    /// far as it consumes them. A row has at most one pattern in the heap
    /// at a time, so ordering the heap by value and then subject orders
    /// it by value and then key.
    pub(crate) fn select(
        &mut self,
        budget: usize,
        benefit: impl Fn(&Row<S>) -> f64,
        cap: impl Fn(&Row<S>) -> usize,
    ) -> Vec<Pick> {
        let weights: Vec<(f64, usize)> = self.rows.iter().map(|r| (benefit(r), cap(r))).collect();
        let mut firsts = Vec::with_capacity(self.rows.len());
        for (row, &(b, cap)) in weights.iter().enumerate() {
            if cap == 0 {
                continue;
            }
            debug_assert!(b.is_finite() && b > 0.0, "benefit must be positive");
            if let Some(value) = self.rows[row].pattern(0) {
                let subject = self.rows[row].id;
                firsts.push(Head {
                    value: value * b,
                    subject,
                    row,
                    pos: 0,
                });
            }
        }
        let mut heads = BinaryHeap::from(firsts);
        let mut out = Vec::with_capacity(budget.min(64));
        while out.len() < budget {
            let Some(mut top) = heads.peek_mut() else {
                break;
            };
            let head = *top;
            if head.value <= 0.0 {
                break; // heap is value-ordered: everything below is zero
            }
            out.push(Pick {
                row: head.row,
                pos: head.pos,
                value: head.value,
            });
            // The row's next pattern takes its place, if it has one.
            let (b, cap) = weights[head.row];
            let pos = head.pos + 1;
            match (pos < cap)
                .then(|| self.rows[head.row].pattern(pos))
                .flatten()
            {
                Some(value) => {
                    *top = Head {
                        value: value * b,
                        pos,
                        ..head
                    }
                }
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        out
    }
}

/// A row's next pattern in the merge, ordered by value (max-heap) and
/// tie-broken by subject, lowest first, for determinism.
#[derive(Debug, Clone, Copy)]
struct Head {
    value: f64,
    subject: ChangeId,
    row: usize,
    pos: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Head {}
impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value
            .total_cmp(&other.value)
            .then_with(|| other.subject.cmp(&self.subject))
    }
}
impl PartialOrd for Head {
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
#[derive(Debug, Clone)]
struct PatternGen {
    coords: Vec<Coord>,
    /// The most likely pattern's assumed changes, ascending: the
    /// coordinates whose likely outcome is commit.
    base_assumed: Vec<ChangeId>,
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
    /// A walk over `D_i`, given as each member with its commit
    /// probability.
    fn new(d_i: impl Iterator<Item = (ChangeId, f64)>) -> Self {
        let mut base_value = 1.0;
        let mut coords: Vec<Coord> = d_i
            .map(|(d, p)| {
                let p = p.clamp(0.0, 1.0);
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
        let mut base_assumed: Vec<ChangeId> = coords
            .iter()
            .filter(|c| c.base_commit)
            .map(|c| c.id)
            .collect();
        base_assumed.sort_unstable();
        PatternGen {
            coords,
            base_assumed,
            base_value,
            heap: BinaryHeap::new(),
            started: false,
        }
    }

    /// The build of `subject` on `prefix` under a flip set: the most
    /// likely pattern with the flipped coordinates toggled.
    fn key_for(&self, subject: ChangeId, flips: &[usize], prefix: &[ChangeId]) -> BuildKey {
        let mut assumed = self.base_assumed.clone();
        for &i in flips {
            let id = self.coords[i].id;
            match assumed.binary_search(&id) {
                Ok(at) => {
                    assumed.remove(at);
                }
                Err(at) => assumed.insert(at, id),
            }
        }
        if !prefix.is_empty() {
            assumed.extend_from_slice(prefix);
            assumed.sort_unstable();
            assumed.dedup();
        }
        BuildKey { subject, assumed }
    }

    /// The next most likely pattern, as a build of `subject` on `prefix`.
    fn next_pattern(&mut self, subject: ChangeId, prefix: &[ChangeId]) -> Option<PlannedBuild> {
        if !self.started {
            self.started = true;
            self.heap.push(PatternNode {
                value: self.base_value,
                flips: Vec::new(),
            });
        }
        let PatternNode { value, mut flips } = self.heap.pop()?;
        let key = self.key_for(subject, &flips, prefix);
        // Children: advance the last flip by one, or extend with the
        // next coordinate after it.
        let last = flips.last().copied();
        let next_idx = last.map_or(0, |l| l + 1);
        if next_idx < self.coords.len() {
            let ratio = self.coords[next_idx].flip_ratio;
            if let Some(l) = last {
                let mut advanced = flips.clone();
                *advanced.last_mut().expect("non-empty") = next_idx;
                let ratio_l = self.coords[l].flip_ratio;
                self.heap.push(PatternNode {
                    value: if ratio_l > 0.0 {
                        value / ratio_l * ratio
                    } else {
                        0.0
                    },
                    flips: advanced,
                });
            }
            flips.push(next_idx);
            self.heap.push(PatternNode {
                value: value * ratio,
                flips,
            });
        }
        Some(PlannedBuild { key, value })
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

    impl<S: Deref<Target = ChangeSpec>> Table<S> {
        /// Drop everything the rows derived, as if the table were filled
        /// from nothing at the next refresh.
        pub(crate) fn forget(&mut self) {
            for row in &mut self.rows {
                row.invalidate();
                row.p_succ = None;
                row.p_commit = f64::NAN;
                row.risk = f64::NAN;
                row.p_conf.clear();
            }
        }

        /// Every row's `p_commit` is, to the bit, what
        /// [`SpeculationEngine::commit_probabilities`] computes over the
        /// same window.
        pub(crate) fn assert_fresh<P: Predictor + ?Sized>(
            &self,
            roster: &dyn Roster,
            graph: &ConflictGraph,
            predictor: &P,
        ) {
            let window: Vec<&ChangeSpec> = self.rows.iter().map(|r| &*r.spec).collect();
            let counters = self.rows.iter().map(|r| (r.id, r.counters)).collect();
            let fixed = self
                .rows
                .iter()
                .map(|r| (r.id, r.fixed.iter().map(|e| &**e).collect()))
                .collect();
            let fresh = SpeculationEngine::commit_probabilities(
                roster, &window, graph, predictor, &counters, &fixed,
            );
            for r in &self.rows {
                assert_eq!(
                    r.p_commit.to_bits(),
                    fresh[&r.id].to_bits(),
                    "{}: kept {} vs fresh {}",
                    r.id,
                    r.p_commit,
                    fresh[&r.id]
                );
            }
        }
    }

    #[test]
    fn a_kept_table_refreshes_to_what_a_fresh_one_holds() {
        // Every change conflicts with every other: each event reaches
        // every later row.
        let w = workload(8);
        let mut analyzer = crate::analyzer::IndexedAnalyzer::disabled();
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&ChangeSpec> = Vec::new();
        let mut kept = Table::default();
        let select = |t: &mut Table<&ChangeSpec>| -> Vec<PlannedBuild> {
            let picks = t.select(20, |_| 1.0, |_| usize::MAX);
            let key = |p: &Pick| t.key(p).clone();
            picks
                .iter()
                .map(|p| PlannedBuild {
                    key: key(p),
                    value: p.value,
                })
                .collect()
        };
        let check = |kept: &mut Table<&ChangeSpec>, pending: &[&ChangeSpec], g: &ConflictGraph| {
            kept.refresh(&w, g, &UniformPredictor);
            kept.assert_fresh(&w, g, &UniformPredictor);
            let mut fresh = Table::default();
            for &c in pending {
                let row = kept.get(c.id).expect("kept row");
                fresh.arrive(c, row.counters);
                for &e in &row.fixed {
                    fresh.build_on(c.id, e);
                }
            }
            fresh.refresh(&w, g, &UniformPredictor);
            assert_eq!(select(kept), select(&mut fresh));
        };
        for c in &w.changes[..6] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
            kept.arrive(c, SpeculationCounters::default());
            check(&mut kept, &pending, &g);
        }
        kept.counted(ChangeId(2), true);
        kept.counted(ChangeId(3), false);
        check(&mut kept, &pending, &g);
        // C0 commits: every later row loses it from D_i and builds on it.
        let c0 = kept.remove(ChangeId(0));
        g.remove(ChangeId(0));
        pending.remove(0);
        for c in &pending {
            kept.build_on(c.id, c0);
            kept.lost_conflict(c.id);
        }
        check(&mut kept, &pending, &g);
        // C3 is rejected: its later rows lose it.
        kept.remove(ChangeId(3));
        g.remove(ChangeId(3));
        pending.retain(|c| c.id != ChangeId(3));
        for c in pending.iter().filter(|c| c.id > ChangeId(3)) {
            kept.lost_conflict(c.id);
        }
        check(&mut kept, &pending, &g);
        for c in &w.changes[6..] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
            kept.arrive(c, SpeculationCounters::default());
        }
        check(&mut kept, &pending, &g);
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
        let subject = ChangeId(99);
        let mut gen = PatternGen::new(ids.iter().copied().zip(probs.iter().copied()));
        let mut emitted: Vec<(Vec<ChangeId>, f64)> = Vec::new();
        while let Some(pb) = gen.next_pattern(subject, &[]) {
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
