//! Scheduling strategies: SubmitQueue and the Section 8 baselines.
//!
//! All strategies answer the same question each planning round: *which
//! builds should occupy the workers right now?* They differ exactly as
//! the paper describes:
//!
//! * **SubmitQueue** — probabilistic speculation with the learned models.
//! * **Oracle** — perfect prediction; emits only the n realized-path
//!   builds. All Section 8 numbers are normalized against it.
//! * **Speculate-all** — 50/50 odds on everything, which floods the
//!   workers with the whole speculation graph breadth-first.
//! * **Optimistic** (Zuul) — one build per change assuming every earlier
//!   pending change succeeds.
//! * **Single-Queue** (Bors) — conflicting changes build strictly one at
//!   a time; independent changes proceed in parallel.
//!
//! Plus the lean variants from Uber's 2025 follow-up (*CI at Scale:
//! Lean, Green, and Fast*), all layered on the unchanged SubmitQueue
//! core via [`crate::lean::LeanConfig`]:
//!
//! * **Lean-Speculation** — probability-gated skipping: changes whose
//!   predicted conflict risk falls below a calibrated threshold get a
//!   single expected-mainline build instead of a pattern fan-out.
//! * **Prioritized** — the speculation budget is value-weighted by
//!   conflict risk.
//! * **Bypass-Lane** — footprint-eligible (or emergency-flagged)
//!   changes land after a single front-of-queue verify.

use crate::analyzer::ConflictGraph;
use crate::fasthash::FastMap;
use crate::lean::{BypassPolicy, LeanConfig, SKIP_MISS_BUDGET};
use crate::predict::{
    LearnedPredictor, OraclePredictor, Predictor, SpeculationCounters, UniformPredictor,
};
use crate::speculation::{BuildKey, PlannedBuild, SpeculationEngine};
use sq_workload::{ChangeId, ChangeSpec, Workload};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Which scheduling policy a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// The paper's system.
    SubmitQueue,
    /// Perfect-foresight normalization baseline.
    Oracle,
    /// Speculate on every outcome with 50/50 odds.
    SpeculateAll,
    /// Zuul-style optimistic pipelines.
    Optimistic,
    /// Bors-style serial queue (with independent-change parallelism).
    SingleQueue,
    /// SubmitQueue with probability-gated speculation skipping.
    LeanSpeculation,
    /// SubmitQueue with the speculation budget weighted by conflict risk.
    Prioritized,
    /// SubmitQueue with a bypass lane for policy-eligible changes.
    BypassLane,
}

impl StrategyKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::SubmitQueue => "SubmitQueue",
            StrategyKind::Oracle => "Oracle",
            StrategyKind::SpeculateAll => "Speculate-all",
            StrategyKind::Optimistic => "Optimistic",
            StrategyKind::SingleQueue => "Single-Queue",
            StrategyKind::LeanSpeculation => "Lean-Speculation",
            StrategyKind::Prioritized => "Prioritized",
            StrategyKind::BypassLane => "Bypass-Lane",
        }
    }

    /// Number of strategies. The single source of truth for matrix
    /// sizing: [`StrategyKind::all`] returns exactly this many entries,
    /// so scenario/benchmark matrices sized or checked against `COUNT`
    /// cannot silently drop a newly added strategy.
    pub const COUNT: usize = 8;

    /// All strategies, in the paper's reporting order (the lean
    /// variants follow the paper's five).
    pub fn all() -> [StrategyKind; Self::COUNT] {
        [
            StrategyKind::SubmitQueue,
            StrategyKind::Oracle,
            StrategyKind::SpeculateAll,
            StrategyKind::Optimistic,
            StrategyKind::SingleQueue,
            StrategyKind::LeanSpeculation,
            StrategyKind::Prioritized,
            StrategyKind::BypassLane,
        ]
    }

    /// Dense position of this kind within [`Self::all`]. The match is
    /// exhaustive, so adding a variant without extending the census
    /// fails to compile; `census_is_complete` pins `all()[k.index()]
    /// == k` and `COUNT` to this function, closing the loop.
    pub const fn index(self) -> usize {
        match self {
            StrategyKind::SubmitQueue => 0,
            StrategyKind::Oracle => 1,
            StrategyKind::SpeculateAll => 2,
            StrategyKind::Optimistic => 3,
            StrategyKind::SingleQueue => 4,
            StrategyKind::LeanSpeculation => 5,
            StrategyKind::Prioritized => 6,
            StrategyKind::BypassLane => 7,
        }
    }

    /// Whether [`Strategy::build`] needs a training history for this
    /// kind (the learned-model strategies do; the baselines don't).
    pub fn needs_history(self) -> bool {
        matches!(
            self,
            StrategyKind::SubmitQueue
                | StrategyKind::LeanSpeculation
                | StrategyKind::Prioritized
                | StrategyKind::BypassLane
        )
    }

    /// The canonical single-flag [`LeanConfig`] for the lean kinds
    /// (`None` for the paper's five). `skip_threshold` is only used by
    /// [`StrategyKind::LeanSpeculation`].
    pub fn lean_config(self, skip_threshold: f64) -> Option<LeanConfig> {
        match self {
            StrategyKind::LeanSpeculation => Some(LeanConfig::lean(skip_threshold)),
            StrategyKind::Prioritized => Some(LeanConfig::prioritized()),
            StrategyKind::BypassLane => Some(LeanConfig::bypass_only()),
            _ => None,
        }
    }
}

/// A strategy instance (policy + any trained models).
///
/// A `Strategy` is bound to one workload: the Oracle carries that
/// workload's ground truth, and SubmitQueue memoizes pair-conflict
/// probabilities by change id. Build a fresh instance per workload
/// (different replay *rates* of the same trace share change identities
/// and may share an instance).
pub enum Strategy {
    /// SubmitQueue with its trained predictor (conflict probabilities
    /// memoized across planning rounds).
    SubmitQueue(MemoizedLearned),
    /// The oracle for a specific workload.
    Oracle(OraclePredictor),
    /// Speculate-all.
    SpeculateAll,
    /// Optimistic.
    Optimistic,
    /// Single-queue.
    SingleQueue,
    /// Any lean configuration over the SubmitQueue core (the three
    /// lean kinds are canonical single-flag configs; benches also run
    /// combined configs through this variant).
    Lean(LeanStrategy),
}

impl Strategy {
    /// Instantiate a strategy for `workload`. SubmitQueue and the lean
    /// variants train their models on `history` (a disjoint workload
    /// from the same generative process, like the paper's historical
    /// changes); Lean-Speculation additionally calibrates its skip
    /// threshold on that history against [`SKIP_MISS_BUDGET`].
    pub fn build(kind: StrategyKind, workload: &Workload, history: Option<&Workload>) -> Strategy {
        match kind {
            StrategyKind::SubmitQueue => {
                let history = history.expect("SubmitQueue needs training history");
                let (predictor, _) = LearnedPredictor::train(history, 0xFEED);
                Strategy::SubmitQueue(MemoizedLearned::new(predictor))
            }
            StrategyKind::LeanSpeculation
            | StrategyKind::Prioritized
            | StrategyKind::BypassLane => {
                let history = history.expect("lean strategies need training history");
                let (predictor, _) = LearnedPredictor::train(history, 0xFEED);
                let threshold = predictor.calibrate_skip_threshold(history, SKIP_MISS_BUDGET);
                let config = kind.lean_config(threshold).expect("lean kind");
                Strategy::lean_with(predictor, config)
            }
            StrategyKind::Oracle => Strategy::Oracle(OraclePredictor::new(workload)),
            StrategyKind::SpeculateAll => Strategy::SpeculateAll,
            StrategyKind::Optimistic => Strategy::Optimistic,
            StrategyKind::SingleQueue => Strategy::SingleQueue,
        }
    }

    /// Reuse an already-trained predictor (the benchmark grid trains one
    /// model and shares it across cells).
    pub fn submit_queue_with(predictor: LearnedPredictor) -> Strategy {
        Strategy::SubmitQueue(MemoizedLearned::new(predictor))
    }

    /// A lean strategy over an already-trained predictor with an
    /// explicit flag configuration (benches ablate through this; the
    /// scenario runner shares one predictor across all lean kinds).
    pub fn lean_with(predictor: LearnedPredictor, config: LeanConfig) -> Strategy {
        Strategy::Lean(LeanStrategy::new(
            MemoizedLearned::new(predictor),
            config,
            BypassPolicy::standard(),
        ))
    }

    /// The kind of this instance. Lean instances report the canonical
    /// kind of their flag configuration (baseline configs report as
    /// SubmitQueue — they are decision-identical to it).
    pub fn kind(&self) -> StrategyKind {
        match self {
            Strategy::SubmitQueue(_) => StrategyKind::SubmitQueue,
            Strategy::Oracle(_) => StrategyKind::Oracle,
            Strategy::SpeculateAll => StrategyKind::SpeculateAll,
            Strategy::Optimistic => StrategyKind::Optimistic,
            Strategy::SingleQueue => StrategyKind::SingleQueue,
            Strategy::Lean(l) => l.config.canonical_kind(),
        }
    }

    /// Is this a lean instance (carries skip/bypass bookkeeping)?
    pub fn is_lean(&self) -> bool {
        matches!(self, Strategy::Lean(_))
    }

    /// The lean flag configuration, when lean.
    pub fn lean_config_ref(&self) -> Option<&LeanConfig> {
        match self {
            Strategy::Lean(l) => Some(&l.config),
            _ => None,
        }
    }

    /// Was `id`'s speculation probability-gated away at any planning
    /// round of the current run?
    pub fn lean_skipped(&self, id: ChangeId) -> bool {
        match self {
            Strategy::Lean(l) => l.skipped.borrow().contains(&id),
            _ => false,
        }
    }

    /// Was `id` routed through the bypass lane at any planning round of
    /// the current run?
    pub fn lean_bypassed(&self, id: ChangeId) -> bool {
        match self {
            Strategy::Lean(l) => l.bypassed.borrow().contains(&id),
            _ => false,
        }
    }

    /// Clear per-run lean bookkeeping. The planner calls this at
    /// simulation start so a strategy instance reused across runs (the
    /// benchmark grid) doesn't leak decision sets between runs; the
    /// decisions themselves are pure functions of the planning inputs.
    pub fn lean_reset(&self) {
        if let Strategy::Lean(l) = self {
            l.skipped.borrow_mut().clear();
            l.bypassed.borrow_mut().clear();
        }
    }

    /// The desired builds for the current pending set, best first, at
    /// most `budget` entries.
    ///
    /// `pending` is sorted by id; `graph` covers exactly the pending set;
    /// `counters` holds dynamic speculation counts.
    pub fn desired_builds(
        &self,
        workload: &Workload,
        pending: &[&ChangeSpec],
        graph: &ConflictGraph,
        counters: &HashMap<ChangeId, SpeculationCounters>,
        fixed: &HashMap<ChangeId, Vec<ChangeId>>,
        budget: usize,
    ) -> Vec<PlannedBuild> {
        match self {
            Strategy::SubmitQueue(p) => SpeculationEngine::select_builds(
                workload, pending, graph, p, counters, fixed, budget,
            ),
            Strategy::Lean(l) => {
                l.desired_builds(workload, pending, graph, counters, fixed, budget)
            }
            Strategy::Oracle(p) => SpeculationEngine::select_builds(
                workload, pending, graph, p, counters, fixed, budget,
            ),
            Strategy::SpeculateAll => SpeculationEngine::select_builds(
                workload,
                pending,
                graph,
                &UniformPredictor,
                counters,
                fixed,
                budget,
            ),
            Strategy::Optimistic => {
                // One build per change: assume every earlier conflicting
                // pending change commits (the single most-optimistic path;
                // a predictor certain of success would produce the same
                // keys through the engine, listed here directly for clarity).
                pending
                    .iter()
                    .take(budget)
                    .map(|c| PlannedBuild {
                        key: BuildKey {
                            subject: c.id,
                            assumed: graph.earlier_conflicts(c.id),
                        },
                        value: 1.0,
                    })
                    .collect()
            }
            Strategy::SingleQueue => {
                // Only changes whose earlier conflicts are all resolved
                // may build; they build against the exact committed
                // prefix (empty pattern here; the planner unions in the
                // fixed committed prefix).
                pending
                    .iter()
                    .filter(|c| graph.earlier_conflicts(c.id).is_empty())
                    .take(budget)
                    .map(|c| PlannedBuild {
                        key: BuildKey {
                            subject: c.id,
                            assumed: Vec::new(),
                        },
                        value: 1.0,
                    })
                    .collect()
            }
        }
    }
}

/// The lean-speculation planning core: SubmitQueue's engine plus the
/// three independently-toggleable optimizations of the 2025 sequel.
///
/// Safety argument (audited in `bench_lean` and the lean proptests):
/// nothing here touches the planner's *gating* path. A change still
/// commits or rejects only through its realized build, so the worst a
/// wrong skip or bypass can do is schedule a build that later gets
/// contradicted and aborted — pure latency, never a wrongful rejection
/// and never a red mainline.
pub struct LeanStrategy {
    predictor: MemoizedLearned,
    /// Which optimizations are active.
    pub config: LeanConfig,
    /// Bypass-lane eligibility policy.
    pub policy: BypassPolicy,
    /// Changes whose speculation was gated away this run (bookkeeping
    /// only — consulted by the planner when the change resolves).
    skipped: RefCell<HashSet<ChangeId>>,
    /// Changes routed through the bypass lane this run.
    bypassed: RefCell<HashSet<ChangeId>>,
}

impl LeanStrategy {
    /// Assemble from a memoized predictor, flags, and a bypass policy.
    pub fn new(predictor: MemoizedLearned, config: LeanConfig, policy: BypassPolicy) -> Self {
        LeanStrategy {
            predictor,
            config,
            policy,
            skipped: RefCell::new(HashSet::new()),
            bypassed: RefCell::new(HashSet::new()),
        }
    }

    /// Predicted conflict risk of `c` against its earlier *pending*
    /// conflicters: `1 − Π (1 − P_conf(d, c))`. This is the score space
    /// the skip threshold was calibrated in (pairwise `P_conf` over
    /// potentially-conflicting pairs).
    fn risk(
        &self,
        workload: &Workload,
        by_id: &HashMap<ChangeId, &ChangeSpec>,
        graph: &ConflictGraph,
        c: &ChangeSpec,
    ) -> f64 {
        let mut survive = 1.0;
        for d in graph.earlier_conflicts(c.id) {
            if let Some(dc) = by_id.get(&d) {
                survive *= 1.0 - self.predictor.p_conflict(workload, dc, c);
            }
        }
        (1.0 - survive).clamp(0.0, 1.0)
    }

    fn desired_builds(
        &self,
        workload: &Workload,
        pending: &[&ChangeSpec],
        graph: &ConflictGraph,
        counters: &HashMap<ChangeId, SpeculationCounters>,
        fixed: &HashMap<ChangeId, Vec<ChangeId>>,
        budget: usize,
    ) -> Vec<PlannedBuild> {
        let by_id: HashMap<ChangeId, &ChangeSpec> = pending.iter().map(|c| (c.id, *c)).collect();
        let needs_risk = self.config.prioritize || self.config.skip_threshold.is_some();
        let risks: HashMap<ChangeId, f64> = if needs_risk {
            pending
                .iter()
                .map(|c| (c.id, self.risk(workload, &by_id, graph, c)))
                .collect()
        } else {
            HashMap::new()
        };

        // Bypass lane: policy-eligible changes get exactly one build —
        // their *expected-mainline* build (most-likely outcome pattern)
        // — placed ahead of all speculation.
        let mut bypass_ids: HashSet<ChangeId> = HashSet::new();
        let mut head: Vec<PlannedBuild> = Vec::new();
        if self.config.bypass {
            let p_commit = SpeculationEngine::commit_probabilities(
                workload,
                pending,
                graph,
                &self.predictor,
                counters,
                fixed,
            );
            for c in pending {
                if !self.policy.eligible(c) {
                    continue;
                }
                bypass_ids.insert(c.id);
                self.bypassed.borrow_mut().insert(c.id);
                let mut assumed: Vec<ChangeId> = graph
                    .earlier_conflicts(c.id)
                    .into_iter()
                    .filter(|d| p_commit.get(d).copied().unwrap_or(0.0) >= 0.5)
                    .collect();
                assumed.sort_unstable();
                head.push(PlannedBuild {
                    key: BuildKey {
                        subject: c.id,
                        assumed,
                    },
                    value: 1.0,
                });
                if head.len() >= budget {
                    break;
                }
            }
        }

        // Probability-gated skipping: low-risk changes are capped at a
        // single (most-likely) pattern instead of a fan-out. Only
        // changes that actually have earlier pending conflicters are
        // counted as skips — for everyone else there is nothing to skip.
        let mut skip_ids: HashSet<ChangeId> = HashSet::new();
        if let Some(threshold) = self.config.skip_threshold {
            for c in pending {
                if bypass_ids.contains(&c.id) {
                    continue;
                }
                if graph.earlier_conflicts(c.id).is_empty() {
                    continue;
                }
                if risks.get(&c.id).copied().unwrap_or(1.0) < threshold {
                    skip_ids.insert(c.id);
                    self.skipped.borrow_mut().insert(c.id);
                }
            }
        }

        let remaining = budget.saturating_sub(head.len());
        let benefit = |id: ChangeId| {
            if self.config.prioritize {
                1.0 + risks.get(&id).copied().unwrap_or(0.0)
            } else {
                1.0
            }
        };
        let mut picks = SpeculationEngine::select_builds_configured(
            workload,
            pending,
            graph,
            &self.predictor,
            counters,
            fixed,
            remaining,
            benefit,
            |id| {
                if bypass_ids.contains(&id) {
                    0
                } else if skip_ids.contains(&id) {
                    1
                } else {
                    usize::MAX
                }
            },
        );
        // The build-granular half of probability-gated skipping: a
        // speculative pattern whose P_needed sits below the calibrated
        // threshold is dropped instead of letting it backfill the
        // budget (the planner schedules each change's gating build out
        // of band, so the fallback is the plain mainline build and the
        // only possible cost is latency). Without this, per-change
        // skips just hand their slots to even less likely patterns of
        // other changes and the wasted-build count is conserved.
        if let Some(threshold) = self.config.skip_threshold {
            picks.retain(|pb| pb.value / benefit(pb.key.subject) >= threshold);
        }
        head.extend(picks);
        head
    }
}

/// Owning `P_conf` memoization around the learned models: pair-conflict
/// probabilities are pure functions of the two changes, and the planner
/// replans on every event, so caching eliminates the dominant prediction
/// cost (an O(pending²) model evaluation per round without the
/// analyzer). Bound to one workload's change-id space.
pub struct MemoizedLearned {
    inner: LearnedPredictor,
    conflict_cache: RefCell<FastMap<(ChangeId, ChangeId), f64>>,
}

impl MemoizedLearned {
    /// Wrap a trained predictor.
    pub fn new(inner: LearnedPredictor) -> Self {
        MemoizedLearned {
            inner,
            conflict_cache: RefCell::default(),
        }
    }
}

impl Predictor for MemoizedLearned {
    fn p_success(&self, w: &Workload, c: &ChangeSpec, k: SpeculationCounters) -> f64 {
        self.inner.p_success(w, c, k)
    }

    fn p_conflict(&self, w: &Workload, a: &ChangeSpec, b: &ChangeSpec) -> f64 {
        let key = if a.id.0 <= b.id.0 {
            (a.id, b.id)
        } else {
            (b.id, a.id)
        };
        if let Some(&v) = self.conflict_cache.borrow().get(&key) {
            return v;
        }
        let v = self.inner.p_conflict(w, a, b);
        self.conflict_cache.borrow_mut().insert(key, v);
        v
    }
}

/// Borrowing `P_conf` memoization wrapper (same idea as
/// [`MemoizedLearned`] for arbitrary predictors).
pub struct CachedPredictor<'a, P: Predictor> {
    inner: &'a P,
    conflict_cache: std::cell::RefCell<HashMap<(ChangeId, ChangeId), f64>>,
}

impl<'a, P: Predictor> CachedPredictor<'a, P> {
    /// Wrap a predictor.
    pub fn new(inner: &'a P) -> Self {
        CachedPredictor {
            inner,
            conflict_cache: std::cell::RefCell::new(HashMap::new()),
        }
    }
}

impl<'a, P: Predictor> Predictor for CachedPredictor<'a, P> {
    fn p_success(&self, w: &Workload, c: &ChangeSpec, k: SpeculationCounters) -> f64 {
        self.inner.p_success(w, c, k)
    }

    fn p_conflict(&self, w: &Workload, a: &ChangeSpec, b: &ChangeSpec) -> f64 {
        let key = if a.id.0 <= b.id.0 {
            (a.id, b.id)
        } else {
            (b.id, a.id)
        };
        if let Some(&v) = self.conflict_cache.borrow().get(&key) {
            return v;
        }
        let v = self.inner.p_conflict(w, a, b);
        self.conflict_cache.borrow_mut().insert(key, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::StatisticalAnalyzer;
    use sq_workload::{WorkloadBuilder, WorkloadParams};

    fn setup(n: usize) -> (Workload, ConflictGraph, Vec<usize>) {
        let w = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(33)
            .n_changes(n)
            .build()
            .unwrap();
        let mut analyzer = StatisticalAnalyzer::new();
        let mut g = ConflictGraph::new();
        let mut pending: Vec<&ChangeSpec> = Vec::new();
        for c in &w.changes[..n] {
            g.admit(c, &pending, &mut analyzer);
            pending.push(c);
        }
        (w, g, (0..n).collect())
    }

    #[test]
    fn optimistic_emits_one_build_per_change() {
        let (w, g, _) = setup(10);
        let pending: Vec<&ChangeSpec> = w.changes[..10].iter().collect();
        let builds = Strategy::Optimistic.desired_builds(
            &w,
            &pending,
            &g,
            &HashMap::new(),
            &HashMap::new(),
            100,
        );
        assert_eq!(builds.len(), 10);
        for (b, c) in builds.iter().zip(&pending) {
            assert_eq!(b.key.subject, c.id);
            assert_eq!(b.key.assumed, g.earlier_conflicts(c.id));
        }
    }

    #[test]
    fn single_queue_serializes_conflict_chains() {
        let (w, g, _) = setup(20);
        let pending: Vec<&ChangeSpec> = w.changes[..20].iter().collect();
        let builds = Strategy::SingleQueue.desired_builds(
            &w,
            &pending,
            &g,
            &HashMap::new(),
            &HashMap::new(),
            100,
        );
        // Every scheduled change has no unresolved earlier conflicts.
        for b in &builds {
            assert!(g.earlier_conflicts(b.key.subject).is_empty());
            assert!(b.key.assumed.is_empty());
        }
        // And changes *with* earlier conflicts are not scheduled.
        let scheduled: Vec<ChangeId> = builds.iter().map(|b| b.key.subject).collect();
        for c in &pending {
            if !g.earlier_conflicts(c.id).is_empty() {
                assert!(!scheduled.contains(&c.id));
            }
        }
        assert!(!builds.is_empty(), "heads of chains must build");
    }

    #[test]
    fn speculate_all_goes_wide() {
        let (w, g, _) = setup(8);
        let pending: Vec<&ChangeSpec> = w.changes[..8].iter().collect();
        let builds = Strategy::SpeculateAll.desired_builds(
            &w,
            &pending,
            &g,
            &HashMap::new(),
            &HashMap::new(),
            64,
        );
        // Every pending change appears as a subject.
        let subjects: std::collections::HashSet<ChangeId> =
            builds.iter().map(|b| b.key.subject).collect();
        assert_eq!(subjects.len(), 8);
    }

    #[test]
    fn oracle_schedules_exactly_pending_count() {
        let (w, g, _) = setup(12);
        let pending: Vec<&ChangeSpec> = w.changes[..12].iter().collect();
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let builds =
            strategy.desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 1000);
        assert_eq!(builds.len(), 12);
    }

    #[test]
    fn cached_predictor_agrees_with_inner() {
        let (w, _, _) = setup(6);
        let oracle = OraclePredictor::new(&w);
        let cached = CachedPredictor::new(&oracle);
        for i in 0..5 {
            let (a, b) = (&w.changes[i], &w.changes[i + 1]);
            let direct = oracle.p_conflict(&w, a, b);
            assert_eq!(cached.p_conflict(&w, a, b), direct);
            assert_eq!(cached.p_conflict(&w, a, b), direct); // cache hit
            assert_eq!(cached.p_conflict(&w, b, a), direct); // symmetric key
        }
    }

    #[test]
    fn kind_roundtrip() {
        for kind in StrategyKind::all() {
            if kind.needs_history() {
                continue; // needs history; covered below and in planner tests
            }
            let w = WorkloadBuilder::new(WorkloadParams::ios())
                .seed(1)
                .n_changes(5)
                .build()
                .unwrap();
            assert_eq!(Strategy::build(kind, &w, None).kind(), kind);
        }
    }

    #[test]
    fn census_is_complete() {
        // `index()` is an exhaustive match over the enum; pinning
        // `all()` and `COUNT` to it means no variant can be added
        // without joining every scenario/benchmark matrix.
        let all = StrategyKind::all();
        assert_eq!(all.len(), StrategyKind::COUNT);
        for (i, kind) in all.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{} out of census order", kind.name());
        }
        let names: std::collections::HashSet<&str> = all.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), StrategyKind::COUNT, "names must be unique");
    }

    #[test]
    fn lean_kinds_roundtrip_with_history() {
        let w = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(2)
            .n_changes(20)
            .build()
            .unwrap();
        let history = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(99)
            .n_changes(400)
            .build()
            .unwrap();
        for kind in [
            StrategyKind::LeanSpeculation,
            StrategyKind::Prioritized,
            StrategyKind::BypassLane,
        ] {
            let s = Strategy::build(kind, &w, Some(&history));
            assert_eq!(s.kind(), kind);
            assert!(s.is_lean());
            assert!(s.lean_config_ref().is_some());
        }
        assert!(!Strategy::SpeculateAll.is_lean());
    }

    #[test]
    fn lean_baseline_matches_submit_queue_exactly() {
        let (w, g, _) = setup(16);
        let history = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(77)
            .n_changes(400)
            .build()
            .unwrap();
        let (predictor, _) = LearnedPredictor::train(&history, 0xFEED);
        let sq = Strategy::submit_queue_with(predictor.clone());
        let lean = Strategy::lean_with(predictor, LeanConfig::baseline());
        let pending: Vec<&ChangeSpec> = w.changes[..16].iter().collect();
        let a = sq.desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 40);
        let b = lean.desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 40);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert!((x.value - y.value).abs() < 1e-12);
        }
        assert_eq!(lean.kind(), StrategyKind::SubmitQueue);
    }

    #[test]
    fn lean_skip_caps_low_risk_changes_to_one_build() {
        let (w, g, _) = setup(16);
        let history = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(77)
            .n_changes(400)
            .build()
            .unwrap();
        let (predictor, _) = LearnedPredictor::train(&history, 0xFEED);
        // Threshold 1.0 ⇒ every conflicted change is skip-eligible.
        let lean = Strategy::lean_with(predictor, LeanConfig::lean(1.0));
        let pending: Vec<&ChangeSpec> = w.changes[..16].iter().collect();
        let builds = lean.desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 400);
        let mut per_subject: HashMap<ChangeId, usize> = HashMap::new();
        for b in &builds {
            *per_subject.entry(b.key.subject).or_default() += 1;
        }
        for (id, n) in &per_subject {
            assert!(*n <= 1, "{id} got {n} builds despite universal skip");
        }
        for c in &pending {
            if !g.earlier_conflicts(c.id).is_empty() {
                assert!(lean.lean_skipped(c.id), "{} not recorded", c.id);
            }
        }
        lean.lean_reset();
        assert!(!lean.lean_skipped(pending[0].id));
    }

    #[test]
    fn bypass_lane_schedules_eligible_changes_first() {
        let (w, g, _) = setup(16);
        let history = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(77)
            .n_changes(400)
            .build()
            .unwrap();
        let (predictor, _) = LearnedPredictor::train(&history, 0xFEED);
        let lean = Strategy::lean_with(predictor, LeanConfig::bypass_only());
        let mut w2 = w.clone();
        // Flag one large change as an emergency.
        w2.changes[7].emergency = true;
        let pending: Vec<&ChangeSpec> = w2.changes[..16].iter().collect();
        let builds = lean.desired_builds(&w2, &pending, &g, &HashMap::new(), &HashMap::new(), 400);
        assert!(lean.lean_bypassed(pending[7].id), "emergency must bypass");
        // Every bypassed change's build precedes every engine pick and
        // appears exactly once as a subject.
        let bypassed: Vec<ChangeId> = pending
            .iter()
            .filter(|c| lean.lean_bypassed(c.id))
            .map(|c| c.id)
            .collect();
        assert!(!bypassed.is_empty());
        for id in &bypassed {
            let count = builds.iter().filter(|b| b.key.subject == *id).count();
            assert_eq!(count, 1, "{id} must get exactly one bypass build");
        }
        let first_non_bypass = builds
            .iter()
            .position(|b| !bypassed.contains(&b.key.subject))
            .unwrap_or(builds.len());
        for b in &builds[..first_non_bypass] {
            assert_eq!(b.value, 1.0);
        }
        assert_eq!(first_non_bypass, bypassed.len());
    }

    #[test]
    fn prioritization_reorders_but_keeps_the_same_coverage() {
        let (w, g, _) = setup(16);
        let history = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(77)
            .n_changes(400)
            .build()
            .unwrap();
        let (predictor, _) = LearnedPredictor::train(&history, 0xFEED);
        let sq = Strategy::submit_queue_with(predictor.clone());
        let lean = Strategy::lean_with(predictor, LeanConfig::prioritized());
        let pending: Vec<&ChangeSpec> = w.changes[..16].iter().collect();
        let a = sq.desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 1000);
        let b = lean.desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 1000);
        // Unbounded budget: same build set (weights reorder, never drop).
        let ka: std::collections::HashSet<BuildKey> = a.iter().map(|x| x.key.clone()).collect();
        let kb: std::collections::HashSet<BuildKey> = b.iter().map(|x| x.key.clone()).collect();
        assert_eq!(ka, kb);
    }
}
