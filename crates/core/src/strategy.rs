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
    LearnedPredictor, OraclePredictor, Predictor, Roster, SpeculationCounters, UniformPredictor,
};
use crate::speculation::{BuildKey, PlannedBuild, SpeculationEngine};
use sq_workload::{ChangeId, ChangeSpec, Workload};
use std::cell::RefCell;
use std::collections::HashMap;

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

    /// Every strategy, in the paper's reporting order (the lean variants
    /// follow the paper's five). The one census: [`Self::COUNT`],
    /// [`Self::all`] and [`Self::index`] all read it, so a kind joins
    /// every scenario/benchmark matrix by being listed here.
    const ALL: [StrategyKind; 8] = [
        StrategyKind::SubmitQueue,
        StrategyKind::Oracle,
        StrategyKind::SpeculateAll,
        StrategyKind::Optimistic,
        StrategyKind::SingleQueue,
        StrategyKind::LeanSpeculation,
        StrategyKind::Prioritized,
        StrategyKind::BypassLane,
    ];

    /// Number of strategies.
    pub const COUNT: usize = Self::ALL.len();

    /// All strategies, in reporting order.
    pub fn all() -> [StrategyKind; Self::COUNT] {
        Self::ALL
    }

    /// Dense position of this kind within [`Self::all`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every kind is listed in ALL")
    }

    /// Whether [`Strategy::build`] needs a training history for this
    /// kind (the learned-model strategies — SubmitQueue and everything
    /// layered on it — do; the baselines don't).
    pub fn needs_history(self) -> bool {
        self == StrategyKind::SubmitQueue || self.lean_config(0.0).is_some()
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

/// A strategy instance: an immutable value whose one question,
/// [`Strategy::desired_builds`], is a pure function of the pending
/// window it is shown.
///
/// A `Strategy` is bound to one workload: the Oracle carries that
/// workload's ground truth, and the learned model memoizes pair-conflict
/// probabilities by change id for as long as the instance lives. Build a
/// fresh instance per workload (different replay *rates* of the same
/// trace share change identities and may share an instance).
pub struct Strategy {
    /// The kind this instance reports as.
    kind: StrategyKind,
    /// Where the speculation engine's probabilities come from: the
    /// trained models with `P_conf` memoized across planning rounds, one
    /// workload's ground truth, or 50/50 on everything. `None`:
    /// Optimistic and Single-Queue list their keys directly.
    predictor: Option<Box<dyn Predictor + Send>>,
    /// The flags of a lean instance (the three lean kinds are canonical
    /// single-flag configs; benches also run combined configs).
    lean: Option<LeanConfig>,
}

/// What one planning round decided.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    /// The desired builds, best first, at most `budget` entries.
    pub builds: Vec<PlannedBuild>,
    /// Changes whose speculation was probability-gated down to their
    /// single most likely pattern this round, ascending.
    pub skipped: Vec<ChangeId>,
    /// Changes routed through the bypass lane this round, ascending.
    pub bypassed: Vec<ChangeId>,
}

impl Strategy {
    /// Instantiate a strategy for `workload`. SubmitQueue and the lean
    /// variants train their models on `history` (a disjoint workload
    /// from the same generative process, like the paper's historical
    /// changes); Lean-Speculation additionally calibrates its skip
    /// threshold on that history against [`SKIP_MISS_BUDGET`].
    pub fn build(kind: StrategyKind, workload: &Workload, history: Option<&Workload>) -> Strategy {
        let history = || history.expect("learned strategies train on a history");
        Strategy::for_kind(
            kind,
            workload,
            || LearnedPredictor::train(history(), 0xFEED).0,
            |p| p.calibrate_skip_threshold(history(), SKIP_MISS_BUDGET),
        )
    }

    /// The one place a kind becomes an instance. `trained` yields the
    /// learned models (a grid trains one and hands out clones) and
    /// `skip_threshold` the calibrated cutoff; each is called only for a
    /// kind that reads it.
    pub fn for_kind(
        kind: StrategyKind,
        workload: &Workload,
        trained: impl FnOnce() -> LearnedPredictor,
        skip_threshold: impl FnOnce(&LearnedPredictor) -> f64,
    ) -> Strategy {
        let baseline = |predictor| Strategy {
            kind,
            predictor,
            lean: None,
        };
        match kind {
            StrategyKind::Oracle => baseline(Some(Box::new(OraclePredictor::new(workload)))),
            StrategyKind::SpeculateAll => baseline(Some(Box::new(UniformPredictor))),
            StrategyKind::Optimistic | StrategyKind::SingleQueue => baseline(None),
            StrategyKind::SubmitQueue => Strategy::submit_queue_with(trained()),
            StrategyKind::LeanSpeculation => {
                let predictor = trained();
                let threshold = skip_threshold(&predictor);
                Strategy::lean_with(predictor, LeanConfig::lean(threshold))
            }
            StrategyKind::Prioritized | StrategyKind::BypassLane => {
                let config = kind.lean_config(0.0).expect("lean kind");
                Strategy::lean_with(trained(), config)
            }
        }
    }

    /// Reuse an already-trained predictor (the benchmark grid trains one
    /// model and shares it across cells).
    pub fn submit_queue_with(predictor: LearnedPredictor) -> Strategy {
        Strategy {
            kind: StrategyKind::SubmitQueue,
            predictor: Some(Box::new(Memoized {
                inner: predictor,
                conflict_cache: RefCell::default(),
            })),
            lean: None,
        }
    }

    /// A lean strategy over an already-trained predictor with an
    /// explicit flag configuration (benches ablate through this). It
    /// reports the canonical kind of its flags — the all-off baseline
    /// reports SubmitQueue, whose decisions it makes — and, unlike
    /// [`Strategy::submit_queue_with`], carries a lean report.
    pub fn lean_with(predictor: LearnedPredictor, config: LeanConfig) -> Strategy {
        Strategy {
            kind: config.canonical_kind(),
            lean: Some(config),
            ..Strategy::submit_queue_with(predictor)
        }
    }

    /// The kind of this instance.
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// The lean flags, when this is a lean instance (the planner keeps a
    /// [`crate::lean::LeanReport`] exactly for those).
    pub fn lean(&self) -> Option<&LeanConfig> {
        self.lean.as_ref()
    }

    /// The desired builds for the current pending set, with the lean
    /// marks this round put on changes (none off the lean path).
    ///
    /// `pending` is sorted by id; `roster` names their developers; `graph`
    /// covers at least the pending set; `counters` holds dynamic
    /// speculation counts; `fixed`, the committed specs each builds on.
    ///
    /// On the engine path this is SubmitQueue's selection plus whichever
    /// of the three optimizations of the 2025 sequel the instance's
    /// flags turn on; with none on, no table is built and the selector
    /// runs with benefit 1 and no pattern cap. Safety argument (audited
    /// in the `lean` bench suite and the lean proptests): nothing here
    /// touches the planner's *gating* path. A change still commits or
    /// rejects only through its realized build, so the worst a wrong
    /// skip or bypass can do is schedule a build that later gets
    /// contradicted and aborted — pure latency, never a wrongful
    /// rejection and never a red mainline.
    pub fn desired_builds(
        &self,
        roster: &dyn Roster,
        pending: &[&ChangeSpec],
        graph: &ConflictGraph,
        counters: &HashMap<ChangeId, SpeculationCounters>,
        fixed: &HashMap<ChangeId, Vec<&ChangeSpec>>,
        budget: usize,
    ) -> Plan {
        let mut plan = Plan::default();
        let Some(predictor) = self.predictor.as_deref() else {
            // Both direct policies build a change on top of every
            // earlier conflicting pending change (the single
            // most-optimistic path; a predictor certain of success would
            // produce the same keys through the engine). Optimistic does
            // so for every change; Single-Queue only once none is left,
            // so it builds against the exact committed prefix (the
            // planner unions that in).
            let optimistic = self.kind == StrategyKind::Optimistic;
            let ready = pending
                .iter()
                .filter(|c| optimistic || !graph.has_earlier_conflicts(c.id));
            plan.builds.extend(ready.take(budget).map(|c| PlannedBuild {
                key: BuildKey {
                    subject: c.id,
                    assumed: graph.earlier_conflicts(c.id),
                },
                value: 1.0,
            }));
            return plan;
        };
        let flags = self.lean.unwrap_or_else(LeanConfig::baseline);

        // Predicted conflict risk of each change against its earlier
        // *pending* conflicters: `1 − Π (1 − P_conf(d, c))`. This is the
        // score space the skip threshold was calibrated in (pairwise
        // `P_conf` over potentially-conflicting pairs).
        let mut risks: FastMap<ChangeId, f64> = FastMap::default();
        if flags.prioritize || flags.skip_threshold.is_some() {
            let by_id: FastMap<ChangeId, &ChangeSpec> =
                pending.iter().map(|c| (c.id, *c)).collect();
            for c in pending {
                let mut survive = 1.0;
                for d in graph.earlier_conflicts(c.id) {
                    if let Some(dc) = by_id.get(&d) {
                        survive *= 1.0 - predictor.p_conflict(roster, dc, c);
                    }
                }
                risks.insert(c.id, (1.0 - survive).clamp(0.0, 1.0));
            }
        }

        // Bypass lane: policy-eligible changes get exactly one build —
        // their *expected-mainline* build (most-likely outcome pattern)
        // — placed ahead of all speculation.
        if flags.bypass {
            let p_commit = SpeculationEngine::commit_probabilities(
                roster, pending, graph, predictor, counters, fixed,
            );
            let policy = BypassPolicy::standard();
            for c in pending.iter().filter(|c| policy.eligible(c)).take(budget) {
                plan.bypassed.push(c.id);
                let mut assumed = graph.earlier_conflicts(c.id);
                assumed.retain(|d| p_commit.get(d).copied().unwrap_or(0.0) >= 0.5);
                plan.builds.push(PlannedBuild {
                    key: BuildKey {
                        subject: c.id,
                        assumed,
                    },
                    value: 1.0,
                });
            }
        }

        // Probability-gated skipping: low-risk changes are capped at a
        // single (most-likely) pattern instead of a fan-out. Only
        // changes that actually have earlier pending conflicters are
        // counted as skips — for everyone else there is nothing to skip.
        // (`pending` is id-sorted, so both mark lists are too.)
        if let Some(threshold) = flags.skip_threshold {
            for c in pending {
                if plan.bypassed.binary_search(&c.id).is_err()
                    && graph.has_earlier_conflicts(c.id)
                    && risks.get(&c.id).copied().unwrap_or(1.0) < threshold
                {
                    plan.skipped.push(c.id);
                }
            }
        }

        let benefit = |id: ChangeId| {
            if flags.prioritize {
                1.0 + risks.get(&id).copied().unwrap_or(0.0)
            } else {
                1.0
            }
        };
        let mut picks = SpeculationEngine::select_builds_configured(
            roster,
            pending,
            graph,
            predictor,
            counters,
            fixed,
            budget.saturating_sub(plan.builds.len()),
            benefit,
            |id| {
                if plan.bypassed.binary_search(&id).is_ok() {
                    0
                } else if plan.skipped.binary_search(&id).is_ok() {
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
        if let Some(threshold) = flags.skip_threshold {
            picks.retain(|pb| pb.value / benefit(pb.key.subject) >= threshold);
        }
        plan.builds.extend(picks);
        plan
    }
}

/// `P_conf` memoization around a predictor: pair-conflict probabilities
/// are pure functions of the two changes, and the planner replans on
/// every event, so caching eliminates the dominant prediction cost (an
/// O(pending²) model evaluation per round without the analyzer). Bound
/// to one workload's change-id space.
struct Memoized<P> {
    inner: P,
    conflict_cache: RefCell<FastMap<(ChangeId, ChangeId), f64>>,
}

impl<P: Predictor> Predictor for Memoized<P> {
    fn p_success(&self, w: &dyn Roster, c: &ChangeSpec, k: SpeculationCounters) -> f64 {
        self.inner.p_success(w, c, k)
    }

    fn p_conflict(&self, w: &dyn Roster, a: &ChangeSpec, b: &ChangeSpec) -> f64 {
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
    use crate::analyzer::IndexedAnalyzer;
    use sq_workload::{WorkloadBuilder, WorkloadParams};

    fn setup(n: usize) -> (Workload, ConflictGraph, Vec<usize>) {
        let w = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(33)
            .n_changes(n)
            .build()
            .unwrap();
        let mut analyzer = IndexedAnalyzer::new();
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
        let builds = Strategy::build(StrategyKind::Optimistic, &w, None)
            .desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 100)
            .builds;
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
        let builds = Strategy::build(StrategyKind::SingleQueue, &w, None)
            .desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 100)
            .builds;
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
        let builds = Strategy::build(StrategyKind::SpeculateAll, &w, None)
            .desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 64)
            .builds;
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
        let plan =
            strategy.desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 1000);
        assert_eq!(plan.builds.len(), 12);
        assert!(plan.skipped.is_empty() && plan.bypassed.is_empty());
    }

    #[test]
    fn memoized_predictor_agrees_with_inner() {
        let (w, _, _) = setup(6);
        let oracle = OraclePredictor::new(&w);
        let cached = Memoized {
            inner: oracle.clone(),
            conflict_cache: RefCell::default(),
        };
        for i in 0..5 {
            let (a, b) = (&w.changes[i], &w.changes[i + 1]);
            let direct = oracle.p_conflict(&w, a, b);
            assert_eq!(cached.p_conflict(&w, a, b), direct);
            assert_eq!(cached.p_conflict(&w, a, b), direct); // cache hit
            assert_eq!(cached.p_conflict(&w, b, a), direct); // symmetric key
        }
        assert_eq!(cached.conflict_cache.borrow().len(), 5);
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
        // `COUNT`, `all()` and `index()` all read one array; what is left
        // to pin is that no two entries of it share a display name.
        let all = StrategyKind::all();
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
            assert_eq!(s.lean().map(|c| c.canonical_kind()), Some(kind));
        }
        let baseline = Strategy::build(StrategyKind::SpeculateAll, &w, None);
        assert!(baseline.lean().is_none());
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
        assert_eq!(a, b, "same keys, same values, no marks");
        assert!(b.skipped.is_empty() && b.bypassed.is_empty());
        assert_eq!(lean.kind(), StrategyKind::SubmitQueue);
        assert!(lean.lean().is_some() && sq.lean().is_none());
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
        let plan = lean.desired_builds(&w, &pending, &g, &HashMap::new(), &HashMap::new(), 400);
        let mut per_subject: HashMap<ChangeId, usize> = HashMap::new();
        for b in &plan.builds {
            *per_subject.entry(b.key.subject).or_default() += 1;
        }
        for (id, n) in &per_subject {
            assert!(*n <= 1, "{id} got {n} builds despite universal skip");
        }
        for c in &pending {
            if !g.earlier_conflicts(c.id).is_empty() {
                assert!(plan.skipped.contains(&c.id), "{} not recorded", c.id);
            }
        }
        assert!(!plan.skipped.contains(&pending[0].id), "nothing to skip");
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
        let Plan {
            builds, bypassed, ..
        } = lean.desired_builds(&w2, &pending, &g, &HashMap::new(), &HashMap::new(), 400);
        assert!(bypassed.contains(&pending[7].id), "emergency must bypass");
        // Every bypassed change's build precedes every engine pick and
        // appears exactly once as a subject.
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
        let keys = |p: Plan| -> std::collections::HashSet<BuildKey> {
            p.builds.into_iter().map(|x| x.key).collect()
        };
        let (ka, kb) = (keys(a), keys(b));
        assert_eq!(ka, kb);
    }
}
