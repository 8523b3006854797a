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
use crate::lean::{bypass_eligible, LeanConfig, SKIP_MISS_BUDGET};
use crate::predict::{LearnedPredictor, OraclePredictor, Predictor, Roster, UniformPredictor};
use crate::speculation::{Pick, PlannedBuild, Row, Table};
use sq_workload::{ChangeId, ChangeSpec, Workload};
use std::ops::Deref;
use std::sync::Arc;

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
/// [`Strategy::desired_builds`], is a pure function of the lane's table
/// it is shown. Cloning one shares its predictor.
///
/// Only the Oracle is bound to a workload, through that workload's
/// ground truth; every other instance may plan any workload, one after
/// another or at once. What a round derives from the predictor lives in
/// the table's rows, not here.
#[derive(Clone)]
pub struct Strategy {
    /// The kind this instance reports as.
    kind: StrategyKind,
    /// Where the speculation engine's probabilities come from: the
    /// trained models, one workload's ground truth, or 50/50 on
    /// everything. `None`: Optimistic and Single-Queue list their keys
    /// directly.
    predictor: Option<Arc<dyn Predictor + Send + Sync>>,
    /// The flags of a lean instance (the three lean kinds are canonical
    /// single-flag configs; benches also run combined configs).
    lean: Option<LeanConfig>,
}

/// What one planning round decided: `builds`, then `picks`, best first,
/// at most `budget` entries in all.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Plan {
    /// Builds named outright: a direct policy's, or the bypass lane's.
    pub(crate) builds: Vec<PlannedBuild>,
    /// The speculation engine's selection over the window's table.
    pub(crate) picks: Vec<Pick>,
    /// Changes whose speculation was probability-gated down to their
    /// single most likely pattern this round, ascending.
    pub(crate) skipped: Vec<ChangeId>,
    /// Changes routed through the bypass lane this round, ascending.
    pub(crate) bypassed: Vec<ChangeId>,
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
            StrategyKind::Oracle => baseline(Some(Arc::new(OraclePredictor::new(workload)))),
            StrategyKind::SpeculateAll => baseline(Some(Arc::new(UniformPredictor))),
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
            predictor: Some(Arc::new(predictor)),
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

    /// The desired builds for a lane's pending window, with the lean
    /// marks this round put on changes (none off the lean path).
    ///
    /// `table` holds the window's rows (see [`Table`]); `roster` names
    /// their developers; `graph` covers at least the pending set. Engine
    /// strategies refresh the table first, so what they read is what a
    /// table filled from nothing would hold. Every key already includes
    /// its subject's committed prefix.
    ///
    /// On the engine path this is SubmitQueue's selection plus whichever
    /// of the three optimizations of the 2025 sequel the instance's
    /// flags turn on; with none on, the selector runs with benefit 1
    /// and no pattern cap. Safety argument (audited in the `lean` bench
    /// suite and the lean proptests): nothing here touches the planner's
    /// *gating* path. A change still commits or rejects only through its
    /// realized build, so the worst a wrong skip or bypass can do is
    /// schedule a build that later gets contradicted and aborted — pure
    /// latency, never a wrongful rejection and never a red mainline.
    pub(crate) fn desired_builds<S: Deref<Target = ChangeSpec>>(
        &self,
        roster: &dyn Roster,
        graph: &ConflictGraph,
        table: &mut Table<S>,
        budget: usize,
    ) -> Plan {
        let mut plan = Plan::default();
        let Some(predictor) = self.predictor.as_deref() else {
            // Both direct policies build a change on top of every
            // earlier conflicting pending change (the single
            // most-optimistic path; a predictor certain of success would
            // produce the same keys through the engine). Optimistic does
            // so for every change; Single-Queue only once none is left,
            // so it builds against the exact committed prefix.
            let optimistic = self.kind == StrategyKind::Optimistic;
            let ready = table
                .rows()
                .iter()
                .filter(|r| optimistic || !graph.has_earlier_conflicts(r.id()));
            plan.builds.extend(ready.take(budget).map(|r| PlannedBuild {
                key: r.key_with(graph.earlier_conflicts(r.id())),
                value: 1.0,
            }));
            return plan;
        };
        table.refresh(roster, graph, predictor);
        let flags = self.lean.unwrap_or_else(LeanConfig::baseline);

        // Bypass lane: policy-eligible changes get exactly one build —
        // their *expected-mainline* build (most-likely outcome pattern)
        // — placed ahead of all speculation.
        if flags.bypass {
            let rows = table.rows().iter().filter(|r| bypass_eligible(r.spec()));
            for r in rows.take(budget) {
                plan.bypassed.push(r.id());
                let mut assumed = graph.earlier_conflicts(r.id());
                assumed.retain(|&d| table.get(d).is_some_and(|d| d.p_commit() >= 0.5));
                plan.builds.push(PlannedBuild {
                    key: r.key_with(assumed),
                    value: 1.0,
                });
            }
        }

        // Probability-gated skipping: low-risk changes are capped at a
        // single (most-likely) pattern instead of a fan-out. Only
        // changes that actually have earlier pending conflicters are
        // counted as skips — for everyone else there is nothing to skip.
        // A row's risk is its predicted conflict risk against its
        // earlier *pending* conflicters, `1 − Π (1 − P_conf(d, c))`: the
        // score space the skip threshold was calibrated in. (Rows are
        // id-sorted, so both mark lists are too.)
        if let Some(threshold) = flags.skip_threshold {
            for r in table.rows() {
                if plan.bypassed.binary_search(&r.id()).is_err()
                    && graph.has_earlier_conflicts(r.id())
                    && r.risk() < threshold
                {
                    plan.skipped.push(r.id());
                }
            }
        }

        let benefit = |r: &Row<S>| {
            if flags.prioritize {
                1.0 + r.risk()
            } else {
                1.0
            }
        };
        let mut picks = table.select(budget.saturating_sub(plan.builds.len()), benefit, |r| {
            if plan.bypassed.binary_search(&r.id()).is_ok() {
                0
            } else if plan.skipped.binary_search(&r.id()).is_ok() {
                1
            } else {
                usize::MAX
            }
        });
        // The build-granular half of probability-gated skipping: a
        // speculative pattern whose P_needed sits below the calibrated
        // threshold is dropped instead of letting it backfill the
        // budget (the planner schedules each change's gating build out
        // of band, so the fallback is the plain mainline build and the
        // only possible cost is latency). Without this, per-change
        // skips just hand their slots to even less likely patterns of
        // other changes and the wasted-build count is conserved.
        if let Some(threshold) = flags.skip_threshold {
            picks.retain(|p| p.value / benefit(&table.rows()[p.row]) >= threshold);
        }
        plan.picks = picks;
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::IndexedAnalyzer;
    use crate::predict::SpeculationCounters;
    use crate::speculation::BuildKey;
    use sq_workload::{WorkloadBuilder, WorkloadParams};
    use std::collections::HashMap;

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

    impl Strategy {
        /// The predictor of an engine strategy.
        pub(crate) fn predictor(&self) -> Option<&(dyn Predictor + Send + Sync)> {
            self.predictor.as_deref()
        }
    }

    /// A round over a fresh table of `pending`: the plan, and every build
    /// it names (`builds`, then the picks' keys) with its value.
    fn plan_over(
        s: &Strategy,
        w: &Workload,
        pending: &[&ChangeSpec],
        g: &ConflictGraph,
        budget: usize,
    ) -> (Plan, Vec<PlannedBuild>) {
        let mut table = Table::default();
        for &c in pending {
            table.arrive(c, SpeculationCounters::default());
        }
        let plan = s.desired_builds(w, g, &mut table, budget);
        let picked = plan.picks.iter().map(|p| PlannedBuild {
            key: table.key(p).clone(),
            value: p.value,
        });
        let builds = plan.builds.iter().cloned().chain(picked).collect();
        (plan, builds)
    }

    #[test]
    fn optimistic_emits_one_build_per_change() {
        let (w, g, _) = setup(10);
        let pending: Vec<&ChangeSpec> = w.changes[..10].iter().collect();
        let strategy = Strategy::build(StrategyKind::Optimistic, &w, None);
        let (_, builds) = plan_over(&strategy, &w, &pending, &g, 100);
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
        let strategy = Strategy::build(StrategyKind::SingleQueue, &w, None);
        let (_, builds) = plan_over(&strategy, &w, &pending, &g, 100);
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
        let strategy = Strategy::build(StrategyKind::SpeculateAll, &w, None);
        let (_, builds) = plan_over(&strategy, &w, &pending, &g, 64);
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
        let (plan, builds) = plan_over(&strategy, &w, &pending, &g, 1000);
        assert_eq!(builds.len(), 12);
        assert!(plan.skipped.is_empty() && plan.bypassed.is_empty());
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
        let a = plan_over(&sq, &w, &pending, &g, 40);
        let b = plan_over(&lean, &w, &pending, &g, 40);
        assert_eq!(a, b, "same keys, same values, no marks");
        assert!(b.0.skipped.is_empty() && b.0.bypassed.is_empty());
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
        let (plan, builds) = plan_over(&lean, &w, &pending, &g, 400);
        let mut per_subject: HashMap<ChangeId, usize> = HashMap::new();
        for b in &builds {
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
        let (Plan { bypassed, .. }, builds) = plan_over(&lean, &w2, &pending, &g, 400);
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
        let a = plan_over(&sq, &w, &pending, &g, 1000);
        let b = plan_over(&lean, &w, &pending, &g, 1000);
        // Unbounded budget: same build set (weights reorder, never drop).
        let keys = |(_, builds): (Plan, Vec<PlannedBuild>)| -> std::collections::HashSet<BuildKey> {
            builds.into_iter().map(|x| x.key).collect()
        };
        let (ka, kb) = (keys(a), keys(b));
        assert_eq!(ka, kb);
    }
}
