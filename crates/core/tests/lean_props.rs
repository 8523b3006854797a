//! Property tests for lean speculation's safety and determinism claims.
//!
//! 1. **Skipping is never rejection.** For arbitrary seeds, rates,
//!    flag combinations, thresholds (including absurd ones), and
//!    sharded/unsharded planners: every change resolves, the mainline
//!    stays green, and no change is rejected wrongfully. A change the
//!    oracle says conflicts can only be *delayed* by a skipped or
//!    bypassed speculation — the gating build still decides it.
//! 2. **Bypass eligibility is deterministic and footprint-monotone.**
//!    Shrinking a change's footprint (fewer files, fewer affected
//!    targets, fewer parts) never revokes eligibility.
//! 3. **Same-seed lean runs are byte-identical** in their observed
//!    metrics export, and the lean report's metrics export is
//!    idempotent.

use proptest::prelude::*;
use sq_core::audit::{audit_green, audit_rejections_justified, count_wrongful_rejections};
use sq_core::planner::{run_simulation_observed, PlannerConfig, SimFaults};
use sq_core::predict::LearnedPredictor;
use sq_core::shard::{ShardPlan, ShardSpec};
use sq_core::strategy::Strategy as SqStrategy;
use sq_core::{bypass_eligible, LeanConfig};
use sq_obs::Observer;
use sq_sim::{SimDuration, SimTime};
use sq_workload::change::{DevId, PartId};
use sq_workload::{ChangeId, ChangeSpec, Workload, WorkloadBuilder, WorkloadParams};
use std::sync::OnceLock;

/// One predictor for every case: training is the expensive part and the
/// safety properties must hold for *any* model, so an arbitrary fixed
/// one is as good as a per-case one.
fn predictor() -> &'static LearnedPredictor {
    static PREDICTOR: OnceLock<LearnedPredictor> = OnceLock::new();
    PREDICTOR.get_or_init(|| {
        let history = WorkloadBuilder::new(WorkloadParams::ios())
            .seed(0xC0FFEE)
            .n_changes(400)
            .build()
            .expect("valid history params");
        LearnedPredictor::train(&history, 0xFEED).0
    })
}

fn workload(seed: u64, rate: f64, n: usize) -> Workload {
    WorkloadBuilder::new(WorkloadParams::ios().with_rate(rate))
        .seed(seed)
        .n_changes(n)
        .build()
        .expect("valid workload params")
}

fn arb_config() -> impl Strategy<Value = LeanConfig> {
    // Thresholds beyond any calibrated value included on purpose: even
    // "skip everything" must only cost latency.
    let threshold = prop_oneof![Just(None), (0.0f64..1.0).prop_map(Some)];
    (threshold, any::<bool>(), any::<bool>()).prop_map(|(skip_threshold, prioritize, bypass)| {
        LeanConfig {
            skip_threshold,
            prioritize,
            bypass,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Property 1: lean planning can never turn a skip into a rejection.
    #[test]
    fn lean_runs_resolve_everything_green_with_no_wrongful_rejections(
        seed in 0u64..1000,
        rate in 120.0f64..400.0,
        config in arb_config(),
        workers in 12usize..60,
        fault in prop_oneof![Just(0.0), Just(0.08)],
        shards in 0usize..3,
    ) {
        let n = 24;
        let w = workload(seed, rate, n);
        let strategy = SqStrategy::lean_with(predictor().clone(), config);
        let plan = (shards > 0).then(|| ShardPlan::round_robin(w.params.n_parts, shards));
        let planner_config = PlannerConfig {
            workers,
            faults: (fault > 0.0).then(|| SimFaults::at_rate(fault, seed)),
            shards: plan.map(|p| ShardSpec::proportional(p, &w, workers)),
            ..PlannerConfig::default()
        };
        let mut obs = Observer::disabled();
        let result = run_simulation_observed(&w, &strategy, &planner_config, &mut obs);
        prop_assert_eq!(result.records.len(), n, "every change must resolve");
        prop_assert!(audit_green(&w, &result).is_ok(), "mainline went red");
        prop_assert!(audit_rejections_justified(&w, &result).is_ok());
        prop_assert_eq!(count_wrongful_rejections(&w, &result), 0);
        // Skip accounting stays consistent whenever the planner kept it.
        if let Some(report) = result.lean {
            prop_assert_eq!(report.skip_hits + report.skip_misses, report.skipped);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Property 3: same-seed lean runs export byte-identical metrics.
    #[test]
    fn same_seed_lean_runs_export_byte_identical_metrics(
        seed in 0u64..1000,
        config in arb_config(),
    ) {
        let w = workload(seed, 250.0, 20);
        let planner_config = PlannerConfig {
            workers: 30,
            faults: Some(SimFaults::at_rate(0.05, seed)),
            ..PlannerConfig::default()
        };
        let run = || {
            let strategy = SqStrategy::lean_with(predictor().clone(), config);
            let mut obs = Observer::new();
            let result = run_simulation_observed(&w, &strategy, &planner_config, &mut obs);
            (obs.metrics.to_json(), result)
        };
        let (json_a, result_a) = run();
        let (json_b, result_b) = run();
        prop_assert_eq!(json_a, json_b, "same-seed observed exports diverged");
        prop_assert_eq!(result_a.lean, result_b.lean);
        // And the lean counters export idempotently, per the workspace's
        // periodic-export discipline.
        if let Some(report) = result_a.lean {
            sq_obs::check::assert_idempotent_export(|m| report.record_into(m));
        }
    }
}

fn spec(files: u32, targets: u32, n_parts: usize, graph: bool, presubmit: bool) -> ChangeSpec {
    ChangeSpec {
        id: ChangeId(1),
        submit_time: SimTime::ZERO,
        build_duration: SimDuration::from_mins(30),
        developer: DevId(0),
        revision: 1,
        revision_attempt: 0,
        has_revert_plan: false,
        has_test_plan: true,
        files_changed: files,
        lines_added: 10,
        lines_removed: 2,
        git_commits: 1,
        affected_targets: targets,
        presubmit_passed: presubmit,
        parts: (0..n_parts as u32).map(PartId).collect(),
        alters_build_graph: graph,
        emergency: false,
        intrinsic_success: true,
        intrinsic_success_prob: 0.9,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Property 2: bypass eligibility is a deterministic, footprint-
    /// monotone predicate.
    #[test]
    fn bypass_eligibility_is_deterministic_and_footprint_monotone(
        (files, targets, n_parts) in (0u32..20, 0u32..20, 0usize..4),
        (graph, presubmit, emergency) in (any::<bool>(), any::<bool>(), any::<bool>()),
        (shrink_files, shrink_targets, shrink_parts) in (0u32..20, 0u32..20, 0usize..4),
    ) {
        let mut c = spec(files, targets, n_parts, graph, presubmit);
        c.emergency = emergency;
        // Deterministic: same change, same verdict.
        prop_assert_eq!(bypass_eligible(&c), bypass_eligible(&c.clone()));
        // Monotone: a change differing only by a smaller footprint can
        // only gain eligibility, never lose it.
        let mut smaller = c.clone();
        smaller.files_changed = c.files_changed.min(shrink_files);
        smaller.affected_targets = c.affected_targets.min(shrink_targets);
        smaller.parts.truncate(c.parts.len().min(shrink_parts));
        if bypass_eligible(&c) {
            prop_assert!(bypass_eligible(&smaller), "shrinking revoked eligibility");
        }
        // Emergencies are always eligible, whatever the footprint.
        let mut e = spec(400, 900, 3, true, false);
        e.emergency = true;
        prop_assert!(bypass_eligible(&e));
    }
}
