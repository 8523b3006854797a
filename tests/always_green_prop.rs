//! Property tests for the paper's headline guarantee: under *any*
//! workload and *any* scheduling strategy, the planner never lets a red
//! commit reach the mainline, never loses a change, and never leaks
//! workers.

use proptest::prelude::*;
use sq_core::audit::audit_green;
use sq_core::batching::{simulate_batching, BatchingConfig};
use sq_core::pending::ChangeOutcome;
use sq_core::planner::{run_simulation, PlannerConfig};
use sq_core::strategy::{Strategy, StrategyKind};
use sq_workload::{WorkloadBuilder, WorkloadParams};

fn arb_strategy_kind() -> impl Strategy2 {
    prop_oneof![
        Just(StrategyKind::Oracle),
        Just(StrategyKind::SpeculateAll),
        Just(StrategyKind::Optimistic),
        Just(StrategyKind::SingleQueue),
    ]
}

// Helper trait alias to keep the signature readable.
trait Strategy2: proptest::strategy::Strategy<Value = StrategyKind> {}
impl<T: proptest::strategy::Strategy<Value = StrategyKind>> Strategy2 for T {}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn planner_keeps_master_green(
        seed in 0u64..10_000,
        rate in 50f64..400.0,
        n_changes in 20usize..80,
        workers in 20usize..200,
        kind in arb_strategy_kind(),
        analyzer in any::<bool>(),
    ) {
        let w = WorkloadBuilder::new(WorkloadParams::ios().with_rate(rate))
            .seed(seed)
            .n_changes(n_changes)
            .build()
            .unwrap();
        let strategy = Strategy::build(kind, &w, None);
        let config = PlannerConfig {
            workers,
            conflict_analyzer: analyzer,
            ..PlannerConfig::default()
        };
        let r = run_simulation(&w, &strategy, &config);

        // 1. Liveness: every change resolves exactly once.
        prop_assert_eq!(r.records.len(), n_changes);
        let mut ids: Vec<_> = r.records.iter().map(|rec| rec.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n_changes);

        // 2. Safety: the commit log is green at every point.
        if let Err(e) = audit_green(&w, &r) {
            return Err(TestCaseError::fail(format!("{} broke master: {e}", kind.name())));
        }

        // 3. Accounting: commit log matches records; makespan covers all
        // resolutions; turnarounds are non-negative by construction.
        let committed = r.records.iter().filter(|rec| rec.outcome == ChangeOutcome::Committed).count();
        prop_assert_eq!(committed, r.commit_log.len());
        for rec in &r.records {
            prop_assert!(rec.resolved >= rec.submitted);
            prop_assert!(rec.resolved <= r.makespan);
        }

        // 4. Sanity: utilization is a fraction; no negative waste.
        prop_assert!((0.0..=1.0).contains(&r.utilization));
        prop_assert!(r.builds_aborted <= r.builds_started);
    }

    #[test]
    fn batching_pipeline_keeps_master_green(
        seed in 0u64..5_000,
        rate in 50f64..400.0,
        n_changes in 20usize..80,
        max_batch in 1usize..12,
        workers in 1usize..60,
    ) {
        let w = WorkloadBuilder::new(WorkloadParams::ios().with_rate(rate))
            .seed(seed)
            .n_changes(n_changes)
            .build()
            .unwrap();
        let r = simulate_batching(
            &w,
            &BatchingConfig {
                max_batch,
                workers,
            },
        );
        // Liveness: everyone resolves exactly once.
        prop_assert_eq!(r.records.len(), n_changes);
        let mut ids: Vec<_> = r.records.iter().map(|rec| rec.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n_changes);
        // Safety: commits are individually good and pairwise conflict-free
        // across overlapping windows.
        let truth = w.truth();
        for (k, &(c_id, _)) in r.commits.iter().enumerate() {
            let c = &w.changes[c_id.0 as usize];
            prop_assert!(truth.succeeds_alone(c));
            for &(d_id, d_time) in &r.commits[..k] {
                let d = &w.changes[d_id.0 as usize];
                if c.submit_time < d_time {
                    prop_assert!(!truth.real_conflict(c, d),
                        "batching committed conflicting {} and {}", c_id, d_id);
                }
            }
        }
        // Accounting: at least one build per batch is needed, and with
        // max_batch = 1 it is exactly one build per change (no bisection
        // possible — singleton failures reject directly).
        prop_assert!(r.builds_run as usize >= n_changes.div_ceil(max_batch));
        if max_batch == 1 {
            prop_assert_eq!(r.builds_run as usize, n_changes);
        }
    }

    #[test]
    fn oracle_dominates_every_other_strategy(
        seed in 0u64..2_000,
        kind in prop_oneof![
            Just(StrategyKind::SpeculateAll),
            Just(StrategyKind::Optimistic),
            Just(StrategyKind::SingleQueue),
        ],
    ) {
        let w = WorkloadBuilder::new(WorkloadParams::ios().with_rate(200.0))
            .seed(seed)
            .n_changes(60)
            .build()
            .unwrap();
        let config = PlannerConfig { workers: 100, ..PlannerConfig::default() };
        let oracle = run_simulation(&w, &Strategy::build(StrategyKind::Oracle, &w, None), &config);
        let other = run_simulation(&w, &Strategy::build(kind, &w, None), &config);
        let (o50, _, _) = oracle.turnaround_p50_p95_p99();
        let (x50, _, _) = other.turnaround_p50_p95_p99();
        // Oracle is the normalization floor of Section 8 (tiny tolerance
        // for ties in discrete event ordering).
        prop_assert!(x50 >= o50 * 0.999, "{} P50 {} < oracle {}", kind.name(), x50, o50);
        // And the oracle never wastes a build.
        prop_assert_eq!(oracle.builds_aborted, 0);
    }
}
