//! Scenario-matrix runner.
//!
//! Replays a named [`ScenarioManifest`] through every scheduling
//! strategy in [`StrategyKind::all`] — the same list, so a strategy
//! added there automatically joins every scenario matrix — and audits
//! each run against the ground truth: the always-green invariant
//! ([`audit_green`]) and rejection justification
//! ([`audit_rejections_justified`], with the wrongful count surfaced for
//! reports). The SubmitQueue predictor trains on a disjoint history
//! drawn from the *same* adversarial generative process, so flaky-test
//! clusters and hub touches are part of what the models learn.

use crate::audit::{audit_green, audit_rejections_justified, count_wrongful_rejections};
use crate::lean::SKIP_MISS_BUDGET;
use crate::planner::{run_simulation, PlannerConfig, SimFaults, SimResult};
use crate::predict::LearnedPredictor;
use crate::shard::{ShardPlan, ShardReport, ShardSpec};
use crate::strategy::{Strategy, StrategyKind};
use sq_workload::{ScenarioManifest, Workload, WorkloadBuilder};

/// Seed offset separating the training history from the replayed trace.
const HISTORY_SALT: u64 = 0xA11CE;

/// One strategy's audited run through a scenario.
#[derive(Debug)]
pub struct StrategyOutcome {
    /// Which strategy ran.
    pub kind: StrategyKind,
    /// The finished simulation.
    pub result: SimResult,
    /// Always-green audit verdict.
    pub green: Result<(), String>,
    /// Rejection-justification audit verdict.
    pub rejections_justified: Result<(), String>,
    /// Number of wrongful rejections (zero whenever
    /// `rejections_justified` is `Ok`).
    pub wrongful_rejections: usize,
    /// Per-lane attribution of the run, present when the manifest
    /// requested sharded planning (`shards > 0`).
    pub shard_report: Option<ShardReport>,
}

impl StrategyOutcome {
    /// Did this run clear both audits with nothing wrongfully rejected —
    /// globally, and (when sharded) in every lane?
    pub fn clean(&self) -> bool {
        self.green.is_ok()
            && self.rejections_justified.is_ok()
            && self.wrongful_rejections == 0
            && self
                .shard_report
                .as_ref()
                .is_none_or(|r| r.total_wrongful() == 0)
    }
}

/// A fully-run, fully-audited scenario.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The manifest that was replayed.
    pub manifest: ScenarioManifest,
    /// Seed of the replayed trace (history uses a salted seed).
    pub seed: u64,
    /// The generated workload.
    pub workload: Workload,
    /// One audited outcome per entry of [`StrategyKind::all`].
    pub outcomes: Vec<StrategyOutcome>,
}

/// Replay `manifest` through every strategy with `n_changes` changes
/// (pass [`ScenarioManifest::n_changes`] for the configured duration)
/// and a disjoint `history_changes`-sized training workload.
pub fn run_scenario(
    manifest: &ScenarioManifest,
    seed: u64,
    n_changes: usize,
    history_changes: usize,
) -> Result<ScenarioRun, String> {
    let params = manifest.params()?;
    let n_parts = params.n_parts;
    let workload = manifest.workload(seed, n_changes)?;
    let history = WorkloadBuilder::new(params)
        .seed(seed ^ HISTORY_SALT)
        .n_changes(history_changes)
        .build()?;
    let plan = (manifest.shards > 0).then(|| ShardPlan::round_robin(n_parts, manifest.shards));
    let config = PlannerConfig {
        workers: manifest.workers,
        faults: (manifest.infra_fault_rate > 0.0)
            .then(|| SimFaults::at_rate(manifest.infra_fault_rate, seed)),
        shards: plan
            .clone()
            .map(|p| ShardSpec::proportional(p, &workload, manifest.workers)),
        ..PlannerConfig::default()
    };
    // Train the learned models once and share them across every kind
    // that needs them (SubmitQueue + the three lean variants) — the
    // same seed and calibration budget `Strategy::build` uses, so the
    // shared instances are decision-identical to per-kind training.
    let (predictor, _) = LearnedPredictor::train(&history, 0xFEED);
    let outcomes: Vec<StrategyOutcome> = StrategyKind::all()
        .into_iter()
        .map(|kind| {
            let strategy = Strategy::for_kind(
                kind,
                &workload,
                || predictor.clone(),
                |p| p.calibrate_skip_threshold(&history, SKIP_MISS_BUDGET),
            );
            debug_assert_eq!(strategy.kind(), kind);
            let result = run_simulation(&workload, &strategy, &config);
            let green = audit_green(&workload, &result);
            let rejections_justified = audit_rejections_justified(&workload, &result);
            let wrongful_rejections = count_wrongful_rejections(&workload, &result);
            let shard_report = plan
                .as_ref()
                .map(|p| ShardReport::from_result(&workload, &result, p));
            StrategyOutcome {
                kind,
                result,
                green,
                rejections_justified,
                wrongful_rejections,
                shard_report,
            }
        })
        .collect();
    debug_assert_eq!(outcomes.len(), StrategyKind::COUNT);
    Ok(ScenarioRun {
        manifest: manifest.clone(),
        seed,
        workload,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_scenario_runs_every_strategy_clean() {
        let run = run_scenario(&ScenarioManifest::baseline(), 3, 40, 400).unwrap();
        assert_eq!(run.outcomes.len(), StrategyKind::COUNT);
        let kinds: Vec<StrategyKind> = run.outcomes.iter().map(|o| o.kind).collect();
        assert_eq!(kinds, StrategyKind::all().to_vec());
        for o in &run.outcomes {
            assert!(
                o.clean(),
                "{}: {:?} {:?}",
                o.kind.name(),
                o.green,
                o.rejections_justified
            );
            assert_eq!(o.result.records.len(), 40);
        }
    }

    #[test]
    fn shard_stress_scenario_is_clean_per_lane_and_globally() {
        let manifest = ScenarioManifest::shard_stress();
        assert!(manifest.shards > 0, "manifest must request sharding");
        let run = run_scenario(&manifest, 5, 60, 400).unwrap();
        for o in &run.outcomes {
            let report = o
                .shard_report
                .as_ref()
                .expect("sharded scenarios carry a per-lane report");
            assert_eq!(report.lanes.len(), manifest.shards + 1);
            // Zero wrongful rejections in every lane and overall.
            for lane in &report.lanes {
                assert_eq!(
                    lane.wrongful,
                    0,
                    "{}: lane {} wrongfully rejected",
                    o.kind.name(),
                    lane.name
                );
            }
            assert!(o.clean(), "{}: {:?}", o.kind.name(), o.green);
            // The adversarial footprint mix must actually exercise the
            // arbiter lane, not just the per-shard fast paths.
            let arbiter = report.lanes.last().unwrap();
            assert!(
                arbiter.routed > 0,
                "{}: nothing reached the arbiter",
                o.kind.name()
            );
        }
    }

    #[test]
    fn invalid_manifest_is_rejected_up_front() {
        let mut m = ScenarioManifest::baseline();
        m.workers = 0;
        assert!(run_scenario(&m, 1, 10, 50).is_err());
    }
}
