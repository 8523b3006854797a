//! Scenario-matrix integration tests.
//!
//! * Flaky-test clusters: the part-correlated offenders are rejected —
//!   and only them; every rejection stays justified by the ground truth
//!   across seeds, so innocent bystanders never pay for a flaky part.
//! * Determinism: scenario runs under observation replay identically
//!   and export byte-identical metrics JSON (the scenario extension of
//!   `observed_runs_are_unperturbed_and_export_identical_json`).

use sq_core::planner::{run_simulation_observed, PlannerConfig, SimFaults};
use sq_core::scenario::run_scenario;
use sq_core::strategy::{Strategy, StrategyKind};
use sq_obs::Observer;
use sq_workload::{ScenarioManifest, WorkloadBuilder};

#[test]
fn flaky_clusters_reject_offenders_never_bystanders() {
    for seed in [11u64, 12, 13] {
        let run = run_scenario(&ScenarioManifest::flaky_cluster(), seed, 120, 600)
            .expect("named manifest validates");
        let truth = run.workload.truth();
        let offenders: Vec<_> = run
            .workload
            .changes
            .iter()
            .filter(|c| truth.flaky_failure(c))
            .collect();
        assert!(
            !offenders.is_empty(),
            "seed {seed}: no flake victims — the scenario would be vacuous"
        );
        for o in &run.outcomes {
            let cell = format!("seed {seed} / {}", o.result.strategy.name());
            // The always-green invariant survives the adversary…
            o.green.as_ref().unwrap_or_else(|e| panic!("{cell}: {e}"));
            // …and every rejection is justified: flaky offenders and
            // real conflicts only, never an innocent bystander.
            o.rejections_justified
                .as_ref()
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(o.wrongful, 0, "{cell}");
            // The offenders themselves can never land: their flaky
            // failures are deterministic, not retry-away infra faults.
            for c in &offenders {
                assert!(
                    !o.result.commit_log.contains(&c.id),
                    "{cell}: flaky change {} was committed",
                    c.id
                );
            }
        }
    }
}

#[test]
fn scenario_runs_replay_and_export_identically() {
    let seed = 5u64;
    for m in ScenarioManifest::matrix() {
        let w = m.workload(seed, 60).expect("named manifest validates");
        let history = WorkloadBuilder::new(m.params().unwrap())
            .seed(seed ^ 0xA11CE)
            .n_changes(400)
            .build()
            .unwrap();
        let strategy = Strategy::build(StrategyKind::SubmitQueue, &w, Some(&history));
        let cfg = PlannerConfig {
            workers: m.workers,
            faults: Some(SimFaults::at_rate(m.infra_fault_rate, seed)),
            ..PlannerConfig::default()
        };
        let mut o1 = Observer::new();
        let r1 = run_simulation_observed(&w, &strategy, &cfg, &mut o1);
        let mut o2 = Observer::new();
        let r2 = run_simulation_observed(&w, &strategy, &cfg, &mut o2);
        // Same seed ⇒ identical replay and byte-identical exports, for
        // every adversarial scenario, not just benign traffic.
        assert_eq!(r1.commit_log, r2.commit_log, "{}", m.name);
        assert_eq!(r1.makespan, r2.makespan, "{}", m.name);
        assert_eq!(r1.builds_started, r2.builds_started, "{}", m.name);
        assert_eq!(o1.metrics.to_json(), o2.metrics.to_json(), "{}", m.name);
    }
}

#[test]
fn scenario_runner_is_deterministic() {
    let m = ScenarioManifest::revert_storm();
    let a = run_scenario(&m, 9, 50, 300).unwrap();
    let b = run_scenario(&m, 9, 50, 300).unwrap();
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.result.strategy, y.result.strategy);
        assert_eq!(x.result.commit_log, y.result.commit_log);
        assert_eq!(x.wrongful, y.wrongful);
    }
}
