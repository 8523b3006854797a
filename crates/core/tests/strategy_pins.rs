//! Decision pins for the planning path.
//!
//! The committed `BENCH_*.json` documents pin the planner's decisions
//! cell by cell, but none of them runs lean flags, sharded lanes and
//! infra faults *together*. This suite does: one fixed workload through
//! every [`StrategyKind`] (and the all-on lean configuration) on a
//! four-shard, 5 %-fault planner, each run folded into one `u64` and
//! compared with a recorded constant. One more pin runs the shape of the
//! benchmark's `plan_sim` workload: one wide lane, deep patterns. A
//! refactor of `core::strategy`, `core::speculation`, the decision core's
//! kept tables or the planner's lean accounting that changes any commit,
//! verdict, resolution time, build count or lean counter moves a
//! constant.

use sq_core::planner::{run_simulation, PlannerConfig, SimFaults, SimResult};
use sq_core::predict::LearnedPredictor;
use sq_core::shard::{ShardPlan, ShardSpec};
use sq_core::strategy::{Strategy, StrategyKind};
use sq_core::{ChangeOutcome, LeanConfig, SKIP_MISS_BUDGET};
use sq_workload::{Workload, WorkloadBuilder, WorkloadParams};
use std::sync::OnceLock;

const SEED: u64 = 0x51A7;

/// `PINS[kind.index()]` for the eight kinds through the shared-predictor
/// path, then `lean_with(LeanConfig::all_on(threshold))`. Recorded at the
/// commit before `Strategy` became one struct; they change only when a
/// PR means to change what the planner decides.
const PINS: [u64; StrategyKind::COUNT + 1] = [
    0x740F_3AA7_1D8B_CDDA, // SubmitQueue
    0x9729_C674_16DF_FDC5, // Oracle
    0x30A0_0E2D_A965_B0FB, // Speculate-all
    0xFF24_D211_C6AB_EA2B, // Optimistic
    0x5AD1_3C8E_2DB7_DF34, // Single-Queue
    0x1628_D74F_3527_5473, // Lean-Speculation
    0xDE64_80E3_0FA4_7D3D, // Prioritized
    0x7DCB_39CB_6EC7_58D5, // Bypass-Lane
    0xFDF5_D71D_1F72_2374, // lean_with(LeanConfig::all_on(threshold))
];

struct Fixture {
    workload: Workload,
    history: Workload,
    predictor: LearnedPredictor,
    skip_threshold: f64,
    config: PlannerConfig,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = WorkloadParams::ios().with_rate(300.0);
        let workload = WorkloadBuilder::new(params.clone())
            .seed(SEED)
            .n_changes(300)
            .build()
            .expect("valid workload params");
        let history = WorkloadBuilder::new(params.clone())
            .seed(SEED ^ 0xA11CE)
            .n_changes(2_000)
            .build()
            .expect("valid history params");
        // The seed and budget `Strategy::build` trains with, so the
        // shared instances and per-kind training must agree.
        let (predictor, _) = LearnedPredictor::train(&history, 0xFEED);
        let skip_threshold = predictor.calibrate_skip_threshold(&history, SKIP_MISS_BUDGET);
        let config = PlannerConfig {
            workers: 64,
            faults: Some(SimFaults::at_rate(0.05, SEED)),
            shards: Some(ShardSpec::even(
                ShardPlan::round_robin(params.n_parts, 4),
                64,
            )),
            ..PlannerConfig::default()
        };
        Fixture {
            workload,
            history,
            predictor,
            skip_threshold,
            config,
        }
    })
}

/// The strategy for `kind` over the fixture's one trained predictor.
fn shared(kind: StrategyKind) -> Strategy {
    let f = fixture();
    Strategy::for_kind(
        kind,
        &f.workload,
        || f.predictor.clone(),
        |_| f.skip_threshold,
    )
}

fn all_on() -> Strategy {
    let f = fixture();
    Strategy::lean_with(f.predictor.clone(), LeanConfig::all_on(f.skip_threshold))
}

fn run(strategy: &Strategy) -> SimResult {
    let f = fixture();
    run_simulation(&f.workload, strategy, &f.config)
}

/// FNV-1a over everything a decision can move.
fn fingerprint(r: &SimResult) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    fold(r.commit_log.len() as u64);
    for id in &r.commit_log {
        fold(id.0);
    }
    fold(r.records.len() as u64);
    for rec in &r.records {
        fold(rec.id.0);
        fold(matches!(rec.outcome, ChangeOutcome::Committed) as u64);
        fold(rec.resolved.as_micros());
        fold(u64::from(rec.builds_scheduled));
        fold(u64::from(rec.builds_aborted));
    }
    fold(r.builds_started);
    fold(r.builds_aborted);
    fold(r.infra_retries);
    match r.lean {
        None => fold(0),
        Some(l) => {
            fold(1);
            fold(l.skipped);
            fold(l.skip_hits);
            fold(l.skip_misses);
            fold(l.bypassed);
        }
    }
    h
}

#[test]
fn every_kind_decides_what_it_decided_when_the_pins_were_recorded() {
    let mut got: Vec<u64> = StrategyKind::all()
        .into_iter()
        .map(|kind| {
            let strategy = shared(kind);
            assert_eq!(strategy.kind(), kind);
            let result = run(&strategy);
            assert_eq!(result.records.len(), 300, "{}: all resolve", kind.name());
            assert_eq!(
                result.lean.is_some(),
                kind.lean_config(0.0).is_some(),
                "{}: a lean report exactly for the lean kinds",
                kind.name()
            );
            fingerprint(&result)
        })
        .collect();
    let lean = run(&all_on());
    let report = lean.lean.expect("all-on carries a report");
    assert!(
        report.skipped > 0 && report.bypassed > 0,
        "the cell must exercise both marks: {report:?}"
    );
    got.push(fingerprint(&lean));
    assert!(
        got == PINS,
        "planner decisions moved; this build folds to {got:#018X?}"
    );
}

/// The shape of the benchmark's `plan_sim` workload: one lane of 300
/// workers, 5 % infra faults, learned SubmitQueue, 500 iOS changes at
/// 300 an hour. Its picks nearly fill the 300-build budget and reach deep
/// outcome patterns, which the four-lane fixture above never does.
const PLAN_SIM_PIN: u64 = 0xD852_403B_927A_2484;

#[test]
fn the_plan_sim_shape_decides_what_it_decided_when_its_pin_was_recorded() {
    let f = fixture();
    let workload = WorkloadBuilder::new(WorkloadParams::ios().with_rate(300.0))
        .seed(SEED)
        .n_changes(500)
        .build()
        .expect("valid workload params");
    let config = PlannerConfig {
        workers: 300,
        faults: Some(SimFaults::at_rate(0.05, SEED)),
        ..PlannerConfig::default()
    };
    let strategy = Strategy::submit_queue_with(f.predictor.clone());
    let result = run_simulation(&workload, &strategy, &config);
    assert_eq!(result.records.len(), 500, "all resolve");
    let got = fingerprint(&result);
    assert!(
        got == PLAN_SIM_PIN,
        "planner decisions moved; this build folds to {got:#018X}"
    );
}

#[test]
fn a_lean_strategy_run_twice_reports_the_same_counters() {
    let strategy = all_on();
    let first = run(&strategy);
    let second = run(&strategy);
    assert_eq!(first.lean, second.lean);
    assert_eq!(fingerprint(&first), fingerprint(&second));
}

#[test]
fn build_trains_its_way_to_the_shared_constructors_decisions() {
    let f = fixture();
    for kind in StrategyKind::all() {
        if !kind.needs_history() {
            continue;
        }
        let strategy = Strategy::build(kind, &f.workload, Some(&f.history));
        assert_eq!(strategy.kind(), kind);
        assert_eq!(
            fingerprint(&run(&strategy)),
            PINS[kind.index()],
            "{}: Strategy::build diverged from the shared predictor",
            kind.name()
        );
    }
}
