//! The decision core under a driver with no clock.
//!
//! The simulator can only finish builds in the order their durations
//! dictate. This second driver feeds [`Core`] arrivals interleaved at
//! random with completions, finishes running builds in a seeded random
//! order and turns one attempt in ten infra-red — and the rule that
//! keeps the mainline green must hold regardless, for every strategy,
//! with reordering, sharded lanes and a quarantine threshold mixed in.

use sq_core::decision::{Action, BuildId, Core, Outcome};
use sq_core::planner::{PlannerConfig, SimFaults};
use sq_core::predict::LearnedPredictor;
use sq_core::shard::{ShardPlan, ShardSpec};
use sq_core::strategy::{Strategy, StrategyKind};
use sq_core::{BuildKey, SKIP_MISS_BUDGET};
use sq_sim::Xoshiro256StarStar;
use sq_workload::{ChangeId, ChangeSpec, Workload, WorkloadBuilder, WorkloadParams};
use std::collections::HashMap;

const N: usize = 60;

fn workload(seed: u64, n: usize) -> Workload {
    WorkloadBuilder::new(WorkloadParams::ios().with_rate(400.0))
        .seed(seed)
        .n_changes(n)
        .build()
        .expect("valid workload params")
}

/// What a run did: every action in order, and per change the step it
/// arrived at and the (step, committed) it resolved with.
#[derive(Default, PartialEq, Debug)]
struct Trace {
    actions: Vec<Action>,
    arrived: HashMap<ChangeId, usize>,
    resolved: HashMap<ChangeId, (usize, bool)>,
    commit_log: Vec<ChangeId>,
}

fn drive(w: &Workload, strategy: &Strategy, config: &PlannerConfig, seed: u64) -> Trace {
    let truth = w.truth();
    let spec = |id: ChangeId| -> &ChangeSpec { &w.changes[id.0 as usize] };
    let mut core = Core::new(strategy, config);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut trace = Trace::default();
    let mut live: Vec<(BuildId, BuildKey, usize)> = Vec::new();
    let mut out = Vec::new();
    let mut next_arrival = 0;
    for step in 0.. {
        if next_arrival == w.changes.len() && live.is_empty() {
            break;
        }
        // One input: the next arrival, or any running build finishing.
        if next_arrival < w.changes.len() && (live.is_empty() || rng.bernoulli(0.5)) {
            core.arrive(&w.changes[next_arrival]);
            trace.arrived.insert(w.changes[next_arrival].id, step);
            next_arrival += 1;
        } else {
            let at = rng.next_below(live.len() as u64) as usize;
            let (build, key, _) = live[at].clone();
            let outcome = if rng.bernoulli(0.1) {
                Outcome::Infra
            } else {
                live.swap_remove(at);
                let assumed = key.assumed.iter().map(|&a| spec(a));
                match truth.build_succeeds(spec(key.subject), assumed) {
                    true => Outcome::Green,
                    false => Outcome::Red,
                }
            };
            core.finished(build, outcome, &mut out);
        }
        for lane in 0..core.n_lanes() {
            core.plan(w, lane, &|_| 0.5, &mut out);
        }
        for action in out.drain(..) {
            match &action {
                Action::Start {
                    build, key, lane, ..
                } => {
                    live.push((*build, key.clone(), *lane));
                    let busy = live.iter().filter(|(_, _, l)| l == lane).count();
                    assert!(busy <= core.budget(*lane), "lane {lane} over budget");
                }
                Action::Abort { build, .. } => {
                    let at = live.iter().position(|(b, _, _)| b == build);
                    live.swap_remove(at.expect("Abort names a live build"));
                }
                Action::Retry { build, .. } => {
                    assert!(live.iter().any(|(b, _, _)| b == build), "Retry: not live");
                }
                Action::Resolved {
                    change, committed, ..
                } => {
                    let again = trace.resolved.insert(*change, (step, *committed));
                    assert_eq!(again, None, "{change} resolved twice");
                    if *committed {
                        trace.commit_log.push(*change);
                    }
                }
            }
            trace.actions.push(action);
        }
        for lane in 0..core.n_lanes() {
            let busy = live.iter().filter(|(_, _, l)| *l == lane).count();
            assert_eq!(
                busy,
                core.busy(lane),
                "driver and core disagree on lane {lane}"
            );
        }
    }
    trace
}

/// `audit_green` and `audit_rejections_justified` with concurrency
/// windows counted in steps: `c` was in flight when `d` landed.
fn audit(w: &Workload, t: &Trace) {
    let truth = w.truth();
    let spec = |id: ChangeId| &w.changes[id.0 as usize];
    let breaks = |c: ChangeId, d: ChangeId| {
        t.arrived[&c] < t.resolved[&d].0 && truth.real_conflict(spec(c), spec(d))
    };
    assert_eq!(t.resolved.len(), w.changes.len(), "every change resolves");
    for (k, &c) in t.commit_log.iter().enumerate() {
        assert!(truth.succeeds_alone(spec(c)), "{c} committed red");
        let clash = t.commit_log[..k].iter().find(|&&d| breaks(c, d));
        assert_eq!(clash, None, "{c} committed onto a real conflict");
    }
    for (&c, &(_, committed)) in &t.resolved {
        let justified =
            !truth.succeeds_alone(spec(c)) || t.commit_log.iter().any(|&d| breaks(c, d));
        assert!(committed || justified, "{c} was wrongly rejected");
    }
}

#[test]
fn any_completion_order_keeps_master_green() {
    let history = workload(0xA11CE, 2_000);
    let (predictor, _) = LearnedPredictor::train(&history, 0xFEED);
    let threshold = predictor.calibrate_skip_threshold(&history, SKIP_MISS_BUDGET);
    for seed in 0..6u64 {
        let w = workload(seed, N);
        let shards = ShardSpec::even(ShardPlan::round_robin(300, 3), 12);
        let config = PlannerConfig {
            workers: 8,
            // Half the seeds serialize everything: deep speculation.
            conflict_analyzer: seed < 3,
            reorder: seed % 2 == 1,
            preemption_guard: (seed % 3 == 2).then_some(0.8),
            shards: (seed % 3 == 0).then_some(shards),
            faults: Some(SimFaults::at_rate(0.1, seed)),
            ..PlannerConfig::default()
        };
        for kind in StrategyKind::all() {
            let strategy = Strategy::for_kind(kind, &w, || predictor.clone(), |_| threshold);
            let trace = drive(&w, &strategy, &config, seed);
            audit(&w, &trace);
            assert!(
                trace
                    .actions
                    .iter()
                    .any(|a| matches!(a, Action::Retry { .. })),
                "{} seed {seed}: the infra dice never fired",
                kind.name()
            );
            // The action list is a function of the inputs alone.
            let again = drive(&w, &strategy, &config, seed);
            assert_eq!(trace, again, "{} seed {seed}", kind.name());
        }
    }
}
