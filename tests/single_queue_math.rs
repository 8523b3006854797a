//! Section 2.2's back-of-envelope: "with a thousand changes per day,
//! where each change takes 30 minutes to pass all build steps, the
//! turnaround time of the last enqueued change will be over 20 days" —
//! verified in closed form and cross-checked against the simulator with
//! the Single-Queue strategy on a fully conflicting workload.

use sq_core::planner::{run_simulation, PlannerConfig};
use sq_core::strategy::{Strategy, StrategyKind};
use sq_sim::SimDuration;
use sq_workload::{WorkloadBuilder, WorkloadParams};

#[test]
fn closed_form_twenty_days() {
    // 1000 changes × 30 minutes, strictly serialized.
    let serial = SimDuration::from_mins(30) * 1000;
    let days = serial.as_mins_f64() / (60.0 * 24.0);
    assert!(days > 20.0, "serial backlog is {days:.1} days");
    assert!((days - 20.8).abs() < 0.1);
}

#[test]
fn simulator_reproduces_the_serial_backlog_shape() {
    // Scaled down 20×: 50 changes arriving in one burst, every pair
    // conflicting (analyzer off), constant-ish build times. The last
    // change's turnaround must be ≈ n × (build + overhead).
    let mut params = WorkloadParams::ios().with_rate(100_000.0); // near-simultaneous burst
    params.duration_sigma = 0.01; // nearly constant durations
    params.duration_median_mins = 30.0;
    params.duration_min_mins = 29.0;
    params.duration_max_mins = 31.0;
    params.success_base_logit = 50.0; // everyone succeeds: pure queueing
    params.pairwise_conflict_prob = 0.0;
    let w = WorkloadBuilder::new(params)
        .seed(8)
        .n_changes(50)
        .build()
        .unwrap();
    let strategy = Strategy::build(StrategyKind::SingleQueue, &w, None);
    let config = PlannerConfig {
        workers: 50,
        conflict_analyzer: false, // every change conflicts ⇒ one queue
        ..PlannerConfig::default()
    };
    let r = run_simulation(&w, &strategy, &config);
    assert_eq!(r.committed(), 50);
    let last = r.records.iter().max_by_key(|rec| rec.resolved).unwrap();
    let serial_estimate = 50.0 * 31.0; // n × (build + overhead) minutes
    let measured = last.turnaround.as_mins_f64();
    assert!(
        (measured - serial_estimate).abs() / serial_estimate < 0.15,
        "last turnaround {measured:.0} min vs serial estimate {serial_estimate:.0} min"
    );
}

#[test]
fn speculation_collapses_the_backlog() {
    // Same burst, same serial queue shape — but the Oracle speculates,
    // so all 50 builds run concurrently and the backlog collapses from
    // ~25 hours to ~the longest single build.
    let mut params = WorkloadParams::ios().with_rate(100_000.0);
    params.duration_sigma = 0.01;
    params.duration_median_mins = 30.0;
    params.duration_min_mins = 29.0;
    params.duration_max_mins = 31.0;
    params.success_base_logit = 50.0;
    params.pairwise_conflict_prob = 0.0;
    let w = WorkloadBuilder::new(params)
        .seed(8)
        .n_changes(50)
        .build()
        .unwrap();
    let oracle = Strategy::build(StrategyKind::Oracle, &w, None);
    let config = PlannerConfig {
        workers: 50,
        conflict_analyzer: false,
        ..PlannerConfig::default()
    };
    let r = run_simulation(&w, &oracle, &config);
    assert_eq!(r.committed(), 50);
    let worst = r
        .records
        .iter()
        .map(|rec| rec.turnaround.as_mins_f64())
        .fold(0.0, f64::max);
    assert!(
        worst < 120.0,
        "oracle speculation should finish the burst in ~one build time, got {worst:.0} min"
    );
}
