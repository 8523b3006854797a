//! Flake-rate sweep: how much infrastructure flakiness costs, and that
//! it never costs *correctness*.
//!
//! Sweeps the per-attempt infra-fault probability over the controlled
//! replay workload (300 changes/hour, SubmitQueue strategy) and reports
//! for each rate: wrongly-rejected changes (must stay 0 at every rate —
//! infra evidence is never grounds for rejection), retried build
//! attempts, backoff charged, and the turnaround/makespan inflation
//! relative to the fault-free baseline.

use sq_core::audit::{
    audit_green, audit_rejections_justified, count_wrongful_rejections, recovery_report,
};
use sq_core::planner::{run_simulation, PlannerConfig, SimFaults};
use sq_core::strategy::StrategyKind;
use sq_sim::Cdf;

const FLAKE_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

pub(super) fn run(smoke: bool) {
    let rate = 300.0;
    let workers = 128;
    let workload = crate::workload_at_rate(rate, smoke);
    let predictor = crate::trained_predictor(smoke);
    let strategy = crate::strategy_for(StrategyKind::SubmitQueue, &workload, &predictor, smoke);

    println!(
        "Flake sweep — SubmitQueue, {rate:.0} changes/hour, {workers} workers, \
         {} changes",
        workload.changes.len()
    );
    println!(
        "{:>6} {:>7} {:>9} {:>8} {:>9} {:>9} {:>9} {:>10}",
        "flake", "wrong", "retries", "backoff", "p50 turn", "p95 turn", "makespan", "quarantine"
    );

    let mut rows = Vec::new();
    let mut baseline_makespan = 0.0_f64;
    for &flake in &FLAKE_RATES {
        let config = PlannerConfig {
            workers,
            faults: (flake > 0.0).then(|| SimFaults::at_rate(flake, crate::BENCH_SEED ^ 0xF1A4E)),
            ..PlannerConfig::default()
        };
        let result = run_simulation(&workload, &strategy, &config);

        // Correctness gates: green mainline, every rejection justified
        // by content or real conflict — never by an injected fault.
        audit_green(&workload, &result).expect("mainline stays green under faults");
        audit_rejections_justified(&workload, &result).expect("no infra-caused rejections");
        let wrong = count_wrongful_rejections(&workload, &result);
        assert_eq!(wrong, 0, "flake rate {flake}: wrongly rejected changes");

        let cdf = Cdf::from_samples(&result.turnarounds_mins());
        let p50 = cdf.quantile(0.5).unwrap_or(0.0);
        let p95 = cdf.quantile(0.95).unwrap_or(0.0);
        let makespan = result.makespan.as_hours_f64();
        if flake == 0.0 {
            baseline_makespan = makespan;
        }
        println!(
            "{flake:>6.2} {wrong:>7} {:>9} {:>7.1}m {p50:>8.1}m {p95:>8.1}m {:>8.2}h {:>10}",
            result.infra_retries,
            result.infra_backoff.as_mins_f64(),
            makespan,
            result.quarantined.len(),
        );
        println!("        [{}]", recovery_report(&result));
        rows.push(format!(
            "{flake},{wrong},{},{:.2},{p50:.2},{p95:.2},{makespan:.3},{}",
            result.infra_retries,
            result.infra_backoff.as_mins_f64(),
            result.quarantined.len(),
        ));
    }
    crate::write_csv(
        "flake_sweep.csv",
        "flake_rate,wrongly_rejected,infra_retries,backoff_mins,p50_turnaround_mins,\
         p95_turnaround_mins,makespan_hours,quarantined",
        &rows,
    );
    println!(
        "\nwrongly-rejected stays 0 at every flake rate; faults only add latency \
         (baseline makespan {baseline_makespan:.2}h)"
    );
}
