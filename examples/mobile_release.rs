//! The paper's motivating incident (Section 1): "prior to the launch of
//! a new version of our mobile application for riders, hundreds of
//! changes were committed in a matter of minutes after passing tests
//! individually. Collectively though, they resulted in substantial
//! performance regression … Engineers had to spend several hours
//! bisecting the mainline."
//!
//! This example replays a release-crunch burst two ways: trunk-based
//! (the pre-SubmitQueue world — red mainline, blocked release) and
//! through SubmitQueue (always green, faulty changes rejected up front).
//!
//! Run with: `cargo run --release --example mobile_release`

use sq_core::audit::{audit_green, count_red_commits};
use sq_core::planner::{run_simulation, PlannerConfig};
use sq_core::strategy::{Strategy, StrategyKind};
use sq_core::trunk::simulate_trunk;
use sq_workload::{WorkloadBuilder, WorkloadParams};

fn main() {
    // Release crunch: 400 changes/hour against the iOS monorepo for two
    // hours — everyone lands before the branch cut.
    let workload = WorkloadBuilder::new(WorkloadParams::ios().with_rate(400.0))
        .seed(2019)
        .duration_hours(2.0)
        .build()
        .expect("valid workload");
    println!(
        "release crunch: {} changes over {:.1} hours\n",
        workload.changes.len(),
        workload.horizon().as_hours_f64()
    );

    // --- World 1: trunk-based development -------------------------------
    let trunk = simulate_trunk(&workload);
    let naive_log: Vec<_> = workload.changes.iter().map(|c| c.id).collect();
    let red_commits = count_red_commits(&workload, &naive_log);
    println!("WITHOUT SubmitQueue (trunk-based):");
    println!(
        "  mainline green only {:.0}% of the crunch",
        trunk.green_fraction * 100.0
    );
    println!(
        "  {} breakage incidents needing bisection + revert",
        trunk.breakages
    );
    println!(
        "  {} of {} commit points are red — the release is blocked until sheriffs finish\n",
        red_commits,
        naive_log.len()
    );

    // --- World 2: SubmitQueue --------------------------------------------
    let history = WorkloadBuilder::new(WorkloadParams::ios())
        .seed(7_000)
        .n_changes(8_000)
        .build()
        .expect("valid history");
    let strategy = Strategy::build(StrategyKind::SubmitQueue, &workload, Some(&history));
    let result = run_simulation(
        &workload,
        &strategy,
        &PlannerConfig {
            workers: 400,
            ..PlannerConfig::default()
        },
    );
    audit_green(&workload, &result).expect("SubmitQueue keeps master green");
    let (p50, p95, _) = result.turnaround_p50_p95_p99();
    println!("WITH SubmitQueue:");
    println!(
        "  {} committed, {} rejected before ever touching the mainline",
        result.committed(),
        result.rejected()
    );
    println!(
        "  mainline green at every one of {} commit points (audited)",
        result.committed()
    );
    println!("  turnaround: P50 {p50:.0} min, P95 {p95:.0} min");
    println!(
        "  {} speculative builds run, {} aborted as speculation resolved",
        result.builds_started, result.builds_aborted
    );
    println!("\nany commit point can ship: the release goes out from HEAD, today.");
}
