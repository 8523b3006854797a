//! Figure 13: P95 turnaround-time improvement from the conflict analyzer
//! (1 − with/without), vs workers, at 300/400/500 changes/hour, for all
//! approaches.
//!
//! Paper shape: Oracle improves up to ~60%; SubmitQueue and Speculate-all
//! benefit substantially; Optimistic only ~20% and flat; deep build
//! graphs limit the benefit (Section 8.4).

use sq_core::strategy::StrategyKind;

pub(super) fn run(smoke: bool) {
    let rates: Vec<f64> = crate::rates(smoke)
        .into_iter()
        .filter(|&r| r >= 300.0)
        .collect();
    let rates = if rates.is_empty() { vec![300.0] } else { rates };
    let workers = crate::worker_counts(smoke);
    let predictor = crate::trained_predictor(smoke);
    let kinds = [
        StrategyKind::SubmitQueue,
        StrategyKind::Oracle,
        StrategyKind::SpeculateAll,
        StrategyKind::Optimistic,
        StrategyKind::SingleQueue,
    ];
    let mut rows = Vec::new();
    for &rate in &rates {
        let w = crate::workload_at_rate(rate, smoke);
        println!(
            "\n=== Figure 13 — P95 turnaround improvement with conflict analyzer @ {rate:.0}/h ==="
        );
        print!("{:>14} |", "strategy");
        for &nw in &workers {
            print!(" {nw:>8}");
        }
        println!("  (workers)");
        println!("{}", "-".repeat(16 + 9 * workers.len()));
        for kind in kinds {
            print!("{:>14} |", kind.name());
            for &nw in &workers {
                let strategy = crate::strategy_for(kind, &w, &predictor, smoke);
                let with = crate::run_cell(&w, &strategy, nw, true);
                let without = crate::run_cell(&w, &strategy, nw, false);
                let (_, p95_with, _) = with.turnaround_p50_p95_p99();
                let (_, p95_without, _) = without.turnaround_p50_p95_p99();
                let improvement = if p95_without > 0.0 {
                    (1.0 - p95_with / p95_without).max(0.0)
                } else {
                    0.0
                };
                print!(" {improvement:>8.2}");
                rows.push(format!(
                    "{},{rate},{nw},{improvement:.3},{p95_with:.2},{p95_without:.2}",
                    kind.name()
                ));
            }
            println!();
            eprintln!("[fig13] {} rate={rate} done", kind.name());
        }
    }
    crate::write_csv(
        "fig13.csv",
        "strategy,changes_per_hour,workers,p95_improvement,p95_with,p95_without",
        &rows,
    );
    println!("\npaper: Oracle up to 0.6; Optimistic ~0.2 and flat in workers");
}
