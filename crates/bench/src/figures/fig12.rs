//! Figure 12: average throughput normalized against Oracle, vs workers,
//! at 300/400/500 changes/hour, for all five approaches.
//!
//! Paper shape: SubmitQueue has the least slowdown (→ ~0.8 with enough
//! workers); Single-Queue is worst (~0.05); Optimistic is flat in worker
//! count and below Speculate-all.

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
        StrategyKind::SpeculateAll,
        StrategyKind::Optimistic,
        StrategyKind::SingleQueue,
    ];
    let mut rows = Vec::new();
    for &rate in &rates {
        let w = crate::workload_at_rate(rate, smoke);
        println!("\n=== Figure 12 — normalized avg throughput @ {rate:.0} changes/hour ===");
        print!("{:>14} |", "strategy");
        for &nw in &workers {
            print!(" {nw:>8}");
        }
        println!("  (workers)");
        println!("{}", "-".repeat(16 + 9 * workers.len()));
        let mut oracle_tp = Vec::new();
        for &nw in &workers {
            let o = crate::run_cell(
                &w,
                &crate::strategy_for(StrategyKind::Oracle, &w, &predictor, smoke),
                nw,
                true,
            );
            oracle_tp.push(o.sustained_throughput_per_hour());
        }
        for kind in kinds {
            print!("{:>14} |", kind.name());
            for (i, &nw) in workers.iter().enumerate() {
                let r = crate::run_cell(
                    &w,
                    &crate::strategy_for(kind, &w, &predictor, smoke),
                    nw,
                    true,
                );
                let norm = if oracle_tp[i] > 0.0 {
                    r.sustained_throughput_per_hour() / oracle_tp[i]
                } else {
                    0.0
                };
                print!(" {norm:>8.2}");
                rows.push(format!(
                    "{},{rate},{nw},{norm:.3},{:.1},{:.1}",
                    kind.name(),
                    r.sustained_throughput_per_hour(),
                    oracle_tp[i]
                ));
            }
            println!();
            eprintln!("[fig12] {} rate={rate} done", kind.name());
        }
    }
    crate::write_csv(
        "fig12.csv",
        "strategy,changes_per_hour,workers,normalized,throughput_per_hour,oracle_throughput",
        &rows,
    );
    println!("\npaper: SubmitQueue best (→~0.8), Single-Queue ~0.05, Optimistic flat");
}
