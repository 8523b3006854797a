//! Figure 11: P50/P95/P99 turnaround time normalized against Oracle, on
//! the {100..500 changes/hour} × {100..500 workers} grid, for
//! SubmitQueue (a–c), Speculate-all (d–f) and Optimistic (g–i).
//!
//! Paper shape: SubmitQueue stays within ~1.2–4× of Oracle and improves
//! with workers; Speculate-all sits at ~6–24×; Optimistic at ~7–19× and
//! is insensitive to worker count.

use sq_core::strategy::StrategyKind;
use std::collections::HashMap;

pub(super) fn run(smoke: bool) {
    let rates = crate::rates(smoke);
    let workers = crate::worker_counts(smoke);
    let predictor = crate::trained_predictor(smoke);
    let kinds = [
        StrategyKind::SubmitQueue,
        StrategyKind::SpeculateAll,
        StrategyKind::Optimistic,
    ];

    // (kind, rate, workers) → (p50, p95, p99), raw minutes.
    let mut raw: HashMap<(&str, u64, usize), (f64, f64, f64)> = HashMap::new();
    let mut oracle: HashMap<(u64, usize), (f64, f64, f64)> = HashMap::new();
    for &rate in &rates {
        let w = crate::workload_at_rate(rate, smoke);
        for &nw in &workers {
            let o = crate::run_cell(
                &w,
                &crate::strategy_for(StrategyKind::Oracle, &w, &predictor, smoke),
                nw,
                true,
            );
            oracle.insert((rate as u64, nw), o.turnaround_p50_p95_p99());
            for kind in kinds {
                let r = crate::run_cell(
                    &w,
                    &crate::strategy_for(kind, &w, &predictor, smoke),
                    nw,
                    true,
                );
                raw.insert((kind.name(), rate as u64, nw), r.turnaround_p50_p95_p99());
                eprintln!("[fig11] {} rate={rate} workers={nw} done", kind.name());
            }
        }
    }

    // (normalized, minutes, Oracle minutes) of one percentile of one cell.
    let cell = |kind: StrategyKind, pi: usize, rate: f64, nw: usize| {
        let o = oracle[&(rate as u64, nw)];
        let v = raw[&(kind.name(), rate as u64, nw)];
        let (ov, vv) = match pi {
            0 => (o.0, v.0),
            1 => (o.1, v.1),
            _ => (o.2, v.2),
        };
        (if ov > 0.0 { vv / ov } else { 0.0 }, vv, ov)
    };
    let mut rows = Vec::new();
    for kind in kinds {
        for (pi, pname) in [(0usize, "P50"), (1, "P95"), (2, "P99")] {
            crate::print_matrix(
                &format!(
                    "{} {} turnaround (normalized vs Oracle)",
                    kind.name(),
                    pname
                ),
                &rates,
                &workers,
                |rate, nw| cell(kind, pi, rate, nw).0,
            );
            for &rate in &rates {
                for &nw in &workers {
                    let (norm, vv, ov) = cell(kind, pi, rate, nw);
                    rows.push(format!(
                        "{},{},{},{},{:.3},{:.2},{:.2}",
                        kind.name(),
                        pname,
                        rate,
                        nw,
                        norm,
                        vv,
                        ov
                    ));
                }
            }
        }
    }
    crate::write_csv(
        "fig11.csv",
        "strategy,percentile,changes_per_hour,workers,normalized,minutes,oracle_minutes",
        &rows,
    );
    println!(
        "\npaper: SubmitQueue ≈1.2–4×, Speculate-all ≈6–24×, Optimistic ≈7–19× (flat in workers)"
    );
}
