//! Figure 10: CDF of Oracle turnaround time for 100..500 changes/hour
//! with effectively unconstrained workers (the paper used 2000, i.e. no
//! contention) — the difference between this and Figure 9 is the cost of
//! serializing conflicting changes.

use sq_core::strategy::{Strategy, StrategyKind};
use sq_sim::Cdf;

pub(super) fn run(smoke: bool) {
    let rates = crate::rates(smoke);
    println!(
        "Figure 10 — CDF of Oracle turnaround time (minutes), {}h of arrivals, 2000 workers",
        crate::bench_hours(smoke)
    );
    let mut cdfs: Vec<(f64, Cdf)> = Vec::new();
    for &rate in &rates {
        let w = crate::workload_at_rate(rate, smoke);
        let strategy = Strategy::build(StrategyKind::Oracle, &w, None);
        let result = crate::run_cell(&w, &strategy, 2000, true);
        cdfs.push((rate, Cdf::from_samples(&result.turnarounds_mins())));
    }
    print!("{:>10}", "minutes");
    for (rate, _) in &cdfs {
        print!(" {:>9.0}/h", rate);
    }
    println!();
    let mut rows = Vec::new();
    for m in (0..=120).step_by(10) {
        print!("{m:>10}");
        let mut row = format!("{m}");
        for (_, cdf) in &cdfs {
            let v = cdf.eval(m as f64);
            print!(" {v:>11.3}");
            row.push_str(&format!(",{v:.4}"));
        }
        println!();
        rows.push(row);
    }
    let header = std::iter::once("minutes".to_string())
        .chain(cdfs.iter().map(|(r, _)| format!("rate{r:.0}")))
        .collect::<Vec<_>>()
        .join(",");
    crate::write_csv("fig10.csv", &header, &rows);
    println!("\npaper: higher rates shift the CDF right (more serialization waits)");
}
