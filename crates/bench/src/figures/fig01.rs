//! Figure 1: probability of real conflicts as the number of concurrent
//! and potentially conflicting changes increases (iOS and Android).
//!
//! Paper anchors: ≈5% at n = 2, ≈40% at n = 16.

use sq_workload::curves::real_conflict_probability;
use sq_workload::WorkloadParams;

pub(super) fn run(smoke: bool) {
    let trials = if smoke { 300 } else { 1200 };
    let seed = crate::BENCH_SEED;
    let platforms = [
        ("iOS", WorkloadParams::ios()),
        ("Android", WorkloadParams::android()),
    ];
    println!("Figure 1 — P(real conflict) vs #concurrent potentially-conflicting changes");
    println!("{:>4} {:>10} {:>10}", "n", "iOS", "Android");
    let mut rows = Vec::new();
    for n in (2..=16).step_by(2) {
        let mut cells = Vec::new();
        for (_, params) in &platforms {
            cells.push(real_conflict_probability(params, n, trials, seed));
        }
        println!("{:>4} {:>10.3} {:>10.3}", n, cells[0], cells[1]);
        rows.push(format!("{n},{:.4},{:.4}", cells[0], cells[1]));
    }
    crate::write_csv("fig01.csv", "n_concurrent,ios,android", &rows);
    println!("\npaper: ~0.05 at n=2, ~0.40 at n=16 (both platforms)");
}
