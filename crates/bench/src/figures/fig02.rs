//! Figure 2: probability of a mainline breakage as change staleness
//! increases (log-scale x-axis, 0.1 h .. 100 h).
//!
//! Paper anchors: changes with 1–10 h staleness carry a 10–20% breakage
//! risk; the curve keeps rising toward 100 h.

use sq_workload::curves::breakage_vs_staleness;
use sq_workload::WorkloadParams;

pub(super) fn run(smoke: bool) {
    let trials = if smoke { 400 } else { 1500 };
    let seed = crate::BENCH_SEED;
    // Organic mainline commit rate while changes are in development
    // (production mainlines absorb on the order of ten commits/hour;
    // distinct from the Section 8 controlled replay rates).
    let organic_rate = 12.0;
    let platforms = [
        ("iOS", WorkloadParams::ios()),
        ("Android", WorkloadParams::android()),
    ];
    let staleness_hours = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0];
    println!("Figure 2 — P(mainline breakage) vs change staleness (hours)");
    println!("{:>10} {:>10} {:>10}", "staleness", "iOS", "Android");
    let mut rows = Vec::new();
    for &h in &staleness_hours {
        let mut cells = Vec::new();
        for (_, params) in &platforms {
            cells.push(breakage_vs_staleness(params, h, organic_rate, trials, seed));
        }
        println!("{:>10.1} {:>10.3} {:>10.3}", h, cells[0], cells[1]);
        rows.push(format!("{h},{:.4},{:.4}", cells[0], cells[1]));
    }
    crate::write_csv("fig02.csv", "staleness_hours,ios,android", &rows);
    println!("\npaper: ~0.1–0.2 at 1–10h staleness, rising with staleness");
}
