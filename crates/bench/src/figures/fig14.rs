//! Figure 14: state of the iOS mainline over one week *prior to*
//! SubmitQueue — hourly success (green) rate under trunk-based
//! development with post-submit detection and manual reverts.
//!
//! Paper anchor: the mainline was green only 52% of the time.

use sq_core::trunk::{simulate_trunk, TrunkConfig};
use sq_workload::{WorkloadBuilder, WorkloadParams};

pub(super) fn run(smoke: bool) {
    let hours = if smoke { 48.0 } else { 168.0 };
    // Organic mainline rate (production commits, not replay rates).
    let w = WorkloadBuilder::new(WorkloadParams::ios().with_rate(12.0))
        .seed(crate::BENCH_SEED)
        .duration_hours(hours)
        .build()
        .expect("valid params");
    let r = simulate_trunk(&w, &TrunkConfig::default());
    println!("Figure 14 — hourly mainline green rate before SubmitQueue ({hours:.0}h)");
    println!("{:>6} {:>12}", "hour", "green %");
    let mut rows = Vec::new();
    for (h, pct) in r.hourly_green_pct.iter().enumerate() {
        if h % 6 == 0 {
            println!("{h:>6} {pct:>12.1}");
        }
        rows.push(format!("{h},{pct:.2}"));
    }
    crate::write_csv("fig14.csv", "hour,green_pct", &rows);
    println!(
        "\noverall green fraction: {:.1}% across {} breakages (paper: 52%)",
        r.green_fraction * 100.0,
        r.breakages
    );
    println!("since SubmitQueue's launch the mainline stays green 100% of the time (Section 8.5)");
}
