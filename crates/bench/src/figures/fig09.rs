//! Figure 9: CDF of build durations for changes submitted to the iOS and
//! Android monorepos.
//!
//! Paper shape: both platforms nearly overlap; P50 around half an hour,
//! tail out to ~120 minutes.

use sq_sim::{Cdf, Xoshiro256StarStar};
use sq_workload::duration::DurationModel;
use sq_workload::WorkloadParams;

pub(super) fn run(smoke: bool) {
    let n = if smoke { 20_000 } else { 100_000 };
    let platforms = [
        ("iOS", WorkloadParams::ios()),
        ("Android", WorkloadParams::android()),
    ];
    let mut cdfs = Vec::new();
    for (_, params) in &platforms {
        let model = DurationModel::new(params);
        let mut rng = Xoshiro256StarStar::seed_from_u64(crate::BENCH_SEED);
        let samples: Vec<f64> = (0..n)
            .map(|_| model.sample(&mut rng).as_mins_f64())
            .collect();
        cdfs.push(Cdf::from_samples(&samples));
    }
    println!("Figure 9 — CDF of build duration (minutes)");
    println!("{:>10} {:>10} {:>10}", "minutes", "iOS", "Android");
    let mut rows = Vec::new();
    for m in (0..=120).step_by(10) {
        let ios = cdfs[0].eval(m as f64);
        let android = cdfs[1].eval(m as f64);
        println!("{m:>10} {ios:>10.3} {android:>10.3}");
        rows.push(format!("{m},{ios:.4},{android:.4}"));
    }
    crate::write_csv("fig09.csv", "minutes,ios,android", &rows);
    println!(
        "\nmedians: iOS {:.1} min, Android {:.1} min (paper: ≈27/25 min, overlapping CDFs)",
        cdfs[0].quantile(0.5).unwrap(),
        cdfs[1].quantile(0.5).unwrap()
    );
}
