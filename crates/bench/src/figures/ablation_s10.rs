//! Ablations for the paper's Section 10 extensions (implemented here as
//! future work made concrete):
//!
//! * **change reordering** — greedy out-of-order commits vs. strict
//!   submission order;
//! * **build preemption guard** — protecting nearly-finished builds from
//!   gating-build preemption;
//! * **batching independent changes** — batch-and-bisect at several batch
//!   sizes, trading builds-per-change against turnaround;
//! * **gradient boosting vs logistic regression** — the §10 "other ML
//!   techniques" comparison on the §7.2 features.

use sq_core::batching::{simulate_batching, BatchingConfig};
use sq_core::planner::{run_simulation, PlannerConfig};
use sq_core::strategy::StrategyKind;
use sq_ml::{BoostConfig, GradientBoostedStumps, LogisticRegression, Scaler, TrainConfig};

pub(super) fn run(smoke: bool) {
    let mut rows = Vec::new();
    let w = crate::workload_at_rate(300.0, smoke);
    let predictor = crate::trained_predictor(smoke);
    let workers = 150;

    // ---- reordering & preemption guard --------------------------------
    println!("=== Section 10 ablations @ 300 changes/h, {workers} workers ===\n");
    println!(
        "{:>34} {:>9} {:>9} {:>9} {:>9}",
        "planner variant", "P50", "P95", "aborted", "commits"
    );
    for (name, reorder, guard, epoch_secs) in [
        ("baseline (in order, no guard)", false, None, None),
        ("reorder", true, None, None),
        ("preemption guard 0.8", false, Some(0.8), None),
        ("reorder + guard 0.8", true, Some(0.8), None),
        ("epoch 30s (paper §6)", false, None, Some(30u64)),
        ("epoch 10min", false, None, Some(600)),
    ] {
        let strategy = crate::strategy_for(StrategyKind::SubmitQueue, &w, &predictor, smoke);
        let config = PlannerConfig {
            workers,
            reorder,
            preemption_guard: guard,
            epoch: epoch_secs.map(sq_sim::SimDuration::from_secs),
            ..PlannerConfig::default()
        };
        let r = run_simulation(&w, &strategy, &config);
        sq_core::audit::audit_green(&w, &r).expect("extension keeps master green");
        let (p50, p95, _) = r.turnaround_p50_p95_p99();
        println!(
            "{name:>34} {p50:>9.1} {p95:>9.1} {:>9} {:>9}",
            r.builds_aborted,
            r.committed()
        );
        rows.push(format!(
            "planner,{name},{p50:.1},{p95:.1},{},{}",
            r.builds_aborted,
            r.committed()
        ));
    }

    // ---- batching ------------------------------------------------------
    println!("\n=== batching independent changes (batch-and-bisect) ===\n");
    println!(
        "{:>12} {:>9} {:>9} {:>14} {:>16}",
        "max batch", "P50", "P95", "builds/change", "worker-min/commit"
    );
    for k in [1usize, 2, 4, 8, 16] {
        let r = simulate_batching(
            &w,
            &BatchingConfig {
                max_batch: k,
                workers,
            },
        );
        let (p50, p95, _) = r
            .turnaround_p50_p95_p99()
            .expect("workload resolves changes");
        let bpc = r.builds_per_change().expect("workload resolves changes");
        let wmpc = r
            .worker_mins_per_commit()
            .expect("workload commits changes");
        println!("{k:>12} {p50:>9.1} {p95:>9.1} {bpc:>14.2} {wmpc:>16.1}");
        rows.push(format!(
            "batching,k={k},{p50:.1},{p95:.1},{bpc:.3},{wmpc:.1}"
        ));
    }
    println!("\npaper §10: batching lowers hardware cost; mispredicted batches raise turnaround");

    // ---- gradient boosting vs logistic ----------------------------------
    println!("\n=== §10 'other ML techniques': gradient boosting vs logistic ===\n");
    let history = crate::training_history(smoke);
    let split = super::success_split(&history, 0xB005);
    let scaler = Scaler::fit(&split.train);
    let z_train = scaler.transform(&split.train);
    let z_test = scaler.transform(&split.test);
    let (logit, _) = LogisticRegression::fit(&z_train, &TrainConfig::default());
    let (gbm, _) = GradientBoostedStumps::fit(&split.train, &BoostConfig::default());
    let logit_acc = logit.accuracy(&z_test);
    let gbm_acc = gbm.accuracy(&split.test);
    let logit_auc = sq_ml::roc_auc(&logit.predict(&z_test), z_test.labels());
    let gbm_auc = sq_ml::roc_auc(&gbm.predict(&split.test), split.test.labels());
    println!(
        "logistic regression: accuracy {:.2}%  AUC {logit_auc:.4}",
        logit_acc * 100.0
    );
    println!(
        "gradient boosting:   accuracy {:.2}%  AUC {gbm_auc:.4}  ({} stumps)",
        gbm_acc * 100.0,
        gbm.len()
    );
    rows.push(format!("ml,logistic,{logit_acc:.4},{logit_auc:.4},,"));
    rows.push(format!("ml,gbm,{gbm_acc:.4},{gbm_auc:.4},,"));

    crate::write_csv("ablation_s10.csv", "group,variant,a,b,c,d", &rows);
}
