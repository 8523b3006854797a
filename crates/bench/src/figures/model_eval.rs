//! Section 7.2 model report: train the success/conflict logistic models
//! on a 70/30 split of historical changes, report validation accuracy
//! (paper: 97%), the strongest features (paper: succeeded speculations,
//! revert/test plans, pre-submit status positive; failed speculations and
//! resubmission count negative), and the RFE feature reduction.

use sq_core::predict::LearnedPredictor;
use sq_ml::{recursive_feature_elimination, Scaler, TrainConfig};
use sq_workload::features::SUCCESS_FEATURES;

pub(super) fn run(smoke: bool) {
    let history = crate::training_history(smoke);
    println!(
        "Section 7.2 model evaluation — {} historical changes, 70/30 split",
        history.changes.len()
    );

    let (_, report) = LearnedPredictor::train(&history, crate::BENCH_SEED);
    println!(
        "\nsuccess model:  accuracy {:.1}%   AUC {:.3}   (paper: 97%)",
        report.success_accuracy * 100.0,
        report.success_auc
    );
    println!(
        "conflict model: accuracy {:.1}%",
        report.conflict_accuracy * 100.0
    );
    println!("\ntop features by |standardized weight|:");
    for (i, f) in report.success_feature_ranking.iter().take(6).enumerate() {
        println!("  {}. {f}", i + 1);
    }

    // RFE over the success features (paper: reduce to the bare minimum).
    let split = super::success_split(&history, 0xFE);
    let rfe =
        recursive_feature_elimination(&split.train, &split.test, 5, 2, &TrainConfig::default());
    println!(
        "\nRFE: {} → {} features, accuracy per round: {:?}",
        SUCCESS_FEATURES.len(),
        rfe.selected.len(),
        rfe.accuracy_per_round
            .iter()
            .map(|a| format!("{:.3}", a))
            .collect::<Vec<_>>()
    );
    println!("surviving features: {:?}", rfe.selected_names);

    // Scaler sanity: standardized columns should be ~N(0,1) on train.
    let scaler = Scaler::fit(&split.train);
    let z = scaler.transform(&split.train);
    let first_col_mean: f64 = z.rows().iter().map(|r| r[0]).sum::<f64>() / z.len().max(1) as f64;
    println!("\n(standardization check: first-column mean after z-score = {first_col_mean:.2e})");

    let rows = vec![
        format!("success_accuracy,{:.4}", report.success_accuracy),
        format!("success_auc,{:.4}", report.success_auc),
        format!("conflict_accuracy,{:.4}", report.conflict_accuracy),
        format!("rfe_final_features,{}", rfe.selected.len()),
        format!(
            "rfe_final_accuracy,{:.4}",
            rfe.accuracy_per_round.last().copied().unwrap_or(0.0)
        ),
        format!("top_feature,{}", report.success_feature_ranking[0]),
    ];
    crate::write_csv("model_eval.csv", "metric,value", &rows);
}
