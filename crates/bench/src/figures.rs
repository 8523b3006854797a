//! The figure table: one function per figure of the paper's evaluation
//! (Section 8), the Section 2 motivation curves, the Section 7.2 model
//! report and the Section 10 ablations. Each prints its series and
//! writes a CSV under `target/figures/`.

mod ablation_s10;
mod fig01;
mod fig02;
mod fig05_08;
mod fig09;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod flake_sweep;
mod graph_change_rate;
mod model_eval;

use sq_ml::{Dataset, Split};
use sq_sim::Xoshiro256StarStar;
use sq_workload::features::{success_features, SUCCESS_FEATURES};
use sq_workload::Workload;

/// The §7.2 success-model dataset over a history, split 70/30: each
/// change's features with speculation counters drawn to match its outcome.
fn success_split(history: &Workload, salt: u64) -> Split {
    let mut rng = Xoshiro256StarStar::seed_from_u64(crate::BENCH_SEED ^ salt);
    let mut data = Dataset::new(SUCCESS_FEATURES.iter().map(|s| s.to_string()).collect());
    for c in &history.changes {
        let dev = history.developer(c.developer);
        let (ok, fail) = if c.intrinsic_success {
            (rng.next_below(4) as u32 + 1, rng.next_below(2) as u32)
        } else {
            (rng.next_below(2) as u32, rng.next_below(4) as u32 + 1)
        };
        data.push(success_features(c, dev, ok, fail), c.intrinsic_success);
    }
    data.split(0.7, &mut rng)
}

/// One row of the figure table: the name on the command line, and the
/// run, which takes `smoke` (small grids and trial counts).
pub type Figure = (&'static str, fn(bool));

/// Every figure, in the order `sq-bench fig all` runs them.
pub const FIGURES: &[Figure] = &[
    ("fig01", fig01::run),
    ("fig02", fig02::run),
    ("fig05_08", fig05_08::run),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("model_eval", model_eval::run),
    ("graph_change_rate", graph_change_rate::run),
    ("ablation_s10", ablation_s10::run),
    ("flake_sweep", flake_sweep::run),
];
