//! Figures 2 & 3 — test MRR / Hit@10 vs wall-clock time for TransD.
//!
//! Trains TransD on the benchmark analogues with Bernoulli, KBGAN ± pretrain
//! and NSCaching ± pretrain, taking periodic filtered evaluation snapshots
//! stamped with the training wall-clock time (pretraining time is charged to
//! the pretrained methods, as in the paper's plots).
//!
//! Expected shape: NSCaching curves dominate at every time budget and
//! converge fastest; KBGAN without pretraining is the weakest curve.

use nscaching_bench::{run_convergence, ExperimentSettings};
use nscaching_models::ModelKind;

fn main() {
    let settings = ExperimentSettings::from_env();
    run_convergence(
        settings.fixed_model(ModelKind::TransD),
        "fig2_3_transd_convergence",
        &settings,
    );
}
