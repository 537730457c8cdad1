//! Figures 4 & 5 — test MRR / Hit@10 vs wall-clock time for ComplEx.
//!
//! Same protocol as Figures 2 & 3 but with the ComplEx scoring function
//! (the paper uses it as the representative semantic-matching model).
//!
//! Expected shape: Bernoulli and NSCaching converge to a stable value with
//! NSCaching on top; KBGAN overfits and turns down after a while, especially
//! from scratch.

use nscaching_bench::{run_convergence, ExperimentSettings};
use nscaching_models::ModelKind;

fn main() {
    let settings = ExperimentSettings::from_env();
    run_convergence(
        settings.fixed_model(ModelKind::ComplEx),
        "fig4_5_complex_convergence",
        &settings,
    );
}
