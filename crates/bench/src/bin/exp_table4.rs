//! Table IV — the paper's main link-prediction comparison.
//!
//! For every benchmark analogue and scoring function, trains the target model
//! with each negative-sampling method (Bernoulli, KBGAN ± pretrain,
//! NSCaching ± pretrain) and reports filtered MRR, MR and Hit@10, plus the
//! Bernoulli-pretrained reference the paper lists as "pretrained".
//!
//! The shapes to check against the paper: NSCaching (either start) beats
//! Bernoulli and KBGAN on MRR for every scoring function; KBGAN needs the
//! pretrained start to be competitive, NSCaching does not.
//!
//! The full 4 × 5 × 5 grid is expensive; `--smoke` runs a single dataset and
//! scoring function, and the `--datasets`/`--models` filters of `run_all`
//! select subsets.

use nscaching_bench::{train_once, BenchDataset, ExperimentSettings, Method, TsvReport};
use nscaching_datagen::BenchmarkFamily;
use nscaching_models::ModelKind;

fn main() {
    let settings = ExperimentSettings::from_env();
    let families: Vec<BenchmarkFamily> = settings.select_families(if settings.smoke {
        vec![BenchmarkFamily::Wn18rr]
    } else {
        BenchmarkFamily::ALL.to_vec()
    });
    let models: Vec<ModelKind> = settings.select_models(if settings.smoke {
        vec![ModelKind::TransE]
    } else {
        ModelKind::ALL.to_vec()
    });

    let mut report = TsvReport::new(
        "table4_link_prediction",
        &[
            "dataset",
            "model",
            "method",
            "mrr",
            "mr",
            "hit@10",
            "train_seconds",
        ],
    );
    let pretrain_epochs = (settings.epochs / 2).max(1);

    for family in &families {
        let dataset: BenchDataset = family
            .generate(settings.scale, settings.seed)
            .expect("dataset generation succeeds")
            .into();
        println!("# {}", dataset.summary());
        for &model in &models {
            // The "pretrained" reference row: the Bernoulli model after only the
            // pretraining epochs.
            let pretrained_ref = {
                let mut pre_settings = settings.clone();
                pre_settings.epochs = pretrain_epochs;
                train_once(&dataset, model, Method::Bernoulli, &pre_settings, 0, 0)
            };
            push_result(&mut report, family, model, "pretrained", &pretrained_ref);

            for method in Method::TABLE4 {
                let outcome = train_once(&dataset, model, method, &settings, pretrain_epochs, 0);
                push_result(&mut report, family, model, method.label(), &outcome);
            }
        }
    }

    report.write(&settings).expect("write results");
    println!(
        "\nExpected shape (paper Table IV): NSCaching+scratch and NSCaching+pretrain lead on MRR \
         and Hit@10 across datasets and scoring functions; KBGAN degrades without pretraining."
    );
}

fn push_result(
    report: &mut TsvReport,
    family: &BenchmarkFamily,
    model: ModelKind,
    method: &str,
    outcome: &nscaching_bench::RunOutcome,
) {
    let m = outcome.report.combined;
    report.push_row(&[
        family.name().to_string(),
        model.name().to_string(),
        method.to_string(),
        format!("{:.4}", m.mrr),
        format!("{:.1}", m.mean_rank),
        format!("{:.2}", m.hits_at_10 * 100.0),
        format!(
            "{:.1}",
            outcome.history.total_seconds + outcome.pretrain_seconds
        ),
    ]);
    println!(
        "  {:22} {:9} MRR={:.4} MR={:6.1} Hit@10={:5.2}",
        method,
        model.name(),
        m.mrr,
        m.mean_rank,
        m.hits_at_10 * 100.0
    );
}
