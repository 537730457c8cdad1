//! Figure 10 — illustration of the vanishing-gradient problem.
//!
//! Reports the mini-batch average L2 gradient norm per epoch for Bernoulli
//! and NSCaching on the WN18RR analogue, with TransD and ComplEx as in the
//! paper.
//!
//! Expected shape: both curves decrease but neither reaches zero; the
//! NSCaching curve stays clearly above the Bernoulli curve, showing that
//! cache-based negatives keep producing gradients.

use nscaching::{NsCachingConfig, SamplerConfig};
use nscaching_bench::runner::{scaled_cache_size, train_with_sampler, BenchDataset};
use nscaching_bench::{ExperimentSettings, TsvReport};
use nscaching_datagen::BenchmarkFamily;
use nscaching_models::ModelKind;

fn main() {
    let settings = ExperimentSettings::from_env();
    let dataset: BenchDataset = settings
        .fixed_family(BenchmarkFamily::Wn18rr)
        .generate(settings.scale, settings.seed)
        .expect("dataset generation succeeds")
        .into();
    println!("dataset: {}", dataset.summary());
    let cache = scaled_cache_size(dataset.num_entities());

    let models = settings.select_models(if settings.smoke {
        vec![ModelKind::TransD]
    } else {
        vec![ModelKind::TransD, ModelKind::ComplEx]
    });

    let mut report = TsvReport::new(
        "fig10_gradient_norms",
        &[
            "model",
            "method",
            "epoch",
            "mean_gradient_norm",
            "nonzero_loss_ratio",
        ],
    );

    for &kind in &models {
        for (label, sampler) in [
            ("Bernoulli".to_owned(), SamplerConfig::Bernoulli),
            (
                "NSCaching".to_owned(),
                SamplerConfig::NsCaching(NsCachingConfig::new(cache, cache)),
            ),
        ] {
            let outcome =
                train_with_sampler(&dataset, kind, sampler, label.clone(), 0, &settings, 0);
            for stats in &outcome.history.epochs {
                report.push_row(&[
                    kind.name().to_string(),
                    label.clone(),
                    stats.epoch.to_string(),
                    format!("{:.6}", stats.mean_gradient_norm),
                    format!("{:.4}", stats.nonzero_loss_ratio),
                ]);
            }
            let last = outcome.history.epochs.last().unwrap();
            println!(
                "  {:9} {:10} final grad norm = {:.4}",
                kind.name(),
                label,
                last.mean_gradient_norm
            );
        }
    }

    report.write(&settings).expect("write results");
    println!(
        "\nExpected shape (paper Fig. 10): gradient norms shrink for both methods but NSCaching \
         stays above Bernoulli throughout training."
    );
}
