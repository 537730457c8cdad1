//! Extra ablation (Section IV-B1): Bernoulli vs uniform corruption-side
//! choice inside NSCaching.
//!
//! The paper uses the Bernoulli scheme to choose between `(h̄, r, t)` and
//! `(h, r, t̄)` for both KBGAN and NSCaching; this experiment checks how much
//! that choice matters compared to a fair coin, for TransD and ComplEx on the
//! WN18 analogue.

use nscaching::{CorruptionPolicy, NegativeSampler, NsCachingConfig, NsCachingSampler};
use nscaching_bench::runner::scaled_cache_size;
use nscaching_bench::{standard_train_config, ExperimentSettings, TsvReport};
use nscaching_datagen::BenchmarkFamily;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_train::Trainer;

fn main() {
    let settings = ExperimentSettings::from_env();
    let dataset = settings
        .fixed_family(BenchmarkFamily::Wn18)
        .generate(settings.scale, settings.seed)
        .expect("dataset generation succeeds");
    println!("dataset: {}", dataset.summary());
    let cache = scaled_cache_size(dataset.num_entities());

    let models = settings.select_models(if settings.smoke {
        vec![ModelKind::TransD]
    } else {
        vec![ModelKind::TransD, ModelKind::ComplEx]
    });

    let mut report = TsvReport::new(
        "ablation_corruption_side",
        &["model", "side_policy", "mrr", "hit@10"],
    );

    for &kind in &models {
        for (label, bernoulli_side) in [("bernoulli-side", true), ("uniform-side", false)] {
            let policy = if bernoulli_side {
                CorruptionPolicy::bernoulli_from_train(&dataset.train, dataset.num_relations())
            } else {
                CorruptionPolicy::Uniform
            };
            let sampler = Box::new(NsCachingSampler::new(
                NsCachingConfig::new(cache, cache),
                dataset.num_entities(),
                policy,
            )) as Box<dyn NegativeSampler>;
            let model = build_model(
                &ModelConfig::new(kind)
                    .with_dim(settings.dim)
                    .with_seed(settings.seed ^ 0x5eed),
                dataset.num_entities(),
                dataset.num_relations(),
            );
            let config = standard_train_config(kind, &settings);
            let mut trainer = Trainer::new(model, sampler, &dataset, config);
            trainer.run();
            let metrics = trainer.history().final_report.unwrap().combined;
            report.push_row(&[
                kind.name().to_string(),
                label.to_string(),
                format!("{:.4}", metrics.mrr),
                format!("{:.2}", metrics.hits_at_10 * 100.0),
            ]);
            println!("  {:9} {:15} MRR = {:.4}", kind.name(), label, metrics.mrr);
        }
    }

    report.write(&settings).expect("write results");
    println!(
        "\nExpected shape: the Bernoulli side choice gives a small but consistent edge on \
         datasets with skewed relation cardinalities, matching the paper's design choice."
    );
}
