//! Figure 7 — exploration vs exploitation of the sampling strategies.
//!
//! Reports, per epoch, the repeat ratio (RR: fraction of sampled negatives
//! already drawn within the recent window — exploration) and the non-zero
//! loss ratio (NZL — exploitation) for Bernoulli sampling and for NSCaching
//! with uniform / IS / top sampling from the cache, TransD on the WN18
//! analogue.
//!
//! Expected shape: Bernoulli has near-zero RR but its NZL collapses; the
//! cache strategies keep NZL high, with top sampling repeating the most and
//! uniform sampling giving the best balance.

use nscaching::{NsCachingConfig, SampleStrategy, SamplerConfig};
use nscaching_bench::runner::{scaled_cache_size, train_with_sampler, BenchDataset};
use nscaching_bench::{ExperimentSettings, TsvReport};
use nscaching_datagen::BenchmarkFamily;
use nscaching_models::ModelKind;

fn main() {
    let settings = ExperimentSettings::from_env();
    settings.note_ignored("--models", "TransD only");
    let dataset: BenchDataset = settings
        .fixed_family(BenchmarkFamily::Wn18)
        .generate(settings.scale, settings.seed)
        .expect("dataset generation succeeds")
        .into();
    println!("dataset: {}", dataset.summary());
    let cache = scaled_cache_size(dataset.num_entities());

    let mut variants: Vec<(String, SamplerConfig)> =
        vec![("Bernoulli".to_owned(), SamplerConfig::Bernoulli)];
    for strategy in SampleStrategy::ALL {
        variants.push((
            format!("NSCaching-{}", strategy.name()),
            SamplerConfig::NsCaching(
                NsCachingConfig::new(cache, cache).with_sample_strategy(strategy),
            ),
        ));
    }

    let mut report = TsvReport::new(
        "fig7_rr_nzl",
        &["method", "epoch", "repeat_ratio", "nonzero_loss_ratio"],
    );

    for (label, sampler) in variants {
        let outcome = train_with_sampler(
            &dataset,
            ModelKind::TransD,
            sampler,
            label.clone(),
            0,
            &settings,
            0,
        );
        for stats in &outcome.history.epochs {
            report.push_row(&[
                label.clone(),
                stats.epoch.to_string(),
                format!("{:.4}", stats.repeat_ratio),
                format!("{:.4}", stats.nonzero_loss_ratio),
            ]);
        }
        let last = outcome.history.epochs.last().unwrap();
        println!(
            "  {:18} final RR = {:.3}, final NZL = {:.3}",
            label, last.repeat_ratio, last.nonzero_loss_ratio
        );
    }

    report.write(&settings).expect("write results");
    println!(
        "\nExpected shape (paper Fig. 7): Bernoulli RR ≈ 0 but NZL collapses towards 0; the \
         cache-based strategies keep NZL above ~0.5, with RR highest for top sampling, lower \
         for IS, lowest (among cache strategies) for uniform."
    );
}
