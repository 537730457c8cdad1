//! Figure 6 — ablation of the cache sampling / update strategies.
//!
//! (a) compares how negatives are drawn from the cache (uniform vs IS vs top
//! sampling) and (b) compares how the cache is refreshed (IS vs top update),
//! reporting test MRR per epoch for TransD on the WN18 analogue.
//!
//! Expected shape: uniform sampling from the cache is best and top sampling
//! worst (Fig. 6(a)); IS update clearly beats top update (Fig. 6(b)).

use nscaching::{NsCachingConfig, SampleStrategy, SamplerConfig, UpdateStrategy};
use nscaching_bench::runner::{train_with_sampler, BenchDataset};
use nscaching_bench::{runner::scaled_cache_size, ExperimentSettings, TsvReport};
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
    let eval_every = (settings.epochs / 10).max(1);

    let mut report = TsvReport::new(
        "fig6_strategy_ablation",
        &["panel", "strategy", "epoch", "mrr", "hit@10"],
    );

    // Panel (a): sample-from-cache strategy (IS update fixed).
    for strategy in SampleStrategy::ALL {
        let config = NsCachingConfig::new(cache, cache).with_sample_strategy(strategy);
        run_variant(
            &mut report,
            "a_sampling",
            &format!("{}-sampling", strategy.name()),
            SamplerConfig::NsCaching(config),
            &dataset,
            &settings,
            eval_every,
        );
    }

    // Panel (b): cache-update strategy (uniform sampling fixed).
    for strategy in [UpdateStrategy::Importance, UpdateStrategy::Top] {
        let config = NsCachingConfig::new(cache, cache).with_update_strategy(strategy);
        run_variant(
            &mut report,
            "b_update",
            &format!("{}-update", strategy.name()),
            SamplerConfig::NsCaching(config),
            &dataset,
            &settings,
            eval_every,
        );
    }

    report.write(&settings).expect("write results");
    println!(
        "\nExpected shape (paper Fig. 6): uniform sampling from the cache > IS sampling > top \
         sampling; IS cache update > top update by a large margin."
    );
}

fn run_variant(
    report: &mut TsvReport,
    panel: &str,
    label: &str,
    sampler: SamplerConfig,
    dataset: &BenchDataset,
    settings: &ExperimentSettings,
    eval_every: usize,
) {
    let outcome = train_with_sampler(
        dataset,
        ModelKind::TransD,
        sampler,
        label.to_owned(),
        0,
        settings,
        eval_every,
    );
    for snapshot in &outcome.history.snapshots {
        report.push_row(&[
            panel.to_string(),
            label.to_string(),
            snapshot.epoch.to_string(),
            format!("{:.4}", snapshot.mrr),
            format!("{:.2}", snapshot.hits_at_10 * 100.0),
        ]);
    }
    println!(
        "  {:18} final MRR = {:.4}",
        label, outcome.report.combined.mrr
    );
}
