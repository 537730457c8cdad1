//! Extra ablation (Table I discussion): the lazy-update period `n`.
//!
//! The paper notes that the cache can be refreshed every `n + 1` epochs to
//! cut the update cost to `O((N1+N2)d / (n+1))`. This experiment sweeps
//! `n ∈ {0, 1, 3}` for TransD on the WN18 analogue and reports the final MRR
//! and the training wall-clock time, showing the cost/quality trade-off.

use nscaching::{NsCachingConfig, SamplerConfig};
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

    let mut report = TsvReport::new(
        "ablation_lazy_update",
        &[
            "lazy_n",
            "mrr",
            "hit@10",
            "train_seconds",
            "cache_changes_total",
        ],
    );

    for lazy in [0usize, 1, 3] {
        let label = format!("n={lazy}");
        let sampler =
            SamplerConfig::NsCaching(NsCachingConfig::new(cache, cache).with_lazy_update(lazy));
        let outcome = train_with_sampler(
            &dataset,
            ModelKind::TransD,
            sampler,
            label.clone(),
            0,
            &settings,
            0,
        );
        let total_changes: u64 = outcome
            .history
            .epochs
            .iter()
            .map(|e| e.changed_cache_elements)
            .sum();
        report.push_row(&[
            lazy.to_string(),
            format!("{:.4}", outcome.report.combined.mrr),
            format!("{:.2}", outcome.report.combined.hits_at_10 * 100.0),
            format!("{:.1}", outcome.history.total_seconds),
            total_changes.to_string(),
        ]);
        println!(
            "  lazy n={lazy}: MRR = {:.4}, {:.1}s",
            outcome.report.combined.mrr, outcome.history.total_seconds
        );
    }

    report.write(&settings).expect("write results");
    println!(
        "\nExpected shape: larger n cuts training time (fewer cache refreshes) with a small MRR \
         cost; n = 0 (the paper's default) is the quality ceiling."
    );
}
