//! Figure 8 — exploration vs exploitation of the cache-update strategies.
//!
//! Reports, per epoch, the number of changed cache elements (CE —
//! exploration) and the non-zero loss ratio (NZL — exploitation) for
//! NSCaching with IS / top / uniform cache updates, TransD on the WN18
//! analogue.
//!
//! Expected shape: the IS update keeps the cache fresh (high CE) while
//! maintaining a high NZL; the top update freezes the cache (low CE), and the
//! uniform update explores but loses exploitation (lower NZL than IS).

use nscaching::{NsCachingConfig, SamplerConfig, UpdateStrategy};
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
        "fig8_ce_nzl",
        &[
            "update_strategy",
            "epoch",
            "changed_elements",
            "nonzero_loss_ratio",
        ],
    );

    for strategy in UpdateStrategy::ALL {
        let label = format!("{}-update", strategy.name());
        let sampler = SamplerConfig::NsCaching(
            NsCachingConfig::new(cache, cache).with_update_strategy(strategy),
        );
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
                stats.changed_cache_elements.to_string(),
                format!("{:.4}", stats.nonzero_loss_ratio),
            ]);
        }
        let last = outcome.history.epochs.last().unwrap();
        println!(
            "  {:15} final CE = {}, final NZL = {:.3}, final MRR = {:.4}",
            label,
            last.changed_cache_elements,
            last.nonzero_loss_ratio,
            outcome.report.combined.mrr
        );
    }

    report.write(&settings).expect("write results");
    println!(
        "\nExpected shape (paper Fig. 8): top update changes far fewer cache elements than the \
         IS update; the IS update sustains both exploration (CE) and exploitation (NZL)."
    );
}
