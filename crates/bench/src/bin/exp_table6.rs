//! Table VI — evolution of the cache contents (self-paced learning).
//!
//! The paper shows, for one positive fact of FB13, how the entities held in
//! its tail cache change from meaningless ones to plausible-but-wrong ones as
//! training proceeds. Without lexical labels, the synthetic analogue tracks
//! the *hardness* of the cached entities instead: their mean rank among all
//! possible tail corruptions under the current model (rank 1 = the hardest
//! negative) and their mean score gap to the true tail. The self-paced effect
//! appears as the cached entities' mean rank dropping towards the top while
//! training converges — cache members move from random (easy) to hard.

use nscaching::{NsCachingConfig, SamplerConfig};
use nscaching_bench::{standard_train_config, ExperimentSettings, TsvReport};
use nscaching_datagen::BenchmarkFamily;
use nscaching_kg::{CorruptionSide, Triple};
use nscaching_models::{build_model, KgeModel, ModelConfig, ModelKind};
use nscaching_train::Trainer;

fn main() {
    let settings = ExperimentSettings::from_env();
    let kind = settings.fixed_model(ModelKind::TransD);
    let dataset = settings
        .fixed_family(BenchmarkFamily::Wn18)
        .generate(settings.scale, settings.seed)
        .expect("dataset generation succeeds");
    println!("dataset: {}", dataset.summary());

    // Probe one fixed positive fact, as the paper does.
    let probe: Triple = dataset.train[0];
    let cache_size = nscaching_bench::runner::scaled_cache_size(dataset.num_entities());

    let model = build_model(
        &ModelConfig::new(kind)
            .with_dim(settings.dim)
            .with_seed(settings.seed),
        dataset.num_entities(),
        dataset.num_relations(),
    );
    let sampler = nscaching::build_sampler(
        &SamplerConfig::NsCaching(NsCachingConfig::new(cache_size, cache_size)),
        &dataset,
        settings.seed,
    );
    let train_config = standard_train_config(kind, &settings);
    let mut trainer = Trainer::new(model, sampler, &dataset, train_config);

    let mut report = TsvReport::new(
        "table6_cache_evolution",
        &[
            "epoch",
            "mean_rank_of_cached",
            "median_possible_rank",
            "mean_score_gap_to_true_tail",
            "cache_sample",
        ],
    );

    for epoch in 0..settings.epochs {
        trainer.train_epoch();
        let cached = trainer
            .sampler()
            .tail_cache_contents(&probe)
            .unwrap_or_default();
        if cached.is_empty() {
            continue;
        }
        let should_report = epoch == 0
            || epoch == settings.epochs - 1
            || (epoch + 1) % (settings.epochs / 5).max(1) == 0;
        if !should_report {
            continue;
        }
        let (mean_rank, mean_gap) = hardness(trainer.model(), &probe, &cached);
        let preview: Vec<u32> = cached.iter().copied().take(5).collect();
        report.push_row(&[
            (epoch + 1).to_string(),
            format!("{mean_rank:.1}"),
            format!("{:.1}", dataset.num_entities() as f64 / 2.0),
            format!("{mean_gap:.3}"),
            format!("{preview:?}"),
        ]);
    }

    report.write(&settings).expect("write results");
    println!(
        "\nExpected shape (paper Table VI / Section III-C): the mean rank of cached entities \
         starts near the random baseline (half the entity count) and falls towards the top as \
         the cache fills with hard negatives — the self-paced learning effect."
    );
}

/// Mean rank of the cached entities among all tail corruptions (1 = highest
/// scoring) and their mean score gap to the true tail.
fn hardness(model: &dyn KgeModel, probe: &Triple, cached: &[u32]) -> (f64, f64) {
    let scores = model.score_all(probe, CorruptionSide::Tail);
    let true_score = model.score(probe);
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
    let mut rank_of = vec![0usize; scores.len()];
    for (rank, &entity) in order.iter().enumerate() {
        rank_of[entity] = rank + 1;
    }
    let mean_rank = cached
        .iter()
        .map(|&e| rank_of[e as usize] as f64)
        .sum::<f64>()
        / cached.len().max(1) as f64;
    let mean_gap = cached
        .iter()
        .map(|&e| true_score - scores[e as usize])
        .sum::<f64>()
        / cached.len().max(1) as f64;
    (mean_rank, mean_gap)
}
