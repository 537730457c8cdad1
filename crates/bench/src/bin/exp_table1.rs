//! Table I — complexity comparison of the negative-sampling methods.
//!
//! The paper's Table I is analytic (big-O per mini-batch plus parameter
//! counts). This experiment measures the empirical counterparts on one
//! synthetic dataset: nanoseconds per sampled negative, nanoseconds per
//! sample+state-update, extra trainable parameters owned by the sampler and
//! the cache memory footprint. The orderings to check against the paper:
//! uniform/Bernoulli < NSCaching ≪ KBGAN < IGAN in per-sample cost, and only
//! the GAN methods carry extra parameters.

use nscaching::{build_sampler, NegativeSampler, NsCachingConfig, SamplerConfig};
use nscaching_bench::{ExperimentSettings, TsvReport};
use nscaching_math::seeded_rng;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use std::time::Instant;

fn main() {
    let settings = ExperimentSettings::from_env();
    let dataset = settings
        .fixed_family(nscaching_datagen::BenchmarkFamily::Wn18)
        .generate(settings.scale, settings.seed)
        .expect("dataset generation succeeds");
    println!("dataset: {}", dataset.summary());

    let model = build_model(
        &ModelConfig::new(settings.fixed_model(ModelKind::TransE))
            .with_dim(settings.dim)
            .with_seed(settings.seed),
        dataset.num_entities(),
        dataset.num_relations(),
    );
    let model_params = model.num_parameters();

    let cache_size = nscaching_bench::runner::scaled_cache_size(dataset.num_entities());
    let methods: Vec<(&str, SamplerConfig)> = vec![
        ("Uniform", SamplerConfig::Uniform),
        ("Bernoulli", SamplerConfig::Bernoulli),
        (
            "NSCaching",
            SamplerConfig::NsCaching(NsCachingConfig::new(cache_size, cache_size)),
        ),
        ("KBGAN", SamplerConfig::kbgan_default()),
        ("IGAN", SamplerConfig::igan_default()),
    ];

    let samples = if settings.smoke { 500 } else { 5_000 };
    let mut report = TsvReport::new(
        "table1_complexity",
        &[
            "method",
            "ns_per_sample",
            "ns_per_sample_and_update",
            "extra_parameters",
            "extra_param_ratio",
            "cache_bytes",
        ],
    );

    for (name, config) in methods {
        let mut sampler = build_sampler(&config, &dataset, settings.seed);
        let mut rng = seeded_rng(settings.seed + 11);

        // Phase 1: sampling only.
        let start = Instant::now();
        for i in 0..samples {
            let positive = dataset.train[i % dataset.train.len()];
            let negative = sampler.sample(&positive, model.as_ref(), &mut rng);
            std::hint::black_box(negative);
        }
        let ns_sample = start.elapsed().as_nanos() as f64 / samples as f64;

        // Phase 2: the full per-triple pipeline (sample + feedback + update).
        let start = Instant::now();
        for i in 0..samples {
            let positive = dataset.train[i % dataset.train.len()];
            let negative = sampler.sample(&positive, model.as_ref(), &mut rng);
            let reward = model.score(&negative.triple);
            sampler.feedback(&positive, &negative, reward, &mut rng);
            sampler.update(&positive, model.as_ref(), &mut rng);
        }
        let ns_full = start.elapsed().as_nanos() as f64 / samples as f64;

        let extra = sampler.extra_parameters();
        let cache_bytes =
            estimate_cache_bytes(&config, &dataset, settings.seed, samples, model.as_ref());
        report.push_row(&[
            name.to_string(),
            format!("{ns_sample:.0}"),
            format!("{ns_full:.0}"),
            extra.to_string(),
            format!("{:.2}", extra as f64 / model_params as f64),
            cache_bytes.to_string(),
        ]);
    }

    report.write(&settings).expect("write results");
    println!(
        "\nExpected shape (paper Table I): Uniform/Bernoulli cheapest, NSCaching adds an \
         O((N1+N2)d) update, KBGAN adds a generator over N1 candidates, IGAN pays O(|E|d); \
         only KBGAN/IGAN carry extra parameters."
    );
}

/// Replays the sampling workload on a fresh NSCaching sampler to measure the
/// materialised cache footprint; other samplers hold no cache.
fn estimate_cache_bytes(
    config: &SamplerConfig,
    dataset: &nscaching_kg::Dataset,
    seed: u64,
    samples: usize,
    model: &dyn nscaching_models::KgeModel,
) -> usize {
    match config {
        SamplerConfig::NsCaching(ns) => {
            let mut sampler = nscaching::NsCachingSampler::new(
                *ns,
                dataset.num_entities(),
                nscaching::CorruptionPolicy::bernoulli_from_train(
                    &dataset.train,
                    dataset.num_relations(),
                ),
            );
            let mut rng = seeded_rng(seed + 17);
            for i in 0..samples.min(dataset.train.len()) {
                let positive = dataset.train[i];
                let _ = sampler.sample(&positive, model, &mut rng);
            }
            sampler.cache_memory_bytes()
        }
        _ => 0,
    }
}
