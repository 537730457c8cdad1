//! Sampler configuration and factory.

use crate::corruption::CorruptionPolicy;
use crate::generator::GeneratorSampler;
use crate::nscaching::NsCachingSampler;
use crate::sampler::NegativeSampler;
use crate::strategy::{SampleStrategy, UpdateStrategy};
use crate::uniform::UniformSampler;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Hyper-parameters of the NSCaching sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NsCachingConfig {
    /// Cache size `N1` (the paper uses 50 on all datasets).
    pub cache_size: usize,
    /// Random-subset size `N2` used when refreshing the cache (also 50).
    pub random_size: usize,
    /// How negatives are drawn from the cache (step 6 of Algorithm 2).
    pub sample_strategy: SampleStrategy,
    /// How the cache is refreshed (Algorithm 3).
    pub update_strategy: UpdateStrategy,
    /// Lazy-update period `n`: the cache is refreshed only every `n + 1`
    /// epochs. The paper's default is `n = 0` (refresh every epoch).
    pub lazy_update_epochs: usize,
}

impl NsCachingConfig {
    /// The paper's default configuration with explicit `N1`/`N2`.
    pub fn new(cache_size: usize, random_size: usize) -> Self {
        assert!(cache_size > 0, "N1 must be positive");
        assert!(random_size > 0, "N2 must be positive");
        Self {
            cache_size,
            random_size,
            sample_strategy: SampleStrategy::Uniform,
            update_strategy: UpdateStrategy::Importance,
            lazy_update_epochs: 0,
        }
    }

    /// `N1 = N2 = 50`, uniform sampling, IS update — the paper's default.
    pub fn paper_default() -> Self {
        Self::new(50, 50)
    }

    /// Override the sample-from-cache strategy.
    pub fn with_sample_strategy(mut self, strategy: SampleStrategy) -> Self {
        self.sample_strategy = strategy;
        self
    }

    /// Override the cache-update strategy.
    pub fn with_update_strategy(mut self, strategy: UpdateStrategy) -> Self {
        self.update_strategy = strategy;
        self
    }

    /// Set the lazy-update period `n`.
    pub fn with_lazy_update(mut self, epochs: usize) -> Self {
        self.lazy_update_epochs = epochs;
        self
    }
}

impl Default for NsCachingConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Declarative description of which negative sampler to build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SamplerConfig {
    /// Uniform corruption without cardinality statistics.
    Uniform,
    /// Bernoulli corruption (the paper's baseline).
    Bernoulli,
    /// The paper's NSCaching sampler.
    NsCaching(NsCachingConfig),
    /// The KBGAN baseline.
    KbGan {
        /// Generator scoring function (the paper uses TransE).
        generator: ModelKind,
        /// Generator embedding dimension.
        generator_dim: usize,
        /// Candidate-set size (matched to `N1` in the paper).
        candidate_size: usize,
        /// Generator learning rate.
        generator_lr: f64,
    },
    /// The IGAN-style full-softmax baseline.
    Igan {
        /// Generator scoring function.
        generator: ModelKind,
        /// Generator embedding dimension.
        generator_dim: usize,
        /// Generator learning rate.
        generator_lr: f64,
    },
}

impl SamplerConfig {
    /// Paper-default KBGAN configuration.
    pub fn kbgan_default() -> Self {
        SamplerConfig::KbGan {
            generator: ModelKind::TransE,
            generator_dim: 32,
            candidate_size: 50,
            generator_lr: 0.01,
        }
    }

    /// Paper-style IGAN configuration.
    pub fn igan_default() -> Self {
        SamplerConfig::Igan {
            generator: ModelKind::TransE,
            generator_dim: 32,
            generator_lr: 0.01,
        }
    }

    /// Short display name used in reports and result tables.
    pub fn display_name(&self) -> &'static str {
        match self {
            SamplerConfig::Uniform => "Uniform",
            SamplerConfig::Bernoulli => "Bernoulli",
            SamplerConfig::NsCaching(_) => "NSCaching",
            SamplerConfig::KbGan { .. } => "KBGAN",
            SamplerConfig::Igan { .. } => "IGAN",
        }
    }
}

/// Build a sampler for the given dataset.
///
/// The Bernoulli corruption-side statistics and the false-negative filter are
/// derived from the dataset's training split, mirroring the reference
/// implementation; `seed` controls the initialisation of any generator model.
pub fn build_sampler(
    config: &SamplerConfig,
    dataset: &Dataset,
    seed: u64,
) -> Box<dyn NegativeSampler> {
    let num_entities = dataset.num_entities();
    let num_relations = dataset.num_relations();
    let policy = CorruptionPolicy::bernoulli_from_train(&dataset.train, num_relations);
    let generator_model = |kind: ModelKind, dim: usize| {
        build_model(
            &ModelConfig::new(kind).with_dim(dim).with_seed(seed),
            num_entities,
            num_relations,
        )
    };
    match config {
        SamplerConfig::Uniform => Box::new(
            UniformSampler::new(num_entities)
                .with_false_negative_filter(Arc::new(dataset.train_graph())),
        ),
        SamplerConfig::Bernoulli => Box::new(
            UniformSampler::new(num_entities)
                .with_policy(policy)
                .with_false_negative_filter(Arc::new(dataset.train_graph())),
        ),
        SamplerConfig::NsCaching(ns) => Box::new(
            // Observing the training key frequencies lets prepare_shards
            // build a load-balanced shard partition for parallel training.
            NsCachingSampler::new(*ns, num_entities, policy).with_observed_keys(&dataset.train),
        ),
        // The generator is keyless, so the observed keys only steer
        // parallel shard routing onto the balanced partition.
        SamplerConfig::KbGan {
            generator,
            generator_dim,
            candidate_size,
            generator_lr,
        } => Box::new(
            GeneratorSampler::kbgan(
                generator_model(*generator, *generator_dim),
                *candidate_size,
                *generator_lr,
                policy,
            )
            .with_observed_keys(&dataset.train),
        ),
        SamplerConfig::Igan {
            generator,
            generator_dim,
            generator_lr,
        } => Box::new(
            GeneratorSampler::igan(
                generator_model(*generator, *generator_dim),
                *generator_lr,
                policy,
            )
            .with_observed_keys(&dataset.train),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_datagen::GeneratorConfig;
    use nscaching_math::seeded_rng;

    fn dataset() -> Dataset {
        let mut c = GeneratorConfig::small("factory");
        c.num_entities = 120;
        c.num_train = 800;
        c.num_valid = 50;
        c.num_test = 50;
        nscaching_datagen::generate(&c).unwrap()
    }

    #[test]
    fn paper_default_matches_section_iv() {
        let c = NsCachingConfig::paper_default();
        assert_eq!(c.cache_size, 50);
        assert_eq!(c.random_size, 50);
        assert_eq!(c.sample_strategy, SampleStrategy::Uniform);
        assert_eq!(c.update_strategy, UpdateStrategy::Importance);
        assert_eq!(c.lazy_update_epochs, 0);
        assert_eq!(NsCachingConfig::default(), c);
    }

    #[test]
    #[should_panic(expected = "N1 must be positive")]
    fn zero_cache_size_is_rejected() {
        let _ = NsCachingConfig::new(0, 10);
    }

    #[test]
    fn builders_set_the_strategies() {
        let c = NsCachingConfig::new(10, 20)
            .with_sample_strategy(SampleStrategy::Top)
            .with_update_strategy(UpdateStrategy::Top)
            .with_lazy_update(3);
        assert_eq!(c.sample_strategy, SampleStrategy::Top);
        assert_eq!(c.update_strategy, UpdateStrategy::Top);
        assert_eq!(c.lazy_update_epochs, 3);
    }

    #[test]
    fn factory_builds_every_sampler_kind() {
        let ds = dataset();
        let model = build_model(
            &ModelConfig::new(ModelKind::TransE).with_dim(8),
            ds.num_entities(),
            ds.num_relations(),
        );
        let mut rng = seeded_rng(0);
        let configs = vec![
            SamplerConfig::Uniform,
            SamplerConfig::Bernoulli,
            SamplerConfig::NsCaching(NsCachingConfig::new(10, 10)),
            SamplerConfig::kbgan_default(),
            SamplerConfig::igan_default(),
        ];
        for config in configs {
            let mut sampler = build_sampler(&config, &ds, 1);
            assert_eq!(sampler.name(), config.display_name());
            let pos = ds.train[0];
            let neg = sampler.sample(&pos, model.as_ref(), &mut rng);
            assert!(neg.entity < ds.num_entities() as u32);
            assert_ne!(neg.triple, pos);
            // generator-based samplers must report extra parameters
            match config {
                SamplerConfig::KbGan { .. } | SamplerConfig::Igan { .. } => {
                    assert!(sampler.extra_parameters() > 0)
                }
                _ => assert_eq!(sampler.extra_parameters(), 0),
            }
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(SamplerConfig::Uniform.display_name(), "Uniform");
        assert_eq!(SamplerConfig::Bernoulli.display_name(), "Bernoulli");
        assert_eq!(
            SamplerConfig::NsCaching(NsCachingConfig::paper_default()).display_name(),
            "NSCaching"
        );
        assert_eq!(SamplerConfig::kbgan_default().display_name(), "KBGAN");
        assert_eq!(SamplerConfig::igan_default().display_name(), "IGAN");
    }
}
