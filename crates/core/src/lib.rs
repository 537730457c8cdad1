//! NSCaching — cache-based negative sampling for knowledge-graph embedding.
//!
//! This crate implements the paper's contribution and every negative-sampling
//! baseline it compares against:
//!
//! * [`UniformSampler`] — uniform corruption (Bordes et al., 2013), and,
//!   with [`CorruptionPolicy::Bernoulli`], the cardinality-aware Bernoulli
//!   corruption (Wang et al., 2014), the paper's main fixed-distribution
//!   baseline;
//! * [`NsCachingSampler`] — the paper's method (Algorithms 2 and 3): a head
//!   cache `H` indexed by `(r, t)` and a tail cache `T` indexed by `(h, r)`
//!   store the highest-scoring corruption candidates; negatives are drawn
//!   uniformly from the cache and the cache is refreshed by importance
//!   sampling from `cache ∪ N2 random entities`;
//! * [`GeneratorSampler`] — the two GAN baselines, whose jointly trained
//!   generator picks the negative and is updated with REINFORCE. They differ
//!   only in the candidate set the generator scores:
//!   [`GeneratorSampler::kbgan`] (Cai & Wang, 2018) scores a small
//!   uniformly-drawn set, [`GeneratorSampler::igan`] (an IGAN-style
//!   baseline, Wang et al., 2018) the *whole* entity set, making each sample
//!   O(|E|·d).
//!
//! Every sampler implements the [`NegativeSampler`] trait consumed by
//! `nscaching-train`. The ablation strategies of Section IV-C (uniform/IS/top
//! sampling from the cache, IS/top/uniform cache update) are expressed as
//! [`SampleStrategy`] / [`UpdateStrategy`] values on [`NsCachingConfig`].

pub mod cache;
pub mod config;
pub mod corruption;
pub mod generator;
pub mod nscaching;
pub mod partition;
pub mod sampler;
pub mod state;
pub mod strategy;
pub mod uniform;

pub use cache::{CacheKey, CacheProbe, NegativeCache};
pub use config::{build_sampler, NsCachingConfig, SamplerConfig};
pub use corruption::CorruptionPolicy;
pub use generator::GeneratorSampler;
pub use nscaching::NsCachingSampler;
pub use partition::{ObservedPartition, PartitionKey, ShardPartition};
pub use sampler::{shard_of_key, NegativeSampler, SampledNegative, ShardSampler};
pub use state::{
    CacheEntryState, CacheState, GeneratorKind, GeneratorState, GeneratorTableState,
    NsCachingShardState, NsCachingState, SamplerState,
};
pub use strategy::{SampleStrategy, UpdateStrategy};
pub use uniform::UniformSampler;
