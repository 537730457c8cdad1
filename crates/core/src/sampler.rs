//! The negative-sampler trait shared by NSCaching and every baseline.
//!
//! Since the sharded-training refactor the trait has two faces:
//!
//! * the classic **per-triple hooks** ([`NegativeSampler::sample`] /
//!   [`feedback`](NegativeSampler::feedback) /
//!   [`update`](NegativeSampler::update)), which the trainer drives as its
//!   single shard at `shards = 1` (the paper-exact path), and which the
//!   Table I timing harness calls;
//! * the **shard-aware batch API** ([`NegativeSampler::prepare_shards`] /
//!   [`shard_of`](NegativeSampler::shard_of) /
//!   [`shard_workers`](NegativeSampler::shard_workers) /
//!   [`merge_batch`](NegativeSampler::merge_batch)), used by the trainer at
//!   `shards > 1`. A mini-batch is partitioned by cache key so that the `S`
//!   [`ShardSampler`] workers own disjoint keyed state and can run
//!   concurrently on the trainer's worker pool without any locking — the
//!   "shared segment" idiom of sharded caches, with determinism added by
//!   giving every shard its own seeded RNG stream and merging worker
//!   feedback in ascending shard order.

use crate::state::SamplerState;
use nscaching_kg::{CorruptionSide, Triple};
use nscaching_math::split_seed;
use nscaching_models::KgeModel;
use rand::rngs::StdRng;

/// A sampled negative triple together with how it was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampledNegative {
    /// The negative triple `(h̄, r, t)` or `(h, r, t̄)`.
    pub triple: Triple,
    /// Which side of the positive was corrupted.
    pub side: CorruptionSide,
    /// The replacement entity.
    pub entity: u32,
}

impl SampledNegative {
    /// Build the record from a positive triple, a side and the replacement.
    pub fn new(positive: &Triple, side: CorruptionSide, entity: u32) -> Self {
        Self {
            triple: positive.corrupted(side, entity),
            side,
            entity,
        }
    }
}

/// Deterministic shard assignment for a cache key pair.
///
/// Mixes both key components through SplitMix64 so that shards stay balanced
/// even when one component has low entropy (e.g. few relations), and is
/// stable across runs and platforms — a requirement for the bit-reproducible
/// parallel trainer.
pub fn shard_of_key(a: u32, b: u32, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    (split_seed(a as u64, b as u64) % shards.max(1) as u64) as usize
}

/// A per-shard worker view over a sampler's state.
///
/// Workers for different shards own disjoint state (their slice of the
/// keyed caches plus private feedback accumulators), so a batch's workers can
/// run concurrently. Each worker is driven with its shard's positives **in
/// batch order** and its own decorrelated RNG stream; any state that must
/// flow back to the whole sampler (REINFORCE gradients, reward statistics) is
/// buffered inside the shard and folded in by
/// [`NegativeSampler::merge_batch`] after the workers have been dropped.
pub trait ShardSampler: Send {
    /// Sample one negative for `positive` using this shard's state.
    fn sample(
        &mut self,
        positive: &Triple,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative;

    /// Record the discriminator's score of a sampled negative. Generator
    /// samplers buffer the REINFORCE contribution in shard state; the default
    /// ignores the feedback.
    fn feedback(
        &mut self,
        _positive: &Triple,
        _negative: &SampledNegative,
        _reward: f64,
        _rng: &mut StdRng,
    ) {
    }

    /// Refresh shard-owned keyed state for `positive` (NSCaching's
    /// Algorithm 3 on this shard's cache entries).
    fn update(&mut self, _positive: &Triple, _model: &dyn KgeModel, _rng: &mut StdRng) {}
}

/// A negative-sampling scheme (step 5 of the paper's Algorithm 1, steps 5–8
/// of Algorithm 2).
///
/// At one shard the trainer drives a sampler through three per-triple hooks:
///
/// 1. [`sample`](NegativeSampler::sample) — produce one negative for a
///    positive triple;
/// 2. [`feedback`](NegativeSampler::feedback) — report the discriminator's
///    score of that negative (only the GAN-based samplers use this, for their
///    REINFORCE update);
/// 3. [`update`](NegativeSampler::update) — refresh internal state for the
///    positive triple (NSCaching's Algorithm 3 cache update).
///
/// With more shards it instead partitions each mini-batch with
/// [`shard_of`](NegativeSampler::shard_of), drives one
/// [`ShardSampler`] worker per shard concurrently, and folds per-shard
/// feedback back in with [`merge_batch`](NegativeSampler::merge_batch).
///
/// `epoch_finished` is called once per epoch so samplers can implement lazy
/// updates and reset per-epoch statistics.
pub trait NegativeSampler: Send {
    /// Human-readable name used in reports (e.g. `"NSCaching"`).
    fn name(&self) -> &'static str;

    /// Sample one negative triple for `positive` under the current `model`.
    fn sample(
        &mut self,
        positive: &Triple,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative;

    /// Report the target model's score of a sampled negative so that
    /// generator-based samplers can perform their policy-gradient update.
    /// The default implementation ignores the feedback.
    fn feedback(
        &mut self,
        _positive: &Triple,
        _negative: &SampledNegative,
        _reward: f64,
        _rng: &mut StdRng,
    ) {
    }

    /// Refresh internal state for `positive` (e.g. the NSCaching cache
    /// update of Algorithm 3). Called once per processed positive triple.
    fn update(&mut self, _positive: &Triple, _model: &dyn KgeModel, _rng: &mut StdRng) {}

    /// Re-partition keyed state into `shards` disjoint shards ahead of a
    /// parallel epoch. Must be called before
    /// [`shard_workers`](Self::shard_workers); cheap when the shard count is
    /// unchanged. Samplers without keyed state only record the count.
    fn prepare_shards(&mut self, shards: usize);

    /// Number of shards the sampler is currently partitioned into.
    fn shard_count(&self) -> usize;

    /// The shard that must process `positive` when running with `shards`
    /// shards. Must be a *key-based* pure function of `(positive, shards)`
    /// and the sampler's construction-time inputs (e.g. observed key
    /// frequencies), so the batch partition is reproducible and positives
    /// sharing a cache key always land on one shard. The default shards by
    /// the tail-cache key `(h, r)` through the uniform SplitMix64 hash;
    /// NSCaching overrides it with a load-balanced
    /// [`ShardPartition`](crate::partition::ShardPartition) when the
    /// training key frequencies have been observed.
    fn shard_of(&self, positive: &Triple, shards: usize) -> usize {
        shard_of_key(positive.head, positive.relation, shards)
    }

    /// Split into one worker per prepared shard for one mini-batch. The
    /// returned workers borrow the sampler and must be dropped before
    /// [`merge_batch`](Self::merge_batch) is called (the borrow checker
    /// enforces this).
    fn shard_workers(&mut self) -> Vec<Box<dyn ShardSampler + '_>>;

    /// Fold the per-shard feedback buffered by the workers of one mini-batch
    /// back into the sampler, in ascending shard order (deterministic
    /// reduction). Called on the main thread after the batch's workers have
    /// joined; generator samplers apply their one REINFORCE optimizer step
    /// per batch here.
    fn merge_batch(&mut self) {}

    /// Notify the sampler that an epoch has finished (0-based index).
    fn epoch_finished(&mut self, _epoch: usize) {}

    /// Number of trainable parameters owned by the sampler itself (generator
    /// parameters for the GAN baselines, 0 otherwise). Used for the Table I
    /// comparison.
    fn extra_parameters(&self) -> usize {
        0
    }

    /// Number of cache elements changed since the last call (the "CE" measure
    /// of Figure 8). Samplers without a cache report 0.
    fn take_changed_elements(&mut self) -> u64 {
        0
    }

    /// The current tail-cache contents for `positive`'s `(h, r)` key, if this
    /// sampler maintains a cache (used by the Table VI probing experiment).
    fn tail_cache_contents(&self, _positive: &Triple) -> Option<Vec<u32>> {
        None
    }

    /// The current head-cache contents for `positive`'s `(r, t)` key, if this
    /// sampler maintains a cache.
    fn head_cache_contents(&self, _positive: &Triple) -> Option<Vec<u32>> {
        None
    }

    /// Capture the sampler's evolving state at an epoch boundary, for
    /// full-state checkpointing (see [`SamplerState`]). Samplers whose state
    /// is a pure function of `(dataset, seed)` return
    /// [`SamplerState::Stateless`] — the default.
    ///
    /// The capture must be **deterministic**: two calls on the same sampler
    /// must produce identical values (keyed state sorted, no hash-map
    /// iteration order leaking through), so checkpoint bytes are stable.
    fn export_state(&self) -> SamplerState {
        SamplerState::Stateless
    }

    /// Re-apply a state captured by [`export_state`](Self::export_state) on a
    /// freshly-constructed sampler of the same configuration.
    ///
    /// Importing [`SamplerState::Stateless`] is always accepted as a no-op:
    /// it is what legacy checkpoints (written before sampler sections
    /// existed) decode to, and a stateful sampler resuming from one keeps its
    /// fresh construction-time state — a valid trajectory, just not the
    /// bit-identical one. Importing a *typed* state into the wrong sampler is
    /// an error.
    fn import_state(&mut self, state: SamplerState) -> Result<(), String> {
        match state {
            SamplerState::Stateless => Ok(()),
            other => Err(format!(
                "{} sampler cannot import {} state",
                self.name(),
                other.kind_name()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_negative_builds_the_corrupted_triple() {
        let pos = Triple::new(1, 2, 3);
        let n = SampledNegative::new(&pos, CorruptionSide::Head, 9);
        assert_eq!(n.triple, Triple::new(9, 2, 3));
        assert_eq!(n.side, CorruptionSide::Head);
        assert_eq!(n.entity, 9);

        let n = SampledNegative::new(&pos, CorruptionSide::Tail, 9);
        assert_eq!(n.triple, Triple::new(1, 2, 9));
    }

    #[test]
    fn shard_of_key_is_stable_and_in_range() {
        for shards in 1..9usize {
            for a in 0..50u32 {
                for b in 0..5u32 {
                    let s = shard_of_key(a, b, shards);
                    assert!(s < shards);
                    assert_eq!(s, shard_of_key(a, b, shards), "assignment is pure");
                }
            }
        }
    }

    #[test]
    fn shard_of_key_spreads_keys_across_shards() {
        let shards = 4;
        let mut hit = vec![0usize; shards];
        for a in 0..200u32 {
            hit[shard_of_key(a, 0, shards)] += 1;
        }
        assert!(
            hit.iter().all(|&c| c > 20),
            "200 keys over 4 shards should land everywhere: {hit:?}"
        );
    }
}
