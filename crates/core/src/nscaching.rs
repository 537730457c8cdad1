//! The NSCaching sampler (Algorithms 2 and 3 of the paper).

use crate::cache::{CacheProbe, NegativeCache};
use crate::config::NsCachingConfig;
use crate::corruption::CorruptionPolicy;
use crate::partition::{ObservedPartition, PartitionKey};
use crate::sampler::{NegativeSampler, SampledNegative, ShardSampler};
use crate::state::{
    CacheEntryState, CacheState, NsCachingShardState, NsCachingState, SamplerState,
};
use crate::strategy::{SampleStrategy, UpdateStrategy};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::{
    argmax, gumbel_top_k_into, sample_distinct_uniform_into, sample_one_weighted, softmax_in_place,
    top_k_indices_into,
};
use nscaching_models::KgeModel;
use rand::rngs::StdRng;
use rand::Rng;

/// Reusable working storage for the sampler's hot paths.
///
/// Every buffer grows to its high-water mark on the first few positives and
/// is reused afterwards, so steady-state `sample`/`update` calls perform no
/// heap allocation (verified by the allocation counter in the
/// `sampler_throughput` bench).
#[derive(Debug, Default)]
struct Scratch {
    /// Masked copy of a cache entry (positive's own entity filtered out).
    candidates: Vec<EntityId>,
    /// Candidate pool for Algorithm 3 (cache entry ∪ N2 random entities).
    pool: Vec<EntityId>,
    /// Batched candidate scores / softmax weights, in `pool` order.
    scores: Vec<f64>,
    /// `(Gumbel key, pool index)` pairs of the importance-sampling update.
    keys: Vec<(f64, usize)>,
    /// Indices into `pool` kept by the update strategy.
    kept: Vec<usize>,
    /// Distinct random indices drawn when extending the pool (Algorithm 3
    /// step 2).
    random: Vec<usize>,
    /// Floyd's membership bitset for the distinct draws (all zeros between
    /// draws).
    seen: Vec<u64>,
    /// The refreshed cache entry before it is copied over the old one.
    refreshed: Vec<EntityId>,
}

/// One shard's exclusively-owned slice of the NSCaching state: a head cache,
/// a tail cache and the scratch buffers of its worker. Shards are disjoint by
/// construction — positives are routed to shards by their `(h, r)` key, and
/// every cache entry a shard materialises belongs to positives routed to it —
/// so a batch's shard workers never contend.
#[derive(Debug)]
struct NsCachingShard {
    head_cache: NegativeCache,
    tail_cache: NegativeCache,
    scratch: Scratch,
    refresh_count: u64,
}

impl NsCachingShard {
    fn new(config: &NsCachingConfig, num_entities: usize) -> Self {
        Self {
            head_cache: NegativeCache::new(config.cache_size, num_entities),
            tail_cache: NegativeCache::new(config.cache_size, num_entities),
            scratch: Scratch::default(),
            refresh_count: 0,
        }
    }
}

/// Cache-based negative sampler.
///
/// Maintains a head cache `H` indexed by `(r, t)` and a tail cache `T`
/// indexed by `(h, r)`. For each positive triple the sampler
///
/// 1. draws a candidate head from `H(r,t)` and a candidate tail from
///    `T(h,r)` using the configured [`SampleStrategy`] (step 6 of
///    Algorithm 2);
/// 2. picks one of the two corruptions using the corruption-side policy
///    (step 7);
/// 3. on [`update`](NegativeSampler::update), refreshes both cache entries by
///    scoring `cache ∪ N2 random entities` and keeping `N1` of them according
///    to the configured [`UpdateStrategy`] (Algorithm 3).
///
/// For parallel training the caches are partitioned into `S` shards keyed by
/// the positive's `(h, r)` index; each shard owns its own `H`/`T` pair,
/// giving the workers lock-free exclusive access. The key → shard routing is
/// frequency-aware when the training key frequencies have been observed
/// ([`with_observed_keys`](Self::with_observed_keys) — a load-balanced
/// [`ShardPartition`](crate::ShardPartition) built in `prepare_shards`), and
/// falls back to the uniform [`shard_of_key`](crate::shard_of_key) hash
/// otherwise. With one shard (the default, and the one-shard trainer's
/// configuration) the layout and behaviour are identical to the unsharded
/// sampler.
pub struct NsCachingSampler {
    config: NsCachingConfig,
    policy: CorruptionPolicy,
    num_entities: usize,
    /// Whether cache updates run in the current epoch (lazy update).
    updates_enabled: bool,
    /// Disjoint cache shards; always at least one.
    shards: Vec<NsCachingShard>,
    /// Load-balanced `(h, r)` key routing when the training frequencies were
    /// observed, uniform hash otherwise. Must stay consistent across
    /// `shard_of`, the per-triple hooks and the probes — every key has
    /// exactly one owning shard, which [`ObservedPartition`]'s key-based
    /// purity guarantees.
    routing: ObservedPartition,
}

impl NsCachingSampler {
    /// Create a sampler for a vocabulary of `num_entities` entities. Panics
    /// on fewer than two: a positive's only corruption would be itself.
    pub fn new(config: NsCachingConfig, num_entities: usize, policy: CorruptionPolicy) -> Self {
        assert!(
            num_entities >= 2,
            "negative sampling needs at least two entities"
        );
        Self {
            shards: vec![NsCachingShard::new(&config, num_entities)],
            policy,
            num_entities,
            updates_enabled: true,
            config,
            routing: ObservedPartition::default(),
        }
    }

    /// Record the `(h, r)` key frequencies of `triples` (normally the
    /// training split) so that `prepare_shards` can build a load-balanced
    /// partition instead of the uniform hash routing (see
    /// [`ObservedPartition`]).
    pub fn with_observed_keys(mut self, triples: &[Triple]) -> Self {
        self.routing.observe(triples);
        self
    }

    /// Route a cache key to its shard under `shards` shards.
    #[inline]
    fn route_key(&self, key: PartitionKey, shards: usize) -> usize {
        self.routing.shard_of(key, shards)
    }

    /// The configuration in use.
    pub fn config(&self) -> &NsCachingConfig {
        &self.config
    }

    /// Snapshot of the head cache for `(r, t)` (Table VI probing).
    ///
    /// Head-cache entries live in the shard of the positives that touch them
    /// (shards are routed by the *tail*-cache key `(h, r)`), so at
    /// `shards > 1` the same `(r, t)` key can be materialised independently —
    /// with different contents — in several shards; the probe returns the
    /// entry of the lowest-indexed shard that has one. The Table VI probing
    /// experiment runs on the sequential (1-shard) trainer, where the entry
    /// is unique.
    pub fn probe_head_cache(&self, relation: u32, tail: u32) -> CacheProbe {
        let key = (relation, tail);
        for shard in &self.shards {
            if let Some(entities) = shard.head_cache.peek(key) {
                return CacheProbe {
                    key,
                    entities: entities.to_vec(),
                };
            }
        }
        CacheProbe {
            key,
            entities: Vec::new(),
        }
    }

    /// Snapshot of the tail cache for `(h, r)` (Table VI probing).
    pub fn probe_tail_cache(&self, head: u32, relation: u32) -> CacheProbe {
        self.shards[self.route_key((head, relation), self.shards.len())]
            .tail_cache
            .probe((head, relation))
    }

    /// Changed cache elements since the last call (the CE measure of Fig. 8),
    /// summed over both caches of every shard.
    pub fn take_changed_elements(&mut self) -> u64 {
        self.shards
            .iter_mut()
            .map(|s| s.head_cache.take_changed_elements() + s.tail_cache.take_changed_elements())
            .sum()
    }

    /// Total approximate memory used by all cache shards, in bytes (Table I).
    pub fn cache_memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.head_cache.memory_bytes() + s.tail_cache.memory_bytes())
            .sum()
    }

    /// Number of cache refresh operations performed so far, over all shards.
    pub fn refresh_count(&self) -> u64 {
        self.shards.iter().map(|s| s.refresh_count).sum()
    }

    /// Whether the lazy-update schedule enables cache refreshes this epoch.
    pub fn updates_enabled(&self) -> bool {
        self.updates_enabled
    }

    fn shard_index(&self, positive: &Triple) -> usize {
        self.route_key((positive.head, positive.relation), self.shards.len())
    }

    /// Draw one negative from a cache entry (step 6 of Algorithm 2).
    ///
    /// A free-standing function (rather than `&self`) so callers can lend out
    /// disjoint scratch buffers; all candidate scoring goes through the
    /// batched [`KgeModel::score_candidates`] fast path with `scores` as the
    /// reused output buffer.
    #[allow(clippy::too_many_arguments)]
    fn pick_from_cache(
        config: &NsCachingConfig,
        num_entities: usize,
        candidates: &[EntityId],
        scores: &mut Vec<f64>,
        positive: &Triple,
        side: CorruptionSide,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> EntityId {
        // `candidates` has already been masked: the positive's own entity (a
        // very high-scoring cache resident) is filtered out by the caller. If
        // masking emptied the entry, fall back to a uniform draw over
        // E∖{excluded}: one of the |E| − 1 other ids, shifted past it.
        if candidates.is_empty() {
            let excluded = positive.entity_at(side);
            let e = rng.gen_range(0..num_entities as EntityId - 1);
            return e + EntityId::from(e >= excluded);
        }
        match config.sample_strategy {
            SampleStrategy::Uniform => candidates[rng.gen_range(0..candidates.len())],
            SampleStrategy::Importance => {
                model.score_candidates(positive, side, candidates, scores);
                softmax_in_place(scores);
                candidates[sample_one_weighted(rng, scores)]
            }
            SampleStrategy::Top => {
                model.score_candidates(positive, side, candidates, scores);
                candidates[argmax(scores).expect("candidates are non-empty")]
            }
        }
    }

    /// Step 5–7 of Algorithm 2 on one shard's caches. Free-standing so both
    /// the legacy per-triple hook and the shard workers share one hot path
    /// (and one RNG consumption order).
    fn sample_in_shard(
        config: &NsCachingConfig,
        policy: &CorruptionPolicy,
        num_entities: usize,
        shard: &mut NsCachingShard,
        positive: &Triple,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        // Step 7 first: picking the corruption side does not depend on the
        // drawn candidates, so only the chosen side's cache needs scoring —
        // half the candidate-scoring work of a draw-both-then-choose order,
        // with an identical sampling distribution. Step 5 still materialises
        // both caches (Algorithm 2 keeps `H(r, t)` and `T(h, r)` warm on
        // every positive): the unchosen side is warmed here, the chosen side
        // by the `get_or_init` below — two hash probes per positive in total.
        let side = policy.choose(positive, rng);
        let (cache, other, key, other_key) = match side {
            CorruptionSide::Head => (
                &mut shard.head_cache,
                &mut shard.tail_cache,
                positive.relation_tail(),
                positive.head_relation(),
            ),
            CorruptionSide::Tail => (
                &mut shard.tail_cache,
                &mut shard.head_cache,
                positive.head_relation(),
                positive.relation_tail(),
            ),
        };
        other.get_or_init(other_key, rng);
        // Step 6: draw one candidate from the chosen cache. The entry is
        // copied into a reusable scratch buffer with the positive's own
        // entity masked out in the same pass (it may legitimately sit in the
        // cache as a top-scoring candidate, but drawing it would reproduce
        // the positive triple).
        let excluded = positive.entity_at(side);
        shard.scratch.candidates.clear();
        shard.scratch.candidates.extend(
            cache
                .get_or_init(key, rng)
                .iter()
                .copied()
                .filter(|&e| e != excluded),
        );
        let pick = Self::pick_from_cache(
            config,
            num_entities,
            &shard.scratch.candidates,
            &mut shard.scratch.scores,
            positive,
            side,
            model,
            rng,
        );
        SampledNegative::new(positive, side, pick)
    }

    /// Algorithm 3 applied to one cache entry of one shard, writing the
    /// refreshed entry back in place. Scoring the `N1 + N2` candidate pool
    /// goes through the batched fast path, and every intermediate lives in
    /// the shard's scratch, so a steady-state refresh performs no heap
    /// allocation. With the importance-sampling update the refresh costs
    /// `O((N1 + N2)·d)`, as Table I states: scoring dominates, and keeping
    /// `N1` of the scored candidates is one linear Gumbel-top-k pass.
    fn refresh_entry(
        config: &NsCachingConfig,
        num_entities: usize,
        shard: &mut NsCachingShard,
        positive: &Triple,
        side: CorruptionSide,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) {
        let (cache, key) = match side {
            CorruptionSide::Head => (&mut shard.head_cache, positive.relation_tail()),
            CorruptionSide::Tail => (&mut shard.tail_cache, positive.head_relation()),
        };
        let scratch = &mut shard.scratch;
        let n1 = config.cache_size;
        let n2 = config.random_size.min(num_entities);
        // Step 2-3: candidate pool = cache ∪ N2 uniformly random entities.
        scratch.pool.clear();
        scratch.pool.extend_from_slice(cache.get_or_init(key, rng));
        sample_distinct_uniform_into(
            rng,
            num_entities,
            n2,
            &mut scratch.seen,
            &mut scratch.random,
        );
        scratch
            .pool
            .extend(scratch.random.iter().map(|&e| e as EntityId));
        // Step 4: score every candidate in one batched call.
        model.score_candidates(positive, side, &scratch.pool, &mut scratch.scores);
        // Steps 5-9: keep N1 of them.
        match config.update_strategy {
            // Equation (6): N1 picks without replacement, each ∝ exp(score)
            // among the candidates left, drawn as the N1 largest
            // score + Gumbel-noise keys.
            UpdateStrategy::Importance => gumbel_top_k_into(
                rng,
                &scratch.scores,
                n1,
                &mut scratch.keys,
                &mut scratch.kept,
            ),
            UpdateStrategy::Top => top_k_indices_into(&scratch.scores, n1, &mut scratch.kept),
            UpdateStrategy::Uniform => sample_distinct_uniform_into(
                rng,
                scratch.pool.len(),
                n1.min(scratch.pool.len()),
                &mut scratch.seen,
                &mut scratch.kept,
            ),
        }
        scratch.refreshed.clear();
        scratch
            .refreshed
            .extend(scratch.kept.iter().map(|&i| scratch.pool[i]));
        cache.replace_from_slice(key, &scratch.refreshed);
    }

    /// Algorithm 3 on both caches of one shard (head `H(r, t)` first, then
    /// tail `T(h, r)`) — the body of the `update` hook.
    fn update_in_shard(
        config: &NsCachingConfig,
        num_entities: usize,
        shard: &mut NsCachingShard,
        positive: &Triple,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) {
        Self::refresh_entry(
            config,
            num_entities,
            shard,
            positive,
            CorruptionSide::Head,
            model,
            rng,
        );
        Self::refresh_entry(
            config,
            num_entities,
            shard,
            positive,
            CorruptionSide::Tail,
            model,
            rng,
        );
        shard.refresh_count += 2;
    }
}

/// Worker view over one NSCaching shard, handed out by
/// [`NegativeSampler::shard_workers`].
struct NsCachingShardWorker<'a> {
    config: &'a NsCachingConfig,
    policy: &'a CorruptionPolicy,
    num_entities: usize,
    updates_enabled: bool,
    shard: &'a mut NsCachingShard,
}

impl ShardSampler for NsCachingShardWorker<'_> {
    fn sample(
        &mut self,
        positive: &Triple,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        NsCachingSampler::sample_in_shard(
            self.config,
            self.policy,
            self.num_entities,
            self.shard,
            positive,
            model,
            rng,
        )
    }

    fn update(&mut self, positive: &Triple, model: &dyn KgeModel, rng: &mut StdRng) {
        if !self.updates_enabled {
            return;
        }
        NsCachingSampler::update_in_shard(
            self.config,
            self.num_entities,
            self.shard,
            positive,
            model,
            rng,
        );
    }
}

impl NegativeSampler for NsCachingSampler {
    fn name(&self) -> &'static str {
        "NSCaching"
    }

    fn sample(
        &mut self,
        positive: &Triple,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        let shard = self.shard_index(positive);
        Self::sample_in_shard(
            &self.config,
            &self.policy,
            self.num_entities,
            &mut self.shards[shard],
            positive,
            model,
            rng,
        )
    }

    fn update(&mut self, positive: &Triple, model: &dyn KgeModel, rng: &mut StdRng) {
        if !self.updates_enabled {
            return;
        }
        let shard = self.shard_index(positive);
        Self::update_in_shard(
            &self.config,
            self.num_entities,
            &mut self.shards[shard],
            positive,
            model,
            rng,
        );
    }

    fn prepare_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        self.routing.prepare(shards);
        if self.shards.len() == shards {
            return;
        }
        // Re-partitioning drops the cached entries: entries are owned by the
        // shard their positives route to, and that routing changes with the
        // shard count. Caches re-materialise lazily with random entries —
        // the same "easy samples first" state as a fresh epoch 0.
        self.shards = (0..shards)
            .map(|_| NsCachingShard::new(&self.config, self.num_entities))
            .collect();
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Frequency-aware routing: the balanced partition built by
    /// `prepare_shards` when key frequencies were observed, else the uniform
    /// hash. Still a pure function of `(positive, shards)` for a fixed
    /// training split, so batch partitions replay exactly.
    fn shard_of(&self, positive: &Triple, shards: usize) -> usize {
        self.route_key((positive.head, positive.relation), shards)
    }

    fn shard_workers(&mut self) -> Vec<Box<dyn ShardSampler + '_>> {
        let config = &self.config;
        let policy = &self.policy;
        let num_entities = self.num_entities;
        let updates_enabled = self.updates_enabled;
        self.shards
            .iter_mut()
            .map(|shard| {
                Box::new(NsCachingShardWorker {
                    config,
                    policy,
                    num_entities,
                    updates_enabled,
                    shard,
                }) as Box<dyn ShardSampler>
            })
            .collect()
    }

    fn epoch_finished(&mut self, epoch: usize) {
        // Lazy update: with period n, the cache is refreshed only every
        // (n + 1)-th epoch; n = 0 refreshes every epoch (the paper's default).
        let period = self.config.lazy_update_epochs + 1;
        self.updates_enabled = (epoch + 1).is_multiple_of(period);
    }

    fn take_changed_elements(&mut self) -> u64 {
        NsCachingSampler::take_changed_elements(self)
    }

    fn tail_cache_contents(&self, positive: &Triple) -> Option<Vec<u32>> {
        Some(
            self.probe_tail_cache(positive.head, positive.relation)
                .entities,
        )
    }

    fn head_cache_contents(&self, positive: &Triple) -> Option<Vec<u32>> {
        Some(
            self.probe_head_cache(positive.relation, positive.tail)
                .entities,
        )
    }

    fn export_state(&self) -> SamplerState {
        let capture = |cache: &NegativeCache| CacheState {
            changed_elements: cache.changed_elements(),
            entries: cache
                .export_entries()
                .into_iter()
                .map(|(key, entities)| CacheEntryState { key, entities })
                .collect(),
        };
        SamplerState::NsCaching(NsCachingState {
            updates_enabled: self.updates_enabled,
            shards: self
                .shards
                .iter()
                .map(|shard| NsCachingShardState {
                    refresh_count: shard.refresh_count,
                    head: capture(&shard.head_cache),
                    tail: capture(&shard.tail_cache),
                })
                .collect(),
        })
    }

    fn import_state(&mut self, state: SamplerState) -> Result<(), String> {
        let state = match state {
            // Legacy checkpoint without sampler sections: keep the fresh
            // caches (the pre-full-state-resume behaviour).
            SamplerState::Stateless => return Ok(()),
            SamplerState::NsCaching(state) => state,
            other => {
                return Err(format!(
                    "NSCaching sampler cannot import {} state",
                    other.kind_name()
                ))
            }
        };
        if state.shards.is_empty() {
            return Err("NSCaching state holds zero shards".into());
        }
        // Rebuild the shard layout to the captured count (the routing
        // partition is a pure function of the observed keys and the count,
        // so positionally-restored entries land in the shard that will own
        // their keys), then fill the caches.
        self.routing.prepare(state.shards.len());
        self.shards = state
            .shards
            .iter()
            .map(|_| NsCachingShard::new(&self.config, self.num_entities))
            .collect();
        self.updates_enabled = state.updates_enabled;
        for (shard, captured) in self.shards.iter_mut().zip(&state.shards) {
            shard.refresh_count = captured.refresh_count;
            for (cache, capture) in [
                (&mut shard.head_cache, &captured.head),
                (&mut shard.tail_cache, &captured.tail),
            ] {
                cache.set_changed_elements(capture.changed_elements);
                for entry in &capture.entries {
                    cache.restore_entry(entry.key, entry.entities.clone())?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;
    use nscaching_models::{build_model, ModelConfig, ModelKind};

    fn model(n: usize) -> Box<dyn KgeModel> {
        build_model(
            &ModelConfig::new(ModelKind::TransE).with_dim(8).with_seed(5),
            n,
            3,
        )
    }

    fn sampler(n1: usize, n2: usize) -> NsCachingSampler {
        let config = NsCachingConfig::new(n1, n2);
        NsCachingSampler::new(config, 60, CorruptionPolicy::Uniform)
    }

    #[test]
    fn sampled_negatives_come_from_the_cache() {
        let mut s = sampler(10, 10);
        let m = model(60);
        let mut rng = seeded_rng(1);
        let pos = Triple::new(0, 0, 1);
        let neg = s.sample(&pos, m.as_ref(), &mut rng);
        let head_cache = s.probe_head_cache(0, 1).entities;
        let tail_cache = s.probe_tail_cache(0, 0).entities;
        match neg.side {
            CorruptionSide::Head => assert!(head_cache.contains(&neg.entity)),
            CorruptionSide::Tail => assert!(tail_cache.contains(&neg.entity)),
        }
        assert_eq!(head_cache.len(), 10);
        assert_eq!(tail_cache.len(), 10);
    }

    #[test]
    fn update_raises_the_mean_cache_score() {
        let mut s = sampler(10, 30);
        let m = model(60);
        let mut rng = seeded_rng(2);
        let pos = Triple::new(3, 1, 7);
        // materialise and capture the initial (random) cache
        let _ = s.sample(&pos, m.as_ref(), &mut rng);
        let mean_score = |entities: &[u32], side: CorruptionSide| -> f64 {
            entities
                .iter()
                .map(|&e| m.score(&pos.corrupted(side, e)))
                .sum::<f64>()
                / entities.len() as f64
        };
        let before = mean_score(&s.probe_head_cache(1, 7).entities, CorruptionSide::Head);
        for _ in 0..5 {
            s.update(&pos, m.as_ref(), &mut rng);
        }
        let after = mean_score(&s.probe_head_cache(1, 7).entities, CorruptionSide::Head);
        assert!(
            after > before,
            "IS update should concentrate the cache on high-scoring negatives ({before} -> {after})"
        );
        assert_eq!(s.refresh_count(), 10);
    }

    #[test]
    fn top_update_keeps_exactly_the_highest_scoring_candidates() {
        let config = NsCachingConfig::new(5, 20).with_update_strategy(UpdateStrategy::Top);
        let mut s = NsCachingSampler::new(config, 40, CorruptionPolicy::Uniform);
        let m = model(40);
        let mut rng = seeded_rng(3);
        let pos = Triple::new(2, 0, 9);
        s.update(&pos, m.as_ref(), &mut rng);
        let cache = s.probe_head_cache(0, 9).entities;
        assert_eq!(cache.len(), 5);
        // every cached entity must score at least as high as the median entity
        let all_scores: Vec<f64> = (0..40u32).map(|e| m.score(&pos.with_head(e))).collect();
        let mut sorted = all_scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[20];
        for &e in &cache {
            assert!(all_scores[e as usize] >= median);
        }
    }

    #[test]
    fn top_sampling_returns_the_argmax_of_the_cache() {
        let config = NsCachingConfig::new(8, 8).with_sample_strategy(SampleStrategy::Top);
        let mut s = NsCachingSampler::new(config, 50, CorruptionPolicy::Uniform);
        let m = model(50);
        let mut rng = seeded_rng(4);
        let pos = Triple::new(1, 2, 3);
        let neg = s.sample(&pos, m.as_ref(), &mut rng);
        let cache = match neg.side {
            CorruptionSide::Head => s.probe_head_cache(2, 3).entities,
            CorruptionSide::Tail => s.probe_tail_cache(1, 2).entities,
        };
        let best = cache
            .iter()
            .map(|&e| m.score(&pos.corrupted(neg.side, e)))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((m.score(&neg.triple) - best).abs() < 1e-12);
    }

    #[test]
    fn lazy_update_disables_refreshes_between_periods() {
        let config = NsCachingConfig::new(4, 4).with_lazy_update(2);
        let mut s = NsCachingSampler::new(config, 30, CorruptionPolicy::Uniform);
        let m = model(30);
        let mut rng = seeded_rng(5);
        let pos = Triple::new(0, 0, 1);

        assert!(s.updates_enabled());
        s.update(&pos, m.as_ref(), &mut rng);
        assert_eq!(s.refresh_count(), 2);

        // epochs 0 and 1 finish -> period 3 means updates only after epoch 2
        s.epoch_finished(0);
        assert!(!s.updates_enabled());
        s.update(&pos, m.as_ref(), &mut rng);
        assert_eq!(s.refresh_count(), 2, "no refresh while disabled");

        s.epoch_finished(1);
        assert!(!s.updates_enabled());
        s.epoch_finished(2);
        assert!(s.updates_enabled());
        s.update(&pos, m.as_ref(), &mut rng);
        assert_eq!(s.refresh_count(), 4);
    }

    #[test]
    fn emptied_entry_falls_back_to_a_uniform_draw_over_the_other_entities() {
        // Both cache entries of the self-loop (2, 0, 2) hold only entity 2,
        // so masking empties whichever side is corrupted.
        let n = 6;
        let mut s = NsCachingSampler::new(NsCachingConfig::new(3, 3), n, CorruptionPolicy::Uniform);
        let only_excluded = |key| CacheState {
            changed_elements: 0,
            entries: vec![CacheEntryState {
                key,
                entities: vec![2, 2, 2],
            }],
        };
        s.import_state(SamplerState::NsCaching(NsCachingState {
            updates_enabled: true,
            shards: vec![NsCachingShardState {
                refresh_count: 0,
                head: only_excluded((0, 2)),
                tail: only_excluded((2, 0)),
            }],
        }))
        .unwrap();
        let m = model(n);
        let mut rng = seeded_rng(10);
        let pos = Triple::new(2, 0, 2);
        let draws = 50_000;
        let mut counts = [0usize; 6];
        for _ in 0..draws {
            counts[s.sample(&pos, m.as_ref(), &mut rng).entity as usize] += 1;
        }
        assert_eq!(counts[2], 0, "the positive's own entity is never drawn");
        // χ² against uniform over the 5 other entities; 18.47 is the
        // p = 0.001 critical value at 4 degrees of freedom.
        let expected = draws as f64 / 5.0;
        let chi2: f64 = (0..n)
            .filter(|&e| e != 2)
            .map(|e| (counts[e] as f64 - expected).powi(2) / expected)
            .sum();
        assert!(chi2 < 18.47, "counts {counts:?}, χ² {chi2:.1}");
    }

    #[test]
    fn changed_elements_accumulate_and_reset() {
        let mut s = sampler(6, 20);
        let m = model(60);
        let mut rng = seeded_rng(6);
        let pos = Triple::new(5, 2, 8);
        s.update(&pos, m.as_ref(), &mut rng);
        let ce = NsCachingSampler::take_changed_elements(&mut s);
        assert!(ce > 0, "a fresh cache must change on the first update");
        assert_eq!(NsCachingSampler::take_changed_elements(&mut s), 0);
    }

    #[test]
    fn cache_memory_grows_with_touched_keys() {
        let mut s = sampler(10, 5);
        let m = model(60);
        let mut rng = seeded_rng(7);
        assert_eq!(s.cache_memory_bytes(), 0);
        for i in 0..5u32 {
            let _ = s.sample(&Triple::new(i, 0, i + 1), m.as_ref(), &mut rng);
        }
        // 5 head-cache keys + 5 tail-cache keys, 10 slots each, 4 bytes per id
        assert_eq!(s.cache_memory_bytes(), 10 * 10 * 4);
        assert_eq!(s.name(), "NSCaching");
        assert_eq!(s.extra_parameters(), 0);
    }

    #[test]
    fn prepare_shards_partitions_and_preserves_single_shard_state() {
        let mut s = sampler(8, 8);
        let m = model(60);
        let mut rng = seeded_rng(8);
        let pos = Triple::new(4, 1, 9);
        let _ = s.sample(&pos, m.as_ref(), &mut rng);
        let before = s.probe_tail_cache(4, 1).entities;
        assert!(!before.is_empty());

        // Same shard count: a no-op that keeps the cached entries.
        s.prepare_shards(1);
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.probe_tail_cache(4, 1).entities, before);

        // Re-partitioning resets the caches (ownership changes with S).
        s.prepare_shards(4);
        assert_eq!(s.shard_count(), 4);
        assert!(s.probe_tail_cache(4, 1).entities.is_empty());
        assert_eq!(s.cache_memory_bytes(), 0);
    }

    #[test]
    fn shard_workers_touch_only_their_own_shard() {
        let mut s = sampler(6, 6);
        let m = model(60);
        s.prepare_shards(3);
        let shards = s.shard_count();
        // Route a handful of positives through the workers of their shard.
        let positives: Vec<Triple> = (0..12u32).map(|i| Triple::new(i, i % 3, i + 20)).collect();
        let mut assignment = vec![Vec::new(); shards];
        for &p in &positives {
            assignment[NegativeSampler::shard_of(&s, &p, shards)].push(p);
        }
        {
            let mut workers = s.shard_workers();
            assert_eq!(workers.len(), shards);
            for (worker, task) in workers.iter_mut().zip(&assignment) {
                let mut rng = seeded_rng(9);
                for p in task {
                    let _ = worker.sample(p, m.as_ref(), &mut rng);
                    worker.update(p, m.as_ref(), &mut rng);
                }
            }
        }
        s.merge_batch();
        // Every positive's tail-cache entry is materialised in its own shard.
        for &p in &positives {
            assert_eq!(
                s.probe_tail_cache(p.head, p.relation).entities.len(),
                6,
                "entry for {p:?} must live in its assigned shard"
            );
        }
        assert!(s.refresh_count() >= 2 * positives.len() as u64);
    }
}
