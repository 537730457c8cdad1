//! Uniform negative sampling (the original TransE scheme), and, under the
//! Bernoulli side policy, Bernoulli sampling (Wang et al., 2014) — the
//! paper's baseline.

use crate::corruption::CorruptionPolicy;
use crate::sampler::{NegativeSampler, SampledNegative, ShardSampler};
use nscaching_kg::{KnowledgeGraph, Triple};
use nscaching_models::KgeModel;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Replace the head or tail with an entity drawn uniformly from `E`.
///
/// Which side is replaced follows the [`CorruptionPolicy`]: a fair coin by
/// default, or, with [`CorruptionPolicy::Bernoulli`], the head with
/// probability `tph / (tph + hpt)` for the triple's relation, so that
/// one-to-many relations corrupt heads and many-to-one relations corrupt
/// tails, reducing false negatives. The sampler's name follows the policy
/// (`"Uniform"` or `"Bernoulli"`).
///
/// Optionally rejects corruptions that are known training triples (false
/// negatives); the original TransE sampler does not, but the published
/// KBGAN/NSCaching implementations do, so rejection is on by default and can
/// be disabled for a faithful "raw" baseline.
#[derive(Debug, Clone)]
pub struct UniformSampler {
    num_entities: u32,
    policy: CorruptionPolicy,
    train: Option<Arc<KnowledgeGraph>>,
    max_rejects: usize,
    /// Shard count recorded by `prepare_shards`. The sampler keeps no keyed
    /// state, so shards only read the shared configuration.
    prepared_shards: usize,
}

impl UniformSampler {
    /// Create a sampler that corrupts a uniformly random side and never
    /// checks for false negatives.
    pub fn new(num_entities: usize) -> Self {
        Self {
            num_entities: num_entities as u32,
            policy: CorruptionPolicy::Uniform,
            train: None,
            max_rejects: 64,
            prepared_shards: 1,
        }
    }

    /// Use the given corruption-side policy.
    pub fn with_policy(mut self, policy: CorruptionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Reject corruptions that appear in the training graph.
    pub fn with_false_negative_filter(mut self, train: Arc<KnowledgeGraph>) -> Self {
        self.train = Some(train);
        self
    }

    fn draw(&self, positive: &Triple, rng: &mut StdRng) -> SampledNegative {
        let side = self.policy.choose(positive, rng);
        for _ in 0..self.max_rejects {
            let entity = rng.gen_range(0..self.num_entities);
            if entity == positive.entity_at(side) {
                continue;
            }
            let candidate = SampledNegative::new(positive, side, entity);
            match &self.train {
                Some(graph) if graph.contains(&candidate.triple) => continue,
                _ => return candidate,
            }
        }
        // Give up on filtering after `max_rejects` attempts — identical to the
        // reference implementations, which accept a rare false negative rather
        // than loop forever on very dense (h, r) pairs.
        let entity = rng.gen_range(0..self.num_entities);
        SampledNegative::new(positive, side, entity)
    }
}

/// Worker view over a stateless draw-only sampler: every shard reads the same
/// shared configuration, so a worker is just an immutable borrow.
struct UniformShardWorker<'a> {
    inner: &'a UniformSampler,
}

impl ShardSampler for UniformShardWorker<'_> {
    fn sample(
        &mut self,
        positive: &Triple,
        _model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        self.inner.draw(positive, rng)
    }
}

impl NegativeSampler for UniformSampler {
    fn name(&self) -> &'static str {
        match self.policy {
            CorruptionPolicy::Uniform => "Uniform",
            CorruptionPolicy::Bernoulli(_) => "Bernoulli",
        }
    }

    fn sample(
        &mut self,
        positive: &Triple,
        _model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        self.draw(positive, rng)
    }

    fn prepare_shards(&mut self, shards: usize) {
        self.prepared_shards = shards.max(1);
    }

    fn shard_count(&self) -> usize {
        self.prepared_shards
    }

    fn shard_workers(&mut self) -> Vec<Box<dyn ShardSampler + '_>> {
        let inner = &*self;
        (0..self.prepared_shards)
            .map(|_| Box::new(UniformShardWorker { inner }) as Box<dyn ShardSampler>)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;
    use nscaching_models::{build_model, ModelConfig, ModelKind};

    fn model(n: usize) -> Box<dyn KgeModel> {
        build_model(&ModelConfig::new(ModelKind::TransE).with_dim(4), n, 2)
    }

    #[test]
    fn sampled_entities_cover_the_vocabulary() {
        let mut sampler = UniformSampler::new(20);
        let model = model(20);
        let mut rng = seeded_rng(1);
        let pos = Triple::new(0, 0, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            let neg = sampler.sample(&pos, model.as_ref(), &mut rng);
            assert!(neg.entity < 20);
            assert_ne!(neg.triple, pos);
            seen.insert(neg.entity);
        }
        assert!(seen.len() > 15, "only {} distinct entities", seen.len());
    }

    #[test]
    fn filter_rejects_known_training_triples() {
        // training graph where (0,0,x) exists for every x except 5
        let mut graph = KnowledgeGraph::new(6, 1);
        for t in 0..6u32 {
            if t != 5 {
                graph.insert(Triple::new(0, 0, t)).unwrap();
            }
        }
        let graph = Arc::new(graph);
        let mut sampler = UniformSampler::new(6)
            .with_false_negative_filter(graph)
            .with_policy(CorruptionPolicy::Uniform);
        let model = model(6);
        let mut rng = seeded_rng(2);
        let pos = Triple::new(0, 0, 1);
        let mut tail_corruptions = 0;
        for _ in 0..500 {
            let neg = sampler.sample(&pos, model.as_ref(), &mut rng);
            if neg.side == nscaching_kg::CorruptionSide::Tail {
                tail_corruptions += 1;
                assert_eq!(neg.entity, 5, "only entity 5 is not a false negative");
            }
        }
        assert!(tail_corruptions > 100);
    }

    #[test]
    fn sampler_reports_its_name_and_no_extra_parameters() {
        let sampler = UniformSampler::new(5);
        assert_eq!(sampler.name(), "Uniform");
        assert_eq!(sampler.extra_parameters(), 0);
    }

    fn bernoulli(train: &[Triple], num_entities: usize, num_relations: usize) -> UniformSampler {
        UniformSampler::new(num_entities)
            .with_policy(CorruptionPolicy::bernoulli_from_train(train, num_relations))
    }

    #[test]
    fn bernoulli_side_choice_follows_the_relation_statistics() {
        // relation 0 is 1-to-many (head 0 has 5 tails), so heads are corrupted
        // with probability 5/6.
        let train: Vec<Triple> = (1..6u32).map(|t| Triple::new(0, 0, t)).collect();
        let mut sampler = bernoulli(&train, 10, 1);
        let model = model(10);
        let mut rng = seeded_rng(3);
        let pos = Triple::new(0, 0, 1);
        let n = 20_000;
        let heads = (0..n)
            .filter(|_| {
                sampler.sample(&pos, model.as_ref(), &mut rng).side
                    == nscaching_kg::CorruptionSide::Head
            })
            .count();
        let frac = heads as f64 / n as f64;
        assert!((frac - 5.0 / 6.0).abs() < 0.02, "head fraction {frac}");
    }

    #[test]
    fn name_follows_the_bernoulli_policy() {
        let sampler = bernoulli(&[Triple::new(0, 0, 1)], 4, 1);
        assert_eq!(sampler.name(), "Bernoulli");
    }

    #[test]
    fn bernoulli_filter_variant_still_samples() {
        let train = vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)];
        let graph = Arc::new(KnowledgeGraph::from_triples(5, 1, train.clone()).unwrap());
        let mut sampler = bernoulli(&train, 5, 1).with_false_negative_filter(graph);
        let model = model(5);
        let mut rng = seeded_rng(4);
        for _ in 0..100 {
            let neg = sampler.sample(&Triple::new(0, 0, 1), model.as_ref(), &mut rng);
            assert!(neg.entity < 5);
        }
    }
}
