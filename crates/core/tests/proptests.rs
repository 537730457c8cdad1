//! Property-based tests of the sampler invariants.

use nscaching::{
    build_sampler, CorruptionPolicy, NegativeCache, NegativeSampler, NsCachingConfig,
    NsCachingSampler, SampleStrategy, SamplerConfig, UpdateStrategy,
};
use nscaching_kg::{CorruptionSide, Triple};
use nscaching_math::seeded_rng;
use nscaching_models::{build_model, KgeModel, ModelConfig, ModelKind};
use proptest::prelude::*;

fn small_model(num_entities: usize, num_relations: usize, seed: u64) -> Box<dyn KgeModel> {
    build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(4)
            .with_seed(seed),
        num_entities,
        num_relations,
    )
}

/// The change count as first written: sort a copy of the old entry, then
/// binary-search it for each new id.
fn changed_by_sort_and_search(old: &[u32], new: &[u32]) -> usize {
    let mut sorted = old.to_vec();
    sorted.sort_unstable();
    new.iter()
        .filter(|e| sorted.binary_search(e).is_err())
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn change_count_matches_sort_and_binary_search(
        seed in any::<u64>(),
        capacity in 1usize..20,
        num_entities in 2usize..40,
        restored in prop::collection::vec(0u32..6, 0..20),
        replacements in prop::collection::vec(prop::collection::vec(0u32..80, 0..25), 1..12),
    ) {
        // Key (0, 0) starts from a restored entry, which may repeat ids
        // (`[2, 2, 2]`) and be shorter than N1; key (1, 1) from a lazily
        // initialised one. Replacements repeat ids too, may be shorter or
        // longer than N1, and hold ids at or past `num_entities`, which
        // `replace` accepts.
        let mut cache = NegativeCache::new(capacity, num_entities);
        let restored: Vec<u32> = restored
            .into_iter()
            .filter(|&e| (e as usize) < num_entities)
            .take(capacity)
            .collect();
        cache.restore_entry((0, 0), restored.clone()).unwrap();
        let lazy = cache.get_or_init((1, 1), &mut seeded_rng(seed)).to_vec();
        let mut old = [restored, lazy];
        let mut total = 0;
        for (i, new) in replacements.into_iter().enumerate() {
            let key = (i % 2) as u32;
            let kept = &new[..new.len().min(capacity)];
            let expected = changed_by_sort_and_search(&old[i % 2], kept);
            prop_assert_eq!(cache.replace((key, key), new.clone()), expected);
            total += expected as u64;
            old[i % 2] = kept.to_vec();
        }
        prop_assert_eq!(cache.changed_elements(), total);
    }

    #[test]
    fn cache_entries_never_exceed_capacity_and_stay_in_range(
        seed in any::<u64>(),
        capacity in 1usize..20,
        num_entities in 5usize..100,
        replacements in prop::collection::vec(prop::collection::vec(0u32..1000, 0..40), 1..10),
    ) {
        let mut cache = NegativeCache::new(capacity, num_entities);
        let mut rng = seeded_rng(seed);
        let initial = cache.get_or_init((0, 0), &mut rng).to_vec();
        prop_assert_eq!(initial.len(), capacity);
        prop_assert!(initial.iter().all(|e| (*e as usize) < num_entities));
        for r in replacements {
            cache.replace((0, 0), r.clone());
            let stored = cache.peek((0, 0)).unwrap();
            prop_assert!(stored.len() <= capacity);
            prop_assert!(stored.len() == r.len().min(capacity));
        }
    }

    #[test]
    fn nscaching_negatives_always_differ_from_the_positive_relation_structure(
        seed in any::<u64>(),
        n1 in 1usize..30,
        n2 in 1usize..30,
        strategy_idx in 0usize..3,
        update_idx in 0usize..3,
    ) {
        let num_entities = 40;
        let config = NsCachingConfig::new(n1, n2)
            .with_sample_strategy(SampleStrategy::ALL[strategy_idx])
            .with_update_strategy(UpdateStrategy::ALL[update_idx]);
        let mut sampler = NsCachingSampler::new(config, num_entities, CorruptionPolicy::Uniform);
        let model = small_model(num_entities, 3, seed);
        let mut rng = seeded_rng(seed ^ 0xABCD);
        for i in 0..20u32 {
            let pos = Triple::new(i % 40, i % 3, (i + 1) % 40);
            let neg = sampler.sample(&pos, model.as_ref(), &mut rng);
            // the negative keeps the relation and exactly one endpoint
            prop_assert_eq!(neg.triple.relation, pos.relation);
            match neg.side {
                CorruptionSide::Head => prop_assert_eq!(neg.triple.tail, pos.tail),
                CorruptionSide::Tail => prop_assert_eq!(neg.triple.head, pos.head),
            }
            prop_assert!((neg.entity as usize) < num_entities);
            sampler.update(&pos, model.as_ref(), &mut rng);
            // cache sizes never exceed N1
            prop_assert!(sampler.probe_head_cache(pos.relation, pos.tail).entities.len() <= n1);
            prop_assert!(sampler.probe_tail_cache(pos.head, pos.relation).entities.len() <= n1);
        }
    }

    #[test]
    fn every_sampler_config_produces_well_formed_negatives(seed in any::<u64>(), config_idx in 0usize..5) {
        let mut gen_config = nscaching_datagen::GeneratorConfig::small("prop");
        gen_config.num_entities = 80;
        gen_config.num_train = 400;
        gen_config.num_valid = 30;
        gen_config.num_test = 30;
        gen_config.seed = seed % 3; // a few distinct datasets
        let dataset = nscaching_datagen::generate(&gen_config).unwrap();
        let configs = [
            SamplerConfig::Uniform,
            SamplerConfig::Bernoulli,
            SamplerConfig::NsCaching(NsCachingConfig::new(8, 8)),
            SamplerConfig::kbgan_default(),
            SamplerConfig::Igan { generator: ModelKind::DistMult, generator_dim: 8, generator_lr: 0.01 },
        ];
        let mut sampler = build_sampler(&configs[config_idx], &dataset, seed);
        let model = small_model(dataset.num_entities(), dataset.num_relations(), seed);
        let mut rng = seeded_rng(seed);
        for pos in dataset.train.iter().take(10) {
            let neg = sampler.sample(pos, model.as_ref(), &mut rng);
            prop_assert!((neg.entity as usize) < dataset.num_entities());
            prop_assert_eq!(neg.triple.relation, pos.relation);
            prop_assert_ne!(&neg.triple, pos);
            sampler.feedback(pos, &neg, model.score(&neg.triple), &mut rng);
            sampler.update(pos, model.as_ref(), &mut rng);
        }
    }

    #[test]
    fn sharding_a_batch_covers_every_positive_with_disjoint_cache_keys(
        seed in any::<u64>(),
        shards in 1usize..8,
        batch_len in 1usize..150,
    ) {
        use std::collections::HashSet;

        // A random mini-batch (duplicates allowed, as in a real epoch).
        let mut rng = seeded_rng(seed);
        let positives: Vec<Triple> = (0..batch_len)
            .map(|_| {
                Triple::new(
                    rand::Rng::gen_range(&mut rng, 0..60u32),
                    rand::Rng::gen_range(&mut rng, 0..6u32),
                    rand::Rng::gen_range(&mut rng, 0..60u32),
                )
            })
            .collect();
        let mut sampler =
            NsCachingSampler::new(NsCachingConfig::new(5, 5), 60, CorruptionPolicy::Uniform);
        sampler.prepare_shards(shards);
        prop_assert_eq!(NegativeSampler::shard_count(&sampler), shards);

        // Stage-1 partition exactly as the parallel trainer performs it.
        let mut tasks: Vec<Vec<Triple>> = vec![Vec::new(); shards];
        for &p in &positives {
            let s = NegativeSampler::shard_of(&sampler, &p, shards);
            prop_assert!(s < shards, "assignment in range");
            prop_assert!(
                s == NegativeSampler::shard_of(&sampler, &p, shards),
                "assignment is a pure function"
            );
            tasks[s].push(p);
        }
        // Every positive lands in exactly one shard.
        prop_assert_eq!(
            tasks.iter().map(|t| t.len()).sum::<usize>(),
            positives.len()
        );
        // The tail-cache keys (h, r) owned by different shards are disjoint,
        // so concurrent Algorithm 3 refreshes can never touch the same entry.
        let key_sets: Vec<HashSet<(u32, u32)>> = tasks
            .iter()
            .map(|t| t.iter().map(|p| p.head_relation()).collect())
            .collect();
        for i in 0..shards {
            for j in (i + 1)..shards {
                prop_assert!(
                    key_sets[i].is_disjoint(&key_sets[j]),
                    "shards {i} and {j} share a cache key"
                );
            }
        }
    }

    #[test]
    fn frequency_aware_partition_is_deterministic_disjoint_and_balanced(
        seed in any::<u64>(),
        shards in 2usize..8,
        num_keys in 1usize..80,
        hub_weight in 1u64..200,
    ) {
        use std::collections::HashSet;

        // A skewed synthetic training split: one hub (h, r) key with
        // `hub_weight` positives plus a tail of single-positive keys.
        let mut rng = seeded_rng(seed);
        let mut train: Vec<Triple> = Vec::new();
        for _ in 0..hub_weight {
            train.push(Triple::new(0, 0, rand::Rng::gen_range(&mut rng, 1..50u32)));
        }
        for k in 0..num_keys as u32 {
            train.push(Triple::new(k % 60, 1 + k % 5, rand::Rng::gen_range(&mut rng, 0..60u32)));
        }

        let build = || {
            let mut s = NsCachingSampler::new(
                NsCachingConfig::new(5, 5),
                60,
                CorruptionPolicy::Uniform,
            )
            .with_observed_keys(&train);
            NegativeSampler::prepare_shards(&mut s, shards);
            s
        };
        let a = build();
        let b = build();

        let mut loads = vec![0u64; shards];
        let mut key_owner: Vec<HashSet<(u32, u32)>> = vec![HashSet::new(); shards];
        for p in &train {
            let s = NegativeSampler::shard_of(&a, p, shards);
            prop_assert!(s < shards, "assignment in range");
            // Deterministic: an independently built sampler agrees.
            prop_assert_eq!(s, NegativeSampler::shard_of(&b, p, shards));
            // Stable: asking twice agrees.
            prop_assert_eq!(s, NegativeSampler::shard_of(&a, p, shards));
            loads[s] += 1;
            key_owner[s].insert(p.head_relation());
        }
        // Key-based ⇒ cache keys stay disjoint across shards.
        for i in 0..shards {
            for j in (i + 1)..shards {
                prop_assert!(
                    key_owner[i].is_disjoint(&key_owner[j]),
                    "shards {i} and {j} share a cache key"
                );
            }
        }
        // LPT balance bound: no shard exceeds average + heaviest key.
        let total: u64 = loads.iter().sum();
        let mut key_weights: std::collections::HashMap<(u32, u32), u64> =
            std::collections::HashMap::new();
        for p in &train {
            *key_weights.entry(p.head_relation()).or_insert(0) += 1;
        }
        let heaviest = *key_weights.values().max().unwrap();
        let max = *loads.iter().max().unwrap();
        prop_assert!(
            max <= total / shards as u64 + heaviest,
            "load {max} exceeds the LPT bound (loads {loads:?}, heaviest {heaviest})"
        );
    }
}
