//! Property tests for the LRU cache and its version-stamp integration.
//!
//! Two layers of invariants:
//!
//! 1. [`nscaching_serve::PolicyCache`] under [`PolicyKind::Lru`] against a
//!    brute-force reference model under random insert/get/remove churn:
//!    capacity is never exceeded, the recency order matches exactly (so
//!    evicted keys are *really* gone and live keys are *really* live), and
//!    lookups agree value-for-value.
//! 2. [`nscaching_serve::KnowledgeServer`] under interleaved queries and
//!    model updates: a cached answer is never served stale across
//!    `update_model` — every answer equals a fresh computation against the
//!    model tables as they are *now*, bit-for-bit.

use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_serve::{KnowledgeServer, PolicyCache, PolicyKind, QueryScratch, TopKQuery};
use proptest::prelude::*;

/// Brute-force reference LRU: a vector ordered most-recently-used first.
struct ModelLru {
    entries: Vec<(u32, u64)>,
    capacity: usize,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity,
        }
    }

    fn insert(&mut self, key: u32, value: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop(); // evict the least-recently-used
        }
        self.entries.insert(0, (key, value));
    }

    fn get(&mut self, key: u32) -> Option<u64> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(pos);
        self.entries.insert(0, entry);
        Some(entry.1)
    }

    fn remove(&mut self, key: u32) -> Option<u64> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        Some(self.entries.remove(pos).1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lru_matches_the_reference_model_under_churn(
        capacity in 0usize..10,
        ops in prop::collection::vec((0u32..4, 0u32..24, 0u64..1000), 1..200),
    ) {
        let mut real: PolicyCache<u32, u64> = PolicyCache::new(capacity, PolicyKind::Lru);
        let mut model = ModelLru::new(capacity);
        for (op, key, value) in ops {
            match op {
                // Inserts dominate the mix so eviction churn actually happens.
                0 | 1 => {
                    real.insert(key, value);
                    model.insert(key, value);
                }
                2 => {
                    prop_assert_eq!(real.get(&key).copied(), model.get(key));
                }
                _ => {
                    prop_assert_eq!(real.remove(&key), model.remove(key));
                }
            }
            // Capacity is a hard bound at every step, not just at the end.
            prop_assert!(real.len() <= capacity);
            prop_assert_eq!(real.len(), model.entries.len());
        }
        // Final sweep: the two caches hold exactly the same key set — every
        // key the model evicted is really gone, every live key really lives.
        // (Probing promotes identically on both sides, so the comparison
        // stays valid as it walks.)
        for key in 0..24u32 {
            prop_assert_eq!(real.get(&key).copied(), model.get(key));
        }
    }

    #[test]
    fn eviction_counters_account_for_every_displacement(
        capacity in 1usize..8,
        keys in prop::collection::vec(0u32..16, 1..100),
    ) {
        // Insert-only churn with distinct-key tracking: evictions must equal
        // inserts-of-new-keys minus the live population at the end.
        let mut cache: PolicyCache<u32, u32> = PolicyCache::new(capacity, PolicyKind::Lru);
        let mut fresh_inserts = 0u64;
        let mut live: Vec<u32> = Vec::new();
        for key in keys {
            if !live.contains(&key) {
                fresh_inserts += 1;
                live.insert(0, key);
                if live.len() > capacity {
                    live.pop();
                }
            } else {
                let pos = live.iter().position(|k| *k == key).unwrap();
                let k = live.remove(pos);
                live.insert(0, k);
            }
            cache.insert(key, key);
        }
        prop_assert_eq!(cache.len(), live.len());
        prop_assert_eq!(cache.stats().evictions, fresh_inserts - live.len() as u64);
    }
}

fn serving_engine(cache_capacity: usize) -> KnowledgeServer {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(8)
            .with_seed(17),
        24,
        4,
    );
    KnowledgeServer::new(model, cache_capacity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_answers_are_never_stale_across_model_updates(
        ops in prop::collection::vec(
            // op 0 = model update; otherwise a query whose parity picks the
            // corruption side (the vendored proptest caps tuples at 4 slots).
            (0u32..8, 0u32..24, 0u32..4, 1u32..6),
            1..60,
        ),
    ) {
        let server = serving_engine(16);
        let mut scratch = QueryScratch::default();
        let mut fresh = Vec::new();
        let mut update_seed = 0u64;
        for (op, entity, relation, k) in ops {
            let head_side = op % 2 == 1;
            if op == 0 {
                // Mutate one embedding row; the stamp bump must retire every
                // cached answer derived from the old tables.
                update_seed += 1;
                // Row 0..4 exists in both the entity and relation tables.
                let row = (update_seed % 4) as usize;
                server.update_model(|model| {
                    for table in model.tables_mut() {
                        for v in table.row_mut(row) {
                            *v += 0.25 + update_seed as f64 * 1e-3;
                        }
                    }
                });
                continue;
            }
            let query = if head_side {
                TopKQuery::heads(entity, relation, k)
            } else {
                TopKQuery::tails(entity, relation, k)
            };

            // The cache-only peek must agree with the full path *before* the
            // full path repopulates the entry for this exact query.
            let peeked = server.top_k_cached(&query).unwrap();

            // Whatever the (possibly cached) answer is, it must be
            // bit-identical to a fresh computation on the current tables.
            let answer = server.top_k(&query, &mut scratch).unwrap();
            server.top_k_into(&query, &mut scratch, &mut fresh).unwrap();
            prop_assert_eq!(answer.len(), fresh.len());
            for (cached, computed) in answer.iter().zip(&fresh) {
                prop_assert_eq!(cached.entity, computed.entity);
                prop_assert_eq!(cached.score.to_bits(), computed.score.to_bits());
            }

            if let Some(peeked) = peeked {
                prop_assert_eq!(peeked.len(), fresh.len());
                for (p, computed) in peeked.iter().zip(&fresh) {
                    prop_assert_eq!(p.entity, computed.entity);
                    // A mismatch here means the peek served a stale answer.
                    prop_assert_eq!(p.score.to_bits(), computed.score.to_bits());
                }
            }
        }
    }
}
