//! Property test for the serving cache's version-stamp integration:
//! [`nscaching_serve::KnowledgeServer`] under interleaved queries and model
//! updates never serves a cached answer stale across `update_model` — every
//! answer equals a fresh computation against the model tables as they are
//! *now*, bit-for-bit. (The eviction order itself is pinned against a
//! brute-force reference in `policy_invariants.rs`.)

use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_serve::{KnowledgeServer, QueryScratch, TopKQuery};
use proptest::prelude::*;

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
