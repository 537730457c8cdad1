//! Property test for the top-k early-termination ranking path: on random
//! models, random queries and random filter contents, the contender-set rank
//! must equal the full-scan rank exactly — raw and filtered, both query
//! directions. The early termination is an *exact* optimisation (it skips
//! only work that provably cannot change a competition rank), so any
//! divergence at all is a bug.

use nscaching_eval::{rank_one_with, EvalProtocol, RankScratch};
use nscaching_kg::{CorruptionSide, FilterIndex, Triple};
use nscaching_models::{build_model, ModelConfig, ModelKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn early_termination_ranks_equal_full_scan_ranks(
        seed in any::<u64>(),
        kind_idx in 0..ModelKind::ALL.len(),
        num_entities in 5usize..60,
        query_heads in prop::collection::vec(0u32..60, 1..12),
        filter_triples in prop::collection::vec((0u32..60, 0u32..3, 0u32..60), 0..80),
    ) {
        let num_relations = 3;
        let model = build_model(
            &ModelConfig::new(ModelKind::ALL[kind_idx])
                .with_dim(4)
                .with_seed(seed),
            num_entities,
            num_relations,
        );
        // Random known-triple set (clamped into vocabulary range) — the
        // filtered protocol's false negatives.
        let filter = FilterIndex::from_triples(filter_triples.iter().map(|&(h, r, t)| {
            Triple::new(h % num_entities as u32, r, t % num_entities as u32)
        }));

        let mut scratch = RankScratch::default();
        for &h in &query_heads {
            let triple = Triple::new(
                h % num_entities as u32,
                h % num_relations as u32,
                (h / 7) % num_entities as u32,
            );
            for side in [CorruptionSide::Head, CorruptionSide::Tail] {
                for filtered in [false, true] {
                    let base = if filtered {
                        EvalProtocol::filtered()
                    } else {
                        EvalProtocol::raw()
                    };
                    let fast = rank_one_with(
                        model.as_ref(),
                        &triple,
                        side,
                        &filter,
                        &base,
                        &mut scratch,
                    );
                    let full = rank_one_with(
                        model.as_ref(),
                        &triple,
                        side,
                        &filter,
                        &base.with_early_termination(false),
                        &mut scratch,
                    );
                    prop_assert!(
                        fast == full,
                        "{} {:?} filtered={} on {:?}: early termination changed the rank ({} != {})",
                        ModelKind::ALL[kind_idx].name(),
                        side,
                        filtered,
                        triple,
                        fast,
                        full
                    );
                    // A competition rank over E entities lives in [1, |E|].
                    prop_assert!(fast >= 1.0 && fast <= num_entities as f64);
                }
            }
        }
    }
}
