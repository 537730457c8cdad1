//! Equivalence proptests for the batched candidate-scoring fast path.
//!
//! For every model, both corruption sides, and ragged candidate lists (empty,
//! duplicated entries, the positive's own entity), `score_candidates` and
//! `score_all`/`score_all_into` must agree with the scalar `score` to within
//! `1e-12` — the invariant documented on `KgeModel::score_candidates`.

use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_models::{build_model, KgeModel, ModelConfig, ModelKind};
use proptest::prelude::*;

const TOLERANCE: f64 = 1e-12;

fn model_for(
    kind_idx: usize,
    dim: usize,
    entities: usize,
    relations: usize,
    seed: u64,
) -> Box<dyn KgeModel> {
    let kind = ModelKind::ALL[kind_idx];
    build_model(
        &ModelConfig::new(kind).with_dim(dim).with_seed(seed),
        entities,
        relations,
    )
}

fn assert_matches_scalar(
    model: &dyn KgeModel,
    triple: &Triple,
    side: CorruptionSide,
    candidates: &[EntityId],
    batched: &[f64],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(batched.len(), candidates.len());
    for (&e, &got) in candidates.iter().zip(batched) {
        let want = model.score(&triple.corrupted(side, e));
        prop_assert!(
            (got - want).abs() <= TOLERANCE,
            "{} side {:?} candidate {}: batched {} vs scalar {} (diff {:e})",
            model.kind().name(),
            side,
            e,
            got,
            want,
            (got - want).abs()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn score_candidates_matches_scalar_score(
        kind_idx in 0..ModelKind::ALL.len(),
        dim in 1usize..20,
        num_entities in 2usize..40,
        seed in any::<u64>(),
        raw_candidates in prop::collection::vec(0u32..1000, 0..24),
        head in 0u32..1000,
        tail in 0u32..1000,
        relation in 0u32..3,
    ) {
        let num_relations = 3;
        let model = model_for(kind_idx, dim, num_entities, num_relations, seed);
        let triple = Triple::new(
            head % num_entities as u32,
            relation,
            tail % num_entities as u32,
        );
        // Ragged candidate list: in-range ids, deliberate duplicates, and the
        // positive's own entity spliced in.
        let mut candidates: Vec<EntityId> =
            raw_candidates.iter().map(|e| e % num_entities as u32).collect();
        if let Some(&first) = candidates.first() {
            candidates.push(first);
        }
        let mut out = vec![f64::NAN; 3]; // junk that score_candidates must clear
        for side in CorruptionSide::BOTH {
            candidates.push(triple.entity_at(side));
            model.score_candidates(&triple, side, &candidates, &mut out);
            assert_matches_scalar(model.as_ref(), &triple, side, &candidates, &out)?;
        }
    }

    #[test]
    fn score_all_matches_scalar_score(
        kind_idx in 0..ModelKind::ALL.len(),
        dim in 1usize..16,
        num_entities in 2usize..30,
        seed in any::<u64>(),
        head in 0u32..1000,
        tail in 0u32..1000,
        relation in 0u32..3,
    ) {
        let model = model_for(kind_idx, dim, num_entities, 3, seed);
        let triple = Triple::new(
            head % num_entities as u32,
            relation,
            tail % num_entities as u32,
        );
        let every_entity: Vec<EntityId> = (0..num_entities as u32).collect();
        let mut reused = Vec::new();
        for side in CorruptionSide::BOTH {
            let allocated = model.score_all(&triple, side);
            prop_assert_eq!(allocated.len(), num_entities);
            assert_matches_scalar(model.as_ref(), &triple, side, &every_entity, &allocated)?;

            model.score_all_into(&triple, side, &mut reused);
            prop_assert_eq!(reused.len(), num_entities);
            for (a, b) in allocated.iter().zip(&reused) {
                prop_assert!((a - b).abs() <= TOLERANCE);
            }
        }
    }

    #[test]
    fn empty_candidate_list_yields_empty_scores(
        kind_idx in 0..ModelKind::ALL.len(),
        dim in 1usize..8,
        seed in any::<u64>(),
    ) {
        let model = model_for(kind_idx, dim, 5, 2, seed);
        let triple = Triple::new(0, 0, 1);
        let mut out = vec![1.0, 2.0];
        for side in CorruptionSide::BOTH {
            model.score_candidates(&triple, side, &[], &mut out);
            prop_assert!(out.is_empty());
        }
    }
}
