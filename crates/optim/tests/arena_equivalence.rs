//! Property test: the slab-backed gradient engine (`GradientArena` +
//! dense-slab Adam) is bit-identical to the retired `HashMap` engine
//! (`GradientBuffer` + per-row-`HashMap`-state Adam) across
//!
//! * all 5 scoring functions (their `accumulate_score_gradient` emission
//!   drives both sinks through the shared `GradientSink` trait),
//! * ragged per-shard touch sets merged in ascending shard order at
//!   shards ∈ {1, 2, 4},
//! * multiple accumulate → merge → Adam apply rounds (so the moments and
//!   bias-correction counters are exercised).
//!
//! The reference below is a line-for-line copy of the retired Adam:
//! `HashMap` state, updates applied in hash-map iteration order. Per-row
//! updates are independent, so the arena's sorted-slot walk must land on
//! exactly the same parameter bits.

use nscaching_kg::Triple;
use nscaching_models::{
    build_model, GradientArena, GradientBuffer, KgeModel, ModelConfig, ModelKind, TableId,
};
use nscaching_optim::Adam;
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference Adam row state: first moments, second moments, step count.
type AdamRowState = (Vec<f64>, Vec<f64>, u64);

const ENTITIES: usize = 14;
const RELATIONS: usize = 3;

/// The retired `HashMap`-state Adam, its `step` verbatim.
struct ReferenceAdam {
    lr: f64,
    b1: f64,
    b2: f64,
    eps: f64,
    state: HashMap<(TableId, usize), AdamRowState>,
}

impl ReferenceAdam {
    fn new(lr: f64) -> Self {
        Self {
            lr,
            b1: 0.9,
            b2: 0.999,
            eps: 1e-8,
            state: HashMap::new(),
        }
    }

    fn step(&mut self, model: &mut dyn KgeModel, grads: &GradientBuffer) -> Vec<(TableId, usize)> {
        let mut tables = model.tables_mut();
        let mut touched = Vec::with_capacity(grads.len());
        let Self {
            lr,
            b1,
            b2,
            eps,
            state,
        } = self;
        for (&(table, row), grad) in grads.iter() {
            let (m, v, t) = state
                .entry((table, row))
                .or_insert_with(|| (vec![0.0; grad.len()], vec![0.0; grad.len()], 0));
            *t += 1;
            let bias1 = 1.0 - b1.powi(*t as i32);
            let bias2 = 1.0 - b2.powi(*t as i32);
            let params = tables[table].row_mut(row);
            for i in 0..grad.len() {
                let g = grad[i];
                m[i] = *b1 * m[i] + (1.0 - *b1) * g;
                v[i] = *b2 * v[i] + (1.0 - *b2) * g * g;
                let m_hat = m[i] / bias1;
                let v_hat = v[i] / bias2;
                params[i] -= *lr * m_hat / (v_hat.sqrt() + *eps);
            }
            touched.push((table, row));
        }
        touched
    }
}

fn assert_tables_bit_identical(a: &dyn KgeModel, b: &dyn KgeModel) -> Result<(), TestCaseError> {
    for (ta, tb) in a.tables().iter().zip(b.tables()) {
        prop_assert_eq!(ta.data().len(), tb.data().len());
        for (x, y) in ta.data().iter().zip(tb.data()) {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "table {} diverged: {} vs {}",
                ta.name(),
                x,
                y
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accumulate_merge_apply_is_bit_identical_to_the_hashmap_engine(
        kind_idx in 0..ModelKind::ALL.len(),
        shards_idx in 0usize..3,
        model_seed in 0u64..1000,
        examples in prop::collection::vec(
            (0u32..ENTITIES as u32, 0u32..RELATIONS as u32, 0u32..ENTITIES as u32, -2.0f64..2.0),
            1..24,
        ),
        rounds in 1usize..3,
    ) {
        let kind = ModelKind::ALL[kind_idx];
        let shards = [1usize, 2, 4][shards_idx];
        let config = ModelConfig::new(kind).with_dim(4).with_seed(model_seed);
        // Two identically-initialised models, one per engine.
        let mut arena_model = build_model(&config, ENTITIES, RELATIONS);
        let mut reference_model = build_model(&config, ENTITIES, RELATIONS);

        let mut arena_opt = Adam::new(0.05);
        arena_opt.bind(arena_model.as_ref());
        let mut reference_opt = ReferenceAdam::new(0.05);

        // Reused across rounds, like the trainer's buffers.
        let mut shard_arenas: Vec<GradientArena> =
            (0..shards).map(|_| GradientArena::new()).collect();
        let mut shard_buffers: Vec<GradientBuffer> =
            (0..shards).map(|_| GradientBuffer::new()).collect();
        let mut merged_arena = GradientArena::new();
        let mut merged_buffer = GradientBuffer::new();

        for round in 0..rounds {
            // Ragged shard split: shard s gets every (s + round)-offset
            // example, so some shards can be empty and splits differ by round.
            for arena in &mut shard_arenas {
                arena.clear();
            }
            for buffer in &mut shard_buffers {
                buffer.clear();
            }
            for (i, &(h, r, t, coeff)) in examples.iter().enumerate() {
                let triple = Triple::new(h, r, t);
                let shard = (i + round) % shards;
                // Each engine accumulates from its own model (identical bits
                // by induction over rounds).
                arena_model.accumulate_score_gradient(&triple, coeff, &mut shard_arenas[shard]);
                reference_model.accumulate_score_gradient(
                    &triple,
                    coeff,
                    &mut shard_buffers[shard],
                );
            }

            // Ascending-shard-order merge, exactly like the trainer.
            merged_arena.clear();
            merged_buffer.clear();
            for (arena, buffer) in shard_arenas.iter_mut().zip(&shard_buffers) {
                merged_arena.merge(arena);
                merged_buffer.merge(buffer);
            }

            // Accumulated values and norms must already agree bit-for-bit.
            prop_assert_eq!(merged_arena.len(), merged_buffer.len());
            prop_assert_eq!(
                merged_arena.squared_norm().to_bits(),
                merged_buffer.squared_norm().to_bits()
            );
            for (table, row, grad) in merged_arena.rows().iter() {
                let reference = merged_buffer.get(table, row);
                prop_assert!(reference.is_some(), "({}, {}) missing in reference", table, row);
                let reference = reference.unwrap();
                prop_assert_eq!(grad.len(), reference.len());
                for (x, y) in grad.iter().zip(reference) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }

            // Apply + constraints, exactly like the trainer's stage 4.
            if !merged_arena.is_empty() {
                arena_opt.step(arena_model.as_mut(), &mut merged_arena);
                arena_model.apply_constraints(merged_arena.touched());
                let touched = reference_opt.step(reference_model.as_mut(), &merged_buffer);
                reference_model.apply_constraints(&touched);
            }
            assert_tables_bit_identical(arena_model.as_ref(), reference_model.as_ref())?;
        }
    }
}
