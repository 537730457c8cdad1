//! The sharded engine's backward-compatibility contracts:
//!
//! 1. with `shards = 1`, `Trainer::train_epoch` must reproduce the
//!    pre-sharding sequential trainer's loss trajectory bit-for-bit, for
//!    every scoring function — the paper's tables and figures depend on that
//!    path being unchanged;
//! 2. with `shards > 1`, the persistent worker-pool engine must reproduce
//!    the retired per-batch `std::thread::scope` engine bit-for-bit — the
//!    pool replaces *where* the shard stage runs, never *what* it computes;
//! 3. the slab-backed `GradientArena` + dense-slab-optimizer engine must
//!    reproduce the retired `HashMap` gradient engine bit-for-bit: both
//!    references below accumulate into a genuine
//!    `HashMap<(TableId, usize), Vec<f64>>` [`GradientBuffer`] and apply it
//!    with [`ReferenceAdam`] — a line-for-line copy of the retired
//!    `HashMap`-state Adam — so every trajectory equality in this file is
//!    simultaneously an arena-vs-HashMap proof.
//!
//! The references below are line-for-line re-implementations of the retired
//! engines (sequential: sample → score → feedback → loss/gradients → cache
//! update per positive, one optimizer step per mini-batch; parallel: shard →
//! scoped workers → ascending-shard-order merge → apply) built from the same
//! public pieces the trainer composes.

use nscaching::{build_sampler, NsCachingConfig, SamplerConfig, ShardSampler};
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::{Dataset, Triple};
use nscaching_math::{seeded_rng, split_seed};
use nscaching_models::{
    build_model, default_loss, GradientBuffer, KgeModel, L2Regularizer, LossType, ModelConfig,
    ModelKind, TableId,
};
use nscaching_optim::OptimizerConfig;
use nscaching_train::{Batcher, TrainConfig, Trainer, SHARD_STREAM_TAG};
use rand::rngs::StdRng;
use std::collections::HashMap;

const MODEL_SEED: u64 = 7;
const SAMPLER_SEED: u64 = 11;
const TRAIN_SEED: u64 = 5;
const DIM: usize = 8;
const BATCH: usize = 128;
const MARGIN: f64 = 2.0;
const LAMBDA: f64 = 0.001;
const EPOCHS: usize = 2;

fn dataset() -> Dataset {
    let mut c = GeneratorConfig::small("parallel-equivalence");
    c.num_entities = 100;
    c.num_train = 600;
    c.num_valid = 40;
    c.num_test = 40;
    c.seed = 13;
    nscaching_datagen::generate(&c).unwrap()
}

fn train_config() -> TrainConfig {
    TrainConfig::new(EPOCHS)
        .with_batch_size(BATCH)
        .with_optimizer(OptimizerConfig::adam(0.02))
        .with_margin(MARGIN)
        .with_lambda(LAMBDA)
        .with_seed(TRAIN_SEED)
}

/// The retired `HashMap`-state lazy Adam, verbatim: per-row `RowState`
/// allocated on first touch, updates applied in `GradientBuffer` hash-map
/// iteration order. This is the optimizer half of the retired gradient
/// engine that the arena trainer is proven against — per-row updates are
/// independent, so hash-order application and the arena's sorted-slot walk
/// must land on identical parameter bits.
struct ReferenceAdam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    state: HashMap<(TableId, usize), ReferenceRowState>,
}

struct ReferenceRowState {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl ReferenceAdam {
    fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            state: HashMap::new(),
        }
    }

    fn step(&mut self, model: &mut dyn KgeModel, grads: &GradientBuffer) -> Vec<(TableId, usize)> {
        let (lr, b1, b2, eps) = (self.learning_rate, self.beta1, self.beta2, self.epsilon);
        let mut tables = model.tables_mut();
        let mut touched = Vec::with_capacity(grads.len());
        for (&(table, row), grad) in grads.iter() {
            let state = self
                .state
                .entry((table, row))
                .or_insert_with(|| ReferenceRowState {
                    m: vec![0.0; grad.len()],
                    v: vec![0.0; grad.len()],
                    t: 0,
                });
            state.t += 1;
            let bias1 = 1.0 - b1.powi(state.t as i32);
            let bias2 = 1.0 - b2.powi(state.t as i32);
            let params = tables[table].row_mut(row);
            for i in 0..grad.len() {
                let g = grad[i];
                state.m[i] = b1 * state.m[i] + (1.0 - b1) * g;
                state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g;
                let m_hat = state.m[i] / bias1;
                let v_hat = state.v[i] / bias2;
                params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            touched.push((table, row));
        }
        touched
    }
}

/// Per-epoch mean losses of the original sequential training loop.
fn reference_epoch_losses(ds: &Dataset, kind: ModelKind, sampler: &SamplerConfig) -> Vec<f64> {
    let mut model = build_model(
        &ModelConfig::new(kind).with_dim(DIM).with_seed(MODEL_SEED),
        ds.num_entities(),
        ds.num_relations(),
    );
    let mut sampler = build_sampler(sampler, ds, SAMPLER_SEED);
    let loss = default_loss(model.loss_type(), MARGIN);
    let regularizer = match model.loss_type() {
        LossType::Logistic => L2Regularizer::new(LAMBDA),
        LossType::MarginRanking => L2Regularizer::none(),
    };
    let mut optimizer = ReferenceAdam::new(0.02);
    let mut batcher = Batcher::new(ds.train.clone(), BATCH);
    let mut rng = seeded_rng(TRAIN_SEED);

    let mut epoch_losses = Vec::new();
    for epoch in 0..EPOCHS {
        let mut loss_sum = 0.0;
        let mut examples = 0usize;
        let mut grads = GradientBuffer::new();
        batcher.shuffle(&mut rng);
        for batch in 0..batcher.batches_per_epoch() {
            grads.clear();
            for index in batcher.batch_range(batch) {
                let positive = &batcher.get(index);
                let negative = sampler.sample(positive, model.as_ref(), &mut rng);
                let f_pos = model.score(positive);
                let f_neg = model.score(&negative.triple);
                sampler.feedback(positive, &negative, f_neg, &mut rng);
                let pair = loss.evaluate(f_pos, f_neg);
                loss_sum += pair.loss;
                examples += 1;
                if !pair.is_zero() {
                    model.accumulate_score_gradient(positive, pair.d_positive, &mut grads);
                    model.accumulate_score_gradient(&negative.triple, pair.d_negative, &mut grads);
                    if regularizer.is_active() {
                        regularizer.accumulate_gradient(model.as_ref(), positive, &mut grads);
                        regularizer.accumulate_gradient(
                            model.as_ref(),
                            &negative.triple,
                            &mut grads,
                        );
                    }
                }
                sampler.update(positive, model.as_ref(), &mut rng);
            }
            if !grads.is_empty() {
                let touched = optimizer.step(model.as_mut(), &grads);
                model.apply_constraints(&touched);
            }
        }
        sampler.epoch_finished(epoch);
        epoch_losses.push(loss_sum / examples as f64);
    }
    epoch_losses
}

/// Buffered results of one shard's slice of a mini-batch, mirroring the
/// trainer's internal `ShardOutput`.
#[derive(Default)]
struct ScopeShardOutput {
    grads: GradientBuffer,
    losses: Vec<f64>,
}

/// Per-epoch mean losses of the **retired scoped parallel engine**: the
/// PR 2 pipeline with one `std::thread::scope` per mini-batch, re-built from
/// the public shard API with the documented RNG-stream derivation
/// (`SHARD_STREAM_TAG`). This is the oracle the worker-pool engine must
/// reproduce bit-for-bit.
fn reference_parallel_epoch_losses(
    ds: &Dataset,
    kind: ModelKind,
    sampler: &SamplerConfig,
    shards: usize,
) -> Vec<f64> {
    let mut model = build_model(
        &ModelConfig::new(kind).with_dim(DIM).with_seed(MODEL_SEED),
        ds.num_entities(),
        ds.num_relations(),
    );
    let mut sampler = build_sampler(sampler, ds, SAMPLER_SEED);
    let loss = default_loss(model.loss_type(), MARGIN);
    let regularizer = match model.loss_type() {
        LossType::Logistic => L2Regularizer::new(LAMBDA),
        LossType::MarginRanking => L2Regularizer::none(),
    };
    let mut optimizer = ReferenceAdam::new(0.02);
    let mut batcher = Batcher::new(ds.train.clone(), BATCH);
    let mut rng = seeded_rng(TRAIN_SEED);

    let mut epoch_losses = Vec::new();
    for epoch in 0..EPOCHS {
        let mut loss_sum = 0.0;
        let mut examples = 0usize;
        let mut grads = GradientBuffer::new();

        sampler.prepare_shards(shards);
        batcher.shuffle(&mut rng);
        let epoch_seed = split_seed(TRAIN_SEED ^ SHARD_STREAM_TAG, epoch as u64);
        let mut shard_rngs: Vec<StdRng> = (0..shards)
            .map(|s| seeded_rng(split_seed(epoch_seed, s as u64)))
            .collect();
        let mut tasks: Vec<Vec<Triple>> = (0..shards).map(|_| Vec::new()).collect();
        let mut outputs: Vec<ScopeShardOutput> =
            (0..shards).map(|_| ScopeShardOutput::default()).collect();

        for batch in 0..batcher.batches_per_epoch() {
            for task in &mut tasks {
                task.clear();
            }
            for index in batcher.batch_range(batch) {
                let positive = batcher.get(index);
                tasks[sampler.shard_of(&positive, shards)].push(positive);
            }

            {
                let model = model.as_ref();
                let loss = loss.as_ref();
                let regularizer = &regularizer;
                let mut workers = sampler.shard_workers();
                std::thread::scope(|scope| {
                    for (((worker, task), shard_rng), out) in workers
                        .iter_mut()
                        .zip(&tasks)
                        .zip(&mut shard_rngs)
                        .zip(&mut outputs)
                    {
                        if task.is_empty() {
                            continue;
                        }
                        scope.spawn(move || {
                            run_reference_shard(
                                model,
                                loss,
                                regularizer,
                                worker.as_mut(),
                                task,
                                shard_rng,
                                out,
                            )
                        });
                    }
                });
            }
            sampler.merge_batch();

            grads.clear();
            for out in &mut outputs {
                for &example_loss in &out.losses {
                    loss_sum += example_loss;
                    examples += 1;
                }
                out.losses.clear();
                grads.merge(&out.grads);
                out.grads.clear();
            }
            if !grads.is_empty() {
                let touched = optimizer.step(model.as_mut(), &grads);
                model.apply_constraints(&touched);
            }
        }
        sampler.epoch_finished(epoch);
        epoch_losses.push(loss_sum / examples as f64);
    }
    epoch_losses
}

/// One shard's slice, exactly as the (retired and current) parallel engines
/// drive it: sample → score → feedback → loss/gradients → cache update.
fn run_reference_shard(
    model: &dyn nscaching_models::KgeModel,
    loss: &dyn nscaching_models::Loss,
    regularizer: &L2Regularizer,
    worker: &mut dyn ShardSampler,
    positives: &[Triple],
    rng: &mut StdRng,
    out: &mut ScopeShardOutput,
) {
    for positive in positives {
        let negative = worker.sample(positive, model, rng);
        let f_pos = model.score(positive);
        let f_neg = model.score(&negative.triple);
        worker.feedback(positive, &negative, f_neg, rng);
        let pair = loss.evaluate(f_pos, f_neg);
        out.losses.push(pair.loss);
        if !pair.is_zero() {
            model.accumulate_score_gradient(positive, pair.d_positive, &mut out.grads);
            model.accumulate_score_gradient(&negative.triple, pair.d_negative, &mut out.grads);
            if regularizer.is_active() {
                regularizer.accumulate_gradient(model, positive, &mut out.grads);
                regularizer.accumulate_gradient(model, &negative.triple, &mut out.grads);
            }
        }
        worker.update(positive, model, rng);
    }
}

/// Per-epoch mean losses of the pipeline trainer at a given shard count.
fn trainer_epoch_losses(
    ds: &Dataset,
    kind: ModelKind,
    sampler: &SamplerConfig,
    shards: usize,
) -> Vec<f64> {
    let model = build_model(
        &ModelConfig::new(kind).with_dim(DIM).with_seed(MODEL_SEED),
        ds.num_entities(),
        ds.num_relations(),
    );
    let sampler = build_sampler(sampler, ds, SAMPLER_SEED);
    let mut trainer = Trainer::new(model, sampler, ds, train_config().with_shards(shards));
    (0..EPOCHS)
        .map(|_| trainer.train_epoch().mean_loss)
        .collect()
}

#[test]
fn one_shard_reproduces_the_sequential_trainer_for_every_model() {
    let ds = dataset();
    let sampler = SamplerConfig::NsCaching(NsCachingConfig::new(8, 8));
    for kind in ModelKind::ALL {
        let reference = reference_epoch_losses(&ds, kind, &sampler);
        let pipeline = trainer_epoch_losses(&ds, kind, &sampler, 1);
        for (epoch, (r, p)) in reference.iter().zip(&pipeline).enumerate() {
            assert!(
                (r - p).abs() <= 1e-12,
                "{}: epoch {epoch} loss diverged (reference {r:.17}, shards=1 {p:.17})",
                kind.name()
            );
        }
        // The trajectories should in fact be bit-identical, not just close.
        assert_eq!(
            reference,
            pipeline,
            "{}: shards=1 must replay the sequential trainer exactly",
            kind.name()
        );
    }
}

#[test]
fn one_shard_reproduces_the_sequential_trainer_for_feedback_samplers() {
    // KBGAN exercises the sample → feedback → REINFORCE path, whose
    // sequential schedule (immediate per-positive generator updates) must be
    // preserved at shards = 1.
    let ds = dataset();
    let sampler = SamplerConfig::KbGan {
        generator: ModelKind::TransE,
        generator_dim: 8,
        candidate_size: 8,
        generator_lr: 0.01,
    };
    let reference = reference_epoch_losses(&ds, ModelKind::TransE, &sampler);
    let pipeline = trainer_epoch_losses(&ds, ModelKind::TransE, &sampler, 1);
    assert_eq!(reference, pipeline);
}

#[test]
fn pool_engine_reproduces_the_scoped_engine_for_every_model() {
    // The tentpole contract of the persistent-pool runtime: at every shard
    // count, for every scoring function, the trainer (now pool-backed) must
    // replay the retired per-batch thread::scope engine bit-for-bit.
    let ds = dataset();
    let sampler = SamplerConfig::NsCaching(NsCachingConfig::new(8, 8));
    for kind in ModelKind::ALL {
        for shards in [2usize, 4] {
            let scoped = reference_parallel_epoch_losses(&ds, kind, &sampler, shards);
            let pooled = trainer_epoch_losses(&ds, kind, &sampler, shards);
            assert_eq!(
                scoped,
                pooled,
                "{} at {shards} shards: the pool engine must replay the scoped engine exactly",
                kind.name()
            );
        }
    }
}

#[test]
fn pool_engine_reproduces_the_scoped_engine_for_feedback_samplers() {
    // KBGAN buffers REINFORCE feedback per shard and applies one generator
    // step per batch at merge; the pool must preserve that schedule too.
    let ds = dataset();
    let sampler = SamplerConfig::KbGan {
        generator: ModelKind::TransE,
        generator_dim: 8,
        candidate_size: 8,
        generator_lr: 0.01,
    };
    for shards in [2usize, 4] {
        let scoped = reference_parallel_epoch_losses(&ds, ModelKind::TransE, &sampler, shards);
        let pooled = trainer_epoch_losses(&ds, ModelKind::TransE, &sampler, shards);
        assert_eq!(
            scoped, pooled,
            "KBGAN at {shards} shards: the pool engine must replay the scoped engine exactly"
        );
    }
}

#[test]
fn multi_shard_trajectories_are_reproducible_but_distinct_from_sequential() {
    let ds = dataset();
    let sampler = SamplerConfig::NsCaching(NsCachingConfig::new(8, 8));
    let sequential = trainer_epoch_losses(&ds, ModelKind::TransE, &sampler, 1);
    let parallel_a = trainer_epoch_losses(&ds, ModelKind::TransE, &sampler, 4);
    let parallel_b = trainer_epoch_losses(&ds, ModelKind::TransE, &sampler, 4);
    assert_eq!(
        parallel_a, parallel_b,
        "fixed (seed, shards) must be bit-reproducible"
    );
    assert_ne!(
        sequential, parallel_a,
        "4 shards use decorrelated RNG streams, so the trajectory differs"
    );
}
