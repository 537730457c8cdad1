//! The training loop (Algorithms 1 and 2 of the paper): one staged epoch
//! pipeline at every shard count.
//!
//! See the crate-level documentation for the concurrency model of the
//! sharded pipeline (shard ownership, RNG streams, reduction order).

use crate::batcher::Batcher;
use crate::config::TrainConfig;
use crate::data::TrainData;
use crate::instrument::{EpochAccumulator, EpochStats, RepeatTracker};
use crate::pool::WorkerPool;
use crate::snapshots::{Snapshot, TrainingHistory};
use crate::telemetry::{EpochPhaseAcc, TrainMetrics};
use nscaching::{NegativeSampler, SampledNegative, SamplerState, ShardSampler};
use nscaching_eval::{evaluate_link_prediction, EvalProtocol, LinkPredictionReport};
use nscaching_kg::{FilterIndex, Triple};
use nscaching_math::{rng_from_state, rng_state, seeded_rng, split_seed};
use nscaching_models::{default_loss, GradientArena, KgeModel, L2Regularizer, Loss, LossType};
use nscaching_optim::{Adam, OptimizerState};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

/// Stream tag that decorrelates the per-shard worker RNG streams from the
/// master stream (which keeps its historical role: shuffling, and all
/// sampling when `shards = 1`).
///
/// Public because it is part of the sharded trainer's reproducibility
/// contract: the shard-`s` stream of epoch `e` is
/// `seeded_rng(split_seed(split_seed(seed ^ SHARD_STREAM_TAG, e), s))`, and
/// the equivalence suite re-derives the streams from this constant to check
/// the pooled pipeline against an independent `thread::scope` reference.
pub const SHARD_STREAM_TAG: u64 = 0xA11E1;

/// A checkpoint of a [`Trainer`]'s mutable training state, captured at an
/// epoch boundary by [`Trainer::checkpoint`] and re-applied by
/// [`Trainer::restore`].
///
/// Together with the model's embedding tables (reachable through
/// [`Trainer::model`]) this is *everything* the training trajectory depends
/// on:
///
/// * `epochs_done` — drives the per-epoch shard RNG streams
///   (`split_seed(seed ^ SHARD_STREAM_TAG, epoch)`) of sharded epochs;
/// * `rng` — the master stream's raw state (epoch shuffling, and all
///   sampling at `shards = 1`);
/// * `batch_order` — the batcher's epoch permutation (each epoch's shuffle
///   permutes the previous epoch's order in place, so the permutation is
///   cumulative state, not a pure function of the RNG);
/// * `optimizer` — Adam's dense per-table state slabs (moments + step
///   counters);
/// * `sampler` — the sampler's evolving state ([`SamplerState`]): NSCaching's
///   per-shard `H`/`T` caches and counters, or a GAN sampler's generator
///   tables, optimizer moments and REINFORCE baseline. `Stateless` for
///   Uniform/Bernoulli, whose state is a pure function of
///   `(dataset, sampler seed)`.
///
/// A trainer rebuilt with the same configuration, dataset, sampler and model
/// tables and then [`restore`](Trainer::restore)d from this state continues
/// the run **bit-for-bit** as if it had never stopped — for *every* sampler,
/// stateful ones included. The binary on-disk encoding lives in
/// `nscaching_serve`, which also checkpoints the model tables.
///
/// Not captured (by design): the training history and the repeat-ratio
/// tracker window — they feed reports, not the trajectory. A resumed
/// trainer's history starts at the resume point.
#[derive(Debug, Clone)]
pub struct TrainerState {
    /// Number of finished epochs.
    pub epochs_done: u64,
    /// Accumulated training wall-clock seconds (reported in snapshots).
    pub train_seconds: f64,
    /// Raw master-RNG state.
    pub rng: [u64; 4],
    /// The batcher's current epoch permutation over the training split.
    pub batch_order: Vec<u32>,
    /// Exported Adam state slabs.
    pub optimizer: OptimizerState,
    /// Exported sampler state (`Stateless` for Uniform/Bernoulli and for
    /// legacy checkpoints written before sampler sections existed).
    pub sampler: SamplerState,
}

/// Everything one shard worker produces for one mini-batch, buffered so the
/// main thread can fold the results in ascending shard order. Buffers are
/// cleared and reused across batches.
#[derive(Default)]
struct ShardOutput {
    /// Score gradients accumulated by this shard's positives, in batch order.
    grads: GradientArena,
    /// `(loss, nonzero)` per processed example, in batch order.
    examples: Vec<(f64, bool)>,
    /// Sampled negative triples, in batch order (repeat-ratio tracking).
    negatives: Vec<Triple>,
}

/// The whole sampler as the single shard of a one-shard epoch: forwards to
/// the sampler's own per-triple hooks, so a generator sampler applies its
/// REINFORCE step per positive, as the sequential schedule of Algorithms 1
/// and 2 does.
struct PerTripleHooks<'a>(&'a mut dyn NegativeSampler);

impl ShardSampler for PerTripleHooks<'_> {
    fn sample(
        &mut self,
        positive: &Triple,
        model: &dyn KgeModel,
        rng: &mut StdRng,
    ) -> SampledNegative {
        self.0.sample(positive, model, rng)
    }

    fn feedback(
        &mut self,
        positive: &Triple,
        negative: &SampledNegative,
        reward: f64,
        rng: &mut StdRng,
    ) {
        self.0.feedback(positive, negative, reward, rng);
    }

    fn update(&mut self, positive: &Triple, model: &dyn KgeModel, rng: &mut StdRng) {
        self.0.update(positive, model, rng);
    }
}

/// Stage 2 of the pipeline: drive one shard worker over its slice of a
/// mini-batch, on the calling thread (one shard) or a pool worker.
/// Everything it touches is either shared read-only (`model`, `loss`,
/// `regularizer`) or exclusively owned by this shard (`worker` state, `rng`
/// stream, `out` buffers).
///
/// Per positive: sample → score → feedback → loss/gradients → cache update
/// (Algorithm 2 refreshes the cache, step 8, before the embedding update of
/// step 9, which the apply stage runs once per batch).
fn run_shard_task(
    model: &dyn KgeModel,
    loss: &dyn Loss,
    regularizer: &L2Regularizer,
    worker: &mut dyn ShardSampler,
    positives: &[Triple],
    rng: &mut StdRng,
    out: &mut ShardOutput,
) {
    for positive in positives {
        let negative = worker.sample(positive, model, rng);
        let f_pos = model.score(positive);
        let f_neg = model.score(&negative.triple);
        // The generator-based samplers use the discriminator's score of the
        // sampled negative as their REINFORCE reward; shard workers buffer it
        // for the batch-end merge.
        worker.feedback(positive, &negative, f_neg, rng);
        let pair = loss.evaluate(f_pos, f_neg);
        out.examples.push((pair.loss, !pair.is_zero()));
        out.negatives.push(negative.triple);
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

/// Drives one (model, sampler) pair through stochastic training and records
/// the history needed by the paper's tables and figures.
pub struct Trainer {
    model: Box<dyn KgeModel>,
    sampler: Box<dyn NegativeSampler>,
    optimizer: Adam,
    loss: Box<dyn Loss>,
    regularizer: L2Regularizer,
    config: TrainConfig,
    batcher: Batcher,
    test: Arc<[Triple]>,
    filter: Arc<FilterIndex>,
    repeat_tracker: RepeatTracker,
    rng: StdRng,
    history: TrainingHistory,
    epochs_done: usize,
    train_seconds: f64,
    /// Persistent worker pool of the sharded pipeline. Spawned lazily on the
    /// first epoch with more than one shard, reused for the trainer's
    /// lifetime (resized only if the shard count changes), joined on drop.
    pool: Option<WorkerPool>,
    /// The batch gradient arena, reused across batches *and* epochs so the
    /// zero-allocation steady state spans the whole run.
    grads: GradientArena,
    /// Per-shard worker outputs, likewise reused.
    shard_outputs: Vec<ShardOutput>,
    /// Per-shard positive lists of the batch partition.
    shard_tasks: Vec<Vec<Triple>>,
    /// Attached telemetry handles; `None` (the default) means every timer
    /// site is skipped — zero clock reads, zero overhead.
    metrics: Option<Arc<TrainMetrics>>,
}

impl Trainer {
    /// Assemble a trainer.
    ///
    /// `data` is anything convertible into the shared [`TrainData`] view: a
    /// `&Dataset` for one-off runs, or a `&TrainData` built once per dataset
    /// so grid runs share one copy of the splits and filter index.
    ///
    /// The loss follows the model's family (margin ranking for translational
    /// models, logistic for semantic matching, as in the paper's Eq. (1)/(2));
    /// the L2 penalty is applied only to the logistic family.
    pub fn new(
        model: Box<dyn KgeModel>,
        sampler: Box<dyn NegativeSampler>,
        data: impl Into<TrainData>,
        config: TrainConfig,
    ) -> Self {
        let data = data.into();
        let loss = default_loss(model.loss_type(), config.margin);
        let regularizer = match model.loss_type() {
            LossType::Logistic => L2Regularizer::new(config.lambda),
            LossType::MarginRanking => L2Regularizer::none(),
        };
        let mut optimizer = Adam::new(config.optimizer.learning_rate);
        // Pre-size the optimizer's per-table state slabs so no step ever
        // allocates (see the nscaching-optim crate docs).
        optimizer.bind(model.as_ref());
        let batcher = Batcher::new(data.train, config.batch_size);
        let rng = seeded_rng(config.seed);
        let repeat_tracker = RepeatTracker::new(config.repeat_window);
        Self {
            model,
            sampler,
            optimizer,
            loss,
            regularizer,
            config,
            batcher,
            test: data.test,
            filter: data.filter,
            repeat_tracker,
            rng,
            history: TrainingHistory::new(),
            epochs_done: 0,
            train_seconds: 0.0,
            pool: None,
            grads: GradientArena::new(),
            shard_outputs: Vec::new(),
            shard_tasks: Vec::new(),
            metrics: None,
        }
    }

    /// Attach telemetry handles ([`TrainMetrics::register`]): per-phase
    /// batch timers, the shard-imbalance gauge, and the per-epoch
    /// [`EpochStats`] bridge. Training trajectories are bit-identical with
    /// and without metrics attached — instrumentation only reads clocks and
    /// counters.
    pub fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The attached telemetry handles, if any.
    pub fn metrics(&self) -> Option<&Arc<TrainMetrics>> {
        self.metrics.as_ref()
    }

    /// The model being trained.
    pub fn model(&self) -> &dyn KgeModel {
        self.model.as_ref()
    }

    /// The negative sampler in use.
    pub fn sampler(&self) -> &dyn NegativeSampler {
        self.sampler.as_ref()
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// History recorded so far.
    pub fn history(&self) -> &TrainingHistory {
        &self.history
    }

    /// Number of epochs completed.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Consume the trainer and return the trained model (used by the
    /// pretrain-then-continue protocol).
    pub fn into_model(self) -> Box<dyn KgeModel> {
        self.model
    }

    /// Capture the trainer's mutable training state at an epoch boundary.
    ///
    /// Pair it with the model tables (via [`Self::model`]) to persist a full
    /// resumable checkpoint — `nscaching_serve::save_checkpoint` does both
    /// and adds the on-disk format. See [`TrainerState`] for the exact-resume
    /// contract.
    pub fn checkpoint(&self) -> TrainerState {
        TrainerState {
            epochs_done: self.epochs_done as u64,
            train_seconds: self.train_seconds,
            rng: rng_state(&self.rng),
            batch_order: self.batcher.order().to_vec(),
            optimizer: self.optimizer.export_state(),
            sampler: self.sampler.export_state(),
        }
    }

    /// Re-apply a [`TrainerState`] captured by [`Self::checkpoint`].
    ///
    /// The trainer must have been built with the same configuration and a
    /// model whose tables already hold the checkpointed values (the snapshot
    /// store restores them before constructing the trainer). Fails when the
    /// optimizer state's slabs do not fit the model's tables (see
    /// [`Adam::import_state`]), or the sampler state belongs to a different
    /// sampler kind than the configured sampler.
    pub fn restore(&mut self, state: TrainerState) -> Result<(), String> {
        // The all-zero state is the one invalid xoshiro256** fixed point; a
        // real trainer can never produce it, and the RNG constructor would
        // panic on it, so reject it as an error here.
        if state.rng.iter().all(|&word| word == 0) {
            return Err("all-zero master-RNG state".into());
        }
        // Importing re-binds, re-padding the slabs to the model's table
        // sizes so the no-allocation guarantee of the bound optimizer holds.
        self.optimizer
            .import_state(state.optimizer, self.model.as_ref())?;
        self.sampler.import_state(state.sampler)?;
        self.batcher.set_order(state.batch_order)?;
        self.rng = rng_from_state(state.rng);
        self.epochs_done = state.epochs_done as usize;
        self.train_seconds = state.train_seconds;
        Ok(())
    }

    /// Train a single epoch and return its statistics.
    ///
    /// Every epoch runs one staged pipeline per mini-batch — shard the
    /// batch, run sample/score/gradient per shard, merge in shard order,
    /// apply one optimizer step — at every shard count:
    ///
    /// * **one shard** (the default): the calling thread drives the
    ///   sampler's own per-triple hooks on the master RNG stream, so the
    ///   generator samplers keep their per-positive REINFORCE step. This is
    ///   the sequential trainer of Algorithms 1 and 2, bit for bit, so the
    ///   paper's tables and figures are unaffected. The sampler is not
    ///   re-partitioned, so one restored from a sharded checkpoint keeps its
    ///   layout;
    /// * **more than one shard**: the shard stage runs on the trainer's
    ///   persistent `WorkerPool`, one shard worker per pool thread, each on
    ///   its own RNG stream (see [`SHARD_STREAM_TAG`]).
    pub fn train_epoch(&mut self) -> EpochStats {
        let shards = self.config.shards.max(1);
        let started = Instant::now();
        let mut acc = EpochAccumulator::new();
        // Borrow the trainer-owned buffers for the epoch (returned below);
        // arenas, per-shard outputs and task lists all keep their high-water
        // allocations across batches and epochs.
        let mut grads = std::mem::take(&mut self.grads);

        if shards > 1 {
            if self.pool.as_ref().is_none_or(|p| p.workers() != shards) {
                self.pool = Some(WorkerPool::new(shards));
            }
            self.sampler.prepare_shards(shards);
        }
        self.batcher.shuffle(&mut self.rng);
        // Per-shard RNG streams for this epoch, derived from (seed, epoch,
        // shard) through SplitMix64 — decorrelated from each other and from
        // the master stream, and a pure function of the configuration, so a
        // fixed (seed, shards) pair replays bit-for-bit. One shard draws
        // from the master stream instead.
        let mut shard_rngs: Vec<StdRng> = if shards > 1 {
            let epoch_seed =
                split_seed(self.config.seed ^ SHARD_STREAM_TAG, self.epochs_done as u64);
            (0..shards)
                .map(|s| seeded_rng(split_seed(epoch_seed, s as u64)))
                .collect()
        } else {
            Vec::new()
        };
        let mut tasks = std::mem::take(&mut self.shard_tasks);
        tasks.resize_with(shards, Vec::new);
        let mut outputs = std::mem::take(&mut self.shard_outputs);
        outputs.resize_with(shards, ShardOutput::default);

        let metrics = self.metrics.clone();
        let mut phase_acc = EpochPhaseAcc::default();
        for batch in 0..self.batcher.batches_per_epoch() {
            // Stage 1 — shard: partition the mini-batch by cache key,
            // preserving batch order within each shard.
            let shard_started = metrics.as_ref().map(|_| Instant::now());
            for task in &mut tasks {
                task.clear();
            }
            for index in self.batcher.batch_range(batch) {
                let positive = self.batcher.get(index);
                tasks[self.sampler.shard_of(&positive, shards)].push(positive);
            }
            let score_started = if let (Some(metrics), Some(started)) = (&metrics, shard_started) {
                metrics.phase_shard.observe(started.elapsed());
                phase_acc.max_shard += tasks.iter().map(Vec::len).max().unwrap_or(0) as u64;
                phase_acc.total_positives += tasks.iter().map(Vec::len).sum::<usize>() as u64;
                Some(Instant::now())
            } else {
                None
            };

            // Stage 2 — sample/score/grad: each shard owns its sampler
            // state, RNG stream and output buffers; the model is shared
            // read-only through the thread-safe batched scoring API.
            let model = self.model.as_ref();
            let loss = self.loss.as_ref();
            let regularizer = &self.regularizer;
            if shards == 1 {
                run_shard_task(
                    model,
                    loss,
                    regularizer,
                    &mut PerTripleHooks(self.sampler.as_mut()),
                    &tasks[0],
                    &mut self.rng,
                    &mut outputs[0],
                );
            } else {
                // One pool round per mini-batch, shard `i` on worker `i`.
                // Empty shards dispatch no job and their worker stays parked.
                let pool = self.pool.as_mut().expect("sharded epochs own a pool");
                let mut workers = self.sampler.shard_workers();
                debug_assert_eq!(workers.len(), shards, "one worker per shard");
                let jobs = workers
                    .iter_mut()
                    .zip(&tasks)
                    .zip(&mut shard_rngs)
                    .zip(&mut outputs)
                    .enumerate()
                    .filter(|(_, (((_, task), _), _))| !task.is_empty())
                    .map(|(shard, (((worker, task), rng), out))| {
                        let job = Box::new(move || {
                            run_shard_task(
                                model,
                                loss,
                                regularizer,
                                worker.as_mut(),
                                task,
                                rng,
                                out,
                            )
                        }) as Box<dyn FnOnce() + Send + '_>;
                        (shard, job)
                    });
                pool.run_round(jobs);
            }
            let merge_started = metrics.as_ref().map(|_| Instant::now());
            // Workers have been dropped; fold buffered sampler feedback (GAN
            // generator REINFORCE) back in, in shard order. A no-op at one
            // shard, whose feedback the per-triple hooks already applied.
            self.sampler.merge_batch();

            // Stage 3 — merge: fold shard outputs in ascending shard order so
            // the floating-point reduction is deterministic (each shard's
            // arena is walked in sorted slot order; see GradientArena::merge).
            grads.clear();
            for out in &mut outputs {
                for &(example_loss, nonzero) in &out.examples {
                    acc.record_example(example_loss, nonzero);
                }
                out.examples.clear();
                for &negative in &out.negatives {
                    self.repeat_tracker.record(negative);
                }
                out.negatives.clear();
                grads.merge(&mut out.grads);
                out.grads.clear();
            }

            // Stage 4 — apply: one optimizer step per mini-batch.
            let apply_started = metrics.as_ref().map(|_| Instant::now());
            if !grads.is_empty() {
                acc.record_batch_gradient(grads.norm());
                self.optimizer.step(self.model.as_mut(), &mut grads);
                self.model.apply_constraints(grads.touched());
            }
            if let (Some(metrics), Some(score_started), Some(merge_started), Some(apply_started)) =
                (&metrics, score_started, merge_started, apply_started)
            {
                metrics
                    .phase_sample_score
                    .observe(merge_started - score_started);
                metrics.phase_merge.observe(apply_started - merge_started);
                metrics.phase_apply.observe(apply_started.elapsed());
            }
        }

        grads.clear();
        self.grads = grads;
        self.shard_tasks = tasks;
        self.shard_outputs = outputs;
        self.finish_epoch(acc, started, phase_acc, shards)
    }

    /// Epoch epilogue: close out the statistics, fold the phase accumulator
    /// into the shard-imbalance gauge, publish the epoch onto the metrics
    /// registry (when attached) and notify the sampler.
    fn finish_epoch(
        &mut self,
        acc: EpochAccumulator,
        started: Instant,
        phase: EpochPhaseAcc,
        shards: usize,
    ) -> EpochStats {
        let seconds = started.elapsed().as_secs_f64();
        self.train_seconds += seconds;
        let repeat_ratio = self.repeat_tracker.ratio();
        let changed = self.sampler.take_changed_elements();
        let stats = acc.finish(self.epochs_done, repeat_ratio, changed, seconds);
        if let Some(metrics) = &self.metrics {
            metrics.shard_imbalance.set(phase.imbalance(shards));
            metrics.publish_epoch(&stats);
        }

        self.sampler.epoch_finished(self.epochs_done);
        self.repeat_tracker.end_epoch();
        self.epochs_done += 1;
        self.history.epochs.push(stats);
        self.history.total_seconds = self.train_seconds;
        stats
    }

    /// Evaluate the current model on the test split with the given protocol.
    pub fn evaluate(&self, protocol: &EvalProtocol) -> LinkPredictionReport {
        evaluate_link_prediction(self.model.as_ref(), &self.test, &self.filter, protocol)
    }

    /// Take a snapshot of the current test performance (Figures 2–5 points).
    pub fn snapshot(&mut self) -> Snapshot {
        let report = self.evaluate(&self.config.snapshot_protocol);
        let snap = Snapshot {
            epoch: self.epochs_done,
            elapsed_seconds: self.train_seconds,
            mrr: report.combined.mrr,
            hits_at_10: report.combined.hits_at_10,
            mean_rank: report.combined.mean_rank,
        };
        self.history.snapshots.push(snap);
        snap
    }

    /// Run up to the configured number of epochs, taking periodic snapshots,
    /// then run the final evaluation.
    ///
    /// Counts against [`Trainer::epochs_done`], so a trainer restored from a
    /// checkpoint runs only the *remaining* epochs of its budget.
    pub fn run(&mut self) -> &TrainingHistory {
        self.run_with(&mut |_| {})
    }

    /// Like [`Self::run`], invoking `after_epoch` after every finished epoch
    /// (after the periodic snapshot, when one is due).
    ///
    /// The hook receives the trainer by shared reference — enough for
    /// observation and checkpointing (`nscaching_serve::save_checkpoint`
    /// needs only `&Trainer`), which is how the experiment binaries implement
    /// `--checkpoint-every` without this crate depending on the snapshot
    /// store.
    pub fn run_with(&mut self, after_epoch: &mut dyn FnMut(&Trainer)) -> &TrainingHistory {
        while self.epochs_done < self.config.epochs {
            self.train_epoch();
            if self.config.eval_every > 0 && self.epochs_done.is_multiple_of(self.config.eval_every)
            {
                self.snapshot();
            }
            after_epoch(self);
        }
        let final_report = self.evaluate(&self.config.final_protocol.clone());
        self.history.final_report = Some(final_report);
        &self.history
    }

    /// One sample/score round without updating anything — used by the
    /// Table I timing harness to isolate the cost of negative sampling.
    pub fn sample_once(&mut self, positive: &Triple) -> SampledNegative {
        self.sampler
            .sample(positive, self.model.as_ref(), &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching::{NsCachingConfig, SamplerConfig};
    use nscaching_datagen::GeneratorConfig;
    use nscaching_kg::Dataset;
    use nscaching_models::{build_model, ModelConfig, ModelKind};
    use nscaching_optim::OptimizerConfig;

    fn dataset(seed: u64) -> Dataset {
        let mut c = GeneratorConfig::small("train-test");
        c.num_entities = 120;
        c.num_train = 900;
        c.num_valid = 60;
        c.num_test = 60;
        c.seed = seed;
        nscaching_datagen::generate(&c).unwrap()
    }

    fn trainer(ds: &Dataset, sampler: SamplerConfig, kind: ModelKind, epochs: usize) -> Trainer {
        let model = build_model(
            &ModelConfig::new(kind).with_dim(16).with_seed(7),
            ds.num_entities(),
            ds.num_relations(),
        );
        let sampler = nscaching::build_sampler(&sampler, ds, 11);
        let config = TrainConfig::new(epochs)
            .with_batch_size(128)
            .with_optimizer(OptimizerConfig::adam(0.02))
            .with_margin(2.0)
            .with_seed(5);
        Trainer::new(model, sampler, ds, config)
    }

    #[test]
    fn training_reduces_the_loss() {
        let ds = dataset(1);
        let mut t = trainer(&ds, SamplerConfig::Bernoulli, ModelKind::TransE, 0);
        let first = t.train_epoch();
        for _ in 0..5 {
            t.train_epoch();
        }
        let last = t.history().epochs.last().copied().unwrap();
        assert!(
            last.mean_loss < first.mean_loss,
            "loss should drop: {} -> {}",
            first.mean_loss,
            last.mean_loss
        );
        assert_eq!(t.epochs_done(), 6);
        assert!(last.seconds >= 0.0);
        assert_eq!(last.examples, ds.train.len());
    }

    #[test]
    fn nscaching_training_runs_and_changes_cache() {
        let ds = dataset(2);
        let mut t = trainer(
            &ds,
            SamplerConfig::NsCaching(NsCachingConfig::new(10, 10)),
            ModelKind::TransE,
            0,
        );
        let stats = t.train_epoch();
        assert!(
            stats.changed_cache_elements > 0,
            "cache must churn in epoch 0"
        );
        assert!(stats.repeat_ratio >= 0.0 && stats.repeat_ratio <= 1.0);
        assert_eq!(t.sampler().name(), "NSCaching");
    }

    #[test]
    fn run_produces_snapshots_and_final_report() {
        let ds = dataset(3);
        let mut t = trainer(&ds, SamplerConfig::Bernoulli, ModelKind::DistMult, 4);
        // snapshot every 2 epochs on a small subset to keep the test fast
        t.config.eval_every = 2;
        t.config.snapshot_protocol = EvalProtocol::filtered().with_max_triples(20);
        t.config.final_protocol = EvalProtocol::filtered().with_max_triples(30);
        let history = t.run();
        assert_eq!(history.epochs.len(), 4);
        assert_eq!(history.snapshots.len(), 2);
        assert!(history.final_report.is_some());
        let report = history.final_report.unwrap();
        assert!(report.combined.mrr > 0.0);
        assert!(report.combined.mrr <= 1.0);
        assert!(history.total_seconds > 0.0);
    }

    #[test]
    fn logistic_models_use_the_regularizer_and_margin_models_do_not() {
        let ds = dataset(4);
        let t = trainer(&ds, SamplerConfig::Bernoulli, ModelKind::ComplEx, 1);
        assert!(t.regularizer.is_active());
        let t = trainer(&ds, SamplerConfig::Bernoulli, ModelKind::TransD, 1);
        assert!(!t.regularizer.is_active());
    }

    #[test]
    fn kbgan_sampler_receives_feedback_during_training() {
        let ds = dataset(5);
        let mut t = trainer(&ds, SamplerConfig::kbgan_default(), ModelKind::TransE, 0);
        let stats = t.train_epoch();
        assert!(stats.examples > 0);
        assert!(t.sampler().extra_parameters() > 0);
    }

    #[test]
    fn training_is_deterministic_given_the_seeds() {
        let ds = dataset(6);
        let run = |seed| {
            let model = build_model(
                &ModelConfig::new(ModelKind::TransE).with_dim(8).with_seed(1),
                ds.num_entities(),
                ds.num_relations(),
            );
            let sampler = nscaching::build_sampler(
                &SamplerConfig::NsCaching(NsCachingConfig::new(5, 5)),
                &ds,
                2,
            );
            let config = TrainConfig::new(2).with_seed(seed).with_batch_size(64);
            let mut t = Trainer::new(model, sampler, &ds, config);
            t.train_epoch();
            t.train_epoch();
            t.evaluate(&EvalProtocol::filtered().with_max_triples(20))
                .combined
                .mrr
        };
        assert_eq!(run(3), run(3));
        // different shuffling seed gives a (very likely) different result
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn parallel_training_is_deterministic_for_fixed_seed_and_shards() {
        let ds = dataset(8);
        let run = |shards: usize| {
            let model = build_model(
                &ModelConfig::new(ModelKind::TransE).with_dim(8).with_seed(1),
                ds.num_entities(),
                ds.num_relations(),
            );
            let sampler = nscaching::build_sampler(
                &SamplerConfig::NsCaching(NsCachingConfig::new(5, 5)),
                &ds,
                2,
            );
            let config = TrainConfig::new(2)
                .with_seed(3)
                .with_batch_size(64)
                .with_shards(shards);
            let mut t = Trainer::new(model, sampler, &ds, config);
            let losses: Vec<f64> = (0..2).map(|_| t.train_epoch().mean_loss).collect();
            let mrr = t
                .evaluate(&EvalProtocol::filtered().with_max_triples(20))
                .combined
                .mrr;
            (losses, mrr)
        };
        assert_eq!(run(4), run(4), "fixed (seed, shards) must replay exactly");
        assert_eq!(run(2), run(2));
        // different shard counts use different RNG partitions
        assert_ne!(run(2).1, run(4).1);
    }

    #[test]
    fn parallel_training_reduces_the_loss_for_every_sampler() {
        let ds = dataset(9);
        for sampler in [
            SamplerConfig::Uniform,
            SamplerConfig::Bernoulli,
            SamplerConfig::NsCaching(NsCachingConfig::new(8, 8)),
            SamplerConfig::kbgan_default(),
        ] {
            let mut t = trainer(&ds, sampler.clone(), ModelKind::TransE, 0);
            t.config.shards = 4;
            let first = t.train_epoch();
            for _ in 0..4 {
                t.train_epoch();
            }
            let last = t.history().epochs.last().copied().unwrap();
            assert!(
                last.mean_loss < first.mean_loss,
                "{}: loss should drop under 4 shards: {} -> {}",
                sampler.display_name(),
                first.mean_loss,
                last.mean_loss
            );
            assert_eq!(last.examples, ds.train.len(), "no positive may be lost");
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_for_bit() {
        let ds = dataset(12);
        let build = || {
            let model = build_model(
                &ModelConfig::new(ModelKind::TransE).with_dim(8).with_seed(1),
                ds.num_entities(),
                ds.num_relations(),
            );
            let sampler = nscaching::build_sampler(&SamplerConfig::Bernoulli, &ds, 2);
            let config = TrainConfig::new(4).with_seed(3).with_batch_size(64);
            Trainer::new(model, sampler, &ds, config)
        };

        // Uninterrupted reference: 4 epochs straight through.
        let mut reference = build();
        for _ in 0..4 {
            reference.train_epoch();
        }

        // Interrupted run: 2 epochs, checkpoint, rebuild, restore, 2 more.
        let mut first_half = build();
        first_half.train_epoch();
        first_half.train_epoch();
        let state = first_half.checkpoint();
        assert_eq!(state.epochs_done, 2);
        let tables: Vec<Vec<f64>> = first_half
            .model()
            .tables()
            .iter()
            .map(|t| t.data().to_vec())
            .collect();

        let mut resumed = build();
        for (table, data) in resumed.model.tables_mut().into_iter().zip(&tables) {
            table.data_mut().copy_from_slice(data);
        }
        resumed.restore(state).unwrap();
        assert_eq!(resumed.epochs_done(), 2);
        resumed.train_epoch();
        resumed.train_epoch();

        for (a, b) in reference
            .model()
            .tables()
            .iter()
            .zip(resumed.model().tables())
        {
            assert!(
                a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "resumed trajectory diverged on table {}",
                a.name()
            );
        }
        // run() honours the restored epoch count: the budget is exhausted.
        let history = resumed.run();
        assert!(history.epochs.is_empty() || resumed.epochs_done() == 4);
        assert_eq!(resumed.epochs_done(), 4);
    }

    #[test]
    fn sample_once_does_not_advance_epochs() {
        let ds = dataset(7);
        let mut t = trainer(&ds, SamplerConfig::Bernoulli, ModelKind::TransE, 1);
        let pos = ds.train[0];
        let neg = t.sample_once(&pos);
        assert_ne!(neg.triple, pos);
        assert_eq!(t.epochs_done(), 0);
    }
}
