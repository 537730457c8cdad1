//! Training loop, pretraining protocol and instrumentation.
//!
//! [`Trainer`] wires together a dataset (`nscaching-kg` / `nscaching-datagen`),
//! a scoring function (`nscaching-models`), an optimizer (`nscaching-optim`)
//! and a negative sampler (`nscaching`) into the stochastic training procedure
//! of the paper's Algorithms 1 and 2, and records everything the evaluation
//! section needs:
//!
//! * per-epoch loss, non-zero-loss ratio (NZL), gradient norms (Figure 10),
//!   negative-sample repeat ratio (RR, Figure 7) and cache churn (CE,
//!   Figure 8);
//! * periodic filtered link-prediction snapshots with wall-clock timestamps
//!   (Figures 2–5);
//! * the pretrain-then-continue protocol used for the "+ pretrain" rows of
//!   Table IV.
//!
//! # Concurrency model
//!
//! [`Trainer::train_epoch`] runs each mini-batch as one staged pipeline at
//! every shard count — **shard → sample/score/grad → merge → apply** — built
//! on three invariants:
//!
//! 1. **Shard ownership.** The batch is partitioned by the positive's
//!    `(h, r)` cache key (the sampler's `shard_of` — a load-balanced
//!    [`nscaching::ShardPartition`] over observed key frequencies for
//!    NSCaching and the GAN samplers, the uniform
//!    [`nscaching::shard_of_key`] hash otherwise); each of the `S` shards
//!    owns a disjoint slice of the sampler's keyed state (NSCaching's
//!    `H`/`T` caches, the GAN samplers' REINFORCE accumulators) plus its
//!    own scratch buffers, so the pool workers share nothing mutable and
//!    need no locks. The embedding model is shared read-only through the
//!    thread-safe batched scoring API (`&self` + thread-local scratch).
//! 2. **RNG streams.** The master stream (seeded from
//!    [`TrainConfig::seed`]) keeps its historical role — epoch shuffling,
//!    and *all* sampling when `shards = 1`. With more shards, each worker
//!    draws from its own stream seeded by SplitMix64 from
//!    `(seed, epoch, shard)` ([`nscaching_math::split_seed`] under
//!    [`trainer::SHARD_STREAM_TAG`]), so a fixed `(seed, shards)` pair
//!    replays bit-for-bit and no worker ever consumes another's draws.
//! 3. **Reduction order.** After the shard stage, per-shard gradients, loss
//!    records and buffered sampler feedback are folded in **ascending
//!    shard order** ([`nscaching_models::GradientArena::merge`], which walks
//!    each shard's sorted `(table, row)` slot list, then the sampler's
//!    `merge_batch`), and a single optimizer step applies the batch by
//!    walking the merged arena's sorted slots — floating-point summation and
//!    update order come from the slab layout itself, making every
//!    trajectory deterministic.
//!
//! ## One shard and many
//!
//! Every epoch runs one synchronous round per mini-batch, so Algorithm 2's
//! cache refresh (step 8) always lands before that batch's embedding update
//! (step 9). Only where the shard stage runs, and which hooks it drives,
//! depend on the shard count:
//!
//! | shards | shard stage | trajectory |
//! |--------|-------------|------------|
//! | 1 (the default) | the calling thread, through the sampler's own per-triple hooks | the paper's: master stream, per-positive sampler feedback (KBGAN's and IGAN's REINFORCE step per positive) |
//! | `S > 1` | the pool, one [`nscaching::ShardSampler`] worker per thread | per-shard cache ownership and RNG streams, batch-end feedback merge |
//!
//! One shard reproduces the pre-sharding trainer's loss trajectory exactly,
//! so the paper's tables and figures are always produced at `shards = 1`.
//! `shards > 1` is an equally valid but *different* deterministic
//! trajectory, which replays the retired per-batch `thread::scope` engine
//! bit-for-bit (asserted in `tests/parallel_equivalence.rs`).
//!
//! ## Pool lifecycle
//!
//! With more than one shard, the shard stage executes on a persistent
//! `WorkerPool` owned by the [`Trainer`]:
//!
//! * **Spawn point.** The pool's `S` threads are spawned lazily on the first
//!   epoch with `S > 1` shards and reused for the trainer's lifetime; only a
//!   change of shard count replaces them. A one-shard trainer never spawns
//!   one. Why a pool rather than one `std::thread::scope` per mini-batch:
//!   see the measurement in the private `pool` module's docs.
//! * **Round protocol.** One pool *round* per mini-batch: the main thread
//!   sends shard `i`'s job to worker `i` over its channel (empty shards
//!   dispatch nothing) and then blocks until every dispatched job has sent
//!   its completion message back — the channel pair acts as the per-batch
//!   barrier, giving the same happens-before edges `thread::scope`'s join
//!   provided. Between rounds the workers are parked in `recv()`.
//! * **Shutdown.** Dropping the trainer (or resizing the pool) closes the
//!   job channels; every worker's `recv()` errors, the thread exits, and
//!   the pool's `Drop` joins them all. A panicking shard job is caught on
//!   the worker, re-thrown on the main thread after the round drains, and
//!   leaves the pool reusable. See the private `pool` module for the full
//!   protocol.

pub mod batcher;
pub mod config;
pub mod data;
pub mod instrument;
mod pool;
pub mod pretrain;
pub mod snapshots;
pub mod telemetry;
pub mod trainer;

pub use batcher::Batcher;
pub use config::{TrainConfig, TrainRuntime};
pub use data::TrainData;
pub use instrument::{EpochStats, RepeatTracker};
pub use pretrain::pretrain_model;
pub use snapshots::{Snapshot, TrainingHistory};
pub use telemetry::TrainMetrics;
pub use trainer::{Trainer, TrainerState, SHARD_STREAM_TAG};
