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
//! With [`TrainConfig::shards`] > 1, [`Trainer::train_epoch`] runs each
//! mini-batch as a staged pipeline — **shard → parallel sample/score/grad →
//! merge → apply** — built on three invariants:
//!
//! 1. **Shard ownership.** The batch is partitioned by the positive's
//!    `(h, r)` cache key (the sampler's `shard_of` — a load-balanced
//!    [`nscaching::ShardPartition`] over observed key frequencies for
//!    NSCaching, the uniform [`nscaching::shard_of_key`] hash otherwise);
//!    each of the `S` shards owns a disjoint slice of the sampler's keyed
//!    state (NSCaching's `H`/`T` caches, the GAN samplers' REINFORCE
//!    accumulators) plus its own scratch buffers, so the pool workers share
//!    nothing mutable and need no locks. The embedding model is shared
//!    read-only through the thread-safe batched scoring API (`&self` +
//!    thread-local scratch).
//! 2. **RNG streams.** The master stream (seeded from
//!    [`TrainConfig::seed`]) keeps its historical role — epoch shuffling,
//!    and *all* sampling when `shards = 1`. Each worker draws from its own
//!    stream seeded by SplitMix64 from `(seed, epoch, shard)`
//!    ([`nscaching_math::split_seed`] under [`trainer::SHARD_STREAM_TAG`]),
//!    so a fixed `(seed, shards)` pair replays bit-for-bit and no worker
//!    ever consumes another's draws.
//! 3. **Reduction order.** After the round completes, per-shard gradients,
//!    loss records and buffered sampler feedback are folded in **ascending
//!    shard order** ([`nscaching_models::GradientArena::merge`], which walks
//!    each shard's sorted `(table, row)` slot list, then the sampler's
//!    `merge_batch`), and a single optimizer step applies the batch by
//!    walking the merged arena's sorted slots — floating-point summation and
//!    update order come from the slab layout itself, making the parallel
//!    trajectory deterministic.
//!
//! ## Pool lifecycle
//!
//! The shard stage executes on a persistent `WorkerPool` owned by the
//! [`Trainer`]:
//!
//! * **Spawn point.** The pool's `S` threads are spawned lazily on the first
//!   pooled epoch and reused for the trainer's lifetime; only a change of
//!   shard count replaces them. (PR 2 spawned a `std::thread::scope` per
//!   mini-batch instead; the pool reclaims that spawn/join cost — see
//!   `BENCH_pool.json` — and is bit-for-bit equivalent, asserted against a
//!   scoped reference in `tests/parallel_equivalence.rs`.)
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
//!
//! ## Engines
//!
//! [`TrainRuntime`] chooses between two engines, and each runs one
//! synchronous round per mini-batch — Algorithm 2's cache refresh (step 8)
//! always lands before that batch's embedding update (step 9):
//!
//! | engine | runs when | trajectory |
//! |--------|-----------|------------|
//! | sequential | `Auto` at `shards = 1` (the default) | the paper's: one shard inline on the master stream, per-positive sampler feedback |
//! | pool | `Auto` at `shards > 1`, or `Pool` | per-shard cache ownership and RNG streams, batch-end feedback merge |
//!
//! The sequential engine reproduces the pre-sharding trainer's loss
//! trajectory exactly, so the paper's tables and figures are always
//! produced at `shards = 1`. `shards > 1` is an equally valid but
//! *different* deterministic trajectory. For a fixed `(seed, shards)` the
//! pool engine is transparent — it replays the retired scoped engine
//! bit-for-bit — but forcing `Pool` at `shards = 1` selects the *parallel*
//! pipeline (shard RNG streams), not the paper-exact sequential one; the
//! `pool_overhead` bench does exactly that to price the pool runtime. See
//! [`TrainRuntime`] for the exact contract.

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
