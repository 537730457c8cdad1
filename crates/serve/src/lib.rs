//! Checkpoint store and online serving engine for trained KGE models.
//!
//! Everything upstream of this crate trains; nothing survived the process.
//! `nscaching_serve` adds the two missing production layers:
//!
//! 1. a **snapshot store** — a versioned, checksummed binary format that
//!    persists a model's embedding tables, the optimizer's dense state slabs
//!    and the trainer's RNG/epoch counters, giving
//!    [`Trainer`](nscaching_train::Trainer) working `checkpoint()`/resume
//!    semantics with a provable exact-resume guarantee; and
//! 2. a **query engine** — [`KnowledgeServer`], which loads a snapshot behind
//!    an `Arc` and answers top-k link-prediction, rank and
//!    triplet-classification queries through the workspace's batched scoring
//!    fast paths, fronted by one version-invalidated top-k result cache
//!    behind one lock, evicting in segmented-LRU order (chosen from
//!    trace-driven simulation, see [`cache`]). The cache-miss path selects its top-k in one bounded pass
//!    (`nscaching_math::top_k_indices_into`: O(|E| + k log k), holding at
//!    most `max(2k, k + 32)` indices) instead of a full sort, and a TransE
//!    model's top-k and rank scan a 15-bit fixed-point mirror of its entity
//!    table and rescore exactly only the rows the mirror's error bound
//!    cannot rule out (answers bit-identical to the full scan, see
//!    [`server`]). Score, rank and classification queries are not cached.
//!
//! # On-disk format
//!
//! One frame per file (all integers little-endian):
//!
//! ```text
//! ┌──────────┬─────────────┬──────────────┬───────────┬──────────────┐
//! │ magic 8B │ version u32 │ length  u64  │  payload  │ checksum u64 │
//! │ NSCSNP␁␊ │      2      │ = |payload|  │ sections… │ XXH64 seed 0 │
//! └──────────┴─────────────┴──────────────┴───────────┴──────────────┘
//! ```
//!
//! Version 1 frames, whose checksum is FNV-1a 64, are still read: the two
//! versions differ only in the checksum, and only version 2 is written
//! (see [`mod@format`]).
//!
//! The payload is a sequence of tagged, length-prefixed sections (so readers
//! skip what they do not understand): **model** (scoring-function kind,
//! dimensions, every [`EmbeddingTable`](nscaching_models::EmbeddingTable) as
//! a dimension-strided `f64`-LE slab), **trainer** (epoch counter, wall-clock
//! seconds, raw master-RNG state, the batcher's epoch permutation, and a
//! seed/shards/learning-rate fingerprint validated at resume),
//! **optimizer** (Adam's dense per-table state slabs — `m`/`v` moments and
//! step counters), and
//! **sampler** (a stateful sampler's evolving state: NSCaching's per-shard
//! `H`/`T` caches with their refresh/changed-element counters, or a GAN
//! sampler's generator tables, generator-optimizer slabs and REINFORCE
//! baseline; absent for stateless samplers and legacy files). A
//! model-only snapshot ([`save_model`]) is the serving artifact; a full
//! checkpoint ([`save_checkpoint`]) is a superset, and [`KnowledgeServer`]
//! accepts either. Readers validate magic → version → length from the
//! header before reading the payload, then the checksum before parsing a
//! byte of it, and every failure is a typed [`SnapshotError`] — corruption
//! never panics.
//!
//! # Exact-resume guarantee
//!
//! A run interrupted at an epoch boundary and resumed from its checkpoint
//! ([`load_checkpoint`] → [`resume_trainer`]) produces **bit-for-bit** the
//! same embeddings, optimizer state and evaluation metrics as the
//! uninterrupted run — for **every** sampler, stateful ones included. The
//! argument: the trajectory is a pure function of (model tables, optimizer
//! slabs, master-RNG state, batch permutation, epoch counter, sampler state,
//! configuration) — all but the last are in the checkpoint, and the
//! per-epoch shard streams of the parallel engine are re-derived from
//! `(seed, epoch, shard)` through SplitMix64, so restoring the epoch counter
//! restores them exactly. At an epoch boundary a sampler's *transient* state
//! (per-shard REINFORCE buffers, scratch) is empty by construction, so the
//! sampler section's caches/generator/baseline are the whole of it.
//! `tests/exact_resume.rs` proves the guarantee for all 5 models with
//! Bernoulli, plus NSCaching, KBGAN and IGAN, at shards ∈ {1, 4}.
//!
//! # Crash recovery
//!
//! [`CheckpointManager`] turns one-file atomicity into a directory-level
//! last-good guarantee: sequence-numbered saves (nothing overwritten in
//! place), keep-last-N rotation that only deletes *after* a new save is
//! durable, full-validation recovery that walks newest → oldest, and
//! corruption **quarantine** — a bad file is renamed aside with a typed
//! reason suffix for inspection, never deleted blind. The kill-anywhere
//! harness (`tests/crash_recovery.rs`) SIGKILL-equivalently aborts a training
//! child at every instrumented point of the write/rename/rotate protocol
//! ([`crash`]) and proves recovery always finds a valid checkpoint and
//! resumes bit-identically. See [`manager`] for the ops runbook.
//!
//! # Query-cache contract
//!
//! The serving cache is one [`PolicyCache`] behind one mutex, keyed by the
//! full query `(relation, entity, direction, k)`. Every entry carries the
//! server's *model stamp* — load generation mixed with the sum of all
//! `EmbeddingTable::version()` counters, captured under the same model lock
//! the answer was computed under. Any model mutation bumps at least one table
//! version, any reload bumps the generation; a lookup whose entry stamp
//! mismatches drops the entry and recomputes. The stamp lives in the cached
//! *values*, so the eviction order cannot affect the staleness guarantee —
//! `tests/policy_invariants.rs` re-proves it, both single-threaded and with
//! concurrent readers racing model updates. See [`server`] for the full
//! reasoning.

pub mod cache;
pub mod crash;
pub mod error;
pub mod format;
pub mod manager;
mod mirror;
mod policy;
pub mod server;
pub mod snapshot;
pub mod telemetry;

pub use cache::{CacheStats, PolicyCache};
pub use error::SnapshotError;
pub use manager::{CheckpointEntry, CheckpointManager, Recovery, VerifiedEntry};
pub use server::{CacheConfig, KnowledgeServer, QueryError, QueryScratch, RankedEntity, TopKQuery};
pub use snapshot::{
    load_checkpoint, load_model, resume_trainer, save_checkpoint, save_model, Checkpoint,
    CheckpointMeta, ModelSnapshot, TableData,
};
pub use telemetry::ServeMetrics;
