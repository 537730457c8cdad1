//! Criterion bench: the crash-recovery path — checkpoint save / restore
//! latency and the managed save → recover cycle.
//!
//! Run with `cargo bench -p nscaching-bench --bench checkpoint_cycle -- assert`.
//!
//! The checkpoint now carries a **sampler section** (NSCaching's per-shard
//! `H`/`T` caches here), so this bench times the full-state frame an online
//! deployment actually writes: model tables + optimizer slabs + trainer
//! counters + sampler state, staged, fsynced and atomically renamed by
//! `write_frame`. Restore is the mirrored path: checksum-verified read plus
//! every section decode.
//!
//! Records into the `checkpoint_cycle` section of `BENCH_serve.json`:
//!
//! * `save_ms` / `load_ms` — one-file checkpoint and restore wall-clock
//!   (best-of, durability syscalls included);
//! * `manager_cycle_ms` — `CheckpointManager::save` (sequence numbering +
//!   retention rotation) followed by `recover` (newest-first validation);
//! * `checkpoint_bytes` — the frame size being paid for;
//! * `verify_v1_ms` / `verify_v2_ms` — the checksum pass of a load over this
//!   frame's payload, held in memory: FNV-1a 64 (format version 1) and XXH64
//!   (version 2), in interleaved rounds, with the median per-round ratio as
//!   `verify_speedup`.
//!
//! Gate: `verify_speedup` ≥ [`MIN_VERIFY_SPEEDUP`] (about 6.5× measured on
//! a 7.57 MB snapshot). Both sides come from one run on one host and touch
//! no disk, so the bound needs no override. Save and load times are not
//! gated: durability syscalls (fsync) dominate them and vary widely across
//! storage.
//!
//! Restore correctness rides along: every measured load is decoded from the
//! frame, and a final resume is asserted to land on the saved trainer's
//! model bits.

use criterion::{criterion_group, criterion_main, Criterion};
use nscaching::{NsCachingConfig, SamplerConfig};
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_serve::format::{fnv1a64, read_frame, xxh64};
use nscaching_serve::{load_checkpoint, save_checkpoint, CheckpointManager};
use nscaching_train::{TrainConfig, Trainer};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Bench design point: a small-but-real full-state checkpoint.
const NUM_ENTITIES: usize = 2_000;
const NUM_TRAIN: usize = 6_000;
const DIM: usize = 32;

/// Interleaved rounds of the checksum probe.
const VERIFY_ROUNDS: usize = 15;

/// Smallest version-1/version-2 verify-time ratio the gate accepts.
const MIN_VERIFY_SPEEDUP: f64 = 3.0;

fn bench_dir() -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nscaching-checkpoint-cycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A trainer with one epoch behind it, so the NSCaching caches, optimizer
/// slabs and RNG state are all populated — an empty sampler section would
/// undersell the frame.
fn trained_trainer() -> Trainer {
    let mut c = GeneratorConfig::small("checkpoint-cycle");
    c.num_entities = NUM_ENTITIES;
    c.num_train = NUM_TRAIN;
    c.num_valid = 50;
    c.num_test = 50;
    c.seed = 17;
    let ds: Dataset = nscaching_datagen::generate(&c).unwrap();
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(DIM)
            .with_seed(5),
        ds.num_entities(),
        ds.num_relations(),
    );
    let sampler = nscaching::build_sampler(
        &SamplerConfig::NsCaching(NsCachingConfig::default()),
        &ds,
        9,
    );
    let config = TrainConfig::new(2)
        .with_batch_size(256)
        .with_optimizer(OptimizerConfig::adam(0.01))
        .with_seed(3);
    let mut trainer = Trainer::new(model, sampler, &ds, config);
    trainer.train_epoch();
    trainer
}

/// Best-of-`samples` milliseconds for one `call` invocation.
fn best_ms(samples: usize, mut call: impl FnMut()) -> f64 {
    call(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        call();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Milliseconds of one `call`.
fn time_ms(call: impl FnOnce()) -> f64 {
    let start = Instant::now();
    call();
    start.elapsed().as_secs_f64() * 1e3
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Median version-1 and version-2 checksum milliseconds over `payload`, and
/// the median of the per-round ratios. The two alternate within each round,
/// so a change of host speed between rounds moves both.
fn verify_times(payload: &[u8]) -> (f64, f64, f64) {
    let (mut v1, mut v2, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..VERIFY_ROUNDS {
        let a = time_ms(|| {
            black_box(fnv1a64(black_box(payload)));
        });
        let b = time_ms(|| {
            black_box(xxh64(black_box(payload)));
        });
        v1.push(a);
        v2.push(b);
        ratios.push(a / b);
    }
    (median(v1), median(v2), median(ratios))
}

fn measure_and_record(_c: &mut Criterion) {
    let samples = 7;
    let dir = bench_dir();
    let trainer = trained_trainer();

    // One-file save / load.
    let file = dir.join("cycle.ckpt");
    let save_ms = best_ms(samples, || {
        save_checkpoint(&file, black_box(&trainer)).unwrap();
    });
    let checkpoint_bytes = std::fs::metadata(&file).unwrap().len();
    let load_ms = best_ms(samples, || {
        black_box(load_checkpoint(&file).unwrap());
    });
    let (verify_v1_ms, verify_v2_ms, verify_speedup) = verify_times(&read_frame(&file).unwrap());

    // Managed cycle: sequence-numbered save with retention rotation, then
    // full newest-first recovery.
    let managed = dir.join("managed");
    let manager = CheckpointManager::new(&managed, 2).unwrap();
    let manager_cycle_ms = best_ms(samples, || {
        manager.save(black_box(&trainer)).unwrap();
        black_box(manager.recover().unwrap().expect("a checkpoint exists"));
    });

    // Restore correctness rides along with the timing claims.
    let restored = load_checkpoint(&file).unwrap();
    let saved_bits: Vec<u64> = trainer
        .model()
        .tables()
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect();
    let restored_bits: Vec<u64> = restored
        .model
        .tables
        .iter()
        .flat_map(|t| t.data.iter().map(|v| v.to_bits()))
        .collect();
    assert_eq!(saved_bits, restored_bits, "restore must be bit-identical");

    println!(
        "checkpoint_cycle: save {save_ms:.2}ms, load {load_ms:.2}ms, \
         manager save+recover {manager_cycle_ms:.2}ms, frame {checkpoint_bytes} bytes, \
         verify v1 {verify_v1_ms:.3}ms v2 {verify_v2_ms:.3}ms = {verify_speedup:.2}x \
         (min {MIN_VERIFY_SPEEDUP}x)"
    );

    let section = format!(
        "{{\n  \"workload\": \"TransE d={DIM} |E|={NUM_ENTITIES} |T|={NUM_TRAIN}, Adam, NSCaching sampler after one epoch (full-state frame: model + optimizer + trainer + sampler sections)\",\n  \"save_ms\": {save_ms:.2},\n  \"load_ms\": {load_ms:.2},\n  \"manager_cycle_ms\": {manager_cycle_ms:.2},\n  \"checkpoint_bytes\": {checkpoint_bytes},\n  \"verify_v1_ms\": {verify_v1_ms:.3},\n  \"verify_v2_ms\": {verify_v2_ms:.3},\n  \"verify_speedup\": {verify_speedup:.2},\n  \"min_required_verify_speedup\": {MIN_VERIFY_SPEEDUP},\n  \"note\": \"save includes staging fsync + atomic rename + directory fsync; manager_cycle adds sequence numbering, keep-2 rotation and newest-first checksum-verified recovery. Restore is asserted bit-identical on every run. verify_* time the checksum over this frame's payload in memory (v1 FNV-1a 64, v2 XXH64; medians of {VERIFY_ROUNDS} interleaved rounds, speedup the median per-round ratio), gated with no override since both sides come from one run\"\n}}"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    if let Err(e) =
        nscaching_bench::update_bench_section(&path, "serve", "checkpoint_cycle", &section)
    {
        eprintln!("could not record BENCH_serve.json at {path:?}: {e}");
    }
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        verify_speedup >= MIN_VERIFY_SPEEDUP,
        "version-2 verify is only {verify_speedup:.2}x faster than version 1 \
         (min {MIN_VERIFY_SPEEDUP}x)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = measure_and_record
}
criterion_main!(benches);
