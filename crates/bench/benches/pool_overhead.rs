//! Criterion bench: dispatch overhead of the persistent worker-pool engine.
//!
//! Run with `cargo bench -p nscaching-bench --bench pool_overhead`.
//!
//! Two numbers from the ISSUE's acceptance bar, both recorded into the
//! `pool_overhead` section of `BENCH_pool.json` at the workspace root:
//!
//! * **1-shard pool overhead** — the pool engine forced onto a single shard
//!   (`TrainRuntime::Pool`) against the inline sequential engine
//!   (`TrainRuntime::Auto` at one shard) on the same workload shape. The
//!   difference is dominated by runtime cost — batch partitioning, one
//!   channel round-trip per batch, the ordered merge — but is not a *pure*
//!   dispatch measure: the two engines run different pipelines (shard vs
//!   master RNG streams), so they draw different negatives and skip
//!   different zero-loss pairs. Per-positive work is
//!   trajectory-independent to first order (the same `N1 + N2` candidates
//!   are scored per refresh regardless of which entities they are), which
//!   is what makes the comparison meaningful; best-of-N sampling absorbs
//!   the residual variance. Gated at ≤ 2% (`NSC_POOL_OVERHEAD_MAX`,
//!   fractional; CI relaxes it on shared runners the same way
//!   `NSC_PARALLEL_SPEEDUP_MIN` relaxes the speedup gate).
//! * **4-shard ratio on narrow hosts** — sequential seconds / 4-shard pool
//!   seconds. PR 2's scoped engine measured 0.95× on this 1-core container
//!   (per-batch spawn/join burned ~5% of the epoch); the pool reclaims that
//!   spawn cost, and `NSC_POOL_RATIO4_MIN` (default 0.95 — "no worse than
//!   the scoped engine"; the headline target is ≥ 0.99) gates against
//!   regression. On multi-core hosts this ratio becomes a genuine speedup
//!   and the `train_epoch_parallel` bench gates it much higher.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nscaching::{build_sampler, NsCachingConfig, SamplerConfig};
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_train::{TrainConfig, TrainData, TrainRuntime, Trainer};
use std::hint::black_box;
use std::time::Instant;

/// Same FB15K-shaped workload as `train_epoch_parallel`, so the recorded
/// ratios are directly comparable with `BENCH_parallel.json`.
fn dataset() -> Dataset {
    let mut config = GeneratorConfig::small("bench-pool-fb15k");
    config.num_entities = 1_500;
    config.num_relations = 120;
    config.num_train = 8_000;
    config.num_valid = 200;
    config.num_test = 200;
    config.seed = 1;
    nscaching_datagen::generate(&config).expect("generation succeeds")
}

fn trainer(data: &TrainData, dataset: &Dataset, runtime: TrainRuntime, shards: usize) -> Trainer {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(64)
            .with_seed(3),
        dataset.num_entities(),
        dataset.num_relations(),
    );
    let sampler = build_sampler(
        &SamplerConfig::NsCaching(NsCachingConfig::new(50, 50)),
        dataset,
        7,
    );
    let config = TrainConfig::new(0)
        .with_batch_size(256)
        .with_optimizer(OptimizerConfig::adam(0.02))
        .with_margin(3.0)
        .with_seed(11)
        .with_shards(shards)
        .with_runtime(runtime);
    Trainer::new(model, sampler, data, config)
}

/// Best-of-N epoch seconds after a warm-up epoch (pool spawned, caches
/// materialised, scratch at high-water marks).
fn epoch_seconds(
    data: &TrainData,
    dataset: &Dataset,
    runtime: TrainRuntime,
    shards: usize,
    samples: usize,
) -> f64 {
    let mut t = trainer(data, dataset, runtime, shards);
    t.train_epoch(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        black_box(t.train_epoch());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn bench_engines(c: &mut Criterion) {
    let dataset = dataset();
    let data = TrainData::from_dataset(&dataset);
    let mut group = c.benchmark_group("pool_epoch");
    group.sample_size(10);
    for (label, runtime, shards) in [
        ("sequential", TrainRuntime::Auto, 1),
        ("pool_1", TrainRuntime::Pool, 1),
        ("pool_4", TrainRuntime::Pool, 4),
    ] {
        let mut t = trainer(&data, &dataset, runtime, shards);
        t.train_epoch(); // warm-up
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(t.train_epoch()))
        });
    }
    group.finish();
}

/// The acceptance gates: 1-shard pool overhead ≤ `NSC_POOL_OVERHEAD_MAX`
/// and 4-shard ratio ≥ `NSC_POOL_RATIO4_MIN`, recorded in `BENCH_pool.json`.
fn assert_pool_overhead(_c: &mut Criterion) {
    let dataset = dataset();
    let data = TrainData::from_dataset(&dataset);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let samples = 5;
    let secs_seq = epoch_seconds(&data, &dataset, TrainRuntime::Auto, 1, samples);
    let secs_pool_1 = epoch_seconds(&data, &dataset, TrainRuntime::Pool, 1, samples);
    let secs_pool_4 = epoch_seconds(&data, &dataset, TrainRuntime::Pool, 4, samples);
    let overhead_1 = secs_pool_1 / secs_seq - 1.0;
    let ratio_4 = secs_seq / secs_pool_4;

    let max_overhead: f64 = std::env::var("NSC_POOL_OVERHEAD_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.02);
    let min_ratio_4: f64 = std::env::var("NSC_POOL_RATIO4_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.95);

    println!(
        "pool_overhead TransE d=64 NSCaching(50,50) |train|={}: \
         sequential {:.1} ms, pool@1 {:.1} ms ({:+.2}% overhead, max {:.1}%), \
         pool@4 {:.1} ms ({ratio_4:.3}x vs sequential, min {min_ratio_4}x) on {cores} core(s)",
        dataset.train.len(),
        secs_seq * 1e3,
        secs_pool_1 * 1e3,
        overhead_1 * 100.0,
        max_overhead * 100.0,
        secs_pool_4 * 1e3,
    );

    let section = format!(
        "{{\n  \"workload\": {{\n    \"model\": \"TransE\",\n    \"dim\": 64,\n    \"sampler\": \"NSCaching(N1=50, N2=50)\",\n    \"num_entities\": {},\n    \"num_train\": {},\n    \"batch_size\": 256\n  }},\n  \"cores\": {cores},\n  \"epoch_seconds\": {{\n    \"sequential\": {secs_seq:.6},\n    \"pool_1_shard\": {secs_pool_1:.6},\n    \"pool_4_shards\": {secs_pool_4:.6}\n  }},\n  \"pool_1_shard_overhead\": {overhead_1:.4},\n  \"max_allowed_overhead\": {max_overhead},\n  \"ratio_4_shards_vs_sequential\": {ratio_4:.3},\n  \"min_required_ratio_4\": {min_ratio_4},\n  \"note\": \"pool@1 vs sequential isolates the persistent runtime's dispatch cost (<=2% gate, NSC_POOL_OVERHEAD_MAX); ratio_4 on a 1-core host was 0.95x under the retired per-batch thread::scope engine and must not regress (NSC_POOL_RATIO4_MIN)\"\n}}",
        dataset.num_entities(),
        dataset.train.len(),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_pool.json");
    if let Err(e) = nscaching_bench::update_bench_section(&path, "pool", "pool_overhead", &section)
    {
        eprintln!("could not record BENCH_pool.json at {path:?}: {e}");
    }

    assert!(
        overhead_1 <= max_overhead,
        "1-shard pool engine overhead must be ≤{:.1}% of the sequential epoch \
         (got {:+.2}%; override with NSC_POOL_OVERHEAD_MAX)",
        max_overhead * 100.0,
        overhead_1 * 100.0,
    );
    assert!(
        ratio_4 >= min_ratio_4,
        "4-shard pool epoch must reach ≥{min_ratio_4}x the sequential epoch \
         (got {ratio_4:.3}x on {cores} cores; override with NSC_POOL_RATIO4_MIN)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = assert_pool_overhead, bench_engines
}
criterion_main!(benches);
