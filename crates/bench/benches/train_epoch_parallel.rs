//! Criterion bench: epoch throughput of the sharded parallel training
//! pipeline vs the sequential trainer.
//!
//! Run with `cargo bench -p nscaching-bench --bench train_epoch_parallel`.
//!
//! Besides the timing groups, this binary asserts the sharded engine's
//! acceptance bar — a 4-shard `train_epoch` is **≥2×** the 1-shard epoch
//! throughput on a TransE/FB15K-shaped synthetic workload — and records the
//! measured numbers in `BENCH_parallel.json` at the workspace root. The 2×
//! gate requires hardware that can actually run 4 workers: on hosts with
//! fewer than 4 available cores the gate degrades gracefully (speedup is
//! recorded but only a no-collapse bound is asserted), and the
//! `NSC_PARALLEL_SPEEDUP_MIN` environment variable overrides the bar either
//! way — the same relaxation mechanism the CI workflow uses for the batched
//! scoring gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nscaching::{build_sampler, NsCachingConfig, SamplerConfig};
use nscaching_datagen::GeneratorConfig;
use nscaching_kg::Dataset;
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_optim::OptimizerConfig;
use nscaching_train::{TrainConfig, TrainData, Trainer};
use std::hint::black_box;
use std::time::Instant;

/// FB15K-shaped synthetic workload: dense multi-relational graph, scaled so
/// a full epoch finishes in tens of milliseconds (the measurement is
/// per-epoch wall clock, so the shape — not the absolute size — is what
/// matters for the speedup ratio).
fn dataset() -> Dataset {
    let mut config = GeneratorConfig::small("bench-parallel-fb15k");
    config.num_entities = 1_500;
    config.num_relations = 120;
    config.num_train = 8_000;
    config.num_valid = 200;
    config.num_test = 200;
    config.seed = 1;
    nscaching_datagen::generate(&config).expect("generation succeeds")
}

fn trainer(data: &TrainData, dataset: &Dataset, shards: usize) -> Trainer {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(64)
            .with_seed(3),
        dataset.num_entities(),
        dataset.num_relations(),
    );
    // NSCaching with the paper's N1 = N2 = 50: the sample + Algorithm 3
    // refresh work dominates the epoch, which is exactly the stage the
    // sharded pipeline parallelises.
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
        .with_shards(shards);
    Trainer::new(model, sampler, data, config)
}

/// Best-of-N epoch seconds after a warm-up epoch (caches materialised,
/// scratch at high-water marks).
fn epoch_seconds(data: &TrainData, dataset: &Dataset, shards: usize, samples: usize) -> f64 {
    let mut t = trainer(data, dataset, shards);
    t.train_epoch(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        black_box(t.train_epoch());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn bench_epoch_by_shards(c: &mut Criterion) {
    let dataset = dataset();
    let data = TrainData::from_dataset(&dataset);
    let mut group = c.benchmark_group("train_epoch");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        let mut t = trainer(&data, &dataset, shards);
        t.train_epoch(); // warm-up
        group.bench_function(
            BenchmarkId::from_parameter(format!("shards_{shards}")),
            |b| b.iter(|| black_box(t.train_epoch())),
        );
    }
    group.finish();
}

/// The ISSUE's acceptance bar: ≥2× epoch throughput at 4 shards, recorded in
/// `BENCH_parallel.json`.
fn assert_parallel_epoch_speedup(_c: &mut Criterion) {
    let dataset = dataset();
    let data = TrainData::from_dataset(&dataset);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let secs_1 = epoch_seconds(&data, &dataset, 1, 3);
    let secs_2 = epoch_seconds(&data, &dataset, 2, 3);
    let secs_4 = epoch_seconds(&data, &dataset, 4, 3);
    let speedup_2 = secs_1 / secs_2;
    let speedup_4 = secs_1 / secs_4;

    // 2.0 with ≥4 usable cores; on narrower hosts wall-clock parallel speedup
    // is physically unavailable, so only a no-collapse bound is enforced and
    // the measured ratio is recorded for the hardware that can check the bar.
    let default_required = if cores >= 4 {
        2.0
    } else if cores >= 2 {
        1.2
    } else {
        0.25
    };
    let required: f64 = std::env::var("NSC_PARALLEL_SPEEDUP_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_required);

    println!(
        "train_epoch TransE d=64 NSCaching(50,50) |train|={}: \
         1 shard {:.1} ms, 2 shards {:.1} ms ({speedup_2:.2}x), \
         4 shards {:.1} ms ({speedup_4:.2}x) on {cores} core(s); required ≥{required}x",
        dataset.train.len(),
        secs_1 * 1e3,
        secs_2 * 1e3,
        secs_4 * 1e3,
    );

    let section = format!(
        "{{\n  \"workload\": {{\n    \"model\": \"TransE\",\n    \"dim\": 64,\n    \"sampler\": \"NSCaching(N1=50, N2=50)\",\n    \"num_entities\": {},\n    \"num_train\": {},\n    \"batch_size\": 256\n  }},\n  \"cores\": {cores},\n  \"epoch_seconds\": {{\n    \"shards_1\": {secs_1:.6},\n    \"shards_2\": {secs_2:.6},\n    \"shards_4\": {secs_4:.6}\n  }},\n  \"speedup_2_shards\": {speedup_2:.3},\n  \"speedup_4_shards\": {speedup_4:.3},\n  \"required_speedup\": {required},\n  \"note\": \"acceptance bar is >=2x at 4 shards on hosts with >=4 cores; narrower hosts record the ratio and assert only a no-collapse bound (override with NSC_PARALLEL_SPEEDUP_MIN)\"\n}}",
        dataset.num_entities(),
        dataset.train.len(),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_parallel.json");
    if let Err(e) =
        nscaching_bench::update_bench_section(&path, "parallel", "train_epoch_parallel", &section)
    {
        eprintln!("could not record BENCH_parallel.json at {path:?}: {e}");
    }

    assert!(
        speedup_4 >= required,
        "4-shard train_epoch must be ≥{required}x the sequential epoch \
         (got {speedup_4:.2}x on {cores} cores)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = assert_parallel_epoch_speedup, bench_epoch_by_shards
}
criterion_main!(benches);
