//! Criterion bench: cost of the Algorithm 3 cache update as a function of the
//! cache size N1 and the random-subset size N2 (the `O((N1 + N2)·d)` claim of
//! Table I, and the cost side of the Figure 9 sensitivity study).
//!
//! Run with `cargo bench -p nscaching-bench --bench cache_update -- assert`
//! for the scaling gate alone.
//!
//! The gate checks Table I's cost: the median time of one refresh at
//! N1 = N2 = 90 must stay below [`MAX_SCALING`]× the time at N1 = N2 = 10.
//! Linear scaling in N1 + N2 is about 9×; an update that rescans the pool
//! once per kept entry, `O(N1·(N1 + N2))`, read 24–34× on a 2-vCPU host.
//! The per-(N1, N2) medians, the ratio and the bound are recorded in the
//! `cache_update` section of `BENCH_train.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nscaching::{CorruptionPolicy, NegativeSampler, NsCachingConfig, NsCachingSampler};
use nscaching_kg::Triple;
use nscaching_math::seeded_rng;
use nscaching_models::{build_model, KgeModel, ModelConfig, ModelKind};
use std::hint::black_box;
use std::time::Instant;

const NUM_ENTITIES: usize = 2_000;
const NUM_RELATIONS: usize = 20;
/// (N1, N2) grid of the timing group and of the recorded section.
const GRID: [(usize, usize); 7] = [
    (10, 10),
    (30, 30),
    (50, 50),
    (70, 70),
    (90, 90),
    (50, 10),
    (10, 50),
];
/// Bound on the (90, 90) / (10, 10) per-refresh time ratio, the same
/// locally and in CI.
const MAX_SCALING: f64 = 15.0;
/// Distinct positives the gate cycles through, so every refresh after the
/// warm-up pass hits a materialised entry.
const GATE_POSITIVES: u32 = 256;
/// Timed samples per grid point, interleaved across the grid.
const GATE_SAMPLES: usize = 15;
/// `update` calls (two refreshes each) per timed sample.
const GATE_UPDATES: usize = 1_000;

fn model() -> Box<dyn KgeModel> {
    build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(50)
            .with_seed(1),
        NUM_ENTITIES,
        NUM_RELATIONS,
    )
}

/// The `i`-th positive of the update stream.
fn positive(i: u32) -> Triple {
    Triple::new(
        i % NUM_ENTITIES as u32,
        i % NUM_RELATIONS as u32,
        (i * 13 + 1) % NUM_ENTITIES as u32,
    )
}

fn bench_cache_update(c: &mut Criterion) {
    let model = model();
    let mut group = c.benchmark_group("cache_update");
    for &(n1, n2) in &GRID {
        let config = NsCachingConfig::new(n1, n2);
        let mut sampler = NsCachingSampler::new(config, NUM_ENTITIES, CorruptionPolicy::Uniform);
        let mut rng = seeded_rng(5);
        let mut i = 0u32;
        group.bench_function(
            BenchmarkId::from_parameter(format!("n1={n1}_n2={n2}")),
            |b| {
                b.iter(|| {
                    i = i.wrapping_add(1);
                    sampler.update(&positive(i), model.as_ref(), &mut rng);
                    black_box(sampler.refresh_count())
                })
            },
        );
    }
    group.finish();
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Scaling gate: median seconds per refresh at every grid point, timed in
/// interleaved rounds so host drift hits every point alike, then the
/// (90, 90) / (10, 10) ratio against [`MAX_SCALING`]. Records
/// `BENCH_train.json`.
fn assert_cache_update_scaling(_c: &mut Criterion) {
    let model = model();
    let mut samplers: Vec<NsCachingSampler> = GRID
        .iter()
        .map(|&(n1, n2)| {
            let config = NsCachingConfig::new(n1, n2);
            NsCachingSampler::new(config, NUM_ENTITIES, CorruptionPolicy::Uniform)
        })
        .collect();
    let mut rng = seeded_rng(5);
    // Warm-up: materialise every entry and grow every scratch buffer.
    for sampler in &mut samplers {
        for i in 0..GATE_POSITIVES {
            sampler.update(&positive(i), model.as_ref(), &mut rng);
        }
    }
    let mut seconds = vec![Vec::with_capacity(GATE_SAMPLES); GRID.len()];
    let mut i = 0u32;
    for _ in 0..GATE_SAMPLES {
        for (sampler, times) in samplers.iter_mut().zip(&mut seconds) {
            let start = Instant::now();
            for _ in 0..GATE_UPDATES {
                i = (i + 1) % GATE_POSITIVES;
                sampler.update(&positive(i), model.as_ref(), &mut rng);
            }
            times.push(start.elapsed().as_secs_f64() / (2 * GATE_UPDATES) as f64);
        }
    }
    let medians: Vec<f64> = seconds.iter_mut().map(|t| median(t)).collect();
    let at = |point: (usize, usize)| medians[GRID.iter().position(|&g| g == point).unwrap()];
    let ratio = at((90, 90)) / at((10, 10));

    let mut rows = String::new();
    for (i, (&(n1, n2), secs)) in GRID.iter().zip(&medians).enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        let us = secs * 1e6;
        rows.push_str(&format!(
            "    {{ \"n1\": {n1}, \"n2\": {n2}, \"median_us_per_refresh\": {us:.3} }}"
        ));
        println!("cache_update n1={n1} n2={n2}: {us:.3} µs per refresh (median)");
    }
    println!("cache_update scaling (90,90)/(10,10): {ratio:.2}x (max {MAX_SCALING}x)");
    let section = format!(
        "{{\n  \"workload\": {{\n    \"model\": \"TransE\",\n    \"dim\": 50,\n    \"num_entities\": {NUM_ENTITIES},\n    \"update_strategy\": \"importance sampling\",\n    \"positives\": {GATE_POSITIVES},\n    \"samples\": {GATE_SAMPLES},\n    \"refreshes_per_sample\": {}\n  }},\n  \"grid\": [\n{rows}\n  ],\n  \"scaling_90_over_10\": {ratio:.2},\n  \"max_allowed_scaling\": {MAX_SCALING},\n  \"note\": \"Table I gives the refresh O((N1+N2)d): linear scaling from N1=N2=10 to 90 is about 9x; the quadratic sequential importance-sampling draw read 24-34x on a 2-vCPU host\"\n}}",
        2 * GATE_UPDATES
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_train.json");
    if let Err(e) = nscaching_bench::update_bench_section(&path, "train", "cache_update", &section)
    {
        eprintln!("could not record BENCH_train.json at {path:?}: {e}");
    }

    assert!(
        ratio < MAX_SCALING,
        "a refresh at N1=N2=90 must cost under {MAX_SCALING}x one at N1=N2=10 \
         (Table I: O((N1+N2)d)); got {ratio:.2}x"
    );
}

fn bench_lazy_update_schedule(c: &mut Criterion) {
    // Compares an epoch with updates enabled against one with lazy updates
    // disabling them — the `n`-epoch lazy-update knob of Table I.
    let model = model();
    let mut group = c.benchmark_group("lazy_update");
    for (name, lazy) in [("every_epoch", 0usize), ("every_3rd_epoch", 2)] {
        let config = NsCachingConfig::new(50, 50).with_lazy_update(lazy);
        let mut sampler = NsCachingSampler::new(config, NUM_ENTITIES, CorruptionPolicy::Uniform);
        // Put the sampler into the "skipped" phase of the schedule when lazy.
        sampler.epoch_finished(0);
        let mut rng = seeded_rng(6);
        let mut i = 0u32;
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                i = i.wrapping_add(1);
                let positive = positive(i);
                let neg = sampler.sample(&positive, model.as_ref(), &mut rng);
                sampler.update(&positive, model.as_ref(), &mut rng);
                black_box(neg)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = assert_cache_update_scaling, bench_cache_update, bench_lazy_update_schedule
}
criterion_main!(benches);
