//! Criterion bench: online serving throughput of `nscaching_serve`'s
//! `KnowledgeServer` under a skewed (Zipf) top-k query stream.
//!
//! Run with `cargo bench -p nscaching-bench --bench serve_throughput`.
//!
//! Measures and records into the `serve_throughput` section of
//! `BENCH_serve.json` at the workspace root:
//!
//! * **uncached top-k** — one full `score_all_into` scan + `top_k` selection
//!   per query, through caller-reused scratch (the allocation-free hot path);
//! * **warm cache hits** — the same stream answered out of the
//!   query-result cache. The gated headline (`NSC_SERVE_LRU_MIN`, named for
//!   the cache's earlier LRU order; ≥ 5× locally; CI relaxes it on shared
//!   runners like the other bench gates) is the warm-hit/uncached throughput
//!   ratio on the Zipf stream — the design point of serving skewed
//!   production traffic from a small hot cache.
//!
//! The bench also asserts the allocation contract: after warm-up,
//! steady-state queries perform **zero heap allocations** — on the uncached
//! path (scratch at its high-water marks) *and* on the cache-hit path (an
//! `Arc` clone out of a pre-sized cache) — and a cache **miss** performs
//! one, the shared answer built in place from the scratch (asserted below
//! 1.1 per miss, over misses that each evict).
//!
//! A **design-point** phase gates the scan mirror at the served snapshot's
//! shape (TransE, d = 64, |E| = 14,541, |R| = 237): uncached `top_k_into`
//! (k = 10) and `rank` through the engine, which scan the 15-bit grid
//! mirror and rescore exactly only what its error bound cannot rule out,
//! against the exact `f64` scan (`score_all_into` + `top_k_indices_into` /
//! `rank_scan`) on an identical model. Every answer is first asserted
//! bit-identical, and the mean number of rows the exact pass rescored per
//! top-10 and per rank (`nsc_serve_scan_rescored_rows_total`) is recorded;
//! then alternated passes are timed, and the median exact/engine ratio of
//! each query shape must reach `MIN_MIRROR_SPEEDUP` (1.25×). Both sides run
//! on the same host in the same process, so the bound is the same locally
//! and in CI.

use criterion::{criterion_group, criterion_main, Criterion};
use nscaching_kg::{CorruptionSide, Triple};
use nscaching_math::{rank_scan, top_k_indices_into};
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_obs::MetricsRegistry;
use nscaching_serve::{CacheConfig, KnowledgeServer, QueryScratch, ServeMetrics, TopKQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

struct CountingAllocator;

static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const DIM: usize = 64;
const ENTITIES: usize = 2_000;
const RELATIONS: usize = 32;
const K: u32 = 10;
/// Distinct query keys in the universe…
const DISTINCT_QUERIES: usize = 512;
/// …of which the cache holds at most this many answers.
const CACHE_CAPACITY: usize = 256;
/// Length of the sampled query stream.
const STREAM: usize = 4_096;
/// Steady-state misses measured.
const MISSES: usize = 2_000;
/// Most allocations a miss may make: its one shared answer, plus slack for
/// a fixed count per measurement.
const MAX_ALLOCATIONS_PER_MISS: f64 = 1.1;
/// Zipf skew exponent (s > 1 concentrates mass on the head, like real
/// entity-lookup traffic).
const ZIPF_S: f64 = 1.2;
/// The served snapshot's vocabulary (`perfbench`'s serving workloads).
const DESIGN_ENTITIES: usize = 14_541;
const DESIGN_RELATIONS: usize = 237;
/// Top-k queries and rank queries per timed design-point pass.
const DESIGN_QUERIES: usize = 48;
/// Alternated engine/exact pass pairs per query shape.
const DESIGN_SAMPLES: usize = 9;
/// Least median exact/engine time ratio of the design-point scans.
const MIN_MIRROR_SPEEDUP: f64 = 1.25;

fn server() -> KnowledgeServer {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(DIM)
            .with_seed(3),
        ENTITIES,
        RELATIONS,
    );
    KnowledgeServer::with_cache(model, CacheConfig::with_capacity(CACHE_CAPACITY))
}

/// A Zipf-distributed stream over `DISTINCT_QUERIES` distinct top-k queries:
/// rank `r` is drawn with probability ∝ 1/(r+1)^s. Deterministic.
fn zipf_stream() -> Vec<TopKQuery> {
    let universe: Vec<TopKQuery> = (0..DISTINCT_QUERIES)
        .map(|i| {
            let entity = ((i * 131) % ENTITIES) as u32;
            let relation = ((i * 17) % RELATIONS) as u32;
            if i % 2 == 0 {
                TopKQuery::tails(entity, relation, K)
            } else {
                TopKQuery::heads(entity, relation, K)
            }
        })
        .collect();
    let weights: Vec<f64> = (0..DISTINCT_QUERIES)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total = *cumulative.last().unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    (0..STREAM)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            let rank = cumulative.partition_point(|&c| c < u);
            universe[rank.min(DISTINCT_QUERIES - 1)]
        })
        .collect()
}

/// Seconds one call of `pass` takes.
fn seconds(mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    pass();
    start.elapsed().as_secs_f64()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// What the design-point phase measured, per query shape `(top-k, rank)`.
struct DesignPoint {
    /// Median exact/engine time ratio.
    speedup: (f64, f64),
    /// Median engine microseconds per query.
    engine_us: (f64, f64),
    /// Mean rows the exact pass rescored per query.
    refined_rows: (f64, f64),
}

/// The design-point phase (see the module docs): the engine's two-pass
/// scans against the exact `f64` scan on an identical TransE model.
fn design_point() -> DesignPoint {
    let config = ModelConfig::new(ModelKind::TransE)
        .with_dim(DIM)
        .with_seed(7);
    let engine = KnowledgeServer::new(build_model(&config, DESIGN_ENTITIES, DESIGN_RELATIONS), 0);
    assert!(
        engine.scan_mirror_bytes() > 0,
        "TransE is served with a mirror"
    );
    let registry = MetricsRegistry::new();
    engine.attach_metrics(ServeMetrics::register(&registry));
    let rescored = || {
        registry
            .counter_value("nsc_serve_scan_rescored_rows_total", &[])
            .expect("registered")
    };
    let exact = build_model(&config, DESIGN_ENTITIES, DESIGN_RELATIONS);
    let mut rng = StdRng::seed_from_u64(9);
    let queries: Vec<TopKQuery> = (0..DESIGN_QUERIES)
        .map(|i| {
            let entity = rng.gen_range(0..DESIGN_ENTITIES as u32);
            let relation = rng.gen_range(0..DESIGN_RELATIONS as u32);
            if i % 2 == 0 {
                TopKQuery::tails(entity, relation, K)
            } else {
                TopKQuery::heads(entity, relation, K)
            }
        })
        .collect();
    let ranks: Vec<(Triple, CorruptionSide)> = (0..DESIGN_QUERIES)
        .map(|i| {
            let triple = Triple::new(
                rng.gen_range(0..DESIGN_ENTITIES as u32),
                rng.gen_range(0..DESIGN_RELATIONS as u32),
                rng.gen_range(0..DESIGN_ENTITIES as u32),
            );
            let side = if i % 2 == 0 {
                CorruptionSide::Tail
            } else {
                CorruptionSide::Head
            };
            (triple, side)
        })
        .collect();

    let mut scratch = QueryScratch::default();
    let mut out = Vec::new();
    let (mut scores, mut order) = (Vec::new(), Vec::new());
    let exact_top_k = |query: &TopKQuery, scores: &mut Vec<f64>, order: &mut Vec<usize>| {
        let anchor = match query.direction {
            CorruptionSide::Tail => Triple::new(query.entity, query.relation, 0),
            CorruptionSide::Head => Triple::new(0, query.relation, query.entity),
        };
        exact.score_all_into(&anchor, query.direction, scores);
        top_k_indices_into(scores, query.k as usize, order);
    };
    let exact_rank = |triple: &Triple, side: CorruptionSide, scores: &mut Vec<f64>| {
        exact.score_all_into(triple, side, scores);
        let target = triple.entity_at(side) as usize;
        rank_scan(scores, scores[target], target).rank()
    };

    // Bit-identity first: nothing is timed unless every answer matches.
    for query in &queries {
        engine.top_k_into(query, &mut scratch, &mut out).unwrap();
        exact_top_k(query, &mut scores, &mut order);
        let want: Vec<(u32, u64)> = order
            .iter()
            .map(|&i| (i as u32, scores[i].to_bits()))
            .collect();
        let got: Vec<(u32, u64)> = out.iter().map(|r| (r.entity, r.score.to_bits())).collect();
        assert_eq!(got, want, "design-point top-k {query:?}");
    }
    let top_k_rescored = rescored();
    for (triple, side) in &ranks {
        let got = engine.rank(triple, *side, &mut scratch).unwrap();
        let want = exact_rank(triple, *side, &mut scores);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "design-point rank {triple:?} {side:?}"
        );
    }
    let rank_rescored = rescored() - top_k_rescored;
    let per_query = |rows: u64| rows as f64 / DESIGN_QUERIES as f64;

    let (mut top_k_ratio, mut rank_ratio) = (Vec::new(), Vec::new());
    let (mut top_k_us, mut rank_us) = (Vec::new(), Vec::new());
    let per_query_us = |secs: f64| secs * 1e6 / DESIGN_QUERIES as f64;
    for _ in 0..DESIGN_SAMPLES {
        let engine_secs = seconds(|| {
            for query in &queries {
                engine.top_k_into(query, &mut scratch, &mut out).unwrap();
                black_box(out.len());
            }
        });
        let exact_secs = seconds(|| {
            for query in &queries {
                exact_top_k(query, &mut scores, &mut order);
                black_box(order.len());
            }
        });
        top_k_ratio.push(exact_secs / engine_secs);
        top_k_us.push(per_query_us(engine_secs));
        let engine_secs = seconds(|| {
            for (triple, side) in &ranks {
                black_box(engine.rank(triple, *side, &mut scratch).unwrap());
            }
        });
        let exact_secs = seconds(|| {
            for (triple, side) in &ranks {
                black_box(exact_rank(triple, *side, &mut scores));
            }
        });
        rank_ratio.push(exact_secs / engine_secs);
        rank_us.push(per_query_us(engine_secs));
    }
    DesignPoint {
        speedup: (median(top_k_ratio), median(rank_ratio)),
        engine_us: (median(top_k_us), median(rank_us)),
        refined_rows: (per_query(top_k_rescored), per_query(rank_rescored)),
    }
}

/// Best-of-`samples` seconds for one full pass over the stream.
fn best_pass_seconds(samples: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        pass();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn bench_query_paths(c: &mut Criterion) {
    let server = server();
    let stream = zipf_stream();
    let mut group = c.benchmark_group("serve_query");
    group.sample_size(10);
    {
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        let mut i = 0;
        group.bench_function("uncached_topk", |b| {
            b.iter(|| {
                let query = &stream[i % stream.len()];
                i += 1;
                server
                    .top_k_into(black_box(query), &mut scratch, &mut out)
                    .unwrap();
                black_box(out.len());
            })
        });
    }
    {
        let mut scratch = QueryScratch::default();
        for query in &stream {
            black_box(server.top_k(query, &mut scratch).unwrap());
        }
        let mut i = 0;
        group.bench_function("warm_cache_topk", |b| {
            b.iter(|| {
                let query = &stream[i % stream.len()];
                i += 1;
                black_box(server.top_k(black_box(query), &mut scratch).unwrap());
            })
        });
    }
    group.finish();
}

/// Acceptance gates: warm cache ≥ `NSC_SERVE_LRU_MIN`× the uncached path on
/// the Zipf stream, and zero steady-state allocations per query on both
/// paths. Records `BENCH_serve.json`.
fn assert_serve_throughput(_c: &mut Criterion) {
    let stream = zipf_stream();
    let samples = 5;

    // --- Zero steady-state allocations: uncached path.
    let uncached_allocations = {
        let server = server();
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        for query in stream.iter().take(64) {
            server.top_k_into(query, &mut scratch, &mut out).unwrap();
        }
        let before = ALLOCATION_COUNT.load(Ordering::Relaxed);
        for query in stream.iter().take(512) {
            server.top_k_into(query, &mut scratch, &mut out).unwrap();
            black_box(out.len());
        }
        ALLOCATION_COUNT.load(Ordering::Relaxed) - before
    };

    // --- Zero steady-state allocations: cache-hit path. Use a hit-only
    //     subset (≤ capacity distinct keys, all warmed) so no insert runs.
    let hit_allocations = {
        let server = server();
        let mut scratch = QueryScratch::default();
        let hot: Vec<&TopKQuery> = stream
            .iter()
            .filter(|q| (q.entity as usize).is_multiple_of(8))
            .take(CACHE_CAPACITY / 2)
            .collect();
        for query in &hot {
            black_box(server.top_k(query, &mut scratch).unwrap());
        }
        let before = ALLOCATION_COUNT.load(Ordering::Relaxed);
        for _ in 0..4 {
            for query in &hot {
                black_box(server.top_k(query, &mut scratch).unwrap());
            }
        }
        ALLOCATION_COUNT.load(Ordering::Relaxed) - before
    };

    // --- One allocation per steady-state miss. A cycle over twice the
    //     capacity's distinct keys misses every time (one-touch keys never
    //     leave probation, which evicts in insertion order), and once the
    //     cache is full every insert evicts.
    let miss_allocations = {
        let server = server();
        let mut scratch = QueryScratch::default();
        let cycle: Vec<TopKQuery> = (0..2 * CACHE_CAPACITY)
            .map(|i| TopKQuery::tails(i as u32, (i % RELATIONS) as u32, K))
            .collect();
        let mut queries = cycle.iter().cycle();
        for query in queries.by_ref().take(2 * cycle.len()) {
            black_box(server.top_k(query, &mut scratch).unwrap());
        }
        let stats_before = server.cache_stats();
        let before = ALLOCATION_COUNT.load(Ordering::Relaxed);
        for query in queries.take(MISSES) {
            black_box(server.top_k(query, &mut scratch).unwrap());
        }
        let allocations = ALLOCATION_COUNT.load(Ordering::Relaxed) - before;
        let stats = server.cache_stats();
        assert_eq!(
            (
                stats.misses - stats_before.misses,
                stats.hits - stats_before.hits,
                stats.evictions - stats_before.evictions,
            ),
            (MISSES as u64, 0, MISSES as u64),
            "every measured query must be a miss that evicts"
        );
        allocations
    };

    // --- Throughput: uncached vs warm cache over the same Zipf stream.
    let secs_uncached = {
        let server = server();
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        best_pass_seconds(samples, || {
            for query in &stream {
                server.top_k_into(query, &mut scratch, &mut out).unwrap();
                black_box(out.len());
            }
        })
    };
    let (secs_warm, hit_rate) = {
        let server = server();
        let mut scratch = QueryScratch::default();
        // One cold pass fills the cache with the stream's hot set.
        for query in &stream {
            black_box(server.top_k(query, &mut scratch).unwrap());
        }
        let stats_before = server.cache_stats();
        let secs = best_pass_seconds(samples, || {
            for query in &stream {
                black_box(server.top_k(query, &mut scratch).unwrap());
            }
        });
        let stats = server.cache_stats();
        let lookups = (stats.hits + stats.misses) - (stats_before.hits + stats_before.misses);
        let hits = stats.hits - stats_before.hits;
        (secs, hits as f64 / lookups as f64)
    };

    // --- The scan mirror at the design point (bit-identity asserted inside).
    let DesignPoint {
        speedup: (mirror_top_k, mirror_rank),
        engine_us: (mirror_top_k_us, mirror_rank_us),
        refined_rows: (refined_top_k, refined_rank),
    } = design_point();

    let qps_uncached = stream.len() as f64 / secs_uncached;
    let qps_warm = stream.len() as f64 / secs_warm;
    let speedup = qps_warm / qps_uncached;
    let min_speedup: f64 = std::env::var("NSC_SERVE_LRU_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);

    println!(
        "serve_throughput TransE d={DIM} |E|={ENTITIES} k={K} zipf(s={ZIPF_S}) \
         {DISTINCT_QUERIES} distinct / {CACHE_CAPACITY} cache slots: \
         uncached {qps_uncached:.0} q/s, warm cache {qps_warm:.0} q/s = {speedup:.1}x \
         (min {min_speedup}x, hit rate {:.1}%); \
         steady-state allocations: uncached {uncached_allocations}, hits {hit_allocations}, \
         {MISSES} misses {miss_allocations} (max {MAX_ALLOCATIONS_PER_MISS} per miss); \
         design point |E|={DESIGN_ENTITIES}: scan mirror top-k {mirror_top_k_us:.0} us = \
         {mirror_top_k:.2}x the exact scan, rank {mirror_rank_us:.0} us = {mirror_rank:.2}x \
         (min {MIN_MIRROR_SPEEDUP}x); rows rescored per top-{K} {refined_top_k:.1}, \
         per rank {refined_rank:.1}",
        hit_rate * 100.0,
    );

    let section = format!(
        "{{\n  \"workload\": {{\n    \"model\": \"TransE\",\n    \"dim\": {DIM},\n    \"num_entities\": {ENTITIES},\n    \"num_relations\": {RELATIONS},\n    \"k\": {K},\n    \"stream\": {},\n    \"distinct_queries\": {DISTINCT_QUERIES},\n    \"zipf_exponent\": {ZIPF_S},\n    \"cache_capacity\": {CACHE_CAPACITY}\n  }},\n  \"queries_per_second\": {{\n    \"uncached_topk\": {qps_uncached:.0},\n    \"warm_cache_topk\": {qps_warm:.0}\n  }},\n  \"warm_hit_rate\": {hit_rate:.4},\n  \"warm_hit_speedup\": {speedup:.2},\n  \"min_required_warm_hit_speedup\": {min_speedup},\n  \"steady_state_allocations\": {{\n    \"uncached_per_512_queries\": {uncached_allocations},\n    \"cache_hit_per_{}_queries\": {hit_allocations},\n    \"miss_per_{MISSES}_queries\": {miss_allocations},\n    \"max_per_miss\": {MAX_ALLOCATIONS_PER_MISS}\n  }},\n  \"design_point\": {{\n    \"model\": \"TransE\",\n    \"dim\": {DIM},\n    \"num_entities\": {DESIGN_ENTITIES},\n    \"num_relations\": {DESIGN_RELATIONS},\n    \"k\": {K},\n    \"engine_top_k_us\": {mirror_top_k_us:.1},\n    \"engine_rank_us\": {mirror_rank_us:.1},\n    \"top_k_speedup_vs_exact_scan\": {mirror_top_k:.2},\n    \"rank_speedup_vs_exact_scan\": {mirror_rank:.2},\n    \"mean_refined_rows_top_k\": {refined_top_k:.1},\n    \"mean_refined_rows_rank\": {refined_rank:.1},\n    \"min_required_speedup\": {MIN_MIRROR_SPEEDUP}\n  }},\n  \"note\": \"warm-hit gate (NSC_SERVE_LRU_MIN) is the read-mostly serving design point: a version-invalidated hot cache absorbing the head of a Zipf stream\"\n}}",
        stream.len(),
        4 * CACHE_CAPACITY / 2,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    if let Err(e) =
        nscaching_bench::update_bench_section(&path, "serve", "serve_throughput", &section)
    {
        eprintln!("could not record BENCH_serve.json at {path:?}: {e}");
    }

    assert_eq!(
        uncached_allocations, 0,
        "steady-state uncached top-k queries must not allocate"
    );
    assert_eq!(
        hit_allocations, 0,
        "steady-state cache hits must not allocate"
    );
    let per_miss = miss_allocations as f64 / MISSES as f64;
    assert!(
        per_miss < MAX_ALLOCATIONS_PER_MISS,
        "a steady-state miss must allocate only its shared answer \
         (got {per_miss:.3} allocations per miss)"
    );
    assert!(
        speedup >= min_speedup,
        "warm-cache top-k must be ≥{min_speedup}x the uncached path on the Zipf stream \
         (got {speedup:.2}x; override with NSC_SERVE_LRU_MIN)"
    );
    for (shape, ratio) in [("top-k", mirror_top_k), ("rank", mirror_rank)] {
        assert!(
            ratio >= MIN_MIRROR_SPEEDUP,
            "design-point {shape} through the scan mirror must be ≥{MIN_MIRROR_SPEEDUP}x \
             the exact f64 scan (median {ratio:.2}x)"
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = assert_serve_throughput, bench_query_paths
}
criterion_main!(benches);
