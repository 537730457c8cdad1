//! Criterion bench: the per-relation candidate index on the top-k miss path
//! — scoring only a relation's observed candidate set against the
//! full-vocabulary streaming scan it replaces.
//!
//! Run with `cargo bench -p nscaching-bench --bench candidate_index`.
//!
//! A cold top-k query without an index pays one fused scoring pass over all
//! |E| entities. Real knowledge graphs are typed: most relations are only
//! ever observed with a small slice of the vocabulary, and a bound
//! [`CandidateIndex`] shrinks the miss-path scan to that slice. This bench
//! builds the serving design point — |E| = 20 000, k = 10, as in
//! `topk_select` — over a **skewed relation profile** (candidate-set sizes
//! falling harmonically from |E|/2 down to a few hundred, the shape typed
//! schemas actually produce) and measures the same `top_k_into` miss path
//! with and without the index bound. The served model is TransE, so both
//! paths run the scan mirror's two passes: the full scan over the grid's
//! 32-row blocks, the indexed path over the candidates' row-major grid rows
//! (see `crates/serve/src/mirror.rs`).
//!
//! Records into the `candidate_index` section of `BENCH_serve.json`:
//!
//! * the gated headline (`NSC_INDEX_MISS_MIN`, ≥ 2× locally; CI relaxes it
//!   on shared runners like the other bench gates);
//! * the index's mean coverage and memory proxy, so the speedup can be read
//!   against the scan shrinkage that bought it.
//!
//! Every run first re-proves **bit-identity** on its own inputs: for a
//! verification slice of queries, the indexed answer must equal the
//! full-|E| ranking filtered to the candidate set — same entities, same
//! order, bit-equal scores. (Binding an index changes the *answer set* by
//! design — see `crates/serve/src/candidates.rs` — but the ranking within
//! the candidate set must match the full-scan oracle exactly.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nscaching_kg::{CorruptionSide, Triple};
use nscaching_models::{build_model, ModelConfig, ModelKind};
use nscaching_serve::{CandidateIndex, KnowledgeServer, QueryScratch, RankedEntity, TopKQuery};
use std::hint::black_box;
use std::time::Instant;

/// The serving design point, shared with `topk_select`.
const NUM_ENTITIES: usize = 20_000;
const NUM_RELATIONS: usize = 64;
const K: u32 = 10;
/// Timed query mix (round-robin over relations and directions).
const NUM_QUERIES: usize = 256;
/// Queries re-proved bit-identical against the full-scan oracle.
const NUM_VERIFIED: usize = 16;

/// Skewed per-relation candidate-set size: |E|/2 for relation 0 falling
/// harmonically to ~300 for relation 63 — mean coverage ≈ 6% of the
/// vocabulary, the shrinkage a typed schema buys.
fn profile_size(relation: usize) -> usize {
    (NUM_ENTITIES / (relation + 2)).max(16)
}

/// Observed triples realising the skewed profile. The multipliers are
/// primes coprime to |E|, so each relation's `profile_size` tails (and
/// heads) are distinct entities scattered over the vocabulary.
fn observed_triples() -> Vec<Triple> {
    let mut triples = Vec::new();
    for r in 0..NUM_RELATIONS {
        for j in 0..profile_size(r) {
            let head = ((j * 104_729 + 3 * r) % NUM_ENTITIES) as u32;
            let tail = ((j * 7_919 + 13 * r) % NUM_ENTITIES) as u32;
            triples.push(Triple::new(head, r as u32, tail));
        }
    }
    triples
}

fn server() -> KnowledgeServer {
    let model = build_model(
        &ModelConfig::new(ModelKind::TransE)
            .with_dim(64)
            .with_seed(5),
        NUM_ENTITIES,
        NUM_RELATIONS,
    );
    KnowledgeServer::new(model, 8)
}

fn query(i: usize, k: u32) -> TopKQuery {
    TopKQuery {
        relation: (i % NUM_RELATIONS) as u32,
        entity: ((i * 97) % NUM_ENTITIES) as u32,
        direction: if i.is_multiple_of(2) {
            CorruptionSide::Tail
        } else {
            CorruptionSide::Head
        },
        k,
    }
}

/// Best-of-N seconds for one pass over the timed query mix on the
/// cache-free miss path.
fn mix_seconds(server: &KnowledgeServer, samples: usize) -> f64 {
    let mut scratch = QueryScratch::default();
    let mut out = Vec::new();
    let mut pass = || {
        for i in 0..NUM_QUERIES {
            server
                .top_k_into(&query(i, K), &mut scratch, &mut out)
                .expect("bench queries are in range");
            black_box(out.len());
        }
    };
    pass(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        pass();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The full-scan oracle: rank the whole vocabulary, keep the candidates.
/// Filtering a globally tie-broken ranking preserves the lower-entity-id
/// tie break within the candidate set, so this must match the indexed
/// answer bit for bit.
fn filtered_oracle(full: &[RankedEntity], candidates: &[u32], k: usize) -> Vec<RankedEntity> {
    full.iter()
        .filter(|r| candidates.binary_search(&r.entity).is_ok())
        .take(k)
        .cloned()
        .collect()
}

fn assert_bit_identical(
    index: &CandidateIndex,
    plain: &KnowledgeServer,
    indexed: &KnowledgeServer,
) {
    let mut scratch = QueryScratch::default();
    let mut full = Vec::new();
    let mut got = Vec::new();
    for i in 0..NUM_VERIFIED {
        let q = query(i * 7 + 1, K);
        let candidates = index.candidates(q.relation, q.direction);
        plain
            .top_k_into(
                &TopKQuery {
                    k: NUM_ENTITIES as u32,
                    ..q
                },
                &mut scratch,
                &mut full,
            )
            .expect("oracle query in range");
        indexed
            .top_k_into(&q, &mut scratch, &mut got)
            .expect("indexed query in range");
        let want = filtered_oracle(&full, candidates, K as usize);
        assert_eq!(
            got.len(),
            want.len(),
            "indexed answer length diverged from the filtered oracle on {q:?}"
        );
        for (g, w) in got.iter().zip(&want) {
            assert!(
                g.entity == w.entity && g.score.to_bits() == w.score.to_bits(),
                "indexed miss path must be bit-identical to the full-scan oracle \
                 restricted to the candidate set: {q:?} gave ({}, {}), oracle ({}, {})",
                g.entity,
                g.score,
                w.entity,
                w.score,
            );
        }
    }
}

fn bench_miss_path(c: &mut Criterion) {
    let plain = server();
    let indexed = server();
    indexed.bind_candidate_index(CandidateIndex::build(&observed_triples(), NUM_RELATIONS));
    let mut group = c.benchmark_group("candidate_index");
    group.sample_size(10);
    for (label, srv) in [("full_scan", &plain), ("indexed", &indexed)] {
        let mut scratch = QueryScratch::default();
        let mut out = Vec::new();
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mut i = 0usize;
            b.iter(|| {
                srv.top_k_into(&query(i, K), &mut scratch, &mut out)
                    .expect("bench queries are in range");
                i += 1;
                black_box(out.len());
            })
        });
    }
    group.finish();
}

/// Acceptance gate: the indexed miss path ≥ `NSC_INDEX_MISS_MIN`× the
/// full-|E| scan at |E| = 20 000, k = 10, bit-identical to the full-scan
/// oracle. Records `BENCH_serve.json`.
fn assert_candidate_index(_c: &mut Criterion) {
    let index = CandidateIndex::build(&observed_triples(), NUM_RELATIONS);
    let coverage = index.mean_coverage(NUM_ENTITIES);
    let entries = index.total_entries();

    let plain = server();
    let indexed = server();
    indexed.bind_candidate_index(index.clone());
    assert_bit_identical(&index, &plain, &indexed);

    let samples = 5;
    let secs_full = mix_seconds(&plain, samples);
    let secs_indexed = mix_seconds(&indexed, samples);
    let speedup = secs_full / secs_indexed;

    let min_speedup: f64 = std::env::var("NSC_INDEX_MISS_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);

    println!(
        "candidate_index TransE d=64 |E|={NUM_ENTITIES} k={K} ({NUM_RELATIONS} relations, \
         mean coverage {:.1}%, {entries} entries): full scan {:.2} ms/mix, \
         indexed {:.2} ms/mix — {speedup:.2}x (min {min_speedup}x), bit-identical",
        coverage * 100.0,
        secs_full * 1e3,
        secs_indexed * 1e3,
    );

    let section = format!(
        "{{\n  \"workload\": {{\n    \"model\": \"TransE\",\n    \"dim\": 64,\n    \"num_entities\": {NUM_ENTITIES},\n    \"num_relations\": {NUM_RELATIONS},\n    \"k\": {K},\n    \"queries_per_mix\": {NUM_QUERIES},\n    \"profile\": \"harmonic: |candidates(r)| = max(|E|/(r+2), 16)\"\n  }},\n  \"index\": {{\n    \"mean_coverage\": {coverage:.4},\n    \"total_entries\": {entries}\n  }},\n  \"mix_seconds\": {{\n    \"full_scan\": {secs_full:.6},\n    \"indexed\": {secs_indexed:.6}\n  }},\n  \"indexed_over_full_scan_speedup\": {speedup:.2},\n  \"min_required_speedup\": {min_speedup},\n  \"bit_identical_to_filtered_oracle\": true,\n  \"note\": \"cache-miss path with a bound per-relation CandidateIndex vs the full-|E| streaming scan, at the same |E|=20k k=10 design point as topk_miss_path, over a skewed (harmonic) candidate-set profile. Indexed answers are asserted bit-identical to the full-vocabulary ranking filtered to the candidate set before anything is timed — binding an index changes the answer SET by design (see crates/serve/src/candidates.rs), never the ranking within it. Gate NSC_INDEX_MISS_MIN (relaxed in CI)\"\n}}"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    if let Err(e) =
        nscaching_bench::update_bench_section(&path, "serve", "candidate_index", &section)
    {
        eprintln!("could not record BENCH_serve.json at {path:?}: {e}");
    }

    assert!(
        speedup >= min_speedup,
        "indexed top-k miss path must be ≥{min_speedup}x the full-|E| scan at \
         |E|={NUM_ENTITIES} k={K} (got {speedup:.2}x; override with NSC_INDEX_MISS_MIN)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = assert_candidate_index, bench_miss_path
}
criterion_main!(benches);
