//! Criterion bench: the serve-path top-k selection kernel — one bounded pass
//! (a buffer of at most `max(2k, k + 32)` indices, a branch-free threshold
//! count per 16 scores, `select_nth_unstable_by` whenever the buffer fills,
//! then a k-prefix sort) against the retained full-sort oracle.
//!
//! Run with `cargo bench -p nscaching-bench --bench topk_select`.
//!
//! This is the cache-*miss* half of the serving latency story: every miss
//! pays one `score_all_into` scan plus one top-k selection over all |E|
//! candidate scores. The oracle sorts the full index range — O(|E| log |E|)
//! for k ≪ |E|; the bounded pass is O(|E| + k log k) and **bit-identical**
//! (same indices, same order; the comparator is a strict total order,
//! proven by `crates/math/tests/topk_equivalence.rs`).
//!
//! Records into the `topk_miss_path` section of `BENCH_serve.json`:
//!
//! * a (|E|, k) sweep of bounded-pass-vs-sort wall-clock ratios over
//!   uniform random scores, with the time per call of each;
//! * an ungated strictly ascending row at the design point: the input on
//!   which every score enters the buffer, the kernel's worst case;
//! * the gated headline (`NSC_TOPK_MIN`, ≥ 3× locally at the serving design
//!   point |E| = 20 000, k = 10; CI relaxes it on shared runners like the
//!   other bench gates).
//!
//! Every measured pass also re-asserts bit-identical outputs on the bench's
//! own inputs — the speed claim and the equivalence claim ride the same data.

use criterion::{criterion_group, criterion_main, Criterion};
use nscaching_math::{top_k_indices_into, top_k_indices_sort_into};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// The serving design point: |E| entities scored per miss, k answers kept.
const HEADLINE_N: usize = 20_000;
const HEADLINE_K: usize = 10;
/// Sweep grid recorded alongside the headline.
const SWEEP: [(usize, usize); 6] = [
    (2_000, 10),
    (20_000, 1),
    (20_000, 10),
    (20_000, 100),
    (200_000, 10),
    (20_000, 19_999),
];

fn scores(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen::<f64>()).collect()
}

/// Strictly ascending scores: every score beats the running threshold.
fn ascending(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64).collect()
}

/// Seconds per call of the bounded pass and of the full sort on one input.
struct Timing {
    select_s: f64,
    sort_s: f64,
}

impl Timing {
    fn speedup(&self) -> f64 {
        self.sort_s / self.select_s
    }

    fn row(&self, n: usize, k: usize, order: &str) -> String {
        format!(
            "    {{ \"num_candidates\": {n}, \"k\": {k}, \"order\": \"{order}\", \"select_us\": {:.2}, \"sort_us\": {:.2}, \"select_over_sort_speedup\": {:.2} }}",
            self.select_s * 1e6,
            self.sort_s * 1e6,
            self.speedup()
        )
    }
}

/// Best-of-`samples` seconds for `passes` kernel invocations.
fn best_seconds(samples: usize, passes: usize, mut call: impl FnMut()) -> f64 {
    call(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..passes {
            call();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Time the bounded pass and the full sort on `xs` at `k`, asserting
/// bit-identical output first.
fn time_at(xs: &[f64], k: usize, samples: usize) -> Timing {
    let n = xs.len();
    let mut select = Vec::new();
    let mut sort = Vec::new();
    top_k_indices_into(xs, k, &mut select);
    top_k_indices_sort_into(xs, k, &mut sort);
    assert_eq!(
        select, sort,
        "the bounded pass must be bit-identical to the sort oracle at n={n} k={k}"
    );
    // Scale pass counts so every measurement covers comparable work.
    let passes = (2_000_000 / n).max(1);
    let select_s = best_seconds(samples, passes, || {
        top_k_indices_into(black_box(xs), black_box(k), &mut select);
        black_box(select.len());
    });
    let sort_s = best_seconds(samples, passes, || {
        top_k_indices_sort_into(black_box(xs), black_box(k), &mut sort);
        black_box(sort.len());
    });
    Timing {
        select_s: select_s / passes as f64,
        sort_s: sort_s / passes as f64,
    }
}

fn bench_kernels(c: &mut Criterion) {
    let xs = scores(HEADLINE_N, 42);
    let mut out = Vec::new();
    let mut group = c.benchmark_group("topk_select");
    group.sample_size(20);
    group.bench_function("bounded_select_20k_k10", |b| {
        b.iter(|| {
            top_k_indices_into(black_box(&xs), black_box(HEADLINE_K), &mut out);
            black_box(out.len());
        })
    });
    group.bench_function("full_sort_20k_k10", |b| {
        b.iter(|| {
            top_k_indices_sort_into(black_box(&xs), black_box(HEADLINE_K), &mut out);
            black_box(out.len());
        })
    });
    group.finish();
}

/// Acceptance gate: the bounded pass ≥ `NSC_TOPK_MIN`× the full sort at the
/// serving design point. Records `BENCH_serve.json`.
fn assert_topk_select(_c: &mut Criterion) {
    let samples = 5;
    let sweep: Vec<(usize, usize, Timing)> = SWEEP
        .iter()
        .map(|&(n, k)| {
            let xs = scores(n, 7 + n as u64 + k as u64);
            (n, k, time_at(&xs, k, samples))
        })
        .collect();
    let headline = sweep
        .iter()
        .find(|&&(n, k, _)| n == HEADLINE_N && k == HEADLINE_K)
        .map(|(_, _, t)| t.speedup())
        .expect("headline point is in the sweep");
    let worst = time_at(&ascending(HEADLINE_N), HEADLINE_K, samples);
    let min_speedup: f64 = std::env::var("NSC_TOPK_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);

    let mut rows = Vec::new();
    for (n, k, t) in &sweep {
        rows.push(t.row(*n, *k, "random"));
        println!(
            "topk_select n={n} k={k}: bounded pass {:.2} us, sort {:.2} us, {:.2}x",
            t.select_s * 1e6,
            t.sort_s * 1e6,
            t.speedup()
        );
    }
    println!(
        "topk_select n={HEADLINE_N} k={HEADLINE_K} ascending (ungated): bounded pass {:.2} us, \
         sort {:.2} us, {:.2}x",
        worst.select_s * 1e6,
        worst.sort_s * 1e6,
        worst.speedup()
    );
    let rows = rows.join(",\n");
    let worst = worst.row(HEADLINE_N, HEADLINE_K, "ascending");
    let worst = worst.trim_start();
    println!(
        "topk_select headline |E|={HEADLINE_N} k={HEADLINE_K}: {headline:.2}x (min {min_speedup}x)"
    );

    let section = format!(
        "{{\n  \"kernel\": \"bounded one-pass top-k (buffer of max(2k, k + 32) indices, branch-free threshold count per 16 scores, select_nth_unstable_by when full, k-prefix sort) vs full sort_unstable_by\",\n  \"sweep\": [\n{rows}\n  ],\n  \"worst_case_ungated\": {worst},\n  \"headline\": {{\n    \"num_candidates\": {HEADLINE_N},\n    \"k\": {HEADLINE_K},\n    \"select_over_sort_speedup\": {headline:.2},\n    \"min_required_speedup\": {min_speedup}\n  }},\n  \"note\": \"cache-miss half of the serve-path latency campaign: every top-k miss pays one selection over all |E| scores; outputs are asserted bit-identical to the retained sort oracle on the bench inputs, and proptested against it in crates/math/tests/topk_equivalence.rs. Gate NSC_TOPK_MIN (relaxed in CI; k ~ |E| rows are expected near 1x — there is nothing to skip). The ascending row is the worst case, every score entering the buffer: slower than the sort, still linear, and not gated\"\n}}"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    if let Err(e) =
        nscaching_bench::update_bench_section(&path, "serve", "topk_miss_path", &section)
    {
        eprintln!("could not record BENCH_serve.json at {path:?}: {e}");
    }

    assert!(
        headline >= min_speedup,
        "the bounded pass must be ≥{min_speedup}x the full sort at |E|={HEADLINE_N} k={HEADLINE_K} \
         (got {headline:.2}x; override with NSC_TOPK_MIN)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = assert_topk_select, bench_kernels
}
criterion_main!(benches);
