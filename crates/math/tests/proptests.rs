//! Property-based tests for the numeric substrate.

use nscaching_math::*;
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3f64, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn softmax_is_a_probability_distribution(xs in prop::collection::vec(-50.0f64..50.0, 1..64)) {
        let p = softmax(&xs);
        prop_assert_eq!(p.len(), xs.len());
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|v| *v >= 0.0 && *v <= 1.0));
    }

    #[test]
    fn log_sum_exp_bounds(xs in prop::collection::vec(-50.0f64..50.0, 1..64)) {
        let lse = log_sum_exp(&xs);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lse >= max - 1e-9);
        prop_assert!(lse <= max + (xs.len() as f64).ln() + 1e-9);
    }

    #[test]
    fn l2_norm_triangle_inequality(x in finite_vec(16), y in finite_vec(16)) {
        let s = add(&x, &y);
        prop_assert!(l2_norm(&s) <= l2_norm(&x) + l2_norm(&y) + 1e-9);
    }

    #[test]
    fn dot_is_commutative(x in finite_vec(8), y in finite_vec(8)) {
        prop_assert!((dot(&x, &y) - dot(&y, &x)).abs() < 1e-9);
    }

    #[test]
    fn normalize_gives_unit_norm(mut x in finite_vec(12)) {
        // ensure not all zeros
        x[0] += 1.0;
        normalize_l2(&mut x);
        prop_assert!((l2_norm(&x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_sampling_yields_distinct(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = seeded_rng(seed);
        let picks = sample_distinct_uniform(&mut rng, n, k);
        prop_assert_eq!(picks.len(), k);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(picks.iter().all(|p| *p < n));
    }

    #[test]
    fn weighted_without_replacement_is_distinct_and_in_range(
        seed in any::<u64>(),
        logits in prop::collection::vec(-30.0f64..30.0, 1..40),
        k in 0usize..60,
    ) {
        let mut rng = seeded_rng(seed);
        let (mut keys, mut picks) = (Vec::new(), Vec::new());
        gumbel_top_k_into(&mut rng, &logits, k, &mut keys, &mut picks);
        prop_assert_eq!(picks.len(), k.min(logits.len()));
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), picks.len());
        prop_assert!(picks.iter().all(|p| *p < logits.len()));
    }

    #[test]
    fn ccdf_is_bounded_and_monotone(samples in prop::collection::vec(-100.0f64..100.0, 1..200)) {
        let c = Ccdf::from_samples(&samples);
        let grid = c.default_grid(32);
        let vals = c.evaluate(&grid);
        for w in vals.windows(2) {
            prop_assert!(w[0].1 >= w[1].1 - 1e-12);
        }
        for (_, p) in vals {
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn top_k_returns_the_largest(xs in prop::collection::vec(-100.0f64..100.0, 1..64), k in 1usize..64) {
        let idx = top_k_indices(&xs, k);
        let k = k.min(xs.len());
        prop_assert_eq!(idx.len(), k);
        // every returned element must be >= every non-returned element
        let chosen: Vec<f64> = idx.iter().map(|&i| xs[i]).collect();
        let min_chosen = chosen.iter().cloned().fold(f64::INFINITY, f64::min);
        for (i, &x) in xs.iter().enumerate() {
            if !idx.contains(&i) {
                prop_assert!(x <= min_chosen + 1e-12);
            }
        }
    }

    // ---- 8-lane kernel equivalence vs the scalar reference -----------------
    //
    // The unrolled kernels reassociate the reduction (16 accumulator lanes
    // folded in ascending order, then a sequential tail); on embedding-scale
    // operands they must agree with the naive left-to-right scalar loop to
    // 1e-12. Lengths 0..96 cover every chunking path: empty, sub-block,
    // exact blocks and remainders.

    #[test]
    fn dot_matches_the_scalar_reference(
        pairs in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..96),
    ) {
        let (x, y): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let reference: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert!((dot(&x, &y) - reference).abs() <= 1e-12);
    }

    #[test]
    fn l1_distance_matches_the_scalar_reference(
        pairs in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..96),
    ) {
        let (x, y): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let reference: f64 = x.iter().zip(&y).map(|(a, b)| (a - b).abs()).sum();
        prop_assert!((l1_distance(&x, &y) - reference).abs() <= 1e-12);
    }

    #[test]
    fn l1_sum_matches_the_scalar_reference(
        pairs in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..96),
    ) {
        let (x, y): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let reference: f64 = x.iter().zip(&y).map(|(a, b)| (a + b).abs()).sum();
        prop_assert!((l1_sum(&x, &y) - reference).abs() <= 1e-12);
    }

    #[test]
    fn l1_combine_matches_the_scalar_reference(
        triples in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 0..96),
        head_side in any::<bool>(),
        c in -2.0f64..2.0,
    ) {
        let sign = if head_side { 1.0 } else { -1.0 };
        let mut q = Vec::new();
        let mut e = Vec::new();
        let mut w = Vec::new();
        for (a, b, ww) in triples {
            q.push(a);
            e.push(b);
            w.push(ww);
        }
        let reference: f64 = (0..q.len())
            .map(|i| (q[i] + sign * e[i] + c * w[i]).abs())
            .sum();
        prop_assert!((l1_combine(&q, &e, &w, sign, c) - reference).abs() <= 1e-12);
    }
}

/// Floyd's algorithm as first written: each membership test scans the picks
/// so far, `O(k²)` per call.
fn floyd_with_contains(rng: &mut rand::rngs::StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rand::Rng::gen_range(rng, 0..=j);
        out.push(if out.contains(&t) { j } else { t });
    }
    out
}

#[test]
fn distinct_sampling_matches_the_scanning_floyd_for_every_small_n_and_k() {
    // One bitset serves every call, as in a sampler's scratch, so a call that
    // left a bit set would corrupt the calls after it.
    let (mut seen, mut out) = (Vec::new(), Vec::new());
    for n in 0..=300usize {
        for k in 0..=n {
            let seed = ((n as u64) << 32) | k as u64;
            let (mut rng, mut twin) = (seeded_rng(seed), seeded_rng(seed));
            sample_distinct_uniform_into(&mut rng, n, k, &mut seen, &mut out);
            assert_eq!(
                out,
                floyd_with_contains(&mut twin, n, k),
                "n = {n}, k = {k}"
            );
            assert_eq!(rng_state(&rng), rng_state(&twin), "n = {n}, k = {k}");
        }
    }
}
