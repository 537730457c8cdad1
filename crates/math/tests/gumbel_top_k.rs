//! Statistical equivalence of [`gumbel_top_k_into`] with exact sequential
//! sampling without replacement ∝ `exp(logit)` (Equation (6) of the paper).
//!
//! For each fixed logit vector the exact probability of every k-subset is
//! computed by enumerating the ordered draws of the sequential sampler. The
//! kernel's subset frequencies over [`DRAWS`] draws at the fixed [`SEED`] are
//! then checked with a χ² test at p = 0.001. The exact sequential sampler the
//! cache refresh used before (one renormalised draw per pick, `O(k·n)`) lives
//! on here as the oracle, and runs through the same harness as a check on
//! the harness itself.
//!
//! The kernel computes its Gumbel noise with a vectorised polynomial `ln`
//! instead of libm's. The first version of the kernel, which used libm, lives
//! on here too, as [`libm_noise_kernel_into`]: on seeded refreshes shaped like
//! the cache's, the kernel must keep the same indices in the same order and
//! leave the RNG in the same state, so training trajectories stay identical.

use nscaching_math::{gumbel_top_k_into, rng_state, seeded_rng};
use proptest::prelude::*;
use rand::{Rng, RngCore};

/// Seed of every statistical case, fixed before the test was first run.
const SEED: u64 = 0x1CDE_2019;
/// Draws per case.
const DRAWS: usize = 200_000;

/// Sampling weight of each index under `exp(logit)`: shifted by the maximum,
/// zero for NaN and −∞, and uniform when the maximum is not finite.
fn weights(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return vec![1.0; logits.len()];
    }
    logits
        .iter()
        .map(|&x| {
            let w = (x - max).exp();
            if w.is_nan() {
                0.0
            } else {
                w
            }
        })
        .collect()
}

/// The exact sequential sampler: repeatedly draw from the renormalised
/// remaining weights and remove the winner; once only zero weights remain,
/// fill uniformly from the indices not yet picked. `O(k·n)`.
fn exact_sequential_into<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &mut [f64],
    k: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    let k = k.min(weights.len());
    for w in weights.iter_mut() {
        if !w.is_finite() || *w <= 0.0 {
            *w = 0.0;
        }
    }
    // Picked entries are flagged with -1 so "remaining" = non-negative.
    const PICKED: f64 = -1.0;
    for _ in 0..k {
        let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
        let idx = if total > 0.0 {
            let mut u = rng.gen_range(0.0..total);
            let mut chosen = None;
            for (i, &w) in weights.iter().enumerate() {
                if w > 0.0 {
                    if u < w {
                        chosen = Some(i);
                        break;
                    }
                    u -= w;
                }
            }
            // Floating-point slack: fall back to the last positive weight.
            chosen.unwrap_or_else(|| {
                weights
                    .iter()
                    .rposition(|w| *w > 0.0)
                    .expect("total > 0 implies a positive weight")
            })
        } else {
            let remaining = weights.iter().filter(|w| **w >= 0.0).count();
            let target = rng.gen_range(0..remaining);
            weights
                .iter()
                .enumerate()
                .filter(|(_, w)| **w >= 0.0)
                .nth(target)
                .map(|(i, _)| i)
                .expect("remaining count matches filter")
        };
        weights[idx] = PICKED;
        out.push(idx);
    }
}

/// The Gumbel-top-k kernel as it was first written, with `f64::ln` noise:
/// key `i` is `(logit_i − max) − ln(−ln u_i)`, one `u64` draw per logit in
/// index order, NaN keys as −∞, one `select_nth_unstable_by`.
fn libm_noise_kernel_into<R: Rng + ?Sized>(
    rng: &mut R,
    logits: &[f64],
    k: usize,
    keys: &mut Vec<(f64, usize)>,
    out: &mut Vec<usize>,
) {
    const CELL: f64 = 1.0 / (1u64 << 52) as f64;
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let shift = max.is_finite().then_some(max);
    keys.clear();
    keys.extend(logits.iter().enumerate().map(|(i, &logit)| {
        let u = ((rng.next_u64() >> 12) as f64 + 0.5) * CELL;
        let noise = -(-u.ln()).ln();
        let key = match shift {
            Some(max) => (logit - max) + noise,
            None => noise,
        };
        (if key.is_nan() { f64::NEG_INFINITY } else { key }, i)
    }));
    let k = k.min(keys.len());
    if k > 0 && k < keys.len() {
        keys.select_nth_unstable_by(k - 1, |a, b| b.0.total_cmp(&a.0));
    }
    out.clear();
    out.extend(keys[..k].iter().map(|&(_, i)| i));
}

/// Exact probability of every k-subset (indexed by its bitmask), from the
/// ordered draws of [`exact_sequential_into`].
fn subset_probabilities(logits: &[f64], k: usize) -> Vec<f64> {
    fn walk(w: &[f64], left: usize, picked: usize, p: f64, probs: &mut [f64]) {
        if left == 0 {
            probs[picked] += p;
            return;
        }
        let remaining: Vec<usize> = (0..w.len()).filter(|i| picked & (1 << i) == 0).collect();
        let total: f64 = remaining.iter().map(|&i| w[i]).sum();
        for &i in &remaining {
            let step = if total > 0.0 {
                w[i] / total
            } else {
                1.0 / remaining.len() as f64
            };
            if step > 0.0 {
                walk(w, left - 1, picked | (1 << i), p * step, probs);
            }
        }
    }
    let mut probs = vec![0.0; 1 << logits.len()];
    walk(&weights(logits), k, 0, 1.0, &mut probs);
    probs
}

/// Upper 0.001 quantile of the χ² distribution at `df` degrees of freedom
/// (standard table values).
fn chi2_critical(df: usize) -> f64 {
    const TABLE: [f64; 20] = [
        10.828, 13.816, 16.266, 18.467, 20.515, 22.458, 24.322, 26.124, 27.877, 29.588, 31.264,
        32.909, 34.528, 36.123, 37.697, 39.252, 40.790, 42.312, 43.820, 45.315,
    ];
    TABLE[df - 1]
}

/// χ² statistic and degrees of freedom of [`DRAWS`] k-subsets from `sample`
/// against the exact subset probabilities. Cells expected fewer than 5 times
/// are pooled into one; a subset of probability zero must never be drawn.
fn chi2_against_exact(
    logits: &[f64],
    k: usize,
    mut sample: impl FnMut(&mut Vec<usize>),
) -> (f64, usize) {
    let probs = subset_probabilities(logits, k);
    let mut counts = vec![0usize; probs.len()];
    let mut out = Vec::new();
    for _ in 0..DRAWS {
        sample(&mut out);
        assert_eq!(out.len(), k, "logits {logits:?}");
        let mask = out.iter().fold(0usize, |m, &i| m | (1 << i));
        assert_eq!(mask.count_ones() as usize, k, "repeated index in {out:?}");
        counts[mask] += 1;
    }
    let (mut chi2, mut cells) = (0.0, 0);
    let (mut pooled_observed, mut pooled_expected) = (0.0, 0.0);
    for (mask, (&p, &observed)) in probs.iter().zip(&counts).enumerate() {
        let expected = p * DRAWS as f64;
        if p == 0.0 {
            assert_eq!(observed, 0, "subset {mask:b} has probability 0");
        } else if expected < 5.0 {
            pooled_observed += observed as f64;
            pooled_expected += expected;
        } else {
            chi2 += (observed as f64 - expected).powi(2) / expected;
            cells += 1;
        }
    }
    if pooled_expected > 0.0 {
        chi2 += (pooled_observed - pooled_expected).powi(2) / pooled_expected;
        cells += 1;
    }
    (chi2, cells - 1)
}

/// The fixed cases: (name, logits, k).
fn cases() -> Vec<(&'static str, Vec<f64>, usize)> {
    let inf = f64::NEG_INFINITY;
    vec![
        ("distinct", vec![0.3, -1.2, 2.0, 0.9, -0.4, 1.5], 3),
        ("all equal", vec![1.7; 6], 3),
        ("spread of 20", vec![-12.0, -7.0, -3.0, 0.0, 4.0, 8.0], 3),
        ("with -inf", vec![0.5, inf, 1.0, -0.5, 2.0, inf], 3),
        ("with NaN", vec![f64::NAN, 0.2, 1.1, -0.7, f64::NAN, 0.0], 2),
        ("all -inf", vec![inf; 5], 2),
    ]
}

#[test]
fn kernel_subsets_match_exact_sequential_sampling() {
    for (name, logits, k) in cases() {
        let mut rng = seeded_rng(SEED);
        let mut keys = Vec::new();
        let (chi2, df) = chi2_against_exact(&logits, k, |out| {
            gumbel_top_k_into(&mut rng, &logits, k, &mut keys, out)
        });
        let critical = chi2_critical(df);
        println!("gumbel_top_k {name}: χ² {chi2:.2} at df {df} (critical {critical:.2})");
        assert!(
            chi2 < critical,
            "{name}: χ² {chi2:.2} ≥ {critical:.2} at df {df}"
        );
    }
}

#[test]
fn exact_oracle_passes_its_own_harness() {
    for (name, logits, k) in cases() {
        let mut rng = seeded_rng(SEED);
        let mut scratch = Vec::new();
        let (chi2, df) = chi2_against_exact(&logits, k, |out| {
            scratch.clear();
            scratch.extend(weights(&logits));
            exact_sequential_into(&mut rng, &mut scratch, k, out)
        });
        let critical = chi2_critical(df);
        println!("exact oracle {name}: χ² {chi2:.2} at df {df} (critical {critical:.2})");
        assert!(
            chi2 < critical,
            "{name}: χ² {chi2:.2} ≥ {critical:.2} at df {df}"
        );
    }
}

#[test]
fn harness_rejects_a_sampler_that_ignores_the_logits() {
    // Equal keys make the kernel draw uniform subsets, which the distinct
    // case's exact probabilities must reject.
    let (_, logits, k) = cases().swap_remove(0);
    let mut rng = seeded_rng(SEED);
    let mut keys = Vec::new();
    let (chi2, df) = chi2_against_exact(&logits, k, |out| {
        gumbel_top_k_into(&mut rng, &[0.0; 6], k, &mut keys, out)
    });
    assert!(chi2 > chi2_critical(df), "χ² {chi2:.2} at df {df}");
}

#[test]
fn k_zero_returns_nothing() {
    let mut rng = seeded_rng(1);
    let (mut keys, mut out) = (Vec::new(), vec![7]);
    gumbel_top_k_into(&mut rng, &[0.1, 0.2, 0.3], 0, &mut keys, &mut out);
    assert!(out.is_empty());
    gumbel_top_k_into(&mut rng, &[], 3, &mut keys, &mut out);
    assert!(out.is_empty());
}

#[test]
fn k_at_least_n_returns_every_index_once() {
    let mut rng = seeded_rng(2);
    let logits = [0.5, f64::NAN, -3.0, f64::NEG_INFINITY, 9.0];
    let (mut keys, mut out) = (Vec::new(), Vec::new());
    for k in [5, 6, 100] {
        gumbel_top_k_into(&mut rng, &logits, k, &mut keys, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2, 3, 4], "k = {k}");
    }
}

#[test]
fn same_seed_gives_the_same_picks_and_rng_state() {
    let logits: Vec<f64> = (0..100).map(|i| ((i * 37) % 11) as f64 * 0.3).collect();
    let run = || {
        let mut rng = seeded_rng(SEED);
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        gumbel_top_k_into(&mut rng, &logits, 50, &mut keys, &mut out);
        (out, rng_state(&rng))
    };
    assert_eq!(run(), run());
}

/// Runs `refreshes` calls of the kernel and of the libm-noise oracle on twin
/// RNG streams, with `n` logits spread over `[0, spread)` and the spread
/// log-uniform in `[0.1, 20]`. Asserts the same kept indices, in the same
/// order, and the same RNG state after every call; returns how many keys
/// differed in their bits, out of how many.
fn assert_kernel_matches_libm_noise(
    seed: u64,
    refreshes: usize,
    n: usize,
    k: usize,
) -> (usize, usize) {
    let mut inputs = seeded_rng(seed ^ 0x5EED);
    let (mut rng, mut twin) = (seeded_rng(seed), seeded_rng(seed));
    let (mut keys, mut out) = (Vec::new(), Vec::new());
    let (mut oracle_keys, mut oracle_out) = (Vec::new(), Vec::new());
    let (mut logits, mut key_of) = (vec![0.0; n], vec![0.0; n]);
    let mut differing = 0;
    for refresh in 0..refreshes {
        let spread = 0.1 * 200f64.powf(inputs.gen::<f64>());
        logits
            .iter_mut()
            .for_each(|x| *x = spread * inputs.gen::<f64>());
        gumbel_top_k_into(&mut rng, &logits, k, &mut keys, &mut out);
        libm_noise_kernel_into(&mut twin, &logits, k, &mut oracle_keys, &mut oracle_out);
        assert_eq!(out, oracle_out, "refresh {refresh}, spread {spread}");
        assert_eq!(rng_state(&rng), rng_state(&twin), "refresh {refresh}");
        keys.iter().for_each(|&(key, i)| key_of[i] = key);
        differing += oracle_keys
            .iter()
            .filter(|&&(key, i)| key.to_bits() != key_of[i].to_bits())
            .count();
    }
    (differing, refreshes * n)
}

#[test]
fn kernel_keeps_what_the_libm_noise_kernel_keeps_on_cache_sized_refreshes() {
    // The NSCaching refresh at the paper's N1 = N2 = 50.
    let (differing, keys) = assert_kernel_matches_libm_noise(SEED, 100_000, 100, 50);
    println!("{differing} of {keys} keys differ from the libm-noise keys in their bits");
    assert!(differing > 0, "the noise is not computed with libm's ln");
}

#[test]
fn kernel_keeps_what_the_libm_noise_kernel_keeps_across_chunk_boundaries() {
    for n in [1, 2, 63, 64, 65, 127, 128, 129, 300] {
        for k in [0, 1, n / 2, n - 1, n] {
            assert_kernel_matches_libm_noise(SEED ^ ((n as u64) << 16) ^ k as u64, 200, n, k);
        }
    }
}

#[test]
fn kernel_draws_noise_in_index_order() {
    // Equal logits make each key the noise alone; keep k = 0 so the keys stay
    // in index order. Each key must be the noise of the index's own draw.
    let mut rng = seeded_rng(3);
    let mut twin = seeded_rng(3);
    let (mut keys, mut out) = (Vec::new(), Vec::new());
    gumbel_top_k_into(&mut rng, &[0.0; 150], 0, &mut keys, &mut out);
    for (i, &(key, index)) in keys.iter().enumerate() {
        assert_eq!(index, i);
        let u = ((twin.next_u64() >> 12) as f64 + 0.5) / (1u64 << 52) as f64;
        let libm = -(-u.ln()).ln();
        assert!(
            (key - libm).abs() <= 1e-12 * libm.abs().max(1.0),
            "{i}: {key} vs {libm}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nan_and_neg_inf_are_kept_only_after_every_finite_entry(
        seed in any::<u64>(),
        cells in prop::collection::vec((0u32..4, -40.0f64..40.0), 1..40),
        k in 0usize..45,
    ) {
        // A quarter of the entries NaN, a quarter −∞, the rest finite.
        let logits: Vec<f64> = cells
            .iter()
            .map(|&(kind, x)| match kind {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                _ => x,
            })
            .collect();
        let finite = logits.iter().filter(|x| x.is_finite()).count();
        let mut rng = seeded_rng(seed);
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        gumbel_top_k_into(&mut rng, &logits, k, &mut keys, &mut out);
        prop_assert_eq!(out.len(), k.min(logits.len()));
        let kept_finite = out.iter().filter(|&&i| logits[i].is_finite()).count();
        prop_assert_eq!(kept_finite, out.len().min(finite));
    }
}
