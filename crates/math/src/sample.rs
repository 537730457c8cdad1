//! Sampling primitives.
//!
//! Three samplers matter for the paper:
//!
//! * uniform sampling of `N2` distinct entities when refreshing the cache
//!   (Algorithm 3, step 2) — [`sample_distinct_uniform`], Floyd's algorithm
//!   with a caller-owned membership bitset, so each of its `k` draws costs
//!   one bit probe;
//! * importance sampling *without replacement* of `N1` entries proportionally
//!   to `exp(score)` (Algorithm 3, steps 5–9, Eq. (6)) — [`gumbel_top_k_into`],
//!   which keeps the `N1` largest Gumbel-perturbed scores in one linear pass,
//!   so the refresh costs the `O((N1 + N2)·d)` of Table I;
//! * single weighted draws for the KBGAN generator and for the "IS sampling
//!   from cache" ablation — [`sample_one_weighted`].
//!
//! The Gumbel noise `−ln(−ln u)` is computed in two passes over a stack chunk
//! of logits: one draws a `u64` per logit in index order, exactly the draws
//! of a one-pass loop, and one maps the chunk's uniforms to noise with a
//! private branch-free `ln` that the compiler vectorises. That `ln` is the
//! FreeBSD/musl polynomial, within 1 ulp of `f64::ln` on the noise's domain;
//! its noise differs from libm's only in the last bits, which leaves the kept
//! indices, their order and the RNG state of seeded refreshes unchanged
//! (`tests/gumbel_top_k.rs` checks them against the libm-noise kernel).
//!
//! An [`AliasTable`] is provided for the Zipf-like entity popularity used by
//! the synthetic dataset generator (O(1) draws from a fixed discrete
//! distribution).

use rand::Rng;

/// Sample `k` distinct indices uniformly from `0..n`.
///
/// Uses Floyd's algorithm, which performs exactly `k` RNG draws, with a
/// scratch bitset of `n` bits. Panics if `k > n`.
pub fn sample_distinct_uniform<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    let mut chosen = Vec::with_capacity(k);
    sample_distinct_uniform_into(rng, n, k, &mut Vec::new(), &mut chosen);
    chosen
}

/// In-place variant of [`sample_distinct_uniform`]: clears `out` and fills it
/// with `k` distinct indices from `0..n`. Panics if `k > n`.
///
/// `seen` is a membership bitset over `0..n` owned by the caller: it must be
/// all zeros on entry, grows to `n` bits on first use, and is all zeros again
/// on return, because the call clears only the words its picks touched. Each
/// of Floyd's membership tests is then one bit probe instead of a scan of the
/// picks so far, and the call allocates nothing once `seen` and `out` have
/// grown.
pub fn sample_distinct_uniform_into<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
    seen: &mut Vec<u64>,
    out: &mut Vec<usize>,
) {
    assert!(
        k <= n,
        "cannot sample {k} distinct values from a pool of {n}"
    );
    out.clear();
    if seen.len() < n.div_ceil(64) {
        seen.resize(n.div_ceil(64), 0);
    }
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        // Every earlier pick is below j, so j itself is always free.
        let pick = if (seen[t / 64] >> (t % 64)) & 1 == 1 {
            j
        } else {
            t
        };
        seen[pick / 64] |= 1 << (pick % 64);
        out.push(pick);
    }
    for &pick in out.iter() {
        seen[pick / 64] = 0;
    }
}

/// Draw one index from `0..weights.len()` with probability proportional to
/// `weights[i]`. All weights must be non-negative and at least one must be
/// positive; otherwise the draw falls back to uniform.
pub fn sample_one_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "cannot sample from empty weights");
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut u = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if *w > 0.0 && w.is_finite() {
            if u < *w {
                return i;
            }
            u -= *w;
        }
    }
    // Floating-point slack: return the last positive-weight index.
    weights
        .iter()
        .rposition(|w| *w > 0.0 && w.is_finite())
        .unwrap_or(weights.len() - 1)
}

/// Sample `min(k, logits.len())` *distinct* indices without replacement,
/// each pick proportional to `exp(logit)` among the indices not yet picked
/// (Equation (6) of the paper; Algorithm 3, steps 5–9), with the
/// Gumbel-top-k trick: perturb every logit with independent standard Gumbel
/// noise and keep the `k` largest keys. The kept set has exactly the
/// distribution of `k` sequential renormalised draws (Kool, van Hoof &
/// Welling, ICML 2019; Efraimidis & Spirakis 2006) but costs one linear pass
/// plus an `O(n)` selection, instead of one `O(n)` rescan per pick.
///
/// * Key `i` is `(logit_i − max) − ln(−ln u_i)`, with `u_i` drawn from one
///   `u64` as the midpoint of one of 2^52 equal cells of (0, 1), so `u_i` is
///   never 0 or 1. A call consumes exactly `logits.len()` draws, whatever `k`
///   is, in index order, which keeps the RNG stream position a function of
///   the input length.
/// * The noise is computed in two passes over a stack chunk of uniforms, with
///   a vectorised `ln` within 1 ulp of `f64::ln` on the domain it sees here
///   (`u` and `−ln u`, both in `[2^−53, 37]`); see the module docs.
/// * If the maximum logit is not finite (every entry −∞ or NaN, or some entry
///   +∞) the key is the noise alone: a uniform draw, as `softmax_in_place`
///   falls back to.
/// * A NaN key counts as −∞, so NaN and −∞ logits are kept only once every
///   finite one is; the order among them is unspecified.
///
/// The kept indices land in `out` (cleared first) in no particular order.
/// `keys` is working storage for the `(key, index)` pairs; the call allocates
/// nothing once `keys` and `out` have grown to `logits.len()`.
pub fn gumbel_top_k_into<R: Rng + ?Sized>(
    rng: &mut R,
    logits: &[f64],
    k: usize,
    keys: &mut Vec<(f64, usize)>,
    out: &mut Vec<usize>,
) {
    const CHUNK: usize = 64;
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let shift = max.is_finite().then_some(max);
    keys.clear();
    let mut noise = [0.0f64; CHUNK];
    for (c, chunk) in logits.chunks(CHUNK).enumerate() {
        let noise = &mut noise[..chunk.len()];
        for u in noise.iter_mut() {
            *u = open_unit(rng.next_u64());
        }
        for g in noise.iter_mut() {
            *g = -ln(-ln(*g));
        }
        for (j, (&logit, &g)) in chunk.iter().zip(noise.iter()).enumerate() {
            let key = match shift {
                Some(max) => (logit - max) + g,
                None => g,
            };
            let key = if key.is_nan() { f64::NEG_INFINITY } else { key };
            keys.push((key, c * CHUNK + j));
        }
    }
    let k = k.min(keys.len());
    if k > 0 && k < keys.len() {
        keys.select_nth_unstable_by(k - 1, |a, b| b.0.total_cmp(&a.0));
    }
    out.clear();
    out.extend(keys[..k].iter().map(|&(_, i)| i));
}

/// The midpoint of the one of 2^52 equal cells of (0, 1) that the top 52
/// bits of `x` pick. Exact, and never 0 or 1: it lies in `[2^−53, 1 − 2^−53]`.
#[inline(always)]
fn open_unit(x: u64) -> f64 {
    ((x >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
}

/// Natural logarithm of a positive normal `x`, without the special cases
/// (zero, negative, subnormal, infinite or NaN input), so it has no branch
/// and vectorises. This is the FreeBSD `e_log.c` algorithm in the form of
/// musl's `log`: write `x = 2^k·(1 + f)` with `1 + f` in `[√2/2, √2)`, then
/// `ln(1 + f) = f − f²/2 + s·(f²/2 + R)` with `s = f/(2 + f)` and `R` a
/// degree-7 minimax polynomial in `s²`. Its error is under 1 ulp.
#[inline(always)]
fn ln(x: f64) -> f64 {
    // ln 2 split so that k·LN2_HI is exact for every exponent k.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    let bits = x.to_bits();
    // Offset the high word so that mantissas from √2/2 up carry into the
    // exponent field: k is then the binary exponent of x·√2.
    let hx = (bits >> 32) + (0x3ff0_0000 - 0x3fe6_a09e);
    let k = (hx >> 20) as i64 - 0x3ff;
    let hx = (hx & 0x000f_ffff) + 0x3fe6_a09e;
    let f = f64::from_bits((hx << 32) | (bits & 0xffff_ffff)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let dk = k as f64;
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

/// Walker alias table for O(1) draws from a fixed discrete distribution.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Build an alias table from non-negative weights. Returns `None` when the
    /// weights are empty or sum to zero.
    pub fn new(weights: &[f64]) -> Option<Self> {
        let n = weights.len();
        if n == 0 {
            return None;
        }
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let scaled: Vec<f64> = weights
            .iter()
            .map(|w| {
                let w = if w.is_finite() && *w > 0.0 { *w } else { 0.0 };
                w * n as f64 / total
            })
            .collect();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut scaled = scaled;
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &i in large.iter().chain(small.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Some(Self { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when there are no categories.
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one index in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use rand::rngs::StdRng;
    use rand::RngCore;
    use std::collections::HashSet;

    #[test]
    fn distinct_uniform_returns_distinct_in_range() {
        let mut rng = seeded_rng(10);
        for _ in 0..50 {
            let v = sample_distinct_uniform(&mut rng, 100, 20);
            assert_eq!(v.len(), 20);
            let set: HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), 20);
            assert!(v.iter().all(|x| *x < 100));
        }
    }

    #[test]
    fn distinct_uniform_full_draw_is_permutation() {
        let mut rng = seeded_rng(11);
        let mut v = sample_distinct_uniform(&mut rng, 10, 10);
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn distinct_uniform_rejects_oversized_request() {
        let mut rng = seeded_rng(12);
        let _ = sample_distinct_uniform(&mut rng, 3, 4);
    }

    #[test]
    fn weighted_draw_respects_proportions() {
        let mut rng = seeded_rng(13);
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..40_000 {
            counts[sample_one_weighted(&mut rng, &weights)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn weighted_draw_with_zero_total_is_uniform_and_in_range() {
        let mut rng = seeded_rng(14);
        for _ in 0..100 {
            let i = sample_one_weighted(&mut rng, &[0.0, 0.0, 0.0]);
            assert!(i < 3);
        }
    }

    #[test]
    fn weighted_draw_ignores_nan_and_negative() {
        let mut rng = seeded_rng(15);
        for _ in 0..200 {
            let i = sample_one_weighted(&mut rng, &[f64::NAN, -1.0, 2.0]);
            assert_eq!(i, 2);
        }
    }

    /// One [`gumbel_top_k_into`] draw into fresh buffers.
    fn gumbel_top_k(rng: &mut StdRng, logits: &[f64], k: usize) -> Vec<usize> {
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        gumbel_top_k_into(rng, logits, k, &mut keys, &mut out);
        out
    }

    #[test]
    fn without_replacement_returns_distinct_and_prefers_heavy() {
        // Weights 1:1:1:10 as logits: entry 3 is in a 2-subset with
        // probability 10/13 + 3·(1/13)·(10/12) ≈ 0.96, each other entry
        // with ≈ 0.35.
        let mut rng = seeded_rng(16);
        let logits = [0.0, 0.0, 0.0, 10f64.ln()];
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            let picks = gumbel_top_k(&mut rng, &logits, 2);
            assert_eq!(picks.len(), 2);
            assert_ne!(picks[0], picks[1]);
            for p in picks {
                counts[p] += 1;
            }
        }
        assert!(counts[3] > counts[0] * 5 / 2, "{counts:?}");
    }

    #[test]
    fn without_replacement_handles_more_requested_than_available() {
        let mut rng = seeded_rng(17);
        let mut picks = gumbel_top_k(&mut rng, &[0.0, 2f64.ln()], 5);
        picks.sort_unstable();
        assert_eq!(picks, vec![0, 1]);
    }

    #[test]
    fn without_replacement_fills_from_zero_weights_when_needed() {
        let mut rng = seeded_rng(18);
        let logits = [f64::NEG_INFINITY, f64::NAN, 5f64.ln()];
        for _ in 0..100 {
            assert_eq!(gumbel_top_k(&mut rng, &logits, 1), vec![2]);
        }
        let picks = gumbel_top_k(&mut rng, &logits, 3);
        let set: HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn gumbel_top_k_consumes_one_draw_per_logit() {
        for k in [0, 1, 3, 7] {
            let mut rng = seeded_rng(23);
            let mut twin = seeded_rng(23);
            let _ = gumbel_top_k(&mut rng, &[0.5, -1.0, f64::NAN, 2.0, 0.0], k);
            for _ in 0..5 {
                twin.next_u64();
            }
            assert_eq!(rng.next_u64(), twin.next_u64(), "k = {k}");
        }
    }

    /// Distance in units in the last place between two doubles of one sign.
    fn ulps(a: f64, b: f64) -> u64 {
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a} vs {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn ln_is_within_one_ulp_of_libm_at_the_extreme_cells() {
        let (lowest, highest) = (open_unit(0), open_unit(u64::MAX));
        assert_eq!(lowest, 2f64.powi(-53));
        assert_eq!(highest, 1.0 - 2f64.powi(-53));
        for u in [lowest, highest] {
            for x in [u, -u.ln(), -ln(u)] {
                assert!(
                    ulps(ln(x), x.ln()) <= 1,
                    "ln({x:e}): {} vs {}",
                    ln(x),
                    x.ln()
                );
            }
        }
    }

    #[test]
    fn ln_is_within_one_ulp_of_libm_on_seeded_draws() {
        let mut rng = seeded_rng(0x1CDE_2019);
        let mut worst = 0;
        for _ in 0..1_000_000 {
            let u = open_unit(rng.next_u64());
            let y = -ln(u);
            worst = worst.max(ulps(ln(u), u.ln())).max(ulps(ln(y), y.ln()));
        }
        assert!(worst <= 1, "worst error {worst} ulp");
    }

    #[test]
    fn distinct_uniform_leaves_the_bitset_clear_for_the_next_caller() {
        let mut rng = seeded_rng(24);
        let (mut seen, mut out) = (Vec::new(), Vec::new());
        for (n, k) in [(130, 5), (1, 1), (64, 64), (200, 199), (10, 0)] {
            sample_distinct_uniform_into(&mut rng, n, k, &mut seen, &mut out);
            assert_eq!(out.len(), k);
            assert!(seen.iter().all(|&w| w == 0), "n = {n}, k = {k}");
        }
        assert_eq!(seen.len(), 200usize.div_ceil(64), "grown to the largest n");
    }

    #[test]
    fn alias_table_matches_expected_frequencies() {
        let at = AliasTable::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut rng = seeded_rng(20);
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[at.sample(&mut rng)] += 1;
        }
        let p: Vec<f64> = counts.iter().map(|c| *c as f64 / n as f64).collect();
        assert!((p[0] - 0.1).abs() < 0.01);
        assert!((p[1] - 0.2).abs() < 0.015);
        assert!((p[2] - 0.7).abs() < 0.015);
    }

    #[test]
    fn alias_table_rejects_degenerate_inputs() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0]).is_none());
    }
}
