//! Numerically stable softmax utilities.
//!
//! Single draws with probability `exp(f) / Σ exp(f)` — the "IS sampling from
//! cache" ablation and the KBGAN and IGAN generators — normalise scores with
//! [`softmax_in_place`]. Scores can be moderately large in magnitude, so the
//! usual max-subtraction trick is applied everywhere. The cache update
//! (Algorithm 3, Eq. (6)) needs no softmax: `gumbel_top_k_into` in
//! `sample.rs` draws its `N1` picks straight from the raw scores.

/// `log(Σ exp(x_i))` computed stably. Returns `-inf` for an empty slice.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    let s: f64 = xs.iter().map(|x| (x - m).exp()).sum();
    m + s.ln()
}

/// Softmax of `xs` into a freshly allocated vector.
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Softmax computed in place.
///
/// An empty slice is left untouched; a slice whose maximum is `-inf`
/// degenerates to the uniform distribution (this can happen if a caller masks
/// every entry), which is the safest behaviour for a sampler.
pub fn softmax_in_place(xs: &mut [f64]) {
    if xs.is_empty() {
        return;
    }
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        let u = 1.0 / xs.len() as f64;
        for x in xs.iter_mut() {
            *x = u;
        }
        return;
    }
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// Logistic sigmoid `1 / (1 + exp(-x))`, computed stably for large |x|.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `log(1 + exp(x))` (softplus), computed stably.
///
/// This is the logistic loss `ℓ(α, β) = log(1 + exp(-αβ))` of the paper's
/// Eq. (2) evaluated at `x = -αβ`.
#[inline]
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let xs = [0.1f64, -0.3, 0.7];
        let naive: f64 = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_values() {
        let xs = [1000.0, 1000.0];
        let expected = 1000.0 + 2.0_f64.ln();
        assert!((log_sum_exp(&xs) - expected).abs() < 1e-9);
    }

    #[test]
    fn log_sum_exp_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_all_masked_falls_back_to_uniform() {
        let mut xs = vec![f64::NEG_INFINITY; 4];
        softmax_in_place(&mut xs);
        for x in xs {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn sigmoid_symmetry_and_limits() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999_999);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn softplus_matches_naive_in_stable_region_and_is_finite_elsewhere() {
        for &x in &[-3.0f64, -0.5, 0.0, 0.5, 3.0] {
            let naive = (1.0 + x.exp()).ln();
            assert!((softplus(x) - naive).abs() < 1e-12);
        }
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!(softplus(-100.0) >= 0.0);
        assert!(softplus(-100.0) < 1e-40);
    }
}
