//! Dense vector operations used by the scoring functions and optimizers.
//!
//! All binary operations assert that the operands have equal length; the
//! embedding dimension is fixed per model so mismatches are programming
//! errors, not runtime conditions.
//!
//! # Kernel layout
//!
//! The hot reduction kernels ([`dot`], [`l1_distance`], [`l1_sum`],
//! [`l1_combine`]) are written against explicit fixed-width 8-lane blocks
//! (`[f64; 8]`, one AVX-512 vector or two AVX2 ones — see [`lanes`]). Each
//! loop iteration carries **two** independent blocks, so sixteen accumulator
//! lanes break the add dependency chain and the loop saturates the FPU
//! pipelines; the fixed-size block views let LLVM keep whole blocks in vector
//! registers. The horizontal sum folds the lanes in ascending index order and
//! the tail elements sequentially, so results are a deterministic
//! reassociation of the scalar reference (the proptests in
//! `tests/proptests.rs` pin the agreement to 1e-12).

/// Scalar lanes per explicit SIMD block.
pub const LANES: usize = 8;

/// Fixed-width 8-lane building blocks of the unrolled kernels.
///
/// Every operation is a straight-line pass over a `[f64; LANES]` block —
/// exactly the shape auto-vectorisers turn into a single vector instruction
/// (or two on AVX2). Keeping the blocks explicit pins the lane count, and
/// therefore the floating-point summation order, independently of what the
/// compiler would pick on its own.
mod lanes {
    use super::LANES;

    /// View a slice of exactly `LANES` elements as a fixed-width block.
    #[inline(always)]
    pub(super) fn block(x: &[f64]) -> &[f64; LANES] {
        x.try_into().expect("exact 8-lane block")
    }

    /// `acc[i] += a[i] * b[i]` over one block.
    #[inline(always)]
    pub(super) fn mul_acc(acc: &mut [f64; LANES], a: &[f64; LANES], b: &[f64; LANES]) {
        for i in 0..LANES {
            acc[i] += a[i] * b[i];
        }
    }

    /// `acc[i] += |a[i] - b[i]|` over one block.
    #[inline(always)]
    pub(super) fn abs_diff_acc(acc: &mut [f64; LANES], a: &[f64; LANES], b: &[f64; LANES]) {
        for i in 0..LANES {
            acc[i] += (a[i] - b[i]).abs();
        }
    }

    /// `acc[i] += |a[i] + b[i]|` over one block.
    #[inline(always)]
    pub(super) fn abs_sum_acc(acc: &mut [f64; LANES], a: &[f64; LANES], b: &[f64; LANES]) {
        for i in 0..LANES {
            acc[i] += (a[i] + b[i]).abs();
        }
    }

    /// `acc[i] += |q[i] + sign·e[i] + c·w[i]|` over one block.
    #[inline(always)]
    pub(super) fn abs_combine_acc(
        acc: &mut [f64; LANES],
        q: &[f64; LANES],
        e: &[f64; LANES],
        w: &[f64; LANES],
        sign: f64,
        c: f64,
    ) {
        for i in 0..LANES {
            acc[i] += (q[i] + sign * e[i] + c * w[i]).abs();
        }
    }

    /// Horizontal sum of two accumulator blocks, lanes folded in ascending
    /// index order (block 0 first) — the deterministic reduction the kernels'
    /// bit-reproducibility contract depends on.
    #[inline(always)]
    pub(super) fn hsum(acc0: &[f64; LANES], acc1: &[f64; LANES]) -> f64 {
        acc0.iter().chain(acc1.iter()).sum()
    }
}

/// Dot product `x · y`.
///
/// Two explicit 8-lane blocks per iteration (sixteen independent accumulator
/// lanes); this is the innermost kernel of the batched candidate-scoring
/// fast path and of TransD's per-candidate projection.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut xc = x.chunks_exact(2 * LANES);
    let mut yc = y.chunks_exact(2 * LANES);
    let mut acc0 = [0.0f64; LANES];
    let mut acc1 = [0.0f64; LANES];
    for (a, b) in (&mut xc).zip(&mut yc) {
        lanes::mul_acc(
            &mut acc0,
            lanes::block(&a[..LANES]),
            lanes::block(&b[..LANES]),
        );
        lanes::mul_acc(
            &mut acc1,
            lanes::block(&a[LANES..]),
            lanes::block(&b[LANES..]),
        );
    }
    let mut sum = lanes::hsum(&acc0, &acc1);
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        sum += a * b;
    }
    sum
}

/// Element-wise sum `x + y` into a new vector.
#[inline]
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Element-wise difference `x - y` into a new vector.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Element-wise (Hadamard) product `x ⊙ y` into a new vector.
#[inline]
pub fn hadamard(x: &[f64], y: &[f64]) -> Vec<f64> {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).collect()
}

/// In-place scaling `x ← α·x`.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x {
        *v *= alpha;
    }
}

/// In-place `y ← y + α·x` (BLAS `axpy`).
#[inline]
pub fn add_scaled(y: &mut [f64], x: &[f64], alpha: f64) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// L1 norm `‖x‖₁`.
#[inline]
pub fn l1_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// L2 norm `‖x‖₂`.
#[inline]
pub fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// L1 distance `‖x − y‖₁`.
///
/// Unrolled like [`dot`]; the per-candidate kernel of the translational
/// models' batched scoring path, TransD's tail corruption included.
#[inline]
pub fn l1_distance(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut xc = x.chunks_exact(2 * LANES);
    let mut yc = y.chunks_exact(2 * LANES);
    let mut acc0 = [0.0f64; LANES];
    let mut acc1 = [0.0f64; LANES];
    for (a, b) in (&mut xc).zip(&mut yc) {
        lanes::abs_diff_acc(
            &mut acc0,
            lanes::block(&a[..LANES]),
            lanes::block(&b[..LANES]),
        );
        lanes::abs_diff_acc(
            &mut acc1,
            lanes::block(&a[LANES..]),
            lanes::block(&b[LANES..]),
        );
    }
    let mut sum = lanes::hsum(&acc0, &acc1);
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        sum += (a - b).abs();
    }
    sum
}

/// Translational sum norm `Σᵢ |x_i + y_i|`.
///
/// The head-corruption dual of [`l1_distance`]: with TransD's projection
/// `p = e + (w_e·e)·w_r` of a candidate head and a precomputed query
/// `q = r − t⊥`, the candidate scores `−Σᵢ |p_i + q_i|`. Same explicit
/// 8-lane block layout as the other kernels.
#[inline]
pub fn l1_sum(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut xc = x.chunks_exact(2 * LANES);
    let mut yc = y.chunks_exact(2 * LANES);
    let mut acc0 = [0.0f64; LANES];
    let mut acc1 = [0.0f64; LANES];
    for (a, b) in (&mut xc).zip(&mut yc) {
        lanes::abs_sum_acc(
            &mut acc0,
            lanes::block(&a[..LANES]),
            lanes::block(&b[..LANES]),
        );
        lanes::abs_sum_acc(
            &mut acc1,
            lanes::block(&a[LANES..]),
            lanes::block(&b[LANES..]),
        );
    }
    let mut sum = lanes::hsum(&acc0, &acc1);
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        sum += (a + b).abs();
    }
    sum
}

/// Fused translational residual norm `Σᵢ |q_i + sign·e_i + c·w_i|`.
///
/// The per-candidate kernel of the batched TransH fast path: with a
/// precomputed query vector `q`, the hyperplane residual of a candidate row
/// `e` has exactly this shape (`sign = ∓1` for tail/head corruption, `c`
/// folding the candidate's projection scalar). Unrolled to sixteen lanes
/// like [`dot`].
#[inline]
pub fn l1_combine(q: &[f64], e: &[f64], w: &[f64], sign: f64, c: f64) -> f64 {
    debug_assert_eq!(q.len(), e.len());
    debug_assert_eq!(q.len(), w.len());
    let mut qc = q.chunks_exact(2 * LANES);
    let mut ec = e.chunks_exact(2 * LANES);
    let mut wc = w.chunks_exact(2 * LANES);
    let mut acc0 = [0.0f64; LANES];
    let mut acc1 = [0.0f64; LANES];
    for ((a, b), ww) in (&mut qc).zip(&mut ec).zip(&mut wc) {
        lanes::abs_combine_acc(
            &mut acc0,
            lanes::block(&a[..LANES]),
            lanes::block(&b[..LANES]),
            lanes::block(&ww[..LANES]),
            sign,
            c,
        );
        lanes::abs_combine_acc(
            &mut acc1,
            lanes::block(&a[LANES..]),
            lanes::block(&b[LANES..]),
            lanes::block(&ww[LANES..]),
            sign,
            c,
        );
    }
    let mut sum = lanes::hsum(&acc0, &acc1);
    for ((a, b), ww) in qc
        .remainder()
        .iter()
        .zip(ec.remainder())
        .zip(wc.remainder())
    {
        sum += (a + sign * b + c * ww).abs();
    }
    sum
}

/// L2 distance `‖x − y‖₂`.
#[inline]
pub fn l2_distance(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Normalise `x` to unit L2 norm in place. Vectors whose norm is below
/// `1e-12` are left untouched to avoid dividing by (numerical) zero.
#[inline]
pub fn normalize_l2(x: &mut [f64]) {
    let n = l2_norm(x);
    if n > 1e-12 {
        scale(x, 1.0 / n);
    }
}

/// Project `x` onto the L2 ball of radius 1: only rescale when the norm
/// exceeds one. This is the constraint used by TransE/TransH/TransD on entity
/// embeddings ("soft" unit-ball constraint).
#[inline]
pub fn project_l2_ball(x: &mut [f64]) {
    let n = l2_norm(x);
    if n > 1.0 {
        scale(x, 1.0 / n);
    }
}

/// Signum vector of `x` with `sign(0) = 0`; the subgradient of the L1 norm.
#[inline]
pub fn signum(x: &[f64]) -> Vec<f64> {
    x.iter()
        .map(|v| {
            if *v > 0.0 {
                1.0
            } else if *v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// Squared L2 norm `‖x‖₂²`.
#[inline]
pub fn sq_l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn dot_matches_manual_expansion() {
        assert!((dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]) - 32.0).abs() < 1e-12);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = vec![1.0, -2.0, 3.5];
        let y = vec![0.5, 4.0, -1.0];
        let s = add(&x, &y);
        let back = sub(&s, &y);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn hadamard_elementwise() {
        assert_eq!(hadamard(&[2.0, 3.0], &[4.0, -1.0]), vec![8.0, -3.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(&mut x, 3.0);
        assert_eq!(x, vec![3.0, -6.0]);
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut y = vec![1.0, 1.0];
        add_scaled(&mut y, &[2.0, -4.0], 0.5);
        assert_eq!(y, vec![2.0, -1.0]);
    }

    #[test]
    fn norms_on_known_vectors() {
        assert!((l1_norm(&[3.0, -4.0]) - 7.0).abs() < 1e-12);
        assert!((l2_norm(&[3.0, -4.0]) - 5.0).abs() < 1e-12);
        assert!((sq_l2_norm(&[3.0, -4.0]) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distances_on_known_vectors() {
        assert!((l1_distance(&[1.0, 1.0], &[4.0, -3.0]) - 7.0).abs() < 1e-12);
        assert!((l2_distance(&[1.0, 1.0], &[4.0, 5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn l1_sum_on_known_vectors() {
        assert!((l1_sum(&[1.0, -1.0], &[2.0, -3.0]) - 7.0).abs() < 1e-12);
        // l1_sum(x, -y) == l1_distance(x, y) on a remainder-exercising length
        let x: Vec<f64> = (0..37).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let y: Vec<f64> = (0..37).map(|i| (i as f64) * -0.11 + 2.0).collect();
        let neg_y: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((l1_sum(&x, &neg_y) - l1_distance(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn kernels_cover_block_and_remainder_lengths() {
        // 0 | <8 | =8 | 8..16 | =16 | 16..32 | =32 | >32: every chunking path.
        for len in [0usize, 3, 8, 11, 16, 23, 32, 41] {
            let x: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
            let y: Vec<f64> = (0..len).map(|i| (i as f64).cos()).collect();
            let dot_ref: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((dot(&x, &y) - dot_ref).abs() < 1e-12, "dot at len {len}");
            let l1_ref: f64 = x.iter().zip(&y).map(|(a, b)| (a - b).abs()).sum();
            assert!(
                (l1_distance(&x, &y) - l1_ref).abs() < 1e-12,
                "l1_distance at len {len}"
            );
            let sum_ref: f64 = x.iter().zip(&y).map(|(a, b)| (a + b).abs()).sum();
            assert!(
                (l1_sum(&x, &y) - sum_ref).abs() < 1e-12,
                "l1_sum at len {len}"
            );
        }
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut x = vec![3.0, 4.0];
        normalize_l2(&mut x);
        assert!((l2_norm(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_leaves_zero_vector_untouched() {
        let mut x = vec![0.0, 0.0];
        normalize_l2(&mut x);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn project_only_shrinks_large_vectors() {
        let mut small = vec![0.3, 0.4];
        project_l2_ball(&mut small);
        assert_eq!(small, vec![0.3, 0.4]);

        let mut large = vec![3.0, 4.0];
        project_l2_ball(&mut large);
        assert!((l2_norm(&large) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn signum_handles_all_signs() {
        assert_eq!(signum(&[2.0, -0.5, 0.0]), vec![1.0, -1.0, 0.0]);
    }
}
