//! Embedding initialisers.
//!
//! The paper initialises all embeddings with the Xavier uniform initialiser
//! (Glorot & Bengio, 2010) when training from scratch. We also provide a
//! plain uniform range initialiser.

use rand::Rng;

/// Xavier/Glorot uniform initialisation for a `rows × cols` matrix stored
/// row-major in a flat `Vec<f64>`.
///
/// Entries are drawn from `U(-a, a)` with `a = sqrt(6 / (rows + cols))`.
pub fn xavier_uniform<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Vec<f64> {
    assert!(
        rows > 0 && cols > 0,
        "xavier_uniform needs a non-empty shape"
    );
    let a = (6.0 / (rows + cols) as f64).sqrt();
    (0..rows * cols).map(|_| rng.gen_range(-a..a)).collect()
}

/// Uniform initialisation in `[-bound, bound)` for `n` values.
pub fn uniform_init<R: Rng + ?Sized>(rng: &mut R, n: usize, bound: f64) -> Vec<f64> {
    assert!(bound > 0.0, "uniform_init bound must be positive");
    (0..n).map(|_| rng.gen_range(-bound..bound)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn xavier_bound_is_respected() {
        let mut rng = seeded_rng(1);
        let rows = 100;
        let cols = 50;
        let m = xavier_uniform(&mut rng, rows, cols);
        assert_eq!(m.len(), rows * cols);
        let a = (6.0 / (rows + cols) as f64).sqrt();
        assert!(m.iter().all(|v| *v >= -a && *v < a));
    }

    #[test]
    fn xavier_is_roughly_zero_mean() {
        let mut rng = seeded_rng(2);
        let m = xavier_uniform(&mut rng, 200, 64);
        let mean: f64 = m.iter().sum::<f64>() / m.len() as f64;
        assert!(mean.abs() < 0.01, "mean was {mean}");
    }

    #[test]
    #[should_panic(expected = "non-empty shape")]
    fn xavier_rejects_empty_shape() {
        let mut rng = seeded_rng(3);
        let _ = xavier_uniform(&mut rng, 0, 8);
    }

    #[test]
    fn uniform_init_bound_respected() {
        let mut rng = seeded_rng(4);
        let v = uniform_init(&mut rng, 1000, 0.25);
        assert!(v.iter().all(|x| x.abs() <= 0.25));
    }
}
