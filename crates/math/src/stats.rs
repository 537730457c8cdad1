//! The complementary CDF used in Figure 1 of the paper.

/// Empirical complementary cumulative distribution function
/// `F(x) = P(D ≥ x)`, exactly the quantity plotted in Figure 1 of the paper.
#[derive(Debug, Clone)]
pub struct Ccdf {
    sorted: Vec<f64>,
}

impl Ccdf {
    /// Build from raw observations (NaNs are dropped).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filtering"));
        Self { sorted }
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CCDF holds no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(D ≥ x)` for a single threshold.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // Index of the first element >= x.
        let idx = self.sorted.partition_point(|v| *v < x);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }

    /// Evaluate the CCDF on a grid of thresholds.
    pub fn evaluate(&self, grid: &[f64]) -> Vec<(f64, f64)> {
        grid.iter().map(|&x| (x, self.at(x))).collect()
    }

    /// A uniform grid of `points` thresholds between the min and max sample.
    pub fn default_grid(&self, points: usize) -> Vec<f64> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let lo = *self.sorted.first().expect("non-empty");
        let hi = *self.sorted.last().expect("non-empty");
        if points == 1 || hi <= lo {
            return vec![lo];
        }
        let step = (hi - lo) / (points - 1) as f64;
        (0..points).map(|i| lo + step * i as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccdf_on_known_samples() {
        let c = Ccdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert!((c.at(0.0) - 1.0).abs() < 1e-12);
        assert!((c.at(2.0) - 0.75).abs() < 1e-12);
        assert!((c.at(2.5) - 0.5).abs() < 1e-12);
        assert!((c.at(4.0) - 0.25).abs() < 1e-12);
        assert!((c.at(5.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn ccdf_is_monotone_decreasing_on_grid() {
        let samples: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let c = Ccdf::from_samples(&samples);
        let grid = c.default_grid(50);
        let vals = c.evaluate(&grid);
        for w in vals.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(grid.len(), 50);
    }

    #[test]
    fn ccdf_drops_nans_and_handles_empty() {
        let c = Ccdf::from_samples(&[f64::NAN, f64::NAN]);
        assert!(c.is_empty());
        assert_eq!(c.at(0.0), 0.0);
        assert!(c.default_grid(10).is_empty());
    }
}
