//! The benchmark's own arithmetic: order statistics, growth ratios and rates.
//!
//! Every reported timing goes through these helpers, so they are unit-tested
//! on hand-checked inputs.

/// One percentile readout plus how many samples lie strictly above it, so a
/// report can say how much data backs a tail figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The selected sample.
    pub value: f64,
    /// Samples strictly after the selected rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending slice: the sample at 1-based rank
/// `⌈q·n⌉`, clamped to `[1, n]`.
///
/// # Panics
/// On an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    // The small slack keeps `0.9 * 10` (9.000000000000002 in binary) at rank 9.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

/// Sort samples ascending (NaN-free input; NaN sorts last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median: the middle sample, or the mean of the two middle samples.
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Epoch-time growth: the median of the last `window` epochs divided by the
/// median of the first `window`. `None` when there are fewer than
/// `2 · window` epochs, so the two windows never share an epoch.
pub fn epoch_growth(epoch_seconds: &[f64], window: usize) -> Option<f64> {
    if window == 0 || epoch_seconds.len() < 2 * window {
        return None;
    }
    let first = median(&epoch_seconds[..window]);
    let last = median(&epoch_seconds[epoch_seconds.len() - window..]);
    Some(last / first)
}

/// Operations per second; 0 when no time was measured.
pub fn per_second(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// Share of attempts that succeeded; 0 when nothing was attempted.
pub fn success_fraction(succeeded: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        succeeded as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selects_the_nearest_rank_and_counts_the_tail() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.5),
            Percentile {
                value: 5.0,
                beyond: 5
            }
        );
        assert_eq!(
            percentile(&xs, 0.9),
            Percentile {
                value: 9.0,
                beyond: 1
            }
        );
        assert_eq!(
            percentile(&xs, 0.99),
            Percentile {
                value: 10.0,
                beyond: 0
            }
        );
        assert_eq!(
            percentile(&xs, 0.0),
            Percentile {
                value: 1.0,
                beyond: 9
            }
        );
        assert_eq!(
            percentile(&xs, 1.0),
            Percentile {
                value: 10.0,
                beyond: 0
            }
        );

        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            percentile(&thousand, 0.99),
            Percentile {
                value: 990.0,
                beyond: 10
            }
        );
        assert_eq!(
            percentile(&thousand, 0.999),
            Percentile {
                value: 999.0,
                beyond: 1
            }
        );
        assert_eq!(
            percentile(&[7.0], 0.9),
            Percentile {
                value: 7.0,
                beyond: 0
            }
        );
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn epoch_growth_compares_the_last_and_first_windows() {
        let flat = [1.0; 10];
        assert_eq!(epoch_growth(&flat, 5), Some(1.0));

        // First five: median 1.0 (an outlier does not move it); last five: 3.0.
        let growing = [1.0, 0.9, 1.0, 9.0, 1.1, 2.0, 2.0, 3.0, 3.0, 3.0, 3.5, 2.9];
        assert_eq!(epoch_growth(&growing, 5), Some(3.0));

        assert_eq!(epoch_growth(&[1.0; 9], 5), None);
        assert_eq!(epoch_growth(&[1.0; 9], 0), None);
    }

    #[test]
    fn rates_come_from_raw_counts() {
        assert_eq!(per_second(25_000, 2.5), 10_000.0);
        assert_eq!(per_second(10, 0.0), 0.0);
        assert_eq!(success_fraction(997, 1000), 0.997);
        assert_eq!(success_fraction(0, 0), 0.0);
        assert_eq!(success_fraction(5, 5), 1.0);
    }
}
