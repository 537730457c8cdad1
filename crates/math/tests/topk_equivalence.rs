//! Equivalence proptests for the bounded one-pass top-k kernel and the
//! count-only rank scan.
//!
//! [`top_k_indices_into`] (a buffer of at most `max(2k, k + 32)` indices, a
//! threshold taken from its `k`-th best, blocks of 16 scores counted against
//! it, a select whenever it fills, then a prefix sort) must be
//! **bit-identical** — same index set, same order, same tie-breaks — to the
//! retained full-sort oracle [`top_k_indices_sort_into`] for every `(xs, k)`,
//! including the adversarial regimes where a selection bug would hide:
//!
//! * ragged `k` vs `|xs|` (`k = 0`, `k = |xs|`, `k > |xs|`, `k = |xs| − 1`);
//! * *tie storms* — values drawn from a tiny discrete set so the selection
//!   boundary almost always falls inside a tie group and only the
//!   lower-index-first contract decides who survives;
//! * duplicated extremes (every element equal);
//! * inputs that steer the buffer: strictly ascending scores (every score
//!   enters, the worst case), strictly descending ones (none does), NaN
//!   prefixes longer than the buffer (the threshold starts as NaN), ±∞ and
//!   mixed `−0.0`/`+0.0`, at lengths around the buffer size and the 16-score
//!   block.
//!
//! [`rank_scan`] must return exactly the counts of [`rank_contenders_into`].

use nscaching_math::{
    rank_contenders_into, rank_scan, top_k_indices_into, top_k_indices_sort_into,
};
use proptest::prelude::*;

fn assert_identical(xs: &[f64], k: usize) -> Result<(), TestCaseError> {
    let mut fast = Vec::new();
    let mut oracle = Vec::new();
    top_k_indices_into(xs, k, &mut fast);
    top_k_indices_sort_into(xs, k, &mut oracle);
    prop_assert_eq!(&fast, &oracle);
    Ok(())
}

/// The `k` values that steer the bounded buffer: the smallest, the serving
/// design point, both sides of the `2k = k + 32` crossover, and the ragged
/// edges of `|xs|`.
fn steering_ks(len: usize) -> [usize; 9] {
    [1, 2, 10, 31, 32, 33, len.saturating_sub(1), len, len + 1]
}

/// Lengths at and around each steering `k`'s buffer size and one 16-score
/// block past it, plus short lengths around one and two blocks.
fn steering_lengths() -> Vec<usize> {
    let mut lengths = vec![0, 1, 2, 15, 16, 17, 31, 32, 33, 100, 257];
    for k in [1usize, 2, 10, 31, 32, 33] {
        let cap = (2 * k).max(k + 32);
        for len in [cap - 1, cap, cap + 1, cap + 15, cap + 16, cap + 17] {
            lengths.push(len);
        }
    }
    lengths.sort_unstable();
    lengths.dedup();
    lengths
}

fn assert_identical_at_steering_ks(xs: &[f64]) {
    for k in steering_ks(xs.len()) {
        let mut fast = Vec::new();
        let mut oracle = Vec::new();
        top_k_indices_into(xs, k, &mut fast);
        top_k_indices_sort_into(xs, k, &mut oracle);
        assert_eq!(fast, oracle, "len = {}, k = {k}, xs = {xs:?}", xs.len());
    }
}

#[test]
fn bounded_pass_equals_the_sort_oracle_on_ordered_inputs() {
    for len in steering_lengths() {
        let ascending: Vec<f64> = (0..len).map(|i| i as f64).collect();
        let descending: Vec<f64> = (0..len).map(|i| -(i as f64)).collect();
        let equal = vec![0.5; len];
        for xs in [ascending, descending, equal] {
            assert_identical_at_steering_ks(&xs);
        }
    }
}

#[test]
fn bounded_pass_equals_the_sort_oracle_after_a_nan_prefix() {
    // A NaN prefix longer than every steering buffer: the first select
    // leaves a NaN threshold, which every real score must beat.
    for prefix in [33, 64, 66, 100] {
        for tail in [0, 1, 15, 16, 17, 40, 150] {
            let mut ascending = vec![f64::NAN; prefix];
            ascending.extend((0..tail).map(|i| i as f64));
            let mut descending = vec![f64::NAN; prefix];
            descending.extend((0..tail).map(|i| -(i as f64)));
            let mut infinities = vec![f64::NAN; prefix];
            infinities.extend((0..tail).map(|i| {
                if i % 2 == 0 {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }));
            for xs in [ascending, descending, infinities] {
                assert_identical_at_steering_ks(&xs);
            }
        }
    }
}

/// Scores from a palette of the values a comparison bug trips on: NaN, ±∞,
/// both zeros, and a few ties.
fn special_score() -> impl Strategy<Value = f64> {
    (0usize..8).prop_map(|i| {
        [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            -1.0,
            2.5,
        ][i]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quickselect_equals_the_sort_oracle_on_continuous_scores(
        xs in prop::collection::vec(-1e3f64..1e3, 0..300),
        k in 0usize..350,
    ) {
        assert_identical(&xs, k)?;
    }

    #[test]
    fn quickselect_equals_the_sort_oracle_under_tie_storms(
        // 2–4 distinct values over up to 300 slots: almost every selection
        // boundary lands inside a tie group.
        raw in prop::collection::vec(0u32..4, 1..300),
        k in 0usize..350,
    ) {
        let xs: Vec<f64> = raw.iter().map(|&v| v as f64).collect();
        assert_identical(&xs, k)?;
    }

    #[test]
    fn quickselect_equals_the_sort_oracle_at_the_ragged_edges(
        xs in prop::collection::vec(-10.0f64..10.0, 1..64),
    ) {
        for k in [0, 1, xs.len().saturating_sub(1), xs.len(), xs.len() + 1, 2 * xs.len()] {
            assert_identical(&xs, k)?;
        }
    }

    #[test]
    fn quickselect_is_exact_on_all_equal_values(
        len in 1usize..200,
        k in 0usize..220,
        value in -5.0f64..5.0,
    ) {
        // The degenerate single-tie-group case: the answer must be the first
        // min(k, len) indices in ascending order.
        let xs = vec![value; len];
        let mut fast = Vec::new();
        top_k_indices_into(&xs, k, &mut fast);
        let expect: Vec<usize> = (0..k.min(len)).collect();
        prop_assert_eq!(fast, expect);
        assert_identical(&xs, k)?;
    }

    #[test]
    fn bounded_pass_equals_the_sort_oracle_on_nan_infinities_and_signed_zeros(
        xs in prop::collection::vec(special_score(), 0..200),
    ) {
        for k in steering_ks(xs.len()) {
            assert_identical(&xs, k)?;
        }
    }

    #[test]
    fn bounded_pass_equals_the_sort_oracle_around_the_buffer_size(
        k_at in 0usize..6,
        extra in 0usize..40,
        under in any::<bool>(),
        seed_scores in prop::collection::vec(-4i32..4, 110),
    ) {
        // Lengths from just under a buffer to a block or two past it, over
        // tie-heavy scores.
        let k = [1usize, 2, 10, 31, 32, 33][k_at];
        let cap = (2 * k).max(k + 32);
        let len = if under { cap.saturating_sub(extra.min(cap)) } else { cap + extra };
        let xs: Vec<f64> = seed_scores.iter().cycle().take(len).map(|&v| v as f64).collect();
        assert_identical(&xs, k)?;
    }

    #[test]
    fn rank_scan_counts_what_the_contender_scan_counts(
        xs in prop::collection::vec(special_score(), 0..120),
        skip in 0usize..130,
        value in special_score(),
    ) {
        let mut contenders = Vec::new();
        let expected = rank_contenders_into(&xs, value, skip, &mut contenders);
        prop_assert_eq!(rank_scan(&xs, value, skip), expected);
        // The value a rank query passes: the skipped entry's own score.
        if let Some(&own) = xs.get(skip) {
            let expected = rank_contenders_into(&xs, own, skip, &mut contenders);
            prop_assert_eq!(rank_scan(&xs, own, skip), expected);
        }
    }
}
