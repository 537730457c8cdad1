//! Top-k selection over score slices.
//!
//! Used by the "top sampling" / "top update" ablations of Section IV-C, by
//! the link-prediction ranker, and by the serving engine's top-k miss path.
//!
//! # The bounded-buffer kernel
//!
//! [`top_k_indices_into`] is the serving miss path's selection kernel. It
//! makes one pass over the scores and holds at most `max(2k, k + 32)`
//! candidate indices in `out`:
//!
//! 1. `out` is seeded with the first indices of `xs` until the buffer is
//!    full; `select_nth_unstable_by(k − 1)` then cuts it down to the best
//!    `k`, and the `k`-th of them sets the *threshold*.
//! 2. The rest of `xs` is scanned 16 scores at a time. A branch-free
//!    count finds the scores that beat the threshold; only a block that holds
//!    one enters a scalar loop, which pushes each such index and re-selects
//!    (tightening the threshold) whenever the buffer fills again.
//! 3. One last select cuts the buffer to `k` and the `k`-prefix is sorted.
//!
//! A score beats the threshold only when it is *strictly* above it, or real
//! against a NaN threshold. A score equal to the threshold loses: it comes
//! from a later (larger) index, and ties go to the lower index. The buffer
//! therefore always holds the exact top `k` of the indices scanned so far.
//! For serving-sized inputs (`|E|` in the tens of thousands, `k` around 10)
//! almost every block is rejected at the count, so the cost is one
//! streaming compare per score plus `O(k log k)`. In the worst case,
//! strictly ascending scores, every score enters; each re-select then costs
//! `O(max(2k, k + 32))` and frees at least `max(k, 32)` slots, so the pass
//! stays linear. `k` is first clamped to `|xs|`, and `out` never holds more
//! than `min(max(2k, k + 32), |xs|)` indices: no `k`, however large, sizes an
//! allocation beyond the input.
//!
//! The tie contract is **bit-identical** to a full sort: largest value
//! first, ties broken towards the lower index. The comparator
//! ([`cmp_desc`]`.then(index)`) is a strict total order over indices, so the
//! top-`k` set and its order are unique, and the bounded pass cannot
//! disagree with the sort. [`top_k_indices_sort_into`] retains the sort-based
//! kernel as the equivalence oracle (property-tested in
//! `tests/topk_equivalence.rs`) and as the bench baseline.
//!
//! # Rank scans
//!
//! [`rank_scan`] counts the scores above and equal to a reference value; the
//! serving engine's rank query needs nothing else. [`rank_contenders_into`]
//! also collects the indices of those scores, which the filtered evaluation
//! protocol probes against its false-negative index.

use std::cmp::Ordering;

/// Index of the maximum element (ties broken towards the lower index).
/// Returns `None` for an empty slice; NaNs are never selected unless every
/// entry is NaN.
pub fn argmax(xs: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &x) in xs.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            None => best = Some((i, x)),
            Some((_, b)) if x > b => best = Some((i, x)),
            _ => {}
        }
    }
    best.map(|(i, _)| i)
        .or(if xs.is_empty() { None } else { Some(0) })
}

/// Indices of the `k` largest values, ordered from largest to smallest.
///
/// Ties are broken towards the lower index so the result is deterministic.
/// If `k >= xs.len()` the result is a full argsort by descending value.
pub fn top_k_indices(xs: &[f64], k: usize) -> Vec<usize> {
    let mut idx = Vec::new();
    top_k_indices_into(xs, k, &mut idx);
    idx
}

/// In-place variant of [`top_k_indices`]: clears `out`, fills it with the
/// indices of the `k` largest values (largest first, ties towards the lower
/// index) and allocates nothing once `out` has grown to
/// `min(max(2k, k + 32), xs.len())` capacity.
///
/// One bounded pass, `O(|xs| + k log k)` (see the module docs). Output is
/// bit-identical to [`top_k_indices_sort_into`] (the comparator is a strict
/// total order, so the answer is unique; proptested in
/// `tests/topk_equivalence.rs`).
pub fn top_k_indices_into(xs: &[f64], k: usize, out: &mut Vec<usize>) {
    out.clear();
    let k = k.min(xs.len());
    if k == 0 {
        return;
    }
    let cap = (2 * k).max(k + 32);
    let seeded = cap.min(xs.len());
    out.extend(0..seeded);
    if seeded < xs.len() {
        let mut threshold = select_best(xs, k, out);
        for (block, chunk) in xs[seeded..].chunks(BLOCK).enumerate() {
            if count_beating(chunk, threshold) == 0 {
                continue;
            }
            let base = seeded + block * BLOCK;
            for (offset, &x) in chunk.iter().enumerate() {
                if beats(x, threshold) {
                    out.push(base + offset);
                    if out.len() == cap {
                        threshold = select_best(xs, k, out);
                    }
                }
            }
        }
    }
    if out.len() > k {
        select_best(xs, k, out);
    }
    out.sort_unstable_by(|&a, &b| cmp_desc(xs[a], xs[b]).then(a.cmp(&b)));
}

/// Scores per block of the bounded pass's branch-free threshold count.
const BLOCK: usize = 16;

/// Cut `out` (more than `k` indices into `xs`) down to its best `k`, in no
/// particular order, and return the `k`-th best score: the new threshold.
fn select_best(xs: &[f64], k: usize, out: &mut Vec<usize>) -> f64 {
    out.select_nth_unstable_by(k - 1, |&a, &b| cmp_desc(xs[a], xs[b]).then(a.cmp(&b)));
    out.truncate(k);
    xs[out[k - 1]]
}

/// Whether a score at a later index than the threshold's ranks ahead of it:
/// strictly greater, or real against a NaN threshold. `!(x <= t)` is true
/// for every `x` when `t` is NaN, and `!x.is_nan()` then rules out a NaN `x`.
#[inline]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // the negation is what admits a NaN threshold
fn beats(x: f64, threshold: f64) -> bool {
    !(x <= threshold) & !x.is_nan()
}

/// Number of scores in `chunk` that [`beats`] the threshold, without a
/// branch per score.
#[inline]
fn count_beating(chunk: &[f64], threshold: f64) -> usize {
    chunk
        .iter()
        .map(|&x| usize::from(beats(x, threshold)))
        .sum()
}

/// The retired full-sort top-k kernel, kept as the equivalence oracle for
/// [`top_k_indices_into`] and as the miss-path bench baseline: sort every
/// index by descending value (ties towards the lower index), truncate to
/// `k`. `O(|xs| log |xs|)` regardless of `k`.
pub fn top_k_indices_sort_into(xs: &[f64], k: usize, out: &mut Vec<usize>) {
    out.clear();
    let k = k.min(xs.len());
    if k == 0 {
        return;
    }
    out.extend(0..xs.len());
    out.sort_unstable_by(|&a, &b| cmp_desc(xs[a], xs[b]).then(a.cmp(&b)));
    out.truncate(k);
}

/// Counts produced by one [`rank_contenders_into`] scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankScan {
    /// Entries strictly greater than the reference value.
    pub greater: usize,
    /// Entries exactly equal to the reference value.
    pub ties: usize,
}

impl RankScan {
    /// The 1-based competition rank implied by the counts, with half-credit
    /// ties (the ranking convention of the link-prediction protocol).
    pub fn rank(&self) -> f64 {
        1.0 + self.greater as f64 + self.ties as f64 / 2.0
    }
}

/// One-pass competition-rank scan: count the entries of `xs` that can affect
/// the rank of `value` — strictly greater entries and ties — and collect
/// those *contender* indices into `out` (cleared first, in ascending index
/// order). The entry at index `skip` (the true entity's own score) and NaNs
/// are ignored.
///
/// This is the heart of the ranker's top-k early-termination path: any
/// downstream per-candidate work that cannot change the rank — in the
/// filtered protocol, the false-negative hash probe — only needs to run on
/// the contenders, so the scan over the remaining `|E| − |out|` entities
/// terminates at a float compare. The counts (and therefore
/// [`RankScan::rank`]) are exactly those of a full scan.
pub fn rank_contenders_into(xs: &[f64], value: f64, skip: usize, out: &mut Vec<usize>) -> RankScan {
    out.clear();
    let mut scan = RankScan {
        greater: 0,
        ties: 0,
    };
    // A NaN reference value compares false against everything, so a full scan
    // would count no competitors: rank 1 with no contenders.
    if value.is_nan() {
        return scan;
    }
    for (i, &x) in xs.iter().enumerate() {
        if i == skip || x.is_nan() || x < value {
            continue;
        }
        if x > value {
            scan.greater += 1;
        } else {
            scan.ties += 1;
        }
        out.push(i);
    }
    scan
}

/// Count-only twin of [`rank_contenders_into`]: the same [`RankScan`] — the
/// entries of `xs` strictly greater than `value` and those equal to it,
/// ignoring NaNs and the entry at index `skip` — without collecting indices.
/// A NaN `value` compares false against everything, so it gets zero counts.
/// One branch-free pass; the serving engine's rank query calls it.
pub fn rank_scan(xs: &[f64], value: f64, skip: usize) -> RankScan {
    let mut scan = RankScan {
        greater: 0,
        ties: 0,
    };
    for &x in xs {
        scan.greater += usize::from(x > value);
        scan.ties += usize::from(x == value);
    }
    if let Some(&own) = xs.get(skip) {
        scan.greater -= usize::from(own > value);
        scan.ties -= usize::from(own == value);
    }
    scan
}

/// Descending score comparator shared by every top-k consumer (the selection
/// kernels here, the serve-side ranking helpers, the eval ranker oracles):
/// larger values order first. This is a strict **total** order — NaNs form
/// their own equivalence class ordered after every real number (a NaN score
/// can therefore never displace a real candidate) — which the top-k kernels
/// require: `select_nth_unstable_by` and `sort_unstable_by` must see
/// consistent answers or the partition and the sort could disagree, and the
/// bounded pass's threshold test is this order restricted to a
/// later index. For
/// NaN-free inputs it is exactly `b.partial_cmp(&a)`.
pub fn cmp_desc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.partial_cmp(&a).expect("both are non-NaN"),
        (true, true) => Ordering::Equal,
        // NaN sorts after (is "smaller than") every real value.
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_basic() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_breaks_ties_towards_lower_index() {
        assert_eq!(argmax(&[2.0, 7.0, 7.0]), Some(1));
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[f64::NAN, 1.0, 0.5]), Some(1));
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), Some(0));
    }

    #[test]
    fn top_k_orders_descending() {
        let xs = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k_indices(&xs, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&xs, 10), vec![1, 3, 2, 0]);
        assert!(top_k_indices(&xs, 0).is_empty());
    }

    #[test]
    fn top_k_tie_break_is_deterministic() {
        let xs = [1.0, 1.0, 1.0];
        assert_eq!(top_k_indices(&xs, 2), vec![0, 1]);
    }

    #[test]
    fn top_k_matches_the_sort_oracle_on_dense_ties() {
        // A handful of distinct values over a longer slice: the partial
        // selection must cut tie groups at exactly the same indices as the
        // full sort.
        let xs: Vec<f64> = (0..97).map(|i| ((i * 7) % 5) as f64).collect();
        let mut fast = Vec::new();
        let mut oracle = Vec::new();
        for k in [0, 1, 2, 5, 31, 96, 97, 200] {
            top_k_indices_into(&xs, k, &mut fast);
            top_k_indices_sort_into(&xs, k, &mut oracle);
            assert_eq!(fast, oracle, "k = {k}");
        }
    }

    #[test]
    fn top_k_never_selects_nan_over_a_real_value() {
        let xs = [f64::NAN, 1.0, f64::NAN, 3.0, 2.0];
        assert_eq!(top_k_indices(&xs, 3), vec![3, 4, 1]);
        // With k beyond the real values, NaNs fill the tail in index order.
        assert_eq!(top_k_indices(&xs, 5), vec![3, 4, 1, 0, 2]);
    }

    #[test]
    fn cmp_desc_is_a_total_order_over_nan() {
        assert_eq!(cmp_desc(2.0, 1.0), Ordering::Less, "larger orders first");
        assert_eq!(cmp_desc(1.0, 2.0), Ordering::Greater);
        assert_eq!(cmp_desc(1.0, 1.0), Ordering::Equal);
        assert_eq!(cmp_desc(f64::NAN, f64::NEG_INFINITY), Ordering::Greater);
        assert_eq!(cmp_desc(f64::NEG_INFINITY, f64::NAN), Ordering::Less);
        assert_eq!(cmp_desc(f64::NAN, f64::NAN), Ordering::Equal);
    }

    #[test]
    fn rank_contenders_matches_rank_against_and_collects_indices() {
        let xs = [0.5, 2.0, 1.0, 3.0, f64::NAN, 1.0];
        let mut out = Vec::new();
        // skip index 2 (pretend it is the true entity holding value 1.0)
        let scan = rank_contenders_into(&xs, 1.0, 2, &mut out);
        assert_eq!(scan.greater, 2, "2.0 and 3.0 beat the value");
        assert_eq!(scan.ties, 1, "index 5 ties");
        assert_eq!(out, vec![1, 3, 5]);
        assert_eq!(scan.rank(), 1.0 + 2.0 + 0.5);
        // the count-only scan gives the same counts, with the skip and with
        // the skipped entry removed and nothing skipped
        assert_eq!(rank_scan(&xs, 1.0, 2), scan);
        let without_skip = [0.5, 2.0, 3.0, f64::NAN, 1.0];
        assert_eq!(rank_scan(&without_skip, 1.0, without_skip.len()), scan);
    }

    #[test]
    fn rank_contenders_with_no_contenders_is_rank_one() {
        let xs = [0.1, 0.2, 9.0];
        let mut out = Vec::new();
        let scan = rank_contenders_into(&xs, 9.0, 2, &mut out);
        assert_eq!(scan.rank(), 1.0);
        assert!(out.is_empty());
    }

    #[test]
    fn rank_scan_counts_strictly_greater_and_half_ties() {
        // `skip` past the end skips nothing.
        assert_eq!(rank_scan(&[0.5, 2.0, 3.0], 1.0, 3).rank(), 3.0);
        assert_eq!(rank_scan(&[], 1.0, 0).rank(), 1.0);
        // one greater, one equal -> 1 + 1 + 0.5
        assert_eq!(rank_scan(&[2.0, 1.0], 1.0, 2).rank(), 2.5);
        // NaN candidates are ignored
        assert_eq!(rank_scan(&[f64::NAN, 2.0], 1.0, 2).rank(), 2.0);
        // the skipped entry is not counted, whatever it holds
        assert_eq!(rank_scan(&[2.0, 1.0, 1.0], 1.0, 2).rank(), 2.5);
        assert_eq!(rank_scan(&[2.0, 1.0, 5.0], 1.0, 2).rank(), 2.5);
        // a NaN value has no competitors
        assert_eq!(rank_scan(&[2.0, f64::NAN], f64::NAN, 0).rank(), 1.0);
    }
}
