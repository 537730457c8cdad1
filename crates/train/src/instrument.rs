//! Per-epoch instrumentation: the quantities behind Figures 7, 8 and 10.
//!
//! [`RepeatTracker`] keeps its window of negatives in one map, pruned at
//! every epoch boundary, so its memory is bounded by the distinct negatives
//! of `window + 1` epochs.

use nscaching_kg::Triple;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Summary statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean per-example training loss.
    pub mean_loss: f64,
    /// Fraction of examples whose loss produced a non-zero gradient — the
    /// "NZL" ratio of Figures 7(b) and 8(b).
    pub nonzero_loss_ratio: f64,
    /// Mean L2 norm of the mini-batch gradients — Figure 10.
    pub mean_gradient_norm: f64,
    /// Negative-sample repeat ratio over the configured window — Figure 7(a).
    pub repeat_ratio: f64,
    /// Cache elements changed during the epoch (0 for cache-less samplers) —
    /// Figure 8(a).
    pub changed_cache_elements: u64,
    /// Wall-clock seconds spent in this epoch (training only, no snapshots).
    pub seconds: f64,
    /// Number of training examples processed.
    pub examples: usize,
}

impl EpochStats {
    /// TSV row used by the experiment binaries.
    pub fn tsv_row(&self) -> String {
        format!(
            "{}\t{:.6}\t{:.4}\t{:.6}\t{:.4}\t{}\t{:.3}\t{}",
            self.epoch,
            self.mean_loss,
            self.nonzero_loss_ratio,
            self.mean_gradient_norm,
            self.repeat_ratio,
            self.changed_cache_elements,
            self.seconds,
            self.examples
        )
    }

    /// Header matching [`tsv_row`](Self::tsv_row).
    pub fn tsv_header() -> &'static str {
        "epoch\tmean_loss\tnzl_ratio\tgrad_norm\trepeat_ratio\tcache_changes\tseconds\texamples"
    }
}

/// Tracks how often the same negative triple is drawn within a sliding window
/// of epochs (the "RR" measure of Figure 7(a)).
///
/// A draw counts as a *repeat* when the same negative triple was already
/// drawn earlier within the window: earlier in the current epoch, or in one
/// of the last `window` closed epochs.
///
/// One map holds each negative drawn within the window with the epoch it was
/// last drawn in, so a draw costs one map insert, and a deque holds the draw
/// count of each closed epoch in the window. Every
/// [`end_epoch`](Self::end_epoch) prunes the map to the window, so it holds
/// at most the distinct negatives of `window + 1` epochs, at one
/// `(Triple, u32)` entry of 16 bytes each.
#[derive(Debug, Clone)]
pub struct RepeatTracker {
    window: usize,
    /// The current epoch's number, counted from 0 and wrapping.
    epoch: u32,
    /// Each negative drawn within the window → the epoch it was last drawn in.
    last_drawn: HashMap<Triple, u32>,
    /// Draws of each closed epoch in the window, oldest first.
    closed_draws: VecDeque<u64>,
    /// Draws of the current epoch.
    current_draws: u64,
    draws_in_window: u64,
    repeats_in_window: u64,
}

impl RepeatTracker {
    /// Track repeats over a window of `window` epochs (≥ 1).
    pub fn new(window: usize) -> Self {
        Self {
            window: window.max(1),
            epoch: 0,
            last_drawn: HashMap::new(),
            closed_draws: VecDeque::new(),
            current_draws: 0,
            draws_in_window: 0,
            repeats_in_window: 0,
        }
    }

    /// Record one sampled negative triple.
    pub fn record(&mut self, negative: Triple) {
        self.draws_in_window += 1;
        self.current_draws += 1;
        if self.last_drawn.insert(negative, self.epoch).is_some() {
            self.repeats_in_window += 1;
        }
    }

    /// The repeat ratio over the current window, in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        if self.draws_in_window == 0 {
            return 0.0;
        }
        self.repeats_in_window as f64 / self.draws_in_window as f64
    }

    /// Close the current epoch; evicts epochs that fall out of the window and
    /// drops the negatives last drawn in them.
    pub fn end_epoch(&mut self) {
        self.closed_draws
            .push_back(std::mem::take(&mut self.current_draws));
        while self.closed_draws.len() > self.window {
            if let Some(evicted_draws) = self.closed_draws.pop_front() {
                // Recompute window totals without the evicted epoch. The exact
                // repeat attribution within the window is approximate once
                // eviction starts; the trend (Bernoulli ≈ 0, NSCaching ≫ 0) is
                // what Figure 7 reads off, and that is preserved.
                self.draws_in_window = self.draws_in_window.saturating_sub(evicted_draws);
                self.repeats_in_window = self.repeats_in_window.min(self.draws_in_window);
            }
        }
        self.epoch = self.epoch.wrapping_add(1);
        // Keep the negatives last drawn in one of the closed epochs still in
        // the window: those are 1..=closed_draws.len() epochs old now.
        let (epoch, kept) = (self.epoch, self.closed_draws.len() as u32);
        self.last_drawn
            .retain(|_, drawn| epoch.wrapping_sub(*drawn) <= kept);
    }
}

/// Accumulates the per-epoch statistics while an epoch runs.
#[derive(Debug, Clone, Default)]
pub struct EpochAccumulator {
    loss_sum: f64,
    examples: usize,
    nonzero: usize,
    grad_norm_sum: f64,
    grad_batches: usize,
}

impl EpochAccumulator {
    /// Start a fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one training example's loss.
    pub fn record_example(&mut self, loss: f64, nonzero: bool) {
        self.loss_sum += loss;
        self.examples += 1;
        if nonzero {
            self.nonzero += 1;
        }
    }

    /// Record one mini-batch gradient norm.
    pub fn record_batch_gradient(&mut self, norm: f64) {
        self.grad_norm_sum += norm;
        self.grad_batches += 1;
    }

    /// Number of examples recorded so far.
    pub fn examples(&self) -> usize {
        self.examples
    }

    /// Finalise into an [`EpochStats`].
    pub fn finish(
        self,
        epoch: usize,
        repeat_ratio: f64,
        changed_cache_elements: u64,
        seconds: f64,
    ) -> EpochStats {
        EpochStats {
            epoch,
            mean_loss: if self.examples == 0 {
                0.0
            } else {
                self.loss_sum / self.examples as f64
            },
            nonzero_loss_ratio: if self.examples == 0 {
                0.0
            } else {
                self.nonzero as f64 / self.examples as f64
            },
            mean_gradient_norm: if self.grad_batches == 0 {
                0.0
            } else {
                self.grad_norm_sum / self.grad_batches as f64
            },
            repeat_ratio,
            changed_cache_elements,
            seconds,
            examples: self.examples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tracker as first written: one map per epoch in the window, each
    /// draw probing the current map and every closed one.
    struct PerEpochMapTracker {
        window: usize,
        current: HashMap<Triple, u64>,
        history: VecDeque<HashMap<Triple, u64>>,
        draws_in_window: u64,
        repeats_in_window: u64,
    }

    impl PerEpochMapTracker {
        fn new(window: usize) -> Self {
            Self {
                window: window.max(1),
                current: HashMap::new(),
                history: VecDeque::new(),
                draws_in_window: 0,
                repeats_in_window: 0,
            }
        }

        fn record(&mut self, negative: Triple) {
            self.draws_in_window += 1;
            let seen_before = self.current.contains_key(&negative)
                || self.history.iter().any(|m| m.contains_key(&negative));
            if seen_before {
                self.repeats_in_window += 1;
            }
            *self.current.entry(negative).or_insert(0) += 1;
        }

        fn ratio(&self) -> f64 {
            if self.draws_in_window == 0 {
                return 0.0;
            }
            self.repeats_in_window as f64 / self.draws_in_window as f64
        }

        fn end_epoch(&mut self) {
            self.history.push_back(std::mem::take(&mut self.current));
            while self.history.len() > self.window {
                if let Some(evicted) = self.history.pop_front() {
                    let evicted_draws: u64 = evicted.values().sum();
                    self.draws_in_window = self.draws_in_window.saturating_sub(evicted_draws);
                    self.repeats_in_window = self.repeats_in_window.min(self.draws_in_window);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn repeat_ratio_matches_the_per_epoch_map_tracker(
            window in 1usize..=6,
            alphabet in 3u32..=400,
            // `(0, _)` closes the epoch; `(_, x)` draws triple number x.
            steps in prop::collection::vec((0u32..20, any::<u32>()), 0..600),
        ) {
            let triple = |x: u32| {
                let i = x % alphabet;
                Triple::new(i % 97, 0, i / 97)
            };
            let (mut tracker, mut oracle) = (RepeatTracker::new(window), PerEpochMapTracker::new(window));
            for (kind, x) in steps {
                if kind != 0 {
                    tracker.record(triple(x));
                    oracle.record(triple(x));
                } else {
                    tracker.end_epoch();
                    oracle.end_epoch();
                    // Exactly the negatives of the closed epochs still in the
                    // window remain, none older.
                    for &drawn in tracker.last_drawn.values() {
                        prop_assert!(tracker.epoch.wrapping_sub(drawn) as usize <= window);
                    }
                    let mut in_window: Vec<Triple> =
                        oracle.history.iter().flat_map(|m| m.keys().copied()).collect();
                    in_window.sort_unstable_by_key(|t| (t.head, t.relation, t.tail));
                    in_window.dedup();
                    prop_assert_eq!(tracker.last_drawn.len(), in_window.len());
                    prop_assert!(in_window.iter().all(|t| tracker.last_drawn.contains_key(t)));
                }
                prop_assert_eq!(tracker.ratio().to_bits(), oracle.ratio().to_bits());
            }
        }
    }

    #[test]
    fn repeat_tracker_counts_repeats_within_the_window() {
        let mut t = RepeatTracker::new(2);
        let a = Triple::new(0, 0, 1);
        let b = Triple::new(0, 0, 2);
        t.record(a);
        t.record(b);
        assert_eq!(t.ratio(), 0.0);
        t.record(a); // repeat
        assert!((t.ratio() - 1.0 / 3.0).abs() < 1e-12);
        t.end_epoch();
        // next epoch: a is still within the window, so drawing it repeats
        t.record(a);
        assert!(t.ratio() > 0.0);
    }

    #[test]
    fn repeat_tracker_evicts_old_epochs() {
        let mut t = RepeatTracker::new(1);
        let a = Triple::new(1, 0, 2);
        t.record(a);
        t.end_epoch();
        t.record(a); // within window of 1 epoch back -> repeat
        assert!(t.ratio() > 0.0);
        t.end_epoch();
        t.end_epoch(); // pushes the old epoch out of the window
        assert_eq!(t.ratio(), 0.0, "empty window has no repeats");
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let t = RepeatTracker::new(5);
        assert_eq!(t.ratio(), 0.0);
    }

    #[test]
    fn accumulator_averages_losses_and_gradients() {
        let mut acc = EpochAccumulator::new();
        acc.record_example(1.0, true);
        acc.record_example(0.0, false);
        acc.record_example(2.0, true);
        acc.record_batch_gradient(3.0);
        acc.record_batch_gradient(5.0);
        assert_eq!(acc.examples(), 3);
        let stats = acc.finish(7, 0.25, 42, 1.5);
        assert_eq!(stats.epoch, 7);
        assert!((stats.mean_loss - 1.0).abs() < 1e-12);
        assert!((stats.nonzero_loss_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.mean_gradient_norm - 4.0).abs() < 1e-12);
        assert_eq!(stats.changed_cache_elements, 42);
        assert_eq!(stats.examples, 3);
        assert!((stats.repeat_ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_finishes_with_zeros() {
        let stats = EpochAccumulator::new().finish(0, 0.0, 0, 0.0);
        assert_eq!(stats.mean_loss, 0.0);
        assert_eq!(stats.nonzero_loss_ratio, 0.0);
        assert_eq!(stats.mean_gradient_norm, 0.0);
    }

    #[test]
    fn tsv_row_has_the_documented_columns() {
        let stats = EpochAccumulator::new().finish(3, 0.5, 7, 0.25);
        let row = stats.tsv_row();
        assert_eq!(
            row.split('\t').count(),
            EpochStats::tsv_header().split('\t').count()
        );
        assert!(row.starts_with("3\t"));
    }
}
