//! Training-loop telemetry: per-phase batch timers, shard balance, and the
//! [`EpochStats`] bridge onto the metrics registry.
//!
//! # Phase boundaries
//!
//! Both engines run each mini-batch through the staged pipeline of the
//! crate docs; the timers cut at the stage boundaries, **once per batch**
//! (two clock reads per phase per batch — noise next to a batch of model
//! scores, which is what keeps the `NSC_OBS_OVERHEAD_MAX` gate honest):
//!
//! | phase | covers |
//! |-------|--------|
//! | `shard` | partitioning the mini-batch by cache key (pool engine) |
//! | `sample_score` | the fused sample → score → gradient stage. Algorithm 2 interleaves sampling and scoring *per positive*, so they are one phase by construction — splitting them would need per-example clocks |
//! | `merge` | folding shard outputs in ascending shard order |
//! | `apply` | the optimizer step + constraint projection |
//!
//! The sequential engine has no shard/merge stages; it records only
//! `sample_score` and `apply`.
//!
//! # Derived gauge
//!
//! `nsc_train_shard_imbalance` — mean over the epoch's batches of
//! `largest shard / mean shard` (1.0 = perfectly balanced partition).
//!
//! An unattached trainer ([`Trainer::attach_metrics`] never called) takes
//! **zero** clock reads: every timer site is gated on the `Option`.
//!
//! [`Trainer::attach_metrics`]: crate::Trainer::attach_metrics

use crate::instrument::EpochStats;
use nscaching_obs::{Counter, Gauge, LatencyHistogram, MetricsRegistry};
use std::sync::Arc;

/// Registered handles for every training-loop metric.
#[derive(Debug)]
pub struct TrainMetrics {
    /// Batch-partition time per mini-batch, microseconds.
    pub(crate) phase_shard: Arc<LatencyHistogram>,
    /// Fused sample/score/gradient stage per mini-batch, microseconds.
    pub(crate) phase_sample_score: Arc<LatencyHistogram>,
    /// Ordered shard-output merge per mini-batch, microseconds.
    pub(crate) phase_merge: Arc<LatencyHistogram>,
    /// Optimizer step + constraints per mini-batch, microseconds.
    pub(crate) phase_apply: Arc<LatencyHistogram>,
    /// See the module docs; set at every epoch epilogue (trivially 1.0 for
    /// the sequential engine).
    pub(crate) shard_imbalance: Arc<Gauge>,
    /// Epochs finished by an instrumented trainer.
    epochs: Arc<Counter>,
    /// Training examples processed.
    examples: Arc<Counter>,
    /// Sampler cache elements changed (the CE measure of Figure 8).
    cache_changes: Arc<Counter>,
    /// Last epoch's mean per-example loss.
    mean_loss: Arc<Gauge>,
    /// Last epoch's non-zero-loss ratio (NZL, Figures 7(b)/8(b)).
    nonzero_loss_ratio: Arc<Gauge>,
    /// Last epoch's mean mini-batch gradient norm (Figure 10).
    gradient_norm: Arc<Gauge>,
    /// Last epoch's negative-sample repeat ratio (RR, Figure 7(a)).
    repeat_ratio: Arc<Gauge>,
    /// Last epoch's wall-clock seconds.
    epoch_seconds: Arc<Gauge>,
}

impl TrainMetrics {
    /// Register every training metric on `registry` and return the shared
    /// handle set. Idempotent per registry.
    pub fn register(registry: &MetricsRegistry) -> Arc<Self> {
        let phase = |name: &str| registry.histogram_with("nsc_train_phase_us", &[("phase", name)]);
        Arc::new(Self {
            phase_shard: phase("shard"),
            phase_sample_score: phase("sample_score"),
            phase_merge: phase("merge"),
            phase_apply: phase("apply"),
            shard_imbalance: registry.gauge("nsc_train_shard_imbalance"),
            epochs: registry.counter("nsc_train_epochs_total"),
            examples: registry.counter("nsc_train_examples_total"),
            cache_changes: registry.counter("nsc_train_cache_changes_total"),
            mean_loss: registry.gauge("nsc_train_mean_loss"),
            nonzero_loss_ratio: registry.gauge("nsc_train_nonzero_loss_ratio"),
            gradient_norm: registry.gauge("nsc_train_gradient_norm"),
            repeat_ratio: registry.gauge("nsc_train_repeat_ratio"),
            epoch_seconds: registry.gauge("nsc_train_epoch_seconds"),
        })
    }

    /// Bridge one finished epoch's [`EpochStats`] onto the registry. The
    /// TSV emitted by the experiment binaries is untouched — this is the
    /// same numbers on a second, scrapeable surface.
    pub fn publish_epoch(&self, stats: &EpochStats) {
        self.epochs.inc();
        self.examples.add(stats.examples as u64);
        self.cache_changes.add(stats.changed_cache_elements);
        self.mean_loss.set(stats.mean_loss);
        self.nonzero_loss_ratio.set(stats.nonzero_loss_ratio);
        self.gradient_norm.set(stats.mean_gradient_norm);
        self.repeat_ratio.set(stats.repeat_ratio);
        self.epoch_seconds.set(stats.seconds);
    }
}

/// Epoch-local accumulator behind the shard-imbalance gauge; lives on the
/// trainer's stack for one epoch, folded into the gauge at the epilogue.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct EpochPhaseAcc {
    /// Σ per-batch `max shard size` (imbalance numerator).
    pub max_shard: u64,
    /// Σ per-batch `total positives` (imbalance denominator, × shards).
    pub total_positives: u64,
}

impl EpochPhaseAcc {
    /// `mean(largest shard / mean shard)` over the epoch, ≥ 1 when any
    /// positives were partitioned.
    pub fn imbalance(&self, shards: usize) -> f64 {
        if self.total_positives == 0 {
            return 1.0;
        }
        self.max_shard as f64 * shards as f64 / self.total_positives as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_epoch_lands_on_the_registry() {
        let registry = MetricsRegistry::new();
        let metrics = TrainMetrics::register(&registry);
        metrics.publish_epoch(&EpochStats {
            epoch: 0,
            mean_loss: 0.5,
            nonzero_loss_ratio: 0.75,
            mean_gradient_norm: 2.0,
            repeat_ratio: 0.1,
            changed_cache_elements: 42,
            seconds: 1.25,
            examples: 900,
        });
        assert_eq!(
            registry.counter_value("nsc_train_epochs_total", &[]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("nsc_train_examples_total", &[]),
            Some(900)
        );
        assert_eq!(registry.gauge_value("nsc_train_mean_loss", &[]), Some(0.5));
        assert_eq!(
            registry.gauge_value("nsc_train_epoch_seconds", &[]),
            Some(1.25)
        );
    }

    #[test]
    fn imbalance_has_sane_edges() {
        let empty = EpochPhaseAcc::default();
        assert_eq!(empty.imbalance(4), 1.0);

        // 2 batches of 8 positives on 4 shards, max shard 3 then 5.
        let acc = EpochPhaseAcc {
            max_shard: 8,
            total_positives: 16,
        };
        assert!((acc.imbalance(4) - 2.0).abs() < 1e-12);
    }
}
