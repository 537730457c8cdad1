//! Training configuration.

use nscaching_eval::EvalProtocol;
use nscaching_optim::OptimizerConfig;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a training run.
///
/// Defaults follow Section IV-A2 of the paper (Adam, margin and penalty from
/// the grid the paper searches over) scaled to the synthetic benchmarks: the
/// paper trains for up to 1000–3000 epochs on a GPU; the synthetic datasets
/// converge within tens of epochs on a CPU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of training epochs.
    pub epochs: usize,
    /// Mini-batch size `m`.
    pub batch_size: usize,
    /// The Adam optimizer's learning rate, the one setting the paper tunes
    /// (its other settings are Adam's defaults).
    pub optimizer: OptimizerConfig,
    /// Margin `γ` for translational-distance models (Eq. (1)).
    pub margin: f64,
    /// L2 penalty `λ` for semantic-matching models (Eq. (2)).
    pub lambda: f64,
    /// Evaluate on validation/test every this many epochs (0 = never until
    /// the end).
    pub eval_every: usize,
    /// Protocol used for the periodic snapshots.
    pub snapshot_protocol: EvalProtocol,
    /// Protocol used for the final evaluation.
    pub final_protocol: EvalProtocol,
    /// Window (in epochs) over which the negative-sample repeat ratio is
    /// computed (the paper uses 20).
    pub repeat_window: usize,
    /// Master RNG seed for shuffling and sampling.
    pub seed: u64,
    /// Number of training shards (worker threads per mini-batch).
    ///
    /// `1` (the default) runs the paper-exact sequential schedule on the
    /// calling thread and the master RNG stream. Larger values partition
    /// each mini-batch by cache key across `shards` pool workers with
    /// decorrelated per-shard RNG streams, and reduce gradients in shard
    /// order — deterministic for a fixed `(seed, shards)` pair, but a
    /// *different* (equally valid) trajectory than `shards = 1`. The default
    /// honours the `NSC_SHARDS` environment variable so the CI matrix can run
    /// the whole test suite at several shard counts.
    pub shards: usize,
}

/// Kept so that callers naming it keep compiling: every shard count runs
/// the one pipeline of [`Trainer::train_epoch`](crate::Trainer::train_epoch),
/// so `Auto` is the only value and [`TrainConfig::with_runtime`] ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainRuntime {
    /// The shard count alone picks how the epoch runs.
    Auto,
}

/// Default shard count: `NSC_SHARDS` when set (panicking on malformed values
/// so a CI-matrix typo cannot silently fall back to one shard),
/// else 1. The paper experiment binaries pin their shard count
/// from `--threads` instead of this default — see
/// `nscaching_bench::standard_train_config` — so exported test-matrix
/// environment never changes published table trajectories.
fn default_shards() -> usize {
    match std::env::var("NSC_SHARDS") {
        Ok(v) => v
            .parse::<usize>()
            .unwrap_or_else(|e| panic!("NSC_SHARDS must be a positive integer, got {v:?}: {e}"))
            .max(1),
        Err(_) => 1,
    }
}

impl TrainConfig {
    /// A quick default suitable for the synthetic benchmarks.
    pub fn new(epochs: usize) -> Self {
        Self {
            epochs,
            batch_size: 256,
            optimizer: OptimizerConfig::adam(0.01),
            margin: 3.0,
            // The paper searches λ ∈ {0.001, 0.01, 0.1} under Bernoulli
            // sampling and keeps the validation-best value; on the synthetic
            // benchmarks that is 0.001.
            lambda: 0.001,
            eval_every: 0,
            snapshot_protocol: EvalProtocol::filtered().with_max_triples(200),
            final_protocol: EvalProtocol::filtered(),
            repeat_window: 20,
            seed: 0,
            shards: default_shards(),
        }
    }

    /// Set the mini-batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Set the Adam optimizer's configuration (its learning rate).
    pub fn with_optimizer(mut self, optimizer: OptimizerConfig) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Set the margin `γ`.
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// Set the L2 penalty `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Take evaluation snapshots every `epochs` epochs.
    pub fn with_eval_every(mut self, epochs: usize) -> Self {
        self.eval_every = epochs;
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of training shards (clamped to ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Kept for existing callers: a no-op, since every shard count runs one
    /// epoch pipeline (see [`TrainRuntime`]).
    pub fn with_runtime(self, _runtime: TrainRuntime) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TrainConfig::new(10);
        assert_eq!(c.epochs, 10);
        assert!(c.batch_size > 0);
        assert!(c.margin > 0.0);
        assert!(c.lambda >= 0.0);
        assert_eq!(c.repeat_window, 20);
        assert!(c.final_protocol.filtered);
        assert!(c.shards >= 1);
    }

    #[test]
    fn shards_builder_clamps_to_one() {
        assert_eq!(TrainConfig::new(1).with_shards(4).shards, 4);
        assert_eq!(TrainConfig::new(1).with_shards(0).shards, 1);
    }

    #[test]
    fn builders_apply() {
        let c = TrainConfig::new(5)
            .with_batch_size(64)
            .with_margin(1.0)
            .with_lambda(0.1)
            .with_eval_every(2)
            .with_seed(9)
            .with_optimizer(OptimizerConfig::adam(0.5));
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.margin, 1.0);
        assert_eq!(c.lambda, 0.1);
        assert_eq!(c.eval_every, 2);
        assert_eq!(c.seed, 9);
        assert_eq!(c.optimizer, OptimizerConfig::adam(0.5));
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_is_rejected() {
        let _ = TrainConfig::new(1).with_batch_size(0);
    }
}
