//! The optimizer configuration and its checkpointable state.

use serde::{Deserialize, Serialize};

/// A checkpointable copy of [`Adam`](crate::Adam)'s per-row state slabs.
///
/// One entry per parameter table, indexed by table id, each holding the
/// `rows × dim` row-major moment slabs plus the per-row step counters (see
/// the crate docs). [`Adam::export_state`](crate::Adam::export_state) /
/// [`Adam::import_state`](crate::Adam::import_state) round-trip it;
/// `nscaching_serve` serialises it into the snapshot format.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptimizerState {
    /// One slab per parameter table, in table-id order.
    pub tables: Vec<AdamTableState>,
}

/// One table's exported Adam state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdamTableState {
    /// Row dimension (0 for a table that was never touched).
    pub dim: usize,
    /// First moments, `rows × dim` row-major.
    pub m: Vec<f64>,
    /// Second moments, `rows × dim` row-major.
    pub v: Vec<f64>,
    /// Per-row step counters (0 = never touched).
    pub t: Vec<u64>,
}

/// Declarative optimizer configuration: Adam at the given learning rate,
/// with its default `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8` (the paper's
/// optimizer, Section IV-A2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Learning rate η.
    pub learning_rate: f64,
}

impl OptimizerConfig {
    /// The paper's optimizer: Adam with the given learning rate.
    pub fn adam(learning_rate: f64) -> Self {
        Self { learning_rate }
    }
}
