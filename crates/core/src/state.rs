//! Portable sampler state for full-state checkpointing.
//!
//! The paper's contribution is a *stateful* sampler: NSCaching's `H`/`T`
//! candidate caches evolve with the model, and the GAN baselines carry a
//! jointly-trained generator plus its optimizer moments and reward baseline.
//! An exact-resume checkpoint that omits this state restarts those samplers
//! from scratch — a *valid* trajectory, but not the one that was interrupted.
//!
//! [`SamplerState`] is the typed, serialisation-agnostic capture of that
//! state. Every [`NegativeSampler`](crate::NegativeSampler) exports one at an
//! epoch boundary ([`export_state`](crate::NegativeSampler::export_state))
//! and re-imports it on resume
//! ([`import_state`](crate::NegativeSampler::import_state)); the binary
//! encoding (a dedicated snapshot section) lives in `nscaching_serve`.
//!
//! # Why an epoch boundary is enough
//!
//! Checkpoints are taken between epochs, where the transient parts of every
//! sampler are provably empty or re-derivable:
//!
//! * sharded epochs' per-shard RNG streams are pure functions of
//!   `(seed, epoch, shard)`, so restoring the epoch counter restores them;
//! * the GAN samplers' per-shard slots (pending draw, buffered REINFORCE
//!   gradients, reward lists) are drained by `merge_batch` at the end of
//!   every mini-batch;
//! * NSCaching's scratch buffers carry no trajectory state at all.
//!
//! What *must* be captured is exactly what the variants below hold: the cache
//! entries and refresh/changed-element counters (NSCaching), and the
//! generator tables, optimizer slabs, baseline and step counter (KBGAN/IGAN).

use nscaching_kg::EntityId;
use nscaching_optim::OptimizerState;

/// One materialised cache entry: its key and candidate entities, in cache
/// order (the order matters — sampling indexes into it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntryState {
    /// The cache key: `(r, t)` for the head cache, `(h, r)` for the tail.
    pub key: (u32, u32),
    /// The cached candidate entities, in stored order.
    pub entities: Vec<EntityId>,
}

/// The full contents of one [`NegativeCache`](crate::NegativeCache),
/// with entries sorted by key so the capture is deterministic (the live
/// cache is a hash map whose iteration order is not).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheState {
    /// Pending changed-element count (the CE measure of Figure 8) not yet
    /// drained by `take_changed_elements`.
    pub changed_elements: u64,
    /// Every materialised entry, sorted ascending by key.
    pub entries: Vec<CacheEntryState>,
}

/// One NSCaching shard's head/tail cache pair plus its refresh counter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NsCachingShardState {
    /// Cache refresh operations performed by this shard so far.
    pub refresh_count: u64,
    /// The head cache `H`, keyed by `(r, t)`.
    pub head: CacheState,
    /// The tail cache `T`, keyed by `(h, r)`.
    pub tail: CacheState,
}

/// Evolving state of an [`NsCachingSampler`](crate::NsCachingSampler):
/// the per-shard `H`/`T` caches and the lazy-update flag.
#[derive(Debug, Clone, PartialEq)]
pub struct NsCachingState {
    /// Whether cache refreshes are enabled in the upcoming epoch (the
    /// lazy-update schedule's output for the checkpointed epoch boundary).
    pub updates_enabled: bool,
    /// One entry per shard, in shard order. The shard layout is part of the
    /// state: entries belong to the shard their positives route to.
    pub shards: Vec<NsCachingShardState>,
}

/// Which GAN baseline a [`GeneratorSampler`](crate::GeneratorSampler) runs,
/// and so which one a [`GeneratorState`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// KBGAN: [`GeneratorSampler::kbgan`](crate::GeneratorSampler::kbgan).
    KbGan,
    /// IGAN: [`GeneratorSampler::igan`](crate::GeneratorSampler::igan).
    Igan,
}

impl GeneratorKind {
    /// Human-readable sampler name (matches `NegativeSampler::name`).
    pub fn name(&self) -> &'static str {
        match self {
            GeneratorKind::KbGan => "KBGAN",
            GeneratorKind::Igan => "IGAN",
        }
    }
}

/// One generator parameter table (mirrors the model snapshot's table layout,
/// kept separate so `nscaching` does not depend on the serve crate).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorTableState {
    /// Table name (schema check at import).
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// Row dimension.
    pub dim: usize,
    /// `rows × dim` values, row-major.
    pub data: Vec<f64>,
}

/// Evolving state of a GAN-style sampler: the jointly-trained generator's
/// parameter tables, its optimizer state, and the REINFORCE bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorState {
    /// Which sampler exported this state.
    pub kind: GeneratorKind,
    /// Moving-average reward baseline.
    pub baseline: f64,
    /// REINFORCE updates applied so far.
    pub feedback_steps: u64,
    /// Generator parameter tables, in `KgeModel::tables()` order.
    pub tables: Vec<GeneratorTableState>,
    /// Generator optimizer state slabs (Adam moments + step counters).
    pub optimizer: OptimizerState,
}

/// A sampler's evolving state at an epoch boundary, as captured by
/// [`NegativeSampler::export_state`](crate::NegativeSampler::export_state).
#[derive(Debug, Clone, PartialEq)]
pub enum SamplerState {
    /// The sampler's state is a pure function of `(dataset, seed)` — Uniform
    /// and Bernoulli. Nothing to persist. This is also what legacy
    /// checkpoints (written before sampler sections existed) decode to.
    Stateless,
    /// NSCaching's per-shard `H`/`T` caches.
    NsCaching(NsCachingState),
    /// A GAN sampler's generator, optimizer and REINFORCE bookkeeping.
    Generator(GeneratorState),
}

impl SamplerState {
    /// Short label used in mismatch errors.
    pub fn kind_name(&self) -> &'static str {
        match self {
            SamplerState::Stateless => "stateless",
            SamplerState::NsCaching(_) => "NSCaching",
            SamplerState::Generator(g) => g.kind.name(),
        }
    }
}

/// Capture every parameter table of a generator model (the generator
/// sampler's `export_state`).
pub(crate) fn capture_generator_tables(
    model: &dyn nscaching_models::KgeModel,
) -> Vec<GeneratorTableState> {
    model
        .tables()
        .into_iter()
        .map(|t| GeneratorTableState {
            name: t.name().to_string(),
            rows: t.rows(),
            dim: t.dim(),
            data: t.data().to_vec(),
        })
        .collect()
}

/// Overwrite a generator model's tables with captured values, validating
/// name/shape so a capture from a differently-configured generator fails
/// loudly instead of scoring garbage.
pub(crate) fn restore_generator_tables(
    model: &mut dyn nscaching_models::KgeModel,
    tables: &[GeneratorTableState],
) -> Result<(), String> {
    let mut live = model.tables_mut();
    if live.len() != tables.len() {
        return Err(format!(
            "generator has {} tables but the capture holds {}",
            live.len(),
            tables.len()
        ));
    }
    for (table, captured) in live.iter_mut().zip(tables) {
        if table.name() != captured.name
            || table.rows() != captured.rows
            || table.dim() != captured.dim
        {
            return Err(format!(
                "generator table {:?} ({}×{}) does not match captured table {:?} ({}×{})",
                table.name(),
                table.rows(),
                table.dim(),
                captured.name,
                captured.rows,
                captured.dim
            ));
        }
        if captured.data.len() != captured.rows * captured.dim {
            return Err(format!(
                "captured table {:?} slab holds {} values, expected {}",
                captured.name,
                captured.data.len(),
                captured.rows * captured.dim
            ));
        }
        table.data_mut().copy_from_slice(&captured.data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(SamplerState::Stateless.kind_name(), "stateless");
        assert_eq!(GeneratorKind::KbGan.name(), "KBGAN");
        assert_eq!(GeneratorKind::Igan.name(), "IGAN");
    }
}
