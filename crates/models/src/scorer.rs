//! The scoring-function trait every embedding model implements.

use crate::embedding::EmbeddingTable;
use crate::gradient::{GradientSink, TableId};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use serde::{Deserialize, Serialize};

/// Index of the entity-embedding table in every model's `tables()` list.
pub const ENTITY_TABLE: TableId = 0;
/// Index of the relation-embedding table in every model's `tables()` list.
pub const RELATION_TABLE: TableId = 1;

/// The scoring functions implemented by this crate: the five of the paper's
/// Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// `‖h + r − t‖₁` (negated) — Bordes et al., 2013.
    TransE,
    /// Hyperplane-projected TransE — Wang et al., 2014.
    TransH,
    /// Dynamic-mapping-matrix projection — Ji et al., 2015.
    TransD,
    /// `h · diag(r) · t` — Yang et al., 2015.
    DistMult,
    /// `Re(h · diag(r) · conj(t))` — Trouillon et al., 2016.
    ComplEx,
}

impl ModelKind {
    /// All model kinds, in the order used by the experiment tables.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::TransE,
        ModelKind::TransH,
        ModelKind::TransD,
        ModelKind::DistMult,
        ModelKind::ComplEx,
    ];

    /// Human readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::TransE => "TransE",
            ModelKind::TransH => "TransH",
            ModelKind::TransD => "TransD",
            ModelKind::DistMult => "DistMult",
            ModelKind::ComplEx => "ComplEx",
        }
    }

    /// Whether the model is a translational-distance model (margin loss) or a
    /// semantic-matching model (logistic loss), following Section II of the
    /// paper.
    pub fn loss_type(&self) -> LossType {
        match self {
            ModelKind::TransE | ModelKind::TransH | ModelKind::TransD => LossType::MarginRanking,
            ModelKind::DistMult | ModelKind::ComplEx => LossType::Logistic,
        }
    }
}

/// Which of the paper's two training objectives a model uses (Eq. (1) vs (2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LossType {
    /// Pairwise margin ranking loss `[γ − f(pos) + f(neg)]₊` (Eq. (1)).
    MarginRanking,
    /// Pointwise logistic loss `ℓ(+1, f(pos)) + ℓ(−1, f(neg))` (Eq. (2)).
    Logistic,
}

/// A knowledge-graph embedding model: parameters plus a differentiable
/// scoring function.
///
/// Larger scores always mean "more plausible"; translational models return
/// the negative distance so that this convention holds uniformly, exactly as
/// in the paper's Eq. (1).
pub trait KgeModel: Send + Sync {
    /// Which scoring function this is.
    fn kind(&self) -> ModelKind;

    /// Entity vocabulary size.
    fn num_entities(&self) -> usize;

    /// Relation vocabulary size.
    fn num_relations(&self) -> usize;

    /// Embedding dimension `d` (for ComplEx this is the complex dimension;
    /// the real parameter count per entity is `2d`).
    fn dim(&self) -> usize;

    /// Plausibility score `f(h, r, t)`.
    fn score(&self, triple: &Triple) -> f64;

    /// Accumulate `coeff · ∂f(h,r,t)/∂θ` into `grads` (the training engine
    /// passes a `GradientArena`; the equivalence suites a `GradientBuffer`).
    fn accumulate_score_gradient(&self, triple: &Triple, coeff: f64, grads: &mut dyn GradientSink);

    /// The parameter tables, in a fixed order starting with
    /// `[ENTITY_TABLE, RELATION_TABLE, ...]`.
    fn tables(&self) -> Vec<&EmbeddingTable>;

    /// Mutable access to the parameter tables, same order as [`Self::tables`].
    fn tables_mut(&mut self) -> Vec<&mut EmbeddingTable>;

    /// Mutable access to a single parameter table.
    ///
    /// The optimizers' apply walk resolves each touched `(table, row)` pair
    /// through this instead of materialising the whole [`Self::tables_mut`]
    /// list, keeping the per-batch optimizer step free of heap allocation.
    /// Models override the default with a direct field match.
    fn table_mut(&mut self, table: TableId) -> &mut EmbeddingTable {
        self.tables_mut().swap_remove(table)
    }

    /// Parameter rows `(table, row)` involved in scoring `triple`; used for
    /// per-example L2 regularisation and constraint application.
    fn parameter_rows(&self, triple: &Triple) -> Vec<(TableId, usize)>;

    /// Re-impose model-specific constraints (unit-ball entity norms, unit
    /// normal vectors, …) on the given rows after an optimizer step.
    fn apply_constraints(&mut self, touched: &[(TableId, usize)]);

    /// Default loss for this model, derived from its kind.
    fn loss_type(&self) -> LossType {
        self.kind().loss_type()
    }

    /// Score each entity in `candidates` substituted at `side` of `triple`,
    /// appending one score per candidate to `out` (which is cleared first).
    ///
    /// This is the batched fast path used by the NSCaching sampler, the
    /// KBGAN/IGAN generators and the link-prediction ranker. Every model in
    /// this crate overrides it to hoist the query-side work (everything that
    /// depends only on the two fixed elements of `triple`) out of the
    /// candidate loop, so each candidate costs one fused, allocation-free
    /// pass over the embedding dimension.
    ///
    /// # Invariants
    ///
    /// * `out.len() == candidates.len()` on return, in candidate order.
    /// * Each score equals `self.score(&triple.corrupted(side, e))` up to
    ///   floating-point reassociation (within `1e-12` — enforced by the
    ///   equivalence proptests in `tests/batch_equivalence.rs`).
    /// * Candidate lists may be empty, contain duplicates, or contain the
    ///   positive's own entity; no deduplication or masking happens here.
    /// * Steady-state calls perform no heap allocation beyond growing `out`
    ///   and a thread-local query-context buffer to their high-water marks.
    fn score_candidates(
        &self,
        triple: &Triple,
        side: CorruptionSide,
        candidates: &[EntityId],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(candidates.len());
        for &e in candidates {
            out.push(self.score(&triple.corrupted(side, e)));
        }
    }

    /// Score *every* entity substituted at `side` of `triple` into `out`
    /// (cleared first; `out.len() == num_entities()` on return).
    ///
    /// Semantically identical to calling [`Self::score_candidates`] with
    /// `0..num_entities()`, but models override it to stream the entity table
    /// row-by-row instead of gathering through an index list. Same
    /// equivalence and allocation invariants as [`Self::score_candidates`].
    fn score_all_into(&self, triple: &Triple, side: CorruptionSide, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.num_entities());
        for e in 0..self.num_entities() as u32 {
            out.push(self.score(&triple.corrupted(side, e)));
        }
    }

    /// The L1 form of this model's full-vocabulary scores, if it has one.
    ///
    /// A model answers yes by filling `q` (cleared first) and returning the
    /// table whose row `e` is entity `e`'s embedding, under this contract:
    /// every score [`Self::score_all_into`] writes for `side` of `triple` is
    /// `−nscaching_math::l1_distance(table.row(e), q)`, **bit for bit**. The
    /// returned table is the same for every `triple` and `side`.
    ///
    /// The serving engine keeps that table on a 15-bit fixed-point grid
    /// (`nscaching_math::L1Grid`) and answers full-vocabulary top-k and rank
    /// queries by scanning the grid, then rescoring exactly, with this `q`,
    /// only the rows the grid's error bound cannot rule out; the bit-for-bit
    /// contract is what makes those answers equal the full scan's. The
    /// default answers no (`None`), which leaves every scan on
    /// [`Self::score_all_into`].
    fn l1_scan_query(
        &self,
        _triple: &Triple,
        _side: CorruptionSide,
        _q: &mut Vec<f64>,
    ) -> Option<&EmbeddingTable> {
        None
    }

    /// Score every entity substituted at `side` of `triple`.
    ///
    /// Allocating convenience wrapper around [`Self::score_all_into`]; hot
    /// paths should call the `_into` variant with a reused buffer instead.
    fn score_all(&self, triple: &Triple, side: CorruptionSide) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_entities());
        self.score_all_into(triple, side, &mut out);
        out
    }

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.tables().iter().map(|t| t.num_parameters()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_type_split_matches_the_paper() {
        assert_eq!(ModelKind::TransE.loss_type(), LossType::MarginRanking);
        assert_eq!(ModelKind::TransH.loss_type(), LossType::MarginRanking);
        assert_eq!(ModelKind::TransD.loss_type(), LossType::MarginRanking);
        assert_eq!(ModelKind::DistMult.loss_type(), LossType::Logistic);
        assert_eq!(ModelKind::ComplEx.loss_type(), LossType::Logistic);
    }

    #[test]
    fn names_are_the_paper_names() {
        assert_eq!(ModelKind::TransE.name(), "TransE");
        assert_eq!(ModelKind::ComplEx.name(), "ComplEx");
    }

    #[test]
    fn paper_subset_is_five_models() {
        assert_eq!(ModelKind::ALL.len(), 5);
    }
}
