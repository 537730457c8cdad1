//! TransD (Ji et al., ACL 2015):
//! `h⊥ = h + (w_h·h)·w_r`, `t⊥ = t + (w_t·t)·w_r`,
//! `f(h,r,t) = −‖h⊥ + r − t⊥‖₁`.
//!
//! This is the dynamic-mapping-matrix model `M_rh = w_r w_hᵀ + I` specialised
//! to equal entity/relation dimensions, which is the configuration the paper
//! (and the original TransD code) uses.
//!
//! Batched scoring projects the query entity once, then each candidate
//! `e⊥ = e + (w_e·e)·w_r` inline into thread-local scratch, and scores it
//! with one L1 pass; nothing is cached across calls, so no update can leave
//! a stale projection behind.

use crate::batch::with_query_scratch;
use crate::embedding::EmbeddingTable;
use crate::gradient::{GradientSink, TableId};
use crate::scorer::{KgeModel, ModelKind, ENTITY_TABLE, RELATION_TABLE};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::vecops::{dot, l1_distance, l1_sum, signum};
use rand::Rng;

/// Index of the per-entity projection table `w_e` in [`TransD::tables`].
pub const ENTITY_PROJ_TABLE: TableId = 2;
/// Index of the per-relation projection table `w_r` in [`TransD::tables`].
pub const RELATION_PROJ_TABLE: TableId = 3;

/// TransD with L1 dissimilarity.
#[derive(Debug, Clone)]
pub struct TransD {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    entity_proj: EmbeddingTable,
    relation_proj: EmbeddingTable,
    dim: usize,
}

impl TransD {
    /// A TransD model holding these tables as they are (a loaded
    /// snapshot's; see `crate::model_from_tables`).
    pub(crate) fn from_tables(
        entities: EmbeddingTable,
        relations: EmbeddingTable,
        entity_proj: EmbeddingTable,
        relation_proj: EmbeddingTable,
        dim: usize,
    ) -> Self {
        Self {
            entities,
            relations,
            entity_proj,
            relation_proj,
            dim,
        }
    }

    /// Create a Xavier-initialised TransD model.
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let mut model = Self {
            entities: EmbeddingTable::xavier("entity", num_entities, dim, rng),
            relations: EmbeddingTable::xavier("relation", num_relations, dim, rng),
            entity_proj: EmbeddingTable::xavier("entity_proj", num_entities, dim, rng),
            relation_proj: EmbeddingTable::xavier("relation_proj", num_relations, dim, rng),
            dim,
        };
        for i in 0..num_entities {
            model.entities.project_row(i);
        }
        model
    }

    /// Residual `u = h + (w_h·h)·w_r + r − t − (w_t·t)·w_r` plus the scalars
    /// needed for the gradient.
    fn residual(&self, t: &Triple) -> Residual {
        let h = self.entities.row(t.head as usize);
        let tl = self.entities.row(t.tail as usize);
        let r = self.relations.row(t.relation as usize);
        let wh = self.entity_proj.row(t.head as usize);
        let wt = self.entity_proj.row(t.tail as usize);
        let wr = self.relation_proj.row(t.relation as usize);
        let wh_h = dot(wh, h);
        let wt_t = dot(wt, tl);
        let u: Vec<f64> = (0..self.dim)
            .map(|i| h[i] + wh_h * wr[i] + r[i] - tl[i] - wt_t * wr[i])
            .collect();
        Residual { u, wh_h, wt_t }
    }

    /// `e⊥ = e + (w_e·e)·w_r` into `out`.
    #[inline]
    fn project_row_into(&self, wr: &[f64], e: usize, out: &mut [f64]) {
        let row = self.entities.row(e);
        let proj = self.entity_proj.row(e);
        let s = dot(proj, row);
        for i in 0..out.len() {
            out[i] = row[i] + s * wr[i];
        }
    }

    /// Score each entity of `candidates` substituted at `side` of `t` into
    /// `out` (cleared first). The query entity is projected once into
    /// `q = e⊥ + r` (tail) or `q = r − e⊥` (head); each candidate is then
    /// projected into `p = e⊥` and scores `−‖q − p‖₁` (tail) or
    /// `−Σᵢ |p_i + q_i|` (head). Both buffers share one `2·d` scratch.
    fn score_projected(
        &self,
        t: &Triple,
        side: CorruptionSide,
        candidates: impl ExactSizeIterator<Item = usize>,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(candidates.len());
        let d = self.dim;
        let r = self.relations.row(t.relation as usize);
        let wr = self.relation_proj.row(t.relation as usize);
        let query_entity = match side {
            CorruptionSide::Tail => t.head,
            CorruptionSide::Head => t.tail,
        };
        with_query_scratch(2 * d, |scratch| {
            let (q, p) = scratch.split_at_mut(d);
            self.project_row_into(wr, query_entity as usize, p);
            query_from_projection(side, p, r, q);
            for e in candidates {
                self.project_row_into(wr, e, p);
                out.push(translational_score(side, q, p));
            }
        });
    }
}

/// The query context from the query entity's projection `p` and the
/// relation embedding `r`: `q = p + r` for tail corruption, `q = r − p` for
/// head corruption.
#[inline]
fn query_from_projection(side: CorruptionSide, p: &[f64], r: &[f64], q: &mut [f64]) {
    match side {
        CorruptionSide::Tail => {
            for i in 0..q.len() {
                q[i] = p[i] + r[i];
            }
        }
        CorruptionSide::Head => {
            for i in 0..q.len() {
                q[i] = r[i] - p[i];
            }
        }
    }
}

/// The score of a candidate with projection `p` against the query context
/// `q`: `−‖q − p‖₁` under tail corruption, `−Σᵢ |p_i + q_i|` under head
/// corruption.
#[inline]
fn translational_score(side: CorruptionSide, q: &[f64], p: &[f64]) -> f64 {
    match side {
        CorruptionSide::Tail => -l1_distance(q, p),
        CorruptionSide::Head => -l1_sum(p, q),
    }
}

struct Residual {
    u: Vec<f64>,
    wh_h: f64,
    wt_t: f64,
}

impl KgeModel for TransD {
    fn kind(&self) -> ModelKind {
        ModelKind::TransD
    }

    fn num_entities(&self) -> usize {
        self.entities.rows()
    }

    fn num_relations(&self) -> usize {
        self.relations.rows()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn score(&self, t: &Triple) -> f64 {
        -self.residual(t).u.iter().map(|v| v.abs()).sum::<f64>()
    }

    fn score_candidates(
        &self,
        t: &Triple,
        side: CorruptionSide,
        candidates: &[EntityId],
        out: &mut Vec<f64>,
    ) {
        self.score_projected(t, side, candidates.iter().map(|&e| e as usize), out);
    }

    fn score_all_into(&self, t: &Triple, side: CorruptionSide, out: &mut Vec<f64>) {
        self.score_projected(t, side, 0..self.entities.rows(), out);
    }

    fn accumulate_score_gradient(&self, t: &Triple, coeff: f64, grads: &mut dyn GradientSink) {
        // f = −‖u‖₁ with u = h + (w_h·h) w_r + r − t − (w_t·t) w_r.
        // Let s = sign(u); ∂f/∂u = −s.
        //   ∂u/∂h   = I + w_r w_hᵀ        ⇒ ∂f/∂h   = −(s + (w_r·s) w_h)
        //   ∂u/∂t   = −(I + w_r w_tᵀ)     ⇒ ∂f/∂t   = +(s + (w_r·s) w_t)
        //   ∂u/∂r   = I                   ⇒ ∂f/∂r   = −s
        //   ∂u/∂w_h = w_r hᵀ              ⇒ ∂f/∂w_h = −(w_r·s) h
        //   ∂u/∂w_t = −w_r tᵀ             ⇒ ∂f/∂w_t = +(w_r·s) t
        //   ∂u/∂w_r = ((w_h·h) − (w_t·t))I⇒ ∂f/∂w_r = −((w_h·h) − (w_t·t)) s
        let res = self.residual(t);
        let s = signum(&res.u);
        let h = self.entities.row(t.head as usize);
        let tl = self.entities.row(t.tail as usize);
        let wh = self.entity_proj.row(t.head as usize);
        let wt = self.entity_proj.row(t.tail as usize);
        let wr = self.relation_proj.row(t.relation as usize);
        let wr_s = dot(wr, &s);

        let grad_h: Vec<f64> = s.iter().zip(wh).map(|(si, whi)| si + wr_s * whi).collect();
        let grad_t: Vec<f64> = s.iter().zip(wt).map(|(si, wti)| si + wr_s * wti).collect();
        grads.add(ENTITY_TABLE, t.head as usize, &grad_h, -coeff);
        grads.add(ENTITY_TABLE, t.tail as usize, &grad_t, coeff);
        grads.add(RELATION_TABLE, t.relation as usize, &s, -coeff);
        grads.add(ENTITY_PROJ_TABLE, t.head as usize, h, -coeff * wr_s);
        grads.add(ENTITY_PROJ_TABLE, t.tail as usize, tl, coeff * wr_s);
        grads.add(
            RELATION_PROJ_TABLE,
            t.relation as usize,
            &s,
            -coeff * (res.wh_h - res.wt_t),
        );
    }

    fn tables(&self) -> Vec<&EmbeddingTable> {
        vec![
            &self.entities,
            &self.relations,
            &self.entity_proj,
            &self.relation_proj,
        ]
    }

    fn tables_mut(&mut self) -> Vec<&mut EmbeddingTable> {
        vec![
            &mut self.entities,
            &mut self.relations,
            &mut self.entity_proj,
            &mut self.relation_proj,
        ]
    }

    fn table_mut(&mut self, table: TableId) -> &mut EmbeddingTable {
        match table {
            ENTITY_TABLE => &mut self.entities,
            RELATION_TABLE => &mut self.relations,
            ENTITY_PROJ_TABLE => &mut self.entity_proj,
            RELATION_PROJ_TABLE => &mut self.relation_proj,
            _ => panic!("TransD has no table {table}"),
        }
    }

    fn parameter_rows(&self, t: &Triple) -> Vec<(TableId, usize)> {
        vec![
            (ENTITY_TABLE, t.head as usize),
            (RELATION_TABLE, t.relation as usize),
            (ENTITY_TABLE, t.tail as usize),
            (ENTITY_PROJ_TABLE, t.head as usize),
            (ENTITY_PROJ_TABLE, t.tail as usize),
            (RELATION_PROJ_TABLE, t.relation as usize),
        ]
    }

    fn apply_constraints(&mut self, touched: &[(TableId, usize)]) {
        for &(table, row) in touched {
            if table == ENTITY_TABLE {
                self.entities.project_row(row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;

    fn tiny_model() -> TransD {
        let mut rng = seeded_rng(11);
        TransD::new(6, 3, 4, &mut rng)
    }

    #[test]
    fn reduces_to_transe_when_projections_are_zero() {
        let mut m = tiny_model();
        let dim = m.dim();
        for e in 0..6 {
            m.tables_mut()[ENTITY_PROJ_TABLE].set_row(e, &vec![0.0; dim]);
        }
        for r in 0..3 {
            m.tables_mut()[RELATION_PROJ_TABLE].set_row(r, &vec![0.0; dim]);
        }
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[0.2, 0.0, 0.0, 0.0]);
        m.tables_mut()[RELATION_TABLE].set_row(0, &[0.1, 0.0, 0.0, 0.0]);
        m.tables_mut()[ENTITY_TABLE].set_row(1, &[0.3, 0.0, 0.0, 0.0]);
        let s = m.score(&Triple::new(0, 0, 1));
        assert!((s - 0.0).abs() < 1e-12);
    }

    #[test]
    fn projection_changes_the_score() {
        let mut m = tiny_model();
        let base = m.score(&Triple::new(0, 0, 1));
        let dim = m.dim();
        m.tables_mut()[RELATION_PROJ_TABLE].set_row(0, &vec![0.5; dim]);
        m.tables_mut()[ENTITY_PROJ_TABLE].set_row(0, &vec![0.5; dim]);
        let changed = m.score(&Triple::new(0, 0, 1));
        assert!((base - changed).abs() > 1e-9);
    }

    #[test]
    fn four_tables_and_parameter_rows() {
        let m = tiny_model();
        assert_eq!(m.tables().len(), 4);
        assert_eq!(m.num_parameters(), (6 + 3 + 6 + 3) * 4);
        let rows = m.parameter_rows(&Triple::new(1, 2, 4));
        assert_eq!(rows.len(), 6);
        assert!(rows.contains(&(ENTITY_PROJ_TABLE, 1)));
        assert!(rows.contains(&(ENTITY_PROJ_TABLE, 4)));
        assert!(rows.contains(&(RELATION_PROJ_TABLE, 2)));
    }

    #[test]
    fn constraints_touch_only_entity_embeddings() {
        let mut m = tiny_model();
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[3.0, 0.0, 4.0, 0.0]);
        m.tables_mut()[ENTITY_PROJ_TABLE].set_row(0, &[3.0, 0.0, 4.0, 0.0]);
        m.apply_constraints(&[(ENTITY_TABLE, 0), (ENTITY_PROJ_TABLE, 0)]);
        assert!((m.tables()[ENTITY_TABLE].row_norm(0) - 1.0).abs() < 1e-12);
        assert!((m.tables()[ENTITY_PROJ_TABLE].row_norm(0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn kind_is_transd() {
        assert_eq!(tiny_model().kind(), ModelKind::TransD);
    }

    #[test]
    fn projection_update_invalidates_cached_projections() {
        let mut m = tiny_model();
        let t = Triple::new(0, 0, 1);
        let candidates: Vec<u32> = (0..6).collect();
        let mut before = Vec::new();
        m.score_candidates(&t, CorruptionSide::Tail, &candidates, &mut before);

        // w_e and w_r feed e⊥ but live in tables of their own: batched
        // scores must follow updates to them too, not only to entities.
        let dim = m.dim();
        m.tables_mut()[ENTITY_PROJ_TABLE].set_row(4, &vec![0.3; dim]);
        m.tables_mut()[RELATION_PROJ_TABLE].set_row(0, &vec![-0.2; dim]);

        let mut after = Vec::new();
        m.score_candidates(&t, CorruptionSide::Tail, &candidates, &mut after);
        assert_ne!(before, after, "stale projections must not survive updates");
        for (&e, score) in candidates.iter().zip(&after) {
            let scalar = m.score(&t.corrupted(CorruptionSide::Tail, e));
            assert!(
                (score - scalar).abs() <= 1e-12,
                "candidate {e}: batched {score} vs scalar {scalar}"
            );
        }
    }
}
