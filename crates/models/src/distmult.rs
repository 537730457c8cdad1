//! DistMult (Yang et al., ICLR 2015): `f(h,r,t) = Σ_i h_i r_i t_i`.

use crate::batch::with_query_scratch;
use crate::embedding::EmbeddingTable;
use crate::gradient::{GradientSink, TableId};
use crate::scorer::{KgeModel, ModelKind, ENTITY_TABLE, RELATION_TABLE};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::vecops::{dot, hadamard};
use rand::Rng;

/// DistMult — a bilinear model with a diagonal relation matrix.
#[derive(Debug, Clone)]
pub struct DistMult {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    dim: usize,
}

impl DistMult {
    /// A DistMult model holding these tables as they are (a loaded
    /// snapshot's; see `crate::model_from_tables`).
    pub(crate) fn from_tables(
        entities: EmbeddingTable,
        relations: EmbeddingTable,
        dim: usize,
    ) -> Self {
        Self {
            entities,
            relations,
            dim,
        }
    }

    /// Create a Xavier-initialised DistMult model.
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        Self {
            entities: EmbeddingTable::xavier("entity", num_entities, dim, rng),
            relations: EmbeddingTable::xavier("relation", num_relations, dim, rng),
            dim,
        }
    }

    /// Candidate-independent query vector `q = h ∘ r` (tail corruption) or
    /// `q = r ∘ t` (head corruption); each candidate then scores `q · e`.
    fn fill_query(&self, t: &Triple, side: CorruptionSide, q: &mut [f64]) {
        let r = self.relations.row(t.relation as usize);
        let fixed = match side {
            CorruptionSide::Tail => self.entities.row(t.head as usize),
            CorruptionSide::Head => self.entities.row(t.tail as usize),
        };
        for ((qi, fi), ri) in q.iter_mut().zip(fixed).zip(r) {
            *qi = fi * ri;
        }
    }
}

impl KgeModel for DistMult {
    fn kind(&self) -> ModelKind {
        ModelKind::DistMult
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
        let h = self.entities.row(t.head as usize);
        let r = self.relations.row(t.relation as usize);
        let tl = self.entities.row(t.tail as usize);
        h.iter().zip(r).zip(tl).map(|((a, b), c)| a * b * c).sum()
    }

    fn score_candidates(
        &self,
        t: &Triple,
        side: CorruptionSide,
        candidates: &[EntityId],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(candidates.len());
        with_query_scratch(self.dim, |q| {
            self.fill_query(t, side, q);
            for &e in candidates {
                out.push(dot(q, self.entities.row(e as usize)));
            }
        });
    }

    fn score_all_into(&self, t: &Triple, side: CorruptionSide, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.entities.rows());
        with_query_scratch(self.dim, |q| {
            self.fill_query(t, side, q);
            for row in self.entities.rows_iter() {
                out.push(dot(q, row));
            }
        });
    }

    fn accumulate_score_gradient(&self, t: &Triple, coeff: f64, grads: &mut dyn GradientSink) {
        let h = self.entities.row(t.head as usize);
        let r = self.relations.row(t.relation as usize);
        let tl = self.entities.row(t.tail as usize);
        grads.add(ENTITY_TABLE, t.head as usize, &hadamard(r, tl), coeff);
        grads.add(RELATION_TABLE, t.relation as usize, &hadamard(h, tl), coeff);
        grads.add(ENTITY_TABLE, t.tail as usize, &hadamard(h, r), coeff);
    }

    fn tables(&self) -> Vec<&EmbeddingTable> {
        vec![&self.entities, &self.relations]
    }

    fn tables_mut(&mut self) -> Vec<&mut EmbeddingTable> {
        vec![&mut self.entities, &mut self.relations]
    }

    fn table_mut(&mut self, table: TableId) -> &mut EmbeddingTable {
        match table {
            ENTITY_TABLE => &mut self.entities,
            RELATION_TABLE => &mut self.relations,
            _ => panic!("DistMult has no table {table}"),
        }
    }

    fn parameter_rows(&self, t: &Triple) -> Vec<(TableId, usize)> {
        vec![
            (ENTITY_TABLE, t.head as usize),
            (RELATION_TABLE, t.relation as usize),
            (ENTITY_TABLE, t.tail as usize),
        ]
    }

    fn apply_constraints(&mut self, _touched: &[(TableId, usize)]) {
        // Semantic-matching models are regularised (soft penalty) rather than
        // constrained, following the paper's Eq. (2) setup.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_kg::CorruptionSide;
    use nscaching_math::seeded_rng;

    fn tiny_model() -> DistMult {
        let mut rng = seeded_rng(21);
        DistMult::new(4, 2, 3, &mut rng)
    }

    #[test]
    fn score_matches_manual_sum() {
        let mut m = tiny_model();
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[1.0, 2.0, 3.0]);
        m.tables_mut()[RELATION_TABLE].set_row(0, &[0.5, 0.5, 0.5]);
        m.tables_mut()[ENTITY_TABLE].set_row(1, &[2.0, 1.0, 0.0]);
        // 1*0.5*2 + 2*0.5*1 + 3*0.5*0 = 1 + 1 + 0
        assert!((m.score(&Triple::new(0, 0, 1)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn score_is_symmetric_in_head_and_tail() {
        let m = tiny_model();
        let t = Triple::new(0, 1, 3);
        assert!((m.score(&t) - m.score(&t.reversed())).abs() < 1e-12);
    }

    #[test]
    fn score_all_matches_individual_scores() {
        let m = tiny_model();
        let t = Triple::new(0, 0, 1);
        let all = m.score_all(&t, CorruptionSide::Tail);
        assert_eq!(all.len(), 4);
        for (e, s) in all.iter().enumerate() {
            assert!((s - m.score(&t.with_tail(e as u32))).abs() < 1e-12);
        }
    }

    #[test]
    fn constraints_are_a_noop() {
        let mut m = tiny_model();
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[5.0, 0.0, 0.0]);
        m.apply_constraints(&[(ENTITY_TABLE, 0)]);
        assert_eq!(m.tables()[ENTITY_TABLE].row(0), &[5.0, 0.0, 0.0]);
    }

    #[test]
    fn metadata() {
        let m = tiny_model();
        assert_eq!(m.kind(), ModelKind::DistMult);
        assert_eq!(m.num_parameters(), 4 * 3 + 2 * 3);
    }
}
