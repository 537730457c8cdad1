//! TransE (Bordes et al., NIPS 2013): `f(h,r,t) = −‖h + r − t‖₁`.

use crate::batch::with_query_scratch;
use crate::embedding::EmbeddingTable;
use crate::gradient::{GradientSink, TableId};
use crate::scorer::{KgeModel, ModelKind, ENTITY_TABLE, RELATION_TABLE};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::vecops::{l1_distance, signum};
use rand::Rng;

/// TransE with the L1 dissimilarity used throughout the paper.
#[derive(Debug, Clone)]
pub struct TransE {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    dim: usize,
}

impl TransE {
    /// A TransE model holding these tables as they are (a loaded
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

    /// Create a Xavier-initialised TransE model.
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let mut model = Self {
            entities: EmbeddingTable::xavier("entity", num_entities, dim, rng),
            relations: EmbeddingTable::xavier("relation", num_relations, dim, rng),
            dim,
        };
        // TransE constrains entity embeddings to the unit ball from the start.
        for i in 0..num_entities {
            model.entities.project_row(i);
        }
        model
    }

    /// Residual vector `h + r − t`.
    fn residual(&self, t: &Triple) -> Vec<f64> {
        let h = self.entities.row(t.head as usize);
        let r = self.relations.row(t.relation as usize);
        let tl = self.entities.row(t.tail as usize);
        h.iter()
            .zip(r)
            .zip(tl)
            .map(|((hv, rv), tv)| hv + rv - tv)
            .collect()
    }

    /// Candidate-independent query vector: once `q` is filled, the score of
    /// a candidate row `e` is `−‖e − q‖₁` on either corruption side
    /// (`q = h + r` when corrupting the tail, `q = t − r` for the head).
    fn fill_query(&self, t: &Triple, side: CorruptionSide, q: &mut [f64]) {
        let r = self.relations.row(t.relation as usize);
        match side {
            CorruptionSide::Tail => {
                let h = self.entities.row(t.head as usize);
                for ((qi, hi), ri) in q.iter_mut().zip(h).zip(r) {
                    *qi = hi + ri;
                }
            }
            CorruptionSide::Head => {
                let tl = self.entities.row(t.tail as usize);
                for ((qi, ti), ri) in q.iter_mut().zip(tl).zip(r) {
                    *qi = ti - ri;
                }
            }
        }
    }
}

impl KgeModel for TransE {
    fn kind(&self) -> ModelKind {
        ModelKind::TransE
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
        -self.residual(t).iter().map(|v| v.abs()).sum::<f64>()
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
                out.push(-l1_distance(self.entities.row(e as usize), q));
            }
        });
    }

    fn score_all_into(&self, t: &Triple, side: CorruptionSide, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.entities.rows());
        with_query_scratch(self.dim, |q| {
            self.fill_query(t, side, q);
            for row in self.entities.rows_iter() {
                out.push(-l1_distance(row, q));
            }
        });
    }

    fn l1_scan_query(
        &self,
        t: &Triple,
        side: CorruptionSide,
        q: &mut Vec<f64>,
    ) -> Option<&EmbeddingTable> {
        q.clear();
        q.resize(self.dim, 0.0);
        self.fill_query(t, side, q);
        Some(&self.entities)
    }

    fn accumulate_score_gradient(&self, t: &Triple, coeff: f64, grads: &mut dyn GradientSink) {
        // f = −‖u‖₁ with u = h + r − t ⇒ ∂f/∂u = −sign(u).
        let u = self.residual(t);
        let s = signum(&u);
        grads.add(ENTITY_TABLE, t.head as usize, &s, -coeff);
        grads.add(RELATION_TABLE, t.relation as usize, &s, -coeff);
        grads.add(ENTITY_TABLE, t.tail as usize, &s, coeff);
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
            _ => panic!("TransE has no table {table}"),
        }
    }

    fn parameter_rows(&self, t: &Triple) -> Vec<(TableId, usize)> {
        vec![
            (ENTITY_TABLE, t.head as usize),
            (RELATION_TABLE, t.relation as usize),
            (ENTITY_TABLE, t.tail as usize),
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

    fn tiny_model() -> TransE {
        let mut rng = seeded_rng(42);
        TransE::new(5, 2, 4, &mut rng)
    }

    #[test]
    fn score_is_negative_l1_distance() {
        let mut m = tiny_model();
        // force h + r = t exactly -> distance 0 -> score 0 (maximum)
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[0.1, 0.2, 0.3, 0.4]);
        m.tables_mut()[RELATION_TABLE].set_row(0, &[0.0, 0.1, 0.0, -0.1]);
        m.tables_mut()[ENTITY_TABLE].set_row(1, &[0.1, 0.3, 0.3, 0.3]);
        let s = m.score(&Triple::new(0, 0, 1));
        assert!((s - 0.0).abs() < 1e-12);
        // any other tail scores strictly worse unless it coincides
        let worse = m.score(&Triple::new(0, 0, 2));
        assert!(worse <= 0.0);
    }

    #[test]
    fn perfect_triple_scores_higher_than_perturbed() {
        let mut m = tiny_model();
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[0.5, 0.0, 0.0, 0.0]);
        m.tables_mut()[RELATION_TABLE].set_row(1, &[0.0, 0.5, 0.0, 0.0]);
        m.tables_mut()[ENTITY_TABLE].set_row(2, &[0.5, 0.5, 0.0, 0.0]);
        m.tables_mut()[ENTITY_TABLE].set_row(3, &[-0.5, -0.5, 0.0, 0.0]);
        let good = m.score(&Triple::new(0, 1, 2));
        let bad = m.score(&Triple::new(0, 1, 3));
        assert!(good > bad);
    }

    #[test]
    fn entity_constraint_projects_to_unit_ball() {
        let mut m = tiny_model();
        m.tables_mut()[ENTITY_TABLE].set_row(4, &[3.0, 0.0, 0.0, 4.0]);
        m.apply_constraints(&[(ENTITY_TABLE, 4)]);
        assert!((m.tables()[ENTITY_TABLE].row_norm(4) - 1.0).abs() < 1e-12);
        // relation rows are not projected
        m.tables_mut()[RELATION_TABLE].set_row(0, &[3.0, 0.0, 0.0, 4.0]);
        m.apply_constraints(&[(RELATION_TABLE, 0)]);
        assert!((m.tables()[RELATION_TABLE].row_norm(0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn parameter_rows_cover_h_r_t() {
        let m = tiny_model();
        let rows = m.parameter_rows(&Triple::new(1, 0, 3));
        assert!(rows.contains(&(ENTITY_TABLE, 1)));
        assert!(rows.contains(&(ENTITY_TABLE, 3)));
        assert!(rows.contains(&(RELATION_TABLE, 0)));
    }

    #[test]
    fn the_l1_scan_query_reproduces_every_batched_score_bit_for_bit() {
        let mut rng = seeded_rng(7);
        // d = 37 exercises the kernel's blocks and its remainder.
        let m = TransE::new(50, 3, 37, &mut rng);
        let mut scores = Vec::new();
        let mut q = Vec::new();
        for t in [Triple::new(4, 2, 9), Triple::new(0, 0, 49)] {
            for side in [CorruptionSide::Tail, CorruptionSide::Head] {
                m.score_all_into(&t, side, &mut scores);
                let table = m
                    .l1_scan_query(&t, side, &mut q)
                    .expect("TransE has an L1 form");
                assert_eq!(q.len(), 37);
                assert_eq!(table.rows(), m.num_entities());
                for (e, score) in scores.iter().enumerate() {
                    let l1 = -l1_distance(table.row(e), &q);
                    assert_eq!(l1.to_bits(), score.to_bits(), "{t:?} {side:?} entity {e}");
                }
            }
        }
    }

    #[test]
    fn num_parameters_matches_table_sizes() {
        let m = tiny_model();
        assert_eq!(m.num_parameters(), 5 * 4 + 2 * 4);
        assert_eq!(m.kind(), ModelKind::TransE);
        assert_eq!(m.dim(), 4);
        assert_eq!(m.num_entities(), 5);
        assert_eq!(m.num_relations(), 2);
    }
}
