//! ComplEx (Trouillon et al., ICML 2016):
//! `f(h,r,t) = Re(⟨h, r, conj(t)⟩)` with complex-valued embeddings.
//!
//! Each embedding row stores the real part in components `0..d` and the
//! imaginary part in components `d..2d`, so the table dimension is `2d`.

use crate::batch::with_query_scratch;
use crate::embedding::EmbeddingTable;
use crate::gradient::{GradientSink, TableId};
use crate::scorer::{KgeModel, ModelKind, ENTITY_TABLE, RELATION_TABLE};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::vecops::dot;
use rand::Rng;

/// ComplEx with the real/imaginary split-storage layout.
#[derive(Debug, Clone)]
pub struct ComplEx {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    dim: usize,
}

impl ComplEx {
    /// A ComplEx model holding these tables as they are (a loaded
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

    /// Create a Xavier-initialised ComplEx model with complex dimension `dim`
    /// (so `2·dim` real parameters per row).
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        Self {
            entities: EmbeddingTable::xavier("entity", num_entities, 2 * dim, rng),
            relations: EmbeddingTable::xavier("relation", num_relations, 2 * dim, rng),
            dim,
        }
    }

    /// The score is linear in the candidate's `2d` real parameters, so the
    /// whole query side collapses into one vector `q` laid out like an entity
    /// row; each candidate then scores `q · e`.
    ///
    /// Tail corruption (`h = a+bi`, `r = c+di` fixed):
    /// `q[i] = a·c − b·d`, `q[d+i] = a·d + b·c`.
    /// Head corruption (`r = c+di`, `t = e+fi` fixed):
    /// `q[i] = c·e + d·f`, `q[d+i] = −d·e + c·f`.
    fn fill_query(&self, t: &Triple, side: CorruptionSide, q: &mut [f64]) {
        let r = self.relations.row(t.relation as usize);
        let d = self.dim;
        match side {
            CorruptionSide::Tail => {
                let h = self.entities.row(t.head as usize);
                for i in 0..d {
                    let (a, b) = (h[i], h[d + i]);
                    let (c, dd) = (r[i], r[d + i]);
                    q[i] = a * c - b * dd;
                    q[d + i] = a * dd + b * c;
                }
            }
            CorruptionSide::Head => {
                let tl = self.entities.row(t.tail as usize);
                for i in 0..d {
                    let (c, dd) = (r[i], r[d + i]);
                    let (e, f) = (tl[i], tl[d + i]);
                    q[i] = c * e + dd * f;
                    q[d + i] = -dd * e + c * f;
                }
            }
        }
    }
}

impl KgeModel for ComplEx {
    fn kind(&self) -> ModelKind {
        ModelKind::ComplEx
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
        let d = self.dim;
        let mut score = 0.0;
        for i in 0..d {
            // h = a + bi, r = c + di, t = e + fi;
            // Re((a+bi)(c+di)(e−fi)) = e(ac − bd) + f(ad + bc)
            let (a, b) = (h[i], h[d + i]);
            let (c, dd) = (r[i], r[d + i]);
            let (e, f) = (tl[i], tl[d + i]);
            score += e * (a * c - b * dd) + f * (a * dd + b * c);
        }
        score
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
        with_query_scratch(2 * self.dim, |q| {
            self.fill_query(t, side, q);
            for &e in candidates {
                out.push(dot(q, self.entities.row(e as usize)));
            }
        });
    }

    fn score_all_into(&self, t: &Triple, side: CorruptionSide, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.entities.rows());
        with_query_scratch(2 * self.dim, |q| {
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
        let d = self.dim;
        let mut grad_h = vec![0.0; 2 * d];
        let mut grad_r = vec![0.0; 2 * d];
        let mut grad_t = vec![0.0; 2 * d];
        for i in 0..d {
            let (a, b) = (h[i], h[d + i]);
            let (c, dd) = (r[i], r[d + i]);
            let (e, f) = (tl[i], tl[d + i]);
            // score_i = e(ac − bd) + f(ad + bc)
            grad_h[i] = c * e + dd * f; // ∂/∂a
            grad_h[d + i] = -dd * e + c * f; // ∂/∂b
            grad_r[i] = a * e + b * f; // ∂/∂c
            grad_r[d + i] = -b * e + a * f; // ∂/∂d
            grad_t[i] = a * c - b * dd; // ∂/∂e
            grad_t[d + i] = a * dd + b * c; // ∂/∂f
        }
        grads.add(ENTITY_TABLE, t.head as usize, &grad_h, coeff);
        grads.add(RELATION_TABLE, t.relation as usize, &grad_r, coeff);
        grads.add(ENTITY_TABLE, t.tail as usize, &grad_t, coeff);
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
            _ => panic!("ComplEx has no table {table}"),
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
        // Regularised, not constrained — see DistMult.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;

    fn tiny_model() -> ComplEx {
        let mut rng = seeded_rng(23);
        ComplEx::new(4, 2, 3, &mut rng)
    }

    #[test]
    fn real_embeddings_reduce_to_distmult() {
        let mut m = tiny_model();
        // zero imaginary parts ⇒ score = Σ a c e (DistMult)
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        m.tables_mut()[RELATION_TABLE].set_row(0, &[0.5, 0.5, 0.5, 0.0, 0.0, 0.0]);
        m.tables_mut()[ENTITY_TABLE].set_row(1, &[2.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((m.score(&Triple::new(0, 0, 1)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn imaginary_relation_makes_score_asymmetric() {
        let mut m = tiny_model();
        // purely imaginary relation embedding ⇒ f(h,r,t) = −f(t,r,h)
        m.tables_mut()[RELATION_TABLE].set_row(0, &[0.0, 0.0, 0.0, 0.7, -0.2, 0.4]);
        let t = Triple::new(0, 0, 1);
        let forward = m.score(&t);
        let backward = m.score(&t.reversed());
        assert!((forward + backward).abs() < 1e-12);
        assert!(forward.abs() > 1e-9, "score should be non-trivial");
    }

    #[test]
    fn table_dim_is_twice_the_complex_dim() {
        let m = tiny_model();
        assert_eq!(m.dim(), 3);
        assert_eq!(m.tables()[ENTITY_TABLE].dim(), 6);
        assert_eq!(m.num_parameters(), 4 * 6 + 2 * 6);
        assert_eq!(m.kind(), ModelKind::ComplEx);
    }

    #[test]
    fn score_matches_hand_computed_complex_product() {
        let mut m = tiny_model();
        // single complex dimension: use 3-dim model but set other dims to zero
        // h = 1 + 2i, r = 3 − i, t = 0.5 + 4i:
        // h·r = (1·3 − 2·(−1)) + (1·(−1) + 2·3) i = 5 + 5i
        // (5 + 5i)(0.5 − 4i) = 2.5 − 20i + 2.5i + 20 = 22.5 − 17.5i ⇒ Re = 22.5
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[1.0, 0.0, 0.0, 2.0, 0.0, 0.0]);
        m.tables_mut()[RELATION_TABLE].set_row(1, &[3.0, 0.0, 0.0, -1.0, 0.0, 0.0]);
        m.tables_mut()[ENTITY_TABLE].set_row(2, &[0.5, 0.0, 0.0, 4.0, 0.0, 0.0]);
        assert!((m.score(&Triple::new(0, 1, 2)) - 22.5).abs() < 1e-12);
    }
}
