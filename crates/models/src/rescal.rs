//! RESCAL (Nickel et al., ICML 2011): `f(h,r,t) = hᵀ M_r t` with a full
//! relation matrix `M_r ∈ ℝ^{d×d}`.

use crate::batch::with_query_scratch;
use crate::embedding::EmbeddingTable;
use crate::gradient::{GradientSink, TableId};
use crate::scorer::{KgeModel, ModelKind, ENTITY_TABLE};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::vecops::dot;
use rand::Rng;

/// Index of the relation-matrix table (each row is a flattened `d×d` matrix).
/// RESCAL has no relation *vector*; the second table is the matrix table so
/// that `RELATION_TABLE` still addresses per-relation parameters.
pub const MATRIX_TABLE: TableId = 1;

/// RESCAL — the original bilinear tensor-factorisation model.
#[derive(Debug, Clone)]
pub struct Rescal {
    entities: EmbeddingTable,
    matrices: EmbeddingTable,
    dim: usize,
}

impl Rescal {
    /// A RESCAL model holding these tables as they are (a loaded
    /// snapshot's; see `crate::model_from_tables`).
    pub(crate) fn from_tables(
        entities: EmbeddingTable,
        matrices: EmbeddingTable,
        dim: usize,
    ) -> Self {
        Self {
            entities,
            matrices,
            dim,
        }
    }

    /// Create a Xavier-initialised RESCAL model.
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        Self {
            entities: EmbeddingTable::xavier("entity", num_entities, dim, rng),
            matrices: EmbeddingTable::xavier("relation_matrix", num_relations, dim * dim, rng),
            dim,
        }
    }

    /// The bilinear form is linear in the candidate, so the whole query side
    /// collapses into one vector: `q = hᵀ·M_r` for tail corruption,
    /// `q = M_r·t` for head corruption; each candidate then scores `q · e`.
    fn fill_query(&self, t: &Triple, side: CorruptionSide, q: &mut [f64]) {
        let m = self.matrices.row(t.relation as usize);
        let d = self.dim;
        match side {
            CorruptionSide::Tail => {
                let h = self.entities.row(t.head as usize);
                for (i, &hi) in h.iter().enumerate() {
                    let mi = &m[i * d..(i + 1) * d];
                    for (qj, mij) in q.iter_mut().zip(mi) {
                        *qj += hi * mij;
                    }
                }
            }
            CorruptionSide::Head => {
                let tl = self.entities.row(t.tail as usize);
                for (i, qi) in q.iter_mut().enumerate() {
                    *qi = dot(&m[i * d..(i + 1) * d], tl);
                }
            }
        }
    }
}

impl KgeModel for Rescal {
    fn kind(&self) -> ModelKind {
        ModelKind::Rescal
    }

    fn num_entities(&self) -> usize {
        self.entities.rows()
    }

    fn num_relations(&self) -> usize {
        self.matrices.rows()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn score(&self, t: &Triple) -> f64 {
        let h = self.entities.row(t.head as usize);
        let tl = self.entities.row(t.tail as usize);
        let m = self.matrices.row(t.relation as usize);
        let d = self.dim;
        (0..d).map(|i| h[i] * dot(&m[i * d..(i + 1) * d], tl)).sum()
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
        // f = hᵀ M t ⇒ ∂f/∂h = M t, ∂f/∂t = Mᵀ h, ∂f/∂M = h tᵀ.
        let h = self.entities.row(t.head as usize);
        let tl = self.entities.row(t.tail as usize);
        let m = self.matrices.row(t.relation as usize);
        let d = self.dim;

        let m_t: Vec<f64> = (0..d).map(|i| dot(&m[i * d..(i + 1) * d], tl)).collect();
        let mt_h: Vec<f64> = (0..d)
            .map(|j| (0..d).map(|i| m[i * d + j] * h[i]).sum())
            .collect();
        grads.add(ENTITY_TABLE, t.head as usize, &m_t, coeff);
        grads.add(ENTITY_TABLE, t.tail as usize, &mt_h, coeff);

        let mut grad_m = vec![0.0; d * d];
        for i in 0..d {
            for j in 0..d {
                grad_m[i * d + j] = h[i] * tl[j];
            }
        }
        grads.add(MATRIX_TABLE, t.relation as usize, &grad_m, coeff);
    }

    fn tables(&self) -> Vec<&EmbeddingTable> {
        vec![&self.entities, &self.matrices]
    }

    fn tables_mut(&mut self) -> Vec<&mut EmbeddingTable> {
        vec![&mut self.entities, &mut self.matrices]
    }

    fn table_mut(&mut self, table: TableId) -> &mut EmbeddingTable {
        match table {
            ENTITY_TABLE => &mut self.entities,
            1 => &mut self.matrices,
            _ => panic!("RESCAL has no table {table}"),
        }
    }

    fn parameter_rows(&self, t: &Triple) -> Vec<(TableId, usize)> {
        vec![
            (ENTITY_TABLE, t.head as usize),
            (MATRIX_TABLE, t.relation as usize),
            (ENTITY_TABLE, t.tail as usize),
        ]
    }

    fn apply_constraints(&mut self, _touched: &[(TableId, usize)]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;

    fn tiny_model() -> Rescal {
        let mut rng = seeded_rng(31);
        Rescal::new(4, 2, 2, &mut rng)
    }

    #[test]
    fn score_matches_manual_bilinear_form() {
        let mut m = tiny_model();
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[1.0, 2.0]);
        m.tables_mut()[ENTITY_TABLE].set_row(1, &[3.0, -1.0]);
        // M = [[1, 0], [2, 1]]
        m.tables_mut()[MATRIX_TABLE].set_row(0, &[1.0, 0.0, 2.0, 1.0]);
        // hᵀ M t = [1,2]·[[1,0],[2,1]]·[3,-1] = [1,2]·[3, 5]... compute:
        // M t = [1*3 + 0*(-1), 2*3 + 1*(-1)] = [3, 5]; h·[3,5] = 3 + 10 = 13
        assert!((m.score(&Triple::new(0, 0, 1)) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn identity_matrix_reduces_to_dot_product() {
        let mut m = tiny_model();
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[0.5, -0.25]);
        m.tables_mut()[ENTITY_TABLE].set_row(2, &[2.0, 4.0]);
        m.tables_mut()[MATRIX_TABLE].set_row(1, &[1.0, 0.0, 0.0, 1.0]);
        assert!((m.score(&Triple::new(0, 1, 2)) - (0.5 * 2.0 - 0.25 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_matrix_gives_asymmetric_scores() {
        let mut m = tiny_model();
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[1.0, 0.0]);
        m.tables_mut()[ENTITY_TABLE].set_row(1, &[0.0, 1.0]);
        m.tables_mut()[MATRIX_TABLE].set_row(0, &[0.0, 1.0, 0.0, 0.0]);
        let t = Triple::new(0, 0, 1);
        assert!((m.score(&t) - 1.0).abs() < 1e-12);
        assert!((m.score(&t.reversed()) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn metadata_and_parameter_count() {
        let m = tiny_model();
        assert_eq!(m.kind(), ModelKind::Rescal);
        assert_eq!(m.num_relations(), 2);
        assert_eq!(m.num_parameters(), 4 * 2 + 2 * 4);
        let rows = m.parameter_rows(&Triple::new(0, 1, 3));
        assert!(rows.contains(&(MATRIX_TABLE, 1)));
    }
}
