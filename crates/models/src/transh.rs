//! TransH (Wang et al., AAAI 2014):
//! `f(h,r,t) = −‖(h − wᵣᵀh·wᵣ) + r − (t − wᵣᵀt·wᵣ)‖₁`,
//! i.e. TransE on the hyperplane with unit normal `wᵣ`.

use crate::batch::with_query_scratch;
use crate::embedding::EmbeddingTable;
use crate::gradient::{GradientSink, TableId};
use crate::scorer::{KgeModel, ModelKind, ENTITY_TABLE, RELATION_TABLE};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::vecops::{dot, l1_combine, signum};
use rand::Rng;

/// Index of the relation-normal table `wᵣ` in [`TransH::tables`].
pub const NORMAL_TABLE: TableId = 2;

/// TransH with L1 dissimilarity.
#[derive(Debug, Clone)]
pub struct TransH {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    normals: EmbeddingTable,
    dim: usize,
}

impl TransH {
    /// A TransH model holding these tables as they are (a loaded
    /// snapshot's; see `crate::model_from_tables`).
    pub(crate) fn from_tables(
        entities: EmbeddingTable,
        relations: EmbeddingTable,
        normals: EmbeddingTable,
        dim: usize,
    ) -> Self {
        Self {
            entities,
            relations,
            normals,
            dim,
        }
    }

    /// Create a Xavier-initialised TransH model. Relation normals are
    /// normalised to unit length immediately, as required by the model.
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let entities = EmbeddingTable::xavier("entity", num_entities, dim, rng);
        let relations = EmbeddingTable::xavier("relation", num_relations, dim, rng);
        let mut normals = EmbeddingTable::xavier("relation_normal", num_relations, dim, rng);
        normals.normalize_rows();
        let mut model = Self {
            entities,
            relations,
            normals,
            dim,
        };
        for i in 0..num_entities {
            model.entities.project_row(i);
        }
        model
    }

    /// Residual on the relation hyperplane:
    /// `u = (h − t) − (wᵣ·(h − t))·wᵣ + r`.
    fn residual(&self, t: &Triple) -> (Vec<f64>, Vec<f64>, f64) {
        let h = self.entities.row(t.head as usize);
        let r = self.relations.row(t.relation as usize);
        let tl = self.entities.row(t.tail as usize);
        let w = self.normals.row(t.relation as usize);
        let x: Vec<f64> = h.iter().zip(tl).map(|(a, b)| a - b).collect();
        let wx = dot(w, &x);
        let u: Vec<f64> = x
            .iter()
            .zip(r)
            .zip(w)
            .map(|((xi, ri), wi)| xi + ri - wx * wi)
            .collect();
        (u, x, wx)
    }

    /// Candidate-independent part of the hyperplane residual.
    ///
    /// Corrupting the tail: `q_i = h_i + r_i − (w·h)·w_i` and the residual of
    /// candidate `t` is `q − t + (w·t)·w`. Corrupting the head:
    /// `q_i = r_i − t_i + (w·t)·w_i` and the residual of candidate `h` is
    /// `h + q − (w·h)·w`.
    fn fill_query(&self, t: &Triple, side: CorruptionSide, q: &mut [f64]) {
        let r = self.relations.row(t.relation as usize);
        let w = self.normals.row(t.relation as usize);
        match side {
            CorruptionSide::Tail => {
                let h = self.entities.row(t.head as usize);
                let wh = dot(w, h);
                for i in 0..q.len() {
                    q[i] = h[i] + r[i] - wh * w[i];
                }
            }
            CorruptionSide::Head => {
                let tl = self.entities.row(t.tail as usize);
                let wt = dot(w, tl);
                for i in 0..q.len() {
                    q[i] = r[i] - tl[i] + wt * w[i];
                }
            }
        }
    }

    /// Fused per-candidate kernel shared by the two batched entry points:
    /// one dot with the hyperplane normal, then one vectorised residual pass
    /// (`sign` folds the tail/head orientation, `c` the projection scalar).
    #[inline]
    fn candidate_score(q: &[f64], w: &[f64], row: &[f64], side: CorruptionSide) -> f64 {
        let wc = dot(w, row);
        match side {
            CorruptionSide::Tail => -l1_combine(q, row, w, -1.0, wc),
            CorruptionSide::Head => -l1_combine(q, row, w, 1.0, -wc),
        }
    }
}

impl KgeModel for TransH {
    fn kind(&self) -> ModelKind {
        ModelKind::TransH
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
        let (u, _, _) = self.residual(t);
        -u.iter().map(|v| v.abs()).sum::<f64>()
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
        let w = self.normals.row(t.relation as usize);
        with_query_scratch(self.dim, |q| {
            self.fill_query(t, side, q);
            for &e in candidates {
                let row = self.entities.row(e as usize);
                out.push(Self::candidate_score(q, w, row, side));
            }
        });
    }

    fn score_all_into(&self, t: &Triple, side: CorruptionSide, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.entities.rows());
        let w = self.normals.row(t.relation as usize);
        with_query_scratch(self.dim, |q| {
            self.fill_query(t, side, q);
            for row in self.entities.rows_iter() {
                out.push(Self::candidate_score(q, w, row, side));
            }
        });
    }

    fn accumulate_score_gradient(&self, t: &Triple, coeff: f64, grads: &mut dyn GradientSink) {
        // f = −‖u‖₁, u = x + r − (w·x)·w with x = h − t.
        // ∂f/∂u = −s (s = sign(u)).
        // ∂u/∂h = I − w wᵀ           ⇒ ∂f/∂h = −(s − (w·s) w)
        // ∂u/∂t = −(I − w wᵀ)        ⇒ ∂f/∂t = +(s − (w·s) w)
        // ∂u/∂r = I                  ⇒ ∂f/∂r = −s
        // ∂u/∂w = −(w xᵀ + (w·x) I)  ⇒ ∂f/∂w = (w·s) x + (w·x) s  … times −(−1)
        let (u, x, wx) = self.residual(t);
        let s = signum(&u);
        let w = self.normals.row(t.relation as usize);
        let ws = dot(w, &s);

        let proj_s: Vec<f64> = s.iter().zip(w).map(|(si, wi)| si - ws * wi).collect();
        grads.add(ENTITY_TABLE, t.head as usize, &proj_s, -coeff);
        grads.add(ENTITY_TABLE, t.tail as usize, &proj_s, coeff);
        grads.add(RELATION_TABLE, t.relation as usize, &s, -coeff);

        // ∂f/∂w_j = −Σ_i s_i ∂u_i/∂w_j = −Σ_i s_i (−x_j w_i − wx δ_ij)
        //         = (w·s) x_j + wx s_j, all multiplied by −1 from f = −‖u‖₁
        // (the −1 is already folded into s's role; derive carefully:)
        //   ∂f/∂w = +((w·s) x + wx s) with f = −‖u‖₁ and the minus signs above
        //   cancelling — verified against finite differences in tests.
        let grad_w: Vec<f64> = x.iter().zip(&s).map(|(xi, si)| ws * xi + wx * si).collect();
        grads.add(NORMAL_TABLE, t.relation as usize, &grad_w, coeff);
    }

    fn tables(&self) -> Vec<&EmbeddingTable> {
        vec![&self.entities, &self.relations, &self.normals]
    }

    fn tables_mut(&mut self) -> Vec<&mut EmbeddingTable> {
        vec![&mut self.entities, &mut self.relations, &mut self.normals]
    }

    fn table_mut(&mut self, table: TableId) -> &mut EmbeddingTable {
        match table {
            ENTITY_TABLE => &mut self.entities,
            RELATION_TABLE => &mut self.relations,
            NORMAL_TABLE => &mut self.normals,
            _ => panic!("TransH has no table {table}"),
        }
    }

    fn parameter_rows(&self, t: &Triple) -> Vec<(TableId, usize)> {
        vec![
            (ENTITY_TABLE, t.head as usize),
            (RELATION_TABLE, t.relation as usize),
            (ENTITY_TABLE, t.tail as usize),
            (NORMAL_TABLE, t.relation as usize),
        ]
    }

    fn apply_constraints(&mut self, touched: &[(TableId, usize)]) {
        for &(table, row) in touched {
            match table {
                ENTITY_TABLE => self.entities.project_row(row),
                NORMAL_TABLE => self.normals.normalize_row(row),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;

    fn tiny_model() -> TransH {
        let mut rng = seeded_rng(7);
        TransH::new(6, 3, 5, &mut rng)
    }

    #[test]
    fn normals_start_unit_length() {
        let m = tiny_model();
        for i in 0..3 {
            assert!((m.tables()[NORMAL_TABLE].row_norm(i) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn projection_removes_the_normal_component() {
        let mut m = tiny_model();
        let dim = m.dim();
        // Set w = e1; then the first component of h and t is projected away,
        // so the score must not depend on it.
        let mut w = vec![0.0; dim];
        w[0] = 1.0;
        m.tables_mut()[NORMAL_TABLE].set_row(0, &w);
        let mut h = vec![0.1; dim];
        m.tables_mut()[ENTITY_TABLE].set_row(0, &h);
        let base = m.score(&Triple::new(0, 0, 1));
        h[0] = 0.9; // only change the projected-away component
        m.tables_mut()[ENTITY_TABLE].set_row(0, &h);
        let changed = m.score(&Triple::new(0, 0, 1));
        assert!((base - changed).abs() < 1e-9);
    }

    #[test]
    fn constraints_renormalise_touched_rows() {
        let mut m = tiny_model();
        m.tables_mut()[NORMAL_TABLE].set_row(1, &[2.0, 0.0, 0.0, 0.0, 0.0]);
        m.tables_mut()[ENTITY_TABLE].set_row(2, &[0.0, 3.0, 0.0, 0.0, 4.0]);
        m.apply_constraints(&[(NORMAL_TABLE, 1), (ENTITY_TABLE, 2)]);
        assert!((m.tables()[NORMAL_TABLE].row_norm(1) - 1.0).abs() < 1e-12);
        assert!((m.tables()[ENTITY_TABLE].row_norm(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parameter_rows_include_normal_vector() {
        let m = tiny_model();
        let rows = m.parameter_rows(&Triple::new(0, 2, 5));
        assert!(rows.contains(&(NORMAL_TABLE, 2)));
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn table_count_and_parameters() {
        let m = tiny_model();
        assert_eq!(m.tables().len(), 3);
        assert_eq!(m.num_parameters(), 6 * 5 + 3 * 5 + 3 * 5);
        assert_eq!(m.kind(), ModelKind::TransH);
    }
}
