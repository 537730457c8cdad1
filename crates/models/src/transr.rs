//! TransR (Lin et al., AAAI 2015):
//! `f(h,r,t) = −‖M_r h + r − M_r t‖₁` with a relation-specific projection
//! matrix `M_r ∈ ℝ^{d×d}`.
//!
//! TransR is not part of the paper's five evaluated scoring functions but is
//! listed among the translational models in its Section II-C; it is included
//! here as an extension and exercised by the ablation benches.
//!
//! # Projection cache
//!
//! Batched scoring goes through the shared relation-projection cache of
//! [`crate::projcache`]: `M_r·e` is memoised per `(relation, entity)` in a
//! process-wide panel registry, so a warm candidate costs one `O(d)` L1 pass
//! instead of the dense `O(d²)` matrix-vector product — and a panel warmed
//! by one thread is warm for every trainer shard and serving worker. The
//! **invalidation contract**:
//!
//! * every cache entry is stamped with
//!   `entities.version() + matrices.version()` at fill time;
//! * both versions increase on *any* mutable access to the respective table
//!   (optimizer steps through `row_mut`, constraint projection, `set_row`,
//!   `data_mut`), so after an embedding update every stamp mismatches and
//!   the next scoring call refills what it touches — there is no code path
//!   that mutates parameters without moving a version;
//! * cold entries are filled with exactly the arithmetic of the uncached
//!   kernel ([`TransR::score_candidates_uncached`]), so scores are
//!   bit-for-bit independent of warm/cold history, and the batched scores
//!   agree with the scalar [`KgeModel::score`] within the usual `1e-12`
//!   reassociation bound (pinned by `tests/batch_equivalence.rs`).
//!
//! Cold candidates are filled through a blocked `M_r`-panel loop
//! ([`PANEL_ROWS`] matrix rows at a time across all cold candidates) so the
//! matrix panel stays cache-resident while candidate rows stream past it.

use crate::batch::with_query_scratch;
use crate::embedding::EmbeddingTable;
use crate::gradient::{GradientSink, TableId};
use crate::projcache::{
    next_projection_model_id, projection_panel, query_from_projection, translational_score,
    with_panel_scratch, PanelGuard,
};
use crate::scorer::{KgeModel, ModelKind, ENTITY_TABLE, RELATION_TABLE};
use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::vecops::{dot, signum};
use rand::Rng;

/// Index of the relation-matrix table (each row is a flattened `d×d` matrix).
pub const MATRIX_TABLE: TableId = 2;

/// Matrix rows per panel of the blocked cold-candidate fill: 8 rows × d
/// doubles stay L1-resident across the entire cold-candidate sweep.
const PANEL_ROWS: usize = 8;

/// TransR with L1 dissimilarity.
#[derive(Debug)]
pub struct TransR {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    matrices: EmbeddingTable,
    dim: usize,
    /// Projection-cache identity; unique per instance (clones re-draw it).
    cache_id: u64,
}

impl Clone for TransR {
    fn clone(&self) -> Self {
        Self {
            entities: self.entities.clone(),
            relations: self.relations.clone(),
            matrices: self.matrices.clone(),
            dim: self.dim,
            // A clone diverges from the original on its first update, so it
            // must never share cached projections with it.
            cache_id: next_projection_model_id(),
        }
    }
}

impl TransR {
    /// A TransR model holding these tables as they are (a loaded
    /// snapshot's; see `crate::model_from_tables`).
    pub(crate) fn from_tables(
        entities: EmbeddingTable,
        relations: EmbeddingTable,
        matrices: EmbeddingTable,
        dim: usize,
    ) -> Self {
        Self {
            entities,
            relations,
            matrices,
            dim,
            cache_id: next_projection_model_id(),
        }
    }

    /// Create a TransR model. Relation matrices are initialised to the
    /// identity (the standard warm start) plus small Xavier noise.
    pub fn new<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let entities = EmbeddingTable::xavier("entity", num_entities, dim, rng);
        let relations = EmbeddingTable::xavier("relation", num_relations, dim, rng);
        let mut matrices = EmbeddingTable::xavier("relation_matrix", num_relations, dim * dim, rng);
        for r in 0..num_relations {
            let row = matrices.row_mut(r);
            for i in 0..dim {
                // damp the noise and add the identity
                for j in 0..dim {
                    row[i * dim + j] *= 0.1;
                }
                row[i * dim + i] += 1.0;
            }
        }
        let mut model = Self {
            entities,
            relations,
            matrices,
            dim,
            cache_id: next_projection_model_id(),
        };
        for i in 0..num_entities {
            model.entities.project_row(i);
        }
        model
    }

    /// `M_r v` for the matrix of relation `r`.
    fn project(&self, relation: u32, v: &[f64]) -> Vec<f64> {
        let m = self.matrices.row(relation as usize);
        let d = self.dim;
        (0..d).map(|i| dot(&m[i * d..(i + 1) * d], v)).collect()
    }

    fn residual(&self, t: &Triple) -> Vec<f64> {
        let h = self.entities.row(t.head as usize);
        let tl = self.entities.row(t.tail as usize);
        let r = self.relations.row(t.relation as usize);
        let hp = self.project(t.relation, h);
        let tp = self.project(t.relation, tl);
        (0..self.dim).map(|i| hp[i] + r[i] - tp[i]).collect()
    }

    /// Project the query side once: `q = M_r·h + r` for tail corruption,
    /// `q = r − M_r·t` for head corruption. The candidate still needs its own
    /// `M_r·e` product, so the per-candidate kernel stays `O(d²)` but fuses
    /// the matrix-vector product with the L1 accumulation and skips the
    /// query-side projection entirely.
    fn fill_query(&self, t: &Triple, side: CorruptionSide, q: &mut [f64]) {
        let m = self.matrices.row(t.relation as usize);
        let r = self.relations.row(t.relation as usize);
        let d = self.dim;
        match side {
            CorruptionSide::Tail => {
                let h = self.entities.row(t.head as usize);
                for i in 0..d {
                    q[i] = dot(&m[i * d..(i + 1) * d], h) + r[i];
                }
            }
            CorruptionSide::Head => {
                let tl = self.entities.row(t.tail as usize);
                for i in 0..d {
                    q[i] = r[i] - dot(&m[i * d..(i + 1) * d], tl);
                }
            }
        }
    }

    /// Fused `O(d²)` per-candidate kernel of the uncached reference path.
    #[inline]
    fn candidate_score_uncached(q: &[f64], m: &[f64], row: &[f64], side: CorruptionSide) -> f64 {
        let d = q.len();
        let mut dist = 0.0;
        match side {
            CorruptionSide::Tail => {
                for i in 0..d {
                    dist += (q[i] - dot(&m[i * d..(i + 1) * d], row)).abs();
                }
            }
            CorruptionSide::Head => {
                for i in 0..d {
                    dist += (dot(&m[i * d..(i + 1) * d], row) + q[i]).abs();
                }
            }
        }
        -dist
    }

    /// Combined source-table version the projection cache stamps against.
    #[inline]
    fn projection_version(&self) -> u64 {
        self.entities.version() + self.matrices.version()
    }

    /// `M_r·e` into `out` — per-element exactly the panel fill's dot
    /// products, so the loser-fallback inline projection is bit-identical
    /// to a warm panel row.
    #[inline]
    fn project_row_into(m: &[f64], row: &[f64], out: &mut [f64]) {
        let d = out.len();
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = dot(&m[i * d..(i + 1) * d], row);
        }
    }

    /// Fill every slot this thread claimed with `M_r·e`, blocked by
    /// `M_r`-panel: the outer loop walks [`PANEL_ROWS`] matrix rows at a
    /// time and the inner loop sweeps all claimed candidates, so a panel is
    /// loaded once per sweep instead of once per candidate. Each dot product
    /// is exactly the uncached kernel's, keeping the cache value-transparent.
    /// Publishes the batch at the end, making it warm for every thread.
    fn fill_claimed(&self, panel: &PanelGuard, m: &[f64], cold: &[EntityId]) {
        let d = self.dim;
        for i0 in (0..d).step_by(PANEL_ROWS) {
            let i1 = (i0 + PANEL_ROWS).min(d);
            for &e in cold {
                let row = self.entities.row(e as usize);
                // SAFETY: `cold` holds exactly the slots this thread won via
                // `claim_cold`, still unpublished.
                let slot = unsafe { panel.claimed_slot(e as usize) };
                for i in i0..i1 {
                    slot[i] = dot(&m[i * d..(i + 1) * d], row);
                }
            }
        }
        panel.publish(cold);
    }

    /// The retired fused batched path, kept as the measured baseline of the
    /// `transr_projection` bench and the equivalence oracle of the projection
    /// cache's tests: query-side projection hoisted, but every candidate
    /// still pays the dense `O(d²)` matrix-vector product.
    pub fn score_candidates_uncached(
        &self,
        t: &Triple,
        side: CorruptionSide,
        candidates: &[EntityId],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(candidates.len());
        let m = self.matrices.row(t.relation as usize);
        with_query_scratch(self.dim, |q| {
            self.fill_query(t, side, q);
            for &e in candidates {
                let row = self.entities.row(e as usize);
                out.push(Self::candidate_score_uncached(q, m, row, side));
            }
        });
    }
}

impl KgeModel for TransR {
    fn kind(&self) -> ModelKind {
        ModelKind::TransR
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
        let m = self.matrices.row(t.relation as usize);
        let query_entity = match side {
            CorruptionSide::Tail => t.head,
            CorruptionSide::Head => t.tail,
        };
        with_query_scratch(self.dim, |q| {
            with_panel_scratch(self.dim, |cold, fallback| {
                let panel = projection_panel(
                    self.cache_id,
                    t.relation,
                    self.entities.rows(),
                    self.dim,
                    self.projection_version(),
                );
                // Pass 1: one blocked fill warms the query-side entity and
                // every cold candidate this thread won the claim for
                // (duplicates are claimed at most once).
                panel.claim_cold(
                    std::iter::once(query_entity).chain(candidates.iter().copied()),
                    cold,
                );
                self.fill_claimed(&panel, m, cold);
                let r = self.relations.row(t.relation as usize);
                let p = panel.row_or_compute(query_entity as usize, fallback, |buf| {
                    Self::project_row_into(m, self.entities.row(query_entity as usize), buf)
                });
                query_from_projection(side, p, r, q);
                // Pass 2: score from the shared panel, computing inline when
                // another thread still owns a slot's in-flight fill.
                for &e in candidates {
                    let p = panel.row_or_compute(e as usize, fallback, |buf| {
                        Self::project_row_into(m, self.entities.row(e as usize), buf)
                    });
                    out.push(translational_score(side, q, p));
                }
            });
        });
    }

    fn score_all_into(&self, t: &Triple, side: CorruptionSide, out: &mut Vec<f64>) {
        out.clear();
        let n = self.entities.rows();
        out.reserve(n);
        let m = self.matrices.row(t.relation as usize);
        let query_entity = match side {
            CorruptionSide::Tail => t.head,
            CorruptionSide::Head => t.tail,
        };
        with_query_scratch(self.dim, |q| {
            with_panel_scratch(self.dim, |cold, fallback| {
                let panel = projection_panel(
                    self.cache_id,
                    t.relation,
                    n,
                    self.dim,
                    self.projection_version(),
                );
                panel.claim_cold(0..n as EntityId, cold);
                self.fill_claimed(&panel, m, cold);
                let r = self.relations.row(t.relation as usize);
                let p = panel.row_or_compute(query_entity as usize, fallback, |buf| {
                    Self::project_row_into(m, self.entities.row(query_entity as usize), buf)
                });
                query_from_projection(side, p, r, q);
                for e in 0..n {
                    let p = panel.row_or_compute(e, fallback, |buf| {
                        Self::project_row_into(m, self.entities.row(e), buf)
                    });
                    out.push(translational_score(side, q, p));
                }
            });
        });
    }

    fn accumulate_score_gradient(&self, t: &Triple, coeff: f64, grads: &mut dyn GradientSink) {
        // f = −‖u‖₁, u = M_r(h − t) + r, s = sign(u).
        //   ∂f/∂h   = −M_rᵀ s
        //   ∂f/∂t   = +M_rᵀ s
        //   ∂f/∂r   = −s
        //   ∂f/∂M_r = −s (h − t)ᵀ   (flattened row-major)
        let u = self.residual(t);
        let s = signum(&u);
        let d = self.dim;
        let m = self.matrices.row(t.relation as usize);
        let h = self.entities.row(t.head as usize);
        let tl = self.entities.row(t.tail as usize);

        // M_rᵀ s
        let mt_s: Vec<f64> = (0..d)
            .map(|j| (0..d).map(|i| m[i * d + j] * s[i]).sum())
            .collect();
        grads.add(ENTITY_TABLE, t.head as usize, &mt_s, -coeff);
        grads.add(ENTITY_TABLE, t.tail as usize, &mt_s, coeff);
        grads.add(RELATION_TABLE, t.relation as usize, &s, -coeff);

        let x: Vec<f64> = h.iter().zip(tl).map(|(a, b)| a - b).collect();
        let mut grad_m = vec![0.0; d * d];
        for i in 0..d {
            for j in 0..d {
                grad_m[i * d + j] = s[i] * x[j];
            }
        }
        grads.add(MATRIX_TABLE, t.relation as usize, &grad_m, -coeff);
    }

    fn tables(&self) -> Vec<&EmbeddingTable> {
        vec![&self.entities, &self.relations, &self.matrices]
    }

    fn tables_mut(&mut self) -> Vec<&mut EmbeddingTable> {
        vec![&mut self.entities, &mut self.relations, &mut self.matrices]
    }

    fn table_mut(&mut self, table: TableId) -> &mut EmbeddingTable {
        match table {
            ENTITY_TABLE => &mut self.entities,
            RELATION_TABLE => &mut self.relations,
            MATRIX_TABLE => &mut self.matrices,
            _ => panic!("TransR has no table {table}"),
        }
    }

    fn parameter_rows(&self, t: &Triple) -> Vec<(TableId, usize)> {
        vec![
            (ENTITY_TABLE, t.head as usize),
            (RELATION_TABLE, t.relation as usize),
            (ENTITY_TABLE, t.tail as usize),
            (MATRIX_TABLE, t.relation as usize),
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

    fn tiny_model() -> TransR {
        let mut rng = seeded_rng(13);
        TransR::new(5, 2, 3, &mut rng)
    }

    #[test]
    fn identity_matrix_reduces_to_transe() {
        let mut m = tiny_model();
        let d = m.dim();
        let mut identity = vec![0.0; d * d];
        for i in 0..d {
            identity[i * d + i] = 1.0;
        }
        m.tables_mut()[MATRIX_TABLE].set_row(0, &identity);
        m.tables_mut()[ENTITY_TABLE].set_row(0, &[0.2, 0.1, 0.0]);
        m.tables_mut()[RELATION_TABLE].set_row(0, &[0.1, -0.1, 0.3]);
        m.tables_mut()[ENTITY_TABLE].set_row(1, &[0.3, 0.0, 0.3]);
        assert!((m.score(&Triple::new(0, 0, 1)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_row_length_is_d_squared() {
        let m = tiny_model();
        assert_eq!(m.tables()[MATRIX_TABLE].dim(), 9);
        assert_eq!(m.num_parameters(), 5 * 3 + 2 * 3 + 2 * 9);
    }

    #[test]
    fn different_matrices_give_different_scores() {
        let mut m = tiny_model();
        let before = m.score(&Triple::new(0, 0, 1));
        let d = m.dim();
        m.tables_mut()[MATRIX_TABLE].set_row(0, &vec![0.33; d * d]);
        let after = m.score(&Triple::new(0, 0, 1));
        assert!((before - after).abs() > 1e-9);
    }

    #[test]
    fn parameter_rows_include_matrix() {
        let m = tiny_model();
        let rows = m.parameter_rows(&Triple::new(0, 1, 2));
        assert!(rows.contains(&(MATRIX_TABLE, 1)));
    }

    #[test]
    fn cached_scoring_matches_the_uncached_reference() {
        let m = {
            let mut rng = seeded_rng(29);
            TransR::new(12, 3, 7, &mut rng)
        };
        let candidates: Vec<u32> = vec![0, 3, 3, 11, 5, 0, 7];
        let mut cached = Vec::new();
        let mut reference = Vec::new();
        for side in [CorruptionSide::Tail, CorruptionSide::Head] {
            for pass in 0..2 {
                let t = Triple::new(1, 2, 4);
                m.score_candidates(&t, side, &candidates, &mut cached);
                m.score_candidates_uncached(&t, side, &candidates, &mut reference);
                for (i, (c, r)) in cached.iter().zip(&reference).enumerate() {
                    assert!(
                        (c - r).abs() <= 1e-12,
                        "pass {pass} {side:?} candidate {i}: cached {c} vs uncached {r}"
                    );
                }
                // A warm second pass must return bit-identical scores.
                if pass == 1 {
                    let mut again = Vec::new();
                    m.score_candidates(&t, side, &candidates, &mut again);
                    assert_eq!(cached, again, "warm path must be bit-stable");
                }
            }
        }
    }

    #[test]
    fn embedding_update_invalidates_cached_projections() {
        let mut m = {
            let mut rng = seeded_rng(31);
            TransR::new(8, 2, 5, &mut rng)
        };
        let t = Triple::new(0, 1, 2);
        let candidates: Vec<u32> = (0..8).collect();
        let mut before = Vec::new();
        m.score_candidates(&t, CorruptionSide::Tail, &candidates, &mut before);

        // Mutate one candidate's embedding and the relation matrix.
        let dim = m.dim();
        m.tables_mut()[ENTITY_TABLE].set_row(5, &vec![0.21; dim]);
        m.tables_mut()[MATRIX_TABLE].set_row(1, &vec![0.12; dim * dim]);

        let mut after = Vec::new();
        m.score_candidates(&t, CorruptionSide::Tail, &candidates, &mut after);
        assert_ne!(before, after, "stale projections must not survive updates");
        // The refreshed scores must agree with the scalar oracle.
        for (&e, score) in candidates.iter().zip(&after) {
            let scalar = m.score(&t.corrupted(CorruptionSide::Tail, e));
            assert!(
                (score - scalar).abs() <= 1e-12,
                "candidate {e}: cached {score} vs scalar {scalar}"
            );
        }
    }

    #[test]
    fn projections_warmed_by_one_thread_serve_all_threads() {
        use std::sync::Arc;
        let m = Arc::new({
            let mut rng = seeded_rng(41);
            TransR::new(10, 2, 6, &mut rng)
        });
        let t = Triple::new(0, 1, 2);
        let candidates: Vec<u32> = (0..10).collect();
        // Warm the panel on the main thread; every worker must then read the
        // shared slots (or compute bit-identical fallbacks) — same scores.
        let mut expected = Vec::new();
        m.score_candidates(&t, CorruptionSide::Tail, &candidates, &mut expected);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                let candidates = candidates.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    m.score_candidates(&t, CorruptionSide::Tail, &candidates, &mut out);
                    assert_eq!(out, expected, "shared panels must be value-transparent");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn clones_do_not_share_cached_projections() {
        let m = {
            let mut rng = seeded_rng(37);
            TransR::new(6, 2, 4, &mut rng)
        };
        let t = Triple::new(0, 0, 1);
        let candidates: Vec<u32> = (0..6).collect();
        let mut original = Vec::new();
        m.score_candidates(&t, CorruptionSide::Tail, &candidates, &mut original);

        // Diverge the clone; its scores must reflect its own parameters even
        // though the original just warmed the same (relation, entity) keys.
        let mut c = m.clone();
        let dim = c.dim();
        c.tables_mut()[ENTITY_TABLE].set_row(3, &vec![0.4; dim]);
        let mut cloned = Vec::new();
        c.score_candidates(&t, CorruptionSide::Tail, &candidates, &mut cloned);
        let scalar = c.score(&t.corrupted(CorruptionSide::Tail, 3));
        assert!((cloned[3] - scalar).abs() <= 1e-12);
        assert_ne!(original[3], cloned[3]);
    }
}
