//! Dense, row-major embedding tables.

use nscaching_math::vecops::{l2_norm, normalize_l2, project_l2_ball};
use nscaching_math::xavier_uniform;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A `rows × dim` matrix of `f64` stored row-major, one row per entity /
/// relation / projection vector.
///
/// This is the only parameter container in the workspace; optimizers address
/// parameters as `(table, row)` pairs and mutate rows in place.
///
/// # Versioning
///
/// The table carries a monotone [`version`](Self::version) counter, bumped on
/// every mutable data access (`row_mut`, `data_mut` and everything built on
/// them). The serving engine's answer cache stamps each answer with the sum
/// of the model's table versions (`stamp_of` in `nscaching_serve`) and
/// treats any mismatch as an invalidation, so it can never serve an answer
/// from before an optimizer step. The counter is deliberately coarse (any
/// mutation invalidates everything derived from the table): precision would
/// need per-row dirty tracking on the optimizer's hottest write path, while
/// the coarse bump is a single integer increment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbeddingTable {
    name: String,
    rows: usize,
    dim: usize,
    data: Vec<f64>,
    version: u64,
}

impl EmbeddingTable {
    /// Allocate a zero-initialised table.
    pub fn zeros(name: impl Into<String>, rows: usize, dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Self {
            name: name.into(),
            rows,
            dim,
            data: vec![0.0; rows * dim],
            version: 1,
        }
    }

    /// A table holding `data` (`rows × dim` values, row-major) as it is.
    pub fn from_data(name: impl Into<String>, rows: usize, dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        assert_eq!(
            Some(data.len()),
            rows.checked_mul(dim),
            "a {rows} x {dim} table"
        );
        Self {
            name: name.into(),
            rows,
            dim,
            data,
            version: 1,
        }
    }

    /// Allocate a Xavier-uniform initialised table (the paper's initialiser).
    pub fn xavier<R: Rng + ?Sized>(
        name: impl Into<String>,
        rows: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        let data = if rows == 0 {
            Vec::new()
        } else {
            xavier_uniform(rng, rows, dim)
        };
        Self {
            name: name.into(),
            rows,
            dim,
            data,
            version: 1,
        }
    }

    /// Table name (used in diagnostics and serialisation).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Data version: starts at 1 and increases on every mutable data access.
    /// Caches derived from this table compare against it to detect staleness
    /// (see the struct-level docs).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Mutably borrow row `i` (bumps the version).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        self.version += 1;
        let start = i * self.dim;
        &mut self.data[start..start + self.dim]
    }

    /// Copy `values` into row `i`.
    pub fn set_row(&mut self, i: usize, values: &[f64]) {
        assert_eq!(values.len(), self.dim, "row length mismatch");
        self.row_mut(i).copy_from_slice(values);
    }

    /// Iterate over all rows in index order.
    ///
    /// Streams the backing buffer contiguously, which is what the batched
    /// `score_all_into` fast path wants (no per-row index arithmetic, perfect
    /// prefetching).
    #[inline]
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// Whole backing buffer (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable backing buffer, row-major (bumps the version).
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.version += 1;
        &mut self.data
    }

    /// Normalise every row to unit L2 norm (used for TransH normal vectors).
    pub fn normalize_rows(&mut self) {
        for i in 0..self.rows {
            normalize_l2(self.row_mut(i));
        }
    }

    /// Normalise a single row to unit L2 norm.
    pub fn normalize_row(&mut self, i: usize) {
        normalize_l2(self.row_mut(i));
    }

    /// Project a single row onto the unit L2 ball (entity constraint of the
    /// translational models).
    pub fn project_row(&mut self, i: usize) {
        project_l2_ball(self.row_mut(i));
    }

    /// L2 norm of row `i`.
    pub fn row_norm(&self, i: usize) -> f64 {
        l2_norm(self.row(i))
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;

    #[test]
    fn zeros_table_shape_and_access() {
        let mut t = EmbeddingTable::zeros("ent", 3, 4);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.dim(), 4);
        assert_eq!(t.num_parameters(), 12);
        assert_eq!(t.row(1), &[0.0; 4]);
        t.row_mut(1)[2] = 5.0;
        assert_eq!(t.row(1), &[0.0, 0.0, 5.0, 0.0]);
        assert_eq!(t.name(), "ent");
    }

    #[test]
    fn xavier_table_is_bounded_and_nonzero() {
        let mut rng = seeded_rng(3);
        let t = EmbeddingTable::xavier("rel", 10, 8, &mut rng);
        assert!(t.data().iter().any(|v| *v != 0.0));
        let bound = (6.0 / 18.0f64).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn set_row_copies_values() {
        let mut t = EmbeddingTable::zeros("x", 2, 3);
        t.set_row(0, &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn set_row_rejects_wrong_length() {
        let mut t = EmbeddingTable::zeros("x", 2, 3);
        t.set_row(0, &[1.0]);
    }

    #[test]
    fn normalize_and_project_rows() {
        let mut t = EmbeddingTable::zeros("x", 2, 2);
        t.set_row(0, &[3.0, 4.0]);
        t.set_row(1, &[0.3, 0.4]);
        t.normalize_row(0);
        assert!((t.row_norm(0) - 1.0).abs() < 1e-12);

        let mut p = EmbeddingTable::zeros("y", 2, 2);
        p.set_row(0, &[3.0, 4.0]);
        p.set_row(1, &[0.3, 0.4]);
        p.project_row(0);
        p.project_row(1);
        assert!((p.row_norm(0) - 1.0).abs() < 1e-12);
        assert!(
            (p.row_norm(1) - 0.5).abs() < 1e-12,
            "small rows are untouched"
        );
    }

    #[test]
    fn version_bumps_on_every_mutable_access() {
        let mut t = EmbeddingTable::zeros("v", 2, 3);
        let v0 = t.version();
        assert!(
            v0 >= 1,
            "versions start positive so a zero stamp never matches"
        );
        t.row_mut(0)[0] = 1.0;
        let v1 = t.version();
        assert!(v1 > v0);
        t.set_row(1, &[1.0, 2.0, 3.0]);
        let v2 = t.version();
        assert!(v2 > v1);
        t.data_mut()[0] = 2.0;
        assert!(t.version() > v2);
        t.project_row(0);
        assert!(t.version() > v2, "constraint application also invalidates");
        // Read-only access never moves the version.
        let frozen = t.version();
        let _ = t.row(0);
        let _ = t.data();
        let _ = t.rows_iter().count();
        assert_eq!(t.version(), frozen);
    }

    #[test]
    fn normalize_all_rows() {
        let mut t = EmbeddingTable::zeros("w", 3, 2);
        t.set_row(0, &[2.0, 0.0]);
        t.set_row(1, &[0.0, 5.0]);
        t.set_row(2, &[1.0, 1.0]);
        t.normalize_rows();
        for i in 0..3 {
            assert!((t.row_norm(i) - 1.0).abs() < 1e-12);
        }
    }
}
