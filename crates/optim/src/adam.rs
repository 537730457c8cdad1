//! Adam (Kingma & Ba, 2015) with sparse, lazily-updated per-row moments in
//! dense per-table slabs.
//!
//! The paper uses Adam "with its default settings, except for the learning
//! rate" (Section IV-A2). Moments are updated only for rows that receive
//! gradients, and bias correction uses a per-row step counter — the standard
//! "lazy Adam" variant for sparse embedding training. The first/second
//! moments live in one contiguous `rows × dim` slab per parameter table and
//! the step counters in one `rows` slab (see the crate docs), so a touched
//! row's state is two array indexes — no hashing, and, once
//! [`Adam::bind`] has pre-sized the slabs, no allocation inside `step`
//! (the `HashMap` predecessor allocated two fresh `Vec<f64>`s on the first
//! touch of every row mid-epoch).

use crate::optimizer::{AdamTableState, OptimizerState};
use nscaching_models::{GradientArena, KgeModel};

/// First-moment decay `β₁` (Adam's default).
const BETA1: f64 = 0.9;
/// Second-moment decay `β₂` (Adam's default).
const BETA2: f64 = 0.999;
/// Denominator guard `ε` (Adam's default).
const EPSILON: f64 = 1e-8;

/// One table's moment slabs.
#[derive(Debug, Clone, Default)]
struct TableMoments {
    dim: usize,
    /// First moments, `rows × dim` row-major.
    m: Vec<f64>,
    /// Second moments, `rows × dim` row-major.
    v: Vec<f64>,
    /// Per-row step counters for the bias correction (0 = never touched).
    t: Vec<u64>,
}

impl TableMoments {
    /// Grow the slab (if needed) to hold `row`. A bound optimizer never grows
    /// here.
    #[inline]
    fn ensure_row(&mut self, row: usize) {
        if self.t.len() <= row {
            let rows = (row + 1).next_power_of_two().max(8);
            self.m.resize(rows * self.dim, 0.0);
            self.v.resize(rows * self.dim, 0.0);
            self.t.resize(rows, 0);
        }
    }
}

/// Resolve (growing if needed) the slab for `table`, fixing its dimension on
/// first touch. Called once per table *run* of the grouped apply walk.
fn slab_for(tables: &mut Vec<TableMoments>, table: usize, dim: usize) -> &mut TableMoments {
    if table >= tables.len() {
        tables.resize_with(table + 1, TableMoments::default);
    }
    let slab = &mut tables[table];
    if slab.dim == 0 {
        slab.dim = dim;
    }
    debug_assert_eq!(slab.dim, dim, "gradient dimension mismatch");
    slab
}

/// Adam with per-row first/second moments in dense per-table slabs.
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f64,
    tables: Vec<TableMoments>,
    live_rows: usize,
}

impl Adam {
    /// Create an Adam optimizer with the default `β₁ = 0.9`, `β₂ = 0.999`,
    /// `ε = 1e-8`.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Self {
            learning_rate,
            tables: Vec::new(),
            live_rows: 0,
        }
    }

    /// Number of rows with live moment state.
    pub fn state_rows(&self) -> usize {
        self.live_rows
    }

    /// Apply one descent step of the sparse gradient `grads`, walking its
    /// sorted slot list (see the crate docs for the determinism contract).
    /// The caller re-imposes model constraints afterwards with
    /// `model.apply_constraints(grads.touched())` — the same sorted list, so
    /// no separate touched-row vector is materialised.
    pub fn step(&mut self, model: &mut dyn KgeModel, grads: &mut GradientArena) {
        let (lr, b1, b2, eps) = (self.learning_rate, BETA1, BETA2, EPSILON);
        // Grouped per-table walk over the sorted slot list: the moment slab
        // and the parameter table (a virtual `table_mut` dispatch) are
        // resolved once per table run instead of once per row. Row visit
        // order and per-element arithmetic are unchanged, so trajectories
        // stay bit-identical to the flat walk.
        for (table_id, run) in grads.rows().by_table() {
            let slab = slab_for(&mut self.tables, table_id, run.dim());
            let table = model.table_mut(table_id);
            for (row, grad) in run.iter() {
                slab.ensure_row(row);
                slab.t[row] += 1;
                let steps = slab.t[row];
                if steps == 1 {
                    self.live_rows += 1;
                }
                let bias1 = 1.0 - b1.powi(steps as i32);
                let bias2 = 1.0 - b2.powi(steps as i32);
                let base = row * slab.dim;
                let m = &mut slab.m[base..base + slab.dim];
                let v = &mut slab.v[base..base + slab.dim];
                let params = table.row_mut(row);
                // Zipped (bounds-check-free) walk so the sqrt/div chain
                // vectorises; per-element operations and their order are
                // exactly the retired HashMap engine's, so the parameters
                // stay bit-identical (asserted by the arena_equivalence
                // proptests).
                for (((p, &g), m), v) in params
                    .iter_mut()
                    .zip(grad)
                    .zip(m.iter_mut())
                    .zip(v.iter_mut())
                {
                    *m = b1 * *m + (1.0 - b1) * g;
                    *v = b2 * *v + (1.0 - b2) * g * g;
                    let m_hat = *m / bias1;
                    let v_hat = *v / bias2;
                    *p -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

    /// Pre-size the per-row state slabs from `model`'s table dimensions so
    /// that [`step`](Self::step) never allocates. Called once at construction
    /// by the trainer and the GAN samplers.
    pub fn bind(&mut self, model: &dyn KgeModel) {
        for (table, t) in model.tables().iter().enumerate() {
            if table >= self.tables.len() {
                self.tables.resize_with(table + 1, TableMoments::default);
            }
            let slab = &mut self.tables[table];
            if slab.dim == 0 {
                slab.dim = t.dim();
            }
            if slab.t.len() < t.rows() {
                slab.m.resize(t.rows() * t.dim(), 0.0);
                slab.v.resize(t.rows() * t.dim(), 0.0);
                slab.t.resize(t.rows(), 0);
            }
        }
    }

    /// Copy out the per-row state slabs for checkpointing.
    ///
    /// The exported slabs are exactly the optimizer's live state: importing
    /// them into a freshly built optimizer bound to the same model continues
    /// the update sequence bit-for-bit, which is half of the trainer's
    /// exact-resume guarantee (the other half is the RNG state).
    pub fn export_state(&self) -> OptimizerState {
        OptimizerState {
            tables: self
                .tables
                .iter()
                .map(|slab| AdamTableState {
                    dim: slab.dim,
                    m: slab.m.clone(),
                    v: slab.v.clone(),
                    t: slab.t.clone(),
                })
                .collect(),
        }
    }

    /// Replace the per-row state with slabs captured by
    /// [`export_state`](Self::export_state), then [`bind`](Self::bind) to
    /// `model` so the slabs are re-padded to its tables.
    ///
    /// Fails (with a description, leaving `self` untouched) when a table's
    /// moment slabs disagree with its own `dim` and step-counter count, or
    /// when its `dim` is neither `model`'s dimension for that table nor 0
    /// with no rows (a table the optimizer never touched): a `step` over
    /// such slabs would index past them or update rows with moments of
    /// another width.
    pub fn import_state(
        &mut self,
        state: OptimizerState,
        model: &dyn KgeModel,
    ) -> Result<(), String> {
        let OptimizerState { tables } = state;
        let model_tables = model.tables();
        for (i, slab) in tables.iter().enumerate() {
            // The dim check comes first: it bounds `dim` by a model table's,
            // so the slab-length product below cannot overflow.
            let model_dim = model_tables.get(i).map(|t| t.dim());
            let untouched = slab.dim == 0 && slab.t.is_empty();
            if !untouched && Some(slab.dim) != model_dim {
                return Err(format!(
                    "Adam table {i}: dim {} over {} rows does not fit the model's {}",
                    slab.dim,
                    slab.t.len(),
                    match model_dim {
                        Some(dim) => format!("dim {dim}"),
                        None => format!("{} tables", model_tables.len()),
                    }
                ));
            }
            let expected = slab.t.len() * slab.dim;
            if slab.m.len() != expected || slab.v.len() != expected {
                return Err(format!(
                    "Adam table {i}: moment slab lengths ({}, {}) do not match {} rows × dim {}",
                    slab.m.len(),
                    slab.v.len(),
                    slab.t.len(),
                    slab.dim
                ));
            }
        }
        self.live_rows = tables
            .iter()
            .flat_map(|slab| slab.t.iter())
            .filter(|&&t| t > 0)
            .count();
        self.tables = tables
            .into_iter()
            .map(|slab| TableMoments {
                dim: slab.dim,
                m: slab.m,
                v: slab.v,
                t: slab.t,
            })
            .collect();
        self.bind(model);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_math::seeded_rng;
    use nscaching_models::{DistMult, KgeModel};

    fn model() -> DistMult {
        let mut rng = seeded_rng(4);
        let mut m = DistMult::new(3, 1, 2, &mut rng);
        m.tables_mut()[0].set_row(0, &[0.0, 0.0]);
        m
    }

    #[test]
    fn first_step_size_is_close_to_learning_rate() {
        let mut m = model();
        let mut grads = GradientArena::new();
        grads.add(0, 0, &[10.0, -0.001], 1.0);
        let mut opt = Adam::new(0.01);
        opt.step(&mut m, &mut grads);
        let row = m.tables()[0].row(0);
        // Adam's first bias-corrected step is ≈ lr regardless of magnitude,
        // in the direction opposite to the gradient.
        assert!((row[0] + 0.01).abs() < 1e-6, "row[0] = {}", row[0]);
        assert!((row[1] - 0.01).abs() < 1e-6, "row[1] = {}", row[1]);
    }

    #[test]
    fn repeated_steps_descend_a_quadratic() {
        // minimise f(x) = x² with gradient 2x starting at x = 1
        let mut m = model();
        m.tables_mut()[0].set_row(1, &[1.0, 1.0]);
        let mut opt = Adam::new(0.05);
        opt.bind(&m);
        let mut grads = GradientArena::new();
        for _ in 0..200 {
            let x = m.tables()[0].row(1).to_vec();
            grads.clear();
            grads.add(0, 1, &[2.0 * x[0], 2.0 * x[1]], 1.0);
            opt.step(&mut m, &mut grads);
        }
        let x = m.tables()[0].row(1);
        assert!(x[0].abs() < 0.05, "x[0] = {}", x[0]);
        assert!(x[1].abs() < 0.05);
    }

    #[test]
    fn lazy_state_counts_touched_rows() {
        let mut m = model();
        let mut grads = GradientArena::new();
        grads.add(0, 2, &[1.0, 1.0], 1.0);
        grads.add(1, 0, &[1.0, 1.0], 1.0);
        let mut opt = Adam::new(0.01);
        opt.step(&mut m, &mut grads);
        assert_eq!(opt.state_rows(), 2);
    }

    #[test]
    fn touched_rows_walk_in_sorted_order() {
        let mut m = model();
        let mut grads = GradientArena::new();
        grads.add(0, 1, &[1.0, 1.0], 1.0);
        grads.add(0, 0, &[1.0, 1.0], 1.0);
        let mut opt = Adam::new(0.01);
        opt.step(&mut m, &mut grads);
        assert_eq!(grads.touched(), &[(0, 0), (0, 1)]);
        assert_eq!(opt.state_rows(), 2);
    }

    #[test]
    fn bound_and_unbound_states_apply_identical_updates() {
        let mut bound_model = model();
        let mut lazy_model = model();
        let mut grads = GradientArena::new();
        grads.add(0, 0, &[0.7, -0.3], 1.0);
        grads.add(1, 0, &[0.2, 0.9], -0.5);
        let mut bound = Adam::new(0.01);
        bound.bind(&bound_model);
        let mut lazy = Adam::new(0.01);
        for _ in 0..3 {
            bound.step(&mut bound_model, &mut grads);
            lazy.step(&mut lazy_model, &mut grads);
        }
        for (a, b) in bound_model.tables().iter().zip(lazy_model.tables()) {
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(bound.state_rows(), lazy.state_rows());
    }

    #[test]
    fn exported_state_resumes_the_update_sequence_exactly() {
        let mut original_model = model();
        let mut resumed_model = model();
        let mut grads = GradientArena::new();
        grads.add(0, 0, &[0.4, -0.8], 1.0);
        grads.add(1, 0, &[0.1, 0.6], 1.0);
        let mut original = Adam::new(0.01);
        original.bind(&original_model);
        for _ in 0..4 {
            original.step(&mut original_model, &mut grads);
        }
        // Capture mid-run, import into a fresh optimizer, continue both.
        let state = original.export_state();
        let mut resumed = Adam::new(0.01);
        resumed
            .import_state(state.clone(), &original_model)
            .unwrap();
        assert_eq!(resumed.state_rows(), original.state_rows());
        assert_eq!(resumed.export_state(), state, "export/import round-trips");
        for (a, b) in original_model
            .tables()
            .iter()
            .zip(resumed_model.tables_mut())
        {
            b.data_mut().copy_from_slice(a.data());
        }
        for _ in 0..4 {
            original.step(&mut original_model, &mut grads);
            resumed.step(&mut resumed_model, &mut grads);
        }
        for (a, b) in original_model.tables().iter().zip(resumed_model.tables()) {
            assert!(
                a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "resumed Adam diverged on {}",
                a.name()
            );
        }
    }

    #[test]
    fn state_that_does_not_fit_the_model_is_rejected() {
        // The model's tables are 3 × 2 (entities) and 1 × 2 (relations).
        let m = model();
        let table = |dim: usize, rows: usize| AdamTableState {
            dim,
            m: vec![0.0; rows * dim],
            v: vec![0.0; rows * dim],
            t: vec![1; rows],
        };
        let state = |tables: Vec<AdamTableState>| OptimizerState { tables };
        let mut opt = Adam::new(0.01);
        opt.bind(&m);
        let bound = opt.export_state();
        for (what, bad) in [
            ("dim 0 with rows", state(vec![table(0, 3)])),
            ("narrower rows", state(vec![table(2, 3), table(1, 1)])),
            ("wider rows", state(vec![table(4, 3)])),
            (
                "a table the model lacks",
                state(vec![bound.tables[0].clone(), table(2, 1), table(2, 1)]),
            ),
            (
                "a dim whose slab size overflows",
                state(vec![AdamTableState {
                    dim: usize::MAX / 2 + 1,
                    t: vec![1; 2],
                    ..AdamTableState::default()
                }]),
            ),
            (
                "uneven slabs",
                state(vec![AdamTableState {
                    m: vec![0.0; 5],
                    ..table(2, 3)
                }]),
            ),
        ] {
            let err = opt.import_state(bad, &m).unwrap_err();
            assert!(err.contains("Adam table"), "{what}: {err}");
            assert_eq!(
                opt.export_state(),
                bound,
                "{what}: a refused import changed nothing"
            );
        }
        // Tables the optimizer never touched (dim 0, no rows) fit any model,
        // and binding pads them to the model's tables.
        opt.import_state(state(vec![AdamTableState::default(); 3]), &m)
            .unwrap();
        assert_eq!(opt.export_state().tables[..2], bound.tables[..]);
    }
}
