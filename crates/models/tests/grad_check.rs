//! Central finite-difference checks of every analytic score gradient.
//!
//! For each model we perturb every parameter component that participates in a
//! triple's score and compare `(f(θ+ε) − f(θ−ε)) / 2ε` against the analytic
//! gradient accumulated by `accumulate_score_gradient`.
//!
//! The L1-based translational models are non-differentiable where a residual
//! component is exactly zero; with random Xavier initialisation this never
//! happens, and the check uses a small ε so the sign pattern is stable.

use nscaching_kg::Triple;
use nscaching_models::{build_model, GradientBuffer, KgeModel, ModelConfig, ModelKind};

const EPS: f64 = 1e-6;
const TOL: f64 = 1e-4;

fn numeric_gradient(
    model: &mut Box<dyn KgeModel>,
    triple: &Triple,
    table: usize,
    row: usize,
    col: usize,
) -> f64 {
    let original = model.tables()[table].row(row)[col];

    model.tables_mut()[table].row_mut(row)[col] = original + EPS;
    let plus = model.score(triple);
    model.tables_mut()[table].row_mut(row)[col] = original - EPS;
    let minus = model.score(triple);
    model.tables_mut()[table].row_mut(row)[col] = original;

    (plus - minus) / (2.0 * EPS)
}

fn check_model(kind: ModelKind, seed: u64) {
    let config = ModelConfig::new(kind).with_dim(5).with_seed(seed);
    let mut model = build_model(&config, 9, 3);
    let triples = [
        Triple::new(0, 0, 1),
        Triple::new(2, 1, 3),
        Triple::new(4, 2, 4), // self-loop: head == tail is a legal edge case
        Triple::new(7, 0, 8),
    ];
    for triple in &triples {
        let mut grads = GradientBuffer::new();
        model.accumulate_score_gradient(triple, 1.0, &mut grads);
        assert!(
            !grads.is_empty(),
            "{kind:?} produced no gradient for {triple}"
        );

        // Check every component of every row the model says participates.
        for (table, row) in model.parameter_rows(triple) {
            let dim = model.tables()[table].dim();
            for col in 0..dim {
                let numeric = numeric_gradient(&mut model, triple, table, row, col);
                let analytic = grads.get(table, row).map_or(0.0, |g| g[col]);
                assert!(
                    (numeric - analytic).abs() < TOL,
                    "{kind:?} {triple} table {table} row {row} col {col}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }

        // And confirm the buffer holds no rows the model does not declare.
        let declared = model.parameter_rows(triple);
        for (key, _) in grads.iter() {
            assert!(
                declared.contains(&(key.0, key.1)),
                "{kind:?} accumulated a gradient for undeclared row {key:?}"
            );
        }
    }
}

#[test]
fn transe_gradients_match_finite_differences() {
    check_model(ModelKind::TransE, 101);
}

#[test]
fn transh_gradients_match_finite_differences() {
    check_model(ModelKind::TransH, 102);
}

#[test]
fn transd_gradients_match_finite_differences() {
    check_model(ModelKind::TransD, 103);
}

#[test]
fn distmult_gradients_match_finite_differences() {
    check_model(ModelKind::DistMult, 105);
}

#[test]
fn complex_gradients_match_finite_differences() {
    check_model(ModelKind::ComplEx, 106);
}

#[test]
fn gradient_coefficient_scales_linearly() {
    for kind in ModelKind::ALL {
        let config = ModelConfig::new(kind).with_dim(4).with_seed(55);
        let model = build_model(&config, 6, 2);
        let t = Triple::new(1, 0, 2);
        let mut g1 = GradientBuffer::new();
        let mut g3 = GradientBuffer::new();
        model.accumulate_score_gradient(&t, 1.0, &mut g1);
        model.accumulate_score_gradient(&t, 3.0, &mut g3);
        for (key, grad) in g1.iter() {
            let scaled = g3.get(key.0, key.1).expect("same rows touched");
            for (a, b) in grad.iter().zip(scaled) {
                assert!(
                    (3.0 * a - b).abs() < 1e-9,
                    "{kind:?} gradient not linear in coeff"
                );
            }
        }
    }
}
