//! Plugging a custom scoring function into the NSCaching stack.
//!
//! The sampler, optimizer, trainer and evaluator only know about the
//! `KgeModel` trait, so any user-defined scoring function can reuse the whole
//! pipeline. This example implements a tiny "TransE with L2 distance" model
//! (the paper uses the L1 variant) and trains it with NSCaching.
//!
//! ```text
//! cargo run --release --example custom_scorer
//! ```

use nscaching_suite::datagen::GeneratorConfig;
use nscaching_suite::kg::Triple;
use nscaching_suite::models::{EmbeddingTable, GradientSink, KgeModel, ModelKind, TableId};
use nscaching_suite::optim::OptimizerConfig;
use nscaching_suite::sampling::{build_sampler, NsCachingConfig, SamplerConfig};
use nscaching_suite::train::{TrainConfig, Trainer};

/// TransE scored with the (squared-free) L2 distance: `f = −‖h + r − t‖₂`.
struct TransEL2 {
    entities: EmbeddingTable,
    relations: EmbeddingTable,
    dim: usize,
}

impl TransEL2 {
    fn new(num_entities: usize, num_relations: usize, dim: usize, seed: u64) -> Self {
        let mut rng = nscaching_suite::math::seeded_rng(seed);
        Self {
            entities: EmbeddingTable::xavier("entity", num_entities, dim, &mut rng),
            relations: EmbeddingTable::xavier("relation", num_relations, dim, &mut rng),
            dim,
        }
    }

    fn residual(&self, t: &Triple) -> Vec<f64> {
        let h = self.entities.row(t.head as usize);
        let r = self.relations.row(t.relation as usize);
        let tl = self.entities.row(t.tail as usize);
        (0..self.dim).map(|i| h[i] + r[i] - tl[i]).collect()
    }
}

impl KgeModel for TransEL2 {
    fn kind(&self) -> ModelKind {
        // Reported as TransE for configuration purposes (margin loss family).
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
        -self.residual(t).iter().map(|v| v * v).sum::<f64>().sqrt()
    }
    fn accumulate_score_gradient(&self, t: &Triple, coeff: f64, grads: &mut dyn GradientSink) {
        // f = −‖u‖₂  ⇒  ∂f/∂u = −u / ‖u‖₂ (zero at the origin).
        let u = self.residual(t);
        let norm = u.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-12 {
            return;
        }
        let g: Vec<f64> = u.iter().map(|v| v / norm).collect();
        grads.add(0, t.head as usize, &g, -coeff);
        grads.add(1, t.relation as usize, &g, -coeff);
        grads.add(0, t.tail as usize, &g, coeff);
    }
    fn tables(&self) -> Vec<&EmbeddingTable> {
        vec![&self.entities, &self.relations]
    }
    fn tables_mut(&mut self) -> Vec<&mut EmbeddingTable> {
        vec![&mut self.entities, &mut self.relations]
    }
    fn parameter_rows(&self, t: &Triple) -> Vec<(TableId, usize)> {
        vec![
            (0, t.head as usize),
            (1, t.relation as usize),
            (0, t.tail as usize),
        ]
    }
    fn apply_constraints(&mut self, touched: &[(TableId, usize)]) {
        for &(table, row) in touched {
            if table == 0 {
                self.entities.project_row(row);
            }
        }
    }
}

fn main() {
    let mut generator = GeneratorConfig::small("custom-scorer");
    generator.num_entities = 400;
    generator.num_train = 4_000;
    generator.num_valid = 200;
    generator.num_test = 200;
    let dataset = nscaching_suite::datagen::generate(&generator).expect("dataset generation");
    println!("{}", dataset.summary());

    let model = Box::new(TransEL2::new(
        dataset.num_entities(),
        dataset.num_relations(),
        32,
        77,
    ));
    let sampler = build_sampler(
        &SamplerConfig::NsCaching(NsCachingConfig::new(20, 20)),
        &dataset,
        5,
    );
    let config = TrainConfig::new(20)
        .with_batch_size(256)
        .with_optimizer(OptimizerConfig::adam(0.02))
        .with_margin(2.0)
        .with_seed(3);
    let mut trainer = Trainer::new(model, sampler, &dataset, config);
    let history = trainer.run();
    let report = history.final_report.expect("final evaluation").combined;
    println!(
        "custom L2-TransE trained with NSCaching: MRR = {:.4}, Hit@10 = {:.1}%",
        report.mrr,
        report.hits_at_10 * 100.0
    );
}
