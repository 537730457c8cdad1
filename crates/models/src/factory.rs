//! Model construction from a declarative configuration.

use crate::complex::ComplEx;
use crate::distmult::DistMult;
use crate::embedding::EmbeddingTable;
use crate::scorer::{KgeModel, ModelKind};
use crate::transd::TransD;
use crate::transe::TransE;
use crate::transh::TransH;
use nscaching_math::seeded_rng;
use serde::{Deserialize, Serialize};

/// Declarative description of a model to build.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Which scoring function to use.
    pub kind: ModelKind,
    /// Embedding dimension `d` (complex dimension for ComplEx).
    pub dim: usize,
    /// Seed used for Xavier initialisation.
    pub seed: u64,
}

impl ModelConfig {
    /// A configuration with the workspace defaults (`d = 32`).
    pub fn new(kind: ModelKind) -> Self {
        Self {
            kind,
            dim: 32,
            seed: 0,
        }
    }

    /// Set the embedding dimension.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Set the initialisation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Build a freshly initialised model for the given vocabulary sizes.
pub fn build_model(
    config: &ModelConfig,
    num_entities: usize,
    num_relations: usize,
) -> Box<dyn KgeModel> {
    let mut rng = seeded_rng(config.seed);
    let d = config.dim;
    match config.kind {
        ModelKind::TransE => Box::new(TransE::new(num_entities, num_relations, d, &mut rng)),
        ModelKind::TransH => Box::new(TransH::new(num_entities, num_relations, d, &mut rng)),
        ModelKind::TransD => Box::new(TransD::new(num_entities, num_relations, d, &mut rng)),
        ModelKind::DistMult => Box::new(DistMult::new(num_entities, num_relations, d, &mut rng)),
        ModelKind::ComplEx => Box::new(ComplEx::new(num_entities, num_relations, d, &mut rng)),
    }
}

/// The `(rows, dim)` of every table [`build_model`] allocates for `config`
/// and these vocabulary sizes, in `KgeModel::tables()` order, computed
/// without allocating anything; `None` when a table's size overflows
/// `usize`. A snapshot loader checks a file's tables against these before
/// building, so a corrupt size is refused instead of allocated.
pub fn table_shapes(
    config: &ModelConfig,
    num_entities: usize,
    num_relations: usize,
) -> Option<Vec<(usize, usize)>> {
    let (e, r, d) = (num_entities, num_relations, config.dim);
    let shapes = match config.kind {
        ModelKind::TransE | ModelKind::DistMult => vec![(e, d), (r, d)],
        ModelKind::TransH => vec![(e, d), (r, d), (r, d)],
        ModelKind::TransD => vec![(e, d), (r, d), (e, d), (r, d)],
        ModelKind::ComplEx => vec![(e, d.checked_mul(2)?), (r, d.checked_mul(2)?)],
    };
    for &(rows, dim) in &shapes {
        rows.checked_mul(dim)?;
    }
    Some(shapes)
}

/// The names of the tables [`build_model`] allocates for `kind`, in
/// `KgeModel::tables()` order.
pub fn table_names(kind: ModelKind) -> &'static [&'static str] {
    match kind {
        ModelKind::TransE | ModelKind::DistMult | ModelKind::ComplEx => &["entity", "relation"],
        ModelKind::TransH => &["entity", "relation", "relation_normal"],
        ModelKind::TransD => &["entity", "relation", "entity_proj", "relation_proj"],
    }
}

/// A model of `config.kind` and `config.dim` holding `tables` as they are,
/// in `KgeModel::tables()` order: nothing is initialised, projected or
/// copied, so a snapshot loader pays only for its decoded tables. The
/// tables must have [`table_names`] and [`table_shapes`] (for the
/// vocabulary sizes their rows give); a loader checks both first, and this
/// panics on a mismatch.
pub fn model_from_tables(config: &ModelConfig, tables: Vec<EmbeddingTable>) -> Box<dyn KgeModel> {
    let names: Vec<&str> = tables.iter().map(EmbeddingTable::name).collect();
    assert_eq!(names, table_names(config.kind), "{:?} tables", config.kind);
    let shapes: Vec<(usize, usize)> = tables.iter().map(|t| (t.rows(), t.dim())).collect();
    let vocabulary = (tables[0].rows(), tables[1].rows());
    assert_eq!(
        Some(shapes),
        table_shapes(config, vocabulary.0, vocabulary.1),
        "{:?} table shapes",
        config.kind
    );
    let d = config.dim;
    let mut tables = tables.into_iter();
    let mut next = || tables.next().expect("one table per name");
    match config.kind {
        ModelKind::TransE => Box::new(TransE::from_tables(next(), next(), d)),
        ModelKind::TransH => Box::new(TransH::from_tables(next(), next(), next(), d)),
        ModelKind::TransD => Box::new(TransD::from_tables(next(), next(), next(), next(), d)),
        ModelKind::DistMult => Box::new(DistMult::from_tables(next(), next(), d)),
        ModelKind::ComplEx => Box::new(ComplEx::from_tables(next(), next(), d)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscaching_kg::Triple;

    #[test]
    fn table_shapes_are_the_built_tables() {
        for kind in ModelKind::ALL {
            let config = ModelConfig::new(kind).with_dim(3);
            let model = build_model(&config, 7, 2);
            let built: Vec<(usize, usize)> =
                model.tables().iter().map(|t| (t.rows(), t.dim())).collect();
            assert_eq!(table_shapes(&config, 7, 2), Some(built), "{kind:?}");
            let names: Vec<&str> = model.tables().iter().map(|t| t.name()).collect();
            assert_eq!(table_names(kind), names, "{kind:?}");
        }
        let huge = ModelConfig::new(ModelKind::ComplEx).with_dim(usize::MAX / 2 + 1);
        assert_eq!(table_shapes(&huge, 1, 1), None, "2·d overflows");
        let wide = ModelConfig::new(ModelKind::TransE).with_dim(1 << 40);
        assert_eq!(table_shapes(&wide, 1 << 30, 1), None, "|E|·d overflows");
    }

    #[test]
    fn every_kind_builds_with_matching_metadata() {
        for kind in ModelKind::ALL {
            let config = ModelConfig::new(kind).with_dim(6).with_seed(3);
            let model = build_model(&config, 11, 4);
            assert_eq!(model.kind(), kind, "{kind:?}");
            assert_eq!(model.num_entities(), 11);
            assert_eq!(model.num_relations(), 4);
            assert_eq!(model.dim(), 6);
            assert!(model.num_parameters() > 0);
            // scoring an arbitrary triple must be finite
            let s = model.score(&Triple::new(0, 0, 1));
            assert!(s.is_finite(), "{kind:?} produced a non-finite score");
        }
    }

    #[test]
    fn a_model_from_tables_scores_like_the_model_they_came_from() {
        let triples = [
            Triple::new(0, 0, 1),
            Triple::new(4, 1, 2),
            Triple::new(6, 1, 6),
        ];
        for kind in ModelKind::ALL {
            let config = ModelConfig::new(kind).with_dim(4).with_seed(11);
            let built = build_model(&config, 7, 2);
            let tables = built
                .tables()
                .iter()
                .map(|t| EmbeddingTable::from_data(t.name(), t.rows(), t.dim(), t.data().to_vec()))
                .collect();
            let rebuilt = model_from_tables(&config, tables);
            assert_eq!(
                (
                    rebuilt.kind(),
                    rebuilt.dim(),
                    rebuilt.num_entities(),
                    rebuilt.num_relations()
                ),
                (kind, 4, 7, 2)
            );
            for t in &triples {
                assert_eq!(
                    rebuilt.score(t).to_bits(),
                    built.score(t).to_bits(),
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    fn same_seed_gives_identical_models() {
        let config = ModelConfig::new(ModelKind::TransE)
            .with_dim(8)
            .with_seed(77);
        let a = build_model(&config, 20, 3);
        let b = build_model(&config, 20, 3);
        let t = Triple::new(3, 1, 7);
        assert_eq!(a.score(&t), b.score(&t));
    }

    #[test]
    fn different_seeds_give_different_models() {
        let a = build_model(&ModelConfig::new(ModelKind::TransE).with_seed(1), 20, 3);
        let b = build_model(&ModelConfig::new(ModelKind::TransE).with_seed(2), 20, 3);
        let t = Triple::new(3, 1, 7);
        assert_ne!(a.score(&t), b.score(&t));
    }

    #[test]
    fn builder_setters_apply() {
        let c = ModelConfig::new(ModelKind::ComplEx)
            .with_dim(12)
            .with_seed(9);
        assert_eq!(c.dim, 12);
        assert_eq!(c.seed, 9);
        assert_eq!(c.kind, ModelKind::ComplEx);
    }
}
