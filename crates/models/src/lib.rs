//! Knowledge-graph embedding models with analytic gradients.
//!
//! The paper evaluates NSCaching on five scoring functions (its Table III):
//! the translational-distance models TransE, TransH and TransD, and the
//! semantic-matching models DistMult and ComplEx. This crate implements those
//! five behind a single [`KgeModel`] trait that exposes:
//!
//! * `score(h, r, t)` — the plausibility of a triple (larger = more
//!   plausible; translational models return the *negative* distance so the
//!   convention is uniform);
//! * `score_candidates` / `score_all_into` — the batched candidate-scoring
//!   fast path: query-side work is computed once per call and each candidate
//!   then costs one fused, allocation-free pass over the dimension (see the
//!   [`batch`] module docs for the invariants). TransD also projects each
//!   candidate there, at `O(d)` per candidate;
//! * `accumulate_score_gradient` — adds `coeff · ∂score/∂θ` into a sparse
//!   [`GradientSink`]: the slab-backed [`GradientArena`] on the training hot
//!   path (its sorted-slot view is what the optimizers in `nscaching-optim`
//!   consume), or the `HashMap`-backed [`GradientBuffer`] reference in the
//!   equivalence suites;
//! * parameter access as a list of [`EmbeddingTable`]s so that optimizers and
//!   serialisation stay model-agnostic.
//!
//! No autodiff framework is used; every gradient is hand-derived and verified
//! against central finite differences in the test-suite (`tests/grad_check.rs`).

pub mod arena;
pub mod batch;
pub mod complex;
pub mod distmult;
pub mod embedding;
pub mod factory;
pub mod gradient;
pub mod loss;
pub mod regularizer;
pub mod scorer;
pub mod transd;
pub mod transe;
pub mod transh;

pub use arena::{GradientArena, SparseRows, TableRun, TableRuns};
pub use complex::ComplEx;
pub use distmult::DistMult;
pub use embedding::EmbeddingTable;
pub use factory::{build_model, model_from_tables, table_names, table_shapes, ModelConfig};
pub use gradient::{GradientBuffer, GradientSink, TableId};
pub use loss::{default_loss, LogisticLoss, Loss, LossKind, MarginRankingLoss, PairGradient};
pub use regularizer::L2Regularizer;
pub use scorer::{KgeModel, LossType, ModelKind};
pub use transd::TransD;
pub use transe::TransE;
pub use transh::TransH;
