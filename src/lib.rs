//! # nscaching-suite
//!
//! Facade crate for the Rust reproduction of *NSCaching: Simple and Efficient
//! Negative Sampling for Knowledge Graph Embedding* (Zhang, Yao, Shao, Chen —
//! ICDE 2019).
//!
//! This crate simply re-exports the workspace crates under short module names
//! so that the examples and downstream users can depend on a single package:
//!
//! * [`kg`] — knowledge-graph substrate (triples, vocabularies, datasets);
//! * [`datagen`] — synthetic WN18/WN18RR/FB15K/FB15K237-style benchmark generators;
//! * [`math`] — numeric utilities (vector ops, sampling, statistics);
//! * [`models`] — scoring functions with analytic gradients;
//! * [`optim`] — the sparse Adam optimizer;
//! * [`sampling`] — negative samplers, including the paper's NSCaching;
//! * [`train`] — training loop, pretraining and instrumentation;
//! * [`eval`] — link prediction and triplet classification protocols;
//! * [`serve`] — checkpoint store and online link-prediction serving engine;
//! * [`net`] — fault-tolerant TCP front door (wire protocol, server, client,
//!   fault-injection harness);
//! * [`obs`] — unified observability core (counters, gauges, latency
//!   histograms, metrics registry with text exposition).
//!
//! See the `examples/` directory for end-to-end usage, starting with
//! `examples/quickstart.rs` (training) and `examples/serve_queries.rs`
//! (checkpointing + serving).

pub use nscaching as sampling;
pub use nscaching_datagen as datagen;
pub use nscaching_eval as eval;
pub use nscaching_kg as kg;
pub use nscaching_math as math;
pub use nscaching_models as models;
pub use nscaching_net as net;
pub use nscaching_obs as obs;
pub use nscaching_optim as optim;
pub use nscaching_serve as serve;
pub use nscaching_train as train;
