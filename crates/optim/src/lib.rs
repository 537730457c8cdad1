//! The sparse Adam optimizer for embedding tables.
//!
//! A KG-embedding SGD step only touches a handful of parameter rows, so
//! gradients arrive sparsely — as a
//! [`GradientArena`](nscaching_models::GradientArena) of touched rows — and
//! [`Adam`] updates its moments lazily per row, exactly the "lazy Adam"
//! behaviour of the PyTorch sparse optimizers the paper's reference
//! implementation relies on. The paper trains every model with Adam at its
//! default hyper-parameters except the learning rate (Section IV-A2), so it
//! is the only optimizer here.
//!
//! # State layout: dense per-table slabs
//!
//! [`Adam`] keeps its per-row state (first/second moments plus the per-row
//! step counter of the bias correction) in **dense per-table slabs indexed
//! by row id**: one `Vec<f64>` of `rows × dim` values per moment and
//! parameter table, plus one counter per row. Reaching row `r`'s state is
//! `&slab[r·dim .. (r+1)·dim]` — an array index instead of the
//! `HashMap<(TableId, usize), Vec<f64>>` lookup (hash + probe + pointer
//! chase to a scattered heap row) the previous engine paid on every touched
//! row of every batch. The slabs cost twice the memory of the model's own
//! tables, which is the standard trade of production embedding trainers.
//!
//! Call [`Adam::bind`] once at construction time (the trainer and the GAN
//! samplers do) to pre-size every slab from the model's table dimensions;
//! after that a [`step`](Adam::step) performs **no heap allocation** —
//! previously Adam allocated two `Vec<f64>`s on the first touch of every row
//! mid-epoch. An unbound optimizer still works (slabs grow on demand), it
//! just loses the no-allocation guarantee.
//!
//! # Determinism: the sorted-slot contract
//!
//! [`Adam::step`] applies updates by walking the arena's **sorted
//! `(table, row)` slot list** (`GradientArena::rows`). Each row's update
//! touches only that row's parameters and state, so the result is independent
//! of walk order — but fixing the order anyway makes the whole apply stage a
//! pure function of the accumulated gradient values, with no dependence on
//! hash-map iteration order, across runs and platforms. Together with the
//! arena's ordered shard merge this is what makes parallel training
//! trajectories bit-reproducible (see `nscaching-train`'s concurrency model).
//! Constraint application is the caller's: the trainer follows every step
//! with `model.apply_constraints(grads.touched())`, which replays the same
//! sorted slot list.

pub mod adam;
pub mod optimizer;

pub use adam::Adam;
pub use optimizer::{AdamTableState, OptimizerConfig, OptimizerState};
