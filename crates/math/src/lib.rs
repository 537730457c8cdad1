//! Numeric substrate for the NSCaching reproduction.
//!
//! The paper's algorithms only need dense vector arithmetic, a handful of
//! initialisers, stable softmax utilities, several sampling primitives
//! (weighted with and without replacement, alias tables) and the
//! complementary CDF of Figure 1. Everything is implemented here from scratch so that the rest of the
//! workspace has no dependency on an external ML framework.
//!
//! All functions operate on `&[f64]` / `&mut [f64]` slices; embedding rows in
//! `nscaching-models` are stored contiguously and borrowed as slices, so no
//! dedicated tensor type is needed.

pub mod grid;
pub mod init;
pub mod rng;
pub mod sample;
pub mod softmax;
pub mod stats;
pub mod topk;
pub mod vecops;

pub use grid::{grid_l1_block, L1Grid, GRID_BLOCK, GRID_MAX, GRID_MAX_DIM};
pub use init::{uniform_init, xavier_uniform};
pub use rng::{rng_from_state, rng_state, seeded_rng, split_seed, SeedStream};
pub use sample::{
    gumbel_top_k_into, sample_distinct_uniform, sample_distinct_uniform_into, sample_one_weighted,
    AliasTable,
};
pub use softmax::{log_sum_exp, softmax, softmax_in_place};
pub use stats::Ccdf;
pub use topk::{
    argmax, cmp_desc, rank_contenders_into, rank_scan, top_k_indices, top_k_indices_into,
    top_k_indices_sort_into, RankScan,
};
pub use vecops::{
    add, add_scaled, dot, hadamard, l1_combine, l1_distance, l1_norm, l1_sum, l2_distance, l2_norm,
    normalize_l2, scale, sub,
};
