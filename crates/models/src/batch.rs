//! Support machinery for the batched candidate-scoring fast path.
//!
//! Every scoring function in this crate factors as *query-side work* (terms
//! depending only on the fixed `(h, r)` or `(r, t)` pair) plus a cheap
//! per-candidate kernel. [`KgeModel::score_candidates`] and
//! [`KgeModel::score_all_into`] exploit that: the query context is computed
//! once into a thread-local scratch buffer and each candidate then costs one
//! fused, allocation-free pass over the embedding dimension.
//!
//! # Invariants
//!
//! The batched path must agree with the scalar [`KgeModel::score`] to within
//! floating-point reassociation error (the equivalence proptests in
//! `tests/batch_equivalence.rs` pin this to `1e-12`). Implementations must
//! therefore keep the same operation order per dimension as the scalar path,
//! only hoisting candidate-independent terms.
//!
//! # Scratch buffers
//!
//! The query context lives in a thread-local `Vec<f64>` so that `&self`
//! scoring methods stay allocation-free in steady state: the buffer grows to
//! the largest query context ever needed on the thread (at most `2·d`:
//! ComplEx's query, or TransD's query plus one candidate projection) and is
//! reused forever after. [`with_query_scratch`] hands out a
//! zeroed slice; nesting calls on one thread is not supported (and never
//! happens — model kernels do not call back into batched scoring).
//!
//! [`KgeModel::score_candidates`]: crate::scorer::KgeModel::score_candidates
//! [`KgeModel::score_all_into`]: crate::scorer::KgeModel::score_all_into
//! [`KgeModel::score`]: crate::scorer::KgeModel::score

use std::cell::RefCell;

thread_local! {
    static QUERY_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a zeroed scratch slice of length `len`.
///
/// The slice is backed by a thread-local buffer, so steady-state calls
/// perform no heap allocation once the buffer has grown to `len`.
pub fn with_query_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    QUERY_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        buf.resize(len, 0.0);
        f(&mut buf[..len])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_zeroed_and_sized() {
        let sum = with_query_scratch(8, |q| {
            assert_eq!(q.len(), 8);
            assert!(q.iter().all(|v| *v == 0.0));
            q[3] = 5.0;
            q.iter().sum::<f64>()
        });
        assert_eq!(sum, 5.0);
        // A later call must see zeros again, not the 5.0 from before.
        with_query_scratch(8, |q| assert!(q.iter().all(|v| *v == 0.0)));
        // Shrinking and growing keeps the requested length.
        with_query_scratch(2, |q| assert_eq!(q.len(), 2));
        with_query_scratch(16, |q| assert_eq!(q.len(), 16));
    }
}
