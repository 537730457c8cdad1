//! Slab-backed sparse-gradient arena — the per-batch gradient engine.
//!
//! [`GradientArena`] replaces the `HashMap<(TableId, usize), Vec<f64>>` of
//! [`GradientBuffer`](crate::gradient::GradientBuffer) on every training hot
//! path. The layout is the cache-friendly one the hot loop wants:
//!
//! * **Per-table slabs.** Each parameter table gets one contiguous `Vec<f64>`
//!   holding the gradients of its touched rows back to back
//!   (dimension-strided: slot `s` of a table with dimension `d` occupies
//!   `grads[s·d .. (s+1)·d]`). Accumulating into a row is an array index plus
//!   a fused multiply-add pass — no hashing, no per-row heap allocation.
//! * **O(1) row lookup.** A per-table `row → slot` index (`u32` per row,
//!   grown geometrically to the table's high-water row) maps a touched row to
//!   its slab slot; untouched rows hold a sentinel.
//! * **Sorted slot index.** `(table, row)` pairs of all touched slots are
//!   materialised, sorted ascending, into a reusable vector the first time an
//!   ordered view is needed ([`rows`](GradientArena::rows),
//!   [`touched`](GradientArena::touched),
//!   [`squared_norm`](GradientArena::squared_norm), [`merge`](GradientArena::merge)).
//!   Every ordered consumer — Adam's apply walk, the shard-merge
//!   reduction, the gradient-norm instrumentation — reads this one index, so
//!   determinism comes from the layout itself instead of the post-hoc key
//!   sorting the `HashMap` engine needed.
//! * **Batch reuse.** [`clear`](GradientArena::clear) resets the touched-row
//!   index in `O(touched)` and keeps every allocation, so after the first few
//!   batches establish the high-water marks, a steady-state
//!   clear → accumulate → merge → apply cycle performs **zero heap
//!   allocations** (asserted by the `gradient_apply` bench).
//!
//! # Equivalence contract
//!
//! For any sequence of [`add`](GradientArena::add) /
//! [`add_component`](GradientArena::add_component) /
//! [`merge`](GradientArena::merge) calls, the arena holds bit-identical
//! per-row values to a `GradientBuffer` driven by the same calls: each row's
//! gradient is the same ordered sequence of `g[i] += coeff · v[i]` updates
//! from zero, and per-row updates are independent of the order rows are
//! visited in. [`squared_norm`](GradientArena::squared_norm) reproduces the
//! buffer's sorted-key summation order exactly. The `arena_equivalence`
//! proptests and `parallel_equivalence.rs` assert both.

use crate::gradient::{GradientSink, TableId};

/// Sentinel in the `row → slot` index marking an untouched row.
const NO_SLOT: u32 = u32::MAX;

/// One table's touched-row slab. See the module docs for the layout.
#[derive(Debug, Clone, Default)]
struct TableSlab {
    /// Row-gradient dimension; 0 until the table's first touch fixes it.
    dim: usize,
    /// `row → slot` index into `touched`/`grads`; `NO_SLOT` when untouched.
    slot_of_row: Vec<u32>,
    /// Touched rows in first-touch order (slot `s` holds row `touched[s]`).
    touched: Vec<u32>,
    /// Gradient slab: `touched.len() · dim` values, slot-major.
    grads: Vec<f64>,
}

impl TableSlab {
    /// Reset the touched set in `O(touched)`, keeping every allocation.
    fn clear(&mut self) {
        for &row in &self.touched {
            self.slot_of_row[row as usize] = NO_SLOT;
        }
        self.touched.clear();
        self.grads.clear();
    }
}

/// Reusable sparse-gradient arena: contiguous per-table slabs plus a sorted
/// `(table, row)` slot index. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct GradientArena {
    tables: Vec<TableSlab>,
    /// Sorted `(table, row)` pairs of all touched slots; rebuilt lazily.
    sorted: Vec<(TableId, usize)>,
    /// Whether `sorted` currently reflects the touched set.
    sorted_valid: bool,
    /// Total touched slots across all tables.
    len: usize,
}

impl GradientArena {
    /// Create an empty arena. Slabs grow to their high-water marks on first
    /// use and are kept across [`clear`](Self::clear).
    pub fn new() -> Self {
        Self {
            sorted_valid: true,
            ..Self::default()
        }
    }

    /// Number of distinct touched `(table, row)` slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no gradients were accumulated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Accumulate `coeff * values` into the gradient of `(table, row)`.
    ///
    /// All rows of one table must share one dimension (every
    /// `EmbeddingTable` does); the first touch of a table fixes it.
    pub fn add(&mut self, table: TableId, row: usize, values: &[f64], coeff: f64) {
        if coeff == 0.0 {
            return;
        }
        let base = self.slot_base(table, row, values.len());
        let slab = &mut self.tables[table];
        for (g, v) in slab.grads[base..base + values.len()].iter_mut().zip(values) {
            *g += coeff * v;
        }
    }

    /// Accumulate `coeff` into component `idx` of `(table, row)`, creating
    /// the row gradient with dimension `dim` if it does not exist yet.
    pub fn add_component(
        &mut self,
        table: TableId,
        row: usize,
        dim: usize,
        idx: usize,
        coeff: f64,
    ) {
        if coeff == 0.0 {
            return;
        }
        let base = self.slot_base(table, row, dim);
        self.tables[table].grads[base + idx] += coeff;
    }

    /// Borrow the gradient of `(table, row)`, if touched.
    pub fn get(&self, table: TableId, row: usize) -> Option<&[f64]> {
        let slab = self.tables.get(table)?;
        let slot = *slab.slot_of_row.get(row)?;
        if slot == NO_SLOT {
            return None;
        }
        let base = slot as usize * slab.dim;
        Some(&slab.grads[base..base + slab.dim])
    }

    /// Remove all entries in `O(touched)`, keeping every allocation (the
    /// whole point of reusing one arena across batches).
    pub fn clear(&mut self) {
        for slab in &mut self.tables {
            slab.clear();
        }
        self.sorted.clear();
        self.sorted_valid = true;
        self.len = 0;
    }

    /// The sorted view over all touched rows, for the ordered consumers
    /// (optimizer apply walk, norm instrumentation). Sorts the slot index if
    /// new rows were touched since the last ordered access.
    pub fn rows(&mut self) -> SparseRows<'_> {
        self.ensure_sorted();
        SparseRows { arena: self }
    }

    /// The sorted `(table, row)` slot list — exactly the rows an optimizer
    /// step updates, in the order it updates them. The trainer feeds this to
    /// `KgeModel::apply_constraints`; the slice lives in the arena, so the
    /// steady state allocates nothing.
    pub fn touched(&mut self) -> &[(TableId, usize)] {
        self.ensure_sorted();
        &self.sorted
    }

    /// Add every entry of `other` into this arena, walking `other`'s sorted
    /// slot list.
    ///
    /// This is the reduction step of the sharded trainer: each shard worker
    /// accumulates into its own arena and the main thread merges the
    /// per-shard arenas in ascending shard order. Each `(table, row)` entry
    /// is summed independently (`self[k] += other[k]` element-wise), so the
    /// merged values depend only on the order in which *arenas* are merged —
    /// fixed by the caller — while the sorted walk keeps the slot-creation
    /// order (and with it every later ordered traversal) deterministic by
    /// construction.
    pub fn merge(&mut self, other: &mut GradientArena) {
        other.ensure_sorted();
        for i in 0..other.sorted.len() {
            let (table, row) = other.sorted[i];
            let slab = &other.tables[table];
            let base = slab.slot_of_row[row] as usize * slab.dim;
            self.add(table, row, &slab.grads[base..base + slab.dim], 1.0);
        }
    }

    /// Sum of squared components across all entries — the squared L2 norm of
    /// the full sparse gradient (Figure 10 instrumentation).
    ///
    /// Rows are summed in ascending `(table, row)` order — the same
    /// association as `GradientBuffer::squared_norm`'s sorted-key sum, so the
    /// two engines report bit-identical norms. Unlike the buffer, no key
    /// vector is collected or sorted per call: the arena's slot index *is*
    /// the sorted order.
    pub fn squared_norm(&mut self) -> f64 {
        self.ensure_sorted();
        self.sorted
            .iter()
            .map(|&(table, row)| {
                let slab = &self.tables[table];
                let base = slab.slot_of_row[row] as usize * slab.dim;
                slab.grads[base..base + slab.dim]
                    .iter()
                    .map(|x| x * x)
                    .sum::<f64>()
            })
            .sum()
    }

    /// L2 norm of the full sparse gradient.
    pub fn norm(&mut self) -> f64 {
        self.squared_norm().sqrt()
    }

    /// Resolve (creating if needed) the slab offset of `(table, row)`.
    fn slot_base(&mut self, table: TableId, row: usize, dim: usize) -> usize {
        if table >= self.tables.len() {
            self.tables.resize_with(table + 1, TableSlab::default);
        }
        let slab = &mut self.tables[table];
        if slab.dim == 0 {
            slab.dim = dim;
        }
        debug_assert_eq!(slab.dim, dim, "gradient dimension mismatch");
        if row >= slab.slot_of_row.len() {
            // Geometric growth keeps repeated first touches amortised O(1);
            // the index tops out at one u32 per table row.
            let grown = (row + 1).next_power_of_two().max(64);
            slab.slot_of_row.resize(grown, NO_SLOT);
        }
        let slot = slab.slot_of_row[row];
        if slot != NO_SLOT {
            return slot as usize * slab.dim;
        }
        let slot = slab.touched.len() as u32;
        slab.slot_of_row[row] = slot;
        slab.touched.push(row as u32);
        let base = slab.grads.len();
        slab.grads.resize(base + dim, 0.0);
        self.len += 1;
        self.sorted_valid = false;
        base
    }

    fn ensure_sorted(&mut self) {
        if self.sorted_valid {
            return;
        }
        self.sorted.clear();
        for (table, slab) in self.tables.iter().enumerate() {
            self.sorted
                .extend(slab.touched.iter().map(|&row| (table, row as usize)));
        }
        self.sorted.sort_unstable();
        self.sorted_valid = true;
    }
}

impl GradientSink for GradientArena {
    fn add(&mut self, table: TableId, row: usize, values: &[f64], coeff: f64) {
        GradientArena::add(self, table, row, values, coeff);
    }

    fn add_component(&mut self, table: TableId, row: usize, dim: usize, idx: usize, coeff: f64) {
        GradientArena::add_component(self, table, row, dim, idx, coeff);
    }
}

/// Sorted read-only view over an arena's touched rows, consumed by the
/// optimizers: ascending `(table, row)` order, one contiguous gradient slice
/// per row.
pub struct SparseRows<'a> {
    arena: &'a GradientArena,
}

impl<'a> SparseRows<'a> {
    /// Number of touched rows.
    pub fn len(&self) -> usize {
        self.arena.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.len == 0
    }

    /// Iterate `(table, row, gradient)` in ascending `(table, row)` order.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, usize, &'a [f64])> + '_ {
        self.arena.sorted.iter().map(|&(table, row)| {
            let slab = &self.arena.tables[table];
            let base = slab.slot_of_row[row] as usize * slab.dim;
            (table, row, &slab.grads[base..base + slab.dim])
        })
    }

    /// Iterate the touched rows grouped into per-table runs, in ascending
    /// table order (rows ascending within each run).
    ///
    /// Because the slot index is sorted by `(table, row)`, each table's rows
    /// form one contiguous run of it — so grouping costs nothing. This is the
    /// view the optimizers walk: resolving the parameter table once per *run*
    /// instead of once per row hoists the virtual `KgeModel::table_mut`
    /// dispatch out of the per-row apply loop.
    pub fn by_table(&self) -> TableRuns<'a> {
        TableRuns {
            arena: self.arena,
            pos: 0,
        }
    }
}

/// Iterator over the per-table runs of a [`SparseRows`] view; see
/// [`SparseRows::by_table`].
pub struct TableRuns<'a> {
    arena: &'a GradientArena,
    pos: usize,
}

impl<'a> Iterator for TableRuns<'a> {
    type Item = (TableId, TableRun<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let sorted = &self.arena.sorted;
        let start = self.pos;
        let (table, _) = *sorted.get(start)?;
        let mut end = start + 1;
        while sorted.get(end).is_some_and(|&(t, _)| t == table) {
            end += 1;
        }
        self.pos = end;
        Some((
            table,
            TableRun {
                arena: self.arena,
                start,
                end,
            },
        ))
    }
}

/// One table's contiguous run of touched rows (ascending row order).
pub struct TableRun<'a> {
    arena: &'a GradientArena,
    start: usize,
    end: usize,
}

impl<'a> TableRun<'a> {
    /// Number of touched rows in this run.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the run is empty (never produced by [`TableRuns`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Gradient dimension of this table's rows.
    pub fn dim(&self) -> usize {
        let (table, _) = self.arena.sorted[self.start];
        self.arena.tables[table].dim
    }

    /// Iterate `(row, gradient)` in ascending row order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a [f64])> + '_ {
        self.arena.sorted[self.start..self.end]
            .iter()
            .map(|&(table, row)| {
                let slab = &self.arena.tables[table];
                let base = slab.slot_of_row[row] as usize * slab.dim;
                (row, &slab.grads[base..base + slab.dim])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::GradientBuffer;

    #[test]
    fn add_accumulates_with_coefficients() {
        let mut a = GradientArena::new();
        a.add(0, 3, &[1.0, 2.0], 2.0);
        a.add(0, 3, &[1.0, 0.0], -1.0);
        assert_eq!(a.get(0, 3), Some(&[1.0, 4.0][..]));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn zero_coefficient_is_a_noop() {
        let mut a = GradientArena::new();
        a.add(1, 1, &[5.0], 0.0);
        assert!(a.is_empty());
        a.add_component(1, 1, 4, 2, 0.0);
        assert!(a.is_empty());
    }

    #[test]
    fn add_component_creates_sized_rows() {
        let mut a = GradientArena::new();
        a.add_component(0, 7, 3, 1, 2.5);
        assert_eq!(a.get(0, 7), Some(&[0.0, 2.5, 0.0][..]));
    }

    #[test]
    fn rows_iterate_in_sorted_table_row_order() {
        let mut a = GradientArena::new();
        // Touch out of order, across tables.
        a.add(1, 5, &[1.0], 1.0);
        a.add(0, 9, &[2.0], 1.0);
        a.add(0, 2, &[3.0], 1.0);
        a.add(1, 0, &[4.0], 1.0);
        let order: Vec<(TableId, usize)> = a.rows().iter().map(|(t, r, _)| (t, r)).collect();
        assert_eq!(order, vec![(0, 2), (0, 9), (1, 0), (1, 5)]);
        assert_eq!(a.touched(), &[(0, 2), (0, 9), (1, 0), (1, 5)]);
        let values: Vec<f64> = a.rows().iter().map(|(_, _, g)| g[0]).collect();
        assert_eq!(values, vec![3.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn clear_keeps_slabs_reusable_and_resets_entries() {
        let mut a = GradientArena::new();
        a.add(0, 1, &[1.0, 1.0], 1.0);
        a.add(2, 8, &[2.0], 1.0);
        assert_eq!(a.len(), 2);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.get(0, 1), None);
        assert_eq!(a.get(2, 8), None);
        assert!(a.rows().iter().next().is_none());
        // Re-touching after clear starts from zero again.
        a.add(0, 1, &[5.0, 0.0], 1.0);
        assert_eq!(a.get(0, 1), Some(&[5.0, 0.0][..]));
    }

    #[test]
    fn merge_adds_entries_pairwise_and_keeps_disjoint_ones() {
        let mut a = GradientArena::new();
        a.add(0, 0, &[1.0, 2.0], 1.0);
        a.add(0, 1, &[3.0, 0.0], 1.0);
        let mut b = GradientArena::new();
        b.add(0, 0, &[10.0, 20.0], 1.0);
        b.add(1, 5, &[7.0], 1.0);
        a.merge(&mut b);
        assert_eq!(a.get(0, 0), Some(&[11.0, 22.0][..]));
        assert_eq!(a.get(0, 1), Some(&[3.0, 0.0][..]));
        assert_eq!(a.get(1, 5), Some(&[7.0][..]));
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 2, "merge borrows the source");
    }

    #[test]
    fn norms_match_the_hashmap_reference_bit_for_bit() {
        let mut arena = GradientArena::new();
        let mut buffer = GradientBuffer::new();
        // Irrational-ish values so any reassociation would show in the bits.
        for (i, &(t, r)) in [(0, 3), (1, 0), (0, 1), (2, 7), (0, 3)].iter().enumerate() {
            let v = [0.1 + i as f64 / 3.0, -1.0 / (i as f64 + 2.0)];
            arena.add(t, r, &v, 1.7);
            buffer.add(t, r, &v, 1.7);
        }
        assert_eq!(
            arena.squared_norm().to_bits(),
            buffer.squared_norm().to_bits()
        );
        assert_eq!(arena.norm().to_bits(), buffer.norm().to_bits());
    }

    #[test]
    fn values_match_the_hashmap_reference_bit_for_bit() {
        let mut arena = GradientArena::new();
        let mut buffer = GradientBuffer::new();
        let ops: &[(TableId, usize, [f64; 2], f64)] = &[
            (0, 4, [0.3, -0.7], 1.0),
            (1, 2, [1.1, 2.2], -0.5),
            (0, 4, [0.9, 0.1], 0.25),
            (0, 0, [5.0, -5.0], 1.0 / 3.0),
        ];
        for &(t, r, v, c) in ops {
            arena.add(t, r, &v, c);
            buffer.add(t, r, &v, c);
        }
        arena.add_component(1, 2, 2, 1, 0.125);
        buffer.add_component(1, 2, 2, 1, 0.125);
        for (t, r, g) in arena.rows().iter() {
            let reference = buffer.get(t, r).expect("same touched set");
            assert_eq!(g.len(), reference.len());
            for (a, b) in g.iter().zip(reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "({t}, {r}) diverged");
            }
        }
        assert_eq!(arena.len(), buffer.len());
    }

    #[test]
    fn by_table_groups_the_sorted_rows_into_runs() {
        let mut a = GradientArena::new();
        a.add(2, 1, &[9.0], 1.0);
        a.add(0, 5, &[1.0, 2.0], 1.0);
        a.add(0, 2, &[3.0, 4.0], 1.0);
        a.add(2, 0, &[8.0], 1.0);
        let runs: Vec<(TableId, Vec<usize>, usize)> = a
            .rows()
            .by_table()
            .map(|(t, run)| (t, run.iter().map(|(r, _)| r).collect(), run.dim()))
            .collect();
        assert_eq!(runs, vec![(0, vec![2, 5], 2), (2, vec![0, 1], 1)]);
        // The grouped walk visits exactly the rows of the flat sorted walk,
        // in the same order.
        let flat: Vec<(TableId, usize)> = a.rows().iter().map(|(t, r, _)| (t, r)).collect();
        let grouped: Vec<(TableId, usize)> = a
            .rows()
            .by_table()
            .flat_map(|(t, run)| run.iter().map(move |(r, _)| (t, r)).collect::<Vec<_>>())
            .collect();
        assert_eq!(flat, grouped);
        let (_, first_run) = a.rows().by_table().next().unwrap();
        assert_eq!(first_run.len(), 2);
        assert!(!first_run.is_empty());
    }

    #[test]
    fn sink_trait_routes_to_the_inherent_methods() {
        fn fill(sink: &mut dyn GradientSink) {
            sink.add(0, 1, &[2.0], 1.5);
            sink.add_component(0, 2, 1, 0, -1.0);
        }
        let mut a = GradientArena::new();
        fill(&mut a);
        assert_eq!(a.get(0, 1), Some(&[3.0][..]));
        assert_eq!(a.get(0, 2), Some(&[-1.0][..]));
    }
}
