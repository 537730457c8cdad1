//! The scan mirror: a 15-bit fixed-point copy of a served model's entity
//! table, and the two-pass top-k and rank scans that read it.
//!
//! A full-vocabulary scan of the `f64` table reads `8·|E|·d` bytes, yet only
//! the few rows near the answer can change it. For a model whose scores have
//! an L1 form ([`KgeModel::l1_scan_query`]: TransE), each scan here runs in
//! two passes:
//!
//! 1. **Approximate.** Every value of the table is put on the [`L1Grid`]
//!    spanning its `[lo, hi]`: `E = round((e − lo)·32767/(hi − lo))`, two
//!    bytes a value, a quarter of the table (1.86 MB at 14,541 × 64, which
//!    fits a 2 MiB L2). The query is clamped into `[lo, hi]` and put on the
//!    same grid, and the clamped-away part `C` is a per-query constant. The
//!    integer L1 sum `S` of each row is exact on the grid, and
//!    `â = S·step + C` is within `B` of the exact score's distance, the bound
//!    of [`L1Grid::bound`]: one step per dimension,
//!    `B ≈ d·(hi − lo)/32767`, plus a relative rounding term. Both passes
//!    work on the integer sums, with the integer slack `L ≥ 2B/step` of
//!    [`L1Grid::slack`], so no `f64` approximation is ever computed.
//! 2. **Exact.** Rescore with the `f64` kernel, and the query the model's
//!    own scan uses, only the rows the slack cannot rule out. The hook's
//!    contract makes each rescored value the full scan's score, bit for bit.
//!
//! Why the answers are the full scan's:
//!
//! * **Top-k.** Let `S_k` be the `k`-th smallest sum. A row with
//!   `S > S_k + L` has an exact distance strictly greater than each of the
//!   `k` rows with `S ≤ S_k`, so at least `k` rows beat it strictly and no
//!   tie-break can let it in. Every other row is rescored, in ascending id
//!   order, and the bounded top-k kernel selects among them: its lower-index
//!   tie break is then the full scan's lower-id tie break.
//! * **Rank.** With `S_t` the true entity's sum, a row with `S < S_t − L`
//!   scores strictly higher: greater. A row with `S > S_t + L` scores
//!   strictly lower. The rest are rescored and counted as
//!   [`rank_scan`](nscaching_math::rank_scan) counts them, skipping the true
//!   entity.
//!
//! The grid needs a table whose values are finite with a finite, positive
//! range (else no mirror), and a finite query whose bound fits the slack
//! (else the exact scan answers). `k = 0` selects nothing and `k ≥ |E|`
//! keeps every row, so both take the exact path.
//!
//! # Layout
//!
//! The full scan reads blocks of [`GRID_BLOCK`] rows stored dimension-major
//! ([`grid_l1_block`]): one pass over a block yields its 32 row sums with no
//! horizontal fold per row. Measured single-threaded on a 2-vCPU Xeon host over
//! 14,541 × 64 random grid rows, that pass took 72–89 µs per query against
//! 138–156 µs for a row-major layout that folds each row.

use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::{
    grid_l1_block, l1_distance, top_k_indices_into, L1Grid, RankScan, GRID_BLOCK, GRID_MAX_DIM,
};
use nscaching_models::{EmbeddingTable, KgeModel};

/// A grid copy of a model's entity table. Built with the model it mirrors,
/// and replaced with it.
#[derive(Debug)]
pub(crate) struct ScanMirror {
    grid: L1Grid,
    rows: usize,
    dim: usize,
    /// The grid values in blocks of [`GRID_BLOCK`] rows, dimension-major
    /// within a block: value `j` of row `GRID_BLOCK·b + r` is at
    /// `GRID_BLOCK·d·b + w·j + r`, with `w` the block's width (32, or
    /// `|E| mod 32` for the last block).
    blocks: Vec<u16>,
}

/// The per-caller buffers of the two passes (part of `QueryScratch`).
#[derive(Debug, Default)]
pub(crate) struct MirrorScratch {
    /// The model's `f64` query vector.
    query: Vec<f64>,
    /// Its clamped grid values.
    grid_query: Vec<u16>,
    /// `(sum, id)` of the rows a top-k still keeps within the slack.
    near: Vec<(u32, EntityId)>,
    /// The rows a top-k rescored, ascending: what its selection indexes.
    pub(crate) refined: Vec<EntityId>,
}

/// What the exact pass needs from the approximate one.
struct Pass<'m> {
    table: &'m EmbeddingTable,
    /// `L`: the largest gap between two rows' grid sums that the bound lets
    /// their exact scores close.
    slack: u32,
}

impl ScanMirror {
    /// The mirror of `model`'s entity table, or `None` when the model has no
    /// L1 form, an empty vocabulary, rows wider than [`GRID_MAX_DIM`], or
    /// values no grid spans (non-finite, or a range that is not finite and
    /// positive).
    pub(crate) fn build(model: &dyn KgeModel) -> Option<Self> {
        if model.num_entities() == 0 || model.num_relations() == 0 {
            return None;
        }
        let mut query = Vec::new();
        let table = model.l1_scan_query(&Triple::new(0, 0, 0), CorruptionSide::Tail, &mut query)?;
        let (rows, dim) = (table.rows(), table.dim());
        if rows != model.num_entities() || dim != query.len() || dim > GRID_MAX_DIM {
            return None;
        }
        let grid = L1Grid::spanning(table.data())?;
        let mut blocks = vec![0; rows * dim];
        let block_values = table.data().chunks(GRID_BLOCK * dim);
        for (block, values) in blocks.chunks_mut(GRID_BLOCK * dim).zip(block_values) {
            let width = values.len() / dim;
            for (r, row) in values.chunks_exact(dim).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    block[width * j + r] = grid.quantize(v);
                }
            }
        }
        Some(Self {
            grid,
            rows,
            dim,
            blocks,
        })
    }

    /// Resident bytes of the grid values: `2·|E|·d`.
    pub(crate) fn bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<u16>()
    }

    /// Fill `buf.query` through the model's hook and `buf.grid_query` with
    /// its grid values. `None` when the query falls outside the bound's
    /// domain, so the caller scans exactly.
    fn pass<'m>(
        &self,
        model: &'m dyn KgeModel,
        triple: &Triple,
        side: CorruptionSide,
        buf: &mut MirrorScratch,
    ) -> Option<Pass<'m>> {
        let table = model.l1_scan_query(triple, side, &mut buf.query)?;
        debug_assert_eq!((table.rows(), table.dim()), (self.rows, self.dim));
        if !buf.query.iter().all(|x| x.is_finite()) {
            return None;
        }
        let outside = self.grid.quantize_query(&buf.query, &mut buf.grid_query);
        let slack = self.grid.slack(self.dim, outside)?;
        Some(Pass { table, slack })
    }

    /// Two-pass top-`k` of `side` of `anchor` over the whole vocabulary:
    /// leaves the exact scores of the rescored rows in `scores`, those rows'
    /// ids in `buf.refined`, and in `order` the indices into both of the top
    /// `k`, best first — the full scan's answer. Returns `false`, touching
    /// nothing the caller reads, when the exact scan must answer instead
    /// (`k = 0`, `k ≥ |E|`, or a query outside the bound's domain).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn top_k(
        &self,
        model: &dyn KgeModel,
        anchor: &Triple,
        side: CorruptionSide,
        k: usize,
        buf: &mut MirrorScratch,
        scores: &mut Vec<f64>,
        order: &mut Vec<usize>,
    ) -> bool {
        if k == 0 || k >= self.rows {
            return false;
        }
        let Some(pass) = self.pass(model, anchor, side, buf) else {
            return false;
        };
        let mut near = Near::new(k, pass.slack, &mut buf.near, self.rows);
        let mut sums = [0u32; GRID_BLOCK];
        for (b, block) in self.blocks.chunks(GRID_BLOCK * self.dim).enumerate() {
            let sums = &mut sums[..block.len() / self.dim];
            grid_l1_block(block, &buf.grid_query, sums);
            near.offer(sums, (b * GRID_BLOCK) as EntityId);
        }
        near.finish(&mut buf.refined, self.rows);
        // The exact pass: rescore the kept rows in ascending id order and
        // select among them.
        scores.clear();
        scores.extend(
            buf.refined
                .iter()
                .map(|&e| -l1_distance(pass.table.row(e as usize), &buf.query)),
        );
        top_k_indices_into(scores, k, order);
        true
    }

    /// Two-pass rank counts of `triple` among the corruptions of `side`:
    /// the [`RankScan`] the full scan's `rank_scan` returns, and how many
    /// rows the exact pass rescored. `None` when the query falls outside the
    /// bound's domain.
    pub(crate) fn rank(
        &self,
        model: &dyn KgeModel,
        triple: &Triple,
        side: CorruptionSide,
        buf: &mut MirrorScratch,
    ) -> Option<(RankScan, usize)> {
        let pass = self.pass(model, triple, side, buf)?;
        let exact = |e: usize| -l1_distance(pass.table.row(e), &buf.query);
        let target = triple.entity_at(side) as usize;
        let value = exact(target);
        let own = self.block_row_sum(target, &buf.grid_query);
        // Sums below `below` score strictly higher, sums above `below +
        // window` strictly lower; the rest are rescored.
        let below = own.saturating_sub(pass.slack);
        let window = own.saturating_add(pass.slack) - below;
        let mut scan = RankScan {
            greater: 0,
            ties: 0,
        };
        let mut rescored = 0;
        let mut sums = [0u32; GRID_BLOCK];
        for (b, block) in self.blocks.chunks(GRID_BLOCK * self.dim).enumerate() {
            let sums = &mut sums[..block.len() / self.dim];
            grid_l1_block(block, &buf.grid_query, sums);
            scan.greater += count(sums, |s| s < below);
            if count(sums, |s| s.wrapping_sub(below) <= window) == 0 {
                continue;
            }
            for (r, &s) in sums.iter().enumerate() {
                let e = b * GRID_BLOCK + r;
                if e == target || s.wrapping_sub(below) > window {
                    continue;
                }
                rescored += 1;
                let score = exact(e);
                scan.greater += usize::from(score > value);
                scan.ties += usize::from(score == value);
            }
        }
        Some((scan, rescored))
    }

    /// The grid sum of one row, read across its block's columns.
    fn block_row_sum(&self, row: usize, query: &[u16]) -> u32 {
        let first = row - row % GRID_BLOCK;
        let width = GRID_BLOCK.min(self.rows - first);
        let block = &self.blocks[first * self.dim..][..width * self.dim];
        block[row - first..]
            .iter()
            .step_by(width)
            .zip(query)
            .map(|(&v, &q)| u32::from(v.abs_diff(q)))
            .sum()
    }
}

/// The approximate top-k's running selection: every offered row whose sum
/// is within the slack of the `k`-th smallest sum offered so far. That
/// cutoff only falls, so a row dropped early would be dropped at the end.
struct Near<'b> {
    k: usize,
    slack: u32,
    /// Rows with a larger sum are out.
    cutoff: u32,
    /// Prune when this many rows are kept.
    limit: usize,
    rows: &'b mut Vec<(u32, EntityId)>,
}

impl<'b> Near<'b> {
    /// `capacity` (the vocabulary size) bounds how many rows are ever kept,
    /// so reserving it once keeps later queries from reallocating.
    fn new(k: usize, slack: u32, rows: &'b mut Vec<(u32, EntityId)>, capacity: usize) -> Self {
        rows.clear();
        rows.reserve(capacity);
        Self {
            k,
            slack,
            cutoff: u32::MAX,
            limit: (2 * k).max(k + 64),
            rows,
        }
    }

    /// Offer the sums of consecutive rows, the first of which is `first`.
    #[inline]
    fn offer(&mut self, sums: &[u32], first: EntityId) {
        let cutoff = self.cutoff;
        if sums.iter().fold(u32::MAX, |m, &s| m.min(s)) > cutoff {
            return;
        }
        for (r, &s) in sums.iter().enumerate() {
            if s <= cutoff {
                self.rows.push((s, first + r as EntityId));
            }
        }
        if self.rows.len() >= self.limit {
            self.prune();
            self.limit = self.limit.max(2 * self.rows.len());
        }
    }

    /// Lower the cutoff to the `k`-th smallest kept sum plus the slack, and
    /// drop the rows above it. At least `k` rows are kept: every prune
    /// keeps the `k` smallest, and more than `k` rows are offered before
    /// the first.
    fn prune(&mut self) {
        let (_, kth, _) = self
            .rows
            .select_nth_unstable_by_key(self.k - 1, |&(s, _)| s);
        self.cutoff = kth.0.saturating_add(self.slack);
        let cutoff = self.cutoff;
        self.rows.retain(|&(s, _)| s <= cutoff);
    }

    /// The rows to rescore, in ascending id order, into `refined`
    /// (reserved like the kept rows).
    fn finish(mut self, refined: &mut Vec<EntityId>, capacity: usize) {
        self.prune();
        self.rows.sort_unstable_by_key(|&(_, id)| id);
        refined.clear();
        refined.reserve(capacity);
        refined.extend(self.rows.iter().map(|&(_, id)| id));
    }
}

/// How many sums of `chunk` satisfy `test`, without a branch per sum.
#[inline]
fn count(chunk: &[u32], test: impl Fn(u32) -> bool) -> usize {
    chunk.iter().map(|&s| usize::from(test(s))).sum()
}
