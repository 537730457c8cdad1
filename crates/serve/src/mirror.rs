//! The scan mirror: an `f32` copy of a served model's entity table, and the
//! two-pass full-vocabulary top-k and rank scans that read it.
//!
//! A full-vocabulary scan of the `f64` table is bound by memory bandwidth,
//! yet only the few rows near the answer can change it. For a model whose
//! scores have an L1 form ([`KgeModel::l1_scan_query`]: TransE), each scan
//! here runs in two passes:
//!
//! 1. **Approximate.** Score every row of the mirror, half the bytes of the
//!    table, with [`l1_distance_f32`] against the `f32` rounding of the
//!    query: `â_e = −l1_f32(fl32(e), fl32(q))`. Against the exact score
//!    `s_e = −l1_distance(e, q)`, `|â_e − s_e| ≤ B`, the bound of
//!    [`l1_distance_f32_bound`] over the mirror's largest row norm and the
//!    query's norm.
//! 2. **Exact.** Rescore with the `f64` kernel, and the query the model's
//!    own scan uses, only the rows the bound cannot rule out. The hook's
//!    contract makes each rescored value the full scan's score, bit for bit.
//!
//! Why the answers are the full scan's:
//!
//! * **Top-k.** Let `τ` be the `k`-th largest `â`. The `k` rows with the
//!   largest `â` each have `s ≥ τ − B`; a row with `â < τ − 2B` has
//!   `s < τ − B`, so at least `k` rows beat it strictly, and no tie-break
//!   can let it in. Every other row (`â ≥ τ − 2B`) is rescored, in ascending
//!   id order, and the bounded top-k kernel selects among them: its
//!   lower-index tie break is then the full scan's lower-id tie break.
//! * **Rank.** With `v` the true entity's exact score, a row with
//!   `â > v + 2B` has `s > v + B`: greater. A row with `â < v − 2B` has
//!   `s < v − B`: lower. The rest are rescored and counted as
//!   [`rank_scan`](nscaching_math::rank_scan) counts them, skipping the
//!   true entity.
//!
//! The bound needs finite inputs of magnitude at most [`F32_L1_MAX_ABS`]:
//! a table with any other value gets no mirror, and a query whose `q` has
//! one takes the exact scan. Every score is then finite, so neither pass
//! meets a NaN. `k = 0` selects nothing and `k ≥ |E|` keeps every row, so
//! both take the exact path.

use nscaching_kg::{CorruptionSide, EntityId, Triple};
use nscaching_math::{
    l1_distance, l1_distance_f32, l1_distance_f32_bound, l1_norm_upper, top_k_indices_into,
    RankScan, F32_L1_MAX_ABS,
};
use nscaching_models::{EmbeddingTable, KgeModel};

/// Scores per block of the branch-free filters over the approximate scores.
const BLOCK: usize = 16;

/// An `f32` copy of a model's entity table plus an upper bound on its row
/// L1 norms. Built with the model it mirrors, and replaced with it.
#[derive(Debug)]
pub(crate) struct ScanMirror {
    /// `|E| × d` values, row-major: the `f32` rounding of each entry.
    rows: Vec<f32>,
    dim: usize,
    /// At least the largest `‖e‖₁` over the `f64` rows.
    max_row_l1: f64,
}

/// The per-caller buffers of the two passes (part of `QueryScratch`).
#[derive(Debug, Default)]
pub(crate) struct MirrorScratch {
    /// The model's `f64` query vector.
    query: Vec<f64>,
    /// Its `f32` rounding.
    query32: Vec<f32>,
    /// One approximate score per entity.
    approx: Vec<f64>,
    /// The rows a top-k rescored, ascending: what its selection indexes.
    pub(crate) refined: Vec<EntityId>,
}

/// What the exact pass needs from the approximate one.
struct Rescore<'m> {
    table: &'m EmbeddingTable,
    /// `2B`: the largest gap between two rows' `â` that the bound lets
    /// their exact scores close.
    slack: f64,
}

impl ScanMirror {
    /// The mirror of `model`'s entity table, or `None` when the model has
    /// no L1 form, an empty vocabulary, or an entity value the bound does
    /// not cover (non-finite, or beyond [`F32_L1_MAX_ABS`]).
    pub(crate) fn build(model: &dyn KgeModel) -> Option<Self> {
        if model.num_entities() == 0 || model.num_relations() == 0 {
            return None;
        }
        let mut query = Vec::new();
        let table = model.l1_scan_query(&Triple::new(0, 0, 0), CorruptionSide::Tail, &mut query)?;
        if table.rows() != model.num_entities() || table.dim() != query.len() {
            return None;
        }
        if !table.data().iter().all(|x| x.abs() <= F32_L1_MAX_ABS) {
            return None;
        }
        Some(Self {
            rows: table.data().iter().map(|&x| x as f32).collect(),
            dim: table.dim(),
            max_row_l1: table.rows_iter().map(l1_norm_upper).fold(0.0, f64::max),
        })
    }

    /// Resident bytes of the copy: `4·|E|·d`.
    pub(crate) fn bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<f32>()
    }

    fn num_rows(&self) -> usize {
        self.rows.len() / self.dim
    }

    /// The approximate pass: fill `buf.query` through the model's hook and
    /// `buf.approx` with every row's `â`. `None` when the query falls
    /// outside the bound's domain, so the caller scans exactly.
    fn approximate<'m>(
        &self,
        model: &'m dyn KgeModel,
        triple: &Triple,
        side: CorruptionSide,
        buf: &mut MirrorScratch,
    ) -> Option<Rescore<'m>> {
        let table = model.l1_scan_query(triple, side, &mut buf.query)?;
        debug_assert_eq!((table.rows(), table.dim()), (self.num_rows(), self.dim));
        if !buf.query.iter().all(|x| x.abs() <= F32_L1_MAX_ABS) {
            return None;
        }
        buf.query32.clear();
        buf.query32.extend(buf.query.iter().map(|&x| x as f32));
        let bound = l1_distance_f32_bound(self.dim, self.max_row_l1, l1_norm_upper(&buf.query));
        buf.approx.clear();
        buf.approx.extend(
            self.rows
                .chunks_exact(self.dim)
                .map(|row| -f64::from(l1_distance_f32(row, &buf.query32))),
        );
        Some(Rescore {
            table,
            slack: 2.0 * bound,
        })
    }

    /// Two-pass top-`k` of `side` of `anchor`: leaves the exact scores of
    /// the rescored rows in `scores`, those rows' ids in `buf.refined`, and
    /// in `order` the indices into both of the top `k`, best first — the
    /// full scan's answer. Returns `false`, touching nothing the caller
    /// reads, when the exact scan must answer instead (`k = 0`, `k ≥ |E|`,
    /// or a query outside the bound's domain).
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
        if k == 0 || k >= self.num_rows() {
            return false;
        }
        let Some(rescore) = self.approximate(model, anchor, side, buf) else {
            return false;
        };
        top_k_indices_into(&buf.approx, k, order);
        let cutoff = buf.approx[order[k - 1]] - rescore.slack;
        // Both buffers are sized for the worst case once, so a later query
        // with a larger refine set never reallocates.
        buf.refined.clear();
        buf.refined.reserve(self.num_rows());
        for (block, chunk) in buf.approx.chunks(BLOCK).enumerate() {
            if count(chunk, |a| a >= cutoff) == 0 {
                continue;
            }
            for (offset, &a) in chunk.iter().enumerate() {
                if a >= cutoff {
                    buf.refined.push((block * BLOCK + offset) as EntityId);
                }
            }
        }
        scores.clear();
        scores.reserve(self.num_rows());
        scores.extend(
            buf.refined
                .iter()
                .map(|&e| -l1_distance(rescore.table.row(e as usize), &buf.query)),
        );
        top_k_indices_into(scores, k, order);
        true
    }

    /// Two-pass rank counts of `triple` among the corruptions of `side`:
    /// the [`RankScan`] the full scan's `rank_scan` returns. `None` when
    /// the query falls outside the bound's domain.
    pub(crate) fn rank(
        &self,
        model: &dyn KgeModel,
        triple: &Triple,
        side: CorruptionSide,
        buf: &mut MirrorScratch,
    ) -> Option<RankScan> {
        let rescore = self.approximate(model, triple, side, buf)?;
        let exact = |e: usize| -l1_distance(rescore.table.row(e), &buf.query);
        let target = triple.entity_at(side) as usize;
        let value = exact(target);
        let (above, below) = (value + rescore.slack, value - rescore.slack);
        let unsure = |a: f64| a >= below && a <= above;
        let mut scan = RankScan {
            greater: 0,
            ties: 0,
        };
        for (block, chunk) in buf.approx.chunks(BLOCK).enumerate() {
            scan.greater += count(chunk, |a| a > above);
            if count(chunk, unsure) == 0 {
                continue;
            }
            for (offset, &a) in chunk.iter().enumerate() {
                let e = block * BLOCK + offset;
                if e == target || !unsure(a) {
                    continue;
                }
                let score = exact(e);
                scan.greater += usize::from(score > value);
                scan.ties += usize::from(score == value);
            }
        }
        Some(scan)
    }
}

/// How many scores of `chunk` satisfy `test`, without a branch per score.
#[inline]
fn count(chunk: &[f64], test: impl Fn(f64) -> bool) -> usize {
    chunk.iter().map(|&a| usize::from(test(a))).sum()
}
