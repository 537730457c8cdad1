//! A 15-bit fixed-point grid for approximate L1 scans, its integer block
//! kernel, and the error bound that lets a caller rescore exactly only the
//! rows the approximation cannot rule out.
//!
//! [`L1Grid::spanning`] maps every value of a table onto the integers
//! `0..=GRID_MAX` by `E = round((e − lo)·32767/(hi − lo))` (to nearest,
//! ties to even), with `lo` and `hi` the table's smallest and largest
//! values. A query coordinate is first clamped into `[lo, hi]`, and the
//! clamped-away part `C = Σ|q_j − c_j|` is kept as a per-query constant:
//! every table value lies in `[lo, hi]`, so
//! `|e_j − q_j| = |e_j − c_j| + |q_j − c_j|` exactly. The integer distance
//! `S = Σ|E_j − Q_j|` is then exact on the grid, and `â = S·step + C`
//! differs from the exact `f64` distance by at most [`L1Grid::bound`]: one
//! grid step per dimension plus a relative rounding term.
//!
//! Why 15 bits: `|a − b| ≤ 32767` for two grid values, so the sum of two
//! such differences fits a `u16` lane. The block kernel adds the two
//! dimensions of a pair in 16-bit lanes and widens once per pair, and a row
//! sum is at most `d·32767`, which fits the `u32` accumulators for every
//! `d ≤ GRID_MAX_DIM`.

/// Largest grid value: table values map onto `0..=GRID_MAX`.
pub const GRID_MAX: u16 = 32_767;

/// Rows per block of [`grid_l1_block`]'s dimension-major layout.
pub const GRID_BLOCK: usize = 32;

/// Largest dimension whose row sums fit the kernel's `u32` accumulators:
/// `d·GRID_MAX ≤ u32::MAX`.
pub const GRID_MAX_DIM: usize = (u32::MAX / GRID_MAX as u32) as usize;

/// Unit roundoff of `f64`, `2⁻⁵³`.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// Independent lanes of [`L1Grid::spanning`]'s min/max fold.
const SPAN_LANES: usize = 8;

/// One step of [`L1Grid::spanning`]'s fold. Plain comparisons run faster
/// than `f64::min`/`max`; a NaN they skip is refused through `finite`.
#[inline(always)]
fn span_step(lo: &mut f64, hi: &mut f64, finite: &mut bool, v: f64) {
    *finite &= v.is_finite();
    *lo = if v < *lo { v } else { *lo };
    *hi = if v > *hi { v } else { *hi };
}

/// The grid spanning one table's values `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L1Grid {
    lo: f64,
    hi: f64,
    /// `fl(hi − lo)`.
    range: f64,
    /// `fl(GRID_MAX / range)`: grid steps per unit.
    scale: f64,
    /// `fl(range / GRID_MAX)`: the value of one grid step.
    step: f64,
}

impl L1Grid {
    /// The grid spanning `values`, or `None` when a value is not finite, or
    /// the range `hi − lo` is not finite and positive (an empty or constant
    /// table). The step must also be a normal `f64`, so that every rounding
    /// in [`Self::bound`]'s derivation is relative.
    ///
    /// The min/max fold runs over eight independent lanes, so it is not one
    /// compare chain as long as the table. A zero end point is `+0.0`,
    /// whichever zero the fold met first, so the lanes' order cannot show
    /// in the grid.
    pub fn spanning(values: &[f64]) -> Option<Self> {
        // One array per quantity, so that each step of the fold is one
        // vector operation per quantity. An empty lane keeps `lo = +∞` and
        // `hi = −∞`, which the final fold over the lanes passes over.
        let mut lo = [f64::INFINITY; SPAN_LANES];
        let mut hi = [f64::NEG_INFINITY; SPAN_LANES];
        let mut finite = [true; SPAN_LANES];
        let mut chunks = values.chunks_exact(SPAN_LANES);
        for chunk in &mut chunks {
            for i in 0..SPAN_LANES {
                span_step(&mut lo[i], &mut hi[i], &mut finite[i], chunk[i]);
            }
        }
        for (i, &v) in chunks.remainder().iter().enumerate() {
            span_step(&mut lo[i], &mut hi[i], &mut finite[i], v);
        }
        if finite.contains(&false) {
            return None;
        }
        let lo = lo
            .into_iter()
            .fold(f64::INFINITY, |a, v| if v < a { v } else { a });
        let hi = hi
            .into_iter()
            .fold(f64::NEG_INFINITY, |a, v| if v > a { v } else { a });
        // `x + 0.0` is `x`, except that it turns `−0.0` into `+0.0`.
        let (lo, hi) = (lo + 0.0, hi + 0.0);
        let range = hi - lo;
        let step = range / f64::from(GRID_MAX);
        if !(range.is_finite() && step >= f64::MIN_POSITIVE) {
            return None;
        }
        Some(Self {
            lo,
            hi,
            range,
            scale: f64::from(GRID_MAX) / range,
            step,
        })
    }

    /// The grid value of `v`, which must lie in `[lo, hi]`:
    /// `round((v − lo)·32767/(hi − lo))`, to nearest with ties to even (one
    /// instruction, where round-half-away is a library call).
    #[inline]
    pub fn quantize(&self, v: f64) -> u16 {
        debug_assert!(v >= self.lo && v <= self.hi, "{v} outside the grid");
        // (v − lo)·scale is at most 32767·(1 + 4u); the `min` keeps the
        // rounding of that excess on the grid.
        ((v - self.lo) * self.scale)
            .round_ties_even()
            .min(f64::from(GRID_MAX)) as u16
    }

    /// Put the finite query `q`, clamped into `[lo, hi]`, on the grid in
    /// `out`, and return the clamped-away constant `C = Σ|q_j − c_j|`
    /// (possibly `+∞` for a huge query, which [`Self::slack`] refuses).
    pub fn quantize_query(&self, q: &[f64], out: &mut Vec<u16>) -> f64 {
        out.clear();
        let mut outside = 0.0;
        for &x in q {
            let c = x.clamp(self.lo, self.hi);
            outside += (x - c).abs();
            out.push(self.quantize(c));
        }
        outside
    }

    /// A bound `B` on `|â − s|`, where `s = l1_distance(e, q)` is the exact
    /// `f64` kernel's distance between a `dim`-wide row `e` of the spanned
    /// table and a finite query `q`, and `â = S·step + C` with `S` the
    /// integer grid distance and `C` = `outside`, the constant
    /// [`Self::quantize_query`] returned:
    ///
    /// `B = (d·step + 5·(d + 4)·u·(d·r + C))·(1 + 2⁻²⁰)`
    ///
    /// with `u = 2⁻⁵³` and `r = hi − lo`. Derivation, in exact arithmetic
    /// unless marked, with `s* = Σ|e_j − q_j|` the real distance:
    ///
    /// 1. Grid mapping. The computed `x = fl(fl(v − lo)·fl(32767/fl(r)))`
    ///    is `(v − lo)·(32767/r)·(1 + η)` with `|η| ≤ 4u + O(u²)`, and
    ///    `E`, `x` rounded to nearest, is within `1/2` of `x`. So `v − lo`
    ///    is within `(r/32767)/2 + 5u·r` of `(r/32767)·E`, for a table
    ///    value and for a clamped query coordinate alike.
    /// 2. Clamping is exact and `|e_j − q_j| = |e_j − c_j| + |q_j − c_j|`,
    ///    so with `A = (r/32767)·S + C`, `|A − s*| ≤ d·r/32767 + 10.02·d·u·r`
    ///    (`||a| − |b|| ≤ |a − b|` per dimension).
    /// 3. The exact kernel sums `d` rounded differences in some order:
    ///    `|s − s*| ≤ γ_d·s*`, `γ_d = d·u/(1 − d·u)`, and `s* ≤ d·r + C`.
    /// 4. Computing `â` rather than `A`: `fl(S·step)` is within `3.01·d·u·r`
    ///    of `(r/32767)·S`, the computed `C` within `γ_d·C` of the real
    ///    one, and the final addition errs by `u·â`.
    ///
    /// Steps 2–4 sum to under `d·r/32767 + 5·(d + 4)·u·(d·r + C)`; the factor
    /// `1 + 2⁻²⁰` covers the rounding of `step`, `r` and `C` as computed
    /// here against their real values, and of this expression itself (each
    /// a few `u`, relative). The bound holds for every `d ≤ GRID_MAX_DIM`
    /// (`d·u < 2⁻³⁵`, so `γ_d ≤ 1.01·d·u`).
    pub fn bound(&self, dim: usize, outside: f64) -> f64 {
        let d = dim as f64;
        let rounding = 5.0 * (d + 4.0) * UNIT_ROUNDOFF * (d * self.range + outside);
        (d * self.step + rounding) * (1.0 + 1.0 / f64::from(1u32 << 20))
    }

    /// The integer slack `L ≥ 2B/step` of a scan of `dim`-wide rows against
    /// a query whose clamped-away constant is `outside`, with `B` from
    /// [`Self::bound`]. If two rows' grid sums satisfy `S_j > S_i + L`, then
    /// `A_j − A_i ≥ (L + 1)·r/32767 > 2B`, so row `j`'s exact distance is
    /// strictly greater than row `i`'s. `None` when the bound is too wide
    /// for a `u32` (a huge or infinite `outside`): the grid then rules
    /// nothing out, and the caller should scan exactly. The `+ 1` covers
    /// the rounding of `2B/step` (below `2⁻³³` of its value).
    pub fn slack(&self, dim: usize, outside: f64) -> Option<u32> {
        let steps = (2.0 * self.bound(dim, outside) / self.step).ceil() + 1.0;
        // False for NaN and +∞ as well.
        (steps <= f64::from(u32::MAX)).then_some(steps as u32)
    }
}

/// Integer L1 sums of one block of grid rows against a grid query:
/// `sums[r] = Σ_j |block[j·w + r] − query[j]|`, with `w = sums.len()` rows
/// stored dimension-major (all `w` values of dimension 0, then of dimension
/// 1, …). Every value must be at most [`GRID_MAX`] and `query.len()` at most
/// [`GRID_MAX_DIM`], so no lane overflows.
///
/// A full block (`w = GRID_BLOCK`) keeps its 32 sums in registers and yields
/// them with no horizontal fold: each step adds one dimension pair of all 32
/// rows in 16-bit lanes (at most `2·32767`) and widens once, in 512-bit
/// registers where the build targets a CPU with AVX-512BW. A narrower block
/// (a table's last `|E| mod 32` rows) takes a plain column loop.
#[inline]
pub fn grid_l1_block(block: &[u16], query: &[u16], sums: &mut [u32]) {
    debug_assert_eq!(block.len(), sums.len() * query.len());
    if let Ok(full) = <&mut [u32; GRID_BLOCK]>::try_from(&mut *sums) {
        *full = full_block(block, query);
        return;
    }
    sums.fill(0);
    if sums.is_empty() {
        return;
    }
    for (column, &q) in block.chunks_exact(sums.len()).zip(query) {
        for (sum, &v) in sums.iter_mut().zip(column) {
            *sum += u32::from(v.abs_diff(q));
        }
    }
}

/// [`grid_l1_block`] for a block of exactly [`GRID_BLOCK`] rows: 512-bit
/// registers where the build targets a CPU with AVX-512BW, else the
/// portable loop.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
#[inline]
fn full_block(block: &[u16], query: &[u16]) -> [u32; GRID_BLOCK] {
    // SAFETY: the build targets a CPU with AVX-512F and AVX-512BW (the
    // `cfg` above; AVX-512BW implies AVX-512F).
    unsafe { avx512_full_block(block, query) }
}

/// [`full_block`] in 512-bit registers.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
#[target_feature(enable = "avx512f,avx512bw")]
fn avx512_full_block(block: &[u16], query: &[u16]) -> [u32; GRID_BLOCK] {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi16, _mm512_add_epi32, _mm512_castsi512_si256, _mm512_cvtepu16_epi32,
        _mm512_extracti64x4_epi64, _mm512_loadu_epi16, _mm512_max_epu16, _mm512_min_epu16,
        _mm512_set1_epi16, _mm512_setzero_si512, _mm512_storeu_epi32, _mm512_sub_epi16,
    };
    /// `|v − q|` in each 16-bit lane.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn abs_diff(v: __m512i, q: __m512i) -> __m512i {
        _mm512_sub_epi16(_mm512_max_epu16(v, q), _mm512_min_epu16(v, q))
    }
    // One register holds a dimension of all 32 rows: the pair sums take one
    // 16-bit add, and widening them takes two, where the portable loop's
    // 256-bit code needs twice as many of each. On a Sapphire Rapids host a
    // pass over a 14,541 × 64 mirror took 49–51 µs here, 73–77 µs there.
    let (mut low, mut high) = (_mm512_setzero_si512(), _mm512_setzero_si512());
    let mut pairs = block.chunks_exact(2 * GRID_BLOCK);
    let mut dims = query.chunks_exact(2);
    for (rows, q) in (&mut pairs).zip(&mut dims) {
        // SAFETY: `rows` holds 2·GRID_BLOCK = 64 values, so both 32-value
        // unaligned loads stay inside it.
        let (a, b) = unsafe {
            (
                _mm512_loadu_epi16(rows.as_ptr().cast()),
                _mm512_loadu_epi16(rows[GRID_BLOCK..].as_ptr().cast()),
            )
        };
        // Grid values are at most 32767, so they are the same as `i16`.
        let pair = _mm512_add_epi16(
            abs_diff(a, _mm512_set1_epi16(q[0] as i16)),
            abs_diff(b, _mm512_set1_epi16(q[1] as i16)),
        );
        low = _mm512_add_epi32(low, _mm512_cvtepu16_epi32(_mm512_castsi512_si256(pair)));
        high = _mm512_add_epi32(
            high,
            _mm512_cvtepu16_epi32(_mm512_extracti64x4_epi64::<1>(pair)),
        );
    }
    let mut acc = [0u32; GRID_BLOCK];
    // SAFETY: `acc` holds 32 sums, so both 16-sum unaligned stores stay
    // inside it.
    unsafe {
        _mm512_storeu_epi32(acc.as_mut_ptr().cast(), low);
        _mm512_storeu_epi32(acc[GRID_BLOCK / 2..].as_mut_ptr().cast(), high);
    }
    if let [q] = *dims.remainder() {
        for (sum, &v) in acc.iter_mut().zip(pairs.remainder()) {
            *sum += u32::from(v.abs_diff(q));
        }
    }
    acc
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512bw")))]
use portable_full_block as full_block;

/// [`grid_l1_block`] for a block of exactly [`GRID_BLOCK`] rows, in plain
/// Rust that the compiler vectorises.
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "avx512bw"),
    allow(dead_code)
)]
#[inline]
fn portable_full_block(block: &[u16], query: &[u16]) -> [u32; GRID_BLOCK] {
    let mut acc = [0u32; GRID_BLOCK];
    let mut pairs = block.chunks_exact(2 * GRID_BLOCK);
    let mut dims = query.chunks_exact(2);
    for (rows, q) in (&mut pairs).zip(&mut dims) {
        let (a, b): (&[u16; GRID_BLOCK], &[u16; GRID_BLOCK]) = (
            rows[..GRID_BLOCK].try_into().expect("a full column"),
            rows[GRID_BLOCK..].try_into().expect("a full column"),
        );
        // Separate loops: the 16-bit pair sums vectorise at twice the lane
        // count of the widening add.
        let mut pair = [0u16; GRID_BLOCK];
        for r in 0..GRID_BLOCK {
            pair[r] = a[r].abs_diff(q[0]) + b[r].abs_diff(q[1]);
        }
        for r in 0..GRID_BLOCK {
            acc[r] += u32::from(pair[r]);
        }
    }
    if let [q] = *dims.remainder() {
        for (sum, &v) in acc.iter_mut().zip(pairs.remainder()) {
            *sum += u32::from(v.abs_diff(q));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops::l1_distance;

    /// Scalar reference: the sum in `u64`, one dimension at a time.
    fn reference(rows: &[Vec<u16>], query: &[u16]) -> Vec<u64> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .zip(query)
                    .map(|(&v, &q)| (i64::from(v) - i64::from(q)).unsigned_abs())
                    .sum()
            })
            .collect()
    }

    /// `rows` laid out dimension-major, as [`grid_l1_block`] reads them.
    fn block_of(rows: &[Vec<u16>], dim: usize) -> Vec<u16> {
        (0..dim)
            .flat_map(|j| rows.iter().map(move |row| row[j]))
            .collect()
    }

    /// The grid sum of one row: [`grid_l1_block`] over a one-row block,
    /// which is the row itself.
    fn row_sum(row: &[u16], query: &[u16]) -> u32 {
        let mut sum = [0u32; 1];
        grid_l1_block(row, query, &mut sum);
        sum[0]
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn grid(&mut self) -> u16 {
            (self.next() % (u64::from(GRID_MAX) + 1)) as u16
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn grid_kernels_match_the_scalar_reference() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        // Odd and even dimensions (the pair loop's remainder) and every
        // block width from empty to full.
        for dim in [1usize, 2, 5, 8, 16, 23, 64, 65] {
            for width in [0usize, 1, 3, 17, 31, GRID_BLOCK] {
                let rows: Vec<Vec<u16>> = (0..width)
                    .map(|_| (0..dim).map(|_| rng.grid()).collect())
                    .collect();
                let query: Vec<u16> = (0..dim).map(|_| rng.grid()).collect();
                let want = reference(&rows, &query);
                let mut sums = vec![u32::MAX; width];
                grid_l1_block(&block_of(&rows, dim), &query, &mut sums);
                let got: Vec<u64> = sums.iter().map(|&s| u64::from(s)).collect();
                assert_eq!(got, want, "block d={dim} w={width}");
                if width == GRID_BLOCK {
                    // The portable loop, whichever kernel this build uses.
                    let portable = portable_full_block(&block_of(&rows, dim), &query);
                    assert_eq!(portable.map(u64::from).to_vec(), want, "portable d={dim}");
                }
                for (row, &want) in rows.iter().zip(&want) {
                    assert_eq!(u64::from(row_sum(row, &query)), want, "row d={dim}");
                }
            }
        }
    }

    #[test]
    fn the_largest_supported_dimension_does_not_overflow() {
        // All-0 rows against an all-32767 query and the reverse: every
        // pair sum is 65534 and every row sum d·32767, the largest a u32
        // accumulator must hold.
        let dim = GRID_MAX_DIM;
        assert!(dim as u64 * u64::from(GRID_MAX) <= u64::from(u32::MAX));
        assert!((dim as u64 + 1) * u64::from(GRID_MAX) > u64::from(u32::MAX));
        let want = dim as u32 * u32::from(GRID_MAX);
        for (value, query) in [(0u16, GRID_MAX), (GRID_MAX, 0u16)] {
            let block = vec![value; GRID_BLOCK * dim];
            let query = vec![query; dim];
            let mut sums = [0u32; GRID_BLOCK];
            grid_l1_block(&block, &query, &mut sums);
            assert_eq!(sums, [want; GRID_BLOCK]);
            assert_eq!(portable_full_block(&block, &query), [want; GRID_BLOCK]);
            let mut tail = [0u32; 3];
            grid_l1_block(&block[..3 * dim], &query, &mut tail);
            assert_eq!(tail, [want; 3]);
            assert_eq!(row_sum(&block[..dim], &query), want);
        }
    }

    #[test]
    fn grid_distances_stay_within_the_bound_of_the_f64_kernel() {
        // Tables over eight decades of magnitude, queries inside and far
        // outside their range, near-cancelling rows, and the grid's end
        // points, at dimensions that exercise every chunking path.
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        for dim in [1usize, 7, 16, 33, 64, 100] {
            for trial in 0..60i32 {
                let scale = 10f64.powi(trial % 8 - 4);
                let offset = if trial % 3 == 0 { 3.0 * scale } else { 0.0 };
                let table: Vec<f64> = (0..8 * dim)
                    .map(|_| offset + (rng.unit() - 0.5) * scale)
                    .collect();
                let grid = L1Grid::spanning(&table).expect("a finite, spread table");
                for (i, row) in table.chunks_exact(dim).enumerate() {
                    let q: Vec<f64> = row
                        .iter()
                        .map(|&v| match (trial as usize + i) % 4 {
                            0 => v * (1.0 + 1e-9),
                            1 => offset + (rng.unit() - 0.5) * scale * 40.0,
                            2 => grid.lo + (grid.hi - grid.lo) * rng.unit(),
                            _ => offset + (rng.unit() - 0.5) * scale,
                        })
                        .collect();
                    let mut grid_q = Vec::new();
                    let outside = grid.quantize_query(&q, &mut grid_q);
                    let grid_row: Vec<u16> = row.iter().map(|&v| grid.quantize(v)).collect();
                    let sum = row_sum(&grid_row, &grid_q);
                    let approx = f64::from(sum) * grid.step + outside;
                    let bound = grid.bound(dim, outside);
                    let err = (approx - l1_distance(row, &q)).abs();
                    assert!(err <= bound, "d={dim} trial {trial}: {err} > {bound}");
                    let slack = grid.slack(dim, outside).expect("a finite query");
                    assert!(f64::from(slack) * grid.step >= 2.0 * bound);
                }
            }
        }
    }

    /// The fold [`L1Grid::spanning`] ran before its lanes: one compare
    /// chain over the whole table.
    fn spanning_reference(values: &[f64]) -> Option<L1Grid> {
        let (mut lo, mut hi, mut finite) = (f64::INFINITY, f64::NEG_INFINITY, true);
        for &v in values {
            finite &= v.is_finite();
            lo = if v < lo { v } else { lo };
            hi = if v > hi { v } else { hi };
        }
        let (lo, hi) = (lo + 0.0, hi + 0.0);
        let range = hi - lo;
        let step = range / f64::from(GRID_MAX);
        (finite && range.is_finite() && step >= f64::MIN_POSITIVE).then(|| L1Grid {
            lo,
            hi,
            range,
            scale: f64::from(GRID_MAX) / range,
            step,
        })
    }

    fn grid_bits(grid: Option<L1Grid>) -> Option<[u64; 5]> {
        grid.map(|g| [g.lo, g.hi, g.range, g.scale, g.step].map(f64::to_bits))
    }

    #[test]
    fn the_lane_split_span_matches_the_one_chain_fold() {
        // Every length across the eight lanes and the remainder, and every
        // special value at every position: the unique minimum or maximum,
        // a NaN the comparisons skip, an infinity, and a zero of either sign
        // as an end point of positive, negative and all-zero tables.
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -10.0,
            10.0,
        ];
        for len in 0..=40usize {
            let bases: [Vec<f64>; 3] = [
                (0..len).map(|i| 0.5 + (i * 7 % 13) as f64 / 13.0).collect(),
                (0..len)
                    .map(|i| -0.5 - (i * 5 % 11) as f64 / 11.0)
                    .collect(),
                (0..len)
                    .map(|i| if i % 3 == 2 { 1.0 } else { -0.0 })
                    .collect(),
            ];
            for base in &bases {
                assert_eq!(
                    grid_bits(L1Grid::spanning(base)),
                    grid_bits(spanning_reference(base)),
                    "len {len}: {base:?}"
                );
                for at in 0..len {
                    for special in specials {
                        let mut values = base.clone();
                        values[at] = special;
                        assert_eq!(
                            grid_bits(L1Grid::spanning(&values)),
                            grid_bits(spanning_reference(&values)),
                            "len {len}: {values:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_grid_spans_its_end_points_and_refuses_degenerate_tables() {
        let grid = L1Grid::spanning(&[-0.5, 0.25, 1.5]).unwrap();
        assert_eq!((grid.lo, grid.hi), (-0.5, 1.5));
        assert_eq!(grid.quantize(-0.5), 0);
        assert_eq!(grid.quantize(1.5), GRID_MAX);
        assert_eq!(grid.quantize(0.5), 16_384, "16383.5: ties to even");
        let unit = L1Grid::spanning(&[0.0, 32_767.0]).unwrap();
        assert_eq!((unit.quantize(2.5), unit.quantize(3.5)), (2, 4));
        // One step per dimension: d = 64 over the range 2 gives about
        // 64·2/32767, and the slack 2d plus the rounding margin.
        let bound = grid.bound(64, 0.0);
        assert!((64.0 * 2.0 / 32_767.0..64.1 * 2.0 / 32_767.0).contains(&bound));
        assert_eq!(grid.slack(64, 0.0), Some(130));
        for outside in [f64::INFINITY, f64::NAN, 1e300] {
            assert_eq!(grid.slack(64, outside), None, "{outside}");
        }
        let mut q = Vec::new();
        assert_eq!(grid.quantize_query(&[-2.5, 0.5, 4.0], &mut q), 2.0 + 2.5);
        assert_eq!(q, [0, 16_384, GRID_MAX]);

        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(L1Grid::spanning(&[0.0, bad, 1.0]), None, "{bad}");
        }
        assert_eq!(L1Grid::spanning(&[]), None, "empty");
        assert_eq!(L1Grid::spanning(&[0.3; 5]), None, "constant");
        assert_eq!(L1Grid::spanning(&[-1e308, 1e308]), None, "infinite range");
        assert_eq!(L1Grid::spanning(&[0.0, 1e-310]), None, "subnormal step");
    }
}
