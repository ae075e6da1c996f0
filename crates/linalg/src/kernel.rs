//! The matrix products' two inner kernels, each compiled for two
//! instruction sets.
//!
//! * [`product`], a register-tiled micro-kernel, computes `out(i, j) = Σ_p
//!   a(i, p) · b(p, j)` for a band of output rows, holding an `R×C`
//!   [`Tile`] of output accumulators in registers across the `p` loop. It
//!   runs `matmul`, `matmul_transpose_left` and the short-dot
//!   `matmul_transpose_right` at every width. Against a row-streaming
//!   `axpy` (which loads and stores the output row once per `p`) or one
//!   short dot per element (one serial add chain per element), the tile
//!   keeps `R·C` independent add chains in flight and touches the output
//!   once per reduction block.
//! * [`dot_rows`] runs `matmul_transpose_right` over 16 or more shared
//!   columns: one [`simd::dot`] per element, in `j`-tiles of right-operand
//!   rows that stay in L1d across the band.
//!
//! ## Order contract
//!
//! Every element of [`product`] accumulates `a(i, p) · b(p, j)` in ascending
//! `p`, starting from `+0.0`, one multiply and one add per term. That is the
//! order of [`simd::dot`] on vectors shorter than [`simd::DOT_ACCUMULATORS`]
//! (its lanes all stay `+0.0` and the tail is summed in order). The tile
//! shape, the remainder tiles, the reduction blocks and the instruction set
//! only decide which elements and terms are computed together, so the
//! output is the same to the bit on every path. [`dot_rows`] keeps the
//! canonical 16-lane order of [`simd::dot`]. There is no FMA: a fused
//! multiply-add rounds once instead of twice, so output bits would depend
//! on the host CPU.
//!
//! The left operand of [`product`] is read through two strides
//! ([`Strided`]), so the same body serves `A·B` (`a(i, p) = A[i][p]`),
//! `Aᵀ·B` (`a(i, p) = A[p][i]`) and `A·Bᵀ` on a transposed copy of `B`.
//!
//! ## Reduction blocks
//!
//! Over more than [`REDUCTION_BLOCK`] terms, [`product`] runs the whole row
//! band once per block of shared indices, storing each tile's partial sums
//! into the output and reloading them for the next block (Goto & van de
//! Geijn, "Anatomy of High-Performance Matrix Multiplication", 2008). A
//! block of `b` (and, for `Aᵀ·B`, of the left operand's rows) then stays in
//! cache across the band instead of being streamed from memory once per
//! row band. A stored partial sum is an `f64` like the register it came
//! from, so each element is still the one ascending sum from `+0.0`. At
//! most one block's terms, the body is the plain tile loop.
//!
//! ## Instruction sets
//!
//! Each kernel is one `#[inline(always)]` body that `kernel_arms!`
//! instantiates twice: once for the compilation target (SSE2 on stock
//! x86-64) and, on x86-64, once more inside a `#[target_feature(enable =
//! "avx2")]` function, which doubles the vector width. [`product`] and
//! [`dot_rows`] pick the AVX2 arm at run time with
//! `is_x86_feature_detected!`, once per row block; nothing else selects it.

use crate::simd;
use std::ops::Range;

/// Output rows per full tile.
const TILE_ROWS: usize = 4;

/// Output columns per full tile: three 4-lane AVX2 registers per row, and
/// the width of the trained and served models' hidden layers.
const TILE_COLS: usize = 12;

/// Output columns per tile of the ragged column remainder, one 4-lane AVX2
/// register per row; anything narrower runs one column at a time.
const REMAINDER_COLS: usize = 4;

/// Shared indices per reduction block of [`product`]. Measured on a 2-core
/// AVX2 Xeon, a 2048-term `Aᵀ·B` into 256×256 ran 40 → 19 ms against the
/// unblocked tile (128 and 512 ran alike); one block also covers every
/// mini-batch `Vᵀ·H` and every `V·W` of a model up to 256 visible units,
/// which keep the plain loop.
pub(crate) const REDUCTION_BLOCK: usize = 256;

/// The left operand of a product, read as `a(i, p) = data[i * row_stride +
/// p * col_stride]`.
#[derive(Clone, Copy)]
pub(crate) struct Strided<'a> {
    data: &'a [f64],
    row_stride: usize,
    col_stride: usize,
}

impl<'a> Strided<'a> {
    /// A row-major `rows x k` matrix read as is: `a(i, p) = A[i][p]`.
    pub(crate) fn rows(data: &'a [f64], k: usize) -> Self {
        Self {
            data,
            row_stride: k,
            col_stride: 1,
        }
    }

    /// A row-major `k x cols` matrix read transposed: `a(i, p) = A[p][i]`.
    pub(crate) fn columns(data: &'a [f64], cols: usize) -> Self {
        Self {
            data,
            row_stride: 1,
            col_stride: cols,
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, p: usize) -> f64 {
        self.data[i * self.row_stride + p * self.col_stride]
    }
}

/// An `R×C` block of output accumulators, one `[f64; C]` row per output row
/// (the const-generic matrix-over-vector-rows shape), small enough that
/// the compiler keeps it in vector registers for the whole `p` loop.
#[repr(transparent)]
struct Tile<const R: usize, const C: usize>([[f64; C]; R]);

impl<const R: usize, const C: usize> Tile<R, C> {
    #[inline(always)]
    fn zeros() -> Self {
        Self([[0.0; C]; R])
    }

    /// The partial sums of a previous reduction block, read back from
    /// `out` (rows of `width` elements) at column `j0`.
    #[inline(always)]
    fn load(out: &[f64], width: usize, j0: usize) -> Self {
        Self(std::array::from_fn(|r| {
            out[r * width + j0..r * width + j0 + C]
                .try_into()
                .expect("a C-wide slice")
        }))
    }

    /// `self(r, c) += a[r] · b[c]`: a separate multiply and add, never fused.
    #[inline(always)]
    fn accumulate(&mut self, a: [f64; R], b: &[f64; C]) {
        for (row, &a_r) in self.0.iter_mut().zip(&a) {
            for (acc, &b_c) in row.iter_mut().zip(b) {
                *acc += a_r * b_c;
            }
        }
    }

    /// Writes the tile into `out` (rows of `width` elements) at column `j0`.
    #[inline(always)]
    fn store(&self, out: &mut [f64], width: usize, j0: usize) {
        for (r, row) in self.0.iter().enumerate() {
            out[r * width + j0..r * width + j0 + C].copy_from_slice(row);
        }
    }
}

/// One `R×C` tile over the shared indices `terms`: output rows `i..i + R`
/// (global indices into `a`), columns `j0..j0 + C`, written to `out` whose
/// first row is output row `i`. The first block starts from `+0.0`, a later
/// one from the sums the block before it stored.
#[inline(always)]
fn tile<const R: usize, const C: usize, const CARRY: bool>(
    a: Strided<'_>,
    b: &[f64],
    terms: Range<usize>,
    m: usize,
    i: usize,
    j0: usize,
    out: &mut [f64],
) {
    let mut acc = if CARRY {
        Tile::<R, C>::load(out, m, j0)
    } else {
        Tile::<R, C>::zeros()
    };
    let b_rows = b[terms.start * m..terms.end * m].chunks_exact(m);
    for (p, b_row) in terms.zip(b_rows) {
        let b_p: &[f64; C] = b_row[j0..j0 + C].try_into().expect("a C-wide slice");
        acc.accumulate(std::array::from_fn(|r| a.at(i + r, p)), b_p);
    }
    acc.store(out, m, j0);
}

/// Output rows `i..i + R` across all `m` columns over the shared indices
/// `terms`: full-width tiles, then narrower ones for the ragged column
/// remainder.
#[inline(always)]
fn row_band<const R: usize, const CARRY: bool>(
    a: Strided<'_>,
    b: &[f64],
    terms: Range<usize>,
    m: usize,
    i: usize,
    out: &mut [f64],
) {
    let mut j0 = 0;
    while j0 + TILE_COLS <= m {
        tile::<R, TILE_COLS, CARRY>(a, b, terms.clone(), m, i, j0, out);
        j0 += TILE_COLS;
    }
    while j0 + REMAINDER_COLS <= m {
        tile::<R, REMAINDER_COLS, CARRY>(a, b, terms.clone(), m, i, j0, out);
        j0 += REMAINDER_COLS;
    }
    while j0 < m {
        tile::<R, 1, CARRY>(a, b, terms.clone(), m, i, j0, out);
        j0 += 1;
    }
}

/// The kernel body both instruction-set arms instantiate: the first
/// reduction block from `+0.0`, then each later one from the sums the
/// block before it stored. No terms still make one block, which stores
/// zeros.
#[inline(always)]
fn product_body(
    a: Strided<'_>,
    b: &[f64],
    k: usize,
    m: usize,
    rows: Range<usize>,
    out: &mut [f64],
) {
    debug_assert_eq!(b.len(), k * m);
    debug_assert_eq!(out.len(), rows.len() * m);
    bands::<false>(a, b, 0..k.min(REDUCTION_BLOCK), m, rows.clone(), out);
    for p0 in (REDUCTION_BLOCK..k).step_by(REDUCTION_BLOCK) {
        bands::<true>(a, b, p0..k.min(p0 + REDUCTION_BLOCK), m, rows.clone(), out);
    }
}

/// One reduction block over `rows`: full-height row bands, then one shorter
/// band for the ragged row remainder.
#[inline(always)]
fn bands<const CARRY: bool>(
    a: Strided<'_>,
    b: &[f64],
    terms: Range<usize>,
    m: usize,
    rows: Range<usize>,
    out: &mut [f64],
) {
    let mut i = rows.start;
    while i + TILE_ROWS <= rows.end {
        let local = (i - rows.start) * m;
        row_band::<TILE_ROWS, CARRY>(a, b, terms.clone(), m, i, &mut out[local..]);
        i += TILE_ROWS;
    }
    let local = (i - rows.start) * m;
    let out = &mut out[local..];
    match rows.end - i {
        0 => {}
        1 => row_band::<1, CARRY>(a, b, terms, m, i, out),
        2 => row_band::<2, CARRY>(a, b, terms, m, i, out),
        3 => row_band::<3, CARRY>(a, b, terms, m, i, out),
        _ => unreachable!("fewer than {TILE_ROWS} rows remain"),
    }
}

/// Defines a kernel from its `#[inline(always)]` body: `$portable`, the body
/// compiled for the build target's baseline instruction set (SSE2 on stock
/// x86-64); on x86-64, `$avx2`, the body compiled with AVX2 enabled (and
/// FMA not: see the module docs); and `$name`, which runs the AVX2 arm when
/// `is_x86_feature_detected!` finds AVX2 and the portable arm otherwise.
macro_rules! kernel_arms {
    ($(#[$doc:meta])* $name:ident, $portable:ident, $avx2:ident, $body:ident,
     ($($arg:ident: $ty:ty),*)) => {
        /// The kernel compiled for the baseline instruction set.
        pub(crate) fn $portable($($arg: $ty),*) {
            $body($($arg),*);
        }

        /// The kernel compiled with AVX2 enabled.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX2.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        pub(crate) unsafe fn $avx2($($arg: $ty),*) {
            $body($($arg),*);
        }

        $(#[$doc])*
        pub(crate) fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU supports AVX2, checked just above.
                return unsafe { $avx2($($arg),*) };
            }
            $portable($($arg),*);
        }
    };
}

kernel_arms!(
    /// `out(i, j) = Σ_p a(i, p) · b(p, j)` for `i` in `rows`, `j` in `0..m`,
    /// where `b` is a row-major `k x m` matrix and `out` holds exactly the
    /// rows in `rows` (`rows.len() x m`, row-major). Bitwise identical on
    /// every arm; see the module docs for the order.
    product, product_portable, product_avx2, product_body,
    (a: Strided<'_>, b: &[f64], k: usize, m: usize, rows: Range<usize>, out: &mut [f64])
);

/// The dot loop: for each `j`-tile of `tile` right-operand rows, every
/// output row of the band, one canonical [`simd::dot`] per element.
#[inline(always)]
fn dot_rows_body(a: &[f64], b: &[f64], k: usize, tile: usize, rows: Range<usize>, out: &mut [f64]) {
    let m = b.len() / k;
    debug_assert_eq!(out.len(), rows.len() * m);
    for j0 in (0..m).step_by(tile) {
        let j1 = (j0 + tile).min(m);
        for (i, out_row) in rows.clone().zip(out.chunks_mut(m)) {
            let a_row = &a[i * k..(i + 1) * k];
            for (j, out_val) in (j0..j1).zip(&mut out_row[j0..j1]) {
                *out_val = simd::dot(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }
}

kernel_arms!(
    /// `out(i, j) = simd::dot(a_i, b_j)` for `i` in `rows`, `j` in `0..m`,
    /// where `a` and `b` are row-major with `k > 0` columns, `b` has `m` rows
    /// and `out` holds exactly the rows in `rows` (`rows.len() x m`,
    /// row-major), in `j`-tiles of `tile > 0` right-operand rows. Bitwise
    /// identical on every arm and for every tile.
    dot_rows, dot_rows_portable, dot_rows_avx2, dot_rows_body,
    (a: &[f64], b: &[f64], k: usize, tile: usize, rows: Range<usize>, out: &mut [f64])
);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The order contract written as the plainest loop: for each element,
    /// `+0.0` then `+= a(i, p) · b(p, j)` for ascending `p`.
    fn oracle(a: Strided<'_>, b: &[f64], k: usize, m: usize, rows: Range<usize>) -> Vec<f64> {
        let mut out = Vec::with_capacity(rows.len() * m);
        for i in rows {
            for j in 0..m {
                let mut sum = 0.0;
                for p in 0..k {
                    sum += a.at(i, p) * b[p * m + j];
                }
                out.push(sum);
            }
        }
        out
    }

    /// Bit equality, except that any NaN matches any NaN: Rust leaves the
    /// payload and sign of a NaN an operation produces unspecified.
    fn same_bits(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Every arm this CPU can run, by name.
    #[allow(clippy::type_complexity)]
    fn arms() -> Vec<(
        &'static str,
        fn(Strided<'_>, &[f64], usize, usize, Range<usize>, &mut [f64]),
    )> {
        #[allow(unused_mut)]
        let mut arms: Vec<(
            &'static str,
            fn(Strided<'_>, &[f64], usize, usize, Range<usize>, &mut [f64]),
        )> = vec![("portable", product_portable), ("dispatched", product)];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            fn avx2(
                a: Strided<'_>,
                b: &[f64],
                k: usize,
                m: usize,
                rows: Range<usize>,
                out: &mut [f64],
            ) {
                // SAFETY: only listed when the CPU supports AVX2.
                unsafe { product_avx2(a, b, k, m, rows, out) }
            }
            arms.push(("avx2", avx2));
        }
        arms
    }

    fn random(len: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-3.0..3.0)).collect()
    }

    /// Runs every arm on `rows` of both operand layouts and checks each
    /// against the oracle. `a_rows_major` holds `n x k` row-major data;
    /// its transpose is built here for the column-read layout.
    fn check_all(a_row_major: &[f64], n: usize, k: usize, b: &[f64], m: usize, rows: Range<usize>) {
        let a_col_major: Vec<f64> = (0..k)
            .flat_map(|p| (0..n).map(move |i| a_row_major[i * k + p]))
            .collect();
        let layouts = [
            ("rows", Strided::rows(a_row_major, k)),
            ("columns", Strided::columns(&a_col_major, n)),
        ];
        for (layout, a) in layouts {
            let expected = oracle(a, b, k, m, rows.clone());
            for (arm, run) in arms() {
                let mut out = vec![f64::NAN; rows.len() * m];
                run(a, b, k, m, rows.clone(), &mut out);
                assert!(
                    same_bits(&out, &expected),
                    "{arm} arm, {layout} layout, n = {n}, k = {k}, m = {m}, rows = {rows:?}"
                );
            }
        }
    }

    #[test]
    fn every_tile_remainder_matches_the_oracle_bit_for_bit() {
        // Rows 0..=9 cover no tile, every row remainder (1..=3) under zero,
        // one and two full tiles; the widths cover every column remainder
        // of the 12-wide tile, the 4-wide remainder tile and single columns.
        // k crosses 15/16/17, the `transpose_right` switch.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in 0..=9 {
            for m in [
                0, 1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 15, 16, 17, 19, 24, 27, 28, 29,
            ] {
                for k in 0..=40 {
                    let a = random(n * k, &mut rng);
                    let b = random(k * m, &mut rng);
                    check_all(&a, n, k, &b, m, 0..n);
                }
            }
        }
    }

    #[test]
    fn a_band_of_rows_inside_the_operand_matches_the_oracle() {
        // A pool chunk owns rows `start..end` of a taller operand: the
        // kernel must index `a` globally and `out` locally.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (n, k, m) = (23, 17, 14);
        let a = random(n * k, &mut rng);
        let b = random(k * m, &mut rng);
        for rows in [0..23, 5..11, 3..4, 22..23, 7..7, 1..20] {
            check_all(&a, n, k, &b, m, rows);
        }
    }

    #[test]
    fn reduction_blocks_carry_the_partial_sums() {
        // k across one and two block boundaries on every arm and both
        // layouts; 7 rows and 17 columns make every tile shape carry.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (n, m) = (7, 17);
        let block = REDUCTION_BLOCK;
        for k in [block - 1, block, block + 1, 2 * block + 1] {
            let a = random(n * k, &mut rng);
            let b = random(k * m, &mut rng);
            check_all(&a, n, k, &b, m, 0..n);
            check_all(&a, n, k, &b, m, 2..5);
        }
    }

    #[test]
    fn zero_terms_give_positive_zeros() {
        for (arm, run) in arms() {
            let mut out = vec![f64::NAN; 3 * 13];
            run(Strided::rows(&[], 0), &[], 0, 13, 0..3, &mut out);
            assert!(out.iter().all(|x| x.to_bits() == 0.0f64.to_bits()), "{arm}");
            // No columns: nothing to write.
            run(Strided::rows(&[1.0; 6], 2), &[], 2, 0, 0..3, &mut []);
        }
    }

    #[test]
    fn nan_propagates_past_zero_entries() {
        // `0 · NaN` is NaN: a zero in `a` must never skip a term.
        let (n, k, m) = (5, 6, 13);
        let a = vec![0.0; n * k];
        let mut b = vec![1.0; k * m];
        b[3 * m + 12] = f64::NAN;
        b[5 * m + 4] = f64::INFINITY; // 0 · ∞ is NaN too
        for (arm, run) in arms() {
            let mut out = vec![0.0; n * m];
            run(Strided::rows(&a, k), &b, k, m, 0..n, &mut out);
            for i in 0..n {
                for j in 0..m {
                    let poisoned = j == 12 || j == 4;
                    assert_eq!(out[i * m + j].is_nan(), poisoned, "{arm} ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn signed_zeros_and_infinities_follow_the_oracle() {
        // -0 products summed from +0 stay +0; ±∞ meet as NaN; one ∞ stays ∞.
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.0];
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for (n, k, m) in [(5, 3, 13), (4, 17, 12), (7, 16, 5), (2, 1, 29)] {
            for _ in 0..20 {
                let mut pick = |len: usize| -> Vec<f64> {
                    (0..len)
                        .map(|_| specials[rng.gen_range(0..specials.len())])
                        .collect()
                };
                let a = pick(n * k);
                let b = pick(k * m);
                check_all(&a, n, k, &b, m, 0..n);
            }
        }
        let negative_zeros = vec![-0.0; 4 * 3];
        for (arm, run) in arms() {
            let mut out = vec![f64::NAN; 4 * 12];
            run(
                Strided::rows(&negative_zeros, 3),
                &[1.0; 3 * 12],
                3,
                12,
                0..4,
                &mut out,
            );
            assert!(out.iter().all(|x| x.to_bits() == 0.0f64.to_bits()), "{arm}");
        }
    }
}
