//! The register-tiled micro-kernel behind the narrow matrix products.
//!
//! One body computes `out(i, j) = Σ_p a(i, p) · b(p, j)` for a band of
//! output rows, holding an `R×C` [`Tile`] of output accumulators in
//! registers across the whole `p` loop. Against a row-streaming `axpy`
//! (which loads and stores the output row once per `p`) or one short dot
//! per element (one serial add chain per element), the tile keeps `R·C`
//! independent add chains in flight and touches the output once.
//!
//! ## Order contract
//!
//! Every element accumulates `a(i, p) · b(p, j)` in ascending `p`, starting
//! from `+0.0`, one multiply and one add per term. That is the order of the
//! row-streaming products (zero the output row, then `out += a_ip · b_p` for
//! ascending `p`), and the order of [`crate::simd::dot`] on vectors shorter
//! than [`crate::simd::DOT_ACCUMULATORS`] (its lanes all stay `+0.0` and the
//! tail is summed in order). The tile shape, the remainder tiles and the
//! instruction set only decide which elements are computed together, so
//! the output is the same to the bit on every path. There is no FMA: a
//! fused multiply-add rounds once instead of twice, so output bits would
//! depend on the host CPU.
//!
//! The left operand is read through two strides ([`Strided`]), so the same
//! body serves `A·B` (`a(i, p) = A[i][p]`), `Aᵀ·B` (`a(i, p) = A[p][i]`) and
//! `A·Bᵀ` on a transposed copy of `B`.
//!
//! ## Instruction sets
//!
//! The body is `#[inline(always)]` and instantiated twice: once for the
//! compilation target (SSE2 on stock x86-64) and, on x86-64, once more
//! inside a `#[target_feature(enable = "avx2")]` function, which doubles
//! the vector width. [`product`] picks the AVX2 arm at run time with
//! `is_x86_feature_detected!`; nothing else selects it.

use std::ops::Range;

/// Output rows per full tile.
const TILE_ROWS: usize = 4;

/// Output columns per full tile: three 4-lane AVX2 registers per row, and
/// the width of the trained and served models' hidden layers.
const TILE_COLS: usize = 12;

/// Output columns per tile of the ragged column remainder, one 4-lane AVX2
/// register per row; anything narrower runs one column at a time.
const REMAINDER_COLS: usize = 4;

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

/// One `R×C` tile: output rows `i..i + R` (global indices into `a`), columns
/// `j0..j0 + C`, written to `out` whose first row is output row `i`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: Strided<'_>,
    b: &[f64],
    k: usize,
    m: usize,
    i: usize,
    j0: usize,
    out: &mut [f64],
) {
    let mut acc = Tile::<R, C>::zeros();
    for p in 0..k {
        let b_p: &[f64; C] = b[p * m + j0..p * m + j0 + C]
            .try_into()
            .expect("a C-wide slice");
        acc.accumulate(std::array::from_fn(|r| a.at(i + r, p)), b_p);
    }
    acc.store(out, m, j0);
}

/// Output rows `i..i + R` across all `m` columns: full-width tiles, then
/// narrower ones for the ragged column remainder.
#[inline(always)]
fn row_band<const R: usize>(
    a: Strided<'_>,
    b: &[f64],
    k: usize,
    m: usize,
    i: usize,
    out: &mut [f64],
) {
    let mut j0 = 0;
    while j0 + TILE_COLS <= m {
        tile::<R, TILE_COLS>(a, b, k, m, i, j0, out);
        j0 += TILE_COLS;
    }
    while j0 + REMAINDER_COLS <= m {
        tile::<R, REMAINDER_COLS>(a, b, k, m, i, j0, out);
        j0 += REMAINDER_COLS;
    }
    while j0 < m {
        tile::<R, 1>(a, b, k, m, i, j0, out);
        j0 += 1;
    }
}

/// The kernel body both instruction-set arms instantiate: full-height row
/// bands, then one shorter band for the ragged row remainder.
#[inline(always)]
fn product_body(
    a: Strided<'_>,
    b: &[f64],
    k: usize,
    m: usize,
    rows: Range<usize>,
    out: &mut [f64],
) {
    let mut i = rows.start;
    while i + TILE_ROWS <= rows.end {
        let local = (i - rows.start) * m;
        row_band::<TILE_ROWS>(a, b, k, m, i, &mut out[local..]);
        i += TILE_ROWS;
    }
    let local = (i - rows.start) * m;
    let out = &mut out[local..];
    match rows.end - i {
        0 => {}
        1 => row_band::<1>(a, b, k, m, i, out),
        2 => row_band::<2>(a, b, k, m, i, out),
        3 => row_band::<3>(a, b, k, m, i, out),
        _ => unreachable!("fewer than {TILE_ROWS} rows remain"),
    }
}

/// The kernel compiled for the build target's baseline instruction set.
pub(crate) fn product_portable(
    a: Strided<'_>,
    b: &[f64],
    k: usize,
    m: usize,
    rows: Range<usize>,
    out: &mut [f64],
) {
    product_body(a, b, k, m, rows, out);
}

/// The kernel compiled with AVX2 enabled (and FMA not: see the module docs).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn product_avx2(
    a: Strided<'_>,
    b: &[f64],
    k: usize,
    m: usize,
    rows: Range<usize>,
    out: &mut [f64],
) {
    product_body(a, b, k, m, rows, out);
}

/// `out(i, j) = Σ_p a(i, p) · b(p, j)` for `i` in `rows`, `j` in `0..m`,
/// where `b` is a row-major `k x m` matrix and `out` holds exactly the rows
/// in `rows` (`rows.len() x m`, row-major). Bitwise identical on every
/// arm; see the module docs for the order.
pub(crate) fn product(
    a: Strided<'_>,
    b: &[f64],
    k: usize,
    m: usize,
    rows: Range<usize>,
    out: &mut [f64],
) {
    debug_assert_eq!(b.len(), k * m);
    debug_assert_eq!(out.len(), rows.len() * m);
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { product_avx2(a, b, k, m, rows, out) };
    }
    product_portable(a, b, k, m, rows, out);
}

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
