//! The dense kernels' two inner loops, each compiled for two instruction
//! sets.
//!
//! * [`product`], a register-tiled micro-kernel, computes `out(i, j) = Σ_p
//!   a(i, p) · b(p, j)` for a band of output rows, holding an `R×C`
//!   [`Tile`] of output accumulators in registers across the `p` loop. It
//!   runs `matmul`, `matmul_transpose_left` and `matmul_transpose_right` at
//!   every width. Against a row-streaming `axpy` (which loads and stores the
//!   output row once per `p`) or one dot per element (one serial add chain
//!   per element, or a fixed set of lanes with its own order), the tile
//!   keeps `R·C` independent add chains in flight and touches the output
//!   once per reduction block.
//! * [`squared_distances`] is the same tile loop with another [`Term`]:
//!   `out(i, j) = Σ_p (a(i, p) − b(p, j))²`, the upper triangle of the
//!   pairwise squared distances of the rows of `a` when `b = aᵀ`
//!   (`pairwise_squared_distances` in `norms.rs`). Affinity propagation
//!   and density peaks build their similarity and distance matrices on it.
//!
//! ## Order contract
//!
//! Every element of both kernels accumulates its terms in ascending `p`,
//! starting from `+0.0`, each term rounded on its own and then added: one
//! multiply and one add per term for [`product`], one subtract, one
//! multiply and one add for [`squared_distances`]. For [`product`] that is
//! the plain ascending sum, whichever of the three products it runs, so
//! `A·Bᵀ` and `A·(Bᵀ)` have the same bits. For [`squared_distances`] it is
//! the order of `squared_euclidean_distance`, whose `Iterator::sum` starts
//! from `−0.0` instead: the same bits after the first term, because every
//! term is `≥ +0.0` or NaN (the entry point keeps the `−0.0` of no terms
//! itself). The tile shape, the remainder tiles, the reduction blocks and
//! the instruction set only decide which elements and terms are computed
//! together, so the output is the same to the bit on every path. There is
//! no FMA: a fused multiply-add rounds once instead of twice, so output bits
//! would depend on the host CPU.
//!
//! The left operand is read through two strides ([`Strided`]), so the same
//! body serves `A·B` (`a(i, p) = A[i][p]`), `Aᵀ·B` (`a(i, p) = A[p][i]`)
//! and `A·Bᵀ` or the distances of `A`'s rows on a transposed copy of `B`
//! or `A`.
//!
//! ## Triangle rule
//!
//! A distance matrix is symmetric to the bit (`(x − y)²` and `(y − x)²` are
//! the same value), so [`squared_distances`] only needs `j ≥ i`. Its row
//! bands start their column tiles at the band's first row instead of
//! column 0, which halves the work: in a 4-row band the later rows also
//! get up to 3 entries left of the diagonal, each written with its own
//! correct sum, and no column left of the band's first row is written. The
//! caller mirrors the upper triangle into the lower one and sets the
//! diagonal.
//!
//! ## Reduction blocks
//!
//! Over more than [`REDUCTION_BLOCK`] terms, both kernels run the whole
//! row band once per block of shared indices, storing each tile's partial
//! sums into the output and reloading them for the next block (Goto & van
//! de Geijn, "Anatomy of High-Performance Matrix Multiplication", 2008). A
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
//! "avx2")]` function, which doubles the vector width. Each kernel picks
//! its AVX2 arm at run time with `is_x86_feature_detected!`, once per row
//! block; nothing else selects it.

use std::ops::Range;

/// Output rows per full tile.
const TILE_ROWS: usize = 4;

/// Output columns per full tile: three 4-lane AVX2 registers per row, and
/// the width of the trained and served models' hidden layers.
const TILE_COLS: usize = 12;

/// Output columns per tile of the ragged column remainder, one 4-lane AVX2
/// register per row; anything narrower runs one column at a time.
const REMAINDER_COLS: usize = 4;

/// Shared indices per reduction block of the tiled kernels. Measured on a
/// 2-core AVX2 Xeon, a 2048-term `Aᵀ·B` into 256×256 ran 40 → 19 ms against
/// the unblocked tile (128 and 512 ran alike); one block also covers every
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

    /// `self(r, c) += T::term(a[r], b[c])`.
    #[inline(always)]
    fn accumulate<T: Term>(&mut self, a: [f64; R], b: &[f64; C]) {
        for (row, &a_r) in self.0.iter_mut().zip(&a) {
            for (acc, &b_c) in row.iter_mut().zip(b) {
                *acc += T::term(a_r, b_c);
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

/// What each term of a tiled kernel's element adds, and which of its
/// output columns a row band covers.
pub(crate) trait Term {
    /// Whether the kernel only needs the upper triangle `j ≥ i` (its output
    /// is symmetric and square): a row band's column tiles then start at the
    /// band's first row instead of column 0.
    const UPPER_TRIANGLE: bool;

    /// The term `a(i, p) ⊕ b(p, j)` added onto element `(i, j)`.
    fn term(a: f64, b: f64) -> f64;
}

/// `a · b`: the matrix product's term, a multiply then a separate add.
pub(crate) struct Product;

impl Term for Product {
    const UPPER_TRIANGLE: bool = false;

    #[inline(always)]
    fn term(a: f64, b: f64) -> f64 {
        a * b
    }
}

/// `(a − b)²`: the squared distance's term, a subtract, a multiply and a
/// separate add, in the order of [`crate::squared_euclidean_distance`].
pub(crate) struct SquaredDifference;

impl Term for SquaredDifference {
    const UPPER_TRIANGLE: bool = true;

    #[inline(always)]
    fn term(a: f64, b: f64) -> f64 {
        (a - b) * (a - b)
    }
}

/// One `R×C` tile over the shared indices `terms`: output rows `i..i + R`
/// (global indices into `a`), columns `j0..j0 + C`, written to `out` whose
/// first row is output row `i`. The first block starts from `+0.0`, a later
/// one from the sums the block before it stored.
#[inline(always)]
fn tile<T: Term, const R: usize, const C: usize, const CARRY: bool>(
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
        acc.accumulate::<T>(std::array::from_fn(|r| a.at(i + r, p)), b_p);
    }
    acc.store(out, m, j0);
}

/// Output rows `i..i + R` over the shared indices `terms`: full-width
/// tiles, then narrower ones for the ragged column remainder. The tiles
/// cover columns `i..m` under [`Term::UPPER_TRIANGLE`], all `m` otherwise.
#[inline(always)]
fn row_band<T: Term, const R: usize, const CARRY: bool>(
    a: Strided<'_>,
    b: &[f64],
    terms: Range<usize>,
    m: usize,
    i: usize,
    out: &mut [f64],
) {
    let mut j0 = if T::UPPER_TRIANGLE { i } else { 0 };
    while j0 + TILE_COLS <= m {
        tile::<T, R, TILE_COLS, CARRY>(a, b, terms.clone(), m, i, j0, out);
        j0 += TILE_COLS;
    }
    while j0 + REMAINDER_COLS <= m {
        tile::<T, R, REMAINDER_COLS, CARRY>(a, b, terms.clone(), m, i, j0, out);
        j0 += REMAINDER_COLS;
    }
    while j0 < m {
        tile::<T, R, 1, CARRY>(a, b, terms.clone(), m, i, j0, out);
        j0 += 1;
    }
}

/// The body every tiled kernel's instruction-set arms instantiate: the
/// first reduction block from `+0.0`, then each later one from the sums the
/// block before it stored. No terms still make one block, which stores
/// zeros.
#[inline(always)]
fn tiled_body<T: Term>(
    a: Strided<'_>,
    b: &[f64],
    k: usize,
    m: usize,
    rows: Range<usize>,
    out: &mut [f64],
) {
    debug_assert_eq!(b.len(), k * m);
    debug_assert_eq!(out.len(), rows.len() * m);
    bands::<T, false>(a, b, 0..k.min(REDUCTION_BLOCK), m, rows.clone(), out);
    for p0 in (REDUCTION_BLOCK..k).step_by(REDUCTION_BLOCK) {
        bands::<T, true>(a, b, p0..k.min(p0 + REDUCTION_BLOCK), m, rows.clone(), out);
    }
}

/// One reduction block over `rows`: full-height row bands, then one shorter
/// band for the ragged row remainder.
#[inline(always)]
fn bands<T: Term, const CARRY: bool>(
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
        row_band::<T, TILE_ROWS, CARRY>(a, b, terms.clone(), m, i, &mut out[local..]);
        i += TILE_ROWS;
    }
    let local = (i - rows.start) * m;
    let out = &mut out[local..];
    match rows.end - i {
        0 => {}
        1 => row_band::<T, 1, CARRY>(a, b, terms, m, i, out),
        2 => row_band::<T, 2, CARRY>(a, b, terms, m, i, out),
        3 => row_band::<T, 3, CARRY>(a, b, terms, m, i, out),
        _ => unreachable!("fewer than {TILE_ROWS} rows remain"),
    }
}

/// Defines a kernel from its `#[inline(always)]` body: `$portable`, the body
/// compiled for the build target's baseline instruction set (SSE2 on stock
/// x86-64); on x86-64, `$avx2`, the body compiled with AVX2 enabled (and
/// FMA not: see the module docs); and `$name`, which runs the AVX2 arm when
/// `is_x86_feature_detected!` finds AVX2 and the portable arm otherwise.
macro_rules! kernel_arms {
    ($(#[$doc:meta])* $name:ident, $portable:ident, $avx2:ident, $body:path,
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
    product, product_portable, product_avx2, tiled_body::<Product>,
    (a: Strided<'_>, b: &[f64], k: usize, m: usize, rows: Range<usize>, out: &mut [f64])
);

kernel_arms!(
    /// `out(i, j) = Σ_p (a(i, p) − b(p, j))²` for `i` in `rows` and at least
    /// every `j` in `i..m`, where `b` is a row-major `k x m` matrix and `out`
    /// holds exactly the rows in `rows` (`rows.len() x m`, row-major). A
    /// column `j < i` is either left as it was or written with its own sum;
    /// see the module docs for the triangle rule. Bitwise identical on every
    /// arm.
    squared_distances, squared_distances_portable, squared_distances_avx2,
    tiled_body::<SquaredDifference>,
    (a: Strided<'_>, b: &[f64], k: usize, m: usize, rows: Range<usize>, out: &mut [f64])
);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    type Kernel = fn(Strided<'_>, &[f64], usize, usize, Range<usize>, &mut [f64]);

    /// Every arm of one tiled kernel this CPU can run, by name.
    macro_rules! arms {
        ($portable:ident, $dispatched:ident, $avx2:ident) => {{
            #[allow(unused_mut)]
            let mut arms: Vec<(&'static str, Kernel)> =
                vec![("portable", $portable), ("dispatched", $dispatched)];
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
                    unsafe { $avx2(a, b, k, m, rows, out) }
                }
                arms.push(("avx2", avx2));
            }
            arms
        }};
    }

    /// One tiled kernel under test: its arms and the order contract written
    /// as the plainest loop, `+0.0` then `+= term(a(i, p), b(p, j))` for
    /// ascending `p`.
    struct Case {
        name: &'static str,
        arms: Vec<(&'static str, Kernel)>,
        term: fn(f64, f64) -> f64,
        /// Only `j ≥ i` must be written; `j < i` may keep `UNWRITTEN`.
        upper_triangle: bool,
    }

    /// What `out` holds before a kernel runs. A squared distance is never
    /// negative, so it marks an element the distance kernel left alone; it
    /// never excuses a product element, which must all be written.
    const UNWRITTEN: f64 = -1.0;

    fn products() -> Case {
        Case {
            name: "product",
            arms: arms!(product_portable, product, product_avx2),
            term: |x, y| x * y,
            upper_triangle: false,
        }
    }

    fn distances() -> Case {
        Case {
            name: "squared_distances",
            arms: arms!(
                squared_distances_portable,
                squared_distances,
                squared_distances_avx2
            ),
            term: |x, y| (x - y) * (x - y),
            upper_triangle: true,
        }
    }

    fn oracle(
        term: fn(f64, f64) -> f64,
        a: Strided<'_>,
        b: &[f64],
        k: usize,
        m: usize,
        rows: Range<usize>,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(rows.len() * m);
        for i in rows {
            for j in 0..m {
                let mut sum = 0.0;
                for p in 0..k {
                    sum += term(a.at(i, p), b[p * m + j]);
                }
                out.push(sum);
            }
        }
        out
    }

    /// Bit equality, except that any NaN matches any NaN: Rust leaves the
    /// payload and sign of a NaN an operation produces unspecified.
    fn same_bit(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    fn random(len: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(-3.0..3.0)).collect()
    }

    /// The transpose of a row-major `n x k` matrix.
    fn transpose(a: &[f64], n: usize, k: usize) -> Vec<f64> {
        (0..k)
            .flat_map(|p| (0..n).map(move |i| a[i * k + p]))
            .collect()
    }

    /// Runs every arm of `case` on `rows` of both operand layouts and
    /// checks each element against the oracle. `a_row_major` holds `n x k`
    /// row-major data; its transpose is built here for the column-read
    /// layout.
    fn check_all(
        case: &Case,
        a_row_major: &[f64],
        n: usize,
        k: usize,
        b: &[f64],
        m: usize,
        rows: Range<usize>,
    ) {
        let a_col_major = transpose(a_row_major, n, k);
        let layouts = [
            ("rows", Strided::rows(a_row_major, k)),
            ("columns", Strided::columns(&a_col_major, n)),
        ];
        for (layout, a) in layouts {
            let expected = oracle(case.term, a, b, k, m, rows.clone());
            for (arm, run) in &case.arms {
                let mut out = vec![UNWRITTEN; rows.len() * m];
                run(a, b, k, m, rows.clone(), &mut out);
                for (e, (&got, &want)) in out.iter().zip(&expected).enumerate() {
                    let (i, j) = (rows.start + e / m, e % m);
                    let skipped = case.upper_triangle && j < i && got == UNWRITTEN;
                    assert!(
                        same_bit(got, want) || skipped,
                        "{} {arm} arm, {layout} layout, n = {n}, k = {k}, m = {m}, \
                         rows = {rows:?}: ({i}, {j}) is {got}, not {want}",
                        case.name
                    );
                }
            }
        }
    }

    /// [`check_all`] on the distance kernel's own shape: `b = aᵀ`, `m = n`.
    fn check_distances(a: &[f64], n: usize, k: usize, rows: Range<usize>) {
        check_all(&distances(), a, n, k, &transpose(a, n, k), n, rows);
    }

    #[test]
    fn every_tile_remainder_matches_the_oracle_bit_for_bit() {
        // Rows 0..=9 cover no tile, every row remainder (1..=3) under zero,
        // one and two full tiles; the widths cover every column remainder
        // of the 12-wide tile, the 4-wide remainder tile and single columns.
        // k runs 0–40, every short sum from no terms up. The distance
        // kernel runs on its own shape, `b = aᵀ`: each tile's columns start
        // at its band's first row, so its column remainders depend on n,
        // which the 14–29-row operands take through every one.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in (0..=9).chain([14, 17, 29]) {
            for k in 0..=40 {
                let a = random(n * k, &mut rng);
                check_distances(&a, n, k, 0..n);
                for m in [
                    0, 1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 15, 16, 17, 19, 24, 27, 28, 29,
                ] {
                    let b = random(k * m, &mut rng);
                    check_all(&products(), &a, n, k, &b, m, 0..n);
                }
            }
        }
    }

    #[test]
    fn a_band_of_rows_inside_the_operand_matches_the_oracle() {
        // A pool chunk owns rows `start..end` of a taller operand: the
        // kernel must index `a` globally and `out` locally, and a distance
        // band's tiles start at the band's own first row.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (n, k, m) = (23, 17, 14);
        let a = random(n * k, &mut rng);
        let b = random(k * m, &mut rng);
        for rows in [0..23, 5..11, 3..4, 22..23, 7..7, 1..20] {
            check_all(&products(), &a, n, k, &b, m, rows.clone());
            check_distances(&a, n, k, rows);
        }
    }

    #[test]
    fn reduction_blocks_carry_the_partial_sums() {
        // k across one and two block boundaries on every arm and both
        // layouts; 17 product columns and 7, 14, 17 and 29 rows (every row
        // remainder) make every tile shape carry.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let m = 17;
        let block = REDUCTION_BLOCK;
        for k in [block - 1, block, block + 1, 2 * block + 1] {
            for n in [7, 14, 17, 29] {
                let a = random(n * k, &mut rng);
                let b = random(k * m, &mut rng);
                for rows in [0..n, 2..5] {
                    check_all(&products(), &a, n, k, &b, m, rows.clone());
                    check_distances(&a, n, k, rows);
                }
            }
        }
    }

    #[test]
    fn zero_terms_give_positive_zeros() {
        // The tile starts every element at `+0.0`; with no terms that is
        // what it stores, on the distance kernel's triangle too.
        for case in [products(), distances()] {
            for (arm, run) in &case.arms {
                let mut out = vec![f64::NAN; 3 * 13];
                run(Strided::rows(&[], 0), &[], 0, 13, 0..3, &mut out);
                for (e, x) in out.iter().enumerate() {
                    let written = !case.upper_triangle || e % 13 >= e / 13;
                    if written {
                        assert_eq!(x.to_bits(), 0.0f64.to_bits(), "{} {arm}", case.name);
                    }
                }
                // No columns: nothing to write.
                run(Strided::rows(&[1.0; 6], 2), &[], 2, 0, 0..3, &mut []);
            }
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
        for (arm, run) in products().arms {
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
                check_all(&products(), &a, n, k, &b, m, 0..n);
                check_distances(&a, n, k, 0..n);
            }
        }
        let negative_zeros = vec![-0.0; 4 * 3];
        for case in [products(), distances()] {
            for (arm, run) in &case.arms {
                let mut out = vec![f64::NAN; 4 * 12];
                run(
                    Strided::rows(&negative_zeros, 3),
                    &[0.0; 3 * 12],
                    3,
                    12,
                    0..4,
                    &mut out,
                );
                assert!(out.iter().all(|x| x.to_bits() == 0.0f64.to_bits()), "{arm}");
            }
        }
    }

    #[test]
    fn distances_of_nan_infinite_and_duplicate_rows_follow_the_oracle() {
        // Rows 0 and 3 are duplicates (their distance is +0.0), row 1
        // holds a NaN, rows 2 and 4 an ∞ of each sign (∞ − ∞ is NaN on the
        // diagonal; ∞ − (−∞) squares to ∞), and rows 5..9 repeat them in
        // another order.
        let (n, k) = (10, 5);
        let base = [
            [0.5, -1.0, 2.0, 0.0, 3.0],
            [1.0, f64::NAN, 0.0, -2.0, 1.0],
            [f64::INFINITY, 0.0, 1.0, 1.0, -1.0],
            [0.5, -1.0, 2.0, 0.0, 3.0],
            [f64::NEG_INFINITY, 0.0, 1.0, -0.0, -1.0],
        ];
        let a: Vec<f64> = [0, 1, 2, 3, 4, 3, 4, 0, 2, 1]
            .iter()
            .flat_map(|&r| base[r])
            .collect();
        check_distances(&a, n, k, 0..n);
        check_distances(&a, n, k, 3..8);
        let b = transpose(&a, n, k);
        for (arm, run) in distances().arms {
            let mut out = vec![UNWRITTEN; n * n];
            run(Strided::rows(&a, k), &b, k, n, 0..n, &mut out);
            assert_eq!(out[3].to_bits(), 0.0f64.to_bits(), "{arm}: duplicates");
            assert!(out[n + 5].is_nan(), "{arm}: a NaN coordinate");
            assert!(out[2 * n + 2].is_nan(), "{arm}: ∞ − ∞ on the diagonal");
            assert_eq!(out[2 * n + 4], f64::INFINITY, "{arm}: ∞ − (−∞)");
        }
    }
}
