//! Property-based tests for the linear-algebra substrate.
//!
//! These check algebraic identities (associativity with identity, transpose
//! involution, distance axioms, standardisation invariants) on randomly
//! generated matrices rather than hand-picked examples.

use proptest::prelude::*;
use sls_linalg::{
    euclidean_distance, pairwise_distances, Matrix, MatrixRandomExt, ParallelPolicy, Standardizer,
};

/// Strategy producing a matrix with the given bounds on shape and values in
/// [-10, 10].
fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// Two matrices with compatible shapes for multiplication (n x k, k x m).
fn matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..6usize, 1..6usize, 1..6usize).prop_flat_map(|(n, k, m)| {
        let a = proptest::collection::vec(-5.0..5.0f64, n * k)
            .prop_map(move |d| Matrix::from_vec(n, k, d).unwrap());
        let b = proptest::collection::vec(-5.0..5.0f64, k * m)
            .prop_map(move |d| Matrix::from_vec(k, m, d).unwrap());
        (a, b)
    })
}

/// Like [`matmul_pair`] but with row counts large enough to give every
/// thread of an eager policy multiple rows.
fn large_matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..40usize, 1..12usize, 1..12usize).prop_flat_map(|(n, k, m)| {
        let a = proptest::collection::vec(-5.0..5.0f64, n * k)
            .prop_map(move |d| Matrix::from_vec(n, k, d).unwrap());
        let b = proptest::collection::vec(-5.0..5.0f64, k * m)
            .prop_map(move |d| Matrix::from_vec(k, m, d).unwrap());
        (a, b)
    })
}

/// Policies covering thread counts 1–8, eager (every call fans out) or,
/// one time in nine, the shipping work floor, which keeps every generated
/// shape inline — the serial path through the parallel entry points. Every
/// bitwise-identity property below therefore holds across the
/// {serial, pooled} grid.
fn policy_strategy() -> impl Strategy<Value = ParallelPolicy> {
    (1..=8usize, 1..=9usize).prop_map(|(threads, pick)| {
        if pick == 9 {
            ParallelPolicy::new(threads)
        } else {
            ParallelPolicy::eager(threads)
        }
    })
}

/// Operand pairs whose *inner* (shared) dimension is `16q + tail` with
/// `tail ∈ 0..=15`: every sum of 1 to 31 terms.
fn tailed_matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0..=1usize, 0..=15usize, 1..24usize, 1..10usize).prop_flat_map(|(q, tail, n, m)| {
        let k = (16 * q + tail).max(1);
        let a = proptest::collection::vec(-5.0..5.0f64, n * k)
            .prop_map(move |d| Matrix::from_vec(n, k, d).unwrap());
        let b = proptest::collection::vec(-5.0..5.0f64, k * m)
            .prop_map(move |d| Matrix::from_vec(k, m, d).unwrap());
        (a, b)
    })
}

/// The serial reference plus pooled policies at several thread counts,
/// eager so they really fan out on the generated shapes.
fn policy_grid() -> Vec<ParallelPolicy> {
    let mut grid = vec![ParallelPolicy::serial()];
    for threads in [2, 4, 8] {
        grid.push(ParallelPolicy::eager(threads));
    }
    grid
}

/// A value near the products' edge cases: one in eight is `±0.0` or
/// `±∞`, one in forty NaN, the rest in `[-4, 4)`.
fn edge_value() -> impl Strategy<Value = f64> {
    (0..40usize, -4.0..4.0f64).prop_map(|(tag, x)| match tag {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::NAN,
        _ => x,
    })
}

/// Operands for all three products around the register-tiled kernel's
/// edges: `n` and `m` cross every tile remainder, and `k` runs 0–40.
fn kernel_edge_operands() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (0..10usize, 0..=40usize, 0..30usize).prop_flat_map(|(n, k, m)| {
        let matrix = |rows: usize, cols: usize| {
            proptest::collection::vec(edge_value(), rows * cols)
                .prop_map(move |d| Matrix::from_vec(rows, cols, d).unwrap())
        };
        // `a` (n x k), `b` (k x m) and `c` (m x k).
        (matrix(n, k), matrix(k, m), matrix(m, k))
    })
}

/// `out(i, j) = Σ_p x(i, p) · y(p, j)` summed from `+0.0` in ascending `p`:
/// the order contract of all three products.
fn ascending_sum(
    n: usize,
    k: usize,
    m: usize,
    x: impl Fn(usize, usize) -> f64,
    y: impl Fn(usize, usize) -> f64,
) -> Matrix {
    Matrix::from_fn(n, m, |i, j| {
        let mut sum = 0.0;
        for p in 0..k {
            sum += x(i, p) * y(p, j);
        }
        sum
    })
}

/// Bit equality where any NaN matches any NaN (Rust leaves the payload of
/// a computed NaN unspecified).
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Exact bitwise equality (`f64::to_bits`), stricter than `==` (which treats
/// `0.0 == -0.0`): the reproducibility contract of the parallel layer.
fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #[test]
    fn transpose_is_involutive(m in matrix_strategy(8, 8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn identity_is_neutral(m in matrix_strategy(8, 8)) {
        let i = Matrix::identity(m.cols());
        let prod = m.matmul(&i).unwrap();
        prop_assert!(prod.approx_eq(&m, 1e-9));
    }

    #[test]
    fn matmul_transpose_right_agrees_with_explicit((a, b) in matmul_pair()) {
        let direct = a.matmul(&b).unwrap();
        let via = a.matmul_transpose_right(&b.transpose()).unwrap();
        prop_assert!(direct.approx_eq(&via, 1e-9));
    }

    #[test]
    fn matmul_transpose_left_agrees_with_explicit((a, b) in matmul_pair()) {
        // aᵀ has shape (k, n); multiply aᵀ·a via both paths.
        let gram = a.transpose().matmul(&a).unwrap();
        let via = a.matmul_transpose_left(&a).unwrap();
        prop_assert!(gram.approx_eq(&via, 1e-9));
        // Keep `b` used so the pair strategy stays meaningful.
        prop_assert_eq!(b.rows(), a.cols());
    }

    #[test]
    fn parallel_matmul_is_bitwise_identical_to_serial(
        (a, b) in large_matmul_pair(),
        policy in policy_strategy(),
    ) {
        let serial = a.matmul_with(&b, &ParallelPolicy::serial()).unwrap();
        let parallel = a.matmul_with(&b, &policy).unwrap();
        prop_assert!(bitwise_eq(&serial, &parallel), "policy {policy:?}");
    }

    #[test]
    fn parallel_matmul_transpose_right_is_bitwise_identical_to_serial(
        (a, b) in large_matmul_pair(),
        policy in policy_strategy(),
    ) {
        // `a` (n x k) times rows of `bᵀ`-shaped operand: reuse `b` transposed
        // so the column counts match.
        let bt = b.transpose();
        let serial = a.matmul_transpose_right_with(&bt, &ParallelPolicy::serial()).unwrap();
        let parallel = a.matmul_transpose_right_with(&bt, &policy).unwrap();
        prop_assert!(bitwise_eq(&serial, &parallel), "policy {policy:?}");
    }

    #[test]
    fn parallel_matmul_transpose_left_is_bitwise_identical_to_serial(
        (a, b) in large_matmul_pair(),
        policy in policy_strategy(),
    ) {
        // Vᵀ·H with V = a (n x k) and H (n x m): build H with a's row count.
        let h = Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            a.row(i).iter().sum::<f64>() * 0.25 + j as f64
        });
        let serial = a.matmul_transpose_left_with(&h, &ParallelPolicy::serial()).unwrap();
        let parallel = a.matmul_transpose_left_with(&h, &policy).unwrap();
        prop_assert!(bitwise_eq(&serial, &parallel), "policy {policy:?}");
    }

    #[test]
    fn parallel_map_and_reduce_are_bitwise_identical_to_serial(
        m in matrix_strategy(40, 8),
        policy in policy_strategy(),
    ) {
        let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        let cols = m.cols();
        let fused = |_: usize, row: &[f64], out: &mut [f64]| {
            for (o, &x) in out.iter_mut().zip(row) {
                *o = sigmoid(x);
            }
        };
        let serial_map = m.map_rows_with(cols, cols, &ParallelPolicy::serial(), fused);
        let parallel_map = m.map_rows_with(cols, cols, &policy, fused);
        prop_assert!(bitwise_eq(&serial_map, &parallel_map));

        let norm = |_: usize, row: &[f64]| row.iter().map(|x| x * x).sum::<f64>().sqrt();
        let serial_reduce = m.reduce_rows_with(cols, &ParallelPolicy::serial(), norm);
        let parallel_reduce = m.reduce_rows_with(cols, &policy, norm);
        let same = serial_reduce
            .iter()
            .zip(&parallel_reduce)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        prop_assert!(same);
    }

    #[test]
    fn all_five_kernels_are_bitwise_identical_across_threads_and_chunking(
        (a, b) in tailed_matmul_pair(),
    ) {
        // The acceptance grid: every kernel, serial and pooled at every
        // thread count, with the inner dimension sweeping 1 to 31 terms.
        // The reference is serial.
        let reference = ParallelPolicy::serial();
        let bt = b.transpose();
        let h = Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            a.row(i).iter().sum::<f64>() * 0.25 + j as f64
        });
        let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        let cols = a.cols();
        let fused = |_: usize, row: &[f64], out: &mut [f64]| {
            for (o, &x) in out.iter_mut().zip(row) {
                *o = sigmoid(x);
            }
        };
        let mm_ref = a.matmul_with(&b, &reference).unwrap();
        let tr_ref = a.matmul_transpose_right_with(&bt, &reference).unwrap();
        let tl_ref = a.matmul_transpose_left_with(&h, &reference).unwrap();
        let map_ref = a.map_rows_with(cols, cols, &reference, fused);
        let red_ref = a.reduce_rows_with(cols, &reference, |_, row| row.iter().map(|x| x * x).sum());
        for policy in policy_grid() {
            prop_assert!(
                bitwise_eq(&mm_ref, &a.matmul_with(&b, &policy).unwrap()),
                "matmul {policy:?}"
            );
            prop_assert!(
                bitwise_eq(&tr_ref, &a.matmul_transpose_right_with(&bt, &policy).unwrap()),
                "transpose_right {policy:?}"
            );
            prop_assert!(
                bitwise_eq(&tl_ref, &a.matmul_transpose_left_with(&h, &policy).unwrap()),
                "transpose_left {policy:?}"
            );
            prop_assert!(
                bitwise_eq(&map_ref, &a.map_rows_with(cols, cols, &policy, fused)),
                "map_rows {policy:?}"
            );
            let red: Vec<f64> =
                a.reduce_rows_with(cols, &policy, |_, row| row.iter().map(|x| x * x).sum());
            prop_assert!(
                red_ref.iter().zip(&red).all(|(x, y)| x.to_bits() == y.to_bits()),
                "reduce_rows {policy:?}"
            );
        }
    }

    #[test]
    fn products_match_the_scalar_order_contract_on_kernel_edges(
        (a, b, c) in kernel_edge_operands(),
    ) {
        // Each product against its order contract written as a plain loop,
        // serial and pooled: the ascending sum, for all three.
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        let mm = ascending_sum(n, k, m, |i, p| a[(i, p)], |p, j| b[(p, j)]);
        // aᵀ-shaped: the shared rows are a's rows, the output is k x m from
        // `a` (n x k) and `h` (n x m).
        let h = Matrix::from_fn(n, m, |i, j| b.as_slice().get(i * m + j).copied().unwrap_or(0.5));
        let tl = ascending_sum(k, n, m, |i, p| a[(p, i)], |p, j| h[(p, j)]);
        let tr = ascending_sum(n, k, m, |i, p| a[(i, p)], |p, j| c[(j, p)]);
        for policy in policy_grid() {
            prop_assert!(same_bits(&mm, &a.matmul_with(&b, &policy).unwrap()), "matmul {policy:?}");
            prop_assert!(
                same_bits(&tl, &a.matmul_transpose_left_with(&h, &policy).unwrap()),
                "transpose_left {policy:?}"
            );
            prop_assert!(
                same_bits(&tr, &a.matmul_transpose_right_with(&c, &policy).unwrap()),
                "transpose_right {policy:?}"
            );
        }
    }

    #[test]
    fn transpose_of_product_is_reversed_product((a, b) in matmul_pair()) {
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn add_then_sub_round_trips(m in matrix_strategy(8, 8)) {
        let other = m.map(|x| x * 0.5 + 1.0);
        let back = m.add(&other).unwrap().sub(&other).unwrap();
        prop_assert!(back.approx_eq(&m, 1e-9));
    }

    #[test]
    fn scale_is_linear_in_sum(m in matrix_strategy(8, 8), alpha in -3.0..3.0f64) {
        let scaled_sum = m.scale(alpha).sum();
        prop_assert!((scaled_sum - alpha * m.sum()).abs() < 1e-6);
    }

    #[test]
    fn distance_axioms(
        a in proptest::collection::vec(-10.0..10.0f64, 1..12),
        b in proptest::collection::vec(-10.0..10.0f64, 1..12),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let dab = euclidean_distance(a, b);
        let dba = euclidean_distance(b, a);
        prop_assert!(dab >= 0.0);
        prop_assert!((dab - dba).abs() < 1e-9);
        prop_assert!(euclidean_distance(a, a) < 1e-12);
    }

    #[test]
    fn pairwise_distance_triangle_inequality(m in matrix_strategy(6, 4)) {
        let d = pairwise_distances(&m, &ParallelPolicy::serial());
        let n = m.rows();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    prop_assert!(d[(i, j)] <= d[(i, k)] + d[(k, j)] + 1e-9);
                }
            }
        }
    }

    #[test]
    fn standardized_columns_have_zero_mean(m in matrix_strategy(10, 6)) {
        prop_assume!(m.rows() >= 2);
        let (_, t) = Standardizer::fit_transform(&m).unwrap();
        for j in 0..t.cols() {
            let col = t.column(j);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            prop_assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn select_rows_preserves_content(m in matrix_strategy(10, 6)) {
        let indices: Vec<usize> = (0..m.rows()).rev().collect();
        let s = m.select_rows(&indices).unwrap();
        for (pos, &orig) in indices.iter().enumerate() {
            prop_assert_eq!(s.row(pos), m.row(orig));
        }
    }

    #[test]
    fn min_max_normalize_is_bounded(m in matrix_strategy(8, 8)) {
        let n = m.min_max_normalize();
        prop_assert!(n.min().unwrap() >= -1e-12);
        prop_assert!(n.max().unwrap() <= 1.0 + 1e-12);
    }
}

/// Every kernel on shapes the adaptive chunking rule itself splits into
/// single-row chunks (a 16384-operation row per chunk at 4 threads) and,
/// at 37 rows, into chunks of 3 with a ragged 1-row tail: the most claims
/// and the most reordering the pool can produce, bitwise equal to serial.
/// `parallel.rs` pins these chunk sizes in its own tests.
#[test]
fn adaptive_single_row_chunks_are_bitwise_identical() {
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(31);
    let mut random =
        |rows: usize, cols: usize| Matrix::random_normal(rows, cols, 0.0, 1.0, &mut rng);
    let serial = ParallelPolicy::serial();
    let pooled = ParallelPolicy::eager(4);
    let w = random(128, 128);
    let wide = random(8, 8192);
    let widest = random(8, 16384);
    let sigmoid = |_: usize, row: &[f64], out: &mut [f64]| {
        for (o, &x) in out.iter_mut().zip(row) {
            *o = 1.0 / (1.0 + (-x).exp());
        }
    };
    let square_sum = |_: usize, row: &[f64]| row.iter().map(|x| x * x).sum::<f64>();
    for rows in [8, 37] {
        let a = random(rows, 128);
        let h = random(128, 128);
        let tl = random(128, rows);
        let pairs = [
            (
                a.matmul_with(&w, &serial),
                a.matmul_with(&w, &pooled),
                "matmul",
            ),
            (
                a.matmul_transpose_right_with(&w, &serial),
                a.matmul_transpose_right_with(&w, &pooled),
                "transpose_right",
            ),
            (
                tl.matmul_transpose_left_with(&h, &serial),
                tl.matmul_transpose_left_with(&h, &pooled),
                "transpose_left",
            ),
        ];
        for (reference, out, kernel) in pairs {
            let (reference, out) = (reference.unwrap(), out.unwrap());
            assert!(bitwise_eq(&reference, &out), "{kernel} at {rows} rows");
        }
    }
    assert!(bitwise_eq(
        &wide.map_rows_with(8192, 8192 + 8192, &serial, sigmoid),
        &wide.map_rows_with(8192, 8192 + 8192, &pooled, sigmoid),
    ));
    let reference = widest.reduce_rows_with(16384, &serial, square_sum);
    let out = widest.reduce_rows_with(16384, &pooled, square_sum);
    assert!(reference
        .iter()
        .zip(&out)
        .all(|(x, y)| x.to_bits() == y.to_bits()));
}

/// The shipping rule's serial/pooled decision flips at the work floor:
/// products at one row below, at and above the first row count
/// [`ParallelPolicy::effective_threads`] fans out, on the register tile at
/// 12 and 64 wide, equal serial to the bit.
#[test]
fn cutover_boundary_keeps_results_identical() {
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(37);
    for (k, m) in [(256, 12), (64, 64)] {
        let b = Matrix::random_normal(k, m, 0.0, 1.0, &mut rng);
        for threads in [2, 4] {
            let policy = ParallelPolicy::new(threads);
            let flip = (1..)
                .find(|&n| policy.effective_threads(n, k * m) > 1)
                .expect("some row count fans out");
            for n in [flip - 1, flip, flip + 1] {
                let a = Matrix::random_normal(n, k, 0.0, 1.0, &mut rng);
                let serial = a.matmul_with(&b, &ParallelPolicy::serial()).unwrap();
                let pooled = a.matmul_with(&b, &policy).unwrap();
                assert!(
                    bitwise_eq(&serial, &pooled),
                    "{n}x{k}·{k}x{m} at {threads} threads"
                );
            }
        }
    }
}
