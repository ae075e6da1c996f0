//! Distances between instances and pairwise distance matrices.
//!
//! Density peaks and affinity propagation both consume a full pairwise
//! distance (or similarity) matrix; k-means needs point-to-centre distances.
//! These helpers centralise that logic so every clusterer measures distance
//! identically: every pairwise entry has the bits of
//! [`squared_euclidean_distance`] (or [`euclidean_distance`]) on its two
//! rows.

use crate::kernel::{self, Strided};
use crate::parallel::for_each_row_block;
use crate::{Matrix, ParallelPolicy};

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn squared_euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean_distance(a, b).sqrt()
}

/// Full symmetric pairwise squared Euclidean distance matrix of the rows of
/// `data`: an `n x n` matrix with `+0.0` on the diagonal and
/// `squared_euclidean_distance(data.row(i), data.row(j))`, to the bit,
/// everywhere else.
///
/// The upper triangle runs on the register-tiled distance kernel over
/// `dataᵀ`, transposed once per call: each element sums `(xᵢ − yᵢ)²` in
/// ascending coordinate order from `+0.0`, the order of the per-pair sum
/// (which starts from `−0.0`, the same bits once any term is added, since
/// every term is `≥ +0.0` or NaN). With no columns every pair is the empty
/// sum `Iterator::sum` gives. `(x − y)²` and `(y − x)²` are the same bits,
/// so the lower triangle is a mirror. The rows are split under `policy`
/// like every pooled row kernel (row `i` costs `n − 1 − i` pairs, `n/2` on
/// average; the adaptive chunking absorbs the ragged rows); the result is
/// bitwise identical for every policy.
pub fn pairwise_squared_distances(data: &Matrix, policy: &ParallelPolicy) -> Matrix {
    let (n, k) = data.shape();
    let mut d = Matrix::zeros(n, n);
    if k == 0 {
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        d.as_mut_slice().fill(empty_sum);
    } else {
        let a = Strided::rows(data.as_slice(), k);
        let b = data.transpose();
        for_each_row_block(d.as_mut_slice(), n, n, n * k / 2, policy, &|rows, band| {
            kernel::squared_distances(a, b.as_slice(), k, n, rows, band);
        });
        for i in 1..n {
            for j in 0..i {
                d[(i, j)] = d[(j, i)];
            }
        }
    }
    for i in 0..n {
        d[(i, i)] = 0.0;
    }
    d
}

/// Full symmetric pairwise Euclidean distance matrix of the rows of `data`:
/// an `n x n` matrix with `+0.0` on the diagonal and
/// `euclidean_distance(data.row(i), data.row(j))`, to the bit, everywhere
/// else.
///
/// It is the element-wise square root of [`pairwise_squared_distances`]
/// under the same `policy`; `sqrt` is correctly rounded, so each entry has
/// the bits of [`euclidean_distance`], for every policy.
pub fn pairwise_distances(data: &Matrix, policy: &ParallelPolicy) -> Matrix {
    let mut d = pairwise_squared_distances(data, policy);
    for x in d.as_mut_slice() {
        *x = x.sqrt();
    }
    d
}

impl Matrix {
    /// Index of the row of `self` closest (in Euclidean distance) to `point`.
    ///
    /// Returns `None` if the matrix has no rows.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.cols()`.
    pub fn nearest_row(&self, point: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, row) in self.row_iter().enumerate() {
            let d = squared_euclidean_distance(row, point);
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((i, d)),
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_basic() {
        assert_eq!(squared_euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn distance_length_mismatch_panics() {
        euclidean_distance(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_zero_diagonal() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]]).unwrap();
        let d = pairwise_distances(&data, &ParallelPolicy::serial());
        assert_eq!(d.shape(), (3, 3));
        for i in 0..3 {
            assert_eq!(d[(i, i)], 0.0);
            for j in 0..3 {
                assert_eq!(d[(i, j)], d[(j, i)]);
            }
        }
        assert_eq!(d[(0, 1)], 5.0);
        assert_eq!(d[(0, 2)], 10.0);
        assert_eq!(d[(1, 2)], 5.0);
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts that both pairwise matrices of `data` hold, off the diagonal,
    /// the bits of the per-pair functions on every ordered pair (any NaN
    /// matching any NaN), and `+0.0` on it.
    fn assert_per_pair_bits(data: &Matrix, policy: &ParallelPolicy) {
        let squared = pairwise_squared_distances(data, policy);
        let plain = pairwise_distances(data, policy);
        let n = data.rows();
        assert_eq!(squared.shape(), (n, n));
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan();
        for i in 0..n {
            for j in 0..n {
                let (s, d) = (squared[(i, j)], plain[(i, j)]);
                let (want_s, want_d) = if i == j {
                    (0.0, 0.0)
                } else {
                    let (x, y) = (data.row(i), data.row(j));
                    (squared_euclidean_distance(x, y), euclidean_distance(x, y))
                };
                assert!(same(s, want_s), "squared ({i}, {j}): {s} vs {want_s}");
                assert!(same(d, want_d), "plain ({i}, {j}): {d} vs {want_d}");
            }
        }
    }

    #[test]
    fn pairwise_with_matches_serial_bitwise() {
        let data = Matrix::from_fn(37, 21, |i, j| {
            ((i * 31 + j * 17) % 23) as f64 * 0.29 - 3.1 + (i % 3) as f64 / 3.0
        });
        let serial_squared = pairwise_squared_distances(&data, &ParallelPolicy::serial());
        let serial = pairwise_distances(&data, &ParallelPolicy::serial());
        for threads in [2, 3, 8] {
            let policy = ParallelPolicy::eager(threads);
            let squared = pairwise_squared_distances(&data, &policy);
            assert_eq!(bits(&serial_squared), bits(&squared), "threads = {threads}");
            let parallel = pairwise_distances(&data, &policy);
            assert_eq!(bits(&serial), bits(&parallel), "threads = {threads}");
        }
        assert_per_pair_bits(&data, &ParallelPolicy::eager(8));
    }

    #[test]
    fn pairwise_mirror_matches_every_ordered_pair_bitwise() {
        let data = Matrix::from_fn(9, 4, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.37 - 1.9);
        assert_per_pair_bits(&data, &ParallelPolicy::serial());
        // Wider than one reduction block, and tall enough for full tiles
        // in every band.
        let wide = Matrix::from_fn(19, 300, |i, j| ((i * 13 + j * 5) % 17) as f64 * 0.11 - 0.8);
        assert_per_pair_bits(&wide, &ParallelPolicy::serial());
        for n in 0..3 {
            assert_per_pair_bits(&Matrix::zeros(n, 2), &ParallelPolicy::serial());
        }
    }

    #[test]
    fn pairwise_matrices_of_nan_infinite_and_duplicate_rows_match_per_pair() {
        let data = Matrix::from_rows(&[
            vec![0.5, -1.0, 2.0],
            vec![1.0, f64::NAN, 0.0],
            vec![f64::INFINITY, 0.0, 1.0],
            vec![0.5, -1.0, 2.0],
            vec![f64::NEG_INFINITY, -0.0, 1.0],
            vec![f64::INFINITY, 0.0, 1.0],
        ])
        .unwrap();
        assert_per_pair_bits(&data, &ParallelPolicy::serial());
        assert_per_pair_bits(&data, &ParallelPolicy::eager(3));
        // The diagonal is +0.0 even where `x − x` is NaN.
        let d = pairwise_squared_distances(&data, &ParallelPolicy::serial());
        assert_eq!(d[(2, 2)].to_bits(), 0.0f64.to_bits());
        assert_eq!(d[(1, 1)].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn no_columns_keep_the_per_pair_empty_sum() {
        // With no coordinates every pair is the empty `Iterator::sum`
        // (`-0.0` on current toolchains), as the per-pair loop gave.
        let data = Matrix::zeros(5, 0);
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        for policy in [ParallelPolicy::serial(), ParallelPolicy::eager(2)] {
            assert_per_pair_bits(&data, &policy);
            let d = pairwise_squared_distances(&data, &policy);
            assert_eq!(d[(0, 3)].to_bits(), empty_sum.to_bits());
            assert_eq!(d[(3, 0)].to_bits(), empty_sum.to_bits());
            assert_eq!(d[(2, 2)].to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn nearest_row_finds_closest_centre() {
        let centres = Matrix::from_rows(&[vec![0.0, 0.0], vec![10.0, 10.0]]).unwrap();
        assert_eq!(centres.nearest_row(&[1.0, 1.0]), Some(0));
        assert_eq!(centres.nearest_row(&[9.0, 8.0]), Some(1));
        assert_eq!(Matrix::zeros(0, 2).nearest_row(&[1.0, 1.0]), None);
    }

    #[test]
    fn nearest_row_ties_prefer_first() {
        let centres = Matrix::from_rows(&[vec![1.0], vec![-1.0]]).unwrap();
        assert_eq!(centres.nearest_row(&[0.0]), Some(0));
    }
}
