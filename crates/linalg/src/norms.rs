//! Distances between instances and pairwise distance matrices.
//!
//! Density peaks and affinity propagation both consume a full pairwise
//! distance (or similarity) matrix; k-means needs point-to-centre distances.
//! These helpers centralise that logic so every clusterer measures distance
//! identically.

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

/// Full symmetric pairwise Euclidean distance matrix of the rows of `data`:
/// an `n x n` matrix with zeros on the diagonal.
///
/// The coordinate sum `Σ (xᵢ - yᵢ)²` is symmetric in its arguments to the
/// bit, so only the pairs `j > i` are computed, each output row through the
/// pooled row kernel under `policy` (`n/2` distances per row on average),
/// and the lower triangle is their mirror. The result is bitwise identical
/// for every policy, and to evaluating every ordered pair.
pub fn pairwise_distances(data: &Matrix, policy: &ParallelPolicy) -> Matrix {
    let n = data.rows();
    let mut d = data.map_rows_with(n, n * data.cols() / 2, policy, |i, row, out| {
        for (j, slot) in out.iter_mut().enumerate().skip(i + 1) {
            *slot = euclidean_distance(row, data.row(j));
        }
    });
    for i in 1..n {
        for j in 0..i {
            d[(i, j)] = d[(j, i)];
        }
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

    #[test]
    fn pairwise_with_matches_serial_bitwise() {
        let data = Matrix::from_rows(&[
            vec![0.1, -0.7, 2.3],
            vec![3.0, 4.0, -1.5],
            vec![6.0, 8.0, 0.25],
            vec![-2.0, 0.0, 1.0 / 3.0],
            vec![0.1, -0.7, 2.3],
        ])
        .unwrap();
        let serial = pairwise_distances(&data, &ParallelPolicy::serial());
        for threads in [2, 4, 8] {
            let policy = ParallelPolicy::eager(threads);
            let parallel = pairwise_distances(&data, &policy);
            let same = serial
                .as_slice()
                .iter()
                .zip(parallel.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads = {threads}");
        }
        for i in 0..data.rows() {
            for j in 0..data.rows() {
                assert_eq!(serial[(i, j)].to_bits(), serial[(j, i)].to_bits());
            }
        }
    }

    #[test]
    fn pairwise_mirror_matches_every_ordered_pair_bitwise() {
        let data = Matrix::from_fn(9, 4, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.37 - 1.9);
        let d = pairwise_distances(&data, &ParallelPolicy::serial());
        for i in 0..data.rows() {
            for j in 0..data.rows() {
                let direct = euclidean_distance(data.row(i), data.row(j));
                assert_eq!(d[(i, j)].to_bits(), direct.to_bits(), "({i}, {j})");
            }
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
