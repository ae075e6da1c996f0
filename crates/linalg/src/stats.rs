//! Per-column statistics and feature standardisation.
//!
//! The GRBM assumes unit-variance Gaussian visible units (Section III-B of
//! the paper), so real-valued inputs are standardised column-wise before
//! training. [`Standardizer`] is fit on a training matrix and can then be
//! applied to any matrix with the same number of columns.

use crate::{LinalgError, Matrix, ParallelPolicy, Result};
use serde::{Deserialize, Serialize};

/// Per-column mean and standard deviation of a data matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Column means.
    pub means: Vec<f64>,
    /// Column standard deviations (population, i.e. divided by `n`).
    pub stds: Vec<f64>,
}

impl ColumnStats {
    /// Computes column means and standard deviations of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if the matrix has no rows,
    /// [`LinalgError::NonFiniteMean`] naming the first column whose mean is
    /// not finite (finite values whose sum overflows `f64` would otherwise
    /// turn every standardised value of that column into NaN), and
    /// [`LinalgError::NonFiniteStd`] naming the first column whose squared
    /// deviations overflow (an infinite standard deviation would silently
    /// map the column to ±0 and cannot be written as JSON).
    pub fn compute(data: &Matrix) -> Result<Self> {
        if data.rows() == 0 {
            return Err(LinalgError::Empty {
                op: "ColumnStats::compute",
            });
        }
        let n = data.rows() as f64;
        let means = data.column_means();
        if let Some(column) = means.iter().position(|m| !m.is_finite()) {
            return Err(LinalgError::NonFiniteMean { column });
        }
        let mut stds = vec![0.0; data.cols()];
        for row in data.row_iter() {
            for (j, (&x, &m)) in row.iter().zip(&means).enumerate() {
                stds[j] += (x - m) * (x - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
        }
        if let Some(column) = stds.iter().position(|s| !s.is_finite()) {
            return Err(LinalgError::NonFiniteStd { column });
        }
        Ok(Self { means, stds })
    }
}

/// Column-wise standardiser: `x -> (x - mean) / std`.
///
/// Columns with zero variance are passed through centred but unscaled to
/// avoid dividing by zero (their standard deviation is treated as `1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    stats: ColumnStats,
}

impl Standardizer {
    /// Fits the standardiser on `data`.
    ///
    /// # Errors
    ///
    /// As [`ColumnStats::compute`].
    pub fn fit(data: &Matrix) -> Result<Self> {
        Ok(Self {
            stats: ColumnStats::compute(data)?,
        })
    }

    /// Column statistics captured at fit time.
    pub fn stats(&self) -> &ColumnStats {
        &self.stats
    }

    /// Applies the transformation to `data` under the process-wide
    /// [`ParallelPolicy::global`]; see [`Standardizer::transform_with`] for
    /// an explicit policy.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column count differs
    /// from the fitted data.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix> {
        self.transform_with(data, &ParallelPolicy::global())
    }

    /// [`Standardizer::transform`] under an explicit parallel execution
    /// policy: rows are transformed independently through
    /// [`Matrix::map_rows_with`], so results are bitwise identical for
    /// every policy. This is the serving-path variant — preprocessing a
    /// micro-batch rides the same pool the matmul uses.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column count differs
    /// from the fitted data.
    pub fn transform_with(&self, data: &Matrix, policy: &ParallelPolicy) -> Result<Matrix> {
        if data.cols() != self.stats.means.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "Standardizer::transform",
                left: data.shape(),
                right: (1, self.stats.means.len()),
            });
        }
        let means = &self.stats.means;
        let stds = &self.stats.stds;
        let cols = data.cols();
        Ok(data.map_rows_with(cols, 2 * cols, policy, |_, row, out| {
            for (j, (o, &x)) in out.iter_mut().zip(row).enumerate() {
                let std = if stds[j] > 0.0 { stds[j] } else { 1.0 };
                *o = (x - means[j]) / std;
            }
        }))
    }

    /// Convenience: fit on `data` and transform it in one call.
    ///
    /// # Errors
    ///
    /// As [`ColumnStats::compute`].
    pub fn fit_transform(data: &Matrix) -> Result<(Self, Matrix)> {
        let s = Self::fit(data)?;
        let t = s.transform(data)?;
        Ok((s, t))
    }
}

impl Matrix {
    /// Rescales every element into `[0, 1]` using the global min and max.
    ///
    /// A constant matrix maps to all zeros. This is the preprocessing used
    /// before Bernoulli binarisation for the binary-visible slsRBM.
    pub fn min_max_normalize(&self) -> Matrix {
        let (Some(min), Some(max)) = (self.min(), self.max()) else {
            return self.clone();
        };
        let range = max - min;
        if range == 0.0 {
            return Matrix::zeros(self.rows(), self.cols());
        }
        self.map(|x| (x - min) / range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 10.0, 5.0],
            vec![3.0, 10.0, 7.0],
            vec![5.0, 10.0, 9.0],
        ])
        .unwrap()
    }

    #[test]
    fn column_stats_values() {
        let s = ColumnStats::compute(&data()).unwrap();
        assert_eq!(s.means, vec![3.0, 10.0, 7.0]);
        let expected_std = (8.0_f64 / 3.0).sqrt();
        assert!((s.stds[0] - expected_std).abs() < 1e-12);
        assert_eq!(s.stds[1], 0.0);
    }

    #[test]
    fn column_stats_empty_errors() {
        assert!(ColumnStats::compute(&Matrix::zeros(0, 3)).is_err());
    }

    #[test]
    fn standardizer_zero_mean_unit_variance() {
        let (_, t) = Standardizer::fit_transform(&data()).unwrap();
        let means = t.column_means();
        for m in means {
            assert!(m.abs() < 1e-12);
        }
        // Column 0 should have unit population variance.
        let col: Vec<f64> = t.column(0);
        let var = col.iter().map(|x| x * x).sum::<f64>() / col.len() as f64;
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardizer_handles_constant_column() {
        let (_, t) = Standardizer::fit_transform(&data()).unwrap();
        // Constant column becomes zeros, not NaN.
        assert!(t.column(1).iter().all(|&x| x == 0.0));
        assert!(t.is_finite());
    }

    #[test]
    fn standardizer_shape_errors() {
        let s = Standardizer::fit(&data()).unwrap();
        let wrong = Matrix::zeros(2, 5);
        assert!(s.transform(&wrong).is_err());
    }

    #[test]
    fn a_column_whose_sum_overflows_is_rejected_by_name() {
        // Every value is finite, but 1.7e308 + 1.7e308 is not: the mean of
        // column 1 overflows, and standardising would make it all NaN.
        let d = Matrix::from_rows(&[
            vec![1.0, 1.7e308, 2.0],
            vec![2.0, 1.7e308, 3.0],
            vec![3.0, 0.0, 4.0],
        ])
        .unwrap();
        for err in [
            ColumnStats::compute(&d).unwrap_err(),
            Standardizer::fit(&d).unwrap_err(),
        ] {
            assert!(err.to_string().contains("column 1"), "{err}");
        }
        // A lone huge value whose squared deviation stays finite keeps a
        // finite mean and fits as before.
        let lone = Matrix::from_rows(&[vec![1e150, 1.0], vec![0.0, 2.0]]).unwrap();
        let stats = ColumnStats::compute(&lone).unwrap();
        assert_eq!(stats.means, vec![5e149, 1.5]);
        assert_eq!(stats.stds, vec![5e149, 0.5]);
    }

    #[test]
    fn a_column_whose_squared_deviations_overflow_is_rejected_by_name() {
        // The mean of column 1 is a finite 5e199, but its squared deviation
        // (5e199)² is not: the standard deviation would be infinite.
        let d = Matrix::from_rows(&[vec![1.0, 1e200], vec![2.0, 0.0]]).unwrap();
        for err in [
            ColumnStats::compute(&d).unwrap_err(),
            Standardizer::fit(&d).unwrap_err(),
        ] {
            assert_eq!(err, LinalgError::NonFiniteStd { column: 1 });
            assert!(err.to_string().contains("column 1"), "{err}");
        }
    }

    #[test]
    fn standardizer_transform_with_is_bitwise_identical_across_policies() {
        let d = Matrix::from_fn(37, 5, |i, j| (i as f64) * 0.7 - (j as f64) * 1.3);
        let s = Standardizer::fit(&d).unwrap();
        let serial = s.transform_with(&d, &ParallelPolicy::serial()).unwrap();
        for threads in [2, 4] {
            let policy = ParallelPolicy::eager(threads);
            let par = s.transform_with(&d, &policy).unwrap();
            let same = serial
                .as_slice()
                .iter()
                .zip(par.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads = {threads}");
        }
    }

    #[test]
    fn min_max_normalize_bounds() {
        let m = Matrix::from_rows(&[vec![-2.0, 0.0], vec![2.0, 6.0]]).unwrap();
        let n = m.min_max_normalize();
        assert_eq!(n.min(), Some(0.0));
        assert_eq!(n.max(), Some(1.0));
        assert!((n[(0, 1)] - 0.25).abs() < 1e-12);
        // Constant matrix maps to zeros.
        let c = Matrix::filled(2, 2, 3.0).min_max_normalize();
        assert_eq!(c.sum(), 0.0);
    }
}
