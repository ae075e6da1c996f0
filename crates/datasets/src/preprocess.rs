//! Feature preprocessing shared by the experiment pipelines.
//!
//! * Real-valued data fed to the Gaussian-visible models is standardised
//!   column-wise (the GRBM assumes unit-variance visible units).
//! * Data fed to the binary-visible models must be binary; the paper uses
//!   binary visible units for the UCI experiments, so the loaders binarise
//!   features either by thresholding at the column median or by treating the
//!   min-max-normalised value as a Bernoulli probability.

use crate::{DatasetError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sls_linalg::{Matrix, ParallelPolicy, Standardizer};

/// Standardises every column to zero mean and unit variance.
///
/// Constant columns are centred but left unscaled.
///
/// # Errors
///
/// Returns an error if the matrix has no rows.
pub fn standardize_columns(data: &Matrix) -> Result<Matrix> {
    let (_, out) = Standardizer::fit_transform(data)?;
    Ok(out)
}

/// Binarises a matrix by thresholding every column at its median: entries
/// strictly above the median become `1.0`, the rest `0.0`.
///
/// Median thresholding keeps each binary column balanced, which prevents the
/// binary RBM's hidden units from saturating on skewed features.
pub fn binarize_median(data: &Matrix) -> Matrix {
    MedianBinarizer::fit(data)
        .transform(data)
        .expect("fit and transform use the same matrix")
}

/// A fitted median binariser: the per-column thresholds captured at fit time,
/// reusable on new data with the same columns.
///
/// [`binarize_median`] fits and transforms in one step, which is fine for
/// offline experiments, but serving a trained model requires applying the
/// *training-time* thresholds to unseen rows — that is what this type stores
/// (mirroring [`Standardizer`] for the standardise path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MedianBinarizer {
    thresholds: Vec<f64>,
}

impl MedianBinarizer {
    /// Computes the per-column median thresholds of `data`.
    ///
    /// An empty column yields a threshold of `0.0` (nothing to binarise).
    pub fn fit(data: &Matrix) -> Self {
        let mut thresholds = Vec::with_capacity(data.cols());
        for j in 0..data.cols() {
            let mut col = data.column(j);
            col.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in dataset columns"));
            let median = if col.is_empty() {
                0.0
            } else if col.len() % 2 == 1 {
                col[col.len() / 2]
            } else {
                0.5 * (col[col.len() / 2 - 1] + col[col.len() / 2])
            };
            thresholds.push(median);
        }
        Self { thresholds }
    }

    /// The per-column thresholds captured at fit time.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Binarises `data` against the fitted thresholds: entries strictly above
    /// the column threshold become `1.0`, the rest `0.0`. Runs under the
    /// process-wide [`ParallelPolicy::global`]; see
    /// [`MedianBinarizer::transform_with`] for an explicit policy.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `data` has a different number of columns than
    /// the fitted matrix.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix> {
        self.transform_with(data, &ParallelPolicy::global())
    }

    /// [`MedianBinarizer::transform`] under an explicit parallel execution
    /// policy: rows binarise independently through
    /// [`Matrix::map_rows_with`], so results are identical for every policy
    /// (the output is exactly `0.0`/`1.0` either way).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `data` has a different number of columns than
    /// the fitted matrix.
    pub fn transform_with(&self, data: &Matrix, policy: &ParallelPolicy) -> Result<Matrix> {
        if data.cols() != self.thresholds.len() {
            return Err(DatasetError::Linalg(
                sls_linalg::LinalgError::ShapeMismatch {
                    op: "MedianBinarizer::transform",
                    left: data.shape(),
                    right: (1, self.thresholds.len()),
                },
            ));
        }
        let thresholds = &self.thresholds;
        let cols = data.cols();
        Ok(data.map_rows_with(cols, cols, policy, |_, row, out| {
            for ((o, &x), &t) in out.iter_mut().zip(row).zip(thresholds) {
                *o = if x > t { 1.0 } else { 0.0 };
            }
        }))
    }
}

/// Binarises a matrix stochastically: values are min-max normalised to
/// `[0, 1]` and then used as Bernoulli success probabilities.
///
/// This is the standard trick for feeding continuous data to a binary RBM
/// while preserving gradient information in expectation.
pub fn binarize_bernoulli(data: &Matrix, rng: &mut impl Rng) -> Matrix {
    let probs = data.min_max_normalize();
    probs.map(|p| if rng.gen::<f64>() < p { 1.0 } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn data() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ])
        .unwrap()
    }

    #[test]
    fn standardize_gives_zero_mean_columns() {
        let s = standardize_columns(&data()).unwrap();
        for m in s.column_means() {
            assert!(m.abs() < 1e-12);
        }
    }

    #[test]
    fn standardize_empty_errors() {
        assert!(standardize_columns(&Matrix::zeros(0, 2)).is_err());
    }

    #[test]
    fn binarize_median_is_binary_and_balanced() {
        let b = binarize_median(&data());
        assert!(b.as_slice().iter().all(|&x| x == 0.0 || x == 1.0));
        // With 4 distinct values per column, exactly 2 exceed the median.
        for j in 0..2 {
            let ones: f64 = b.column(j).iter().sum();
            assert_eq!(ones, 2.0);
        }
    }

    #[test]
    fn binarize_median_handles_constant_column() {
        let constant = Matrix::filled(5, 2, 3.0);
        let b = binarize_median(&constant);
        // Nothing is strictly above the median of a constant column.
        assert_eq!(b.sum(), 0.0);
    }

    #[test]
    fn median_binarizer_applies_fit_time_thresholds_to_new_rows() {
        let b = MedianBinarizer::fit(&data());
        assert_eq!(b.thresholds(), &[2.5, 250.0]);
        let unseen = Matrix::from_rows(&[vec![2.6, 100.0], vec![0.0, 400.0]]).unwrap();
        let t = b.transform(&unseen).unwrap();
        assert_eq!(t.row(0), &[1.0, 0.0]);
        assert_eq!(t.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn median_binarizer_matches_one_shot_helper() {
        let d = data();
        let fitted = MedianBinarizer::fit(&d).transform(&d).unwrap();
        assert_eq!(fitted, binarize_median(&d));
    }

    #[test]
    fn median_binarizer_transform_with_matches_serial_for_every_policy() {
        let b = MedianBinarizer::fit(&data());
        let unseen = Matrix::from_fn(29, 2, |i, j| (i as f64) * 0.9 + (j as f64) * 123.0);
        let serial = b
            .transform_with(&unseen, &ParallelPolicy::serial())
            .unwrap();
        let policy = ParallelPolicy::eager(4);
        let par = b.transform_with(&unseen, &policy).unwrap();
        assert_eq!(par, serial);
    }

    #[test]
    fn median_binarizer_rejects_wrong_width() {
        let b = MedianBinarizer::fit(&data());
        assert!(b.transform(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn median_binarizer_serde_round_trip() {
        let b = MedianBinarizer::fit(&data());
        let json = serde_json::to_string(&b).unwrap();
        let back: MedianBinarizer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn binarize_bernoulli_is_binary_and_tracks_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let ramp = Matrix::from_fn(200, 10, |i, _| i as f64);
        let b = binarize_bernoulli(&ramp, &mut rng);
        assert!(b.as_slice().iter().all(|&x| x == 0.0 || x == 1.0));
        // Rows near the top of the ramp should be mostly ones, near the
        // bottom mostly zeros.
        let low: f64 = b.row(2).iter().sum();
        let high: f64 = b.row(197).iter().sum();
        assert!(high > low);
    }

    #[test]
    fn binarize_bernoulli_extremes_are_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let extremes = Matrix::from_rows(&[vec![0.0, 1000.0]]).unwrap();
        let b = binarize_bernoulli(&extremes, &mut rng);
        assert_eq!(b[(0, 0)], 0.0);
        assert_eq!(b[(0, 1)], 1.0);
    }
}
