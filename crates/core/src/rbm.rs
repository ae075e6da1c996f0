//! The paper's energy model: a restricted Boltzmann machine with binary
//! hidden units and a binary (RBM, Section III-A) or Gaussian (GRBM,
//! Section III-B) visible layer.

use crate::model::{RbmParams, VisibleKind};
use crate::Result;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sls_linalg::{Matrix, MatrixRandomExt, ParallelPolicy};

/// Restricted Boltzmann machine whose visible layer is `visible`.
///
/// The hidden layer is binary for both kinds, so `p(h_j = 1 | v)` is always
/// a sigmoid (Eq. 2); the kinds differ only in how the visible layer is
/// reconstructed from hidden activity: through a sigmoid for binary units
/// (Eq. 3), as the linear mean `a + h Wᵀ` for unit-variance Gaussian units
/// (Eq. 5). Gaussian inputs are expected to be standardised column-wise.
///
/// The paper's slsRBM and slsGRBM are this same model; only their training
/// differs (see [`crate::CdTrainer::train`] with a supervision).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rbm {
    visible: VisibleKind,
    params: RbmParams,
}

impl Rbm {
    /// Creates a model with `n_visible x n_hidden` weights drawn by
    /// [`RbmParams::init`].
    pub fn new(
        visible: VisibleKind,
        n_visible: usize,
        n_hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self::from_params(visible, RbmParams::init(n_visible, n_hidden, rng))
    }

    /// Wraps existing parameters (used when loading a persisted model).
    pub fn from_params(visible: VisibleKind, params: RbmParams) -> Self {
        Self { visible, params }
    }

    /// Which kind of visible layer this model has.
    pub fn visible_kind(&self) -> VisibleKind {
        self.visible
    }

    /// Immutable access to the parameters.
    pub fn params(&self) -> &RbmParams {
        &self.params
    }

    /// Mutable access to the parameters.
    pub fn params_mut(&mut self) -> &mut RbmParams {
        &mut self.params
    }

    /// Hidden unit activation probabilities `p(h_j = 1 | v)` for each row of
    /// `visible` — the hidden features used for clustering. Runs under the
    /// process-wide [`ParallelPolicy::global`].
    ///
    /// # Errors
    ///
    /// Returns an error if `visible` has the wrong width or no rows.
    pub fn hidden_probabilities(&self, visible: &Matrix) -> Result<Matrix> {
        self.hidden_probabilities_with(visible, &ParallelPolicy::global())
    }

    /// [`Self::hidden_probabilities`] under an explicit [`ParallelPolicy`].
    ///
    /// # Errors
    ///
    /// Returns an error if `visible` has the wrong width or no rows.
    pub fn hidden_probabilities_with(
        &self,
        visible: &Matrix,
        parallel: &ParallelPolicy,
    ) -> Result<Matrix> {
        self.params.hidden_probabilities_with(visible, parallel)
    }

    /// Samples a binary hidden state from the probabilities.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Self::hidden_probabilities`].
    pub fn sample_hidden(&self, visible: &Matrix, rng: &mut impl Rng) -> Result<Matrix> {
        let probs = self.hidden_probabilities(visible)?;
        Ok(Matrix::sample_bernoulli(&probs, rng))
    }

    /// Reconstructs the visible layer from hidden activities under the
    /// process-wide [`ParallelPolicy::global`].
    ///
    /// # Errors
    ///
    /// Returns an error if `hidden` has the wrong width.
    pub fn reconstruct_visible(&self, hidden: &Matrix) -> Result<Matrix> {
        self.reconstruct_visible_with(hidden, &ParallelPolicy::global())
    }

    /// [`Self::reconstruct_visible`] under an explicit [`ParallelPolicy`]:
    /// `σ(a + h Wᵀ)` for binary units, `a + h Wᵀ` for Gaussian units, the
    /// bias broadcast fused into one row-wise pass through the simd layer.
    ///
    /// # Errors
    ///
    /// Returns an error if `hidden` has the wrong width.
    pub fn reconstruct_visible_with(
        &self,
        hidden: &Matrix,
        parallel: &ParallelPolicy,
    ) -> Result<Matrix> {
        let pre = hidden.matmul_transpose_right_with(&self.params.weights, parallel)?;
        let bias = &self.params.visible_bias;
        let fused = match self.visible {
            VisibleKind::Binary => sls_linalg::simd::fused_bias_sigmoid,
            VisibleKind::Gaussian => sls_linalg::simd::fused_bias_add,
        };
        let width = bias.len();
        Ok(
            pre.map_rows_with(width, 2 * width, parallel, |_, row, out| {
                fused(row, bias, out);
            }),
        )
    }

    /// One Gibbs round trip `v -> h -> v̂` with hidden *samples* for the
    /// downward pass (CD-1 convention), returning the reconstruction.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the individual passes.
    pub fn reconstruct(&self, visible: &Matrix, rng: &mut impl Rng) -> Result<Matrix> {
        let hidden = self.sample_hidden(visible, rng)?;
        self.reconstruct_visible(&hidden)
    }

    /// Mean squared reconstruction error of one deterministic round trip
    /// (hidden probabilities instead of samples), the training progress
    /// metric. Runs under the process-wide [`ParallelPolicy::global`].
    ///
    /// # Errors
    ///
    /// Returns an error if `visible` has the wrong width or no rows.
    pub fn reconstruction_error(&self, visible: &Matrix) -> Result<f64> {
        self.reconstruction_error_with(visible, &ParallelPolicy::global())
    }

    /// [`Self::reconstruction_error`] under an explicit [`ParallelPolicy`]:
    /// the hidden probabilities and the reconstruction of the whole input,
    /// each product and map under `parallel`, then one squared-error sum per
    /// row, added in row order. Every value has one summation order, so the
    /// error has the same bits for every thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if `visible` has the wrong width or no rows.
    pub fn reconstruction_error_with(
        &self,
        visible: &Matrix,
        parallel: &ParallelPolicy,
    ) -> Result<f64> {
        let hidden = self.hidden_probabilities_with(visible, parallel)?;
        let recon = self.reconstruct_visible_with(&hidden, parallel)?;
        let sum: f64 = visible
            .row_iter()
            .zip(recon.row_iter())
            .map(|(row, recon_row)| squared_error(row, recon_row))
            .sum();
        Ok(sum / visible.len() as f64)
    }
}

/// The squared error between a visible row and its reconstruction, summed
/// left to right.
pub(crate) fn squared_error(row: &[f64], recon: &[f64]) -> f64 {
    row.iter()
        .zip(recon)
        .map(|(&v, &r)| {
            let d = v - r;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_linalg::MatrixRandomExt;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(3)
    }

    #[test]
    fn hidden_probabilities_are_valid_probabilities() {
        let mut r = rng();
        let rbm = Rbm::new(VisibleKind::Binary, 10, 6, &mut r);
        let data = Matrix::random_bernoulli(20, 10, 0.5, &mut r);
        let h = rbm.hidden_probabilities(&data).unwrap();
        assert_eq!(h.shape(), (20, 6));
        assert!(h.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn zero_weights_give_half_probabilities() {
        let mut r = rng();
        let mut rbm = Rbm::new(VisibleKind::Binary, 4, 3, &mut r);
        rbm.params_mut().weights = Matrix::zeros(4, 3);
        rbm.params_mut().hidden_bias = vec![0.0; 3];
        let data = Matrix::random_bernoulli(5, 4, 0.5, &mut r);
        let h = rbm.hidden_probabilities(&data).unwrap();
        assert!(h.as_slice().iter().all(|&p| (p - 0.5).abs() < 1e-12));
    }

    #[test]
    fn reconstruction_is_in_unit_interval() {
        let mut r = rng();
        let rbm = Rbm::new(VisibleKind::Binary, 8, 4, &mut r);
        let data = Matrix::random_bernoulli(10, 8, 0.3, &mut r);
        let recon = rbm.reconstruct(&data, &mut r).unwrap();
        assert_eq!(recon.shape(), (10, 8));
        assert!(recon.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn sample_hidden_is_binary() {
        let mut r = rng();
        let rbm = Rbm::new(VisibleKind::Binary, 8, 4, &mut r);
        let data = Matrix::random_bernoulli(10, 8, 0.5, &mut r);
        let s = rbm.sample_hidden(&data, &mut r).unwrap();
        assert!(s.as_slice().iter().all(|&x| x == 0.0 || x == 1.0));
    }

    /// The reconstruction error the unblocked way: whole-matrix passes, one
    /// squared-error sum per row, combined in row order.
    fn unblocked_error(rbm: &Rbm, data: &Matrix) -> f64 {
        let serial = ParallelPolicy::serial();
        let hidden = rbm.hidden_probabilities_with(data, &serial).unwrap();
        let recon = rbm.reconstruct_visible_with(&hidden, &serial).unwrap();
        let per_row: Vec<f64> = data
            .row_iter()
            .zip(recon.row_iter())
            .map(|(v, r)| v.iter().zip(r).map(|(&v, &r)| (v - r) * (v - r)).sum())
            .collect();
        per_row.iter().sum::<f64>() / data.len() as f64
    }

    #[test]
    fn reconstruction_error_has_the_same_bits_for_every_policy() {
        // 70 rows make blocks of 32 + 32 + 6; 1 row makes one short block.
        let mut r = rng();
        for kind in [VisibleKind::Binary, VisibleKind::Gaussian] {
            let mut rbm = Rbm::new(kind, 9, 5, &mut r);
            rbm.params_mut().weights = Matrix::random_normal(9, 5, 0.0, 0.5, &mut r);
            for rows in [70, 1] {
                let data = match kind {
                    VisibleKind::Binary => Matrix::random_bernoulli(rows, 9, 0.4, &mut r),
                    VisibleKind::Gaussian => Matrix::random_normal(rows, 9, 0.0, 1.0, &mut r),
                };
                let expected = unblocked_error(&rbm, &data).to_bits();
                for policy in [
                    ParallelPolicy::serial(),
                    ParallelPolicy::new(2),
                    ParallelPolicy::eager(4),
                ] {
                    let error = rbm.reconstruction_error_with(&data, &policy).unwrap();
                    assert_eq!(
                        error.to_bits(),
                        expected,
                        "{kind:?}, {rows} rows, {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let mut r = rng();
        let rbm = Rbm::new(VisibleKind::Binary, 8, 4, &mut r);
        let wrong = Matrix::zeros(5, 9);
        assert!(rbm.hidden_probabilities(&wrong).is_err());
        assert!(rbm.reconstruction_error(&wrong).is_err());
    }

    #[test]
    fn visible_kind_is_binary() {
        let rbm = Rbm::new(VisibleKind::Binary, 2, 2, &mut rng());
        assert_eq!(rbm.visible_kind(), VisibleKind::Binary);
    }

    #[test]
    fn from_params_round_trips() {
        let params = RbmParams::init(5, 2, &mut rng());
        let rbm = Rbm::from_params(VisibleKind::Binary, params.clone());
        assert_eq!(rbm.params(), &params);
    }
}
