//! Gaussian-visible restricted Boltzmann machine (the paper's `GRBM`
//! baseline, Section III-B).

use crate::model::{BoltzmannMachine, RbmParams, VisibleKind};
use crate::Result;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sls_linalg::{Matrix, ParallelPolicy};

/// RBM with Gaussian linear visible units (unit variance) and binary hidden
/// units, for real-valued data. The reconstruction of the visible layer is
/// the linear mean `a + h Wᵀ` — "the reconstructed values of Gaussian linear
/// visible units are equal to their top-down input from the binary hidden
/// units plus their bias" (Section III-B).
///
/// Inputs are expected to be standardised column-wise to zero mean and unit
/// variance (see `sls_datasets::standardize_columns`), matching the
/// unit-variance assumption behind the simplified update rules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grbm {
    params: RbmParams,
}

impl Grbm {
    /// Creates a GRBM with `n_visible x n_hidden` randomly initialised
    /// weights.
    pub fn new(n_visible: usize, n_hidden: usize, rng: &mut impl Rng) -> Self {
        Self {
            params: RbmParams::init(n_visible, n_hidden, rng),
        }
    }

    /// Wraps existing parameters (used when loading a persisted model).
    pub fn from_params(params: RbmParams) -> Self {
        Self { params }
    }
}

impl BoltzmannMachine for Grbm {
    fn params(&self) -> &RbmParams {
        &self.params
    }

    fn params_mut(&mut self) -> &mut RbmParams {
        &mut self.params
    }

    fn visible_kind(&self) -> VisibleKind {
        VisibleKind::Gaussian
    }

    fn reconstruct_visible_with(
        &self,
        hidden: &Matrix,
        parallel: &ParallelPolicy,
    ) -> Result<Matrix> {
        let pre = hidden.matmul_transpose_right_with(&self.params.weights, parallel)?;
        // Linear mean `a + h Wᵀ`: bias broadcast as one row-wise pass
        // through the simd layer.
        let bias = &self.params.visible_bias;
        Ok(pre.map_rows_with(bias.len(), parallel, |_, row, out| {
            sls_linalg::simd::fused_bias_add(row, bias, out);
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_linalg::MatrixRandomExt;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(8)
    }

    #[test]
    fn hidden_probabilities_are_probabilities() {
        let mut r = rng();
        let grbm = Grbm::new(12, 5, &mut r);
        let data = Matrix::random_normal(15, 12, 0.0, 1.0, &mut r);
        let h = grbm.hidden_probabilities(&data).unwrap();
        assert_eq!(h.shape(), (15, 5));
        assert!(h.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn reconstruction_is_linear_and_unbounded() {
        let mut r = rng();
        let mut grbm = Grbm::new(3, 2, &mut r);
        // With large weights the linear reconstruction exceeds [0, 1], which
        // a sigmoid reconstruction could never do.
        grbm.params_mut().weights = Matrix::filled(3, 2, 3.0);
        grbm.params_mut().visible_bias = vec![1.0, 1.0, 1.0];
        let hidden = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let recon = grbm.reconstruct_visible(&hidden).unwrap();
        assert_eq!(recon.row(0), &[7.0, 7.0, 7.0]);
    }

    #[test]
    fn zero_hidden_reconstructs_to_bias() {
        let mut r = rng();
        let mut grbm = Grbm::new(4, 3, &mut r);
        grbm.params_mut().visible_bias = vec![0.5, -0.5, 1.5, 0.0];
        let hidden = Matrix::zeros(2, 3);
        let recon = grbm.reconstruct_visible(&hidden).unwrap();
        assert_eq!(recon.row(0), &[0.5, -0.5, 1.5, 0.0]);
        assert_eq!(recon.row(1), &[0.5, -0.5, 1.5, 0.0]);
    }

    #[test]
    fn visible_bias_matching_the_data_mean_lowers_reconstruction_error() {
        // With zero weights the reconstruction is exactly the visible bias,
        // so a bias equal to the (constant) data reconstructs perfectly while
        // a zero bias pays the full squared mean.
        let mut r = rng();
        let data = Matrix::filled(20, 4, 2.0);
        let mut matched = Grbm::new(4, 3, &mut r);
        matched.params_mut().weights = Matrix::zeros(4, 3);
        matched.params_mut().visible_bias = vec![2.0; 4];
        let mut unmatched = Grbm::new(4, 3, &mut r);
        unmatched.params_mut().weights = Matrix::zeros(4, 3);
        let err_matched = matched.reconstruction_error(&data).unwrap();
        let err_unmatched = unmatched.reconstruction_error(&data).unwrap();
        assert!(err_matched < 1e-12);
        assert!((err_unmatched - 4.0).abs() < 1e-12);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let grbm = Grbm::new(6, 2, &mut rng());
        assert!(grbm.hidden_probabilities(&Matrix::zeros(3, 5)).is_err());
    }

    #[test]
    fn visible_kind_is_gaussian() {
        assert_eq!(
            Grbm::new(2, 2, &mut rng()).visible_kind(),
            VisibleKind::Gaussian
        );
    }

    #[test]
    fn serde_round_trip() {
        let grbm = Grbm::new(5, 3, &mut rng());
        let json = serde_json::to_string(&grbm).unwrap();
        let back: Grbm = serde_json::from_str(&json).unwrap();
        assert_eq!(back, grbm);
    }
}
