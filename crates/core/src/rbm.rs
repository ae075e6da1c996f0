//! Binary-binary restricted Boltzmann machine (the paper's `RBM` baseline).

use crate::model::{BoltzmannMachine, RbmParams, VisibleKind};
use crate::Result;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sls_linalg::{Matrix, ParallelPolicy};

/// Restricted Boltzmann machine with binary visible and hidden units
/// (Section III-A). The visible layer is reconstructed through a sigmoid
/// (Eq. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rbm {
    params: RbmParams,
}

impl Rbm {
    /// Creates an RBM with `n_visible x n_hidden` randomly initialised
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

    /// The (unnormalised) free energy `F(v) = -a·v - Σ_j log(1 + e^{b_j + v·w_j})`
    /// of each row of `visible`. Lower is more probable under the model;
    /// useful for monitoring and for comparing model fits.
    ///
    /// # Errors
    ///
    /// Returns an error if `visible` has the wrong width or no rows.
    pub fn free_energy(&self, visible: &Matrix) -> Result<Vec<f64>> {
        self.params.check_data(visible)?;
        let pre = visible
            .matmul(&self.params.weights)?
            .add_row_broadcast(&self.params.hidden_bias)?;
        let mut energies = Vec::with_capacity(visible.rows());
        for (i, row) in visible.row_iter().enumerate() {
            let visible_term: f64 = row
                .iter()
                .zip(&self.params.visible_bias)
                .map(|(&v, &a)| v * a)
                .sum();
            let hidden_term: f64 = pre.row(i).iter().map(|&x| softplus(x)).sum();
            energies.push(-visible_term - hidden_term);
        }
        Ok(energies)
    }
}

/// `log(1 + e^x)` computed without overflow.
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        0.0
    } else {
        (1.0 + x.exp()).ln()
    }
}

impl BoltzmannMachine for Rbm {
    fn params(&self) -> &RbmParams {
        &self.params
    }

    fn params_mut(&mut self) -> &mut RbmParams {
        &mut self.params
    }

    fn visible_kind(&self) -> VisibleKind {
        VisibleKind::Binary
    }

    fn reconstruct_visible_with(
        &self,
        hidden: &Matrix,
        parallel: &ParallelPolicy,
    ) -> Result<Matrix> {
        let pre = hidden.matmul_transpose_right_with(&self.params.weights, parallel)?;
        // Bias broadcast and sigmoid fused into one row-wise pass through
        // the simd layer.
        let bias = &self.params.visible_bias;
        Ok(pre.map_rows_with(bias.len(), parallel, |_, row, out| {
            sls_linalg::simd::fused_bias_sigmoid(row, bias, out);
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
        ChaCha8Rng::seed_from_u64(3)
    }

    #[test]
    fn hidden_probabilities_are_valid_probabilities() {
        let mut r = rng();
        let rbm = Rbm::new(10, 6, &mut r);
        let data = Matrix::random_bernoulli(20, 10, 0.5, &mut r);
        let h = rbm.hidden_probabilities(&data).unwrap();
        assert_eq!(h.shape(), (20, 6));
        assert!(h.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn zero_weights_give_half_probabilities() {
        let mut r = rng();
        let mut rbm = Rbm::new(4, 3, &mut r);
        rbm.params_mut().weights = Matrix::zeros(4, 3);
        rbm.params_mut().hidden_bias = vec![0.0; 3];
        let data = Matrix::random_bernoulli(5, 4, 0.5, &mut r);
        let h = rbm.hidden_probabilities(&data).unwrap();
        assert!(h.as_slice().iter().all(|&p| (p - 0.5).abs() < 1e-12));
    }

    #[test]
    fn reconstruction_is_in_unit_interval() {
        let mut r = rng();
        let rbm = Rbm::new(8, 4, &mut r);
        let data = Matrix::random_bernoulli(10, 8, 0.3, &mut r);
        let recon = rbm.reconstruct(&data, &mut r).unwrap();
        assert_eq!(recon.shape(), (10, 8));
        assert!(recon.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn sample_hidden_is_binary() {
        let mut r = rng();
        let rbm = Rbm::new(8, 4, &mut r);
        let data = Matrix::random_bernoulli(10, 8, 0.5, &mut r);
        let s = rbm.sample_hidden(&data, &mut r).unwrap();
        assert!(s.as_slice().iter().all(|&x| x == 0.0 || x == 1.0));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let mut r = rng();
        let rbm = Rbm::new(8, 4, &mut r);
        let wrong = Matrix::zeros(5, 9);
        assert!(rbm.hidden_probabilities(&wrong).is_err());
        assert!(rbm.reconstruction_error(&wrong).is_err());
    }

    #[test]
    fn free_energy_prefers_training_like_patterns() {
        // Build an RBM whose weights strongly tie visible unit 0 to hidden
        // unit 0; a vector with unit 0 on should have lower free energy than
        // the all-zero vector when the visible bias favours it.
        let mut r = rng();
        let mut rbm = Rbm::new(3, 2, &mut r);
        rbm.params_mut().weights =
            Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 0.0], vec![0.0, 0.0]]).unwrap();
        rbm.params_mut().visible_bias = vec![2.0, 0.0, 0.0];
        let on = Matrix::from_rows(&[vec![1.0, 0.0, 0.0]]).unwrap();
        let off = Matrix::from_rows(&[vec![0.0, 0.0, 0.0]]).unwrap();
        let e_on = rbm.free_energy(&on).unwrap()[0];
        let e_off = rbm.free_energy(&off).unwrap()[0];
        assert!(e_on < e_off);
    }

    #[test]
    fn softplus_is_stable_at_extremes() {
        assert_eq!(softplus(100.0), 100.0);
        assert_eq!(softplus(-100.0), 0.0);
        assert!((softplus(0.0) - 2.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn visible_kind_is_binary() {
        let rbm = Rbm::new(2, 2, &mut rng());
        assert_eq!(rbm.visible_kind(), VisibleKind::Binary);
    }

    #[test]
    fn from_params_round_trips() {
        let params = RbmParams::init(5, 2, &mut rng());
        let rbm = Rbm::from_params(params.clone());
        assert_eq!(rbm.params(), &params);
    }
}
