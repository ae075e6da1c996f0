//! The visible-layer kind and the parameter container of [`crate::Rbm`].

use crate::{RbmError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sls_linalg::{Matrix, MatrixRandomExt, ParallelPolicy};

/// Kind of visible layer a model exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VisibleKind {
    /// Binary (Bernoulli) visible units reconstructed through a sigmoid.
    Binary,
    /// Gaussian linear visible units with unit variance, reconstructed
    /// linearly (Section III-B of the paper).
    Gaussian,
}

/// Parameters shared by every model in the RBM family: a weight matrix
/// (`n_visible x n_hidden`), visible biases `a` and hidden biases `b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RbmParams {
    /// Symmetric connection weights `w_ij`, one row per visible unit.
    pub weights: Matrix,
    /// Visible-layer biases `a_i`.
    pub visible_bias: Vec<f64>,
    /// Hidden-layer biases `b_j`.
    pub hidden_bias: Vec<f64>,
}

impl RbmParams {
    /// Initialises parameters with small zero-mean Gaussian weights
    /// (`std = 0.01`, Hinton's practical recommendation) and zero biases.
    pub fn init(n_visible: usize, n_hidden: usize, rng: &mut impl Rng) -> Self {
        Self {
            weights: Matrix::random_normal(n_visible, n_hidden, 0.0, 0.01, rng),
            visible_bias: vec![0.0; n_visible],
            hidden_bias: vec![0.0; n_hidden],
        }
    }

    /// Rejects a model without hidden units before any work is done: it
    /// would train to an empty feature space that no cluster head can be
    /// fitted on. Both training entry points ([`crate::run_pipeline`] and
    /// [`crate::TrainCheckpoint::fresh`]) call this first.
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::InvalidConfig`] if `n_hidden == 0`.
    pub(crate) fn check_hidden_units(n_hidden: usize) -> Result<()> {
        if n_hidden == 0 {
            return Err(RbmError::InvalidConfig {
                name: "n_hidden",
                message: "a model needs at least one hidden unit".into(),
            });
        }
        Ok(())
    }

    /// Number of visible units.
    pub fn n_visible(&self) -> usize {
        self.weights.rows()
    }

    /// Number of hidden units.
    pub fn n_hidden(&self) -> usize {
        self.weights.cols()
    }

    /// Bytes held by the `f64` weights and both bias vectors.
    pub fn param_bytes(&self) -> usize {
        (self.weights.len() + self.visible_bias.len() + self.hidden_bias.len())
            * std::mem::size_of::<f64>()
    }

    /// Checks that the parameter shapes agree with each other (the bias
    /// vectors must match the weight matrix's dimensions) and that every
    /// value is finite.
    ///
    /// Persisted parameters deserialise field by field with no cross-field
    /// validation, so artifact and checkpoint loading call this to reject a
    /// malformed file once at load time — the fused activation passes
    /// assert these lengths per call, and a panic there would cost a
    /// serving worker thread per request instead of one clean load error.
    /// A non-finite value (`1e400` parses to infinity) would load and then
    /// serve `NaN` features.
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::InvalidConfig`] if either bias length disagrees
    /// with the weight matrix or a value is not finite.
    pub fn check_consistent(&self) -> Result<()> {
        if self.visible_bias.len() != self.n_visible() || self.hidden_bias.len() != self.n_hidden()
        {
            return Err(RbmError::InvalidConfig {
                name: "params",
                message: format!(
                    "bias lengths ({} visible, {} hidden) do not match the {}x{} weight matrix",
                    self.visible_bias.len(),
                    self.hidden_bias.len(),
                    self.n_visible(),
                    self.n_hidden()
                ),
            });
        }
        if !self.is_finite() {
            return Err(RbmError::InvalidConfig {
                name: "params",
                message: "weights and biases must be finite".into(),
            });
        }
        Ok(())
    }

    /// Hidden unit activation probabilities `sigmoid(v W + b)` for each row
    /// of `visible`: one matrix product, then the bias broadcast and sigmoid
    /// fused into one row-wise pass. Every hidden-feature path (training,
    /// pipelines, served artifacts) goes through here.
    ///
    /// # Errors
    ///
    /// Returns an error if `visible` has the wrong width or no rows.
    pub fn hidden_probabilities_with(
        &self,
        visible: &Matrix,
        parallel: &ParallelPolicy,
    ) -> Result<Matrix> {
        self.check_data(visible)?;
        let pre = visible.matmul_with(&self.weights, parallel)?;
        let bias = &self.hidden_bias;
        let width = bias.len();
        Ok(
            pre.map_rows_with(width, 2 * width, parallel, |_, row, out| {
                sls_linalg::simd::fused_bias_sigmoid(row, bias, out);
            }),
        )
    }

    /// `true` if every parameter is finite.
    pub fn is_finite(&self) -> bool {
        self.weights.is_finite()
            && self.visible_bias.iter().all(|x| x.is_finite())
            && self.hidden_bias.iter().all(|x| x.is_finite())
    }

    /// Checks that a data matrix is compatible with the visible layer.
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::VisibleSizeMismatch`] or [`RbmError::EmptyData`].
    pub fn check_data(&self, data: &Matrix) -> Result<()> {
        if data.rows() == 0 {
            return Err(RbmError::EmptyData);
        }
        if data.cols() != self.n_visible() {
            return Err(RbmError::VisibleSizeMismatch {
                data: data.cols(),
                model: self.n_visible(),
            });
        }
        Ok(())
    }
}

/// Numerically stable logistic sigmoid — the single shared definition lives
/// in the linalg simd layer so the fused activation passes and the scalar
/// call sites (e.g. the sls gradient terms) can never drift apart.
#[inline]
pub(crate) fn sigmoid(x: f64) -> f64 {
    sls_linalg::simd::sigmoid(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(17)
    }

    #[test]
    fn init_shapes_and_scale() {
        let p = RbmParams::init(20, 8, &mut rng());
        assert_eq!(p.n_visible(), 20);
        assert_eq!(p.n_hidden(), 8);
        assert_eq!(p.visible_bias.len(), 20);
        assert_eq!(p.hidden_bias.len(), 8);
        assert!(p.is_finite());
        // Weights are small.
        assert!(p.weights.max().unwrap().abs() < 0.1);
    }

    #[test]
    fn check_data_validates() {
        let p = RbmParams::init(4, 2, &mut rng());
        assert!(p.check_data(&Matrix::zeros(3, 4)).is_ok());
        assert!(matches!(
            p.check_data(&Matrix::zeros(3, 5)),
            Err(RbmError::VisibleSizeMismatch { data: 5, model: 4 })
        ));
        assert!(matches!(
            p.check_data(&Matrix::zeros(0, 4)),
            Err(RbmError::EmptyData)
        ));
    }

    #[test]
    fn check_consistent_rejects_mismatched_bias_lengths() {
        let good = RbmParams::init(4, 2, &mut rng());
        assert!(good.check_consistent().is_ok());
        let mut short_hidden = good.clone();
        short_hidden.hidden_bias.pop();
        assert!(matches!(
            short_hidden.check_consistent(),
            Err(RbmError::InvalidConfig { name: "params", .. })
        ));
        let mut long_visible = good.clone();
        long_visible.visible_bias.push(0.0);
        assert!(matches!(
            long_visible.check_consistent(),
            Err(RbmError::InvalidConfig { name: "params", .. })
        ));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut p = RbmParams::init(3, 3, &mut rng());
        assert!(p.is_finite());
        p.hidden_bias[1] = f64::NAN;
        assert!(!p.is_finite());
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
        // Symmetry: σ(-x) = 1 - σ(x).
        for x in [-3.0, -0.5, 0.7, 2.2] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn serde_round_trip() {
        let p = RbmParams::init(5, 3, &mut rng());
        let json = serde_json::to_string(&p).unwrap();
        let back: RbmParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
