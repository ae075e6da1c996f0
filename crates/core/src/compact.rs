//! Compact (f32-quantized) serving representation.
//!
//! A serving node that holds hundreds of models is bounded by parameter
//! memory, and the dominant term is the `n_visible × n_hidden` weight
//! matrix stored as `f64`. [`CompactParams`] stores the weights and hidden
//! biases as `f32` — half the bytes — while keeping all *arithmetic* in
//! `f64`: every weight is widened back with `f64::from` before it enters
//! the dot product, and the accumulator, bias add and sigmoid are the same
//! `f64` operations the full path uses. The only difference from the full
//! path is the one rounding step at quantization time, which gives a tight,
//! analyzable error bound instead of an accumulating one:
//!
//! * each weight/bias is off by at most one f32 ulp, i.e. a relative error
//!   of `2^-24 ≈ 6e-8`;
//! * a row of `n` products accumulates at most `n · 2^-24 · max|w| · max|v|`
//!   absolute pre-activation error (the f64 accumulation itself adds
//!   nothing on top of what the full path already incurs);
//! * the sigmoid is ¼-Lipschitz, so the activation error is at most a
//!   quarter of the pre-activation error.
//!
//! For the layer sizes this crate trains (hundreds of visible units,
//! standardized inputs, |w| ≲ 1) that lands far below the **documented
//! serving bound of `1e-6 · (1 + |full|)` per feature element**, which
//! `sls-serve`'s property suite (`tests/compact_properties.rs`) enforces
//! across every endpoint and parallel policy.
//!
//! The compact forward pass runs through the same row-partitioned
//! [`Matrix::map_rows_with`] dispatch as the full path, with a scalar
//! ascending-`k` accumulation per output element. Rows are independent and
//! the reduction order is fixed, so compact results are **bitwise identical
//! across serial and pooled execution** by construction — the
//! serving layer's identity discipline holds for quantized models too.
//!
//! [`CompactParams`] is a *serving* form, not a persistence form: artifacts
//! on disk stay full-precision `f64` JSON (schema unchanged), and the
//! `sls-serve` registry quantizes at load time when compact mode is
//! selected, keeping the preprocessor, cluster head and metadata at full
//! precision. Nothing lossy ever round-trips back to disk.

use crate::{RbmError, RbmParams, Result};
use sls_linalg::{Matrix, ParallelPolicy};

/// f32-quantized RBM parameters for serving: weights (row-major,
/// `n_visible × n_hidden`) and hidden biases. The visible biases are not
/// carried — the serving endpoints only ever run the upward pass
/// `sigmoid(v W + b)`, which never reads them.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactParams {
    n_visible: usize,
    n_hidden: usize,
    weights: Vec<f32>,
    hidden_bias: Vec<f32>,
}

impl CompactParams {
    /// Quantizes full-precision parameters to the compact serving form.
    ///
    /// Each value is rounded to the nearest `f32` (at most one ulp, i.e.
    /// `2^-24` relative error); see the [module docs](self) for how that
    /// propagates through the forward pass.
    pub fn from_params(params: &RbmParams) -> Self {
        let n_visible = params.n_visible();
        let n_hidden = params.n_hidden();
        Self {
            n_visible,
            n_hidden,
            weights: params
                .weights
                .as_slice()
                .iter()
                .map(|&w| w as f32)
                .collect(),
            hidden_bias: params.hidden_bias.iter().map(|&b| b as f32).collect(),
        }
    }

    /// Number of visible units (raw feature columns expected).
    pub fn n_visible(&self) -> usize {
        self.n_visible
    }

    /// Number of hidden units (feature columns produced).
    pub fn n_hidden(&self) -> usize {
        self.n_hidden
    }

    /// Bytes of parameter payload this representation holds — the number a
    /// capacity planner compares against the full form's
    /// [`RbmParams::param_bytes`].
    pub fn param_bytes(&self) -> usize {
        (self.weights.len() + self.hidden_bias.len()) * std::mem::size_of::<f32>()
    }

    /// Checks that a (preprocessed) data matrix matches the visible layer.
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::VisibleSizeMismatch`] or [`RbmError::EmptyData`],
    /// mirroring [`RbmParams::check_data`].
    pub fn check_data(&self, data: &Matrix) -> Result<()> {
        if data.rows() == 0 {
            return Err(RbmError::EmptyData);
        }
        if data.cols() != self.n_visible {
            return Err(RbmError::VisibleSizeMismatch {
                data: data.cols(),
                model: self.n_visible,
            });
        }
        Ok(())
    }

    /// The upward pass `sigmoid(v W + b)` over quantized parameters, for
    /// already-preprocessed rows.
    ///
    /// Per output element the products accumulate in `f64` in ascending-`k`
    /// order and the sigmoid is the shared [`sls_linalg::simd::sigmoid`];
    /// neither depends on the policy's thread count or chunking, so the
    /// result is bitwise identical for every [`ParallelPolicy`].
    ///
    /// # Errors
    ///
    /// Returns shape errors if `pre` does not match the visible layer.
    pub fn hidden_features_with(&self, pre: &Matrix, parallel: &ParallelPolicy) -> Result<Matrix> {
        self.check_data(pre)?;
        let n_hidden = self.n_hidden;
        let weights = &self.weights;
        let bias = &self.hidden_bias;
        Ok(pre.map_rows_with(n_hidden, parallel, |_, row, out| {
            for (k, &v) in row.iter().enumerate() {
                let wrow = &weights[k * n_hidden..(k + 1) * n_hidden];
                for (o, &w) in out.iter_mut().zip(wrow) {
                    *o += v * f64::from(w);
                }
            }
            for (o, &b) in out.iter_mut().zip(bias) {
                *o = sls_linalg::simd::sigmoid(*o + f64::from(b));
            }
        }))
    }
}

impl RbmParams {
    /// Bytes of parameter payload the full-precision form holds, the
    /// baseline for [`CompactParams::param_bytes`].
    pub fn param_bytes(&self) -> usize {
        (self.weights.len() + self.visible_bias.len() + self.hidden_bias.len())
            * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelKind, PipelineArtifact, SlsPipelineConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_datasets::SyntheticBlobs;

    fn artifact() -> PipelineArtifact {
        let mut rng = ChaCha8Rng::seed_from_u64(606);
        let ds = SyntheticBlobs::new(45, 5, 3)
            .separation(6.0)
            .generate(&mut rng);
        PipelineArtifact::fit(
            ModelKind::SlsGrbm,
            SlsPipelineConfig::quick_demo(),
            ds.features(),
            &mut rng,
        )
        .unwrap()
        .artifact
    }

    /// Request rows through the artifact's fitted preprocessor: the input
    /// the upward pass sees when serving.
    fn preprocessed(artifact: &PipelineArtifact) -> Matrix {
        let rows = Matrix::from_fn(48, 5, |i, j| (i as f64) * 0.11 - (j as f64) * 0.7);
        artifact
            .preprocessor
            .transform_with(&rows, &ParallelPolicy::serial())
            .unwrap()
    }

    #[test]
    fn quantization_stays_within_the_documented_bound() {
        let artifact = artifact();
        let compact = CompactParams::from_params(&artifact.params);
        let pre = preprocessed(&artifact);
        let policy = ParallelPolicy::serial();
        let full = artifact
            .params
            .hidden_probabilities_with(&pre, &policy)
            .unwrap();
        let quant = compact.hidden_features_with(&pre, &policy).unwrap();
        assert_eq!(full.shape(), quant.shape());
        for (&f, &q) in full.as_slice().iter().zip(quant.as_slice()) {
            assert!(
                (f - q).abs() <= 1e-6 * (1.0 + f.abs()),
                "full {f} vs compact {q}"
            );
        }
    }

    #[test]
    fn compact_path_is_bitwise_identical_across_policies() {
        let artifact = artifact();
        let compact = CompactParams::from_params(&artifact.params);
        let pre = preprocessed(&artifact);
        let serial = compact
            .hidden_features_with(&pre, &ParallelPolicy::serial())
            .unwrap();
        for threads in [2, 4] {
            let policy = ParallelPolicy::new(threads).with_min_rows_per_thread(1);
            let par = compact.hidden_features_with(&pre, &policy).unwrap();
            let same = serial
                .as_slice()
                .iter()
                .zip(par.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads = {threads}");
        }
    }

    #[test]
    fn compact_halves_parameter_bytes() {
        let params = artifact().params;
        let compact = CompactParams::from_params(&params);
        assert!(compact.param_bytes() * 2 <= params.param_bytes());
        assert_eq!(
            compact.param_bytes(),
            (5 * 12 + 12) * std::mem::size_of::<f32>()
        );
        assert_eq!((compact.n_visible(), compact.n_hidden()), (5, 12));
    }

    #[test]
    fn metadata_is_carried_over() {
        let artifact = artifact();
        let params = &artifact.params;
        let compact = CompactParams::from_params(params);
        assert_eq!(compact.n_visible(), params.n_visible());
        assert_eq!(compact.n_hidden(), params.n_hidden());
        assert_eq!((compact.n_visible(), compact.n_hidden()), (5, 12));
        // Every carried value is the nearest f32 of its source, in the same
        // row-major order.
        assert_eq!(compact.weights.len(), params.weights.len());
        for (&q, &w) in compact.weights.iter().zip(params.weights.as_slice()) {
            assert_eq!(q.to_bits(), (w as f32).to_bits());
        }
        assert_eq!(compact.hidden_bias.len(), params.hidden_bias.len());
        for (&q, &b) in compact.hidden_bias.iter().zip(params.hidden_bias.iter()) {
            assert_eq!(q.to_bits(), (b as f32).to_bits());
        }
        // Quantizing is deterministic: the same params give the same form.
        assert_eq!(compact, CompactParams::from_params(params));
    }

    #[test]
    fn shape_errors_mirror_the_full_path() {
        let params = artifact().params;
        let compact = CompactParams::from_params(&params);
        let policy = ParallelPolicy::serial();
        for data in [Matrix::zeros(2, 9), Matrix::zeros(0, 5)] {
            assert_eq!(
                compact
                    .hidden_features_with(&data, &policy)
                    .unwrap_err()
                    .to_string(),
                params
                    .hidden_probabilities_with(&data, &policy)
                    .unwrap_err()
                    .to_string()
            );
        }
        assert!(matches!(
            compact.check_data(&Matrix::zeros(2, 9)),
            Err(RbmError::VisibleSizeMismatch { data: 9, model: 5 })
        ));
    }
}
