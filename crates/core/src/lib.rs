//! # sls-rbm-core
//!
//! The paper's primary contribution: restricted Boltzmann machines whose
//! contrastive-divergence (CD) learning is steered by **self-learning local
//! supervision** obtained from multi-clustering integration, so that hidden
//! features of the same local cluster *constrict* together while the centres
//! of different local clusters *disperse*.
//!
//! ## Models
//!
//! One energy model, [`Rbm`], covers the paper's four: its [`VisibleKind`]
//! picks the visible layer, and [`CdTrainer::train`] adds the
//! constrict/disperse gradient of Eqs. 14–35 (see [`sls`]) when it is given
//! a local supervision. Artifacts, checkpoints and the CLI name the four by
//! [`ModelKind`]:
//!
//! | `ModelKind` | Visible units | Training | Paper name |
//! |-------------|---------------|----------|------------|
//! | `rbm` | binary | plain CD | RBM (baseline) |
//! | `grbm` | Gaussian (unit variance) | plain CD | GRBM (baseline) |
//! | `sls-rbm` | binary | CD + sls | slsRBM |
//! | `sls-grbm` | Gaussian | CD + sls | slsGRBM |
//!
//! ## Pipelines
//!
//! The paper's experiments always follow the same four stages: preprocess →
//! self-learning supervision (for sls models) → train the energy model →
//! cluster the hidden features. [`run_pipeline`] runs the first three and
//! extracts the hidden features for any [`ModelKind`], so the experiment
//! harness and downstream users do not have to re-assemble them.
//!
//! ## Serving artifacts
//!
//! [`PipelineArtifact`] packages a trained pipeline as schema-versioned JSON
//! — model kind, parameters, *fitted* preprocessing statistics and the
//! fitted cluster head — so the `sls-serve` crate can reload it and answer
//! hidden-feature and cluster-assignment requests without retraining.
//! [`CompactParams`] is the memory-lean serving form of the weights:
//! f32-quantized with error-bounded f64 arithmetic, for nodes that hold many
//! models.
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use sls_datasets::SyntheticBlobs;
//! use sls_rbm_core::{run_pipeline, ModelKind, SlsPipelineConfig};
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(3);
//! let dataset = SyntheticBlobs::new(60, 6, 3).separation(5.0).generate(&mut rng);
//! let config = SlsPipelineConfig::quick_demo();
//! let outcome = run_pipeline(ModelKind::SlsGrbm, &config, dataset.features(), &mut rng)
//!     .expect("pipeline runs");
//! assert_eq!(outcome.hidden_features.rows(), 60);
//! assert!(outcome.supervision.is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod artifact;
mod cd;
mod compact;
mod config;
mod error;
// Tests only: the Gaussian-visible `Rbm` (the paper's GRBM).
mod grbm;
mod model;
mod model_io;
mod pipeline;
mod rbm;
pub mod sls;
mod stream;

pub use artifact::{
    ClusterHead, FittedPipeline, FittedPreprocessor, ModelKind, PipelineArtifact,
    ARTIFACT_SCHEMA_VERSION,
};
pub use cd::{CdTrainer, EpochStats, TrainingHistory};
pub use compact::CompactParams;
pub use config::TrainConfig;
pub use error::RbmError;
pub use model::{RbmParams, VisibleKind};
pub use pipeline::{
    base_clusterers, run_pipeline, PipelineOutcome, Preprocessing, SlsPipelineConfig,
};
pub use rbm::Rbm;
pub use sls::SlsConfig;
pub use stream::{StreamLimit, StreamTrainer, TrainCheckpoint, CHECKPOINT_SCHEMA_VERSION};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, RbmError>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_datasets::SyntheticBlobs;

    /// Cross-module smoke test: the full slsGRBM pipeline must improve (or at
    /// least not destroy) k-means clustering of well-separated data.
    #[test]
    fn sls_grbm_pipeline_preserves_separable_structure() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let ds = SyntheticBlobs::new(75, 8, 3)
            .separation(6.0)
            .generate(&mut rng);
        let config = SlsPipelineConfig::quick_demo();
        let outcome = run_pipeline(ModelKind::SlsGrbm, &config, ds.features(), &mut rng).unwrap();
        assert_eq!(outcome.hidden_features.rows(), 75);
        let assignment = sls_clustering::KMeans::new(3)
            .fit(&outcome.hidden_features, &mut rng)
            .unwrap()
            .assignment;
        let acc = sls_metrics::clustering_accuracy(assignment.labels(), ds.labels()).unwrap();
        assert!(acc > 0.7, "accuracy {acc} on hidden features");
    }
}
