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
//! | Type | Visible units | Reconstruction | Paper name |
//! |------|---------------|----------------|------------|
//! | [`Rbm`] | binary | sigmoid | RBM (baseline) |
//! | [`Grbm`] | Gaussian (unit variance) | linear | GRBM (baseline) |
//! | [`SlsRbm`] | binary | sigmoid | slsRBM |
//! | [`SlsGrbm`] | Gaussian | linear | slsGRBM |
//!
//! The sls models wrap the corresponding baseline and add the
//! constrict/disperse gradient of Eqs. 14–35 (see [`sls`]).
//!
//! ## Pipelines
//!
//! The paper's experiments always follow the same four stages: preprocess →
//! self-learning supervision (for sls models) → train the energy model →
//! cluster the hidden features. [`SlsGrbmPipeline`], [`SlsRbmPipeline`],
//! [`GrbmPipeline`] and [`RbmPipeline`] package those stages behind one
//! `run` call so the experiment harness and downstream users do not have to
//! re-assemble them.
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
//! use sls_rbm_core::{SlsGrbmPipeline, SlsPipelineConfig};
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(3);
//! let dataset = SyntheticBlobs::new(60, 6, 3).separation(5.0).generate(&mut rng);
//! let outcome = SlsGrbmPipeline::new(SlsPipelineConfig::quick_demo())
//!     .run(dataset.features(), &mut rng)
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
pub use grbm::Grbm;
pub use model::{BoltzmannMachine, RbmParams, VisibleKind};
pub use model_io::{load_params_json, save_params_json};
pub use pipeline::{
    base_clusterers, GrbmPipeline, PipelineOutcome, Preprocessing, RbmPipeline, SlsGrbmPipeline,
    SlsPipelineConfig, SlsRbmPipeline,
};
pub use rbm::Rbm;
pub use sls::{SlsConfig, SlsGrbm, SlsRbm, SlsTrainer};
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
        let outcome = SlsGrbmPipeline::new(SlsPipelineConfig::quick_demo())
            .run(ds.features(), &mut rng)
            .unwrap();
        assert_eq!(outcome.hidden_features.rows(), 75);
        let assignment = sls_clustering::KMeans::new(3)
            .fit(&outcome.hidden_features, &mut rng)
            .unwrap()
            .assignment;
        let acc = sls_metrics::clustering_accuracy(assignment.labels(), ds.labels()).unwrap();
        assert!(acc > 0.7, "accuracy {acc} on hidden features");
    }
}
