//! # sls-rbm
//!
//! Umbrella crate for the *self-learning local supervision* (multi-clustering
//! integration) RBM workspace. It re-exports the public API of every member
//! crate so downstream users — and the examples and integration tests of this
//! repository — can depend on a single crate.
//!
//! The workspace reproduces Chu et al.'s unsupervised feature-learning
//! architecture in which multiple clusterings (density peaks, k-means and
//! affinity propagation) are integrated through unanimous voting into *local
//! credible clusters*, which then steer the contrastive-divergence update of
//! an RBM (binary data, `slsRBM`) or a Gaussian-visible RBM (real-valued
//! data, `slsGRBM`) so that hidden features of the same local cluster
//! constrict together while different local clusters disperse.
//!
//! ## Crate map
//!
//! | Module | Source crate | Contents |
//! |--------|--------------|----------|
//! | [`linalg`] | `sls-linalg` | dense matrices, products, statistics |
//! | [`datasets`] | `sls-datasets` | synthetic MSRA-MM / UCI style corpora, Iris, CSV |
//! | [`clustering`] | `sls-clustering` | k-means, density peaks, affinity propagation |
//! | [`metrics`] | `sls-metrics` | accuracy, purity, Rand, FMI, NMI |
//! | [`consensus`] | `sls-consensus` | label alignment, unanimous voting, local supervision |
//! | [`rbm`] | `sls-rbm-core` | the RBM over binary or Gaussian visible units, its CD/sls trainer, the pipeline, artifacts |
//! | [`serve`] | `sls-serve` | artifact registry, HTTP JSON inference server, client |
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use sls_rbm::datasets::SyntheticBlobs;
//! use sls_rbm::rbm::{run_pipeline, ModelKind, SlsPipelineConfig};
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let dataset = SyntheticBlobs::new(90, 8, 3).separation(4.0).generate(&mut rng);
//! let config = SlsPipelineConfig::quick_demo();
//! let outcome = run_pipeline(ModelKind::SlsGrbm, &config, dataset.features(), &mut rng)
//!     .expect("pipeline runs");
//! assert_eq!(outcome.hidden_features.rows(), 90);
//! ```

pub use sls_clustering as clustering;
pub use sls_consensus as consensus;
pub use sls_datasets as datasets;
pub use sls_linalg as linalg;
pub use sls_metrics as metrics;
pub use sls_rbm_core as rbm;
pub use sls_serve as serve;

/// Workspace version string, taken from the umbrella crate.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_is_nonempty() {
        assert!(!VERSION.is_empty());
    }

    /// Each re-exported module must expose its headline type under the
    /// umbrella paths advertised by the crate-map table above.
    #[test]
    fn every_reexported_module_exposes_its_headline_type() {
        let identity = linalg::Matrix::identity(2);
        assert_eq!(identity[(0, 0)], 1.0);

        let spec =
            datasets::DatasetSpec::new("Smoke", "SM", datasets::DataFamily::Synthetic, 4, 2, 2);
        assert_eq!(spec.code, "SM");

        let kmeans = clustering::KMeans::new(2);
        assert_eq!(clustering::Clusterer::name(&kmeans), "K-means");

        let supervision = consensus::LocalSupervision::from_consensus(
            &[Some(0), Some(0), Some(1), Some(1), None],
            consensus::VotingPolicy::Unanimous,
        )
        .expect("valid consensus labels");
        assert_eq!(supervision.n_clusters(), 2);

        let report =
            metrics::EvaluationReport::evaluate(&[0, 0, 1], &[0, 0, 1]).expect("valid labels");
        assert_eq!(report.accuracy, 1.0);

        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let model = rbm::Rbm::new(rbm::VisibleKind::Binary, 3, 2, &mut rng);
        assert_eq!(model.params().n_visible(), 3);

        let artifact =
            rbm::PipelineArtifact::from_params(model.params().clone(), rbm::ModelKind::Rbm);
        let mut registry = serve::ModelRegistry::new();
        registry.insert("smoke", artifact);
        assert_eq!(registry.len(), 1);
    }
}
