//! End-to-end pipelines reproducing the paper's experimental protocol.
//!
//! Every experiment in Section V follows the same stages:
//!
//! 1. **Preprocess** — standardise real-valued data for the Gaussian models,
//!    binarise data for the binary models.
//! 2. **Self-learning supervision** (sls models only) — run DP, K-means and
//!    AP on the preprocessed data and integrate them by unanimous voting.
//! 3. **Train** the energy model (plain CD for the baselines, the sls
//!    objective for slsRBM / slsGRBM).
//! 4. **Extract** hidden features; a downstream clusterer (chosen by the
//!    caller / the experiment harness) then clusters them.
//!
//! [`run_pipeline`] bundles stages 1–4 behind a single call.

use crate::artifact::{FittedPreprocessor, ModelKind};
use crate::model::RbmParams;
use crate::sls::SlsConfig;
use crate::{CdTrainer, Rbm, Result, TrainConfig, TrainingHistory};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sls_clustering::{AffinityPropagation, Clusterer, DensityPeaks, KMeans};
use sls_consensus::{LocalSupervisionBuilder, SupervisionSummary, VotingPolicy};
use sls_linalg::{Matrix, ParallelPolicy};

/// How the input data is prepared before it reaches the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preprocessing {
    /// Column-wise standardisation (zero mean, unit variance); the right
    /// choice for Gaussian-visible models.
    Standardize,
    /// Median binarisation per column; the right choice for binary-visible
    /// models on real-valued inputs.
    BinarizeMedian,
    /// Use the data as-is (it is already binary / already standardised).
    None,
}

/// Configuration of [`run_pipeline`], shared by all four model kinds.
///
/// It holds no parallel policy: the pipeline runs under the process-wide
/// [`ParallelPolicy::global`], so an artifact never bakes in the exporting
/// machine's core count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlsPipelineConfig {
    /// Number of hidden units of the energy model.
    pub n_hidden: usize,
    /// Number of clusters the base clusterers target (the paper uses the
    /// ground-truth class count) and that downstream evaluation uses.
    pub n_clusters: usize,
    /// CD training hyper-parameters.
    pub train: TrainConfig,
    /// sls hyper-parameters (ignored by the baseline kinds).
    pub sls: SlsConfig,
    /// Voting policy used to integrate the base clusterings.
    pub voting: VotingPolicy,
    /// Preprocessing applied before training.
    pub preprocessing: Preprocessing,
}

impl SlsPipelineConfig {
    /// Paper settings for the MSRA-MM experiments (slsGRBM, η = 0.4,
    /// learning rate 1e-4, standardised inputs).
    pub fn paper_grbm(n_clusters: usize) -> Self {
        Self {
            n_hidden: 64,
            n_clusters,
            train: TrainConfig::paper_grbm(),
            sls: SlsConfig::paper_grbm(),
            voting: VotingPolicy::Unanimous,
            preprocessing: Preprocessing::Standardize,
        }
    }

    /// Paper settings for the UCI experiments (slsRBM, η = 0.5, learning
    /// rate 1e-5, median-binarised inputs).
    pub fn paper_rbm(n_clusters: usize) -> Self {
        Self {
            n_hidden: 32,
            n_clusters,
            train: TrainConfig::paper_rbm(),
            sls: SlsConfig::paper_rbm(),
            voting: VotingPolicy::Unanimous,
            preprocessing: Preprocessing::BinarizeMedian,
        }
    }

    /// A small, fast configuration for demos and tests.
    pub fn quick_demo() -> Self {
        Self {
            n_hidden: 12,
            n_clusters: 3,
            train: TrainConfig::default()
                .with_learning_rate(5e-3)
                .with_epochs(15)
                .with_batch_size(32),
            // Paper-style single learning rate: the supervision gradient
            // reuses the CD rate. A much larger dedicated rate makes the
            // constrict/disperse term overpower the likelihood term and
            // distorts the hidden features.
            sls: SlsConfig::new(0.5),
            voting: VotingPolicy::Unanimous,
            preprocessing: Preprocessing::Standardize,
        }
    }

    /// Overrides the hidden-layer width.
    pub fn with_hidden(mut self, n_hidden: usize) -> Self {
        self.n_hidden = n_hidden;
        self
    }

    /// Overrides the cluster count.
    pub fn with_clusters(mut self, n_clusters: usize) -> Self {
        self.n_clusters = n_clusters;
        self
    }

    /// Overrides the training configuration.
    pub fn with_train(mut self, train: TrainConfig) -> Self {
        self.train = train;
        self
    }

    /// Overrides the sls configuration.
    pub fn with_sls(mut self, sls: SlsConfig) -> Self {
        self.sls = sls;
        self
    }

    /// Overrides the voting policy.
    pub fn with_voting(mut self, voting: VotingPolicy) -> Self {
        self.voting = voting;
        self
    }

    /// Overrides the preprocessing step.
    pub fn with_preprocessing(mut self, preprocessing: Preprocessing) -> Self {
        self.preprocessing = preprocessing;
        self
    }
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Hidden-layer features, one row per instance — the representation the
    /// paper clusters.
    pub hidden_features: Matrix,
    /// The preprocessed data actually fed to the model.
    pub preprocessed: Matrix,
    /// Per-epoch training history.
    pub history: TrainingHistory,
    /// Summary of the self-learning supervision (`None` for the baseline
    /// kinds, which do not build one).
    pub supervision: Option<SupervisionSummary>,
    /// The trained model's parameters — everything needed to re-instantiate
    /// the energy model later (e.g. in a [`crate::PipelineArtifact`]).
    pub model_params: RbmParams,
    /// The preprocessor fitted on the training data, reusable on unseen rows
    /// and embedded into serving artifacts.
    pub preprocessor: FittedPreprocessor,
}

/// Fits the preprocessor on `data` and transforms `data` with it — the one
/// preprocessing path, shared with served artifacts so training-time and
/// serving-time transforms cannot diverge. The transform runs under the
/// pipeline's parallel policy (row-independent, bitwise identical for
/// every policy).
fn preprocess(
    data: &Matrix,
    preprocessing: Preprocessing,
    parallel: &ParallelPolicy,
) -> Result<(FittedPreprocessor, Matrix)> {
    let fitted = FittedPreprocessor::fit(preprocessing, data)?;
    let transformed = fitted.transform_with(data, parallel)?;
    Ok((fitted, transformed))
}

/// The paper's base clusterers (DP, K-means, AP) targeting `k` clusters,
/// each with its distance inner loops routed through the pooled kernels of
/// `parallel` (bitwise identical to serial for every policy).
///
/// Public so out-of-pipeline supervision construction (e.g. the streaming
/// `retrain` path, which fits supervision on a leading sample) uses exactly
/// the clusterer set the in-memory pipelines use.
pub fn base_clusterers(k: usize, parallel: &ParallelPolicy) -> Vec<Box<dyn Clusterer>> {
    vec![
        Box::new(DensityPeaks::new(k).with_parallel(*parallel)),
        Box::new(KMeans::new(k).with_parallel(*parallel)),
        Box::new(
            AffinityPropagation::default()
                .with_target_clusters(k)
                .with_parallel(*parallel),
        ),
    ]
}

/// Runs the pipeline of `kind` on `data` (one row per instance):
/// preprocessing, the consensus supervision (sls kinds only), training of
/// the energy model with `kind`'s visible layer, and hidden-feature
/// extraction, all under the process-wide [`ParallelPolicy::global`]. The
/// baseline kinds ignore the `sls` and `voting` fields of `config`.
///
/// # Errors
///
/// Returns [`RbmError::InvalidConfig`](crate::RbmError::InvalidConfig) if
/// `config.n_hidden` is zero; propagates preprocessing, clustering,
/// supervision and training errors.
pub fn run_pipeline(
    kind: ModelKind,
    config: &SlsPipelineConfig,
    data: &Matrix,
    rng: &mut impl Rng,
) -> Result<PipelineOutcome> {
    RbmParams::check_hidden_units(config.n_hidden)?;
    let parallel = &ParallelPolicy::global();
    let trainer = CdTrainer::new(config.train)?.with_parallel(*parallel);
    let (preprocessor, preprocessed) = preprocess(data, config.preprocessing, parallel)?;
    let supervision = if kind.is_sls() {
        let clusterers = base_clusterers(config.n_clusters, parallel);
        Some(
            LocalSupervisionBuilder::new(config.n_clusters)
                .with_policy(config.voting)
                .with_parallel(*parallel)
                .build_with_clusterers(&clusterers, &preprocessed, rng)?,
        )
    } else {
        None
    };
    let mut model = Rbm::new(
        kind.visible_kind(),
        preprocessed.cols(),
        config.n_hidden,
        rng,
    );
    let history = trainer.train(
        &mut model,
        &preprocessed,
        supervision.as_ref().map(|s| (s, &config.sls)),
        rng,
    )?;
    let model_params = model.params().clone();
    Ok(PipelineOutcome {
        hidden_features: model_params.hidden_probabilities_with(&preprocessed, parallel)?,
        preprocessed,
        history,
        supervision: supervision.as_ref().map(|s| s.summary()),
        model_params,
        preprocessor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_datasets::SyntheticBlobs;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(808)
    }

    fn dataset() -> sls_datasets::Dataset {
        SyntheticBlobs::new(60, 6, 3)
            .separation(6.0)
            .generate(&mut rng())
    }

    #[test]
    fn config_builders_override_fields() {
        let c = SlsPipelineConfig::quick_demo()
            .with_hidden(5)
            .with_clusters(4)
            .with_voting(VotingPolicy::Majority)
            .with_preprocessing(Preprocessing::None)
            .with_train(TrainConfig::quick().with_epochs(1))
            .with_sls(SlsConfig::new(0.9));
        assert_eq!(c.n_hidden, 5);
        assert_eq!(c.n_clusters, 4);
        assert_eq!(c.voting, VotingPolicy::Majority);
        assert_eq!(c.preprocessing, Preprocessing::None);
        assert_eq!(c.train.epochs, 1);
        assert_eq!(c.sls.eta, 0.9);
    }

    #[test]
    fn config_serialises_exactly_its_six_fields_in_order() {
        // Artifacts embed this config, so its keys and their order are part
        // of the artifact bytes; no execution policy is among them.
        let value = serde::Serialize::to_value(&SlsPipelineConfig::quick_demo());
        let serde::Value::Object(entries) = &value else {
            panic!("config serialises to an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "n_hidden",
                "n_clusters",
                "train",
                "sls",
                "voting",
                "preprocessing"
            ]
        );
        let back = <SlsPipelineConfig as serde::Deserialize>::from_value(&value).unwrap();
        assert_eq!(back, SlsPipelineConfig::quick_demo());
    }

    /// Runs `run_pipeline` on `ds` with `policy` installed as the
    /// process-wide policy, restoring the previous one afterwards.
    fn pipeline_under(policy: ParallelPolicy, ds: &sls_datasets::Dataset) -> PipelineOutcome {
        let before = ParallelPolicy::global();
        ParallelPolicy::set_global(policy);
        let outcome = run_pipeline(
            ModelKind::SlsGrbm,
            &SlsPipelineConfig::quick_demo(),
            ds.features(),
            &mut rng(),
        );
        ParallelPolicy::set_global(before);
        outcome.unwrap()
    }

    #[test]
    fn parallel_pipeline_reproduces_serial_pipeline_bitwise() {
        // End-to-end reproducibility: the full pipeline (supervision
        // construction, sls training, feature extraction) must give the same
        // bits regardless of the thread count.
        let ds = dataset();
        let serial = pipeline_under(ParallelPolicy::serial(), &ds);
        let parallel = pipeline_under(ParallelPolicy::eager(4), &ds);
        assert_eq!(
            serial.hidden_features.as_slice(),
            parallel.hidden_features.as_slice()
        );
        assert_eq!(serial.model_params, parallel.model_params);
    }

    #[test]
    fn paper_configs_use_paper_hyperparameters() {
        let g = SlsPipelineConfig::paper_grbm(3);
        assert_eq!(g.train.learning_rate, 1e-4);
        assert_eq!(g.sls.eta, 0.4);
        assert_eq!(g.preprocessing, Preprocessing::Standardize);
        let r = SlsPipelineConfig::paper_rbm(2);
        assert_eq!(r.train.learning_rate, 1e-5);
        assert_eq!(r.sls.eta, 0.5);
        assert_eq!(r.preprocessing, Preprocessing::BinarizeMedian);
    }

    #[test]
    fn sls_grbm_pipeline_produces_features_and_supervision() {
        let ds = dataset();
        let outcome = run_pipeline(
            ModelKind::SlsGrbm,
            &SlsPipelineConfig::quick_demo(),
            ds.features(),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(outcome.hidden_features.rows(), 60);
        assert_eq!(outcome.hidden_features.cols(), 12);
        assert!(outcome.supervision.is_some());
        assert!(outcome.supervision.unwrap().coverage > 0.0);
        assert!(outcome.hidden_features.is_finite());
        assert_eq!(outcome.model_params.n_hidden(), 12);
        assert_eq!(outcome.model_params.n_visible(), 6);
        assert!(outcome.model_params.is_finite());
        assert_eq!(outcome.preprocessor.kind(), Preprocessing::Standardize);
    }

    #[test]
    fn sls_rbm_pipeline_binarizes_and_runs() {
        let ds = dataset();
        let config =
            SlsPipelineConfig::quick_demo().with_preprocessing(Preprocessing::BinarizeMedian);
        let outcome = run_pipeline(ModelKind::SlsRbm, &config, ds.features(), &mut rng()).unwrap();
        // Preprocessed data must be binary.
        assert!(outcome
            .preprocessed
            .as_slice()
            .iter()
            .all(|&x| x == 0.0 || x == 1.0));
        assert_eq!(outcome.hidden_features.rows(), 60);
        // The fitted preprocessor reproduces exactly what the pipeline fed
        // the model — the invariant serving relies on.
        assert_eq!(outcome.preprocessor.kind(), Preprocessing::BinarizeMedian);
        assert_eq!(
            outcome.preprocessor.transform(ds.features()).unwrap(),
            outcome.preprocessed
        );
    }

    #[test]
    fn baseline_pipelines_have_no_supervision() {
        let ds = dataset();
        let outcome = run_pipeline(
            ModelKind::Grbm,
            &SlsPipelineConfig::quick_demo(),
            ds.features(),
            &mut rng(),
        )
        .unwrap();
        assert!(outcome.supervision.is_none());
        let config =
            SlsPipelineConfig::quick_demo().with_preprocessing(Preprocessing::BinarizeMedian);
        let outcome = run_pipeline(ModelKind::Rbm, &config, ds.features(), &mut rng()).unwrap();
        assert!(outcome.supervision.is_none());
        assert_eq!(outcome.hidden_features.rows(), 60);
    }

    #[test]
    fn pipeline_with_invalid_train_config_errors() {
        let ds = dataset();
        let config =
            SlsPipelineConfig::quick_demo().with_train(TrainConfig::quick().with_epochs(0));
        assert!(run_pipeline(ModelKind::SlsGrbm, &config, ds.features(), &mut rng()).is_err());
        assert!(run_pipeline(ModelKind::Grbm, &config, ds.features(), &mut rng()).is_err());
    }
}
