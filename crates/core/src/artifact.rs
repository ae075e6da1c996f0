//! Versioned pipeline artifacts: everything needed to *serve* a trained
//! pipeline, not just its raw parameters.
//!
//! Bare [`RbmParams`] cannot answer an inference request on their own: the
//! preprocessing statistics fitted on the training data, the model kind and
//! the fitted clustering head are all required to map a raw feature row to
//! a hidden feature vector or a cluster assignment. [`PipelineArtifact`]
//! bundles all of them behind a schema-versioned JSON file:
//!
//! * `schema_version` — integer, bumped on any breaking layout change; a
//!   build reads every version up to its own, and refuses a *newer* one and
//!   a file without the field.
//! * `model_kind` — which of the paper's four models produced the weights.
//! * `params` — the trained [`RbmParams`].
//! * `preprocessor` — the *fitted* preprocessing statistics
//!   ([`FittedPreprocessor`]), so unseen rows are transformed with the
//!   training-time column means / medians rather than their own.
//! * `cluster_head` — the fitted downstream clusterer ([`ClusterHead`]):
//!   centroids in hidden-feature space plus the clusterer configuration.
//! * `train_config` — provenance: the [`SlsPipelineConfig`] used at training
//!   time (`None` for artifacts wrapped around bare parameters by
//!   [`PipelineArtifact::from_params`]).
//!
//! The inference path is deliberately batched: [`PipelineArtifact::features`]
//! pushes *all* rows of a request through one matrix multiply instead of N
//! vector products, so a serving layer gets the linalg crate's blocked
//! matmul for free.

use crate::pipeline::{run_pipeline, PipelineOutcome, Preprocessing, SlsPipelineConfig};
use crate::{RbmError, RbmParams, Result, VisibleKind};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sls_clustering::KMeans;
use sls_datasets::MedianBinarizer;
use sls_linalg::{LinalgError, Matrix, ParallelPolicy, Standardizer};
use std::path::Path;

/// Newest artifact schema version this build reads and writes.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// Which of the paper's four energy models produced an artifact's weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Baseline binary RBM (plain CD).
    Rbm,
    /// Baseline Gaussian-visible GRBM (plain CD).
    Grbm,
    /// Self-learning local supervision RBM.
    SlsRbm,
    /// Self-learning local supervision GRBM.
    SlsGrbm,
}

impl ModelKind {
    /// Stable lower-case name, used in CLI arguments and API responses.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::Rbm => "rbm",
            ModelKind::Grbm => "grbm",
            ModelKind::SlsRbm => "sls-rbm",
            ModelKind::SlsGrbm => "sls-grbm",
        }
    }

    /// Parses the name produced by [`ModelKind::as_str`].
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "rbm" => Some(ModelKind::Rbm),
            "grbm" => Some(ModelKind::Grbm),
            "sls-rbm" => Some(ModelKind::SlsRbm),
            "sls-grbm" => Some(ModelKind::SlsGrbm),
            _ => None,
        }
    }

    /// The visible-layer kind of this model.
    pub fn visible_kind(self) -> VisibleKind {
        match self {
            ModelKind::Rbm | ModelKind::SlsRbm => VisibleKind::Binary,
            ModelKind::Grbm | ModelKind::SlsGrbm => VisibleKind::Gaussian,
        }
    }

    /// `true` for the models trained with the sls objective.
    pub fn is_sls(self) -> bool {
        matches!(self, ModelKind::SlsRbm | ModelKind::SlsGrbm)
    }
}

/// Fitted preprocessing statistics, applied to unseen rows at inference time.
///
/// The variants mirror [`Preprocessing`], but carry the statistics captured
/// on the *training* data instead of re-deriving them per request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FittedPreprocessor {
    /// Column standardisation with the training-time means and deviations.
    Standardize(Standardizer),
    /// Median binarisation with the training-time column thresholds.
    BinarizeMedian(MedianBinarizer),
    /// Pass rows through unchanged.
    Identity,
}

impl FittedPreprocessor {
    /// Fits the preprocessor matching `preprocessing` on `data`.
    ///
    /// # Errors
    ///
    /// Returns an error if `data` is empty and the step needs statistics.
    pub fn fit(preprocessing: Preprocessing, data: &Matrix) -> Result<Self> {
        Ok(match preprocessing {
            Preprocessing::Standardize => FittedPreprocessor::Standardize(Standardizer::fit(data)?),
            Preprocessing::BinarizeMedian => {
                FittedPreprocessor::BinarizeMedian(MedianBinarizer::fit(data))
            }
            Preprocessing::None => FittedPreprocessor::Identity,
        })
    }

    /// `true` if every fitted statistic is finite.
    fn is_finite(&self) -> bool {
        match self {
            FittedPreprocessor::Standardize(s) => {
                let stats = s.stats();
                stats.means.iter().chain(&stats.stds).all(|x| x.is_finite())
            }
            FittedPreprocessor::BinarizeMedian(b) => b.thresholds().iter().all(|x| x.is_finite()),
            FittedPreprocessor::Identity => true,
        }
    }

    /// The corresponding (unfitted) [`Preprocessing`] step.
    pub fn kind(&self) -> Preprocessing {
        match self {
            FittedPreprocessor::Standardize(_) => Preprocessing::Standardize,
            FittedPreprocessor::BinarizeMedian(_) => Preprocessing::BinarizeMedian,
            FittedPreprocessor::Identity => Preprocessing::None,
        }
    }

    /// Applies the fitted transformation to `rows` under the process-wide
    /// [`ParallelPolicy::global`]; see [`FittedPreprocessor::transform_with`]
    /// for an explicit policy.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `rows` has a different column count than the
    /// data the preprocessor was fitted on.
    pub fn transform(&self, rows: &Matrix) -> Result<Matrix> {
        self.transform_with(rows, &ParallelPolicy::global())
    }

    /// [`FittedPreprocessor::transform`] under an explicit parallel
    /// execution policy: rows transform independently (row-wise map in the
    /// linalg layer), so results are bitwise identical for every policy.
    /// This puts the serving path's preprocessing on the same worker pool
    /// as its matmul instead of leaving it the only serial stage.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `rows` has a different column count than the
    /// data the preprocessor was fitted on.
    pub fn transform_with(&self, rows: &Matrix, parallel: &ParallelPolicy) -> Result<Matrix> {
        match self {
            FittedPreprocessor::Standardize(s) => Ok(s.transform_with(rows, parallel)?),
            FittedPreprocessor::BinarizeMedian(b) => {
                b.transform_with(rows, parallel)
                    .map_err(|e| RbmError::InvalidConfig {
                        name: "preprocessing",
                        message: e.to_string(),
                    })
            }
            FittedPreprocessor::Identity => Ok(rows.clone()),
        }
    }
}

/// The fitted downstream clusterer: centroids in hidden-feature space.
///
/// Serving assigns a row to its nearest centroid, which reproduces the final
/// assignment step of the k-means run that produced the centroids (both use
/// first-wins tie-breaking over the same centre order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterHead {
    /// Name of the algorithm that produced the centroids.
    pub algorithm: String,
    /// Number of clusters the algorithm targeted.
    pub n_clusters: usize,
    /// Cluster centroids, one row per cluster, in hidden-feature space.
    pub centroids: Matrix,
}

impl ClusterHead {
    /// Runs k-means on `features` and captures the resulting centroids.
    ///
    /// Returns the head together with the training-time labels so callers
    /// can report or verify the in-process assignment.
    ///
    /// # Errors
    ///
    /// Propagates k-means errors (empty data, too many clusters, ...).
    pub fn fit_kmeans(
        features: &Matrix,
        n_clusters: usize,
        rng: &mut impl Rng,
    ) -> Result<(Self, Vec<usize>)> {
        let outcome = KMeans::new(n_clusters).fit(features, rng)?;
        let labels = outcome.assignment.labels().to_vec();
        let head = Self {
            algorithm: outcome.assignment.algorithm().to_string(),
            n_clusters,
            centroids: outcome.assignment.centers().clone(),
        };
        Ok((head, labels))
    }

    /// Assigns every row of `features` to its nearest centroid.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the feature width differs from the centroid
    /// width, or [`RbmError::MissingArtifactPart`] if there are no centroids.
    pub fn assign(&self, features: &Matrix) -> Result<Vec<usize>> {
        if features.cols() != self.centroids.cols() {
            return Err(RbmError::Linalg(LinalgError::ShapeMismatch {
                op: "ClusterHead::assign",
                left: features.shape(),
                right: (1, self.centroids.cols()),
            }));
        }
        features
            .row_iter()
            .map(|row| {
                self.centroids
                    .nearest_row(row)
                    .ok_or(RbmError::MissingArtifactPart {
                        part: "cluster centroids",
                    })
            })
            .collect()
    }
}

/// A trained pipeline packaged for persistence and serving.
///
/// Saved as schema-versioned JSON: a build reads every `schema_version` up
/// to [`ARTIFACT_SCHEMA_VERSION`] and refuses a newer one or a file without
/// the field.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineArtifact {
    /// Schema version the artifact was written with.
    pub schema_version: u32,
    /// Which model produced the weights.
    pub model_kind: ModelKind,
    /// Trained energy-model parameters.
    pub params: RbmParams,
    /// Fitted preprocessing statistics.
    pub preprocessor: FittedPreprocessor,
    /// Fitted downstream clusterer (`None` if the artifact only extracts
    /// features).
    pub cluster_head: Option<ClusterHead>,
    /// The configuration the pipeline was trained with (`None` for artifacts
    /// built by [`PipelineArtifact::from_params`]).
    pub train_config: Option<SlsPipelineConfig>,
    /// When the pipeline was trained (free-form timestamp set by the
    /// exporter, e.g. `2026-08-07T12:00:00Z`). Optional and additive:
    /// pre-provenance artifacts deserialise to `None`, unset provenance is
    /// not written at all, and the schema version is unchanged.
    pub trained_at: Option<String>,
    /// Where the artifact came from (exporter command line, training job
    /// id, dataset tag, ...). Same compatibility rules as `trained_at`.
    pub source: Option<String>,
}

// Hand-written (de)serialisation instead of the derive: the vendored derive
// requires every field to be present, but `trained_at` / `source` are
// additive — pre-provenance artifacts must keep loading, and unset
// provenance must not be written (so artifacts from builds that never set
// it stay byte-identical to what those builds produced).
impl Serialize for PipelineArtifact {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("model_kind".to_string(), self.model_kind.to_value()),
            ("params".to_string(), self.params.to_value()),
            ("preprocessor".to_string(), self.preprocessor.to_value()),
            ("cluster_head".to_string(), self.cluster_head.to_value()),
            ("train_config".to_string(), self.train_config.to_value()),
        ];
        if self.trained_at.is_some() {
            entries.push(("trained_at".to_string(), self.trained_at.to_value()));
        }
        if self.source.is_some() {
            entries.push(("source".to_string(), self.source.to_value()));
        }
        serde::Value::Object(entries)
    }
}

impl Deserialize for PipelineArtifact {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::DeError::mismatch("object", value))?;
        let optional = |name: &str| -> std::result::Result<Option<String>, serde::DeError> {
            match entries.iter().find(|(key, _)| key == name) {
                Some((_, v)) => Deserialize::from_value(v),
                None => Ok(None),
            }
        };
        Ok(Self {
            schema_version: Deserialize::from_value(serde::field(entries, "schema_version")?)?,
            model_kind: Deserialize::from_value(serde::field(entries, "model_kind")?)?,
            params: Deserialize::from_value(serde::field(entries, "params")?)?,
            preprocessor: Deserialize::from_value(serde::field(entries, "preprocessor")?)?,
            cluster_head: Deserialize::from_value(serde::field(entries, "cluster_head")?)?,
            train_config: Deserialize::from_value(serde::field(entries, "train_config")?)?,
            trained_at: optional("trained_at")?,
            source: optional("source")?,
        })
    }
}

/// Everything [`PipelineArtifact::fit`] produces: the artifact plus the
/// training-time outcome and cluster labels for inspection and verification.
#[derive(Debug, Clone)]
pub struct FittedPipeline {
    /// The packaged artifact.
    pub artifact: PipelineArtifact,
    /// The raw pipeline outcome (features, history, supervision summary).
    pub outcome: PipelineOutcome,
    /// In-process cluster labels of the training rows, from the same k-means
    /// run whose centroids the artifact serves.
    pub assignments: Vec<usize>,
}

impl PipelineArtifact {
    /// Wraps bare parameters in a current-schema artifact with no fitted
    /// preprocessor and no cluster head.
    ///
    /// The kind only affects metadata: hidden-feature extraction is
    /// identical across kinds because the hidden layer is always sigmoid.
    pub fn from_params(params: RbmParams, model_kind: ModelKind) -> Self {
        Self {
            schema_version: ARTIFACT_SCHEMA_VERSION,
            model_kind,
            params,
            preprocessor: FittedPreprocessor::Identity,
            cluster_head: None,
            train_config: None,
            trained_at: None,
            source: None,
        }
    }

    /// Attaches provenance metadata (shown by the serving layer's
    /// `GET /models`): when the artifact was trained and where it came
    /// from. Either may be `None` to leave the field unset.
    pub fn with_provenance(mut self, trained_at: Option<String>, source: Option<String>) -> Self {
        self.trained_at = trained_at;
        self.source = source;
        self
    }

    /// Trains the pipeline selected by `model_kind` on `data` (one row per
    /// instance), fits the preprocessor and a k-means cluster head, and
    /// packages the result.
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::InvalidConfig`] if `config.n_hidden` is zero;
    /// propagates preprocessing, supervision, training and clustering
    /// errors.
    pub fn fit(
        model_kind: ModelKind,
        config: SlsPipelineConfig,
        data: &Matrix,
        rng: &mut impl Rng,
    ) -> Result<FittedPipeline> {
        let outcome = run_pipeline(model_kind, &config, data, rng)?;
        // Reuse the preprocessor the pipeline fitted during training — one
        // preprocessing path, so served transforms are the training-time
        // transforms by construction.
        let preprocessor = outcome.preprocessor.clone();
        let (cluster_head, assignments) =
            ClusterHead::fit_kmeans(&outcome.hidden_features, config.n_clusters, rng)?;
        let artifact = Self {
            schema_version: ARTIFACT_SCHEMA_VERSION,
            model_kind,
            params: outcome.model_params.clone(),
            preprocessor,
            cluster_head: Some(cluster_head),
            train_config: Some(config),
            trained_at: None,
            source: None,
        };
        Ok(FittedPipeline {
            artifact,
            outcome,
            assignments,
        })
    }

    /// Number of visible units (raw feature columns the artifact expects).
    pub fn n_visible(&self) -> usize {
        self.params.n_visible()
    }

    /// Number of hidden units (feature columns the artifact produces).
    pub fn n_hidden(&self) -> usize {
        self.params.n_hidden()
    }

    /// Hidden-feature extraction for a batch of raw rows: fitted
    /// preprocessing followed by `sigmoid(v W + b)`.
    ///
    /// All rows go through one matrix multiply, so serving a request with
    /// hundreds of rows costs one blocked matmul rather than N vector
    /// products. Runs under the process-wide
    /// [`sls_linalg::ParallelPolicy::global`]; servers with a configured
    /// policy use [`Self::features_with`].
    ///
    /// # Errors
    ///
    /// Returns shape errors if `rows` does not match the visible layer.
    pub fn features(&self, rows: &Matrix) -> Result<Matrix> {
        self.features_with(rows, &ParallelPolicy::global())
    }

    /// [`Self::features`] under an explicit parallel execution policy — the
    /// serving hot path. Results are bitwise identical for
    /// every policy.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `rows` does not match the visible layer.
    pub fn features_with(&self, rows: &Matrix, parallel: &ParallelPolicy) -> Result<Matrix> {
        let pre = self.preprocessor.transform_with(rows, parallel)?;
        self.params.hidden_probabilities_with(&pre, parallel)
    }

    /// Cluster assignment for a batch of raw rows: [`Self::features`]
    /// followed by nearest-centroid lookup in the cluster head.
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::MissingArtifactPart`] if the artifact has no
    /// cluster head, and shape errors if `rows` does not match the visible
    /// layer.
    pub fn assign(&self, rows: &Matrix) -> Result<Vec<usize>> {
        self.assign_with(rows, &ParallelPolicy::global())
    }

    /// [`Self::assign`] under an explicit parallel execution policy.
    ///
    /// # Errors
    ///
    /// Same as [`Self::assign`].
    pub fn assign_with(&self, rows: &Matrix, parallel: &ParallelPolicy) -> Result<Vec<usize>> {
        let head = self
            .cluster_head
            .as_ref()
            .ok_or(RbmError::MissingArtifactPart {
                part: "cluster head",
            })?;
        head.assign(&self.features_with(rows, parallel)?)
    }

    /// Serialises the artifact as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns serialisation errors.
    pub fn to_json_pretty(&self) -> Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses an artifact from JSON text: any schema version up to
    /// [`ARTIFACT_SCHEMA_VERSION`].
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::UnsupportedSchemaVersion`] for artifacts written
    /// by a newer build, a deserialisation error naming `schema_version` for
    /// a file without the field (such as bare [`RbmParams`]),
    /// [`RbmError::InvalidConfig`] if the parameters' bias lengths disagree
    /// with their weight matrix or any parameter, preprocessing statistic or
    /// centroid is not finite, and deserialisation errors for malformed
    /// input.
    pub fn from_json(text: &str) -> Result<Self> {
        /// The version is read first, so a newer schema is refused by
        /// number even when its layout no longer parses (extra fields are
        /// ignored by the facade's derive).
        #[derive(Deserialize)]
        struct SchemaProbe {
            schema_version: u32,
        }

        let probe: SchemaProbe = serde_json::from_str(text)?;
        if probe.schema_version > ARTIFACT_SCHEMA_VERSION {
            return Err(RbmError::UnsupportedSchemaVersion {
                found: probe.schema_version,
                supported: ARTIFACT_SCHEMA_VERSION,
            });
        }
        let artifact = serde_json::from_str::<PipelineArtifact>(text)?;
        // Reject bias/weight shape disagreements and non-finite values here,
        // once, instead of panicking inside a fused activation pass or
        // serving NaN features from the malformed file.
        artifact.params.check_consistent()?;
        let head_finite = artifact
            .cluster_head
            .as_ref()
            .map_or(true, |head| head.centroids.is_finite());
        if !(artifact.preprocessor.is_finite() && head_finite) {
            return Err(RbmError::InvalidConfig {
                name: "artifact",
                message: "preprocessing statistics and centroids must be finite".into(),
            });
        }
        Ok(artifact)
    }

    /// Writes the artifact as JSON, creating parent directories if needed.
    /// The file is replaced atomically (temporary sibling, sync, rename), so
    /// a server watching the directory never loads a half-written artifact.
    ///
    /// # Errors
    ///
    /// Returns I/O or serialisation errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        crate::model_io::write_atomic(path.as_ref(), &self.to_json_pretty()?)
    }

    /// Reads an artifact from a JSON file.
    ///
    /// # Errors
    ///
    /// Same as [`Self::from_json`], plus I/O errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_datasets::SyntheticBlobs;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(606)
    }

    fn fitted() -> FittedPipeline {
        let mut r = rng();
        let ds = SyntheticBlobs::new(45, 5, 3)
            .separation(6.0)
            .generate(&mut r);
        PipelineArtifact::fit(
            ModelKind::SlsGrbm,
            SlsPipelineConfig::quick_demo(),
            ds.features(),
            &mut r,
        )
        .unwrap()
    }

    #[test]
    fn model_kind_names_round_trip() {
        for kind in [
            ModelKind::Rbm,
            ModelKind::Grbm,
            ModelKind::SlsRbm,
            ModelKind::SlsGrbm,
        ] {
            assert_eq!(ModelKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ModelKind::parse("nope"), None);
        assert_eq!(ModelKind::Rbm.visible_kind(), VisibleKind::Binary);
        assert_eq!(ModelKind::SlsGrbm.visible_kind(), VisibleKind::Gaussian);
        assert!(ModelKind::SlsRbm.is_sls());
        assert!(!ModelKind::Grbm.is_sls());
    }

    #[test]
    fn fit_packages_a_complete_servable_artifact() {
        let f = fitted();
        let a = &f.artifact;
        assert_eq!(a.schema_version, ARTIFACT_SCHEMA_VERSION);
        assert_eq!(a.model_kind, ModelKind::SlsGrbm);
        assert_eq!(a.n_visible(), 5);
        assert_eq!(a.n_hidden(), 12);
        assert_eq!(a.preprocessor.kind(), Preprocessing::Standardize);
        let head = a.cluster_head.as_ref().unwrap();
        assert_eq!(head.n_clusters, 3);
        assert_eq!(head.centroids.shape(), (3, 12));
        assert_eq!(a.train_config.unwrap().n_clusters, 3);
        assert_eq!(f.assignments.len(), 45);
    }

    #[test]
    fn fit_rejects_a_model_without_hidden_units() {
        let mut r = rng();
        let ds = SyntheticBlobs::new(45, 5, 3)
            .separation(6.0)
            .generate(&mut r);
        for kind in [ModelKind::Grbm, ModelKind::SlsGrbm] {
            let fitted = PipelineArtifact::fit(
                kind,
                SlsPipelineConfig::quick_demo().with_hidden(0),
                ds.features(),
                &mut r,
            );
            assert!(
                matches!(
                    fitted,
                    Err(RbmError::InvalidConfig {
                        name: "n_hidden",
                        ..
                    })
                ),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn artifact_inference_matches_training_time_pipeline() {
        let mut r = rng();
        let ds = SyntheticBlobs::new(45, 5, 3)
            .separation(6.0)
            .generate(&mut r);
        let f = PipelineArtifact::fit(
            ModelKind::SlsGrbm,
            SlsPipelineConfig::quick_demo(),
            ds.features(),
            &mut r,
        )
        .unwrap();
        // Re-running inference on the raw training rows must reproduce the
        // training-time hidden features and cluster labels exactly: the
        // preprocessor refits to identical statistics and the cluster head
        // repeats k-means' final nearest-centroid assignment.
        let features = f.artifact.features(ds.features()).unwrap();
        assert_eq!(features, f.outcome.hidden_features);
        let assignments = f.artifact.assign(ds.features()).unwrap();
        assert_eq!(assignments, f.assignments);
    }

    #[test]
    fn save_load_round_trip_preserves_everything() {
        let f = fitted();
        let dir = std::env::temp_dir().join("sls_rbm_artifact_round_trip");
        let path = dir.join("nested").join("model.json");
        f.artifact.save(&path).unwrap();
        let back = PipelineArtifact::load(&path).unwrap();
        assert_eq!(back, f.artifact);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_the_file_instead_of_rewriting_it() {
        // A second name for the old file keeps seeing the old bytes only if
        // `save` renames a new file over the path; writing in place would
        // change them under every reader of that inode.
        let dir = std::env::temp_dir().join("sls_rbm_artifact_atomic_save");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("model.json");
        let old = PipelineArtifact::from_params(RbmParams::init(4, 2, &mut rng()), ModelKind::Rbm);
        old.save(&path).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();
        let link = dir.join("model.link");
        std::fs::hard_link(&path, &link).unwrap();

        let new = fitted().artifact;
        new.save(&path).unwrap();
        assert!(
            std::fs::read(&link).unwrap() == old_bytes,
            "save rewrote the old file in place"
        );
        assert_eq!(PipelineArtifact::load(&path).unwrap(), new);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            ["model.json", "model.link"],
            "no temporary file left"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn param_only_snapshot_is_refused_naming_schema_version() {
        // Bare `RbmParams` JSON, the format written before the artifact
        // schema existed, has no `schema_version` and is not an artifact.
        let params = RbmParams::init(6, 3, &mut rng());
        let json = serde_json::to_string_pretty(&params).unwrap();
        let err = PipelineArtifact::from_json(&json).unwrap_err();
        assert!(matches!(err, RbmError::Serde(_)), "{err:?}");
        assert!(
            err.to_string().contains("missing field `schema_version`"),
            "{err}"
        );
    }

    #[test]
    fn mismatched_bias_lengths_are_rejected_at_load() {
        // A malformed artifact whose hidden_bias disagrees with the weight
        // matrix must fail at load, not panic inside the fused activation
        // pass on the first request served from it.
        let mut artifact = fitted().artifact;
        artifact.params.hidden_bias.pop();
        let json = artifact.to_json_pretty().unwrap();
        assert!(matches!(
            PipelineArtifact::from_json(&json),
            Err(RbmError::InvalidConfig { name: "params", .. })
        ));
        // A value that parses to infinity (`1e400`) is rejected as well, in
        // the weights, the preprocessing statistics and the centroids:
        // loaded, it would serve NaN features.
        let poisoned = |edit: &dyn Fn(&mut PipelineArtifact)| {
            let mut artifact = fitted().artifact;
            edit(&mut artifact);
            let json = artifact.to_json_pretty().unwrap();
            assert!(json.contains("12345.5"));
            PipelineArtifact::from_json(&json.replace("12345.5", "1e400"))
        };
        assert!(matches!(
            poisoned(&|a| a.params.weights[(0, 0)] = 12345.5),
            Err(RbmError::InvalidConfig { name: "params", .. })
        ));
        let stats = Standardizer::fit(&Matrix::filled(2, 5, 12345.5)).unwrap();
        assert!(matches!(
            poisoned(&|a| a.preprocessor = FittedPreprocessor::Standardize(stats.clone())),
            Err(RbmError::InvalidConfig {
                name: "artifact",
                ..
            })
        ));
        assert!(matches!(
            poisoned(&|a| a.cluster_head.as_mut().unwrap().centroids[(0, 0)] = 12345.5),
            Err(RbmError::InvalidConfig {
                name: "artifact",
                ..
            })
        ));
    }

    #[test]
    fn provenance_round_trips_and_stays_optional() {
        let plain = fitted().artifact;
        assert_eq!(plain.trained_at, None);
        assert_eq!(plain.source, None);
        // Unset provenance is not serialised at all, so pre-provenance
        // consumers see byte-identical artifacts.
        assert!(!plain.to_json_pretty().unwrap().contains("trained_at"));
        let tagged = plain.clone().with_provenance(
            Some("2026-08-07T00:00:00Z".into()),
            Some("unit test".into()),
        );
        let back = PipelineArtifact::from_json(&tagged.to_json_pretty().unwrap()).unwrap();
        assert_eq!(back, tagged);
        assert_eq!(back.trained_at.as_deref(), Some("2026-08-07T00:00:00Z"));
        assert_eq!(back.source.as_deref(), Some("unit test"));
        // An artifact written before the fields existed still loads.
        let legacy = PipelineArtifact::from_json(&plain.to_json_pretty().unwrap()).unwrap();
        assert_eq!(legacy.trained_at, None);
    }

    #[test]
    fn newer_schema_version_is_rejected() {
        let f = fitted();
        let json = f
            .artifact
            .to_json_pretty()
            .unwrap()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        match PipelineArtifact::from_json(&json) {
            Err(RbmError::UnsupportedSchemaVersion { found, supported }) => {
                assert_eq!(found, 999);
                assert_eq!(supported, ARTIFACT_SCHEMA_VERSION);
            }
            other => panic!("expected UnsupportedSchemaVersion, got {other:?}"),
        }
    }

    #[test]
    fn malformed_json_errors() {
        assert!(matches!(
            PipelineArtifact::from_json("{ not json }"),
            Err(RbmError::Serde(_))
        ));
    }

    #[test]
    fn assign_without_cluster_head_errors() {
        let a = PipelineArtifact::from_params(RbmParams::init(4, 2, &mut rng()), ModelKind::Rbm);
        let rows = Matrix::zeros(3, 4);
        assert!(a.features(&rows).is_ok());
        assert!(matches!(
            a.assign(&rows),
            Err(RbmError::MissingArtifactPart { .. })
        ));
    }

    #[test]
    fn inference_rejects_wrong_width_rows() {
        let f = fitted();
        assert!(f.artifact.features(&Matrix::zeros(2, 9)).is_err());
        assert!(f.artifact.assign(&Matrix::zeros(2, 9)).is_err());
    }

    #[test]
    fn preprocessor_transform_with_matches_serial_for_every_variant() {
        let train = Matrix::from_fn(20, 6, |i, j| (i as f64) * 0.3 - (j as f64) * 1.7);
        let unseen = Matrix::from_fn(33, 6, |i, j| (i as f64) * 0.9 + (j as f64));
        let variants = [
            FittedPreprocessor::fit(Preprocessing::Standardize, &train).unwrap(),
            FittedPreprocessor::fit(Preprocessing::BinarizeMedian, &train).unwrap(),
            FittedPreprocessor::fit(Preprocessing::None, &train).unwrap(),
        ];
        for pre in &variants {
            let serial = pre
                .transform_with(&unseen, &ParallelPolicy::serial())
                .unwrap();
            let policy = ParallelPolicy::eager(4);
            let par = pre.transform_with(&unseen, &policy).unwrap();
            let same = serial
                .as_slice()
                .iter()
                .zip(par.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{:?}", pre.kind());
        }
    }

    #[test]
    fn pooled_inference_is_bitwise_identical_to_serial() {
        let f = fitted();
        let rows = Matrix::from_fn(48, 5, |i, j| (i as f64) * 0.11 - (j as f64) * 0.7);
        let serial = f
            .artifact
            .features_with(&rows, &ParallelPolicy::serial())
            .unwrap();
        let serial_assign = f
            .artifact
            .assign_with(&rows, &ParallelPolicy::serial())
            .unwrap();
        let policy = ParallelPolicy::eager(4);
        let par = f.artifact.features_with(&rows, &policy).unwrap();
        let same = serial
            .as_slice()
            .iter()
            .zip(par.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same);
        assert_eq!(
            f.artifact.assign_with(&rows, &policy).unwrap(),
            serial_assign
        );
    }

    #[test]
    fn cluster_head_assign_is_nearest_centroid() {
        let head = ClusterHead {
            algorithm: "K-means".into(),
            n_clusters: 2,
            centroids: Matrix::from_rows(&[vec![0.0, 0.0], vec![10.0, 10.0]]).unwrap(),
        };
        let features =
            Matrix::from_rows(&[vec![1.0, 1.0], vec![9.0, 9.5], vec![4.9, 5.0]]).unwrap();
        assert_eq!(head.assign(&features).unwrap(), vec![0, 1, 0]);
        assert!(head.assign(&Matrix::zeros(1, 3)).is_err());
    }
}
