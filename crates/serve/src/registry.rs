//! The model registry: named, loaded artifacts shared across server worker
//! threads.
//!
//! Each entry is a [`ServingModel`]: an artifact's preprocessor, cluster
//! head and metadata, plus its weights either at full `f64` precision or
//! quantized to `f32` ([`CompactParams`]). The representation is chosen per
//! registry load (`--compact 0|1`), so a node that holds many models can
//! halve its parameter footprint without the request handlers caring which
//! representation answers.
//!
//! A registry is immutable once built; worker threads share it behind a plain
//! `Arc` with no locking on the request hot path. Hot swaps replace the whole
//! registry atomically via [`crate::LiveRegistry`].

use crate::{Result, ServeError};
use sls_linalg::{Matrix, ParallelPolicy};
use sls_rbm_core::{
    ClusterHead, CompactParams, FittedPreprocessor, ModelKind, PipelineArtifact, RbmError,
    RbmParams,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One loaded model in either weight representation.
///
/// The preprocessor, cluster head and metadata are held once; only the
/// upward pass differs between full-precision and compact weights, so both
/// serve through identical code paths. Preprocessing statistics and
/// centroids stay `f64` — a few vectors, not an `n_visible × n_hidden`
/// matrix, so quantizing them would save little and widen the error bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingModel {
    schema_version: u32,
    model_kind: ModelKind,
    weights: Weights,
    preprocessor: FittedPreprocessor,
    cluster_head: Option<ClusterHead>,
    trained_at: Option<String>,
    source: Option<String>,
}

/// The upward-pass parameters in the representation the registry loaded.
#[derive(Debug, Clone, PartialEq)]
enum Weights {
    /// Full-precision f64 parameters, exactly as exported.
    Full(RbmParams),
    /// f32-quantized parameters with error-bounded f64 arithmetic.
    Compact(CompactParams),
}

impl ServingModel {
    /// Takes `artifact` into the weight representation selected by
    /// `compact`.
    pub fn from_artifact(artifact: PipelineArtifact, compact: bool) -> Self {
        let weights = if compact {
            Weights::Compact(CompactParams::from_params(&artifact.params))
        } else {
            Weights::Full(artifact.params)
        };
        Self {
            schema_version: artifact.schema_version,
            model_kind: artifact.model_kind,
            weights,
            preprocessor: artifact.preprocessor,
            cluster_head: artifact.cluster_head,
            trained_at: artifact.trained_at,
            source: artifact.source,
        }
    }

    /// `true` for the f32-quantized representation.
    pub fn is_compact(&self) -> bool {
        matches!(self.weights, Weights::Compact(_))
    }

    /// Artifact schema version this model was loaded from.
    pub fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// Model kind label (`"rbm"`, `"sls-grbm"`, ...).
    pub fn model_kind(&self) -> &'static str {
        self.model_kind.as_str()
    }

    /// Number of visible units (request row width).
    pub fn n_visible(&self) -> usize {
        match &self.weights {
            Weights::Full(params) => params.n_visible(),
            Weights::Compact(params) => params.n_visible(),
        }
    }

    /// Number of hidden units (feature row width).
    pub fn n_hidden(&self) -> usize {
        match &self.weights {
            Weights::Full(params) => params.n_hidden(),
            Weights::Compact(params) => params.n_hidden(),
        }
    }

    /// Number of clusters in the fitted head, if one is present.
    pub fn n_clusters(&self) -> Option<usize> {
        self.cluster_head.as_ref().map(|head| head.n_clusters)
    }

    /// `true` when the artifact carries a cluster head (can serve `/assign`).
    pub fn has_cluster_head(&self) -> bool {
        self.cluster_head.is_some()
    }

    /// Bytes held by the model parameters (weights + biases) in this
    /// representation.
    pub fn param_bytes(&self) -> usize {
        match &self.weights {
            Weights::Full(params) => params.param_bytes(),
            Weights::Compact(params) => params.param_bytes(),
        }
    }

    /// Training timestamp recorded at export time, if any.
    pub fn trained_at(&self) -> Option<&str> {
        self.trained_at.as_deref()
    }

    /// Provenance string recorded at export time, if any.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Preprocesses `rows` and computes hidden features. Full weights answer
    /// exactly as [`PipelineArtifact::features_with`]; compact weights stay
    /// within `1e-6 · (1 + |full|)` of it per element. Both are bitwise
    /// identical across parallel policies.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `rows` does not match the visible layer.
    pub fn features_with(
        &self,
        rows: &Matrix,
        parallel: &ParallelPolicy,
    ) -> sls_rbm_core::Result<Matrix> {
        let pre = self.preprocessor.transform_with(rows, parallel)?;
        match &self.weights {
            Weights::Full(params) => params.hidden_probabilities_with(&pre, parallel),
            Weights::Compact(params) => params.hidden_features_with(&pre, parallel),
        }
    }

    /// Preprocesses `rows` and assigns each to its nearest centroid.
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::MissingArtifactPart`] without a cluster head, and
    /// shape errors if `rows` does not match the visible layer.
    pub fn assign_with(
        &self,
        rows: &Matrix,
        parallel: &ParallelPolicy,
    ) -> sls_rbm_core::Result<Vec<usize>> {
        let head = self
            .cluster_head
            .as_ref()
            .ok_or(RbmError::MissingArtifactPart {
                part: "cluster head",
            })?;
        head.assign(&self.features_with(rows, parallel)?)
    }
}

/// Maps model names to loaded serving models.
#[derive(Debug, Default, Clone)]
pub struct ModelRegistry {
    models: BTreeMap<String, Arc<ServingModel>>,
}

/// Lists the `*.json` artifact files under `dir` as `(model name, path)`
/// pairs in name order.
///
/// # Errors
///
/// Returns I/O errors and [`ServeError::InvalidArtifactName`] when a file
/// stem is not valid UTF-8 — such a file can never be addressed by a request
/// path, so skipping it silently would hide a deployment mistake.
pub(crate) fn artifact_files(dir: &Path) -> Result<Vec<(String, PathBuf)>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<std::result::Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|path| {
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                return Err(ServeError::InvalidArtifactName {
                    path: path.display().to_string(),
                });
            };
            Ok((name.to_string(), path))
        })
        .collect()
}

/// Loads one artifact file into the representation selected by `compact`.
pub(crate) fn load_artifact(path: &Path, compact: bool) -> Result<ServingModel> {
    Ok(ServingModel::from_artifact(
        PipelineArtifact::load(path)?,
        compact,
    ))
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `artifact` at full precision under `name`, replacing any
    /// previous entry.
    pub fn insert(&mut self, name: impl Into<String>, artifact: PipelineArtifact) {
        self.insert_model(name, ServingModel::from_artifact(artifact, false));
    }

    /// Registers an already-built [`ServingModel`] under `name`.
    pub fn insert_model(&mut self, name: impl Into<String>, model: ServingModel) {
        self.models.insert(name.into(), Arc::new(model));
    }

    /// Loads every `*.json` artifact in `dir` at full precision; each model
    /// is named after its file stem (`quick_demo.json` serves as
    /// `quick_demo`).
    ///
    /// # Errors
    ///
    /// Returns I/O errors, artifact parse errors (a corrupt file fails the
    /// whole load rather than being skipped silently),
    /// [`ServeError::InvalidArtifactName`] for non-UTF-8 file stems and
    /// [`ServeError::EmptyRegistry`] if no artifact was found.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Self> {
        Self::load_dir_with(dir, false)
    }

    /// [`Self::load_dir`], loading into the representation selected by
    /// `compact`.
    pub fn load_dir_with(dir: impl AsRef<Path>, compact: bool) -> Result<Self> {
        let dir = dir.as_ref();
        let mut registry = Self::new();
        for (name, path) in artifact_files(dir)? {
            registry.insert_model(name, load_artifact(&path, compact)?);
        }
        if registry.is_empty() {
            return Err(ServeError::EmptyRegistry {
                dir: dir.display().to_string(),
            });
        }
        Ok(registry)
    }

    /// Looks up a model by name.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] if the name is not registered.
    pub fn get(&self, name: &str) -> Result<Arc<ServingModel>> {
        self.models
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel {
                name: name.to_string(),
            })
    }

    /// Iterates over `(name, model)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<ServingModel>)> {
        self.models.iter().map(|(n, a)| (n.as_str(), a))
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` when no model is registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_datasets::{Dataset, SyntheticBlobs};
    use sls_rbm_core::SlsPipelineConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn artifact() -> PipelineArtifact {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        PipelineArtifact::from_params(RbmParams::init(4, 2, &mut rng), ModelKind::Rbm)
    }

    /// A trained 5 → 12 sls-GRBM with a 3-cluster head, plus its training
    /// data.
    fn fitted() -> (PipelineArtifact, Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(606);
        let ds = SyntheticBlobs::new(45, 5, 3)
            .separation(6.0)
            .generate(&mut rng);
        let artifact = PipelineArtifact::fit(
            ModelKind::SlsGrbm,
            SlsPipelineConfig::quick_demo(),
            ds.features(),
            &mut rng,
        )
        .unwrap()
        .artifact;
        (artifact, ds)
    }

    fn request_rows() -> Matrix {
        Matrix::from_fn(48, 5, |i, j| (i as f64) * 0.11 - (j as f64) * 0.7)
    }

    /// A fresh per-test directory: pid plus a process-wide counter, so
    /// concurrent test binaries (and concurrent tests in one binary) never
    /// collide on a shared fixed path.
    fn unique_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sls_serve_registry_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn insert_get_and_iterate() {
        let mut r = ModelRegistry::new();
        assert!(r.is_empty());
        r.insert("b", artifact());
        r.insert("a", artifact());
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("a").unwrap().n_visible(), 4);
        assert!(matches!(
            r.get("missing"),
            Err(ServeError::UnknownModel { .. })
        ));
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn load_dir_reads_json_files_and_names_by_stem() {
        let dir = unique_dir("load");
        artifact().save(dir.join("first.json")).unwrap();
        artifact().save(dir.join("second.json")).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let r = ModelRegistry::load_dir(&dir).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.get("first").is_ok());
        assert!(!r.get("second").unwrap().is_compact());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_without_artifacts_errors() {
        let dir = unique_dir("empty");
        assert!(matches!(
            ModelRegistry::load_dir(&dir),
            Err(ServeError::EmptyRegistry { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
        assert!(ModelRegistry::load_dir("/nonexistent/artifacts").is_err());
    }

    #[test]
    fn load_dir_fails_on_corrupt_artifact() {
        let dir = unique_dir("corrupt");
        std::fs::write(dir.join("bad.json"), "{ not json }").unwrap();
        assert!(ModelRegistry::load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn load_dir_rejects_non_utf8_artifact_names() {
        use std::os::unix::ffi::OsStrExt;
        let dir = unique_dir("nonutf8");
        artifact().save(dir.join("good.json")).unwrap();
        let bad = dir.join(std::ffi::OsStr::from_bytes(b"bad\xFFname.json"));
        std::fs::write(&bad, "{}").unwrap();
        assert!(matches!(
            ModelRegistry::load_dir(&dir),
            Err(ServeError::InvalidArtifactName { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_load_halves_params_and_stays_close() {
        let dir = unique_dir("compact");
        artifact().save(dir.join("m.json")).unwrap();
        let full = ModelRegistry::load_dir_with(&dir, false).unwrap();
        let compact = ModelRegistry::load_dir_with(&dir, true).unwrap();
        let full = full.get("m").unwrap();
        let compact = compact.get("m").unwrap();
        assert!(compact.is_compact());
        assert!(compact.param_bytes() * 2 <= full.param_bytes());
        assert_eq!(
            compact.param_bytes(),
            (4 * 2 + 2) * std::mem::size_of::<f32>()
        );
        let rows = Matrix::from_rows(&[vec![0.2, -0.4, 0.8, 0.1]]).unwrap();
        let policy = ParallelPolicy::serial();
        let f = full.features_with(&rows, &policy).unwrap();
        let c = compact.features_with(&rows, &policy).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(c.as_slice()) {
            assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serving_model_delegates_metadata() {
        let full = ServingModel::from_artifact(
            artifact().with_provenance(Some("2026-01-01T00:00:00Z".into()), Some("test".into())),
            false,
        );
        let compact = ServingModel::from_artifact(
            artifact().with_provenance(Some("2026-01-01T00:00:00Z".into()), Some("test".into())),
            true,
        );
        for model in [&full, &compact] {
            assert_eq!(model.n_visible(), 4);
            assert_eq!(model.n_hidden(), 2);
            assert_eq!(model.model_kind(), "rbm");
            assert_eq!(model.n_clusters(), None);
            assert!(!model.has_cluster_head());
            assert_eq!(model.trained_at(), Some("2026-01-01T00:00:00Z"));
            assert_eq!(model.source(), Some("test"));
        }
        assert!(!full.is_compact());
        assert!(compact.is_compact());
        let rows = Matrix::from_rows(&[vec![1.0, 0.0, 1.0, 0.0]]).unwrap();
        assert!(matches!(
            full.assign_with(&rows, &ParallelPolicy::serial()),
            Err(sls_rbm_core::RbmError::MissingArtifactPart { .. })
        ));

        // A trained artifact's schema, kind and cluster head carry over too.
        let (artifact, _) = fitted();
        for compact in [false, true] {
            let model = ServingModel::from_artifact(artifact.clone(), compact);
            assert_eq!(model.schema_version(), artifact.schema_version);
            assert_eq!(model.model_kind(), "sls-grbm");
            assert_eq!((model.n_visible(), model.n_hidden()), (5, 12));
            assert_eq!(model.n_clusters(), Some(3));
            assert!(model.has_cluster_head());
        }
    }

    #[test]
    fn compact_model_is_bitwise_identical_across_policies() {
        let compact = ServingModel::from_artifact(fitted().0, true);
        let rows = request_rows();
        let serial = compact
            .features_with(&rows, &ParallelPolicy::serial())
            .unwrap();
        let serial_assign = compact
            .assign_with(&rows, &ParallelPolicy::serial())
            .unwrap();
        for threads in [2, 4] {
            let policy = ParallelPolicy::eager(threads);
            let par = compact.features_with(&rows, &policy).unwrap();
            let same = serial
                .as_slice()
                .iter()
                .zip(par.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads = {threads}");
            assert_eq!(
                compact.assign_with(&rows, &policy).unwrap(),
                serial_assign,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn full_model_answers_exactly_as_the_artifact() {
        let (artifact, _) = fitted();
        let full = ServingModel::from_artifact(artifact.clone(), false);
        let rows = request_rows();
        let policy = ParallelPolicy::serial();
        assert_eq!(
            full.features_with(&rows, &policy).unwrap(),
            artifact.features_with(&rows, &policy).unwrap()
        );
        assert_eq!(
            full.assign_with(&rows, &policy).unwrap(),
            artifact.assign_with(&rows, &policy).unwrap()
        );
    }

    #[test]
    fn assignments_agree_with_the_full_path_on_separated_data() {
        let (artifact, ds) = fitted();
        let policy = ParallelPolicy::serial();
        assert_eq!(
            ServingModel::from_artifact(artifact.clone(), true)
                .assign_with(ds.features(), &policy)
                .unwrap(),
            artifact.assign_with(ds.features(), &policy).unwrap()
        );
    }

    #[test]
    fn shape_errors_and_missing_heads_mirror_the_full_path() {
        let policy = ParallelPolicy::serial();
        let wide = Matrix::zeros(2, 9);
        let (trained, _) = fitted();
        for compact in [false, true] {
            let model = ServingModel::from_artifact(trained.clone(), compact);
            assert!(matches!(
                model.features_with(&wide, &policy),
                Err(RbmError::Linalg(_) | RbmError::VisibleSizeMismatch { .. })
            ));
            assert!(model.assign_with(&wide, &policy).is_err());
            // No cluster head: features fine, assign errors.
            let bare = ServingModel::from_artifact(artifact(), compact);
            assert!(bare.features_with(&Matrix::zeros(3, 4), &policy).is_ok());
            assert!(matches!(
                bare.assign_with(&Matrix::zeros(3, 4), &policy),
                Err(RbmError::MissingArtifactPart { .. })
            ));
        }
    }
}
