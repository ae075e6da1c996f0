//! The model registry: named, loaded artifacts shared across server worker
//! threads.
//!
//! Each entry is a [`PipelineArtifact`] exactly as exported, `f64` weights
//! included: `/features` and `/assign` call its
//! [`PipelineArtifact::features_with`] and
//! [`PipelineArtifact::assign_with`], so a served answer is bit for bit the
//! artifact's own.
//!
//! A registry is immutable once built; worker threads share it behind a plain
//! `Arc` with no locking on the request hot path. Hot swaps replace the whole
//! registry atomically via [`crate::LiveRegistry`].

use crate::{Result, ServeError};
use sls_rbm_core::PipelineArtifact;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The model type a registry entry holds. A plain alias with no state of
/// its own, kept only because the `slsbench` benchmark names it.
pub type ServingModel = PipelineArtifact;

/// Maps model names to loaded artifacts.
#[derive(Debug, Default, Clone)]
pub struct ModelRegistry {
    models: BTreeMap<String, Arc<PipelineArtifact>>,
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

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `artifact` under `name`, replacing any previous entry.
    pub fn insert(&mut self, name: impl Into<String>, artifact: PipelineArtifact) {
        self.models.insert(name.into(), Arc::new(artifact));
    }

    /// Loads every `*.json` artifact in `dir`; each model is named after its
    /// file stem (`quick_demo.json` serves as `quick_demo`).
    ///
    /// # Errors
    ///
    /// Returns I/O errors, artifact parse errors (a corrupt file fails the
    /// whole load rather than being skipped silently),
    /// [`ServeError::InvalidArtifactName`] for non-UTF-8 file stems and
    /// [`ServeError::EmptyRegistry`] if no artifact was found.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        let mut registry = Self::new();
        for (name, path) in artifact_files(dir)? {
            registry.insert(name, PipelineArtifact::load(&path)?);
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
    pub fn get(&self, name: &str) -> Result<Arc<PipelineArtifact>> {
        self.models
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel {
                name: name.to_string(),
            })
    }

    /// Iterates over `(name, model)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<PipelineArtifact>)> {
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
    use sls_linalg::{Matrix, ParallelPolicy};
    use sls_rbm_core::{FittedPipeline, ModelKind, RbmError, RbmParams, SlsPipelineConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn artifact() -> PipelineArtifact {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        PipelineArtifact::from_params(RbmParams::init(4, 2, &mut rng), ModelKind::Rbm)
    }

    /// A trained 5 → 12 sls-GRBM with a 3-cluster head, plus its training
    /// data.
    fn fitted() -> (FittedPipeline, Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(606);
        let ds = SyntheticBlobs::new(45, 5, 3)
            .separation(6.0)
            .generate(&mut rng);
        let fitted = PipelineArtifact::fit(
            ModelKind::SlsGrbm,
            SlsPipelineConfig::quick_demo(),
            ds.features(),
            &mut rng,
        )
        .unwrap();
        (fitted, ds)
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
        assert_eq!(*r.get("second").unwrap(), artifact());
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
    fn serving_model_delegates_metadata() {
        // A trained artifact's schema, kind, provenance and cluster head
        // survive the registry's load from disk.
        let dir = unique_dir("metadata");
        let artifact = fitted().0.artifact;
        let artifact =
            artifact.with_provenance(Some("2026-01-01T00:00:00Z".into()), Some("test".into()));
        artifact.save(dir.join("m.json")).unwrap();
        let model = ModelRegistry::load_dir(&dir).unwrap().get("m").unwrap();
        assert_eq!(*model, artifact);
        assert_eq!(model.schema_version, artifact.schema_version);
        assert_eq!(model.model_kind.as_str(), "sls-grbm");
        assert_eq!((model.n_visible(), model.n_hidden()), (5, 12));
        assert_eq!(model.cluster_head.as_ref().map(|h| h.n_clusters), Some(3));
        assert_eq!(model.trained_at.as_deref(), Some("2026-01-01T00:00:00Z"));
        assert_eq!(model.source.as_deref(), Some("test"));
        assert_eq!(model.params.param_bytes(), (5 * 12 + 5 + 12) * 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_model_answers_exactly_as_the_artifact() {
        // A model read back from disk answers with the in-memory artifact's
        // bits, under the serial and the pooled policy alike.
        let dir = unique_dir("exact");
        let artifact = fitted().0.artifact;
        artifact.save(dir.join("m.json")).unwrap();
        let model = ModelRegistry::load_dir(&dir).unwrap().get("m").unwrap();
        let rows = request_rows();
        let serial = ParallelPolicy::serial();
        let want = artifact.features_with(&rows, &serial).unwrap();
        let want_assign = artifact.assign_with(&rows, &serial).unwrap();
        for policy in [serial, ParallelPolicy::eager(2), ParallelPolicy::eager(4)] {
            let got = model.features_with(&rows, &policy).unwrap();
            let same = want
                .as_slice()
                .iter()
                .zip(got.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same && got.shape() == want.shape());
            assert_eq!(model.assign_with(&rows, &policy).unwrap(), want_assign);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn assignments_agree_with_the_full_path_on_separated_data() {
        // On well-separated data the served head labels the training rows
        // exactly as the k-means run that fitted it.
        let (pipeline, ds) = fitted();
        let mut registry = ModelRegistry::new();
        registry.insert("m", pipeline.artifact);
        let model = registry.get("m").unwrap();
        assert_eq!(
            model
                .assign_with(ds.features(), &ParallelPolicy::serial())
                .unwrap(),
            pipeline.assignments
        );
    }

    #[test]
    fn shape_errors_and_missing_heads_mirror_the_full_path() {
        let policy = ParallelPolicy::serial();
        let wide = Matrix::zeros(2, 9);
        let model = fitted().0.artifact;
        assert!(matches!(
            model.features_with(&wide, &policy),
            Err(RbmError::Linalg(_) | RbmError::VisibleSizeMismatch { .. })
        ));
        assert!(model.assign_with(&wide, &policy).is_err());
        // No cluster head: features fine, assign errors.
        let bare = artifact();
        assert!(bare.features_with(&Matrix::zeros(3, 4), &policy).is_ok());
        assert!(matches!(
            bare.assign_with(&Matrix::zeros(3, 4), &policy),
            Err(RbmError::MissingArtifactPart { .. })
        ));
    }
}
