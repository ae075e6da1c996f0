//! Parameter-level persistence, kept for backward compatibility.
//!
//! These helpers predate [`crate::PipelineArtifact`] and are now thin
//! wrappers over it, so the workspace has exactly one serialisation path:
//!
//! * [`save_params_json`] writes a current-schema artifact that carries only
//!   the parameters (no fitted preprocessor, no cluster head).
//! * [`load_params_json`] reads *either* format — a full artifact (the
//!   parameters are extracted) or a pre-artifact param-only snapshot.
//!
//! New code should use [`crate::PipelineArtifact`] directly: it additionally
//! persists the fitted preprocessing statistics, model kind and cluster
//! head, which are required to serve inference requests.
//!
//! Every file the crate writes (artifacts and training checkpoints) goes
//! through `write_atomic`.

use crate::artifact::{ModelKind, PipelineArtifact};
use crate::{RbmParams, Result};
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Replaces the file at `path` with `contents` atomically, creating parent
/// directories if needed. The bytes go to a temporary sibling whose
/// extension is `.tmp` (directory scanners that load `*.json` never pick it
/// up), are synced, and the sibling is renamed over `path`; the directory is
/// synced last so the rename itself is durable. A concurrent reader sees
/// either the old file or the new one, never a truncated mix.
///
/// # Errors
///
/// Returns I/O errors; the temporary file is removed if the write or the
/// rename fails.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> Result<()> {
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(contents.as_bytes())?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Serialises parameters to a JSON file, creating parent directories if
/// needed.
///
/// The file is a [`PipelineArtifact`] carrying only the parameters. The
/// param-only API cannot know which model produced them, so the artifact's
/// kind defaults to [`ModelKind::Rbm`]; prefer building an artifact directly
/// when the kind matters.
///
/// # Errors
///
/// Returns I/O or serialisation errors.
pub fn save_params_json(params: &RbmParams, path: impl AsRef<Path>) -> Result<()> {
    PipelineArtifact::from_params(params.clone(), ModelKind::Rbm).save(path)
}

/// Loads parameters from a JSON file: either a full [`PipelineArtifact`] or
/// a legacy param-only snapshot produced before the artifact schema existed.
///
/// # Errors
///
/// Returns I/O or deserialisation errors.
pub fn load_params_json(path: impl AsRef<Path>) -> Result<RbmParams> {
    Ok(PipelineArtifact::load(path)?.params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RbmParams;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn save_and_load_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let params = RbmParams::init(7, 3, &mut rng);
        let dir = std::env::temp_dir().join("sls_rbm_model_io_test");
        let path = dir.join("nested").join("model.json");
        save_params_json(&params, &path).unwrap();
        let loaded = load_params_json(&path).unwrap();
        assert_eq!(loaded, params);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_files_are_versioned_artifacts() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let params = RbmParams::init(4, 2, &mut rng);
        let dir = std::env::temp_dir().join("sls_rbm_model_io_artifact");
        let path = dir.join("model.json");
        save_params_json(&params, &path).unwrap();
        let artifact = PipelineArtifact::load(&path).unwrap();
        assert_eq!(artifact.schema_version, crate::ARTIFACT_SCHEMA_VERSION);
        assert_eq!(artifact.params, params);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loads_pre_artifact_param_only_snapshot() {
        // A literal snapshot in the format `save_params_json` wrote before
        // the artifact schema existed: bare `RbmParams` JSON, no
        // `schema_version` field. This must stay loadable forever.
        let snapshot = r#"{
  "weights": { "rows": 2, "cols": 2, "data": [0.25, -0.5, 0.125, 1.0] },
  "visible_bias": [0.0, -1.5],
  "hidden_bias": [2.0, 0.5]
}"#;
        let dir = std::env::temp_dir().join("sls_rbm_model_io_legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        std::fs::write(&path, snapshot).unwrap();
        let params = load_params_json(&path).unwrap();
        assert_eq!(params.n_visible(), 2);
        assert_eq!(params.n_hidden(), 2);
        assert_eq!(params.weights[(0, 1)], -0.5);
        assert_eq!(params.visible_bias, vec![0.0, -1.5]);
        assert_eq!(params.hidden_bias, vec![2.0, 0.5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loading_missing_file_errors() {
        assert!(load_params_json("/nonexistent/not_a_model.json").is_err());
    }

    #[test]
    fn loading_corrupt_json_errors() {
        let dir = std::env::temp_dir().join("sls_rbm_model_io_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{ not json }").unwrap();
        let err = load_params_json(&path).unwrap_err();
        assert!(matches!(err, crate::RbmError::Serde(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
