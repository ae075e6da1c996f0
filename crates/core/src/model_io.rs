//! File persistence: every file the crate writes (artifacts and training
//! checkpoints) goes through `write_atomic`. Trained models are saved and
//! loaded as [`crate::PipelineArtifact`]s.

use crate::Result;
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

#[cfg(test)]
mod tests {
    use crate::{ModelKind, PipelineArtifact, RbmParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn save_and_load_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let params = RbmParams::init(7, 3, &mut rng);
        let dir = std::env::temp_dir().join("sls_rbm_model_io_test");
        let path = dir.join("nested").join("model.json");
        PipelineArtifact::from_params(params.clone(), ModelKind::Rbm)
            .save(&path)
            .unwrap();
        let loaded = PipelineArtifact::load(&path).unwrap().params;
        assert_eq!(loaded, params);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_files_are_versioned_artifacts() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let params = RbmParams::init(4, 2, &mut rng);
        let dir = std::env::temp_dir().join("sls_rbm_model_io_artifact");
        let path = dir.join("model.json");
        PipelineArtifact::from_params(params.clone(), ModelKind::Rbm)
            .save(&path)
            .unwrap();
        let artifact = PipelineArtifact::load(&path).unwrap();
        assert_eq!(artifact.schema_version, crate::ARTIFACT_SCHEMA_VERSION);
        assert_eq!(artifact.params, params);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loading_missing_file_errors() {
        let err = PipelineArtifact::load("/nonexistent/not_a_model.json").unwrap_err();
        assert!(matches!(err, crate::RbmError::Io(_)), "{err:?}");
    }

    #[test]
    fn loading_corrupt_json_errors() {
        let dir = std::env::temp_dir().join("sls_rbm_model_io_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{ not json }").unwrap();
        let err = PipelineArtifact::load(&path).unwrap_err();
        assert!(matches!(err, crate::RbmError::Serde(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
