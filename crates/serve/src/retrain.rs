//! The one-command retrain path: chunked CSV ingestion → consensus
//! supervision on a leading sample → streaming (checkpoint-resumable)
//! training → artifact export into a served directory.
//!
//! This closes the loop with the serving layer: pointing `--out` at the
//! directory a running `sls-serve serve --watch-interval-ms N` instance
//! watches (or hitting `POST /v1/admin/reload` after the export) hot-swaps the
//! freshly trained model into the live registry without a restart.
//!
//! The training itself is [`sls_rbm_core::StreamTrainer`]: the run is a pure
//! function of `(seed, config, data)`, interruptible at any chunk boundary,
//! and resuming from the persisted [`TrainCheckpoint`] is bitwise identical
//! to an uninterrupted run. `--stop-after-epochs` exposes the controlled
//! interruption used by CI's kill-and-resume smoke test.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_consensus::{LocalSupervision, LocalSupervisionBuilder, SupervisionSummary, VotingPolicy};
use sls_datasets::{leading_sample, ChunkSource, ChunkedCsvReader, CsvOptions, Dataset};
use sls_linalg::{Matrix, ParallelPolicy};
use sls_rbm_core::{
    base_clusterers, ClusterHead, FittedPreprocessor, ModelKind, PipelineArtifact, Preprocessing,
    RbmError, SlsConfig, StreamLimit, StreamTrainer, TrainCheckpoint, TrainConfig, TrainingHistory,
    VisibleKind,
};
use std::path::{Path, PathBuf};

/// Everything the `retrain` subcommand needs; the CLI fills it from flags,
/// tests construct it directly.
#[derive(Debug, Clone)]
pub struct RetrainOptions {
    /// CSV file to train on (features + one label column).
    pub data: PathBuf,
    /// CSV dialect of `data`.
    pub csv: CsvOptions,
    /// Rows per ingestion chunk.
    pub chunk_size: usize,
    /// Leading rows used to fit the preprocessor and (for sls kinds) the
    /// consensus supervision, and to fit the exported cluster head.
    pub sample_rows: usize,
    /// Which model to train.
    pub model_kind: ModelKind,
    /// Hidden-layer width.
    pub n_hidden: usize,
    /// Cluster count for the base clusterers and the exported cluster head.
    pub n_clusters: usize,
    /// CD training hyper-parameters (`epochs` is the run's total).
    pub train: TrainConfig,
    /// sls hyper-parameters (ignored by the baseline kinds).
    pub sls: SlsConfig,
    /// Voting policy integrating the base clusterings.
    pub voting: VotingPolicy,
    /// Seed the whole run (init, supervision, cluster head) derives from.
    pub seed: u64,
    /// Where the checkpoint is persisted (loaded to resume if it exists).
    /// Must not be a `.json` file inside `out_dir` — the serving registry
    /// would try to load it as an artifact and reject the reload.
    pub checkpoint: PathBuf,
    /// Stop after completing this many epochs *in this invocation* — the
    /// controlled-interruption knob. `None` runs to completion.
    pub stop_after_epochs: Option<usize>,
    /// Directory the finished artifact is exported into.
    pub out_dir: PathBuf,
    /// Artifact name (file becomes `<out_dir>/<name>.json`).
    pub name: String,
    /// Parallel execution policy for every hot path.
    pub parallel: ParallelPolicy,
    /// Provenance stamped on the checkpoint and the exported artifact.
    pub trained_at: Option<String>,
    /// Provenance: where the run came from (command line, job id, ...).
    pub source: Option<String>,
}

impl RetrainOptions {
    /// Defaults mirroring `SlsPipelineConfig::quick_demo`, training an
    /// sls-grbm on `data` with the checkpoint next to the artifact.
    pub fn new(data: impl Into<PathBuf>, out_dir: impl Into<PathBuf>) -> Self {
        let out_dir = out_dir.into();
        Self {
            data: data.into(),
            csv: CsvOptions::default(),
            chunk_size: 256,
            sample_rows: 512,
            model_kind: ModelKind::SlsGrbm,
            n_hidden: 12,
            n_clusters: 3,
            train: TrainConfig::default()
                .with_learning_rate(5e-3)
                .with_epochs(15)
                .with_batch_size(32),
            sls: SlsConfig::new(0.5),
            voting: VotingPolicy::Unanimous,
            seed: 2023,
            // Deliberately NOT a `.json` file: the registry loads every
            // `*.json` under the watched directory as an artifact and a
            // non-artifact file would reject the whole reload, so the
            // checkpoint lives alongside the artifacts under a different
            // extension.
            checkpoint: out_dir.join("retrain-checkpoint.ckpt"),
            stop_after_epochs: None,
            out_dir,
            name: "retrained".to_string(),
            parallel: ParallelPolicy::global(),
            trained_at: None,
            source: None,
        }
    }
}

/// What one `retrain` invocation did.
#[derive(Debug, Clone)]
pub struct RetrainOutcome {
    /// `true` if every configured epoch is applied and the artifact was
    /// exported.
    pub completed: bool,
    /// `true` if the run resumed from an existing checkpoint file.
    pub resumed: bool,
    /// Epochs applied so far (across all invocations).
    pub epochs_done: usize,
    /// Total epochs the run targets.
    pub epochs_total: usize,
    /// Epoch history of *this* invocation.
    pub history: TrainingHistory,
    /// Supervision statistics (sls kinds only).
    pub supervision: Option<SupervisionSummary>,
    /// Path of the exported artifact (`None` until the run completes).
    pub artifact_path: Option<PathBuf>,
    /// Path of the persisted checkpoint.
    pub checkpoint_path: PathBuf,
}

/// The preprocessing a model kind wants: binarised inputs for binary visible
/// units, standardised inputs for Gaussian ones — the same pairing the
/// in-memory paper pipelines use.
fn preprocessing_for(kind: ModelKind) -> Preprocessing {
    match kind.visible_kind() {
        VisibleKind::Binary => Preprocessing::BinarizeMedian,
        VisibleKind::Gaussian => Preprocessing::Standardize,
    }
}

/// Runs (or resumes) a streaming retrain described by `options`.
///
/// Steps: open the chunked reader → fit the preprocessor on the leading
/// sample → build consensus supervision on it (sls kinds) → load or create
/// the checkpoint → advance the stream trainer → persist the checkpoint →
/// export the artifact once complete.
///
/// # Errors
///
/// Propagates ingestion, supervision, training, and persistence errors; a
/// checkpoint that disagrees with the requested model kind or shapes is
/// rejected with [`RbmError::InvalidConfig`].
pub fn retrain(options: &RetrainOptions) -> sls_rbm_core::Result<RetrainOutcome> {
    options.train.validate()?;
    let source = ChunkedCsvReader::open(&options.data, &options.csv, options.chunk_size)?;
    let sample = leading_sample(&source, options.sample_rows)?;

    let preprocessor = FittedPreprocessor::fit(preprocessing_for(options.model_kind), &sample)?;
    let preprocessed_sample = preprocessor.transform_with(&sample, &options.parallel)?;

    let supervision: Option<LocalSupervision> = if options.model_kind.is_sls() {
        let mut rng = ChaCha8Rng::seed_from_u64(options.seed ^ SUPERVISION_TAG);
        let clusterers = base_clusterers(options.n_clusters, &options.parallel);
        Some(
            LocalSupervisionBuilder::new(options.n_clusters)
                .with_policy(options.voting)
                .with_parallel(options.parallel)
                .build_with_clusterers(&clusterers, &preprocessed_sample, &mut rng)?,
        )
    } else {
        None
    };

    let (mut checkpoint, resumed) = if options.checkpoint.exists() {
        let checkpoint = TrainCheckpoint::load(&options.checkpoint)?;
        check_resumable(&checkpoint, options, source.n_features())?;
        (checkpoint, true)
    } else {
        let checkpoint = TrainCheckpoint::fresh(
            options.model_kind,
            source.n_features(),
            options.n_hidden,
            options.train,
            options.seed,
        )?
        .with_source(options.source.clone());
        (checkpoint, false)
    };

    let limit = options
        .stop_after_epochs
        .map(StreamLimit::Epochs)
        .unwrap_or(StreamLimit::ToCompletion);
    let history = StreamTrainer::new()
        .with_parallel(options.parallel)
        .advance(
            &mut checkpoint,
            &source,
            &preprocessor,
            supervision.as_ref().map(|s| (s, &options.sls)),
            limit,
        )?;
    checkpoint.save(&options.checkpoint)?;

    let artifact_path = if checkpoint.is_complete() {
        let mut artifact =
            PipelineArtifact::from_params(checkpoint.params.clone(), options.model_kind)
                .with_provenance(options.trained_at.clone(), options.source.clone());
        artifact.preprocessor = preprocessor;
        // The cluster head is fitted on the sample's hidden features — the
        // same rows the supervision saw — with its own seed-derived RNG so
        // the export is deterministic regardless of resume pattern.
        let features = artifact.features_with(&sample, &options.parallel)?;
        let mut head_rng = ChaCha8Rng::seed_from_u64(options.seed ^ HEAD_TAG);
        let (head, _labels) =
            ClusterHead::fit_kmeans(&features, options.n_clusters, &mut head_rng)?;
        artifact.cluster_head = Some(head);
        let path = options.out_dir.join(format!("{}.json", options.name));
        artifact.save(&path)?;
        Some(path)
    } else {
        None
    };

    Ok(RetrainOutcome {
        completed: checkpoint.is_complete(),
        resumed,
        epochs_done: checkpoint.epochs_done,
        epochs_total: checkpoint.train_config.epochs,
        history,
        supervision: supervision.as_ref().map(LocalSupervision::summary),
        artifact_path,
        checkpoint_path: options.checkpoint.clone(),
    })
}

/// Refuses to resume from a checkpoint written by a different run: another
/// model kind or shape, another training configuration, or another seed.
/// Resuming across any of these would mix the checkpoint's run (its init
/// seed, epoch count and hyper-parameters) with supervision and a cluster
/// head built from the new options.
fn check_resumable(
    checkpoint: &TrainCheckpoint,
    options: &RetrainOptions,
    n_features: usize,
) -> sls_rbm_core::Result<()> {
    let shape = (checkpoint.params.n_visible(), checkpoint.params.n_hidden());
    let mismatch =
        if checkpoint.model_kind != options.model_kind || shape != (n_features, options.n_hidden) {
            format!(
                "holds a {} model of shape {}x{}, but this run requested a {} model of shape {}x{}",
                checkpoint.model_kind.as_str(),
                shape.0,
                shape.1,
                options.model_kind.as_str(),
                n_features,
                options.n_hidden,
            )
        } else if checkpoint.train_config != options.train {
            format!(
                "has train_config {:?}, but this run requested {:?}",
                checkpoint.train_config, options.train
            )
        } else if checkpoint.base_seed != options.seed {
            format!(
                "has base_seed {}, but this run requested seed {}",
                checkpoint.base_seed, options.seed
            )
        } else {
            return Ok(());
        };
    Err(RbmError::InvalidConfig {
        name: "checkpoint",
        message: format!(
            "existing checkpoint at {} {mismatch}; delete it to start fresh",
            options.checkpoint.display()
        ),
    })
}

/// Seed tags keeping the supervision and cluster-head RNG streams distinct
/// from each other and from the trainer's own derivations.
const SUPERVISION_TAG: u64 = 0x5355_5056; // "SUPV"
const HEAD_TAG: u64 = 0x4845_4144; // "HEAD"

/// Writes a synthetic Gaussian-blob dataset as a label-last CSV — the
/// data generator behind `sls-serve synth`, giving CI and demos a stream
/// source without shipping data files.
///
/// # Errors
///
/// Returns I/O errors.
pub fn write_synthetic_csv(
    path: impl AsRef<Path>,
    instances: usize,
    dims: usize,
    clusters: usize,
    separation: f64,
    seed: u64,
) -> std::io::Result<()> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dataset = sls_datasets::SyntheticBlobs::new(instances, dims, clusters)
        .separation(separation)
        .generate(&mut rng);
    write_dataset_csv(path, &dataset)
}

/// Writes any [`Dataset`] as a label-last CSV.
///
/// # Errors
///
/// Returns I/O errors.
pub fn write_dataset_csv(path: impl AsRef<Path>, dataset: &Dataset) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let features: &Matrix = dataset.features();
    let mut text = String::new();
    for (row, &label) in features.row_iter().zip(dataset.labels()) {
        for value in row {
            text.push_str(&format!("{value},"));
        }
        text.push_str(&format!("{label}\n"));
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sls_serve_retrain_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_options(dir: &Path, kind: ModelKind, epochs: usize) -> RetrainOptions {
        let data = dir.join("train.csv");
        write_synthetic_csv(&data, 60, 5, 3, 6.0, 7).unwrap();
        let mut options = RetrainOptions::new(data, dir.join("artifacts"));
        options.model_kind = kind;
        options.chunk_size = 16;
        options.sample_rows = 60;
        options.n_hidden = 6;
        options.train = options.train.with_epochs(epochs).with_batch_size(8);
        options.parallel = ParallelPolicy::serial();
        options.source = Some("unit test".to_string());
        options
    }

    #[test]
    fn straight_run_exports_a_servable_artifact() {
        let dir = temp_dir("straight");
        let options = quick_options(&dir, ModelKind::SlsGrbm, 3);
        let outcome = retrain(&options).unwrap();
        assert!(outcome.completed);
        assert!(!outcome.resumed);
        assert_eq!(outcome.epochs_done, 3);
        assert_eq!(outcome.history.epochs.len(), 3);
        let summary = outcome.supervision.expect("sls kind builds supervision");
        assert!(summary.coverage > 0.0);

        let artifact = PipelineArtifact::load(outcome.artifact_path.unwrap()).unwrap();
        assert_eq!(artifact.model_kind, ModelKind::SlsGrbm);
        assert_eq!(artifact.n_visible(), 5);
        assert_eq!(artifact.n_hidden(), 6);
        assert!(artifact.cluster_head.is_some());
        assert_eq!(artifact.source.as_deref(), Some("unit test"));
        // The artifact must answer an inference request on raw rows.
        let rows = Matrix::filled(2, 5, 0.3);
        let assignments = artifact.assign(&rows).unwrap();
        assert_eq!(assignments.len(), 2);
        // The export directory must stay loadable as a serving registry even
        // though the checkpoint file sits next to the artifact.
        let registry = crate::ModelRegistry::load_dir(&options.out_dir).unwrap();
        assert!(registry.get("retrained").is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_hidden_units_are_rejected_before_training() {
        let dir = temp_dir("zero_hidden");
        let mut options = quick_options(&dir, ModelKind::SlsGrbm, 3);
        options.n_hidden = 0;
        let err = retrain(&options).unwrap_err();
        assert!(
            matches!(
                err,
                RbmError::InvalidConfig {
                    name: "n_hidden",
                    ..
                }
            ),
            "{err}"
        );
        assert!(!options.checkpoint.exists(), "no checkpoint may be written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_retrain_resumes_to_identical_weights() {
        let dir = temp_dir("resume");
        let options = quick_options(&dir, ModelKind::SlsRbm, 4);
        let reference = retrain(&options).unwrap();
        assert!(reference.completed);
        let reference_artifact = PipelineArtifact::load(reference.artifact_path.unwrap()).unwrap();

        // Same run, interrupted after every epoch — separate checkpoint and
        // output name, same seed and data.
        let mut interrupted = options.clone();
        interrupted.checkpoint = dir.join("artifacts").join("interrupted-checkpoint.ckpt");
        interrupted.name = "interrupted".to_string();
        interrupted.stop_after_epochs = Some(1);
        let mut last = None;
        for invocation in 0..4 {
            let outcome = retrain(&interrupted).unwrap();
            assert_eq!(outcome.resumed, invocation > 0);
            assert_eq!(outcome.epochs_done, invocation + 1);
            last = Some(outcome);
        }
        let last = last.unwrap();
        assert!(last.completed);

        let resumed_artifact = PipelineArtifact::load(last.artifact_path.unwrap()).unwrap();
        assert_eq!(
            reference_artifact.params.weights.as_slice(),
            resumed_artifact.params.weights.as_slice(),
            "kill-and-resume must export bitwise identical weights"
        );
        assert_eq!(reference_artifact.params, resumed_artifact.params);
        assert_eq!(
            reference_artifact.cluster_head,
            resumed_artifact.cluster_head
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn baseline_kind_skips_supervision() {
        let dir = temp_dir("baseline");
        let options = quick_options(&dir, ModelKind::Grbm, 2);
        let outcome = retrain(&options).unwrap();
        assert!(outcome.completed);
        assert!(outcome.supervision.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let dir = temp_dir("mismatch");
        let options = quick_options(&dir, ModelKind::Grbm, 2);
        retrain(&options).unwrap();
        let mut switched = options.clone();
        switched.model_kind = ModelKind::SlsGrbm;
        let err = retrain(&switched).unwrap_err();
        assert!(matches!(
            err,
            RbmError::InvalidConfig {
                name: "checkpoint",
                ..
            }
        ));
        // Same kind and shape, but another epoch count or seed: resuming
        // would train the checkpoint's run, not the requested one.
        let mut more_epochs = options.clone();
        more_epochs.train = more_epochs.train.with_epochs(5);
        let mut reseeded = options.clone();
        reseeded.seed = 99;
        for (changed, field) in [(more_epochs, "train_config"), (reseeded, "base_seed")] {
            match retrain(&changed) {
                Err(RbmError::InvalidConfig {
                    name: "checkpoint",
                    message,
                }) => assert!(message.contains(field), "{field}: {message}"),
                other => panic!("{field}: expected a checkpoint refusal, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_training_values_are_an_error_not_a_panic() {
        let dir = temp_dir("non_finite");
        let options = quick_options(&dir, ModelKind::SlsGrbm, 1);
        let clean = std::fs::read_to_string(&options.data).unwrap();
        for field in ["NaN", "inf", "1e400"] {
            // Line 4, first feature: inside the leading sample.
            let mut lines: Vec<&str> = clean.lines().collect();
            let poisoned = format!("{field}{}", &lines[3][lines[3].find(',').unwrap()..]);
            lines[3] = &poisoned;
            std::fs::write(&options.data, lines.join("\n")).unwrap();
            match retrain(&options) {
                Err(RbmError::Dataset(sls_datasets::DatasetError::CsvParse {
                    line: 4,
                    message,
                })) => {
                    assert!(message.contains(field), "{field}: {message}");
                }
                other => panic!("{field}: expected a line-4 parse error, got {other:?}"),
            }
            assert!(
                !options.checkpoint.exists(),
                "{field}: no checkpoint written"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synthetic_csv_round_trips_through_the_chunked_reader() {
        let dir = temp_dir("synth");
        let path = dir.join("blobs.csv");
        write_synthetic_csv(&path, 25, 4, 2, 5.0, 3).unwrap();
        let reader = ChunkedCsvReader::open(&path, &CsvOptions::default(), 10).unwrap();
        assert_eq!(reader.n_instances(), 25);
        assert_eq!(reader.n_features(), 4);
        assert_eq!(reader.n_chunks(), 3);
        let full = sls_datasets::load_csv_dataset(&path, &CsvOptions::default()).unwrap();
        let sample = leading_sample(&reader, 25).unwrap();
        assert_eq!(sample.as_slice(), full.features().as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }
}
