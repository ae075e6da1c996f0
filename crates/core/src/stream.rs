//! Streaming mini-batch training with checkpoint-resume.
//!
//! [`CdTrainer`](crate::CdTrainer) holds the whole dataset in one
//! [`Matrix`]. For corpora that do not fit in memory (or for long runs that
//! must survive interruption) this module trains against a [`ChunkSource`]
//! instead: each epoch walks the source chunk by chunk, runs the mini-batch
//! updates inside the chunk, and records its position in a
//! [`TrainCheckpoint`] — a schema-versioned JSON artifact holding the model
//! parameters, the momentum (optimizer) state and the ingest cursor.
//!
//! There is one mini-batch update in the crate, `cd::minibatch_step`, and
//! both trainers call it: [`CdTrainer`](crate::CdTrainer) from its epoch
//! loop, this module once per mini-batch of each chunk. The stream differs
//! from the in-memory loop only in where rows, RNG streams and momentum come
//! from.
//!
//! ## Bit-exact resume
//!
//! The contract is that interrupting a run at *any* chunk boundary, saving
//! the checkpoint, reloading it (even in a new process) and resuming yields
//! parameters **bitwise identical** to an uninterrupted run. Two design
//! choices make this hold:
//!
//! * **Per-(epoch, chunk) RNG.** Instead of one RNG stream threaded through
//!   the whole run (whose position could not be persisted), every chunk
//!   derives a fresh [`ChaCha8Rng`] from `mix(base_seed, epoch, chunk)`.
//!   Resuming at a chunk boundary recreates exactly the stream an
//!   uninterrupted run would have used from that point on.
//! * **Full optimizer state in the checkpoint.** The momentum velocity is
//!   saved next to the parameters, so the first update after a resume sees
//!   the same smoothed gradient as the uninterrupted run.
//!
//! Shuffling is therefore *within-chunk*: the visit order of chunks is fixed
//! and `shuffle` permutes rows inside each chunk. This trades some global
//! mixing for restartability; chunk-level mixing can be recovered upstream
//! by shuffling the source file once before training.
//!
//! ## Supervision on a stream
//!
//! The sls models need a [`LocalSupervision`], which is built on an
//! in-memory sample (see [`sls_datasets::leading_sample`]). Its instance
//! indices are *global* stream indices; rows of chunk `c` have global
//! indices `c * chunk_size + local`, which is the offset the stream hands
//! the shared update. Rows beyond the sampled prefix are not covered by any
//! local cluster and receive only the CD gradient, as uncovered instances
//! do in memory.
//!
//! ## Progress monitoring
//!
//! After an epoch's last chunk the stream reads every chunk again for the
//! row-weighted mean of [`Rbm::reconstruction_error_with`]: a pass over
//! small row blocks, shared out on the worker pool when the policy fans
//! out, whose value has the same bits for every thread count.

use crate::cd::{epoch_order, minibatch_step, Guidance, UpdateRule, Velocity};
use crate::sls::SlsConfig;
use crate::{
    EpochStats, FittedPreprocessor, ModelKind, Rbm, RbmError, RbmParams, Result, TrainConfig,
    TrainingHistory,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Deserialize;
use sls_consensus::LocalSupervision;
use sls_datasets::ChunkSource;
use sls_linalg::{Matrix, ParallelPolicy};
use std::path::Path;

/// Newest checkpoint schema version this build reads and writes.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// How far one [`StreamTrainer::advance`] call may run before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamLimit {
    /// Run until the configured number of epochs is complete.
    ToCompletion,
    /// Complete at most this many epochs, then stop at the epoch boundary.
    Epochs(usize),
    /// Process at most this many chunks, then stop at the chunk boundary
    /// (possibly mid-epoch) — the fine-grained knob for controlled
    /// interruption tests and cooperative scheduling.
    Chunks(usize),
}

/// A resumable snapshot of a streaming training run: model parameters,
/// momentum state and the ingest cursor, persisted as schema-versioned JSON.
///
/// The cursor `(epochs_done, chunks_done)` always points at the next chunk
/// to process: `chunks_done` chunks of epoch `epochs_done` are already
/// applied. `chunks_done` is kept strictly below the source's chunk count —
/// completing the last chunk of an epoch rolls it over to
/// `(epochs_done + 1, 0)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Schema version the checkpoint was written with.
    pub schema_version: u32,
    /// Which model the parameters belong to.
    pub model_kind: ModelKind,
    /// Current model parameters.
    pub params: RbmParams,
    /// Momentum velocity of the weights.
    pub velocity_w: Matrix,
    /// Momentum velocity of the visible biases.
    pub velocity_a: Vec<f64>,
    /// Momentum velocity of the hidden biases.
    pub velocity_b: Vec<f64>,
    /// The training configuration the run was started with.
    pub train_config: TrainConfig,
    /// Seed every per-(epoch, chunk) RNG is derived from.
    pub base_seed: u64,
    /// Fully completed epochs.
    pub epochs_done: usize,
    /// Chunks of the current epoch already applied.
    pub chunks_done: usize,
    /// Where the run came from (command line, job id, dataset tag, ...).
    /// Optional and additive, like [`crate::PipelineArtifact`] provenance.
    pub source: Option<String>,
}

// Hand-written (de)serialisation for the same reasons as `PipelineArtifact`:
// the vendored derive requires every field, but `source` is additive and
// must not be written when unset. `base_seed` is stored as the
// two's-complement i64 bit pattern so every 64-bit seed round-trips through
// the facade's integer value.
impl serde::Serialize for TrainCheckpoint {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("model_kind".to_string(), self.model_kind.to_value()),
            ("params".to_string(), self.params.to_value()),
            ("velocity_w".to_string(), self.velocity_w.to_value()),
            ("velocity_a".to_string(), self.velocity_a.to_value()),
            ("velocity_b".to_string(), self.velocity_b.to_value()),
            ("train_config".to_string(), self.train_config.to_value()),
            (
                "base_seed".to_string(),
                serde::Value::Int(self.base_seed as i64),
            ),
            ("epochs_done".to_string(), self.epochs_done.to_value()),
            ("chunks_done".to_string(), self.chunks_done.to_value()),
        ];
        if self.source.is_some() {
            entries.push(("source".to_string(), self.source.to_value()));
        }
        serde::Value::Object(entries)
    }
}

impl serde::Deserialize for TrainCheckpoint {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::DeError::mismatch("object", value))?;
        let base_seed = match serde::field(entries, "base_seed")? {
            serde::Value::Int(i) => *i as u64,
            other => return Err(serde::DeError::mismatch("integer", other)),
        };
        let source = match entries.iter().find(|(key, _)| key == "source") {
            Some((_, v)) => Deserialize::from_value(v)?,
            None => None,
        };
        Ok(Self {
            schema_version: Deserialize::from_value(serde::field(entries, "schema_version")?)?,
            model_kind: Deserialize::from_value(serde::field(entries, "model_kind")?)?,
            params: Deserialize::from_value(serde::field(entries, "params")?)?,
            velocity_w: Deserialize::from_value(serde::field(entries, "velocity_w")?)?,
            velocity_a: Deserialize::from_value(serde::field(entries, "velocity_a")?)?,
            velocity_b: Deserialize::from_value(serde::field(entries, "velocity_b")?)?,
            train_config: Deserialize::from_value(serde::field(entries, "train_config")?)?,
            base_seed,
            epochs_done: Deserialize::from_value(serde::field(entries, "epochs_done")?)?,
            chunks_done: Deserialize::from_value(serde::field(entries, "chunks_done")?)?,
            source,
        })
    }
}

impl TrainCheckpoint {
    /// Starts a fresh run: parameters initialised from a RNG derived from
    /// `base_seed` (so the whole run is a pure function of the seed, the
    /// config and the source), zero velocity, cursor at the beginning.
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::InvalidConfig`] if the configuration is invalid
    /// or `n_hidden` is zero.
    pub fn fresh(
        model_kind: ModelKind,
        n_visible: usize,
        n_hidden: usize,
        train_config: TrainConfig,
        base_seed: u64,
    ) -> Result<Self> {
        RbmParams::check_hidden_units(n_hidden)?;
        train_config.validate()?;
        let mut init_rng = ChaCha8Rng::seed_from_u64(init_seed(base_seed));
        Ok(Self {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            model_kind,
            params: RbmParams::init(n_visible, n_hidden, &mut init_rng),
            velocity_w: Matrix::zeros(n_visible, n_hidden),
            velocity_a: vec![0.0; n_visible],
            velocity_b: vec![0.0; n_hidden],
            train_config,
            base_seed,
            epochs_done: 0,
            chunks_done: 0,
            source: None,
        })
    }

    /// Attaches a free-form provenance string (`None` leaves it unset).
    pub fn with_source(mut self, source: Option<String>) -> Self {
        self.source = source;
        self
    }

    /// `true` once every configured epoch has been applied.
    pub fn is_complete(&self) -> bool {
        self.epochs_done >= self.train_config.epochs
    }

    /// Validates internal shape agreement (params vs velocity) and that
    /// every parameter and velocity is finite.
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::InvalidConfig`] on any disagreement or
    /// non-finite value.
    pub fn check_consistent(&self) -> Result<()> {
        self.params.check_consistent()?;
        self.train_config.validate()?;
        let shape = (self.params.n_visible(), self.params.n_hidden());
        if self.velocity_w.shape() != shape
            || self.velocity_a.len() != shape.0
            || self.velocity_b.len() != shape.1
        {
            return Err(RbmError::InvalidConfig {
                name: "checkpoint",
                message: format!(
                    "velocity shapes {:?}/{}/{} disagree with parameter shape {:?}",
                    self.velocity_w.shape(),
                    self.velocity_a.len(),
                    self.velocity_b.len(),
                    shape
                ),
            });
        }
        let velocity = self.velocity_a.iter().chain(&self.velocity_b);
        if !(self.velocity_w.is_finite() && velocity.clone().all(|x| x.is_finite())) {
            return Err(RbmError::InvalidConfig {
                name: "checkpoint",
                message: "momentum velocity must be finite".into(),
            });
        }
        Ok(())
    }

    /// Serialises the checkpoint as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns serialisation errors.
    pub fn to_json_pretty(&self) -> Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a checkpoint from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::UnsupportedSchemaVersion`] for checkpoints written
    /// by a newer build, shape errors for inconsistent contents, and
    /// deserialisation errors for malformed input.
    pub fn from_json(text: &str) -> Result<Self> {
        /// Minimal probe so a newer schema is rejected with a clear error
        /// instead of a field-level parse failure.
        #[derive(Deserialize)]
        struct SchemaProbe {
            schema_version: u32,
        }

        let probe = serde_json::from_str::<SchemaProbe>(text)?;
        if probe.schema_version > CHECKPOINT_SCHEMA_VERSION {
            return Err(RbmError::UnsupportedSchemaVersion {
                found: probe.schema_version,
                supported: CHECKPOINT_SCHEMA_VERSION,
            });
        }
        let checkpoint = serde_json::from_str::<TrainCheckpoint>(text)?;
        checkpoint.check_consistent()?;
        Ok(checkpoint)
    }

    /// Writes the checkpoint as JSON, creating parent directories if needed.
    /// The file is replaced atomically, so a crash mid-save leaves the
    /// previous checkpoint intact.
    ///
    /// # Errors
    ///
    /// Returns I/O or serialisation errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        crate::model_io::write_atomic(path.as_ref(), &self.to_json_pretty()?)
    }

    /// Reads a checkpoint from a JSON file.
    ///
    /// # Errors
    ///
    /// Same as [`Self::from_json`], plus I/O errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }
}

/// SplitMix64 finaliser — the standard statistically-solid 64-bit mixer.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the parameter-initialisation RNG, kept distinct from every
/// per-chunk seed by a fixed tag.
fn init_seed(base_seed: u64) -> u64 {
    splitmix64(base_seed ^ 0x696E_6974) // "init"
}

/// Seed of the RNG used for epoch `epoch`, chunk `chunk`. Chained mixing
/// keeps distinct `(epoch, chunk)` pairs on distinct streams.
fn chunk_seed(base_seed: u64, epoch: usize, chunk: usize) -> u64 {
    splitmix64(splitmix64(splitmix64(base_seed) ^ epoch as u64) ^ chunk as u64)
}

/// The streaming training driver: advances a [`TrainCheckpoint`] over a
/// [`ChunkSource`].
///
/// On success the checkpoint is updated in place (parameters, velocity,
/// cursor); on error it is left exactly as committed by the last completed
/// chunk boundary before the call, so a caller can persist it and retry.
#[derive(Debug, Clone, Default)]
pub struct StreamTrainer {
    parallel: ParallelPolicy,
}

impl StreamTrainer {
    /// Creates a driver under the process-wide [`ParallelPolicy::global`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the parallel execution policy for the training hot path. Results
    /// are bitwise identical for every policy.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// The active parallel execution policy.
    pub fn parallel(&self) -> &ParallelPolicy {
        &self.parallel
    }

    /// Advances the checkpointed run over `source` until `limit` is reached,
    /// the configured epochs complete, or an error occurs.
    ///
    /// Every chunk is read from `source`, pushed through `preprocessor`, and
    /// consumed in mini-batches with the same update rules as the in-memory
    /// trainers: plain CD for [`ModelKind::Rbm`] / [`ModelKind::Grbm`], the
    /// combined CD + constrict/disperse step for the sls kinds (which
    /// require `supervision`). Returns the per-epoch history of the epochs
    /// *completed by this call*; the reconstruction error is the row-weighted
    /// mean over all chunks.
    ///
    /// # Errors
    ///
    /// * [`RbmError::InvalidConfig`] for an inconsistent checkpoint, an sls
    ///   kind without supervision, or a non-sls kind with supervision.
    /// * [`RbmError::SupervisionOutOfRange`] if the supervision references
    ///   instances beyond the stream.
    /// * [`RbmError::Dataset`] when the source fails to produce a chunk.
    /// * [`RbmError::Diverged`] if parameters become non-finite.
    pub fn advance(
        &self,
        checkpoint: &mut TrainCheckpoint,
        source: &dyn ChunkSource,
        preprocessor: &FittedPreprocessor,
        supervision: Option<(&LocalSupervision, &SlsConfig)>,
        limit: StreamLimit,
    ) -> Result<TrainingHistory> {
        checkpoint.check_consistent()?;
        let kind = checkpoint.model_kind;
        if kind.is_sls() != supervision.is_some() {
            let needs = if kind.is_sls() {
                "trains with the sls objective and needs a supervision"
            } else {
                "trains with plain CD and ignores supervision; pass None or pick an sls kind"
            };
            return Err(RbmError::InvalidConfig {
                name: "supervision",
                message: format!("model kind '{}' {needs}", kind.as_str()),
            });
        }
        let guide = supervision
            .map(|(sup, sls)| Guidance::new(sup, *sls, source.n_instances()))
            .transpose()?;
        let mut model = Rbm::from_params(kind.visible_kind(), checkpoint.params.clone());
        self.drive(
            &mut model,
            checkpoint,
            source,
            preprocessor,
            guide.as_ref(),
            limit,
        )
    }

    /// The driver loop. Commits parameters, velocity and cursor back into
    /// the checkpoint after every chunk, so the checkpoint is always a valid
    /// resume point even when a later chunk errors.
    fn drive(
        &self,
        model: &mut Rbm,
        checkpoint: &mut TrainCheckpoint,
        source: &dyn ChunkSource,
        preprocessor: &FittedPreprocessor,
        guide: Option<&Guidance>,
        limit: StreamLimit,
    ) -> Result<TrainingHistory> {
        let cfg = checkpoint.train_config;
        let base_seed = checkpoint.base_seed;
        let n_chunks = source.n_chunks();
        let chunk_cap = source.chunk_size();
        let rule = UpdateRule {
            train: &cfg,
            guide,
            parallel: &self.parallel,
        };

        let mut velocity = Velocity {
            w: checkpoint.velocity_w.clone(),
            a: checkpoint.velocity_a.clone(),
            b: checkpoint.velocity_b.clone(),
        };
        let mut history = TrainingHistory::default();
        let mut epochs_run = 0usize;
        let mut chunks_run = 0usize;
        let budget_left = |epochs_run: usize, chunks_run: usize| match limit {
            StreamLimit::ToCompletion => true,
            StreamLimit::Epochs(n) => epochs_run < n,
            StreamLimit::Chunks(n) => chunks_run < n,
        };

        while checkpoint.epochs_done < cfg.epochs && budget_left(epochs_run, chunks_run) {
            let epoch = checkpoint.epochs_done;
            while checkpoint.chunks_done < n_chunks && budget_left(epochs_run, chunks_run) {
                let chunk_index = checkpoint.chunks_done;
                let mut rng = ChaCha8Rng::seed_from_u64(chunk_seed(base_seed, epoch, chunk_index));
                let raw = source.read_chunk(chunk_index)?;
                let data = preprocessor.transform_with(&raw, &self.parallel)?;
                model.params().check_data(&data)?;
                // Rows of this chunk are stream instances `offset + row`.
                let offset = chunk_index * chunk_cap;
                let order = epoch_order(data.rows(), cfg.shuffle, &mut rng);
                for rows in order.chunks(cfg.batch_size) {
                    minibatch_step(model, &mut velocity, &rule, &data, rows, offset, &mut rng)?;
                }
                if !model.params().is_finite() {
                    return Err(RbmError::Diverged { epoch });
                }

                // Commit the chunk: the checkpoint is a valid resume point.
                let (params, committed) = (model.params(), &mut checkpoint.params);
                committed.weights.clone_from(&params.weights);
                committed.visible_bias.clone_from(&params.visible_bias);
                committed.hidden_bias.clone_from(&params.hidden_bias);
                checkpoint.velocity_w.clone_from(&velocity.w);
                checkpoint.velocity_a.clone_from(&velocity.a);
                checkpoint.velocity_b.clone_from(&velocity.b);
                checkpoint.chunks_done += 1;
                chunks_run += 1;
            }
            if checkpoint.chunks_done == n_chunks {
                let error = self.streaming_reconstruction_error(model, source, preprocessor)?;
                history.epochs.push(EpochStats {
                    epoch,
                    reconstruction_error: error,
                });
                checkpoint.epochs_done += 1;
                checkpoint.chunks_done = 0;
                epochs_run += 1;
            }
        }
        Ok(history)
    }

    /// Row-weighted mean reconstruction error over every chunk of the
    /// source — the streaming counterpart of
    /// [`Rbm::reconstruction_error`]. The chunked summation
    /// order differs from the in-memory one, so the value may differ from a
    /// whole-dataset evaluation in the last bits; it is a monitoring
    /// statistic, not part of the resume contract.
    fn streaming_reconstruction_error(
        &self,
        model: &Rbm,
        source: &dyn ChunkSource,
        preprocessor: &FittedPreprocessor,
    ) -> Result<f64> {
        let mut weighted = 0.0;
        let mut rows = 0usize;
        for index in 0..source.n_chunks() {
            let raw = source.read_chunk(index)?;
            let data = preprocessor.transform_with(&raw, &self.parallel)?;
            weighted +=
                model.reconstruction_error_with(&data, &self.parallel)? * data.rows() as f64;
            rows += data.rows();
        }
        if rows == 0 {
            return Err(RbmError::EmptyData);
        }
        Ok(weighted / rows as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_consensus::{LocalSupervision, VotingPolicy};
    use sls_datasets::InMemoryChunks;
    use sls_linalg::MatrixRandomExt;

    fn bernoulli_source(rows: usize, cols: usize, chunk_size: usize, seed: u64) -> InMemoryChunks {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let features = Matrix::random_bernoulli(rows, cols, 0.5, &mut rng);
        InMemoryChunks::new(features, chunk_size, "test-stream").unwrap()
    }

    fn quick_config(epochs: usize) -> TrainConfig {
        TrainConfig::quick()
            .with_epochs(epochs)
            .with_batch_size(4)
            .with_learning_rate(0.05)
    }

    /// Supervision covering the leading `covered` instances of a
    /// `n_instances`-row stream, split into two local clusters.
    fn leading_supervision(covered: usize, n_instances: usize) -> LocalSupervision {
        let consensus: Vec<Option<usize>> = (0..n_instances)
            .map(|i| (i < covered).then_some(i % 2))
            .collect();
        LocalSupervision::from_consensus(&consensus, VotingPolicy::default()).unwrap()
    }

    fn straight_run(
        kind: ModelKind,
        source: &InMemoryChunks,
        supervision: Option<(&LocalSupervision, &SlsConfig)>,
        epochs: usize,
    ) -> TrainCheckpoint {
        let mut checkpoint =
            TrainCheckpoint::fresh(kind, source.n_features(), 5, quick_config(epochs), 99).unwrap();
        StreamTrainer::new()
            .with_parallel(ParallelPolicy::serial())
            .advance(
                &mut checkpoint,
                source,
                &FittedPreprocessor::Identity,
                supervision,
                StreamLimit::ToCompletion,
            )
            .unwrap();
        checkpoint
    }

    #[test]
    fn fresh_checkpoint_is_deterministic_in_the_seed() {
        let a = TrainCheckpoint::fresh(ModelKind::Rbm, 6, 4, quick_config(2), 7).unwrap();
        let b = TrainCheckpoint::fresh(ModelKind::Rbm, 6, 4, quick_config(2), 7).unwrap();
        let c = TrainCheckpoint::fresh(ModelKind::Rbm, 6, 4, quick_config(2), 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.params, c.params);
        assert!(!a.is_complete());
    }

    #[test]
    fn interrupted_resume_is_bitwise_identical_cd() {
        let source = bernoulli_source(30, 6, 7, 11);
        let reference = straight_run(ModelKind::Rbm, &source, None, 3);
        assert!(reference.is_complete());

        // Same run, interrupted every 3 chunks with a JSON round-trip in
        // between — simulating kill + restart from the persisted file.
        let mut checkpoint =
            TrainCheckpoint::fresh(ModelKind::Rbm, source.n_features(), 5, quick_config(3), 99)
                .unwrap();
        let trainer = StreamTrainer::new().with_parallel(ParallelPolicy::serial());
        let mut guard = 0;
        while !checkpoint.is_complete() {
            trainer
                .advance(
                    &mut checkpoint,
                    &source,
                    &FittedPreprocessor::Identity,
                    None,
                    StreamLimit::Chunks(3),
                )
                .unwrap();
            checkpoint = TrainCheckpoint::from_json(&checkpoint.to_json_pretty().unwrap()).unwrap();
            guard += 1;
            assert!(guard < 100, "run did not converge to completion");
        }

        assert_eq!(
            reference.params.weights.as_slice(),
            checkpoint.params.weights.as_slice(),
            "weights must be bitwise identical after checkpoint-resume"
        );
        assert_eq!(reference.params, checkpoint.params);
        assert_eq!(reference.velocity_w, checkpoint.velocity_w);
        assert_eq!(reference.velocity_a, checkpoint.velocity_a);
        assert_eq!(reference.velocity_b, checkpoint.velocity_b);
    }

    #[test]
    fn interrupted_resume_is_bitwise_identical_sls() {
        let source = bernoulli_source(30, 6, 7, 12);
        let supervision = leading_supervision(14, 30);
        let sls = SlsConfig::paper_rbm();
        let reference = straight_run(ModelKind::SlsRbm, &source, Some((&supervision, &sls)), 2);
        assert!(reference.is_complete());

        let mut checkpoint = TrainCheckpoint::fresh(
            ModelKind::SlsRbm,
            source.n_features(),
            5,
            quick_config(2),
            99,
        )
        .unwrap();
        let trainer = StreamTrainer::new().with_parallel(ParallelPolicy::serial());
        let mut guard = 0;
        while !checkpoint.is_complete() {
            trainer
                .advance(
                    &mut checkpoint,
                    &source,
                    &FittedPreprocessor::Identity,
                    Some((&supervision, &sls)),
                    StreamLimit::Chunks(2),
                )
                .unwrap();
            checkpoint = TrainCheckpoint::from_json(&checkpoint.to_json_pretty().unwrap()).unwrap();
            guard += 1;
            assert!(guard < 100, "run did not converge to completion");
        }

        assert_eq!(
            reference.params.weights.as_slice(),
            checkpoint.params.weights.as_slice(),
            "sls weights must be bitwise identical after checkpoint-resume"
        );
        assert_eq!(reference.params, checkpoint.params);
    }

    #[test]
    fn streaming_is_invariant_to_parallel_policy() {
        let source = bernoulli_source(26, 6, 9, 13);
        let serial = straight_run(ModelKind::Grbm, &source, None, 2);
        for threads in [2, 4] {
            let policy = ParallelPolicy::eager(threads);
            let mut checkpoint = TrainCheckpoint::fresh(
                ModelKind::Grbm,
                source.n_features(),
                5,
                quick_config(2),
                99,
            )
            .unwrap();
            StreamTrainer::new()
                .with_parallel(policy)
                .advance(
                    &mut checkpoint,
                    &source,
                    &FittedPreprocessor::Identity,
                    None,
                    StreamLimit::ToCompletion,
                )
                .unwrap();
            assert_eq!(
                serial.params.weights.as_slice(),
                checkpoint.params.weights.as_slice(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cursor_rolls_over_at_epoch_boundaries() {
        let source = bernoulli_source(20, 5, 6, 14); // 4 chunks
        let mut checkpoint =
            TrainCheckpoint::fresh(ModelKind::Rbm, 5, 4, quick_config(2), 1).unwrap();
        let trainer = StreamTrainer::new().with_parallel(ParallelPolicy::serial());
        let pre = FittedPreprocessor::Identity;

        let h = trainer
            .advance(&mut checkpoint, &source, &pre, None, StreamLimit::Chunks(3))
            .unwrap();
        assert_eq!((checkpoint.epochs_done, checkpoint.chunks_done), (0, 3));
        assert!(h.epochs.is_empty(), "no epoch completed yet");

        let h = trainer
            .advance(&mut checkpoint, &source, &pre, None, StreamLimit::Chunks(1))
            .unwrap();
        assert_eq!((checkpoint.epochs_done, checkpoint.chunks_done), (1, 0));
        assert_eq!(h.epochs.len(), 1);
        assert_eq!(h.epochs[0].epoch, 0);

        let h = trainer
            .advance(&mut checkpoint, &source, &pre, None, StreamLimit::Epochs(1))
            .unwrap();
        assert_eq!((checkpoint.epochs_done, checkpoint.chunks_done), (2, 0));
        assert_eq!(h.epochs.len(), 1);
        assert!(checkpoint.is_complete());

        // Advancing a complete run is a no-op.
        let h = trainer
            .advance(
                &mut checkpoint,
                &source,
                &pre,
                None,
                StreamLimit::ToCompletion,
            )
            .unwrap();
        assert!(h.epochs.is_empty());
        assert_eq!((checkpoint.epochs_done, checkpoint.chunks_done), (2, 0));
    }

    #[test]
    fn unset_source_is_not_serialized_and_loads_as_none() {
        let checkpoint = TrainCheckpoint::fresh(ModelKind::Rbm, 4, 3, quick_config(1), 5).unwrap();
        let json = checkpoint.to_json_pretty().unwrap();
        assert!(
            !json.contains("\"source\""),
            "unset provenance must not be written"
        );
        let back = TrainCheckpoint::from_json(&json).unwrap();
        assert_eq!(back, checkpoint);
        assert_eq!(back.source, None);

        let tagged = checkpoint.with_source(Some("retrain --epochs 1".into()));
        let json = tagged.to_json_pretty().unwrap();
        assert!(json.contains("retrain --epochs 1"));
        let back = TrainCheckpoint::from_json(&json).unwrap();
        assert_eq!(back.source.as_deref(), Some("retrain --epochs 1"));
    }

    #[test]
    fn large_seeds_round_trip_through_json() {
        let checkpoint =
            TrainCheckpoint::fresh(ModelKind::Rbm, 3, 2, quick_config(1), u64::MAX).unwrap();
        let back = TrainCheckpoint::from_json(&checkpoint.to_json_pretty().unwrap()).unwrap();
        assert_eq!(back.base_seed, u64::MAX);
    }

    #[test]
    fn newer_schema_version_is_rejected() {
        let checkpoint = TrainCheckpoint::fresh(ModelKind::Rbm, 4, 3, quick_config(1), 5).unwrap();
        let json = checkpoint
            .to_json_pretty()
            .unwrap()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        match TrainCheckpoint::from_json(&json) {
            Err(RbmError::UnsupportedSchemaVersion { found, supported }) => {
                assert_eq!(found, 999);
                assert_eq!(supported, CHECKPOINT_SCHEMA_VERSION);
            }
            other => panic!("expected UnsupportedSchemaVersion, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sls_core_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.json");
        let checkpoint = TrainCheckpoint::fresh(ModelKind::Grbm, 4, 3, quick_config(1), 5)
            .unwrap()
            .with_source(Some("unit test".into()));
        checkpoint.save(&path).unwrap();
        let back = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(back, checkpoint);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sls_kind_without_supervision_is_rejected() {
        let source = bernoulli_source(10, 4, 5, 15);
        let mut checkpoint =
            TrainCheckpoint::fresh(ModelKind::SlsRbm, 4, 3, quick_config(1), 5).unwrap();
        let err = StreamTrainer::new()
            .advance(
                &mut checkpoint,
                &source,
                &FittedPreprocessor::Identity,
                None,
                StreamLimit::ToCompletion,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            RbmError::InvalidConfig {
                name: "supervision",
                ..
            }
        ));
    }

    #[test]
    fn non_sls_kind_with_supervision_is_rejected() {
        let source = bernoulli_source(10, 4, 5, 16);
        let supervision = leading_supervision(8, 10);
        let sls = SlsConfig::default();
        let mut checkpoint =
            TrainCheckpoint::fresh(ModelKind::Rbm, 4, 3, quick_config(1), 5).unwrap();
        let err = StreamTrainer::new()
            .advance(
                &mut checkpoint,
                &source,
                &FittedPreprocessor::Identity,
                Some((&supervision, &sls)),
                StreamLimit::ToCompletion,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            RbmError::InvalidConfig {
                name: "supervision",
                ..
            }
        ));
    }

    #[test]
    fn supervision_beyond_the_stream_is_rejected() {
        let source = bernoulli_source(10, 4, 5, 17);
        let supervision = leading_supervision(12, 12); // covers indices up to 11
        let sls = SlsConfig::default();
        let mut checkpoint =
            TrainCheckpoint::fresh(ModelKind::SlsRbm, 4, 3, quick_config(1), 5).unwrap();
        let err = StreamTrainer::new()
            .advance(
                &mut checkpoint,
                &source,
                &FittedPreprocessor::Identity,
                Some((&supervision, &sls)),
                StreamLimit::ToCompletion,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            RbmError::SupervisionOutOfRange {
                index: 11,
                instances: 10
            }
        ));
    }

    #[test]
    fn chunk_seeds_are_distinct_across_epochs_and_chunks() {
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..16 {
            for chunk in 0..64 {
                assert!(seen.insert(chunk_seed(42, epoch, chunk)));
            }
        }
        assert_ne!(init_seed(42), chunk_seed(42, 0, 0));
    }

    #[test]
    fn non_finite_values_are_rejected_at_load() {
        // `1e400` parses to infinity; neither parameters nor momentum may
        // carry one into a resumed run.
        let poisoned = |edit: &dyn Fn(&mut TrainCheckpoint)| {
            let mut checkpoint =
                TrainCheckpoint::fresh(ModelKind::Rbm, 4, 3, quick_config(1), 5).unwrap();
            edit(&mut checkpoint);
            let json = checkpoint.to_json_pretty().unwrap();
            assert!(json.contains("12345.5"));
            TrainCheckpoint::from_json(&json.replace("12345.5", "1e400"))
        };
        assert!(matches!(
            poisoned(&|c| c.params.hidden_bias[1] = 12345.5),
            Err(RbmError::InvalidConfig { name: "params", .. })
        ));
        assert!(matches!(
            poisoned(&|c| c.velocity_w[(2, 0)] = 12345.5),
            Err(RbmError::InvalidConfig {
                name: "checkpoint",
                ..
            })
        ));
    }

    #[test]
    fn velocity_shape_mismatch_is_rejected() {
        let mut checkpoint =
            TrainCheckpoint::fresh(ModelKind::Rbm, 4, 3, quick_config(1), 5).unwrap();
        checkpoint.velocity_a = vec![0.0; 2];
        assert!(matches!(
            checkpoint.check_consistent(),
            Err(RbmError::InvalidConfig {
                name: "checkpoint",
                ..
            })
        ));
    }
}
