//! Bit-level fingerprints of every training entry point.
//!
//! Each test trains with fixed seeds and hashes the IEEE-754 bits of the
//! resulting parameters (and, for the streamed runs, the weight momentum),
//! and, where a run returns its history, of every epoch's reconstruction
//! error.
//! The constants pin the exact floating-point results across refactors of
//! the training code: any change to the order or grouping of the update
//! arithmetic changes a hash. A deliberate numerical change must update the
//! constants and say why.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_consensus::{LocalSupervision, VotingPolicy};
use sls_datasets::{InMemoryChunks, SyntheticBlobs};
use sls_linalg::{Matrix, MatrixRandomExt, ParallelPolicy};
use sls_rbm_core::{
    CdTrainer, FittedPreprocessor, ModelKind, PipelineArtifact, Rbm, RbmParams, SlsConfig,
    SlsPipelineConfig, StreamLimit, StreamTrainer, TrainCheckpoint, TrainConfig, TrainingHistory,
    VisibleKind,
};

/// FNV-1a over the bit patterns of `values`, folded into `hash`.
fn fold(hash: u64, values: &[f64]) -> u64 {
    values.iter().fold(hash, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn params_hash(params: &RbmParams) -> u64 {
    let h = fold(FNV_OFFSET, params.weights.as_slice());
    let h = fold(h, &params.visible_bias);
    fold(h, &params.hidden_bias)
}

fn errors_hash(history: &TrainingHistory) -> u64 {
    let errors: Vec<f64> = history
        .epochs
        .iter()
        .map(|e| e.reconstruction_error)
        .collect();
    fold(FNV_OFFSET, &errors)
}

fn checkpoint_hash(checkpoint: &TrainCheckpoint) -> u64 {
    fold(
        params_hash(&checkpoint.params),
        checkpoint.velocity_w.as_slice(),
    )
}

/// Consensus covering the first `per_class` instances of each label.
fn partial_supervision(labels: &[usize], per_class: usize) -> LocalSupervision {
    let mut seen = std::collections::BTreeMap::new();
    let consensus: Vec<Option<usize>> = labels
        .iter()
        .map(|&l| {
            let count = seen.entry(l).or_insert(0usize);
            *count += 1;
            (*count <= per_class).then_some(l)
        })
        .collect();
    LocalSupervision::from_consensus(&consensus, VotingPolicy::Unanimous).unwrap()
}

fn fit_hash(kind: ModelKind) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let ds = SyntheticBlobs::new(60, 6, 3)
        .separation(5.0)
        .generate(&mut rng);
    let config = SlsPipelineConfig::quick_demo();
    let fitted = PipelineArtifact::fit(kind, config, ds.features(), &mut rng).unwrap();
    params_hash(&fitted.artifact.params)
}

/// Hashes of the streamed run's checkpoint and of its epoch errors.
fn streamed_hash(kind: ModelKind) -> (u64, u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let ds = SyntheticBlobs::new(70, 5, 2)
        .separation(4.0)
        .generate(&mut rng);
    let preprocessor =
        FittedPreprocessor::fit(sls_rbm_core::Preprocessing::Standardize, ds.features()).unwrap();
    let source = InMemoryChunks::new(ds.features().clone(), 16, "fingerprint").unwrap();
    let supervision = partial_supervision(ds.labels(), 12);
    let sls = SlsConfig::new(0.5);
    let config = TrainConfig::quick()
        .with_epochs(3)
        .with_batch_size(6)
        .with_learning_rate(0.02);
    let mut checkpoint = TrainCheckpoint::fresh(kind, 5, 4, config, 77).unwrap();
    let history = StreamTrainer::new()
        .with_parallel(ParallelPolicy::serial())
        .advance(
            &mut checkpoint,
            &source,
            &preprocessor,
            kind.is_sls().then_some((&supervision, &sls)),
            StreamLimit::ToCompletion,
        )
        .unwrap();
    assert!(checkpoint.is_complete());
    (checkpoint_hash(&checkpoint), errors_hash(&history))
}

#[test]
fn pipeline_fit_fingerprints() {
    assert_eq!(fit_hash(ModelKind::Rbm), 119_364_244_168_902_949, "rbm");
    assert_eq!(fit_hash(ModelKind::Grbm), 8_558_510_090_904_997_142, "grbm");
    assert_eq!(
        fit_hash(ModelKind::SlsRbm),
        4_288_543_363_337_633_044,
        "sls-rbm"
    );
    assert_eq!(
        fit_hash(ModelKind::SlsGrbm),
        10_281_079_398_422_914_240,
        "sls-grbm"
    );
}

#[test]
fn cd_trainer_rbm_fingerprint() {
    let mut rng = ChaCha8Rng::seed_from_u64(51);
    let data = Matrix::random_bernoulli(45, 8, 0.4, &mut rng);
    let mut rbm = Rbm::new(VisibleKind::Binary, 8, 5, &mut rng);
    let history = CdTrainer::new(TrainConfig::quick().with_epochs(6).with_batch_size(7))
        .unwrap()
        .with_parallel(ParallelPolicy::serial())
        .train(&mut rbm, &data, None, &mut rng)
        .unwrap();
    assert_eq!(params_hash(rbm.params()), 5_123_345_410_641_934_936);
    assert_eq!(errors_hash(&history), 8_512_356_886_271_593_664, "errors");
}

#[test]
fn sls_trainer_grbm_fingerprint() {
    let mut rng = ChaCha8Rng::seed_from_u64(61);
    let ds = SyntheticBlobs::new(54, 6, 3)
        .separation(4.0)
        .generate(&mut rng);
    let supervision = partial_supervision(ds.labels(), 7);
    let mut grbm = Rbm::new(VisibleKind::Gaussian, 6, 5, &mut rng);
    let config = TrainConfig::quick()
        .with_epochs(5)
        .with_batch_size(8)
        .with_learning_rate(0.01);
    let sls = SlsConfig::new(0.4).with_supervision_learning_rate(0.05);
    let history = CdTrainer::new(config)
        .unwrap()
        .with_parallel(ParallelPolicy::serial())
        .train(
            &mut grbm,
            ds.features(),
            Some((&supervision, &sls)),
            &mut rng,
        )
        .unwrap();
    assert_eq!(params_hash(grbm.params()), 9_865_825_524_790_905_534);
    assert_eq!(errors_hash(&history), 660_897_287_424_656_200, "errors");
}

#[test]
fn stream_trainer_grbm_fingerprint() {
    let (checkpoint, errors) = streamed_hash(ModelKind::Grbm);
    assert_eq!(checkpoint, 5_859_157_114_484_407_816);
    assert_eq!(errors, 9_171_696_897_305_092_117, "errors");
}

#[test]
fn stream_trainer_sls_grbm_fingerprint() {
    let (checkpoint, errors) = streamed_hash(ModelKind::SlsGrbm);
    assert_eq!(checkpoint, 16_972_758_440_033_795_024);
    assert_eq!(errors, 16_414_869_806_169_133_395, "errors");
}
