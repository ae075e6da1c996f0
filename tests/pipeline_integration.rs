//! Cross-crate integration tests: datasets → clustering → consensus → core
//! models → metrics, exercised through the umbrella crate exactly the way a
//! downstream user would.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_rbm::clustering::{AffinityPropagation, Clusterer, DensityPeaks, KMeans};
use sls_rbm::consensus::{LocalSupervisionBuilder, VotingPolicy};
use sls_rbm::datasets::{binarize_median, standardize_columns, SyntheticBlobs};
use sls_rbm::metrics::{clustering_accuracy, EvaluationReport};
use sls_rbm::rbm::{
    run_pipeline, CdTrainer, ModelKind, PipelineArtifact, Preprocessing, Rbm, SlsConfig,
    SlsPipelineConfig, TrainConfig, VisibleKind,
};

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

#[test]
fn full_gaussian_stack_improves_or_matches_raw_clustering() {
    let mut r = rng(1);
    let ds = SyntheticBlobs::new(120, 10, 3)
        .separation(4.0)
        .irrelevant_fraction(0.3)
        .generate(&mut r);
    let data = standardize_columns(ds.features()).unwrap();

    // Base clusterings.
    let clusterers: Vec<Box<dyn Clusterer>> = vec![
        Box::new(DensityPeaks::new(3)),
        Box::new(KMeans::new(3)),
        Box::new(AffinityPropagation::default().with_target_clusters(3)),
    ];
    let partitions: Vec<Vec<usize>> = clusterers
        .iter()
        .map(|c| c.cluster(&data, &mut r).unwrap().labels().to_vec())
        .collect();
    let raw_accuracy = clustering_accuracy(&partitions[1], ds.labels()).unwrap();

    // Supervision and sls training.
    let supervision = LocalSupervisionBuilder::new(3)
        .with_policy(VotingPolicy::Unanimous)
        .build_from_partitions(&partitions)
        .unwrap();
    assert!(supervision.summary().coverage > 0.3);

    // Paper-style single learning rate: the supervision gradient reuses the
    // CD rate ε. An oversized dedicated supervision rate distorts the hidden
    // features on data this separable instead of regularising them.
    let train = TrainConfig::default()
        .with_learning_rate(5e-3)
        .with_epochs(30);
    let sls_config = SlsConfig::paper_grbm();
    let mut model = Rbm::new(VisibleKind::Gaussian, data.cols(), 24, &mut r);
    CdTrainer::new(train)
        .unwrap()
        .train(&mut model, &data, Some((&supervision, &sls_config)), &mut r)
        .unwrap();
    let hidden = model.hidden_probabilities(&data).unwrap();
    let assignment = KMeans::new(3).fit(&hidden, &mut r).unwrap().assignment;
    let sls_accuracy = clustering_accuracy(assignment.labels(), ds.labels()).unwrap();

    // The sls features must not destroy the structure; on this moderately
    // separable dataset they should be at least close to the raw clustering.
    assert!(
        sls_accuracy + 0.05 >= raw_accuracy,
        "sls accuracy {sls_accuracy} much worse than raw {raw_accuracy}"
    );
    assert!(hidden.is_finite());
}

#[test]
fn full_binary_stack_runs_and_evaluates() {
    let mut r = rng(2);
    let ds = SyntheticBlobs::new(100, 12, 2)
        .separation(2.5)
        .generate(&mut r);
    let data = binarize_median(ds.features());

    let partitions: Vec<Vec<usize>> = (0..3)
        .map(|seed| {
            KMeans::new(2)
                .fit(&data, &mut rng(seed))
                .unwrap()
                .assignment
                .labels()
                .to_vec()
        })
        .collect();
    let supervision = LocalSupervisionBuilder::new(2)
        .build_from_partitions(&partitions)
        .unwrap();

    let mut model = Rbm::new(VisibleKind::Binary, data.cols(), 8, &mut r);
    let train = TrainConfig::default()
        .with_learning_rate(0.05)
        .with_epochs(10);
    let history = CdTrainer::new(train)
        .unwrap()
        .train(
            &mut model,
            &data,
            Some((&supervision, &SlsConfig::paper_rbm())),
            &mut r,
        )
        .unwrap();
    assert_eq!(history.epochs.len(), 10);
    let hidden = model.hidden_probabilities(&data).unwrap();
    let report = EvaluationReport::evaluate(
        KMeans::new(2)
            .fit(&hidden, &mut r)
            .unwrap()
            .assignment
            .labels(),
        ds.labels(),
    )
    .unwrap();
    assert!(report.accuracy >= 0.5);
    assert!(report.rand_index > 0.0);
}

#[test]
fn sls_pipeline_and_baseline_pipeline_share_preprocessing() {
    let mut r = rng(3);
    let ds = SyntheticBlobs::new(80, 8, 3)
        .separation(5.0)
        .generate(&mut r);
    let config = SlsPipelineConfig::quick_demo().with_hidden(10);
    let sls = run_pipeline(ModelKind::SlsGrbm, &config, ds.features(), &mut rng(7)).unwrap();
    let baseline = run_pipeline(ModelKind::Grbm, &config, ds.features(), &mut rng(7)).unwrap();
    // Preprocessing is deterministic, so both pipelines must see the same
    // standardised matrix.
    assert!(sls.preprocessed.approx_eq(&baseline.preprocessed, 1e-12));
    assert!(sls.supervision.is_some());
    assert!(baseline.supervision.is_none());
    assert_eq!(sls.hidden_features.cols(), 10);
    assert_eq!(baseline.hidden_features.cols(), 10);
}

#[test]
fn binary_pipeline_binarizes_before_training() {
    let mut r = rng(4);
    let ds = SyntheticBlobs::new(70, 6, 2)
        .separation(4.0)
        .generate(&mut r);
    let config = SlsPipelineConfig::quick_demo()
        .with_clusters(2)
        .with_hidden(6)
        .with_preprocessing(Preprocessing::BinarizeMedian);
    let outcome = run_pipeline(ModelKind::SlsRbm, &config, ds.features(), &mut r).unwrap();
    assert!(outcome
        .preprocessed
        .as_slice()
        .iter()
        .all(|&x| x == 0.0 || x == 1.0));
    assert_eq!(outcome.hidden_features.rows(), 70);
}

#[test]
fn trained_baselines_are_reusable_across_crates() {
    // Train a plain RBM and a plain GRBM through the core crate and verify
    // the features they produce are consumable by the clustering and metrics
    // crates without further glue.
    let mut r = rng(5);
    let ds = SyntheticBlobs::new(60, 6, 2)
        .separation(5.0)
        .generate(&mut r);

    let binary = binarize_median(ds.features());
    let mut rbm = Rbm::new(VisibleKind::Binary, 6, 4, &mut r);
    CdTrainer::new(TrainConfig::quick())
        .unwrap()
        .train(&mut rbm, &binary, None, &mut r)
        .unwrap();
    let rbm_features = rbm.hidden_probabilities(&binary).unwrap();

    let continuous = standardize_columns(ds.features()).unwrap();
    let mut grbm = Rbm::new(VisibleKind::Gaussian, 6, 4, &mut r);
    CdTrainer::new(TrainConfig::quick().with_learning_rate(0.01))
        .unwrap()
        .train(&mut grbm, &continuous, None, &mut r)
        .unwrap();
    let grbm_features = grbm.hidden_probabilities(&continuous).unwrap();

    for features in [rbm_features, grbm_features] {
        let assignment = KMeans::new(2).fit(&features, &mut r).unwrap().assignment;
        let report = EvaluationReport::evaluate(assignment.labels(), ds.labels()).unwrap();
        assert!((0.0..=1.0).contains(&report.accuracy));
    }
}

#[test]
fn model_persistence_round_trips_through_the_umbrella_crate() {
    let mut r = rng(6);
    let model = Rbm::new(VisibleKind::Gaussian, 9, 5, &mut r);
    let dir = std::env::temp_dir().join("sls_rbm_integration_io");
    let path = dir.join("model.json");
    PipelineArtifact::from_params(model.params().clone(), ModelKind::Grbm)
        .save(&path)
        .unwrap();
    let reloaded = Rbm::from_params(
        VisibleKind::Gaussian,
        PipelineArtifact::load(&path).unwrap().params,
    );
    assert_eq!(reloaded.params(), model.params());
    std::fs::remove_dir_all(&dir).ok();
}
