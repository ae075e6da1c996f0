//! Domain scenario 3: train once, persist the model, reload it later for
//! feature extraction — the workflow a downstream application would use when
//! the encoder is trained offline and served elsewhere.
//!
//! ```text
//! cargo run --release --example model_persistence
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_rbm::consensus::{LocalSupervision, VotingPolicy};
use sls_rbm::datasets::{binarize_median, generate_uci_dataset, UciDatasetId};
use sls_rbm::rbm::{
    CdTrainer, ModelKind, PipelineArtifact, Rbm, SlsConfig, TrainConfig, VisibleKind,
};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let ds = generate_uci_dataset(UciDatasetId::SpectHeart, &mut rng);
    let data = binarize_median(ds.features());
    println!("training slsRBM on {}", ds.spec().summary());

    // Cheap supervision for the demo: three k-means restarts + unanimity.
    let partitions: Vec<Vec<usize>> = (0..3)
        .map(|seed| {
            sls_rbm::clustering::KMeans::new(2)
                .fit(&data, &mut ChaCha8Rng::seed_from_u64(seed))
                .expect("k-means")
                .assignment
                .labels()
                .to_vec()
        })
        .collect();
    let supervision = sls_rbm::consensus::LocalSupervisionBuilder::new(2)
        .with_policy(VotingPolicy::Unanimous)
        .build_from_partitions(&partitions)
        .expect("supervision");
    print_supervision(&supervision);

    let mut model = Rbm::new(VisibleKind::Binary, data.cols(), 12, &mut rng);
    let train = TrainConfig::default()
        .with_learning_rate(0.05)
        .with_epochs(10);
    let history = CdTrainer::new(train)
        .expect("valid training config")
        .train(
            &mut model,
            &data,
            Some((&supervision, &SlsConfig::paper_rbm())),
            &mut rng,
        )
        .expect("training");
    println!(
        "trained for {} epochs, reconstruction error {:.4} -> {:.4}",
        history.epochs.len(),
        history.initial_error().unwrap(),
        history.final_error().unwrap()
    );

    // Persist the parameters as an artifact and reload them into a fresh
    // model.
    let path = std::env::temp_dir().join("sls_rbm_example_model.json");
    PipelineArtifact::from_params(model.params().clone(), ModelKind::SlsRbm)
        .save(&path)
        .expect("save model");
    println!("model saved to {}", path.display());

    let reloaded = Rbm::from_params(
        VisibleKind::Binary,
        PipelineArtifact::load(&path).expect("load model").params,
    );
    let original_features = model.hidden_probabilities(&data).expect("features");
    let reloaded_features = reloaded.hidden_probabilities(&data).expect("features");
    assert!(original_features.approx_eq(&reloaded_features, 1e-12));
    println!(
        "reloaded model reproduces identical hidden features for {} instances x {} hidden units",
        reloaded_features.rows(),
        reloaded_features.cols()
    );
    std::fs::remove_file(&path).ok();
}

fn print_supervision(supervision: &LocalSupervision) {
    let summary = supervision.summary();
    println!(
        "supervision: {} local clusters, sizes {}..{}, coverage {:.0}%",
        summary.n_clusters,
        summary.min_cluster_size,
        summary.max_cluster_size,
        summary.coverage * 100.0
    );
}
