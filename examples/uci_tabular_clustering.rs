//! Domain scenario 2: unsupervised clustering of binary-encoded tabular data
//! (the paper's UCI use case, Section V-D), using the slsRBM pipeline and the
//! deterministic Iris stand-in.
//!
//! ```text
//! cargo run --release --example uci_tabular_clustering
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_rbm::clustering::KMeans;
use sls_rbm::consensus::VotingPolicy;
use sls_rbm::datasets::{generate_uci_dataset, UciDatasetId};
use sls_rbm::metrics::EvaluationReport;
use sls_rbm::rbm::{run_pipeline, ModelKind, Preprocessing, SlsPipelineConfig, TrainConfig};

fn evaluate(name: &str, features: &sls_rbm::linalg::Matrix, truth: &[usize], k: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let assignment = KMeans::new(k)
        .fit(features, &mut rng)
        .expect("k-means")
        .assignment;
    let report = EvaluationReport::evaluate(assignment.labels(), truth).expect("evaluation");
    println!(
        "{:<28}{:>10.4}{:>12.4}{:>10.4}",
        name, report.accuracy, report.rand_index, report.fmi
    );
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    println!(
        "{:<10}{:<28}{:>10}{:>12}{:>10}",
        "dataset", "pipeline", "accuracy", "Rand", "FMI"
    );

    for id in [UciDatasetId::Iris, UciDatasetId::BreastCancerWisconsin] {
        let ds = generate_uci_dataset(id, &mut rng);
        let k = ds.n_classes();
        println!("{}", ds.spec().summary());

        // Shared configuration: binary-visible models on median-binarised
        // features, k clusters, a fast training schedule.
        let config = SlsPipelineConfig::paper_rbm(k)
            .with_hidden(16)
            .with_train(
                TrainConfig::default()
                    .with_learning_rate(0.05)
                    .with_epochs(15)
                    .with_batch_size(32),
            )
            .with_voting(VotingPolicy::Unanimous)
            .with_preprocessing(Preprocessing::BinarizeMedian);

        // Raw binarised features (what the conventional clusterers see).
        let baseline =
            run_pipeline(ModelKind::Rbm, &config, ds.features(), &mut rng).expect("RBM pipeline");
        evaluate(
            "raw (binarised) + K-means",
            &baseline.preprocessed,
            ds.labels(),
            k,
        );
        evaluate(
            "RBM features + K-means",
            &baseline.hidden_features,
            ds.labels(),
            k,
        );

        // Full slsRBM pipeline (supervision + constrict/disperse training).
        let sls = run_pipeline(ModelKind::SlsRbm, &config, ds.features(), &mut rng)
            .expect("slsRBM pipeline");
        evaluate(
            "slsRBM features + K-means",
            &sls.hidden_features,
            ds.labels(),
            k,
        );
        if let Some(summary) = sls.supervision {
            println!(
                "    (supervision: {} local clusters, {:.0}% coverage)\n",
                summary.n_clusters,
                summary.coverage * 100.0
            );
        }
    }
}
