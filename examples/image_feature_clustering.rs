//! Domain scenario 1: unsupervised clustering of high-dimensional image
//! features (the paper's MSRA-MM 2.0 use case, Section V-C).
//!
//! The example reproduces, for a single dataset (Birthdaycake), the paper's
//! three-way comparison: conventional clustering on the raw image features,
//! clustering on plain GRBM hidden features, and clustering on slsGRBM hidden
//! features guided by multi-clustering integration.
//!
//! ```text
//! cargo run --release --example image_feature_clustering
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_rbm::clustering::{Clusterer, DensityPeaks, KMeans};
use sls_rbm::consensus::{LocalSupervisionBuilder, VotingPolicy};
use sls_rbm::datasets::{generate_msra_dataset, standardize_columns, MsraDatasetId};
use sls_rbm::linalg::Matrix;
use sls_rbm::metrics::EvaluationReport;
use sls_rbm::rbm::{CdTrainer, Rbm, SlsConfig, TrainConfig, VisibleKind};

/// Keep the example fast: a 300 x 128 slice of the full 932 x 892 dataset,
/// sampled with a column stride so the informative/irrelevant mix of the
/// original is preserved.
fn load_slice() -> (Matrix, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let ds = generate_msra_dataset(MsraDatasetId::Birthdaycake, &mut rng);
    let (n, d, total) = (300, 128, ds.n_features());
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| ds.features()[(i, j * total / d)]).collect())
        .collect();
    let features = standardize_columns(&Matrix::from_rows(&rows).unwrap()).unwrap();
    (features, ds.labels()[..n].to_vec())
}

fn evaluate(name: &str, labels: &[usize], truth: &[usize]) {
    let report = EvaluationReport::evaluate(labels, truth).expect("evaluation");
    println!(
        "{:<26}{:>10.4}{:>10.4}{:>10.4}",
        name, report.accuracy, report.purity, report.fmi
    );
}

fn main() {
    let (data, truth) = load_slice();
    let k = 3;
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    println!(
        "Birthdaycake (BC) slice: {} instances x {} features, {k} classes\n",
        data.rows(),
        data.cols()
    );
    println!(
        "{:<26}{:>10}{:>10}{:>10}",
        "pipeline", "accuracy", "purity", "FMI"
    );

    // --- conventional clustering on raw features ---------------------------
    let dp_raw = DensityPeaks::new(k).fit(&data).expect("DP").assignment;
    let km_raw = KMeans::new(k)
        .fit(&data, &mut rng)
        .expect("K-means")
        .assignment;
    evaluate("DP (raw)", dp_raw.labels(), &truth);
    evaluate("K-means (raw)", km_raw.labels(), &truth);

    // --- plain GRBM hidden features -----------------------------------------
    let train = TrainConfig::default()
        .with_learning_rate(5e-3)
        .with_epochs(15);
    let trainer = CdTrainer::new(train).expect("valid training config");
    let mut grbm = Rbm::new(VisibleKind::Gaussian, data.cols(), 32, &mut rng);
    trainer
        .train(&mut grbm, &data, None, &mut rng)
        .expect("CD training");
    let grbm_features = grbm.hidden_probabilities(&data).expect("features");
    let km_grbm = KMeans::new(k)
        .fit(&grbm_features, &mut rng)
        .expect("K-means")
        .assignment;
    evaluate("K-means + GRBM", km_grbm.labels(), &truth);

    // --- slsGRBM: multi-clustering integration as supervision ---------------
    let ap_raw = sls_rbm::clustering::AffinityPropagation::default()
        .with_target_clusters(k)
        .cluster(&data, &mut rng)
        .expect("AP");
    let partitions = vec![
        dp_raw.labels().to_vec(),
        km_raw.labels().to_vec(),
        ap_raw.labels().to_vec(),
    ];
    let supervision = LocalSupervisionBuilder::new(k)
        .with_policy(VotingPolicy::Unanimous)
        .build_from_partitions(&partitions)
        .expect("unanimous voting supervision");
    println!(
        "\nself-learning local supervision: {} clusters, {:.0}% coverage\n",
        supervision.n_clusters(),
        supervision.summary().coverage * 100.0
    );

    let mut sls = Rbm::new(VisibleKind::Gaussian, data.cols(), 32, &mut rng);
    let sls_config = SlsConfig::paper_grbm().with_supervision_learning_rate(0.2);
    trainer
        .train(&mut sls, &data, Some((&supervision, &sls_config)), &mut rng)
        .expect("sls training");
    let sls_features = sls.hidden_probabilities(&data).expect("features");
    let km_sls = KMeans::new(k)
        .fit(&sls_features, &mut rng)
        .expect("K-means")
        .assignment;
    let dp_sls = DensityPeaks::new(k)
        .fit(&sls_features)
        .expect("DP")
        .assignment;
    println!(
        "{:<26}{:>10}{:>10}{:>10}",
        "pipeline", "accuracy", "purity", "FMI"
    );
    evaluate("K-means + slsGRBM", km_sls.labels(), &truth);
    evaluate("DP + slsGRBM", dp_sls.labels(), &truth);
}
