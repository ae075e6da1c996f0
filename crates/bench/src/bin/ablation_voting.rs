//! Ablation A2: unanimous voting (the paper's strategy) vs majority voting
//! vs a single clusterer as the source of the local supervision.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_bench::ExperimentScale;
use sls_clustering::{AffinityPropagation, Clusterer, DensityPeaks, KMeans};
use sls_consensus::{LocalSupervisionBuilder, VotingPolicy};
use sls_datasets::{generate_msra_dataset, standardize_columns, MsraDatasetId};
use sls_metrics::clustering_accuracy;
use sls_rbm_core::{CdTrainer, Rbm, SlsConfig, TrainConfig, VisibleKind};

fn main() {
    let scale = ExperimentScale::from_env();
    let cap = scale.max_instances().unwrap_or(300);
    let fcap = scale.max_features().unwrap_or(128);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let ds = generate_msra_dataset(MsraDatasetId::Vista, &mut rng);
    let rows: Vec<Vec<f64>> = (0..cap.min(ds.n_instances()))
        .map(|i| ds.features().row(i)[..fcap.min(ds.n_features())].to_vec())
        .collect();
    let data = standardize_columns(&sls_linalg::Matrix::from_rows(&rows).unwrap()).unwrap();
    let labels = &ds.labels()[..data.rows()];

    let clusterers: Vec<Box<dyn Clusterer>> = vec![
        Box::new(DensityPeaks::new(3)),
        Box::new(KMeans::new(3)),
        Box::new(AffinityPropagation::default().with_target_clusters(3)),
    ];
    let partitions: Vec<Vec<usize>> = clusterers
        .iter()
        .map(|c| c.cluster(&data, &mut rng).unwrap().labels().to_vec())
        .collect();

    println!("Ablation A2: voting policy vs supervision quality and final accuracy");
    println!(
        "{:<22}{:>10}{:>12}{:>12}",
        "policy", "coverage", "purity", "accuracy"
    );
    let policies = [
        ("unanimous (paper)", VotingPolicy::Unanimous),
        ("majority", VotingPolicy::Majority),
        ("single: DP", VotingPolicy::Single(0)),
        ("single: K-means", VotingPolicy::Single(1)),
        ("single: AP", VotingPolicy::Single(2)),
    ];
    for (name, policy) in policies {
        let supervision = LocalSupervisionBuilder::new(3)
            .with_policy(policy)
            .build_from_partitions(&partitions)
            .unwrap();
        let summary = supervision.summary();
        // Purity of the supervision itself w.r.t. the hidden ground truth.
        let mut covered_pred = Vec::new();
        let mut covered_truth = Vec::new();
        for (cluster, members) in supervision.clusters().iter().enumerate() {
            for &i in members {
                covered_pred.push(cluster);
                covered_truth.push(labels[i]);
            }
        }
        let supervision_purity = sls_metrics::purity(&covered_pred, &covered_truth).unwrap();

        let mut model = Rbm::new(
            VisibleKind::Gaussian,
            data.cols(),
            32,
            &mut ChaCha8Rng::seed_from_u64(11),
        );
        let train = TrainConfig::default()
            .with_learning_rate(5e-3)
            .with_epochs(15);
        CdTrainer::new(train)
            .unwrap()
            .train(
                &mut model,
                &data,
                Some((&supervision, &SlsConfig::paper_grbm())),
                &mut ChaCha8Rng::seed_from_u64(2),
            )
            .unwrap();
        let hidden = model.hidden_probabilities(&data).unwrap();
        let assignment = KMeans::new(3)
            .fit(&hidden, &mut ChaCha8Rng::seed_from_u64(5))
            .unwrap()
            .assignment;
        let acc = clustering_accuracy(assignment.labels(), labels).unwrap();
        println!(
            "{name:<22}{:>10.3}{supervision_purity:>12.4}{acc:>12.4}",
            summary.coverage
        );
    }
}
