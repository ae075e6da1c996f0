//! Ablation A1: effect of the scale coefficient η (Eq. 16) on clustering
//! accuracy of the slsGRBM hidden features. η close to 1 recovers plain CD;
//! η close to 0 ignores the likelihood term entirely.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_clustering::KMeans;
use sls_consensus::{LocalSupervisionBuilder, VotingPolicy};
use sls_datasets::{generate_msra_dataset, standardize_columns, MsraDatasetId};
use sls_metrics::clustering_accuracy;
use sls_rbm_core::{CdTrainer, Rbm, SlsConfig, TrainConfig, VisibleKind};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let ds = generate_msra_dataset(MsraDatasetId::Birthdaycake, &mut rng);
    // Reduced-size slice keeps the sweep fast while preserving the trend.
    let rows: Vec<Vec<f64>> = (0..300.min(ds.n_instances()))
        .map(|i| ds.features().row(i)[..128].to_vec())
        .collect();
    let data = standardize_columns(&sls_linalg::Matrix::from_rows(&rows).unwrap()).unwrap();
    let labels = &ds.labels()[..data.rows()];

    // Base partitions once, reused for every eta.
    let base: Vec<Vec<usize>> = (0..3)
        .map(|seed| {
            KMeans::new(3)
                .fit(&data, &mut ChaCha8Rng::seed_from_u64(seed))
                .unwrap()
                .assignment
                .labels()
                .to_vec()
        })
        .collect();
    let supervision = LocalSupervisionBuilder::new(3)
        .with_policy(VotingPolicy::Unanimous)
        .build_from_partitions(&base)
        .unwrap();

    println!("Ablation A1: k-means accuracy of slsGRBM hidden features vs eta");
    println!("{:>6} {:>10}", "eta", "accuracy");
    for eta in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
        let mut model = Rbm::new(
            VisibleKind::Gaussian,
            data.cols(),
            32,
            &mut ChaCha8Rng::seed_from_u64(99),
        );
        let train = TrainConfig::default()
            .with_learning_rate(5e-3)
            .with_epochs(15);
        CdTrainer::new(train)
            .unwrap()
            .train(
                &mut model,
                &data,
                Some((&supervision, &SlsConfig::new(eta))),
                &mut ChaCha8Rng::seed_from_u64(3),
            )
            .unwrap();
        let hidden = model.hidden_probabilities(&data).unwrap();
        let assignment = KMeans::new(3)
            .fit(&hidden, &mut ChaCha8Rng::seed_from_u64(5))
            .unwrap()
            .assignment;
        let acc = clustering_accuracy(assignment.labels(), labels).unwrap();
        println!("{eta:>6.1} {acc:>10.4}");
    }
}
