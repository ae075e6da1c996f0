//! Ablation A3: hidden-layer width sweep for the slsGRBM model.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_clustering::KMeans;
use sls_consensus::{LocalSupervisionBuilder, VotingPolicy};
use sls_datasets::{generate_msra_dataset, standardize_columns, MsraDatasetId};
use sls_metrics::clustering_accuracy;
use sls_rbm_core::{CdTrainer, Rbm, SlsConfig, TrainConfig, VisibleKind};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let ds = generate_msra_dataset(MsraDatasetId::Wallpaper, &mut rng);
    let rows: Vec<Vec<f64>> = (0..300.min(ds.n_instances()))
        .map(|i| ds.features().row(i)[..128].to_vec())
        .collect();
    let data = standardize_columns(&sls_linalg::Matrix::from_rows(&rows).unwrap()).unwrap();
    let labels = &ds.labels()[..data.rows()];

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

    println!("Ablation A3: k-means accuracy of slsGRBM hidden features vs hidden width");
    println!("{:>8} {:>10}", "hidden", "accuracy");
    for n_hidden in [8usize, 16, 32, 64, 128, 256] {
        let mut model = Rbm::new(
            VisibleKind::Gaussian,
            data.cols(),
            n_hidden,
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
                Some((&supervision, &SlsConfig::paper_grbm())),
                &mut ChaCha8Rng::seed_from_u64(3),
            )
            .unwrap();
        let hidden = model.hidden_probabilities(&data).unwrap();
        let assignment = KMeans::new(3)
            .fit(&hidden, &mut ChaCha8Rng::seed_from_u64(5))
            .unwrap()
            .assignment;
        let acc = clustering_accuracy(assignment.labels(), labels).unwrap();
        println!("{n_hidden:>8} {acc:>10.4}");
    }
}
