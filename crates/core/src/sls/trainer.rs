//! The supervision side of [`crate::CdTrainer`]: how a guided mini-batch
//! finds the local clusters among its rows. The tests here train the
//! paper's slsRBM / slsGRBM through the one trainer.

/// Groups the positions of `chunk` (batch row indices) by local cluster.
pub(crate) fn clusters_in_batch(
    chunk: &[usize],
    membership: &[Option<usize>],
    n_clusters: usize,
) -> Vec<Vec<usize>> {
    let mut clusters = vec![Vec::new(); n_clusters];
    for (row, &dataset_index) in chunk.iter().enumerate() {
        if let Some(Some(cluster)) = membership.get(dataset_index) {
            clusters[*cluster].push(row);
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdTrainer, Rbm, RbmError, SlsConfig, TrainConfig, VisibleKind};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_consensus::{LocalSupervision, VotingPolicy};
    use sls_datasets::SyntheticBlobs;
    use sls_linalg::{Matrix, MatrixRandomExt, ParallelPolicy};

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(200)
    }

    /// Builds a supervision that covers a prefix of each ground-truth class.
    fn supervision_from_labels(labels: &[usize], coverage: usize) -> LocalSupervision {
        let mut consensus: Vec<Option<usize>> = vec![None; labels.len()];
        let mut counts = std::collections::BTreeMap::new();
        for (i, &l) in labels.iter().enumerate() {
            let c = counts.entry(l).or_insert(0usize);
            if *c < coverage {
                consensus[i] = Some(l);
                *c += 1;
            }
        }
        LocalSupervision::from_consensus(&consensus, VotingPolicy::Unanimous).unwrap()
    }

    #[test]
    fn trainer_validates_configs() {
        let mut r = rng();
        let data = Matrix::random_bernoulli(10, 6, 0.5, &mut r);
        let supervision = supervision_from_labels(&[0, 1, 0, 1, 0, 1, 0, 1, 0, 1], 2);
        let trainer = CdTrainer::new(TrainConfig::quick().with_epochs(1)).unwrap();
        let mut train = |sls: SlsConfig| {
            let mut rbm = Rbm::new(VisibleKind::Binary, 6, 4, &mut r);
            trainer.train(&mut rbm, &data, Some((&supervision, &sls)), &mut r)
        };
        assert!(train(SlsConfig::new(0.5)).is_ok());
        assert!(matches!(
            train(SlsConfig::new(1.5)),
            Err(RbmError::InvalidConfig { name: "eta", .. })
        ));
        assert!(CdTrainer::new(TrainConfig::quick().with_epochs(0)).is_err());
    }

    #[test]
    fn supervision_out_of_range_is_rejected() {
        let mut r = rng();
        let data = Matrix::random_bernoulli(10, 6, 0.5, &mut r);
        let mut rbm = Rbm::new(VisibleKind::Binary, 6, 4, &mut r);
        let consensus: Vec<Option<usize>> = (0..20).map(|i| Some(i % 2)).collect();
        let supervision =
            LocalSupervision::from_consensus(&consensus, VotingPolicy::Unanimous).unwrap();
        let trainer = CdTrainer::new(TrainConfig::quick()).unwrap();
        let sls = SlsConfig::new(0.5);
        assert!(matches!(
            trainer.train(&mut rbm, &data, Some((&supervision, &sls)), &mut r),
            Err(RbmError::SupervisionOutOfRange { .. })
        ));
    }

    #[test]
    fn sls_grbm_training_constricts_supervised_clusters_in_hidden_space() {
        let mut r = rng();
        let ds = SyntheticBlobs::new(90, 8, 3)
            .separation(3.0)
            .generate(&mut r);
        let supervision = supervision_from_labels(ds.labels(), 12);
        let mut grbm = Rbm::new(VisibleKind::Gaussian, 8, 6, &mut r);
        let config = TrainConfig::quick()
            .with_epochs(25)
            .with_learning_rate(0.05);
        let sls_config = SlsConfig::new(0.4).with_supervision_learning_rate(0.5);
        let trainer = CdTrainer::new(config).unwrap();

        // Constriction is relative: after training, the average
        // within-cluster distance of the supervised instances should be small
        // compared with the distance between the local-cluster centres. The
        // absolute spread necessarily grows from initialisation (random small
        // weights put every hidden probability near 0.5), so the meaningful
        // quantity is the within/between ratio.
        let spread_ratio = |model: &Rbm| {
            let hidden = model.hidden_probabilities(ds.features()).unwrap();
            let mut within = 0.0;
            let mut count = 0.0;
            for members in supervision.clusters() {
                for (a, &s) in members.iter().enumerate() {
                    for &t in members.iter().skip(a + 1) {
                        within += sls_linalg::euclidean_distance(hidden.row(s), hidden.row(t));
                        count += 1.0;
                    }
                }
            }
            let centers = supervision.cluster_centers(&hidden);
            let mut between = 0.0;
            let mut bcount = 0.0;
            for p in 0..centers.rows() {
                for q in (p + 1)..centers.rows() {
                    between += sls_linalg::euclidean_distance(centers.row(p), centers.row(q));
                    bcount += 1.0;
                }
            }
            (within / count) / (between / bcount).max(1e-12)
        };

        let before = spread_ratio(&grbm);
        trainer
            .train(
                &mut grbm,
                ds.features(),
                Some((&supervision, &sls_config)),
                &mut r,
            )
            .unwrap();
        let after = spread_ratio(&grbm);
        assert!(
            after < before,
            "within/between spread ratio did not shrink: {before} -> {after}"
        );
    }

    #[test]
    fn sls_rbm_training_runs_and_stays_finite() {
        let mut r = rng();
        let data = Matrix::random_bernoulli(60, 12, 0.4, &mut r);
        let labels: Vec<usize> = (0..60).map(|i| i % 2).collect();
        let supervision = supervision_from_labels(&labels, 10);
        let mut rbm = Rbm::new(VisibleKind::Binary, 12, 5, &mut r);
        let history = CdTrainer::new(TrainConfig::quick().with_epochs(10))
            .unwrap()
            .train(
                &mut rbm,
                &data,
                Some((&supervision, &SlsConfig::paper_rbm())),
                &mut r,
            )
            .unwrap();
        assert_eq!(history.epochs.len(), 10);
        assert!(rbm.params().is_finite());
    }

    #[test]
    fn parallel_sls_training_is_bitwise_identical_to_serial() {
        let mut r = rng();
        let data = Matrix::random_bernoulli(50, 10, 0.4, &mut r);
        let labels: Vec<usize> = (0..50).map(|i| i % 3).collect();
        let supervision = supervision_from_labels(&labels, 8);
        let train_one = |parallel: ParallelPolicy| {
            let mut model = Rbm::new(
                VisibleKind::Binary,
                10,
                4,
                &mut ChaCha8Rng::seed_from_u64(4),
            );
            let history = CdTrainer::new(TrainConfig::quick().with_epochs(4))
                .unwrap()
                .with_parallel(parallel)
                .train(
                    &mut model,
                    &data,
                    Some((&supervision, &SlsConfig::new(0.5))),
                    &mut ChaCha8Rng::seed_from_u64(5),
                )
                .unwrap();
            (model, history)
        };
        let (serial, serial_history) = train_one(ParallelPolicy::serial());
        for threads in [2, 8] {
            let (par, history) = train_one(ParallelPolicy::eager(threads));
            assert_eq!(serial.params(), par.params(), "threads = {threads}");
            assert_eq!(serial_history, history, "threads = {threads}");
        }
    }

    #[test]
    fn eta_one_sided_behaviour() {
        // η close to 1 should behave almost like plain CD: the sls gradient
        // contribution is scaled by (1-η) ≈ 0.
        let mut r = rng();
        let data = Matrix::random_bernoulli(40, 8, 0.5, &mut r);
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let supervision = supervision_from_labels(&labels, 8);

        let mut sls_model = Rbm::new(VisibleKind::Binary, 8, 4, &mut ChaCha8Rng::seed_from_u64(1));
        let mut cd_model = Rbm::new(VisibleKind::Binary, 8, 4, &mut ChaCha8Rng::seed_from_u64(1));
        assert_eq!(sls_model.params(), cd_model.params());

        let config = TrainConfig::quick().with_epochs(3);
        let mut cfg_no_shuffle = config;
        cfg_no_shuffle.shuffle = false;

        let trainer = CdTrainer::new(cfg_no_shuffle).unwrap();
        trainer
            .train(
                &mut sls_model,
                &data,
                Some((&supervision, &SlsConfig::new(0.999_999))),
                &mut ChaCha8Rng::seed_from_u64(9),
            )
            .unwrap();
        // Plain CD for comparison, but scaled: with η≈1 the CD term keeps its
        // full weight, so the two runs should be nearly identical.
        trainer
            .train(
                &mut cd_model,
                &data,
                None,
                &mut ChaCha8Rng::seed_from_u64(9),
            )
            .unwrap();
        assert!(sls_model
            .params()
            .weights
            .approx_eq(&cd_model.params().weights, 1e-3));
    }

    #[test]
    fn clusters_in_batch_maps_dataset_indices_to_rows() {
        let membership = vec![Some(0), None, Some(1), Some(0), None, Some(1)];
        // Batch contains dataset indices 5, 0, 1, 3.
        let chunk = vec![5, 0, 1, 3];
        let clusters = clusters_in_batch(&chunk, &membership, 2);
        assert_eq!(clusters[0], vec![1, 3]); // dataset 0 -> row 1, dataset 3 -> row 3
        assert_eq!(clusters[1], vec![0]); // dataset 5 -> row 0
    }

    #[test]
    fn history_is_recorded_per_epoch() {
        let mut r = rng();
        let data = Matrix::random_bernoulli(30, 6, 0.5, &mut r);
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let supervision = supervision_from_labels(&labels, 5);
        let mut rbm = Rbm::new(VisibleKind::Binary, 6, 3, &mut r);
        let history = CdTrainer::new(TrainConfig::quick().with_epochs(4))
            .unwrap()
            .train(
                &mut rbm,
                &data,
                Some((&supervision, &SlsConfig::new(0.5))),
                &mut r,
            )
            .unwrap();
        assert_eq!(history.epochs.len(), 4);
        assert!(history.final_error().unwrap().is_finite());
    }
}
