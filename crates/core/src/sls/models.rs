//! Tests of the paper's slsRBM and slsGRBM: the same [`Rbm`](crate::Rbm) as
//! the baselines, trained by [`CdTrainer`](crate::CdTrainer) with a local
//! supervision and the Section V hyper-parameters.

#[cfg(test)]
mod tests {
    use crate::{CdTrainer, Rbm, RbmParams, SlsConfig, TrainConfig, VisibleKind};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_consensus::{LocalSupervision, VotingPolicy};
    use sls_linalg::{Matrix, MatrixRandomExt};

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(404)
    }

    fn simple_supervision(n: usize) -> LocalSupervision {
        let consensus: Vec<Option<usize>> = (0..n).map(|i| Some(i % 2)).collect();
        LocalSupervision::from_consensus(&consensus, VotingPolicy::Unanimous).unwrap()
    }

    #[test]
    fn paper_configs_match_section_v() {
        assert_eq!(TrainConfig::paper_grbm().learning_rate, 1e-4);
        assert_eq!(SlsConfig::paper_grbm().eta, 0.4);
        assert_eq!(TrainConfig::paper_rbm().learning_rate, 1e-5);
        assert_eq!(SlsConfig::paper_rbm().eta, 0.5);
    }

    #[test]
    fn sls_rbm_trains_and_extracts_features() {
        let mut r = rng();
        let data = Matrix::random_bernoulli(24, 10, 0.5, &mut r);
        let mut model = Rbm::new(VisibleKind::Binary, 10, 4, &mut r);
        let history = CdTrainer::new(TrainConfig::quick().with_epochs(3))
            .unwrap()
            .train(
                &mut model,
                &data,
                Some((&simple_supervision(24), &SlsConfig::new(0.5))),
                &mut r,
            )
            .unwrap();
        assert_eq!(history.epochs.len(), 3);
        let features = model.hidden_probabilities(&data).unwrap();
        assert_eq!(features.shape(), (24, 4));
        assert_eq!(model.visible_kind(), VisibleKind::Binary);
    }

    #[test]
    fn sls_grbm_trains_and_extracts_features() {
        let mut r = rng();
        let data = Matrix::random_normal(24, 10, 0.0, 1.0, &mut r);
        let mut model = Rbm::new(VisibleKind::Gaussian, 10, 4, &mut r);
        CdTrainer::new(TrainConfig::quick().with_epochs(3).with_learning_rate(0.01))
            .unwrap()
            .train(
                &mut model,
                &data,
                Some((&simple_supervision(24), &SlsConfig::new(0.4))),
                &mut r,
            )
            .unwrap();
        let features = model.hidden_probabilities(&data).unwrap();
        assert_eq!(features.shape(), (24, 4));
        assert_eq!(model.visible_kind(), VisibleKind::Gaussian);
    }

    #[test]
    fn from_params_preserves_parameters() {
        let params = RbmParams::init(6, 3, &mut rng());
        let model = Rbm::from_params(VisibleKind::Gaussian, params.clone());
        assert_eq!(model.params(), &params);
        assert_eq!(model.visible_kind(), VisibleKind::Gaussian);
    }

    #[test]
    fn train_with_paper_defaults_runs() {
        let mut r = rng();
        let data = Matrix::random_bernoulli(20, 6, 0.5, &mut r);
        let mut model = Rbm::new(VisibleKind::Binary, 6, 3, &mut r);
        // Paper defaults use 30 epochs; just make sure the call is wired up.
        let history = CdTrainer::new(TrainConfig::paper_rbm())
            .unwrap()
            .train(
                &mut model,
                &data,
                Some((&simple_supervision(20), &SlsConfig::paper_rbm())),
                &mut r,
            )
            .unwrap();
        assert_eq!(history.epochs.len(), TrainConfig::paper_rbm().epochs);
    }

    #[test]
    fn serde_round_trip() {
        let model = Rbm::new(VisibleKind::Binary, 4, 2, &mut rng());
        let json = serde_json::to_string(&model).unwrap();
        let back: Rbm = serde_json::from_str(&json).unwrap();
        assert_eq!(back, model);
    }
}
