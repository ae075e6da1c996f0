//! Tests of [`Rbm`](crate::Rbm) with Gaussian visible units — the paper's
//! GRBM baseline (Section III-B). The binary-visible tests live next to the
//! model in `rbm.rs`.

#[cfg(test)]
mod tests {
    use crate::{Rbm, VisibleKind};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_linalg::{Matrix, MatrixRandomExt};

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(8)
    }

    #[test]
    fn hidden_probabilities_are_probabilities() {
        let mut r = rng();
        let grbm = Rbm::new(VisibleKind::Gaussian, 12, 5, &mut r);
        let data = Matrix::random_normal(15, 12, 0.0, 1.0, &mut r);
        let h = grbm.hidden_probabilities(&data).unwrap();
        assert_eq!(h.shape(), (15, 5));
        assert!(h.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn reconstruction_is_linear_and_unbounded() {
        let mut r = rng();
        let mut grbm = Rbm::new(VisibleKind::Gaussian, 3, 2, &mut r);
        // With large weights the linear reconstruction exceeds [0, 1], which
        // a sigmoid reconstruction could never do.
        grbm.params_mut().weights = Matrix::filled(3, 2, 3.0);
        grbm.params_mut().visible_bias = vec![1.0, 1.0, 1.0];
        let hidden = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let recon = grbm.reconstruct_visible(&hidden).unwrap();
        assert_eq!(recon.row(0), &[7.0, 7.0, 7.0]);
    }

    #[test]
    fn zero_hidden_reconstructs_to_bias() {
        let mut r = rng();
        let mut grbm = Rbm::new(VisibleKind::Gaussian, 4, 3, &mut r);
        grbm.params_mut().visible_bias = vec![0.5, -0.5, 1.5, 0.0];
        let hidden = Matrix::zeros(2, 3);
        let recon = grbm.reconstruct_visible(&hidden).unwrap();
        assert_eq!(recon.row(0), &[0.5, -0.5, 1.5, 0.0]);
        assert_eq!(recon.row(1), &[0.5, -0.5, 1.5, 0.0]);
    }

    #[test]
    fn visible_bias_matching_the_data_mean_lowers_reconstruction_error() {
        // With zero weights the reconstruction is exactly the visible bias,
        // so a bias equal to the (constant) data reconstructs perfectly while
        // a zero bias pays the full squared mean.
        let mut r = rng();
        let data = Matrix::filled(20, 4, 2.0);
        let mut matched = Rbm::new(VisibleKind::Gaussian, 4, 3, &mut r);
        matched.params_mut().weights = Matrix::zeros(4, 3);
        matched.params_mut().visible_bias = vec![2.0; 4];
        let mut unmatched = Rbm::new(VisibleKind::Gaussian, 4, 3, &mut r);
        unmatched.params_mut().weights = Matrix::zeros(4, 3);
        let err_matched = matched.reconstruction_error(&data).unwrap();
        let err_unmatched = unmatched.reconstruction_error(&data).unwrap();
        assert!(err_matched < 1e-12);
        assert!((err_unmatched - 4.0).abs() < 1e-12);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let grbm = Rbm::new(VisibleKind::Gaussian, 6, 2, &mut rng());
        assert!(grbm.hidden_probabilities(&Matrix::zeros(3, 5)).is_err());
    }

    #[test]
    fn visible_kind_is_gaussian() {
        assert_eq!(
            Rbm::new(VisibleKind::Gaussian, 2, 2, &mut rng()).visible_kind(),
            VisibleKind::Gaussian
        );
    }

    #[test]
    fn serde_round_trip() {
        let grbm = Rbm::new(VisibleKind::Gaussian, 5, 3, &mut rng());
        let json = serde_json::to_string(&grbm).unwrap();
        let back: Rbm = serde_json::from_str(&json).unwrap();
        assert_eq!(back, grbm);
    }
}
