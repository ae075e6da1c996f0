//! Property-based bounds on the compact (f32-quantized) serving path.
//!
//! The serving contract for compact mode is documented in `sls-rbm-core`'s
//! `compact` module: every feature element a [`ServingModel`] loaded with
//! compact weights answers stays within `1e-6 · (1 + |full|)` of the same
//! model loaded at full precision, and the compact forward pass is bitwise identical
//! across serial and pooled policies at every thread count.
//! These properties enforce both on randomly generated artifacts (weights,
//! biases, preprocessors and cluster heads far rougher than anything
//! training produces) and on every serving endpoint's compute: `/features`
//! (hidden features) and `/assign` (nearest-centroid labels, gated on the
//! full path's own decision margin so genuine near-ties are not counted
//! against quantization).

use proptest::prelude::*;
use sls_linalg::{Matrix, ParallelPolicy};
use sls_rbm_core::{
    ClusterHead, FittedPreprocessor, ModelKind, PipelineArtifact, Preprocessing, RbmParams,
};
use sls_serve::ServingModel;

/// One generated serving scenario: an artifact (with cluster head) plus a
/// request batch of raw rows.
#[derive(Debug)]
struct Case {
    artifact: PipelineArtifact,
    rows: Matrix,
}

impl Case {
    /// The artifact served at full precision and with compact weights.
    fn models(&self) -> (ServingModel, ServingModel) {
        (
            ServingModel::from_artifact(self.artifact.clone(), false),
            ServingModel::from_artifact(self.artifact.clone(), true),
        )
    }
}

/// The serial reference plus pooled policies with an eager cutover, so
/// they really fan out on the generated row counts.
fn policy_grid() -> Vec<ParallelPolicy> {
    let mut grid = vec![ParallelPolicy::serial()];
    for threads in [2, 4] {
        grid.push(ParallelPolicy::new(threads).with_min_rows_per_thread(1));
    }
    grid
}

/// Builds an artifact from raw pieces: random weights/biases, a preprocessor
/// fitted on a random training matrix, and random centroids in hidden space.
fn case_strategy() -> impl Strategy<Value = Case> {
    (2..7usize, 1..10usize, 1..16usize, 1..4usize, 0..3usize).prop_flat_map(
        |(n_visible, n_hidden, n_rows, n_clusters, pre_kind)| {
            let weights = proptest::collection::vec(-3.0..3.0f64, n_visible * n_hidden);
            let hidden_bias = proptest::collection::vec(-2.0..2.0f64, n_hidden);
            // Training matrix for the fitted preprocessor: enough rows for
            // stable column statistics, values on the request scale.
            let train = proptest::collection::vec(-8.0..8.0f64, 12 * n_visible);
            let centroids = proptest::collection::vec(0.0..1.0f64, n_clusters * n_hidden);
            let rows = proptest::collection::vec(-8.0..8.0f64, n_rows * n_visible);
            (weights, hidden_bias, train, centroids, rows).prop_map(
                move |(weights, hidden_bias, train, centroids, rows)| {
                    let params = RbmParams {
                        weights: Matrix::from_vec(n_visible, n_hidden, weights).unwrap(),
                        visible_bias: vec![0.0; n_visible],
                        hidden_bias,
                    };
                    let mut artifact = PipelineArtifact::from_params(params, ModelKind::Grbm);
                    let train = Matrix::from_vec(12, n_visible, train).unwrap();
                    let preprocessing = match pre_kind {
                        0 => Preprocessing::Standardize,
                        1 => Preprocessing::BinarizeMedian,
                        _ => Preprocessing::None,
                    };
                    artifact.preprocessor = FittedPreprocessor::fit(preprocessing, &train).unwrap();
                    artifact.cluster_head = Some(ClusterHead {
                        algorithm: "K-means".into(),
                        n_clusters,
                        centroids: Matrix::from_vec(n_clusters, n_hidden, centroids).unwrap(),
                    });
                    Case {
                        artifact,
                        rows: Matrix::from_vec(n_rows, n_visible, rows).unwrap(),
                    }
                },
            )
        },
    )
}

/// Squared Euclidean distances from `row` to every centroid, plus the margin
/// between the best and second-best centroid (infinite for one cluster).
fn assignment_margin(head: &ClusterHead, row: &[f64]) -> f64 {
    let mut distances: Vec<f64> = head
        .centroids
        .row_iter()
        .map(|c| {
            c.iter()
                .zip(row)
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f64>()
        })
        .collect();
    distances.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if distances.len() < 2 {
        f64::INFINITY
    } else {
        distances[1] - distances[0]
    }
}

proptest! {
    /// `/features` bound: every compact feature element is within
    /// `1e-6 · (1 + |full|)` of the full-precision element, under every
    /// policy in the grid.
    #[test]
    fn compact_features_stay_within_the_documented_bound(case in case_strategy()) {
        let (full_model, compact) = case.models();
        for policy in policy_grid() {
            let full = full_model.features_with(&case.rows, &policy).unwrap();
            let quant = compact.features_with(&case.rows, &policy).unwrap();
            prop_assert_eq!(full.shape(), quant.shape());
            for (&f, &q) in full.as_slice().iter().zip(quant.as_slice()) {
                prop_assert!(
                    (f - q).abs() <= 1e-6 * (1.0 + f.abs()),
                    "full {} vs compact {}", f, q
                );
            }
        }
    }

    /// Policy identity: the compact path is bitwise identical across the
    /// whole grid — quantized models keep the serving layer's
    /// reproducibility contract.
    #[test]
    fn compact_path_is_bitwise_identical_across_the_policy_grid(case in case_strategy()) {
        let (_, compact) = case.models();
        let reference = compact
            .features_with(&case.rows, &ParallelPolicy::serial())
            .unwrap();
        let reference_assign = compact
            .assign_with(&case.rows, &ParallelPolicy::serial())
            .unwrap();
        for policy in policy_grid() {
            let features = compact.features_with(&case.rows, &policy).unwrap();
            let same = reference
                .as_slice()
                .iter()
                .zip(features.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(same, "policy {:?}", policy);
            prop_assert_eq!(
                compact.assign_with(&case.rows, &policy).unwrap(),
                reference_assign.clone()
            );
        }
    }

    /// `/assign` bound: wherever the full path's own decision is not a
    /// near-tie (best vs second-best squared distance separated by more
    /// than 1e-4 — far above what a 1e-6-bounded feature perturbation can
    /// move a distance by on these layer sizes), the compact label agrees
    /// exactly, under every policy in the grid.
    #[test]
    fn compact_assignments_agree_outside_near_ties(case in case_strategy()) {
        let (full_model, compact) = case.models();
        let head = case.artifact.cluster_head.as_ref().unwrap();
        for policy in policy_grid() {
            let full_features = full_model.features_with(&case.rows, &policy).unwrap();
            let full = full_model.assign_with(&case.rows, &policy).unwrap();
            let quant = compact.assign_with(&case.rows, &policy).unwrap();
            prop_assert_eq!(full.len(), quant.len());
            for (i, (&f, &q)) in full.iter().zip(&quant).enumerate() {
                if assignment_margin(head, full_features.row(i)) > 1e-4 {
                    prop_assert_eq!(f, q, "row {} margin was decisive", i);
                }
            }
        }
    }
}
