//! Analytic gradients of the constrict/disperse loss (Eqs. 27–32).
//!
//! For one phase (data or reconstruction) the loss over a mini-batch is
//!
//! ```text
//! L = (1/N_h) Σ_k Σ_{s<t ∈ H_k} ‖h_s - h_t‖²
//!   - (1/N_C) Σ_{p<q}           ‖C_p - C_q‖²
//! ```
//!
//! with `h_s = σ(b + v_s W)`, `O_k` the visible-space centre of local cluster
//! `k` and `C_k = σ(b + O_k W)` its hidden response, `N_h` the number of
//! supervised instances in the batch and `N_C = K(K-1)/2`.
//!
//! The within-cluster (constrict) term is computed with the algebraic
//! identity
//!
//! ```text
//! Σ_{s<t} ∂‖h_s - h_t‖²/∂w_ij  =  2 m Σ_s g_sj (h_sj - h̄_j) v_si ,
//! g_sj = h_sj (1 - h_sj),  h̄ = cluster mean,  m = |H_k|
//! ```
//!
//! which is exactly the pairwise sum of Eq. 27 but costs `O(m·d·n_h)` instead
//! of `O(m²·d·n_h)`. The between-centres (disperse) term follows Eqs. 25–27
//! with the centres' hidden responses used for the sigmoid derivative.

use crate::model::{sigmoid, RbmParams};
use crate::Result;
use sls_linalg::{Matrix, ParallelPolicy};

/// Gradient of the constrict/disperse loss with respect to the weights and
/// hidden biases. The visible biases do not appear in the loss
/// (∂L/∂a_i = 0, Section IV-A).
#[derive(Debug, Clone)]
pub(crate) struct SlsBatchGradients {
    /// ∂L/∂W, shape `n_visible x n_hidden`.
    pub dw: Matrix,
    /// ∂L/∂b, length `n_hidden`.
    pub db: Vec<f64>,
}

impl SlsBatchGradients {
    fn zeros(n_visible: usize, n_hidden: usize) -> Self {
        Self {
            dw: Matrix::zeros(n_visible, n_hidden),
            db: vec![0.0; n_hidden],
        }
    }

    /// Adds another gradient of the same shape in place (used to combine
    /// the data-phase and reconstruction-phase terms).
    pub(crate) fn accumulate(&mut self, other: &SlsBatchGradients) {
        let own = self.dw.as_mut_slice().iter_mut().chain(&mut self.db);
        for (a, b) in own.zip(other.dw.as_slice().iter().chain(&other.db)) {
            *a += b;
        }
    }
}

/// Computes ∂L/∂W and ∂L/∂b for one phase.
///
/// * `visible` — the visible rows of this phase (original batch or its
///   reconstruction), one row per batch instance.
/// * `hidden` — the corresponding hidden probabilities.
/// * `clusters` — local clusters as lists of **row indices into the batch**;
///   clusters with fewer than two members are ignored.
/// * `parallel` — execution policy for the `Vᵀ·E` constrict statistics (the
///   only product here that grows with the data dimensionality).
pub(crate) fn sls_batch_gradients(
    params: &RbmParams,
    visible: &Matrix,
    hidden: &Matrix,
    clusters: &[Vec<usize>],
    parallel: &ParallelPolicy,
) -> Result<SlsBatchGradients> {
    let n_visible = params.n_visible();
    let n_hidden = params.n_hidden();
    let mut grads = SlsBatchGradients::zeros(n_visible, n_hidden);

    let active: Vec<&Vec<usize>> = clusters.iter().filter(|c| c.len() >= 2).collect();
    if active.is_empty() {
        return Ok(grads);
    }
    let n_supervised: usize = active.iter().map(|c| c.len()).sum();
    let nh = n_supervised as f64;

    // --- Within-cluster constrict term -------------------------------------
    for members in &active {
        let m = members.len() as f64;
        let v_rows = visible.select_rows(members)?;
        let h_rows = hidden.select_rows(members)?;
        let h_mean = h_rows.column_means();
        // E = g ⊙ (h - h̄), with g = h ⊙ (1 - h).
        let mut e = Matrix::zeros(h_rows.rows(), n_hidden);
        for (r, h_row) in h_rows.row_iter().enumerate() {
            let e_row = e.row_mut(r);
            for j in 0..n_hidden {
                let h = h_row[j];
                e_row[j] = h * (1.0 - h) * (h - h_mean[j]);
            }
        }
        // ∂/∂W of Σ_{s<t} ‖h_s - h_t‖² = 2 m · VᵀE ; normalised by N_h.
        let vte = v_rows.matmul_transpose_left_with(&e, parallel)?;
        for (d, x) in grads.dw.as_mut_slice().iter_mut().zip(vte.as_slice()) {
            *d += 2.0 * m / nh * x;
        }
        // ∂/∂b is the same expression without the v factor.
        for (j, col_sum) in e.column_sums().iter().enumerate() {
            grads.db[j] += 2.0 * m / nh * col_sum;
        }
    }

    // --- Between-centres disperse term --------------------------------------
    let k = active.len();
    if k >= 2 {
        let nc = (k * (k - 1) / 2) as f64;
        // Visible-space centres O_k and their hidden responses C_k.
        let mut centers_visible = Matrix::zeros(k, visible.cols());
        for (idx, members) in active.iter().enumerate() {
            let rows = visible.select_rows(members)?;
            centers_visible
                .row_mut(idx)
                .copy_from_slice(&rows.column_means());
        }
        let centers_hidden = centers_visible
            .matmul(&params.weights)?
            .add_row_broadcast(&params.hidden_bias)?
            .map(sigmoid);

        // Per hidden unit of one pair: (2/N_C)·(C_p - C_q) and the two
        // sigmoid derivatives. Rows of ∂L/∂W are then walked in order; every
        // element still takes the pairs' terms in (p, q) order.
        let mut coef = vec![(0.0, 0.0, 0.0); n_hidden];
        for p in 0..k {
            for q in (p + 1)..k {
                let (cp, cq) = (centers_hidden.row(p), centers_hidden.row(q));
                for (j, c) in coef.iter_mut().enumerate() {
                    let diff = cp[j] - cq[j];
                    let gp = cp[j] * (1.0 - cp[j]);
                    let gq = cq[j] * (1.0 - cq[j]);
                    // Minus sign: the centre term enters L with a minus.
                    grads.db[j] -= 2.0 / nc * diff * (gp - gq);
                    *c = (2.0 / nc * diff, gp, gq);
                }
                let (op, oq) = (centers_visible.row(p), centers_visible.row(q));
                for i in 0..n_visible {
                    let dw_row = grads.dw.row_mut(i);
                    for (d, &(c, gp, gq)) in dw_row.iter_mut().zip(&coef) {
                        *d -= c * (gp * op[i] - gq * oq[i]);
                    }
                }
            }
        }
    }

    Ok(grads)
}

/// The loss value itself, used by the finite-difference tests as the ground
/// truth the analytic gradients are checked against.
#[cfg(test)]
pub(crate) fn sls_loss(
    params: &RbmParams,
    visible: &Matrix,
    clusters: &[Vec<usize>],
) -> Result<f64> {
    let hidden = visible
        .matmul(&params.weights)?
        .add_row_broadcast(&params.hidden_bias)?
        .map(sigmoid);

    let active: Vec<&Vec<usize>> = clusters.iter().filter(|c| c.len() >= 2).collect();
    if active.is_empty() {
        return Ok(0.0);
    }
    let nh: usize = active.iter().map(|c| c.len()).sum();
    let mut within = 0.0;
    for members in &active {
        for (a, &s) in members.iter().enumerate() {
            for &t in members.iter().skip(a + 1) {
                within += sls_linalg::squared_euclidean_distance(hidden.row(s), hidden.row(t));
            }
        }
    }
    within /= nh as f64;

    let k = active.len();
    let mut between = 0.0;
    if k >= 2 {
        let nc = (k * (k - 1) / 2) as f64;
        let mut centers_visible = Matrix::zeros(k, visible.cols());
        for (idx, members) in active.iter().enumerate() {
            let rows = visible.select_rows(members)?;
            centers_visible
                .row_mut(idx)
                .copy_from_slice(&rows.column_means());
        }
        let centers_hidden = centers_visible
            .matmul(&params.weights)?
            .add_row_broadcast(&params.hidden_bias)?
            .map(sigmoid);
        for p in 0..k {
            for q in (p + 1)..k {
                between += sls_linalg::squared_euclidean_distance(
                    centers_hidden.row(p),
                    centers_hidden.row(q),
                );
            }
        }
        between /= nc;
    }
    Ok(within - between)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_linalg::MatrixRandomExt;

    /// Serial policy shared by the numeric tests.
    const POL: ParallelPolicy = ParallelPolicy::serial();

    fn setup() -> (RbmParams, Matrix, Vec<Vec<usize>>) {
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let params = RbmParams {
            weights: Matrix::random_normal(5, 4, 0.0, 0.5, &mut rng),
            visible_bias: vec![0.1; 5],
            hidden_bias: vec![-0.2, 0.1, 0.0, 0.3],
        };
        let visible = Matrix::random_normal(10, 5, 0.0, 1.0, &mut rng);
        let clusters = vec![vec![0, 1, 2], vec![4, 5], vec![7, 8, 9]];
        (params, visible, clusters)
    }

    fn hidden_of(params: &RbmParams, visible: &Matrix) -> Matrix {
        visible
            .matmul(&params.weights)
            .unwrap()
            .add_row_broadcast(&params.hidden_bias)
            .unwrap()
            .map(sigmoid)
    }

    #[test]
    fn gradient_matches_finite_differences_for_weights() {
        let (params, visible, clusters) = setup();
        let hidden = hidden_of(&params, &visible);
        let grads = sls_batch_gradients(&params, &visible, &hidden, &clusters, &POL).unwrap();
        let eps = 1e-6;
        for &(i, j) in &[(0usize, 0usize), (2, 1), (4, 3), (1, 2)] {
            let mut plus = params.clone();
            plus.weights[(i, j)] += eps;
            let mut minus = params.clone();
            minus.weights[(i, j)] -= eps;
            let numeric = (sls_loss(&plus, &visible, &clusters).unwrap()
                - sls_loss(&minus, &visible, &clusters).unwrap())
                / (2.0 * eps);
            let analytic = grads.dw[(i, j)];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "w[{i},{j}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences_for_hidden_bias() {
        let (params, visible, clusters) = setup();
        let hidden = hidden_of(&params, &visible);
        let grads = sls_batch_gradients(&params, &visible, &hidden, &clusters, &POL).unwrap();
        let eps = 1e-6;
        for j in 0..4 {
            let mut plus = params.clone();
            plus.hidden_bias[j] += eps;
            let mut minus = params.clone();
            minus.hidden_bias[j] -= eps;
            let numeric = (sls_loss(&plus, &visible, &clusters).unwrap()
                - sls_loss(&minus, &visible, &clusters).unwrap())
                / (2.0 * eps);
            assert!(
                (numeric - grads.db[j]).abs() < 1e-5,
                "b[{j}]: numeric {numeric} vs analytic {}",
                grads.db[j]
            );
        }
    }

    #[test]
    fn no_supervision_gives_zero_gradient() {
        let (params, visible, _) = setup();
        let hidden = hidden_of(&params, &visible);
        let grads = sls_batch_gradients(&params, &visible, &hidden, &[], &POL).unwrap();
        assert_eq!(grads.dw.frobenius_norm(), 0.0);
        assert!(grads.db.iter().all(|&x| x == 0.0));
        // Singleton clusters are equally ignored.
        let grads = sls_batch_gradients(&params, &visible, &hidden, &[vec![3]], &POL).unwrap();
        assert_eq!(grads.dw.frobenius_norm(), 0.0);
        assert_eq!(sls_loss(&params, &visible, &[vec![3]]).unwrap(), 0.0);
    }

    #[test]
    fn single_cluster_has_no_disperse_term() {
        // With one cluster the loss is purely the within term, which is
        // non-negative, and descending it must shrink it.
        let (mut params, visible, _) = setup();
        let clusters = vec![vec![0, 1, 2, 3]];
        let before = sls_loss(&params, &visible, &clusters).unwrap();
        assert!(before >= 0.0);
        for _ in 0..50 {
            let hidden = hidden_of(&params, &visible);
            let grads = sls_batch_gradients(&params, &visible, &hidden, &clusters, &POL).unwrap();
            params.weights = params.weights.add(&grads.dw.scale(-0.5)).unwrap();
            for (b, g) in params.hidden_bias.iter_mut().zip(&grads.db) {
                *b -= 0.5 * g;
            }
        }
        let after = sls_loss(&params, &visible, &clusters).unwrap();
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn descending_the_gradient_reduces_the_full_loss() {
        let (mut params, visible, clusters) = setup();
        let before = sls_loss(&params, &visible, &clusters).unwrap();
        for _ in 0..100 {
            let hidden = hidden_of(&params, &visible);
            let grads = sls_batch_gradients(&params, &visible, &hidden, &clusters, &POL).unwrap();
            params.weights = params.weights.add(&grads.dw.scale(-0.2)).unwrap();
            for (b, g) in params.hidden_bias.iter_mut().zip(&grads.db) {
                *b -= 0.2 * g;
            }
        }
        let after = sls_loss(&params, &visible, &clusters).unwrap();
        assert!(
            after < before,
            "descent did not reduce the loss: {before} -> {after}"
        );
    }

    #[test]
    fn descent_constricts_within_and_disperses_between() {
        // After descending the sls loss, hidden features of the same cluster
        // should be closer together and the cluster centres further apart
        // than before.
        let (mut params, visible, clusters) = setup();
        let spread = |params: &RbmParams| -> (f64, f64) {
            let hidden = hidden_of(params, &visible);
            let mut within = 0.0;
            let mut count = 0.0;
            for members in &clusters {
                for (a, &s) in members.iter().enumerate() {
                    for &t in members.iter().skip(a + 1) {
                        within += sls_linalg::euclidean_distance(hidden.row(s), hidden.row(t));
                        count += 1.0;
                    }
                }
            }
            let centers: Vec<Vec<f64>> = clusters
                .iter()
                .map(|m| hidden.select_rows(m).unwrap().column_means())
                .collect();
            let mut between = 0.0;
            let mut bcount = 0.0;
            for p in 0..centers.len() {
                for q in (p + 1)..centers.len() {
                    between += sls_linalg::euclidean_distance(&centers[p], &centers[q]);
                    bcount += 1.0;
                }
            }
            (within / count, between / bcount)
        };
        let (within_before, between_before) = spread(&params);
        for _ in 0..200 {
            let hidden = hidden_of(&params, &visible);
            let grads = sls_batch_gradients(&params, &visible, &hidden, &clusters, &POL).unwrap();
            params.weights = params.weights.add(&grads.dw.scale(-0.3)).unwrap();
            for (b, g) in params.hidden_bias.iter_mut().zip(&grads.db) {
                *b -= 0.3 * g;
            }
        }
        let (within_after, between_after) = spread(&params);
        assert!(
            within_after < within_before,
            "within-cluster spread grew: {within_before} -> {within_after}"
        );
        assert!(
            between_after > between_before,
            "between-centre spread shrank: {between_before} -> {between_after}"
        );
    }

    #[test]
    fn parallel_gradients_are_bitwise_identical_to_serial() {
        let (params, visible, clusters) = setup();
        let hidden = hidden_of(&params, &visible);
        let serial = sls_batch_gradients(&params, &visible, &hidden, &clusters, &POL).unwrap();
        for threads in [2, 4, 8] {
            let policy = ParallelPolicy::eager(threads);
            let par = sls_batch_gradients(&params, &visible, &hidden, &clusters, &policy).unwrap();
            assert_eq!(serial.dw.as_slice(), par.dw.as_slice(), "{policy:?}");
            assert_eq!(serial.db, par.db, "{policy:?}");
        }
    }

    #[test]
    fn accumulate_sums_gradients() {
        let (params, visible, clusters) = setup();
        let hidden = hidden_of(&params, &visible);
        let g1 = sls_batch_gradients(&params, &visible, &hidden, &clusters, &POL).unwrap();
        let mut total = sls_batch_gradients(&params, &visible, &hidden, &clusters, &POL).unwrap();
        total.accumulate(&g1);
        assert!(total.dw.approx_eq(&g1.dw.scale(2.0), 1e-12));
        for (t, g) in total.db.iter().zip(&g1.db) {
            assert!((t - 2.0 * g).abs() < 1e-12);
        }
    }
}
