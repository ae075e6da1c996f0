//! Contrastive-divergence (CD-k) training and the one mini-batch update
//! every trainer shares.
//!
//! The update rules are Eqs. 10–12 of the paper, with the standard practical
//! additions of mini-batches, momentum and L2 weight decay (Hinton's
//! "Practical Guide to Training RBMs"). The positive statistics use hidden
//! *probabilities*; the Gibbs chain uses hidden *samples* for the downward
//! pass and probabilities for the final upward pass, which is the customary
//! low-variance CD-1 estimator.
//!
//! `minibatch_step` applies that rule to one mini-batch, plus the sls
//! constrict/disperse term (Eqs. 33–35) when the run is guided by a local
//! supervision. [`CdTrainer`] runs it over in-memory data, guided or not;
//! [`crate::StreamTrainer`] runs it chunk by chunk.

use crate::rbm::squared_error;
use crate::sls::{clusters_in_batch, sls_batch_gradients, SlsConfig};
use crate::{Rbm, RbmError, RbmParams, Result, TrainConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};
use sls_consensus::LocalSupervision;
use sls_linalg::{Matrix, MatrixRandomExt, ParallelPolicy};

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean squared error between each row the epoch trained on and its
    /// CD reconstruction, taken under the parameters its mini-batch update
    /// started from: Hinton's rough progress signal, not a held-out
    /// evaluation (that is [`Rbm::reconstruction_error`]).
    pub reconstruction_error: f64,
}

/// History of a training run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// One entry per epoch, in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainingHistory {
    /// Reconstruction error after the final epoch, if any epoch ran.
    pub fn final_error(&self) -> Option<f64> {
        self.epochs.last().map(|e| e.reconstruction_error)
    }

    /// Reconstruction error after the first epoch, if any epoch ran.
    pub fn initial_error(&self) -> Option<f64> {
        self.epochs.first().map(|e| e.reconstruction_error)
    }

    /// `true` if the final error is no worse than the initial error.
    pub fn improved(&self) -> bool {
        match (self.initial_error(), self.final_error()) {
            (Some(first), Some(last)) => last <= first,
            _ => false,
        }
    }
}

/// The CD gradient of one mini-batch, plus the intermediate quantities the
/// guided update reuses (hidden probabilities and the reconstruction).
#[derive(Debug, Clone)]
pub(crate) struct CdBatchGradients {
    /// Gradient on the weights (`n_visible x n_hidden`), already averaged
    /// over the batch: `<v h>_data - <v h>_recon`.
    pub dw: Matrix,
    /// Gradient on the visible biases.
    pub da: Vec<f64>,
    /// Gradient on the hidden biases.
    pub db: Vec<f64>,
    /// Hidden probabilities driven by the data (`H_data`).
    pub hidden_data: Matrix,
    /// Reconstructed visible batch (`V_recon`).
    pub visible_recon: Matrix,
    /// Hidden probabilities driven by the reconstruction (`H_recon`).
    pub hidden_recon: Matrix,
}

/// Computes the CD-k gradients for one mini-batch without touching the model
/// parameters. All matrix products (the Gibbs chain's `V·W` / `H·Wᵀ` passes
/// and the `Vᵀ·H` statistics) run under `parallel`; the Bernoulli sampling
/// stays strictly serial so the RNG stream — and therefore every reproduced
/// table — is independent of the thread count.
pub(crate) fn cd_batch_gradients(
    model: &Rbm,
    batch: &Matrix,
    cd_steps: usize,
    parallel: &ParallelPolicy,
    rng: &mut impl Rng,
) -> Result<CdBatchGradients> {
    let n = batch.rows() as f64;
    let hidden_data = model.hidden_probabilities_with(batch, parallel)?;

    // Gibbs chain: sample the hidden layer, reconstruct, repeat.
    let gibbs_step = |hidden: &Matrix, rng: &mut _| -> Result<(Matrix, Matrix)> {
        let hidden_sample = Matrix::sample_bernoulli(hidden, rng);
        let visible = model.reconstruct_visible_with(&hidden_sample, parallel)?;
        let hidden = model.hidden_probabilities_with(&visible, parallel)?;
        Ok((visible, hidden))
    };
    let (mut visible_recon, mut hidden_recon) = gibbs_step(&hidden_data, rng)?;
    for _ in 1..cd_steps {
        (visible_recon, hidden_recon) = gibbs_step(&hidden_recon, rng)?;
    }

    // <v h>_data - <v h>_recon, averaged over the batch.
    let mut dw = batch.matmul_transpose_left_with(&hidden_data, parallel)?;
    let negative = visible_recon.matmul_transpose_left_with(&hidden_recon, parallel)?;
    for (d, q) in dw.as_mut_slice().iter_mut().zip(negative.as_slice()) {
        *d = 1.0 / n * (*d - q);
    }

    let da: Vec<f64> = batch
        .column_means()
        .iter()
        .zip(visible_recon.column_means())
        .map(|(&d, r)| d - r)
        .collect();
    let db: Vec<f64> = hidden_data
        .column_means()
        .iter()
        .zip(hidden_recon.column_means())
        .map(|(&d, r)| d - r)
        .collect();

    Ok(CdBatchGradients {
        dw,
        da,
        db,
        hidden_data,
        visible_recon,
        hidden_recon,
    })
}

/// Momentum buffers for the three parameter groups.
#[derive(Debug, Clone)]
pub(crate) struct Velocity {
    pub w: Matrix,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
}

impl Velocity {
    pub(crate) fn zeros(n_visible: usize, n_hidden: usize) -> Self {
        Self {
            w: Matrix::zeros(n_visible, n_hidden),
            a: vec![0.0; n_visible],
            b: vec![0.0; n_hidden],
        }
    }
}

/// Applies one momentum-smoothed update in place, element by element:
/// `v = momentum·v + step`, then `p = p + v`. Each group's step is given
/// the element's index and its value before the update.
fn apply_update(
    params: &mut RbmParams,
    velocity: &mut Velocity,
    momentum: f64,
    step_w: impl Fn(usize, f64) -> f64,
    step_a: impl Fn(usize, f64) -> f64,
    step_b: impl Fn(usize, f64) -> f64,
) {
    let weights = params.weights.as_mut_slice();
    momentum_update(weights, velocity.w.as_mut_slice(), momentum, step_w);
    momentum_update(&mut params.visible_bias, &mut velocity.a, momentum, step_a);
    momentum_update(&mut params.hidden_bias, &mut velocity.b, momentum, step_b);
}

/// [`apply_update`] on one parameter group.
fn momentum_update(
    params: &mut [f64],
    velocity: &mut [f64],
    momentum: f64,
    step: impl Fn(usize, f64) -> f64,
) {
    for (i, (p, v)) in params.iter_mut().zip(velocity).enumerate() {
        *v = momentum * *v + step(i, *p);
        *p += *v;
    }
}

/// Shuffles (or not) the row order for one epoch.
pub(crate) fn epoch_order(n: usize, shuffle: bool, rng: &mut impl Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if shuffle {
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
    }
    order
}

/// The supervision side of a guided run: the sls hyper-parameters and the
/// local cluster of every supervised instance.
#[derive(Debug, Clone)]
pub(crate) struct Guidance {
    sls: SlsConfig,
    membership: Vec<Option<usize>>,
    n_clusters: usize,
}

impl Guidance {
    /// Checks `sls` and that `supervision` covers only instances below
    /// `n_instances`, the number of rows the run will visit.
    ///
    /// # Errors
    ///
    /// * [`RbmError::InvalidConfig`] if `sls` is invalid.
    /// * [`RbmError::SupervisionOutOfRange`] if the supervision references
    ///   an instance at or beyond `n_instances`.
    pub(crate) fn new(
        supervision: &LocalSupervision,
        sls: SlsConfig,
        n_instances: usize,
    ) -> Result<Self> {
        sls.validate()?;
        if let Some(&index) = supervision.covered_indices().last() {
            if index >= n_instances {
                return Err(RbmError::SupervisionOutOfRange {
                    index,
                    instances: n_instances,
                });
            }
        }
        Ok(Self {
            sls,
            membership: supervision.membership(),
            n_clusters: supervision.n_clusters(),
        })
    }
}

/// What stays fixed across every mini-batch update of one run.
pub(crate) struct UpdateRule<'a> {
    /// CD hyper-parameters.
    pub train: &'a TrainConfig,
    /// The constrict/disperse term, `None` for plain CD.
    pub guide: Option<&'a Guidance>,
    /// Execution policy of the matrix products.
    pub parallel: &'a ParallelPolicy,
}

/// Applies one mini-batch update: CD-k on rows `rows` of `data`, plus the
/// constrict/disperse term when `rule.guide` is set. Row `r` of `data` is
/// supervision instance `offset + r`. Returns the batch's squared error
/// against its CD reconstruction (`V_recon`) under the parameters the
/// update starts from: each row summed first, the rows added in visit order.
///
/// Plain CD keeps its own step formula instead of reusing the guided one
/// with η = 1: the two group the learning rate differently, so their f64
/// results would differ in the last bits.
pub(crate) fn minibatch_step(
    model: &mut Rbm,
    velocity: &mut Velocity,
    rule: &UpdateRule<'_>,
    data: &Matrix,
    rows: &[usize],
    offset: usize,
    rng: &mut impl Rng,
) -> Result<f64> {
    let batch = data.select_rows(rows)?;
    let cd = cd_batch_gradients(model, &batch, rule.train.cd_steps, rule.parallel, rng)?;
    let error = batch
        .row_iter()
        .zip(cd.visible_recon.row_iter())
        .map(|(row, recon)| squared_error(row, recon))
        .sum();
    let lr = rule.train.learning_rate;
    let decay = -rule.train.weight_decay;
    let momentum = rule.train.momentum;
    let g = cd.dw.as_slice();
    match rule.guide {
        // ε(<vh>_data - <vh>_recon) - ε·λ·w  (weight decay)
        None => apply_update(
            model.params_mut(),
            velocity,
            momentum,
            |i, w| lr * (g[i] + decay * w),
            |i, _| lr * cd.da[i],
            |i, _| lr * cd.db[i],
        ),
        Some(guide) => {
            // Supervision gradients on both phases (Eqs. 27–32): the data
            // phase uses (V, H_data); the reconstruction phase uses
            // (V_recon, H_recon) for the same instances.
            let instances: Vec<usize> = rows.iter().map(|&r| offset + r).collect();
            let clusters = clusters_in_batch(&instances, &guide.membership, guide.n_clusters);
            let params = model.params();
            let mut sls =
                sls_batch_gradients(params, &batch, &cd.hidden_data, &clusters, rule.parallel)?;
            sls.accumulate(&sls_batch_gradients(
                params,
                &cd.visible_recon,
                &cd.hidden_recon,
                &clusters,
                rule.parallel,
            )?);
            // Ascend the CD objective (weight η·ε), descend the sls loss
            // (weight (1-η)·ε_sls); the visible biases get only the CD term
            // (Eq. 35).
            let eta = guide.sls.eta;
            let sls_lr = guide.sls.resolve_supervision_lr(lr);
            let (cd_lr, sls_rate) = (eta * lr, -(1.0 - eta) * sls_lr);
            let s = sls.dw.as_slice();
            apply_update(
                model.params_mut(),
                velocity,
                momentum,
                |i, w| (cd_lr * g[i] + sls_rate * s[i]) + lr * (decay * w),
                |i, _| cd_lr * cd.da[i],
                |i, _| cd_lr * cd.db[i] - (1.0 - eta) * sls_lr * sls.db[i],
            );
        }
    }
    Ok(error)
}

/// The in-memory contrastive-divergence trainer for every model kind: plain
/// CD for the RBM / GRBM baselines, and the paper's sls update for slsRBM /
/// slsGRBM when [`CdTrainer::train`] is given a supervision. With one, the
/// weight and hidden-bias updates combine the CD gradient (weight η·ε) with
/// the descent direction of the constrict/disperse loss evaluated on both
/// the data-driven and the reconstruction-driven hidden features (weight
/// (1-η)·ε_sls); the visible biases receive only the CD term (Eq. 35).
#[derive(Debug, Clone)]
pub struct CdTrainer {
    config: TrainConfig,
    parallel: ParallelPolicy,
}

impl CdTrainer {
    /// Creates a trainer after validating the configuration. The trainer
    /// starts with the process-wide [`ParallelPolicy::global`]; override it
    /// with [`CdTrainer::with_parallel`].
    ///
    /// # Errors
    ///
    /// Returns [`RbmError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: TrainConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            parallel: ParallelPolicy::global(),
        })
    }

    /// Sets the parallel execution policy for the training hot path. Results
    /// are bitwise identical for every policy.
    pub fn with_parallel(self, parallel: ParallelPolicy) -> Self {
        Self { parallel, ..self }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The active parallel execution policy.
    pub fn parallel(&self) -> &ParallelPolicy {
        &self.parallel
    }

    /// Trains `model` on `data`, guided by `supervision` if given, and
    /// returns the per-epoch history. Every epoch shuffles the rows (if
    /// configured), applies `minibatch_step` to each mini-batch, and
    /// records the mean of the batches' reconstruction errors (see
    /// [`EpochStats::reconstruction_error`]).
    ///
    /// # Errors
    ///
    /// * [`RbmError::InvalidConfig`] if the sls configuration is invalid.
    /// * [`RbmError::SupervisionOutOfRange`] if the supervision references
    ///   instances that do not exist.
    /// * [`RbmError::EmptyData`] / [`RbmError::VisibleSizeMismatch`] for bad
    ///   input shapes.
    /// * [`RbmError::Diverged`] if parameters become non-finite.
    pub fn train(
        &self,
        model: &mut Rbm,
        data: &Matrix,
        supervision: Option<(&LocalSupervision, &SlsConfig)>,
        rng: &mut impl Rng,
    ) -> Result<TrainingHistory> {
        let guide = supervision
            .map(|(sup, sls)| Guidance::new(sup, *sls, data.rows()))
            .transpose()?;
        let params = model.params();
        params.check_data(data)?;
        let mut velocity = Velocity::zeros(params.n_visible(), params.n_hidden());
        let cfg = &self.config;
        let rule = UpdateRule {
            train: cfg,
            guide: guide.as_ref(),
            parallel: &self.parallel,
        };
        let mut history = TrainingHistory::default();
        for epoch in 0..cfg.epochs {
            let mut error = 0.0;
            for rows in epoch_order(data.rows(), cfg.shuffle, rng).chunks(cfg.batch_size) {
                error += minibatch_step(model, &mut velocity, &rule, data, rows, 0, rng)?;
            }
            if !model.params().is_finite() {
                return Err(RbmError::Diverged { epoch });
            }
            history.epochs.push(EpochStats {
                epoch,
                reconstruction_error: error / data.len() as f64,
            });
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VisibleKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_linalg::MatrixRandomExt;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(100)
    }

    /// Binary toy data with two clear prototypes.
    fn binary_prototype_data(rng: &mut impl Rng) -> Matrix {
        let proto_a = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
        let proto_b = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut rows = Vec::new();
        for i in 0..60 {
            let proto = if i % 2 == 0 { proto_a } else { proto_b };
            let row: Vec<f64> = proto
                .iter()
                .map(|&p| if rng.gen::<f64>() < 0.05 { 1.0 - p } else { p })
                .collect();
            rows.push(row);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn trainer_rejects_invalid_config() {
        assert!(CdTrainer::new(TrainConfig::default().with_epochs(0)).is_err());
        assert!(CdTrainer::new(TrainConfig::default()).is_ok());
    }

    #[test]
    fn rbm_training_reduces_reconstruction_error() {
        let mut r = rng();
        let data = binary_prototype_data(&mut r);
        let mut rbm = Rbm::new(VisibleKind::Binary, 6, 4, &mut r);
        let before = rbm.reconstruction_error(&data).unwrap();
        let config = TrainConfig::quick().with_epochs(30).with_learning_rate(0.1);
        let history = CdTrainer::new(config)
            .unwrap()
            .train(&mut rbm, &data, None, &mut r)
            .unwrap();
        let after = rbm.reconstruction_error(&data).unwrap();
        assert!(
            after < before,
            "reconstruction error did not improve: {before} -> {after}"
        );
        assert_eq!(history.epochs.len(), 30);
        assert!(history.improved());
    }

    #[test]
    fn grbm_training_reduces_reconstruction_error() {
        let mut r = rng();
        // Two Gaussian prototypes in 5 dimensions (already standardised-ish).
        let mut rows = Vec::new();
        for i in 0..80 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let row: Vec<f64> = (0..5)
                .map(|_| sign + 0.3 * (r.gen::<f64>() - 0.5))
                .collect();
            rows.push(row);
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let mut grbm = Rbm::new(VisibleKind::Gaussian, 5, 3, &mut r);
        let before = grbm.reconstruction_error(&data).unwrap();
        let config = TrainConfig::quick()
            .with_epochs(40)
            .with_learning_rate(0.01);
        CdTrainer::new(config)
            .unwrap()
            .train(&mut grbm, &data, None, &mut r)
            .unwrap();
        let after = grbm.reconstruction_error(&data).unwrap();
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn history_records_every_epoch_in_order() {
        let mut r = rng();
        let data = Matrix::random_bernoulli(20, 4, 0.5, &mut r);
        let mut rbm = Rbm::new(VisibleKind::Binary, 4, 2, &mut r);
        let history = CdTrainer::new(TrainConfig::quick().with_epochs(7))
            .unwrap()
            .train(&mut rbm, &data, None, &mut r)
            .unwrap();
        assert_eq!(history.epochs.len(), 7);
        for (i, e) in history.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert!(e.reconstruction_error.is_finite());
        }
        assert!(history.final_error().is_some());
        assert!(history.initial_error().is_some());
    }

    #[test]
    fn training_rejects_mismatched_data() {
        let mut r = rng();
        let mut rbm = Rbm::new(VisibleKind::Binary, 4, 2, &mut r);
        let wrong = Matrix::zeros(5, 6);
        assert!(matches!(
            CdTrainer::new(TrainConfig::quick())
                .unwrap()
                .train(&mut rbm, &wrong, None, &mut r),
            Err(RbmError::VisibleSizeMismatch { .. })
        ));
        let empty = Matrix::zeros(0, 4);
        assert!(matches!(
            CdTrainer::new(TrainConfig::quick())
                .unwrap()
                .train(&mut rbm, &empty, None, &mut r),
            Err(RbmError::EmptyData)
        ));
    }

    #[test]
    fn excessive_learning_rate_is_reported_as_divergence() {
        let mut r = rng();
        let data = Matrix::random_normal(30, 4, 0.0, 1.0, &mut r).scale(1e3);
        let mut grbm = Rbm::new(VisibleKind::Gaussian, 4, 3, &mut r);
        let config = TrainConfig::quick()
            .with_learning_rate(1e12)
            .with_epochs(50);
        let result = CdTrainer::new(config)
            .unwrap()
            .train(&mut grbm, &data, None, &mut r);
        // Either it diverges (expected) or the reconstruction error is
        // finite; what must never happen is a silent NaN model.
        match result {
            Err(RbmError::Diverged { .. }) => {}
            Ok(_) => assert!(grbm.params().is_finite()),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn cd_gradients_have_expected_shapes() {
        let mut r = rng();
        let rbm = Rbm::new(VisibleKind::Binary, 6, 4, &mut r);
        let batch = Matrix::random_bernoulli(10, 6, 0.5, &mut r);
        let grads = cd_batch_gradients(&rbm, &batch, 1, &ParallelPolicy::serial(), &mut r).unwrap();
        assert_eq!(grads.dw.shape(), (6, 4));
        assert_eq!(grads.da.len(), 6);
        assert_eq!(grads.db.len(), 4);
        assert_eq!(grads.hidden_data.shape(), (10, 4));
        assert_eq!(grads.visible_recon.shape(), (10, 6));
        assert_eq!(grads.hidden_recon.shape(), (10, 4));
    }

    #[test]
    fn cd_gradient_is_zero_when_reconstruction_is_perfect() {
        // With weights = 0 and visible bias matching the data statistics on a
        // constant dataset, the reconstruction equals the data and the CD
        // gradient on the weights vanishes in expectation. Use a fully
        // deterministic setup: all-ones data, huge positive visible bias.
        let mut r = rng();
        let mut rbm = Rbm::new(VisibleKind::Binary, 3, 2, &mut r);
        rbm.params_mut().weights = Matrix::zeros(3, 2);
        rbm.params_mut().visible_bias = vec![50.0, 50.0, 50.0];
        let data = Matrix::filled(8, 3, 1.0);
        let grads = cd_batch_gradients(&rbm, &data, 1, &ParallelPolicy::serial(), &mut r).unwrap();
        assert!(grads.dw.frobenius_norm() < 1e-9);
        assert!(grads.da.iter().all(|x| x.abs() < 1e-9));
        assert!(grads.db.iter().all(|x| x.abs() < 1e-9));
    }

    #[test]
    fn epoch_order_is_a_permutation() {
        let mut r = rng();
        let order = epoch_order(50, true, &mut r);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let unshuffled = epoch_order(5, false, &mut r);
        assert_eq!(unshuffled, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_training_is_bitwise_identical_to_serial() {
        // The reproducibility contract of the parallel layer: identical
        // seeds give identical parameters for every thread count, because
        // the kernels are bitwise deterministic and the RNG is only consumed
        // by strictly serial sampling. The epoch errors, summed per row and
        // then in visit order, share those bits.
        let data = binary_prototype_data(&mut rng());
        let config = TrainConfig::quick().with_epochs(5);
        let mut trained = Vec::new();
        for parallel in [
            ParallelPolicy::serial(),
            ParallelPolicy::eager(2),
            ParallelPolicy::eager(4),
            ParallelPolicy::eager(7),
            ParallelPolicy::new(7),
        ] {
            let mut model = Rbm::new(VisibleKind::Binary, 6, 4, &mut rng());
            let history = CdTrainer::new(config)
                .unwrap()
                .with_parallel(parallel)
                .train(&mut model, &data, None, &mut rng())
                .unwrap();
            trained.push((model, history));
        }
        let (reference, reference_history) = &trained[0];
        for (model, history) in &trained[1..] {
            assert_eq!(model.params(), reference.params());
            assert_eq!(
                model.params().weights.as_slice(),
                reference.params().weights.as_slice()
            );
            assert_eq!(history, reference_history);
        }
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut r = rng();
        let mut rbm = Rbm::new(VisibleKind::Binary, 2, 2, &mut r);
        rbm.params_mut().weights = Matrix::zeros(2, 2);
        let mut velocity = Velocity::zeros(2, 2);
        for _ in 0..2 {
            apply_update(
                rbm.params_mut(),
                &mut velocity,
                0.5,
                |_, _| 1.0,
                |_, _| 0.0,
                |_, _| 0.0,
            );
        }
        // First update: +1, second: +1.5 (momentum carries half of the first).
        assert!((rbm.params().weights[(0, 0)] - 2.5).abs() < 1e-12);
    }
}
