//! K-means clustering (Lloyd's algorithm with k-means++ seeding).
//!
//! This is the `K-means` baseline of Tables IV–IX and one of the three base
//! clusterers feeding the self-learning local supervision. The paper cites
//! Lloyd (1982); we add k-means++ seeding and multiple restarts because the
//! paper reports averaged results with variances, implying repeated runs.

use crate::{ClusterAssignment, Clusterer, ClusteringError, Result};
use rand::Rng;
use sls_linalg::{squared_euclidean_distance, Matrix, ParallelPolicy};

/// Configuration and entry point for k-means.
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iterations: usize,
    tolerance: f64,
    restarts: usize,
    parallel: ParallelPolicy,
}

/// Detailed outcome of a k-means run (the best restart).
#[derive(Debug, Clone)]
pub struct KMeansOutcome {
    /// The final assignment.
    pub assignment: ClusterAssignment,
    /// Final within-cluster sum of squares.
    pub inertia: f64,
    /// Number of Lloyd iterations executed by the best restart.
    pub iterations: usize,
    /// Whether the best restart converged (centre shift below tolerance)
    /// before hitting the iteration cap.
    pub converged: bool,
}

impl KMeans {
    /// Creates a k-means clusterer targeting `k` clusters with default
    /// hyper-parameters (100 iterations, tolerance `1e-6`, 4 restarts).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 100,
            tolerance: 1e-6,
            restarts: 4,
            parallel: ParallelPolicy::global(),
        }
    }

    /// Sets the maximum number of Lloyd iterations per restart.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations.max(1);
        self
    }

    /// Sets the convergence tolerance on the total centre shift.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance.max(0.0);
        self
    }

    /// Sets the number of random restarts; the restart with the lowest
    /// inertia wins.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Routes the per-instance distance scans (assignment step and k-means++
    /// seeding) through the shared row kernels under `parallel` (default:
    /// [`ParallelPolicy::global`]).
    ///
    /// Every random draw stays on the caller's thread and the per-row work is
    /// read-only, so the result is bitwise identical to the serial run.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Validates the `(k, data)` combination every entry point must hold
    /// before any seeding code runs: k-means++ would panic on an empty range
    /// (`gen_range(0..0)`) for empty data, and `k > n` would silently seed
    /// duplicate centres.
    ///
    /// # Errors
    ///
    /// * [`ClusteringError::EmptyData`] if `data` has no rows.
    /// * [`ClusteringError::ZeroClusters`] if `k == 0`.
    /// * [`ClusteringError::TooManyClusters`] if `k > data.rows()`.
    fn validate(&self, data: &Matrix) -> Result<()> {
        if data.rows() == 0 {
            return Err(ClusteringError::EmptyData);
        }
        if self.k == 0 {
            return Err(ClusteringError::ZeroClusters);
        }
        if self.k > data.rows() {
            return Err(ClusteringError::TooManyClusters {
                requested: self.k,
                instances: data.rows(),
            });
        }
        Ok(())
    }

    /// Runs k-means and returns the detailed outcome of the best restart.
    ///
    /// # Errors
    ///
    /// * [`ClusteringError::EmptyData`] if `data` has no rows.
    /// * [`ClusteringError::ZeroClusters`] if `k == 0`.
    /// * [`ClusteringError::TooManyClusters`] if `k > data.rows()`.
    pub fn fit(&self, data: &Matrix, rng: &mut impl Rng) -> Result<KMeansOutcome> {
        self.validate(data)?;
        let mut best: Option<KMeansOutcome> = None;
        for _ in 0..self.restarts {
            let outcome = self.fit_once(data, rng)?;
            let better = match &best {
                None => true,
                Some(b) => outcome.inertia < b.inertia,
            };
            if better {
                best = Some(outcome);
            }
        }
        Ok(best.expect("at least one restart"))
    }

    /// One restart: k-means++ seeding followed by Lloyd iterations.
    ///
    /// Re-checks [`KMeans::validate`] so a future entry point cannot reach
    /// the seeding code with a panicking or degenerate `(k, data)` pair.
    fn fit_once(&self, data: &Matrix, rng: &mut impl Rng) -> Result<KMeansOutcome> {
        self.validate(data)?;
        let mut centers = self.kmeans_plus_plus_init(data, rng);
        let n = data.rows();
        let mut labels = vec![0usize; n];
        let mut converged = false;
        let mut iterations = 0;

        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            // Assignment step.
            self.assign_labels(data, &centers, &mut labels);
            // Update step: the scatter accumulates in label order, which a
            // row-parallel split would reorder, so it stays serial.
            let mut new_centers = Matrix::zeros(self.k, data.cols());
            let mut counts = vec![0usize; self.k];
            for (i, &l) in labels.iter().enumerate() {
                counts[l] += 1;
                let row = data.row(i);
                let c = new_centers.row_mut(l);
                for (cj, &xj) in c.iter_mut().zip(row) {
                    *cj += xj;
                }
            }
            for (l, &count) in counts.iter().enumerate().take(self.k) {
                if count == 0 {
                    // Re-seed an empty cluster at a random data point so k is
                    // preserved (standard empty-cluster handling).
                    let i = rng.gen_range(0..n);
                    new_centers.row_mut(l).copy_from_slice(data.row(i));
                } else {
                    let c = new_centers.row_mut(l);
                    for cj in c.iter_mut() {
                        *cj /= count as f64;
                    }
                }
            }
            // Convergence check on total centre movement.
            let shift: f64 = (0..self.k)
                .map(|l| squared_euclidean_distance(centers.row(l), new_centers.row(l)))
                .sum();
            centers = new_centers;
            if shift <= self.tolerance {
                converged = true;
                break;
            }
        }

        // Final assignment against the final centres.
        self.assign_labels(data, &centers, &mut labels);
        let assignment = ClusterAssignment::new(labels, centers, "K-means");
        let inertia = assignment.inertia(data);
        Ok(KMeansOutcome {
            assignment,
            inertia,
            iterations,
            converged,
        })
    }

    /// Assigns every instance to its nearest centre through the pooled row
    /// kernel. Cluster indices round-trip through `f64` losslessly
    /// (`k <= n` is far below 2^53).
    fn assign_labels(&self, data: &Matrix, centers: &Matrix, labels: &mut [usize]) {
        let nearest = data.reduce_rows_with(&self.parallel, |_, row| {
            centers
                .nearest_row(row)
                .expect("centers is non-empty because k >= 1") as f64
        });
        for (label, &idx) in labels.iter_mut().zip(&nearest) {
            *label = idx as usize;
        }
    }

    /// k-means++ seeding: the first centre is uniform, subsequent centres are
    /// sampled proportionally to the squared distance to the nearest chosen
    /// centre.
    ///
    /// The distance scans are row-parallel; the sampling draws between them
    /// happen on the caller's thread in a fixed order, so the sequence of RNG
    /// consumptions — and therefore the seeding — is independent of the
    /// parallel policy.
    fn kmeans_plus_plus_init(&self, data: &Matrix, rng: &mut impl Rng) -> Matrix {
        let n = data.rows();
        let mut centers = Matrix::zeros(self.k, data.cols());
        let first = rng.gen_range(0..n);
        centers.row_mut(0).copy_from_slice(data.row(first));

        let mut min_dists = data.reduce_rows_with(&self.parallel, |_, row| {
            squared_euclidean_distance(row, centers.row(0))
        });

        for c in 1..self.k {
            let total: f64 = min_dists.iter().sum();
            let chosen = if total <= f64::EPSILON {
                // All points coincide with existing centres; pick uniformly.
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut idx = n - 1;
                for (i, &d) in min_dists.iter().enumerate() {
                    if target < d {
                        idx = i;
                        break;
                    }
                    target -= d;
                }
                idx
            };
            centers.row_mut(c).copy_from_slice(data.row(chosen));
            let center = centers.row(c);
            min_dists = data.reduce_rows_with(&self.parallel, |i, row| {
                let d = squared_euclidean_distance(row, center);
                if d < min_dists[i] {
                    d
                } else {
                    min_dists[i]
                }
            });
        }
        centers
    }
}

impl Clusterer for KMeans {
    fn name(&self) -> &'static str {
        "K-means"
    }

    fn cluster(&self, data: &Matrix, mut rng: &mut dyn rand::RngCore) -> Result<ClusterAssignment> {
        Ok(self.fit(data, &mut rng)?.assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_datasets::SyntheticBlobs;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(21)
    }

    #[test]
    fn rejects_invalid_inputs() {
        let data = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(matches!(
            KMeans::new(0).fit(&data, &mut rng()),
            Err(ClusteringError::ZeroClusters)
        ));
        assert!(matches!(
            KMeans::new(3).fit(&data, &mut rng()),
            Err(ClusteringError::TooManyClusters { .. })
        ));
        assert!(matches!(
            KMeans::new(1).fit(&Matrix::zeros(0, 2), &mut rng()),
            Err(ClusteringError::EmptyData)
        ));
    }

    #[test]
    fn trait_path_rejects_invalid_inputs_instead_of_panicking() {
        // The supervision builder reaches k-means through `dyn Clusterer`,
        // so degenerate inputs must surface as errors on that path too:
        // empty data would otherwise panic inside k-means++ seeding
        // (`gen_range(0..0)`), and `k > n` would seed duplicate centres.
        let mut r = rng();
        let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let empty = Matrix::zeros(0, 2);
        let cases: Vec<(Box<dyn Clusterer>, &Matrix, ClusteringError)> = vec![
            (Box::new(KMeans::new(1)), &empty, ClusteringError::EmptyData),
            (
                Box::new(KMeans::new(0)),
                &data,
                ClusteringError::ZeroClusters,
            ),
            (
                Box::new(KMeans::new(5)),
                &data,
                ClusteringError::TooManyClusters {
                    requested: 5,
                    instances: 2,
                },
            ),
        ];
        for (clusterer, input, expected) in cases {
            assert_eq!(clusterer.cluster(input, &mut r).unwrap_err(), expected);
        }
    }

    #[test]
    fn zero_width_data_gets_one_label_per_row() {
        // Rows without features are all at distance 0 from every centre;
        // the assignment must still label each of them, not panic.
        let data = Matrix::zeros(10, 0);
        let outcome = KMeans::new(3).fit(&data, &mut rng()).unwrap();
        let labels = outcome.assignment.labels();
        assert_eq!(labels.len(), 10);
        assert!(labels.iter().all(|&l| l < 3));
    }

    #[test]
    fn recovers_two_obvious_clusters() {
        let data = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.2],
            vec![0.2, 0.1],
            vec![9.0, 9.0],
            vec![9.1, 8.9],
            vec![8.9, 9.2],
        ])
        .unwrap();
        let outcome = KMeans::new(2).fit(&data, &mut rng()).unwrap();
        let l = outcome.assignment.labels();
        assert_eq!(l[0], l[1]);
        assert_eq!(l[1], l[2]);
        assert_eq!(l[3], l[4]);
        assert_eq!(l[4], l[5]);
        assert_ne!(l[0], l[3]);
        assert!(outcome.converged);
        assert!(outcome.inertia < 1.0);
    }

    #[test]
    fn k_equal_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0], vec![5.0], vec![10.0]]).unwrap();
        let outcome = KMeans::new(3).fit(&data, &mut rng()).unwrap();
        assert!(outcome.inertia < 1e-12);
        assert_eq!(outcome.assignment.n_occupied_clusters(), 3);
    }

    #[test]
    fn single_cluster_centre_is_global_mean() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![2.0, 4.0], vec![4.0, 8.0]]).unwrap();
        let outcome = KMeans::new(1).fit(&data, &mut rng()).unwrap();
        assert_eq!(outcome.assignment.centers().row(0), &[2.0, 4.0]);
        assert!(outcome.assignment.labels().iter().all(|&l| l == 0));
    }

    #[test]
    fn high_separation_blobs_recovered_accurately() {
        let ds = SyntheticBlobs::new(120, 6, 3)
            .separation(8.0)
            .generate(&mut rng());
        let outcome = KMeans::new(3).fit(ds.features(), &mut rng()).unwrap();
        let acc =
            sls_metrics::clustering_accuracy(outcome.assignment.labels(), ds.labels()).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn more_restarts_never_increase_inertia() {
        let ds = SyntheticBlobs::new(80, 4, 4)
            .separation(3.0)
            .generate(&mut rng());
        let one = KMeans::new(4)
            .with_restarts(1)
            .fit(ds.features(), &mut rng())
            .unwrap();
        let many = KMeans::new(4)
            .with_restarts(8)
            .fit(ds.features(), &mut rng())
            .unwrap();
        assert!(many.inertia <= one.inertia + 1e-9);
    }

    #[test]
    fn duplicate_points_do_not_break_seeding() {
        let data = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]).unwrap();
        let outcome = KMeans::new(3).fit(&data, &mut rng()).unwrap();
        assert_eq!(outcome.assignment.labels().len(), 10);
        assert!(outcome.inertia < 1e-12);
    }

    #[test]
    fn trait_object_usage_works() {
        let ds = SyntheticBlobs::new(30, 3, 2)
            .separation(6.0)
            .generate(&mut rng());
        let clusterer: Box<dyn Clusterer> = Box::new(KMeans::new(2));
        let a = clusterer.cluster(ds.features(), &mut rng()).unwrap();
        assert_eq!(a.n_instances(), 30);
        assert_eq!(clusterer.name(), "K-means");
    }

    #[test]
    fn parallel_assignment_is_identical_to_serial() {
        let ds = SyntheticBlobs::new(70, 5, 3)
            .separation(2.0)
            .generate(&mut rng());
        let serial = KMeans::new(3)
            .with_parallel(ParallelPolicy::serial())
            .fit(ds.features(), &mut rng())
            .unwrap();
        for threads in [2, 4, 8] {
            let policy = ParallelPolicy::new(threads).with_min_rows_per_thread(1);
            let parallel = KMeans::new(3)
                .with_parallel(policy)
                .fit(ds.features(), &mut rng())
                .unwrap();
            assert_eq!(serial.assignment.labels(), parallel.assignment.labels());
            assert_eq!(
                serial.assignment.centers().as_slice(),
                parallel.assignment.centers().as_slice()
            );
            assert_eq!(serial.inertia.to_bits(), parallel.inertia.to_bits());
        }
    }

    #[test]
    fn iterations_respect_cap() {
        let ds = SyntheticBlobs::new(60, 4, 3)
            .separation(1.0)
            .generate(&mut rng());
        let outcome = KMeans::new(3)
            .with_max_iterations(2)
            .with_restarts(1)
            .fit(ds.features(), &mut rng())
            .unwrap();
        assert!(outcome.iterations <= 2);
    }
}
