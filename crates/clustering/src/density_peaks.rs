//! Density peaks clustering (Rodriguez & Laio, *Science* 2014).
//!
//! This is the `DP` algorithm of the paper's experiments — its strongest
//! conventional baseline. The algorithm:
//!
//! 1. computes the pairwise distance matrix and a cutoff distance `d_c`
//!    chosen so that a small fraction of all pairs are "neighbours";
//! 2. assigns every point a local density `ρ_i` (Gaussian kernel over the
//!    cutoff) and a separation `δ_i` — the distance to the nearest point of
//!    higher density (the densest point gets the largest distance overall);
//! 3. selects the `k` points with the largest `γ_i = ρ_i · δ_i` as cluster
//!    centres;
//! 4. assigns the remaining points, in order of decreasing density, to the
//!    cluster of their nearest higher-density neighbour.

use crate::{ClusterAssignment, Clusterer, ClusteringError, Result};
use sls_linalg::{pairwise_distances, Matrix, ParallelPolicy};

/// Configuration and entry point for density peaks clustering.
#[derive(Debug, Clone)]
pub struct DensityPeaks {
    k: usize,
    neighbor_fraction: f64,
    gaussian_kernel: bool,
    parallel: ParallelPolicy,
}

/// Detailed outcome of a density peaks run.
#[derive(Debug, Clone)]
pub struct DensityPeaksOutcome {
    /// The final assignment.
    pub assignment: ClusterAssignment,
    /// Local density `ρ` of every instance.
    pub densities: Vec<f64>,
    /// Separation `δ` of every instance.
    pub separations: Vec<f64>,
    /// Indices of the instances chosen as cluster centres.
    pub center_indices: Vec<usize>,
    /// Cutoff distance `d_c` used for the density estimate.
    pub cutoff_distance: f64,
}

impl DensityPeaks {
    /// Creates a density peaks clusterer that extracts `k` clusters, using a
    /// Gaussian kernel density with the customary 2% neighbour fraction.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            neighbor_fraction: 0.02,
            gaussian_kernel: true,
            parallel: ParallelPolicy::global(),
        }
    }

    /// Sets the fraction of pairwise distances used to pick the cutoff
    /// distance `d_c` (the paper's rule of thumb is 1–2%).
    ///
    /// Values are clamped to `(0, 1]`.
    pub fn with_neighbor_fraction(mut self, fraction: f64) -> Self {
        self.neighbor_fraction = fraction.clamp(f64::EPSILON, 1.0);
        self
    }

    /// Chooses between the Gaussian kernel density (default, smoother) and
    /// the original hard cutoff counter.
    pub fn with_gaussian_kernel(mut self, gaussian: bool) -> Self {
        self.gaussian_kernel = gaussian;
        self
    }

    /// Routes the distance matrix ([`sls_linalg::pairwise_distances`]) and
    /// the density and separation scans (pooled row kernels) through
    /// `parallel` (default: [`ParallelPolicy::global`]).
    ///
    /// Every element keeps its serial accumulation order, so the result is
    /// bitwise identical to the serial run. The cutoff quantile and the
    /// density-ordered label propagation stay serial.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Runs the algorithm and returns the detailed outcome.
    ///
    /// # Errors
    ///
    /// * [`ClusteringError::EmptyData`] if `data` has no rows.
    /// * [`ClusteringError::ZeroClusters`] if `k == 0`.
    /// * [`ClusteringError::TooManyClusters`] if `k > data.rows()`.
    pub fn fit(&self, data: &Matrix) -> Result<DensityPeaksOutcome> {
        let n = data.rows();
        if n == 0 {
            return Err(ClusteringError::EmptyData);
        }
        if self.k == 0 {
            return Err(ClusteringError::ZeroClusters);
        }
        if self.k > n {
            return Err(ClusteringError::TooManyClusters {
                requested: self.k,
                instances: n,
            });
        }

        let distances = pairwise_distances(data, &self.parallel);
        let cutoff = self.cutoff_distance(&distances);
        let densities = self.local_densities(&distances, cutoff);
        let (separations, nearest_higher) = separations(&distances, &densities, &self.parallel);

        // γ = ρ * δ ranks centre candidates.
        let mut gamma: Vec<(usize, f64)> = densities
            .iter()
            .zip(&separations)
            .map(|(&rho, &delta)| rho * delta)
            .enumerate()
            .collect();
        gamma.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("gamma is finite"));
        let center_indices: Vec<usize> = gamma.iter().take(self.k).map(|&(i, _)| i).collect();

        // Assign centres their own cluster ids.
        let mut labels = vec![usize::MAX; n];
        for (cluster, &idx) in center_indices.iter().enumerate() {
            labels[idx] = cluster;
        }

        // Remaining points inherit the label of their nearest higher-density
        // neighbour, processed in order of decreasing density so the parent
        // is always labelled first.
        let mut density_order: Vec<usize> = (0..n).collect();
        density_order.sort_by(|&a, &b| {
            densities[b]
                .partial_cmp(&densities[a])
                .expect("densities are finite")
        });
        for &i in &density_order {
            if labels[i] == usize::MAX {
                let parent = nearest_higher[i].expect("non-centre points have a parent");
                labels[i] = labels[parent];
            }
        }
        debug_assert!(labels.iter().all(|&l| l != usize::MAX));

        let assignment = ClusterAssignment::from_labels(labels, data, "DP");
        Ok(DensityPeaksOutcome {
            assignment,
            densities,
            separations,
            center_indices,
            cutoff_distance: cutoff,
        })
    }

    /// The cutoff distance is the `neighbor_fraction` quantile of all
    /// pairwise distances (excluding the diagonal), found by selection
    /// rather than a full sort. Equal distances share their bits (all are
    /// `+0.0` or positive, or all `−0.0` with no columns), so the selected
    /// value is the one the sorted order puts there.
    fn cutoff_distance(&self, distances: &Matrix) -> f64 {
        let n = distances.rows();
        if n <= 1 {
            return 0.0;
        }
        let mut all: Vec<f64> = Vec::with_capacity(n * (n - 1) / 2);
        for (i, row) in distances.row_iter().enumerate() {
            all.extend_from_slice(&row[i + 1..]);
        }
        let pos = ((all.len() as f64) * self.neighbor_fraction).ceil() as usize;
        let idx = pos.clamp(1, all.len()) - 1;
        let (_, &mut d, _) =
            all.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("distances are finite"));
        // A zero cutoff (many duplicate points) would collapse the Gaussian
        // kernel; fall back to the smallest positive distance or 1.0.
        if d > 0.0 {
            d
        } else {
            all.iter()
                .copied()
                .filter(|&x| x > 0.0)
                .reduce(f64::min)
                .unwrap_or(1.0)
        }
    }

    /// Each `ρ_i` sums the kernel over row `i` of the distance matrix in
    /// index order — the same order as the serial loop — so the parallel
    /// result is bitwise identical.
    fn local_densities(&self, distances: &Matrix, cutoff: f64) -> Vec<f64> {
        distances.reduce_rows_with(distances.cols(), &self.parallel, |i, drow| {
            drow.iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &d)| {
                    if self.gaussian_kernel {
                        (-(d / cutoff) * (d / cutoff)).exp()
                    } else if d < cutoff {
                        1.0
                    } else {
                        0.0
                    }
                })
                .sum()
        })
    }
}

/// For every point: the distance to the nearest point of strictly higher
/// density (ties broken by index), and that point's index. The globally
/// densest point gets the maximum distance to any point and no parent.
///
/// Each point's scan is independent, so the rows go through the pooled row
/// kernel; `(δ_i, parent_i)` is packed into a two-column matrix with the
/// parent index as `f64` (−1 for "no parent"), which round-trips losslessly
/// for any realistic `n`.
fn separations(
    distances: &Matrix,
    densities: &[f64],
    parallel: &ParallelPolicy,
) -> (Vec<f64>, Vec<Option<usize>>) {
    let n = densities.len();
    let packed = distances.map_rows_with(2, n, parallel, |i, drow, out| {
        let mut best: Option<(usize, f64)> = None;
        for (j, &d) in drow.iter().enumerate() {
            if j == i {
                continue;
            }
            let higher = densities[j] > densities[i] || (densities[j] == densities[i] && j < i);
            if higher && best.map_or(true, |(_, bd)| d < bd) {
                best = Some((j, d));
            }
        }
        match best {
            Some((j, d)) => {
                out[0] = d;
                out[1] = j as f64;
            }
            None => {
                // Densest point overall: δ is its largest distance to anyone.
                out[0] = drow
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &d)| d)
                    .fold(0.0, f64::max);
                out[1] = -1.0;
            }
        }
    });
    let mut deltas = vec![0.0; n];
    let mut parents = vec![None; n];
    for i in 0..n {
        deltas[i] = packed[(i, 0)];
        if packed[(i, 1)] >= 0.0 {
            parents[i] = Some(packed[(i, 1)] as usize);
        }
    }
    (deltas, parents)
}

impl Clusterer for DensityPeaks {
    fn name(&self) -> &'static str {
        "DP"
    }

    fn cluster(&self, data: &Matrix, _rng: &mut dyn rand::RngCore) -> Result<ClusterAssignment> {
        Ok(self.fit(data)?.assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_datasets::SyntheticBlobs;

    #[test]
    fn rejects_invalid_inputs() {
        let data = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(matches!(
            DensityPeaks::new(0).fit(&data),
            Err(ClusteringError::ZeroClusters)
        ));
        assert!(matches!(
            DensityPeaks::new(5).fit(&data),
            Err(ClusteringError::TooManyClusters { .. })
        ));
        assert!(matches!(
            DensityPeaks::new(1).fit(&Matrix::zeros(0, 1)),
            Err(ClusteringError::EmptyData)
        ));
    }

    #[test]
    fn recovers_two_obvious_clusters() {
        let data = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.3, 0.1],
            vec![0.1, 0.3],
            vec![0.2, 0.2],
            vec![10.0, 10.0],
            vec![10.2, 10.1],
            vec![9.8, 10.2],
            vec![10.1, 9.9],
        ])
        .unwrap();
        let outcome = DensityPeaks::new(2).fit(&data).unwrap();
        let l = outcome.assignment.labels();
        assert_eq!(l[0], l[1]);
        assert_eq!(l[1], l[2]);
        assert_eq!(l[2], l[3]);
        assert_eq!(l[4], l[5]);
        assert_eq!(l[6], l[7]);
        assert_ne!(l[0], l[4]);
        assert_eq!(outcome.center_indices.len(), 2);
    }

    #[test]
    fn densest_point_has_largest_separation() {
        let data =
            Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![0.15], vec![5.0]]).unwrap();
        let outcome = DensityPeaks::new(2).fit(&data).unwrap();
        // The densest point is inside the tight group; its separation must be
        // the largest distance from it (to the outlier at 5.0).
        let densest = outcome
            .densities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let max_sep = outcome
            .separations
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(outcome.separations[densest], max_sep);
    }

    #[test]
    fn all_labels_assigned_and_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let ds = SyntheticBlobs::new(100, 4, 3)
            .separation(3.0)
            .generate(&mut rng);
        let outcome = DensityPeaks::new(3).fit(ds.features()).unwrap();
        assert_eq!(outcome.assignment.labels().len(), 100);
        assert!(outcome.assignment.labels().iter().all(|&l| l < 3));
        assert_eq!(outcome.assignment.n_occupied_clusters(), 3);
    }

    #[test]
    fn separated_blobs_recovered_accurately() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let ds = SyntheticBlobs::new(120, 6, 3)
            .separation(8.0)
            .generate(&mut rng);
        let outcome = DensityPeaks::new(3).fit(ds.features()).unwrap();
        let acc =
            sls_metrics::clustering_accuracy(outcome.assignment.labels(), ds.labels()).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn deterministic_regardless_of_rng() {
        let mut rng_a = ChaCha8Rng::seed_from_u64(1);
        let mut rng_b = ChaCha8Rng::seed_from_u64(2);
        let ds = SyntheticBlobs::new(60, 4, 3)
            .separation(5.0)
            .generate(&mut rng_a);
        let dp = DensityPeaks::new(3);
        let a = dp.cluster(ds.features(), &mut rng_a).unwrap();
        let b = dp.cluster(ds.features(), &mut rng_b).unwrap();
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn parallel_fit_is_identical_to_serial() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let ds = SyntheticBlobs::new(80, 4, 3)
            .separation(3.0)
            .generate(&mut rng);
        let serial = DensityPeaks::new(3)
            .with_parallel(ParallelPolicy::serial())
            .fit(ds.features())
            .unwrap();
        for threads in [2, 4, 8] {
            let policy = ParallelPolicy::eager(threads);
            let parallel = DensityPeaks::new(3)
                .with_parallel(policy)
                .fit(ds.features())
                .unwrap();
            assert_eq!(serial.assignment.labels(), parallel.assignment.labels());
            assert_eq!(serial.center_indices, parallel.center_indices);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&serial.densities), bits(&parallel.densities));
            assert_eq!(bits(&serial.separations), bits(&parallel.separations));
        }
    }

    #[test]
    fn hard_cutoff_kernel_also_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let ds = SyntheticBlobs::new(90, 4, 3)
            .separation(7.0)
            .generate(&mut rng);
        let outcome = DensityPeaks::new(3)
            .with_gaussian_kernel(false)
            .with_neighbor_fraction(0.05)
            .fit(ds.features())
            .unwrap();
        let acc =
            sls_metrics::clustering_accuracy(outcome.assignment.labels(), ds.labels()).unwrap();
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn duplicate_points_do_not_panic() {
        let data = Matrix::from_rows(&vec![vec![1.0, 1.0]; 6]).unwrap();
        let outcome = DensityPeaks::new(2).fit(&data).unwrap();
        assert_eq!(outcome.assignment.labels().len(), 6);
    }

    /// The cutoff as a full sort of every pair's distance reads it.
    fn sorted_quantile_cutoff(dp: &DensityPeaks, distances: &Matrix) -> f64 {
        let n = distances.rows();
        if n <= 1 {
            return 0.0;
        }
        let mut all: Vec<f64> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .map(|(i, j)| distances[(i, j)])
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = ((all.len() as f64) * dp.neighbor_fraction).ceil() as usize;
        let d = all[pos.clamp(1, all.len()) - 1];
        if d > 0.0 {
            d
        } else {
            all.iter().copied().find(|&x| x > 0.0).unwrap_or(1.0)
        }
    }

    #[test]
    fn cutoff_by_selection_matches_the_sorted_quantile() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let random = SyntheticBlobs::new(70, 5, 3)
            .separation(2.0)
            .generate(&mut rng)
            .features()
            .clone();
        // Half the rows repeat one row, so the low quantiles are zeros and
        // the fallback picks the smallest positive distance.
        let duplicates = Matrix::from_fn(40, 3, |i, j| {
            if i % 2 == 0 {
                1.0
            } else {
                (i * 3 + j) as f64 * 0.5
            }
        });
        let zeros = Matrix::zeros(12, 3);
        let no_columns = Matrix::zeros(9, 0);
        for data in [&random, &duplicates, &zeros, &no_columns] {
            let distances = pairwise_distances(data, &ParallelPolicy::serial());
            for fraction in [1e-9, 0.01, 0.02, 0.1, 0.3, 0.5, 0.99, 1.0] {
                let dp = DensityPeaks::new(2).with_neighbor_fraction(fraction);
                let got = dp.cutoff_distance(&distances);
                let want = sorted_quantile_cutoff(&dp, &distances);
                assert_eq!(got.to_bits(), want.to_bits(), "fraction {fraction}");
            }
        }
        let dp = DensityPeaks::new(2);
        let zero_cutoff = |data: &Matrix| {
            dp.cutoff_distance(&pairwise_distances(data, &ParallelPolicy::serial()))
        };
        assert_eq!(zero_cutoff(&zeros), 1.0);
        assert_eq!(zero_cutoff(&no_columns), 1.0);
        // The closest distinct rows are 0 and 1.
        let closest = sls_linalg::euclidean_distance(duplicates.row(0), duplicates.row(1));
        assert_eq!(zero_cutoff(&duplicates), closest);
    }

    #[test]
    fn cutoff_distance_is_positive() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let ds = SyntheticBlobs::new(50, 3, 2).generate(&mut rng);
        let outcome = DensityPeaks::new(2).fit(ds.features()).unwrap();
        assert!(outcome.cutoff_distance > 0.0);
    }
}
