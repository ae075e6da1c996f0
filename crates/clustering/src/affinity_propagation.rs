//! Affinity propagation clustering (Frey & Dueck, *Science* 2007).
//!
//! The `AP` baseline of the paper. Affinity propagation exchanges two kinds
//! of messages between data points until a set of *exemplars* emerges:
//!
//! * responsibility `r(i, k)` — how well point `k` is suited to be the
//!   exemplar of point `i` compared with other candidates;
//! * availability `a(i, k)` — how appropriate it would be for point `i` to
//!   choose `k` as its exemplar given the support `k` receives from others.
//!
//! The number of clusters is governed indirectly by the *preference* (the
//! self-similarity `s(k, k)`). Since the paper always evaluates with the
//! ground-truth class count, [`AffinityPropagation::with_target_clusters`]
//! performs a bisection search over the preference to hit a requested
//! cluster count, falling back to the closest achievable count.

use crate::{ClusterAssignment, Clusterer, ClusteringError, Result};
use sls_linalg::{squared_euclidean_distance, Matrix, ParallelPolicy};

/// Configuration and entry point for affinity propagation.
#[derive(Debug, Clone)]
pub struct AffinityPropagation {
    damping: f64,
    max_iterations: usize,
    convergence_iterations: usize,
    preference: Option<f64>,
    target_clusters: Option<usize>,
    parallel: ParallelPolicy,
}

/// Detailed outcome of an affinity propagation run.
#[derive(Debug, Clone)]
pub struct AffinityPropagationOutcome {
    /// The final assignment.
    pub assignment: ClusterAssignment,
    /// Indices of the exemplar instances.
    pub exemplars: Vec<usize>,
    /// Number of message-passing iterations executed.
    pub iterations: usize,
    /// Whether the exemplar set was stable for `convergence_iterations`
    /// consecutive iterations.
    pub converged: bool,
    /// The preference value that produced this outcome.
    pub preference: f64,
}

impl Default for AffinityPropagation {
    fn default() -> Self {
        Self {
            damping: 0.7,
            max_iterations: 200,
            convergence_iterations: 15,
            preference: None,
            target_clusters: None,
            parallel: ParallelPolicy::global(),
        }
    }
}

impl AffinityPropagation {
    /// Creates a clusterer with default damping (0.7) and the preference set
    /// to the median similarity (the authors' recommendation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the damping factor λ ∈ [0.5, 1).
    ///
    /// # Errors
    ///
    /// Returns [`ClusteringError::InvalidParameter`] when out of range.
    pub fn with_damping(mut self, damping: f64) -> Result<Self> {
        if !(0.5..1.0).contains(&damping) {
            return Err(ClusteringError::InvalidParameter {
                name: "damping",
                message: format!("must be in [0.5, 1), got {damping}"),
            });
        }
        self.damping = damping;
        Ok(self)
    }

    /// Sets the maximum number of message-passing iterations.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations.max(1);
        self
    }

    /// Fixes the preference (self-similarity) explicitly.
    pub fn with_preference(mut self, preference: f64) -> Self {
        self.preference = Some(preference);
        self
    }

    /// Requests a specific number of clusters; a bisection search over the
    /// preference tries to achieve it. This mirrors how the paper uses AP
    /// with the known class count.
    pub fn with_target_clusters(mut self, k: usize) -> Self {
        self.target_clusters = Some(k.max(1));
        self
    }

    /// Routes the similarity construction, responsibility updates and final
    /// exemplar assignment through the shared row kernels under `parallel`
    /// (default: [`ParallelPolicy::global`]).
    ///
    /// Each of those steps is independent per row and keeps its serial
    /// accumulation order, so the result is bitwise identical to the serial
    /// run. The availability update writes column-wise and stays serial.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Runs affinity propagation and returns the detailed outcome.
    ///
    /// # Errors
    ///
    /// Returns [`ClusteringError::EmptyData`] for an empty matrix.
    pub fn fit(&self, data: &Matrix) -> Result<AffinityPropagationOutcome> {
        let n = data.rows();
        if n == 0 {
            return Err(ClusteringError::EmptyData);
        }
        if n == 1 {
            return Ok(AffinityPropagationOutcome {
                assignment: ClusterAssignment::from_labels(vec![0], data, "AP"),
                exemplars: vec![0],
                iterations: 0,
                converged: true,
                preference: 0.0,
            });
        }

        // Similarities: negative squared Euclidean distance. A tiny
        // deterministic jitter breaks the degenerate symmetries that make the
        // message-passing oscillate (Frey & Dueck add random noise for the
        // same reason; we keep it deterministic for reproducibility).
        // The similarity rows are independent, so they go through the pooled
        // row kernel; the diagonal stays zero until the preference is set.
        let mut similarities = data.map_rows_with(n, &self.parallel, |i, row, out| {
            for (j, slot) in out.iter_mut().enumerate() {
                if j != i {
                    *slot = -squared_euclidean_distance(row, data.row(j));
                }
            }
        });
        let max_abs = similarities
            .as_slice()
            .iter()
            .fold(0.0_f64, |m, &s| m.max(s.abs()));
        if max_abs == 0.0 {
            // Every instance is identical: a single cluster is the only
            // sensible answer and the message passing would be degenerate.
            return Ok(AffinityPropagationOutcome {
                assignment: ClusterAssignment::from_labels(vec![0; n], data, "AP"),
                exemplars: vec![0],
                iterations: 0,
                converged: true,
                preference: 0.0,
            });
        }
        let jitter_scale = 1e-6 * max_abs;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    similarities[(i, j)] += jitter_scale * deterministic_jitter(i, j);
                }
            }
        }
        let median = median_off_diagonal(&similarities);

        match (self.target_clusters, self.preference) {
            (Some(k), _) => self.fit_with_target(data, &similarities, median, k),
            (None, Some(p)) => self.fit_with_preference(data, &similarities, p),
            (None, None) => self.fit_with_preference(data, &similarities, median),
        }
    }

    /// Bisection search over the preference to hit `k` clusters. The
    /// preference is monotone in the cluster count (more negative ⇒ fewer
    /// exemplars), which makes bisection sound.
    fn fit_with_target(
        &self,
        data: &Matrix,
        similarities: &Matrix,
        median: f64,
        k: usize,
    ) -> Result<AffinityPropagationOutcome> {
        let n = data.rows();
        if k > n {
            return Err(ClusteringError::TooManyClusters {
                requested: k,
                instances: n,
            });
        }
        // Preference bounds: Frey & Dueck note that preferences below the
        // minimum similarity collapse to one cluster while preferences near
        // zero (the maximum, since similarities are negative) yield ~n
        // clusters. Staying within that range keeps the message passing in
        // its stable regime.
        let min_similarity = similarities
            .as_slice()
            .iter()
            .copied()
            .fold(0.0_f64, f64::min);
        let mut low = 2.0 * min_similarity - median.abs() - 1e-9; // few clusters
        let mut high = 0.0; // many clusters
        let mut best: Option<AffinityPropagationOutcome> = None;

        for _ in 0..24 {
            let mid = 0.5 * (low + high);
            let outcome = self.fit_with_preference(data, similarities, mid)?;
            let found = outcome.exemplars.len();
            let better = match &best {
                None => true,
                Some(b) => {
                    (found as isize - k as isize).abs()
                        < (b.exemplars.len() as isize - k as isize).abs()
                }
            };
            if better {
                best = Some(outcome);
            }
            match found.cmp(&k) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Less => low = mid,
                std::cmp::Ordering::Greater => high = mid,
            }
        }
        Ok(best.expect("at least one bisection iteration"))
    }

    /// One affinity propagation run with a fixed preference.
    fn fit_with_preference(
        &self,
        data: &Matrix,
        similarities: &Matrix,
        preference: f64,
    ) -> Result<AffinityPropagationOutcome> {
        let n = data.rows();
        let mut s = similarities.clone();
        for i in 0..n {
            s[(i, i)] = preference;
        }

        let mut responsibility = Matrix::zeros(n, n);
        let mut availability = Matrix::zeros(n, n);
        let lambda = self.damping;
        let mut last_exemplars: Vec<usize> = Vec::new();
        let mut stable_for = 0usize;
        let mut iterations = 0usize;
        let mut converged = false;

        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            // Responsibility update:
            // r(i,k) <- s(i,k) - max_{k' != k} { a(i,k') + s(i,k') }
            // Each row depends only on the same row of `s`, `availability`
            // and the previous `responsibility`, so the rows fan out across
            // the pool and are damped with identical arithmetic.
            responsibility = s.map_rows_with(n, &self.parallel, |i, s_row, out| {
                let a_row = availability.row(i);
                let r_row = responsibility.row(i);
                // Find the largest and second largest a+s over k'.
                let mut max1 = f64::NEG_INFINITY;
                let mut max2 = f64::NEG_INFINITY;
                let mut argmax1 = 0usize;
                for (k, (&a, &sv)) in a_row.iter().zip(s_row).enumerate() {
                    let v = a + sv;
                    if v > max1 {
                        max2 = max1;
                        max1 = v;
                        argmax1 = k;
                    } else if v > max2 {
                        max2 = v;
                    }
                }
                for (k, slot) in out.iter_mut().enumerate() {
                    let competitor = if k == argmax1 { max2 } else { max1 };
                    let new_r = s_row[k] - competitor;
                    *slot = lambda * r_row[k] + (1.0 - lambda) * new_r;
                }
            });

            // Availability update:
            // a(i,k) <- min(0, r(k,k) + sum_{i' not in {i,k}} max(0, r(i',k)))
            // a(k,k) <- sum_{i' != k} max(0, r(i',k))
            // This one is column-oriented (every output column k reduces over
            // the whole of responsibility's column k), so a row split would
            // not help; it stays serial.
            for k in 0..n {
                let positive_sum: f64 = (0..n)
                    .filter(|&i| i != k)
                    .map(|i| responsibility[(i, k)].max(0.0))
                    .sum();
                for i in 0..n {
                    let new_a = if i == k {
                        positive_sum
                    } else {
                        let adjusted =
                            positive_sum - responsibility[(i, k)].max(0.0) + responsibility[(k, k)];
                        adjusted.min(0.0)
                    };
                    availability[(i, k)] = lambda * availability[(i, k)] + (1.0 - lambda) * new_a;
                }
            }

            // Current exemplars: points where r(k,k) + a(k,k) > 0.
            let exemplars: Vec<usize> = (0..n)
                .filter(|&k| responsibility[(k, k)] + availability[(k, k)] > 0.0)
                .collect();
            if !exemplars.is_empty() && exemplars == last_exemplars {
                stable_for += 1;
                if stable_for >= self.convergence_iterations {
                    converged = true;
                    break;
                }
            } else {
                stable_for = 0;
                last_exemplars = exemplars;
            }
        }

        // Final exemplar set; fall back to the single point with the highest
        // self-evidence if none crossed zero.
        let mut exemplars: Vec<usize> = (0..n)
            .filter(|&k| responsibility[(k, k)] + availability[(k, k)] > 0.0)
            .collect();
        if exemplars.is_empty() {
            let best = (0..n)
                .max_by(|&a, &b| {
                    (responsibility[(a, a)] + availability[(a, a)])
                        .partial_cmp(&(responsibility[(b, b)] + availability[(b, b)]))
                        .expect("finite evidence")
                })
                .expect("n >= 1");
            exemplars.push(best);
        }

        // Assign every point to its most similar exemplar; exemplars assign
        // to themselves. Exemplar positions fit in f64 exactly, so routing
        // the row scan through the pooled kernel is lossless.
        let labels: Vec<usize> = s
            .reduce_rows_with(&self.parallel, |i, s_row| {
                if let Some(pos) = exemplars.iter().position(|&e| e == i) {
                    return pos as f64;
                }
                let mut best_pos = 0usize;
                let mut best_sim = f64::NEG_INFINITY;
                for (pos, &e) in exemplars.iter().enumerate() {
                    if s_row[e] > best_sim {
                        best_sim = s_row[e];
                        best_pos = pos;
                    }
                }
                best_pos as f64
            })
            .into_iter()
            .map(|x| x as usize)
            .collect();

        let assignment = ClusterAssignment::from_labels(labels, data, "AP");
        Ok(AffinityPropagationOutcome {
            assignment,
            exemplars,
            iterations,
            converged,
            preference,
        })
    }
}

/// Deterministic pseudo-random value in `(0, 1)` derived from the pair of
/// indices, used to de-symmetrise the similarity matrix.
fn deterministic_jitter(i: usize, j: usize) -> f64 {
    let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x % 1_000_000) as f64 / 1_000_000.0
}

/// Median of the off-diagonal entries of a square matrix.
fn median_off_diagonal(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut values: Vec<f64> = Vec::with_capacity(n * (n - 1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                values.push(m[(i, j)]);
            }
        }
    }
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite similarities"));
    values[values.len() / 2]
}

impl Clusterer for AffinityPropagation {
    fn name(&self) -> &'static str {
        "AP"
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
    fn rejects_empty_data_and_bad_damping() {
        assert!(matches!(
            AffinityPropagation::default().fit(&Matrix::zeros(0, 2)),
            Err(ClusteringError::EmptyData)
        ));
        assert!(AffinityPropagation::default().with_damping(0.3).is_err());
        assert!(AffinityPropagation::default().with_damping(1.0).is_err());
        assert!(AffinityPropagation::default().with_damping(0.9).is_ok());
    }

    #[test]
    fn single_point_is_its_own_cluster() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let outcome = AffinityPropagation::default().fit(&data).unwrap();
        assert_eq!(outcome.assignment.labels(), &[0]);
        assert_eq!(outcome.exemplars, vec![0]);
    }

    #[test]
    fn recovers_two_obvious_clusters_with_median_preference() {
        let data = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.2],
            vec![8.0, 8.0],
            vec![8.2, 8.1],
            vec![8.1, 8.2],
        ])
        .unwrap();
        let outcome = AffinityPropagation::default().fit(&data).unwrap();
        let l = outcome.assignment.labels();
        assert_eq!(l[0], l[1]);
        assert_eq!(l[1], l[2]);
        assert_eq!(l[3], l[4]);
        assert_eq!(l[4], l[5]);
        assert_ne!(l[0], l[3]);
    }

    #[test]
    fn target_cluster_count_is_reached_on_separable_data() {
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        let ds = SyntheticBlobs::new(75, 4, 3)
            .separation(8.0)
            .generate(&mut rng);
        let outcome = AffinityPropagation::default()
            .with_target_clusters(3)
            .fit(ds.features())
            .unwrap();
        assert_eq!(outcome.exemplars.len(), 3);
        let acc =
            sls_metrics::clustering_accuracy(outcome.assignment.labels(), ds.labels()).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn target_cluster_count_errors_when_impossible() {
        let data = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(matches!(
            AffinityPropagation::default()
                .with_target_clusters(5)
                .fit(&data),
            Err(ClusteringError::TooManyClusters { .. })
        ));
    }

    #[test]
    fn preference_below_minimum_similarity_gives_few_clusters() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let ds = SyntheticBlobs::new(40, 3, 2)
            .separation(5.0)
            .generate(&mut rng);
        // A preference below the minimum pairwise similarity is the
        // documented way to push AP towards very few clusters.
        let min_sim = {
            let d = sls_linalg::pairwise_distances(
                ds.features(),
                &sls_linalg::ParallelPolicy::serial(),
            );
            -(d.max().unwrap() * d.max().unwrap())
        };
        let outcome = AffinityPropagation::default()
            .with_preference(2.0 * min_sim)
            .fit(ds.features())
            .unwrap();
        assert!(
            outcome.exemplars.len() <= 2,
            "{} exemplars",
            outcome.exemplars.len()
        );
    }

    #[test]
    fn exemplars_label_themselves() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let ds = SyntheticBlobs::new(30, 3, 3)
            .separation(6.0)
            .generate(&mut rng);
        let outcome = AffinityPropagation::default()
            .with_target_clusters(3)
            .fit(ds.features())
            .unwrap();
        for (pos, &e) in outcome.exemplars.iter().enumerate() {
            assert_eq!(outcome.assignment.labels()[e], pos);
        }
    }

    #[test]
    fn deterministic_regardless_of_rng() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let ds = SyntheticBlobs::new(40, 3, 2)
            .separation(5.0)
            .generate(&mut rng);
        let ap = AffinityPropagation::default().with_target_clusters(2);
        let mut rng_a = ChaCha8Rng::seed_from_u64(0);
        let mut rng_b = ChaCha8Rng::seed_from_u64(1);
        let a = ap.cluster(ds.features(), &mut rng_a).unwrap();
        let b = ap.cluster(ds.features(), &mut rng_b).unwrap();
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn parallel_fit_is_identical_to_serial() {
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let ds = SyntheticBlobs::new(60, 4, 3)
            .separation(4.0)
            .generate(&mut rng);
        let serial = AffinityPropagation::default()
            .with_target_clusters(3)
            .with_parallel(ParallelPolicy::serial())
            .fit(ds.features())
            .unwrap();
        for threads in [2, 4, 8] {
            let policy = ParallelPolicy::new(threads).with_min_rows_per_thread(1);
            let parallel = AffinityPropagation::default()
                .with_target_clusters(3)
                .with_parallel(policy)
                .fit(ds.features())
                .unwrap();
            assert_eq!(serial.assignment.labels(), parallel.assignment.labels());
            assert_eq!(serial.exemplars, parallel.exemplars);
            assert_eq!(serial.iterations, parallel.iterations);
            assert_eq!(
                serial.preference.to_bits(),
                parallel.preference.to_bits(),
                "bisection must follow the same trajectory"
            );
        }
    }

    #[test]
    fn identical_points_collapse_to_one_cluster() {
        let data = Matrix::from_rows(&vec![vec![2.0, 2.0]; 5]).unwrap();
        let outcome = AffinityPropagation::default().fit(&data).unwrap();
        assert_eq!(outcome.assignment.n_occupied_clusters(), 1);
    }
}
