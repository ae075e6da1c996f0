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

#[cfg(test)]
mod reference;

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

    /// Routes the similarity construction and the final exemplar
    /// assignment through the shared row kernels under `parallel` (default:
    /// [`ParallelPolicy::global`]). Both are independent per row and keep
    /// their serial accumulation order, so the result is bitwise identical
    /// to the serial run.
    ///
    /// The message passing itself runs as plain serial row loops. Every
    /// product path calls affinity propagation from inside a consensus pool
    /// job, where a pooled kernel would run inline anyway.
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
        // `(x-y)²` and `(y-x)²` are the same bits, so the pooled row kernel
        // computes only the pairs `j > i` and the lower triangle is their
        // mirror. The diagonal stays zero until a fit writes its preference.
        let row_cost = n * data.cols() / 2;
        let mut similarities = data.map_rows_with(n, row_cost, &self.parallel, |i, row, out| {
            for (j, slot) in out.iter_mut().enumerate().skip(i + 1) {
                *slot = -squared_euclidean_distance(row, data.row(j));
            }
        });
        for i in 1..n {
            for j in 0..i {
                similarities[(i, j)] = similarities[(j, i)];
            }
        }
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

        let mut buffers = Buffers::new(similarities);
        match (self.target_clusters, self.preference) {
            (Some(k), _) => self.fit_with_target(data, &mut buffers, median, k),
            (None, Some(p)) => self.fit_with_preference(data, &mut buffers, p),
            (None, None) => self.fit_with_preference(data, &mut buffers, median),
        }
    }

    /// Bisection search over the preference to hit `k` clusters. The
    /// preference is monotone in the cluster count (more negative ⇒ fewer
    /// exemplars), which makes bisection sound.
    fn fit_with_target(
        &self,
        data: &Matrix,
        buffers: &mut Buffers,
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
        // its stable regime. No fit has written a preference onto the
        // diagonal yet, so it still holds zeros here.
        let min_similarity = buffers
            .similarities
            .as_slice()
            .iter()
            .copied()
            .fold(0.0_f64, f64::min);
        let mut low = 2.0 * min_similarity - median.abs() - 1e-9; // few clusters
        let mut high = 0.0; // many clusters
        let mut best: Option<AffinityPropagationOutcome> = None;

        for _ in 0..24 {
            let mid = 0.5 * (low + high);
            let outcome = self.fit_with_preference(data, buffers, mid)?;
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

    /// One affinity propagation run with a fixed preference, written onto
    /// the diagonal of `buffers.similarities`. The message buffers are
    /// reset, not reallocated.
    fn fit_with_preference(
        &self,
        data: &Matrix,
        buffers: &mut Buffers,
        preference: f64,
    ) -> Result<AffinityPropagationOutcome> {
        let n = data.rows();
        let Buffers {
            similarities: s,
            responsibility,
            availability,
            positive_sums,
            self_responsibility,
            exemplars: current,
            last_exemplars,
        } = buffers;
        for i in 0..n {
            s[(i, i)] = preference;
        }
        responsibility.as_mut_slice().fill(0.0);
        availability.as_mut_slice().fill(0.0);
        last_exemplars.clear();

        let lambda = self.damping;
        // The value `Iterator::<f64>::sum` starts from (`-0.0` on current
        // toolchains). Each column sum below starts there too, so a column
        // of `-0.0` terms sums to the bits an iterator sum over it gives.
        let sum_start: f64 = std::iter::empty::<f64>().sum();
        let mut stable_for = 0usize;
        let mut iterations = 0usize;
        let mut converged = false;

        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            // Responsibility update:
            // r(i,k) <- s(i,k) - max_{k' != k} { a(i,k') + s(i,k') }
            // Row i reads only row i of `s` and `availability`, and each
            // entry's damping reads only its own old value, so the update
            // runs in place. Every entry but `argmax1` competes with `max1`;
            // that one is redone against `max2` from its saved old value,
            // which keeps the main loop free of a per-entry branch.
            for i in 0..n {
                let s_row = s.row(i);
                // Find the largest and second largest a+s over k'.
                let mut max1 = f64::NEG_INFINITY;
                let mut max2 = f64::NEG_INFINITY;
                let mut argmax1 = 0usize;
                for (k, (&a, &sv)) in availability.row(i).iter().zip(s_row).enumerate() {
                    let v = a + sv;
                    if v > max1 {
                        max2 = max1;
                        max1 = v;
                        argmax1 = k;
                    } else if v > max2 {
                        max2 = v;
                    }
                }
                let r_row = responsibility.row_mut(i);
                let r_argmax = r_row[argmax1];
                for (r, &sv) in r_row.iter_mut().zip(s_row) {
                    *r = lambda * *r + (1.0 - lambda) * (sv - max1);
                }
                r_row[argmax1] = lambda * r_argmax + (1.0 - lambda) * (s_row[argmax1] - max2);
            }

            // Availability update:
            // a(i,k) <- min(0, r(k,k) + sum_{i' not in {i,k}} max(0, r(i',k)))
            // a(k,k) <- sum_{i' != k} max(0, r(i',k))
            // One row-major pass accumulates every column's positive sum,
            // adding rows in ascending i (the order of a column walk), and
            // snapshots the diagonal r(k,k); row i's term is kept out of
            // column i by restoring that sum after the row. A second
            // row-major pass updates each row of `availability` from those
            // sums and the same row of `responsibility`, then redoes the
            // diagonal entry from its saved old value.
            positive_sums.fill(sum_start);
            for (i, r_row) in responsibility.row_iter().enumerate() {
                let own_column = positive_sums[i];
                for (sum, &r) in positive_sums.iter_mut().zip(r_row) {
                    *sum += r.max(0.0);
                }
                positive_sums[i] = own_column;
                self_responsibility[i] = r_row[i];
            }
            for i in 0..n {
                let r_row = responsibility.row(i);
                let a_row = availability.row_mut(i);
                let a_self = a_row[i];
                for (((a, &r), &sum), &r_kk) in a_row
                    .iter_mut()
                    .zip(r_row)
                    .zip(&*positive_sums)
                    .zip(&*self_responsibility)
                {
                    let new_a = (sum - r.max(0.0) + r_kk).min(0.0);
                    *a = lambda * *a + (1.0 - lambda) * new_a;
                }
                a_row[i] = lambda * a_self + (1.0 - lambda) * positive_sums[i];
            }

            // Current exemplars: points where r(k,k) + a(k,k) > 0.
            current.clear();
            current.extend((0..n).filter(|&k| responsibility[(k, k)] + availability[(k, k)] > 0.0));
            if !current.is_empty() && current == last_exemplars {
                stable_for += 1;
                if stable_for >= self.convergence_iterations {
                    converged = true;
                    break;
                }
            } else {
                stable_for = 0;
                std::mem::swap(current, last_exemplars);
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
            .reduce_rows_with(2 * exemplars.len(), &self.parallel, |i, s_row| {
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

/// The similarity matrix and message buffers of one [`AffinityPropagation::fit`],
/// shared by every fit of its preference bisection.
struct Buffers {
    /// Jittered similarities; each fit writes its preference on the diagonal.
    similarities: Matrix,
    responsibility: Matrix,
    availability: Matrix,
    /// Per column `k`: `Σ_{i != k} max(0, r(i,k))`.
    positive_sums: Vec<f64>,
    /// Per `k`: `r(k,k)`.
    self_responsibility: Vec<f64>,
    /// This iteration's exemplars and the last differing set.
    exemplars: Vec<usize>,
    last_exemplars: Vec<usize>,
}

impl Buffers {
    fn new(similarities: Matrix) -> Self {
        let n = similarities.rows();
        Self {
            similarities,
            responsibility: Matrix::zeros(n, n),
            availability: Matrix::zeros(n, n),
            positive_sums: vec![0.0; n],
            self_responsibility: vec![0.0; n],
            exemplars: Vec::with_capacity(n),
            last_exemplars: Vec::with_capacity(n),
        }
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

/// Median (the upper one for an even count) of the off-diagonal entries of
/// a square matrix, by selection. Jittered similarities are never `-0.0` or
/// NaN, so equal values share their bits and the selected value is the one
/// a full sort would put there.
fn median_off_diagonal(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut values: Vec<f64> = Vec::with_capacity(n * (n - 1));
    for (i, row) in m.row_iter().enumerate() {
        values.extend(
            row.iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &v)| v),
        );
    }
    if values.is_empty() {
        return 0.0;
    }
    let mid = values.len() / 2;
    *values
        .select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("finite similarities"))
        .1
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
            let policy = ParallelPolicy::eager(threads);
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

    /// Runs `ap` and the column-wise reference on `data` and asserts the
    /// two outcomes are the same to the bit; returns the outcome.
    fn assert_matches_reference(
        ap: &AffinityPropagation,
        data: &Matrix,
    ) -> AffinityPropagationOutcome {
        let expected = reference::fit(ap, data).unwrap();
        let got = ap.fit(data).unwrap();
        assert_eq!(got.assignment.labels(), expected.assignment.labels());
        assert_eq!(got.exemplars, expected.exemplars);
        assert_eq!(got.iterations, expected.iterations);
        assert_eq!(got.converged, expected.converged);
        assert_eq!(got.preference.to_bits(), expected.preference.to_bits());
        got
    }

    #[test]
    fn two_points_match_the_column_wise_reference() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 2.0]]).unwrap();
        assert_matches_reference(&AffinityPropagation::default(), &data);
        for k in [1, 2] {
            assert_matches_reference(
                &AffinityPropagation::default().with_target_clusters(k),
                &data,
            );
        }
    }

    #[test]
    fn duplicate_rows_match_the_column_wise_reference() {
        // Duplicates give zero distances, which the jitter must keep away
        // from `-0.0` for the selected median to carry the sorted bits.
        let data = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![5.0, 5.0],
            vec![5.0, 5.0],
            vec![1.0, 1.0],
            vec![9.0, 0.0],
            vec![5.0, 5.0],
        ])
        .unwrap();
        assert_matches_reference(&AffinityPropagation::default(), &data);
        assert_matches_reference(
            &AffinityPropagation::default().with_target_clusters(2),
            &data,
        );
        assert_matches_reference(
            &AffinityPropagation::default().with_target_clusters(3),
            &data,
        );
    }

    #[test]
    fn blobs_with_a_target_match_the_column_wise_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let ds = SyntheticBlobs::new(90, 5, 3)
            .separation(3.0)
            .generate(&mut rng);
        for k in [2, 3, 5] {
            let ap = AffinityPropagation::default().with_target_clusters(k);
            assert_matches_reference(&ap, ds.features());
            let policy = ParallelPolicy::eager(4);
            assert_matches_reference(&ap.with_parallel(policy), ds.features());
        }
    }

    #[test]
    fn a_preference_below_the_minimum_similarity_matches_the_reference_without_converging() {
        // Five points evenly spaced on the unit circle: the message passing
        // keeps trading exemplars around the ring and never holds one set
        // for the 15 iterations convergence needs.
        let data = Matrix::from_fn(5, 2, |i, j| {
            let t = i as f64 * std::f64::consts::TAU / 5.0;
            if j == 0 {
                t.cos()
            } else {
                t.sin()
            }
        });
        let d = sls_linalg::pairwise_distances(&data, &ParallelPolicy::serial());
        let min_sim = -(d.max().unwrap() * d.max().unwrap());
        let preference = -5.0;
        assert!(preference < min_sim);
        let ap = AffinityPropagation::default().with_preference(preference);
        let outcome = assert_matches_reference(&ap, &data);
        assert!(!outcome.converged);
        assert_eq!(outcome.iterations, 200);
    }

    #[test]
    #[ignore = "release-only: all 24 bisection fits on a 512-row sample, twice"]
    fn the_seed_4_book_sample_matches_the_column_wise_reference() {
        use rand::Rng;
        // The 512-row leading sample `sls-serve retrain` standardises and
        // clusters when the retrain benchmark shuffles the Book stand-in
        // with seed 4.
        let book = sls_datasets::generate_msra_dataset(
            sls_datasets::MsraDatasetId::Book,
            &mut ChaCha8Rng::seed_from_u64(2023),
        );
        let mut order: Vec<usize> = (0..book.n_instances()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let sample = book.features().select_rows(&order[..512]).unwrap();
        let (_, standardised) = sls_linalg::Standardizer::fit_transform(&sample).unwrap();
        let ap = AffinityPropagation::default().with_target_clusters(3);
        let outcome = assert_matches_reference(&ap, &standardised);
        // The bisection never finds 3 exemplars, so all 24 fits ran.
        assert_ne!(outcome.exemplars.len(), 3);
    }
}
