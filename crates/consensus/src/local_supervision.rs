//! Local credible clusters — the "self-learning local supervision".
//!
//! [`LocalSupervision`] is the data structure consumed by the slsRBM /
//! slsGRBM training loop: a set of disjoint groups of instance indices (the
//! local clusters `V_1..V_K` of the paper) that the hidden features should
//! constrict within and disperse across. [`LocalSupervisionBuilder`] produces
//! it either from pre-computed partitions or by running a set of clusterers.

use crate::{integrate_partitions_with, ConsensusError, Result, VotingPolicy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sls_clustering::Clusterer;
use sls_linalg::{Matrix, ParallelPolicy};

/// The self-learning local supervision: disjoint local credible clusters of
/// instance indices.
///
/// Only instances that survived the voting strategy appear; the rest of the
/// dataset is unconstrained (the CD term of the objective still covers it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalSupervision {
    clusters: Vec<Vec<usize>>,
    n_instances: usize,
    policy: VotingPolicy,
}

/// Aggregate statistics of a supervision, used in logs and experiment
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisionSummary {
    /// Number of local clusters.
    pub n_clusters: usize,
    /// Number of supervised (covered) instances.
    pub n_covered: usize,
    /// Total number of instances in the dataset.
    pub n_instances: usize,
    /// Fraction of instances covered by the supervision.
    pub coverage: f64,
    /// Size of the smallest local cluster.
    pub min_cluster_size: usize,
    /// Size of the largest local cluster.
    pub max_cluster_size: usize,
}

impl LocalSupervision {
    /// Builds a supervision directly from per-instance consensus labels
    /// (`None` = not covered). Clusters with fewer than two members are
    /// dropped: a singleton provides no constrict pair and no usable centre
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusError::EmptySupervision`] if nothing survives.
    pub fn from_consensus(consensus: &[Option<usize>], policy: VotingPolicy) -> Result<Self> {
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, label) in consensus.iter().enumerate() {
            if let Some(l) = label {
                groups.entry(*l).or_default().push(i);
            }
        }
        let clusters: Vec<Vec<usize>> = groups
            .into_values()
            .filter(|members| members.len() >= 2)
            .collect();
        if clusters.is_empty() {
            return Err(ConsensusError::EmptySupervision);
        }
        Ok(Self {
            clusters,
            n_instances: consensus.len(),
            policy,
        })
    }

    /// The local clusters, each a sorted list of instance indices.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// Number of local clusters `K`.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Number of instances in the underlying dataset.
    pub fn n_instances(&self) -> usize {
        self.n_instances
    }

    /// The voting policy that produced this supervision.
    pub fn policy(&self) -> VotingPolicy {
        self.policy
    }

    /// Indices of all covered instances, sorted.
    pub fn covered_indices(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self.clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Per-instance cluster membership (`None` when uncovered).
    pub fn membership(&self) -> Vec<Option<usize>> {
        let mut membership = vec![None; self.n_instances];
        for (k, members) in self.clusters.iter().enumerate() {
            for &i in members {
                membership[i] = Some(k);
            }
        }
        membership
    }

    /// Restricts the supervision to instance indices below `limit` (used when
    /// training on a mini-batch prefix or a subset of the data).
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusError::EmptySupervision`] if no cluster retains at
    /// least two members.
    pub fn restrict_to(&self, limit: usize) -> Result<Self> {
        let clusters: Vec<Vec<usize>> = self
            .clusters
            .iter()
            .map(|members| members.iter().copied().filter(|&i| i < limit).collect())
            .filter(|members: &Vec<usize>| members.len() >= 2)
            .collect();
        if clusters.is_empty() {
            return Err(ConsensusError::EmptySupervision);
        }
        Ok(Self {
            clusters,
            n_instances: limit.min(self.n_instances),
            policy: self.policy,
        })
    }

    /// Computes the mean of each local cluster in the given feature space
    /// (`data` has one row per instance). These are the centres `O_k` (or
    /// `C_k` when called on hidden features) of Eqs. 25–27.
    ///
    /// # Panics
    ///
    /// Panics if any member index is out of range for `data`.
    pub fn cluster_centers(&self, data: &Matrix) -> Matrix {
        let mut centers = Matrix::zeros(self.clusters.len(), data.cols());
        for (k, members) in self.clusters.iter().enumerate() {
            let c = centers.row_mut(k);
            for &i in members {
                for (cj, &xj) in c.iter_mut().zip(data.row(i)) {
                    *cj += xj;
                }
            }
            let denom = members.len().max(1) as f64;
            for cj in c.iter_mut() {
                *cj /= denom;
            }
        }
        centers
    }

    /// Aggregate statistics.
    pub fn summary(&self) -> SupervisionSummary {
        let sizes: Vec<usize> = self.clusters.iter().map(Vec::len).collect();
        let n_covered: usize = sizes.iter().sum();
        SupervisionSummary {
            n_clusters: self.clusters.len(),
            n_covered,
            n_instances: self.n_instances,
            coverage: if self.n_instances == 0 {
                0.0
            } else {
                n_covered as f64 / self.n_instances as f64
            },
            min_cluster_size: sizes.iter().copied().min().unwrap_or(0),
            max_cluster_size: sizes.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Builder that produces a [`LocalSupervision`] from base clusterings.
#[derive(Debug, Clone)]
pub struct LocalSupervisionBuilder {
    expected_clusters: usize,
    policy: VotingPolicy,
    parallel: ParallelPolicy,
}

impl LocalSupervisionBuilder {
    /// Creates a builder. `expected_clusters` is the number of clusters each
    /// base clusterer targets (the paper uses the known class count).
    pub fn new(expected_clusters: usize) -> Self {
        Self {
            expected_clusters,
            policy: VotingPolicy::Unanimous,
            parallel: ParallelPolicy::global(),
        }
    }

    /// Number of clusters the builder expects from the base clusterers.
    pub fn expected_clusters(&self) -> usize {
        self.expected_clusters
    }

    /// Sets the voting policy (default: unanimous).
    pub fn with_policy(mut self, policy: VotingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the parallel execution policy (default:
    /// [`ParallelPolicy::global`]), the same way
    /// trainers accept one. Under a multi-threaded policy the base
    /// clusterers run concurrently and the pairwise alignment step fans out
    /// across threads; the result is identical to serial for every policy
    /// (see [`LocalSupervisionBuilder::build_with_clusterers`]).
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// The builder's parallel execution policy.
    pub fn parallel(&self) -> ParallelPolicy {
        self.parallel
    }

    /// Builds supervision from partitions that were already computed.
    ///
    /// # Errors
    ///
    /// Propagates voting/alignment errors and
    /// [`ConsensusError::EmptySupervision`].
    pub fn build_from_partitions(&self, partitions: &[Vec<usize>]) -> Result<LocalSupervision> {
        let consensus = integrate_partitions_with(partitions, self.policy, &self.parallel)?;
        LocalSupervision::from_consensus(&consensus, self.policy)
    }

    /// Runs every clusterer on `data` and integrates the resulting
    /// partitions.
    ///
    /// ## Determinism under parallel execution
    ///
    /// One `u64` sub-seed per clusterer is drawn from `rng` serially, in
    /// clusterer order, before any clusterer runs; each clusterer then
    /// consumes its own [`ChaCha8Rng`] seeded from that value. The caller's
    /// RNG therefore advances by exactly `clusterers.len()` draws no matter
    /// how the work is scheduled, and every clusterer sees the same random
    /// stream whether it runs inline or on the worker pool — parallel
    /// output is *identical* to serial output by construction (the same
    /// invariant discipline as the linalg kernels).
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusError::BaseClusterer`] naming the failed
    /// clusterer (the lowest-index failure when several fail), plus the
    /// same errors as [`LocalSupervisionBuilder::build_from_partitions`].
    pub fn build_with_clusterers(
        &self,
        clusterers: &[Box<dyn Clusterer>],
        data: &Matrix,
        rng: &mut impl rand::Rng,
    ) -> Result<LocalSupervision> {
        if clusterers.is_empty() {
            return Err(ConsensusError::NoPartitions);
        }
        let sub_seeds: Vec<u64> = clusterers.iter().map(|_| rng.next_u64()).collect();
        let results = crate::dispatch::run_indexed(clusterers.len(), &self.parallel, |i| {
            let mut sub_rng = ChaCha8Rng::seed_from_u64(sub_seeds[i]);
            clusterers[i].cluster(data, &mut sub_rng)
        });
        let mut partitions = Vec::with_capacity(clusterers.len());
        for (index, result) in results.into_iter().enumerate() {
            match result {
                Ok(assignment) => partitions.push(assignment.labels().to_vec()),
                Err(source) => {
                    return Err(ConsensusError::BaseClusterer {
                        index,
                        name: clusterers[index].name(),
                        source,
                    })
                }
            }
        }
        self.build_from_partitions(&partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supervision() -> LocalSupervision {
        let consensus = vec![
            Some(0),
            Some(0),
            None,
            Some(1),
            Some(1),
            Some(1),
            None,
            Some(2), // singleton: dropped
        ];
        LocalSupervision::from_consensus(&consensus, VotingPolicy::Unanimous).unwrap()
    }

    #[test]
    fn from_consensus_groups_and_drops_singletons() {
        let s = supervision();
        assert_eq!(s.n_clusters(), 2);
        assert_eq!(s.clusters()[0], vec![0, 1]);
        assert_eq!(s.clusters()[1], vec![3, 4, 5]);
        assert_eq!(s.n_instances(), 8);
        assert_eq!(s.policy(), VotingPolicy::Unanimous);
    }

    #[test]
    fn empty_consensus_errors() {
        let consensus = vec![None, None, Some(0)];
        assert!(matches!(
            LocalSupervision::from_consensus(&consensus, VotingPolicy::Unanimous),
            Err(ConsensusError::EmptySupervision)
        ));
    }

    #[test]
    fn covered_indices_and_membership() {
        let s = supervision();
        assert_eq!(s.covered_indices(), vec![0, 1, 3, 4, 5]);
        let m = s.membership();
        assert_eq!(m[0], Some(0));
        assert_eq!(m[2], None);
        assert_eq!(m[5], Some(1));
        assert_eq!(m[7], None);
        assert_eq!(m.len(), 8);
    }

    #[test]
    fn summary_statistics() {
        let s = supervision().summary();
        assert_eq!(s.n_clusters, 2);
        assert_eq!(s.n_covered, 5);
        assert_eq!(s.n_instances, 8);
        assert!((s.coverage - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(s.min_cluster_size, 2);
        assert_eq!(s.max_cluster_size, 3);
    }

    #[test]
    fn cluster_centers_are_group_means() {
        let s = supervision();
        let data = Matrix::from_fn(8, 2, |i, j| (i * 10 + j) as f64);
        let centers = s.cluster_centers(&data);
        assert_eq!(centers.shape(), (2, 2));
        // Cluster 0 = instances {0, 1}: mean of rows [0,1] and [10,11].
        assert_eq!(centers.row(0), &[5.0, 6.0]);
        // Cluster 1 = instances {3,4,5}: mean of [30,31],[40,41],[50,51].
        assert_eq!(centers.row(1), &[40.0, 41.0]);
    }

    #[test]
    fn restrict_to_prefix() {
        let s = supervision();
        let r = s.restrict_to(5).unwrap();
        // Cluster 1 loses instance 5 but keeps {3, 4}.
        assert_eq!(r.clusters()[1], vec![3, 4]);
        assert_eq!(r.n_instances(), 5);
        // Restricting below any pair leaves nothing.
        assert!(matches!(
            s.restrict_to(1),
            Err(ConsensusError::EmptySupervision)
        ));
    }

    #[test]
    fn builder_from_partitions_round_trip() {
        let partitions = vec![
            vec![0, 0, 0, 1, 1, 1],
            vec![2, 2, 2, 0, 0, 0],
            vec![1, 1, 0, 0, 0, 0],
        ];
        let builder = LocalSupervisionBuilder::new(2);
        let s = builder.build_from_partitions(&partitions).unwrap();
        // Instances 0,1 agree on cluster 0; instances 3,4,5 agree on 1;
        // instance 2 is contested.
        assert_eq!(s.n_clusters(), 2);
        assert_eq!(s.covered_indices(), vec![0, 1, 3, 4, 5]);
        assert_eq!(builder.expected_clusters(), 2);
    }

    #[test]
    fn builder_with_majority_policy_covers_more() {
        let partitions = vec![
            vec![0, 0, 0, 1, 1, 1],
            vec![0, 0, 0, 1, 1, 1],
            vec![1, 1, 0, 0, 1, 1],
        ];
        let unanimous = LocalSupervisionBuilder::new(2)
            .build_from_partitions(&partitions)
            .unwrap();
        let majority = LocalSupervisionBuilder::new(2)
            .with_policy(VotingPolicy::Majority)
            .build_from_partitions(&partitions)
            .unwrap();
        assert!(majority.summary().n_covered >= unanimous.summary().n_covered);
    }

    #[test]
    fn builder_with_no_clusterers_errors() {
        let data = Matrix::zeros(4, 2);
        let mut rng = rand::thread_rng();
        let clusterers: Vec<Box<dyn Clusterer>> = vec![];
        assert!(matches!(
            LocalSupervisionBuilder::new(2).build_with_clusterers(&clusterers, &data, &mut rng),
            Err(ConsensusError::NoPartitions)
        ));
    }

    #[test]
    fn serde_round_trip() {
        let s = supervision();
        let json = serde_json::to_string(&s).unwrap();
        let back: LocalSupervision = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
