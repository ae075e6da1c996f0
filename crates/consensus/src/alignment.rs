//! Label-space alignment between partitions.
//!
//! Cluster identifiers are arbitrary: k-means' cluster `0` and density
//! peaks' cluster `2` may describe the same group of instances. Before the
//! voting strategy can ask "do all clusterings agree on this instance?", all
//! partitions are re-labelled into the label space of a *reference* partition
//! by solving a maximum-agreement assignment (Hungarian algorithm on the
//! contingency table between the two partitions).

use crate::{ConsensusError, Result};
use sls_linalg::ParallelPolicy;
use sls_metrics::{hungarian_max_assignment, ContingencyTable};

/// Relabels `partition` so its cluster identifiers agree as much as possible
/// with `reference`. Clusters that cannot be matched (when `partition` has
/// more clusters than `reference`) keep fresh identifiers beyond the
/// reference's range, so no two source clusters are merged by alignment.
///
/// # Errors
///
/// Returns an error if the partitions are empty or of different length.
pub fn align_partition(reference: &[usize], partition: &[usize]) -> Result<Vec<usize>> {
    let table = ContingencyTable::from_labels(partition, reference)?;
    let weights: Vec<Vec<f64>> = table
        .counts()
        .iter()
        .map(|row| row.iter().map(|&c| c as f64).collect())
        .collect();
    let assignment = hungarian_max_assignment(&weights)?;

    // Map each source cluster id -> target reference id (or a fresh id).
    let source_ids = table.cluster_ids();
    let target_ids = table.class_ids();
    let max_reference_id = reference.iter().copied().max().unwrap_or(0);
    let mut next_fresh = max_reference_id + 1;
    let mut mapping = std::collections::BTreeMap::new();
    for (row, maybe_col) in assignment.iter().enumerate() {
        let source = source_ids[row];
        match maybe_col {
            Some(col) => {
                mapping.insert(source, target_ids[*col]);
            }
            None => {
                mapping.insert(source, next_fresh);
                next_fresh += 1;
            }
        }
    }
    Ok(partition.iter().map(|l| mapping[l]).collect())
}

/// Aligns every partition to the first one (the reference), returning the
/// re-labelled partitions with the reference first and unchanged.
///
/// Serial convenience wrapper over [`align_partitions_with`].
///
/// # Errors
///
/// * [`ConsensusError::NoPartitions`] if `partitions` is empty.
/// * [`ConsensusError::PartitionLengthMismatch`] if lengths differ.
/// * Propagates alignment errors from the metric layer.
pub fn align_partitions(partitions: &[Vec<usize>]) -> Result<Vec<Vec<usize>>> {
    align_partitions_with(partitions, &ParallelPolicy::serial())
}

/// [`align_partitions`] under an explicit [`ParallelPolicy`].
///
/// Each non-reference partition is aligned against the reference
/// independently (one Hungarian assignment per partition), so the pairwise
/// contingency/alignment step fans the partitions out across threads.
/// Every alignment is a deterministic function of its input partition and
/// the reference, and results are collected back in partition order, so
/// the output — including *which* error surfaces when several partitions
/// are invalid (always the lowest-index one) — is identical for every
/// thread count.
///
/// # Errors
///
/// Same as [`align_partitions`].
pub fn align_partitions_with(
    partitions: &[Vec<usize>],
    parallel: &ParallelPolicy,
) -> Result<Vec<Vec<usize>>> {
    let Some(reference) = partitions.first() else {
        return Err(ConsensusError::NoPartitions);
    };
    for (idx, p) in partitions.iter().enumerate() {
        if p.len() != reference.len() {
            return Err(ConsensusError::PartitionLengthMismatch {
                expected: reference.len(),
                partition: idx,
                found: p.len(),
            });
        }
    }
    let rest = crate::dispatch::run_indexed(partitions.len() - 1, parallel, |i| {
        align_partition(reference, &partitions[i + 1])
    });
    let mut aligned = Vec::with_capacity(partitions.len());
    aligned.push(reference.clone());
    for result in rest {
        aligned.push(result?);
    }
    Ok(aligned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permuted_labels_are_mapped_back() {
        let reference = vec![0, 0, 1, 1, 2, 2];
        let permuted = vec![2, 2, 0, 0, 1, 1];
        let aligned = align_partition(&reference, &permuted).unwrap();
        assert_eq!(aligned, reference);
    }

    #[test]
    fn identical_partitions_are_unchanged() {
        let p = vec![1, 0, 2, 1, 0];
        assert_eq!(align_partition(&p, &p).unwrap(), p);
    }

    #[test]
    fn partial_agreement_maximises_matches() {
        let reference = vec![0, 0, 0, 1, 1, 1];
        // Partition agrees except for one instance, with swapped ids.
        let partition = vec![1, 1, 0, 0, 0, 0];
        let aligned = align_partition(&reference, &partition).unwrap();
        // After alignment the majority of instances must agree.
        let agreement = aligned
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a == b)
            .count();
        assert_eq!(agreement, 5);
    }

    #[test]
    fn surplus_clusters_get_fresh_ids() {
        let reference = vec![0, 0, 0, 0, 1, 1, 1, 1];
        // Three clusters in the partition, two in the reference.
        let partition = vec![0, 0, 2, 2, 1, 1, 1, 1];
        let aligned = align_partition(&reference, &partition).unwrap();
        // The two matched clusters map onto 0 and 1; the surplus cluster gets
        // an id outside the reference's range (>= 2) and stays distinct.
        let distinct: std::collections::BTreeSet<usize> = aligned.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
        assert!(aligned.iter().any(|&l| l >= 2));
        // No merging: instances 2,3 still share a label distinct from 0,1.
        assert_eq!(aligned[2], aligned[3]);
        assert_ne!(aligned[2], aligned[0]);
    }

    #[test]
    fn align_partitions_checks_lengths_and_emptiness() {
        assert!(matches!(
            align_partitions(&[]),
            Err(ConsensusError::NoPartitions)
        ));
        let err = align_partitions(&[vec![0, 1], vec![0]]).unwrap_err();
        assert!(matches!(
            err,
            ConsensusError::PartitionLengthMismatch {
                partition: 1,
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn align_partitions_aligns_everything_to_first() {
        let a = vec![0, 0, 1, 1];
        let b = vec![1, 1, 0, 0];
        let c = vec![5, 5, 9, 9];
        let aligned = align_partitions(&[a.clone(), b, c]).unwrap();
        assert_eq!(aligned[0], a);
        assert_eq!(aligned[1], a);
        assert_eq!(aligned[2], a);
    }

    #[test]
    fn alignment_of_empty_partitions_errors() {
        assert!(align_partition(&[], &[]).is_err());
        assert!(matches!(
            align_partitions_with(&[], &ParallelPolicy::serial()),
            Err(ConsensusError::NoPartitions)
        ));
        // An empty partition *inside* a non-empty set fails the metric
        // layer's contingency construction, not a panic.
        assert!(align_partitions(&[vec![], vec![]]).is_err());
    }

    #[test]
    fn single_cluster_partitions_align_without_loss() {
        // Everyone in one cluster, on both sides: a 1x1 contingency table
        // through the Hungarian step.
        let reference = vec![3, 3, 3, 3];
        let partition = vec![0, 0, 0, 0];
        assert_eq!(align_partition(&reference, &partition).unwrap(), reference);
        // Single-cluster partition against a multi-cluster reference: the
        // lone source cluster maps onto its best reference match (the
        // majority cluster) and nothing is merged or invented.
        let reference = vec![0, 0, 0, 1];
        let partition = vec![7, 7, 7, 7];
        assert_eq!(
            align_partition(&reference, &partition).unwrap(),
            vec![0, 0, 0, 0]
        );
        // Multi-cluster partition against a single-cluster reference: one
        // source cluster wins the only reference id, the other keeps a
        // fresh id — still two distinct clusters after alignment.
        let reference = vec![0, 0, 0, 0];
        let partition = vec![1, 1, 2, 2];
        let aligned = align_partition(&reference, &partition).unwrap();
        assert_eq!(aligned[0], aligned[1]);
        assert_eq!(aligned[2], aligned[3]);
        assert_ne!(aligned[0], aligned[2]);
    }

    #[test]
    fn unequal_cluster_counts_survive_the_hungarian_step() {
        // Partition observes fewer clusters than the reference (a base
        // clusterer collapsed two groups): the rectangular contingency
        // table must still produce a valid assignment, and both source
        // clusters map onto distinct reference ids.
        let reference = vec![0, 0, 1, 1, 2, 2];
        let partition = vec![4, 4, 4, 4, 9, 9];
        let aligned = align_partition(&reference, &partition).unwrap();
        let distinct: std::collections::BTreeSet<usize> = aligned.iter().copied().collect();
        assert_eq!(distinct.len(), 2);
        assert!(aligned.iter().all(|&l| l <= 2), "{aligned:?}");
        assert_eq!(aligned[4], aligned[5]);
        assert_ne!(aligned[0], aligned[4]);
        // And the transposed case (more observed clusters than the
        // reference) keeps every surplus cluster distinct via fresh ids.
        let aligned = align_partition(&partition, &reference).unwrap();
        let distinct: std::collections::BTreeSet<usize> = aligned.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn parallel_alignment_is_identical_to_serial() {
        // Ten partitions with permuted, surplus and collapsed labels.
        let mut partitions = vec![vec![0, 0, 0, 1, 1, 1, 2, 2, 2]];
        for shift in 1..10usize {
            partitions.push(
                (0..9)
                    .map(|i| (i / 3 + shift) % (2 + shift % 2) + 1)
                    .collect(),
            );
        }
        let serial = align_partitions(&partitions).unwrap();
        for threads in [2, 4, 8] {
            let policy = ParallelPolicy::new(threads);
            let par = align_partitions_with(&partitions, &policy).unwrap();
            assert_eq!(par, serial, "threads {threads}");
        }
    }
}
