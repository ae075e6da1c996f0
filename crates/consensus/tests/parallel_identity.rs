//! Property suite for the parallel consensus invariant: supervision built
//! under ANY policy — serial or on the persistent worker pool, across
//! thread budgets 1–8 — is *identical* to the serial build,
//! and consumes the caller's RNG identically.
//!
//! The invariant holds by construction (per-clusterer sub-seeds are drawn
//! serially before any clusterer runs; every per-row reduction keeps the
//! serial accumulation order), and this suite is what keeps it true.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sls_clustering::{AffinityPropagation, Clusterer, DensityPeaks, KMeans};
use sls_consensus::{LocalSupervision, LocalSupervisionBuilder, VotingPolicy};
use sls_datasets::SyntheticBlobs;
use sls_linalg::{Matrix, ParallelPolicy};

const K: usize = 3;
const SEED: u64 = 4242;

fn blobs() -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    SyntheticBlobs::new(84, 6, K)
        .separation(5.0)
        .generate(&mut rng)
        .features()
        .clone()
}

/// The paper's base-clusterer trio, every stage threaded with `policy`.
fn clusterers(policy: ParallelPolicy) -> Vec<Box<dyn Clusterer>> {
    vec![
        Box::new(DensityPeaks::new(K).with_parallel(policy)),
        Box::new(KMeans::new(K).with_parallel(policy)),
        Box::new(
            AffinityPropagation::default()
                .with_target_clusters(K)
                .with_parallel(policy),
        ),
    ]
}

/// Builds supervision under `policy` and returns it with the caller RNG's
/// next draw, so tests can also assert the RNG advanced identically.
fn build(data: &Matrix, policy: ParallelPolicy, voting: VotingPolicy) -> (LocalSupervision, u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let supervision = LocalSupervisionBuilder::new(K)
        .with_policy(voting)
        .with_parallel(policy)
        .build_with_clusterers(&clusterers(policy), data, &mut rng)
        .expect("consensus builds");
    (supervision, rng.next_u64())
}

/// Every thread count from 1 to 8 must reproduce the serial supervision
/// exactly: same membership, same cluster count, same covered indices,
/// same RNG consumption.
#[test]
fn consensus_is_identical_to_serial_across_the_policy_grid() {
    let data = blobs();
    let (reference, reference_draw) =
        build(&data, ParallelPolicy::serial(), VotingPolicy::Unanimous);
    assert!(reference.n_clusters() > 0, "reference supervision is empty");

    for threads in 1..=8usize {
        let policy = ParallelPolicy::new(threads).with_min_rows_per_thread(1);
        let (supervision, draw) = build(&data, policy, VotingPolicy::Unanimous);
        let label = format!("threads={threads}");
        assert_eq!(
            supervision.membership(),
            reference.membership(),
            "membership diverged under {label}"
        );
        assert_eq!(
            supervision.n_clusters(),
            reference.n_clusters(),
            "cluster count diverged under {label}"
        );
        assert_eq!(
            supervision.covered_indices(),
            reference.covered_indices(),
            "coverage diverged under {label}"
        );
        assert_eq!(
            draw, reference_draw,
            "caller RNG consumption diverged under {label}"
        );
    }
}

/// The identity must hold for every voting policy, not just the paper's
/// unanimous default — the pooled integration path is shared.
#[test]
fn pooled_consensus_matches_serial_for_every_voting_policy() {
    let data = blobs();
    let pooled = ParallelPolicy::new(4).with_min_rows_per_thread(1);
    for voting in [
        VotingPolicy::Unanimous,
        VotingPolicy::Majority,
        VotingPolicy::Single(1),
    ] {
        let (reference, _) = build(&data, ParallelPolicy::serial(), voting);
        let (supervision, _) = build(&data, pooled, voting);
        assert_eq!(
            supervision.membership(),
            reference.membership(),
            "membership diverged under {voting:?}"
        );
    }
}
