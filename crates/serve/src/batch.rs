//! Cross-request micro-batching: concurrent inference requests for the same
//! model are coalesced into a single pooled matrix multiply.
//!
//! ## How a batch forms
//!
//! Requests are keyed by `(model, registry generation, endpoint, row
//! width)` — the generation in the key means a hot swap can never fuse rows
//! resolved against different model versions into one launch; requests
//! holding the old generation finish on it. The first request
//! to arrive for a key becomes the batch **leader**: it opens a collection
//! window (the latency budget, [`BatchConfig::window`]) and parks on a
//! condvar. Requests arriving inside the window append their rows to the
//! leader's batch and park waiting for the result. The window closes when
//! the budget elapses or the batch reaches [`BatchConfig::max_rows`]; the
//! leader then runs **one** fused kernel launch over the concatenated rows
//! and slices the output back to each waiter.
//!
//! ## Why batched output is bitwise-identical to unbatched
//!
//! Every kernel behind `/features` and `/assign` (preprocessing, the
//! matmul, the fused bias+sigmoid map, nearest-centroid lookup) computes
//! each output row from its input row alone, in a canonical per-row
//! accumulation order that the whole repo's serial-vs-pooled identity
//! suites pin down. Concatenating request rows
//! therefore changes *which* rows sit in one launch but not a single bit of
//! any row's result — testable with `f64::to_bits`, and tested in
//! `tests/batch_identity.rs`.

use crate::ServingModel;
use sls_linalg::{Matrix, ParallelPolicy};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default cap on rows fused into one kernel launch.
pub const DEFAULT_MAX_BATCH_ROWS: usize = 256;

/// Tuning knobs of the cross-request micro-batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Latency budget a batch leader waits for co-arriving requests.
    /// `Duration::ZERO` disables batching entirely.
    pub window: Duration,
    /// Hard cap on rows in one fused launch; a batch closes early when the
    /// next request would push it past the cap.
    pub max_rows: usize,
}

impl BatchConfig {
    /// Batching disabled.
    pub fn disabled() -> Self {
        Self {
            window: Duration::ZERO,
            max_rows: DEFAULT_MAX_BATCH_ROWS,
        }
    }

    /// Whether the batcher coalesces at all.
    pub fn enabled(&self) -> bool {
        !self.window.is_zero()
    }
}

/// The two inference endpoints a batch can serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// `POST /v1/models/{name}/features`.
    Features,
    /// `POST /v1/models/{name}/assign`.
    Assign,
}

/// Per-request output sliced back out of a fused launch.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutput {
    /// Hidden-feature rows for the request's rows.
    Features(Vec<Vec<f64>>),
    /// Cluster label per request row.
    Assign(Vec<usize>),
}

/// Counters the batcher exposes (served by `GET /v1/admin/statz`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Fused kernel launches through the batcher (including size-1 batches
    /// whose window expired alone).
    pub batches: u64,
    /// Requests answered through the batched path.
    pub batched_requests: u64,
    /// Total rows that went through fused launches.
    pub batched_rows: u64,
    /// Most requests ever coalesced into one launch.
    pub largest_batch: u64,
    /// Most rows ever fused into one launch.
    pub largest_batch_rows: u64,
}

/// The fused output of one batch, shared by every waiter.
enum Fused {
    Features(Matrix),
    Assign(Vec<usize>),
}

type FusedResult = std::result::Result<Arc<Fused>, String>;

/// One forming (or computing) batch. Waiters hold an `Arc` to it after the
/// key slot has moved on to the next batch.
struct Batch {
    state: Mutex<BatchState>,
    /// Signalled when the batch fills (wakes the leader early) and when the
    /// result lands (wakes the followers).
    changed: Condvar,
}

struct BatchState {
    /// Concatenated row-major request rows (drained by the leader when the
    /// window closes).
    data: Vec<f64>,
    rows: usize,
    /// `(first_row, row_count)` per joined request, in join order. Kept
    /// after the leader drains `data` so followers can slice the result.
    spans: Vec<(usize, usize)>,
    /// Set by a follower that filled the batch (or could not fit), closing
    /// the window early.
    full: bool,
    result: Option<FusedResult>,
}

/// The per-key collection slot: at most one batch is forming per key at any
/// time; the next batch starts forming while the previous one computes.
struct Queue {
    slot: Mutex<Option<Arc<Batch>>>,
    /// Signalled when the slot frees (the forming batch detached to
    /// compute), unblocking requests that could not fit.
    freed: Condvar,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BatchKey {
    model: String,
    generation: u64,
    endpoint: Endpoint,
    cols: usize,
}

/// The cross-request micro-batcher: per-`(model, endpoint, width)` queues
/// coalescing concurrent requests into single fused kernel launches.
pub struct Batcher {
    config: BatchConfig,
    queues: Mutex<HashMap<BatchKey, Arc<Queue>>>,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    batched_rows: AtomicU64,
    largest_batch: AtomicU64,
    largest_batch_rows: AtomicU64,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Batcher {
    /// A batcher with the given knobs.
    pub fn new(config: BatchConfig) -> Self {
        Self {
            config,
            queues: Mutex::new(HashMap::new()),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            batched_rows: AtomicU64::new(0),
            largest_batch: AtomicU64::new(0),
            largest_batch_rows: AtomicU64::new(0),
        }
    }

    /// The knobs this batcher runs with.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            batched_rows: self.batched_rows.load(Ordering::Relaxed),
            largest_batch: self.largest_batch.load(Ordering::Relaxed),
            largest_batch_rows: self.largest_batch_rows.load(Ordering::Relaxed),
        }
    }

    /// Runs one request through the batcher: coalesces with concurrent
    /// same-key requests when the window is open, computes directly when
    /// batching is off or the request alone reaches the row cap.
    ///
    /// # Errors
    ///
    /// Returns the model-layer error message (the server maps it to `400`),
    /// shared verbatim by every request in a failed batch.
    pub fn submit(
        &self,
        model: &ServingModel,
        name: &str,
        generation: u64,
        endpoint: Endpoint,
        matrix: &Matrix,
        parallel: &ParallelPolicy,
    ) -> std::result::Result<BatchOutput, String> {
        let (rows, cols) = matrix.shape();
        if !self.config.enabled() || rows >= self.config.max_rows {
            return compute_direct(model, endpoint, matrix, parallel);
        }
        let queue = self.queue_for(BatchKey {
            model: name.to_string(),
            generation,
            endpoint,
            cols,
        });
        loop {
            enum Role {
                Leader(Arc<Batch>),
                Follower(Arc<Batch>, usize),
            }
            let role = {
                let mut slot = queue.slot.lock().expect("batch slot lock");
                match slot.as_ref() {
                    Some(batch) => {
                        // Lock order is always slot -> state; appends happen
                        // with both held, so a batch reachable through the
                        // slot can never have been drained yet.
                        let mut state = batch.state.lock().expect("batch state lock");
                        if state.rows + rows > self.config.max_rows {
                            // Would overflow the cap: close the window early
                            // and wait for the slot to free.
                            state.full = true;
                            batch.changed.notify_all();
                            drop(state);
                            let (_slot, _timeout) = queue
                                .freed
                                .wait_timeout(slot, self.config.window)
                                .expect("batch slot lock");
                            continue;
                        }
                        let span = (state.rows, rows);
                        state.data.extend_from_slice(matrix.as_slice());
                        state.rows += rows;
                        state.spans.push(span);
                        let index = state.spans.len() - 1;
                        if state.rows >= self.config.max_rows {
                            state.full = true;
                        }
                        batch.changed.notify_all();
                        Role::Follower(Arc::clone(batch), index)
                    }
                    None => {
                        let batch = Arc::new(Batch {
                            state: Mutex::new(BatchState {
                                data: matrix.as_slice().to_vec(),
                                rows,
                                spans: vec![(0, rows)],
                                full: rows >= self.config.max_rows,
                                result: None,
                            }),
                            changed: Condvar::new(),
                        });
                        *slot = Some(Arc::clone(&batch));
                        Role::Leader(batch)
                    }
                }
            };
            return match role {
                Role::Leader(batch) => self.lead(&queue, &batch, model, endpoint, cols, parallel),
                Role::Follower(batch, index) => follow(&batch, index),
            };
        }
    }

    /// Leader path: wait out the window, detach the batch from the slot,
    /// run the fused launch and publish the result.
    fn lead(
        &self,
        queue: &Queue,
        batch: &Arc<Batch>,
        model: &ServingModel,
        endpoint: Endpoint,
        cols: usize,
        parallel: &ParallelPolicy,
    ) -> std::result::Result<BatchOutput, String> {
        let deadline = Instant::now() + self.config.window;
        {
            let mut state = batch.state.lock().expect("batch state lock");
            while !state.full {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, _timeout) = batch
                    .changed
                    .wait_timeout(state, deadline - now)
                    .expect("batch state lock");
                state = next;
            }
        }
        // Free the slot *before* computing, so the next batch collects
        // while this one runs. After this point no request can join: joins
        // go through the slot, and the slot no longer references us.
        {
            let mut slot = queue.slot.lock().expect("batch slot lock");
            if slot.as_ref().is_some_and(|b| Arc::ptr_eq(b, batch)) {
                *slot = None;
            }
            queue.freed.notify_all();
        }
        let (data, rows, members) = {
            let mut state = batch.state.lock().expect("batch state lock");
            (
                std::mem::take(&mut state.data),
                state.rows,
                state.spans.len(),
            )
        };
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(members as u64, Ordering::Relaxed);
        self.batched_rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.largest_batch
            .fetch_max(members as u64, Ordering::Relaxed);
        self.largest_batch_rows
            .fetch_max(rows as u64, Ordering::Relaxed);
        let fused = run_fused(model, endpoint, rows, cols, data, parallel);
        let shared: FusedResult = fused.map(Arc::new);
        let mut state = batch.state.lock().expect("batch state lock");
        state.result = Some(shared.clone());
        batch.changed.notify_all();
        let span = state.spans[0];
        drop(state);
        match &shared {
            Ok(fused) => slice_output(fused, span),
            Err(message) => Err(message.clone()),
        }
    }

    fn queue_for(&self, key: BatchKey) -> Arc<Queue> {
        let mut queues = self.queues.lock().expect("batch queues lock");
        Arc::clone(queues.entry(key).or_insert_with(|| {
            Arc::new(Queue {
                slot: Mutex::new(None),
                freed: Condvar::new(),
            })
        }))
    }
}

/// Follower path: park until the leader publishes, then slice out this
/// request's rows.
fn follow(batch: &Batch, index: usize) -> std::result::Result<BatchOutput, String> {
    let mut state = batch.state.lock().expect("batch state lock");
    while state.result.is_none() {
        state = batch.changed.wait(state).expect("batch state lock");
    }
    let span = state.spans[index];
    let result = state.result.clone().expect("result just observed");
    drop(state);
    match &result {
        Ok(fused) => slice_output(fused, span),
        Err(message) => Err(message.clone()),
    }
}

/// The single fused kernel launch for a closed batch. A panic inside the
/// model layer is caught and shared as an error so followers never hang.
fn run_fused(
    model: &ServingModel,
    endpoint: Endpoint,
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    parallel: &ParallelPolicy,
) -> std::result::Result<Fused, String> {
    let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let matrix = Matrix::from_vec(rows, cols, data).map_err(|e| e.to_string())?;
        match endpoint {
            Endpoint::Features => model
                .features_with(&matrix, parallel)
                .map(Fused::Features)
                .map_err(|e| e.to_string()),
            Endpoint::Assign => model
                .assign_with(&matrix, parallel)
                .map(Fused::Assign)
                .map_err(|e| e.to_string()),
        }
    }));
    computed.unwrap_or_else(|panic| Err(format!("batched inference panicked: {panic:?}")))
}

/// Computes one request without coalescing — the reference the batched path
/// must match bit for bit.
pub(crate) fn compute_direct(
    model: &ServingModel,
    endpoint: Endpoint,
    matrix: &Matrix,
    parallel: &ParallelPolicy,
) -> std::result::Result<BatchOutput, String> {
    match endpoint {
        Endpoint::Features => model
            .features_with(matrix, parallel)
            .map(|features| BatchOutput::Features(matrix_rows(&features, 0, features.rows())))
            .map_err(|e| e.to_string()),
        Endpoint::Assign => model
            .assign_with(matrix, parallel)
            .map(BatchOutput::Assign)
            .map_err(|e| e.to_string()),
    }
}

fn slice_output(
    fused: &Fused,
    (start, len): (usize, usize),
) -> std::result::Result<BatchOutput, String> {
    Ok(match fused {
        Fused::Features(matrix) => BatchOutput::Features(matrix_rows(matrix, start, len)),
        Fused::Assign(labels) => BatchOutput::Assign(labels[start..start + len].to_vec()),
    })
}

fn matrix_rows(matrix: &Matrix, start: usize, len: usize) -> Vec<Vec<f64>> {
    (start..start + len)
        .map(|i| matrix.row(i).to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sls_datasets::SyntheticBlobs;
    use sls_rbm_core::{ModelKind, PipelineArtifact, SlsPipelineConfig};
    use std::sync::Barrier;

    fn artifact() -> ServingModel {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let ds = SyntheticBlobs::new(30, 4, 2)
            .separation(6.0)
            .generate(&mut rng);
        ServingModel::from_artifact(
            PipelineArtifact::fit(
                ModelKind::Grbm,
                SlsPipelineConfig::quick_demo()
                    .with_clusters(2)
                    .with_hidden(4),
                ds.features(),
                &mut rng,
            )
            .expect("training succeeds")
            .artifact,
            false,
        )
    }

    fn rows(seed: u64, n: usize) -> Matrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Matrix::from_fn(n, 4, |_, _| {
            use rand::Rng;
            rng.gen_range(-2.0..2.0)
        })
    }

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn disabled_batcher_computes_directly() {
        let artifact = artifact();
        let batcher = Batcher::new(BatchConfig::disabled());
        let matrix = rows(1, 3);
        let direct = compute_direct(
            &artifact,
            Endpoint::Features,
            &matrix,
            &ParallelPolicy::serial(),
        )
        .unwrap();
        let via = batcher
            .submit(
                &artifact,
                "m",
                1,
                Endpoint::Features,
                &matrix,
                &ParallelPolicy::serial(),
            )
            .unwrap();
        assert_eq!(direct, via);
        assert_eq!(batcher.stats().batches, 0, "disabled batcher never fuses");
    }

    #[test]
    fn concurrent_submissions_coalesce_and_match_direct_bitwise() {
        let artifact = artifact();
        // A generous window so every barrier-released thread lands inside
        // the leader's wait.
        let batcher = Batcher::new(BatchConfig {
            window: Duration::from_millis(500),
            max_rows: 64,
        });
        let policy = ParallelPolicy::serial();
        let n_threads = 4;
        let barrier = Barrier::new(n_threads);
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let artifact = &artifact;
                let batcher = &batcher;
                let policy = &policy;
                let barrier = &barrier;
                scope.spawn(move || {
                    let matrix = rows(100 + t as u64, 2);
                    let expected =
                        compute_direct(artifact, Endpoint::Features, &matrix, policy).unwrap();
                    barrier.wait();
                    let got = batcher
                        .submit(artifact, "m", 1, Endpoint::Features, &matrix, policy)
                        .unwrap();
                    let (BatchOutput::Features(a), BatchOutput::Features(b)) = (&expected, &got)
                    else {
                        panic!("wrong output kinds");
                    };
                    assert_eq!(bits(a), bits(b), "batched bits differ for thread {t}");
                });
            }
        });
        let stats = batcher.stats();
        assert_eq!(stats.batched_requests, n_threads as u64);
        assert!(
            stats.largest_batch >= 2,
            "barrier-released submissions did not coalesce: {stats:?}"
        );
    }

    #[test]
    fn max_rows_cap_is_never_exceeded() {
        let artifact = artifact();
        let batcher = Batcher::new(BatchConfig {
            window: Duration::from_millis(200),
            max_rows: 4,
        });
        let policy = ParallelPolicy::serial();
        let n_threads = 6;
        let barrier = Barrier::new(n_threads);
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let artifact = &artifact;
                let batcher = &batcher;
                let policy = &policy;
                let barrier = &barrier;
                scope.spawn(move || {
                    let matrix = rows(200 + t as u64, 2);
                    let expected =
                        compute_direct(artifact, Endpoint::Assign, &matrix, policy).unwrap();
                    barrier.wait();
                    let got = batcher
                        .submit(artifact, "m", 1, Endpoint::Assign, &matrix, policy)
                        .unwrap();
                    assert_eq!(expected, got, "capped batching changed thread {t}'s labels");
                });
            }
        });
        let stats = batcher.stats();
        assert_eq!(stats.batched_requests, n_threads as u64);
        assert!(stats.largest_batch_rows <= 4, "row cap violated: {stats:?}");
    }

    #[test]
    fn request_at_or_above_cap_bypasses_coalescing() {
        let artifact = artifact();
        let batcher = Batcher::new(BatchConfig {
            window: Duration::from_millis(50),
            max_rows: 4,
        });
        let matrix = rows(5, 6);
        let direct = compute_direct(
            &artifact,
            Endpoint::Features,
            &matrix,
            &ParallelPolicy::serial(),
        )
        .unwrap();
        let got = batcher
            .submit(
                &artifact,
                "m",
                1,
                Endpoint::Features,
                &matrix,
                &ParallelPolicy::serial(),
            )
            .unwrap();
        assert_eq!(direct, got);
        assert_eq!(batcher.stats().batches, 0);
    }

    #[test]
    fn different_keys_never_share_a_batch() {
        let artifact = artifact();
        let batcher = Batcher::new(BatchConfig {
            window: Duration::from_millis(300),
            max_rows: 64,
        });
        let policy = ParallelPolicy::serial();
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let matrix = rows(300, 2);
                let expected =
                    compute_direct(&artifact, Endpoint::Features, &matrix, &policy).unwrap();
                barrier.wait();
                let got = batcher
                    .submit(&artifact, "alpha", 1, Endpoint::Features, &matrix, &policy)
                    .unwrap();
                assert_eq!(expected, got);
            });
            let b = scope.spawn(|| {
                let matrix = rows(301, 2);
                let expected =
                    compute_direct(&artifact, Endpoint::Assign, &matrix, &policy).unwrap();
                barrier.wait();
                let got = batcher
                    .submit(&artifact, "alpha", 1, Endpoint::Assign, &matrix, &policy)
                    .unwrap();
                assert_eq!(expected, got);
            });
            a.join().unwrap();
            b.join().unwrap();
        });
        // Two distinct keys -> two batches, each of one request.
        let stats = batcher.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.largest_batch, 1);
    }

    #[test]
    fn different_generations_never_share_a_batch() {
        let artifact = artifact();
        let batcher = Batcher::new(BatchConfig {
            window: Duration::from_millis(300),
            max_rows: 64,
        });
        let policy = ParallelPolicy::serial();
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for generation in [1u64, 2u64] {
                let artifact = &artifact;
                let batcher = &batcher;
                let policy = &policy;
                let barrier = &barrier;
                scope.spawn(move || {
                    let matrix = rows(400 + generation, 2);
                    let expected =
                        compute_direct(artifact, Endpoint::Features, &matrix, policy).unwrap();
                    barrier.wait();
                    let got = batcher
                        .submit(
                            artifact,
                            "m",
                            generation,
                            Endpoint::Features,
                            &matrix,
                            policy,
                        )
                        .unwrap();
                    assert_eq!(expected, got);
                });
            }
        });
        // Same model and endpoint, different generation -> no fusing: a hot
        // swap mid-window must not mix model versions in one launch.
        let stats = batcher.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.largest_batch, 1);
    }
}
