//! Row-partitioned parallel execution for the matrix kernels.
//!
//! Every product in the workspace's hot paths — `V·W` (visible → hidden
//! pre-activations), `H·Wᵀ` (reconstruction) and `Vᵀ·H` (CD statistics) —
//! writes each output row independently, so the natural parallel
//! decomposition is to hand contiguous chunks of *output rows* to the
//! process-wide persistent [`WorkerPool`].
//!
//! ## Bitwise reproducibility
//!
//! Every product element has one summation order: `matmul`,
//! `matmul_transpose_left` and `matmul_transpose_right` add their `a·b`
//! terms in ascending shared index from `+0.0` on the register-tiled
//! micro-kernel in `kernel.rs`, at every width. `A·Bᵀ` is `A·(Bᵀ)` over a
//! transposed copy of `B`, so the two agree to the bit.
//!
//! Row partitioning never splits the accumulation of a single output
//! element across threads: each output row is produced by exactly one
//! thread running the exact serial inner loop, in the exact serial
//! accumulation order. Parallel results are therefore **bitwise identical**
//! to serial results for every thread count and chunk size — the paper's
//! tables reproduce identically whether a run used 1 thread or 16. The
//! property tests in `tests/properties.rs` assert this across random shapes
//! and policies.
//!
//! ## Policy
//!
//! [`ParallelPolicy`] carries one value, a thread count. A kernel call fans
//! out only when `threads > 1` and its work (output rows times the per-row
//! cost hint every caller passes) gives each planned thread at least
//! [`MIN_THREAD_WORK`] operations; smaller calls (serving rows, CD
//! mini-batch products) run inline on the calling thread. A fanned-out call
//! runs on the persistent [`WorkerPool`], split into about four chunks per
//! planned thread, sized from the same hint; the caller and every idle pool
//! worker claim them, so `threads` sets the chunk count, not how many
//! threads run.
//!
//! A process has one policy, [`ParallelPolicy::global`], and everything
//! that stores a policy starts from it ([`ParallelPolicy::default`] too).
//! The library's global default is serial; a program overrides it once
//! with [`ParallelPolicy::set_global`], or the environment does
//! (`SLS_PARALLEL_THREADS`).

use crate::kernel::{self, Strided};
use crate::pool::WorkerPool;
use crate::{LinalgError, Matrix, Result};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Environment variable naming the global thread count (`0` = one thread
/// per available core).
pub const ENV_THREADS: &str = "SLS_PARALLEL_THREADS";

/// Fewest estimated f64 operations (output rows × per-row cost hint) a
/// kernel call gives each planned thread before it fans out. Measured on a
/// 2-core AVX2 Xeon: 256-wide products lose on the pool below ~16 rows (1M
/// operations; 8 rows ran at 0.68× of inline). `small_batch_32` (2.1M)
/// wins on 2 planned threads, but on the 4 a 360k floor planned it failed
/// `parallel_bench --gate 1.25` in 3 of 10 runs. Narrow products break even
/// near 200k alone but lost inside the retrain epoch (0.75× of serial on 2
/// threads), and a 256-row serving `V·W` (786k) traced the same
/// `registry.kernel_us` inline or pooled (409–427 µs).
const MIN_THREAD_WORK: usize = 720 * 1024;

static GLOBAL_INIT: Once = Once::new();
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// How (and whether) the matrix kernels fan work out across threads.
///
/// A policy is a plain value: cheap to copy, process-local (no config or
/// artifact stores one, so artifacts never bake in a machine's core
/// count), and inert — `threads = 1` *is* the serial implementation, not a
/// special case around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelPolicy {
    /// Threads a kernel plans for (at least 1). Above 1, a kernel call with
    /// enough work runs on the process-wide [`WorkerPool`], split into
    /// about four chunks per planned thread. It is not a cap: the pool has
    /// one worker per core minus one, and the caller and every idle worker
    /// claim chunks.
    pub threads: usize,
    /// Fewest estimated operations per planned thread: [`MIN_THREAD_WORK`],
    /// or 0 under the test-only `eager` builder.
    min_thread_work: usize,
}

impl Default for ParallelPolicy {
    /// The process-wide policy, [`ParallelPolicy::global`].
    fn default() -> Self {
        Self::global()
    }
}

impl ParallelPolicy {
    /// Strictly serial execution (1 thread).
    pub const fn serial() -> Self {
        Self {
            threads: 1,
            min_thread_work: MIN_THREAD_WORK,
        }
    }

    /// A policy planning for `threads` threads; `0` resolves to one thread
    /// per available core.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: resolve_threads(threads),
            ..Self::serial()
        }
    }

    /// [`ParallelPolicy::new`] without the work floor, so identity tests run
    /// tiny inputs on the pool. Test builds only: `cfg(test)`, or the
    /// `eager-policy` feature that only `[dev-dependencies]` enable.
    #[cfg(any(test, feature = "eager-policy"))]
    pub fn eager(threads: usize) -> Self {
        Self {
            min_thread_work: 0,
            ..Self::new(threads)
        }
    }

    /// Kept only because the end-to-end benchmark (`slsbench`) calls it:
    /// every fanned-out kernel runs on the persistent [`WorkerPool`], so
    /// this returns `self` unchanged.
    pub fn with_pool(self, _pool: bool) -> Self {
        self
    }

    /// `true` if this policy can never fan out.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Threads a call producing `rows` output rows of about `row_cost` f64
    /// operations each plans for: `min(threads, rows, rows × row_cost /
    /// MIN_THREAD_WORK)`, never below 1, so every planned thread gets at
    /// least `MIN_THREAD_WORK` (720 Ki) operations. A caller that fans out its own
    /// row blocks (as the CSV reader's pooled parse does) asks this whether
    /// to.
    pub fn effective_threads(&self, rows: usize, row_cost: usize) -> usize {
        let by_work = rows
            .saturating_mul(row_cost)
            .checked_div(self.min_thread_work);
        self.threads.min(rows).min(by_work.unwrap_or(rows)).max(1)
    }

    /// The process-wide default policy consulted by the plain (`_with`-less)
    /// kernel methods.
    ///
    /// On first use it is initialised from `SLS_PARALLEL_THREADS` (`0` =
    /// one thread per core); without it the default is serial.
    ///
    /// # Panics
    ///
    /// Panics on first use if the variable is set to an unparsable value —
    /// a typo must not silently disable the parallel path the variable was
    /// set to force.
    pub fn global() -> Self {
        init_global_from_env();
        Self {
            threads: GLOBAL_THREADS.load(Ordering::Relaxed),
            ..Self::serial()
        }
    }

    /// Replaces the process-wide default thread count with `policy`'s.
    ///
    /// Because parallel results are bitwise identical to serial results,
    /// changing the global policy never changes any computed value — only
    /// how many threads compute it.
    pub fn set_global(policy: ParallelPolicy) {
        // Mark env initialisation as done so a later `global()` cannot
        // clobber an explicit override.
        GLOBAL_INIT.call_once(|| {});
        GLOBAL_THREADS.store(policy.threads.max(1), Ordering::Relaxed);
    }
}

/// Resolves a requested thread count: `0` means one thread per core.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Reads `SLS_PARALLEL_THREADS` once. A *set but unparsable* value panics
/// instead of being silently ignored: a typo that quietly fell back to
/// serial would make CI's pooled test pass test nothing.
fn init_global_from_env() {
    GLOBAL_INIT.call_once(|| {
        if let Ok(raw) = std::env::var(ENV_THREADS) {
            let threads = raw.trim().parse().unwrap_or_else(|_| {
                panic!("{ENV_THREADS} must be a non-negative integer, got `{raw}`")
            });
            GLOBAL_THREADS.store(resolve_threads(threads), Ordering::Relaxed);
        }
    });
}

/// Adaptive chunking targets this many chunks per participating thread:
/// enough over-partitioning that one-at-a-time claiming balances a band
/// that turns out ~8x heavier than its peers, small enough that per-chunk
/// dispatch stays negligible against real row work.
const CHUNKS_PER_THREAD: usize = 4;

/// Adaptive chunking keeps at least this many estimated f64 operations per
/// chunk, so narrow rows get grouped until a chunk is worth dispatching
/// (~a few microseconds of work).
const MIN_CHUNK_ROW_OPS: usize = 16 * 1024;

/// Rows per chunk a fanned-out kernel call producing `rows` output rows is
/// split into, given `threads` participating threads and a per-row cost
/// hint (`row_cost`, roughly the number of f64 operations one output row
/// performs).
///
/// The rule aims for [`CHUNKS_PER_THREAD`] chunks per thread — enough slack
/// that the threads claiming chunks one at a time can work around a
/// straggling band — floored so one chunk still carries at least
/// [`MIN_CHUNK_ROW_OPS`] worth of row work (so tiny rows don't drown in
/// scheduling overhead), and capped at one equal band per thread (chunking
/// must never *reduce* the parallelism an equal split would get). Chunk
/// boundaries never split a row, so every chunk size produces bitwise
/// identical output; only the straggler behaviour changes.
fn chunk_rows(rows: usize, row_cost: usize, threads: usize) -> usize {
    let band = rows.div_ceil(threads.max(1)).max(1);
    let by_split = rows.div_ceil(threads.max(1) * CHUNKS_PER_THREAD).max(1);
    let by_cost = MIN_CHUNK_ROW_OPS.div_ceil(row_cost.max(1)).max(1);
    by_split.max(by_cost).min(band)
}

/// Splits `out` into contiguous row chunks and runs `work` on each chunk
/// under `policy` — inline when the effective thread count is 1, otherwise
/// on the persistent [`WorkerPool`].
///
/// `work` receives the half-open range of row indices it owns and the
/// mutable storage of exactly those rows. `row_cost` is the kernel's
/// estimate of f64 operations per output row, which decides the fan-out
/// ([`ParallelPolicy::effective_threads`]) and the chunk size.
///
/// A fanned-out call is split into *more chunks than threads*
/// ([`chunk_rows`]): equal row counts are not equal costs
/// once per-row work is ragged, and the pool's participants claim chunks
/// one at a time, so a thread that finishes early takes the next chunk
/// instead of idling behind one straggling band. Chunk boundaries never
/// split a row's accumulation, so output is bitwise identical for every
/// chunk size and thread count. The calling thread claims chunks too, and
/// a call from inside a pool item (a nested kernel) runs its chunks inline
/// (see [`WorkerPool::for_each_mut`]).
pub(crate) fn for_each_row_block(
    out: &mut [f64],
    rows: usize,
    row_width: usize,
    row_cost: usize,
    policy: &ParallelPolicy,
    work: &(impl Fn(Range<usize>, &mut [f64]) + Sync),
) {
    let threads = policy.effective_threads(rows, row_cost);
    // A zero-width output has no storage to split into chunks.
    if threads == 1 || row_width == 0 {
        work(0..rows, out);
        return;
    }
    let chunk_rows = chunk_rows(rows, row_cost, threads);
    let mut blocks: Vec<&mut [f64]> = out.chunks_mut(chunk_rows * row_width).collect();
    WorkerPool::global().for_each_mut(&mut blocks, |b, block| {
        let start = b * chunk_rows;
        work(start..start + block.len() / row_width, block);
    });
}

/// `a · b` into `n` rows on the register-tiled [`kernel`], the rows split
/// under `policy`: `a(i, p)` for `b.rows()` terms.
fn tiled_product(a: Strided<'_>, b: &Matrix, n: usize, policy: &ParallelPolicy) -> Matrix {
    let (k, m) = b.shape();
    let mut out = Matrix::zeros(n, m);
    for_each_row_block(
        out.as_mut_slice(),
        n,
        m,
        k.saturating_mul(m),
        policy,
        &|range, block| kernel::product(a, b.as_slice(), k, m, range, block),
    );
    out
}

impl Matrix {
    /// [`Matrix::matmul`] under an explicit [`ParallelPolicy`]: output rows
    /// are partitioned across threads; each row keeps the serial
    /// accumulation order, so the result is bitwise identical to serial.
    ///
    /// Runs on the register-tiled micro-kernel (`kernel.rs`), which sums
    /// each element in ascending `p` from `+0.0`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != other.rows()`.
    pub fn matmul_with(&self, other: &Matrix, policy: &ParallelPolicy) -> Result<Matrix> {
        if self.cols() != other.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let a = Strided::rows(self.as_slice(), self.cols());
        Ok(tiled_product(a, other, self.rows(), policy))
    }

    /// [`Matrix::matmul_transpose_right`] under an explicit
    /// [`ParallelPolicy`]; bitwise identical to serial.
    ///
    /// Runs [`Matrix::matmul_with`]'s register-tiled micro-kernel
    /// (`kernel.rs`) over `otherᵀ`, transposed once per call, so each
    /// element sums its terms in ascending shared index from `+0.0` and the
    /// result is `self.matmul_with(&other.transpose(), policy)` to the bit.
    /// Reading `other` through strides instead was measured slower than the
    /// copy at CD's `H·Wᵀ` shape.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != other.cols()`.
    pub fn matmul_transpose_right_with(
        &self,
        other: &Matrix,
        policy: &ParallelPolicy,
    ) -> Result<Matrix> {
        if self.cols() != other.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transpose_right",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let a = Strided::rows(self.as_slice(), self.cols());
        Ok(tiled_product(a, &other.transpose(), self.rows(), policy))
    }

    /// [`Matrix::matmul_transpose_left`] under an explicit
    /// [`ParallelPolicy`]: the `n_cols(self) x n_cols(other)` output is
    /// partitioned by output rows; every thread scans the shared operand
    /// rows in the serial order, so each output element accumulates in the
    /// serial order and the result is bitwise identical.
    ///
    /// Runs on the register-tiled micro-kernel (`kernel.rs`), reading
    /// `self` down its columns and summing each element in ascending `p`
    /// from `+0.0`. Over more than 256 shared rows it sums in blocks of 256,
    /// carrying the partial sums, so the left operand's block stays in cache.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() != other.rows()`.
    pub fn matmul_transpose_left_with(
        &self,
        other: &Matrix,
        policy: &ParallelPolicy,
    ) -> Result<Matrix> {
        if self.rows() != other.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transpose_left",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let a = Strided::columns(self.as_slice(), self.cols());
        Ok(tiled_product(a, other, self.cols(), policy))
    }

    /// Row-wise map: builds an `rows x out_cols` matrix where row `i` is
    /// produced by `f(i, self.row(i), out_row)`, with rows partitioned
    /// across threads. Rows are independent, so the result is identical for
    /// every thread count. This is the workhorse behind the fused
    /// bias-broadcast + activation passes in the RBM hot paths (an
    /// element-wise map is the `out_cols == self.cols()` special case).
    /// `row_cost` estimates the f64 operations `f` does per row.
    pub fn map_rows_with(
        &self,
        out_cols: usize,
        row_cost: usize,
        policy: &ParallelPolicy,
        f: impl Fn(usize, &[f64], &mut [f64]) + Sync,
    ) -> Matrix {
        let n = self.rows();
        let mut out = Matrix::zeros(n, out_cols);
        if n == 0 || out_cols == 0 {
            return out;
        }
        for_each_row_block(
            out.as_mut_slice(),
            n,
            out_cols,
            row_cost,
            policy,
            &|range, block| {
                for (i, out_row) in range.zip(block.chunks_mut(out_cols)) {
                    f(i, self.row(i), out_row);
                }
            },
        );
        out
    }

    /// Row-wise reduction: one `f(i, row)` value per row, computed with rows
    /// partitioned across threads. Identical for every thread count.
    /// `row_cost` estimates the f64 operations `f` does per row.
    pub fn reduce_rows_with(
        &self,
        row_cost: usize,
        policy: &ParallelPolicy,
        f: impl Fn(usize, &[f64]) -> f64 + Sync,
    ) -> Vec<f64> {
        let n = self.rows();
        let mut out = vec![0.0; n];
        if n == 0 {
            return out;
        }
        for_each_row_block(&mut out, n, 1, row_cost, policy, &|range, block| {
            for (i, slot) in range.zip(block.iter_mut()) {
                *slot = f(i, self.row(i));
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatrixRandomExt;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(77)
    }

    fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Serialises the tests that read or replace the process-wide policy,
    /// so one never observes the other's temporary override.
    static GLOBAL_POLICY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn policy_defaults_and_builders() {
        {
            let _guard = GLOBAL_POLICY.lock().unwrap_or_else(|e| e.into_inner());
            assert_eq!(ParallelPolicy::default(), ParallelPolicy::global());
            if std::env::var_os(ENV_THREADS).is_none() {
                assert!(
                    ParallelPolicy::global().is_serial(),
                    "the library's global default stays serial"
                );
            }
        }
        let p = ParallelPolicy::serial();
        assert!(p.is_serial());
        assert_eq!(p.threads, 1);
        let q = ParallelPolicy::new(8);
        assert_eq!(q.threads, 8);
        assert_eq!(q.min_thread_work, MIN_THREAD_WORK);
        assert!(!q.is_serial());
        // `with_pool` is a no-op kept for the end-to-end benchmark.
        assert_eq!(q.with_pool(true), q);
        assert_eq!(q.with_pool(false), q);
        // 0 resolves to the core count, which is at least 1.
        assert!(ParallelPolicy::new(0).threads >= 1);
        // The test-only eager builder keeps the thread count and drops the
        // work floor.
        let e = ParallelPolicy::eager(8);
        assert_eq!((e.threads, e.min_thread_work), (8, 0));
        assert_eq!(e.effective_threads(2, 0), 2);
    }

    #[test]
    fn effective_threads_respects_budget_and_cutover() {
        // (call, output rows, operations per row, threads planned at 2 and
        // 4 threads). The shapes are the calls `parallel_bench` and the
        // retrain and serving paths make.
        let (v, h) = (892, 12);
        let table = [
            // small_batch_8: 8x256 · 256x256, 524k multiply-adds.
            ("small_batch_8", 8, 256 * 256, [1, 1]),
            // The retrain mini-batch's Vᵀ·H (892x12 over 32 rows, 342k),
            // and one cluster's Vᵀ·E over at most as many rows.
            ("retrain Vᵀ·H", v, 32 * h, [1, 1]),
            ("cluster Vᵀ·E", v, 20 * h, [1, 1]),
            // The 896-row reconstruction-error pass's V·W.
            ("reconstruction error V·W", 896, v * h, [2, 4]),
            // small_batch_32 and _128: 32 and 128 rows of 256x256.
            ("small_batch_32", 32, 256 * 256, [2, 2]),
            ("small_batch_128", 128, 256 * 256, [2, 4]),
            // route-assign-wide's V·W, 256 inputs to 12 hidden units: a
            // 256-row request (786k) runs inline, 512 rows fan out.
            ("route-assign-wide V·W", 256, 256 * 12, [1, 1]),
            ("route-assign-wide V·W, 512 rows", 512, 256 * 12, [2, 2]),
        ];
        for (call, rows, row_cost, planned) in table {
            for (threads, expected) in [2, 4].into_iter().zip(planned) {
                let got = ParallelPolicy::new(threads).effective_threads(rows, row_cost);
                assert_eq!(got, expected, "{call} at {threads} threads");
            }
        }
        let p = ParallelPolicy::new(4);
        assert_eq!(p.effective_threads(0, 1 << 30), 1);
        assert_eq!(p.effective_threads(1, 1 << 30), 1); // one row never splits
        assert_eq!(p.effective_threads(100_000, 0), 1); // no work
        assert_eq!(p.effective_threads(usize::MAX, usize::MAX), 4); // capped by budget
        assert_eq!(
            ParallelPolicy::serial().effective_threads(100_000, 1 << 20),
            1
        );
    }

    #[test]
    fn adaptive_chunks_of_the_identity_test_shapes_are_pinned() {
        // The single-row and ragged chunkings that `tests/properties.rs`
        // (`adaptive_single_row_chunks_are_bitwise_identical`) and
        // `tests/pool_stress.rs` rely on come from the adaptive rule alone;
        // a change to the rule that moved them would leave those tests
        // checking a different split.
        let threads = ParallelPolicy::eager(4).effective_threads(8, 128 * 128);
        assert_eq!(threads, 4);
        // 8x128 · 128x128 products: one 16384-op row per chunk.
        assert_eq!(chunk_rows(8, 128 * 128, threads), 1);
        // 37 rows of the same cost: chunks of 3, the last one a single row.
        let threads_37 = ParallelPolicy::eager(4).effective_threads(37, 128 * 128);
        assert_eq!(chunk_rows(37, 128 * 128, threads_37), 3);
        // map_rows over 8x8192 -> 8192 and reduce_rows over 8x16384.
        assert_eq!(chunk_rows(8, 8192 + 8192, threads), 1);
        assert_eq!(chunk_rows(8, 16384, threads), 1);
        // pool_stress's 30 ragged rows of 8192 -> 8192: chunks of 4 (last
        // of 2), 2 and 1 rows at 2, 4 and 8 threads.
        assert_eq!(chunk_rows(30, 8192 + 8192, 2), 4);
        assert_eq!(chunk_rows(30, 8192 + 8192, 4), 2);
        assert_eq!(chunk_rows(30, 8192 + 8192, 8), 1);
        // Cheap rows are grouped up to one band per thread.
        assert_eq!(chunk_rows(96, 20, 4), 24);
    }

    #[test]
    fn parallel_matmul_matches_serial_bitwise() {
        let mut r = rng();
        let a = Matrix::random_normal(37, 19, 0.0, 1.0, &mut r);
        let b = Matrix::random_normal(19, 23, 0.0, 1.0, &mut r);
        let serial = a.matmul_with(&b, &ParallelPolicy::serial()).unwrap();
        for threads in [2, 3, 8] {
            let par = a.matmul_with(&b, &ParallelPolicy::eager(threads)).unwrap();
            assert!(bitwise_eq(&serial, &par), "threads = {threads}");
        }
        assert!(bitwise_eq(&serial, &a.matmul(&b).unwrap()));
    }

    #[test]
    fn parallel_transpose_products_match_serial_bitwise() {
        let mut r = rng();
        let a = Matrix::random_normal(41, 17, 0.0, 1.0, &mut r);
        let b = Matrix::random_normal(29, 17, 0.0, 1.0, &mut r);
        let serial_tr = a
            .matmul_transpose_right_with(&b, &ParallelPolicy::serial())
            .unwrap();
        let h = Matrix::random_normal(41, 11, 0.0, 1.0, &mut r);
        let serial_tl = a
            .matmul_transpose_left_with(&h, &ParallelPolicy::serial())
            .unwrap();
        for threads in [2, 5, 8] {
            let par_tr = a
                .matmul_transpose_right_with(&b, &ParallelPolicy::eager(threads))
                .unwrap();
            assert!(bitwise_eq(&serial_tr, &par_tr), "tr threads = {threads}");
            let par_tl = a
                .matmul_transpose_left_with(&h, &ParallelPolicy::eager(threads))
                .unwrap();
            assert!(bitwise_eq(&serial_tl, &par_tl), "tl threads = {threads}");
        }
    }

    #[test]
    fn parallel_kernels_validate_shapes() {
        let a = Matrix::zeros(3, 4);
        let p = ParallelPolicy::eager(4);
        assert!(a.matmul_with(&Matrix::zeros(3, 3), &p).is_err());
        assert!(a
            .matmul_transpose_right_with(&Matrix::zeros(2, 3), &p)
            .is_err());
        assert!(a
            .matmul_transpose_left_with(&Matrix::zeros(2, 2), &p)
            .is_err());
    }

    #[test]
    fn degenerate_shapes_are_handled() {
        let p = ParallelPolicy::eager(8);
        let empty = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(empty.matmul_with(&b, &p).unwrap().shape(), (0, 3));
        let no_cols = Matrix::zeros(4, 5)
            .matmul_with(&Matrix::zeros(5, 0), &p)
            .unwrap();
        assert_eq!(no_cols.shape(), (4, 0));
        assert_eq!(
            empty
                .map_rows_with(5, 5, &p, |_, _, _| unreachable!())
                .shape(),
            (0, 5)
        );
        assert_eq!(empty.reduce_rows_with(5, &p, |_, r| r.len() as f64), vec![]);
    }

    #[test]
    fn map_rows_with_matches_elementwise_map() {
        let mut r = rng();
        let m = Matrix::random_normal(33, 7, 0.0, 2.0, &mut r);
        let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
        let serial = m.map(sigmoid);
        let par = m.map_rows_with(7, 7, &ParallelPolicy::eager(4), |_, row, out| {
            for (o, &x) in out.iter_mut().zip(row) {
                *o = sigmoid(x);
            }
        });
        assert!(bitwise_eq(&serial, &par));
    }

    #[test]
    fn map_rows_and_reduce_rows_partition_correctly() {
        let mut r = rng();
        let m = Matrix::random_normal(25, 6, 0.0, 1.0, &mut r);
        let doubled = m.map_rows_with(6, 6, &ParallelPolicy::eager(3), |_, row, out| {
            for (o, &x) in out.iter_mut().zip(row) {
                *o = 2.0 * x;
            }
        });
        assert!(bitwise_eq(&doubled, &m.scale(2.0)));
        // Row index is passed through correctly.
        let idx = m.reduce_rows_with(6, &ParallelPolicy::eager(5), |i, _| i as f64);
        assert_eq!(idx, (0..25).map(|i| i as f64).collect::<Vec<_>>());
        let sums = m.reduce_rows_with(6, &ParallelPolicy::eager(5), |_, row| row.iter().sum());
        let serial_sums =
            m.reduce_rows_with(6, &ParallelPolicy::serial(), |_, row| row.iter().sum());
        assert_eq!(sums, serial_sums);
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let mut r = rng();
        let a = Matrix::random_normal(3, 4, 0.0, 1.0, &mut r);
        let b = Matrix::random_normal(4, 2, 0.0, 1.0, &mut r);
        let serial = a.matmul_with(&b, &ParallelPolicy::serial()).unwrap();
        let par = a.matmul_with(&b, &ParallelPolicy::eager(16)).unwrap();
        assert!(bitwise_eq(&serial, &par));
    }

    #[test]
    fn pooled_kernels_match_serial_bitwise_for_all_five_kernels() {
        let mut r = rng();
        let a = Matrix::random_normal(43, 18, 0.0, 1.0, &mut r);
        let w = Matrix::random_normal(18, 9, 0.0, 1.0, &mut r);
        let h = Matrix::random_normal(43, 9, 0.0, 1.0, &mut r);
        let serial = ParallelPolicy::serial();
        for threads in [2, 4, 8] {
            let pooled = ParallelPolicy::eager(threads);
            assert!(bitwise_eq(
                &a.matmul_with(&w, &serial).unwrap(),
                &a.matmul_with(&w, &pooled).unwrap(),
            ));
            assert!(bitwise_eq(
                &a.matmul_transpose_right_with(&a, &serial).unwrap(),
                &a.matmul_transpose_right_with(&a, &pooled).unwrap(),
            ));
            assert!(bitwise_eq(
                &a.matmul_transpose_left_with(&h, &serial).unwrap(),
                &a.matmul_transpose_left_with(&h, &pooled).unwrap(),
            ));
            let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
            let fused = |_: usize, row: &[f64], out: &mut [f64]| {
                for (o, &x) in out.iter_mut().zip(row) {
                    *o = sigmoid(x);
                }
            };
            assert!(bitwise_eq(
                &a.map_rows_with(18, 18, &serial, fused),
                &a.map_rows_with(18, 18, &pooled, fused),
            ));
            let norm = |_: usize, row: &[f64]| row.iter().map(|x| x * x).sum::<f64>();
            let s = a.reduce_rows_with(18, &serial, norm);
            let p = a.reduce_rows_with(18, &pooled, norm);
            assert!(s.iter().zip(&p).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn reduction_blocks_agree_with_the_ascending_sum() {
        // Short sums of 15–17 terms, one term short of a reduction block,
        // one block, one past it and two blocks and one term, for `A·B`
        // (the left operand read along its rows), `Aᵀ·B` (down its columns)
        // and `A·Bᵀ` (over the transpose of `c`), against the ascending sum
        // from +0.0, serial and pooled. The widths cover one full tile,
        // every column remainder and a wide output.
        let ascending = |n: usize,
                         k: usize,
                         m: usize,
                         x: &dyn Fn(usize, usize) -> f64,
                         y: &dyn Fn(usize, usize) -> f64| {
            Matrix::from_fn(n, m, |i, j| {
                (0..k).fold(0.0, |sum, p| sum + x(i, p) * y(p, j))
            })
        };
        let block = kernel::REDUCTION_BLOCK;
        let mut r = rng();
        for k in [15, 16, 17, block - 1, block, block + 1, 2 * block + 1] {
            for m in [12, 13, 17, 256] {
                let a = Matrix::random_normal(9, k, 0.0, 1.0, &mut r);
                let v = Matrix::random_normal(k, 7, 0.0, 1.0, &mut r);
                let b = Matrix::random_normal(k, m, 0.0, 1.0, &mut r);
                let c = Matrix::random_normal(m, k, 0.0, 1.0, &mut r);
                let rows = ascending(9, k, m, &|i, p| a[(i, p)], &|p, j| b[(p, j)]);
                let columns = ascending(7, k, m, &|i, p| v[(p, i)], &|p, j| b[(p, j)]);
                let transposed = ascending(9, k, m, &|i, p| a[(i, p)], &|p, j| c[(j, p)]);
                for policy in [ParallelPolicy::serial(), ParallelPolicy::eager(3)] {
                    let out = a.matmul_with(&b, &policy).unwrap();
                    assert!(bitwise_eq(&rows, &out), "A·B, k = {k}, m = {m}");
                    let out = v.matmul_transpose_left_with(&b, &policy).unwrap();
                    assert!(bitwise_eq(&columns, &out), "Aᵀ·B, k = {k}, m = {m}");
                    let out = a.matmul_transpose_right_with(&c, &policy).unwrap();
                    assert!(bitwise_eq(&transposed, &out), "A·Bᵀ, k = {k}, m = {m}");
                }
            }
        }
    }

    #[test]
    fn nested_pooled_kernel_runs_inline_without_deadlock() {
        // A pooled kernel whose row closure itself invokes a pooled kernel
        // must not wait on the pool from a pool worker; the nested call runs
        // inline. If the fallback regressed, this test would hang rather
        // than fail — it is the liveness guard for nested dispatch.
        let mut r = rng();
        let m = Matrix::random_normal(24, 6, 0.0, 1.0, &mut r);
        let w = Matrix::random_normal(6, 3, 0.0, 1.0, &mut r);
        let pooled = ParallelPolicy::eager(4);
        let out = m.map_rows_with(3, 24 * 6 * 3, &pooled, |i, _, out_row| {
            // Nested pooled product over the shared operands.
            let inner = m.matmul_with(&w, &pooled).unwrap();
            out_row.copy_from_slice(inner.row(i));
        });
        assert!(bitwise_eq(
            &out,
            &m.matmul_with(&w, &ParallelPolicy::serial()).unwrap()
        ));
    }

    #[test]
    fn global_policy_round_trips() {
        // Safe to exercise concurrently with the kernel tests: the global
        // policy only chooses a thread count, never a numeric result.
        let _guard = GLOBAL_POLICY.lock().unwrap_or_else(|e| e.into_inner());
        let before = ParallelPolicy::global();
        // Only the thread count is process-wide: an eager policy comes back
        // with the work floor.
        ParallelPolicy::set_global(ParallelPolicy::eager(3));
        assert_eq!(ParallelPolicy::global(), ParallelPolicy::new(3));
        ParallelPolicy::set_global(before);
        assert_eq!(ParallelPolicy::global(), before);
    }
}
