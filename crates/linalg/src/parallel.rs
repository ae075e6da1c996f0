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
//! Every product element has one summation order, whichever loop computes
//! it: `matmul` and `matmul_transpose_left` add `a·b` terms in ascending
//! shared index from `+0.0` (the register-tiled micro-kernel in `kernel.rs`
//! on narrow outputs, a row-streaming `axpy` on wide ones), and
//! `matmul_transpose_right` is one canonical [`simd::dot`] per element
//! (which, below one 16-lane chunk, is that same ascending sum, so short
//! dots run on the micro-kernel too).
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
use crate::simd;
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
    /// row blocks (as the RBM's reconstruction-error pass does) asks this
    /// whether to.
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
fn for_each_row_block(
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

/// Default `j`-tile of [`Matrix::matmul_transpose_right_with`]: as many
/// right-operand rows (of `cols` f64 elements each) as fit in ~32 KiB — an
/// L1d-sized working set — clamped to `[8, 512]`.
fn transpose_right_tile_rows(cols: usize) -> usize {
    const TILE_BYTES: usize = 32 * 1024;
    (TILE_BYTES / (cols.max(1) * std::mem::size_of::<f64>())).clamp(8, 512)
}

/// Widest output `matmul` and `matmul_transpose_left` run on the
/// register-tiled [`kernel`]: one full tile plus one remainder tile, which
/// covers the 12-wide hidden layers every model here trains and serves.
///
/// Measured on a 2-core AVX2 Xeon, the tile wins at every width for `A·B`
/// (2–4× at 12 wide, ~2× at 256). Wider outputs still stream rows: there,
/// the faster `matmul` would leave the k ≥ 16 dot path of
/// `matmul_transpose_right` behind, outside the 1.4×-of-`matmul` bar
/// `parallel_bench --gate` holds it to.
const TILE_MAX_WIDTH: usize = 16;

/// Tallest shared dimension `matmul_transpose_left` runs the tile on. The
/// tile reads the left operand down its columns, one row (on a wide
/// operand, one page) per term, while the row-streaming loop reads it once
/// in order. Measured on the same box, the tile won every shape up to 256
/// terms (892–4096 output rows, 4–16 wide) and lost some from 384 on. CD's
/// `Vᵀ·H` sums over one mini-batch, well below this.
const TILE_MAX_TRANSPOSED_TERMS: usize = 256;

/// `out = a · b` on the register-tiled [`kernel`], `out`'s row blocks split
/// under `policy`: `a(i, p)` for `k` terms, `b` row-major `k x out.cols()`.
fn tiled_product(a: Strided<'_>, b: &[f64], k: usize, out: &mut Matrix, policy: &ParallelPolicy) {
    let (n, m) = out.shape();
    for_each_row_block(
        out.as_mut_slice(),
        n,
        m,
        k.saturating_mul(m),
        policy,
        &|range, block| kernel::product(a, b, k, m, range, block),
    );
}

impl Matrix {
    /// [`Matrix::matmul`] under an explicit [`ParallelPolicy`]: output rows
    /// are partitioned across threads; each row keeps the serial
    /// accumulation order, so the result is bitwise identical to serial.
    ///
    /// Outputs up to 16 wide run on the register-tiled micro-kernel
    /// (`kernel.rs`); wider ones stream `other`'s rows through one output
    /// row at a time with [`simd::axpy`]. Both sum each element in ascending
    /// `p` from `+0.0`, so the two paths agree to the bit.
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
        let (n, m) = (self.rows(), other.cols());
        let mut out = Matrix::zeros(n, m);
        if n == 0 || m == 0 {
            return Ok(out);
        }
        let k = self.cols();
        if m <= TILE_MAX_WIDTH {
            let a = Strided::rows(self.as_slice(), k);
            tiled_product(a, other.as_slice(), k, &mut out, policy);
            return Ok(out);
        }
        for_each_row_block(
            out.as_mut_slice(),
            n,
            m,
            k.saturating_mul(m),
            policy,
            &|range, block| {
                // i-p-j order keeps the inner loop contiguous over `other`'s rows
                // and the output row; the inner axpy is element-wise, so its
                // unrolling never changes the accumulation order. No zero-skip
                // on `a_ip`: `0.0 × NaN` must produce NaN (IEEE), so a diverged
                // operand is never masked.
                for (i, out_row) in range.zip(block.chunks_mut(m)) {
                    let a_row = self.row(i);
                    for (p, &a_ip) in a_row.iter().enumerate() {
                        simd::axpy(a_ip, other.row(p), out_row);
                    }
                }
            },
        );
        Ok(out)
    }

    /// [`Matrix::matmul_transpose_right`] under an explicit
    /// [`ParallelPolicy`]; bitwise identical to serial.
    ///
    /// The product is dot-product shaped: every output row walks *all* of
    /// the right operand's rows, so without tiling a right operand larger
    /// than cache is re-streamed from memory once per output row. The
    /// kernel therefore processes output columns in tiles of as many
    /// right-operand rows as fit in ~32 KiB (an L1d-sized working set,
    /// clamped to 8–512 rows), keeping each group hot across the whole row
    /// band before moving on.
    ///
    /// Below [`simd::DOT_ACCUMULATORS`] columns the canonical dot is the
    /// plain ascending sum, which is the order of the register-tiled
    /// micro-kernel (`kernel.rs`), so such products (CD's `H·Wᵀ`, `n_hidden`
    /// columns) run on it over a transposed copy of `other`, made once per
    /// call. Either way the result is bitwise identical to one
    /// [`simd::dot`] per element.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != other.cols()`.
    pub fn matmul_transpose_right_with(
        &self,
        other: &Matrix,
        policy: &ParallelPolicy,
    ) -> Result<Matrix> {
        self.matmul_transpose_right_tiled(other, policy, transpose_right_tile_rows(self.cols()))
    }

    /// [`Matrix::matmul_transpose_right_with`] with an explicit `j`-tile
    /// (`tile_rows` right-operand rows per tile; values `>= other.rows()`
    /// disable tiling). The tile only reorders *which output elements are
    /// computed when*; every element is still one full [`mod@crate::simd`]
    /// dot in the canonical order, so the result is bitwise identical for
    /// every tile size.
    fn matmul_transpose_right_tiled(
        &self,
        other: &Matrix,
        policy: &ParallelPolicy,
        tile_rows: usize,
    ) -> Result<Matrix> {
        if self.cols() != other.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transpose_right",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let (n, m) = (self.rows(), other.rows());
        let mut out = Matrix::zeros(n, m);
        if n == 0 || m == 0 {
            return Ok(out);
        }
        let k = self.cols();
        if k < simd::DOT_ACCUMULATORS {
            let (a, b) = (Strided::rows(self.as_slice(), k), other.transpose());
            tiled_product(a, b.as_slice(), k, &mut out, policy);
            return Ok(out);
        }
        let tile = tile_rows.clamp(1, m);
        for_each_row_block(
            out.as_mut_slice(),
            n,
            m,
            m.saturating_mul(k),
            policy,
            &|range, block| {
                for j0 in (0..m).step_by(tile) {
                    let j1 = (j0 + tile).min(m);
                    for (i, out_row) in range.clone().zip(block.chunks_mut(m)) {
                        let a_row = self.row(i);
                        for (j, out_val) in (j0..j1).zip(out_row[j0..j1].iter_mut()) {
                            *out_val = simd::dot(a_row, other.row(j));
                        }
                    }
                }
            },
        );
        Ok(out)
    }

    /// [`Matrix::matmul_transpose_left`] under an explicit
    /// [`ParallelPolicy`]: the `n_cols(self) x n_cols(other)` output is
    /// partitioned by output rows; every thread scans the shared operand
    /// rows in the serial order, so each output element accumulates in the
    /// serial order and the result is bitwise identical.
    ///
    /// Outputs up to 16 wide over at most 256 shared rows run on the
    /// register-tiled micro-kernel (`kernel.rs`), reading `self` down its
    /// columns; the rest stream the shared rows with [`simd::axpy`]. Both sum
    /// each element in ascending `p` from `+0.0`, so the two paths agree to
    /// the bit.
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
        let (k, n, m) = (self.rows(), self.cols(), other.cols());
        let mut out = Matrix::zeros(n, m);
        if n == 0 || m == 0 {
            return Ok(out);
        }
        let row_cost = k.saturating_mul(m);
        if m <= TILE_MAX_WIDTH && k <= TILE_MAX_TRANSPOSED_TERMS {
            let a = Strided::columns(self.as_slice(), n);
            tiled_product(a, other.as_slice(), k, &mut out, policy);
            return Ok(out);
        }
        for_each_row_block(
            out.as_mut_slice(),
            n,
            m,
            row_cost,
            policy,
            &|range, block| {
                // p-outer order keeps `other`'s rows streaming through cache;
                // each thread touches only its own band of output rows. The
                // per-element accumulation order (ascending p) matches serial
                // exactly, and the inner axpy is element-wise so its unrolling
                // preserves it. No zero-skip (IEEE NaN propagation, see
                // `matmul_with`).
                for p in 0..k {
                    let a_row = self.row(p);
                    let b_row = other.row(p);
                    for (local, i) in range.clone().enumerate() {
                        let a_pi = a_row[i];
                        let out_row = &mut block[local * m..(local + 1) * m];
                        simd::axpy(a_pi, b_row, out_row);
                    }
                }
            },
        );
        Ok(out)
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
            // The 896-row reconstruction-error pass: V·W, H·Wᵀ, the error.
            ("reconstruction error", 896, 2 * v * h + v, [2, 4]),
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
    fn transpose_right_is_bitwise_identical_for_every_tile_size() {
        // The tile only reorders which output elements are computed when;
        // each element is still one full canonical-order dot, so any tile —
        // including "no tiling" (tile >= m) — must reproduce the default
        // result bit for bit.
        let mut r = rng();
        let a = Matrix::random_normal(37, 21, 0.0, 1.0, &mut r);
        let b = Matrix::random_normal(29, 21, 0.0, 1.0, &mut r);
        let policy = ParallelPolicy::eager(4);
        let reference = a.matmul_transpose_right_with(&b, &policy).unwrap();
        for tile in [1, 3, 8, 28, 29, usize::MAX] {
            let tiled = a.matmul_transpose_right_tiled(&b, &policy, tile).unwrap();
            assert!(bitwise_eq(&reference, &tiled), "tile {tile}");
        }
    }

    #[test]
    fn default_tile_tracks_operand_width() {
        // ~32 KiB working set: narrow operands get deep tiles, wide ones
        // shallow, clamped to [8, 512].
        assert_eq!(transpose_right_tile_rows(256), 16);
        assert_eq!(transpose_right_tile_rows(64), 64);
        assert_eq!(transpose_right_tile_rows(1), 512); // clamp high
        assert_eq!(transpose_right_tile_rows(0), 512); // no div-by-0
        assert_eq!(transpose_right_tile_rows(100_000), 8); // clamp low
    }

    #[test]
    fn tiled_and_streaming_paths_agree_across_the_cut_overs() {
        // Both sides of `TILE_MAX_WIDTH` and `TILE_MAX_TRANSPOSED_TERMS`
        // against the ascending sum from +0.0, serial and pooled.
        let ascending = |n: usize,
                         k: usize,
                         m: usize,
                         x: &dyn Fn(usize, usize) -> f64,
                         y: &dyn Fn(usize, usize) -> f64| {
            Matrix::from_fn(n, m, |i, j| {
                (0..k).fold(0.0, |sum, p| sum + x(i, p) * y(p, j))
            })
        };
        let mut r = rng();
        for policy in [ParallelPolicy::serial(), ParallelPolicy::eager(3)] {
            for m in [TILE_MAX_WIDTH - 1, TILE_MAX_WIDTH, TILE_MAX_WIDTH + 1] {
                let a = Matrix::random_normal(9, 33, 0.0, 1.0, &mut r);
                let b = Matrix::random_normal(33, m, 0.0, 1.0, &mut r);
                let expected = ascending(9, 33, m, &|i, p| a[(i, p)], &|p, j| b[(p, j)]);
                assert!(
                    bitwise_eq(&expected, &a.matmul_with(&b, &policy).unwrap()),
                    "m = {m}"
                );
            }
            let terms = TILE_MAX_TRANSPOSED_TERMS;
            for k in [terms - 1, terms, terms + 1] {
                let v = Matrix::random_normal(k, 7, 0.0, 1.0, &mut r);
                let h = Matrix::random_normal(k, 12, 0.0, 1.0, &mut r);
                let expected = ascending(7, k, 12, &|i, p| v[(p, i)], &|p, j| h[(p, j)]);
                let out = v.matmul_transpose_left_with(&h, &policy).unwrap();
                assert!(bitwise_eq(&expected, &out), "k = {k}");
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
