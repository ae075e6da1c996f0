//! # sls-linalg
//!
//! Dense linear-algebra substrate for the `sls-rbm` workspace.
//!
//! The paper's models (RBM, GRBM and their self-learning local supervision
//! variants) only need a small, predictable subset of linear algebra:
//! row-major dense matrices, matrix products (including the transposed
//! variants used by contrastive divergence), element-wise maps, per-column
//! statistics and pairwise distances. This crate implements exactly that
//! subset from scratch so the rest of the workspace has no dependency on an
//! external numerics stack.
//!
//! ## Design notes
//!
//! * [`Matrix`] is a row-major `Vec<f64>` with explicit `rows`/`cols`; rows
//!   are the natural unit of work for mini-batch training, so row views are
//!   cheap slices.
//! * All fallible constructors return [`LinalgError`] instead of panicking;
//!   panics are reserved for out-of-bounds indexing, which mirrors the
//!   standard library's slice behaviour.
//! * Randomized constructors take an explicit `&mut impl Rng` so experiments
//!   are reproducible end to end from a single seed.
//! * The matrix products and row-wise maps/reductions have row-partitioned
//!   parallel variants behind [`ParallelPolicy`] (see the `*_with` methods);
//!   parallel results are **bitwise identical** to serial ones, so turning
//!   parallelism on never changes a reproduced number. Fanned-out kernels
//!   run on the persistent [`WorkerPool`], so no call pays thread-spawn
//!   latency.
//! * The fused bias + activation maps run through the [`mod@simd`] layer:
//!   manually unrolled 4-lane element-wise loops, autovectorisable on
//!   stable Rust.
//! * All three products, `matmul`, `matmul_transpose_left` and
//!   `matmul_transpose_right`, run on one private register-tiled
//!   micro-kernel at every width: a 4×12 block of output accumulators stays
//!   in registers while it sums up to 256 terms, and longer sums carry
//!   their partial sums from one block of 256 terms to the next. Every
//!   element is one ascending sum of its terms from `+0.0`, so `A·Bᵀ`
//!   (which runs over a transposed copy of `B`) equals `A·(Bᵀ)` bit for
//!   bit. The kernel has an AVX2 build of the same body, picked at run time
//!   when the CPU has AVX2; neither build uses FMA, whose single rounding
//!   would make the bits depend on the host.
//! * [`pairwise_squared_distances`] (and [`pairwise_distances`], its
//!   element-wise square root) runs the same tile with `(a − b)²` as the
//!   term, over the upper triangle only, and mirrors it: every entry has
//!   the bits of the per-pair [`squared_euclidean_distance`] (or
//!   [`euclidean_distance`]).

//! ## Quick example
//!
//! ```
//! use sls_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c, a);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod kernel;
mod matrix;
mod norms;
mod ops;
mod parallel;
mod pool;
mod random;
pub mod simd;
mod stats;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use norms::{
    euclidean_distance, pairwise_distances, pairwise_squared_distances, squared_euclidean_distance,
};
pub use parallel::{ParallelPolicy, ENV_THREADS};
pub use pool::WorkerPool;
pub use random::MatrixRandomExt;
pub use stats::{ColumnStats, Standardizer};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
