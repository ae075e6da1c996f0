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
//! * The kernel inner loops run through the [`mod@simd`] layer: manually
//!   unrolled 4-lane building blocks (autovectorisable on stable Rust) that
//!   commit to one canonical reduction order. `matmul_transpose_right` adds
//!   a fixed, L1d-sized `j`-loop cache tile on top (see
//!   [`Matrix::matmul_transpose_right_with`]).
//! * Products with a narrow output (up to 16 wide, the models' 12 hidden
//!   units) and `matmul_transpose_right` with fewer than 16 columns run on
//!   a private register-tiled micro-kernel instead: a 4×12 block of output
//!   accumulators stays in registers for the whole sum. It adds each
//!   element's terms in ascending order onto `+0.0`, as the row-streaming
//!   loops and the short canonical dot do, so it changes no bit. An AVX2
//!   build of the same body is picked at run time when the CPU has AVX2;
//!   neither arm uses FMA, whose single rounding would make the bits depend
//!   on the host.
//!
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
pub use norms::{euclidean_distance, pairwise_distances, squared_euclidean_distance};
pub use parallel::{ParallelPolicy, ENV_THREADS};
pub use pool::WorkerPool;
pub use random::MatrixRandomExt;
pub use stats::{ColumnStats, Standardizer};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
