//! Criterion micro-benchmarks for the parallel linalg layer: each product
//! kernel, serial vs. 2/4/8 threads, on training-scale and serving-scale
//! shapes. Read together with `available_parallelism` — on fewer cores than
//! threads the parallel numbers measure scheduling overhead, not speedup.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_linalg::{Matrix, MatrixRandomExt, ParallelPolicy};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn policy(threads: usize) -> ParallelPolicy {
    if threads == 1 {
        ParallelPolicy::serial()
    } else {
        ParallelPolicy::new(threads).with_min_rows_per_thread(8)
    }
}

fn bench_parallel_matmul(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    // Training shape: a 512-row slab of 256-wide data against 256 hidden.
    let a = Matrix::random_normal(512, 256, 0.0, 1.0, &mut rng);
    let b = Matrix::random_normal(256, 256, 0.0, 1.0, &mut rng);
    for threads in THREAD_COUNTS {
        let p = policy(threads);
        c.bench_function(
            &format!("parallel/matmul_512x256x256/t{threads}"),
            |bench| bench.iter(|| black_box(a.matmul_with(&b, &p).unwrap())),
        );
    }
    // Serving micro-batch shape: 64 rows — below the default cutover, so
    // this doubles as a regression bench for the serial fallback.
    let micro = Matrix::random_normal(64, 256, 0.0, 1.0, &mut rng);
    for threads in [1, 4] {
        let p = policy(threads);
        c.bench_function(&format!("parallel/matmul_64x256x256/t{threads}"), |bench| {
            bench.iter(|| black_box(micro.matmul_with(&b, &p).unwrap()))
        });
    }
}

fn bench_parallel_transpose_products(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    // CD statistics shape: Vᵀ·H with V 512x256 and H 512x256.
    let v = Matrix::random_normal(512, 256, 0.0, 1.0, &mut rng);
    let h = Matrix::random_normal(512, 256, 0.0, 1.0, &mut rng);
    for threads in THREAD_COUNTS {
        let p = policy(threads);
        c.bench_function(
            &format!("parallel/matmul_transpose_left_512x256x256/t{threads}"),
            |bench| bench.iter(|| black_box(v.matmul_transpose_left_with(&h, &p).unwrap())),
        );
    }
    // Reconstruction shape: H·Wᵀ with W 256x256.
    let w = Matrix::random_normal(256, 256, 0.0, 1.0, &mut rng);
    for threads in THREAD_COUNTS {
        let p = policy(threads);
        c.bench_function(
            &format!("parallel/matmul_transpose_right_512x256x256/t{threads}"),
            |bench| bench.iter(|| black_box(h.matmul_transpose_right_with(&w, &p).unwrap())),
        );
    }
}

fn bench_serial_vs_pool_small_batches(c: &mut Criterion) {
    // Serving micro-batches, where dispatch overhead is comparable to the
    // kernel itself: the same shapes timed serially and on the pool.
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let w = Matrix::random_normal(256, 256, 0.0, 1.0, &mut rng);
    let serial = ParallelPolicy::serial();
    let pooled = ParallelPolicy::new(4).with_min_rows_per_thread(2);
    // Warm the pool outside the timed region.
    let _ = sls_linalg::WorkerPool::global();
    for rows in [8usize, 32, 128] {
        let batch = Matrix::random_normal(rows, 256, 0.0, 1.0, &mut rng);
        c.bench_function(
            &format!("parallel/small_batch_{rows}x256x256/serial"),
            |b| b.iter(|| black_box(batch.matmul_with(&w, &serial).unwrap())),
        );
        c.bench_function(&format!("parallel/small_batch_{rows}x256x256/pool"), |b| {
            b.iter(|| black_box(batch.matmul_with(&w, &pooled).unwrap()))
        });
    }
}

criterion_group!(
    benches,
    bench_parallel_matmul,
    bench_parallel_transpose_products,
    bench_serial_vs_pool_small_batches
);
criterion_main!(benches);
