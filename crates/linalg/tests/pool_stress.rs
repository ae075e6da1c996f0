//! Concurrency stress tests for the persistent [`WorkerPool`].
//!
//! The pool replaces `std::thread::scope`'s compiler-enforced lifetime
//! guarantees with hand-rolled synchronisation (Mutex + Condvar injector,
//! completion latch, lifetime-erased closures), so this suite attacks the
//! hand-rolled parts directly: many threads submitting concurrently,
//! repeated construct/submit/drop cycles, panic propagation to the
//! submitter, and pool usability after panics. The bitwise-identity
//! guarantees of the pooled *kernels* live in `properties.rs`; this file is
//! about the pool machinery itself.

use sls_linalg::{Matrix, MatrixRandomExt, ParallelPolicy, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn many_threads_submitting_scopes_concurrently() {
    // 8 submitters × 50 scopes × 4 tasks, all against one 3-worker pool:
    // the injector queue and latch bookkeeping must never lose or double-run
    // a task.
    let pool = WorkerPool::new(3);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for submitter in 0..8usize {
            let pool = &pool;
            let total = &total;
            s.spawn(move || {
                for round in 0..50usize {
                    let mut parts = [0usize; 4];
                    let mut slots: Vec<&mut usize> = parts.iter_mut().collect();
                    pool.scope(|scope| {
                        for (t, slot) in slots.iter_mut().enumerate() {
                            scope.spawn(move || **slot = submitter + round + t);
                        }
                    });
                    for (t, part) in parts.iter().enumerate() {
                        assert_eq!(*part, submitter + round + t);
                    }
                    total.fetch_add(4, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 8 * 50 * 4);
}

#[test]
fn help_is_bounded_to_the_submitters_own_scope() {
    // A thread waiting on its scope helps only with that scope's jobs, so a
    // task must execute either on a pool worker thread or on the thread
    // that submitted it — never on an unrelated scope's waiting submitter
    // (that cross-scope "help" is exactly what would let a long training
    // band add unbounded latency to a small serving scope). With 8
    // submitters hammering a 2-worker pool, cross-scope helping — if it
    // existed — would trip this assertion readily.
    let pool = WorkerPool::new(2);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let pool = &pool;
            s.spawn(move || {
                let submitter = std::thread::current().id();
                for _ in 0..50 {
                    pool.scope(|scope| {
                        for _ in 0..4 {
                            scope.spawn(move || {
                                let current = std::thread::current();
                                let on_pool_worker = current
                                    .name()
                                    .is_some_and(|name| name.starts_with("sls-pool-worker-"));
                                assert!(
                                    on_pool_worker || current.id() == submitter,
                                    "task ran on a foreign thread: {:?}",
                                    current.name()
                                );
                            });
                        }
                    });
                }
            });
        }
    });
}

#[test]
fn many_threads_running_pooled_kernels_concurrently() {
    // The same contention profile the HTTP server produces: several threads
    // pushing micro-batches through pooled kernels (which all share the
    // process-global pool) at once. Every result must stay bitwise equal to
    // the serial reference.
    let mut rng = rand_seed();
    let data = Matrix::random_normal(64, 12, 0.0, 1.0, &mut rng);
    let weights = Matrix::random_normal(12, 7, 0.0, 1.0, &mut rng);
    let reference = data
        .matmul_with(&weights, &ParallelPolicy::serial())
        .unwrap();
    let pooled = ParallelPolicy::new(4).with_min_rows_per_thread(1);
    std::thread::scope(|s| {
        for _ in 0..6 {
            let (data, weights, reference, pooled) = (&data, &weights, &reference, &pooled);
            s.spawn(move || {
                for _ in 0..40 {
                    let out = data.matmul_with(weights, pooled).unwrap();
                    assert!(bitwise_eq(&out, reference));
                }
            });
        }
    });
}

#[test]
fn repeated_submit_and_drop_cycles() {
    // Construct → submit → drop, many times over: shutdown must join every
    // worker without stranding queued jobs, and a fresh pool must come up
    // clean each time.
    for cycle in 0..40usize {
        let pool = WorkerPool::new(1 + cycle % 4);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16, "cycle {cycle}");
        drop(pool);
    }
}

#[test]
fn worker_panic_propagates_to_the_submitter() {
    let pool = WorkerPool::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|scope| {
            scope.spawn(|| panic!("deliberate worker panic"));
        });
    }));
    let payload = result.expect_err("the task panic must reach the submitter");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("");
    assert!(
        message.contains("deliberate worker panic"),
        "unexpected payload: {message:?}"
    );
}

#[test]
fn pool_stays_usable_after_worker_panics() {
    // Not poisoned: after (repeated) task panics the same pool must keep
    // accepting and completing work, and the sibling tasks of a panicking
    // scope must still run to completion before the panic is re-raised.
    let pool = WorkerPool::new(2);
    for round in 0..5usize {
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("round {round}"));
                for _ in 0..8 {
                    scope.spawn(|| {
                        survivors.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "round {round}: panic must propagate");
        assert_eq!(
            survivors.load(Ordering::Relaxed),
            8,
            "round {round}: sibling tasks must finish before the panic re-raises"
        );
        // And the pool still does real work afterwards.
        let sum = AtomicUsize::new(0);
        pool.scope(|scope| {
            for i in 0..10usize {
                let sum = &sum;
                scope.spawn(move || {
                    sum.fetch_add(i + 1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 55, "round {round}");
    }
}

#[test]
fn panic_in_the_scope_closure_waits_for_spawned_tasks() {
    // If the *submitting* closure panics after spawning, `scope` must still
    // wait for the in-flight tasks (they borrow the submitter's stack)
    // before unwinding.
    let pool = WorkerPool::new(2);
    let finished = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            }
            panic!("submitter panic");
        });
    }));
    assert!(result.is_err());
    assert_eq!(finished.load(Ordering::Relaxed), 4);
    // Pool is still alive.
    pool.scope(|scope| scope.spawn(|| {}));
}

#[test]
fn mixed_dispatch_nesting_cannot_deadlock() {
    // The nastiest nesting shape: a pooled kernel's row closure starts
    // plain scoped threads (which carry no pool-worker flag), and each of
    // them runs a pooled kernel again. Those threads queue jobs while the
    // pool's worker may be blocked further up this very call stack — only
    // help-while-wait scheduling lets them drain their own jobs. On a
    // 1-worker global pool (1-core CI container) this deadlocked before
    // that scheduling existed.
    let mut rng = rand_seed();
    let m = Matrix::random_normal(8, 5, 0.0, 1.0, &mut rng);
    let w = Matrix::random_normal(5, 3, 0.0, 1.0, &mut rng);
    let pooled = ParallelPolicy::new(2).with_min_rows_per_thread(1);
    let reference = m.matmul_with(&w, &ParallelPolicy::serial()).unwrap();
    let out = m.map_rows_with(3, &pooled, |i, _, out_row| {
        // Plain scoped threads: not pool workers...
        let inner = std::thread::scope(|s| {
            // ...yet they submit pooled work again.
            let a = s.spawn(|| m.matmul_with(&w, &pooled).unwrap());
            let b = s.spawn(|| m.matmul_with(&w, &pooled).unwrap());
            let (a, b) = (a.join().unwrap(), b.join().unwrap());
            assert!(bitwise_eq(&a, &b));
            a
        });
        out_row.copy_from_slice(inner.row(i));
    });
    assert!(bitwise_eq(&out, &reference));
}

#[test]
fn pooled_kernel_panic_propagates_and_the_global_pool_survives() {
    // End-to-end through a kernel: a panicking row closure must surface on
    // the calling thread, and the process-global pool must keep serving
    // kernels afterwards.
    let m = Matrix::from_fn(32, 4, |i, j| (i + j) as f64);
    let pooled = ParallelPolicy::new(4).with_min_rows_per_thread(1);
    let result = catch_unwind(AssertUnwindSafe(|| {
        m.map_rows_with(4, &pooled, |i, row, out| {
            assert!(i < 16, "deliberate kernel panic on row {i}");
            out.copy_from_slice(row);
        })
    }));
    assert!(result.is_err(), "row-closure panic must reach the caller");
    let doubled = m.map_rows_with(4, &pooled, |_, row, out| {
        for (o, &x) in out.iter_mut().zip(row) {
            *o = 2.0 * x;
        }
    });
    assert!(bitwise_eq(&doubled, &m.scale(2.0)));
}

#[test]
fn many_concurrent_scopes_help_without_scanning_each_other() {
    // The O(queue²) regression shape: before jobs were indexed per scope,
    // every helped job re-scanned the entire shared queue under the global
    // lock, so many concurrent scopes × many chunks serialized all
    // submitters. With per-latch job lists this load — 16 submitters × 25
    // scopes × 64 jobs against 2 workers, far more jobs than the pool can
    // drain, so nearly all of them retire through the submitters' help
    // paths — completes quickly and correctly; under the old scan it
    // visibly crawled. Correctness (no lost, double-run, or cross-scope
    // job) is asserted exactly.
    let pool = WorkerPool::new(2);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for submitter in 0..16usize {
            let pool = &pool;
            let total = &total;
            s.spawn(move || {
                for _ in 0..25usize {
                    let scope_sum = AtomicUsize::new(0);
                    pool.scope(|scope| {
                        for job in 0..64usize {
                            let scope_sum = &scope_sum;
                            scope.spawn(move || {
                                scope_sum.fetch_add(submitter * 1000 + job, Ordering::Relaxed);
                            });
                        }
                    });
                    let expected: usize = (0..64).map(|job| submitter * 1000 + job).sum();
                    assert_eq!(scope_sum.load(Ordering::Relaxed), expected);
                    total.fetch_add(64, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 16 * 25 * 64);
}

#[test]
fn skewed_scopes_stay_isolated_under_stealing() {
    // Work-stealing moves *chunks between workers*, never *across scopes on
    // a waiting submitter*: while one submitter runs long heavy-row scopes,
    // other submitters' small scopes must still execute only on pool
    // workers or their own submitting thread. This is the straggler shape
    // chunking exists for — if stealing had been implemented by letting
    // waiters pull from a shared queue, the heavy scope's chunks would leak
    // onto the small scopes' waiters and trip the thread-identity check.
    let pool = WorkerPool::new(2);
    std::thread::scope(|s| {
        // One heavy submitter: scopes whose jobs spin long enough to overlap
        // the small scopes' waits.
        let heavy_pool = &pool;
        s.spawn(move || {
            for _ in 0..30 {
                heavy_pool.scope(|scope| {
                    for _ in 0..8 {
                        scope.spawn(|| {
                            std::hint::black_box((0..20_000).fold(0u64, |a, x| a ^ x));
                        });
                    }
                });
            }
        });
        for _ in 0..6 {
            let pool = &pool;
            s.spawn(move || {
                let submitter = std::thread::current().id();
                for _ in 0..60 {
                    pool.scope(|scope| {
                        for _ in 0..3 {
                            scope.spawn(move || {
                                let current = std::thread::current();
                                let on_pool_worker = current
                                    .name()
                                    .is_some_and(|name| name.starts_with("sls-pool-worker-"));
                                assert!(
                                    on_pool_worker || current.id() == submitter,
                                    "a small scope's chunk ran on a foreign thread: {:?}",
                                    current.name()
                                );
                            });
                        }
                    });
                }
            });
        }
    });
}

#[test]
fn ragged_row_costs_are_bitwise_identical_across_dispatch_and_chunking() {
    // Ragged per-row work (each row's closure cost scales with the row
    // index, so early chunks are light and late chunks are heavy) across
    // threads {1,2,4,8} × chunk sizes {adaptive, 1, 3, 64}: stealing may reorder *when* rows run, but every row's
    // accumulation order is fixed, so outputs must match serial bit for
    // bit.
    let mut rng = rand_seed();
    let data = Matrix::random_normal(96, 10, 0.0, 1.0, &mut rng);
    let ragged = |i: usize, row: &[f64], out: &mut [f64]| {
        // Cost grows with the row index: a late row re-accumulates its
        // values many more times than an early one (serial accumulation
        // order within the row regardless).
        let reps = 1 + (i * 7) % 40;
        for slot in out.iter_mut() {
            *slot = 0.0;
        }
        for _ in 0..reps {
            for (slot, &x) in out.iter_mut().zip(row) {
                *slot += x;
            }
        }
    };
    let reference = data.map_rows_with(10, &ParallelPolicy::serial(), ragged);
    for threads in [1usize, 2, 4, 8] {
        for chunk_rows in [0usize, 1, 3, 64] {
            let policy = ParallelPolicy::new(threads)
                .with_min_rows_per_thread(1)
                .with_chunk_rows(chunk_rows);
            let out = data.map_rows_with(10, &policy, ragged);
            assert!(
                bitwise_eq(&out, &reference),
                "threads {threads} chunk_rows {chunk_rows}"
            );
        }
    }
}

fn rand_seed() -> rand_chacha::ChaCha8Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha8Rng::seed_from_u64(2024)
}
