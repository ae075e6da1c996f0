//! Concurrency stress tests for the persistent [`WorkerPool`].
//!
//! The pool replaces `std::thread::scope`'s compiler-enforced lifetime
//! guarantees with hand-rolled synchronisation (one Mutex + Condvar job
//! queue, an atomic claim counter and a done count per call,
//! lifetime-erased closures), so this suite attacks the hand-rolled parts
//! directly: many threads calling [`WorkerPool::for_each_mut`]
//! concurrently, repeated construct/call/drop cycles, panic propagation to
//! the caller, and pool usability after panics. The bitwise-identity
//! guarantees of the pooled *kernels* live in `properties.rs`; this file is
//! about the pool machinery itself.

use sls_linalg::{Matrix, MatrixRandomExt, ParallelPolicy, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn bitwise_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Asserts that the current thread is a pool worker or `caller`.
fn assert_on_pool_or(caller: std::thread::ThreadId) {
    let current = std::thread::current();
    let on_pool_worker = current
        .name()
        .is_some_and(|name| name.starts_with("sls-pool-worker-"));
    assert!(
        on_pool_worker || current.id() == caller,
        "item ran on a foreign thread: {:?}",
        current.name()
    );
}

#[test]
fn many_threads_submitting_scopes_concurrently() {
    // 8 callers × 50 calls × 4 items, all against one 3-worker pool: the
    // job queue and the claim/done counters must never lose or double-run
    // an item.
    let pool = WorkerPool::new(3);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for submitter in 0..8usize {
            let pool = &pool;
            let total = &total;
            s.spawn(move || {
                for round in 0..50usize {
                    let mut parts = [0usize; 4];
                    pool.for_each_mut(&mut parts, |t, part| *part += submitter + round + t);
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
    // A caller only claims items of its own call, so an item must execute
    // either on a pool worker thread or on the thread that called — never
    // on an unrelated concurrent caller (that cross-call running is exactly
    // what would let a long training band add unbounded latency to a small
    // serving call). With 8 callers hammering a 2-worker pool, cross-call
    // running — if it existed — would trip this assertion readily.
    let pool = WorkerPool::new(2);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let pool = &pool;
            s.spawn(move || {
                let caller = std::thread::current().id();
                for _ in 0..50 {
                    pool.for_each_mut(&mut [(); 4], |_, ()| assert_on_pool_or(caller));
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
    // Construct → call → drop, many times over: shutdown must join every
    // worker, and a fresh pool must come up clean each time.
    for cycle in 0..40usize {
        let pool = WorkerPool::new(1 + cycle % 4);
        let counter = AtomicUsize::new(0);
        pool.for_each_mut(&mut [(); 16], |_, ()| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16, "cycle {cycle}");
        drop(pool);
    }
}

#[test]
fn worker_panic_propagates_to_the_submitter() {
    let pool = WorkerPool::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.for_each_mut(&mut [(); 2], |i, ()| {
            assert!(i != 1, "deliberate worker panic");
        });
    }));
    let payload = result.expect_err("the item panic must reach the caller");
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
    // Not poisoned: after (repeated) item panics the same pool must keep
    // accepting and completing work, and the sibling items of a panicking
    // call must still run to completion before the panic is re-raised.
    let pool = WorkerPool::new(2);
    for round in 0..5usize {
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_mut(&mut [(); 9], |i, ()| {
                assert!(i != 0, "round {round}");
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "round {round}: panic must propagate");
        assert_eq!(
            survivors.load(Ordering::Relaxed),
            8,
            "round {round}: sibling items must finish before the panic re-raises"
        );
        // And the pool still does real work afterwards.
        let mut values = [0usize; 10];
        pool.for_each_mut(&mut values, |i, value| *value = i + 1);
        assert_eq!(values.iter().sum::<usize>(), 55, "round {round}");
    }
}

#[test]
fn panic_in_the_scope_closure_waits_for_spawned_tasks() {
    // If an item the *caller* runs panics, `for_each_mut` must still wait
    // for the items in flight on workers (they borrow the caller's stack)
    // before unwinding. The caller's items panic only once a worker has
    // started one, and worker items hold back until the caller has
    // panicked, then run for a while, so the wait is really exercised.
    let pool = WorkerPool::new(2);
    let caller = std::thread::current().id();
    let caller_panicked = AtomicBool::new(false);
    let started = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.for_each_mut(&mut [(); 8], |_, ()| {
            if std::thread::current().id() == caller {
                while started.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                caller_panicked.store(true, Ordering::SeqCst);
                panic!("caller panic");
            }
            started.fetch_add(1, Ordering::SeqCst);
            while !caller_panicked.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
            finished.fetch_add(1, Ordering::SeqCst);
        });
    }));
    assert!(result.is_err());
    assert!(caller_panicked.load(Ordering::SeqCst));
    assert!(started.load(Ordering::SeqCst) >= 1);
    assert_eq!(
        finished.load(Ordering::SeqCst),
        started.load(Ordering::SeqCst),
        "no item may still be running when the panic re-raises"
    );
    // Pool is still alive.
    pool.for_each_mut(&mut [(); 2], |_, ()| {});
}

#[test]
fn mixed_dispatch_nesting_cannot_deadlock() {
    // The nastiest nesting shape: a pooled kernel's row closure starts
    // plain scoped threads (which carry no pool-worker flag), and each of
    // them runs a pooled kernel again. Those threads publish jobs while the
    // pool's worker may be blocked further up this very call stack — they
    // must claim and run their own items rather than wait for a worker. On
    // a 1-worker global pool (1-core CI container) a pool whose callers
    // only waited would deadlock here.
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
    // Many concurrent callers × many items: 16 callers × 25 calls × 64
    // items against 2 workers, far more items than the pool can drain, so
    // nearly all of them run on their own callers. Correctness (no lost,
    // double-run, or cross-call item) is asserted exactly.
    let pool = WorkerPool::new(2);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for submitter in 0..16usize {
            let pool = &pool;
            let total = &total;
            s.spawn(move || {
                for _ in 0..25usize {
                    let call_sum = AtomicUsize::new(0);
                    pool.for_each_mut(&mut [(); 64], |job, ()| {
                        call_sum.fetch_add(submitter * 1000 + job, Ordering::Relaxed);
                    });
                    let expected: usize = (0..64).map(|job| submitter * 1000 + job).sum();
                    assert_eq!(call_sum.load(Ordering::Relaxed), expected);
                    total.fetch_add(64, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 16 * 25 * 64);
}

#[test]
fn skewed_scopes_stay_isolated_under_stealing() {
    // While one caller runs long heavy-item calls, other callers' small
    // calls must still execute only on pool workers or their own calling
    // thread. This is the straggler shape chunking exists for — if idle
    // callers pulled from a shared queue, the heavy call's items would leak
    // onto the small calls' threads and trip the thread-identity check.
    let pool = WorkerPool::new(2);
    std::thread::scope(|s| {
        // One heavy caller: items that spin long enough to overlap the
        // small calls.
        let heavy_pool = &pool;
        s.spawn(move || {
            for _ in 0..30 {
                heavy_pool.for_each_mut(&mut [(); 8], |_, ()| {
                    std::hint::black_box((0..20_000).fold(0u64, |a, x| a ^ x));
                });
            }
        });
        for _ in 0..6 {
            let pool = &pool;
            s.spawn(move || {
                let caller = std::thread::current().id();
                for _ in 0..60 {
                    pool.for_each_mut(&mut [(); 3], |_, ()| assert_on_pool_or(caller));
                }
            });
        }
    });
}

#[test]
fn ragged_row_costs_are_bitwise_identical_across_dispatch_and_chunking() {
    // Ragged per-row work (each row's closure cost scales with the row
    // index, so early chunks are light and late chunks are heavy) across
    // threads {1,2,4,8}. Rows of 8192 -> 8192 values are costly enough that
    // the adaptive rule splits 30 of them into chunks of 4 (the last of 2),
    // 2 and 1 rows at 2, 4 and 8 threads (pinned in `parallel.rs`): the
    // pool may reorder *when* rows run, but every row's accumulation order
    // is fixed, so outputs must match serial bit for bit.
    const WIDTH: usize = 8192;
    let mut rng = rand_seed();
    let data = Matrix::random_normal(30, WIDTH, 0.0, 1.0, &mut rng);
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
    let reference = data.map_rows_with(WIDTH, &ParallelPolicy::serial(), ragged);
    for threads in [1usize, 2, 4, 8] {
        let policy = ParallelPolicy::new(threads).with_min_rows_per_thread(1);
        let out = data.map_rows_with(WIDTH, &policy, ragged);
        assert!(bitwise_eq(&out, &reference), "threads {threads}");
    }
}

fn rand_seed() -> rand_chacha::ChaCha8Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha8Rng::seed_from_u64(2024)
}
