//! A persistent worker pool for the parallel kernels.
//!
//! Spawning OS threads on every kernel call (~10–50 µs each) would erase the
//! multi-core win exactly where it matters most: small serving
//! micro-batches, where the kernel itself runs for comparable time. Every
//! fanned-out kernel of [`crate::ParallelPolicy`] therefore runs on a
//! [`WorkerPool`]: N long-lived workers parked on one job queue
//! ([`std::sync::Mutex`] + [`std::sync::Condvar`], no new dependencies).
//!
//! The pool has one operation, because every parallel step in the
//! workspace has one shape — "run items `0..n`, with the caller taking
//! part". [`WorkerPool::for_each_mut`] publishes one *job* per call; the
//! caller and every idle worker claim item indices from the job's atomic
//! counter, one at a time, until it passes the end. Claiming one item at a
//! time is the load balancing: equal row counts are not equal costs once
//! sparsity is ragged, and a thread that drew a cheap item simply claims
//! the next one while a straggler still runs. The kernels split each call
//! into more chunks than threads to give the counter that slack (about
//! four per planned thread, see [`crate::ParallelPolicy`]); chunks only
//! reorder *when* a row is computed, never its accumulation order, so
//! output stays bitwise identical to serial.
//!
//! Items may borrow the caller's stack. [`std::thread::scope`] gets that
//! from the compiler; a long-lived pool gets it by hand: `for_each_mut`
//! does not return until every claimed item has been counted done, and a
//! worker still holding the job afterwards can only find the counter
//! exhausted. An item panic is caught, the remaining items still run, and
//! the first payload is re-raised on the caller at the end — as with
//! [`std::thread::scope`] — and the pool never poisons.
//!
//! Items run with a thread-local flag raised
//! ([`WorkerPool::on_worker_thread`]), on workers and on the caller alike,
//! and a call made under that flag runs its items inline: the pool's
//! threads are already busy, so a nested fan-out would only round-trip the
//! queue. No nesting can deadlock: a caller never waits for a worker to
//! *start* its items, because it claims them itself.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

thread_local! {
    /// `true` on threads owned by any [`WorkerPool`], and on a caller while
    /// it runs items of its own call.
    static ON_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Locks a mutex, recovering from poisoning: item panics are caught before
/// they can unwind through a held guard, and the queue and counters hold
/// their invariants between every two statements, so refusing to continue
/// would only turn one propagated panic into a deadlocked pool.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drops a panic payload inside a catch: a payload whose own destructor
/// panics must not kill a worker thread either.
fn discard(payload: Box<dyn Any + Send>) {
    let _ = catch_unwind(AssertUnwindSafe(move || drop(payload)));
}

/// One `for_each_mut` call: `len` items, claimed by index from `next`.
struct Job {
    /// Runs item `i`. Lifetime-erased: it borrows the caller's stack, so it
    /// is only called for a claimed index (`i < len`), and the caller waits
    /// for every claimed index to be counted done before returning.
    run: *const (dyn Fn(usize) + Sync),
    len: usize,
    /// The next unclaimed index. `Relaxed` suffices: it only hands out
    /// indices, while the items themselves are published to workers by the
    /// queue lock (push, then pickup) and back to the caller by `state`.
    next: AtomicUsize,
    /// Items counted done, and the first panic payload.
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    all_done: Condvar,
}

// SAFETY: `run` points to a `Sync` closure that is only called while its
// owner is blocked in `for_each_mut` (see `Job::run`).
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.len
    }

    /// Claims and runs items until the counter passes the end, then counts
    /// them done under one lock. Never panics: item panics are caught.
    fn drain(&self) {
        let (mut ran, mut first_panic) = (0, None);
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                break;
            }
            // SAFETY: `i < len` is claimed by this thread alone, and the
            // closure's owner cannot return before this item is counted
            // done below.
            let run = unsafe { &*self.run };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(i))) {
                match first_panic {
                    None => first_panic = Some(payload),
                    Some(_) => discard(payload),
                }
            }
            ran += 1;
        }
        if ran == 0 {
            return;
        }
        let mut state = lock(&self.state);
        state.0 += ran;
        let leftover = if state.1.is_none() {
            state.1 = first_panic;
            None
        } else {
            first_panic
        };
        if state.0 == self.len {
            self.all_done.notify_all();
        }
        drop(state);
        if let Some(payload) = leftover {
            discard(payload);
        }
    }

    /// Blocks until every item is counted done; returns the first panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut state = lock(&self.state);
        while state.0 < self.len {
            state = self
                .all_done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.1.take()
    }
}

/// The pool's one queue: jobs whose callers have not returned yet.
struct Queue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job is published or shutdown begins.
    work_ready: Condvar,
}

/// A fixed-size pool of persistent worker threads that run the items of a
/// borrowed slice alongside the caller ([`WorkerPool::for_each_mut`]).
/// Dropping the pool joins its workers.
///
/// ```
/// use sls_linalg::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let data = vec![1.0f64, 2.0, 3.0, 4.0];
/// let mut sums = [0.0f64; 2];
/// pool.for_each_mut(&mut sums, |i, sum| *sum = data[2 * i..2 * i + 2].iter().sum());
/// assert_eq!(sums, [3.0, 7.0]);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Starts a pool with `workers` persistent threads (clamped to at
    /// least 1).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sls-pool-worker-{id}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// `true` when called from a thread owned by any [`WorkerPool`], or
    /// from an item the caller of [`WorkerPool::for_each_mut`] runs itself.
    /// A `for_each_mut` made under this flag runs its items inline.
    pub fn on_worker_thread() -> bool {
        ON_POOL_WORKER.with(Cell::get)
    }

    /// The process-global pool every fanned-out kernel runs on (any
    /// [`crate::ParallelPolicy`] with `threads > 1`).
    ///
    /// Lazily started on first use with one worker per available core minus
    /// one (at least one) — the caller always runs items itself, so workers
    /// plus caller together saturate the machine. The pool lives for the
    /// rest of the process; it is an execution resource, never part of any
    /// serialized artifact.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            WorkerPool::new(cores.saturating_sub(1).max(1))
        })
    }

    /// Runs `work(i, &mut items[i])` once for every item, on the calling
    /// thread and any idle workers, and returns once all have finished.
    ///
    /// Items are claimed one at a time, so their order across threads is
    /// unspecified. With at most one item, or when called from inside a
    /// pool item (see [`WorkerPool::on_worker_thread`]), they run inline on
    /// the caller, in index order.
    ///
    /// # Panics
    ///
    /// If any item panics, the remaining items still run, and the first
    /// panic payload is re-raised here once every item has finished.
    pub fn for_each_mut<T: Send>(&self, items: &mut [T], work: impl Fn(usize, &mut T) + Sync) {
        if items.len() <= 1 || Self::on_worker_thread() {
            for (i, item) in items.iter_mut().enumerate() {
                work(i, item);
            }
            return;
        }
        let base = ItemsPtr(items.as_mut_ptr());
        // SAFETY: every index passed here is `< items.len()` and claimed
        // exactly once, so the `&mut` items never alias.
        let run = move |i: usize| work(i, unsafe { &mut *base.get().add(i) });
        let run: &(dyn Fn(usize) + Sync) = &run;
        // SAFETY: only the trait object's lifetime changes. `job.wait()`
        // below does not return before every claimed item is counted done,
        // and nothing before it can unwind (`drain` catches item panics).
        let run: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(run)
        };
        let job = Arc::new(Job {
            run,
            len: items.len(),
            next: AtomicUsize::new(0),
            state: Mutex::new((0, None)),
            all_done: Condvar::new(),
        });
        lock(&self.shared.queue).jobs.push_back(Arc::clone(&job));
        for _ in 0..self.workers().min(items.len() - 1) {
            self.shared.work_ready.notify_one();
        }
        let was = ON_POOL_WORKER.with(|flag| flag.replace(true));
        job.drain();
        ON_POOL_WORKER.with(|flag| flag.set(was));
        // Every item is claimed now; no worker needs to find this job.
        lock(&self.shared.queue)
            .jobs
            .retain(|queued| !Arc::ptr_eq(queued, &job));
        if let Some(payload) = job.wait() {
            resume_unwind(payload);
        }
    }
}

/// The base pointer of a `for_each_mut` slice, shared with the threads that
/// claim its items.
struct ItemsPtr<T>(*mut T);

// SAFETY: each claimed index is a distinct `&mut T`, so sharing the base
// pointer hands every `T` to one thread at a time, which `T: Send` allows.
unsafe impl<T: Send> Sync for ItemsPtr<T> {}

impl<T> ItemsPtr<T> {
    /// The base pointer (a method, so closures capture the whole `Sync`
    /// wrapper rather than its raw-pointer field).
    fn get(&self) -> *mut T {
        self.0
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker main loop: join the oldest job that still has unclaimed
/// items and drain it; sleep when there is none. A job is published under
/// the queue lock this check holds, so no wakeup is lost.
fn worker_loop(shared: &Shared) {
    ON_POOL_WORKER.with(|flag| flag.set(true));
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.jobs.iter().find(|job| !job.exhausted()) {
                    break Arc::clone(job);
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn scope_runs_borrowed_tasks_to_completion() {
        let pool = WorkerPool::new(3);
        let input: Vec<f64> = (0..100).map(f64::from).collect();
        let mut out = vec![0.0; 100];
        let mut chunks: Vec<&mut [f64]> = out.chunks_mut(30).collect();
        pool.for_each_mut(&mut chunks, |c, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = input[c * 30 + i] * 2.0;
            }
        });
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, (i as f64) * 2.0);
        }
    }

    #[test]
    fn empty_scope_is_fine() {
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        pool.for_each_mut(&mut [] as &mut [usize], |_, _| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn more_tasks_than_workers_all_run() {
        let pool = WorkerPool::new(2);
        let mut items = vec![0usize; 64];
        pool.for_each_mut(&mut items, |i, item| *item += i + 1);
        let expected: Vec<usize> = (1..=64).collect();
        assert_eq!(items, expected, "every item runs exactly once");
    }

    #[test]
    fn worker_count_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let mut items = [0usize; 4];
        pool.for_each_mut(&mut items, |_, item| *item += 1);
        assert_eq!(items, [1; 4]);
    }

    #[test]
    fn worker_threads_are_flagged() {
        // Items 1.. block until item 0 has run on a worker thread, so at
        // least one worker-run item is observed; whichever thread runs an
        // item, the flag must be up.
        assert!(!WorkerPool::on_worker_thread());
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let ran_on_worker = AtomicBool::new(false);
        let mut flags = [false; 4];
        pool.for_each_mut(&mut flags, |_, flag| {
            *flag = WorkerPool::on_worker_thread();
            if std::thread::current().id() != caller {
                ran_on_worker.store(true, Ordering::SeqCst);
            } else {
                while !ran_on_worker.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
        });
        assert!(ran_on_worker.load(Ordering::SeqCst));
        assert_eq!(flags, [true; 4]);
        assert!(!WorkerPool::on_worker_thread());
    }

    #[test]
    fn helped_jobs_run_with_the_pool_flag() {
        // One worker, kept busy by the first item it claims until another
        // item has run; that other item can only run on the caller, which
        // must raise the pool flag around it and lower it again afterwards.
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let caller_ran = AtomicBool::new(false);
        let caller_flag = AtomicBool::new(false);
        let mut items = [(); 8];
        pool.for_each_mut(&mut items, |_, ()| {
            if std::thread::current().id() == caller {
                caller_flag.store(WorkerPool::on_worker_thread(), Ordering::SeqCst);
                caller_ran.store(true, Ordering::SeqCst);
            } else {
                while !caller_ran.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
        });
        assert!(caller_ran.load(Ordering::SeqCst));
        assert!(caller_flag.load(Ordering::SeqCst));
        assert!(!WorkerPool::on_worker_thread());
    }

    #[test]
    fn reentrant_scope_on_a_pool_worker_completes() {
        // Items running on the pool (on its only worker, or on the caller
        // with the flag raised) call the same pool again: the nested call
        // runs inline instead of waiting for a worker that is busy further
        // up this very call stack.
        let pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        let mut outer = [0usize; 4];
        pool.for_each_mut(&mut outer, |_, nested| {
            let mut inner = [0usize; 4];
            pool.for_each_mut(&mut inner, |_, slot| {
                *slot = 1;
                count.fetch_add(1, Ordering::SeqCst);
            });
            *nested = inner.iter().sum();
        });
        assert_eq!(outer, [4; 4]);
        assert_eq!(count.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(WorkerPool::global().workers() >= 1);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.for_each_mut(&mut [(); 16], |_, ()| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn stealing_rebalances_a_straggler_backlog() {
        // An item that blocks until all others ran does not stall them:
        // whichever thread claims item 0 spins there, and the other
        // participants keep claiming from the counter until every other
        // item has run. A fixed split that queued items behind the blocker
        // on its thread would deadlock this test.
        for workers in [1, 2] {
            let pool = WorkerPool::new(workers);
            let done = AtomicUsize::new(0);
            const OTHERS: usize = 31;
            pool.for_each_mut(&mut [(); OTHERS + 1], |i, ()| {
                if i == 0 {
                    while done.load(Ordering::SeqCst) < OTHERS {
                        std::thread::yield_now();
                    }
                } else {
                    done.fetch_add(1, Ordering::SeqCst);
                }
            });
            assert_eq!(done.load(Ordering::SeqCst), OTHERS);
        }
    }
}
