//! A persistent work-stealing worker pool for the parallel kernels.
//!
//! Spawning OS threads on every kernel call (~10–50 µs each) would erase the
//! multi-core win exactly where it matters most: small serving
//! micro-batches, where the kernel itself runs for comparable time. Every
//! fanned-out kernel of [`crate::ParallelPolicy`] therefore runs on a
//! [`WorkerPool`], which parks N long-lived workers on per-worker deques
//! ([`std::sync::Mutex`] + [`std::sync::Condvar`], no new dependencies) and
//! handing them row-chunk tasks through [`WorkerPool::scope`].
//!
//! ## Work-stealing scheduling
//!
//! Submitted tasks are distributed round-robin across **per-worker deques**.
//! A worker pops its own deque from the front; when it runs dry it *steals
//! half* of another worker's deque from the back, so an unlucky initial
//! distribution — or a deque stuck behind one long-running chunk — rebalances
//! itself instead of leaving workers idle behind a straggler. The kernels
//! exploit this by splitting each call into more chunks than threads
//! (see `for_each_row_block` in [`crate::ParallelPolicy`]'s module): equal
//! *row counts* are not equal *costs* once sparsity is ragged or scopes of
//! very different sizes share the pool, and stealing is what keeps every
//! core busy until the last chunk retires. Chunks only reorder *when* a row
//! is computed, never the accumulation order inside a row, so stolen-chunk
//! output stays bitwise identical to serial.
//!
//! A task may be queued in two places at once (a worker deque and its
//! scope's help list, below); execution is made exactly-once by a claim
//! step — the task's closure is `take()`-n under a lock, and whoever gets
//! `Some` runs it. A popped entry whose closure is already gone is stale
//! and simply discarded.
//!
//! ## Borrowed-closure dispatch
//!
//! [`std::thread::scope`] lets spawned closures borrow from the caller's
//! stack because the compiler proves every thread is joined before the scope
//! returns. A long-lived pool cannot get that proof from the compiler, so
//! [`WorkerPool::scope`] reconstructs the same guarantee by hand: every task
//! spawned through a [`PoolScope`] is counted on a completion latch, and
//! `scope` does not return — not even by unwinding — until the latch has
//! seen every task finish. Only then can the borrows the tasks captured go
//! out of scope, which is what makes the internal lifetime erasure sound.
//!
//! ## Panic propagation
//!
//! A panicking task never takes a worker down: the panic payload is caught
//! on the worker, carried back through the latch, and re-raised on the
//! submitting thread once all of the scope's tasks have finished — the same
//! observable behaviour as [`std::thread::scope`]. The pool stays fully
//! usable afterwards (it does not poison).
//!
//! ## Deadlock safety and help scheduling
//!
//! A thread waiting on a scope does not merely sleep: it *helps*, draining
//! its own scope's queued tasks until the scope completes. A nested `scope`
//! on a pool worker — or a pooled kernel reached through an intermediate
//! plain scoped thread — therefore executes its tasks itself rather
//! than waiting for a worker that is blocked further up the same call
//! stack, so no nesting shape can deadlock the pool. Helping is bounded to
//! the waiting scope's *own* tasks: each scope's latch keeps its own list of
//! still-queued tasks, so the help loop pops from that list in O(1) per task
//! — it never scans (or even locks) the pool's shared queues, and a small
//! serving scope can never get stuck executing an unrelated scope's
//! long-running chunk (say, a large training job) before it can observe its
//! own completion. Once its own list is empty, the stragglers are already
//! running on other threads and the waiter sleeps on the scope's latch.
//!
//! Every pool task — whether picked up by a worker, stolen, or executed by a
//! helping waiter — runs with a thread-local flag set
//! ([`WorkerPool::on_worker_thread`]) that lets the kernels skip the queue
//! entirely for nested dispatch and run inline — bitwise identical, and
//! cheaper than help-routing.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A queued unit of work. The closure is claimed (`take`-n) by exactly one
/// executor; the same `Arc<Task>` may sit in a worker deque *and* in its
/// scope's help list, and whichever pops it second finds the closure gone
/// and discards the stale entry.
struct Task {
    /// The scope this task belongs to — executing threads decrement its
    /// latch; the help path drains the latch's own-task list.
    latch: Arc<Latch>,
    /// The actual work, present until claimed.
    run: Mutex<Option<Box<dyn FnOnce() + Send + 'static>>>,
}

thread_local! {
    /// `true` on threads owned by any [`WorkerPool`], and on any thread for
    /// the duration of a pool task it executes on the help path.
    static ON_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Locks a mutex, recovering from poisoning: the pool's shared state is a
/// plain set of task queues whose invariants hold between every two
/// statements, and user panics are caught before they can unwind through a
/// held guard, so a poisoned lock only ever means "some unrelated thread
/// panicked" — refusing to continue would turn one propagated panic into a
/// deadlocked pool.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Claims and executes `task` if its closure has not been claimed yet.
/// Returns `false` for a stale entry (already claimed elsewhere).
///
/// The closure runs with the pool flag raised (restoring the caller's flag
/// state afterwards — kernels consult the flag to run nested dispatch
/// inline, and that must hold on the help path exactly as it does on a
/// worker thread), with its panic caught and recorded on the scope's latch.
fn run_task(task: &Task) -> bool {
    let Some(run) = lock(&task.run).take() else {
        return false;
    };
    let was = ON_POOL_WORKER.with(|flag| flag.replace(true));
    let panic = catch_unwind(AssertUnwindSafe(run)).err();
    ON_POOL_WORKER.with(|flag| flag.set(was));
    task.latch.finish_task(panic);
    true
}

/// One worker's deque. The owner pops from the front; thieves take half
/// from the back, so the owner keeps the cache-warm oldest chunks while a
/// straggling backlog migrates wholesale to an idle worker.
struct WorkerQueue {
    deque: Mutex<VecDeque<Arc<Task>>>,
}

/// State shared by all workers of one pool.
struct Shared {
    /// One deque per worker thread.
    workers: Vec<WorkerQueue>,
    /// Sleep/shutdown coordination (see [`worker_loop`] for the protocol).
    state: Mutex<PoolState>,
    /// Signalled when a task is pushed or shutdown begins.
    work_ready: Condvar,
    /// Round-robin cursor for task injection.
    next_worker: AtomicUsize,
}

struct PoolState {
    /// Total tasks ever pushed — the monotonic counter workers use to
    /// detect "something arrived between my empty scan and my sleep".
    pushes: u64,
    shutdown: bool,
}

impl Shared {
    /// Pushes a task onto the next deque in round-robin order and wakes one
    /// sleeping worker. The push lands in the deque *before* the counter
    /// increment, which is what makes the workers' scan-then-recheck sleep
    /// protocol lossless.
    fn push(&self, task: Arc<Task>) {
        let at = self.next_worker.fetch_add(1, Ordering::Relaxed) % self.workers.len();
        lock(&self.workers[at].deque).push_back(task);
        lock(&self.state).pushes += 1;
        self.work_ready.notify_one();
    }

    /// Pops the calling worker's own deque, or steals half of the first
    /// non-empty victim deque (from the back). Returns `None` only when
    /// every deque was observed empty.
    fn next_task(&self, me: usize) -> Option<Arc<Task>> {
        if let Some(task) = lock(&self.workers[me].deque).pop_front() {
            return Some(task);
        }
        let n = self.workers.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            let stolen = {
                let mut victim_queue = lock(&self.workers[victim].deque);
                let keep = victim_queue.len() / 2;
                if victim_queue.len() == keep {
                    continue; // empty: len 0, keep 0
                }
                victim_queue.split_off(keep)
            };
            let mut stolen = stolen.into_iter();
            let first = stolen.next();
            let mut mine = lock(&self.workers[me].deque);
            mine.extend(stolen);
            let surplus = !mine.is_empty();
            drop(mine);
            // While the batch was in flight between the two deques, another
            // worker's scan could have seen every deque empty and gone to
            // sleep with work still outstanding. If the steal moved more
            // than the one task we run ourselves, bump the counter (the
            // surplus is already visible in our deque, preserving the
            // deque-before-counter ordering) and wake a sleeper so it
            // re-scans and can sub-steal instead of idling behind us.
            if surplus {
                lock(&self.state).pushes += 1;
                self.work_ready.notify_one();
            }
            return first;
        }
        None
    }
}

/// Completion latch of one [`PoolScope`]: how many spawned tasks are still
/// running, the first panic payload any of them raised, and the scope's own
/// still-queued tasks (the help list).
struct Latch {
    state: Mutex<LatchState>,
    all_done: Condvar,
    /// This scope's still-queued tasks, in spawn order. The help path pops
    /// from here — O(1) per task, no shared-pool lock — so helping can never
    /// execute another scope's work nor serialize unrelated submitters.
    own: Mutex<VecDeque<Arc<Task>>>,
}

struct LatchState {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new() -> Self {
        Self {
            state: Mutex::new(LatchState {
                pending: 0,
                panic: None,
            }),
            all_done: Condvar::new(),
            own: Mutex::new(VecDeque::new()),
        }
    }

    /// Registers one more in-flight task.
    fn add_task(&self) {
        lock(&self.state).pending += 1;
    }

    /// Marks one task finished, recording its panic payload if it is the
    /// scope's first.
    fn finish_task(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut state = lock(&self.state);
        state.pending -= 1;
        let leftover = if state.panic.is_none() {
            state.panic = panic;
            None
        } else {
            panic
        };
        if state.pending == 0 {
            self.all_done.notify_all();
        }
        drop(state);
        // A second (or later) panic payload is dropped here, outside the
        // lock and inside a catch: one exotic escape is a payload whose
        // *own destructor* panics when dropped, and even that must not kill
        // a worker thread or double-panic a helping caller's unwind.
        if let Some(payload) = leftover {
            let _ = catch_unwind(AssertUnwindSafe(move || drop(payload)));
        }
    }

    /// Takes the first recorded panic payload, if any task panicked.
    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock(&self.state).panic.take()
    }
}

/// A fixed-size pool of persistent worker threads executing borrowed
/// closures submitted through [`WorkerPool::scope`], scheduled by
/// work-stealing across per-worker deques.
///
/// Dropping the pool shuts it down cleanly: the workers finish every task
/// already queued (there can be none unless a scope is still waiting on
/// them), then exit and are joined.
///
/// ```
/// use sls_linalg::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let data = vec![1.0f64, 2.0, 3.0, 4.0];
/// let (left, right) = data.split_at(2);
/// let mut sums = [0.0f64; 2];
/// let (s0, s1) = sums.split_at_mut(1);
/// pool.scope(|scope| {
///     scope.spawn(|| s0[0] = left.iter().sum());
///     scope.spawn(|| s1[0] = right.iter().sum());
/// });
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
    /// least 1 — a pool with no workers could never run a queued task).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            workers: (0..workers)
                .map(|_| WorkerQueue {
                    deque: Mutex::new(VecDeque::new()),
                })
                .collect(),
            state: Mutex::new(PoolState {
                pushes: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            next_worker: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sls-pool-worker-{id}"))
                    .spawn(move || worker_loop(&shared, id))
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
    /// while the calling thread is executing a pool task on the help path
    /// (a scope waiter draining its own tasks — see [`WorkerPool::scope`]).
    ///
    /// Kernels use this to short-circuit nested dispatch: a task already
    /// executing on behalf of the pool runs nested row chunks inline instead
    /// of round-tripping them through the queues. This is an optimisation,
    /// not the liveness guarantee —
    /// waiting scopes help drain their own tasks, so even un-flagged nesting
    /// cannot deadlock.
    pub fn on_worker_thread() -> bool {
        ON_POOL_WORKER.with(Cell::get)
    }

    /// The process-global pool every fanned-out kernel runs on (any
    /// [`crate::ParallelPolicy`] with `threads > 1`).
    ///
    /// Lazily started on first use with one worker per available core minus
    /// one (at least one) — the submitting thread always executes one row
    /// chunk itself, so workers + submitter together saturate the machine.
    /// The pool lives for the rest of the process; it is an execution
    /// resource, never part of any serialized artifact.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            WorkerPool::new(cores.saturating_sub(1).max(1))
        })
    }

    /// Runs `f` with a [`PoolScope`] through which it can spawn tasks that
    /// borrow from the enclosing stack frame, then blocks until every
    /// spawned task has finished.
    ///
    /// The calling thread is expected to do a share of the work itself
    /// inside `f` (the kernels run their first row chunk inline) — `scope`
    /// only sleeps once `f` returns, its own queued tasks are drained, and
    /// tasks are still in flight on other threads.
    ///
    /// # Panics
    ///
    /// If a spawned task panics, the first panic payload is re-raised here
    /// after all tasks of the scope have finished, mirroring
    /// [`std::thread::scope`]. If `f` itself panics, its panic propagates —
    /// also only after every already-spawned task has finished, so borrowed
    /// data is never freed under a running task.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'_, 'env>) -> R,
    {
        let latch = Arc::new(Latch::new());
        let scope = PoolScope {
            pool: self,
            latch: Arc::clone(&latch),
            _env: PhantomData,
        };

        /// Waits for the scope's tasks on *every* exit path, including the
        /// caller's closure unwinding: the lifetime-erasure safety argument
        /// requires that no task can outlive this stack frame.
        struct WaitGuard<'a> {
            latch: &'a Latch,
        }
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                help_until_done(self.latch);
            }
        }

        let result = {
            let _guard = WaitGuard { latch: &latch };
            f(&scope)
        };
        if let Some(payload) = latch.take_panic() {
            resume_unwind(payload);
        }
        result
    }
}

/// Blocks until `latch` has counted every task of one scope as finished,
/// executing that scope's still-queued tasks while waiting.
///
/// The helping is what makes `scope` deadlock-free under *any* nesting: a
/// scope waited on from a pool worker (re-entrant `scope`), or from a
/// thread a pool worker is itself blocked on (a pooled kernel reached
/// through an intermediate plain scoped thread), drains its own tasks
/// instead of waiting for a worker that will never come.
///
/// Help is bounded to the waiting scope's own tasks on purpose: executing
/// arbitrary queued work would let a thread waiting on a small serving
/// scope get stuck under an unrelated scope's long-running chunk (unbounded
/// added tail latency for pooled micro-batch requests under mixed
/// training+serving load). The bound is structural, not a filter: the help
/// list lives on the scope's own latch, so each pop is O(1) and touches no
/// shared pool state — with many scopes in flight, helpers cannot serialize
/// each other the way the old scan-the-global-injector help path did.
/// Liveness does not need cross-scope help — unrelated queued tasks are
/// drained by the workers and by their *own* waiting submitters.
///
/// Once the scope's own list is empty, every remaining task is either
/// already running on some other thread or claimed-and-stale, so a plain
/// condvar wait cannot strand work. That rests on an invariant the borrow
/// checker enforces: spawning onto a scope ends when its closure returns,
/// because [`PoolScope::spawn`] bounds tasks by `'env` (stricter than
/// [`std::thread::scope`]'s `'scope`), so a task can never capture the
/// scope handle and spawn siblings later — the attempt is a compile error
/// (`E0521`, borrowed data escapes the closure).
fn help_until_done(latch: &Latch) {
    loop {
        if lock(&latch.state).pending == 0 {
            break;
        }
        let task = lock(&latch.own).pop_front();
        match task {
            // A stale entry (claimed by a worker or thief) just pops off;
            // the next iteration re-checks pending.
            Some(task) => {
                run_task(&task);
            }
            None => {
                let mut state = lock(&latch.state);
                while state.pending > 0 {
                    state = latch
                        .all_done
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                break;
            }
        }
    }
    // The scope is complete, but entries claimed by workers before this
    // thread could pop them may still sit in `own` — and each holds an
    // `Arc<Task>` whose task holds an `Arc` back to this latch. Left alone,
    // that strong cycle would leak the latch, the task shells, and the
    // deque on every scope whose workers out-raced the helping submitter
    // (the common fast path). Nothing can be added to `own` once the scope
    // closure has returned, so draining it here severs the cycle.
    lock(&latch.own).clear();
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Scope handle passed to the closure of [`WorkerPool::scope`].
///
/// `'env` is the lifetime of borrows captured by spawned tasks; it is
/// invariant (as in [`std::thread::Scope`]) so the compiler cannot shrink it
/// to something that dies before `scope` returns.
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    latch: Arc<Latch>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for PoolScope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolScope")
            .field("pool", self.pool)
            .finish()
    }
}

impl<'env> PoolScope<'_, 'env> {
    /// Queues `task` on the pool. It may borrow anything that outlives the
    /// enclosing [`WorkerPool::scope`] call.
    ///
    /// Unlike [`std::thread::Scope::spawn`], the task is bounded by `'env`
    /// rather than a `'scope` lifetime, so a task **cannot capture the
    /// scope handle** and spawn siblings from inside the pool — such code
    /// fails to compile. This is deliberate: the scope's wait logic relies
    /// on no task being spawned after the scope closure returns (open a
    /// nested [`WorkerPool::scope`] from within a task instead; that is
    /// fully supported).
    pub fn spawn(&self, task: impl FnOnce() + Send + 'env) {
        self.latch.add_task();
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(task);
        // SAFETY: the closure only has to live for the duration of the
        // enclosing `WorkerPool::scope` call, because `scope` blocks (on the
        // latch this task was just registered with) until the task has
        // finished — on the normal path and, via `WaitGuard`, when
        // unwinding. An unclaimed closure keeps the latch pending, so the
        // wait also covers every entry still sitting in a deque. Erasing the
        // lifetime to `'static` therefore never lets the task observe a dead
        // borrow; the transmute only changes the trait object's lifetime
        // bound, not its layout.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(task)
        };
        let task = Arc::new(Task {
            latch: Arc::clone(&self.latch),
            run: Mutex::new(Some(task)),
        });
        lock(&self.latch.own).push_back(Arc::clone(&task));
        self.pool.shared.push(task);
    }
}

/// The worker main loop: drain own deque from the front, steal half from a
/// victim's back when dry, and sleep only after an empty scan that no
/// concurrent push raced with.
///
/// The sleep protocol is scan-then-recheck against the shared `pushes`
/// counter: a push lands in a deque *before* incrementing the counter, so
/// if the counter is unchanged between the pre-scan read and the
/// under-lock recheck, every task pushed before the recheck was already
/// visible to the scan — an empty scan plus an unchanged counter means
/// there is genuinely nothing to do, and the condvar wait cannot lose a
/// wakeup (the notify happens after the increment, under no lock, but the
/// recheck holds the state lock the incrementer also takes).
fn worker_loop(shared: &Shared, me: usize) {
    ON_POOL_WORKER.with(|flag| flag.set(true));
    loop {
        let seen = lock(&shared.state).pushes;
        let mut ran_any = false;
        while let Some(task) = shared.next_task(me) {
            // Stale entries (claimed by a helping waiter) pop and discard.
            run_task(&task);
            ran_any = true;
        }
        if ran_any {
            continue;
        }
        let state = lock(&shared.state);
        if state.pushes != seen {
            continue;
        }
        // Drain-then-exit ordering: shutdown is only honoured once every
        // deque is empty (the scan above), so a dropping pool never strands
        // a queued task (and with it a waiting scope).
        if state.shutdown {
            return;
        }
        drop(
            shared
                .work_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner),
        );
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
        pool.scope(|scope| {
            for (c, chunk) in chunks.iter_mut().enumerate() {
                let input = &input;
                scope.spawn(move || {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = input[c * 30 + i] * 2.0;
                    }
                });
            }
        });
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, (i as f64) * 2.0);
        }
    }

    #[test]
    fn scope_returns_the_closure_value() {
        let pool = WorkerPool::new(1);
        let value = pool.scope(|scope| {
            scope.spawn(|| {});
            42
        });
        assert_eq!(value, 42);
    }

    #[test]
    fn empty_scope_is_fine() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.scope(|_| "done"), "done");
    }

    #[test]
    fn more_tasks_than_workers_all_run() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..64 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn worker_count_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let done = AtomicUsize::new(0);
        pool.scope(|scope| {
            scope.spawn(|| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_threads_are_flagged() {
        assert!(!WorkerPool::on_worker_thread());
        let pool = WorkerPool::new(1);
        let on_worker = AtomicBool::new(false);
        let picked_up = AtomicBool::new(false);
        pool.scope(|scope| {
            scope.spawn(|| {
                on_worker.store(WorkerPool::on_worker_thread(), Ordering::SeqCst);
                picked_up.store(true, Ordering::SeqCst);
            });
            // Hold the scope closure open until a worker has run the task:
            // the submitter only starts helping once this closure returns,
            // so the flag above is guaranteed to have been read on a
            // genuine worker thread, never on the help path.
            while !picked_up.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        });
        assert!(on_worker.load(Ordering::SeqCst));
        assert!(!WorkerPool::on_worker_thread());
    }

    #[test]
    fn helped_jobs_run_with_the_pool_flag() {
        // One worker, kept busy by the first task until the second task has
        // run; the only thread that can run the second task is therefore
        // the submitter's help loop — which must raise the pool flag around
        // it and lower it again afterwards.
        let pool = WorkerPool::new(1);
        let worker_busy = AtomicBool::new(false);
        let release_worker = AtomicBool::new(false);
        let helped_flag = AtomicBool::new(false);
        let helper = Mutex::new(None::<std::thread::ThreadId>);
        pool.scope(|scope| {
            scope.spawn(|| {
                worker_busy.store(true, Ordering::SeqCst);
                while !release_worker.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
            while !worker_busy.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            scope.spawn(|| {
                helped_flag.store(WorkerPool::on_worker_thread(), Ordering::SeqCst);
                *lock(&helper) = Some(std::thread::current().id());
                release_worker.store(true, Ordering::SeqCst);
            });
        });
        assert!(helped_flag.load(Ordering::SeqCst));
        assert_eq!(*lock(&helper), Some(std::thread::current().id()));
        assert!(!WorkerPool::on_worker_thread());
    }

    #[test]
    fn reentrant_scope_on_a_pool_worker_completes() {
        // A task running on the pool's only worker opens a nested scope on
        // the same pool: the nested tasks can never be picked up by a free
        // worker, so the waiting task must drain them itself
        // (help-while-wait). Before that scheduling, this test deadlocked.
        let pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.scope(|outer| {
            let (pool, count) = (&pool, &count);
            outer.spawn(move || {
                pool.scope(|inner| {
                    for _ in 0..4 {
                        inner.spawn(|| {
                            count.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
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
        pool.scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn stealing_rebalances_a_straggler_backlog() {
        // Two workers. The round-robin injector alternates tasks between
        // their deques; the first task on worker 0's deque blocks until
        // every other task has run. If worker 1 (and the helping submitter)
        // could not steal from worker 0's deque, the tasks queued behind
        // the blocker would never run and this test would deadlock.
        let pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        const OTHERS: usize = 31;
        pool.scope(|scope| {
            let done = &done;
            scope.spawn(move || {
                while done.load(Ordering::SeqCst) < OTHERS {
                    std::thread::yield_now();
                }
            });
            for _ in 0..OTHERS {
                scope.spawn(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), OTHERS);
    }

    #[test]
    fn steal_half_takes_the_back_half() {
        // Directly exercise the steal arithmetic: victim with 5 entries
        // keeps the front 2 (it owns the oldest), the thief gets 3 from the
        // back and runs the first of them.
        let shared = Shared {
            workers: (0..2)
                .map(|_| WorkerQueue {
                    deque: Mutex::new(VecDeque::new()),
                })
                .collect(),
            state: Mutex::new(PoolState {
                pushes: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            next_worker: AtomicUsize::new(0),
        };
        let latch = Arc::new(Latch::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5usize {
            latch.add_task();
            let latch_for_task = Arc::clone(&latch);
            let order = Arc::clone(&order);
            let run: Box<dyn FnOnce() + Send> = Box::new(move || {
                lock(&order).push(i);
                drop(latch_for_task); // keep the latch alive like a real task
            });
            lock(&shared.workers[0].deque).push_back(Arc::new(Task {
                latch: Arc::clone(&latch),
                run: Mutex::new(Some(run)),
            }));
        }
        // Worker 1 is empty: next_task must steal from worker 0's back.
        let stolen = shared.next_task(1).expect("steals a task");
        assert!(run_task(&stolen));
        assert_eq!(*lock(&order), vec![2], "thief runs the first stolen task");
        assert_eq!(
            lock(&shared.workers[0].deque).len(),
            2,
            "victim keeps front"
        );
        assert_eq!(lock(&shared.workers[1].deque).len(), 2, "thief keeps rest");
        // Owner still pops its front in order.
        let own = shared.next_task(0).expect("owner pops front");
        assert!(run_task(&own));
        assert_eq!(*lock(&order), vec![2, 0]);
    }

    #[test]
    fn scope_exit_breaks_the_latch_task_cycle() {
        // Regression: `Latch.own` holds `Arc<Task>` and every task holds an
        // `Arc<Latch>` back. When workers claim and finish tasks before the
        // helping submitter pops the matching own-list entries (the common
        // fast path), the scope used to exit with a non-empty own list and
        // leak the whole latch+tasks cycle on every completed scope. The
        // help loop must drain the list on exit so the latch is freed.
        let pool = WorkerPool::new(2);
        let mut leaked = Vec::new();
        for _ in 0..32 {
            let weak = pool.scope(|scope| {
                for _ in 0..16 {
                    scope.spawn(|| {});
                }
                Arc::downgrade(&scope.latch)
            });
            leaked.push(weak);
        }
        // A worker may still hold a stale `Arc<Task>` it popped moments
        // ago; give the deques a bounded window to drain before asserting.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while leaked.iter().any(|weak| weak.upgrade().is_some())
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        let alive = leaked
            .iter()
            .filter(|weak| weak.upgrade().is_some())
            .count();
        assert_eq!(alive, 0, "every completed scope's latch must be freed");
    }

    #[test]
    fn stale_entries_are_discarded_not_rerun() {
        // A task claimed through one queue must be a no-op when its other
        // queue entry is popped: run_task returns false and the closure
        // never runs twice.
        let latch = Arc::new(Latch::new());
        latch.add_task();
        let runs = Arc::new(AtomicUsize::new(0));
        let runs_in_task = Arc::clone(&runs);
        let task = Arc::new(Task {
            latch: Arc::clone(&latch),
            run: Mutex::new(Some(Box::new(move || {
                runs_in_task.fetch_add(1, Ordering::SeqCst);
            }))),
        });
        assert!(run_task(&task), "first pop claims and runs");
        assert!(!run_task(&task), "second pop is stale");
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(lock(&latch.state).pending, 0, "finish counted exactly once");
    }
}
