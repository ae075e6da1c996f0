//! Task-level parallel dispatch for the consensus pipeline.
//!
//! The linalg kernels partition *rows*; the consensus stages partition
//! *tasks* — whole base clusterers and whole partition alignments. Tasks are
//! few and heavy, and a task's cost is not known before it runs, so the
//! kernels' work floor (a row count times a per-row cost) does not apply
//! here: a policy with a thread budget above one always fans out onto the
//! persistent worker pool.
//!
//! Determinism discipline matches the kernel layer: every task is a pure
//! function of its index (any randomness comes from a pre-drawn sub-seed),
//! results are collected back in index order, and the task bodies themselves
//! only call bitwise-reproducible kernels — so the output is identical for
//! every thread count.

use sls_linalg::{ParallelPolicy, WorkerPool};

/// Runs `task(0..n)` under `policy` and returns the results in index order.
///
/// Inline when the policy is serial. Otherwise every task is one item of a
/// pool [`WorkerPool::for_each_mut`] call (which itself runs inline for at
/// most one task or inside a pool job): tasks are few and heavy (whole
/// clusterers, whole alignments) with very unequal runtimes, so handing
/// them out one at a time lets the idle threads take the next task instead
/// of pinning a fixed band to each thread.
pub(crate) fn run_indexed<T, F>(n: usize, policy: &ParallelPolicy, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if policy.is_serial() {
        return (0..n).map(task).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    WorkerPool::global().for_each_mut(&mut slots, |i, slot| *slot = Some(task(i)));
    slots
        .into_iter()
        .map(|slot| slot.expect("every task slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize, policy: &ParallelPolicy) -> Vec<usize> {
        run_indexed(n, policy, |i| i * i)
    }

    #[test]
    fn serial_and_parallel_agree_in_index_order() {
        let expected: Vec<usize> = (0..23).map(|i| i * i).collect();
        assert_eq!(squares(23, &ParallelPolicy::serial()), expected);
        for threads in [2, 3, 8, 64] {
            let policy = ParallelPolicy::new(threads);
            assert_eq!(squares(23, &policy), expected, "threads {threads}");
        }
    }

    #[test]
    fn degenerate_sizes_are_handled() {
        let policy = ParallelPolicy::new(4);
        assert_eq!(squares(0, &policy), Vec::<usize>::new());
        assert_eq!(squares(1, &policy), vec![0]);
    }

    #[test]
    fn ignores_min_rows_cutover_for_heavy_tasks() {
        // Tasks fan out whatever their size: the kernels' work floor does
        // not apply, only the thread budget does. Items run with the pool
        // flag raised only when their call went to the pool, so three tiny
        // tasks under the shipping policy must all see it.
        let on_pool = |policy| run_indexed(3, &policy, |_| WorkerPool::on_worker_thread());
        assert_eq!(on_pool(ParallelPolicy::new(8)), vec![true; 3]);
        assert_eq!(on_pool(ParallelPolicy::serial()), vec![false; 3]);
        assert_eq!(squares(3, &ParallelPolicy::new(8)), vec![0, 1, 4]);
    }
}
