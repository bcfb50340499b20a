//! The ordered worker pool every parallel loop in the workspace runs on:
//! experiment cells, bulk trace imports and fuzz scenarios are independent
//! items whose results must come back in input order, whatever the worker
//! count, so that every report stays byte-identical at any `--jobs`.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Worker threads [`par_map`] runs `len` items on under a requested `jobs`
/// value: `0` means one per available hardware thread (1 if that cannot be
/// determined), and the count is clamped to `len`, so `--jobs 64` on a
/// 6-cell grid spawns 6 workers, not 64 mostly-idle threads. Never fewer
/// than one.
#[must_use]
pub fn worker_count(jobs: usize, len: usize) -> usize {
    let jobs =
        if jobs == 0 { thread::available_parallelism().map_or(1, NonZeroUsize::get) } else { jobs };
    jobs.min(len).max(1)
}

/// Computes `f(0), f(1), …, f(len - 1)` on [`worker_count`]`(jobs, len)`
/// scoped threads and returns the results **in index order**, whichever
/// worker ran an index and whenever it finished. Workers pull the next index
/// from a shared counter, so one long item does not leave the others idle
/// behind a static partition. A single worker runs `f` inline on the calling
/// thread: no thread is spawned.
///
/// # Panics
///
/// Re-raises a worker's panic: the panic of `f` itself.
pub fn par_map<R: Send>(len: usize, jobs: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = worker_count(jobs, len);
    if workers == 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..len).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= len {
                            break done;
                        }
                        done.push((index, f(index)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (index, result) in done {
                results[index] = Some(result);
            }
        }
    });
    results.into_iter().map(|result| result.expect("every index ran exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        assert!(worker_count(0, usize::MAX) >= 1);
        assert_eq!(worker_count(3, usize::MAX), 3);
    }

    #[test]
    fn worker_count_is_clamped_to_the_job_count() {
        // --jobs 64 on a 6-cell grid spawns 6 workers, not 64 idle threads.
        assert_eq!(worker_count(64, 6), 6);
        assert_eq!(worker_count(4, 6), 4);
        // Degenerate grids still get one worker.
        assert_eq!(worker_count(8, 0), 1);
        // Auto resolution is clamped the same way.
        assert!(worker_count(0, 2) <= 2);
        assert!(worker_count(0, 1_000_000) >= 1);
    }

    #[test]
    fn results_come_back_in_index_order_at_any_worker_count() {
        let expected: Vec<usize> = (0..100).map(|i| i * i).collect();
        for jobs in [0, 1, 2, 3, 7, 200] {
            assert_eq!(par_map(100, jobs, |i| i * i), expected, "jobs = {jobs}");
        }
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        let caller = thread::current().id();
        assert!(par_map(5, 1, |_| thread::current().id()).iter().all(|id| *id == caller));
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn a_worker_panic_reaches_the_caller() {
        par_map(8, 2, |i| assert!(i != 3, "item {i} failed"));
    }
}
