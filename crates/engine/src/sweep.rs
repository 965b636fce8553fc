//! Parallel parameter sweeps: run many independent simulation tasks across
//! worker threads and collect their results in input order.
//!
//! Every experiment in the harness is of the form "for each (n, parameter,
//! seed) run a simulation and extract a number". Tasks are embarrassingly
//! parallel; this module distributes them over scoped threads pulling from an
//! atomic ticket counter, so stragglers don't serialize the sweep. Each worker
//! keeps its own results, put in index order after the join — there is no
//! shared lock, so short tasks never contend with long ones on result
//! collection.
//!
//! When the caller has a [`Recorder`] installed, every task runs under a
//! fresh recorder configured like it, which also counts the task
//! (`sweep_tasks`). After the join the task recorders merge into the
//! caller's in task-index order, so the merged report does not depend on
//! the worker count.

use crate::metrics::Counter;
use crate::recorder::{self, Recorder};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Reads the `PP_THREADS` environment override: a positive integer selects
/// that worker count; unset, empty, zero, or unparsable values mean "no
/// override".
#[must_use]
fn env_threads() -> Option<usize> {
    std::env::var("PP_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&t| t > 0)
}

/// Resolves a requested worker count for `count` parallel tasks.
///
/// Precedence: an explicit `workers > 0` from the caller wins; then the
/// `PP_THREADS` environment variable; then the OS-reported available
/// parallelism. The result never exceeds the task count (in particular,
/// zero tasks resolve to zero workers). Parallelism lives here, across
/// independent seeds, which keeps every run's trajectory exact; a single
/// run never splits across threads.
#[must_use]
fn resolve_workers(workers: usize, count: usize) -> usize {
    if count == 0 {
        return 0;
    }
    let workers = if workers > 0 {
        workers
    } else if let Some(env) = env_threads() {
        env
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    };
    workers.min(count)
}

/// Runs `tasks(i)` for every `i` in `0..count` across `workers` threads and
/// returns the results in index order.
///
/// The task closure must be `Sync` because multiple workers call it
/// concurrently (on distinct indices). Worker count 0 selects the available
/// parallelism reported by the OS. Each task records into its own recorder,
/// merged into the caller's afterwards (see the module docs).
///
/// # Examples
///
/// ```
/// use pp_engine::sweep::run_indexed;
///
/// let squares = run_indexed(8, 2, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
///
/// # Panics
///
/// Propagates panics from task closures.
pub fn run_indexed<T, F>(count: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_workers(workers, count);
    let template = recorder::with(|r| r.like());
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            let mut rec = template.as_ref().map(Recorder::like);
            let value = {
                let _installed = rec.as_mut().map(Recorder::install);
                task(i)
            };
            if let Some(rec) = &mut rec {
                rec.add(Counter::SweepTasks, 1);
            }
            done.push((i, value, rec));
        }
    };
    let mut done: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, ..)| i);
    done.into_iter()
        .map(|(_, value, rec)| {
            if let Some(rec) = rec {
                recorder::with(|r| r.merge(rec));
            }
            value
        })
        .collect()
}

/// Convenience wrapper: maps `task` over a slice of configurations in
/// parallel, preserving order.
///
/// # Examples
///
/// ```
/// use pp_engine::sweep::map_configs;
///
/// let ns = [16u64, 32, 64];
/// let doubled = map_configs(&ns, 0, |&n| n * 2);
/// assert_eq!(doubled, vec![32, 64, 128]);
/// ```
pub fn map_configs<C, T, F>(configs: &[C], workers: usize, task: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    run_indexed(configs.len(), workers, |i| task(&configs[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn results_in_input_order() {
        let out = run_indexed(100, 4, |i| i as u64 * 3);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u64 * 3);
        }
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<u32> = run_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let seq = run_indexed(20, 1, |i| {
            let mut rng = SimRng::seed_from(i as u64);
            rng.next_u64()
        });
        let par = run_indexed(20, 4, |i| {
            let mut rng = SimRng::seed_from(i as u64);
            rng.next_u64()
        });
        assert_eq!(seq, par, "per-task seeding makes sweeps deterministic");
    }

    #[test]
    fn auto_worker_count() {
        let out = run_indexed(10, 0, |i| i + 1);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn map_configs_passes_references() {
        let configs = vec![(2u64, 3u64), (4, 5)];
        let out = map_configs(&configs, 2, |&(a, b)| a * b);
        assert_eq!(out, vec![6, 20]);
    }

    #[test]
    fn more_workers_than_tasks() {
        let out = run_indexed(3, 16, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn zero_tasks_resolve_to_zero_workers() {
        assert_eq!(resolve_workers(4, 0), 0, "no tasks, no workers");
        assert_eq!(resolve_workers(0, 0), 0, "auto workers over no tasks");
        assert_eq!(resolve_workers(4, 2), 2);
        assert_eq!(resolve_workers(2, 4), 2);
        assert!(resolve_workers(0, 100) >= 1, "auto resolves to at least 1");
    }

    #[test]
    fn pp_threads_env_sits_between_flag_and_auto() {
        std::env::set_var("PP_THREADS", "3");
        assert_eq!(resolve_workers(0, 100), 3, "env used when flag is auto");
        assert_eq!(resolve_workers(2, 100), 2, "explicit flag beats env");
        assert_eq!(resolve_workers(0, 2), 2, "env still capped by task count");
        std::env::set_var("PP_THREADS", "junk");
        assert!(
            resolve_workers(0, 100) >= 1,
            "junk env falls through to auto"
        );
        std::env::remove_var("PP_THREADS");
    }

    #[test]
    fn sweep_tasks_feed_the_callers_recorder() {
        let mut rec = Recorder::new();
        {
            let _installed = rec.install();
            let out = run_indexed(5, 2, |i| {
                crate::recorder::add(Counter::MatchingRounds, i as u64);
                i
            });
            assert_eq!(out, [0, 1, 2, 3, 4]);
        }
        let snap = rec.metrics();
        assert_eq!(snap.counter("sweep_tasks"), 5);
        assert_eq!(snap.counter("matching_rounds"), 10);
        // Without a recorder the tasks get none either.
        let installed = run_indexed(3, 2, |_| crate::recorder::installed_metrics().is_some());
        assert_eq!(installed, [false; 3]);
    }
}
