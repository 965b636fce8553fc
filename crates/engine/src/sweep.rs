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
//! (`sweep_tasks`) and its wall time (`sweep_task_micros`). After the join
//! the task recorders merge into the caller's in task-index order, so the
//! merged report, dispatch log included, does not depend on the worker
//! count (the wall-time histogram aside).

use crate::json::Json;
use crate::metrics::{Counter, Hist};
use crate::recorder::{self, Recorder};
use crate::rng::SimRng;
use crate::snapshot::SnapshotStore;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

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
            let t0 = Instant::now();
            let value = {
                let _installed = rec.as_mut().map(Recorder::install);
                task(i)
            };
            if let Some(rec) = &mut rec {
                rec.add(Counter::SweepTasks, 1);
                rec.observe(Hist::SweepTaskMicros, t0.elapsed().as_micros() as u64);
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

/// Outcome of one task slot in a resilient sweep ([`run_indexed_resilient`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskResult<T> {
    /// The task produced a value (possibly after retries).
    Ok(T),
    /// Every attempt panicked; carries the last panic payload rendered as
    /// text.
    Panicked(String),
    /// Every attempt overran its deadline.
    TimedOut,
}

impl<T> TaskResult<T> {
    /// Whether this slot holds a value.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, TaskResult::Ok(_))
    }

    /// The value, if this slot holds one.
    #[must_use]
    pub fn value(&self) -> Option<&T> {
        match self {
            TaskResult::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Consumes the result, returning the value if this slot holds one.
    #[must_use]
    pub fn into_value(self) -> Option<T> {
        match self {
            TaskResult::Ok(v) => Some(v),
            _ => None,
        }
    }
}

/// One captured failure (a panic, a deadline overrun, or a rejected
/// snapshot) during a resilient sweep. Retried-and-recovered attempts
/// leave incidents too, so the log shows flakiness even when every slot
/// ends up `Ok`.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Task index the failure belongs to (the snapshot generation for
    /// `"snapshot_corrupt"` incidents).
    pub index: usize,
    /// Zero-based attempt number that failed.
    pub attempt: u32,
    /// `"panic"`, `"timeout"`, or `"snapshot_corrupt"`.
    pub cause: &'static str,
    /// The panic message, or a description of the deadline overrun or
    /// snapshot validation failure.
    pub detail: String,
    /// Wall-clock seconds the attempt ran before failing.
    pub elapsed_s: f64,
    /// Deterministic backoff applied before the next attempt of this task
    /// (seconds); 0 when no retry follows. Replay-stable: a function of
    /// the policy, task index, and attempt number only — never wall-clock.
    pub backoff_s: f64,
}

impl Incident {
    /// Renders the incident as a JSON object (one JSONL row).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from("sweep_incident")),
            ("index", Json::from(self.index)),
            ("attempt", Json::from(u64::from(self.attempt))),
            ("cause", Json::from(self.cause)),
            ("detail", Json::from(self.detail.as_str())),
            ("elapsed_s", Json::from(self.elapsed_s)),
            ("backoff_s", Json::from(self.backoff_s)),
        ])
    }
}

/// Renders an incident log as JSON Lines (empty string for no incidents).
#[must_use]
pub fn incidents_to_jsonl(incidents: &[Incident]) -> String {
    let rows: Vec<Json> = incidents.iter().map(Incident::to_json).collect();
    crate::json::to_jsonl(&rows)
}

/// Failure-handling policy for [`run_indexed_resilient`].
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Wall-clock budget per attempt; an attempt still running at the
    /// deadline is abandoned (its cancellation flag raised) and counted as
    /// a timeout.
    pub deadline: Duration,
    /// How many times a failed (panicked or timed-out) task is retried. The
    /// total attempt count is `1 + retries`.
    pub retries: u32,
    /// Base delay of the deterministic exponential backoff before retry
    /// `k ≥ 1`: `backoff · 2^(k−1)`, stretched by up to 25% jitter drawn
    /// from a [`SimRng`] reseeded from the task index and attempt number —
    /// replay-stable, so the `backoff_s` recorded in the incident log is
    /// identical across reruns. [`Duration::ZERO`] retries immediately.
    pub backoff: Duration,
    /// Root directory for per-task checkpoint stores. When set, every task
    /// gets a rotating [`SnapshotStore`] under `<dir>/task-<index>` via
    /// [`TaskCtx::checkpoint_store`], shared across its attempts, so a
    /// retried task resumes from its last good snapshot instead of step 0.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot generations each per-task store retains (clamped to ≥ 1).
    pub checkpoint_keep: usize,
}

impl Default for ResiliencePolicy {
    /// 60-second deadline, one retry, 100 ms base backoff, no
    /// checkpointing.
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(60),
            retries: 1,
            backoff: Duration::from_millis(100),
            checkpoint_dir: None,
            checkpoint_keep: 3,
        }
    }
}

/// Deterministic backoff before attempt `attempt` (≥ 1) of task `index`:
/// exponential in the attempt number, jittered from a generator reseeded
/// from `(index, attempt)` so reruns of the sweep reproduce the exact same
/// delays (and the exact same `backoff_s` incident fields).
fn backoff_delay(policy: &ResiliencePolicy, index: usize, attempt: u32) -> Duration {
    if attempt == 0 || policy.backoff.is_zero() {
        return Duration::ZERO;
    }
    let doubled = policy.backoff.as_secs_f64() * f64::from(1u32 << (attempt - 1).min(16));
    let mut rng = SimRng::seed_from(0xb4c0_ff5e ^ ((index as u64) << 20) ^ u64::from(attempt));
    Duration::from_secs_f64(doubled * (1.0 + 0.25 * rng.f64()))
}

/// Per-attempt context handed to resilient-sweep task closures.
///
/// Carries the task's identity (index and attempt number for reseeding),
/// the cancellation flag the sweep raises when it abandons the attempt at
/// its deadline, and the task's rotating checkpoint store when the policy
/// configured one.
#[derive(Debug)]
pub struct TaskCtx {
    /// Task index in the sweep.
    pub index: usize,
    /// Zero-based attempt number (> 0 on retries; reseed from it).
    pub attempt: u32,
    cancel: Arc<AtomicBool>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_keep: usize,
}

impl TaskCtx {
    /// Whether the sweep has abandoned this attempt (deadline overrun).
    ///
    /// Long-running tasks should poll this at batch boundaries and return
    /// early — the sweep has already walked away, so the value is
    /// discarded, and an abandoned thread that keeps simulating burns a
    /// CPU for nothing.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Opens this task's rotating checkpoint store (shared across the
    /// task's attempts), or `None` when the policy has no
    /// [`ResiliencePolicy::checkpoint_dir`]. A retried attempt loads the
    /// newest valid snapshot from here and resumes instead of restarting.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the store directory.
    pub fn checkpoint_store(&self) -> std::io::Result<Option<SnapshotStore>> {
        match &self.checkpoint_dir {
            None => Ok(None),
            Some(dir) => SnapshotStore::open(dir, self.checkpoint_keep).map(Some),
        }
    }
}

/// Renders a panic payload (as produced by [`catch_unwind`]) as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`run_indexed`], but failures are contained instead of propagated:
/// a panicking task is caught, a hanging task is abandoned at its deadline
/// (with its [`TaskCtx`] cancellation flag raised so it can stop issuing
/// work at the next batch boundary), and both are retried under `policy`
/// after a deterministic exponential backoff, with the attempt number in
/// the context (so tasks can reseed). Slots whose every attempt failed come
/// back as [`TaskResult::Panicked`] / [`TaskResult::TimedOut`] while all
/// other slots hold their values; the incident log records every failed
/// attempt together with the backoff applied before its retry.
///
/// With [`ResiliencePolicy::checkpoint_dir`] set, every task owns a
/// rotating [`SnapshotStore`] shared across its attempts
/// ([`TaskCtx::checkpoint_store`]): an attempt saves snapshots at its own
/// cadence, and a retry loads the newest valid generation and resumes from
/// there instead of step 0 — corrupt generations are skipped with a logged
/// incident (see [`crate::snapshot`]).
///
/// Each attempt runs on its own *detached* thread so the sweep can walk away
/// from a hang; an abandoned attempt's thread keeps running in the
/// background (it cannot be killed safely), which is why `task` must be
/// `'static` and is shared by `Arc` rather than borrowed. Abandoned attempts
/// that honor [`TaskCtx::cancelled`] stop at their next batch boundary; ones
/// that don't still burn a CPU until they finish.
///
/// Under a recorder, failures bump the `sweep_panics` / `sweep_timeouts`
/// counters and every extra attempt bumps `sweep_retries`. Each attempt
/// records into its own recorder, and only the attempt whose value fills
/// the slot is merged: a failed or abandoned attempt's counts are dropped
/// with it.
///
/// # Examples
///
/// ```
/// use pp_engine::sweep::{run_indexed_resilient, ResiliencePolicy, TaskResult};
///
/// let policy = ResiliencePolicy { retries: 0, ..ResiliencePolicy::default() };
/// let (results, incidents) = run_indexed_resilient(4, 2, policy, |ctx| {
///     assert!(ctx.index != 2, "task 2 is broken");
///     ctx.index * 10
/// });
/// assert_eq!(results[0], TaskResult::Ok(0));
/// assert!(matches!(results[2], TaskResult::Panicked(_)));
/// assert_eq!(incidents.len(), 1);
/// assert_eq!(incidents[0].index, 2);
/// ```
pub fn run_indexed_resilient<T, F>(
    count: usize,
    workers: usize,
    policy: ResiliencePolicy,
    task: F,
) -> (Vec<TaskResult<T>>, Vec<Incident>)
where
    T: Send + 'static,
    F: Fn(&TaskCtx) -> T + Send + Sync + 'static,
{
    let task = Arc::new(task);
    let incidents = Mutex::new(Vec::new());
    let results = run_indexed(count, workers, |i| {
        attempt_with_policy(&task, i, &policy, &incidents)
    });
    (
        results,
        incidents.into_inner().unwrap_or_else(|e| e.into_inner()),
    )
}

/// Runs all attempts of task `i` under `policy`; records failed attempts.
fn attempt_with_policy<T, F>(
    task: &Arc<F>,
    i: usize,
    policy: &ResiliencePolicy,
    incidents: &Mutex<Vec<Incident>>,
) -> TaskResult<T>
where
    T: Send + 'static,
    F: Fn(&TaskCtx) -> T + Send + Sync + 'static,
{
    let task_checkpoint_dir = policy
        .checkpoint_dir
        .as_ref()
        .map(|d| d.join(format!("task-{i:05}")));
    // Panic payload of the most recent attempt; `None` means it timed out.
    let mut last_failure: Option<String> = None;
    for attempt in 0..=policy.retries {
        if attempt > 0 {
            recorder::add(Counter::SweepRetries, 1);
            std::thread::sleep(backoff_delay(policy, i, attempt));
        }
        // Backoff that will precede the *next* attempt, recorded in this
        // attempt's incident if it fails (0 when it is the last attempt).
        let next_backoff_s = if attempt < policy.retries {
            backoff_delay(policy, i, attempt + 1).as_secs_f64()
        } else {
            0.0
        };
        let (tx, rx) = mpsc::channel();
        let task = Arc::clone(task);
        let cancel = Arc::new(AtomicBool::new(false));
        let ctx = TaskCtx {
            index: i,
            attempt,
            cancel: Arc::clone(&cancel),
            checkpoint_dir: task_checkpoint_dir.clone(),
            checkpoint_keep: policy.checkpoint_keep,
        };
        let mut rec = recorder::with(|r| r.like());
        let t0 = Instant::now();
        // Detached on purpose: a hung attempt must not block the sweep, and
        // scoped threads cannot be abandoned. The channel send fails
        // harmlessly if the receiver has already given up.
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _installed = rec.as_mut().map(Recorder::install);
                task(&ctx)
            }));
            let _ = tx.send((outcome, rec));
        });
        match rx.recv_timeout(policy.deadline) {
            Ok((Ok(value), rec)) => {
                if let Some(rec) = rec {
                    recorder::with(|r| r.merge(rec));
                }
                return TaskResult::Ok(value);
            }
            Ok((Err(payload), _)) => {
                let detail = panic_message(payload.as_ref());
                recorder::add(Counter::SweepPanics, 1);
                incidents
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Incident {
                        index: i,
                        attempt,
                        cause: "panic",
                        detail: detail.clone(),
                        elapsed_s: t0.elapsed().as_secs_f64(),
                        backoff_s: next_backoff_s,
                    });
                last_failure = Some(detail);
            }
            Err(_) => {
                // Tell the abandoned thread to stop issuing work at its
                // next batch boundary; its eventual result is discarded.
                cancel.store(true, Ordering::Relaxed);
                last_failure = None;
                recorder::add(Counter::SweepTimeouts, 1);
                incidents
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Incident {
                        index: i,
                        attempt,
                        cause: "timeout",
                        detail: format!(
                            "attempt exceeded {:.3}s deadline",
                            policy.deadline.as_secs_f64()
                        ),
                        elapsed_s: t0.elapsed().as_secs_f64(),
                        backoff_s: next_backoff_s,
                    });
            }
        }
    }
    match last_failure {
        Some(detail) => TaskResult::Panicked(detail),
        None => TaskResult::TimedOut,
    }
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

    fn fast_policy(retries: u32) -> ResiliencePolicy {
        ResiliencePolicy {
            deadline: Duration::from_millis(200),
            retries,
            backoff: Duration::from_millis(1),
            ..ResiliencePolicy::default()
        }
    }

    #[test]
    fn resilient_sweep_contains_panics() {
        let (results, incidents) = run_indexed_resilient(6, 3, fast_policy(0), |ctx| {
            assert!(
                ctx.index % 3 != 1,
                "synthetic failure at index {}",
                ctx.index
            );
            ctx.index * 2
        });
        for (i, r) in results.iter().enumerate() {
            if i % 3 == 1 {
                match r {
                    TaskResult::Panicked(msg) => {
                        assert!(msg.contains("synthetic failure"), "{msg}");
                    }
                    other => panic!("expected panic slot, got {other:?}"),
                }
            } else {
                assert_eq!(r, &TaskResult::Ok(i * 2), "healthy slot {i}");
            }
        }
        assert_eq!(incidents.len(), 2);
        assert!(incidents.iter().all(|inc| inc.cause == "panic"));
    }

    #[test]
    fn resilient_sweep_abandons_hung_tasks() {
        let (results, incidents) = run_indexed_resilient(4, 2, fast_policy(0), |ctx| {
            if ctx.index == 2 {
                // Hang far past the deadline; the sweep must walk away.
                std::thread::sleep(Duration::from_secs(30));
            }
            ctx.index
        });
        assert_eq!(results[0], TaskResult::Ok(0));
        assert_eq!(results[1], TaskResult::Ok(1));
        assert_eq!(results[2], TaskResult::TimedOut);
        assert_eq!(results[3], TaskResult::Ok(3));
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].cause, "timeout");
        assert_eq!(incidents[0].index, 2);
    }

    #[test]
    fn resilient_sweep_retries_with_fresh_attempt_number() {
        // Fails on attempt 0, succeeds on attempt 1 — the retry-and-reseed
        // path. The incident log still shows the first failure.
        let (results, incidents) = run_indexed_resilient(3, 2, fast_policy(1), |ctx| {
            assert!(!(ctx.index == 1 && ctx.attempt == 0), "flaky first attempt");
            (ctx.index, ctx.attempt)
        });
        assert_eq!(results[0], TaskResult::Ok((0, 0)));
        assert_eq!(results[1], TaskResult::Ok((1, 1)), "recovered on retry");
        assert_eq!(results[2], TaskResult::Ok((2, 0)));
        assert_eq!(incidents.len(), 1);
        assert_eq!((incidents[0].index, incidents[0].attempt), (1, 0));
    }

    #[test]
    fn abandoned_task_stops_issuing_work_after_cancellation() {
        use std::sync::atomic::AtomicU64;
        let work = Arc::new(AtomicU64::new(0));
        let exited = Arc::new(AtomicBool::new(false));
        let (w, e) = (Arc::clone(&work), Arc::clone(&exited));
        let (results, incidents) = run_indexed_resilient(1, 1, fast_policy(0), move |ctx| {
            // A cooperative long-runner: polls the cancellation flag at each
            // "batch boundary" (here: every sleep tick) like a real sweep
            // task would.
            while !ctx.cancelled() {
                w.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
            e.store(true, Ordering::Relaxed);
        });
        assert_eq!(results[0], TaskResult::TimedOut);
        assert_eq!(incidents.len(), 1);
        // The abandoned thread saw the flag and stopped issuing work: wait
        // for it to exit, then verify the work counter no longer advances.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !exited.load(Ordering::Relaxed) {
            assert!(Instant::now() < deadline, "cancelled task never exited");
            std::thread::sleep(Duration::from_millis(5));
        }
        let frozen = work.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            work.load(Ordering::Relaxed),
            frozen,
            "abandoned task kept issuing work after cancellation"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_grows_exponentially() {
        let policy = ResiliencePolicy {
            backoff: Duration::from_millis(100),
            ..ResiliencePolicy::default()
        };
        assert_eq!(backoff_delay(&policy, 7, 0), Duration::ZERO);
        let a1 = backoff_delay(&policy, 7, 1);
        let a2 = backoff_delay(&policy, 7, 2);
        let a3 = backoff_delay(&policy, 7, 3);
        // Jitter is bounded by +25%, so doubling dominates it.
        assert!(
            a1.as_secs_f64() >= 0.100 && a1.as_secs_f64() <= 0.125,
            "{a1:?}"
        );
        assert!(
            a2.as_secs_f64() >= 0.200 && a2.as_secs_f64() <= 0.250,
            "{a2:?}"
        );
        assert!(a3 > a2 && a2 > a1, "exponential growth");
        // Replay-stable: same (index, attempt) always yields the same delay.
        assert_eq!(a2, backoff_delay(&policy, 7, 2));
        // Different tasks decorrelate their jitter.
        assert_ne!(backoff_delay(&policy, 8, 2), a2);
        let zero = ResiliencePolicy {
            backoff: Duration::ZERO,
            ..ResiliencePolicy::default()
        };
        assert_eq!(backoff_delay(&zero, 0, 3), Duration::ZERO);
    }

    #[test]
    fn incidents_record_attempt_and_backoff() {
        let policy = ResiliencePolicy {
            deadline: Duration::from_millis(200),
            retries: 1,
            backoff: Duration::from_millis(2),
            ..ResiliencePolicy::default()
        };
        let (results, incidents) = run_indexed_resilient(1, 1, policy.clone(), |ctx| -> u32 {
            panic!("always fails (attempt {})", ctx.attempt)
        });
        assert!(matches!(results[0], TaskResult::Panicked(_)));
        assert_eq!(incidents.len(), 2);
        // First failure records the backoff that preceded its retry...
        assert_eq!(incidents[0].attempt, 0);
        let expected = backoff_delay(&policy, 0, 1).as_secs_f64();
        assert_eq!(incidents[0].backoff_s, expected);
        // ...and the final failure records zero (no further retry).
        assert_eq!(incidents[1].attempt, 1);
        assert_eq!(incidents[1].backoff_s, 0.0);
        let text = incidents_to_jsonl(&incidents);
        let rows = crate::json::parse_jsonl(&text).unwrap();
        assert_eq!(
            rows[0].get("backoff_s").and_then(Json::as_f64),
            Some(expected)
        );
        assert_eq!(rows[1].get("backoff_s").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn task_ctx_exposes_per_task_checkpoint_store() {
        let dir = std::env::temp_dir().join(format!(
            "pp-sweep-ckpt-{}-{:x}",
            std::process::id(),
            SimRng::seed_from(0x5eed).next_u64()
        ));
        let policy = ResiliencePolicy {
            deadline: Duration::from_millis(500),
            checkpoint_dir: Some(dir.clone()),
            checkpoint_keep: 2,
            ..ResiliencePolicy::default()
        };
        let (results, incidents) = run_indexed_resilient(2, 1, policy, |ctx| {
            let store = ctx
                .checkpoint_store()
                .expect("store opens")
                .expect("dir configured");
            store.dir().to_path_buf()
        });
        assert!(incidents.is_empty());
        for (i, r) in results.iter().enumerate() {
            match r {
                TaskResult::Ok(path) => {
                    assert_eq!(path, &dir.join(format!("task-{i:05}")));
                    assert!(path.is_dir(), "per-task checkpoint dir created");
                }
                other => panic!("expected ok slot, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resilient_incidents_render_as_jsonl() {
        let (_, incidents) = run_indexed_resilient(2, 1, fast_policy(0), |ctx| -> u32 {
            panic!("boom {}", ctx.index)
        });
        assert_eq!(incidents.len(), 2);
        let text = incidents_to_jsonl(&incidents);
        let rows = crate::json::parse_jsonl(&text).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(
                row.get("kind").and_then(Json::as_str),
                Some("sweep_incident")
            );
            assert_eq!(row.get("cause").and_then(Json::as_str), Some("panic"));
            assert!(row
                .get("detail")
                .and_then(Json::as_str)
                .is_some_and(|d| d.contains("boom")));
        }
    }

    #[test]
    fn resilient_sweep_feeds_failure_counters() {
        let mut rec = Recorder::new();
        {
            let _installed = rec.install();
            let (_, _) = run_indexed_resilient(2, 1, fast_policy(1), |ctx| {
                assert!(!(ctx.index == 0 && ctx.attempt == 0), "first attempt fails");
                crate::recorder::add(Counter::MatchingRounds, 10 + ctx.attempt as u64);
                ctx.index
            });
        }
        let snap = rec.metrics();
        assert_eq!(snap.counter("sweep_panics"), 1);
        assert_eq!(snap.counter("sweep_retries"), 1);
        assert_eq!(snap.counter("sweep_timeouts"), 0);
        // Task 0 kept its retry (11), task 1 its first attempt (10); the
        // panicked attempt recorded nothing before failing.
        assert_eq!(snap.counter("matching_rounds"), 21);
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
        assert_eq!(snap.hist_count("sweep_task_micros"), 5);
        assert_eq!(snap.counter("matching_rounds"), 10);
        // Without a recorder the tasks get none either.
        let installed = run_indexed(3, 2, |_| crate::recorder::installed_metrics().is_some());
        assert_eq!(installed, [false; 3]);
    }
}
