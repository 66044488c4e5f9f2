//! Order-preserving parallel map over slices, and a two-task join.
//!
//! The single threaded fan-out shared by every parallel layer in the
//! workspace: the design-space sweeps and the scenario engine's batches
//! in `bright_core`, the Monte Carlo chunks and the flow-cell channel
//! solves. Items are claimed dynamically from an atomic cursor so
//! unevenly sized work still balances, results come back in input
//! order, and a worker count of 1 runs inline on the caller's thread
//! with zero overhead. [`join`] runs two independent tasks side by side
//! (the co-simulation's PDN solve beside its thermal stage). A task of a
//! spawning join, and a spawned map worker, fans out over only its
//! share of the cores. [`worker_count`] is the one worker-count policy.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    // The cores a task of a spawning `join` may fan out over on this
    // thread; `None` outside such a task.
    static SHARE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Worker count for a fan-out over `items` elements: the machine's
/// available parallelism, capped by the item count and by the
/// `BRIGHT_SWEEP_THREADS` environment variable when set. Every fan-out
/// in the workspace (scenario sweeps, channel solves) uses this one
/// policy, so `BRIGHT_SWEEP_THREADS=1` serializes *all* of them — nested
/// fan-outs included. Inside a task of a [`join`] that spawned, or a
/// worker of a map that spawned, the count is capped by that thread's
/// share of the cores as well.
#[must_use]
pub fn worker_count(items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cap = std::env::var("BRIGHT_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(usize::MAX)
        .max(1);
    let share = SHARE.with(Cell::get).unwrap_or(usize::MAX);
    hw.min(cap).min(share).min(items).max(1)
}

/// Runs `task` with this thread's [`worker_count`] capped at `share`,
/// restoring the previous cap when `task` returns or unwinds.
fn with_share<R>(share: usize, task: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SHARE.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(SHARE.with(|cell| cell.replace(Some(share))));
    task()
}

/// The share of the caller's cores each of `spawned` map workers may
/// fan out over: the caller's [`worker_count`] split evenly, at least 1.
fn worker_share(spawned: usize) -> usize {
    (worker_count(usize::MAX) / spawned).max(1)
}

/// Applies `f(index, item)` to every item using `workers` threads,
/// returning results in input order. When the map spawns, each worker
/// sees its share of the caller's [`worker_count`] (at least one), so a
/// fan-out inside `f` does not oversubscribe the cores.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn parallel_map_indexed<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let fault_override = crate::faults::thread_override();
    let spawned = workers.min(items.len());
    let share = worker_share(spawned);
    let f = |i, item| with_share(share, || f(i, item));
    std::thread::scope(|scope| {
        for _ in 0..spawned {
            scope.spawn(|| {
                // A fault-plan override scoped on the caller must also
                // govern the work it fans out.
                crate::faults::set_thread_override(fault_override);
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    local.push((i, f(i, item)));
                }
                collected
                    .lock()
                    .expect("parallel_map worker poisoned the result lock")
                    .extend(local);
            });
        }
    });
    let mut tagged = collected
        .into_inner()
        .expect("parallel_map workers poisoned the result lock");
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Runs `a` and `b` and returns both results. With `workers > 1`, `b`
/// runs on one scoped thread while `a` runs on the caller's; otherwise
/// both run inline, `a` first. Callers pass [`worker_count`]`(2)`, so
/// `BRIGHT_SWEEP_THREADS=1` serializes the pair like every fan-out. A
/// fault-plan override scoped on the caller also governs `b`.
///
/// When the pair is threaded, each task sees half the caller's
/// [`worker_count`] (at least one), so a fan-out inside a task does not
/// fight the other task for the cores. The caller's count is back once
/// `a` returns or unwinds.
///
/// # Panics
///
/// Re-raises a panic of either task with that panic's own payload; when
/// both panic, `a`'s wins. `b` has finished before the panic leaves.
pub fn join<A, B, RA, RB>(workers: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if workers <= 1 {
        let ra = a();
        return (ra, b());
    }
    let fault_override = crate::faults::thread_override();
    let share = (worker_count(usize::MAX) / 2).max(1);
    // The scope joins `b` before it returns, and re-raises a panic of
    // `a` with its payload after that; `b`'s panic is taken from its
    // handle so it keeps its payload too.
    let (ra, rb) = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            crate::faults::set_thread_override(fault_override);
            with_share(share, b)
        });
        let ra = with_share(share, a);
        (ra, handle.join())
    });
    match rb {
        Ok(rb) => (ra, rb),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Fallible variant of [`parallel_map_indexed`]: applies `f` to every
/// item, returning all results in input order, or the error produced at
/// the *lowest input index* if any call fails. Spawned workers fan out
/// over their share of the cores, as in [`parallel_map_indexed`].
///
/// Once any worker records an error, remaining workers stop claiming
/// items — only work already in flight (plus at most items at indices
/// below a recorded error, which may still override it) completes. The
/// winning error is always the first in input order among those actually
/// produced, and since no worker skips an index below the current
/// record, that is the same error a serial run would surface.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn try_parallel_map_indexed<T, R, E, F>(
    items: &[T],
    workers: usize,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    // Lowest input index that has errored so far; items at or above it
    // are cancelled. usize::MAX = no error recorded yet.
    let first_err = AtomicUsize::new(usize::MAX);
    let oks: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let errs: Mutex<Vec<(usize, E)>> = Mutex::new(Vec::new());
    let fault_override = crate::faults::thread_override();
    let spawned = workers.min(items.len());
    let share = worker_share(spawned);
    let f = |i, item| with_share(share, || f(i, item));
    std::thread::scope(|scope| {
        for _ in 0..spawned {
            scope.spawn(|| {
                crate::faults::set_thread_override(fault_override);
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    // The cursor is monotonic, so indices below the
                    // recorded error were claimed before it landed and
                    // still run to completion (one may yet lower it).
                    if i > first_err.load(Ordering::Relaxed) {
                        break;
                    }
                    match f(i, item) {
                        Ok(r) => local.push((i, r)),
                        Err(e) => {
                            first_err.fetch_min(i, Ordering::Relaxed);
                            errs.lock()
                                .expect("try_parallel_map worker poisoned the error lock")
                                .push((i, e));
                        }
                    }
                }
                oks.lock()
                    .expect("try_parallel_map worker poisoned the result lock")
                    .extend(local);
            });
        }
    });
    let recorded = errs
        .into_inner()
        .expect("try_parallel_map workers poisoned the error lock");
    if let Some((_, e)) = recorded.into_iter().min_by_key(|(i, _)| *i) {
        return Err(e);
    }
    let mut tagged = oks
        .into_inner()
        .expect("try_parallel_map workers poisoned the result lock");
    tagged.sort_unstable_by_key(|(i, _)| *i);
    Ok(tagged.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_inline_for_any_worker_count() {
        let items: Vec<usize> = (0..101).collect();
        let inline = parallel_map_indexed(&items, 1, |i, &x| (i, x * x));
        for workers in [2, 3, 8, 200] {
            assert_eq!(
                parallel_map_indexed(&items, workers, |i, &x| (i, x * x)),
                inline,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn worker_count_respects_env_cap_and_item_count() {
        // At most one worker per item; at least one worker overall.
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(64) >= 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map_indexed(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map_indexed(&[7u8], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn try_map_matches_inline_on_success() {
        let items: Vec<usize> = (0..37).collect();
        let inline: Result<Vec<usize>, ()> =
            try_parallel_map_indexed(&items, 1, |i, &x| Ok(i + x));
        for workers in [2, 4, 64] {
            let par: Result<Vec<usize>, ()> =
                try_parallel_map_indexed(&items, workers, |i, &x| Ok(i + x));
            assert_eq!(par, inline, "{workers} workers");
        }
    }

    #[test]
    fn try_map_returns_first_error_in_input_order() {
        let items: Vec<usize> = (0..64).collect();
        for workers in [1, 2, 4, 16] {
            let out: Result<Vec<usize>, usize> =
                try_parallel_map_indexed(&items, workers, |_, &x| {
                    if x % 2 == 1 && x >= 9 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                });
            assert_eq!(out, Err(9), "{workers} workers");
        }
    }

    #[test]
    fn try_map_cancels_remaining_work_after_an_error() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..4096).collect();
        let calls = AtomicUsize::new(0);
        let out: Result<Vec<usize>, usize> = try_parallel_map_indexed(&items, 4, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            if x == 10 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(out, Err(10));
        // Workers stop claiming once the error lands: far fewer than all
        // items run. Bound is loose (in-flight items still finish).
        assert!(
            calls.load(Ordering::Relaxed) < items.len() / 2,
            "expected early cancel, ran {} of {} items",
            calls.load(Ordering::Relaxed),
            items.len()
        );
    }

    /// A panic payload as text, as the engine reads it.
    fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a text payload")
    }

    #[test]
    fn join_matches_inline_and_runs_each_task_once() {
        use std::sync::atomic::AtomicUsize;
        let data: Vec<u64> = (1..=1000).collect();
        for workers in [1, 2, 8] {
            let (calls_a, calls_b) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let (sum, names) = join(
                workers,
                || {
                    calls_a.fetch_add(1, Ordering::Relaxed);
                    data.iter().sum::<u64>()
                },
                || {
                    calls_b.fetch_add(1, Ordering::Relaxed);
                    data.iter().map(|x| x * x).sum::<u64>().to_string()
                },
            );
            assert_eq!((sum, names.as_str()), (500_500, "333833500"), "{workers} workers");
            assert_eq!(calls_a.load(Ordering::Relaxed), 1, "{workers} workers");
            assert_eq!(calls_b.load(Ordering::Relaxed), 1, "{workers} workers");
        }
    }

    #[test]
    fn join_threads_only_with_more_than_one_worker() {
        let caller = std::thread::current().id();
        let ids = |workers| {
            join(workers, || std::thread::current().id(), || std::thread::current().id())
        };
        assert_eq!(ids(1), (caller, caller));
        let (a, b) = ids(2);
        assert_eq!(a, caller);
        assert_ne!(b, caller);
    }

    #[test]
    fn join_reraises_either_panic_with_its_own_payload() {
        for workers in [1, 2] {
            let in_a = std::panic::catch_unwind(|| join(workers, || panic!("task a failed"), || 2));
            assert_eq!(payload_text(in_a.unwrap_err().as_ref()), "task a failed");
            let in_b = std::panic::catch_unwind(|| {
                join(workers, || 1, || panic!("task b failed: {}", 7))
            });
            assert_eq!(payload_text(in_b.unwrap_err().as_ref()), "task b failed: 7");
            let both = std::panic::catch_unwind(|| {
                join::<_, _, (), ()>(workers, || panic!("first"), || panic!("second"))
            });
            assert_eq!(payload_text(both.unwrap_err().as_ref()), "first", "{workers} workers");
        }
    }

    #[test]
    fn join_carries_the_callers_fault_plan_into_the_spawned_task() {
        use crate::faults::{self, FaultPlan, FaultSite};
        // Firing moves the process-wide opportunity counters.
        let _serial = faults::test_serial_guard();
        // Without the override the spawned task would read the process
        // plan (`BRIGHT_FAULTS`, unset in tests) and never fire.
        let plan = FaultPlan { breakdown: 1, ..FaultPlan::default() };
        for workers in [1, 2] {
            let (a, b) = faults::with_plan(Some(plan), || {
                join(
                    workers,
                    || faults::inject(FaultSite::Breakdown),
                    || faults::inject(FaultSite::Breakdown),
                )
            });
            assert!(a && b, "{workers} workers: the plan governs both tasks");
            let (a, b) = faults::with_plan(None, || {
                join(
                    workers,
                    || faults::inject(FaultSite::Breakdown),
                    || faults::inject(FaultSite::Breakdown),
                )
            });
            assert!(!a && !b, "{workers} workers: injection forced off in both");
        }
    }

    #[test]
    fn join_tasks_fan_out_over_half_the_callers_cores() {
        let n = worker_count(usize::MAX);
        let half = (n / 2).max(1);
        let seen = join(2, || worker_count(usize::MAX), || worker_count(usize::MAX));
        assert_eq!(seen, (half, half), "{n} cores before the join");
        // A nested spawning join halves the task's share again.
        let nested = join(
            2,
            || join(2, || worker_count(usize::MAX), || worker_count(usize::MAX)),
            || (),
        );
        assert_eq!(nested.0, ((half / 2).max(1), (half / 2).max(1)));
        // An inline join leaves the count alone.
        assert_eq!(join(1, || worker_count(usize::MAX), || worker_count(usize::MAX)), (n, n));
        assert_eq!(worker_count(usize::MAX), n, "the count is back after the join");
    }

    #[test]
    fn join_share_is_restored_after_a_caught_panic() {
        let n = worker_count(usize::MAX);
        for workers in [1, 2] {
            let in_a = std::panic::catch_unwind(|| join(workers, || panic!("a"), || ()));
            assert!(in_a.is_err());
            assert_eq!(worker_count(usize::MAX), n, "{workers} workers, panic in a");
            let in_b = std::panic::catch_unwind(|| join(workers, || (), || panic!("b")));
            assert!(in_b.is_err());
            assert_eq!(worker_count(usize::MAX), n, "{workers} workers, panic in b");
        }
        // A panic caught inside a task leaves that task's share standing
        // and the caller's count intact afterwards.
        let inside = join(
            2,
            || {
                let caught = std::panic::catch_unwind(|| join(2, || panic!("inner"), || ()));
                (caught.is_err(), worker_count(usize::MAX))
            },
            || (),
        );
        assert_eq!(inside.0, (true, (n / 2).max(1)));
        assert_eq!(worker_count(usize::MAX), n);
    }

    #[test]
    fn map_workers_fan_out_over_their_share() {
        let n = worker_count(usize::MAX);
        let items = [0u8; 4];
        for spawned in [2, 3, 4] {
            let share = (n / spawned).max(1);
            let seen = parallel_map_indexed(&items, spawned, |_, _| worker_count(usize::MAX));
            assert!(
                seen.iter().all(|&w| w == share),
                "{spawned} workers: {seen:?}"
            );
            let tried: Result<Vec<usize>, ()> =
                try_parallel_map_indexed(&items, spawned, |_, _| Ok(worker_count(usize::MAX)));
            assert!(
                tried.unwrap().iter().all(|&w| w == share),
                "{spawned} workers"
            );
        }
        // An inline map leaves the count alone, and the caller's count is
        // back after a spawning one.
        assert_eq!(
            parallel_map_indexed(&items, 1, |_, _| worker_count(usize::MAX)),
            vec![n; 4]
        );
        assert_eq!(worker_count(usize::MAX), n);
        // A worker that unwinds restores its thread's share on the way
        // out, and the panic reaches the caller.
        let caught = std::panic::catch_unwind(|| {
            parallel_map_indexed(&items, 2, |i, _| {
                let inner = std::panic::catch_unwind(|| {
                    with_share(1, || panic!("inner"));
                });
                assert!(inner.is_err());
                assert_eq!(worker_count(usize::MAX), (n / 2).max(1), "item {i}");
                if i == 3 {
                    panic!("worker failed");
                }
            })
        });
        assert!(caught.is_err());
        assert_eq!(worker_count(usize::MAX), n);
    }

    #[test]
    fn try_map_inline_path_stops_at_first_error() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..20).collect();
        let calls = AtomicUsize::new(0);
        let out: Result<Vec<usize>, usize> = try_parallel_map_indexed(&items, 1, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            if x >= 7 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(out, Err(7));
        assert_eq!(calls.load(Ordering::Relaxed), 8);
    }
}
