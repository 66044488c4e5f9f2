//! Order-preserving parallel map over slices.
//!
//! The single threaded-fan-out implementation shared by every sweep
//! layer in the workspace (`bright_core::sweeps`, the flow-cell channel
//! fan-out). Items are claimed dynamically from an atomic cursor so
//! unevenly sized work still balances, results come back in input
//! order, and a worker count of 1 runs inline on the caller's thread
//! with zero overhead. Worker-count *policy* (hardware detection,
//! environment caps) stays with the callers; this module only executes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for a fan-out over `items` elements: the machine's
/// available parallelism, capped by the item count and by the
/// `BRIGHT_SWEEP_THREADS` environment variable when set. Every fan-out
/// in the workspace (scenario sweeps, channel solves) uses this one
/// policy, so `BRIGHT_SWEEP_THREADS=1` serializes *all* of them — nested
/// fan-outs included.
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
    hw.min(cap).min(items).max(1)
}

/// Applies `f(index, item)` to every item using `workers` threads,
/// returning results in input order.
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
    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
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

/// Fallible variant of [`parallel_map_indexed`]: applies `f` to every
/// item, returning all results in input order, or the error produced at
/// the *lowest input index* if any call fails.
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
    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
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
