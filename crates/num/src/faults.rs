//! Deterministic fault-injection harness for the solve pipeline.
//!
//! The robustness work in this workspace (session recovery ladders,
//! engine panic isolation, adaptive-timestep retry) is only trustworthy
//! if the failure paths can be exercised on demand. This module provides
//! a seeded, deterministic way to inject four classes of faults into the
//! hot path:
//!
//! * [`FaultSite::NanCorruption`] — after a successful Krylov solve, the
//!   session pokes a NaN into the solution and scratch workspace so the
//!   post-solve state validation trips,
//! * [`FaultSite::Breakdown`] — the session's first attempt is replaced
//!   by a synthetic `NumError::Breakdown` (a forced rho-breakdown),
//! * [`FaultSite::BudgetTruncation`] — the session's first attempt runs
//!   with its iteration budget truncated to one sweep,
//! * [`FaultSite::WorkerPanic`] — an engine worker panics mid-request
//!   (via [`maybe_panic`]), exercising `catch_unwind` isolation,
//! * [`FaultSite::ServiceCrash`] — the durable scenario service "loses
//!   power" at a store write site (via [`maybe_crash`]): the panic
//!   models a process kill, and the crash-matrix tests restart the
//!   service afterwards to prove the journal recovers,
//! * [`FaultSite::TornWrite`] — a store write persists only a prefix of
//!   its bytes and then the process dies ([`torn_write`]), exercising
//!   per-record checksum detection on recovery.
//!
//! Injection is compiled in always and gated at runtime. A plan comes
//! from one of two places, in priority order:
//!
//! 1. a thread-local override installed by [`with_plan`] (tests and
//!    benches use this for hermetic, plan-exact runs; the override is
//!    propagated into fan-out workers spawned by
//!    [`crate::parallel::parallel_map_indexed`] and into the second
//!    task of [`crate::parallel::join`]),
//! 2. the `BRIGHT_FAULTS` environment variable, parsed once per process
//!    (e.g. `BRIGHT_FAULTS=seed=2014,nan=5,breakdown=7,budget=6`).
//!
//! When neither is present every gate collapses to a thread-local read
//! plus one lazy-initialized load — effectively free next to a sparse
//! solve.
//!
//! # Firing rule
//!
//! Each site keeps a global monotonically increasing opportunity
//! counter. With a plan installed, the `n`-th opportunity at a site with
//! period `p > 0` fires iff `n % p == seed % p`. A period of `0`
//! disables the site. This makes the *number* of injected faults in a
//! run deterministic for a given plan, independent of thread
//! interleaving (which request absorbs a given fault may vary under
//! parallel dispatch; the recovery invariants asserted by the tests hold
//! either way). Use a period larger than the expected opportunity count
//! (e.g. [`FaultPlan::one_shot_panic`]) to fire a site exactly once.
//!
//! # Scoped counters
//!
//! The counters above are process-global, which is right for
//! `BRIGHT_FAULTS`-driven CI sweeps but wrong for per-test crash
//! matrices: two tests in one binary would shift each other's firing
//! phases just by *counting* opportunities. [`with_scope`] installs a
//! plan **and** a fresh, zeroed, thread-local counter set for the
//! duration of a closure, so a fixed seed addresses the same opportunity
//! no matter what ran before it on other threads. (Scoped counters are
//! thread-local and are not propagated into fan-out workers — scope
//! code whose injection sites run on the calling thread, which is true
//! of every service store-write site.)

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Periods (plus a seed) describing how often each fault site fires.
///
/// A period of `0` disables that site; see the module docs for the
/// firing rule. The plan is `Copy` so it can be captured into fan-out
/// workers and compared in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed offsetting the firing phase of every site.
    pub seed: u64,
    /// Period of post-solve NaN corruption (0 = off).
    pub nan: u64,
    /// Period of forced rho-breakdowns (0 = off).
    pub breakdown: u64,
    /// Period of iteration-budget truncation (0 = off).
    pub budget: u64,
    /// Period of scripted worker panics (0 = off).
    pub panic: u64,
    /// Period of scripted service crashes at store write sites (0 = off).
    pub crash: u64,
    /// Period of scripted torn store writes (0 = off).
    pub torn: u64,
}

impl FaultPlan {
    /// Parses the `BRIGHT_FAULTS` syntax: comma-separated `key=value`
    /// pairs with keys `seed`, `nan`, `breakdown`, `budget`, `panic`.
    /// Omitted keys default to `0` (seed `0`, all sites off).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys, malformed
    /// pairs or unparsable values.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{part}`"))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("`{key}` wants an unsigned integer, got `{value}`"))?;
            match key.trim() {
                "seed" => plan.seed = value,
                "nan" => plan.nan = value,
                "breakdown" => plan.breakdown = value,
                "budget" => plan.budget = value,
                "panic" => plan.panic = value,
                "crash" => plan.crash = value,
                "torn" => plan.torn = value,
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Reads the plan from `BRIGHT_FAULTS`, falling back to `default`
    /// when the variable is unset or malformed. Lets seeded CI runs
    /// steer the plan used by robustness tests while keeping those tests
    /// meaningful without the variable.
    #[must_use]
    pub fn from_env_or(default: Self) -> Self {
        env_plan().unwrap_or(default)
    }

    /// A plan whose panic site fires exactly once, at the `shot`-th
    /// opportunity (1-based), and never again: the period is far larger
    /// than any realistic opportunity count.
    #[must_use]
    pub fn one_shot_panic(shot: u64) -> Self {
        Self { seed: shot, panic: u64::MAX, ..Self::default() }
    }

    /// A plan whose service-crash site fires exactly once, at the
    /// `shot`-th store-write opportunity (1-based). The kill-and-restart
    /// matrix iterates `shot` over every write site of a serving run.
    #[must_use]
    pub fn one_shot_crash(shot: u64) -> Self {
        Self { seed: shot, crash: u64::MAX, ..Self::default() }
    }

    /// A plan whose torn-write site fires exactly once, at the `shot`-th
    /// store-write opportunity (1-based).
    #[must_use]
    pub fn one_shot_torn(shot: u64) -> Self {
        Self { seed: shot, torn: u64::MAX, ..Self::default() }
    }

    fn period(&self, site: FaultSite) -> u64 {
        match site {
            FaultSite::NanCorruption => self.nan,
            FaultSite::Breakdown => self.breakdown,
            FaultSite::BudgetTruncation => self.budget,
            FaultSite::WorkerPanic => self.panic,
            FaultSite::ServiceCrash => self.crash,
            FaultSite::TornWrite => self.torn,
        }
    }
}

/// The four injection points wired into the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Corrupt the solution/workspace with a NaN after a clean solve.
    NanCorruption,
    /// Replace a solve attempt with a synthetic rho-breakdown error.
    Breakdown,
    /// Truncate a solve attempt's iteration budget to one sweep.
    BudgetTruncation,
    /// Panic inside an engine worker serving a request.
    WorkerPanic,
    /// Kill the scenario-service process at a store write site.
    ServiceCrash,
    /// Persist a truncated store record, then kill the process.
    TornWrite,
}

const SITES: usize = 6;

/// Panic payload of an injected service crash — recovery tests match on
/// it to tell a scripted kill from a genuine bug.
pub const CRASH_PANIC_PAYLOAD: &str = "injected service crash (bright_num::faults)";

/// Panic payload of an injected torn write.
pub const TORN_PANIC_PAYLOAD: &str = "injected torn write (bright_num::faults)";

static ENV_PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
static COUNTERS: [AtomicU64; SITES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

thread_local! {
    // None = no override; Some(None) = injection forced off in scope;
    // Some(Some(plan)) = plan forced in scope.
    static OVERRIDE: Cell<Option<Option<FaultPlan>>> = const { Cell::new(None) };
    // Some(counters) while a `with_scope` body runs on this thread.
    static SCOPED_COUNTERS: std::cell::RefCell<Option<[u64; SITES]>> =
        const { std::cell::RefCell::new(None) };
}

fn env_plan() -> Option<FaultPlan> {
    *ENV_PLAN.get_or_init(|| {
        let text = std::env::var("BRIGHT_FAULTS").ok()?;
        match FaultPlan::parse(&text) {
            Ok(plan) => Some(plan),
            Err(message) => {
                eprintln!("bright-num: ignoring BRIGHT_FAULTS ({message})");
                None
            }
        }
    })
}

fn current_plan() -> Option<FaultPlan> {
    match OVERRIDE.with(Cell::get) {
        Some(forced) => forced,
        None => env_plan(),
    }
}

/// Snapshot of this thread's override, for propagation into fan-out
/// workers (captured before `thread::scope`, installed inside it).
pub(crate) fn thread_override() -> Option<Option<FaultPlan>> {
    OVERRIDE.with(Cell::get)
}

/// Installs an override snapshot on the current (worker) thread.
pub(crate) fn set_thread_override(snapshot: Option<Option<FaultPlan>>) {
    OVERRIDE.with(|cell| cell.set(snapshot));
}

/// Runs `body` with `plan` forced on this thread (and on any fan-out
/// workers it spawns through this crate), restoring the previous state
/// afterwards — including on unwind. `Some(plan)` injects per `plan`;
/// `None` forces injection off even if `BRIGHT_FAULTS` is set, which is
/// how clean-reference runs are taken inside a seeded process.
pub fn with_plan<R>(plan: Option<FaultPlan>, body: impl FnOnce() -> R) -> R {
    struct Restore(Option<Option<FaultPlan>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_thread_override(self.0);
        }
    }
    let guard = Restore(thread_override());
    set_thread_override(Some(plan));
    let out = body();
    drop(guard);
    out
}

/// Resets every site's opportunity counter to zero. Tests and benches
/// call this before a scripted run so firing phases are reproducible
/// within one process.
pub fn reset_counters() {
    for counter in &COUNTERS {
        counter.store(0, Ordering::Relaxed);
    }
}

/// Runs `body` with `plan` forced **and** a fresh, zeroed, thread-local
/// opportunity-counter set, restoring both afterwards — including on
/// unwind (the crash matrix relies on that: an injected crash panics out
/// of the scope). Unlike the raw [`with_plan`] + [`reset_counters`]
/// combination, a scoped run neither reads nor moves the process-global
/// counters, so fixed per-test seeds stay reproducible no matter what
/// other tests of the binary are doing concurrently.
pub fn with_scope<R>(plan: Option<FaultPlan>, body: impl FnOnce() -> R) -> R {
    struct Restore(Option<[u64; SITES]>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_COUNTERS.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let previous = SCOPED_COUNTERS.with(|c| c.borrow_mut().replace([0; SITES]));
    let guard = Restore(previous);
    let out = with_plan(plan, body);
    drop(guard);
    out
}

/// Records one opportunity at `site` and reports whether a fault fires
/// there under the active plan (if any). Inside a [`with_scope`] body
/// the opportunity is counted on the scope's own counters; otherwise on
/// the process-global ones.
#[must_use]
pub fn inject(site: FaultSite) -> bool {
    let Some(plan) = current_plan() else { return false };
    let period = plan.period(site);
    if period == 0 {
        return false;
    }
    let scoped = SCOPED_COUNTERS.with(|c| {
        c.borrow_mut().as_mut().map(|counters| {
            counters[site as usize] += 1;
            counters[site as usize]
        })
    });
    let n = scoped.unwrap_or_else(|| COUNTERS[site as usize].fetch_add(1, Ordering::Relaxed) + 1);
    n % period == plan.seed % period
}

/// Panics with a recognizable payload when the [`FaultSite::WorkerPanic`]
/// site fires. Engine workers call this once per request they serve.
pub fn maybe_panic() {
    if inject(FaultSite::WorkerPanic) {
        panic!("injected worker panic (bright_num::faults)");
    }
}

/// Panics with [`CRASH_PANIC_PAYLOAD`] when the
/// [`FaultSite::ServiceCrash`] site fires. The durable scenario service
/// calls this at every store write site (before and after the write), so
/// a fixed-seed sweep kills the process at each persistence boundary in
/// turn.
pub fn maybe_crash() {
    if inject(FaultSite::ServiceCrash) {
        panic!("{}", CRASH_PANIC_PAYLOAD);
    }
}

/// Records a torn-write opportunity. When the site fires, returns
/// `Some(prefix_len)` — the caller must persist only the first
/// `prefix_len` bytes of its `len`-byte record and then call
/// [`torn_write_panic`], modelling a power cut mid-write.
#[must_use]
pub fn torn_write(len: usize) -> Option<usize> {
    inject(FaultSite::TornWrite).then_some(len / 2)
}

/// Dies the way a torn write dies: panics with [`TORN_PANIC_PAYLOAD`]
/// after the truncated bytes hit the store.
pub fn torn_write_panic() -> ! {
    panic!("{}", TORN_PANIC_PAYLOAD);
}

/// `true` when `payload` (a caught panic payload) is one of this
/// module's scripted process-kill panics ([`maybe_crash`] /
/// [`torn_write_panic`]) rather than a genuine bug.
#[must_use]
pub fn is_injected_kill(payload: &(dyn std::any::Any + Send)) -> bool {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    message == CRASH_PANIC_PAYLOAD || message == TORN_PANIC_PAYLOAD
}

/// Serializes tests that depend on exact opportunity-counter values.
/// The counters are process-global, so a concurrently running test that
/// merely *increments* a site would shift another test's firing phase.
/// (Tests with period-1 or one-shot plans only need this when they read
/// exact patterns, or when another test of the same binary does.)
#[cfg(test)]
pub(crate) fn test_serial_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_full_and_partial_plans() {
        let plan =
            FaultPlan::parse("seed=42, nan=5,breakdown=7,budget=6,panic=3,crash=2,torn=9").unwrap();
        assert_eq!(
            plan,
            FaultPlan { seed: 42, nan: 5, breakdown: 7, budget: 6, panic: 3, crash: 2, torn: 9 }
        );
        let partial = FaultPlan::parse("seed=9,nan=2").unwrap();
        assert_eq!(partial, FaultPlan { seed: 9, nan: 2, ..FaultPlan::default() });
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_values() {
        assert!(FaultPlan::parse("frequency=3").is_err());
        assert!(FaultPlan::parse("nan=often").is_err());
        assert!(FaultPlan::parse("nan").is_err());
    }

    #[test]
    fn injection_is_off_without_a_plan() {
        with_plan(None, || {
            for _ in 0..64 {
                assert!(!inject(FaultSite::Breakdown));
            }
        });
    }

    #[test]
    fn firing_follows_the_period_and_seed() {
        let _serial = test_serial_guard();
        let plan = FaultPlan { seed: 2, nan: 4, ..FaultPlan::default() };
        with_plan(Some(plan), || {
            reset_counters();
            let fired: Vec<bool> = (0..8).map(|_| inject(FaultSite::NanCorruption)).collect();
            // n = 1..=8 fires when n % 4 == 2 % 4, i.e. n = 2 and n = 6.
            assert_eq!(fired, vec![false, true, false, false, false, true, false, false]);
            // Sites are independent: the breakdown site has period 0.
            assert!(!inject(FaultSite::Breakdown));
        });
    }

    #[test]
    fn one_shot_panic_fires_exactly_once() {
        let _serial = test_serial_guard();
        let plan = FaultPlan::one_shot_panic(3);
        with_plan(Some(plan), || {
            reset_counters();
            let fired: Vec<bool> = (0..16).map(|_| inject(FaultSite::WorkerPanic)).collect();
            assert_eq!(fired.iter().filter(|f| **f).count(), 1);
            assert!(fired[2]);
        });
    }

    #[test]
    fn scoped_counters_are_fresh_and_do_not_touch_the_globals() {
        let _serial = test_serial_guard();
        reset_counters();
        // Burn three global crash opportunities so a leaky scope would
        // be phase-shifted.
        with_plan(Some(FaultPlan { crash: 1 << 40, ..FaultPlan::default() }), || {
            for _ in 0..3 {
                let _ = inject(FaultSite::ServiceCrash);
            }
        });
        let plan = FaultPlan::one_shot_crash(2);
        let fired: Vec<bool> =
            with_scope(Some(plan), || (0..4).map(|_| inject(FaultSite::ServiceCrash)).collect());
        assert_eq!(fired, vec![false, true, false, false], "scope must start at zero");
        // Identical scopes fire identically — no state leaked out of the
        // first one.
        let again: Vec<bool> =
            with_scope(Some(plan), || (0..4).map(|_| inject(FaultSite::ServiceCrash)).collect());
        assert_eq!(again, fired);
        // The global counter is exactly where the pre-scope burn left it.
        assert_eq!(COUNTERS[FaultSite::ServiceCrash as usize].load(Ordering::Relaxed), 3);
    }

    #[test]
    fn scope_is_restored_across_an_unwind() {
        let plan = FaultPlan::one_shot_crash(1);
        let caught = std::panic::catch_unwind(|| {
            with_scope(Some(plan), || {
                maybe_crash();
            });
        });
        let payload = caught.expect_err("crash seed 1 fires on the first opportunity");
        assert!(is_injected_kill(payload.as_ref()));
        // Scope and override are both gone: injection is back to the
        // ambient (disabled) state.
        with_plan(None, || assert!(!inject(FaultSite::ServiceCrash)));
        assert!(SCOPED_COUNTERS.with(|c| c.borrow().is_none()));
    }

    #[test]
    fn torn_write_reports_a_prefix_length() {
        with_scope(Some(FaultPlan::one_shot_torn(1)), || {
            assert_eq!(torn_write(100), Some(50));
            assert_eq!(torn_write(100), None, "one shot only");
        });
    }

    #[test]
    fn with_plan_restores_the_previous_override() {
        let outer = FaultPlan { seed: 1, breakdown: 1, ..FaultPlan::default() };
        with_plan(Some(outer), || {
            reset_counters();
            with_plan(None, || assert!(!inject(FaultSite::Breakdown)));
            // Period 1 fires on every opportunity once the scope is restored.
            assert!(inject(FaultSite::Breakdown));
        });
    }
}
