//! PR-6 robustness gate: fault-tolerant solve pipeline. Records the
//! results in `BENCH_PR6.json`.
//!
//! Two gate families, mirroring the acceptance criteria:
//!
//! * `session_recovery_overhead` — repeated refresh+solve epochs on a
//!   representative SPD operator with the recovery ladder **enabled**
//!   (the default) vs. `RecoveryPolicy::disabled()`, faults off. The
//!   ladder must cost nothing on the clean path: all it adds is a
//!   handful of branch checks and a post-solve finite scan. Gate:
//!   enabled ≤ 1.05× disabled (plus a millisecond of absolute slack
//!   for timer noise on short runs).
//! * `seeded_fault_batch` — a mixed steady/transient/polarization
//!   engine batch of 20 requests under a seeded fault plan combining
//!   NaN corruption, forced breakdowns, budget truncation and one
//!   scripted worker panic. Gates: the caller never panics, exactly
//!   one request reports `WorkerPanic`, every other request completes
//!   `Ok`, and the engine's recovery/degradation counters are
//!   consistent.
//!
//! Usage: `bench_pr6 [--quick] [--out <path>]` (default `BENCH_PR6.json`).

use bright_core::{
    CoreError, EngineReport, LoadStep, PolarizationRequest, Scenario, ScenarioEngine,
    ScenarioRequest, SteppingMode, TransientRequest,
};
use bright_jsonio::Value;
use bright_num::faults::{self, FaultPlan};
use bright_num::solvers::IterOptions;
use bright_num::{PrecondSpec, RecoveryPolicy, SolverSession, TripletMatrix};
use bright_units::{CubicMetersPerSecond, Kelvin};
use std::hint::black_box;
use std::time::Instant;

fn time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One untimed warm-up, then the best of `reps` timed repetitions
    // (minimum is the least noisy statistic on a shared host).
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// A 1-D diffusion chain with a conductance knob — the same operator
/// family the thermal/PDN sessions refresh between sweep points.
fn chain(n: usize, k: f64) -> TripletMatrix {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0 * k + 1.0).unwrap();
        if i > 0 {
            t.push(i, i - 1, -k).unwrap();
        }
        if i + 1 < n {
            t.push(i, i + 1, -k).unwrap();
        }
    }
    t
}

struct OverheadRow {
    disabled_s: f64,
    enabled_s: f64,
    epochs: usize,
}

impl OverheadRow {
    fn overhead(&self) -> f64 {
        self.enabled_s / self.disabled_s - 1.0
    }
}

/// Gate 1: the recovery ladder must be free when nothing fails.
fn bench_recovery_overhead(reps: usize, n: usize, epochs: usize) -> OverheadRow {
    let b = vec![1.0; n];
    let timed = |policy: RecoveryPolicy| {
        let mut session = SolverSession::new(IterOptions {
            preconditioner: PrecondSpec::ssor(),
            ..IterOptions::default()
        });
        session.set_recovery_policy(policy);
        session.bind_triplets(&chain(n, 1.0)).unwrap();
        let mut epoch = 0u64;
        time(reps, || {
            // Faults forced off: this is the clean path by construction,
            // even if the environment carries a BRIGHT_FAULTS plan.
            faults::with_plan(None, || {
                for e in 0..epochs {
                    let k = 1.0 + 0.25 * (e % 5) as f64;
                    epoch += 1;
                    session.refresh_values(&chain(n, k), epoch).unwrap();
                    black_box(session.solve_spd(&b).unwrap());
                }
            })
        })
    };
    let disabled_s = timed(RecoveryPolicy::disabled());
    let enabled_s = timed(RecoveryPolicy::default());
    OverheadRow {
        disabled_s,
        enabled_s,
        epochs,
    }
}

struct FaultBatchRow {
    requests: usize,
    ok: usize,
    worker_panics: usize,
    degraded: usize,
    recovered_solves: u64,
    quarantined_workers: u64,
    panicked_requests: u64,
}

/// Gate 2: the acceptance batch — mixed request kinds under a seeded
/// fault plan; returns per-kind outcome counts for the gate checks.
fn bench_seeded_fault_batch() -> FaultBatchRow {
    let flow_scenario = |ml_min: f64| {
        let mut s = Scenario::power7_reduced();
        s.total_flow = CubicMetersPerSecond::from_milliliters_per_minute(ml_min);
        s
    };
    let transient_request = || TransientRequest {
        scenario: Scenario::power7_reduced(),
        trace: vec![LoadStep::new(0.01, bright_floorplan::PowerScenario::full_load())],
        initial_temperature: Kelvin::new(300.0),
        stepping: SteppingMode::Fixed { dt: 2e-3 },
    };

    let plan = FaultPlan {
        seed: 5,
        nan: 5,
        breakdown: 7,
        budget: 6,
        panic: u64::MAX, // one shot, at opportunity n == seed
        ..FaultPlan::default()
    };
    let mut engine = ScenarioEngine::new();
    for i in 0..10 {
        let s = flow_scenario(650.0 - 30.0 * i as f64);
        engine.submit(ScenarioRequest::Steady(s));
    }
    for _ in 0..6 {
        engine.submit(ScenarioRequest::Transient(transient_request()));
    }
    for i in 0..4 {
        let mut s = Scenario::power7_reduced();
        s.inlet_temperature = Kelvin::new(300.0 + i as f64);
        engine.submit(ScenarioRequest::Polarization(PolarizationRequest::new(s)));
    }
    // The scripted panic is expected and isolated by the engine; keep
    // the default hook from spraying a backtrace over the bench output.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let reports = faults::with_plan(Some(plan), || {
        faults::reset_counters();
        engine.run()
    });
    std::panic::set_hook(hook);

    let mut ok = 0usize;
    let mut worker_panics = 0usize;
    let mut degraded = 0usize;
    for r in &reports {
        let (is_ok, is_panic, is_degraded) = match r {
            EngineReport::Steady(s) => (
                s.result.is_ok(),
                matches!(s.result, Err(CoreError::WorkerPanic(_))),
                s.degraded.is_some(),
            ),
            EngineReport::Transient(t) => (
                t.result.is_ok(),
                matches!(t.result, Err(CoreError::WorkerPanic(_))),
                t.degraded.is_some(),
            ),
            EngineReport::Polarization(p) => (
                p.result.is_ok(),
                matches!(p.result, Err(CoreError::WorkerPanic(_))),
                p.degraded.is_some(),
            ),
        };
        ok += usize::from(is_ok);
        worker_panics += usize::from(is_panic);
        degraded += usize::from(is_degraded);
    }
    let stats = engine.stats();
    FaultBatchRow {
        requests: reports.len(),
        ok,
        worker_panics,
        degraded,
        recovered_solves: stats.recovered_solves,
        quarantined_workers: stats.quarantined_workers,
        panicked_requests: stats.panicked_requests,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR6.json".to_string());
    let reps = if quick { 3 } else { 6 };
    let n = if quick { 1200 } else { 2500 };
    let epochs = if quick { 10 } else { 20 };

    bright_bench::banner(
        "BENCH_PR6",
        "fault-tolerant solve pipeline: ladder overhead, seeded-fault batch",
    );

    let overhead = bench_recovery_overhead(reps, n, epochs);
    println!(
        "  session_recovery_overhead    disabled {:>9.4} s  enabled {:>9.4} s  overhead {:>6.2}%  ({} refresh+solve epochs)",
        overhead.disabled_s,
        overhead.enabled_s,
        overhead.overhead() * 100.0,
        overhead.epochs,
    );

    let batch = bench_seeded_fault_batch();
    println!(
        "  seeded_fault_batch           {} requests: {} ok, {} panicked, {} degraded; {} recovered solves, {} quarantined workers",
        batch.requests,
        batch.ok,
        batch.worker_panics,
        batch.degraded,
        batch.recovered_solves,
        batch.quarantined_workers,
    );

    let doc = Value::object([
        (
            "session_recovery_overhead".into(),
            Value::object([
                ("disabled_s".into(), Value::Number(overhead.disabled_s)),
                ("enabled_s".into(), Value::Number(overhead.enabled_s)),
                ("overhead".into(), Value::Number(overhead.overhead())),
                ("epochs".into(), Value::Number(overhead.epochs as f64)),
            ]),
        ),
        (
            "seeded_fault_batch".into(),
            Value::object([
                ("requests".into(), Value::Number(batch.requests as f64)),
                ("ok".into(), Value::Number(batch.ok as f64)),
                (
                    "worker_panics".into(),
                    Value::Number(batch.worker_panics as f64),
                ),
                ("degraded".into(), Value::Number(batch.degraded as f64)),
                (
                    "recovered_solves".into(),
                    Value::Number(batch.recovered_solves as f64),
                ),
                (
                    "quarantined_workers".into(),
                    Value::Number(batch.quarantined_workers as f64),
                ),
            ]),
        ),
        ("quick".into(), Value::Bool(quick)),
        (
            "gates".into(),
            Value::object([
                ("max_clean_path_overhead".into(), Value::Number(0.05)),
                ("required_worker_panics".into(), Value::Number(1.0)),
            ]),
        ),
    ]);
    std::fs::write(&out_path, doc.to_json_string_pretty() + "\n").expect("write BENCH_PR6.json");
    println!("  results written to {out_path}");

    // Fail loudly when an acceptance gate regresses.
    let mut failed = false;
    // A millisecond of absolute slack keeps short timed sections from
    // tripping the relative gate on timer noise alone.
    if overhead.enabled_s > overhead.disabled_s * 1.05 + 1e-3 {
        eprintln!(
            "GATE FAILED: clean-path recovery overhead {:.2}% > 5%",
            overhead.overhead() * 100.0
        );
        failed = true;
    }
    if batch.requests != 20 || batch.worker_panics != 1 || batch.ok != batch.requests - 1 {
        eprintln!(
            "GATE FAILED: seeded batch must complete 19/20 with exactly one WorkerPanic, got {} ok / {} panicked of {}",
            batch.ok, batch.worker_panics, batch.requests
        );
        failed = true;
    }
    if batch.panicked_requests != batch.worker_panics as u64 {
        eprintln!(
            "GATE FAILED: engine panicked_requests {} disagrees with reports {}",
            batch.panicked_requests, batch.worker_panics
        );
        failed = true;
    }
    if batch.recovered_solves == 0 || batch.degraded == 0 {
        eprintln!(
            "GATE FAILED: seeded plan must exercise the recovery ladder \
             ({} recovered solves, {} degraded reports)",
            batch.recovered_solves, batch.degraded
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("  all robustness gates passed");
}
