//! Kill-and-restart matrix for the durable scenario service.
//!
//! The central claim of `bright_core::service` is that a process kill
//! at **any** persistence point — before or after every spec, journal,
//! checkpoint and report write, plus torn (half-persisted) variants of
//! each — loses nothing: after a restart the service recovers, finishes
//! the queue, and the resulting report files are **bitwise identical**
//! to an uninterrupted run. The matrix here proves it by brute force:
//! it re-runs a fixed job mix with a one-shot kill scheduled at the
//! `shot`-th write opportunity, for every `shot` until the schedule
//! runs past the last opportunity, and compares the recovered report
//! directory byte-for-byte against the clean baseline each time.
//!
//! The rest of the file covers the admission-control contract
//! (overload shedding, deadline rejection and expiry), checkpoint
//! corruption (cold re-run), retry/backoff after a worker panic,
//! cancellation durability, the equality of a transient served by the
//! service and by the engine, and the persisted transient `progress`
//! document (its fields and its pre-ramp form).

use bright_core::service::{
    JobId, JobKind, JobSpec, JobStatus, JobStore, JournalEvent, LoadRef, Priority,
};
use bright_core::{
    LoadRamp, LoadStep, ReportPayload, ScenarioEngine, ScenarioService, ServiceClock,
    ServiceConfig, ServiceError, SteppingMode, TransientRequest,
};
use bright_jsonio::Value;
use bright_num::faults::{self, FaultPlan};
use bright_thermal::AdaptiveConfig;
use bright_units::Kelvin;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A fixed submission instant (fits in the id's 48 timestamp bits).
const T0: u64 = 1_700_000_000_000;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bright_service_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Coarsens a spec so one job costs milliseconds, not seconds.
fn coarse(mut spec: JobSpec) -> JobSpec {
    spec.overrides.thermal_columns = Some(11);
    spec.overrides.thermal_ny = Some(8);
    spec.overrides.cell_ny = Some(10);
    spec.overrides.cell_nx = Some(16);
    spec.overrides.sweep_points = Some(4);
    spec
}

fn steady_spec() -> JobSpec {
    coarse(JobSpec::steady("power7_reduced"))
}

fn transient_spec() -> JobSpec {
    let mut spec = coarse(JobSpec::steady("power7_reduced"));
    spec.kind = JobKind::Transient {
        trace: vec![
            (3e-3, LoadRef::full_load(), None),
            (3e-3, LoadRef::cache_only(), None),
        ],
        initial_temperature_k: 300.0,
        stepping: SteppingMode::Fixed { dt: 1e-3 },
    };
    spec.priority = Priority::Batch;
    spec
}

fn polarization_spec() -> JobSpec {
    let mut spec = coarse(JobSpec::steady("power7_reduced"));
    spec.kind = JobKind::Polarization { points: 4 };
    spec.priority = Priority::Interactive;
    spec
}

fn open_service(root: &Path) -> ScenarioService {
    ScenarioService::open(root, ServiceConfig::default(), ServiceClock::manual(T0))
        .expect("service opens and recovers")
}

/// Every report file's raw bytes, keyed by file name.
fn report_bytes(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let dir = root.join("reports");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).expect("report readable"));
    }
    out
}

fn run_clean(root: &Path, specs: &[JobSpec]) -> BTreeMap<String, Vec<u8>> {
    let mut svc = open_service(root);
    for spec in specs {
        svc.submit(spec.clone()).expect("clean run admits the mix");
    }
    svc.drain().expect("clean drain");
    report_bytes(root)
}

/// Runs the matrix: for each `shot`, a fresh store is driven through
/// submit-everything + drain with a one-shot kill at the `shot`-th
/// write opportunity; the killed store is then reopened, unaccepted
/// jobs resubmitted, and the drained result compared bitwise against
/// the uninterrupted baseline. Stops when a shot no longer fires (the
/// schedule ran past the final opportunity).
fn kill_matrix(name: &str, plan_for: fn(u64) -> FaultPlan) {
    let specs = vec![steady_spec(), transient_spec()];
    let baseline_dir = test_dir(&format!("{name}_baseline"));
    let baseline = run_clean(&baseline_dir, &specs);
    assert_eq!(baseline.len(), specs.len(), "baseline completes every job");

    let mut kills = 0u64;
    let mut resumed_segments = 0u64;
    let mut dropped_records = 0u64;
    for shot in 1..200u64 {
        let dir = test_dir(&format!("{name}_shot{shot}"));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faults::with_scope(Some(plan_for(shot)), || {
                let mut svc = open_service(&dir);
                for spec in &specs {
                    svc.submit(spec.clone()).expect("bounded queue admits the mix");
                }
                svc.drain().expect("drain");
            })
        }));
        match run {
            Ok(()) => {
                // No kill fired: `shot` walked past the last write
                // opportunity and the matrix is complete.
                assert!(kills > 0, "{name} matrix never killed — sites not wired?");
                assert_eq!(report_bytes(&dir), baseline, "clean tail run matches");
                let _ = std::fs::remove_dir_all(&dir);
                let _ = std::fs::remove_dir_all(&baseline_dir);
                assert!(
                    resumed_segments > 0,
                    "{name}: some kill must land mid-transient and resume from checkpoint"
                );
                if name == "torn" {
                    assert!(
                        dropped_records > 0,
                        "torn matrix must produce at least one dropped journal record"
                    );
                }
                eprintln!("{name} matrix: {kills} kill points recovered bitwise-identically");
                return;
            }
            Err(payload) => {
                assert!(
                    faults::is_injected_kill(payload.as_ref()),
                    "{name} shot {shot} unwound with a genuine bug, not the scripted kill"
                );
                kills += 1;
            }
        }

        // Restart after the kill: recover, resubmit whatever was never
        // durably accepted, and finish the queue. The manual clock
        // restarts at the same instant and the mint sequence resumes
        // from the journaled submission count, so resubmissions mint
        // the *same* ids the baseline run minted.
        let mut svc = open_service(&dir);
        let accepted = svc.statuses().len();
        assert!(accepted <= specs.len(), "recovery must not invent jobs");
        for spec in &specs[accepted..] {
            svc.submit(spec.clone()).expect("resubmission after recovery");
        }
        for (id, status) in svc.statuses() {
            if matches!(status, JobStatus::Queued { .. }) {
                if let Some(p) = svc.partial_report(id) {
                    assert!(p.segments_done >= 1 && p.segments_done <= p.segments_total);
                    assert!(p.trace_peak.value() >= 300.0);
                }
            }
        }
        svc.drain().expect("recovery drain");
        let statuses = svc.statuses();
        assert_eq!(
            statuses.len(),
            specs.len(),
            "{name} shot {shot}: zero lost or duplicated jobs"
        );
        for (id, status) in &statuses {
            assert_eq!(
                *status,
                JobStatus::Done,
                "{name} shot {shot}: job {id} must complete after recovery"
            );
        }
        assert_eq!(
            report_bytes(&dir),
            baseline,
            "{name} shot {shot}: recovered reports must be bitwise identical"
        );
        resumed_segments += svc.stats().resumed_segments;
        dropped_records += svc.stats().dropped_records;
        let _ = std::fs::remove_dir_all(&dir);
    }
    panic!("{name} matrix did not exhaust its write opportunities within 200 shots");
}

#[test]
fn crash_matrix_recovers_bitwise_identical_reports() {
    kill_matrix("crash", FaultPlan::one_shot_crash);
}

#[test]
fn torn_write_matrix_recovers_bitwise_identical_reports() {
    kill_matrix("torn", FaultPlan::one_shot_torn);
}

#[test]
fn mixed_batch_serves_by_priority_and_survives_restart() {
    let dir = test_dir("smoke");
    let mut svc = open_service(&dir);
    let steady = svc.submit(steady_spec()).expect("steady admitted");
    let transient = svc.submit(transient_spec()).expect("transient admitted");
    let polar = svc.submit(polarization_spec()).expect("polarization admitted");

    // Interactive dispatches before Normal before Batch, regardless of
    // submission order.
    assert_eq!(svc.run_next().expect("dispatch"), Some(polar));
    assert_eq!(svc.run_next().expect("dispatch"), Some(steady));
    assert_eq!(svc.run_next().expect("dispatch"), Some(transient));
    assert_eq!(svc.run_next().expect("dispatch"), None, "queue is empty");
    svc.drain().expect("drain writes the status snapshot");

    for (id, kind) in [(steady, "steady"), (transient, "transient"), (polar, "polarization")] {
        assert_eq!(svc.status(id).expect("known"), JobStatus::Done);
        let payload = svc.report(id).expect("report readable");
        let served = match payload {
            ReportPayload::Steady(_) => "steady",
            ReportPayload::Transient(_) => "transient",
            ReportPayload::Polarization(_) => "polarization",
        };
        assert_eq!(served, kind);
    }
    assert!(
        svc.partial_report(transient).is_none(),
        "completed jobs keep no resume state"
    );
    let stats = svc.stats();
    assert_eq!((stats.submitted, stats.completed, stats.failed), (3, 3, 0));
    assert!(svc.engine_stats().cache_residents > 0, "workers stay cached");
    assert!(dir.join("status.json").exists(), "operator snapshot written");

    // A restart of a fully drained store changes nothing.
    drop(svc);
    let svc = open_service(&dir);
    assert_eq!(svc.statuses().len(), 3);
    assert!(svc.statuses().iter().all(|(_, s)| *s == JobStatus::Done));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_burst_sheds_with_typed_errors() {
    let dir = test_dir("overload");
    let config = ServiceConfig {
        queue_capacity: 4,
        ..ServiceConfig::default()
    };
    let mut svc =
        ScenarioService::open(&dir, config, ServiceClock::manual(T0)).expect("service opens");
    let mut accepted = 0u32;
    let mut shed = 0u32;
    // A burst of 10x the queue bound: everything past the bound gets a
    // typed rejection, nothing hangs, nothing is silently dropped.
    for _ in 0..40 {
        match svc.submit(steady_spec()) {
            Ok(_) => accepted += 1,
            Err(ServiceError::Overloaded { queued, capacity }) => {
                assert_eq!((queued, capacity), (4, 4));
                shed += 1;
            }
            Err(e) => panic!("burst rejection must be Overloaded, got {e}"),
        }
    }
    assert_eq!((accepted, shed), (4, 36));
    assert_eq!(svc.stats().rejected_overloaded, 36);

    // Draining restores admission capacity.
    svc.drain().expect("drain");
    assert!(svc.submit(steady_spec()).is_ok(), "capacity recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadlines_reject_at_admission_and_expire_at_dispatch() {
    let dir = test_dir("deadline");
    let clock = ServiceClock::manual(T0);
    let hands = clock.clone();
    let mut svc = ScenarioService::open(&dir, ServiceConfig::default(), clock).expect("opens");

    svc.record_estimate("steady", 10_000);
    let mut tight = steady_spec();
    tight.deadline_ms = Some(5_000);
    match svc.submit(tight) {
        Err(ServiceError::DeadlineUnmeetable {
            deadline_ms,
            estimate_ms,
        }) => assert_eq!((deadline_ms, estimate_ms), (5_000, 10_000)),
        other => panic!("expected DeadlineUnmeetable, got {other:?}"),
    }
    assert_eq!(svc.stats().rejected_deadline, 1);

    let mut loose = steady_spec();
    loose.deadline_ms = Some(20_000);
    let id = svc.submit(loose).expect("meetable deadline admits");

    // The job sits queued past its deadline; dispatch fails it
    // permanently instead of running stale work.
    if let ServiceClock::Manual(ms) = &hands {
        ms.store(T0 + 30_000, std::sync::atomic::Ordering::SeqCst);
    }
    svc.run_next().expect("dispatch");
    match svc.status(id).expect("known") {
        JobStatus::Failed { error } => {
            assert!(error.contains("deadline expired"), "got: {error}");
        }
        other => panic!("expected a permanent deadline failure, got {other:?}"),
    }
    assert_eq!(svc.stats().failed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checkpoint_falls_back_to_a_cold_rerun() {
    let baseline_dir = test_dir("ck_baseline");
    let baseline = run_clean(&baseline_dir, &[transient_spec()]);

    let dir = test_dir("ck_corrupt");
    let mut svc = open_service(&dir);
    let id = svc.submit(transient_spec()).expect("admitted");
    std::fs::write(svc.store().checkpoint_path(id), b"not a checkpoint at all")
        .expect("corruption written");
    svc.drain().expect("drain");
    assert_eq!(svc.stats().cold_reruns, 1, "corruption must not be trusted");
    assert_eq!(svc.status(id).expect("known"), JobStatus::Done);
    assert_eq!(report_bytes(&dir), baseline, "cold re-run is still exact");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&baseline_dir);
}

#[test]
fn a_panicking_attempt_backs_off_retries_and_matches_the_clean_report() {
    let baseline_dir = test_dir("retry_baseline");
    let baseline = run_clean(&baseline_dir, &[transient_spec()]);

    let dir = test_dir("retry");
    // One scripted worker panic at the first integration opportunity:
    // the attempt fails retryable, backs off, and the retry completes.
    let (status, stats, reports) =
        faults::with_scope(Some(FaultPlan::one_shot_panic(1)), || {
            let mut svc = open_service(&dir);
            let id = svc.submit(transient_spec()).expect("admitted");
            svc.drain().expect("drain");
            (svc.status(id).expect("known"), svc.stats(), report_bytes(&dir))
        });
    assert_eq!(status, JobStatus::Done);
    assert_eq!(stats.retries, 1, "exactly one backoff retry");
    assert_eq!(stats.failed, 0);
    assert_eq!(reports, baseline, "the retried report is bitwise identical");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&baseline_dir);
}

#[test]
fn cancellation_is_durable_across_restart() {
    let dir = test_dir("cancel");
    let mut svc = open_service(&dir);
    let keep = svc.submit(steady_spec()).expect("admitted");
    let dropped = svc.submit(steady_spec()).expect("admitted");
    svc.cancel(dropped).expect("cancel");
    assert_eq!(svc.status(dropped).expect("known"), JobStatus::Cancelled);
    svc.drain().expect("drain");
    assert_eq!(svc.status(keep).expect("known"), JobStatus::Done);
    assert_eq!(svc.status(dropped).expect("known"), JobStatus::Cancelled);
    assert!(!svc.store().report_path(dropped).exists());
    assert!(svc.report(dropped).is_err(), "no report for a cancelled job");
    assert_eq!(svc.stats().cancelled, 1);

    drop(svc);
    let svc = open_service(&dir);
    assert_eq!(svc.status(dropped).expect("known"), JobStatus::Cancelled);
    assert_eq!(svc.status(keep).expect("known"), JobStatus::Done);
    assert!(matches!(
        svc.status(JobId::mint(T0, 99)),
        Err(ServiceError::UnknownJob(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_journal_tail_cannot_fuse_with_the_next_record() {
    use std::io::Write;
    let dir = test_dir("tail");
    let store = JobStore::open(&dir).expect("store opens");
    let a = JobId::mint(T0, 0);
    let b = JobId::mint(T0, 1);
    store.append(&JournalEvent::Submitted { id: a }).expect("append");
    // Simulate a torn append from a previous life: a partial line with
    // no terminating newline.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("journal.log"))
        .expect("journal exists");
    file.write_all(b"{\"crc\":\"dead").expect("partial write");
    drop(file);
    // The next append must terminate the garbage, not fuse with it.
    store.append(&JournalEvent::Submitted { id: b }).expect("append");
    let recovered = store.recover().expect("recover");
    assert_eq!(recovered.dropped_records, 1, "exactly the torn garbage line");
    assert_eq!(recovered.submitted_total, 2, "both real records survive");
    assert_eq!(recovered.jobs.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A three-segment transient spec whose first segment optionally
/// throttles the pump.
fn three_segment_spec(stepping: SteppingMode, ramp: Option<LoadRamp>) -> JobSpec {
    let mut spec = transient_spec();
    spec.kind = JobKind::Transient {
        trace: vec![
            (3e-3, LoadRef::full_load(), ramp),
            (2e-3, LoadRef::cache_only(), None),
            (3e-3, LoadRef::full_load(), None),
        ],
        initial_temperature_k: 300.0,
        stepping,
    };
    spec
}

#[test]
fn service_and_engine_serve_a_transient_identically() {
    // The durable service integrates a transient job segment by
    // segment with a checkpoint between segments; the engine serves the
    // same request as one batch. Both must produce the same outcome,
    // bit for bit, under either stepping mode, with or without a ramp.
    let fixed = SteppingMode::Fixed { dt: 1e-3 };
    let adaptive = SteppingMode::Adaptive(AdaptiveConfig::default());
    for (case, stepping, ramp) in [
        ("fixed", fixed, None),
        ("fixed_ramp", fixed, Some(LoadRamp::flow(1.0, 0.5))),
        ("adaptive", adaptive, None),
        ("adaptive_ramp", adaptive, Some(LoadRamp::flow(1.0, 0.5))),
    ] {
        let spec = three_segment_spec(stepping, ramp);
        let dir = test_dir(&format!("paths_{case}"));
        let mut svc = open_service(&dir);
        let id = svc.submit(spec.clone()).expect("admitted");
        svc.drain().expect("drain");
        let ReportPayload::Transient(served) = svc.report(id).expect("report") else {
            panic!("{case}: a transient job must yield a transient report");
        };
        let JobKind::Transient {
            trace,
            initial_temperature_k,
            stepping,
        } = &spec.kind
        else {
            unreachable!()
        };
        let request = TransientRequest {
            scenario: spec.scenario().expect("scenario"),
            trace: trace
                .iter()
                .map(|(duration, load, ramp)| LoadStep {
                    duration: *duration,
                    load: load.resolve().expect("load"),
                    ramp: *ramp,
                })
                .collect(),
            initial_temperature: Kelvin::new(*initial_temperature_k),
            stepping: *stepping,
        };
        let mut engine = ScenarioEngine::new();
        engine.set_deterministic(true);
        let mut reports = engine.run_transient_batch([request]);
        let batched = reports.pop().expect("one report").result.expect("engine serve");
        assert_eq!(
            served.to_json().to_json_string(),
            batched.to_json().to_json_string(),
            "{case}: service and engine paths diverged"
        );
        assert!(served.solves > 0 && served.final_peak.value() > 300.0, "{case}");
        if ramp.is_some() {
            assert!(served.coefficient_refreshes > 0, "{case}: the ramp must re-stamp");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn transient_progress_document_keeps_its_fields_and_reads_legacy_state() {
    let baseline_dir = test_dir("progress_baseline");
    let baseline = run_clean(&baseline_dir, &[transient_spec()]);

    // Kill the first attempt right after its first `segment` record is
    // durable: walk the one-shot crash forward until the journal holds
    // one.
    let mut killed = None;
    for shot in 1..40u64 {
        let dir = test_dir(&format!("progress_shot{shot}"));
        let mut svc = open_service(&dir);
        let id = svc.submit(transient_spec()).expect("admitted");
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faults::with_scope(Some(FaultPlan::one_shot_crash(shot)), || {
                svc.drain().expect("drain");
            })
        }));
        let payload = run.expect_err("the crash fires before the job completes");
        assert!(faults::is_injected_kill(payload.as_ref()));
        let journal = std::fs::read_to_string(dir.join("journal.log")).expect("journal");
        let segment_logged = journal.lines().any(|line| {
            bright_jsonio::checksummed::parse(line)
                .ok()
                .and_then(|v| JournalEvent::from_json(&v))
                .is_some_and(|e| matches!(e, JournalEvent::Segment { index: 0, .. }))
        });
        if segment_logged {
            killed = Some((dir, id));
            break;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (dir, id) = killed.expect("some shot lands after the first segment record");

    // The persisted progress object keeps exactly these fields.
    let store = JobStore::open(&dir).expect("store opens");
    let mut state = store.load_checkpoint(id).expect("checkpoint verifies");
    let Some(Value::Object(progress)) = state.get("progress").cloned() else {
        panic!("checkpoint state carries a progress object");
    };
    let keys: Vec<&str> = progress.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "peak",
            "recovered",
            "refreshes",
            "rejected",
            "retries",
            "segments_done",
            "solves",
            "steps"
        ]
    );
    assert_eq!(progress["segments_done"].as_usize(), Some(1));

    // Rewrite it the way pre-ramp builds wrote it: no `refreshes`. The
    // store re-checksums the envelope, so the legacy state verifies.
    let mut legacy = progress;
    legacy.remove("refreshes");
    if let Value::Object(fields) = &mut state {
        fields.insert("progress".into(), Value::Object(legacy));
    }
    store.write_checkpoint(id, &state).expect("legacy state written");
    drop(store);

    let mut svc = open_service(&dir);
    svc.drain().expect("recovery drain");
    assert_eq!(svc.status(id).expect("known"), JobStatus::Done);
    assert_eq!(svc.stats().resumed_segments, 1, "the legacy state resumes");
    assert_eq!(report_bytes(&dir), baseline, "the resumed report is bitwise identical");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&baseline_dir);
}

#[test]
fn cache_capacity_bounds_the_service_engine() {
    // `ServiceConfig::cache_capacity` must reach the serving engine: a
    // capacity-1 store fed two operator patterns evicts the first
    // worker and stays within the bound.
    let dir = test_dir("cache_bound");
    let config = ServiceConfig {
        cache_capacity: 1,
        ..ServiceConfig::default()
    };
    let mut svc =
        ScenarioService::open(&dir, config, ServiceClock::manual(T0)).expect("service opens");
    let mut second = steady_spec();
    second.overrides.thermal_ny = Some(11); // a different operator pattern
    for spec in [steady_spec(), second] {
        let id = svc.submit(spec).expect("admitted");
        svc.run_next().expect("dispatch");
        assert_eq!(svc.status(id).expect("known"), JobStatus::Done);
    }
    let stats = svc.engine_stats();
    assert!(stats.evicted_workers >= 1, "{stats:?}");
    assert_eq!(stats.cache_capacity, 1, "{stats:?}");
    assert!(stats.cache_residents <= 3, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives `spec` through a fresh store with a one-shot crash walked
/// forward until the journal holds the job's first `segment` record;
/// returns the killed store.
fn killed_after_first_segment(name: &str, spec: &JobSpec) -> PathBuf {
    for shot in 1..60u64 {
        let dir = test_dir(&format!("{name}_shot{shot}"));
        let mut svc = open_service(&dir);
        svc.submit(spec.clone()).expect("admitted");
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faults::with_scope(Some(FaultPlan::one_shot_crash(shot)), || {
                svc.drain().expect("drain");
            })
        }));
        let payload = run.expect_err("the crash fires before the job completes");
        assert!(faults::is_injected_kill(payload.as_ref()));
        let journal = std::fs::read_to_string(dir.join("journal.log")).expect("journal");
        let segment_logged = journal.lines().any(|line| {
            bright_jsonio::checksummed::parse(line)
                .ok()
                .and_then(|v| JournalEvent::from_json(&v))
                .is_some_and(|e| matches!(e, JournalEvent::Segment { index: 0, .. }))
        });
        if segment_logged {
            return dir;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    panic!("{name}: no shot landed after the first segment record");
}

#[test]
fn a_ramped_transient_resumed_after_its_first_segment_reports_identically() {
    // The first segment throttles the pump; the second returns to the
    // nominal point. A job killed between them resumes from the
    // checkpoint into a fresh integrator, as every segment of an
    // uninterrupted run starts, so the report bytes match, the
    // coefficient re-stamp count included.
    let ramp = Some(LoadRamp::flow(1.0, 0.5));
    for (case, stepping) in [
        ("fixed", SteppingMode::Fixed { dt: 1e-3 }),
        ("adaptive", SteppingMode::Adaptive(AdaptiveConfig::default())),
    ] {
        let spec = three_segment_spec(stepping, ramp);
        let baseline_dir = test_dir(&format!("ramp_resume_{case}_baseline"));
        let baseline = run_clean(&baseline_dir, std::slice::from_ref(&spec));
        assert_eq!(baseline.len(), 1, "{case}: the clean run completes");

        let dir = killed_after_first_segment(&format!("ramp_resume_{case}"), &spec);
        let mut svc = open_service(&dir);
        svc.drain().expect("recovery drain");
        assert_eq!(svc.stats().resumed_segments, 1, "{case}: the job resumes");
        assert_eq!(report_bytes(&dir), baseline, "{case}: resumed report diverged");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&baseline_dir);
    }
}
