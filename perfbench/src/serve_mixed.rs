//! `serve_mixed`: one client drives a fresh durable `ScenarioService`
//! store per batch: it submits a seeded mix of steady, transient and
//! polarization jobs, calls `run_next` until the queue is empty, reads
//! every report back, then reopens the store and checks the recovery.
//!
//! The traced run also replays each batch, in the service's dispatch
//! order, through a bare deterministic `ScenarioEngine`, so the cost of
//! durability (journal, spec/report/checkpoint files) shows as the
//! difference.

use crate::measure::{ensure, mean, measure_window, median, quantile, timed, Ctx, Outcome, Rng};
use bright_core::service::{JobKind, JobSpec, JobStatus, LoadRef, Priority, ReportPayload};
use bright_core::{
    LoadRamp, LoadStep, PolarizationRequest, ScenarioEngine, ScenarioService, ServiceClock,
    ServiceConfig, SteppingMode, TransientRequest,
};
use bright_units::Kelvin;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SETUPS: usize = 15;
const STEADY: usize = 8;
const TRANSIENT: usize = 8;
const POLARIZATION: usize = 24;
/// Batches always served per run, so the job-time percentiles rest on
/// at least `MIN_BATCHES * 40` samples.
const MIN_BATCHES: usize = 3;

fn batch(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let mut specs = Vec::new();
    for _ in 0..STEADY {
        let mut spec = JobSpec::steady("power7_reduced");
        spec.overrides.total_flow_ml_min = Some(rng.uniform(400.0, 700.0).round());
        specs.push(spec);
    }
    for k in 0..TRANSIENT {
        let mut spec = JobSpec::steady("power7_reduced");
        let full = LoadRef {
            base: "full_load".into(),
            scale: rng.uniform(0.8, 1.0),
        };
        let ramp = (k % 2 == 0).then(|| LoadRamp::flow(1.0, 0.5));
        spec.kind = JobKind::Transient {
            trace: vec![(4e-3, full, ramp), (4e-3, LoadRef::cache_only(), None)],
            initial_temperature_k: 300.0,
            stepping: SteppingMode::Fixed { dt: 1e-3 },
        };
        spec.priority = Priority::Batch;
        specs.push(spec);
    }
    for _ in 0..POLARIZATION {
        let mut spec = JobSpec::steady("power7_reduced");
        spec.kind = JobKind::Polarization { points: 6 };
        spec.overrides.inlet_temperature_k = Some(rng.uniform(298.0, 310.0));
        spec.priority = Priority::Interactive;
        specs.push(spec);
    }
    specs
}

/// The kind of the job at `index` of a batch (0 steady, 1 transient,
/// 2 polarization): `batch` lists the kinds in that order.
fn kind_of(index: usize) -> usize {
    if index < STEADY {
        0
    } else if index < STEADY + TRANSIENT {
        1
    } else {
        2
    }
}

fn check_payload(payload: &ReportPayload) -> Result<(), String> {
    match payload {
        ReportPayload::Steady(r) => ensure(
            r.peak_temperature.value() > 300.0
                && r.peak_temperature.value() < 360.0
                && r.pdn_min_voltage.value() > 0.93
                && r.pdn_min_voltage.value() < 0.995
                && r.current_at_1v.value() > 0.0,
            || format!("steady report out of band: {}", r.summary()),
        ),
        ReportPayload::Transient(o) => ensure(
            o.trace_peak.value() >= o.final_peak.value()
                && o.final_peak.value() > 300.0
                && (o.end_time - 8e-3).abs() < 1e-9,
            || format!("transient outcome out of band: {o:?}"),
        ),
        ReportPayload::Polarization(o) => ensure(
            o.array_ocv.value() > 1.5
                && o.array_ocv.value() < 1.8
                && o.current_at_1v.is_some_and(|i| i.value() > 0.0),
            || format!("polarization outcome out of band: ocv {}", o.array_ocv),
        ),
    }
}

fn open(dir: &Path) -> Result<ScenarioService, String> {
    ScenarioService::open(dir, ServiceConfig::default(), ServiceClock::System).ctx("open store")
}

/// Everything one batch measured.
#[derive(Default)]
struct Batch {
    submit_ms: Vec<f64>,
    /// (spec index, run_next ms) in dispatch order.
    served: Vec<(usize, f64)>,
    read_ms: Vec<f64>,
    reopen_ms: f64,
    /// Submit → drain → read-back wall time.
    total_ms: f64,
    report_bytes: Vec<Vec<u8>>,
    journal_records: u64,
    journal_bytes: u64,
    store_bytes: u64,
    engine: bright_core::EngineStats,
    dropped_records: u64,
    failed_jobs: Vec<String>,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

fn serve_batch(dir: &Path, specs: &[JobSpec]) -> Result<Batch, String> {
    let mut b = Batch::default();
    let mut svc = open(dir)?;
    let t0 = Instant::now();
    let mut ids = Vec::new();
    for spec in specs {
        let (id, ms) = timed(|| svc.submit(spec.clone()));
        ids.push(id.ctx("submit")?);
        b.submit_ms.push(ms);
    }
    loop {
        let (next, ms) = timed(|| svc.run_next());
        let Some(id) = next.ctx("run_next")? else {
            break;
        };
        let index = ids
            .iter()
            .position(|i| *i == id)
            .ok_or("unknown job served")?;
        b.served.push((index, ms));
    }
    for id in &ids {
        let (report, ms) = timed(|| svc.report(*id));
        b.read_ms.push(ms);
        match report.ctx("report").and_then(|r| check_payload(&r)) {
            Ok(()) => b
                .report_bytes
                .push(std::fs::read(svc.store().report_path(*id)).ctx("report file")?),
            Err(e) => {
                b.failed_jobs.push(e);
                b.report_bytes.push(Vec::new());
            }
        }
    }
    b.total_ms = t0.elapsed().as_secs_f64() * 1e3;

    let journal = std::fs::read_to_string(dir.join("journal.log")).ctx("journal")?;
    b.journal_records = journal.lines().count() as u64;
    b.journal_bytes = journal.len() as u64;
    b.store_bytes = dir_bytes(dir);
    b.engine = svc.engine_stats();
    drop(svc);

    let (reopened, reopen_ms) = timed(|| open(dir));
    let reopened = reopened?;
    b.reopen_ms = reopen_ms;
    let statuses = reopened.statuses();
    let stats = reopened.stats();
    b.dropped_records = stats.dropped_records;
    ensure(
        statuses.len() == specs.len()
            && statuses.iter().all(|(_, s)| *s == JobStatus::Done)
            && stats.completed == specs.len() as u64
            && stats.dropped_records == 0,
        || {
            format!(
                "reopen recovered {} of {} jobs ({} done), {} dropped records",
                statuses.len(),
                specs.len(),
                stats.completed,
                stats.dropped_records
            )
        },
    )?;
    Ok(b)
}

/// Serves the batch's jobs one at a time through a bare deterministic
/// engine, in `order`; returns (spec index, ms) per job.
fn engine_replay(specs: &[JobSpec], order: &[usize]) -> Result<Vec<(usize, f64)>, String> {
    let mut engine = ScenarioEngine::new();
    engine.set_deterministic(true);
    let mut times = Vec::new();
    for &i in order {
        let spec = &specs[i];
        let scenario = spec.scenario().ctx("scenario")?;
        let ok = match &spec.kind {
            JobKind::Steady => {
                let (r, ms) = timed(|| engine.run_batch([scenario]));
                times.push((i, ms));
                r.iter().all(|r| r.result.is_ok())
            }
            JobKind::Transient {
                trace,
                initial_temperature_k,
                stepping,
            } => {
                let mut steps = Vec::new();
                for (duration, load, ramp) in trace {
                    let step = LoadStep::new(*duration, load.resolve().ctx("load")?);
                    steps.push(match ramp {
                        Some(r) => step.with_ramp(*r),
                        None => step,
                    });
                }
                let request = TransientRequest {
                    scenario,
                    trace: steps,
                    initial_temperature: Kelvin::new(*initial_temperature_k),
                    stepping: *stepping,
                };
                let (r, ms) = timed(|| engine.run_transient_batch([request]));
                times.push((i, ms));
                r.iter().all(|r| r.result.is_ok())
            }
            JobKind::Polarization { points } => {
                let mut request = PolarizationRequest::new(scenario);
                request.points = *points;
                let (r, ms) = timed(|| engine.run_polarization_batch([request]));
                times.push((i, ms));
                r.iter().all(|r| r.result.is_ok())
            }
        };
        ensure(ok, || format!("engine replay of job {i} failed"))?;
    }
    Ok(times)
}

/// A per-process directory inside the checkout for the stores.
fn work_root() -> PathBuf {
    PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()))
}

fn cold_setup(dir: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut svc = open(dir)?;
    svc.submit(JobSpec::steady("power7_reduced"))
        .ctx("submit")?;
    svc.run_next().ctx("run_next")?;
    let secs = t0.elapsed().as_secs_f64();
    drop(svc);
    std::fs::remove_dir_all(dir).ctx("remove store")?;
    Ok(secs)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let root = work_root();
    let mut setup_s = Vec::new();
    for k in 0..SETUPS {
        if let Some(s) = out.record(cold_setup(&root.join(format!("setup-{k}")))) {
            setup_s.push(s);
        }
    }
    out.set("setup_s", median(&setup_s));

    // Batches come in pairs of one seeded job list, so each pair checks
    // that a fresh store serves identical report bytes while the run
    // still covers many job lists.
    let mut rng = Rng::new(seed);
    let mut specs = Vec::new();
    let mut batches: Vec<Batch> = Vec::new();
    let mut engine_times: Vec<(usize, f64)> = Vec::new();
    let mut first_bytes: Vec<Vec<u8>> = Vec::new();
    measure_window(seconds, MIN_BATCHES, |k| {
        if k % 2 == 0 {
            specs = batch(rng.next_u64());
        }
        let dir = root.join(format!("batch-{k}"));
        let result = serve_batch(&dir, &specs);
        let _ = std::fs::remove_dir_all(&dir);
        let Some(b) = out.record(result) else {
            return;
        };
        // One operation per job beyond the batch itself.
        out.attempted += specs.len() as u64 - 1;
        out.failed += b.failed_jobs.len() as u64;
        for e in &b.failed_jobs {
            eprintln!("job failed: {e}");
        }
        if k % 2 == 0 {
            first_bytes = b.report_bytes.clone();
        } else if first_bytes != b.report_bytes {
            out.check(Err(format!(
                "batch {k}: report bytes differ from batch {}",
                k - 1
            )));
        }
        if trace {
            let order: Vec<usize> = b.served.iter().map(|(i, _)| *i).collect();
            match engine_replay(&specs, &order) {
                Ok(t) => engine_times.extend(t),
                Err(e) => out.check(Err(e)),
            }
        }
        batches.push(b);
    });
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(root.parent().expect("work root has a parent"));
    if batches.is_empty() {
        return out;
    }

    let job_ms: Vec<f64> = batches
        .iter()
        .flat_map(|b| b.served.iter().map(|s| s.1))
        .collect();
    if !trace {
        let batch_ms: Vec<f64> = batches.iter().map(|b| b.total_ms).collect();
        out.set("op_ms_p50", median(&job_ms));
        out.set("work_per_s", specs.len() as f64 / (median(&batch_ms) / 1e3));
        return out;
    }

    let pooled = |f: fn(&Batch) -> &Vec<f64>| -> Vec<f64> {
        batches.iter().flat_map(|b| f(b).iter().copied()).collect()
    };
    let by_kind = |times: &[(usize, f64)], kind: usize| -> f64 {
        mean(
            &times
                .iter()
                .filter(|(i, _)| kind_of(*i) == kind)
                .map(|(_, ms)| *ms)
                .collect::<Vec<_>>(),
        )
    };
    let served: Vec<(usize, f64)> = batches
        .iter()
        .flat_map(|b| b.served.iter().copied())
        .collect();
    const SERVICE: [&str; 3] = [
        "service.serve_ms.steady",
        "service.serve_ms.transient",
        "service.serve_ms.polarization",
    ];
    const ENGINE: [&str; 3] = [
        "engine.serve_ms.steady",
        "engine.serve_ms.transient",
        "engine.serve_ms.polarization",
    ];
    for (kind, (service, engine)) in SERVICE.into_iter().zip(ENGINE).enumerate() {
        out.set(service, by_kind(&served, kind));
        out.set(engine, by_kind(&engine_times, kind));
    }
    let engine_ms: Vec<f64> = engine_times.iter().map(|t| t.1).collect();
    out.set("service.durability_ms", mean(&job_ms) - mean(&engine_ms));
    out.set("service.job_ms_p90", quantile(&job_ms, 0.9));
    out.set("service.submit_ms", mean(&pooled(|b| &b.submit_ms)));
    out.set("service.report_read_ms", mean(&pooled(|b| &b.read_ms)));
    out.set(
        "service.open_ms",
        mean(&batches.iter().map(|b| b.reopen_ms).collect::<Vec<_>>()),
    );
    let covered: f64 = batches
        .iter()
        .map(|b| {
            b.submit_ms.iter().sum::<f64>()
                + b.served.iter().map(|s| s.1).sum::<f64>()
                + b.read_ms.iter().sum::<f64>()
        })
        .sum();
    let total: f64 = batches.iter().map(|b| b.total_ms).sum();
    out.set("trace.coverage_pct", 100.0 * covered / total);

    // Counters of one batch (a fresh store and engine each time).
    let b = &batches[0];
    out.set("service.journal_records", b.journal_records as f64);
    out.set("service.journal_bytes", b.journal_bytes as f64);
    out.set("service.store_bytes", b.store_bytes as f64);
    out.set("service.dropped_records", b.dropped_records as f64);
    out.set("engine.operators_built", b.engine.operators_built as f64);
    out.set("engine.operator_reuses", b.engine.operator_reuses as f64);
    out.set(
        "engine.cell_contexts_built",
        b.engine.cell_contexts_built as f64,
    );
    out.set(
        "engine.cell_context_reuses",
        b.engine.cell_context_reuses as f64,
    );
    out.label("engine.kernel", b.engine.kernel_backend.name());
    out.label("engine.kernel_threads", b.engine.kernel_threads.to_string());
    out.label("engine.precond", format!("{:?}", b.engine.preconditioner));
    out
}
