//! A durable scenario service around the [`crate::ScenarioEngine`]: a
//! crash-recoverable job queue with admission control, deadlines,
//! retries with exponential backoff, and bounded worker caches.
//!
//! # Durability model
//!
//! Every state change is journaled ([`store::JournalEvent`]) *after*
//! the file write it describes: a spec file before its `submit` record,
//! a report file before its `done` record, a checkpoint file before its
//! `segment` record. All files are checksummed envelopes written with
//! atomic temp-file + rename ([`bright_jsonio::checksummed`]), so a
//! kill at **any** instant leaves a store [`ScenarioService::open`] can
//! recover: the journal replays last-state-wins, a torn journal tail is
//! dropped, a `done` job with a missing/corrupt report re-runs, and an
//! interrupted transient resumes from its persisted checkpoint.
//!
//! # Determinism
//!
//! The service runs its engine in deterministic mode
//! ([`crate::ScenarioEngine::set_deterministic`]): every answer is
//! bitwise-equal to a cold-built engine at the same scenario, so the
//! report set after a crash/restart is **bitwise identical** to an
//! uninterrupted run — the property the recovery test matrix asserts.
//! Report payloads carry no timestamps or attempt counts (those live in
//! the journal), so the files themselves are comparable.
//!
//! # Admission and degradation
//!
//! [`ScenarioService::submit`] rejects with typed errors instead of
//! queueing unboundedly: [`ServiceError::Overloaded`] past the queue
//! bound, [`ServiceError::DeadlineUnmeetable`] when the service's
//! running estimate for the job's kind cannot meet its deadline. At
//! dispatch an expired deadline fails the job permanently. Retryable
//! errors (including worker panics that survived the engine's recovery
//! ladder, `docs/ROBUSTNESS.md`) re-queue with exponential backoff
//! until the spec's retry budget is spent.

pub mod job;
pub mod store;

pub use job::{JobId, JobKind, JobSpec, LoadRef, Overrides, Priority, ReportPayload};
pub use store::{JobStore, JournalEvent, Recovered, ReplayedJob, ReplayedStatus};

use crate::engine::{PolarizationRequest, ScenarioEngine};
use crate::transient::{integrate_node, LiveIntegrator, TransientOutcome, TransientRequest};
use crate::{CoreError, EngineStats};
use bright_jsonio::Value;
use bright_thermal::{Checkpoint, TraceSegment};
use bright_units::Kelvin;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors the service surfaces to submitters and operators.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The queue is at capacity; resubmit later.
    Overloaded {
        /// Jobs currently queued.
        queued: usize,
        /// The admission bound.
        capacity: usize,
    },
    /// The running estimate for this job kind exceeds the requested
    /// deadline; the job was not accepted.
    DeadlineUnmeetable {
        /// The requested deadline (ms after submission).
        deadline_ms: u64,
        /// The service's current estimate (ms) for this kind.
        estimate_ms: u64,
    },
    /// The spec failed validation.
    Invalid(CoreError),
    /// A storage failure (I/O, corruption).
    Store(String),
    /// No such job.
    UnknownJob(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded { queued, capacity } => {
                write!(f, "overloaded: {queued} jobs queued at capacity {capacity}")
            }
            Self::DeadlineUnmeetable {
                deadline_ms,
                estimate_ms,
            } => write!(
                f,
                "deadline unmeetable: {deadline_ms} ms requested, current estimate {estimate_ms} ms"
            ),
            Self::Invalid(e) => write!(f, "invalid job spec: {e}"),
            Self::Store(msg) => write!(f, "store failure: {msg}"),
            Self::UnknownJob(id) => write!(f, "unknown job {id}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A job's externally visible state.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Waiting for dispatch (possibly after a backoff).
    Queued {
        /// Earliest dispatch time on the service clock (ms).
        not_before_ms: u64,
    },
    /// Complete; the report is readable.
    Done,
    /// Permanently failed.
    Failed {
        /// The error digest of the final attempt.
        error: String,
    },
    /// Cancelled before completion.
    Cancelled,
}

/// The service's time source. `Manual` makes the whole service —
/// including minted job ids, deadlines and backoff — a deterministic
/// function of the submitted work, which the recovery tests use to
/// compare runs bitwise.
#[derive(Debug, Clone)]
pub enum ServiceClock {
    /// Wall-clock milliseconds since the Unix epoch.
    System,
    /// A test-controlled counter (shared so tests can advance it).
    Manual(Arc<AtomicU64>),
}

impl ServiceClock {
    /// A manual clock starting at `ms`.
    #[must_use]
    pub fn manual(ms: u64) -> Self {
        Self::Manual(Arc::new(AtomicU64::new(ms)))
    }

    /// The current time (ms).
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        match self {
            Self::System => std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            Self::Manual(c) => c.load(Ordering::SeqCst),
        }
    }

    fn advance_to(&self, ms: u64) {
        match self {
            Self::System => {
                let now = self.now_ms();
                if ms > now {
                    std::thread::sleep(std::time::Duration::from_millis((ms - now).min(1_000)));
                }
            }
            Self::Manual(c) => {
                c.fetch_max(ms, Ordering::SeqCst);
            }
        }
    }
}

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission bound: jobs queued (not terminal) beyond this are
    /// rejected [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// First retry backoff (ms); attempt *n* waits `base << n`.
    pub backoff_base_ms: u64,
    /// LRU bound for the engine's worker caches
    /// ([`crate::ScenarioEngine::set_cache_capacity`]); 0 = unbounded.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            backoff_base_ms: 250,
            cache_capacity: 0,
        }
    }
}

/// Monotonic service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs completed with a verified report.
    pub completed: u64,
    /// Jobs permanently failed.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Submissions rejected [`ServiceError::Overloaded`].
    pub rejected_overloaded: u64,
    /// Submissions rejected [`ServiceError::DeadlineUnmeetable`].
    pub rejected_deadline: u64,
    /// Backoff retries dispatched.
    pub retries: u64,
    /// Transient trace segments skipped by resuming from a persisted
    /// checkpoint instead of re-integrating.
    pub resumed_segments: u64,
    /// Transient attempts that fell back to a cold re-run because their
    /// checkpoint file was missing or failed verification.
    pub cold_reruns: u64,
    /// Corrupt/torn journal records dropped during recovery.
    pub dropped_records: u64,
}

/// One drained batch's outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Attempts dispatched (including retries).
    pub dispatched: u64,
    /// Jobs that reached `Done`.
    pub completed: u64,
    /// Jobs that reached `Failed`.
    pub failed: u64,
    /// Jobs that reached `Cancelled`.
    pub cancelled: u64,
}

#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    /// Attempts consumed so far (0 = none).
    attempts: u32,
    /// Absolute deadline on the service clock (ms).
    deadline_at_ms: Option<u64>,
    submitted_ms: u64,
}

/// Accumulated progress of a partially integrated transient job —
/// persisted alongside its checkpoint and served back as the streaming
/// partial report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct TransientProgress {
    segments_done: usize,
    peak: f64,
    steps: u64,
    solves: u64,
    rejected: u64,
    recovered: u64,
    retries: u64,
    refreshes: u64,
}

impl TransientProgress {
    fn to_json(self) -> Value {
        Value::object([
            (
                "segments_done".into(),
                Value::Number(self.segments_done as f64),
            ),
            ("peak".into(), Value::Number(self.peak)),
            ("steps".into(), Value::Number(self.steps as f64)),
            ("solves".into(), Value::Number(self.solves as f64)),
            ("rejected".into(), Value::Number(self.rejected as f64)),
            ("recovered".into(), Value::Number(self.recovered as f64)),
            ("retries".into(), Value::Number(self.retries as f64)),
            ("refreshes".into(), Value::Number(self.refreshes as f64)),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        let num = |field: &str| v.get(field).and_then(Value::as_f64);
        Some(Self {
            segments_done: v.get("segments_done").and_then(Value::as_usize)?,
            peak: num("peak")?,
            steps: num("steps")? as u64,
            solves: num("solves")? as u64,
            rejected: num("rejected")? as u64,
            recovered: num("recovered")? as u64,
            retries: num("retries")? as u64,
            // Absent in checkpoints persisted by pre-ramp builds; those
            // traces could not ramp, so zero is exact.
            refreshes: num("refreshes").unwrap_or(0.0) as u64,
        })
    }
}

/// A streaming view of a transient job mid-flight.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialReport {
    /// Trace segments fully integrated so far.
    pub segments_done: usize,
    /// Total segments in the trace.
    pub segments_total: usize,
    /// Peak temperature observed so far.
    pub trace_peak: Kelvin,
    /// Accepted steps so far.
    pub steps: u64,
}

/// The durable scenario service. Single-threaded by design: one
/// process, one store — the journal is not multi-writer safe.
#[derive(Debug)]
pub struct ScenarioService {
    store: JobStore,
    engine: ScenarioEngine,
    config: ServiceConfig,
    clock: ServiceClock,
    jobs: HashMap<JobId, JobRecord>,
    /// Submission order (dispatch sorts by priority, then this order).
    order: Vec<JobId>,
    /// Exponentially weighted per-kind attempt-duration estimates (ms),
    /// keyed by [`JobKind::tag`].
    estimates: HashMap<&'static str, u64>,
    stats: ServiceStats,
}

impl ScenarioService {
    /// Opens (and recovers) a service over the store at `root`.
    ///
    /// Recovery replays the journal: interrupted transient jobs resume
    /// from their persisted checkpoints at the next dispatch, every
    /// other non-terminal job re-queues, torn journal tails are
    /// dropped, and `done` jobs with unverifiable reports re-run.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] on unrecoverable I/O failure.
    pub fn open(
        root: &Path,
        config: ServiceConfig,
        clock: ServiceClock,
    ) -> Result<Self, ServiceError> {
        let store = JobStore::open(root)?;
        let recovered = store.recover()?;
        let mut engine = ScenarioEngine::new();
        engine.set_deterministic(true);
        engine.set_cache_capacity(config.cache_capacity);
        let mut service = Self {
            store,
            engine,
            config,
            clock,
            jobs: HashMap::new(),
            order: Vec::new(),
            estimates: HashMap::new(),
            stats: ServiceStats {
                submitted: recovered.submitted_total,
                dropped_records: recovered.dropped_records,
                ..ServiceStats::default()
            },
        };
        for job in recovered.jobs {
            let status = match job.status {
                ReplayedStatus::Queued { not_before_ms, .. } => JobStatus::Queued { not_before_ms },
                ReplayedStatus::Done => JobStatus::Done,
                ReplayedStatus::Failed { error } => JobStatus::Failed { error },
                ReplayedStatus::Cancelled => JobStatus::Cancelled,
            };
            match &status {
                JobStatus::Done => service.stats.completed += 1,
                JobStatus::Failed { .. } => service.stats.failed += 1,
                JobStatus::Cancelled => service.stats.cancelled += 1,
                JobStatus::Queued { .. } => {}
            }
            let deadline_at_ms = job
                .spec
                .deadline_ms
                .map(|d| job.id.timestamp_ms().saturating_add(d));
            service.order.push(job.id);
            service.jobs.insert(
                job.id,
                JobRecord {
                    spec: job.spec,
                    status,
                    attempts: job.attempts,
                    deadline_at_ms,
                    submitted_ms: job.id.timestamp_ms(),
                },
            );
        }
        Ok(service)
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &JobStore {
        &self.store
    }

    /// Service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// The engine's counters (cache occupancy, evictions, recoveries).
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Seeds the duration estimate (ms) for a job kind tag (`"steady"`,
    /// `"transient"`, `"polarization"`) — the figure deadline admission
    /// checks against. Estimates also update automatically from served
    /// attempts (EWMA).
    pub fn record_estimate(&mut self, kind_tag: &'static str, ms: u64) {
        self.estimates.insert(kind_tag, ms);
    }

    fn queued_count(&self) -> usize {
        self.jobs
            .values()
            .filter(|r| matches!(r.status, JobStatus::Queued { .. }))
            .count()
    }

    /// Submits a job. On success the spec is durably on disk and the
    /// `submit` record journaled — a kill after `submit` returns never
    /// loses the job.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Invalid`] for a spec that fails validation,
    /// [`ServiceError::Overloaded`] past the queue bound,
    /// [`ServiceError::DeadlineUnmeetable`] when the kind's estimate
    /// exceeds the deadline, [`ServiceError::Store`] on I/O failure.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, ServiceError> {
        spec.validate().map_err(ServiceError::Invalid)?;
        let queued = self.queued_count();
        if queued >= self.config.queue_capacity {
            self.stats.rejected_overloaded += 1;
            return Err(ServiceError::Overloaded {
                queued,
                capacity: self.config.queue_capacity,
            });
        }
        if let Some(deadline_ms) = spec.deadline_ms {
            let estimate_ms = self.estimates.get(spec.kind.tag()).copied().unwrap_or(0);
            if estimate_ms > deadline_ms {
                self.stats.rejected_deadline += 1;
                return Err(ServiceError::DeadlineUnmeetable {
                    deadline_ms,
                    estimate_ms,
                });
            }
        }
        let now = self.clock.now_ms();
        // The mint sequence is the journaled submission count, so a
        // crash *before* the submit record re-mints the same id on the
        // caller's retry (and the orphaned spec file is overwritten).
        let id = JobId::mint(now, self.stats.submitted);
        self.store.write_spec(id, &spec)?;
        self.store.append(&JournalEvent::Submitted { id })?;
        self.stats.submitted += 1;
        let deadline_at_ms = spec.deadline_ms.map(|d| now.saturating_add(d));
        self.order.push(id);
        self.jobs.insert(
            id,
            JobRecord {
                spec,
                status: JobStatus::Queued { not_before_ms: 0 },
                attempts: 0,
                deadline_at_ms,
                submitted_ms: now,
            },
        );
        Ok(id)
    }

    /// Cancels a queued job. Completed, failed or already-cancelled
    /// jobs are left as they are.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for an unknown id,
    /// [`ServiceError::Store`] on I/O failure.
    pub fn cancel(&mut self, id: JobId) -> Result<(), ServiceError> {
        let record = self
            .jobs
            .get_mut(&id)
            .ok_or_else(|| ServiceError::UnknownJob(id.encode()))?;
        if !matches!(record.status, JobStatus::Queued { .. }) {
            return Ok(());
        }
        self.store.request_cancel(id)?;
        self.store.append(&JournalEvent::Cancelled { id })?;
        record.status = JobStatus::Cancelled;
        self.stats.cancelled += 1;
        Ok(())
    }

    /// A job's current status.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for an unknown id.
    pub fn status(&self, id: JobId) -> Result<JobStatus, ServiceError> {
        self.jobs
            .get(&id)
            .map(|r| r.status.clone())
            .ok_or_else(|| ServiceError::UnknownJob(id.encode()))
    }

    /// All jobs in submission order.
    #[must_use]
    pub fn statuses(&self) -> Vec<(JobId, JobStatus)> {
        self.order
            .iter()
            .map(|id| (*id, self.jobs[id].status.clone()))
            .collect()
    }

    /// Reads a completed job's report.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for an unknown or not-yet-done job,
    /// [`ServiceError::Store`] on read/verification failure.
    pub fn report(&self, id: JobId) -> Result<ReportPayload, ServiceError> {
        match self.status(id)? {
            JobStatus::Done => self.store.read_report(id),
            _ => Err(ServiceError::UnknownJob(format!(
                "{} has no report (not done)",
                id.encode()
            ))),
        }
    }

    /// The streaming partial view of a transient job mid-flight —
    /// derived from its persisted checkpoint. `None` when the job has
    /// no resume state (not transient, not started, or finished).
    #[must_use]
    pub fn partial_report(&self, id: JobId) -> Option<PartialReport> {
        let record = self.jobs.get(&id)?;
        let JobKind::Transient { trace, .. } = &record.spec.kind else {
            return None;
        };
        let state = self.store.load_checkpoint(id)?;
        let progress = TransientProgress::from_json(state.get("progress")?)?;
        Some(PartialReport {
            segments_done: progress.segments_done,
            segments_total: trace.len(),
            trace_peak: Kelvin::new(progress.peak),
            steps: progress.steps,
        })
    }

    /// Picks the next ready job: highest priority class first, then
    /// submission order; backed-off jobs wait for their `not_before`.
    fn next_ready(&self) -> Option<JobId> {
        let now = self.clock.now_ms();
        self.order
            .iter()
            .filter_map(|id| {
                let r = &self.jobs[id];
                match r.status {
                    JobStatus::Queued { not_before_ms } if not_before_ms <= now => {
                        Some((r.spec.priority, *id))
                    }
                    _ => None,
                }
            })
            .min_by_key(|(priority, _)| *priority)
            .map(|(_, id)| id)
    }

    /// The earliest `not_before` among backed-off jobs, if any.
    fn next_wakeup(&self) -> Option<u64> {
        self.jobs
            .values()
            .filter_map(|r| match r.status {
                JobStatus::Queued { not_before_ms } => Some(not_before_ms),
                _ => None,
            })
            .min()
    }

    /// Serves at most one job attempt. Returns the job served, or
    /// `None` when nothing is ready right now (queue empty, or every
    /// queued job is backing off).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] on journal/report I/O failure (the
    /// attempt's computation errors are folded into the job's status,
    /// not returned).
    pub fn run_next(&mut self) -> Result<Option<JobId>, ServiceError> {
        let Some(id) = self.next_ready() else {
            return Ok(None);
        };
        let record = self.jobs[&id].clone();
        let now = self.clock.now_ms();

        // Cross-process cancellation markers are honoured at dispatch.
        if self.store.cancel_requested(id) {
            self.store.append(&JournalEvent::Cancelled { id })?;
            self.finish(id, JobStatus::Cancelled);
            self.stats.cancelled += 1;
            return Ok(Some(id));
        }
        // An expired deadline is a permanent, typed failure.
        if let Some(deadline) = record.deadline_at_ms {
            if now > deadline {
                let error = format!("deadline expired ({deadline} ms < now {now} ms)");
                self.store.append(&JournalEvent::Failed {
                    id,
                    attempt: record.attempts,
                    error: error.clone(),
                    permanent: true,
                    not_before_ms: 0,
                })?;
                self.finish(id, JobStatus::Failed { error });
                self.stats.failed += 1;
                return Ok(Some(id));
            }
        }

        let attempt = record.attempts;
        if attempt > 0 {
            self.stats.retries += 1;
        }
        self.store.append(&JournalEvent::Started { id, attempt })?;
        if let Some(r) = self.jobs.get_mut(&id) {
            r.attempts = attempt + 1;
        }
        let started_ms = self.clock.now_ms();
        let served = self.serve(id, &record);
        let elapsed_ms = self.clock.now_ms().saturating_sub(started_ms);

        match served {
            Ok(Served::Report(payload)) => {
                self.update_estimate(record.spec.kind.tag(), elapsed_ms);
                self.store.write_report(id, &payload)?;
                self.store.append(&JournalEvent::Done { id })?;
                self.store.remove_checkpoint(id);
                self.finish(id, JobStatus::Done);
                self.stats.completed += 1;
            }
            Ok(Served::Cancelled) => {
                self.store.append(&JournalEvent::Cancelled { id })?;
                self.finish(id, JobStatus::Cancelled);
                self.stats.cancelled += 1;
            }
            Err(e) => {
                let retryable = is_retryable(&e);
                let error = e.to_string();
                let exhausted = attempt >= record.spec.max_retries;
                if retryable && !exhausted {
                    let backoff = self.config.backoff_base_ms << attempt;
                    let not_before_ms = self.clock.now_ms().saturating_add(backoff);
                    self.store.append(&JournalEvent::Failed {
                        id,
                        attempt,
                        error,
                        permanent: false,
                        not_before_ms,
                    })?;
                    if let Some(r) = self.jobs.get_mut(&id) {
                        r.status = JobStatus::Queued { not_before_ms };
                    }
                } else {
                    self.store.append(&JournalEvent::Failed {
                        id,
                        attempt,
                        error: error.clone(),
                        permanent: true,
                        not_before_ms: 0,
                    })?;
                    self.finish(id, JobStatus::Failed { error });
                    self.stats.failed += 1;
                }
            }
        }
        Ok(Some(id))
    }

    /// Serves every queued job to a terminal state, advancing the
    /// clock (manual) or sleeping (system) past backoff windows, then
    /// writes the operator status snapshot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] on I/O failure.
    pub fn drain(&mut self) -> Result<DrainSummary, ServiceError> {
        let mut summary = DrainSummary::default();
        loop {
            match self.run_next()? {
                Some(id) => {
                    summary.dispatched += 1;
                    match self.jobs[&id].status {
                        JobStatus::Done => summary.completed += 1,
                        JobStatus::Failed { .. } => summary.failed += 1,
                        JobStatus::Cancelled => summary.cancelled += 1,
                        JobStatus::Queued { .. } => {} // backing off
                    }
                }
                None => match self.next_wakeup() {
                    Some(at) => self.clock.advance_to(at),
                    None => break,
                },
            }
        }
        self.write_status()?;
        Ok(summary)
    }

    /// Writes `status.json`: per-job statuses plus service and engine
    /// counters, for `bright-serve status` and dashboards.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Store`] on I/O failure.
    pub fn write_status(&self) -> Result<(), ServiceError> {
        let jobs: Vec<Value> = self
            .order
            .iter()
            .map(|id| {
                let r = &self.jobs[id];
                let (state, detail) = match &r.status {
                    JobStatus::Queued { not_before_ms } => {
                        ("queued", Value::Number(*not_before_ms as f64))
                    }
                    JobStatus::Done => ("done", Value::Null),
                    JobStatus::Failed { error } => ("failed", Value::String(error.clone())),
                    JobStatus::Cancelled => ("cancelled", Value::Null),
                };
                Value::object([
                    ("id".into(), Value::String(id.encode())),
                    ("kind".into(), Value::String(r.spec.kind.tag().into())),
                    (
                        "priority".into(),
                        Value::String(r.spec.priority.as_str().into()),
                    ),
                    ("state".into(), Value::String(state.into())),
                    ("detail".into(), detail),
                    ("attempts".into(), Value::Number(f64::from(r.attempts))),
                    (
                        "submitted_ms".into(),
                        Value::Number(r.submitted_ms as f64),
                    ),
                ])
            })
            .collect();
        let engine = self.engine.stats();
        let stats = self.stats;
        let status = Value::object([
            ("jobs".into(), Value::Array(jobs)),
            (
                "service".into(),
                Value::object([
                    ("submitted".into(), Value::Number(stats.submitted as f64)),
                    ("completed".into(), Value::Number(stats.completed as f64)),
                    ("failed".into(), Value::Number(stats.failed as f64)),
                    ("cancelled".into(), Value::Number(stats.cancelled as f64)),
                    (
                        "rejected_overloaded".into(),
                        Value::Number(stats.rejected_overloaded as f64),
                    ),
                    (
                        "rejected_deadline".into(),
                        Value::Number(stats.rejected_deadline as f64),
                    ),
                    ("retries".into(), Value::Number(stats.retries as f64)),
                    (
                        "resumed_segments".into(),
                        Value::Number(stats.resumed_segments as f64),
                    ),
                    ("cold_reruns".into(), Value::Number(stats.cold_reruns as f64)),
                    (
                        "dropped_records".into(),
                        Value::Number(stats.dropped_records as f64),
                    ),
                ]),
            ),
            (
                "engine".into(),
                Value::object([
                    (
                        "cache_capacity".into(),
                        Value::Number(engine.cache_capacity as f64),
                    ),
                    (
                        "cache_residents".into(),
                        Value::Number(engine.cache_residents as f64),
                    ),
                    (
                        "evicted_workers".into(),
                        Value::Number(engine.evicted_workers as f64),
                    ),
                    (
                        "recovered_solves".into(),
                        Value::Number(engine.recovered_solves as f64),
                    ),
                    (
                        "panicked_requests".into(),
                        Value::Number(engine.panicked_requests as f64),
                    ),
                    (
                        "quarantined_workers".into(),
                        Value::Number(engine.quarantined_workers as f64),
                    ),
                ]),
            ),
        ]);
        self.store.write_status(&status)
    }

    fn finish(&mut self, id: JobId, status: JobStatus) {
        self.store.clear_cancel(id);
        if let Some(r) = self.jobs.get_mut(&id) {
            r.status = status;
        }
    }

    fn update_estimate(&mut self, tag: &'static str, elapsed_ms: u64) {
        let entry = self.estimates.entry(tag).or_insert(elapsed_ms);
        // EWMA, α = 0.3 in integer arithmetic.
        *entry = (*entry * 7 + elapsed_ms * 3) / 10;
    }

    fn serve(&mut self, id: JobId, record: &JobRecord) -> Result<Served, CoreError> {
        let scenario = record.spec.scenario()?;
        match &record.spec.kind {
            JobKind::Steady => {
                let mut reports = self.engine.run_batch([scenario]);
                let report = reports.pop().expect("one request, one report");
                Ok(Served::Report(ReportPayload::Steady(Box::new(
                    report.result?,
                ))))
            }
            JobKind::Polarization { points } => {
                let mut request = PolarizationRequest::new(scenario);
                request.points = *points;
                let mut reports = self.engine.run_polarization_batch([request]);
                let report = reports.pop().expect("one request, one report");
                Ok(Served::Report(ReportPayload::Polarization(report.result?)))
            }
            JobKind::Transient {
                trace,
                initial_temperature_k,
                stepping,
            } => {
                let request = TransientRequest {
                    scenario,
                    trace: JobKind::load_steps(trace)?,
                    initial_temperature: Kelvin::new(*initial_temperature_k),
                    stepping: *stepping,
                };
                self.serve_transient(id, record, &request)
            }
        }
    }

    /// Serves a transient job segment by segment, persisting a
    /// checkpoint (and journaling `segment`) after each one, so a crash
    /// resumes instead of recomputing. The per-segment integration is
    /// the same [`integrate_node`] the engine's prefix-tree serving
    /// uses, so resumed and uninterrupted runs produce bitwise-equal
    /// outcomes.
    fn serve_transient(
        &mut self,
        id: JobId,
        record: &JobRecord,
        request: &TransientRequest,
    ) -> Result<Served, CoreError> {
        let model = self.engine.cached_transient_model(request)?;
        let t0 = request.initial_temperature.value();
        let mut progress = TransientProgress {
            peak: t0,
            ..TransientProgress::default()
        };
        let mut checkpoint: Option<Checkpoint> = None;
        // The live integrator carried across segment boundaries within
        // this attempt (checkpoints are still persisted per boundary —
        // durability is unchanged; only the rebuild cost is skipped).
        let mut live: Option<LiveIntegrator> = None;
        match self.load_resume_state(id) {
            ResumeState::None => {}
            ResumeState::Corrupt => {
                self.stats.cold_reruns += 1;
            }
            ResumeState::Resume(cp, saved) => {
                if saved.segments_done <= request.trace.len() {
                    self.stats.resumed_segments += saved.segments_done as u64;
                    progress = saved;
                    checkpoint = Some(cp);
                } else {
                    // A checkpoint from some other spec shape: ignore.
                    self.stats.cold_reruns += 1;
                }
            }
        }
        let deadline = record.deadline_at_ms;
        let timeout = record.spec.timeout_ms;
        let started_ms = self.clock.now_ms();
        for index in progress.segments_done..request.trace.len() {
            // Cooperative cancellation and budget checks at segment
            // boundaries — the granularity durability already pays for.
            if self.store.cancel_requested(id) {
                return Ok(Served::Cancelled);
            }
            let now = self.clock.now_ms();
            if let Some(t) = timeout {
                if now.saturating_sub(started_ms) >= t {
                    return Err(CoreError::Thermal(format!(
                        "attempt timed out after {} of {} segments ({t} ms budget)",
                        index,
                        request.trace.len()
                    )));
                }
            }
            if let Some(d) = deadline {
                if now > d {
                    return Err(CoreError::Thermal(format!(
                        "deadline passed mid-attempt at segment {index}"
                    )));
                }
            }
            let step = &request.trace[index];
            let power = step
                .load
                .rasterize(&request.scenario.floorplan, model.grid())?;
            let segment = TraceSegment {
                duration: step.duration,
                power,
                ramp: step.ramp.map(|r| r.resolve(&request.scenario)),
            };
            let carried = live.take();
            let model_ref = &model;
            let stepping = &request.stepping;
            let from = checkpoint.as_ref();
            // Panic isolation as in the engine: a panicking integration
            // fails this attempt (retryable), not the service. Injected
            // *kill* payloads (crash/torn sites) must keep unwinding —
            // they model the process dying.
            let integrated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                bright_num::faults::maybe_panic();
                integrate_node(model_ref, &segment, t0, stepping, from, carried)
            }));
            let (node, next_live) = match integrated {
                Ok(result) => result?,
                Err(payload) => {
                    if bright_num::faults::is_injected_kill(payload.as_ref()) {
                        std::panic::resume_unwind(payload);
                    }
                    return Err(CoreError::WorkerPanic(crate::panic_message(
                        payload.as_ref(),
                    )));
                }
            };
            progress.peak = progress.peak.max(node.peak);
            progress.steps += node.steps;
            progress.solves += node.solves;
            progress.rejected += node.rejected;
            progress.recovered += node.recovered;
            progress.retries += node.retries;
            progress.refreshes += node.refreshes;
            progress.segments_done = index + 1;
            let state = Value::object([
                ("checkpoint".into(), node.checkpoint.to_json()),
                ("progress".into(), progress.to_json()),
            ]);
            self.store
                .write_checkpoint(id, &state)
                .map_err(|e| CoreError::Report(e.to_string()))?;
            self.store
                .append(&JournalEvent::Segment { id, index })
                .map_err(|e| CoreError::Report(e.to_string()))?;
            checkpoint = Some(node.checkpoint);
            live = Some(next_live);
        }
        let final_peak = checkpoint.as_ref().map_or(t0, |cp| {
            cp.temperatures
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        });
        Ok(Served::Report(ReportPayload::Transient(TransientOutcome {
            final_peak: Kelvin::new(final_peak),
            trace_peak: Kelvin::new(progress.peak),
            end_time: request.total_duration(),
            steps: progress.steps,
            solves: progress.solves,
            rejected: progress.rejected,
            recovered_solves: progress.recovered,
            solver_retries: progress.retries,
            coefficient_refreshes: progress.refreshes,
            shared_time: 0.0,
        })))
    }

    fn load_resume_state(&self, id: JobId) -> ResumeState {
        let path = self.store.checkpoint_path(id);
        if !path.exists() {
            return ResumeState::None;
        }
        let Some(state) = self.store.load_checkpoint(id) else {
            return ResumeState::Corrupt;
        };
        let checkpoint = state
            .get("checkpoint")
            .and_then(|v| Checkpoint::from_json(v).ok());
        let progress = state.get("progress").and_then(TransientProgress::from_json);
        match (checkpoint, progress) {
            (Some(cp), Some(p)) => ResumeState::Resume(cp, p),
            _ => ResumeState::Corrupt,
        }
    }
}

enum Served {
    Report(ReportPayload),
    Cancelled,
}

enum ResumeState {
    None,
    Corrupt,
    Resume(Checkpoint, TransientProgress),
}

/// Whether an attempt error is worth a backoff retry. Deterministic
/// rejections (invalid spec, report codec) fail immediately;
/// environmental/numerical failures — including a worker panic that
/// survived the engine's recovery ladder — retry.
fn is_retryable(e: &CoreError) -> bool {
    !matches!(
        e,
        CoreError::InvalidScenario(_) | CoreError::PdnBandTooLarge { .. } | CoreError::Report(_)
    )
}
