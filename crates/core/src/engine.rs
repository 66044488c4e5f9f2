//! Batched scenario serving: a long-lived engine over the co-simulation.
//!
//! The paper's results are families of operating points through one
//! coupled model: steady POWER7+ points, throttling and duty-cycle
//! traces, flow-cell polarization sweeps. A [`ScenarioEngine`] serves
//! all three as [`ScenarioRequest`]s through one request path:
//! [`ScenarioEngine::submit`] queues a request of any kind and
//! [`ScenarioEngine::run`] serves the whole queue as one batch,
//! returning [`EngineReport`]s in submission order. The typed adapters
//! [`ScenarioEngine::run_batch`], [`ScenarioEngine::run_transient_batch`]
//! and [`ScenarioEngine::run_polarization_batch`] serve a batch of one
//! kind through the same path and leave the queue alone.
//!
//! A batch is validated up front (an invalid request fails alone, with
//! its kind's report), grouped by serving pattern in first-seen order,
//! and fanned out once across the workspace's worker pool
//! ([`bright_num::parallel::parallel_map_indexed`]):
//!
//! * **Steady** requests group by [`PatternKey`] (thermal grid + layer
//!   lumping, PDN grid). Each group is served by a cached
//!   [`CoSimulation`] worker that is *retargeted* between requests
//!   instead of rebuilt: thermal coefficients re-stamp through the
//!   cached pattern, the PDN system with its banded factor and the
//!   thermal solver session persist, and warm starts carry from one
//!   operating point to the next. A large group is split into chunks,
//!   each served by a clone of the group's worker (sessions clone
//!   cheaply, preconditioners rebuild lazily, and clones share the PDN
//!   factor).
//! * **Transient** requests group by operator and stepping
//!   compatibility and are served over a segment-prefix tree, so trace
//!   prefixes shared by several requests are integrated once and
//!   branched from checkpoints (see [`crate::transient`]).
//! * **Polarization** requests group by [`CellPatternKey`] (transport
//!   grids + velocity model) and are served by cached flow-cell workers
//!   whose geometry and coefficient contexts are retargeted in place, so
//!   the duct velocity solution and the factored transport operators
//!   are paid for once per pattern.
//!
//! Workers and assembled models return to three bounded LRU caches for
//! later batches; [`EngineStats`] counts what was built and reused.
//!
//! ```no_run
//! use bright_core::engine::{ScenarioEngine, ScenarioRequest};
//! use bright_core::Scenario;
//! use bright_units::CubicMetersPerSecond;
//!
//! let mut engine = ScenarioEngine::new();
//! for ml_min in [676.0, 400.0, 200.0, 100.0, 48.0] {
//!     let mut s = Scenario::power7_nominal();
//!     s.total_flow = CubicMetersPerSecond::from_milliliters_per_minute(ml_min);
//!     engine.submit(ScenarioRequest::Steady(s));
//! }
//! for report in engine.run() {
//!     assert!(report.is_ok(), "solves converge");
//!     println!("request {}: {}", report.request_id(), report.pattern());
//! }
//! // One pattern: at most one operator build per executor chunk (a
//! // single build on single-worker hosts; a new pattern's group may be
//! // chunked across workers on its first batch).
//! let stats = engine.stats();
//! assert!(stats.operators_built >= 1 && stats.operators_built + stats.operator_reuses == 5);
//! ```

use crate::cosim::{cell_model_for, thermal_model_for, CoSimulation};
use crate::reports::{CoSimReport, PolarizationOutcome};
use crate::scenario::Scenario;
use crate::transient::{
    serve_transient_group, TransientGroupKey, TransientModelKey, TransientReport,
    TransientRequest,
};
use crate::CoreError;
use bright_flowcell::{CellModel, SolverOptions};
use bright_num::parallel::{parallel_map_indexed, worker_count};
use bright_num::Backend;
use bright_thermal::ThermalModel;
use std::collections::HashMap;
use std::sync::Mutex;

/// One request the engine can serve: a steady co-simulation, a
/// transient trace integration (see [`crate::transient`]) or an
/// electrochemical polarization sweep.
#[derive(Debug, Clone)]
pub enum ScenarioRequest {
    /// A steady operating point through the full co-simulation.
    Steady(Scenario),
    /// A transient power-trace integration (thermal only), grouped by
    /// operator/stepping compatibility and served over a segment-prefix
    /// tree with checkpoint branching.
    Transient(TransientRequest),
    /// An electrochemical polarization sweep (flow-cell only), grouped
    /// by cell-geometry pattern and served by cached, retargeted
    /// [`CellModel`] workers with warm-bracketed voltage ladders.
    Polarization(PolarizationRequest),
}

/// The flow-cell geometry fingerprint polarization requests are grouped
/// by: requests with equal keys share one `GeometryContext` (transport
/// grids, velocity model, duct solution), so one cached worker serves
/// them all with in-place coefficient retargets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellPatternKey {
    /// Cross-stream cells per half-width.
    pub ny: usize,
    /// Marching stations.
    pub nx: usize,
    /// Velocity model discriminant (0 = plane Poiseuille, 1 = duct).
    velocity_kind: u8,
    /// Duct z-resolution (0 for plane Poiseuille).
    velocity_nz: usize,
    /// Product-tracking switch.
    track_products: bool,
    /// Contact ASR (bit pattern; keys only need equality).
    contact_asr_bits: u64,
}

impl CellPatternKey {
    /// The pattern key of a set of cell solver options.
    #[must_use]
    pub fn of(options: &SolverOptions) -> Self {
        let (ny, nx, velocity_kind, velocity_nz) = options.geometry_fingerprint();
        Self {
            ny,
            nx,
            velocity_kind,
            velocity_nz,
            track_products: options.track_products,
            contact_asr_bits: options.contact_asr.to_bits(),
        }
    }

    /// Compact human-readable digest (for logs and reports).
    #[must_use]
    pub fn digest(&self) -> String {
        let vel = if self.velocity_kind == 0 {
            "poiseuille".to_string()
        } else {
            format!("duct(nz {})", self.velocity_nz)
        };
        format!("cell {}x{} / {vel}", self.nx, self.ny)
    }
}

/// An electrochemical polarization sweep request for the engine: the
/// scenario fixes the cell geometry/options (the pattern) and the
/// coefficients (per-channel flow, inlet temperature, channel count);
/// `points` sets the voltage-ladder resolution.
#[derive(Debug, Clone)]
pub struct PolarizationRequest {
    /// The operating point. Only the flow-cell side is exercised: cell
    /// options, total flow, inlet temperature and channel count.
    pub scenario: Scenario,
    /// Points on the voltage ladder (≥ 2; the exact OCV point is
    /// appended).
    pub points: usize,
}

impl PolarizationRequest {
    /// A request at the scenario's own `sweep_points` resolution.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        let points = scenario.sweep_points;
        Self { scenario, points }
    }

    /// Validates the request.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] describing the first violated
    /// rule.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.scenario.validate()?;
        if self.points < 2 {
            return Err(CoreError::InvalidScenario(
                "polarization request needs at least 2 sweep points".into(),
            ));
        }
        Ok(())
    }
}

/// The engine's answer to one polarization request.
#[derive(Debug, Clone)]
pub struct PolarizationReport {
    /// The id returned at submission.
    pub request_id: u64,
    /// Digest of the cell-pattern group the request was served in.
    pub pattern: String,
    /// True when the request was served by retargeting a cached worker
    /// (its geometry context and operator storage were reused); false
    /// when it paid for the cold build itself.
    pub reused_context: bool,
    /// Recovery digest, mirroring
    /// [`ScenarioReport::degraded`]. Polarization sweeps solve through
    /// direct factorizations (no iterative sessions, hence no recovery
    /// ladder), so this is currently always `None`; the field exists so
    /// mixed batches expose one uniform degradation surface.
    pub degraded: Option<String>,
    /// The sweep outcome.
    pub result: Result<PolarizationOutcome, CoreError>,
}

/// A report of any request kind, as returned by [`ScenarioEngine::run`]
/// (one shared submission-id space).
// The steady variant is inline-larger than the others, but report
// vectors are short-lived batch outputs, not bulk storage — boxing
// would only complicate every match site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum EngineReport {
    /// A steady co-simulation report.
    Steady(ScenarioReport),
    /// A transient trace-integration report.
    Transient(TransientReport),
    /// An electrochemical polarization report.
    Polarization(PolarizationReport),
}

impl EngineReport {
    /// The submission id this report answers.
    #[must_use]
    pub fn request_id(&self) -> u64 {
        match self {
            EngineReport::Steady(r) => r.request_id,
            EngineReport::Transient(r) => r.request_id,
            EngineReport::Polarization(r) => r.request_id,
        }
    }

    /// The pattern digest of the group that served this report.
    #[must_use]
    pub fn pattern(&self) -> &str {
        match self {
            EngineReport::Steady(r) => &r.pattern,
            EngineReport::Transient(r) => &r.pattern,
            EngineReport::Polarization(r) => &r.pattern,
        }
    }

    /// `true` when the underlying result is `Ok`.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        match self {
            EngineReport::Steady(r) => r.result.is_ok(),
            EngineReport::Transient(r) => r.result.is_ok(),
            EngineReport::Polarization(r) => r.result.is_ok(),
        }
    }
}

/// The operator-pattern fingerprint requests are grouped by: scenarios
/// with equal keys share thermal and PDN sparsity patterns, so one
/// worker serves them all with in-place coefficient refreshes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternKey {
    /// Thermal grid columns (= lumped channel columns).
    pub thermal_columns: usize,
    /// Thermal grid rows.
    pub thermal_ny: usize,
    /// Physical channel count (fixes channels-per-cell lumping).
    pub channel_count: usize,
    /// PDN grid columns.
    pub pdn_nx: usize,
    /// PDN grid rows.
    pub pdn_ny: usize,
    /// Die width in metres (bit pattern; keys only need equality).
    die_width_bits: u64,
    /// Die height in metres (bit pattern).
    die_height_bits: u64,
}

impl PatternKey {
    /// The pattern key of a scenario.
    #[must_use]
    pub fn of(scenario: &Scenario) -> Self {
        Self {
            thermal_columns: scenario.thermal_columns,
            thermal_ny: scenario.thermal_ny,
            channel_count: scenario.channel_count,
            pdn_nx: scenario.pdn.nx,
            pdn_ny: scenario.pdn.ny,
            die_width_bits: scenario.floorplan.width().value().to_bits(),
            die_height_bits: scenario.floorplan.height().value().to_bits(),
        }
    }

    /// Compact human-readable digest (for logs and reports).
    #[must_use]
    pub fn digest(&self) -> String {
        format!(
            "thermal {}x{} / {} ch / pdn {}x{}",
            self.thermal_columns, self.thermal_ny, self.channel_count, self.pdn_nx, self.pdn_ny
        )
    }
}

/// The engine's answer to one submitted scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The id returned by [`ScenarioEngine::submit`].
    pub request_id: u64,
    /// Digest of the operator-pattern group the request was served in.
    pub pattern: String,
    /// True when the request was served by a worker whose operators
    /// already existed (cached from this or an earlier batch); false
    /// when it paid for the assembly itself.
    pub reused_operator: bool,
    /// Preconditioner that served the worker's thermal solve — the
    /// spec name (`"ssor"`) or a multigrid hierarchy digest
    /// (`"mg(4 levels, coarse 144, chebyshev)"`); empty when the
    /// request failed before any solve. Lets degraded and scaled runs
    /// be diagnosed from the report alone.
    pub precond: String,
    /// `Some(digest)` when the answer was produced by a session
    /// recovery rung instead of a clean first attempt (e.g.
    /// `"thermal: precond-fallback(jacobi)"` — see
    /// `docs/ROBUSTNESS.md`); `None` for clean solves and for failed
    /// requests.
    pub degraded: Option<String>,
    /// The co-simulation outcome.
    pub result: Result<CoSimReport, CoreError>,
}

/// Engine-wide counters (monotonic over the engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Steady requests served.
    pub requests: u64,
    /// Batches served: [`ScenarioEngine::run`] and typed-adapter calls
    /// that had work. A mixed `run()` is one batch, its three request
    /// kinds sharing one fan-out.
    pub batches: u64,
    /// Workers built from scratch (one full operator assembly each).
    pub operators_built: u64,
    /// Steady requests served by retargeting an existing worker.
    pub operator_reuses: u64,
    /// Transient requests served.
    pub transient_requests: u64,
    /// Trace-tree nodes integrated (one segment's stepping each).
    pub trace_segments_integrated: u64,
    /// Request-segments served from a shared prefix node instead of
    /// being integrated again (`Σ_nodes requests_under_node − 1`).
    pub trace_segments_reused: u64,
    /// Trace-tree nodes served by carrying the parent's live integrator
    /// down a single-child chain (no rebuild, no checkpoint restore).
    pub trace_integrators_carried: u64,
    /// Polarization requests served.
    pub polarization_requests: u64,
    /// Flow-cell solve contexts built from scratch (one duct solution +
    /// operator factorizations each) — by polarization workers and by
    /// the steady path's co-simulation workers alike.
    pub cell_contexts_built: u64,
    /// Requests served by retargeting a built flow-cell context in
    /// place instead of rebuilding it (polarization retargets plus the
    /// steady path's [`CoSimulation::cell_context_reuses`] deltas).
    pub cell_context_reuses: u64,
    /// Always [`Backend::Scalar`]. Kept only for the benchmark's kernel
    /// label; it goes when that label does.
    pub kernel_backend: Backend,
    /// Always 1 when read through [`ScenarioEngine::stats`]. Kept only
    /// for the benchmark's kernel-threads label; it goes when that
    /// label does.
    pub kernel_threads: u32,
    /// Preconditioner spec serving the most recent steady batch's
    /// thermal solves ([`bright_num::PrecondSpec::Multigrid`] on
    /// scaled grids; the default spec before the first batch).
    pub preconditioner: bright_num::PrecondSpec,
    /// Session solves (thermal, plus transient integrations) that
    /// succeeded only after the recovery ladder intervened (see
    /// `docs/ROBUSTNESS.md`).
    pub recovered_solves: u64,
    /// Adaptive dt-halving retries transient integrations took after
    /// solver failures ([`bright_thermal::AdaptiveStats::solver_retries`]).
    pub solver_retries: u64,
    /// Cached workers/models dropped because a request they served
    /// panicked or failed — the next request of the pattern rebuilds
    /// from scratch instead of trusting suspect state.
    pub quarantined_workers: u64,
    /// Requests whose serving code panicked. Each became a per-request
    /// [`CoreError::WorkerPanic`] while the rest of the batch completed.
    pub panicked_requests: u64,
    /// Cached workers/models dropped by the LRU bound (or by
    /// [`ScenarioEngine::evict_workers`]) to keep cache memory inside
    /// [`EngineStats::cache_capacity`].
    pub evicted_workers: u64,
    /// Per-cache-family LRU capacity (steady workers, flow-cell workers
    /// and transient models each keep at most this many residents);
    /// `0` = unbounded.
    pub cache_capacity: u64,
    /// Cached workers/models currently resident across all three cache
    /// families.
    pub cache_residents: u64,
}

impl EngineStats {
    /// Adds a job's counter deltas.
    fn absorb(&mut self, d: &EngineStats) {
        self.operators_built += d.operators_built;
        self.operator_reuses += d.operator_reuses;
        self.trace_segments_integrated += d.trace_segments_integrated;
        self.trace_segments_reused += d.trace_segments_reused;
        self.trace_integrators_carried += d.trace_integrators_carried;
        self.cell_contexts_built += d.cell_contexts_built;
        self.cell_context_reuses += d.cell_context_reuses;
        self.recovered_solves += d.recovered_solves;
        self.solver_retries += d.solver_retries;
        self.quarantined_workers += d.quarantined_workers;
        self.panicked_requests += d.panicked_requests;
    }
}

/// A small LRU cache over `HashMap`: each resident carries a last-use
/// stamp from a monotonically increasing clock, and inserting past the
/// capacity evicts the least recently stamped entry. Eviction scans are
/// O(residents), which is the right trade for caches holding a handful
/// of heavyweight workers (each worth megabytes of factored operators).
#[derive(Debug)]
struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    clock: u64,
    /// Maximum residents; 0 = unbounded.
    capacity: usize,
    evictions: u64,
}

impl<K, V> Default for LruCache<K, V> {
    fn default() -> Self {
        Self { map: HashMap::new(), clock: 0, capacity: 0, evictions: 0 }
    }
}

impl<K: Eq + std::hash::Hash + Clone, V> LruCache<K, V> {
    fn len(&self) -> usize {
        self.map.len()
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Looks up and touches (marks most recently used) an entry.
    fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let stamp = self.clock;
        self.map.get_mut(key).map(|(value, s)| {
            *s = stamp;
            &*value
        })
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(value, _)| value)
    }

    /// Inserts unless the key is already resident (the existing entry —
    /// typically the worker that just served the group — wins), then
    /// enforces the capacity bound.
    fn insert_if_absent(&mut self, key: K, value: V) {
        self.clock += 1;
        let stamp = self.clock;
        self.map.entry(key).or_insert((value, stamp));
        self.enforce();
    }

    /// Applies a new capacity, evicting immediately if over it.
    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.enforce();
    }

    fn enforce(&mut self) {
        if self.capacity == 0 {
            return;
        }
        while self.map.len() > self.capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.map.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// Drops every resident, counting them as evictions.
    fn clear(&mut self) {
        self.evictions += self.map.len() as u64;
        self.map.clear();
    }

    #[cfg(test)]
    fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(value, _)| value)
    }
}

/// The serving group a request joins: requests with equal keys share
/// one cached worker (steady, polarization) or one prefix tree
/// (transient).
#[derive(Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    Steady(PatternKey),
    Transient(TransientGroupKey),
    Polarization(CellPatternKey),
}

impl GroupKey {
    /// An empty job for this group.
    fn open(&self) -> Job {
        match self.clone() {
            GroupKey::Steady(key) => Job::Steady(Group::new(key)),
            GroupKey::Transient(key) => Job::Transient(Group::new(key)),
            GroupKey::Polarization(key) => Job::Polarization(Group::new(key)),
        }
    }

    /// The report of a request that failed validation: its kind's
    /// report, stamped with the pattern it would have joined.
    fn rejected(&self, request_id: u64, error: CoreError) -> EngineReport {
        match self {
            GroupKey::Steady(key) => EngineReport::Steady(ScenarioReport {
                request_id,
                pattern: key.digest(),
                reused_operator: false,
                precond: String::new(),
                degraded: None,
                result: Err(error),
            }),
            GroupKey::Transient(key) => EngineReport::Transient(TransientReport {
                request_id,
                pattern: key.digest(),
                degraded: None,
                result: Err(error),
            }),
            GroupKey::Polarization(key) => EngineReport::Polarization(PolarizationReport {
                request_id,
                pattern: key.digest(),
                reused_context: false,
                degraded: None,
                result: Err(error),
            }),
        }
    }
}

/// A group's requests (a chunk of them, for large steady groups) and
/// the cached worker or assembled model serving them (`None` until a
/// brand-new pattern builds it).
struct Group<K, W, R> {
    key: K,
    worker: Option<W>,
    requests: Vec<(u64, R)>,
}

impl<K, W, R> Group<K, W, R> {
    fn new(key: K) -> Self {
        Self {
            key,
            worker: None,
            requests: Vec::new(),
        }
    }
}

/// One unit of a batch's fan-out.
// Jobs are a handful of short-lived values per batch; boxing the steady
// worker would only add an allocation per job.
#[allow(clippy::large_enum_variant)]
enum Job {
    Steady(Group<PatternKey, CoSimulation, Scenario>),
    Transient(Group<TransientGroupKey, ThermalModel, TransientRequest>),
    Polarization(Group<CellPatternKey, CellModel, PolarizationRequest>),
}

impl Job {
    fn push(&mut self, id: u64, request: ScenarioRequest) {
        match (self, request) {
            (Job::Steady(g), ScenarioRequest::Steady(s)) => g.requests.push((id, s)),
            (Job::Transient(g), ScenarioRequest::Transient(t)) => g.requests.push((id, t)),
            (Job::Polarization(g), ScenarioRequest::Polarization(p)) => g.requests.push((id, p)),
            _ => unreachable!("a group key fixes its request kind"),
        }
    }

    fn serve(self, deterministic: bool) -> Served {
        match self {
            Job::Steady(g) => serve_steady(g, deterministic),
            Job::Transient(g) => serve_transients(g),
            Job::Polarization(g) => serve_polarizations(g),
        }
    }
}

/// What one job hands back to the batch fold.
struct Served {
    reports: Vec<EngineReport>,
    /// The served job: its worker or model goes back to the cache
    /// (`None` when it was quarantined or never built).
    job: Job,
    /// Counter deltas; only the additive fields are set.
    counters: EngineStats,
    /// The preconditioner of a steady job's last solved request, tagged
    /// with that request's id so the fold picks a deterministic winner
    /// (jobs finish in arbitrary executor order).
    precond: Option<(u64, bright_num::PrecondSpec)>,
}

/// A long-lived, batched scenario-serving engine. See the [module
/// docs](self).
#[derive(Debug, Default)]
pub struct ScenarioEngine {
    workers: LruCache<PatternKey, CoSimulation>,
    /// Cached flow-cell workers serving polarization requests, keyed by
    /// cell-geometry pattern and retargeted in place between requests.
    cell_workers: LruCache<CellPatternKey, CellModel>,
    /// Assembled thermal models cached across batches, keyed by
    /// operator identity (pattern + flow + inlet) — coarser than the
    /// serving groups, so dt/tolerance variants share one assembly.
    transient_models: LruCache<TransientModelKey, ThermalModel>,
    /// Submitted, not yet served requests of every kind.
    queue: Vec<(u64, ScenarioRequest)>,
    /// Per-cache-family LRU bound applied by
    /// [`ScenarioEngine::set_cache_capacity`] (0 = unbounded).
    cache_capacity: usize,
    /// When set, every steady serve runs with cold Krylov starts so its
    /// answer is history-independent (see
    /// [`ScenarioEngine::set_deterministic`]).
    deterministic: bool,
    next_id: u64,
    stats: EngineStats,
}

impl ScenarioEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a request of any kind and returns its id. Validation
    /// happens when the batch is served; an invalid request surfaces as
    /// an `Err` in its report.
    pub fn submit(&mut self, request: ScenarioRequest) -> u64 {
        let id = self.mint_id();
        self.queue.push((id, request));
        id
    }

    /// Number of queued, not yet served requests (all kinds).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Serves every queued request as one batch and returns the reports
    /// in submission order.
    pub fn run(&mut self) -> Vec<EngineReport> {
        let queue = std::mem::take(&mut self.queue);
        self.serve(queue)
    }

    /// Serves `scenarios` as one steady batch and returns their reports
    /// in input order. Queued requests stay queued.
    pub fn run_batch(
        &mut self,
        scenarios: impl IntoIterator<Item = Scenario>,
    ) -> Vec<ScenarioReport> {
        self.serve_kind(scenarios, ScenarioRequest::Steady, |r| match r {
            EngineReport::Steady(r) => Some(r),
            _ => None,
        })
    }

    /// Serves `requests` as one transient batch and returns their
    /// reports in input order. Queued requests stay queued.
    pub fn run_transient_batch(
        &mut self,
        requests: impl IntoIterator<Item = TransientRequest>,
    ) -> Vec<TransientReport> {
        self.serve_kind(requests, ScenarioRequest::Transient, |r| match r {
            EngineReport::Transient(r) => Some(r),
            _ => None,
        })
    }

    /// Serves `requests` as one polarization batch and returns their
    /// reports in input order. Queued requests stay queued.
    pub fn run_polarization_batch(
        &mut self,
        requests: impl IntoIterator<Item = PolarizationRequest>,
    ) -> Vec<PolarizationReport> {
        self.serve_kind(requests, ScenarioRequest::Polarization, |r| match r {
            EngineReport::Polarization(r) => Some(r),
            _ => None,
        })
    }

    /// Engine-wide counters. The cache fields (`evicted_workers`,
    /// `cache_capacity`, `cache_residents`) are computed from the live
    /// caches at call time.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.evicted_workers = self.workers.evictions()
            + self.cell_workers.evictions()
            + self.transient_models.evictions();
        stats.cache_capacity = self.cache_capacity as u64;
        stats.cache_residents =
            (self.workers.len() + self.cell_workers.len() + self.transient_models.len()) as u64;
        stats.kernel_threads = 1;
        stats
    }

    /// Bounds each worker cache family (steady pattern workers,
    /// flow-cell workers, transient thermal models) to at most
    /// `capacity` residents, evicting least-recently-used entries
    /// immediately and on every future insert. `0` (the default)
    /// removes the bound. Evictions are counted in
    /// [`EngineStats::evicted_workers`].
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache_capacity = capacity;
        self.workers.set_capacity(capacity);
        self.cell_workers.set_capacity(capacity);
        self.transient_models.set_capacity(capacity);
    }

    /// Switches history-independent steady serving on or off. When on,
    /// a retargeted worker resets its sessions' warm starts before each
    /// run, making every answer bitwise-equal to a cold-built engine at
    /// the same scenario (the PR-8 Monte Carlo mechanism) at the cost of
    /// a few extra Krylov iterations per solve. The durable scenario
    /// service relies on this: a job's report must not depend on which
    /// jobs happened to warm the cache before it — with or without a
    /// crash/restart in between.
    pub fn set_deterministic(&mut self, deterministic: bool) {
        self.deterministic = deterministic;
    }

    /// Drops all cached workers (operators, sessions, warm starts),
    /// cached transient thermal models and cached flow-cell workers;
    /// the next batch rebuilds on demand. The queue and the counters
    /// are unaffected.
    pub fn evict_workers(&mut self) {
        self.workers.clear();
        self.transient_models.clear();
        self.cell_workers.clear();
    }

    /// Clones an assembled thermal model for `request` out of the
    /// transient cache, building (and caching) it on a miss. Used by
    /// the durable service to integrate a trace segment-by-segment with
    /// checkpoints persisted between segments; sharing this cache keeps
    /// the service's per-segment serving on the same operator-reuse
    /// path as the engine's transient batches.
    pub(crate) fn cached_transient_model(
        &mut self,
        request: &TransientRequest,
    ) -> Result<ThermalModel, CoreError> {
        let key = TransientModelKey::of(request);
        if let Some(model) = self.transient_models.get(&key) {
            return Ok(model.clone());
        }
        let model = thermal_model_for(&request.scenario)?;
        model.assemble().map_err(|e| CoreError::Thermal(e.to_string()))?;
        self.transient_models.insert_if_absent(key, model.clone());
        Ok(model)
    }

    fn mint_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The typed adapters' shared body: mints ids for `requests`,
    /// serves them as one batch and unwraps the reports to their kind.
    fn serve_kind<T, R>(
        &mut self,
        requests: impl IntoIterator<Item = T>,
        wrap: fn(T) -> ScenarioRequest,
        unwrap: fn(EngineReport) -> Option<R>,
    ) -> Vec<R> {
        let batch = requests
            .into_iter()
            .map(|r| (self.mint_id(), wrap(r)))
            .collect();
        self.serve(batch).into_iter().filter_map(unwrap).collect()
    }

    /// Serves one batch: validates every request, groups the valid ones
    /// by serving pattern in first-seen order, fans the groups out as
    /// one job list, and folds the workers and counters back in.
    fn serve(&mut self, batch: Vec<(u64, ScenarioRequest)>) -> Vec<EngineReport> {
        if batch.is_empty() {
            return Vec::new();
        }
        self.stats.batches += 1;

        // Validate up front: an invalid request reports immediately and
        // never joins a group, so it cannot disturb a healthy worker.
        let mut reports: Vec<EngineReport> = Vec::new();
        let mut groups: Vec<Job> = Vec::new();
        let mut index: HashMap<GroupKey, usize> = HashMap::new();
        for (id, request) in batch {
            let (key, valid) = match &request {
                ScenarioRequest::Steady(s) => {
                    self.stats.requests += 1;
                    (GroupKey::Steady(PatternKey::of(s)), s.validate())
                }
                ScenarioRequest::Transient(t) => {
                    self.stats.transient_requests += 1;
                    (GroupKey::Transient(TransientGroupKey::of(t)), t.validate())
                }
                ScenarioRequest::Polarization(p) => {
                    self.stats.polarization_requests += 1;
                    let key = CellPatternKey::of(&p.scenario.cell_options);
                    (GroupKey::Polarization(key), p.validate())
                }
            };
            if let Err(e) = valid {
                reports.push(key.rejected(id, e));
                continue;
            }
            let slot = *index.entry(key).or_insert_with_key(|key| {
                groups.push(key.open());
                groups.len() - 1
            });
            groups[slot].push(id, request);
        }

        // Pre-assemble one thermal model per distinct transient operator
        // identity, so every transient group — including same-batch
        // dt/tolerance variants sharing an operator — clones an
        // assembled model instead of re-assembling. A failed build is
        // left to the group itself, which reports the error per request.
        for group in &groups {
            let Job::Transient(g) = group else { continue };
            if self.transient_models.contains_key(&g.key.model) {
                continue;
            }
            if let Ok(m) = thermal_model_for(&g.requests[0].1.scenario) {
                if m.assemble().is_ok() {
                    let key = g.key.model.clone();
                    self.transient_models.insert_if_absent(key, m);
                }
            }
        }

        // One job list. Steady groups split into chunks so the batch can
        // use the executor's parallelism even when one pattern
        // dominates: each extra chunk serves its slice through a *clone*
        // of the group worker (operators come along; sessions re-factor
        // lazily). The budget counts steady requests only, so how a
        // steady group splits does not depend on the batch's other kinds.
        let steady_sizes: Vec<usize> = groups
            .iter()
            .filter_map(|g| match g {
                Job::Steady(g) => Some(g.requests.len()),
                _ => None,
            })
            .collect();
        let budget = worker_count(steady_sizes.iter().sum()).max(1);
        let per_group_chunks = budget.div_ceil(steady_sizes.len().max(1)).max(1);
        let mut jobs: Vec<Job> = Vec::new();
        for group in groups {
            match group {
                Job::Steady(g) => {
                    let mut cached = self.workers.remove(&g.key);
                    let chunks = per_group_chunks.min(g.requests.len());
                    let chunk_size = g.requests.len().div_ceil(chunks);
                    let mut rest = g.requests.into_iter().peekable();
                    while rest.peek().is_some() {
                        let mut chunk = Group::new(g.key.clone());
                        chunk.requests = rest.by_ref().take(chunk_size).collect();
                        // The last chunk takes the cached worker itself.
                        chunk.worker = if rest.peek().is_some() {
                            cached.clone()
                        } else {
                            cached.take()
                        };
                        jobs.push(Job::Steady(chunk));
                    }
                }
                Job::Transient(mut g) => {
                    // A clone of a cached model carries its assembled
                    // operator.
                    g.worker = self.transient_models.get(&g.key.model).cloned();
                    jobs.push(Job::Transient(g));
                }
                Job::Polarization(mut g) => {
                    g.worker = self.cell_workers.remove(&g.key);
                    jobs.push(Job::Polarization(g));
                }
            }
        }
        let jobs: Vec<Mutex<Option<Job>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();

        let deterministic = self.deterministic;
        let served = parallel_map_indexed(&jobs, worker_count(jobs.len()), |_, slot| {
            slot.lock()
                .expect("job mutex poisoned")
                .take()
                .expect("each job runs exactly once")
                .serve(deterministic)
        });

        // Return one worker or model per pattern to its cache and fold
        // the counters.
        let mut best_precond_id = 0u64;
        for s in served {
            match s.job {
                Job::Steady(g) => {
                    if let Some(w) = g.worker {
                        self.workers.insert_if_absent(g.key, w);
                    }
                }
                Job::Polarization(g) => {
                    if let Some(w) = g.worker {
                        self.cell_workers.insert_if_absent(g.key, w);
                    }
                }
                Job::Transient(g) => {
                    // A panicking integration quarantines the whole
                    // model identity: drop the pre-assembled entry too,
                    // so the next batch re-assembles from scratch.
                    if s.counters.quarantined_workers > 0 {
                        self.transient_models.remove(&g.key.model);
                    }
                    if let Some(model) = g.worker {
                        self.transient_models.insert_if_absent(g.key.model, model);
                    }
                }
            }
            self.stats.absorb(&s.counters);
            if let Some((id, precond)) = s.precond {
                // The job holding the most recently submitted solved
                // request wins, regardless of completion order.
                if id >= best_precond_id {
                    best_precond_id = id;
                    self.stats.preconditioner = precond;
                }
            }
            reports.extend(s.reports);
        }
        reports.sort_unstable_by_key(EngineReport::request_id);
        reports
    }
}

/// Serves one request on a group's worker with panic isolation: a panic
/// (injected through [`bright_num::faults::maybe_panic`] or genuine)
/// becomes a [`CoreError::WorkerPanic`] for this request alone while
/// the batch completes. `observe` reads the worker after the serve;
/// then a failure of any kind quarantines it, because a half-done
/// retarget or an unwind leaves its state unknowable, and the next
/// request of the pattern rebuilds from its own scenario.
fn serve_isolated<W, T, O>(
    worker: &mut Option<W>,
    counters: &mut EngineStats,
    serve: impl FnOnce(&mut Option<W>) -> Result<T, CoreError>,
    observe: impl FnOnce(Option<&W>, &Result<T, CoreError>) -> O,
) -> (Result<T, CoreError>, O) {
    let existed = worker.is_some();
    // The worker holds no locks or global state, so observing it after
    // an unwind is memory-safe; it is only *logically* suspect.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        bright_num::faults::maybe_panic();
        serve(&mut *worker)
    }))
    .unwrap_or_else(|payload| {
        counters.panicked_requests += 1;
        Err(CoreError::WorkerPanic(crate::panic_message(
            payload.as_ref(),
        )))
    });
    let observed = observe(worker.as_ref(), &result);
    // `existed` credits a worker the serve already dropped itself.
    if result.is_err() && (worker.take().is_some() || existed) {
        counters.quarantined_workers += 1;
    }
    (result, observed)
}

/// Counters of a steady worker, read around each request it serves.
#[derive(Clone, Copy, Default)]
struct WorkerMarks {
    solves: u64,
    recovered: u64,
    cells_built: u64,
    cell_reuses: u64,
}

impl WorkerMarks {
    fn of(w: &CoSimulation) -> Self {
        Self {
            solves: w.thermal_session_stats().solves,
            recovered: w.thermal_session_stats().recovered_solves,
            cells_built: w.cell_context_stats().coefficient_builds,
            cell_reuses: w.cell_context_reuses(),
        }
    }
}

/// Serves a steady job serially, retargeting its worker between
/// requests.
fn serve_steady(
    mut group: Group<PatternKey, CoSimulation, Scenario>,
    deterministic: bool,
) -> Served {
    let pattern = group.key.digest();
    let requests = std::mem::take(&mut group.requests);
    let mut counters = EngineStats::default();
    let mut reports = Vec::with_capacity(requests.len());
    let mut last_solved = None;
    for (id, scenario) in requests {
        let before = group
            .worker
            .as_ref()
            .map_or_else(WorkerMarks::default, WorkerMarks::of);
        let mut built = false;
        let mut reused_operator = false;
        let (result, (after, degraded, precond)) = serve_isolated(
            &mut group.worker,
            &mut counters,
            |worker| match worker {
                // A failed retarget serves nothing, so it is not a reuse.
                Some(w) => {
                    w.retarget(scenario)?;
                    // History-independent mode: with cold Krylov starts,
                    // a retargeted run is bitwise-equal to a cold-built
                    // worker at this scenario.
                    if deterministic {
                        w.reset_warm_starts();
                    }
                    let report = w.run();
                    reused_operator = true;
                    report
                }
                None => {
                    let mut w = CoSimulation::new(scenario)?;
                    built = true;
                    let report = w.run();
                    *worker = Some(w);
                    report
                }
            },
            // Read before any quarantine drops the worker: a cold build
            // (or a rebuild after a failed refresh) shows as a
            // coefficient-build delta, an in-place retarget as a reuse
            // delta.
            |w, result| {
                let after = w.map_or(before, WorkerMarks::of);
                let degraded = if result.is_ok() && after.recovered > before.recovered {
                    w.and_then(CoSimulation::recovery_digest)
                } else {
                    None
                };
                // Attribute a preconditioner only when *this* request
                // actually solved (a failed request on a warm worker
                // must not inherit the previous request's digest).
                let precond = w
                    .filter(|_| after.solves > before.solves)
                    .map(CoSimulation::precond_digest)
                    .unwrap_or_default();
                (after, degraded, precond)
            },
        );
        counters.operators_built += u64::from(built);
        counters.operator_reuses += u64::from(reused_operator);
        counters.recovered_solves += after.recovered.saturating_sub(before.recovered);
        counters.cell_contexts_built += after.cells_built.saturating_sub(before.cells_built);
        counters.cell_context_reuses += after.cell_reuses.saturating_sub(before.cell_reuses);
        if !precond.is_empty() {
            last_solved = Some(id);
        }
        reports.push(EngineReport::Steady(ScenarioReport {
            request_id: id,
            pattern: pattern.clone(),
            reused_operator,
            precond,
            degraded,
            result,
        }));
    }
    let precond = last_solved.and_then(|id| {
        let w = group.worker.as_ref()?;
        Some((id, w.preconditioner_spec()))
    });
    Served {
        reports,
        job: Job::Steady(group),
        counters,
        precond,
    }
}

/// Serves a transient group over its segment-prefix tree.
fn serve_transients(mut group: Group<TransientGroupKey, ThermalModel, TransientRequest>) -> Served {
    let pattern = group.key.digest();
    let requests = std::mem::take(&mut group.requests);
    let (model, outcomes, c) = serve_transient_group(group.worker.take(), &requests);
    group.worker = model;
    let reports = outcomes
        .into_iter()
        .map(|(request_id, result)| {
            let degraded = match &result {
                Ok(o) if o.recovered_solves > 0 || o.solver_retries > 0 => Some(format!(
                    "thermal: {} ladder-recovered solve(s), {} dt-halving retry(ies)",
                    o.recovered_solves, o.solver_retries
                )),
                _ => None,
            };
            EngineReport::Transient(TransientReport {
                request_id,
                pattern: pattern.clone(),
                degraded,
                result,
            })
        })
        .collect();
    Served {
        reports,
        job: Job::Transient(group),
        counters: EngineStats {
            trace_segments_integrated: c.segments_integrated,
            trace_segments_reused: c.segments_reused,
            trace_integrators_carried: c.integrators_carried,
            recovered_solves: c.recovered_solves,
            solver_retries: c.solver_retries,
            panicked_requests: c.panicked_requests,
            quarantined_workers: c.quarantined_models,
            ..EngineStats::default()
        },
        precond: None,
    }
}

/// Serves a polarization group serially: one cached [`CellModel`]
/// worker whose solve context is **retargeted in place** between
/// requests (the duct velocity solution and the factored transport
/// operators survive every flow/inlet/temperature move), with each
/// sweep warm-bracketing its voltage ladder.
fn serve_polarizations(mut group: Group<CellPatternKey, CellModel, PolarizationRequest>) -> Served {
    let pattern = group.key.digest();
    let requests = std::mem::take(&mut group.requests);
    let mut counters = EngineStats::default();
    let mut built = 0u64;
    let mut reports = Vec::with_capacity(requests.len());
    for (id, req) in requests {
        let existed = group.worker.is_some();
        let (result, ()) = serve_isolated(
            &mut group.worker,
            &mut counters,
            |worker| serve_polarization(worker, &req, &mut built),
            |_, _| (),
        );
        // A failed retarget serves nothing, so it is not a reuse
        // (mirroring the steady path's accounting).
        let reused_context = existed && result.is_ok();
        counters.cell_context_reuses += u64::from(reused_context);
        reports.push(EngineReport::Polarization(PolarizationReport {
            request_id: id,
            pattern: pattern.clone(),
            reused_context,
            // Cell sweeps solve through direct factorizations — no
            // recovery ladder can have produced this answer.
            degraded: None,
            result,
        }));
    }
    counters.cell_contexts_built = built;
    Served {
        reports,
        job: Job::Polarization(group),
        counters,
        precond: None,
    }
}

/// Serves one polarization request from `worker`, building or
/// retargeting it as needed.
fn serve_polarization(
    worker: &mut Option<CellModel>,
    req: &PolarizationRequest,
    built: &mut u64,
) -> Result<PolarizationOutcome, CoreError> {
    if let Some(w) = worker.as_mut() {
        if let Err(e) = crate::cosim::retarget_cell_to(w, &req.scenario, None) {
            // A half-retargeted worker is unsafe to keep: drop it so the
            // next request rebuilds from its own scenario.
            *worker = None;
            return Err(e);
        }
    } else {
        let w = cell_model_for(&req.scenario)?;
        w.warm()?;
        *built += 1;
        *worker = Some(w);
    }
    let w = worker.as_ref().expect("built or retargeted above");
    let curve = w
        .polarization_curve(req.points)?
        .scaled_parallel(req.scenario.channel_count);
    Ok(PolarizationOutcome::from_curve(curve))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bright_units::{CubicMetersPerSecond, Kelvin};

    fn flow_scenario(ml_min: f64) -> Scenario {
        let mut s = Scenario::power7_reduced();
        s.total_flow = CubicMetersPerSecond::from_milliliters_per_minute(ml_min);
        s
    }

    #[test]
    fn batch_matches_cold_runs_and_reuses_operators() {
        let flows = [676.0, 200.0, 48.0];
        let mut engine = ScenarioEngine::new();
        let reports = engine.run_batch(flows.iter().map(|&f| flow_scenario(f)));
        assert_eq!(reports.len(), flows.len());
        for (report, &f) in reports.iter().zip(&flows) {
            let warm = report.result.as_ref().expect("engine run converges");
            let cold = CoSimulation::new(flow_scenario(f))
                .unwrap()
                .run()
                .unwrap();
            assert!(
                (warm.peak_temperature.value() - cold.peak_temperature.value()).abs() < 1e-4,
                "{f} ml/min: engine {} vs cold {}",
                warm.peak_temperature,
                cold.peak_temperature
            );
            assert!(
                (warm.pdn_min_voltage.value() - cold.pdn_min_voltage.value()).abs() < 1e-7
            );
        }
        // One pattern: one operator assembly, the rest reused (chunking
        // may add clones on multi-core hosts, but never more builds than
        // requests and at least one reuse on a 3-request group).
        let stats = engine.stats();
        assert_eq!(stats.requests, 3);
        assert!(stats.operators_built >= 1);
        assert!(
            stats.operators_built + stats.operator_reuses >= 3,
            "{stats:?}"
        );
        assert_eq!(engine.stats().cache_residents, 1);
    }

    #[test]
    fn steady_path_accounts_cell_contexts() {
        // Regression for the steady path silently dropping flow-cell
        // context telemetry: before the fix, only polarization batches
        // moved `cell_contexts_built` / `cell_context_reuses`, so a
        // Monte-Carlo-style steady workload reported zero reuse no
        // matter how well its workers recycled their duct solves.
        let flows = [676.0, 500.0, 400.0, 300.0, 120.0, 48.0];
        let n = flows.len();
        let mut engine = ScenarioEngine::new();
        let reports = engine.run_batch(flows.iter().map(|&f| flow_scenario(f)));
        assert!(reports.iter().all(|r| r.result.is_ok()));
        // The group splits into as many chunks as the executor budget
        // allows; each chunk cold-builds one worker (and its cell
        // context), every further request in a chunk retargets it.
        let budget = worker_count(n).max(1).min(n);
        let chunk_size = n.div_ceil(budget);
        let chunks = n.div_ceil(chunk_size) as u64;
        let built_1 = engine.stats().cell_contexts_built;
        let reused_1 = engine.stats().cell_context_reuses;
        assert_eq!(built_1, chunks, "{:?}", engine.stats());
        assert_eq!(built_1 + reused_1, n as u64, "{:?}", engine.stats());
        // Second batch: the cached pattern worker (and its clones) serve
        // every request by in-place refresh — zero new contexts.
        let reports = engine.run_batch(flows.iter().map(|&f| flow_scenario(f)));
        assert!(reports.iter().all(|r| r.result.is_ok()));
        assert_eq!(
            engine.stats().cell_contexts_built,
            built_1,
            "warm batch must not rebuild cell contexts"
        );
        assert_eq!(
            engine.stats().cell_context_reuses,
            reused_1 + n as u64,
            "{:?}",
            engine.stats()
        );
    }

    #[test]
    fn reports_come_back_in_submission_order_across_patterns() {
        let mut engine = ScenarioEngine::new();
        let mut coarse = Scenario::power7_reduced();
        coarse.thermal_columns = 11;
        coarse.thermal_ny = 11;
        let ids = [
            engine.submit(ScenarioRequest::Steady(flow_scenario(676.0))),
            engine.submit(ScenarioRequest::Steady(coarse.clone())),
            engine.submit(ScenarioRequest::Steady(flow_scenario(120.0))),
            engine.submit(ScenarioRequest::Steady(coarse)),
        ];
        assert_eq!(engine.pending(), 4);
        let reports = engine.run();
        assert_eq!(engine.pending(), 0);
        let got: Vec<u64> = reports.iter().map(EngineReport::request_id).collect();
        assert_eq!(got, ids.to_vec());
        // Two distinct pattern groups.
        assert_eq!(engine.stats().cache_residents, 2);
        let digests: std::collections::HashSet<&str> =
            reports.iter().map(EngineReport::pattern).collect();
        assert_eq!(digests.len(), 2);
        assert!(reports.iter().all(EngineReport::is_ok));
    }

    #[test]
    fn second_batch_reuses_cached_workers() {
        let mut engine = ScenarioEngine::new();
        engine.run_batch([flow_scenario(676.0)]);
        let built_before = engine.stats().operators_built;
        let reports = engine.run_batch([flow_scenario(400.0), flow_scenario(250.0)]);
        assert!(reports.iter().all(|r| r.result.is_ok()));
        assert!(reports.iter().all(|r| r.reused_operator));
        assert_eq!(engine.stats().operators_built, built_before);
        assert_eq!(engine.stats().batches, 2);

        engine.evict_workers();
        assert_eq!(engine.stats().cache_residents, 0);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used_and_counts() {
        let mut engine = ScenarioEngine::new();
        engine.set_cache_capacity(1);
        // Two distinct patterns: only the most recently returned worker
        // may stay resident.
        let mut coarse = Scenario::power7_reduced();
        coarse.thermal_columns = 11;
        coarse.thermal_ny = 11;
        let reports = engine.run_batch([flow_scenario(676.0), coarse.clone()]);
        assert!(reports.iter().all(|r| r.result.is_ok()));
        assert_eq!(engine.stats().cache_residents, 1, "bound must hold");
        let stats = engine.stats();
        assert_eq!(stats.cache_capacity, 1);
        assert_eq!(stats.cache_residents, 1);
        assert!(stats.evicted_workers >= 1, "{stats:?}");

        // The unbounded default never evicts.
        let mut open = ScenarioEngine::new();
        open.run_batch([flow_scenario(676.0), coarse]);
        assert_eq!(open.stats().cache_residents, 2);
        assert_eq!(open.stats().evicted_workers, 0);
        assert_eq!(open.stats().cache_capacity, 0);
        assert_eq!(open.stats().cache_residents, 2);

        // Tightening the bound on a warm engine evicts immediately.
        open.set_cache_capacity(1);
        assert_eq!(open.stats().cache_residents, 1);
        assert!(open.stats().evicted_workers >= 1);
    }

    #[test]
    fn lru_eviction_prefers_the_stalest_entry() {
        let mut cache: LruCache<u32, &str> = LruCache::default();
        cache.set_capacity(2);
        cache.insert_if_absent(1, "a");
        cache.insert_if_absent(2, "b");
        // Touch 1 so 2 becomes the eviction candidate.
        assert_eq!(cache.get(&1), Some(&"a"));
        cache.insert_if_absent(3, "c");
        assert_eq!(cache.len(), 2);
        assert!(cache.contains_key(&1), "recently used entry survives");
        assert!(!cache.contains_key(&2), "stalest entry evicted");
        assert!(cache.contains_key(&3));
        assert_eq!(cache.evictions(), 1);
        // An insert over a resident key keeps the existing value and
        // does not evict.
        cache.insert_if_absent(1, "z");
        assert_eq!(cache.get(&1), Some(&"a"));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn deterministic_mode_is_history_independent() {
        // A warm engine that served other scenarios first must, in
        // deterministic mode, answer bitwise-identically to a cold
        // engine asked only the final question — the property the
        // durable service's crash recovery leans on.
        let mut warm = ScenarioEngine::new();
        warm.set_deterministic(true);
        warm.run_batch([flow_scenario(676.0), flow_scenario(400.0)]);
        let warm_reports = warm.run_batch([flow_scenario(250.0)]);
        assert!(warm_reports[0].reused_operator, "cache must be in play");

        let mut cold = ScenarioEngine::new();
        cold.set_deterministic(true);
        let cold_reports = cold.run_batch([flow_scenario(250.0)]);

        let warm_json = warm_reports[0]
            .result
            .as_ref()
            .expect("warm serve converges")
            .to_json_string();
        let cold_json = cold_reports[0]
            .result
            .as_ref()
            .expect("cold serve converges")
            .to_json_string();
        assert_eq!(warm_json, cold_json, "history leaked into the answer");
    }

    #[test]
    fn reports_record_the_serving_preconditioner() {
        let mut engine = ScenarioEngine::new();
        let reports = engine.run_batch([flow_scenario(676.0), flow_scenario(300.0)]);
        for r in &reports {
            assert!(r.result.is_ok());
            // The preconditioner that served the solve is stamped on
            // every successful report.
            assert!(!r.precond.is_empty(), "precond missing: {r:?}");
        }
        let stats = engine.stats();
        assert_eq!(
            stats.preconditioner.name(),
            reports
                .last()
                .map(|r| r.precond.as_str())
                .map(|p| if p.starts_with("mg(") { "multigrid" } else { p })
                .unwrap(),
            "{stats:?}"
        );
    }

    #[test]
    fn invalid_scenarios_fail_individually() {
        let mut engine = ScenarioEngine::new();
        let mut bad = flow_scenario(400.0);
        bad.sweep_points = 1;
        let reports = engine.run_batch([flow_scenario(676.0), bad]);
        assert!(reports[0].result.is_ok());
        assert!(matches!(
            reports[1].result,
            Err(CoreError::InvalidScenario(_))
        ));
    }

    #[test]
    fn invalid_steady_request_keeps_the_healthy_worker() {
        // An invalid scenario fails validation before it reaches its
        // pattern's cached worker, so the worker survives: the next
        // valid request retargets it instead of rebuilding.
        let mut engine = ScenarioEngine::new();
        assert!(engine.run_batch([flow_scenario(676.0)])[0].result.is_ok());
        let mut bad = flow_scenario(400.0);
        bad.sweep_points = 1;
        let reports = engine.run_batch([bad]);
        assert!(matches!(
            reports[0].result,
            Err(CoreError::InvalidScenario(_))
        ));
        let stats = engine.stats();
        assert_eq!(stats.quarantined_workers, 0, "{stats:?}");
        assert_eq!(stats.cache_residents, 1, "{stats:?}");
        let reports = engine.run_batch([flow_scenario(300.0)]);
        assert!(reports[0].result.is_ok());
        assert!(reports[0].reused_operator, "{:?}", reports[0]);
        assert_eq!(engine.stats().operators_built, 1);
    }

    #[test]
    fn typed_adapters_leave_the_queue_alone() {
        let mut engine = ScenarioEngine::new();
        let queued = engine.submit(ScenarioRequest::Polarization(PolarizationRequest::new(
            flow_scenario(676.0),
        )));
        let reports = engine.run_batch([flow_scenario(400.0)]);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].result.is_ok());
        assert_eq!(engine.pending(), 1, "the adapter must not drain the queue");
        let reports = engine.run();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].request_id(), queued);
        assert!(matches!(reports[0], EngineReport::Polarization(_)));
        assert!(reports[0].is_ok());
    }

    #[test]
    fn transient_batch_shares_prefixes_and_caches_models() {
        use crate::transient::{LoadStep, SteppingMode, TransientRequest};
        use bright_floorplan::PowerScenario;
        use bright_units::Kelvin as K;

        let step = |d: f64, load: PowerScenario| LoadStep::new(d, load);
        let request = |tail: PowerScenario| TransientRequest {
            scenario: Scenario::power7_reduced(),
            trace: vec![
                step(0.02, PowerScenario::full_load()),
                step(0.02, tail),
            ],
            initial_temperature: K::new(300.0),
            stepping: SteppingMode::Fixed { dt: 2e-3 },
        };
        let mut engine = ScenarioEngine::new();
        let reports = engine.run_transient_batch([
            request(PowerScenario::full_load()),
            request(PowerScenario::cache_only()),
        ]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].request_id, 0);
        assert_eq!(reports[1].request_id, 1);
        let a = reports[0].result.as_ref().expect("branch A converges");
        let b = reports[1].result.as_ref().expect("branch B converges");
        assert!(a.final_peak.value() > b.final_peak.value());
        assert!((a.shared_time - 0.02).abs() < 1e-15);
        let stats = engine.stats();
        assert_eq!(stats.transient_requests, 2);
        assert_eq!(stats.trace_segments_integrated, 3, "prefix must be shared");
        assert_eq!(stats.trace_segments_reused, 1);
        assert_eq!(stats.trace_integrators_carried, 0, "the prefix branches");

        // Four 3-segment variants over a shared 2-segment prefix: the
        // prefix is integrated once, its second segment extends the
        // first's live integrator, and the four tails branch from its
        // checkpoint. A solo 3-segment chain carries at both boundaries.
        let chain = |tail: f64| {
            let mut r = request(PowerScenario::cache_only());
            r.trace.push(step(0.02, PowerScenario::full_load().scaled(tail)));
            r
        };
        let mut branched = ScenarioEngine::new();
        let reports = branched.run_transient_batch((1..=4).map(|k| chain(0.2 * f64::from(k))));
        assert!(reports.iter().all(|r| r.result.is_ok()), "{reports:?}");
        let stats = branched.stats();
        assert_eq!(stats.trace_segments_integrated, 6, "2 prefix segments + 4 tails");
        assert_eq!(stats.trace_segments_reused, 6, "3 later variants share 2 segments");
        assert_eq!(stats.trace_integrators_carried, 1);
        let mut solo = ScenarioEngine::new();
        assert!(solo.run_transient_batch([chain(0.2)])[0].result.is_ok());
        assert_eq!(solo.stats().trace_integrators_carried, 2);

        // A second batch on the same group reuses the cached model (no
        // new thermal assembly).
        let before = engine
            .transient_models
            .values()
            .map(bright_thermal::ThermalModel::assembly_count)
            .sum::<usize>();
        assert_eq!(before, 1);
        engine.run_transient_batch([request(PowerScenario::full_load())]);
        let after = engine
            .transient_models
            .values()
            .map(bright_thermal::ThermalModel::assembly_count)
            .sum::<usize>();
        assert_eq!(after, 1, "second batch must not re-assemble");

        // dt variants are different serving groups but the same
        // operator identity: one cached model, one assembly — even when
        // both variants arrive in the same cold batch (the engine
        // pre-assembles per identity before dispatch).
        let mut coarser = request(PowerScenario::full_load());
        coarser.stepping = SteppingMode::Fixed { dt: 4e-3 };
        engine.run_transient_batch([coarser.clone()]);
        assert_eq!(engine.transient_models.len(), 1);
        let after_variant = engine
            .transient_models
            .values()
            .map(bright_thermal::ThermalModel::assembly_count)
            .sum::<usize>();
        assert_eq!(after_variant, 1, "dt variant must reuse the model");

        let mut cold = ScenarioEngine::new();
        cold.run_transient_batch([request(PowerScenario::full_load()), coarser]);
        assert_eq!(cold.transient_models.len(), 1);
        assert_eq!(
            cold.transient_models
                .values()
                .map(bright_thermal::ThermalModel::assembly_count)
                .sum::<usize>(),
            1,
            "same-batch dt variants must share one assembly"
        );
    }

    #[test]
    fn transient_invalid_requests_fail_individually() {
        use crate::transient::{LoadStep, SteppingMode, TransientRequest};
        use bright_floorplan::PowerScenario;

        let good = TransientRequest {
            scenario: Scenario::power7_reduced(),
            trace: vec![LoadStep::new(0.01, PowerScenario::full_load())],
            initial_temperature: bright_units::Kelvin::new(300.0),
            stepping: SteppingMode::Fixed { dt: 2e-3 },
        };
        let mut bad = good.clone();
        bad.trace.clear();
        let mut engine = ScenarioEngine::new();
        let ids = [
            engine.submit(ScenarioRequest::Transient(good)),
            engine.submit(ScenarioRequest::Transient(bad)),
        ];
        assert_eq!(engine.pending(), 2);
        let reports = engine.run();
        assert_eq!(engine.pending(), 0);
        assert_eq!(
            reports
                .iter()
                .map(EngineReport::request_id)
                .collect::<Vec<_>>(),
            ids.to_vec()
        );
        assert!(reports[0].is_ok());
        assert!(matches!(
            &reports[1],
            EngineReport::Transient(TransientReport {
                result: Err(CoreError::InvalidScenario(_)),
                ..
            })
        ));
    }

    #[test]
    fn polarization_batch_reuses_one_cell_context_and_matches_cold_sweeps() {
        let mut engine = ScenarioEngine::new();
        let mut requests = Vec::new();
        for ml_min in [676.0, 300.0, 96.0] {
            requests.push(PolarizationRequest::new(flow_scenario(ml_min)));
        }
        let mut warm_inlet = Scenario::power7_reduced();
        warm_inlet.inlet_temperature = Kelvin::new(310.15);
        requests.push(PolarizationRequest::new(warm_inlet));
        let reports = engine.run_polarization_batch(requests.clone());
        assert_eq!(reports.len(), 4);
        for (k, report) in reports.iter().enumerate() {
            assert_eq!(report.request_id, k as u64);
            assert_eq!(report.reused_context, k > 0, "{report:?}");
            let warm = report.result.as_ref().expect("sweep converges");
            // The retargeted worker must match a cold model exactly:
            // same context-construction arithmetic, so bitwise-equal
            // curves.
            let s = &requests[k].scenario;
            let cold = crate::cosim::cell_model_for(s)
                .unwrap()
                .polarization_curve(requests[k].points)
                .unwrap()
                .scaled_parallel(s.channel_count);
            assert_eq!(warm.curve, cold, "request {k} diverged from cold build");
            assert!(warm.array_ocv.value() > 1.5);
        }
        // Lower flow, lower limiting current; warmer inlet, more
        // current at 1 V.
        let i = |k: usize| {
            reports[k]
                .result
                .as_ref()
                .unwrap()
                .curve
                .limiting_current()
                .value()
        };
        assert!(i(0) > i(1) && i(1) > i(2), "{} {} {}", i(0), i(1), i(2));
        let stats = engine.stats();
        assert_eq!(stats.polarization_requests, 4);
        assert_eq!(stats.cell_contexts_built, 1, "one pattern, one cold build");
        assert_eq!(stats.cell_context_reuses, 3);
        assert_eq!(engine.stats().cache_residents, 1);

        // A second batch reuses the cached worker outright.
        let reports = engine.run_polarization_batch([PolarizationRequest::new(
            flow_scenario(500.0),
        )]);
        assert!(reports[0].reused_context);
        assert_eq!(engine.stats().cell_contexts_built, 1);

        // The worker's own telemetry shows the geometry/operator reuse.
        let worker = engine.cell_workers.values().next().expect("cached worker");
        let cell_stats = worker.context_stats();
        assert_eq!(cell_stats.geometry_builds, 1, "{cell_stats:?}");
        assert_eq!(cell_stats.op_builds, 2, "{cell_stats:?}");
        assert!(cell_stats.coefficient_refreshes >= 4, "{cell_stats:?}");

        engine.evict_workers();
        assert_eq!(engine.stats().cache_residents, 0);
    }

    #[test]
    fn invalid_polarization_requests_fail_individually() {
        let mut engine = ScenarioEngine::new();
        let mut bad = PolarizationRequest::new(flow_scenario(400.0));
        bad.points = 1;
        let reports = engine.run_polarization_batch([
            PolarizationRequest::new(flow_scenario(676.0)),
            bad,
        ]);
        assert!(reports[0].result.is_ok());
        assert!(matches!(
            reports[1].result,
            Err(CoreError::InvalidScenario(_))
        ));
        assert!(!reports[1].reused_context);
    }

    #[test]
    fn mixed_batch_returns_reports_in_submission_order() {
        use crate::transient::{LoadStep, SteppingMode, TransientRequest};
        use bright_floorplan::PowerScenario;

        let transient = TransientRequest {
            scenario: Scenario::power7_reduced(),
            trace: vec![LoadStep::new(0.01, PowerScenario::full_load())],
            initial_temperature: Kelvin::new(300.0),
            stepping: SteppingMode::Fixed { dt: 2e-3 },
        };
        let mut engine = ScenarioEngine::new();
        let ids = [
            engine.submit(ScenarioRequest::Polarization(PolarizationRequest::new(
                flow_scenario(676.0),
            ))),
            engine.submit(ScenarioRequest::Steady(flow_scenario(400.0))),
            engine.submit(ScenarioRequest::Transient(transient.clone())),
            engine.submit(ScenarioRequest::Steady(flow_scenario(120.0))),
            engine.submit(ScenarioRequest::Polarization(PolarizationRequest::new(
                flow_scenario(200.0),
            ))),
            engine.submit(ScenarioRequest::Transient(transient)),
        ];
        assert_eq!(engine.pending(), 6);
        let reports = engine.run();
        assert_eq!(engine.pending(), 0);
        let got: Vec<u64> = reports.iter().map(EngineReport::request_id).collect();
        assert_eq!(got, ids.to_vec(), "submission order must survive the merge");
        assert!(reports.iter().all(EngineReport::is_ok));
        // Each slot came back as its own kind.
        assert!(matches!(reports[0], EngineReport::Polarization(_)));
        assert!(matches!(reports[1], EngineReport::Steady(_)));
        assert!(matches!(reports[2], EngineReport::Transient(_)));
        assert!(matches!(reports[3], EngineReport::Steady(_)));
        assert!(matches!(reports[4], EngineReport::Polarization(_)));
        assert!(matches!(reports[5], EngineReport::Transient(_)));
        assert!(!reports[0].pattern().is_empty());
        let stats = engine.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.transient_requests, 2);
        assert_eq!(stats.polarization_requests, 2);
        assert_eq!(stats.batches, 1, "a mixed run is one batch");
    }

    #[test]
    fn inlet_temperature_sweep_serves_through_one_pattern() {
        let mut engine = ScenarioEngine::new();
        let reports = engine.run_batch([300.0, 305.0, 310.15].map(|t| {
            let mut s = Scenario::power7_reduced();
            s.inlet_temperature = Kelvin::new(t);
            s
        }));
        let peaks: Vec<f64> = reports
            .iter()
            .map(|r| r.result.as_ref().unwrap().peak_temperature.value())
            .collect();
        // Warmer inlet, warmer chip.
        assert!(peaks.windows(2).all(|w| w[1] > w[0]), "{peaks:?}");
        assert_eq!(engine.stats().cache_residents, 1);
    }
}
