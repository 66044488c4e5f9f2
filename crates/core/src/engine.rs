//! Batched scenario serving: a long-lived engine over the co-simulation.
//!
//! The paper's results — and the ROADMAP's production north star — are
//! dense design-space sweeps: many [`Scenario`]s whose operators share
//! sparsity patterns and differ only in coefficients (flow rate, inlet
//! temperature, loads). A [`ScenarioEngine`] accepts a stream of
//! requests, groups them by **operator pattern** (thermal grid + layer
//! lumping, PDN grid), and serves each group through a cached
//! [`CoSimulation`] worker that is *retargeted* between requests instead
//! of rebuilt: thermal coefficients re-stamp through the cached pattern,
//! the PDN system and both solver sessions persist, and warm starts
//! carry from one operating point to the next.
//!
//! Batches are dispatched through the PR-1 sweep executor
//! ([`crate::sweeps::parallel_map`]): different pattern groups run on
//! different workers, and a single large group is split into chunks,
//! each chunk served by a clone of the group's worker (sessions clone
//! cheaply; preconditioners rebuild lazily). Results come back as
//! [`ScenarioReport`]s in submission order, with per-request reuse
//! telemetry and engine-wide [`EngineStats`].
//!
//! Time-varying loads ride the same engine as [`ScenarioRequest::Transient`]
//! requests: [`ScenarioEngine::submit_transient`] /
//! [`ScenarioEngine::run_pending_transients`] group compatible trace
//! integrations and serve each group over a segment-prefix tree, so
//! trace prefixes shared by several requests are integrated once and
//! branched from checkpoints (see [`crate::transient`]).
//!
//! Electrochemical sweeps ride it too, as
//! [`ScenarioRequest::Polarization`] requests: groups keyed by
//! [`CellPatternKey`] (transport grids + velocity model) are served by
//! cached flow-cell workers whose geometry/coefficient contexts are
//! retargeted in place between requests — the duct velocity solution
//! and the factored transport operators are paid for once per pattern,
//! exactly like the thermal operator on the steady path. A mixed batch
//! of all three kinds dispatches through
//! [`ScenarioEngine::run_all_pending`].
//!
//! ```no_run
//! use bright_core::engine::ScenarioEngine;
//! use bright_core::Scenario;
//! use bright_units::CubicMetersPerSecond;
//!
//! let mut engine = ScenarioEngine::new();
//! for ml_min in [676.0, 400.0, 200.0, 100.0, 48.0] {
//!     let mut s = Scenario::power7_nominal();
//!     s.total_flow = CubicMetersPerSecond::from_milliliters_per_minute(ml_min);
//!     engine.submit(s);
//! }
//! for report in engine.run_pending() {
//!     let r = report.result.expect("solves converge");
//!     println!("request {}: peak {}", report.request_id, r.peak_temperature);
//! }
//! // One pattern: at most one operator build per executor chunk (a
//! // single build on single-worker hosts; a new pattern's group may be
//! // chunked across workers on its first batch).
//! let stats = engine.stats();
//! assert!(stats.operators_built >= 1 && stats.operators_built + stats.operator_reuses == 5);
//! ```

use crate::cosim::{cell_model_for, CoSimulation};
use crate::reports::{CoSimReport, PolarizationOutcome};
use crate::scenario::Scenario;
use crate::sweeps::{parallel_map, sweep_workers};
use crate::transient::{
    serve_transient_group, TransientGroupKey, TransientModelKey, TransientReport,
    TransientRequest,
};
use crate::CoreError;
use bright_flowcell::{CellModel, SolverOptions};
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

/// A report of any request kind, as returned by
/// [`ScenarioEngine::run_all_pending`] (one shared submission-id
/// space).
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
    /// Batches dispatched ([`ScenarioEngine::run_pending`] /
    /// [`ScenarioEngine::run_pending_transients`] calls that had work).
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
    /// Session solves (thermal + PDN, plus transient integrations) that
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

/// One pattern group's slice of a batch, plus the worker serving it
/// (`None` until the first request of a brand-new pattern builds it).
struct GroupJob {
    key: PatternKey,
    worker: Option<CoSimulation>,
    requests: Vec<(u64, Scenario)>,
    deterministic: bool,
}

/// The outcome of one group job.
struct GroupResult {
    key: PatternKey,
    worker: Option<CoSimulation>,
    reports: Vec<ScenarioReport>,
    built: u64,
    reused: u64,
    /// Session solves that succeeded through the recovery ladder.
    recovered: u64,
    /// Workers dropped after a panicking or failing serve.
    quarantined: u64,
    /// Requests that panicked (each reported as `WorkerPanic`).
    panicked: u64,
    /// Cold flow-cell solve-context builds paid by this group's worker
    /// ([`bright_flowcell::CellContextStats::coefficient_builds`]
    /// deltas).
    cells_built: u64,
    /// Retargets that refreshed the flow-cell context in place
    /// ([`CoSimulation::cell_context_reuses`] deltas).
    cell_reuses: u64,
    /// Preconditioner spec of this group's last served request, tagged
    /// with the highest request id so the batch-level stats pick a
    /// deterministic winner (groups come back in arbitrary executor
    /// order).
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
    queue: Vec<(u64, Scenario)>,
    /// Queued transient requests (separate queue, shared id space).
    transient_queue: Vec<(u64, TransientRequest)>,
    /// Queued polarization requests (separate queue, shared id space).
    polarization_queue: Vec<(u64, PolarizationRequest)>,
    /// Assembled thermal models cached across batches, keyed by
    /// operator identity (pattern + flow + inlet) — coarser than the
    /// serving groups, so dt/tolerance variants share one assembly.
    transient_models: LruCache<TransientModelKey, ThermalModel>,
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

    /// Queues a scenario and returns its request id. Validation happens
    /// at dispatch; an invalid scenario surfaces as an `Err` in its
    /// [`ScenarioReport::result`].
    pub fn submit(&mut self, scenario: Scenario) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push((id, scenario));
        id
    }

    /// Queues a transient trace integration and returns its request id
    /// (shared id space with [`ScenarioEngine::submit`]). Dispatched by
    /// [`ScenarioEngine::run_pending_transients`].
    pub fn submit_transient(&mut self, request: TransientRequest) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.transient_queue.push((id, request));
        id
    }

    /// Queues a polarization sweep and returns its request id (shared
    /// id space with [`ScenarioEngine::submit`]). Dispatched by
    /// [`ScenarioEngine::run_pending_polarizations`].
    pub fn submit_polarization(&mut self, request: PolarizationRequest) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.polarization_queue.push((id, request));
        id
    }

    /// Queues any kind of request ([`ScenarioRequest`]) and returns its
    /// id. Steady requests are dispatched by
    /// [`ScenarioEngine::run_pending`], transient ones by
    /// [`ScenarioEngine::run_pending_transients`], polarization ones by
    /// [`ScenarioEngine::run_pending_polarizations`] — or everything at
    /// once by [`ScenarioEngine::run_all_pending`].
    pub fn submit_request(&mut self, request: ScenarioRequest) -> u64 {
        match request {
            ScenarioRequest::Steady(s) => self.submit(s),
            ScenarioRequest::Transient(t) => self.submit_transient(t),
            ScenarioRequest::Polarization(p) => self.submit_polarization(p),
        }
    }

    /// Number of queued, not-yet-dispatched steady requests.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of queued, not-yet-dispatched transient requests.
    #[must_use]
    pub fn pending_transients(&self) -> usize {
        self.transient_queue.len()
    }

    /// Number of queued, not-yet-dispatched polarization requests.
    #[must_use]
    pub fn pending_polarizations(&self) -> usize {
        self.polarization_queue.len()
    }

    /// Number of pattern workers (cached operator sets) currently held.
    #[must_use]
    pub fn cached_patterns(&self) -> usize {
        self.workers.len()
    }

    /// Number of cached flow-cell workers (one per cell-geometry
    /// pattern served so far).
    #[must_use]
    pub fn cached_cell_patterns(&self) -> usize {
        self.cell_workers.len()
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

    /// Clones an assembled thermal model for `request` out of the
    /// transient cache, building (and caching) it on a miss. Used by
    /// the durable service to integrate a trace segment-by-segment with
    /// checkpoints persisted between segments; sharing this cache keeps
    /// the service's per-segment serving on the same operator-reuse
    /// path as [`ScenarioEngine::run_pending_transients`].
    pub(crate) fn cached_transient_model(
        &mut self,
        request: &TransientRequest,
    ) -> Result<ThermalModel, CoreError> {
        let key = TransientModelKey::of(request);
        if let Some(model) = self.transient_models.get(&key) {
            return Ok(model.clone());
        }
        let model = crate::cosim::thermal_model_for(&request.scenario)?;
        model.assemble().map_err(|e| CoreError::Thermal(e.to_string()))?;
        self.transient_models.insert_if_absent(key, model.clone());
        Ok(model)
    }

    /// Drops all cached workers (operators, sessions, warm starts),
    /// cached transient thermal models and cached flow-cell workers;
    /// the next batch rebuilds on demand. Queues and counters are
    /// unaffected.
    pub fn evict_workers(&mut self) {
        self.workers.clear();
        self.transient_models.clear();
        self.cell_workers.clear();
    }

    /// Convenience: submits every scenario, dispatches, and returns the
    /// reports in input order.
    pub fn run_batch(&mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Vec<ScenarioReport> {
        for s in scenarios {
            self.submit(s);
        }
        self.run_pending()
    }

    /// Dispatches every queued request and returns their reports in
    /// submission order.
    ///
    /// Requests are grouped by [`PatternKey`]; each group is served
    /// serially by one retargeted worker so operators and warm starts
    /// are reused point-to-point, and groups run in parallel on the
    /// sweep executor. When the batch has fewer groups than available
    /// workers, large groups are split into chunks served by clones of
    /// the group worker.
    pub fn run_pending(&mut self) -> Vec<ScenarioReport> {
        let queue = std::mem::take(&mut self.queue);
        if queue.is_empty() {
            return Vec::new();
        }
        self.stats.batches += 1;
        self.stats.requests += queue.len() as u64;

        // Group in first-seen order.
        let mut order: Vec<PatternKey> = Vec::new();
        let mut groups: HashMap<PatternKey, Vec<(u64, Scenario)>> = HashMap::new();
        for (id, scenario) in queue {
            match groups.entry(PatternKey::of(&scenario)) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().push((id, scenario));
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    order.push(e.key().clone());
                    e.insert(vec![(id, scenario)]);
                }
            }
        }

        // Split groups into jobs. Budget the split so the batch can use
        // the executor's parallelism even when one pattern dominates:
        // each extra chunk serves its slice through a *clone* of the
        // group worker (operators come along; sessions re-factor
        // lazily).
        let total: usize = groups.values().map(Vec::len).sum();
        let budget = sweep_workers(total).max(1);
        let per_group_chunks = budget.div_ceil(order.len().max(1)).max(1);
        let mut jobs: Vec<Mutex<Option<GroupJob>>> = Vec::new();
        for key in order {
            let requests = groups.remove(&key).expect("grouped above");
            let mut cached_worker = self.workers.remove(&key);
            let chunks = per_group_chunks.min(requests.len()).max(1);
            let chunk_size = requests.len().div_ceil(chunks);
            let mut slices: Vec<Vec<(u64, Scenario)>> = Vec::with_capacity(chunks);
            let mut iter = requests.into_iter().peekable();
            while iter.peek().is_some() {
                slices.push(iter.by_ref().take(chunk_size).collect());
            }
            let n_slices = slices.len();
            for (ci, chunk) in slices.into_iter().enumerate() {
                let worker = if ci + 1 == n_slices {
                    cached_worker.take()
                } else {
                    cached_worker.clone()
                };
                jobs.push(Mutex::new(Some(GroupJob {
                    key: key.clone(),
                    worker,
                    requests: chunk,
                    deterministic: self.deterministic,
                })));
            }
        }

        // Dispatch through the sweep executor.
        let results: Vec<GroupResult> = parallel_map(&jobs, |_, slot| {
            let job = slot
                .lock()
                .expect("group job mutex poisoned")
                .take()
                .expect("each job runs exactly once");
            Self::run_group(job)
        });

        // Return one worker per pattern to the cache and fold stats.
        let mut reports: Vec<ScenarioReport> = Vec::new();
        let mut best_precond_id = 0u64;
        for r in results {
            if let Some(worker) = r.worker {
                self.workers.insert_if_absent(r.key, worker);
            }
            self.stats.operators_built += r.built;
            self.stats.operator_reuses += r.reused;
            self.stats.recovered_solves += r.recovered;
            self.stats.quarantined_workers += r.quarantined;
            self.stats.panicked_requests += r.panicked;
            self.stats.cell_contexts_built += r.cells_built;
            self.stats.cell_context_reuses += r.cell_reuses;
            if let Some((id, precond)) = r.precond {
                // Deterministic across executor scheduling: the group
                // holding the most recently submitted solved request
                // wins, regardless of completion order.
                if id >= best_precond_id {
                    best_precond_id = id;
                    self.stats.preconditioner = precond;
                }
            }
            reports.extend(r.reports);
        }
        reports.sort_unstable_by_key(|r| r.request_id);
        reports
    }

    /// Serves one group job serially, retargeting its worker between
    /// requests.
    fn run_group(job: GroupJob) -> GroupResult {
        let GroupJob {
            key,
            mut worker,
            requests,
            deterministic,
        } = job;
        let digest = key.digest();
        let mut reports = Vec::with_capacity(requests.len());
        let mut built = 0u64;
        let mut reused = 0u64;
        let mut recovered = 0u64;
        let mut quarantined = 0u64;
        let mut panicked = 0u64;
        let mut cells_built = 0u64;
        let mut cell_reuses = 0u64;
        for (id, scenario) in requests {
            let solves_before = worker
                .as_ref()
                .map_or(0, |w| w.thermal_session_stats().solves);
            let cells_built_before = worker
                .as_ref()
                .map_or(0, |w| w.cell_context_stats().coefficient_builds);
            let cell_reuses_before = worker.as_ref().map_or(0, CoSimulation::cell_context_reuses);
            let recovered_before = worker.as_ref().map_or(0, |w| {
                w.thermal_session_stats().recovered_solves
                    + w.pdn_session_stats().recovered_solves
            });
            // Panic isolation: one pathological request must not take
            // the whole batch (or the engine's caller) down. The worker
            // holds no locks or global state, so observing it after an
            // unwind is memory-safe; it is *logically* suspect, which
            // is why a panicking serve quarantines it below.
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bright_num::faults::maybe_panic();
                match &mut worker {
                    // A failed retarget serves nothing, so it is not a
                    // reuse.
                    Some(w) => match w.retarget(scenario) {
                        Ok(()) => {
                            // History-independent mode: with cold Krylov
                            // starts, a retargeted run is bitwise-equal
                            // to a cold-built worker at this scenario.
                            if deterministic {
                                w.reset_warm_starts();
                            }
                            (true, w.run())
                        }
                        Err(e) => (false, Err(e)),
                    },
                    None => match CoSimulation::new(scenario) {
                        Ok(mut w) => {
                            built += 1;
                            let r = w.run();
                            worker = Some(w);
                            (false, r)
                        }
                        Err(e) => (false, Err(e)),
                    },
                }
            }));
            let (reused_operator, result) = match served {
                Ok(pair) => pair,
                Err(payload) => {
                    panicked += 1;
                    (
                        false,
                        Err(CoreError::WorkerPanic(crate::panic_message(
                            payload.as_ref(),
                        ))),
                    )
                }
            };
            if reused_operator {
                reused += 1;
            }
            // Degradation accounting must read the worker *before* any
            // quarantine drops it.
            let recovered_after = worker.as_ref().map_or(recovered_before, |w| {
                w.thermal_session_stats().recovered_solves
                    + w.pdn_session_stats().recovered_solves
            });
            recovered += recovered_after.saturating_sub(recovered_before);
            // Flow-cell context accounting: a cold worker (or a rebuild
            // after a failed refresh) shows up as a coefficient-build
            // delta, an in-place retarget as a reuse delta. Read before
            // any quarantine drops the worker.
            let cells_built_after = worker
                .as_ref()
                .map_or(cells_built_before, |w| w.cell_context_stats().coefficient_builds);
            let cell_reuses_after = worker
                .as_ref()
                .map_or(cell_reuses_before, CoSimulation::cell_context_reuses);
            cells_built += cells_built_after.saturating_sub(cells_built_before);
            cell_reuses += cell_reuses_after.saturating_sub(cell_reuses_before);
            let degraded = if result.is_ok() && recovered_after > recovered_before {
                worker.as_ref().and_then(|w| w.recovery_digest())
            } else {
                None
            };
            // Attribute a preconditioner only when *this* request
            // actually solved (a failed request on a warm worker must
            // not inherit the previous request's digest).
            let precond_digest = worker
                .as_ref()
                .filter(|w| w.thermal_session_stats().solves > solves_before)
                .map(CoSimulation::precond_digest)
                .unwrap_or_default();
            // A failed serve — panic or error — leaves the worker in an
            // unknowable intermediate state (half-retargeted operators,
            // possibly poisoned sessions): quarantine it so the next
            // request of the pattern rebuilds from its own scenario.
            if result.is_err() && worker.take().is_some() {
                quarantined += 1;
            }
            reports.push(ScenarioReport {
                request_id: id,
                pattern: digest.clone(),
                reused_operator,
                precond: precond_digest,
                degraded,
                result,
            });
        }
        let last_solved_id = reports
            .iter()
            .filter(|r| !r.precond.is_empty())
            .map(|r| r.request_id)
            .max();
        let precond_used =
            last_solved_id.and_then(|id| worker.as_ref().map(|w| (id, w.preconditioner_spec())));
        GroupResult {
            key,
            worker,
            reports,
            built,
            reused,
            recovered,
            quarantined,
            panicked,
            cells_built,
            cell_reuses,
            precond: precond_used,
        }
    }

    /// Convenience: submits every transient request, dispatches, and
    /// returns the reports in input order.
    pub fn run_transient_batch(
        &mut self,
        requests: impl IntoIterator<Item = TransientRequest>,
    ) -> Vec<TransientReport> {
        for r in requests {
            self.submit_transient(r);
        }
        self.run_pending_transients()
    }

    /// Dispatches every queued transient request and returns their
    /// reports in submission order.
    ///
    /// Requests are grouped by operator/stepping compatibility (see
    /// [`crate::transient::TransientRequest`]); each group is served
    /// over a segment-prefix tree — trace segments shared by several
    /// requests are integrated once, checkpointed where traces diverge,
    /// and branched — with groups fanned across the sweep executor. The
    /// assembled thermal model of each group is cached for later
    /// batches.
    pub fn run_pending_transients(&mut self) -> Vec<TransientReport> {
        let queue = std::mem::take(&mut self.transient_queue);
        if queue.is_empty() {
            return Vec::new();
        }
        self.stats.batches += 1;
        self.stats.transient_requests += queue.len() as u64;

        // Validate up front: invalid requests report immediately and
        // never join a group.
        let mut reports: Vec<TransientReport> = Vec::new();
        let mut order: Vec<TransientGroupKey> = Vec::new();
        let mut groups: HashMap<TransientGroupKey, Vec<(u64, TransientRequest)>> = HashMap::new();
        for (id, req) in queue {
            if let Err(e) = req.validate() {
                reports.push(TransientReport {
                    request_id: id,
                    pattern: TransientGroupKey::of(&req).digest(),
                    degraded: None,
                    result: Err(e),
                });
                continue;
            }
            match groups.entry(TransientGroupKey::of(&req)) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().push((id, req));
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    order.push(e.key().clone());
                    e.insert(vec![(id, req)]);
                }
            }
        }

        // Pre-assemble one model per distinct operator identity before
        // dispatch, so every group — including same-batch dt/tolerance
        // variants sharing an operator — clones an assembled model
        // instead of re-assembling. A failed build is left to the group
        // itself, which reports the error per request.
        for key in &order {
            let req = &groups[key][0].1;
            let model_key = TransientModelKey::of(req);
            if !self.transient_models.contains_key(&model_key) {
                if let Ok(m) = crate::cosim::thermal_model_for(&req.scenario) {
                    if m.assemble().is_ok() {
                        self.transient_models.insert_if_absent(model_key, m);
                    }
                }
            }
        }

        struct TransientJob {
            key: TransientGroupKey,
            model_key: TransientModelKey,
            model: Option<ThermalModel>,
            requests: Vec<(u64, TransientRequest)>,
        }
        let jobs: Vec<Mutex<Option<TransientJob>>> = order
            .into_iter()
            .map(|key| {
                let requests = groups.remove(&key).expect("grouped above");
                let model_key = TransientModelKey::of(&requests[0].1);
                // Clone from the cache (a clone carries the assembled
                // operator).
                let model = self.transient_models.get(&model_key).cloned();
                Mutex::new(Some(TransientJob {
                    key,
                    model_key,
                    model,
                    requests,
                }))
            })
            .collect();

        let results = parallel_map(&jobs, |_, slot| {
            let job = slot
                .lock()
                .expect("transient job mutex poisoned")
                .take()
                .expect("each job runs exactly once");
            let digest = job.key.digest();
            let (model, outcomes, counters) = serve_transient_group(job.model, &job.requests);
            (job.model_key, model, digest, outcomes, counters)
        });

        for (model_key, model, digest, outcomes, counters) in results {
            if counters.quarantined_models > 0 {
                // A panicking integration quarantines the whole model
                // identity: drop the pre-assembled cache entry too, so
                // the next batch re-assembles from scratch.
                self.transient_models.remove(&model_key);
            }
            if let Some(model) = model {
                self.transient_models.insert_if_absent(model_key, model);
            }
            self.stats.trace_segments_integrated += counters.segments_integrated;
            self.stats.trace_segments_reused += counters.segments_reused;
            self.stats.trace_integrators_carried += counters.integrators_carried;
            self.stats.recovered_solves += counters.recovered_solves;
            self.stats.solver_retries += counters.solver_retries;
            self.stats.panicked_requests += counters.panicked_requests;
            self.stats.quarantined_workers += counters.quarantined_models;
            reports.extend(outcomes.into_iter().map(|(request_id, result)| {
                let degraded = match &result {
                    Ok(o) if o.recovered_solves > 0 || o.solver_retries > 0 => Some(format!(
                        "thermal: {} ladder-recovered solve(s), {} dt-halving retry(ies)",
                        o.recovered_solves, o.solver_retries
                    )),
                    _ => None,
                };
                TransientReport {
                    request_id,
                    pattern: digest.clone(),
                    degraded,
                    result,
                }
            }));
        }
        reports.sort_unstable_by_key(|r| r.request_id);
        reports
    }

    /// Convenience: submits every polarization request, dispatches, and
    /// returns the reports in input order.
    pub fn run_polarization_batch(
        &mut self,
        requests: impl IntoIterator<Item = PolarizationRequest>,
    ) -> Vec<PolarizationReport> {
        for r in requests {
            self.submit_polarization(r);
        }
        self.run_pending_polarizations()
    }

    /// Dispatches every queued polarization request and returns their
    /// reports in submission order.
    ///
    /// Requests are grouped by [`CellPatternKey`]; each group is served
    /// serially by one cached [`CellModel`] worker whose solve context
    /// is **retargeted in place** between requests (the duct velocity
    /// solution and the factored transport operators survive every
    /// flow/inlet/temperature move), with each sweep warm-bracketing
    /// its voltage ladder. Distinct pattern groups fan out across the
    /// sweep executor; workers persist for later batches.
    pub fn run_pending_polarizations(&mut self) -> Vec<PolarizationReport> {
        let queue = std::mem::take(&mut self.polarization_queue);
        if queue.is_empty() {
            return Vec::new();
        }
        self.stats.batches += 1;
        self.stats.polarization_requests += queue.len() as u64;

        // Validate up front: invalid requests report immediately and
        // never join a group.
        let mut reports: Vec<PolarizationReport> = Vec::new();
        let mut order: Vec<CellPatternKey> = Vec::new();
        let mut groups: HashMap<CellPatternKey, Vec<(u64, PolarizationRequest)>> = HashMap::new();
        for (id, req) in queue {
            if let Err(e) = req.validate() {
                reports.push(PolarizationReport {
                    request_id: id,
                    pattern: CellPatternKey::of(&req.scenario.cell_options).digest(),
                    reused_context: false,
                    degraded: None,
                    result: Err(e),
                });
                continue;
            }
            match groups.entry(CellPatternKey::of(&req.scenario.cell_options)) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().push((id, req));
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    order.push(e.key().clone());
                    e.insert(vec![(id, req)]);
                }
            }
        }

        struct CellJob {
            key: CellPatternKey,
            worker: Option<CellModel>,
            requests: Vec<(u64, PolarizationRequest)>,
        }
        let jobs: Vec<Mutex<Option<CellJob>>> = order
            .into_iter()
            .map(|key| {
                let requests = groups.remove(&key).expect("grouped above");
                let worker = self.cell_workers.remove(&key);
                Mutex::new(Some(CellJob {
                    key,
                    worker,
                    requests,
                }))
            })
            .collect();

        let results = parallel_map(&jobs, |_, slot| {
            let job = slot
                .lock()
                .expect("cell job mutex poisoned")
                .take()
                .expect("each job runs exactly once");
            Self::run_polarization_group(job.key, job.worker, job.requests)
        });

        for (key, worker, group_reports, built, reused, quarantined, panicked) in results {
            if let Some(worker) = worker {
                self.cell_workers.insert_if_absent(key, worker);
            }
            self.stats.cell_contexts_built += built;
            self.stats.cell_context_reuses += reused;
            self.stats.quarantined_workers += quarantined;
            self.stats.panicked_requests += panicked;
            reports.extend(group_reports);
        }
        reports.sort_unstable_by_key(|r| r.request_id);
        reports
    }

    /// Serves one cell-pattern group serially, retargeting its worker
    /// between requests.
    #[allow(clippy::type_complexity)]
    fn run_polarization_group(
        key: CellPatternKey,
        mut worker: Option<CellModel>,
        requests: Vec<(u64, PolarizationRequest)>,
    ) -> (
        CellPatternKey,
        Option<CellModel>,
        Vec<PolarizationReport>,
        u64,
        u64,
        u64,
        u64,
    ) {
        let digest = key.digest();
        let mut reports = Vec::with_capacity(requests.len());
        let mut built = 0u64;
        let mut reused = 0u64;
        let mut quarantined = 0u64;
        let mut panicked = 0u64;
        for (id, req) in requests {
            let existed = worker.is_some();
            // Panic isolation, mirroring the steady path: the request
            // fails alone and the batch completes.
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bright_num::faults::maybe_panic();
                Self::serve_polarization(&mut worker, &req, &mut built)
            }));
            let result = match served {
                Ok(r) => r,
                Err(payload) => {
                    panicked += 1;
                    Err(CoreError::WorkerPanic(crate::panic_message(
                        payload.as_ref(),
                    )))
                }
            };
            // Any failed serve leaves the worker suspect: quarantine it
            // so the next request rebuilds from its own scenario.
            // (`serve_polarization` already drops half-retargeted
            // workers itself — `existed` credits that drop — and this
            // extends the rule to panics and sweep failures.)
            if result.is_err() && (worker.take().is_some() || existed) {
                quarantined += 1;
            }
            // A failed retarget serves nothing, so it is not a reuse
            // (mirroring the steady path's accounting).
            let reused_context = existed && result.is_ok();
            if reused_context {
                reused += 1;
            }
            reports.push(PolarizationReport {
                request_id: id,
                pattern: digest.clone(),
                reused_context,
                // Cell sweeps solve through direct factorizations — no
                // recovery ladder can have produced this answer.
                degraded: None,
                result,
            });
        }
        (key, worker, reports, built, reused, quarantined, panicked)
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
                // A half-retargeted worker is unsafe to keep: drop it
                // so the next request rebuilds from its own scenario.
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

    /// Dispatches **every** queued request — steady, transient and
    /// polarization — and returns the merged reports in submission
    /// order (the id space is shared, so a mixed batch interleaves
    /// exactly as submitted).
    pub fn run_all_pending(&mut self) -> Vec<EngineReport> {
        let mut out: Vec<EngineReport> = self
            .run_pending()
            .into_iter()
            .map(EngineReport::Steady)
            .collect();
        out.extend(
            self.run_pending_transients()
                .into_iter()
                .map(EngineReport::Transient),
        );
        out.extend(
            self.run_pending_polarizations()
                .into_iter()
                .map(EngineReport::Polarization),
        );
        out.sort_unstable_by_key(EngineReport::request_id);
        out
    }
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
        assert_eq!(engine.cached_patterns(), 1);
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
        let budget = sweep_workers(n).max(1).min(n);
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
            engine.submit(flow_scenario(676.0)),
            engine.submit(coarse.clone()),
            engine.submit(flow_scenario(120.0)),
            engine.submit(coarse),
        ];
        assert_eq!(engine.pending(), 4);
        let reports = engine.run_pending();
        assert_eq!(engine.pending(), 0);
        let got: Vec<u64> = reports.iter().map(|r| r.request_id).collect();
        assert_eq!(got, ids.to_vec());
        // Two distinct pattern groups.
        assert_eq!(engine.cached_patterns(), 2);
        let digests: std::collections::HashSet<&str> =
            reports.iter().map(|r| r.pattern.as_str()).collect();
        assert_eq!(digests.len(), 2);
        assert!(reports.iter().all(|r| r.result.is_ok()));
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
        assert_eq!(engine.cached_patterns(), 0);
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
        assert_eq!(engine.cached_patterns(), 1, "bound must hold");
        let stats = engine.stats();
        assert_eq!(stats.cache_capacity, 1);
        assert_eq!(stats.cache_residents, 1);
        assert!(stats.evicted_workers >= 1, "{stats:?}");

        // The unbounded default never evicts.
        let mut open = ScenarioEngine::new();
        open.run_batch([flow_scenario(676.0), coarse]);
        assert_eq!(open.cached_patterns(), 2);
        assert_eq!(open.stats().evicted_workers, 0);
        assert_eq!(open.stats().cache_capacity, 0);
        assert_eq!(open.stats().cache_residents, 2);

        // Tightening the bound on a warm engine evicts immediately.
        open.set_cache_capacity(1);
        assert_eq!(open.cached_patterns(), 1);
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
            engine.submit_request(ScenarioRequest::Transient(good)),
            engine.submit_request(ScenarioRequest::Transient(bad)),
        ];
        assert_eq!(engine.pending_transients(), 2);
        let reports = engine.run_pending_transients();
        assert_eq!(engine.pending_transients(), 0);
        assert_eq!(
            reports.iter().map(|r| r.request_id).collect::<Vec<_>>(),
            ids.to_vec()
        );
        assert!(reports[0].result.is_ok());
        assert!(matches!(
            reports[1].result,
            Err(CoreError::InvalidScenario(_))
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
        assert_eq!(engine.cached_cell_patterns(), 1);

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
        assert_eq!(engine.cached_cell_patterns(), 0);
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
            engine.submit_request(ScenarioRequest::Polarization(PolarizationRequest::new(
                flow_scenario(676.0),
            ))),
            engine.submit_request(ScenarioRequest::Steady(flow_scenario(400.0))),
            engine.submit_request(ScenarioRequest::Transient(transient.clone())),
            engine.submit_request(ScenarioRequest::Steady(flow_scenario(120.0))),
            engine.submit_request(ScenarioRequest::Polarization(PolarizationRequest::new(
                flow_scenario(200.0),
            ))),
            engine.submit_request(ScenarioRequest::Transient(transient)),
        ];
        assert_eq!(engine.pending(), 2);
        assert_eq!(engine.pending_transients(), 2);
        assert_eq!(engine.pending_polarizations(), 2);
        let reports = engine.run_all_pending();
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.pending_transients(), 0);
        assert_eq!(engine.pending_polarizations(), 0);
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
        assert_eq!(engine.cached_patterns(), 1);
    }
}
