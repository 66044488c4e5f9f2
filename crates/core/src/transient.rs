//! Transient scenario requests: time-varying loads served through the
//! [`crate::engine::ScenarioEngine`] with segment-prefix sharing.
//!
//! The paper's transient workloads — pump throttling, dark-silicon duty
//! cycling — are batches of *related* power traces: many variants that
//! share their leading segments (the same warm-up, the same nominal
//! phase) and diverge only at the tail. A [`TransientRequest`] describes
//! one such integration: a [`crate::Scenario`] (fixing the thermal
//! stack and coolant operating point), a piecewise-constant trace of
//! [`LoadStep`]s, and a [`SteppingMode`] (fixed Δt or the adaptive
//! controller of [`bright_thermal::AdaptiveTransient`]).
//!
//! The engine groups requests whose thermal operator, initial state and
//! stepping agree, then serves each group over a **segment-prefix
//! tree**: segments shared by several requests are integrated *once*,
//! a [`bright_thermal::Checkpoint`] is saved where traces diverge, and
//! each branch restores the checkpoint and continues — bitwise
//! identical to integrating every request from t = 0, at a fraction of
//! the solves. [`TransientOutcome::shared_time`] reports how much of a
//! request's trace was served from shared work.

use crate::cosim::thermal_model_for;
use crate::engine::PatternKey;
use crate::scenario::Scenario;
use crate::CoreError;
use bright_floorplan::PowerScenario;
use bright_thermal::{
    AdaptiveConfig, AdaptiveTransient, Checkpoint, CoefficientRamp, Controller, PowerTrace,
    ThermalModel, TraceSegment, TransientSimulation,
};
use bright_units::{CubicMetersPerSecond, Kelvin};

/// A coolant-coefficient sweep across one [`LoadStep`], expressed
/// *relative* to the scenario's nominal operating point: flow as a
/// scale factor of [`Scenario::total_flow`], inlet as a Kelvin offset
/// from [`Scenario::inlet_temperature`]. Relative form keeps the ramp
/// meaningful across scenarios (and across Monte Carlo samples that
/// perturb the nominal point); it is resolved to an absolute
/// [`bright_thermal::CoefficientRamp`] at dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadRamp {
    /// Flow scale at the step's start (1.0 = nominal).
    pub flow_scale_from: f64,
    /// Flow scale at the step's end.
    pub flow_scale_to: f64,
    /// Inlet-temperature offset at the step's start (K).
    pub inlet_offset_from_k: f64,
    /// Inlet-temperature offset at the step's end (K).
    pub inlet_offset_to_k: f64,
}

impl LoadRamp {
    /// A pure pump-throttling ramp: flow sweeps between the given
    /// scales, inlet stays nominal.
    #[must_use]
    pub fn flow(from_scale: f64, to_scale: f64) -> Self {
        Self {
            flow_scale_from: from_scale,
            flow_scale_to: to_scale,
            inlet_offset_from_k: 0.0,
            inlet_offset_to_k: 0.0,
        }
    }

    /// Checks the endpoints: positive finite flow scales, finite inlet
    /// offsets.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] naming the violated bound.
    pub fn validate(&self) -> Result<(), CoreError> {
        for (name, s) in [("start", self.flow_scale_from), ("end", self.flow_scale_to)] {
            if !(s > 0.0 && s.is_finite()) {
                return Err(CoreError::InvalidScenario(format!(
                    "ramp flow scale at {name} must be positive, got {s}"
                )));
            }
        }
        for (name, o) in [("start", self.inlet_offset_from_k), ("end", self.inlet_offset_to_k)] {
            if !o.is_finite() {
                return Err(CoreError::InvalidScenario(format!(
                    "ramp inlet offset at {name} must be finite, got {o}"
                )));
            }
        }
        Ok(())
    }

    /// Resolves the relative ramp against a scenario's nominal
    /// operating point into the absolute thermal-layer form.
    #[must_use]
    pub fn resolve(&self, scenario: &Scenario) -> CoefficientRamp {
        let flow = scenario.total_flow.value();
        let inlet = scenario.inlet_temperature.value();
        CoefficientRamp {
            flow_start: CubicMetersPerSecond::new(flow * self.flow_scale_from),
            flow_end: CubicMetersPerSecond::new(flow * self.flow_scale_to),
            inlet_start: Kelvin::new(inlet + self.inlet_offset_from_k),
            inlet_end: Kelvin::new(inlet + self.inlet_offset_to_k),
        }
    }
}

/// One piecewise-constant span of a transient load trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStep {
    /// Span length (s).
    pub duration: f64,
    /// The chip load held over the span (rasterized onto the scenario's
    /// thermal grid at dispatch).
    pub load: PowerScenario,
    /// Optional coolant coefficient sweep across the span (pump
    /// throttling, inlet drift); `None` holds the scenario's nominal
    /// operating point.
    pub ramp: Option<LoadRamp>,
}

impl LoadStep {
    /// A constant-coefficient step (the pre-ramp shape: load only).
    #[must_use]
    pub fn new(duration: f64, load: PowerScenario) -> Self {
        Self { duration, load, ramp: None }
    }

    /// Attaches a coefficient ramp to the step.
    #[must_use]
    pub fn with_ramp(mut self, ramp: LoadRamp) -> Self {
        self.ramp = Some(ramp);
        self
    }
}

/// How the trace is integrated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SteppingMode {
    /// Fixed-Δt backward Euler.
    Fixed {
        /// The time step (s).
        dt: f64,
    },
    /// Adaptive Δt control ([`bright_thermal::AdaptiveTransient`]) —
    /// the TR-BDF2 embedded pair by default, or legacy step-doubling
    /// via [`AdaptiveConfig::controller`].
    Adaptive(AdaptiveConfig),
}

/// A transient integration request for the engine.
#[derive(Debug, Clone)]
pub struct TransientRequest {
    /// The operating point: fixes the thermal stack, grid, coolant flow
    /// and inlet temperature. (The electrical side of the scenario is
    /// not exercised by a transient request.)
    pub scenario: Scenario,
    /// The load trace, integrated in order.
    pub trace: Vec<LoadStep>,
    /// Uniform initial temperature of the whole stack.
    pub initial_temperature: Kelvin,
    /// Fixed or adaptive stepping.
    pub stepping: SteppingMode,
}

impl TransientRequest {
    /// An adaptive-Δt request with the controller defaults and the
    /// coolant inlet as the initial temperature.
    #[must_use]
    pub fn adaptive(scenario: Scenario, trace: Vec<LoadStep>) -> Self {
        let initial_temperature = scenario.inlet_temperature;
        Self {
            scenario,
            trace,
            initial_temperature,
            stepping: SteppingMode::Adaptive(AdaptiveConfig::default()),
        }
    }

    /// Validates the request.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] describing the first violated
    /// rule.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.scenario.validate()?;
        if self.trace.is_empty() {
            return Err(CoreError::InvalidScenario(
                "transient request needs at least one trace segment".into(),
            ));
        }
        for (i, step) in self.trace.iter().enumerate() {
            if !(step.duration > 0.0 && step.duration.is_finite()) {
                return Err(CoreError::InvalidScenario(format!(
                    "trace segment {i} duration must be positive, got {}",
                    step.duration
                )));
            }
            if let Some(ramp) = &step.ramp {
                ramp.validate().map_err(|e| {
                    CoreError::InvalidScenario(format!("trace segment {i}: {e}"))
                })?;
                if let SteppingMode::Adaptive(cfg) = &self.stepping {
                    if cfg.controller == Controller::StepDoubling {
                        return Err(CoreError::InvalidScenario(format!(
                            "trace segment {i}: coefficient ramps require the TR-BDF2 \
                             controller (or fixed stepping)"
                        )));
                    }
                }
            }
        }
        if !(self.initial_temperature.value() > 0.0 && self.initial_temperature.value().is_finite())
        {
            return Err(CoreError::InvalidScenario(format!(
                "initial temperature must be positive, got {}",
                self.initial_temperature
            )));
        }
        match &self.stepping {
            SteppingMode::Fixed { dt } => {
                if !(*dt > 0.0 && dt.is_finite()) {
                    return Err(CoreError::InvalidScenario(format!(
                        "fixed time step must be positive, got {dt}"
                    )));
                }
            }
            SteppingMode::Adaptive(cfg) => cfg
                .validate()
                .map_err(|e| CoreError::InvalidScenario(e.to_string()))?,
        }
        Ok(())
    }

    /// Total trace duration (s).
    #[must_use]
    pub fn total_duration(&self) -> f64 {
        self.trace.iter().map(|s| s.duration).sum()
    }
}

/// What a served transient request produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOutcome {
    /// Peak temperature of the final field.
    pub final_peak: Kelvin,
    /// Peak temperature observed anywhere along the trace.
    pub trace_peak: Kelvin,
    /// Simulated end time (s) — the trace duration.
    pub end_time: f64,
    /// Accepted (committed) time steps along this request's path.
    pub steps: u64,
    /// Linear solves along this request's path, *including* the shared-
    /// prefix solves paid once for the whole branch.
    pub solves: u64,
    /// Adaptive error-test rejections (0 under fixed stepping).
    pub rejected: u64,
    /// Linear solves along this request's path that succeeded only
    /// through the session recovery ladder (see `docs/ROBUSTNESS.md`).
    pub recovered_solves: u64,
    /// Adaptive dt-halving retries taken after solver failures along
    /// this request's path (0 under fixed stepping).
    pub solver_retries: u64,
    /// O(nnz) coolant-coefficient re-stamps performed along this
    /// request's path (0 for ramp-free traces — the zero-re-assembly
    /// observable of coefficient transients).
    pub coefficient_refreshes: u64,
    /// Seconds of this request's trace that were integrated in a node
    /// shared with at least one other request of the batch — work this
    /// request did not pay for alone.
    pub shared_time: f64,
}

impl TransientOutcome {
    /// The outcome as a JSON value tree. Numbers round-trip exactly
    /// (`bright-jsonio` emits shortest-exact f64 text and the counters
    /// fit in f64), so serialized outcomes are bitwise-comparable.
    #[must_use]
    pub fn to_json(&self) -> bright_jsonio::Value {
        use bright_jsonio::Value;
        Value::object([
            ("final_peak".into(), Value::Number(self.final_peak.value())),
            ("trace_peak".into(), Value::Number(self.trace_peak.value())),
            ("end_time".into(), Value::Number(self.end_time)),
            ("steps".into(), Value::Number(self.steps as f64)),
            ("solves".into(), Value::Number(self.solves as f64)),
            ("rejected".into(), Value::Number(self.rejected as f64)),
            (
                "recovered_solves".into(),
                Value::Number(self.recovered_solves as f64),
            ),
            (
                "solver_retries".into(),
                Value::Number(self.solver_retries as f64),
            ),
            (
                "coefficient_refreshes".into(),
                Value::Number(self.coefficient_refreshes as f64),
            ),
            ("shared_time".into(), Value::Number(self.shared_time)),
        ])
    }

    /// Rebuilds an outcome from its JSON value tree.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] for missing/mistyped fields.
    pub fn from_json(v: &bright_jsonio::Value) -> Result<Self, CoreError> {
        use bright_jsonio::Value;
        let num = |field: &str| -> Result<f64, CoreError> {
            v.get(field).and_then(Value::as_f64).ok_or_else(|| {
                CoreError::Report(format!("missing or mistyped field '{field}'"))
            })
        };
        let count = |field: &str| -> Result<u64, CoreError> { Ok(num(field)? as u64) };
        Ok(Self {
            final_peak: Kelvin::new(num("final_peak")?),
            trace_peak: Kelvin::new(num("trace_peak")?),
            end_time: num("end_time")?,
            steps: count("steps")?,
            solves: count("solves")?,
            rejected: count("rejected")?,
            recovered_solves: count("recovered_solves")?,
            solver_retries: count("solver_retries")?,
            // Absent in outcomes journalled by pre-ramp builds: those
            // traces could not ramp, so zero is exact, not a guess.
            coefficient_refreshes: v
                .get("coefficient_refreshes")
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as u64,
            shared_time: num("shared_time")?,
        })
    }
}

/// The engine's answer to one transient request.
#[derive(Debug, Clone)]
pub struct TransientReport {
    /// The id returned at submission.
    pub request_id: u64,
    /// Digest of the operator-pattern group the request was served in.
    pub pattern: String,
    /// `Some(digest)` when the integration needed the recovery ladder
    /// or adaptive dt-halving retries to finish (mirrors
    /// [`crate::engine::ScenarioReport::degraded`]); `None` for clean
    /// integrations and failed requests.
    pub degraded: Option<String>,
    /// The integration outcome.
    pub result: Result<TransientOutcome, CoreError>,
}

/// Counters a transient group serving run produces (folded into
/// [`crate::engine::EngineStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TransientCounters {
    /// Trace-tree nodes integrated (each = one segment's worth of
    /// stepping).
    pub segments_integrated: u64,
    /// Request-segments served from an already-integrated node:
    /// `Σ_nodes (requests_under_node − 1)`.
    pub segments_reused: u64,
    /// Node-local solves that succeeded through the recovery ladder.
    pub recovered_solves: u64,
    /// Adaptive dt-halving retries across the group's nodes.
    pub solver_retries: u64,
    /// Requests that received [`CoreError::WorkerPanic`] after a node
    /// integration panicked.
    pub panicked_requests: u64,
    /// Tree nodes served by *extending a live integrator* carried down
    /// a single-child chain instead of rebuilding one from the parent's
    /// checkpoint (construction, re-assembly and restore all skipped).
    pub integrators_carried: u64,
    /// 1 when the group's assembled model was withheld from the cache
    /// because an integration panicked (the engine folds this into
    /// [`crate::engine::EngineStats::quarantined_workers`]).
    pub quarantined_models: u64,
}

/// The thermal-operator identity of a transient request: everything
/// [`thermal_model_for`] reads. The engine's model cache is keyed by
/// this (coarser) key so dt/tolerance/initial-temperature variants of
/// the same operating point share one assembled model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TransientModelKey {
    pattern: PatternKey,
    flow_bits: u64,
    inlet_bits: u64,
}

impl TransientModelKey {
    pub(crate) fn of(req: &TransientRequest) -> Self {
        Self {
            pattern: PatternKey::of(&req.scenario),
            flow_bits: req.scenario.total_flow.value().to_bits(),
            inlet_bits: req.scenario.inlet_temperature.value().to_bits(),
        }
    }
}

/// The grouping key for transient sharing: requests may share
/// integration work only when the thermal operator (pattern **and**
/// coefficients), the initial state and the stepping policy all agree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct TransientGroupKey {
    pattern: PatternKey,
    /// Bit patterns of flow, inlet, initial temperature and the
    /// stepping parameters (exact equality is the sharing condition).
    bits: Vec<u64>,
}

impl TransientGroupKey {
    pub(crate) fn of(req: &TransientRequest) -> Self {
        let s = &req.scenario;
        let mut bits = vec![
            s.total_flow.value().to_bits(),
            s.inlet_temperature.value().to_bits(),
            req.initial_temperature.value().to_bits(),
        ];
        match &req.stepping {
            SteppingMode::Fixed { dt } => {
                bits.push(0);
                bits.push(dt.to_bits());
            }
            SteppingMode::Adaptive(cfg) => {
                bits.push(1);
                for v in [
                    cfg.abs_tol,
                    cfg.rel_tol,
                    cfg.dt_init,
                    cfg.dt_min,
                    cfg.dt_max,
                    cfg.safety,
                    cfg.max_growth,
                    cfg.min_shrink,
                ] {
                    bits.push(v.to_bits());
                }
                // Different estimators take different step sequences:
                // never share nodes across controllers.
                bits.push(match cfg.controller {
                    Controller::TrBdf2 => 0,
                    Controller::StepDoubling => 1,
                });
            }
        }
        Self {
            pattern: PatternKey::of(s),
            bits,
        }
    }

    pub(crate) fn digest(&self) -> String {
        self.pattern.digest()
    }
}

/// Per-request results of one group serving run (unordered; the engine
/// sorts by request id).
pub(crate) type GroupOutcomes = Vec<(u64, Result<TransientOutcome, CoreError>)>;

/// Per-path accumulator threaded down the prefix tree.
#[derive(Debug, Clone, Copy)]
struct PathAcc {
    peak: f64,
    steps: u64,
    solves: u64,
    rejected: u64,
    recovered: u64,
    retries: u64,
    refreshes: u64,
    shared_time: f64,
}

/// A transient integrator kept alive between tree nodes. Along a
/// single-child chain the parent's integrator is *carried down* and
/// extended in place ([`AdaptiveTransient::push_segment`] /
/// [`TransientSimulation::run_trace`] continuation) — skipping the
/// model clone, session re-bind and checkpoint restore a fresh node
/// build pays. At branch points every child starts from the parent's
/// checkpoint instead, which is bitwise-identical to continuing live
/// (both paths re-stamp coefficients and re-seed warm starts from
/// committed state), so carry-down is purely a cost optimization.
pub(crate) enum LiveIntegrator {
    Adaptive(Box<AdaptiveTransient>),
    Fixed(Box<TransientSimulation>),
}

/// One node integration: a single trace segment stepped from an
/// optional checkpoint; returns the end-of-segment checkpoint and the
/// node's own counters.
pub(crate) struct NodeResult {
    pub(crate) checkpoint: Checkpoint,
    pub(crate) peak: f64,
    pub(crate) steps: u64,
    pub(crate) solves: u64,
    pub(crate) rejected: u64,
    /// Ladder-recovered solves during this node's stepping (counted as
    /// a session delta, so carried-live integrators don't re-report the
    /// parent path's recoveries).
    pub(crate) recovered: u64,
    /// Adaptive dt-halving retries during this node's stepping.
    pub(crate) retries: u64,
    /// Coefficient re-stamps during this node's stepping.
    pub(crate) refreshes: u64,
}

pub(crate) fn integrate_node(
    model: &ThermalModel,
    segment: &TraceSegment,
    initial_temperature: f64,
    stepping: &SteppingMode,
    from: Option<&Checkpoint>,
    live: Option<LiveIntegrator>,
) -> Result<(NodeResult, LiveIntegrator), CoreError> {
    match (stepping, live) {
        (SteppingMode::Adaptive(_), Some(LiveIntegrator::Adaptive(mut integ))) => {
            // Carried live: extend the finished integrator's trace and
            // keep stepping — no clone, no re-bind, no restore.
            let before = integ.stats();
            let recovered_before = integ.session_stats().recovered_solves;
            let refreshes_before = integ.coefficient_refreshes();
            integ.push_segment(segment.clone())?;
            let peak = integ.run_to_end()?;
            let stats = integ.stats();
            let node = NodeResult {
                checkpoint: integ.save_checkpoint(),
                peak,
                steps: stats.accepted - before.accepted,
                solves: stats.solves - before.solves,
                rejected: stats.rejected - before.rejected,
                recovered: integ.session_stats().recovered_solves - recovered_before,
                retries: stats.solver_retries - before.solver_retries,
                refreshes: integ.coefficient_refreshes() - refreshes_before,
            };
            Ok((node, LiveIntegrator::Adaptive(integ)))
        }
        (SteppingMode::Adaptive(cfg), _) => {
            let trace = PowerTrace::new(vec![segment.clone()])?;
            let mut integ =
                AdaptiveTransient::new(model.clone(), trace, initial_temperature, *cfg)?;
            // Coefficient baseline first: the restore's re-arm sync is
            // this node's work (the carried path counts its
            // push_segment re-arm the same way), so it must land in the
            // delta.
            let refreshes_before = integ.coefficient_refreshes();
            if let Some(cp) = from {
                // The checkpoint cursor is tree-global; the node-local
                // integrator sees a single-segment trace starting now.
                // Its step counters are path-cumulative: snapshot after
                // the restore so this node reports only its own work.
                let mut local = cp.clone();
                local.segment = 0;
                local.time_in_segment = 0.0;
                integ.restore_checkpoint(&local)?;
            }
            let before = integ.stats();
            let peak = integ.run_to_end()?;
            let stats = integ.stats();
            let node = NodeResult {
                checkpoint: integ.save_checkpoint(),
                peak,
                steps: stats.accepted - before.accepted,
                solves: stats.solves - before.solves,
                rejected: stats.rejected - before.rejected,
                recovered: integ.session_stats().recovered_solves,
                retries: stats.solver_retries - before.solver_retries,
                refreshes: integ.coefficient_refreshes() - refreshes_before,
            };
            Ok((node, LiveIntegrator::Adaptive(Box::new(integ))))
        }
        (SteppingMode::Fixed { dt }, live) => {
            let trace = PowerTrace::new(vec![segment.clone()])?;
            let (mut sim, refreshes_before) = match live {
                Some(LiveIntegrator::Fixed(sim)) => {
                    let r = sim.coefficient_refreshes();
                    (sim, r)
                }
                // A stepping-mode mismatch cannot happen (the group key
                // fixes the mode); rebuild defensively if it ever does.
                _ => {
                    let mut sim = Box::new(TransientSimulation::new(
                        model.clone(),
                        &segment.power,
                        initial_temperature,
                        *dt,
                    )?);
                    // Baseline before the restore: its re-arm sync is
                    // node work, same as the carried path's.
                    let r = sim.coefficient_refreshes();
                    if let Some(cp) = from {
                        sim.restore_checkpoint(cp)?;
                    }
                    (sim, r)
                }
            };
            let steps_before = sim.step_count();
            let solves_before = sim.solve_count();
            let recovered_before = sim.session_stats().recovered_solves;
            let peak = sim.run_trace(&trace)?;
            let node = NodeResult {
                checkpoint: sim.save_checkpoint(),
                peak,
                steps: sim.step_count() - steps_before,
                solves: sim.solve_count() - solves_before,
                rejected: 0,
                recovered: sim.session_stats().recovered_solves - recovered_before,
                retries: 0,
                refreshes: sim.coefficient_refreshes() - refreshes_before,
            };
            Ok((node, LiveIntegrator::Fixed(sim)))
        }
    }
}

/// Serves one group of share-compatible requests over the segment-
/// prefix tree. Returns per-request results (unordered) and the group's
/// reuse counters, plus the (possibly newly built) thermal model for
/// the engine's cache.
pub(crate) fn serve_transient_group(
    cached_model: Option<ThermalModel>,
    requests: &[(u64, TransientRequest)],
) -> (Option<ThermalModel>, GroupOutcomes, TransientCounters) {
    let mut counters = TransientCounters::default();
    let mut results: GroupOutcomes = Vec::new();
    let built = cached_model
        .map_or_else(|| thermal_model_for(&requests[0].1.scenario), Ok)
        .and_then(|m| {
            // Assemble before fanning out: every node clones the model,
            // and clones of an assembled model carry the operator.
            m.assemble()?;
            Ok(m)
        });
    let model = match built {
        Ok(m) => m,
        Err(e) => {
            for (id, _) in requests {
                results.push((*id, Err(e.clone())));
            }
            return (None, results, counters);
        }
    };
    let t0 = requests[0].1.initial_temperature.value();
    let stepping = requests[0].1.stepping;
    let refs: Vec<&(u64, TransientRequest)> = requests.iter().collect();
    let acc = PathAcc {
        peak: t0,
        steps: 0,
        solves: 0,
        rejected: 0,
        recovered: 0,
        retries: 0,
        refreshes: 0,
        shared_time: 0.0,
    };
    serve_node(
        &model, &refs, 0, None, None, acc, t0, &stepping, &mut results, &mut counters,
    );
    if counters.panicked_requests > 0 {
        // A panicking integration may have unwound mid-clone of the
        // model's shared operator caches: withhold the model from the
        // engine's cache so later batches re-assemble from scratch.
        counters.quarantined_models = 1;
        return (None, results, counters);
    }
    (Some(model), results, counters)
}

/// Recursive prefix-tree serving: `reqs` all share their first `depth`
/// trace segments, already integrated into `from`/`acc`. `live` holds
/// the parent node's still-live integrator when this node is its only
/// child; it is extended in place instead of restoring the checkpoint.
#[allow(clippy::too_many_arguments)]
fn serve_node(
    model: &ThermalModel,
    reqs: &[&(u64, TransientRequest)],
    depth: usize,
    from: Option<&Checkpoint>,
    live: Option<LiveIntegrator>,
    acc: PathAcc,
    t0: f64,
    stepping: &SteppingMode,
    out: &mut GroupOutcomes,
    counters: &mut TransientCounters,
) {
    // Requests whose whole trace is integrated: finalize from the
    // accumulated path state.
    for (id, req) in reqs.iter().filter(|(_, r)| r.trace.len() == depth) {
        let final_peak = from.map_or(t0, |cp| {
            cp.temperatures
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        });
        out.push((
            *id,
            Ok(TransientOutcome {
                final_peak: Kelvin::new(final_peak),
                trace_peak: Kelvin::new(acc.peak),
                end_time: req.total_duration(),
                steps: acc.steps,
                solves: acc.solves,
                rejected: acc.rejected,
                recovered_solves: acc.recovered,
                solver_retries: acc.retries,
                coefficient_refreshes: acc.refreshes,
                shared_time: acc.shared_time,
            }),
        ));
    }

    // Partition the ongoing requests by their next segment (duration
    // bit pattern + load equality + coefficient ramp) *and* floorplan:
    // each partition is one child node. The group key only fingerprints
    // the die extent, but rasterizing a load depends on the full block
    // layout, so requests may share a node only when their floorplans
    // are equal. (Within a group the nominal operating point is bit-
    // equal, so equal relative ramps resolve to equal absolute ramps.)
    let ongoing: Vec<&&(u64, TransientRequest)> =
        reqs.iter().filter(|(_, r)| r.trace.len() > depth).collect();
    let mut partitions: Vec<Vec<&(u64, TransientRequest)>> = Vec::new();
    for r in ongoing {
        let step = &r.1.trace[depth];
        match partitions.iter_mut().find(|p| {
            let lead = &p[0].1.trace[depth];
            lead.duration.to_bits() == step.duration.to_bits()
                && lead.load == step.load
                && lead.ramp == step.ramp
                && p[0].1.scenario.floorplan == r.1.scenario.floorplan
        }) {
            Some(p) => p.push(r),
            None => partitions.push(vec![r]),
        }
    }

    // A live integrator carries down only along a single-child chain;
    // at a branch point every child restores the checkpoint instead.
    let single_child = partitions.len() == 1;
    let mut live = if single_child { live } else { None };
    for part in partitions {
        let lead = &part[0].1;
        let step = &lead.trace[depth];
        let power = match step.load.rasterize(&lead.scenario.floorplan, model.grid()) {
            Ok(p) => p,
            Err(e) => {
                let err = CoreError::from(e);
                for (id, _) in &part {
                    out.push((*id, Err(err.clone())));
                }
                continue;
            }
        };
        let segment = TraceSegment {
            duration: step.duration,
            power,
            ramp: step.ramp.map(|r| r.resolve(&lead.scenario)),
        };
        let carried = live.take();
        let was_carried = carried.is_some();
        // Panic isolation: a node integration that panics fails only
        // the requests under that node; sibling branches (and the rest
        // of the batch) still complete. The model is never mutated by
        // `integrate_node` (each node clones it), so observing it after
        // an unwind is safe — the group's *cached* copy is still
        // withheld by `serve_transient_group` as a precaution. A
        // carried integrator is consumed by the closure; if it unwinds,
        // the integrator is dropped with it.
        let integrated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            bright_num::faults::maybe_panic();
            integrate_node(model, &segment, t0, stepping, from, carried)
        }));
        match integrated {
            Ok(Ok((node, next_live))) => {
                counters.segments_integrated += 1;
                counters.segments_reused += part.len() as u64 - 1;
                counters.recovered_solves += node.recovered;
                counters.solver_retries += node.retries;
                if was_carried {
                    counters.integrators_carried += 1;
                }
                let child = PathAcc {
                    peak: acc.peak.max(node.peak),
                    steps: acc.steps + node.steps,
                    solves: acc.solves + node.solves,
                    rejected: acc.rejected + node.rejected,
                    recovered: acc.recovered + node.recovered,
                    retries: acc.retries + node.retries,
                    refreshes: acc.refreshes + node.refreshes,
                    shared_time: acc.shared_time
                        + if part.len() > 1 { step.duration } else { 0.0 },
                };
                serve_node(
                    model,
                    &part,
                    depth + 1,
                    Some(&node.checkpoint),
                    Some(next_live),
                    child,
                    t0,
                    stepping,
                    out,
                    counters,
                );
            }
            Ok(Err(e)) => {
                for (id, _) in &part {
                    out.push((*id, Err(e.clone())));
                }
            }
            Err(payload) => {
                counters.panicked_requests += part.len() as u64;
                let err = CoreError::WorkerPanic(crate::panic_message(payload.as_ref()));
                for (id, _) in &part {
                    out.push((*id, Err(err.clone())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_request(segments: &[(f64, PowerScenario)]) -> TransientRequest {
        TransientRequest {
            scenario: Scenario::power7_reduced(),
            trace: segments
                .iter()
                .map(|(d, l)| LoadStep::new(*d, l.clone()))
                .collect(),
            initial_temperature: Kelvin::new(300.0),
            stepping: SteppingMode::Fixed { dt: 2e-3 },
        }
    }

    #[test]
    fn transient_outcome_json_roundtrips_exactly() {
        let outcome = TransientOutcome {
            final_peak: Kelvin::new(313.728_491_220_01),
            trace_peak: Kelvin::new(314.002_213_7),
            end_time: 0.04,
            steps: 20,
            solves: 23,
            rejected: 1,
            recovered_solves: 2,
            solver_retries: 1,
            shared_time: 0.02,
            coefficient_refreshes: 4,
        };
        let text = outcome.to_json().to_json_string();
        let v = bright_jsonio::Value::parse(&text).unwrap();
        let back = TransientOutcome::from_json(&v).unwrap();
        assert_eq!(back, outcome, "round-trip must be exact");
        assert!(TransientOutcome::from_json(&bright_jsonio::Value::object([])).is_err());
    }

    #[test]
    fn validation_catches_bad_requests() {
        let full = PowerScenario::full_load();
        assert!(base_request(&[(0.01, full.clone())]).validate().is_ok());
        assert!(base_request(&[]).validate().is_err());
        assert!(base_request(&[(0.0, full.clone())]).validate().is_err());
        let mut r = base_request(&[(0.01, full.clone())]);
        r.initial_temperature = Kelvin::new(-1.0);
        assert!(r.validate().is_err());
        let mut r = base_request(&[(0.01, full.clone())]);
        r.stepping = SteppingMode::Fixed { dt: 0.0 };
        assert!(r.validate().is_err());
        let mut r = base_request(&[(0.01, full)]);
        r.stepping = SteppingMode::Adaptive(AdaptiveConfig {
            dt_min: -1.0,
            ..AdaptiveConfig::default()
        });
        assert!(r.validate().is_err());
    }

    #[test]
    fn group_key_separates_incompatible_requests() {
        let full = PowerScenario::full_load();
        let a = base_request(&[(0.01, full.clone())]);
        let mut b = a.clone();
        assert_eq!(TransientGroupKey::of(&a), TransientGroupKey::of(&b));
        b.stepping = SteppingMode::Fixed { dt: 1e-3 };
        assert_ne!(TransientGroupKey::of(&a), TransientGroupKey::of(&b));
        let mut c = a.clone();
        c.scenario.total_flow = c.scenario.total_flow * 0.5;
        assert_ne!(TransientGroupKey::of(&a), TransientGroupKey::of(&c));
        let mut d = a.clone();
        d.initial_temperature = Kelvin::new(305.0);
        assert_ne!(TransientGroupKey::of(&a), TransientGroupKey::of(&d));
        // Controller variants step differently and must never share a
        // serving group even when every tolerance agrees.
        let mut e = a.clone();
        e.stepping = SteppingMode::Adaptive(AdaptiveConfig::default());
        let mut f = e.clone();
        f.stepping = SteppingMode::Adaptive(AdaptiveConfig {
            controller: Controller::StepDoubling,
            ..AdaptiveConfig::default()
        });
        assert_ne!(TransientGroupKey::of(&e), TransientGroupKey::of(&f));
        let _ = full;
    }

    #[test]
    fn ramp_validation_requires_trbdf2() {
        let full = PowerScenario::full_load();
        let mut r = base_request(&[(0.01, full.clone())]);
        r.trace[0].ramp = Some(LoadRamp::flow(1.0, 0.25));
        // Fixed stepping syncs per step; fine.
        assert!(r.validate().is_ok());
        // TR-BDF2 stages sync inside the step; fine.
        r.stepping = SteppingMode::Adaptive(AdaptiveConfig::default());
        assert!(r.validate().is_ok());
        // Step-doubling has no stage-level sync points: rejected.
        r.stepping = SteppingMode::Adaptive(AdaptiveConfig {
            controller: Controller::StepDoubling,
            ..AdaptiveConfig::default()
        });
        assert!(r.validate().is_err());
        // Degenerate ramp endpoints are caught per step.
        let mut r = base_request(&[(0.01, full)]);
        r.trace[0].ramp = Some(LoadRamp::flow(0.0, 1.0));
        assert!(r.validate().is_err());
    }

    #[test]
    fn ramped_branches_partition_carry_and_match_solo() {
        // Two adaptive requests share a throttling first segment (flow
        // ramped to a quarter), then diverge *only in the second
        // segment's ramp*: one holds the throttled point, the other
        // snaps back to nominal. The differing ramps must split the
        // tree (sharing the tail would integrate the wrong operator),
        // the prefix is still shared, and every grouped result is
        // bitwise identical to its solo run — the solo chain rides the
        // carried live integrator while grouped branches restore the
        // divergence checkpoint, so this equality is the
        // carry-down-vs-restore equivalence check at the engine layer.
        let full = PowerScenario::full_load();
        let mk = |tail: Option<LoadRamp>| {
            let mut r = base_request(&[(0.02, full.clone()), (0.02, full.clone())]);
            r.trace[0].ramp = Some(LoadRamp::flow(1.0, 0.25));
            r.trace[1].ramp = tail;
            r.stepping = SteppingMode::Adaptive(AdaptiveConfig::default());
            r
        };
        let a = mk(Some(LoadRamp::flow(0.25, 0.25)));
        let b = mk(None);

        let (_, grouped, counters) = serve_transient_group(None, &[(0, a.clone()), (1, b.clone())]);
        assert_eq!(counters.segments_integrated, 3, "tails must not merge");
        assert_eq!(counters.segments_reused, 1, "prefix must be shared");
        // The prefix node branches two ways, so nothing is carried.
        assert_eq!(counters.integrators_carried, 0);

        let (_, solo_a, ca) = serve_transient_group(None, &[(0, a)]);
        let (_, solo_b, cb) = serve_transient_group(None, &[(1, b)]);
        // Solo chains are single-child all the way down: the second
        // segment extends the live integrator instead of rebuilding.
        assert_eq!(ca.integrators_carried, 1);
        assert_eq!(cb.integrators_carried, 1);

        let get = |rs: &GroupOutcomes, id: u64| {
            rs.iter().find(|(i, _)| *i == id).unwrap().1.clone().unwrap()
        };
        let (ga, gb) = (get(&grouped, 0), get(&grouped, 1));
        let (sa, sb) = (get(&solo_a, 0), get(&solo_b, 1));
        // Everything except the serving-path bookkeeping (shared time,
        // re-stamps actually performed) must agree bitwise.
        let flat = |o: &TransientOutcome| TransientOutcome {
            shared_time: 0.0,
            coefficient_refreshes: 0,
            ..*o
        };
        assert_eq!(flat(&ga), flat(&sa), "carried solo vs restored branch diverged (A)");
        assert_eq!(flat(&gb), flat(&sb), "carried solo vs restored branch diverged (B)");
        // The re-stamp counter is honest per-path work, not a trace
        // property. With a tail ramp both paths re-stamp identically;
        // without one, the carried integrator pays a single extra
        // re-stamp to walk back to the nominal point, while the
        // restored branch's fresh operator already sits there.
        assert_eq!(ga.coefficient_refreshes, sa.coefficient_refreshes);
        assert_eq!(sb.coefficient_refreshes, gb.coefficient_refreshes + 1);
        // Ramps ran: mid-trace coefficient re-stamps were counted.
        assert!(ga.coefficient_refreshes > 0, "ramp must refresh coefficients");
        // Holding the throttled flow ends hotter than snapping back.
        assert!(ga.final_peak.value() > gb.final_peak.value());
        assert!((ga.shared_time - 0.02).abs() < 1e-15);
    }

    #[test]
    fn different_floorplans_never_share_nodes() {
        // Two requests with identical die extent, grids, trace and
        // stepping — but different block layouts — fingerprint into the
        // same group. They must not share prefix nodes (a shared node
        // would rasterize one request's load onto the other's
        // floorplan), and each must match its solo run exactly.
        use bright_floorplan::{Block, BlockKind, Floorplan};

        let full = PowerScenario::full_load();
        let a = base_request(&[(0.02, full.clone())]);
        let mut b = a.clone();
        // Re-tile with core0 reclassified as logic: same rectangles,
        // different layout, so full_load rasterizes differently.
        let plan = &a.scenario.floorplan;
        b.scenario.floorplan = Floorplan::new(
            plan.width(),
            plan.height(),
            plan.blocks()
                .iter()
                .map(|blk| {
                    let kind = if blk.name() == "core0" {
                        BlockKind::Logic
                    } else {
                        blk.kind()
                    };
                    Block::new(blk.name(), kind, *blk.rect())
                })
                .collect(),
        )
        .unwrap();
        assert_eq!(TransientGroupKey::of(&a), TransientGroupKey::of(&b));

        let (_, grouped, counters) = serve_transient_group(None, &[(0, a.clone()), (1, b.clone())]);
        assert_eq!(counters.segments_integrated, 2, "must not share");
        assert_eq!(counters.segments_reused, 0);
        let get = |rs: &GroupOutcomes, id: u64| {
            rs.iter().find(|(i, _)| *i == id).unwrap().1.clone().unwrap()
        };
        let (_, solo_a, _) = serve_transient_group(None, &[(0, a)]);
        let (_, solo_b, _) = serve_transient_group(None, &[(1, b)]);
        assert_eq!(get(&grouped, 0).final_peak, get(&solo_a, 0).final_peak);
        assert_eq!(get(&grouped, 1).final_peak, get(&solo_b, 1).final_peak);
        // The reclassified core is powered at logic density: the runs
        // genuinely differ.
        assert_ne!(get(&grouped, 0).final_peak, get(&grouped, 1).final_peak);
    }

    #[test]
    fn shared_prefix_branches_match_independent_runs() {
        // Two requests share a 20 ms full-load prefix, then one throttles
        // the cores off while the other keeps going. Served as a group,
        // the prefix is integrated once — and each result is bitwise
        // identical to serving the request alone.
        let full = PowerScenario::full_load();
        let cache = PowerScenario::cache_only();
        let a = base_request(&[(0.02, full.clone()), (0.02, full.clone())]);
        let b = base_request(&[(0.02, full.clone()), (0.02, cache)]);

        let (_, grouped, counters) = serve_transient_group(None, &[(0, a.clone()), (1, b.clone())]);
        assert_eq!(grouped.len(), 2);
        // 3 nodes: shared prefix + two branch tails.
        assert_eq!(counters.segments_integrated, 3);
        assert_eq!(counters.segments_reused, 1);

        let (_, solo_a, _) = serve_transient_group(None, &[(0, a)]);
        let (_, solo_b, _) = serve_transient_group(None, &[(1, b)]);
        let get = |rs: &[(u64, Result<TransientOutcome, CoreError>)], id: u64| {
            rs.iter()
                .find(|(i, _)| *i == id)
                .unwrap()
                .1
                .clone()
                .unwrap()
        };
        let ga = get(&grouped, 0);
        let gb = get(&grouped, 1);
        let sa = get(&solo_a, 0);
        let sb = get(&solo_b, 1);
        assert_eq!(ga.final_peak, sa.final_peak, "branch A diverged");
        assert_eq!(gb.final_peak, sb.final_peak, "branch B diverged");
        assert_eq!(ga.trace_peak, sa.trace_peak);
        assert_eq!(ga.steps, sa.steps);
        // The shared prefix is half of each request's trace.
        assert!((ga.shared_time - 0.02).abs() < 1e-15);
        assert_eq!(sa.shared_time, 0.0);
        // Both branches heat up under load.
        assert!(ga.final_peak.value() > 300.5);
        // The throttled branch ends cooler than the loaded one.
        assert!(gb.final_peak.value() < ga.final_peak.value());
    }
}
