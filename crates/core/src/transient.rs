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
//! TR-BDF2 controller of [`bright_thermal::TransientSimulation`]).
//!
//! The engine groups requests whose thermal operator, initial state and
//! stepping agree, then serves each group over a **segment-prefix
//! tree**: segments shared by several requests are integrated *once*.
//! Every node builds its integrator from the group's model and restores
//! the [`bright_thermal::Checkpoint`] its parent saved — the one way a
//! trace continues, here and in the durable service — bitwise identical
//! to integrating every request from t = 0, at a fraction of the
//! solves. [`TransientOutcome::shared_time`] reports how much of a
//! request's trace was served from shared work.

use crate::engine::PatternKey;
use crate::scenario::Scenario;
use crate::CoreError;
use bright_floorplan::PowerScenario;
use bright_jsonio::Value;
pub use bright_thermal::SteppingMode;
use bright_thermal::{
    AdaptiveConfig, Checkpoint, CoefficientRamp, PowerTrace, ThermalModel, TraceSegment,
    TransientSimulation,
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
            }
        }
        if !(self.initial_temperature.value() > 0.0 && self.initial_temperature.value().is_finite())
        {
            return Err(CoreError::InvalidScenario(format!(
                "initial temperature must be positive, got {}",
                self.initial_temperature
            )));
        }
        self.stepping
            .validate()
            .map_err(|e| CoreError::InvalidScenario(e.to_string()))
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
    /// observable of coefficient transients). Every segment starts from
    /// the model's nominal point, so the count is the same on the
    /// engine's, the service's and a resumed path.
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
    pub fn to_json(&self) -> Value {
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
    pub fn from_json(v: &Value) -> Result<Self, CoreError> {
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
    /// 1 when an integration panicked, so the engine drops the group's
    /// cached model (folded into
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
    /// The thermal operator (pattern, flow and inlet): the key of the
    /// group's cached model.
    pub(crate) model: TransientModelKey,
    /// Bit patterns of the initial temperature and the stepping
    /// parameters (exact equality is the sharing condition).
    bits: Vec<u64>,
}

impl TransientGroupKey {
    pub(crate) fn of(req: &TransientRequest) -> Self {
        let mut bits = vec![req.initial_temperature.value().to_bits()];
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
            }
        }
        Self {
            model: TransientModelKey::of(req),
            bits,
        }
    }

    pub(crate) fn digest(&self) -> String {
        self.model.pattern.digest()
    }
}

/// Per-request results of one group serving run (unordered; the engine
/// sorts by request id).
pub(crate) type GroupOutcomes = Vec<(u64, Result<TransientOutcome, CoreError>)>;

/// A request's progress along its trace: the counters of the segments
/// integrated so far. The engine threads one down each prefix-tree
/// path; the durable service persists it ([`PathProgress::to_json`])
/// beside each segment's checkpoint and resumes from it.
#[derive(Clone, Default)]
pub(crate) struct PathProgress {
    /// Trace segments integrated so far.
    pub(crate) segments_done: usize,
    /// Peak temperature observed so far.
    pub(crate) peak: f64,
    /// Accepted steps so far.
    pub(crate) steps: u64,
    solves: u64,
    rejected: u64,
    recovered: u64,
    retries: u64,
    refreshes: u64,
    /// Seconds integrated in nodes shared with other requests (not
    /// persisted: the service serves one request per path).
    shared_time: f64,
}

impl PathProgress {
    /// A path at the start of `req`'s trace.
    pub(crate) fn start(req: &TransientRequest) -> Self {
        Self {
            peak: req.initial_temperature.value(),
            ..Self::default()
        }
    }

    /// Advances the path by one segment of `req`'s trace: the one
    /// segment step of both the engine's prefix tree and the durable
    /// service. It rasterizes the segment's load onto the model's grid,
    /// resolves its ramp, integrates it from `from` under
    /// [`crate::isolate`], and folds the node into the path and into
    /// the group `counters`. `sharers` counts the requests the node
    /// serves. Returns the end-of-segment checkpoint.
    pub(crate) fn advance(
        &mut self,
        model: &ThermalModel,
        req: &TransientRequest,
        from: Option<&Checkpoint>,
        sharers: usize,
        counters: &mut TransientCounters,
    ) -> Result<Checkpoint, CoreError> {
        let step = &req.trace[self.segments_done];
        let segment = TraceSegment {
            duration: step.duration,
            power: step.load.rasterize(&req.scenario.floorplan, model.grid())?,
            ramp: step.ramp.map(|r| r.resolve(&req.scenario)),
        };
        let t0 = req.initial_temperature.value();
        // A panicking node fails only the requests under it. The model
        // is never mutated here (each node clones it), so observing it
        // after an unwind is safe; the engine still drops the group's
        // *cached* copy as a precaution.
        let (checkpoint, node) =
            crate::isolate(|| integrate_node(model, segment, t0, &req.stepping, from))
                .inspect_err(|e| {
                    if matches!(e, CoreError::WorkerPanic(_)) {
                        counters.panicked_requests += sharers as u64;
                    }
                })?;
        counters.segments_integrated += 1;
        counters.segments_reused += sharers as u64 - 1;
        counters.recovered_solves += node.recovered;
        counters.solver_retries += node.retries;
        self.segments_done += 1;
        self.peak = self.peak.max(node.peak);
        self.steps += node.steps;
        self.solves += node.solves;
        self.rejected += node.rejected;
        self.recovered += node.recovered;
        self.retries += node.retries;
        self.refreshes += node.refreshes;
        self.shared_time += if sharers > 1 { step.duration } else { 0.0 };
        Ok(checkpoint)
    }

    /// The outcome of a path that has integrated all of `req`'s trace
    /// and ended at `last`.
    pub(crate) fn outcome(
        &self,
        req: &TransientRequest,
        last: Option<&Checkpoint>,
    ) -> TransientOutcome {
        let final_peak = last.map_or(req.initial_temperature.value(), |cp| {
            cp.temperatures
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        });
        TransientOutcome {
            final_peak: Kelvin::new(final_peak),
            trace_peak: Kelvin::new(self.peak),
            end_time: req.total_duration(),
            steps: self.steps,
            solves: self.solves,
            rejected: self.rejected,
            recovered_solves: self.recovered,
            solver_retries: self.retries,
            coefficient_refreshes: self.refreshes,
            shared_time: self.shared_time,
        }
    }

    /// The counters as the service persists them: the `progress` object
    /// of a transient job's checkpoint state.
    pub(crate) fn to_json(&self) -> Value {
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

    /// Reads persisted counters back; `None` on a missing or mistyped
    /// field.
    pub(crate) fn from_json(v: &Value) -> Option<Self> {
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
            ..Self::default()
        })
    }
}

/// One node integration: a single trace segment, stepped by an
/// integrator built from `model` and restored from `from`. Returns the
/// end-of-segment checkpoint and the node's own counters.
fn integrate_node(
    model: &ThermalModel,
    segment: TraceSegment,
    initial_temperature: f64,
    stepping: &SteppingMode,
    from: Option<&Checkpoint>,
) -> Result<(Checkpoint, PathProgress), CoreError> {
    let trace = PowerTrace::new(vec![segment])?;
    let mut integ = TransientSimulation::new(model.clone(), trace, initial_temperature, *stepping)?;
    if let Some(cp) = from {
        // The checkpoint cursor is tree-global; the node-local
        // integrator sees a single-segment trace starting now.
        integ.restore_checkpoint(&Checkpoint {
            segment: 0,
            time_in_segment: 0.0,
            ..cp.clone()
        })?;
    }
    // The step baselines come after the restore, which loads the
    // checkpoint's path-cumulative counters; the restore's coefficient
    // sync is this node's work.
    let before = integ.stats();
    let peak = integ.run_to_end()?;
    let after = integ.stats();
    let node = PathProgress {
        segments_done: 1,
        peak,
        steps: after.accepted - before.accepted,
        solves: after.solves - before.solves,
        rejected: after.rejected - before.rejected,
        recovered: integ.session_stats().recovered_solves,
        retries: after.solver_retries - before.solver_retries,
        refreshes: integ.coefficient_refreshes(),
        shared_time: 0.0,
    };
    Ok((integ.save_checkpoint(), node))
}

/// Serves one group of share-compatible requests over the segment-
/// prefix tree, on the group's assembled model (or its build error,
/// which every request receives). Returns per-request results
/// (unordered) and the group's reuse counters.
pub(crate) fn serve_transient_group(
    model: Result<ThermalModel, CoreError>,
    requests: &[(u64, TransientRequest)],
) -> (GroupOutcomes, TransientCounters) {
    let mut counters = TransientCounters::default();
    let mut results: GroupOutcomes = Vec::new();
    let model = match model {
        Ok(m) => m,
        Err(e) => {
            for (id, _) in requests {
                results.push((*id, Err(e.clone())));
            }
            return (results, counters);
        }
    };
    let refs: Vec<&(u64, TransientRequest)> = requests.iter().collect();
    let root = PathProgress::start(&requests[0].1);
    serve_node(&model, &refs, None, root, &mut results, &mut counters);
    // A panicking integration may have unwound mid-clone of the model's
    // shared operator caches: the engine drops the cached model so later
    // batches re-assemble from scratch.
    counters.quarantined_models = u64::from(counters.panicked_requests > 0);
    (results, counters)
}

/// Recursive prefix-tree serving: `reqs` all share the trace segments
/// `path` has integrated, ending at `from`.
fn serve_node(
    model: &ThermalModel,
    reqs: &[&(u64, TransientRequest)],
    from: Option<&Checkpoint>,
    path: PathProgress,
    out: &mut GroupOutcomes,
    counters: &mut TransientCounters,
) {
    let depth = path.segments_done;
    // Requests whose whole trace is integrated: finalize from the
    // accumulated path state.
    for (id, req) in reqs.iter().filter(|(_, r)| r.trace.len() == depth) {
        out.push((*id, Ok(path.outcome(req, from))));
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

    for part in partitions {
        let mut child = path.clone();
        match child.advance(model, &part[0].1, from, part.len(), counters) {
            Ok(checkpoint) => serve_node(model, &part, Some(&checkpoint), child, out, counters),
            Err(e) => {
                for (id, _) in &part {
                    out.push((*id, Err(e.clone())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `requests` as one group on a model built for the first.
    fn serve_group(requests: &[(u64, TransientRequest)]) -> (GroupOutcomes, TransientCounters) {
        let model = crate::cosim::thermal_model_for(&requests[0].1.scenario).and_then(|m| {
            m.assemble()?;
            Ok(m)
        });
        serve_transient_group(model, requests)
    }

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
        let _ = full;
    }

    #[test]
    fn ramp_validation_accepts_both_stepping_modes() {
        let full = PowerScenario::full_load();
        let mut r = base_request(&[(0.01, full.clone())]);
        r.trace[0].ramp = Some(LoadRamp::flow(1.0, 0.25));
        // Fixed stepping syncs per step; fine.
        assert!(r.validate().is_ok());
        // TR-BDF2 stages sync inside the step; fine.
        r.stepping = SteppingMode::Adaptive(AdaptiveConfig::default());
        assert!(r.validate().is_ok());
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
        // bitwise identical to its solo run: both restore the first
        // segment's checkpoint into a fresh integrator.
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

        let (grouped, counters) = serve_group(&[(0, a.clone()), (1, b.clone())]);
        assert_eq!(counters.segments_integrated, 3, "tails must not merge");
        assert_eq!(counters.segments_reused, 1, "prefix must be shared");

        let (solo_a, _) = serve_group(&[(0, a)]);
        let (solo_b, _) = serve_group(&[(1, b)]);

        let get = |rs: &GroupOutcomes, id: u64| {
            rs.iter().find(|(i, _)| *i == id).unwrap().1.clone().unwrap()
        };
        let (ga, gb) = (get(&grouped, 0), get(&grouped, 1));
        let (sa, sb) = (get(&solo_a, 0), get(&solo_b, 1));
        // Everything except the serving-path bookkeeping (shared time)
        // must agree bitwise, the re-stamp count included.
        let flat = |o: &TransientOutcome| TransientOutcome {
            shared_time: 0.0,
            ..*o
        };
        assert_eq!(flat(&ga), flat(&sa), "solo vs grouped branch diverged (A)");
        assert_eq!(flat(&gb), flat(&sb), "solo vs grouped branch diverged (B)");
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

        let (grouped, counters) = serve_group(&[(0, a.clone()), (1, b.clone())]);
        assert_eq!(counters.segments_integrated, 2, "must not share");
        assert_eq!(counters.segments_reused, 0);
        let get = |rs: &GroupOutcomes, id: u64| {
            rs.iter().find(|(i, _)| *i == id).unwrap().1.clone().unwrap()
        };
        let (solo_a, _) = serve_group(&[(0, a)]);
        let (solo_b, _) = serve_group(&[(1, b)]);
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

        let (grouped, counters) = serve_group(&[(0, a.clone()), (1, b.clone())]);
        assert_eq!(grouped.len(), 2);
        // 3 nodes: shared prefix + two branch tails.
        assert_eq!(counters.segments_integrated, 3);
        assert_eq!(counters.segments_reused, 1);

        let (solo_a, _) = serve_group(&[(0, a)]);
        let (solo_b, _) = serve_group(&[(1, b)]);
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
