//! The job model of the durable scenario service: sortable unique ids,
//! declarative job specifications (a scenario preset plus overrides, so
//! specs serialize exactly without a full-`Scenario` codec), and the
//! per-kind report payloads the service persists.

use crate::scenario::Scenario;
use crate::transient::{LoadRamp, LoadStep, SteppingMode, TransientOutcome};
use crate::{CoreError, CoSimReport, PolarizationOutcome};
use bright_floorplan::PowerScenario;
use bright_jsonio::Value;
use bright_thermal::AdaptiveConfig;
use bright_units::{CubicMetersPerSecond, Kelvin};

/// Crockford base32, the ULID alphabet (no I, L, O, U).
const ALPHABET: &[u8; 32] = b"0123456789ABCDEFGHJKMNPQRSTVWXYZ";

/// A 128-bit ULID-style job id: 48 bits of submission milliseconds
/// followed by 80 bits of entropy, so ids sort by submission time and
/// never collide within the service's lifetime. The entropy is derived
/// deterministically from the timestamp and the store's submission
/// sequence number (not an OS RNG), so a service driven by a manual
/// clock mints *identical* ids across runs — the property the
/// crash-recovery test matrix uses to compare report sets bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u128);

impl JobId {
    /// Mints the id for the `seq`-th submission at `now_ms`.
    #[must_use]
    pub fn mint(now_ms: u64, seq: u64) -> Self {
        let ts = u128::from(now_ms & ((1 << 48) - 1));
        let e1 = splitmix64(now_ms ^ seq.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15);
        let e2 = splitmix64(e1 ^ seq);
        let entropy = (u128::from(e1) << 16 | u128::from(e2 & 0xffff)) & ((1 << 80) - 1);
        Self(ts << 80 | entropy)
    }

    /// The canonical 26-character Crockford base32 text.
    #[must_use]
    pub fn encode(&self) -> String {
        (0..26)
            .map(|i| ALPHABET[((self.0 >> (5 * (25 - i))) & 0x1f) as usize] as char)
            .collect()
    }

    /// Parses the canonical text form.
    #[must_use]
    pub fn decode(text: &str) -> Option<Self> {
        if text.len() != 26 {
            return None;
        }
        let mut v: u128 = 0;
        for c in text.bytes() {
            let digit = ALPHABET.iter().position(|&a| a == c.to_ascii_uppercase())?;
            // 26 chars carry 130 bits; the top 2 must be zero.
            if v >> 123 != 0 {
                return None;
            }
            v = v << 5 | digit as u128;
        }
        Some(Self(v))
    }

    /// The embedded submission timestamp (ms).
    #[must_use]
    pub fn timestamp_ms(&self) -> u64 {
        (self.0 >> 80) as u64
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.encode())
    }
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Admission priority class. Lower discriminant dispatches first;
/// within a class the earlier submission wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Operator-facing requests served ahead of everything else.
    Interactive,
    /// The default class.
    Normal,
    /// Bulk work served only when nothing more urgent is queued.
    Batch,
}

impl Priority {
    /// The canonical text form.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Interactive => "interactive",
            Self::Normal => "normal",
            Self::Batch => "batch",
        }
    }

    /// Parses the canonical text form.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "interactive" => Some(Self::Interactive),
            "normal" => Some(Self::Normal),
            "batch" => Some(Self::Batch),
            _ => None,
        }
    }
}

/// A named, scalable power map — the serializable stand-in for
/// [`PowerScenario`] in job specs.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRef {
    /// `"full_load"` or `"cache_only"`.
    pub base: String,
    /// Uniform scale applied to the base map (1.0 = as published).
    pub scale: f64,
}

impl LoadRef {
    /// The unscaled full-load map.
    #[must_use]
    pub fn full_load() -> Self {
        Self {
            base: "full_load".into(),
            scale: 1.0,
        }
    }

    /// The unscaled cache-only map.
    #[must_use]
    pub fn cache_only() -> Self {
        Self {
            base: "cache_only".into(),
            scale: 1.0,
        }
    }

    /// Resolves to the concrete power map.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] for an unknown base name or a
    /// non-finite/negative scale.
    pub fn resolve(&self) -> Result<PowerScenario, CoreError> {
        let base = match self.base.as_str() {
            "full_load" => PowerScenario::full_load(),
            "cache_only" => PowerScenario::cache_only(),
            other => {
                return Err(CoreError::InvalidScenario(format!(
                    "unknown load '{other}' (expected full_load or cache_only)"
                )))
            }
        };
        if !(self.scale.is_finite() && self.scale >= 0.0) {
            return Err(CoreError::InvalidScenario(format!(
                "load scale must be finite and non-negative, got {}",
                self.scale
            )));
        }
        Ok(if self.scale == 1.0 {
            base
        } else {
            base.scaled(self.scale)
        })
    }

    fn to_json(&self) -> Value {
        Value::object([
            ("base".into(), Value::String(self.base.clone())),
            ("scale".into(), Value::Number(self.scale)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, CoreError> {
        Ok(Self {
            base: str_field(v, "base")?,
            scale: num_field(v, "scale")?,
        })
    }
}

/// Scenario knobs a job may override on top of its preset. `None`
/// leaves the preset value in place.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Overrides {
    /// Total electrolyte flow (ml/min).
    pub total_flow_ml_min: Option<f64>,
    /// Electrolyte inlet temperature (K).
    pub inlet_temperature_k: Option<f64>,
    /// Physical channel count.
    pub channel_count: Option<usize>,
    /// Thermal grid columns.
    pub thermal_columns: Option<usize>,
    /// Thermal grid rows.
    pub thermal_ny: Option<usize>,
    /// Polarization sweep points.
    pub sweep_points: Option<usize>,
    /// Flow-cell transverse cells.
    pub cell_ny: Option<usize>,
    /// Flow-cell marching stations.
    pub cell_nx: Option<usize>,
    /// Couple chip heat into the electrochemistry.
    pub couple_temperature: Option<bool>,
    /// Chip thermal load.
    pub thermal_load: Option<LoadRef>,
    /// Rail (cache) load.
    pub rail_load: Option<LoadRef>,
}

impl Overrides {
    fn apply(&self, s: &mut Scenario) -> Result<(), CoreError> {
        if let Some(f) = self.total_flow_ml_min {
            s.total_flow = CubicMetersPerSecond::from_milliliters_per_minute(f);
        }
        if let Some(t) = self.inlet_temperature_k {
            s.inlet_temperature = Kelvin::new(t);
        }
        if let Some(n) = self.channel_count {
            s.channel_count = n;
        }
        if let Some(n) = self.thermal_columns {
            s.thermal_columns = n;
        }
        if let Some(n) = self.thermal_ny {
            s.thermal_ny = n;
        }
        if let Some(n) = self.sweep_points {
            s.sweep_points = n;
        }
        if let Some(n) = self.cell_ny {
            s.cell_options.ny = n;
        }
        if let Some(n) = self.cell_nx {
            s.cell_options.nx = n;
        }
        if let Some(c) = self.couple_temperature {
            s.couple_temperature = c;
        }
        if let Some(l) = &self.thermal_load {
            s.thermal_load = l.resolve()?;
        }
        if let Some(l) = &self.rail_load {
            s.rail_load = l.resolve()?;
        }
        Ok(())
    }

    fn to_json(&self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::new();
        let mut num = |name: &str, v: Option<f64>| {
            if let Some(x) = v {
                fields.push((name.into(), Value::Number(x)));
            }
        };
        num("total_flow_ml_min", self.total_flow_ml_min);
        num("inlet_temperature_k", self.inlet_temperature_k);
        num("channel_count", self.channel_count.map(|n| n as f64));
        num("thermal_columns", self.thermal_columns.map(|n| n as f64));
        num("thermal_ny", self.thermal_ny.map(|n| n as f64));
        num("sweep_points", self.sweep_points.map(|n| n as f64));
        num("cell_ny", self.cell_ny.map(|n| n as f64));
        num("cell_nx", self.cell_nx.map(|n| n as f64));
        if let Some(c) = self.couple_temperature {
            fields.push(("couple_temperature".into(), Value::Bool(c)));
        }
        if let Some(l) = &self.thermal_load {
            fields.push(("thermal_load".into(), l.to_json()));
        }
        if let Some(l) = &self.rail_load {
            fields.push(("rail_load".into(), l.to_json()));
        }
        Value::object(fields)
    }

    fn from_json(v: &Value) -> Result<Self, CoreError> {
        let num = |name: &str| v.get(name).and_then(Value::as_f64);
        let count = |name: &str| v.get(name).and_then(Value::as_usize);
        Ok(Self {
            total_flow_ml_min: num("total_flow_ml_min"),
            inlet_temperature_k: num("inlet_temperature_k"),
            channel_count: count("channel_count"),
            thermal_columns: count("thermal_columns"),
            thermal_ny: count("thermal_ny"),
            sweep_points: count("sweep_points"),
            cell_ny: count("cell_ny"),
            cell_nx: count("cell_nx"),
            couple_temperature: v.get("couple_temperature").and_then(Value::as_bool),
            thermal_load: v
                .get("thermal_load")
                .map(LoadRef::from_json)
                .transpose()?,
            rail_load: v.get("rail_load").map(LoadRef::from_json).transpose()?,
        })
    }
}

/// What the job computes.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// One steady co-simulation ([`CoSimReport`]).
    Steady,
    /// A transient trace integration, served segment by segment with a
    /// checkpoint persisted between segments so a crash resumes instead
    /// of recomputing.
    Transient {
        /// The piecewise-constant load trace: (duration s, load,
        /// optional coolant coefficient ramp).
        trace: Vec<(f64, LoadRef, Option<LoadRamp>)>,
        /// Initial uniform temperature (K).
        initial_temperature_k: f64,
        /// Stepping policy.
        stepping: SteppingMode,
    },
    /// A polarization sweep ([`PolarizationOutcome`]).
    Polarization {
        /// Sweep points.
        points: usize,
    },
}

impl JobKind {
    /// A short kind tag used in journal records and estimates.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Steady => "steady",
            Self::Transient { .. } => "transient",
            Self::Polarization { .. } => "polarization",
        }
    }

    /// Builds the engine-facing trace for a transient job.
    pub(crate) fn load_steps(
        trace: &[(f64, LoadRef, Option<LoadRamp>)],
    ) -> Result<Vec<LoadStep>, CoreError> {
        trace
            .iter()
            .map(|(duration, load, ramp)| {
                Ok(LoadStep {
                    duration: *duration,
                    load: load.resolve()?,
                    ramp: *ramp,
                })
            })
            .collect()
    }

    fn to_json(&self) -> Value {
        match self {
            Self::Steady => Value::object([("kind".into(), Value::String("steady".into()))]),
            Self::Transient {
                trace,
                initial_temperature_k,
                stepping,
            } => Value::object([
                ("kind".into(), Value::String("transient".into())),
                (
                    "trace".into(),
                    Value::Array(
                        trace
                            .iter()
                            .map(|(d, l, ramp)| {
                                let mut fields = vec![
                                    ("duration".to_string(), Value::Number(*d)),
                                    ("load".to_string(), l.to_json()),
                                ];
                                if let Some(r) = ramp {
                                    fields.push(("ramp".to_string(), ramp_to_json(r)));
                                }
                                Value::object(fields)
                            })
                            .collect(),
                    ),
                ),
                (
                    "initial_temperature_k".into(),
                    Value::Number(*initial_temperature_k),
                ),
                ("stepping".into(), stepping_to_json(stepping)),
            ]),
            Self::Polarization { points } => Value::object([
                ("kind".into(), Value::String("polarization".into())),
                ("points".into(), Value::Number(*points as f64)),
            ]),
        }
    }

    fn from_json(v: &Value) -> Result<Self, CoreError> {
        match str_field(v, "kind")?.as_str() {
            "steady" => Ok(Self::Steady),
            "transient" => {
                let trace = v
                    .get("trace")
                    .and_then(Value::as_array)
                    .ok_or_else(|| spec_err("trace"))?
                    .iter()
                    .map(|step| {
                        Ok((
                            num_field(step, "duration")?,
                            LoadRef::from_json(
                                step.get("load").ok_or_else(|| spec_err("load"))?,
                            )?,
                            step.get("ramp").map(ramp_from_json).transpose()?,
                        ))
                    })
                    .collect::<Result<Vec<_>, CoreError>>()?;
                Ok(Self::Transient {
                    trace,
                    initial_temperature_k: num_field(v, "initial_temperature_k")?,
                    stepping: stepping_from_json(
                        v.get("stepping").ok_or_else(|| spec_err("stepping"))?,
                    )?,
                })
            }
            "polarization" => Ok(Self::Polarization {
                points: v
                    .get("points")
                    .and_then(Value::as_usize)
                    .ok_or_else(|| spec_err("points"))?,
            }),
            other => Err(CoreError::Report(format!("unknown job kind '{other}'"))),
        }
    }
}

fn ramp_to_json(ramp: &LoadRamp) -> Value {
    Value::object([
        (
            "flow_scale_from".into(),
            Value::Number(ramp.flow_scale_from),
        ),
        ("flow_scale_to".into(), Value::Number(ramp.flow_scale_to)),
        (
            "inlet_offset_from_k".into(),
            Value::Number(ramp.inlet_offset_from_k),
        ),
        (
            "inlet_offset_to_k".into(),
            Value::Number(ramp.inlet_offset_to_k),
        ),
    ])
}

fn ramp_from_json(v: &Value) -> Result<LoadRamp, CoreError> {
    Ok(LoadRamp {
        flow_scale_from: num_field(v, "flow_scale_from")?,
        flow_scale_to: num_field(v, "flow_scale_to")?,
        inlet_offset_from_k: num_field(v, "inlet_offset_from_k")?,
        inlet_offset_to_k: num_field(v, "inlet_offset_to_k")?,
    })
}

fn stepping_to_json(stepping: &SteppingMode) -> Value {
    match stepping {
        SteppingMode::Fixed { dt } => Value::object([
            ("mode".into(), Value::String("fixed".into())),
            ("dt".into(), Value::Number(*dt)),
        ]),
        SteppingMode::Adaptive(cfg) => Value::object([
            ("mode".into(), Value::String("adaptive".into())),
            ("abs_tol".into(), Value::Number(cfg.abs_tol)),
            ("rel_tol".into(), Value::Number(cfg.rel_tol)),
            ("dt_init".into(), Value::Number(cfg.dt_init)),
            ("dt_min".into(), Value::Number(cfg.dt_min)),
            ("dt_max".into(), Value::Number(cfg.dt_max)),
            ("safety".into(), Value::Number(cfg.safety)),
            ("max_growth".into(), Value::Number(cfg.max_growth)),
            ("min_shrink".into(), Value::Number(cfg.min_shrink)),
            (
                "controller".into(),
                Value::String(cfg.controller.as_str().into()),
            ),
        ]),
    }
}

fn stepping_from_json(v: &Value) -> Result<SteppingMode, CoreError> {
    match str_field(v, "mode")?.as_str() {
        "fixed" => Ok(SteppingMode::Fixed {
            dt: num_field(v, "dt")?,
        }),
        "adaptive" => Ok(SteppingMode::Adaptive(AdaptiveConfig {
            abs_tol: num_field(v, "abs_tol")?,
            rel_tol: num_field(v, "rel_tol")?,
            dt_init: num_field(v, "dt_init")?,
            dt_min: num_field(v, "dt_min")?,
            dt_max: num_field(v, "dt_max")?,
            safety: num_field(v, "safety")?,
            max_growth: num_field(v, "max_growth")?,
            min_shrink: num_field(v, "min_shrink")?,
            // Specs written by pre-TR-BDF2 builds carry no controller
            // field; they ran step-doubling's *semantics* but re-runs
            // adopt the current default estimator.
            controller: match v.get("controller").and_then(Value::as_str) {
                None => bright_thermal::Controller::default(),
                Some(text) => bright_thermal::Controller::parse(text).ok_or_else(|| {
                    CoreError::Report(format!("unknown controller '{text}'"))
                })?,
            },
        })),
        other => Err(CoreError::Report(format!("unknown stepping mode '{other}'"))),
    }
}

/// A complete, serializable job description: scenario preset plus
/// overrides, the computation kind, and the service-level contract
/// (priority, deadline, timeout, retry budget).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Scenario preset name: `power7_nominal`, `power7_throttled`,
    /// `power7_warm_inlet` or `power7_reduced`.
    pub preset: String,
    /// Overrides applied on top of the preset.
    pub overrides: Overrides,
    /// What to compute.
    pub kind: JobKind,
    /// Admission class.
    pub priority: Priority,
    /// Completion deadline, milliseconds after submission. Admission
    /// rejects the job if the service's running estimate for this kind
    /// cannot meet it; dispatch fails it permanently once expired.
    pub deadline_ms: Option<u64>,
    /// Per-attempt wall-clock budget (ms), enforced at segment
    /// boundaries (transient) and on attempt completion.
    pub timeout_ms: Option<u64>,
    /// Retries after a retryable failure (exponential backoff between
    /// attempts). 0 = fail on the first error.
    pub max_retries: u32,
}

impl JobSpec {
    /// A steady job on a preset with default contract terms.
    #[must_use]
    pub fn steady(preset: &str) -> Self {
        Self {
            preset: preset.into(),
            overrides: Overrides::default(),
            kind: JobKind::Steady,
            priority: Priority::Normal,
            deadline_ms: None,
            timeout_ms: None,
            max_retries: 2,
        }
    }

    /// Resolves the preset and overrides into a concrete scenario.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] for an unknown preset or invalid
    /// override values.
    pub fn scenario(&self) -> Result<Scenario, CoreError> {
        let mut s = match self.preset.as_str() {
            "power7_nominal" => Scenario::power7_nominal(),
            "power7_throttled" => Scenario::power7_throttled(),
            "power7_warm_inlet" => Scenario::power7_warm_inlet(),
            "power7_reduced" => Scenario::power7_reduced(),
            other => {
                return Err(CoreError::InvalidScenario(format!(
                    "unknown scenario preset '{other}'"
                )))
            }
        };
        self.overrides.apply(&mut s)?;
        Ok(s)
    }

    /// Full validation: the scenario resolves and validates, and the
    /// kind-specific inputs are well-formed.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] describing the first violation.
    pub fn validate(&self) -> Result<(), CoreError> {
        let scenario = self.scenario()?;
        match &self.kind {
            JobKind::Steady => scenario.validate(),
            JobKind::Transient {
                trace,
                initial_temperature_k,
                stepping,
            } => {
                let request = crate::transient::TransientRequest {
                    scenario,
                    trace: JobKind::load_steps(trace)?,
                    initial_temperature: Kelvin::new(*initial_temperature_k),
                    stepping: *stepping,
                };
                request.validate()
            }
            JobKind::Polarization { points } => {
                let mut req = crate::engine::PolarizationRequest::new(scenario);
                req.points = *points;
                req.validate()
            }
        }
    }

    /// The spec as a JSON value tree (exact round-trip).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("preset".into(), Value::String(self.preset.clone())),
            ("overrides".into(), self.overrides.to_json()),
            ("job".into(), self.kind.to_json()),
            (
                "priority".into(),
                Value::String(self.priority.as_str().into()),
            ),
            (
                "max_retries".into(),
                Value::Number(f64::from(self.max_retries)),
            ),
        ];
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".into(), Value::Number(d as f64)));
        }
        if let Some(t) = self.timeout_ms {
            fields.push(("timeout_ms".into(), Value::Number(t as f64)));
        }
        Value::object(fields)
    }

    /// Rebuilds a spec from its JSON value tree.
    ///
    /// # Errors
    ///
    /// [`CoreError::Report`] for missing/mistyped fields.
    pub fn from_json(v: &Value) -> Result<Self, CoreError> {
        Ok(Self {
            preset: str_field(v, "preset")?,
            overrides: Overrides::from_json(
                v.get("overrides").ok_or_else(|| spec_err("overrides"))?,
            )?,
            kind: JobKind::from_json(v.get("job").ok_or_else(|| spec_err("job"))?)?,
            priority: Priority::parse(&str_field(v, "priority")?)
                .ok_or_else(|| spec_err("priority"))?,
            deadline_ms: v.get("deadline_ms").and_then(Value::as_f64).map(|d| d as u64),
            timeout_ms: v.get("timeout_ms").and_then(Value::as_f64).map(|t| t as u64),
            max_retries: v
                .get("max_retries")
                .and_then(Value::as_usize)
                .ok_or_else(|| spec_err("max_retries"))? as u32,
        })
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// As [`JobSpec::from_json`], plus parse errors.
    pub fn from_json_str(text: &str) -> Result<Self, CoreError> {
        let v = Value::parse(text).map_err(|e| CoreError::Report(e.to_string()))?;
        Self::from_json(&v)
    }
}

/// The persisted result of a completed job. The payload is a pure
/// function of the job spec (the service serves deterministically), so
/// report files are bitwise-comparable across crash/restart runs —
/// attempt counts and timestamps live in the journal, not here.
#[derive(Debug, Clone)]
pub enum ReportPayload {
    /// A steady co-simulation report.
    Steady(Box<CoSimReport>),
    /// A transient integration outcome.
    Transient(TransientOutcome),
    /// A polarization sweep outcome.
    Polarization(PolarizationOutcome),
}

impl ReportPayload {
    /// The payload as a JSON value tree.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let (kind, body) = match self {
            Self::Steady(r) => ("steady", r.to_json()),
            Self::Transient(o) => ("transient", o.to_json()),
            Self::Polarization(o) => ("polarization", o.to_json()),
        };
        Value::object([
            ("kind".into(), Value::String(kind.into())),
            ("report".into(), body),
        ])
    }

    /// Rebuilds a payload from its JSON value tree.
    ///
    /// # Errors
    ///
    /// [`CoreError::Report`] for missing/mistyped fields.
    pub fn from_json(v: &Value) -> Result<Self, CoreError> {
        let body = v.get("report").ok_or_else(|| spec_err("report"))?;
        match str_field(v, "kind")?.as_str() {
            "steady" => Ok(Self::Steady(Box::new(CoSimReport::from_json(body)?))),
            "transient" => Ok(Self::Transient(TransientOutcome::from_json(body)?)),
            "polarization" => Ok(Self::Polarization(PolarizationOutcome::from_json(body)?)),
            other => Err(CoreError::Report(format!("unknown report kind '{other}'"))),
        }
    }
}

fn spec_err(field: &str) -> CoreError {
    CoreError::Report(format!("missing or mistyped field '{field}'"))
}

fn num_field(v: &Value, field: &str) -> Result<f64, CoreError> {
    v.get(field)
        .and_then(Value::as_f64)
        .ok_or_else(|| spec_err(field))
}

fn str_field(v: &Value, field: &str) -> Result<String, CoreError> {
    v.get(field)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| spec_err(field))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_sort_by_time_are_deterministic_and_roundtrip() {
        let a = JobId::mint(1000, 0);
        let b = JobId::mint(1000, 1);
        let c = JobId::mint(2000, 0);
        assert_ne!(a, b, "same-ms submissions must differ");
        assert!(a < c && b < c, "later submissions sort after");
        assert_eq!(a, JobId::mint(1000, 0), "ids are deterministic");
        assert_eq!(a.timestamp_ms(), 1000);
        let text = a.encode();
        assert_eq!(text.len(), 26);
        assert_eq!(JobId::decode(&text), Some(a));
        assert_eq!(JobId::decode("short"), None);
        assert_eq!(JobId::decode(&"U".repeat(26)), None, "U is not in the alphabet");
    }

    #[test]
    fn spec_json_roundtrips_exactly() {
        let spec = JobSpec {
            preset: "power7_reduced".into(),
            overrides: Overrides {
                total_flow_ml_min: Some(320.5),
                inlet_temperature_k: Some(303.15),
                thermal_columns: Some(11),
                thermal_ny: Some(8),
                cell_ny: Some(12),
                cell_nx: Some(24),
                sweep_points: Some(6),
                couple_temperature: Some(true),
                thermal_load: Some(LoadRef {
                    base: "full_load".into(),
                    scale: 0.75,
                }),
                ..Overrides::default()
            },
            kind: JobKind::Transient {
                trace: vec![
                    (0.01, LoadRef::full_load(), None),
                    (
                        0.02,
                        LoadRef {
                            base: "cache_only".into(),
                            scale: 1.5,
                        },
                        Some(LoadRamp {
                            flow_scale_from: 1.0,
                            flow_scale_to: 0.4,
                            inlet_offset_from_k: 0.0,
                            inlet_offset_to_k: 5.5,
                        }),
                    ),
                ],
                initial_temperature_k: 300.0,
                stepping: SteppingMode::Fixed { dt: 2e-3 },
            },
            priority: Priority::Interactive,
            deadline_ms: Some(60_000),
            timeout_ms: Some(5_000),
            max_retries: 3,
        };
        let text = spec.to_json().to_json_string();
        let back = JobSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
        assert!(spec.validate().is_ok());

        let adaptive = JobSpec {
            kind: JobKind::Transient {
                trace: vec![(0.01, LoadRef::full_load(), None)],
                initial_temperature_k: 300.0,
                stepping: SteppingMode::Adaptive(AdaptiveConfig::default()),
            },
            ..JobSpec::steady("power7_reduced")
        };
        let back = JobSpec::from_json_str(&adaptive.to_json().to_json_string()).unwrap();
        assert_eq!(back, adaptive);
    }

    #[test]
    fn deeply_nested_spec_is_a_typed_error() {
        // A hostile spec nested far past the JSON depth limit comes
        // back as a typed error instead of overflowing the stack.
        let text = format!(
            r#"{{"preset":"power7_reduced","overrides":{}"#,
            "[".repeat(200_000)
        );
        assert!(matches!(
            JobSpec::from_json_str(&text),
            Err(CoreError::Report(_))
        ));
    }

    #[test]
    fn spec_validation_rejects_bad_inputs() {
        assert!(JobSpec::steady("power7_reduced").validate().is_ok());
        assert!(JobSpec::steady("no_such_preset").validate().is_err());
        let mut bad_scale = JobSpec::steady("power7_reduced");
        bad_scale.overrides.thermal_load = Some(LoadRef {
            base: "full_load".into(),
            scale: -1.0,
        });
        assert!(bad_scale.validate().is_err());
        let mut bad_load = JobSpec::steady("power7_reduced");
        bad_load.overrides.rail_load = Some(LoadRef {
            base: "everything".into(),
            scale: 1.0,
        });
        assert!(bad_load.validate().is_err());
        let mut bad_grid = JobSpec::steady("power7_reduced");
        bad_grid.overrides.thermal_columns = Some(7); // does not divide 88
        assert!(bad_grid.validate().is_err());
        let empty_trace = JobSpec {
            kind: JobKind::Transient {
                trace: vec![],
                initial_temperature_k: 300.0,
                stepping: SteppingMode::Fixed { dt: 1e-3 },
            },
            ..JobSpec::steady("power7_reduced")
        };
        assert!(empty_trace.validate().is_err());
    }
}
