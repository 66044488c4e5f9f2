//! Transient thermal simulation: implicit time stepping (fixed-Δt
//! backward Euler, adaptive TR-BDF2) over power traces with optional
//! flow/inlet coefficient ramps, and checkpoint/restore.
//!
//! 3D-ICE's hallmark is fast transient simulation of liquid-cooled
//! stacks. The semidiscrete system is `C·T' = b − G·T` (heat-capacity
//! diagonal `C`, conductance/advection operator `G`, forcing `b`);
//! every implicit stage here solves a shifted system `(G + C/d)·T =
//! rhs`, which is unconditionally stable — large steps simply approach
//! the steady state.
//!
//! Three layers build on each other:
//!
//! * [`TransientSimulation`] — the fixed-Δt backward-Euler stepper. It
//!   owns a [`SolverSession`] bound to `G + C/Δt`: pattern, Krylov
//!   scratch and preconditioner are set up once and every step is a
//!   warm-started, allocation-free solve.
//!   [`TransientSimulation::set_dt`] re-stamps the operator *values*
//!   through the cached pattern in O(nnz), and
//!   [`TransientSimulation::set_coefficients`] does the same for
//!   mid-trace flow/inlet changes (riding
//!   [`ThermalModel::refresh_coefficients`] — never a re-assembly).
//! * [`PowerTrace`] — a sequence of [`TraceSegment`]s, each a power map
//!   held over a span, optionally with a [`CoefficientRamp`] that
//!   sweeps the coolant flow rate and inlet temperature linearly across
//!   the span (the paper's throttling, dark-silicon and flow-controller
//!   experiments).
//! * [`AdaptiveTransient`] — the adaptive-Δt integrator. It takes one
//!   composite TR-BDF2 step per attempt: a trapezoidal stage to
//!   `t + γh` (γ = 2 − √2) and a BDF2 stage to `t + h`, both solving
//!   the *same* shifted operator `G + C/d` with `d = (1 − 1/√2)·h` —
//!   one O(nnz) re-stamp and two warm-started solves per attempt, with
//!   an embedded third-order error estimate that is free (divided
//!   differences of `C⁻¹(b−G·T)` at the three stage nodes — matvecs,
//!   not solves). A solver failure the session's recovery ladder could
//!   not absorb halves Δt and retries. Steps never straddle a segment
//!   boundary.
//!
//! Both steppers can [`save_checkpoint`](AdaptiveTransient::save_checkpoint) /
//! [`restore_checkpoint`](AdaptiveTransient::restore_checkpoint): a
//! [`Checkpoint`] captures the temperature field (solid *and* fluid
//! cells), the session warm-start vector, the step size, the trace
//! cursor and the controller counters (format version 2; version-1
//! documents from earlier releases still load), and serializes to JSON
//! via `bright-jsonio`. Restoring and continuing is bitwise-identical
//! to an uninterrupted run — every stage re-seeds its warm start and
//! re-stamps its coefficients from committed state either way — which
//! is what lets trace segments shared between scenarios be integrated
//! once and branched, and live integrators be carried down
//! single-child prefix chains (see `bright_core::engine`).

use crate::model::{ThermalModel, ThermalSolution};
use crate::ThermalError;
use bright_jsonio::Value;
use bright_mesh::Field2d;
use bright_num::{vec_ops, CsrMatrix, SolverSession, TripletMatrix};
use bright_units::{CubicMetersPerSecond, Kelvin};

/// TR-BDF2 stage split: γ = 2 − √2, the classic choice that makes both
/// stages share one shifted operator.
const TRBDF2_GAMMA: f64 = 2.0 - std::f64::consts::SQRT_2;
/// Shared stage shift `d/h` for both stages: the trapezoidal stage
/// solves `(G + C/d₁)` with `d₁ = γh/2` and the BDF2 stage
/// `(G + C/d₂)` with `d₂ = h(1−γ)/(2−γ)`; at γ = 2 − √2 both equal
/// `(1 − 1/√2)·h`, so one O(nnz) re-stamp covers the whole step.
const TRBDF2_STAGE_SCALE: f64 = 1.0 - std::f64::consts::FRAC_1_SQRT_2;
/// BDF2-stage history weight of the trapezoidal stage value:
/// `1/(γ(1−γ)) = (3√2+4)/2`.
const TRBDF2_C_GAMMA: f64 = (3.0 * std::f64::consts::SQRT_2 + 4.0) / 2.0;
/// BDF2-stage history weight of the step-start value: `(1−γ)/γ = 1/√2`.
const TRBDF2_C_N: f64 = std::f64::consts::FRAC_1_SQRT_2;
/// Local-truncation-error coefficient of the embedded third-order
/// estimate: `(−3γ² + 4γ − 2)/(12(2−γ)) ≈ −0.0404`.
const TRBDF2_C_LTE: f64 = (-3.0 * TRBDF2_GAMMA * TRBDF2_GAMMA + 4.0 * TRBDF2_GAMMA - 2.0)
    / (12.0 * (2.0 - TRBDF2_GAMMA));

/// `(T⁺, fγ, f⁺)` from the two stage solves of one attempted step.
type TrBdf2Stages = (Vec<f64>, Vec<f64>, Vec<f64>);

/// A transient thermal simulation with a fixed power map and time step.
#[derive(Debug, Clone)]
pub struct TransientSimulation {
    model: ThermalModel,
    /// Session bound to `G + C/Δt` (pattern + scratch + preconditioner).
    session: SolverSession,
    /// The steady conductance operator `G` (coefficients fixed for the
    /// life of the simulation); kept so Δt changes re-stamp values only.
    conductance: CsrMatrix,
    /// Scratch triplet list for O(nnz) re-stamps on Δt changes.
    stamps: TripletMatrix,
    rhs_steady: Vec<f64>,
    /// Per-cell heat capacity `C` (J/K), Δt-independent.
    capacity: Vec<f64>,
    /// The stamped `C/Δt` diagonal.
    capacity_over_dt: Vec<f64>,
    temperatures: Vec<f64>,
    time: f64,
    dt: f64,
    /// Session coefficient epoch, bumped by every Δt or coefficient
    /// re-stamp.
    epoch: u64,
    steps: u64,
    /// The power map currently driving the forcing — kept so
    /// coefficient refreshes can rebuild `rhs_steady` (the inlet
    /// forcing depends on flow and inlet temperature).
    power: Field2d,
    /// The model's flow/inlet operating point at construction; `None`
    /// for conduction-only stacks (no rampable coefficients).
    baseline: Option<(CubicMetersPerSecond, Kelvin)>,
    /// The operating point currently stamped into the operator.
    current: Option<(CubicMetersPerSecond, Kelvin)>,
    /// Mid-trace coefficient re-stamps performed (each an O(nnz)
    /// refresh — the zero-re-assembly observable for ramp traces).
    coefficient_refreshes: u64,
}

fn validate_dt(dt: f64) -> Result<(), ThermalError> {
    if !(dt > 0.0 && dt.is_finite()) {
        return Err(ThermalError::InvalidConfig(format!(
            "time step must be positive, got {dt}"
        )));
    }
    Ok(())
}

impl TransientSimulation {
    /// Creates a transient run from an initial uniform temperature.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] for a non-positive `dt`,
    /// * assembly errors as in [`ThermalModel::solve_steady`].
    pub fn new(
        model: ThermalModel,
        power: &Field2d,
        initial_temperature: f64,
        dt: f64,
    ) -> Result<Self, ThermalError> {
        validate_dt(dt)?;
        if !(initial_temperature > 0.0 && initial_temperature.is_finite()) {
            return Err(ThermalError::InvalidConfig(format!(
                "initial temperature must be positive, got {initial_temperature}"
            )));
        }
        let (g, rhs_steady) = model.assemble_for_transient(power)?;
        let per_level_caps = model.levels_heat_capacity_volumes();
        let cells = model.grid().len();
        let n = g.rows();
        let mut capacity = vec![0.0; n];
        for (lvl, cap) in per_level_caps.iter().enumerate() {
            for cell in 0..cells {
                capacity[lvl * cells + cell] = *cap;
            }
        }
        let capacity_over_dt: Vec<f64> = capacity.iter().map(|c| c / dt).collect();
        // System matrix: G + C/dt on the diagonal. The stamp sequence
        // (row-major G entries, then the capacity diagonal) is fixed for
        // the simulation's lifetime so `set_dt` can refresh values
        // through the cached pattern.
        let mut t = TripletMatrix::with_capacity(n, n, g.nnz() + n);
        Self::stamp_system(&g, &capacity_over_dt, &mut t)?;
        let mut session = SolverSession::new(model.solve_options());
        session.bind_triplets(&t).map_err(ThermalError::from)?;
        let baseline = model.operating_point();
        Ok(Self {
            model,
            session,
            conductance: g,
            stamps: t,
            rhs_steady,
            capacity,
            capacity_over_dt,
            temperatures: vec![initial_temperature; n],
            time: 0.0,
            dt,
            epoch: 0,
            steps: 0,
            power: power.clone(),
            baseline,
            current: baseline,
            coefficient_refreshes: 0,
        })
    }

    /// Stamps `G + diag(C/Δt)` into `t` (cleared first). The sequence
    /// must stay identical between calls — the
    /// [`bright_num::CsrSymbolic::refresh_values`] contract.
    fn stamp_system(
        g: &CsrMatrix,
        capacity_over_dt: &[f64],
        t: &mut TripletMatrix,
    ) -> Result<(), ThermalError> {
        t.clear();
        for (i, cap) in capacity_over_dt.iter().enumerate() {
            for (j, v) in g.row(i) {
                t.push(i, j, v).map_err(ThermalError::from)?;
            }
            t.push(i, i, *cap).map_err(ThermalError::from)?;
        }
        Ok(())
    }

    /// Elapsed simulated time (s).
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The current time step (s).
    #[inline]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The thermal model being stepped.
    #[inline]
    pub fn model(&self) -> &ThermalModel {
        &self.model
    }

    /// The current temperature field (all levels, row-major per level;
    /// fluid cells included).
    #[inline]
    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    /// Peak temperature of the current field (K).
    pub fn peak(&self) -> f64 {
        self.temperatures
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Accepted steps so far (committed solves; the adaptive controller
    /// performs additional trial solves — see
    /// [`AdaptiveTransient::stats`]).
    #[inline]
    pub fn step_count(&self) -> u64 {
        self.steps
    }

    /// Linear solves performed by the underlying session (includes
    /// uncommitted trial solves).
    #[inline]
    pub fn solve_count(&self) -> u64 {
        self.session.stats().solves
    }

    /// Session statistics of the internal solver (solves, refreshes,
    /// recovery counters) — engines surface the recovery counters in
    /// their reports.
    #[inline]
    pub fn session_stats(&self) -> bright_num::SessionStats {
        self.session.stats()
    }

    /// Replaces the failure-recovery policy of the internal solver
    /// session (see [`bright_num::RecoveryPolicy`]).
    pub fn set_recovery_policy(&mut self, policy: bright_num::RecoveryPolicy) {
        self.session.set_recovery_policy(policy);
    }

    /// The ladder rung that produced the session's most recent solve
    /// (see [`bright_num::RecoveryRung`]).
    #[inline]
    pub fn last_recovery(&self) -> bright_num::RecoveryRung {
        self.session.last_recovery()
    }

    /// Changes the time step, re-stamping the `C/Δt` diagonal of the
    /// implicit operator through the cached sparsity pattern — O(nnz),
    /// no symbolic work, no model rebuild. A no-op when `dt` is bitwise
    /// equal to the current step.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] for a non-positive `dt`,
    /// * [`ThermalError::Numerical`] if the refresh fails (cannot happen
    ///   for a well-formed simulation).
    pub fn set_dt(&mut self, dt: f64) -> Result<(), ThermalError> {
        validate_dt(dt)?;
        if dt == self.dt {
            return Ok(());
        }
        self.dt = dt;
        for (c, cap) in self.capacity_over_dt.iter_mut().zip(&self.capacity) {
            *c = cap / dt;
        }
        Self::stamp_system(&self.conductance, &self.capacity_over_dt, &mut self.stamps)?;
        self.epoch += 1;
        self.session
            .refresh_values(&self.stamps, self.epoch)
            .map_err(ThermalError::from)
    }

    /// Swaps the power map driving the simulation (the next trace
    /// segment). Only the steady forcing changes; the operator is
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`ThermalError::PowerMapMismatch`] if the map is not on the model
    /// grid.
    pub fn set_power(&mut self, power: &Field2d) -> Result<(), ThermalError> {
        self.model.transient_rhs(power, &mut self.rhs_steady)?;
        self.power = power.clone();
        Ok(())
    }

    /// Re-stamps the operator and forcing for a new coolant flow rate
    /// and inlet temperature mid-trace — the coefficient-transient hot
    /// path. Rides [`ThermalModel::refresh_coefficients`] (value
    /// refresh through the cached pattern), syncs the conductance copy,
    /// re-stamps `G + C/Δt`, refreshes the session and rebuilds the
    /// steady forcing: all O(nnz), never a re-assembly. A no-op when
    /// the operating point is unchanged.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] on a conduction-only stack
    ///   (no microchannel layer to ramp),
    /// * as [`ThermalModel::refresh_coefficients`] otherwise.
    pub fn set_coefficients(
        &mut self,
        flow: CubicMetersPerSecond,
        inlet: Kelvin,
    ) -> Result<(), ThermalError> {
        let Some(current) = self.current else {
            return Err(ThermalError::InvalidConfig(
                "coefficient ramp on a stack without microchannel layers".into(),
            ));
        };
        if flow == current.0 && inlet == current.1 {
            return Ok(());
        }
        self.model.refresh_coefficients(flow, inlet)?;
        self.model.copy_operator_values_into(&mut self.conductance)?;
        Self::stamp_system(&self.conductance, &self.capacity_over_dt, &mut self.stamps)?;
        self.epoch += 1;
        self.session
            .refresh_values(&self.stamps, self.epoch)
            .map_err(ThermalError::from)?;
        self.model.transient_rhs(&self.power, &mut self.rhs_steady)?;
        self.current = Some((flow, inlet));
        self.coefficient_refreshes += 1;
        Ok(())
    }

    /// Moves the operating point to where `ramp` sits at `frac` ∈
    /// [0, 1] of its segment, or back to the construction baseline for
    /// segments without a ramp. No-op when already there.
    fn sync_segment_coefficients(
        &mut self,
        ramp: Option<&CoefficientRamp>,
        frac: f64,
    ) -> Result<(), ThermalError> {
        match ramp {
            Some(r) => {
                let (flow, inlet) = r.at(frac);
                self.set_coefficients(flow, inlet)
            }
            None => match (self.baseline, self.current) {
                (Some(b), Some(c)) if b != c => self.set_coefficients(b.0, b.1),
                _ => Ok(()),
            },
        }
    }

    /// Mid-trace coefficient re-stamps performed so far (each an
    /// O(nnz) value refresh; the model's
    /// [`ThermalModel::assembly_count`] staying at 1 alongside a
    /// positive count here is the zero-re-assembly evidence for ramp
    /// traces).
    #[inline]
    pub fn coefficient_refreshes(&self) -> u64 {
        self.coefficient_refreshes
    }

    /// Advances one step and returns the new peak temperature (K).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Numerical`] if the solve fails.
    pub fn step(&mut self) -> Result<f64, ThermalError> {
        {
            let rhs = self.session.rhs_mut();
            rhs.extend_from_slice(&self.rhs_steady);
            for ((r, c), t) in rhs
                .iter_mut()
                .zip(&self.capacity_over_dt)
                .zip(&self.temperatures)
            {
                *r += c * t;
            }
        }
        // Warm-start from the current field; the session iterates in its
        // own buffer, so a failed solve leaves `temperatures` untouched.
        self.session.set_warm_start(&self.temperatures);
        self.session
            .solve_general_in_place()
            .map_err(ThermalError::from)?;
        self.temperatures.copy_from_slice(self.session.solution());
        self.time += self.dt;
        self.steps += 1;
        Ok(self.peak())
    }

    /// Advances `n` steps.
    ///
    /// # Errors
    ///
    /// As [`TransientSimulation::step`].
    pub fn run(&mut self, n: usize) -> Result<f64, ThermalError> {
        let mut peak = f64::NEG_INFINITY;
        for _ in 0..n {
            peak = self.step()?;
        }
        Ok(peak)
    }

    /// Integrates a whole power trace at the fixed Δt, switching the
    /// forcing at each segment boundary (with one shortened remainder
    /// step per segment when the duration is not a Δt multiple). On
    /// segments carrying a [`CoefficientRamp`], every backward-Euler
    /// step re-stamps the coefficients at its *end* time (the implicit
    /// evaluation point); segments without a ramp restore the
    /// construction operating point. Returns the peak temperature
    /// observed *anywhere along the trace*.
    ///
    /// # Errors
    ///
    /// As [`TransientSimulation::step`] /
    /// [`TransientSimulation::set_power`] /
    /// [`TransientSimulation::set_coefficients`].
    pub fn run_trace(&mut self, trace: &PowerTrace) -> Result<f64, ThermalError> {
        let dt = self.dt;
        let mut peak = self.peak();
        for seg in trace.segments() {
            self.sync_segment_coefficients(seg.ramp.as_ref(), 0.0)?;
            self.set_power(&seg.power)?;
            // Integer step count (not repeated subtraction, whose
            // floating-point residue could produce a spurious
            // near-zero-length extra step on long segments).
            let full_steps = (seg.duration / dt).floor() as usize;
            self.set_dt(dt)?;
            for k in 0..full_steps {
                if seg.ramp.is_some() {
                    let frac = (k + 1) as f64 * dt / seg.duration;
                    self.sync_segment_coefficients(seg.ramp.as_ref(), frac)?;
                }
                peak = peak.max(self.step()?);
            }
            let remainder = seg.duration - full_steps as f64 * dt;
            if remainder > seg.duration * 1e-9 {
                if seg.ramp.is_some() {
                    self.sync_segment_coefficients(seg.ramp.as_ref(), 1.0)?;
                }
                self.set_dt(remainder)?;
                peak = peak.max(self.step()?);
                self.set_dt(dt)?;
            }
        }
        Ok(peak)
    }

    /// A snapshot of the current temperature field.
    ///
    /// # Errors
    ///
    /// Propagates field-construction errors (cannot happen for a
    /// well-formed simulation).
    pub fn snapshot(&self) -> Result<ThermalSolution, ThermalError> {
        self.model.wrap_solution(self.temperatures.clone())
    }

    /// Captures the integration state: temperature field (solid + fluid
    /// cells), session warm-start vector, step size and elapsed time.
    /// Restoring into a simulation of the same model and continuing is
    /// bitwise-identical to never having stopped.
    #[must_use]
    pub fn save_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            time: self.time,
            dt: self.dt,
            segment: 0,
            time_in_segment: 0.0,
            temperatures: self.temperatures.clone(),
            warm_start: self.session.solution().to_vec(),
            stats: AdaptiveStats::default(),
        }
    }

    /// Restores a [`Checkpoint`] saved from a simulation of the same
    /// model (same grid and layer stack). The trace-cursor fields are
    /// ignored — the plain stepper has no trace.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] on a field-size mismatch or a
    /// non-positive checkpointed Δt.
    pub fn restore_checkpoint(&mut self, cp: &Checkpoint) -> Result<(), ThermalError> {
        if cp.temperatures.len() != self.temperatures.len() {
            return Err(ThermalError::InvalidConfig(format!(
                "checkpoint field has {} cells but the model has {}",
                cp.temperatures.len(),
                self.temperatures.len()
            )));
        }
        self.set_dt(cp.dt)?;
        self.temperatures.copy_from_slice(&cp.temperatures);
        self.session.set_warm_start(&cp.warm_start);
        self.time = cp.time;
        Ok(())
    }
}

/// A linear coolant-coefficient sweep across one [`TraceSegment`]:
/// total flow rate and inlet temperature move from their `*_start`
/// values at the segment's start to `*_end` at its end. The steppers
/// re-stamp the operator at each stage's evaluation time via
/// [`TransientSimulation::set_coefficients`] — an O(nnz) value
/// refresh, never a re-assembly. Hold a coefficient *offset* constant
/// over a segment by setting start = end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoefficientRamp {
    /// Total flow rate at the segment start.
    pub flow_start: CubicMetersPerSecond,
    /// Total flow rate at the segment end.
    pub flow_end: CubicMetersPerSecond,
    /// Coolant inlet temperature at the segment start.
    pub inlet_start: Kelvin,
    /// Coolant inlet temperature at the segment end.
    pub inlet_end: Kelvin,
}

impl CoefficientRamp {
    /// The operating point at `frac` ∈ [0, 1] of the segment (clamped).
    #[must_use]
    pub fn at(&self, frac: f64) -> (CubicMetersPerSecond, Kelvin) {
        let w = frac.clamp(0.0, 1.0);
        (
            CubicMetersPerSecond::new(
                self.flow_start.value() + (self.flow_end.value() - self.flow_start.value()) * w,
            ),
            Kelvin::new(
                self.inlet_start.value() + (self.inlet_end.value() - self.inlet_start.value()) * w,
            ),
        )
    }

    /// Checks both endpoints: positive finite flows, physical inlet
    /// temperatures.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] naming the violated bound.
    pub fn validate(&self) -> Result<(), ThermalError> {
        for (name, flow) in [("start", self.flow_start), ("end", self.flow_end)] {
            if !(flow.value() > 0.0 && flow.value().is_finite()) {
                return Err(ThermalError::InvalidConfig(format!(
                    "ramp flow at segment {name} must be positive, got {}",
                    flow.value()
                )));
            }
        }
        for (name, inlet) in [("start", self.inlet_start), ("end", self.inlet_end)] {
            if !inlet.is_physical() {
                return Err(ThermalError::InvalidConfig(format!(
                    "ramp inlet temperature at segment {name} must be physical, got {}",
                    inlet.value()
                )));
            }
        }
        Ok(())
    }
}

/// One span of a [`PowerTrace`]: a power map held over a duration,
/// optionally with a [`CoefficientRamp`] sweeping the coolant
/// coefficients across it.
#[derive(Debug, Clone)]
pub struct TraceSegment {
    /// Span length (s).
    pub duration: f64,
    /// Power-density map (W/m² on the model grid) held over the span.
    pub power: Field2d,
    /// Optional flow/inlet sweep across the span; `None` holds the
    /// model's construction operating point.
    pub ramp: Option<CoefficientRamp>,
}

impl TraceSegment {
    /// A constant-coefficient segment (the pre-ramp shape: power only).
    #[must_use]
    pub fn constant(duration: f64, power: Field2d) -> Self {
        Self { duration, power, ramp: None }
    }

    /// Attaches a coefficient ramp to the segment.
    #[must_use]
    pub fn with_ramp(mut self, ramp: CoefficientRamp) -> Self {
        self.ramp = Some(ramp);
        self
    }
}

/// A power trace: the time-varying MPSoC load the transient steppers
/// integrate (throttling events, dark-silicon duty cycles), piecewise
/// constant in power with optional piecewise-linear coefficient ramps.
#[derive(Debug, Clone)]
pub struct PowerTrace {
    segments: Vec<TraceSegment>,
}

impl PowerTrace {
    fn validate_segment(i: usize, seg: &TraceSegment) -> Result<(), ThermalError> {
        if !(seg.duration > 0.0 && seg.duration.is_finite()) {
            return Err(ThermalError::InvalidConfig(format!(
                "segment {i} duration must be positive, got {}",
                seg.duration
            )));
        }
        if let Some(ramp) = &seg.ramp {
            ramp.validate().map_err(|e| {
                ThermalError::InvalidConfig(format!("segment {i}: {e}"))
            })?;
        }
        Ok(())
    }

    /// Builds a trace from its segments.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] for an empty trace, a
    /// non-positive/non-finite segment duration, or an invalid ramp.
    pub fn new(segments: Vec<TraceSegment>) -> Result<Self, ThermalError> {
        if segments.is_empty() {
            return Err(ThermalError::InvalidConfig(
                "power trace needs at least one segment".into(),
            ));
        }
        for (i, seg) in segments.iter().enumerate() {
            Self::validate_segment(i, seg)?;
        }
        Ok(Self { segments })
    }

    /// Appends a segment — the trace-extension primitive behind
    /// integrator carry-down ([`AdaptiveTransient::push_segment`]).
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] as in [`PowerTrace::new`].
    pub fn push(&mut self, segment: TraceSegment) -> Result<(), ThermalError> {
        Self::validate_segment(self.segments.len(), &segment)?;
        self.segments.push(segment);
        Ok(())
    }

    /// The segments, in order.
    #[inline]
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// Number of segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Always `false` (construction rejects empty traces); provided for
    /// clippy's `len_without_is_empty` convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total trace duration (s).
    pub fn total_duration(&self) -> f64 {
        self.segments.iter().map(|s| s.duration).sum()
    }
}

/// Bounds and tolerances of the adaptive step-size controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Absolute component tolerance (K) of the weighted-RMS error test.
    pub abs_tol: f64,
    /// Relative component tolerance of the weighted-RMS error test.
    pub rel_tol: f64,
    /// First attempted step (s).
    pub dt_init: f64,
    /// Smallest permitted step (s); a step at the floor is accepted even
    /// when the error test fails (counted in
    /// [`AdaptiveStats::forced`]).
    pub dt_min: f64,
    /// Largest permitted step (s).
    pub dt_max: f64,
    /// Safety factor applied to the optimal-step estimate (< 1).
    pub safety: f64,
    /// Largest per-step growth factor.
    pub max_growth: f64,
    /// Smallest per-step shrink factor.
    pub min_shrink: f64,
}

impl Default for AdaptiveConfig {
    /// Tolerances sized for die-temperature tracking (0.05 K absolute),
    /// steps from 0.1 ms to 1 s and the classic 0.9 safety factor.
    fn default() -> Self {
        Self {
            abs_tol: 0.05,
            rel_tol: 0.0,
            dt_init: 1e-3,
            dt_min: 1e-4,
            dt_max: 1.0,
            safety: 0.9,
            max_growth: 4.0,
            min_shrink: 0.2,
        }
    }
}

impl AdaptiveConfig {
    /// Checks the controller bounds (positive tolerances, ordered Δt
    /// window containing `dt_init`, in-range safety/growth factors).
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] naming the violated bound.
    pub fn validate(&self) -> Result<(), ThermalError> {
        let bad = |m: String| Err(ThermalError::InvalidConfig(m));
        if !(self.abs_tol > 0.0 || self.rel_tol > 0.0) {
            return bad("adaptive stepping needs a positive tolerance".into());
        }
        if !(self.dt_min > 0.0 && self.dt_min.is_finite()) {
            return bad(format!("dt_min must be positive, got {}", self.dt_min));
        }
        if !(self.dt_max >= self.dt_min && self.dt_max.is_finite()) {
            return bad(format!(
                "dt_max ({}) must be >= dt_min ({})",
                self.dt_max, self.dt_min
            ));
        }
        if !(self.dt_init >= self.dt_min && self.dt_init <= self.dt_max) {
            return bad(format!(
                "dt_init ({}) must lie in [dt_min, dt_max] = [{}, {}]",
                self.dt_init, self.dt_min, self.dt_max
            ));
        }
        if !(self.safety > 0.0 && self.safety < 1.0) {
            return bad(format!("safety must be in (0,1), got {}", self.safety));
        }
        if !(self.max_growth > 1.0 && self.min_shrink > 0.0 && self.min_shrink < 1.0) {
            return bad(format!(
                "growth/shrink bounds out of range: max_growth {}, min_shrink {}",
                self.max_growth, self.min_shrink
            ));
        }
        Ok(())
    }
}

/// Counters of an [`AdaptiveTransient`] integration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Accepted (committed) steps.
    pub accepted: u64,
    /// Rejected trial steps (error test failed, Δt shrunk and retried).
    pub rejected: u64,
    /// Steps accepted at the Δt floor despite a failed error test.
    pub forced: u64,
    /// Linear solves the underlying session performed on the
    /// controller's behalf — counted as the *session's* successful
    /// solve-count delta around each attempt, so this reconciles
    /// exactly with [`bright_num::SessionStats::solves`] (rejected
    /// attempts and the completed solves of failed attempts included;
    /// no double counting of recovery-ladder retries, which the
    /// session reports separately as `recovery_retries`).
    pub solves: u64,
    /// Trial attempts whose *solver* failed (as opposed to the error
    /// test) and were retried at half the step size.
    pub solver_retries: u64,
}

/// The outcome of one accepted adaptive step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveStep {
    /// Simulated time after the step (s).
    pub time: f64,
    /// The committed step size (s).
    pub dt: f64,
    /// Peak temperature after the step (K).
    pub peak: f64,
    /// The weighted-RMS local-error estimate (≤ 1 unless forced).
    pub error: f64,
}

/// Adaptive-Δt integration of a [`PowerTrace`] over
/// [`TransientSimulation`] with the TR-BDF2 embedded pair. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct AdaptiveTransient {
    sim: TransientSimulation,
    cfg: AdaptiveConfig,
    trace: PowerTrace,
    /// Trace cursor: current segment and the time already integrated
    /// into it.
    segment: usize,
    time_in_segment: f64,
    /// The controller's proposal for the next step.
    dt_next: f64,
    stats: AdaptiveStats,
}

impl AdaptiveTransient {
    /// Creates an adaptive integration of `trace` from a uniform initial
    /// temperature.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] for invalid controller bounds,
    /// * as [`TransientSimulation::new`] otherwise (the first segment's
    ///   power map is validated here; later maps when their segment
    ///   starts).
    pub fn new(
        model: ThermalModel,
        trace: PowerTrace,
        initial_temperature: f64,
        cfg: AdaptiveConfig,
    ) -> Result<Self, ThermalError> {
        cfg.validate()?;
        let sim = TransientSimulation::new(
            model,
            &trace.segments()[0].power,
            initial_temperature,
            cfg.dt_init,
        )?;
        Ok(Self {
            sim,
            cfg,
            trace,
            segment: 0,
            time_in_segment: 0.0,
            dt_next: cfg.dt_init,
            stats: AdaptiveStats::default(),
        })
    }

    /// Elapsed simulated time (s).
    #[inline]
    pub fn time(&self) -> f64 {
        self.sim.time()
    }

    /// The current temperature field.
    #[inline]
    pub fn temperatures(&self) -> &[f64] {
        self.sim.temperatures()
    }

    /// Peak temperature of the current field (K).
    #[inline]
    pub fn peak(&self) -> f64 {
        self.sim.peak()
    }

    /// The controller configuration.
    #[inline]
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// The trace being integrated.
    #[inline]
    pub fn trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// Integration counters.
    #[inline]
    pub fn stats(&self) -> AdaptiveStats {
        self.stats
    }

    /// Session statistics of the underlying simulation's solver (see
    /// [`TransientSimulation::session_stats`]).
    #[inline]
    pub fn session_stats(&self) -> bright_num::SessionStats {
        self.sim.session_stats()
    }

    /// The thermal model being integrated.
    #[inline]
    pub fn model(&self) -> &ThermalModel {
        self.sim.model()
    }

    /// Mid-trace coefficient re-stamps performed so far (see
    /// [`TransientSimulation::coefficient_refreshes`]).
    #[inline]
    pub fn coefficient_refreshes(&self) -> u64 {
        self.sim.coefficient_refreshes()
    }

    /// Replaces the failure-recovery policy of the underlying solver
    /// session (see [`bright_num::RecoveryPolicy`]).
    pub fn set_recovery_policy(&mut self, policy: bright_num::RecoveryPolicy) {
        self.sim.set_recovery_policy(policy);
    }

    /// The Δt the controller will attempt next.
    #[inline]
    pub fn dt_next(&self) -> f64 {
        self.dt_next
    }

    /// The trace cursor: index of the segment currently being
    /// integrated (equals [`PowerTrace::len`] once finished).
    #[inline]
    pub fn segment_index(&self) -> usize {
        self.segment
    }

    /// True when the whole trace has been integrated.
    pub fn finished(&self) -> bool {
        self.segment >= self.trace.len()
    }

    /// A snapshot of the current temperature field.
    ///
    /// # Errors
    ///
    /// As [`TransientSimulation::snapshot`].
    pub fn snapshot(&self) -> Result<ThermalSolution, ThermalError> {
        self.sim.snapshot()
    }

    /// Takes one accepted adaptive step (retrying internally on error-
    /// test failures) and returns its outcome. Steps are clamped to the
    /// current segment's remaining span, so the power map only ever
    /// changes *between* steps; crossing a boundary loads the next
    /// segment's map and coefficient target.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] when the trace is exhausted
    ///   ([`AdaptiveTransient::finished`]),
    /// * solve errors as in [`TransientSimulation::step`].
    pub fn step(&mut self) -> Result<AdaptiveStep, ThermalError> {
        if self.finished() {
            return Err(ThermalError::InvalidConfig(
                "adaptive step past the end of the power trace".into(),
            ));
        }
        self.step_trbdf2()
    }

    /// Accept bookkeeping: commits `y_new`, updates the cursor and the
    /// next-step proposal, and crosses segment boundaries. The estimate
    /// is third order, so the optimal step scales as `err^(-1/3)`.
    fn commit_step(
        &mut self,
        h: f64,
        err: f64,
        y_new: &[f64],
        seg_duration: f64,
    ) -> Result<AdaptiveStep, ThermalError> {
        if err > 1.0 {
            self.stats.forced += 1;
        }
        self.sim.temperatures.copy_from_slice(y_new);
        self.sim.time += h;
        self.sim.steps += 1;
        self.time_in_segment += h;
        self.stats.accepted += 1;
        let factor = if err > 1e-12 {
            (self.cfg.safety / err.powf(1.0 / 3.0)).clamp(self.cfg.min_shrink, self.cfg.max_growth)
        } else {
            self.cfg.max_growth
        };
        self.dt_next = (h * factor).clamp(self.cfg.dt_min, self.cfg.dt_max);
        if self.time_in_segment >= seg_duration * (1.0 - 1e-12) {
            self.advance_segment()?;
        }
        Ok(AdaptiveStep {
            time: self.sim.time(),
            dt: h,
            peak: self.sim.peak(),
            error: err,
        })
    }

    /// One TR-BDF2 step: trapezoidal stage to `t + γh`, BDF2 stage to
    /// `t + h`, both on the shared operator `G + C/((1−1/√2)h)`, plus
    /// the embedded error estimate from stage-node divided differences.
    /// 2 solves and (at a new `h`) one O(nnz) re-stamp per attempt; on
    /// ramped segments each stage re-stamps the coefficients at its own
    /// evaluation time.
    fn step_trbdf2(&mut self) -> Result<AdaptiveStep, ThermalError> {
        let seg = &self.trace.segments()[self.segment];
        let seg_duration = seg.duration;
        let ramp = seg.ramp;
        let remaining = seg_duration - self.time_in_segment;
        // Coefficients must sit at tⁿ for the explicit residual below
        // (they are left at the previous step's end time, which *is*
        // tⁿ except after a restore or segment entry mid-ramp).
        if ramp.is_some() {
            let frac = self.time_in_segment / seg_duration;
            self.sim.sync_segment_coefficients(ramp.as_ref(), frac)?;
        }
        // rⁿ = b(tⁿ) − G(tⁿ)·Tⁿ and fⁿ = rⁿ/C: one matvec, recomputed
        // from committed state each step so checkpoint restores are
        // bitwise transparent.
        let n = self.sim.temperatures.len();
        let mut r_n = vec![0.0; n];
        self.sim
            .conductance
            .matvec_into(&self.sim.temperatures, &mut r_n)
            .map_err(ThermalError::from)?;
        for (r, b) in r_n.iter_mut().zip(&self.sim.rhs_steady) {
            *r = b - *r;
        }
        let f_n: Vec<f64> = r_n
            .iter()
            .zip(&self.sim.capacity)
            .map(|(r, c)| r / c)
            .collect();

        let mut h = self
            .dt_next
            .clamp(self.cfg.dt_min, self.cfg.dt_max)
            .min(remaining);
        let mut est = vec![0.0; n];
        loop {
            let solves_before = self.sim.session_stats().solves;
            let attempt = self.trbdf2_stages(h, &r_n, ramp.as_ref(), seg_duration);
            self.stats.solves += self.sim.session_stats().solves - solves_before;
            let (y_plus, f_gamma, f_plus) = match attempt {
                Ok(t) => t,
                Err(e) => {
                    // A solver failure the session's own recovery
                    // ladder could not absorb: halve Δt and retry
                    // before aborting. Terminal at the Δt floor.
                    if h <= self.cfg.dt_min * (1.0 + 1e-9) {
                        return Err(e);
                    }
                    self.stats.solver_retries += 1;
                    h = (h / 2.0).max(self.cfg.dt_min).min(remaining);
                    continue;
                }
            };
            // Embedded estimate: LTE ≈ C·h³·y''' with y''' from the
            // second divided difference of f = C⁻¹(b − G·T) over the
            // stage nodes {tⁿ, tⁿ+γh, tⁿ+h}:
            //   est = 2·C·h·[ (f⁺−fγ)/(1−γ) − (fγ−fⁿ)/γ ].
            let c_hi = 2.0 * TRBDF2_C_LTE * h / (1.0 - TRBDF2_GAMMA);
            let c_lo = 2.0 * TRBDF2_C_LTE * h / TRBDF2_GAMMA;
            for i in 0..n {
                est[i] = c_hi * (f_plus[i] - f_gamma[i]) - c_lo * (f_gamma[i] - f_n[i]);
            }
            let err = vec_ops::wrms(&est, &y_plus, self.cfg.abs_tol, self.cfg.rel_tol);
            let at_floor = h <= self.cfg.dt_min * (1.0 + 1e-9);
            // The remainder of a segment may legitimately be shorter
            // than dt_min; accept it unconditionally too.
            let is_remainder = h >= remaining * (1.0 - 1e-12);
            if err <= 1.0 || at_floor || (is_remainder && remaining < self.cfg.dt_min) {
                return self.commit_step(h, err, &y_plus, seg_duration);
            }
            self.stats.rejected += 1;
            let factor = (self.cfg.safety / err.cbrt()).clamp(self.cfg.min_shrink, 1.0);
            h = (h * factor).max(self.cfg.dt_min).min(remaining);
        }
    }

    /// The two TR-BDF2 stage solves for one attempted step of size `h`,
    /// from the committed field. Returns `(T⁺, fγ, f⁺)` where
    /// `f = C⁻¹(b − G·T)` at the respective stage times; a failure
    /// leaves the committed field untouched.
    fn trbdf2_stages(
        &mut self,
        h: f64,
        r_n: &[f64],
        ramp: Option<&CoefficientRamp>,
        seg_duration: f64,
    ) -> Result<TrBdf2Stages, ThermalError> {
        let n = self.sim.temperatures.len();
        let d = h * TRBDF2_STAGE_SCALE;
        // Trapezoidal stage to tγ = tⁿ + γh:
        //   (G(tγ) + C/d)·Tγ = b(tγ) + rⁿ + (C/d)·Tⁿ.
        if let Some(r) = ramp {
            let frac = (self.time_in_segment + TRBDF2_GAMMA * h) / seg_duration;
            self.sim.sync_segment_coefficients(Some(r), frac)?;
        }
        self.sim.set_dt(d)?;
        {
            let rhs = self.sim.session.rhs_mut();
            rhs.extend_from_slice(&self.sim.rhs_steady);
            for (((q, r), c), t) in rhs
                .iter_mut()
                .zip(r_n)
                .zip(&self.sim.capacity_over_dt)
                .zip(&self.sim.temperatures)
            {
                *q += r + c * t;
            }
        }
        self.sim.session.set_warm_start(&self.sim.temperatures);
        self.sim
            .session
            .solve_general_in_place()
            .map_err(ThermalError::from)?;
        let y_gamma = self.sim.session.solution().to_vec();
        // fγ = (b(tγ) − G(tγ)·Tγ)/C — before the coefficients move on.
        let mut f_gamma = vec![0.0; n];
        self.sim
            .conductance
            .matvec_into(&y_gamma, &mut f_gamma)
            .map_err(ThermalError::from)?;
        for ((f, b), c) in f_gamma
            .iter_mut()
            .zip(&self.sim.rhs_steady)
            .zip(&self.sim.capacity)
        {
            *f = (b - *f) / c;
        }
        // BDF2 stage to t⁺ = tⁿ + h, same shift d:
        //   (G(t⁺) + C/d)·T⁺ = b(t⁺) + (C/h)(c_γ·Tγ − c_n·Tⁿ).
        if let Some(r) = ramp {
            let frac = (self.time_in_segment + h) / seg_duration;
            self.sim.sync_segment_coefficients(Some(r), frac)?;
        }
        {
            let rhs = self.sim.session.rhs_mut();
            rhs.extend_from_slice(&self.sim.rhs_steady);
            for (((q, c), yg), t) in rhs
                .iter_mut()
                .zip(&self.sim.capacity)
                .zip(&y_gamma)
                .zip(&self.sim.temperatures)
            {
                *q += c / h * (TRBDF2_C_GAMMA * yg - TRBDF2_C_N * t);
            }
        }
        self.sim.session.set_warm_start(&y_gamma);
        self.sim
            .session
            .solve_general_in_place()
            .map_err(ThermalError::from)?;
        let y_plus = self.sim.session.solution().to_vec();
        // f⁺ = (b(t⁺) − G(t⁺)·T⁺)/C.
        let mut f_plus = vec![0.0; n];
        self.sim
            .conductance
            .matvec_into(&y_plus, &mut f_plus)
            .map_err(ThermalError::from)?;
        for ((f, b), c) in f_plus
            .iter_mut()
            .zip(&self.sim.rhs_steady)
            .zip(&self.sim.capacity)
        {
            *f = (b - *f) / c;
        }
        Ok((y_plus, f_gamma, f_plus))
    }

    fn advance_segment(&mut self) -> Result<(), ThermalError> {
        self.segment += 1;
        self.time_in_segment = 0.0;
        if let Some(seg) = self.trace.segments().get(self.segment) {
            self.sim.sync_segment_coefficients(seg.ramp.as_ref(), 0.0)?;
            self.sim.set_power(&seg.power)?;
        }
        Ok(())
    }

    /// Appends a segment to the trace, re-arming a finished integrator
    /// to continue into it — the carry-down primitive: the engine's
    /// prefix tree extends a *live* integrator along single-child
    /// chains instead of rebuilding one from a checkpoint. Continuing
    /// this way is bitwise-identical to a checkpoint round-trip (both
    /// paths re-stamp coefficients and re-seed warm starts from
    /// committed state).
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] as in [`PowerTrace::push`].
    pub fn push_segment(&mut self, segment: TraceSegment) -> Result<(), ThermalError> {
        let was_finished = self.finished();
        self.trace.push(segment)?;
        if was_finished {
            // The cursor already points at the new segment (the last
            // accepted step advanced it past the old end); load its
            // power map and coefficient target exactly as
            // advance_segment would have.
            let seg = &self.trace.segments()[self.segment];
            self.sim.sync_segment_coefficients(seg.ramp.as_ref(), 0.0)?;
            self.sim.set_power(&seg.power)?;
        }
        Ok(())
    }

    /// Integrates the remaining trace to its end; returns the peak
    /// temperature observed anywhere along the way.
    ///
    /// # Errors
    ///
    /// As [`AdaptiveTransient::step`].
    pub fn run_to_end(&mut self) -> Result<f64, ThermalError> {
        let mut peak = self.sim.peak();
        while !self.finished() {
            peak = peak.max(self.step()?.peak);
        }
        Ok(peak)
    }

    /// Captures the integration state, including the trace cursor and
    /// the controller's next-step proposal. Restoring (into this
    /// integration, or any integration whose trace shares the segments
    /// up to the cursor) and continuing is bitwise-identical to never
    /// having stopped.
    #[must_use]
    pub fn save_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            time: self.sim.time(),
            dt: self.dt_next,
            segment: self.segment,
            time_in_segment: self.time_in_segment,
            temperatures: self.sim.temperatures().to_vec(),
            warm_start: self.sim.session.solution().to_vec(),
            stats: self.stats,
        }
    }

    /// Restores a [`Checkpoint`] saved from an integration of the same
    /// model whose trace agrees with this one up to the checkpoint's
    /// cursor — the branch operation of segment-prefix sharing.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] on a field-size mismatch, a
    /// cursor outside this trace, or an invalid checkpointed Δt.
    pub fn restore_checkpoint(&mut self, cp: &Checkpoint) -> Result<(), ThermalError> {
        if cp.temperatures.len() != self.sim.temperatures.len() {
            return Err(ThermalError::InvalidConfig(format!(
                "checkpoint field has {} cells but the model has {}",
                cp.temperatures.len(),
                self.sim.temperatures.len()
            )));
        }
        if cp.segment > self.trace.len() {
            return Err(ThermalError::InvalidConfig(format!(
                "checkpoint cursor at segment {} but the trace has {}",
                cp.segment,
                self.trace.len()
            )));
        }
        validate_dt(cp.dt)?;
        self.sim.temperatures.copy_from_slice(&cp.temperatures);
        self.sim.session.set_warm_start(&cp.warm_start);
        self.sim.time = cp.time;
        self.dt_next = cp.dt;
        self.segment = cp.segment;
        self.time_in_segment = cp.time_in_segment;
        self.stats = cp.stats;
        if let Some(seg) = self.trace.segments().get(self.segment) {
            // Leave the coefficients exactly where the captured
            // integration had them (mid-ramp fraction included) so the
            // first step after the restore is bitwise-identical to the
            // uninterrupted run.
            let frac = if seg.duration > 0.0 {
                self.time_in_segment / seg.duration
            } else {
                0.0
            };
            self.sim.sync_segment_coefficients(seg.ramp.as_ref(), frac)?;
            self.sim.set_power(&seg.power)?;
        }
        Ok(())
    }
}

/// A serializable snapshot of a transient integration: temperature
/// field (solid and fluid cells), session warm-start vector, step size,
/// trace cursor and controller counters. Produced by
/// [`TransientSimulation::save_checkpoint`] /
/// [`AdaptiveTransient::save_checkpoint`]; survives a JSON round-trip
/// bit-exactly (`bright-jsonio` writes shortest-round-trip floats).
///
/// The on-disk format is versioned: version 2 (current) adds the
/// [`Checkpoint::stats`] counters; version-1 files (and files with no
/// `version` field, from before the field existed) still load, with
/// zeroed counters. Versions above 2 are rejected rather than
/// misinterpreted.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Simulated time at the capture (s).
    pub time: f64,
    /// Fixed Δt ([`TransientSimulation`]) or the controller's next-step
    /// proposal ([`AdaptiveTransient`]).
    pub dt: f64,
    /// Trace cursor: segment index (0 for the plain stepper).
    pub segment: usize,
    /// Trace cursor: time already integrated into the segment (s).
    pub time_in_segment: f64,
    /// The committed temperature field (K), all levels.
    pub temperatures: Vec<f64>,
    /// The session's solution/warm-start vector at capture — carried
    /// for inspection and forward compatibility. Bitwise continuation
    /// does not depend on it: every solve re-seeds its warm start from
    /// the committed [`Checkpoint::temperatures`].
    pub warm_start: Vec<f64>,
    /// Adaptive counters at capture, so a restored integration
    /// reports cumulative totals as if it had never stopped. Zero for
    /// fixed-step checkpoints and legacy (version-1) files.
    pub stats: AdaptiveStats,
}

impl Checkpoint {
    /// The checkpoint as a JSON value tree.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object([
            ("version".into(), Value::Number(2.0)),
            ("time".into(), Value::Number(self.time)),
            ("dt".into(), Value::Number(self.dt)),
            ("segment".into(), Value::Number(self.segment as f64)),
            (
                "time_in_segment".into(),
                Value::Number(self.time_in_segment),
            ),
            (
                "temperatures".into(),
                Value::from_f64_slice(&self.temperatures),
            ),
            ("warm_start".into(), Value::from_f64_slice(&self.warm_start)),
            (
                "stats".into(),
                Value::object([
                    ("accepted".into(), Value::Number(self.stats.accepted as f64)),
                    ("rejected".into(), Value::Number(self.stats.rejected as f64)),
                    ("forced".into(), Value::Number(self.stats.forced as f64)),
                    ("solves".into(), Value::Number(self.stats.solves as f64)),
                    (
                        "solver_retries".into(),
                        Value::Number(self.stats.solver_retries as f64),
                    ),
                ]),
            ),
        ])
    }

    /// Compact JSON text of the checkpoint.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string()
    }

    /// Rebuilds a checkpoint from its JSON value tree.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] for missing or mistyped fields.
    pub fn from_json(v: &Value) -> Result<Self, ThermalError> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| ThermalError::InvalidConfig(format!("checkpoint field '{k}'")))
        };
        let vecf = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64_vec)
                .ok_or_else(|| ThermalError::InvalidConfig(format!("checkpoint field '{k}'")))
        };
        // Files predating the version field read as version 1.
        let version = v.get("version").and_then(Value::as_usize).unwrap_or(1);
        let stats = match version {
            1 => AdaptiveStats::default(),
            2 => {
                let s = v.get("stats").ok_or_else(|| {
                    ThermalError::InvalidConfig("checkpoint field 'stats'".into())
                })?;
                let count = |k: &str| {
                    s.get(k).and_then(Value::as_usize).map(|c| c as u64).ok_or_else(|| {
                        ThermalError::InvalidConfig(format!("checkpoint field 'stats.{k}'"))
                    })
                };
                AdaptiveStats {
                    accepted: count("accepted")?,
                    rejected: count("rejected")?,
                    forced: count("forced")?,
                    solves: count("solves")?,
                    solver_retries: count("solver_retries")?,
                }
            }
            newer => {
                return Err(ThermalError::InvalidConfig(format!(
                    "checkpoint version {newer} is newer than this build understands (max 2)"
                )))
            }
        };
        Ok(Self {
            time: num("time")?,
            dt: num("dt")?,
            segment: v
                .get("segment")
                .and_then(Value::as_usize)
                .ok_or_else(|| ThermalError::InvalidConfig("checkpoint field 'segment'".into()))?,
            time_in_segment: num("time_in_segment")?,
            temperatures: vecf("temperatures")?,
            warm_start: vecf("warm_start")?,
            stats,
        })
    }

    /// Parses a checkpoint from JSON text.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::from_json`], plus parse errors.
    pub fn from_json_str(text: &str) -> Result<Self, ThermalError> {
        let v = Value::parse(text)
            .map_err(|e| ThermalError::InvalidConfig(format!("checkpoint JSON: {e}")))?;
        Self::from_json(&v)
    }

    /// Persists the checkpoint to `path` as a checksummed JSON envelope
    /// written with atomic temp-file + rename, so a kill at any instant
    /// leaves either the previous checkpoint or this one — never a
    /// prefix. Honours the [`bright_num::faults`] torn-write site: when
    /// it fires, a truncated record is persisted and the process "dies"
    /// (panics with [`bright_num::faults::TORN_PANIC_PAYLOAD`]), which
    /// is exactly the disk state [`Checkpoint::load_from_file`] must
    /// detect afterwards.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] wrapping the underlying I/O
    /// error.
    pub fn save_to_file(&self, path: &std::path::Path) -> Result<(), ThermalError> {
        let text = bright_jsonio::checksummed::to_string(&self.to_json());
        if let Some(prefix) = bright_num::faults::torn_write(text.len()) {
            let _ = bright_jsonio::checksummed::write_atomic(path, &text[..prefix]);
            bright_num::faults::torn_write_panic();
        }
        bright_jsonio::checksummed::write_atomic(path, &text).map_err(|e| {
            ThermalError::InvalidConfig(format!("checkpoint write {}: {e}", path.display()))
        })
    }

    /// Loads a checkpoint persisted by [`Checkpoint::save_to_file`],
    /// verifying the record checksum.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] when the file is missing,
    /// truncated, corrupted (checksum mismatch) or structurally
    /// invalid. Callers use the error as a fall-back-to-cold-re-run
    /// signal, never as a reason to fail the job.
    pub fn load_from_file(path: &std::path::Path) -> Result<Self, ThermalError> {
        let payload = bright_jsonio::checksummed::read_verified(path).map_err(|e| {
            ThermalError::InvalidConfig(format!("checkpoint {}: {e}", path.display()))
        })?;
        Self::from_json(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use bright_floorplan::{power7, PowerScenario};
    use bright_num::vec_ops::wrms_diff;

    fn setup() -> (ThermalModel, Field2d) {
        let model = presets::power7_stack().unwrap();
        let power = PowerScenario::full_load()
            .rasterize(&power7::floorplan(), model.grid())
            .unwrap();
        (model, power)
    }

    #[test]
    fn transient_approaches_steady_state() {
        let (model, power) = setup();
        let steady = model.solve_steady(&power).unwrap().max_temperature().value();
        let mut sim = TransientSimulation::new(model, &power, 300.0, 5e-3).unwrap();
        // Thermal time constants here are ~ms (thin layers, strong
        // convection): 400 x 5 ms = 2 s is deep in steady state.
        let peak = sim.run(400).unwrap();
        assert!(
            (peak - steady).abs() < 0.05,
            "transient {peak} vs steady {steady}"
        );
        assert!((sim.time() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn temperature_rises_monotonically_from_cold_start() {
        let (model, power) = setup();
        let mut sim = TransientSimulation::new(model, &power, 300.0, 1e-3).unwrap();
        let mut last = 300.0;
        for _ in 0..5 {
            let peak = sim.step().unwrap();
            assert!(peak >= last - 1e-9, "peak fell: {peak} < {last}");
            last = peak;
        }
        assert!(last > 300.5, "should have warmed: {last}");
    }

    #[test]
    fn snapshot_matches_internal_state() {
        let (model, power) = setup();
        let mut sim = TransientSimulation::new(model, &power, 300.0, 1e-3).unwrap();
        let p = sim.step().unwrap();
        let snap = sim.snapshot().unwrap();
        assert!((snap.max_temperature().value() - p).abs() < 1e-12);
    }

    #[test]
    fn validates_inputs() {
        let (model, power) = setup();
        assert!(TransientSimulation::new(model.clone(), &power, 300.0, 0.0).is_err());
        assert!(TransientSimulation::new(model, &power, -3.0, 1e-3).is_err());
    }

    #[test]
    fn set_dt_restamp_matches_fresh_construction() {
        // Deterministic bitwise reference: force injection off so an
        // env-steered BRIGHT_FAULTS sweep cannot desync the two
        // sessions' scripted fault schedules.
        bright_num::faults::with_scope(None, || {
            // A simulation re-stamped from 1 ms to 4 ms must take *bitwise*
            // the same step as one constructed at 4 ms: same operator values
            // through the same pattern, same warm start, same iteration.
            let (model, power) = setup();
            let mut restamped =
                TransientSimulation::new(model.clone(), &power, 300.0, 1e-3).unwrap();
            restamped.set_dt(4e-3).unwrap();
            let mut fresh = TransientSimulation::new(model, &power, 300.0, 4e-3).unwrap();
            let a = restamped.step().unwrap();
            let b = fresh.step().unwrap();
            assert_eq!(a, b, "restamped vs fresh peak");
            assert_eq!(restamped.temperatures(), fresh.temperatures());
            // And the restamp was a value refresh, not a rebind.
            assert_eq!(restamped.session.stats().binds, 1);
            assert_eq!(restamped.session.stats().refreshes, 1);
        });
    }

    #[test]
    fn set_dt_is_noop_for_equal_step_and_rejects_invalid() {
        let (model, power) = setup();
        let mut sim = TransientSimulation::new(model, &power, 300.0, 1e-3).unwrap();
        sim.set_dt(1e-3).unwrap();
        assert_eq!(sim.session.stats().refreshes, 0, "equal dt must be free");
        assert!(sim.set_dt(0.0).is_err());
        assert!(sim.set_dt(f64::NAN).is_err());
    }

    #[test]
    fn set_power_redirects_the_forcing() {
        let (model, power) = setup();
        let zero = Field2d::zeros(model.grid().clone());
        let mut sim = TransientSimulation::new(model, &power, 300.0, 5e-3).unwrap();
        sim.run(40).unwrap();
        let hot = sim.peak();
        assert!(hot > 301.0);
        // Cut the power: the die must cool back toward the inlet.
        sim.set_power(&zero).unwrap();
        sim.run(200).unwrap();
        assert!(sim.peak() < hot - 1.0, "did not cool: {} vs {hot}", sim.peak());
    }

    #[test]
    fn adaptive_tracks_step_trace_within_tolerance() {
        // Step trace: full load for 50 ms, then power off for 150 ms.
        // The adaptive run must match a fine fixed-dt reference at the
        // trace end within (a small multiple of) its tolerance, using
        // far fewer solves than the reference.
        let (model, power) = setup();
        let zero = Field2d::zeros(model.grid().clone());
        let trace = PowerTrace::new(vec![
            TraceSegment::constant(0.05, power.clone()),
            TraceSegment::constant(0.15, zero),
        ])
        .unwrap();

        let cfg = AdaptiveConfig {
            abs_tol: 0.02,
            dt_init: 5e-4,
            dt_min: 1e-4,
            dt_max: 0.05,
            ..AdaptiveConfig::default()
        };
        let mut adaptive =
            AdaptiveTransient::new(model.clone(), trace.clone(), 300.0, cfg).unwrap();
        adaptive.run_to_end().unwrap();
        assert!((adaptive.time() - 0.2).abs() < 1e-9, "t = {}", adaptive.time());
        assert!(adaptive.finished());

        // Fine fixed-dt reference (dt = 0.25 ms -> 800 steps).
        let mut reference =
            TransientSimulation::new(model, &trace.segments()[0].power, 300.0, 2.5e-4).unwrap();
        reference.run_trace(&trace).unwrap();
        let err = wrms_diff(
            adaptive.temperatures(),
            reference.temperatures(),
            cfg.abs_tol,
            cfg.rel_tol,
        );
        // Global error accumulates over ~O(100) steps of local-error-
        // controlled stepping; a 5x envelope on the per-step tolerance
        // is a meaningful bound (failing controllers are off by 100x).
        assert!(err < 5.0, "adaptive drifted {err} tolerance units from reference");
        let stats = adaptive.stats();
        assert!(stats.accepted > 0);
        assert!(
            stats.solves < 800 / 2,
            "adaptive used {} solves vs 800 reference steps",
            stats.solves
        );
    }

    #[test]
    fn trbdf2_tracks_reference_with_fewer_solves_than_doubling() {
        // TR-BDF2 must land near the fine backward-Euler reference and
        // spend meaningfully fewer linear solves than the removed
        // step-doubling controller (2 solves per attempt vs 3, plus a
        // higher-order estimate allowing larger steps), which needed
        // 93 on this trace at this tolerance.
        const STEP_DOUBLING_SOLVES: u64 = 93;
        let (model, power) = setup();
        let zero = Field2d::zeros(model.grid().clone());
        let trace = PowerTrace::new(vec![
            TraceSegment::constant(0.05, power.clone()),
            TraceSegment::constant(0.15, zero),
        ])
        .unwrap();
        let cfg = AdaptiveConfig {
            abs_tol: 0.02,
            dt_init: 5e-4,
            dt_min: 1e-4,
            dt_max: 0.05,
            ..AdaptiveConfig::default()
        };
        let mut reference =
            TransientSimulation::new(model.clone(), &trace.segments()[0].power, 300.0, 2.5e-4)
                .unwrap();
        reference.run_trace(&trace).unwrap();

        let mut a = AdaptiveTransient::new(model, trace, 300.0, cfg).unwrap();
        a.run_to_end().unwrap();
        let err = wrms_diff(a.temperatures(), reference.temperatures(), cfg.abs_tol, cfg.rel_tol);
        assert!(err < 5.0, "TR-BDF2 drifted {err} tolerance units from reference");
        let solves = a.stats().solves;
        assert!(
            STEP_DOUBLING_SOLVES as f64 >= 1.5 * solves as f64,
            "TR-BDF2 used {solves} solves vs step-doubling's {STEP_DOUBLING_SOLVES}"
        );
    }

    #[test]
    fn adaptive_grows_dt_toward_steady_state() {
        let (model, power) = setup();
        let trace = PowerTrace::new(vec![TraceSegment::constant(1.0, power)]).unwrap();
        let cfg = AdaptiveConfig {
            dt_init: 1e-3,
            dt_min: 1e-3,
            dt_max: 0.5,
            ..AdaptiveConfig::default()
        };
        let mut adaptive = AdaptiveTransient::new(model, trace, 300.0, cfg).unwrap();
        let first = adaptive.step().unwrap();
        adaptive.run_to_end().unwrap();
        // The controller must have stretched the step well beyond the
        // initial one as the field settles.
        let stats = adaptive.stats();
        assert!(
            stats.accepted < 200,
            "took {} steps for 1 s (fixed 1 ms would take 1000)",
            stats.accepted
        );
        assert!(first.dt <= 1e-3 * (1.0 + 1e-12));
    }

    #[test]
    fn adaptive_rejects_trace_overrun_and_validates_config() {
        let (model, power) = setup();
        let trace = PowerTrace::new(vec![TraceSegment::constant(0.01, power.clone())])
            .unwrap();
        let mut a =
            AdaptiveTransient::new(model.clone(), trace, 300.0, AdaptiveConfig::default())
                .unwrap();
        a.run_to_end().unwrap();
        assert!(a.step().is_err(), "stepping past the trace must fail");

        let bad = AdaptiveConfig { dt_min: 0.0, ..AdaptiveConfig::default() };
        let trace2 = PowerTrace::new(vec![TraceSegment::constant(0.01, power)]).unwrap();
        assert!(AdaptiveTransient::new(model, trace2, 300.0, bad).is_err());
    }

    #[test]
    fn power_trace_validation() {
        let (model, power) = setup();
        assert!(PowerTrace::new(vec![]).is_err());
        assert!(PowerTrace::new(vec![TraceSegment::constant(0.0, power.clone())])
            .is_err());
        assert!(PowerTrace::new(vec![TraceSegment::constant(f64::INFINITY, power.clone())])
        .is_err());
        let trace = PowerTrace::new(vec![
            TraceSegment::constant(0.5, power.clone()),
            TraceSegment::constant(0.25, power),
        ])
        .unwrap();
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert!((trace.total_duration() - 0.75).abs() < 1e-15);
        let _ = model;
    }

    #[test]
    fn fixed_checkpoint_restore_continues_bitwise() {
        // Deterministic bitwise reference: force injection off so an
        // env-steered BRIGHT_FAULTS sweep cannot desync the two
        // sessions' scripted fault schedules.
        bright_num::faults::with_scope(None, || {
            let (model, power) = setup();
            // Uninterrupted: 12 steps.
            let mut full = TransientSimulation::new(model.clone(), &power, 300.0, 2e-3).unwrap();
            full.run(12).unwrap();
            // Interrupted: 5 steps, checkpoint through JSON, restore into a
            // *fresh* simulation, 7 more.
            let mut first = TransientSimulation::new(model.clone(), &power, 300.0, 2e-3).unwrap();
            first.run(5).unwrap();
            let cp = Checkpoint::from_json_str(&first.save_checkpoint().to_json_string()).unwrap();
            let mut resumed = TransientSimulation::new(model, &power, 300.0, 2e-3).unwrap();
            resumed.restore_checkpoint(&cp).unwrap();
            resumed.run(7).unwrap();
            assert_eq!(resumed.temperatures(), full.temperatures());
            assert_eq!(resumed.time(), full.time());
        });
    }

    #[test]
    fn adaptive_checkpoint_restore_continues_bitwise() {
        // Deterministic bitwise reference: force injection off so an
        // env-steered BRIGHT_FAULTS sweep cannot desync the two
        // sessions' scripted fault schedules.
        bright_num::faults::with_scope(None, || {
            let (model, power) = setup();
            let zero = Field2d::zeros(model.grid().clone());
            let trace = PowerTrace::new(vec![
                TraceSegment::constant(0.03, power.clone()),
                TraceSegment::constant(0.05, zero),
            ])
            .unwrap();
            let cfg = AdaptiveConfig {
                dt_init: 1e-3,
                dt_min: 2e-4,
                dt_max: 0.02,
                ..AdaptiveConfig::default()
            };
            let mut full = AdaptiveTransient::new(model.clone(), trace.clone(), 300.0, cfg).unwrap();
            // Integrate the first segment, checkpoint at its boundary, then
            // finish.
            while !full.finished() && full.time() < 0.03 - 1e-12 {
                full.step().unwrap();
            }
            let cp = full.save_checkpoint();
            assert_eq!(cp.segment, 1, "checkpoint should sit at the boundary");
            full.run_to_end().unwrap();

            let mut branch = AdaptiveTransient::new(model, trace, 300.0, cfg).unwrap();
            branch
                .restore_checkpoint(&Checkpoint::from_json_str(&cp.to_json_string()).unwrap())
                .unwrap();
            branch.run_to_end().unwrap();
            assert_eq!(branch.temperatures(), full.temperatures());
            assert_eq!(branch.time(), full.time());
        });
    }

    #[test]
    fn checkpoint_restore_validates_shape() {
        let (model, power) = setup();
        let mut sim = TransientSimulation::new(model, &power, 300.0, 1e-3).unwrap();
        let mut cp = sim.save_checkpoint();
        cp.temperatures.pop();
        assert!(sim.restore_checkpoint(&cp).is_err());
        let mut cp2 = sim.save_checkpoint();
        cp2.dt = -1.0;
        assert!(sim.restore_checkpoint(&cp2).is_err());
    }

    #[test]
    fn adaptive_halves_dt_on_solver_faults_and_finishes() {
        use bright_num::faults::{self, FaultPlan};
        use bright_num::RecoveryPolicy;
        let (model, power) = setup();
        let trace = PowerTrace::new(vec![TraceSegment::constant(0.02, power)]).unwrap();
        let cfg = AdaptiveConfig::default();
        let mut adaptive = AdaptiveTransient::new(model, trace, 300.0, cfg).unwrap();
        // Disable the session's own ladder so injected breakdowns reach
        // the adaptive controller's retry path.
        adaptive.set_recovery_policy(RecoveryPolicy::disabled());
        // Exactly one breakdown, at the 7th solve opportunity (the
        // period exceeds any realistic opportunity count): the failed
        // trial costs one halved-Δt retry, the rest of the trace runs
        // clean.
        let plan = FaultPlan { seed: 7, breakdown: 1 << 40, ..FaultPlan::default() };
        let peak = faults::with_plan(Some(plan), || {
            faults::reset_counters();
            adaptive.run_to_end().unwrap()
        });
        assert!(peak > 300.0);
        assert!(adaptive.finished());
        let stats = adaptive.stats();
        assert!(
            stats.solver_retries >= 1,
            "expected at least one solver retry, got {stats:?}"
        );
        // The session never recovered anything itself (ladder off).
        assert_eq!(adaptive.session_stats().recovered_solves, 0);
    }

    #[test]
    fn checkpoint_json_roundtrip_is_exact() {
        let cp = Checkpoint {
            time: 0.123456789012345,
            dt: 1.5e-3,
            segment: 3,
            time_in_segment: 7.25e-4,
            temperatures: vec![300.15, 314.999999999999, 2.2250738585072014e-308],
            warm_start: vec![1.0 / 3.0],
            stats: AdaptiveStats {
                accepted: 41,
                rejected: 3,
                forced: 1,
                solves: 88,
                solver_retries: 2,
            },
        };
        let back = Checkpoint::from_json_str(&cp.to_json_string()).unwrap();
        assert_eq!(back, cp);
        assert!(Checkpoint::from_json_str("{}").is_err());
        assert!(Checkpoint::from_json_str("not json").is_err());
    }

    #[test]
    fn checkpoint_file_roundtrip_detects_corruption_and_torn_writes() {
        use bright_num::faults;

        let dir = std::env::temp_dir().join(format!("bright_thermal_cp{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.checkpoint.json");
        let cp = Checkpoint {
            time: 0.02,
            dt: 2e-3,
            segment: 1,
            time_in_segment: 0.0,
            temperatures: vec![300.0, 301.5, 0.1 + 0.2],
            warm_start: vec![1.0 / 3.0],
            stats: AdaptiveStats::default(),
        };
        cp.save_to_file(&path).unwrap();
        assert_eq!(Checkpoint::load_from_file(&path).unwrap(), cp);
        assert!(!dir.join("job.checkpoint.json.tmp").exists());

        // A missing file is an error (the cold-re-run signal)...
        assert!(Checkpoint::load_from_file(&dir.join("absent.json")).is_err());
        // ...and so are truncation and byte corruption.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(Checkpoint::load_from_file(&path).is_err());
        std::fs::write(&path, text.replace("300.0", "333.0")).unwrap();
        assert!(Checkpoint::load_from_file(&path).is_err());

        // An injected torn write persists a truncated record and panics
        // like a power cut; the reload detects the damage.
        cp.save_to_file(&path).unwrap();
        let killed = std::panic::catch_unwind(|| {
            faults::with_scope(Some(faults::FaultPlan::one_shot_torn(1)), || {
                cp.save_to_file(&path)
            })
        });
        let payload = killed.expect_err("torn site must fire on the first write");
        assert!(faults::is_injected_kill(payload.as_ref()));
        assert!(Checkpoint::load_from_file(&path).is_err(), "torn record must not verify");
        // Re-saving cleanly repairs the document.
        cp.save_to_file(&path).unwrap();
        assert_eq!(Checkpoint::load_from_file(&path).unwrap(), cp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The ramp used by the coefficient-transient tests: halve the flow
    /// while the inlet warms 8 K across the segment.
    fn test_ramp(model: &ThermalModel) -> CoefficientRamp {
        let (flow, inlet) = model.operating_point().unwrap();
        CoefficientRamp {
            flow_start: flow,
            flow_end: CubicMetersPerSecond::new(flow.value() * 0.5),
            inlet_start: inlet,
            inlet_end: Kelvin::new(inlet.value() + 8.0),
        }
    }

    #[test]
    fn adaptive_solve_counters_reconcile_with_session() {
        // AdaptiveStats::solves is accounted as the session's
        // successful-solve delta around every attempt, so after a run
        // it equals SessionStats::solves exactly — with injected solver
        // faults in play.
        use bright_num::faults::{self, FaultPlan};
        let (model, power) = setup();
        let trace = PowerTrace::new(vec![TraceSegment::constant(0.02, power)]).unwrap();
        let mut a = AdaptiveTransient::new(model, trace, 300.0, AdaptiveConfig::default()).unwrap();
        a.set_recovery_policy(bright_num::RecoveryPolicy::disabled());
        let plan = FaultPlan {
            seed: 11,
            breakdown: 1 << 41,
            ..FaultPlan::default()
        };
        faults::with_plan(Some(plan), || {
            faults::reset_counters();
            a.run_to_end().unwrap()
        });
        let stats = a.stats();
        assert_eq!(
            stats.solves,
            a.session_stats().solves,
            "controller solves must reconcile with the session"
        );
        assert!(stats.accepted > 0);
    }

    #[test]
    fn legacy_v1_checkpoint_loads_with_zero_stats() {
        // A version-1 document (and one with no version field at all)
        // parses into zeroed counters; documents from the future are
        // rejected.
        let v1 = r#"{"version":1,"time":0.25,"dt":1e-3,"segment":2,
            "time_in_segment":0.125,"temperatures":[300.0,301.0],
            "warm_start":[300.5,300.5]}"#;
        let cp = Checkpoint::from_json_str(v1).unwrap();
        assert_eq!(cp.stats, AdaptiveStats::default());
        assert_eq!(cp.segment, 2);
        assert_eq!(cp.time, 0.25);

        let unversioned = r#"{"time":0.1,"dt":1e-3,"segment":0,
            "time_in_segment":0.0,"temperatures":[300.0],"warm_start":[300.0]}"#;
        assert_eq!(
            Checkpoint::from_json_str(unversioned).unwrap().stats,
            AdaptiveStats::default()
        );

        let v3 = r#"{"version":3,"time":0.1,"dt":1e-3,"segment":0,
            "time_in_segment":0.0,"temperatures":[300.0],"warm_start":[300.0]}"#;
        assert!(Checkpoint::from_json_str(v3).is_err());

        // Version 2 without the stats object is malformed.
        let v2_missing = r#"{"version":2,"time":0.1,"dt":1e-3,"segment":0,
            "time_in_segment":0.0,"temperatures":[300.0],"warm_start":[300.0]}"#;
        assert!(Checkpoint::from_json_str(v2_missing).is_err());
    }

    #[test]
    fn ramp_trace_refreshes_coefficients_without_reassembly() {
        let (model, power) = setup();
        let ramp = test_ramp(&model);
        let zero = Field2d::zeros(model.grid().clone());
        let trace = PowerTrace::new(vec![
            TraceSegment::constant(0.02, power.clone()).with_ramp(ramp),
            TraceSegment::constant(0.02, zero),
        ])
        .unwrap();
        let mut a =
            AdaptiveTransient::new(model.clone(), trace.clone(), 300.0, AdaptiveConfig::default())
                .unwrap();
        let peak = a.run_to_end().unwrap();
        assert!(a.finished());
        assert!(peak > 300.0);
        // The whole ramped run rides value refreshes on the pattern
        // assembled at construction — never a re-assembly.
        assert_eq!(a.model().assembly_count(), 1, "ramp must not re-assemble");
        assert!(
            a.coefficient_refreshes() > 0,
            "ramped segment must re-stamp coefficients"
        );
        // Halved flow + warmer inlet must run hotter than the
        // constant-coefficient trace.
        let constant = PowerTrace::new(vec![
            TraceSegment::constant(0.02, power),
            TraceSegment::constant(0.02, Field2d::zeros(model.grid().clone())),
        ])
        .unwrap();
        let mut c =
            AdaptiveTransient::new(model, constant, 300.0, AdaptiveConfig::default()).unwrap();
        let peak_constant = c.run_to_end().unwrap();
        assert!(
            peak > peak_constant,
            "degraded cooling must run hotter: {peak} vs {peak_constant}"
        );
        assert_eq!(c.coefficient_refreshes(), 0, "constant trace must not re-stamp");
    }

    #[test]
    fn conduction_only_stack_rejects_ramps_at_first_step() {
        let model = presets::conduction_stack_scaled(1).unwrap();
        let power = Field2d::constant(model.grid().clone(), 1e6);
        let ramp = CoefficientRamp {
            flow_start: CubicMetersPerSecond::from_milliliters_per_minute(100.0),
            flow_end: CubicMetersPerSecond::from_milliliters_per_minute(50.0),
            inlet_start: Kelvin::new(300.0),
            inlet_end: Kelvin::new(300.0),
        };
        let trace =
            PowerTrace::new(vec![TraceSegment::constant(0.01, power).with_ramp(ramp)]).unwrap();
        let mut a =
            AdaptiveTransient::new(model, trace, 300.0, AdaptiveConfig::default()).unwrap();
        assert!(a.step().is_err(), "no microchannel layers to ramp");
    }

    #[test]
    fn mid_ramp_checkpoint_restores_bitwise() {
        // Deterministic bitwise reference: force injection off so an
        // env-steered BRIGHT_FAULTS sweep cannot desync the two
        // sessions' scripted fault schedules.
        bright_num::faults::with_scope(None, || {
            let (model, power) = setup();
            let ramp = test_ramp(&model);
            let zero = Field2d::zeros(model.grid().clone());
            let trace = PowerTrace::new(vec![
                TraceSegment::constant(0.02, power).with_ramp(ramp),
                TraceSegment::constant(0.02, zero),
            ])
            .unwrap();
            let cfg = AdaptiveConfig {
                dt_init: 1e-3,
                dt_min: 2e-4,
                dt_max: 0.01,
                ..AdaptiveConfig::default()
            };
            let mut full = AdaptiveTransient::new(model.clone(), trace.clone(), 300.0, cfg).unwrap();
            // Stop strictly inside the ramped segment so the checkpoint
            // carries a mid-ramp operating point.
            while full.time() < 0.008 {
                full.step().unwrap();
            }
            assert_eq!(full.segment_index(), 0, "checkpoint must be mid-segment");
            let cp = full.save_checkpoint();
            full.run_to_end().unwrap();

            let mut branch = AdaptiveTransient::new(model, trace, 300.0, cfg).unwrap();
            branch
                .restore_checkpoint(&Checkpoint::from_json_str(&cp.to_json_string()).unwrap())
                .unwrap();
            branch.run_to_end().unwrap();
            assert_eq!(branch.temperatures(), full.temperatures());
            assert_eq!(branch.time(), full.time());
            assert_eq!(branch.stats(), full.stats(), "restored counters stay cumulative");
        });
    }

    #[test]
    fn push_segment_carry_matches_single_trace_run() {
        // Deterministic bitwise reference: force injection off so an
        // env-steered BRIGHT_FAULTS sweep cannot desync the two
        // sessions' scripted fault schedules.
        bright_num::faults::with_scope(None, || {
            // Extending a *finished* integrator with push_segment and
            // continuing (the engine's carry-down primitive) is bitwise
            // identical to integrating the full trace from the start.
            let (model, power) = setup();
            let ramp = test_ramp(&model);
            let zero = Field2d::zeros(model.grid().clone());
            let seg0 = TraceSegment::constant(0.02, power);
            let seg1 = TraceSegment::constant(0.02, zero).with_ramp(ramp);
            let cfg = AdaptiveConfig::default();

            let full_trace =
                PowerTrace::new(vec![seg0.clone(), seg1.clone()]).unwrap();
            let mut full = AdaptiveTransient::new(model.clone(), full_trace, 300.0, cfg).unwrap();
            full.run_to_end().unwrap();

            let mut carried = AdaptiveTransient::new(
                model,
                PowerTrace::new(vec![seg0]).unwrap(),
                300.0,
                cfg,
            )
            .unwrap();
            carried.run_to_end().unwrap();
            assert!(carried.finished());
            carried.push_segment(seg1).unwrap();
            assert!(!carried.finished(), "push must re-arm a finished integrator");
            carried.run_to_end().unwrap();
            assert_eq!(carried.temperatures(), full.temperatures());
            assert_eq!(carried.time(), full.time());
            assert_eq!(carried.stats(), full.stats());
        });
    }
}
