//! Transient thermal simulation: one integrator, [`TransientSimulation`],
//! steps a [`PowerTrace`] by fixed-Δt backward Euler or adaptive TR-BDF2
//! ([`SteppingMode`]), with optional flow/inlet coefficient ramps and
//! checkpoint/restore.
//!
//! 3D-ICE's hallmark is fast transient simulation of liquid-cooled
//! stacks. The semidiscrete system is `C·T' = b − G·T` (heat-capacity
//! diagonal `C`, conductance/advection operator `G`, forcing `b`);
//! every implicit stage here solves a shifted system `(G + C/d)·T =
//! rhs`, which is unconditionally stable — large steps simply approach
//! the steady state.
//!
//! The integrator steps the model's own operator. Its [`SolverSession`]
//! holds `G + C/d` on the [`ThermalModel`]'s cached sparsity pattern,
//! and every re-stamp — a new stage shift `d`, or a mid-trace
//! coefficient move riding [`ThermalModel::refresh_coefficients`] —
//! copies `G`'s values and adds `C/d` to the diagonal in O(nnz)
//! ([`SolverSession::load_shifted`]): no second copy of `G`, no
//! symbolic phase, never a re-assembly.
//!
//! * [`PowerTrace`] — a sequence of [`TraceSegment`]s, each a power map
//!   held over a span, optionally with a [`CoefficientRamp`] that
//!   sweeps the coolant flow rate and inlet temperature linearly across
//!   the span (the paper's throttling, dark-silicon and flow-controller
//!   experiments).
//! * [`SteppingMode::Fixed`] — backward Euler at a fixed Δt: per
//!   segment ⌊duration/Δt⌋ full steps, then one shortened remainder
//!   step when the duration is not a Δt multiple. On a ramped segment
//!   each step re-stamps the coefficients at its *end* time (the
//!   implicit evaluation point).
//! * [`SteppingMode::Adaptive`] — one composite TR-BDF2 step per
//!   attempt: a trapezoidal stage to `t + γh` (γ = 2 − √2) and a BDF2
//!   stage to `t + h`, both solving the *same* shifted operator
//!   `G + C/d` with `d = (1 − 1/√2)·h` — one O(nnz) re-stamp and two
//!   warm-started solves per attempt, with an embedded third-order
//!   error estimate that is free (divided differences of `C⁻¹(b−G·T)`
//!   at the three stage nodes — matvecs, not solves). A solver failure
//!   the session's recovery ladder could not absorb halves Δt and
//!   retries. Steps never straddle a segment boundary.
//!
//! [`save_checkpoint`](TransientSimulation::save_checkpoint) /
//! [`restore_checkpoint`](TransientSimulation::restore_checkpoint): a
//! [`Checkpoint`] captures the temperature field (solid *and* fluid
//! cells), the session warm-start vector, the step size, the trace
//! cursor and the [`TransientStats`] counters (format version 2;
//! version-1 documents from earlier releases still load), and
//! serializes to JSON via `bright-jsonio`. Restoring and continuing is
//! bitwise-identical to an uninterrupted run — every step re-seeds its
//! warm start and re-stamps its coefficients from committed state —
//! which is the one way a trace continues: the engine branches shared
//! trace segments from checkpoints, and the durable service resumes a
//! killed job from one (see `bright_core::engine`).

use crate::model::{ThermalModel, ThermalSolution};
use crate::ThermalError;
use bright_jsonio::Value;
use bright_mesh::Field2d;
use bright_num::{vec_ops, SolverSession};
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

/// How a [`TransientSimulation`] steps its trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SteppingMode {
    /// Fixed-Δt backward Euler.
    Fixed {
        /// The time step (s).
        dt: f64,
    },
    /// Adaptive Δt control with the TR-BDF2 embedded pair.
    Adaptive(AdaptiveConfig),
}

impl SteppingMode {
    /// Checks the stepping parameters: a positive finite fixed Δt, or
    /// valid controller bounds ([`AdaptiveConfig::validate`]).
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] naming the violated bound.
    pub fn validate(&self) -> Result<(), ThermalError> {
        match self {
            Self::Fixed { dt } => validate_dt(*dt),
            Self::Adaptive(cfg) => cfg.validate(),
        }
    }

    /// The step the integration starts with: the fixed Δt, or the
    /// controller's `dt_init`.
    fn first_dt(&self) -> f64 {
        match self {
            Self::Fixed { dt } => *dt,
            Self::Adaptive(cfg) => cfg.dt_init,
        }
    }
}

/// A transient integration of a [`PowerTrace`] over one thermal model.
/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct TransientSimulation {
    model: ThermalModel,
    /// Session bound to the model's pattern, holding `G + C/d`.
    session: SolverSession,
    trace: PowerTrace,
    stepping: SteppingMode,
    /// The current segment's forcing `b` (power injection plus the
    /// inlet and ambient terms).
    rhs_steady: Vec<f64>,
    /// Per-cell heat capacity `C` (J/K), Δt-independent.
    capacity: Vec<f64>,
    /// The stamped `C/d` diagonal.
    capacity_over_dt: Vec<f64>,
    temperatures: Vec<f64>,
    time: f64,
    /// The stage shift `d` stamped into the operator.
    dt: f64,
    /// Session coefficient epoch, bumped by every re-stamp.
    epoch: u64,
    /// The model's flow/inlet operating point at construction; `None`
    /// for conduction-only stacks (no rampable coefficients).
    baseline: Option<(CubicMetersPerSecond, Kelvin)>,
    /// The operating point currently stamped into the operator.
    current: Option<(CubicMetersPerSecond, Kelvin)>,
    /// Mid-trace coefficient re-stamps performed (each an O(nnz)
    /// refresh — the zero-re-assembly observable for ramp traces).
    coefficient_refreshes: u64,
    /// Trace cursor: current segment and the time already integrated
    /// into it (`k·Δt` after `k` fixed steps).
    segment: usize,
    time_in_segment: f64,
    /// The adaptive controller's proposal for the next step (the fixed
    /// Δt under fixed stepping).
    dt_next: f64,
    stats: TransientStats,
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
    /// Creates an integration of `trace` from a uniform initial
    /// temperature.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] for a non-positive fixed Δt,
    ///   invalid controller bounds or a non-positive initial
    ///   temperature,
    /// * assembly and power-map errors as in
    ///   [`ThermalModel::solve_steady`] (the first segment's map is
    ///   checked here; later maps when their segment starts).
    pub fn new(
        model: ThermalModel,
        trace: PowerTrace,
        initial_temperature: f64,
        stepping: SteppingMode,
    ) -> Result<Self, ThermalError> {
        stepping.validate()?;
        if !(initial_temperature > 0.0 && initial_temperature.is_finite()) {
            return Err(ThermalError::InvalidConfig(format!(
                "initial temperature must be positive, got {initial_temperature}"
            )));
        }
        let dt = stepping.first_dt();
        let mut rhs_steady = Vec::new();
        model.transient_rhs(&trace.segments()[0].power, &mut rhs_steady)?;
        let cells = model.grid().len();
        let capacity: Vec<f64> = model
            .levels_heat_capacity_volumes()
            .into_iter()
            .flat_map(|cap| std::iter::repeat_n(cap, cells))
            .collect();
        let capacity_over_dt: Vec<f64> = capacity.iter().map(|c| c / dt).collect();
        let mut session = SolverSession::new(model.solve_options());
        session
            .load_shifted(&model.operator()?.matrix, &capacity_over_dt, 0)
            .map_err(ThermalError::from)?;
        let baseline = model.operating_point();
        let n = capacity.len();
        Ok(Self {
            model,
            session,
            trace,
            stepping,
            rhs_steady,
            capacity,
            capacity_over_dt,
            temperatures: vec![initial_temperature; n],
            time: 0.0,
            dt,
            epoch: 0,
            baseline,
            current: baseline,
            coefficient_refreshes: 0,
            segment: 0,
            time_in_segment: 0.0,
            dt_next: dt,
            stats: TransientStats::default(),
        })
    }

    /// Elapsed simulated time (s).
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
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

    /// Integration counters.
    #[inline]
    pub fn stats(&self) -> TransientStats {
        self.stats
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

    /// Mid-trace coefficient re-stamps performed so far (each an
    /// O(nnz) value refresh; the model's
    /// [`ThermalModel::assembly_count`] staying at 1 alongside a
    /// positive count here is the zero-re-assembly evidence for ramp
    /// traces).
    #[inline]
    pub fn coefficient_refreshes(&self) -> u64 {
        self.coefficient_refreshes
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
    /// Propagates field-construction errors (cannot happen for a
    /// well-formed simulation).
    pub fn snapshot(&self) -> Result<ThermalSolution, ThermalError> {
        self.model.wrap_solution(self.temperatures.clone())
    }

    /// Takes one accepted step (the adaptive controller retries
    /// internally on error-test failures) and returns its outcome.
    /// Steps end on segment boundaries, so the power map only ever
    /// changes *between* steps; crossing a boundary loads the next
    /// segment's map and coefficient target.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] when the trace is exhausted
    ///   ([`TransientSimulation::finished`]) or a ramp meets a stack
    ///   without microchannel layers,
    /// * [`ThermalError::Numerical`] if a solve fails (at the Δt floor,
    ///   under adaptive stepping).
    pub fn step(&mut self) -> Result<TransientStep, ThermalError> {
        if self.finished() {
            return Err(ThermalError::InvalidConfig(
                "step past the end of the power trace".into(),
            ));
        }
        match self.stepping {
            SteppingMode::Fixed { dt } => self.step_fixed(dt),
            SteppingMode::Adaptive(cfg) => self.step_trbdf2(&cfg),
        }
    }

    /// Integrates the remaining trace to its end; returns the peak
    /// temperature observed anywhere along the way.
    ///
    /// # Errors
    ///
    /// As [`TransientSimulation::step`].
    pub fn run_to_end(&mut self) -> Result<f64, ThermalError> {
        let mut peak = self.peak();
        while !self.finished() {
            peak = peak.max(self.step()?.peak);
        }
        Ok(peak)
    }

    /// Re-stamps `G + C/d` into the session from the model's current
    /// operator values.
    fn restamp(&mut self) -> Result<(), ThermalError> {
        self.epoch += 1;
        let g = &self.model.operator()?.matrix;
        self.session
            .load_shifted(g, &self.capacity_over_dt, self.epoch)
            .map_err(ThermalError::from)
    }

    /// Changes the stage shift `d`, re-stamping the operator. A no-op
    /// when `dt` is bitwise equal to the current shift.
    fn set_dt(&mut self, dt: f64) -> Result<(), ThermalError> {
        validate_dt(dt)?;
        if dt == self.dt {
            return Ok(());
        }
        self.dt = dt;
        for (c, cap) in self.capacity_over_dt.iter_mut().zip(&self.capacity) {
            *c = cap / dt;
        }
        self.restamp()
    }

    /// Rebuilds the forcing from the current segment's power map and
    /// the model's current coefficients.
    fn load_forcing(&mut self) -> Result<(), ThermalError> {
        let power = &self.trace.segments()[self.segment].power;
        self.model.transient_rhs(power, &mut self.rhs_steady)
    }

    /// Moves the operating point to where the current segment's ramp
    /// sits at `frac` ∈ [0, 1], or back to the construction baseline on
    /// a segment without a ramp: the model refreshes its coefficients,
    /// then the operator and the forcing are re-stamped. A no-op when
    /// already there.
    fn sync_coefficients(&mut self, frac: f64) -> Result<(), ThermalError> {
        let target = match &self.trace.segments()[self.segment].ramp {
            Some(_) if self.current.is_none() => {
                return Err(ThermalError::InvalidConfig(
                    "coefficient ramp on a stack without microchannel layers".into(),
                ))
            }
            Some(ramp) => ramp.at(frac),
            None => match self.baseline {
                Some(baseline) => baseline,
                None => return Ok(()),
            },
        };
        if self.current == Some(target) {
            return Ok(());
        }
        self.model.refresh_coefficients(target.0, target.1)?;
        self.restamp()?;
        self.load_forcing()?;
        self.current = Some(target);
        self.coefficient_refreshes += 1;
        Ok(())
    }

    /// Solves one backward-Euler step `(G + C/d)·T⁺ = b + (C/d)·Tⁿ` at
    /// the stamped shift, warm-started from the committed field, and
    /// commits `T⁺`. The session iterates in its own buffer, so a
    /// failed solve leaves the field untouched.
    fn backward_euler(&mut self) -> Result<(), ThermalError> {
        let rhs = self.session.rhs_mut();
        rhs.extend_from_slice(&self.rhs_steady);
        for ((r, c), t) in rhs
            .iter_mut()
            .zip(&self.capacity_over_dt)
            .zip(&self.temperatures)
        {
            *r += c * t;
        }
        self.session.set_warm_start(&self.temperatures);
        self.session
            .solve_general_in_place()
            .map_err(ThermalError::from)?;
        self.temperatures.copy_from_slice(self.session.solution());
        Ok(())
    }

    /// One fixed-Δt step: full step `k + 1` of the segment's
    /// ⌊duration/Δt⌋, or its remainder step. The step index is
    /// recovered from `time_in_segment = k·Δt`, so a restored cursor
    /// continues exactly.
    fn step_fixed(&mut self, dt: f64) -> Result<TransientStep, ThermalError> {
        let seg = &self.trace.segments()[self.segment];
        let (duration, ramped) = (seg.duration, seg.ramp.is_some());
        // Integer step count (not repeated subtraction, whose
        // floating-point residue could produce a spurious
        // near-zero-length extra step on long segments).
        let full_steps = (duration / dt).floor() as usize;
        let remainder = duration - full_steps as f64 * dt;
        let k = (self.time_in_segment / dt).round() as usize;
        let (h, end_frac) = if k < full_steps {
            (dt, (k + 1) as f64 * dt / duration)
        } else {
            (remainder, 1.0)
        };
        if ramped {
            // The coefficients at tⁿ (the segment's start on its first
            // step, where the previous step left them otherwise), then
            // at the step's end, the implicit evaluation point.
            self.sync_coefficients(self.time_in_segment / duration)?;
            self.sync_coefficients(end_frac)?;
        }
        self.set_dt(h)?;
        let solves_before = self.session.stats().solves;
        let solved = self.backward_euler();
        self.stats.solves += self.session.stats().solves - solves_before;
        solved?;
        self.time += h;
        self.stats.accepted += 1;
        if k >= full_steps {
            // The operator returns to Δt with the remainder step itself,
            // as the fixed-step rule always has: a trace's re-stamp
            // count (`SessionStats::refreshes`) pays two per remainder.
            self.set_dt(dt)?;
        }
        if k >= full_steps || (k + 1 == full_steps && remainder <= duration * 1e-9) {
            self.advance_segment()?;
        } else {
            self.time_in_segment = (k + 1) as f64 * dt;
        }
        Ok(TransientStep {
            time: self.time,
            dt: h,
            peak: self.peak(),
            error: 0.0,
        })
    }

    /// Accept bookkeeping of an adaptive step: commits `y_new`, updates
    /// the cursor and the next-step proposal, and crosses segment
    /// boundaries. The estimate is third order, so the optimal step
    /// scales as `err^(-1/3)`.
    fn commit_step(
        &mut self,
        cfg: &AdaptiveConfig,
        h: f64,
        err: f64,
        y_new: &[f64],
        seg_duration: f64,
    ) -> Result<TransientStep, ThermalError> {
        if err > 1.0 {
            self.stats.forced += 1;
        }
        self.temperatures.copy_from_slice(y_new);
        self.time += h;
        self.time_in_segment += h;
        self.stats.accepted += 1;
        let factor = if err > 1e-12 {
            (cfg.safety / err.powf(1.0 / 3.0)).clamp(cfg.min_shrink, cfg.max_growth)
        } else {
            cfg.max_growth
        };
        self.dt_next = (h * factor).clamp(cfg.dt_min, cfg.dt_max);
        if self.time_in_segment >= seg_duration * (1.0 - 1e-12) {
            self.advance_segment()?;
        }
        Ok(TransientStep {
            time: self.time,
            dt: h,
            peak: self.peak(),
            error: err,
        })
    }

    /// The residual `b − G·T` at the model's current coefficients.
    fn residual(&self, t: &[f64]) -> Result<Vec<f64>, ThermalError> {
        let mut r = vec![0.0; t.len()];
        self.model
            .operator()?
            .matrix
            .matvec_into(t, &mut r)
            .map_err(ThermalError::from)?;
        for (r, b) in r.iter_mut().zip(&self.rhs_steady) {
            *r = b - *r;
        }
        Ok(r)
    }

    /// `C⁻¹·r`: the rate `T'` a residual drives.
    fn per_capacity(&self, r: &[f64]) -> Vec<f64> {
        r.iter().zip(&self.capacity).map(|(r, c)| r / c).collect()
    }

    /// One TR-BDF2 step: trapezoidal stage to `t + γh`, BDF2 stage to
    /// `t + h`, both on the shared operator `G + C/((1−1/√2)h)`, plus
    /// the embedded error estimate from stage-node divided differences.
    /// 2 solves and (at a new `h`) one O(nnz) re-stamp per attempt; on
    /// ramped segments each stage re-stamps the coefficients at its own
    /// evaluation time.
    fn step_trbdf2(&mut self, cfg: &AdaptiveConfig) -> Result<TransientStep, ThermalError> {
        let seg = &self.trace.segments()[self.segment];
        let (seg_duration, ramped) = (seg.duration, seg.ramp.is_some());
        let remaining = seg_duration - self.time_in_segment;
        // Coefficients must sit at tⁿ for the explicit residual below
        // (they are left at the previous step's end time, which *is*
        // tⁿ except on the trace's first step).
        if ramped {
            self.sync_coefficients(self.time_in_segment / seg_duration)?;
        }
        // rⁿ = b(tⁿ) − G(tⁿ)·Tⁿ and fⁿ = rⁿ/C: one matvec, recomputed
        // from committed state each step so checkpoint restores are
        // bitwise transparent.
        let r_n = self.residual(&self.temperatures)?;
        let f_n = self.per_capacity(&r_n);

        let n = self.temperatures.len();
        let mut h = self.dt_next.clamp(cfg.dt_min, cfg.dt_max).min(remaining);
        let mut est = vec![0.0; n];
        loop {
            let solves_before = self.session.stats().solves;
            let attempt = self.trbdf2_stages(h, &r_n, ramped, seg_duration);
            self.stats.solves += self.session.stats().solves - solves_before;
            let (y_plus, f_gamma, f_plus) = match attempt {
                Ok(t) => t,
                Err(e) => {
                    // A solver failure the session's own recovery
                    // ladder could not absorb: halve Δt and retry
                    // before aborting. Terminal at the Δt floor.
                    if h <= cfg.dt_min * (1.0 + 1e-9) {
                        return Err(e);
                    }
                    self.stats.solver_retries += 1;
                    h = (h / 2.0).max(cfg.dt_min).min(remaining);
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
            let err = vec_ops::wrms(&est, &y_plus, cfg.abs_tol, cfg.rel_tol);
            let at_floor = h <= cfg.dt_min * (1.0 + 1e-9);
            // The remainder of a segment may legitimately be shorter
            // than dt_min; accept it unconditionally too.
            let is_remainder = h >= remaining * (1.0 - 1e-12);
            if err <= 1.0 || at_floor || (is_remainder && remaining < cfg.dt_min) {
                return self.commit_step(cfg, h, err, &y_plus, seg_duration);
            }
            self.stats.rejected += 1;
            let factor = (cfg.safety / err.cbrt()).clamp(cfg.min_shrink, 1.0);
            h = (h * factor).max(cfg.dt_min).min(remaining);
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
        ramped: bool,
        seg_duration: f64,
    ) -> Result<TrBdf2Stages, ThermalError> {
        let d = h * TRBDF2_STAGE_SCALE;
        // Trapezoidal stage to tγ = tⁿ + γh:
        //   (G(tγ) + C/d)·Tγ = b(tγ) + rⁿ + (C/d)·Tⁿ.
        if ramped {
            self.sync_coefficients((self.time_in_segment + TRBDF2_GAMMA * h) / seg_duration)?;
        }
        self.set_dt(d)?;
        let rhs = self.session.rhs_mut();
        rhs.extend_from_slice(&self.rhs_steady);
        for (((q, r), c), t) in rhs
            .iter_mut()
            .zip(r_n)
            .zip(&self.capacity_over_dt)
            .zip(&self.temperatures)
        {
            *q += r + c * t;
        }
        self.session.set_warm_start(&self.temperatures);
        self.session
            .solve_general_in_place()
            .map_err(ThermalError::from)?;
        let y_gamma = self.session.solution().to_vec();
        // fγ = (b(tγ) − G(tγ)·Tγ)/C — before the coefficients move on.
        let f_gamma = self.per_capacity(&self.residual(&y_gamma)?);
        // BDF2 stage to t⁺ = tⁿ + h, same shift d:
        //   (G(t⁺) + C/d)·T⁺ = b(t⁺) + (C/h)(c_γ·Tγ − c_n·Tⁿ).
        if ramped {
            self.sync_coefficients((self.time_in_segment + h) / seg_duration)?;
        }
        let rhs = self.session.rhs_mut();
        rhs.extend_from_slice(&self.rhs_steady);
        for (((q, c), yg), t) in rhs
            .iter_mut()
            .zip(&self.capacity)
            .zip(&y_gamma)
            .zip(&self.temperatures)
        {
            *q += c / h * (TRBDF2_C_GAMMA * yg - TRBDF2_C_N * t);
        }
        self.session.set_warm_start(&y_gamma);
        self.session
            .solve_general_in_place()
            .map_err(ThermalError::from)?;
        let y_plus = self.session.solution().to_vec();
        // f⁺ = (b(t⁺) − G(t⁺)·T⁺)/C.
        let f_plus = self.per_capacity(&self.residual(&y_plus)?);
        Ok((y_plus, f_gamma, f_plus))
    }

    /// Moves the cursor to the next segment and loads its coefficient
    /// target and power map.
    fn advance_segment(&mut self) -> Result<(), ThermalError> {
        self.segment += 1;
        self.time_in_segment = 0.0;
        if !self.finished() {
            self.sync_coefficients(0.0)?;
            self.load_forcing()?;
        }
        Ok(())
    }

    /// Captures the integration state, including the trace cursor, the
    /// step size (the fixed Δt, or the controller's next-step proposal)
    /// and the counters. Restoring (into this integration, or any
    /// integration whose trace shares the segments up to the cursor)
    /// and continuing is bitwise-identical to never having stopped.
    #[must_use]
    pub fn save_checkpoint(&self) -> Checkpoint {
        Checkpoint {
            time: self.time,
            dt: self.dt_next,
            segment: self.segment,
            time_in_segment: self.time_in_segment,
            temperatures: self.temperatures.clone(),
            warm_start: self.session.solution().to_vec(),
            stats: self.stats,
        }
    }

    /// Restores a [`Checkpoint`] saved from an integration of the same
    /// model and stepping whose trace agrees with this one up to the
    /// checkpoint's cursor — the branch and resume operation. The
    /// coefficients move to where the captured integration had them
    /// (mid-ramp fraction included), so the next step is
    /// bitwise-identical to the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`ThermalError::InvalidConfig`] on a field-size mismatch, a
    /// cursor outside this trace, an invalid checkpointed Δt, or a
    /// fixed-Δt checkpoint taken at a different Δt.
    pub fn restore_checkpoint(&mut self, cp: &Checkpoint) -> Result<(), ThermalError> {
        if cp.temperatures.len() != self.temperatures.len() {
            return Err(ThermalError::InvalidConfig(format!(
                "checkpoint field has {} cells but the model has {}",
                cp.temperatures.len(),
                self.temperatures.len()
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
        if let SteppingMode::Fixed { dt } = self.stepping {
            if cp.dt != dt {
                return Err(ThermalError::InvalidConfig(format!(
                    "checkpoint stepped at dt {} but this integration steps at {dt}",
                    cp.dt
                )));
            }
        }
        self.temperatures.copy_from_slice(&cp.temperatures);
        self.session.set_warm_start(&cp.warm_start);
        self.time = cp.time;
        self.dt_next = cp.dt;
        self.segment = cp.segment;
        self.time_in_segment = cp.time_in_segment;
        self.stats = cp.stats;
        if !self.finished() {
            let duration = self.trace.segments()[self.segment].duration;
            self.sync_coefficients(self.time_in_segment / duration)?;
            self.load_forcing()?;
        }
        Ok(())
    }
}

/// A linear coolant-coefficient sweep across one [`TraceSegment`]:
/// total flow rate and inlet temperature move from their `*_start`
/// values at the segment's start to `*_end` at its end. The integrator
/// re-stamps the operator at each step's (or stage's) evaluation time —
/// an O(nnz) value refresh, never a re-assembly. Hold a coefficient
/// *offset* constant over a segment by setting start = end.
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

/// A power trace: the time-varying MPSoC load a [`TransientSimulation`]
/// integrates (throttling events, dark-silicon duty cycles), piecewise
/// constant in power with optional piecewise-linear coefficient ramps.
#[derive(Debug, Clone)]
pub struct PowerTrace {
    segments: Vec<TraceSegment>,
}

impl PowerTrace {
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
        }
        Ok(Self { segments })
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
    /// [`TransientStats::forced`]).
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

/// Counters of a [`TransientSimulation`] integration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransientStats {
    /// Accepted (committed) steps.
    pub accepted: u64,
    /// Rejected trial steps (error test failed, Δt shrunk and retried;
    /// adaptive stepping only).
    pub rejected: u64,
    /// Steps accepted at the Δt floor despite a failed error test.
    pub forced: u64,
    /// Linear solves the underlying session performed on the
    /// integrator's behalf — counted as the *session's* successful
    /// solve-count delta around each step or attempt, so this
    /// reconciles exactly with [`bright_num::SessionStats::solves`]
    /// (rejected attempts and the completed solves of failed attempts
    /// included; no double counting of recovery-ladder retries, which
    /// the session reports separately as `recovery_retries`).
    pub solves: u64,
    /// Trial attempts whose *solver* failed (as opposed to the error
    /// test) and were retried at half the step size (adaptive stepping
    /// only).
    pub solver_retries: u64,
}

/// The outcome of one accepted step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientStep {
    /// Simulated time after the step (s).
    pub time: f64,
    /// The committed step size (s).
    pub dt: f64,
    /// Peak temperature after the step (K).
    pub peak: f64,
    /// The weighted-RMS local-error estimate (≤ 1 unless forced; 0
    /// under fixed stepping).
    pub error: f64,
}

/// A serializable snapshot of a transient integration: temperature
/// field (solid and fluid cells), session warm-start vector, step size,
/// trace cursor and integration counters. Produced by
/// [`TransientSimulation::save_checkpoint`]; survives a JSON round-trip
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
    /// The fixed Δt, or the adaptive controller's next-step proposal.
    pub dt: f64,
    /// Trace cursor: segment index.
    pub segment: usize,
    /// Trace cursor: time already integrated into the segment (s);
    /// `k·Δt` after `k` fixed steps.
    pub time_in_segment: f64,
    /// The committed temperature field (K), all levels.
    pub temperatures: Vec<f64>,
    /// The session's solution/warm-start vector at capture — carried
    /// for inspection and forward compatibility. Bitwise continuation
    /// does not depend on it: every solve re-seeds its warm start from
    /// the committed [`Checkpoint::temperatures`].
    pub warm_start: Vec<f64>,
    /// Integration counters at capture, so a restored integration
    /// reports cumulative totals as if it had never stopped. Zero for
    /// legacy (version-1) files.
    pub stats: TransientStats,
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
            1 => TransientStats::default(),
            2 => {
                let s = v.get("stats").ok_or_else(|| {
                    ThermalError::InvalidConfig("checkpoint field 'stats'".into())
                })?;
                let count = |k: &str| {
                    s.get(k).and_then(Value::as_usize).map(|c| c as u64).ok_or_else(|| {
                        ThermalError::InvalidConfig(format!("checkpoint field 'stats.{k}'"))
                    })
                };
                TransientStats {
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

    /// A fixed-Δt integration of `power` held for `duration`.
    fn fixed(model: ThermalModel, power: &Field2d, duration: f64, dt: f64) -> TransientSimulation {
        let trace = PowerTrace::new(vec![TraceSegment::constant(duration, power.clone())]).unwrap();
        TransientSimulation::new(model, trace, 300.0, SteppingMode::Fixed { dt }).unwrap()
    }

    /// A TR-BDF2 integration of `trace` from 300 K.
    fn adaptive(
        model: ThermalModel,
        trace: PowerTrace,
        cfg: AdaptiveConfig,
    ) -> TransientSimulation {
        TransientSimulation::new(model, trace, 300.0, SteppingMode::Adaptive(cfg)).unwrap()
    }

    #[test]
    fn transient_approaches_steady_state() {
        let (model, power) = setup();
        let steady = model.solve_steady(&power).unwrap().max_temperature().value();
        let mut sim = fixed(model, &power, 2.0, 5e-3);
        // Thermal time constants here are ~ms (thin layers, strong
        // convection): 400 x 5 ms = 2 s is deep in steady state.
        let peak = sim.run_to_end().unwrap();
        assert!(
            (peak - steady).abs() < 0.05,
            "transient {peak} vs steady {steady}"
        );
        assert!((sim.time() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn temperature_rises_monotonically_from_cold_start() {
        let (model, power) = setup();
        let mut sim = fixed(model, &power, 1.0, 1e-3);
        let mut last = 300.0;
        for _ in 0..5 {
            let peak = sim.step().unwrap().peak;
            assert!(peak >= last - 1e-9, "peak fell: {peak} < {last}");
            last = peak;
        }
        assert!(last > 300.5, "should have warmed: {last}");
    }

    #[test]
    fn snapshot_matches_internal_state() {
        let (model, power) = setup();
        let mut sim = fixed(model, &power, 1.0, 1e-3);
        let p = sim.step().unwrap().peak;
        let snap = sim.snapshot().unwrap();
        assert!((snap.max_temperature().value() - p).abs() < 1e-12);
    }

    #[test]
    fn validates_inputs() {
        let (model, power) = setup();
        let trace = PowerTrace::new(vec![TraceSegment::constant(0.01, power)]).unwrap();
        let new = |t0, dt| {
            TransientSimulation::new(model.clone(), trace.clone(), t0, SteppingMode::Fixed { dt })
        };
        assert!(new(300.0, 0.0).is_err());
        assert!(new(-3.0, 1e-3).is_err());
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
            let mut restamped = fixed(model.clone(), &power, 1.0, 1e-3);
            restamped.set_dt(4e-3).unwrap();
            let mut fresh = fixed(model, &power, 1.0, 4e-3);
            restamped.backward_euler().unwrap();
            fresh.backward_euler().unwrap();
            assert_eq!(restamped.temperatures(), fresh.temperatures());
            // And the restamp was a value refresh, not a rebind.
            assert_eq!(restamped.session.stats().binds, 1);
            assert_eq!(restamped.session.stats().refreshes, 1);
        });
    }

    #[test]
    fn set_dt_is_noop_for_equal_step_and_rejects_invalid() {
        let (model, power) = setup();
        let mut sim = fixed(model, &power, 1.0, 1e-3);
        sim.set_dt(1e-3).unwrap();
        assert_eq!(sim.session.stats().refreshes, 0, "equal dt must be free");
        assert!(sim.set_dt(0.0).is_err());
        assert!(sim.set_dt(f64::NAN).is_err());
    }

    #[test]
    fn set_power_redirects_the_forcing() {
        let (model, power) = setup();
        let zero = Field2d::zeros(model.grid().clone());
        let trace = PowerTrace::new(vec![
            TraceSegment::constant(0.2, power),
            TraceSegment::constant(1.0, zero),
        ])
        .unwrap();
        let stepping = SteppingMode::Fixed { dt: 5e-3 };
        let mut sim = TransientSimulation::new(model, trace, 300.0, stepping).unwrap();
        while sim.segment_index() == 0 {
            sim.step().unwrap();
        }
        let hot = sim.peak();
        assert!(hot > 301.0);
        // The power is cut at the boundary: the die must cool back
        // toward the inlet.
        sim.run_to_end().unwrap();
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
        let mut adaptive = adaptive(model.clone(), trace.clone(), cfg);
        adaptive.run_to_end().unwrap();
        assert!((adaptive.time() - 0.2).abs() < 1e-9, "t = {}", adaptive.time());
        assert!(adaptive.finished());

        // Fine fixed-dt reference (dt = 0.25 ms -> 800 steps).
        let stepping = SteppingMode::Fixed { dt: 2.5e-4 };
        let mut reference =
            TransientSimulation::new(model, trace.clone(), 300.0, stepping).unwrap();
        reference.run_to_end().unwrap();
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
        let mut reference = TransientSimulation::new(
            model.clone(),
            trace.clone(),
            300.0,
            SteppingMode::Fixed { dt: 2.5e-4 },
        )
        .unwrap();
        reference.run_to_end().unwrap();

        let mut a = adaptive(model, trace, cfg);
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
        let mut adaptive = adaptive(model, trace, cfg);
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
        let mut a = adaptive(model.clone(), trace, AdaptiveConfig::default());
        a.run_to_end().unwrap();
        assert!(a.step().is_err(), "stepping past the trace must fail");

        let bad = AdaptiveConfig { dt_min: 0.0, ..AdaptiveConfig::default() };
        let trace2 = PowerTrace::new(vec![TraceSegment::constant(0.01, power)]).unwrap();
        let bad = SteppingMode::Adaptive(bad);
        assert!(TransientSimulation::new(model, trace2, 300.0, bad).is_err());
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
            let mut full = fixed(model.clone(), &power, 0.024, 2e-3);
            full.run_to_end().unwrap();
            // Interrupted: 5 steps, checkpoint through JSON, restore into a
            // *fresh* simulation, 7 more.
            let mut first = fixed(model.clone(), &power, 0.024, 2e-3);
            for _ in 0..5 {
                first.step().unwrap();
            }
            let cp = Checkpoint::from_json_str(&first.save_checkpoint().to_json_string()).unwrap();
            let mut resumed = fixed(model, &power, 0.024, 2e-3);
            resumed.restore_checkpoint(&cp).unwrap();
            resumed.run_to_end().unwrap();
            assert_eq!(resumed.temperatures(), full.temperatures());
            assert_eq!(resumed.time(), full.time());
            assert_eq!(resumed.stats(), full.stats());
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
            let mut full = adaptive(model.clone(), trace.clone(), cfg);
            // Integrate the first segment, checkpoint at its boundary, then
            // finish.
            while !full.finished() && full.time() < 0.03 - 1e-12 {
                full.step().unwrap();
            }
            let cp = full.save_checkpoint();
            assert_eq!(cp.segment, 1, "checkpoint should sit at the boundary");
            full.run_to_end().unwrap();

            let mut branch = adaptive(model, trace, cfg);
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
        let mut sim = fixed(model, &power, 1.0, 1e-3);
        let mut cp = sim.save_checkpoint();
        cp.temperatures.pop();
        assert!(sim.restore_checkpoint(&cp).is_err());
        let mut cp2 = sim.save_checkpoint();
        cp2.dt = -1.0;
        assert!(sim.restore_checkpoint(&cp2).is_err());
        let mut cp3 = sim.save_checkpoint();
        cp3.dt = 2e-3;
        assert!(sim.restore_checkpoint(&cp3).is_err(), "a fixed step plan is not movable");
    }

    #[test]
    fn adaptive_halves_dt_on_solver_faults_and_finishes() {
        use bright_num::faults::{self, FaultPlan};
        use bright_num::RecoveryPolicy;
        let (model, power) = setup();
        let trace = PowerTrace::new(vec![TraceSegment::constant(0.02, power)]).unwrap();
        let cfg = AdaptiveConfig::default();
        let mut adaptive = adaptive(model, trace, cfg);
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
            stats: TransientStats {
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
        // TransientStats::solves is accounted as the session's
        // successful-solve delta around every attempt, so after a run
        // it equals SessionStats::solves exactly — with injected solver
        // faults in play.
        use bright_num::faults::{self, FaultPlan};
        let (model, power) = setup();
        let trace = PowerTrace::new(vec![TraceSegment::constant(0.02, power)]).unwrap();
        let mut a = adaptive(model, trace, AdaptiveConfig::default());
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
        assert_eq!(cp.stats, TransientStats::default());
        assert_eq!(cp.segment, 2);
        assert_eq!(cp.time, 0.25);

        let unversioned = r#"{"time":0.1,"dt":1e-3,"segment":0,
            "time_in_segment":0.0,"temperatures":[300.0],"warm_start":[300.0]}"#;
        assert_eq!(
            Checkpoint::from_json_str(unversioned).unwrap().stats,
            TransientStats::default()
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
        let mut a = adaptive(model.clone(), trace.clone(), AdaptiveConfig::default());
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
        let mut c = adaptive(model, constant, AdaptiveConfig::default());
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
        let mut a = adaptive(model, trace, AdaptiveConfig::default());
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
            let mut full = adaptive(model.clone(), trace.clone(), cfg);
            // Stop strictly inside the ramped segment so the checkpoint
            // carries a mid-ramp operating point.
            while full.time() < 0.008 {
                full.step().unwrap();
            }
            assert_eq!(full.segment_index(), 0, "checkpoint must be mid-segment");
            let cp = full.save_checkpoint();
            full.run_to_end().unwrap();

            let mut branch = adaptive(model, trace, cfg);
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
    fn fixed_stepping_takes_full_steps_then_one_remainder() {
        // ⌊duration/Δt⌋ full steps and one shortened remainder step per
        // segment; a whole multiple of Δt takes no remainder step.
        let (model, power) = setup();
        let mut sim = fixed(model.clone(), &power, 0.0105, 1e-3);
        let mut dts = Vec::new();
        while !sim.finished() {
            dts.push(sim.step().unwrap().dt);
        }
        assert_eq!(dts.len(), 11);
        assert!(dts[..10].iter().all(|&dt| dt == 1e-3));
        assert!((dts[10] - 5e-4).abs() < 1e-12, "remainder step {}", dts[10]);
        assert!((sim.time() - 0.0105).abs() < 1e-12);
        let mut whole = fixed(model, &power, 0.01, 1e-3);
        whole.run_to_end().unwrap();
        assert_eq!(whole.stats().accepted, 10);
        assert_eq!(whole.stats().solves, whole.session_stats().solves);
    }

    #[test]
    fn fixed_mid_ramp_checkpoint_restores_bitwise() {
        // Deterministic bitwise reference: force injection off so an
        // env-steered BRIGHT_FAULTS sweep cannot desync the two
        // sessions' scripted fault schedules.
        bright_num::faults::with_scope(None, || {
            // A fixed-Δt integration checkpointed inside a ramped
            // segment (with a remainder step still ahead), round-tripped
            // through JSON and restored into a fresh integrator ends
            // bitwise where the uninterrupted run does.
            let (model, power) = setup();
            let ramp = test_ramp(&model);
            let zero = Field2d::zeros(model.grid().clone());
            let trace = PowerTrace::new(vec![
                TraceSegment::constant(0.0105, power).with_ramp(ramp),
                TraceSegment::constant(0.005, zero),
            ])
            .unwrap();
            let stepping = SteppingMode::Fixed { dt: 1e-3 };
            let mut full =
                TransientSimulation::new(model.clone(), trace.clone(), 300.0, stepping).unwrap();
            for _ in 0..4 {
                full.step().unwrap();
            }
            assert_eq!(full.segment_index(), 0, "checkpoint must be mid-ramp");
            let cp = Checkpoint::from_json_str(&full.save_checkpoint().to_json_string()).unwrap();
            full.run_to_end().unwrap();

            let mut resumed = TransientSimulation::new(model, trace, 300.0, stepping).unwrap();
            resumed.restore_checkpoint(&cp).unwrap();
            resumed.run_to_end().unwrap();
            assert_eq!(resumed.temperatures(), full.temperatures());
            assert_eq!(resumed.time(), full.time());
            assert_eq!(resumed.stats(), full.stats(), "restored counters stay cumulative");
            assert!(full.coefficient_refreshes() > 0, "the ramp must re-stamp");
        });
    }
}
