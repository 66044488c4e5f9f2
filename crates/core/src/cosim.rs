//! The coupled electro-thermal-electrical solve.

use crate::engine::CellPatternKey;
use crate::reports::{CoSimReport, OperatingPoint, YieldReport};
use crate::scenario::{PdnParams, Scenario};
use crate::CoreError;
use bright_flow::array::ChannelArray;
use bright_flow::fluid::TemperatureDependentFluid;
use bright_flowcell::options::TemperatureProfile;
use bright_flowcell::{CellArray, CellGeometry, CellModel, GeometryCache};
use bright_flow::RectChannel;
use bright_mesh::{Field2d, Grid2d};
use bright_num::SolverSession;
use bright_pdn::{PdnSolution, PowerGrid};
use bright_thermal::stack::{LayerSpec, MicrochannelSpec, StackConfig};
use bright_thermal::{Material, ThermalModel, ThermalSolution};
use bright_units::{Ampere, Kelvin, Meters, Pascal, Volt, Watt};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Cache key of the PDN conductance system: everything that shapes the
/// operator (grid, sheet/port resistances, layout, supply). Loads change
/// per run via `set_power_density` without invalidating it.
#[derive(Debug, Clone, PartialEq)]
struct PdnKey {
    params: PdnParams,
    supply: Volt,
    die_width: f64,
    die_height: f64,
}

impl PdnKey {
    fn of(scenario: &Scenario) -> Self {
        Self {
            params: scenario.pdn.clone(),
            supply: scenario.vrm.output_voltage(),
            die_width: scenario.floorplan.width().value(),
            die_height: scenario.floorplan.height().value(),
        }
    }
}

/// The cached PDN system with its banded factor (built on the first
/// solve and shared by clones), and the last solution with the rail map
/// it solved. A direct solve has no history, so an unchanged map would
/// give the same bits again: the solution is reused instead, as every
/// paper point and every flow-only retarget keeps the rail load.
#[derive(Debug, Clone)]
struct PdnCache {
    key: PdnKey,
    grid: PowerGrid,
    last: Option<(Field2d, PdnSolution)>,
}

/// A configured co-simulation.
///
/// The thermal model and the flow-cell template (with their assembled
/// operators and solve contexts) are built once per `CoSimulation` and
/// reused by every [`CoSimulation::run`]; the PDN conductance system
/// with its banded Cholesky factor and the thermal [`SolverSession`]
/// (Krylov scratch, preconditioner, warm start) persist across runs too.
/// Long-lived servers keep one engine per operator pattern and move it
/// between operating points with [`CoSimulation::retarget`], which
/// refreshes the thermal operator in place and keeps the flow cell's
/// duct solve wherever the pattern allows.
///
/// [`CoSimulation::run`] and [`CoSimulation::run_yield`] share one
/// pipeline: the thermal solve, then a flow-cell array built fresh from
/// the retargeted template at the solved channel temperatures, and last
/// the hydraulics. The array marches one column per run of adjacent
/// thermal columns whose fluid profiles agree within 0.25 K, at the
/// run's mean profile, and counts its currents once per column of the
/// run ([`CoSimulation::column_marches`] counts both). Both solve the
/// cache-rail droop the same way, through the cached banded factor;
/// `run` solves it on a second thread beside the thermal stage, since
/// the rail's load is part of the scenario and the PDN needs nothing
/// the other stages compute. A Monte Carlo study solves its samples' droops against one
/// study-wide factor instead. The direct solve has no history, so
/// nothing about the PDN needs resetting between requests, and a run
/// whose rail map equals the last one's reuses that solution.
#[derive(Debug, Clone)]
pub struct CoSimulation {
    scenario: Scenario,
    thermal: OnceLock<ThermalModel>,
    template: OnceLock<CellModel>,
    /// Cached PDN system, keyed by everything that shapes its operator.
    pdn: Option<PdnCache>,
    thermal_session: SolverSession,
    /// Scenarios this engine has served (1 after `new` + first `run`;
    /// grows with `retarget`).
    retargets: u64,
    /// Retargets that kept the flow-cell template and its duct solve
    /// (moved by `retarget_cell_to` instead of discarded).
    cell_context_reuses: u64,
    /// Flow-cell columns the coupled stage marched, and the thermal
    /// columns they stood for, over every run.
    column_marches: (u64, u64),
    /// Fingerprint-keyed duct-solve cache consulted by geometry
    /// retargets. Clones share it (`Arc`), so a fleet of engine workers
    /// spawned from one co-simulation pays for each distinct sampled
    /// geometry once.
    geometry_cache: Arc<GeometryCache>,
}

impl CoSimulation {
    /// Creates a co-simulation after validating the scenario. The
    /// thermal model is built here but assembled on the first run; its
    /// solve options configure the thermal session, so
    /// [`CoSimulation::preconditioner_spec`] already names the
    /// preconditioner the runs will use.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] for invalid scenarios, and
    /// the thermal stack's build errors.
    pub fn new(scenario: Scenario) -> Result<Self, CoreError> {
        scenario.validate()?;
        let thermal = thermal_model_for(&scenario)?;
        let thermal_session = SolverSession::new(thermal.solve_options());
        Ok(Self {
            scenario,
            thermal: OnceLock::from(thermal),
            template: OnceLock::new(),
            pdn: None,
            thermal_session,
            retargets: 0,
            cell_context_reuses: 0,
            column_marches: (0, 0),
            geometry_cache: Arc::new(GeometryCache::new()),
        })
    }

    /// Replaces the geometry cache — Monte Carlo batches hand every
    /// worker one shared cache so sampled geometries that collide on
    /// their fingerprint reuse one duct solve across workers.
    pub fn set_geometry_cache(&mut self, cache: Arc<GeometryCache>) {
        self.geometry_cache = cache;
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Number of successful [`CoSimulation::retarget`] calls.
    #[inline]
    pub fn retarget_count(&self) -> u64 {
        self.retargets
    }

    /// Number of retargets that kept the built flow-cell template and
    /// its geometry context (the duct solve), rebuilding only its
    /// coefficient state — the electrochemical counterpart of the
    /// thermal refresh-vs-reassemble accounting.
    #[inline]
    pub fn cell_context_reuses(&self) -> u64 {
        self.cell_context_reuses
    }

    /// `(marched, thermal)`: the flow-cell columns the runs so far
    /// marched, and the thermal columns those marches stood for. Runs of
    /// like columns march once ([`CoSimulation`]), so `marched` falls
    /// short of `thermal` by the marches the grouping skipped; an
    /// uncoupled run marches its one template column. Telemetry only: no
    /// report carries it.
    #[inline]
    pub fn column_marches(&self) -> (u64, u64) {
        self.column_marches
    }

    /// Context telemetry of the cached flow-cell template (all zero
    /// before the first run builds it) — see
    /// [`bright_flowcell::CellContextStats`].
    #[inline]
    pub fn cell_context_stats(&self) -> bright_flowcell::CellContextStats {
        self.template
            .get()
            .map_or_else(Default::default, bright_flowcell::CellModel::context_stats)
    }

    /// Statistics of the thermal solver session.
    #[inline]
    pub fn thermal_session_stats(&self) -> bright_num::SessionStats {
        self.thermal_session.stats()
    }

    /// Statistics of a PDN solver session: all zeros, always. The PDN
    /// is solved through the cached banded factor, which keeps no
    /// session; the accessor stays only for perfbench's frozen
    /// `paper_cosim` replay (ROADMAP item 11 deletes it).
    #[inline]
    pub fn pdn_session_stats(&self) -> bright_num::SessionStats {
        bright_num::SessionStats::default()
    }

    /// Preconditioner digest of the thermal solve path — the plain
    /// spec name (`"milu0"` on a fluid stack), or the multigrid
    /// hierarchy digest (`"mg(4 levels, coarse 144, chebyshev)"`) once
    /// a multigrid solve has run. The engine stamps this into
    /// [`crate::ScenarioReport::precond`].
    #[must_use]
    pub fn precond_digest(&self) -> String {
        self.thermal_session.precond_digest()
    }

    /// The preconditioner spec currently configured on the thermal
    /// session (the engine's batch-level telemetry).
    #[must_use]
    pub fn preconditioner_spec(&self) -> bright_num::PrecondSpec {
        self.thermal_session.options().preconditioner
    }

    /// Digest of the recovery rungs that produced the most recent
    /// thermal solve, or `None` when it was a clean first attempt. The
    /// session resets its rung on every clean solve, so a stale recovery
    /// never leaks into a later request's report. The PDN's direct
    /// solve has no recovery ladder: a failed factor is an error.
    pub(crate) fn recovery_digest(&self) -> Option<String> {
        self.thermal_session
            .last_recovery()
            .describe()
            .map(|t| format!("thermal: {t}"))
    }

    /// Number of full thermal-operator assemblies this engine has paid
    /// for so far (0 before the first run; stays at 1 across
    /// pattern-compatible retargets).
    pub fn thermal_assembly_count(&self) -> usize {
        self.thermal.get().map_or(0, ThermalModel::assembly_count)
    }

    /// True when both scenarios produce a thermal operator with the same
    /// sparsity pattern (grid, layer structure, channel lumping) — the
    /// condition for refreshing coefficients in place.
    fn thermal_pattern_compatible(a: &Scenario, b: &Scenario) -> bool {
        a.thermal_columns == b.thermal_columns
            && a.thermal_ny == b.thermal_ny
            && a.channel_count == b.channel_count
            && a.floorplan == b.floorplan
    }

    /// Points this engine at a different operating point, preserving
    /// every cache the new scenario's operator patterns allow:
    ///
    /// * same thermal pattern (grid/layers/lumping) → the cached thermal
    ///   operator is **refreshed in place** (O(nnz) value re-stamp, new
    ///   coolant property snapshot at the new inlet) instead of rebuilt;
    /// * same PDN key → the cached conductance system is kept, only the
    ///   load RHS changes on the next run;
    /// * same cell solver options → the flow-cell template is kept and
    ///   retargeted ([`CellModel::retarget_flow`] /
    ///   [`CellModel::retarget_temperature`]): its duct velocity
    ///   solution survives every flow/inlet move, and its coefficient
    ///   state is rebuilt from it before this call returns (observable
    ///   via [`CoSimulation::cell_context_reuses`] and
    ///   [`CoSimulation::cell_context_stats`]).
    ///
    /// Sessions (scratch + warm starts) always survive; warm starts
    /// carry over, which is exactly right for sweeps moving gradually
    /// through the design space.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] for invalid scenarios; thermal
    /// refresh errors as in [`ThermalModel::refresh_microchannels`];
    /// [`CoreError::FlowCell`] for a point the flow cell cannot
    /// represent (its coefficient build fails). On error the engine
    /// keeps its previous scenario; a flow-cell error additionally drops
    /// the template and the thermal model, so the next run rebuilds
    /// them cold (still at the previous scenario).
    pub fn retarget(&mut self, scenario: Scenario) -> Result<(), CoreError> {
        scenario.validate()?;
        if Self::thermal_pattern_compatible(&self.scenario, &scenario) {
            let flow_changed =
                self.scenario.total_flow.value() != scenario.total_flow.value();
            let inlet_changed = self.scenario.inlet_temperature.value()
                != scenario.inlet_temperature.value();
            let geom_changed = self.scenario.channel_width.value()
                != scenario.channel_width.value()
                || self.scenario.channel_height.value() != scenario.channel_height.value();
            if (flow_changed || inlet_changed || geom_changed) && self.thermal.get().is_some() {
                let fluid = TemperatureDependentFluid::vanadium_electrolyte()
                    .at(scenario.inlet_temperature)
                    .map_err(|e| CoreError::Fluidics(e.to_string()))?;
                let (flow, inlet) = (scenario.total_flow, scenario.inlet_temperature);
                let (cw, ch) = (scenario.channel_width, scenario.channel_height);
                let model = self.thermal.get_mut().expect("checked above");
                model.refresh_microchannels(|spec| {
                    spec.fluid = fluid;
                    spec.total_flow = flow;
                    spec.inlet_temperature = inlet;
                    spec.channel_width = cw;
                    spec.channel_height = ch;
                })?;
            }
        } else {
            // Different pattern: drop the operator; the session rebinds
            // (and cold-starts) on the next run.
            self.thermal = OnceLock::new();
        }
        let cell_key = |s: &Scenario| CellPatternKey::of(&s.cell_options);
        if cell_key(&self.scenario) != cell_key(&scenario) {
            // Different transport grids / velocity model: a genuinely
            // new cell geometry context is required.
            self.template = OnceLock::new();
        } else if self.template.get().is_some() {
            // Same transport shape: keep the template and its duct
            // solve, moving only what changed (geometry, contact ASR,
            // flow, temperature); an equal-coefficient retarget costs
            // nothing at all.
            let cache = Arc::clone(&self.geometry_cache);
            let template = self.template.get_mut().expect("checked above");
            if let Err(e) = retarget_cell_to(template, &scenario, Some(&cache)) {
                // The thermal operator above may already hold the new
                // coefficients while `self.scenario` stays old: drop
                // both caches so the next run rebuilds consistently
                // from the kept (previous) scenario.
                self.template = OnceLock::new();
                self.thermal = OnceLock::new();
                return Err(e);
            }
            self.cell_context_reuses += 1;
        }
        // The PDN cache is validated against its key inside `run`.
        self.scenario = scenario;
        self.retargets += 1;
        Ok(())
    }

    /// Runs the coupled solve.
    ///
    /// The array's polarization sweep and its 1 V point come from one
    /// pass over the marched columns
    /// ([`CellArray::polarization_curve_and_point`]), one per run of like
    /// thermal columns (see [`CoSimulation`]): each one's model is built
    /// once, marches the sweep ladder plus the 1 V lane, and is dropped.
    ///
    /// The cache-rail IR-drop map is a direct solve through the cached
    /// conductance system and its banded Cholesky factor, run beside
    /// the thermal stage (see [`CoSimulation`]). The factor is built on
    /// the engine's first run and kept; with a second core free it
    /// hides behind the thermal solve (timings in
    /// `docs/PERFORMANCE.md`). Its bits do not depend on what was
    /// solved before, so while the rail map stays bitwise the same (a
    /// flow, inlet or geometry retarget keeps it) the last solution is
    /// returned again without a solve.
    ///
    /// A rail demand beyond the array's capability is reported, not
    /// fatal: [`CoSimReport::operating_point`] is then `None`.
    ///
    /// # Errors
    ///
    /// Propagates sub-model failures. An error of the thermal or
    /// flow-cell stages, the isothermal baseline or the operating point
    /// wins over a PDN error, and a PDN error over a hydraulics error.
    pub fn run(&mut self) -> Result<CoSimReport, CoreError> {
        let (stages, pdn_sol) = self.stages_beside_pdn();
        let (chip_power, thermal_sol, array) = stages?;
        self.count_marches(&array);
        let s = &self.scenario;

        // Array characteristics (scaled from columns to channels).
        let group = s.channel_count / s.thermal_columns;
        let (curve, at_1v_cols) = array.polarization_curve_and_point(s.sweep_points, 1.0)?;
        let curve = curve.scaled_parallel(group);
        let ocv = curve.open_circuit_voltage();
        let at_1v_current = at_1v_cols.current * group as f64;
        let at_1v_power = at_1v_cols.power * group as f64;
        // Without thermal coupling the array already runs at the inlet
        // temperature, so the isothermal baseline is the solve above.
        // With it, every channel of the baseline is the template.
        let isothermal_current_at_1v = if s.couple_temperature {
            let template = self.template.get().expect("built by the shared stages");
            let channel = template.solve_at_voltage(1.0)?.current().value();
            Ampere::new(s.channel_count as f64 * channel)
        } else {
            at_1v_current
        };
        let thermal_boost_percent = if isothermal_current_at_1v.value() > 0.0 {
            (at_1v_current.value() / isothermal_current_at_1v.value() - 1.0) * 100.0
        } else {
            0.0
        };

        // Operating point against the rail demand through the VRM.
        let rail_power = s.rail_load.total_power(&s.floorplan)?;
        let operating_point = self.find_operating_point(&curve, rail_power.value())?;

        let pdn_sol = pdn_sol?;
        let (pressure_drop, pumping_power) = self.hydraulics()?;
        Ok(CoSimReport {
            chip_power,
            rail_power,
            peak_temperature: thermal_sol.max_temperature(),
            outlet_temperature: thermal_sol.outlet_mean(),
            inlet_temperature: self.scenario.inlet_temperature,
            array_ocv: ocv,
            current_at_1v: at_1v_current,
            power_at_1v: at_1v_power,
            isothermal_current_at_1v,
            thermal_boost_percent,
            operating_point,
            pdn_min_voltage: pdn_sol.min_voltage(),
            pdn_max_voltage: pdn_sol.max_voltage(),
            pdn_worst_drop: pdn_sol.worst_drop(),
            pressure_drop,
            pumping_power,
            polarization: curve,
            junction_map: thermal_sol.junction_map().clone(),
            fluid_map: thermal_sol.level_map(thermal_sol.fluid_levels()[0]).clone(),
            voltage_map: pdn_sol.voltage_map().clone(),
        })
    }

    /// Clears the thermal session's warm start so the next solve is
    /// history-independent. The Monte Carlo engine calls this before
    /// every sample, and the scenario engine before every steady request
    /// in deterministic mode: with a cold Krylov start, retarget + run
    /// is bitwise-equal to a cold-built engine at the same scenario
    /// (operator value refreshes are property-tested bitwise-equal to
    /// cold stamps), which is what makes Monte Carlo reports chunk- and
    /// thread-count independent. The PDN's direct solve has no warm
    /// start to clear.
    pub fn reset_warm_starts(&mut self) {
        self.thermal_session.reset_warm_start();
    }

    /// Runs the lightweight yield-analysis solve: thermal field,
    /// coupled array at the 1 V rail point, PDN droop and hydraulics —
    /// skipping the polarization sweep, the isothermal baseline and the
    /// operating-point ladder that dominate [`CoSimulation::run`] but
    /// feed none of the Monte Carlo metrics. The thermal and flow-cell
    /// stages and the hydraulics are `run`'s own, and the engine's
    /// geometry cache is seeded with the template's context so sampled
    /// geometries that return to a seen fingerprint skip their duct
    /// solve.
    ///
    /// The droop is a one-load direct solve through the cached
    /// conductance system and its banded Cholesky factor, as in `run`,
    /// but after the other stages on the caller's thread. Its stages
    /// are the short ones, too short to hide a first factor behind: on
    /// the yield study's coarse grids, solving it beside the thermal
    /// stage made a cold `new` + `run_yield` about 28% slower (a factor
    /// built on a fresh thread ran about 8% slower). A Monte Carlo study
    /// runs the other stages per sample and solves its samples' droops
    /// together against one study-wide factor
    /// ([`crate::montecarlo::run`]).
    ///
    /// # Errors
    ///
    /// As [`CoSimulation::run`]; an error of any other stage wins over
    /// a PDN error.
    pub fn run_yield(&mut self) -> Result<YieldReport, CoreError> {
        let mut report = self.run_yield_stages()?;
        report.pdn_min_voltage = solve_pdn(&mut self.pdn, &self.scenario)?.min_voltage();
        Ok(report)
    }

    /// The thermal, flow-cell and hydraulic stages of
    /// [`CoSimulation::run_yield`], without touching the PDN: the
    /// report's `pdn_min_voltage` is NaN until the caller's PDN stage
    /// fills it in.
    pub(crate) fn run_yield_stages(&mut self) -> Result<YieldReport, CoreError> {
        let (chip_power, thermal_sol, array) = thermal_and_cells(
            &self.scenario,
            &self.thermal,
            &self.template,
            &mut self.thermal_session,
        )?;
        self.geometry_cache
            .warm_from(self.template.get().expect("built by the shared stages"))?;
        self.count_marches(&array);
        let s = &self.scenario;
        let group = (s.channel_count / s.thermal_columns) as f64;
        let at_1v_cols = array.solve_at_voltage(1.0)?;
        let (pressure_drop, pumping_power) = self.hydraulics()?;
        Ok(YieldReport {
            chip_power,
            peak_temperature: thermal_sol.max_temperature(),
            outlet_temperature: thermal_sol.outlet_mean(),
            current_at_1v: at_1v_cols.current * group,
            power_at_1v: at_1v_cols.power * group,
            pdn_min_voltage: Volt::new(f64::NAN),
            pressure_drop,
            pumping_power,
            junction_map: thermal_sol.junction_map().clone(),
        })
    }

    /// [`thermal_and_cells`] on this engine, with the cache rail's
    /// direct PDN solve beside it on a second thread (inline after it
    /// under `BRIGHT_SWEEP_THREADS=1`). Both results come back, so `run`
    /// checks them in its own error order.
    fn stages_beside_pdn(&mut self) -> (Result<Stages, CoreError>, Result<PdnSolution, CoreError>) {
        let Self {
            scenario,
            thermal,
            template,
            pdn,
            thermal_session,
            ..
        } = self;
        let scenario = &*scenario;
        bright_num::parallel::join(
            bright_num::parallel::worker_count(2),
            || thermal_and_cells(scenario, thermal, template, thermal_session),
            || solve_pdn(pdn, scenario),
        )
    }

    /// Adds one run's marched and thermal columns to
    /// [`CoSimulation::column_marches`].
    fn count_marches(&mut self, array: &CellArray) {
        self.column_marches.0 += array.marched_columns() as u64;
        self.column_marches.1 += self.scenario.thermal_columns as u64;
    }

    /// Pressure drop and pumping power of the whole channel array at the
    /// scenario's flow, through the template's channel geometry.
    fn hydraulics(&self) -> Result<(Pascal, Watt), CoreError> {
        let s = &self.scenario;
        let template = self.template.get().expect("built by the shared stages");
        let pitch = Meters::new(s.floorplan.width().value() / s.channel_count as f64);
        let array = ChannelArray::new(*template.geometry().channel(), s.channel_count, pitch)?;
        let props = TemperatureDependentFluid::vanadium_electrolyte()
            .at(s.inlet_temperature)
            .map_err(|e| CoreError::Fluidics(e.to_string()))?;
        Ok((
            array.pressure_drop(&props, s.total_flow),
            array.pumping_power(&props, s.total_flow, s.pump_efficiency)?,
        ))
    }

    /// Finds the stable (high-voltage) intersection of the array power
    /// curve with the VRM input demand.
    fn find_operating_point(
        &self,
        curve: &bright_flowcell::PolarizationCurve,
        rail_power: f64,
    ) -> Result<Option<OperatingPoint>, CoreError> {
        let s = &self.scenario;
        let v_out = s.vrm.output_voltage().value();
        let ocv = curve.open_circuit_voltage().value();
        if ocv <= v_out {
            return Ok(None);
        }
        // Scan from the OCV downward on a fine voltage ladder; the first
        // crossing (array supply >= demand) is the stable branch.
        let n = 400;
        for k in 1..n {
            let v = ocv - (ocv - v_out) * k as f64 / n as f64;
            let Some(current) = curve.current_at_voltage(v) else {
                continue;
            };
            let supply = v * current.value();
            let eff = s
                .vrm
                .efficiency_at(Volt::new(v))
                .map_err(|e| CoreError::Pdn(e.to_string()))?;
            let demand = rail_power / eff;
            if supply >= demand {
                return Ok(Some(OperatingPoint {
                    array_voltage: Volt::new(v),
                    array_current: current,
                    array_power: Watt::new(supply),
                    vrm_efficiency: eff,
                    rail_voltage: s.vrm.output_voltage(),
                    rail_power: Watt::new(rail_power),
                }));
            }
        }
        Ok(None)
    }
}

/// What the stages every co-simulation starts with hand on: the chip
/// power, the thermal field and the coupled flow-cell array.
type Stages = (Watt, ThermalSolution, CellArray);

/// The largest pointwise spread (K) of the fluid profiles of a run of
/// adjacent thermal columns that marches once, at the run's mean
/// profile. The lumping error is second order in the spread: at 0.25 K
/// the array current at 1 V stayed within 5e-7 of a march per column on
/// every load measured, and 0.5 K broke that budget
/// (`docs/PERFORMANCE.md`, "One march per group of like columns").
const COLUMN_SPREAD_K: f64 = 0.25;

/// The stages every co-simulation starts with, over the engine's fields
/// (split so the PDN stage can borrow the rest). The thermal solve under
/// the full chip load runs through the persistent session (warm-started
/// across runs and retargets). Then the channel temperature profiles go
/// into the electrochemistry: channels sharing a thermal column are
/// identical, and adjacent columns whose fluid profiles agree within
/// [`COLUMN_SPREAD_K`] march as one ([`like_column_runs`]), so the
/// returned array marches one column per run, at the run's mean
/// profile, weighted by the run's length. Its totals count every
/// thermal column, and callers scale them by the channels per column.
/// With `couple_temperature` off the array is the bare template. The
/// array holds only the template and the profiles; each solve on it
/// builds the column models on the fan-out's workers and drops them.
fn thermal_and_cells(
    s: &Scenario,
    thermal: &OnceLock<ThermalModel>,
    template: &OnceLock<CellModel>,
    session: &mut SolverSession,
) -> Result<Stages, CoreError> {
    // Ensure the cached models exist. Warming the template builds its
    // solve context once: every array clone carries it, and retargets
    // refresh it in place.
    let thermal = bright_num::lazy::get_or_try_init(thermal, || thermal_model_for(s))?;
    let template = bright_num::lazy::get_or_try_init(template, || cell_model_for(s))?;
    template.warm()?;
    // Adopt the model's preconditioner (MILU(0) on every fluid stack,
    // SSOR or multigrid on conduction-only ones); a no-op when the spec
    // is unchanged, so warm sessions keep their factors.
    session.set_preconditioner(thermal.solve_options().preconditioner);
    let power_map = s.thermal_load.rasterize(&s.floorplan, thermal.grid())?;
    let thermal_sol = thermal.solve_steady_with_sources_warm(&[(0, &power_map)], session)?;

    let array = CellArray::new(template.clone(), s.thermal_columns)?;
    let array = if s.couple_temperature {
        let profiles: Vec<Vec<Kelvin>> = (0..s.thermal_columns)
            .map(|ix| thermal_sol.channel_profile(ix))
            .collect();
        grouped(array, &profiles)?
    } else {
        array
    };
    Ok((Watt::new(power_map.integral()), thermal_sol, array))
}

/// `array` with one marched column per run of like columns of
/// `profiles` (one profile per thermal column), at the run's pointwise
/// mean profile and weighted by the run's length.
fn grouped(array: CellArray, profiles: &[Vec<Kelvin>]) -> Result<CellArray, CoreError> {
    let runs = like_column_runs(profiles);
    let weights: Vec<usize> = runs.iter().map(ExactSizeIterator::len).collect();
    let means = runs
        .into_iter()
        .map(|run| TemperatureProfile::Sampled(mean_profile(&profiles[run])))
        .collect();
    Ok(array.with_weighted_channel_temperatures(means, &weights)?)
}

/// Partitions the columns of `profiles` into runs of adjacent columns
/// whose profiles agree pointwise within [`COLUMN_SPREAD_K`]: scanning
/// from column 0, a run takes the next column while the largest
/// pointwise max − min over its profiles stays within the spread. The
/// runs depend on the profiles alone, so the thread count or earlier
/// solves cannot change them. A non-finite sample never joins a run.
fn like_column_runs(profiles: &[Vec<Kelvin>]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    while start < profiles.len() {
        let mut lo: Vec<f64> = profiles[start].iter().map(|t| t.value()).collect();
        let mut hi = lo.clone();
        let mut end = start + 1;
        while let Some(next) = profiles.get(end) {
            let fits = next.iter().zip(lo.iter().zip(&hi)).all(|(t, (l, h))| {
                t.value() - l <= COLUMN_SPREAD_K && h - t.value() <= COLUMN_SPREAD_K
            });
            if !fits {
                break;
            }
            for (t, (l, h)) in next.iter().zip(lo.iter_mut().zip(hi.iter_mut())) {
                *l = l.min(t.value());
                *h = h.max(t.value());
            }
            end += 1;
        }
        runs.push(start..end);
        start = end;
    }
    runs
}

/// The pointwise mean of `members`' profiles, summed in column order (a
/// lone member's profile comes back bit for bit).
fn mean_profile(members: &[Vec<Kelvin>]) -> Vec<Kelvin> {
    let n = members.len() as f64;
    (0..members[0].len())
        .map(|j| Kelvin::new(members.iter().map(|p| p[j].value()).sum::<f64>() / n))
        .collect()
}

/// The cache rail's direct solve at the scenario's rail load, through
/// the cached conductance system: the system is kept while its
/// [`PdnKey`] matches and rebuilt when it does not, and the last
/// solution is returned again while the rail map is bitwise unchanged.
fn solve_pdn(cache: &mut Option<PdnCache>, s: &Scenario) -> Result<PdnSolution, CoreError> {
    let key = PdnKey::of(s);
    let pdn = match cache {
        Some(pdn) if pdn.key == key => pdn,
        _ => cache.insert(PdnCache {
            key,
            grid: pdn_for(s)?,
            last: None,
        }),
    };
    let rail_map = s.rail_load.rasterize(&s.floorplan, pdn.grid.grid())?;
    let bits = |map: &Field2d| map.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if let Some((map, solution)) = &pdn.last {
        if bits(map) == bits(&rail_map) {
            return Ok(solution.clone());
        }
    }
    pdn.grid.set_power_density(&rail_map)?;
    let solution = pdn.grid.solve_direct()?;
    pdn.last = Some((rail_map, solution.clone()));
    Ok(solution)
}

/// Builds the PDN conductance system a scenario describes, with its rail
/// load already stamped into the RHS.
pub(crate) fn pdn_for(s: &Scenario) -> Result<PowerGrid, CoreError> {
    let pdn_grid = Grid2d::from_extent(
        s.floorplan.width().value(),
        s.floorplan.height().value(),
        s.pdn.nx,
        s.pdn.ny,
    )
    .map_err(|e| CoreError::Pdn(e.to_string()))?;
    let rail_map = s.rail_load.rasterize(&s.floorplan, &pdn_grid)?;
    Ok(PowerGrid::new(
        pdn_grid,
        s.pdn.sheet_resistance,
        s.vrm.output_voltage(),
        s.pdn.port_resistance,
        &s.pdn.ports,
        &rail_map,
    )?)
}

/// Channel length of the Table II array (fixed — not a sampled
/// manufacturing parameter).
const CHANNEL_LENGTH_MM: f64 = 22.0;

/// The flow-cell geometry a scenario describes: its sampled channel
/// width/height at the fixed Table II length.
pub(crate) fn cell_geometry_for(s: &Scenario) -> Result<CellGeometry, CoreError> {
    let channel = RectChannel::new(
        s.channel_width,
        s.channel_height,
        Meters::from_millimeters(CHANNEL_LENGTH_MM),
    )
    .map_err(|e| CoreError::Fluidics(e.to_string()))?;
    Ok(CellGeometry::new(channel))
}

/// Builds the single-channel flow-cell template a scenario describes
/// (the scenario's channel geometry at its per-channel flow share and
/// inlet temperature). Shared by the steady co-simulation and the
/// engine's polarization workers, so both solve the exact same cell.
pub(crate) fn cell_model_for(s: &Scenario) -> Result<CellModel, CoreError> {
    Ok(CellModel::new(
        cell_geometry_for(s)?,
        bright_echem::vanadium::power7_cell_chemistry(),
        s.per_channel_flow(),
        TemperatureProfile::Uniform(s.inlet_temperature),
        s.cell_options.clone(),
    )?)
}

/// Retargets a built cell model to a scenario's coefficients (channel
/// geometry, contact ASR, per-channel flow, inlet temperature),
/// touching only what actually changed, then warms it: a changed
/// coefficient drops the model's coefficient state and the warm builds
/// it again from the kept duct solve. Geometry moves consult `cache` so
/// fingerprint collisions reuse a previous duct solve. Shared by
/// [`CoSimulation::retarget`] and the engine's polarization workers so
/// their compare-and-retarget semantics cannot drift. The scenario's
/// `cell_options` must share the model's [`CellPatternKey`] (both
/// callers check it).
///
/// # Errors
///
/// The `CellModel::retarget_*` mutators' validation and duct-solver
/// errors, and the build error of a point the flow cell cannot
/// represent. The model is then part-moved; callers drop it.
pub(crate) fn retarget_cell_to(
    model: &mut CellModel,
    s: &Scenario,
    cache: Option<&GeometryCache>,
) -> Result<(), CoreError> {
    model.retarget_geometry(cell_geometry_for(s)?, cache)?;
    model.retarget_contact_asr(s.cell_options.contact_asr)?;
    let per_channel = s.per_channel_flow();
    if model.flow().value() != per_channel.value() {
        model.retarget_flow(per_channel)?;
    }
    let inlet = TemperatureProfile::Uniform(s.inlet_temperature);
    if *model.temperature() != inlet {
        model.retarget_temperature(inlet)?;
    }
    model.warm()?;
    Ok(())
}

/// Builds the thermal stack model a scenario describes (die /
/// flow-cell-channel / cap sandwich on the scenario's grid and lumping).
/// Shared by the steady co-simulation and the engine's transient
/// workers, so both integrate the exact same operator.
pub(crate) fn thermal_model_for(s: &Scenario) -> Result<ThermalModel, CoreError> {
    let fluid = TemperatureDependentFluid::vanadium_electrolyte()
        .at(s.inlet_temperature)
        .map_err(|e| CoreError::Fluidics(e.to_string()))?;
    Ok(ThermalModel::new(StackConfig {
        width: s.floorplan.width(),
        height: s.floorplan.height(),
        nx: s.thermal_columns,
        ny: s.thermal_ny,
        layers: vec![
            LayerSpec::Solid {
                name: "die".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(400.0),
                sublayers: 2,
            },
            LayerSpec::Microchannel {
                name: "flow-cell channels".into(),
                spec: MicrochannelSpec {
                    channel_width: s.channel_width,
                    channel_height: s.channel_height,
                    channels_per_cell: s.channel_count / s.thermal_columns,
                    fluid,
                    total_flow: s.total_flow,
                    inlet_temperature: s.inlet_temperature,
                    wall_material: Material::silicon(),
                },
            },
            LayerSpec::Solid {
                name: "cap".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(300.0),
                sublayers: 1,
            },
        ],
        top_cooling: None,
    })?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduced_report() -> CoSimReport {
        CoSimulation::new(Scenario::power7_reduced())
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn nominal_reduced_run_reproduces_headlines() {
        let r = reduced_report();
        // Peak temperature in the paper's band (Fig. 9: 41 degC).
        let peak_c = r.peak_temperature.to_celsius().value();
        assert!(peak_c > 30.0 && peak_c < 50.0, "peak {peak_c} degC");
        // OCV near the Fig. 7 intercept.
        assert!((r.array_ocv.value() - 1.65).abs() < 0.05);
        // Array covers the cache demand at 1 V (paper: 6 A available vs
        // ~2.4-5.7 A required).
        assert!(r.current_at_1v.value() > 2.0, "{}", r.current_at_1v);
        // Net-positive energy balance: generation at 1 V beats pumping.
        assert!(r.power_at_1v.value() > r.pumping_power.value());
        // The operating point exists and sits above the rail voltage.
        let op = r.operating_point.as_ref().expect("array meets demand");
        assert!(op.array_voltage.value() >= 1.0);
        assert!(op.array_power.value() >= op.rail_power.value());
        // Fig. 8 droop band.
        assert!(r.pdn_min_voltage.value() > 0.9 && r.pdn_min_voltage.value() < 1.0);
    }

    #[test]
    fn thermal_coupling_boosts_generation() {
        let r = reduced_report();
        // Section III-B: a few percent at nominal flow.
        assert!(
            r.thermal_boost_percent > 0.0 && r.thermal_boost_percent < 15.0,
            "boost {}%",
            r.thermal_boost_percent
        );
        assert!(r.current_at_1v.value() >= r.isothermal_current_at_1v.value());
    }

    #[test]
    fn throttled_flow_heats_up_and_boosts_more() {
        let mut throttled = Scenario::power7_reduced();
        throttled.total_flow =
            bright_units::CubicMetersPerSecond::from_milliliters_per_minute(48.0);
        let r_nominal = reduced_report();
        let r_throttled = CoSimulation::new(throttled).unwrap().run().unwrap();
        assert!(
            r_throttled.peak_temperature.value() > r_nominal.peak_temperature.value() + 5.0,
            "throttled {} vs nominal {}",
            r_throttled.peak_temperature,
            r_nominal.peak_temperature
        );
        assert!(
            r_throttled.thermal_boost_percent > r_nominal.thermal_boost_percent,
            "throttled boost {} vs nominal {}",
            r_throttled.thermal_boost_percent,
            r_nominal.thermal_boost_percent
        );
    }

    #[test]
    fn energy_conservation_across_reports() {
        let r = reduced_report();
        // Fluid absorbs the chip power: outlet rise consistent with
        // capacity rate (47 W/K at nominal flow).
        let rise = r.outlet_temperature.value() - r.inlet_temperature.value();
        let expected = r.chip_power.value() / 47.2;
        assert!(
            (rise - expected).abs() < 0.35 * expected,
            "rise {rise} K vs expected {expected} K"
        );
    }

    #[test]
    fn supply_deficit_reported_as_missing_operating_point() {
        let mut s = Scenario::power7_reduced();
        // Demand far beyond the array: power every block from the rail at
        // full load densities.
        s.rail_load = bright_floorplan::PowerScenario::full_load();
        let r = CoSimulation::new(s).unwrap().run().unwrap();
        assert!(r.operating_point.is_none());
        assert!(r.rail_power.value() > 50.0);
    }

    #[test]
    fn repeated_runs_reuse_caches_and_agree() {
        let mut sim = CoSimulation::new(Scenario::power7_reduced()).unwrap();
        let a = sim.run().unwrap();
        let b = sim.run().unwrap();
        assert!((a.peak_temperature.value() - b.peak_temperature.value()).abs() < 1e-6);
        assert!((a.pdn_min_voltage.value() - b.pdn_min_voltage.value()).abs() < 1e-9);
        assert_eq!(sim.thermal_assembly_count(), 1);
    }

    #[test]
    fn pdn_solution_is_reused_until_the_rail_load_changes() {
        let last = |sim: &CoSimulation| {
            let (_, solution) = sim.pdn.as_ref().and_then(|p| p.last.as_ref()).expect("solved");
            solution.voltage_map().as_slice().as_ptr()
        };
        let bits = |f: &Field2d| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut sim = CoSimulation::new(Scenario::power7_reduced()).unwrap();
        let first = sim.run().unwrap();
        let solved = last(&sim);
        // A flow move keeps the rail load: the cached solution is reused.
        let mut slower = Scenario::power7_reduced();
        slower.total_flow = bright_units::CubicMetersPerSecond::from_milliliters_per_minute(400.0);
        sim.retarget(slower).unwrap();
        let second = sim.run().unwrap();
        assert_eq!(last(&sim), solved);
        assert_eq!(bits(&second.voltage_map), bits(&first.voltage_map));
        // A new rail load is solved again, with a fresh engine's bits.
        let mut full = Scenario::power7_reduced();
        full.rail_load = bright_floorplan::PowerScenario::full_load();
        sim.retarget(full.clone()).unwrap();
        let third = sim.run().unwrap();
        assert_ne!(last(&sim), solved);
        let cold = CoSimulation::new(full).unwrap().run().unwrap();
        assert_eq!(bits(&third.voltage_map), bits(&cold.voltage_map));
        assert!(third.pdn_min_voltage.value() < first.pdn_min_voltage.value());
    }

    #[test]
    fn retarget_refreshes_instead_of_rebuilding() {
        // Sweep flow through one engine: the thermal operator must be
        // assembled exactly once, and every report must match a cold
        // engine at the same point.
        let mut sim = CoSimulation::new(Scenario::power7_reduced()).unwrap();
        sim.run().unwrap();
        for ml_min in [400.0, 120.0, 48.0] {
            let mut s = Scenario::power7_reduced();
            s.total_flow =
                bright_units::CubicMetersPerSecond::from_milliliters_per_minute(ml_min);
            sim.retarget(s.clone()).unwrap();
            let warm = sim.run().unwrap();
            let cold = CoSimulation::new(s).unwrap().run().unwrap();
            assert!(
                (warm.peak_temperature.value() - cold.peak_temperature.value()).abs() < 1e-4,
                "{ml_min} ml/min: warm {} vs cold {}",
                warm.peak_temperature,
                cold.peak_temperature
            );
            assert!(
                (warm.pdn_min_voltage.value() - cold.pdn_min_voltage.value()).abs() < 1e-7
            );
            assert!(
                (warm.current_at_1v.value() - cold.current_at_1v.value()).abs()
                    < 1e-6 * cold.current_at_1v.value().abs().max(1.0)
            );
        }
        assert_eq!(sim.thermal_assembly_count(), 1, "retargets must not re-assemble");
        assert_eq!(sim.retarget_count(), 3);
        // The flow-cell side reuses its context just like the thermal
        // side: every retarget kept the template…
        assert_eq!(sim.cell_context_reuses(), 3);
        let cell = sim.cell_context_stats();
        // …with zero further duct-profile solves; each retarget rebuilt
        // the isothermal coefficient state, one operator per side.
        assert_eq!(cell.geometry_builds, 1, "{cell:?}");
        assert_eq!(cell.coefficient_refreshes, 3, "{cell:?}");
        assert_eq!(cell.coefficient_builds, 4, "{cell:?}");
        assert_eq!(cell.op_builds, 8, "{cell:?}");
    }

    #[test]
    fn a_point_the_flow_cell_cannot_represent_fails_the_retarget() {
        // F4's first row: 1e-300 ml/min passes `validate`, but its
        // transport operators have a zero pivot. A warm engine must
        // refuse the move, keep its previous point and still run.
        let mut sim = CoSimulation::new(Scenario::power7_reduced()).unwrap();
        let before = sim.run().unwrap();
        let mut starved = Scenario::power7_reduced();
        starved.total_flow =
            bright_units::CubicMetersPerSecond::from_milliliters_per_minute(1e-300);
        let err = sim.retarget(starved).unwrap_err();
        assert!(matches!(err, CoreError::FlowCell(_)), "{err:?}");
        assert_eq!(
            sim.scenario().total_flow.value(),
            Scenario::power7_reduced().total_flow.value()
        );
        assert_eq!(sim.retarget_count(), 0);
        let after = sim.run().unwrap();
        assert!(
            (after.current_at_1v.value() - before.current_at_1v.value()).abs()
                < 1e-6 * before.current_at_1v.value(),
            "{} vs {}",
            after.current_at_1v,
            before.current_at_1v
        );
    }

    #[test]
    fn retarget_inlet_updates_fluid_snapshot() {
        // A warm-inlet retarget must match a cold engine bitwise-closely:
        // this fails if the coolant property snapshot is not re-evaluated
        // at the new inlet temperature.
        let mut sim = CoSimulation::new(Scenario::power7_reduced()).unwrap();
        sim.run().unwrap();
        let mut warm_inlet = Scenario::power7_reduced();
        warm_inlet.inlet_temperature = bright_units::Kelvin::new(310.15);
        sim.retarget(warm_inlet.clone()).unwrap();
        let warm = sim.run().unwrap();
        let cold = CoSimulation::new(warm_inlet).unwrap().run().unwrap();
        assert!(
            (warm.peak_temperature.value() - cold.peak_temperature.value()).abs() < 1e-4,
            "warm {} vs cold {}",
            warm.peak_temperature,
            cold.peak_temperature
        );
        assert!((warm.outlet_temperature.value() - cold.outlet_temperature.value()).abs() < 1e-4);
    }

    #[test]
    fn a_fresh_cosimulation_reports_the_preconditioner_it_will_solve_with() {
        let mut sim = CoSimulation::new(Scenario::power7_reduced()).unwrap();
        assert_eq!(sim.preconditioner_spec(), bright_num::PrecondSpec::Milu0);
        assert_eq!(sim.precond_digest(), "milu0");
        assert_eq!(sim.thermal_assembly_count(), 0, "assembly waits for the first run");
        sim.run().unwrap();
        assert_eq!(sim.preconditioner_spec(), bright_num::PrecondSpec::Milu0);
        assert_eq!(sim.precond_digest(), "milu0");
        assert_eq!(sim.thermal_assembly_count(), 1);
    }

    #[test]
    fn retarget_to_incompatible_pattern_rebuilds() {
        let mut sim = CoSimulation::new(Scenario::power7_reduced()).unwrap();
        sim.run().unwrap();
        let mut finer = Scenario::power7_reduced();
        finer.thermal_columns = 44;
        finer.thermal_ny = 44;
        sim.retarget(finer.clone()).unwrap();
        let warm = sim.run().unwrap();
        let cold = CoSimulation::new(finer).unwrap().run().unwrap();
        assert!(
            (warm.peak_temperature.value() - cold.peak_temperature.value()).abs() < 1e-4
        );
        // New pattern: a second assembly was necessary.
        assert_eq!(sim.thermal_assembly_count(), 1); // fresh model, its own count
    }

    /// Profiles of `columns` thermal columns at `ny` samples: a smooth
    /// lateral hump plus seeded noise of up to `noise` K per sample.
    fn seeded_profiles(seed: u64, columns: usize, ny: usize, noise: f64) -> Vec<Vec<Kelvin>> {
        let rng = bright_num::rng::CounterRng::new(seed, 0);
        (0..columns)
            .map(|ix| {
                let hump = 2.0 * (-((ix as f64 - columns as f64 / 3.0) / 6.0).powi(2)).exp();
                (0..ny)
                    .map(|j| {
                        let u = rng.unit_f64_at((ix * ny + j) as u64);
                        Kelvin::new(300.0 + 0.05 * j as f64 + hump + noise * u)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn like_column_runs_cover_every_column_once_within_the_spread() {
        for seed in 0..16 {
            let profiles = seeded_profiles(seed, 88, 44, 0.1 * (seed % 4) as f64);
            let runs = like_column_runs(&profiles);
            // Adjacent, in order, covering 0..88 exactly once.
            assert_eq!(runs.first().map(|r| r.start), Some(0));
            assert_eq!(runs.last().map(|r| r.end), Some(88));
            for pair in runs.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "seed {seed}");
            }
            for run in &runs {
                assert!(!run.is_empty(), "seed {seed}");
                // The pointwise spread inside a run stays within ΔT.
                for j in 0..44 {
                    let column = profiles[run.clone()].iter().map(|p| p[j].value());
                    let (lo, hi) =
                        column.fold((f64::MAX, f64::MIN), |(l, h), t| (l.min(t), h.max(t)));
                    assert!(
                        hi - lo <= COLUMN_SPREAD_K,
                        "seed {seed}: {run:?} spreads {} K",
                        hi - lo
                    );
                }
                // A run stops only where the next column would break it.
                if let Some(next) = profiles.get(run.end) {
                    let widened = run.start..run.end + 1;
                    let breaks = (0..44).any(|j| {
                        let column = profiles[widened.clone()].iter().map(|p| p[j].value());
                        let (lo, hi) =
                            column.fold((f64::MAX, f64::MIN), |(l, h), t| (l.min(t), h.max(t)));
                        hi - lo > COLUMN_SPREAD_K
                    });
                    assert!(breaks, "seed {seed}: {run:?} could take {next:?}");
                }
            }
        }
    }

    #[test]
    fn uniform_profiles_form_one_run_and_scattered_ones_stay_apart() {
        let flat = vec![vec![Kelvin::new(301.0); 44]; 88];
        assert_eq!(like_column_runs(&flat), vec![0..88]);
        // Neighbours 0.3 K apart never share a run.
        let steps: Vec<Vec<Kelvin>> = (0..12)
            .map(|ix| vec![Kelvin::new(300.0 + 0.3 * ix as f64); 8])
            .collect();
        assert_eq!(like_column_runs(&steps).len(), 12);
        // A non-finite sample keeps its column alone.
        let mut holed = flat.clone();
        holed[5][3] = Kelvin::new(f64::NAN);
        let runs = like_column_runs(&holed);
        assert_eq!(runs, vec![0..5, 5..6, 6..88]);
    }

    #[test]
    fn grouped_weights_sum_to_the_columns_and_singletons_keep_their_bits() {
        let template = || cell_model_for(&Scenario::power7_reduced()).unwrap();
        let profiles = seeded_profiles(7, 22, 22, 0.2);
        let array = grouped(CellArray::new(template(), 22).unwrap(), &profiles).unwrap();
        let runs = like_column_runs(&profiles);
        assert_eq!(array.count(), 22);
        assert_eq!(array.marched_columns(), runs.len());
        assert!(runs.len() < 22, "the hump's flanks group");
        // A lone column's mean is its own profile, bit for bit.
        assert_eq!(mean_profile(&profiles[3..4]), profiles[3]);
        // When every run is one column, the grouped array is the
        // per-column array bit for bit.
        let apart: Vec<Vec<Kelvin>> = (0..6)
            .map(|ix| {
                (0..10)
                    .map(|j| Kelvin::new(300.0 + 0.5 * ix as f64 + 0.1 * j as f64))
                    .collect()
            })
            .collect();
        let one_each = grouped(CellArray::new(template(), 6).unwrap(), &apart).unwrap();
        let per_column = CellArray::new(template(), 6)
            .unwrap()
            .with_channel_temperatures(
                apart
                    .iter()
                    .cloned()
                    .map(TemperatureProfile::Sampled)
                    .collect(),
            )
            .unwrap();
        let a = one_each.solve_at_voltage(1.0).unwrap().current.value();
        let b = per_column.solve_at_voltage(1.0).unwrap().current.value();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    /// The array current at 1 V relative to a march per column, and the
    /// largest curve-point change relative to the curve's largest
    /// current, that grouping may cost (`docs/PERFORMANCE.md`).
    const GROUPING_BUDGET: f64 = 5e-7;

    /// `thermal_and_cells` at `s`, then its grouped array against one
    /// march per column at the same thermal solution: `(columns
    /// marched, |ΔI(1 V)| / I(1 V), max |ΔI| over the curve / max I)`.
    fn grouping_error(s: &Scenario) -> (usize, f64, f64) {
        let mut session = SolverSession::new(ThermalModel::iter_options());
        let (_, sol, grouped) =
            thermal_and_cells(s, &OnceLock::new(), &OnceLock::new(), &mut session).unwrap();
        let per_column = CellArray::new(grouped.template().clone(), s.thermal_columns)
            .unwrap()
            .with_channel_temperatures(
                (0..s.thermal_columns)
                    .map(|ix| TemperatureProfile::Sampled(sol.channel_profile(ix)))
                    .collect(),
            )
            .unwrap();
        let (curve_g, at_g) = grouped
            .polarization_curve_and_point(s.sweep_points, 1.0)
            .unwrap();
        let (curve_c, at_c) = per_column
            .polarization_curve_and_point(s.sweep_points, 1.0)
            .unwrap();
        let at_1v = ((at_g.current - at_c.current) / at_c.current).abs();
        let largest = curve_c
            .points()
            .iter()
            .map(|p| p.current.value())
            .fold(0.0, f64::max);
        let curve = curve_g
            .points()
            .iter()
            .zip(curve_c.points())
            .map(|(g, c)| {
                assert_eq!(g.voltage.value().to_bits(), c.voltage.value().to_bits());
                (g.current.value() - c.current.value()).abs()
            })
            .fold(0.0, f64::max)
            / largest;
        (grouped.marched_columns(), at_1v, curve)
    }

    /// The full-load map with one core at three times its density and
    /// the other three cores idle: a steep lateral gradient.
    fn one_core_load(flow_ml_min: f64) -> Scenario {
        let mut s = Scenario::power7_nominal();
        let core = bright_units::WattPerSquareMeter::from_watts_per_square_centimeter(26.7);
        for name in ["core0", "core2", "core3"] {
            s.thermal_load
                .set_block_density(name, bright_units::WattPerSquareMeter::new(0.0));
        }
        s.thermal_load.set_block_density("core1", core * 3.0);
        s.total_flow = bright_units::CubicMetersPerSecond::from_milliliters_per_minute(flow_ml_min);
        s
    }

    #[test]
    fn grouped_columns_stay_within_the_budget_of_one_march_per_column() {
        // Full resolution: the three paper points, one hot core at the
        // nominal and a throttled flow, and the Monte Carlo tests' coarse
        // grid.
        let mut coarse = Scenario::power7_reduced();
        coarse.thermal_columns = 11;
        coarse.thermal_ny = 8;
        coarse.cell_options.ny = 12;
        coarse.cell_options.nx = 24;
        coarse.total_flow = bright_units::CubicMetersPerSecond::from_milliliters_per_minute(600.0);
        let loads = [
            ("nominal", Scenario::power7_nominal()),
            ("throttled", Scenario::power7_throttled()),
            ("warm inlet", Scenario::power7_warm_inlet()),
            ("one core, 676 ml/min", one_core_load(676.0)),
            ("one core, 150 ml/min", one_core_load(150.0)),
            ("coarse grid, 600 ml/min", coarse),
        ];
        for (name, s) in loads {
            let (marched, at_1v, curve) = grouping_error(&s);
            eprintln!(
                "{name}: {marched}/{} columns marched, I(1 V) {at_1v:.2e}, curve {curve:.2e}",
                s.thermal_columns
            );
            assert!(marched < s.thermal_columns, "{name}: nothing grouped");
            assert!(at_1v <= GROUPING_BUDGET, "{name}: I(1 V) moved {at_1v:e}");
            assert!(
                curve <= GROUPING_BUDGET,
                "{name}: the curve moved {curve:e}"
            );
        }
    }

    #[test]
    fn summary_mentions_key_figures() {
        let r = reduced_report();
        let text = r.summary();
        assert!(text.contains("peak temperature"));
        assert!(text.contains("pumping"));
        assert!(text.contains("OCV"));
    }
}

