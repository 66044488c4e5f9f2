//! The coupled electro-thermal-electrical solve.

use crate::reports::{CoSimReport, OperatingPoint, YieldReport};
use crate::scenario::{PdnParams, Scenario};
use crate::CoreError;
use bright_flow::array::ChannelArray;
use bright_flow::fluid::TemperatureDependentFluid;
use bright_flowcell::array::ArrayOperatingPoint;
use bright_flowcell::options::{SolverOptions, TemperatureProfile};
use bright_flowcell::{CellArray, CellGeometry, CellModel, GeometryCache};
use bright_flow::RectChannel;
use bright_mesh::Grid2d;
use bright_num::SolverSession;
use bright_pdn::PowerGrid;
use bright_thermal::stack::{LayerSpec, MicrochannelSpec, StackConfig};
use bright_thermal::{Material, ThermalModel};
use bright_units::{Meters, Volt};
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

/// A configured co-simulation.
///
/// The thermal model and the flow-cell template (with their assembled
/// operators and solve contexts) are built once per `CoSimulation` and
/// reused by every [`CoSimulation::run`]; the PDN conductance system and
/// the thermal/PDN [`SolverSession`]s (Krylov scratch, preconditioner,
/// warm start) persist across runs too. Long-lived servers keep one
/// engine per operator pattern and move it between operating points with
/// [`CoSimulation::retarget`], which refreshes cached operators in place
/// wherever the pattern allows.
#[derive(Debug, Clone)]
pub struct CoSimulation {
    scenario: Scenario,
    thermal: OnceLock<ThermalModel>,
    template: OnceLock<CellModel>,
    /// Cached PDN system, keyed by everything that shapes its operator.
    pdn: Option<(PdnKey, PowerGrid)>,
    thermal_session: SolverSession,
    pdn_session: SolverSession,
    /// Scenarios this engine has served (1 after `new` + first `run`;
    /// grows with `retarget`).
    retargets: u64,
    /// Retargets that kept the built flow-cell solve context alive
    /// (refreshed in place instead of discarded).
    cell_context_reuses: u64,
    /// Fingerprint-keyed duct-solve cache consulted by geometry
    /// retargets. Clones share it (`Arc`), so a fleet of engine workers
    /// spawned from one co-simulation pays for each distinct sampled
    /// geometry once.
    geometry_cache: Arc<GeometryCache>,
    /// Persistent per-column array for [`CoSimulation::run_yield`]:
    /// instead of cloning the template into `thermal_columns` fresh
    /// per-channel models every sample, the array's built models are
    /// retargeted in place (geometry / ASR / flow / per-channel
    /// temperature). Retargets are bitwise-equal to cold builds, so the
    /// cached array cannot drift from a freshly constructed one.
    yield_array: Option<CellArray>,
}

impl CoSimulation {
    /// Creates a co-simulation after validating the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] for invalid scenarios.
    pub fn new(scenario: Scenario) -> Result<Self, CoreError> {
        scenario.validate()?;
        Ok(Self {
            scenario,
            thermal: OnceLock::new(),
            template: OnceLock::new(),
            pdn: None,
            thermal_session: SolverSession::new(ThermalModel::iter_options()),
            pdn_session: SolverSession::new(PowerGrid::iter_options(
                PowerGrid::default_preconditioner(),
            )),
            retargets: 0,
            cell_context_reuses: 0,
            geometry_cache: Arc::new(GeometryCache::new()),
            yield_array: None,
        })
    }

    /// Replaces the geometry cache — Monte Carlo batches hand every
    /// worker one shared cache so sampled geometries that collide on
    /// their fingerprint reuse one duct solve across workers.
    pub fn set_geometry_cache(&mut self, cache: Arc<GeometryCache>) {
        self.geometry_cache = cache;
    }

    /// The duct-solve cache geometry retargets consult.
    #[must_use]
    pub fn geometry_cache(&self) -> &Arc<GeometryCache> {
        &self.geometry_cache
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

    /// Number of retargets that kept the built flow-cell solve context
    /// (geometry + factored transport operators) and refreshed it in
    /// place — the electrochemical counterpart of the thermal
    /// refresh-vs-reassemble accounting.
    #[inline]
    pub fn cell_context_reuses(&self) -> u64 {
        self.cell_context_reuses
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

    /// Statistics of the PDN solver session.
    #[inline]
    pub fn pdn_session_stats(&self) -> bright_num::SessionStats {
        self.pdn_session.stats()
    }

    /// Preconditioner digest of the thermal solve path — the plain
    /// spec name (`"ssor"`), or the multigrid hierarchy digest
    /// (`"mg(4 levels, coarse 144, chebyshev)"`) once a multigrid
    /// solve has run. The engine stamps this into
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
    /// thermal/PDN solves, or `None` when both were clean first
    /// attempts. Each session resets its rung on every clean solve, so
    /// a stale recovery never leaks into a later request's report.
    pub(crate) fn recovery_digest(&self) -> Option<String> {
        let thermal = self.thermal_session.last_recovery().describe();
        let pdn = self.pdn_session.last_recovery().describe();
        match (thermal, pdn) {
            (None, None) => None,
            (Some(t), None) => Some(format!("thermal: {t}")),
            (None, Some(p)) => Some(format!("pdn: {p}")),
            (Some(t), Some(p)) => Some(format!("thermal: {t}; pdn: {p}")),
        }
    }

    /// The cached thermal model, built on first use.
    fn thermal_model(&self) -> Result<&ThermalModel, CoreError> {
        bright_num::lazy::get_or_try_init(&self.thermal, || thermal_model_for(&self.scenario))
    }

    /// Number of full thermal-operator assemblies this engine has paid
    /// for so far (0 before the first run; stays at 1 across
    /// pattern-compatible retargets).
    pub fn thermal_assembly_count(&self) -> usize {
        self.thermal.get().map_or(0, ThermalModel::assembly_count)
    }

    /// The cached flow-cell channel template, built on first use.
    fn cell_template(&self) -> Result<&CellModel, CoreError> {
        bright_num::lazy::get_or_try_init(&self.template, || cell_model_for(&self.scenario))
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
    /// * same cell solver options → the flow-cell template's solve
    ///   context is **refreshed in place** ([`CellModel::retarget_flow`]
    ///   / [`CellModel::retarget_temperature`]): the duct velocity
    ///   solution and the transport-operator storage survive every
    ///   flow/inlet move (observable via
    ///   [`CoSimulation::cell_context_reuses`] and
    ///   [`CoSimulation::cell_context_stats`]).
    ///
    /// Sessions (scratch + warm starts) always survive; warm starts
    /// carry over, which is exactly right for sweeps moving gradually
    /// through the design space.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidScenario`] for invalid scenarios; thermal
    /// refresh errors as in [`ThermalModel::refresh_microchannels`]. On
    /// error the engine keeps its previous scenario; a failed cell
    /// refresh additionally drops the template so the next run rebuilds
    /// it cold (still at the previous scenario).
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
        if !cell_shape_compatible(&self.scenario.cell_options, &scenario.cell_options) {
            // Different transport grids / velocity model: a genuinely
            // new cell geometry context is required.
            self.template = OnceLock::new();
        } else if self.template.get().is_some() {
            // Same transport shape: move the built template in place
            // (geometry, contact ASR, flow, temperature — only what
            // actually changed is touched; an equal-coefficient
            // retarget costs nothing at all).
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
    /// # Errors
    ///
    /// Propagates sub-model failures; returns
    /// [`CoreError::SupplyDeficit`] when the rail demand exceeds the
    /// array's capability (reported, not fatal, via
    /// [`CoSimReport::operating_point`] being `None` — the error is only
    /// returned for genuinely broken configurations).
    pub fn run(&mut self) -> Result<CoSimReport, CoreError> {
        // Ensure the cached models exist, then work through direct field
        // borrows (the sessions need disjoint `&mut` access). Warming
        // the template builds its solve context once: every array clone
        // below carries it, and retargets refresh it in place.
        self.thermal_model()?;
        self.cell_template()?.warm()?;
        let s = &self.scenario;

        // 1. Thermal solve under the full chip load, through the
        //    persistent session (warm-started across runs/retargets).
        let thermal = self.thermal.get().expect("built above");
        // Adopt the model's size-aware preconditioner (multigrid on
        // scaled stacked-tier grids, SSOR at paper size); a no-op when
        // the spec is unchanged, so warm sessions keep their hierarchy.
        self.thermal_session
            .set_preconditioner(thermal.solve_options().preconditioner);
        let power_map = s.thermal_load.rasterize(&s.floorplan, thermal.grid())?;
        let chip_power = power_map.integral();
        let thermal_sol = thermal
            .solve_steady_with_sources_warm(&[(0, &power_map)], &mut self.thermal_session)?;

        // 2. Per-channel temperature profiles into the electrochemistry.
        // Channels sharing a thermal column are identical, so the coupled
        // array is solved per column and scaled by the group size. The
        // template (and its cached solve context) is shared by steps 2, 3
        // and 6.
        let template = self.template.get().expect("built above");
        let group = s.channel_count / s.thermal_columns;
        let array = if s.couple_temperature {
            let profiles: Vec<TemperatureProfile> = (0..s.thermal_columns)
                .map(|ix| TemperatureProfile::Sampled(thermal_sol.channel_profile(ix)))
                .collect();
            CellArray::new(template.clone(), s.thermal_columns)?
                .with_channel_temperatures(profiles)?
        } else {
            CellArray::new(template.clone(), s.thermal_columns)?
        };

        // 3. Array characteristics (scaled from columns to channels).
        let curve = array.polarization_curve(s.sweep_points)?.scaled_parallel(group);
        let ocv = curve.open_circuit_voltage();
        let at_1v_cols = array.solve_at_voltage(1.0)?;
        let at_1v_current = at_1v_cols.current * group as f64;
        let at_1v_power = at_1v_cols.power * group as f64;
        let isothermal_at_1v = if s.couple_temperature {
            CellArray::new(template.clone(), s.channel_count)?.solve_at_voltage(1.0)?
        } else {
            // Without thermal coupling the array already runs at the
            // inlet temperature: the isothermal baseline is the solve
            // above (scaled to the full channel count), so skip the
            // redundant full-array re-solve.
            ArrayOperatingPoint {
                voltage: at_1v_cols.voltage,
                current: at_1v_current,
                power: at_1v_power,
            }
        };
        let thermal_boost_percent = if isothermal_at_1v.current.value() > 0.0 {
            (at_1v_current.value() / isothermal_at_1v.current.value() - 1.0) * 100.0
        } else {
            0.0
        };

        // 4. Operating point against the rail demand through the VRM.
        let rail_power = s.rail_load.total_power(&s.floorplan)?;
        let operating_point = self.find_operating_point(&curve, rail_power.value())?;

        // 5. Cache-rail IR-drop map at the VRM output, through the
        //    cached conductance system (rebuilt only when its key
        //    changes) and the persistent PDN session.
        let s = &self.scenario;
        let key = PdnKey::of(s);
        match &mut self.pdn {
            Some((cached_key, pdn)) if *cached_key == key => {
                // Same conductance system: swap the load RHS only.
                let rail_map = s.rail_load.rasterize(&s.floorplan, pdn.grid())?;
                pdn.set_power_density(&rail_map)?;
            }
            cache => *cache = Some((key, Self::build_pdn(s)?)),
        }
        let pdn = &self.pdn.as_ref().expect("cached above").1;
        self.pdn_session
            .set_preconditioner(pdn.preferred_preconditioner());
        let pdn_sol = pdn.solve_warm(&mut self.pdn_session)?;

        // 6. Hydraulics (reusing the step-2 template's geometry).
        let channel = *template.geometry().channel();
        let pitch = Meters::new(s.floorplan.width().value() / s.channel_count as f64);
        let hydraulic_array = ChannelArray::new(channel, s.channel_count, pitch)?;
        let props = TemperatureDependentFluid::vanadium_electrolyte()
            .at(s.inlet_temperature)
            .map_err(|e| CoreError::Fluidics(e.to_string()))?;
        let pressure_drop = hydraulic_array.pressure_drop(&props, s.total_flow);
        let pumping_power =
            hydraulic_array.pumping_power(&props, s.total_flow, s.pump_efficiency)?;

        Ok(CoSimReport {
            chip_power: bright_units::Watt::new(chip_power),
            rail_power,
            peak_temperature: thermal_sol.max_temperature(),
            outlet_temperature: thermal_sol.outlet_mean(),
            inlet_temperature: s.inlet_temperature,
            array_ocv: ocv,
            current_at_1v: at_1v_current,
            power_at_1v: at_1v_power,
            isothermal_current_at_1v: isothermal_at_1v.current,
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

    /// Clears both sessions' warm starts so the next solves are
    /// history-independent. The Monte Carlo engine calls this before
    /// every sample: with cold Krylov starts, retarget + run is
    /// bitwise-equal to a cold-built engine at the same scenario
    /// (operator value refreshes are property-tested bitwise-equal to
    /// cold stamps), which is what makes Monte Carlo reports chunk- and
    /// thread-count independent.
    pub fn reset_warm_starts(&mut self) {
        self.thermal_session.reset_warm_start();
        self.pdn_session.reset_warm_start();
    }

    /// Runs the lightweight yield-analysis solve: thermal field,
    /// coupled array at the 1 V rail point, PDN droop and hydraulics —
    /// skipping the polarization sweep, the isothermal baseline and the
    /// operating-point ladder that dominate [`CoSimulation::run`] but
    /// feed none of the Monte Carlo metrics. Every cache and retarget
    /// path is shared with `run`, and the engine's geometry cache is
    /// seeded with the template's context so sampled geometries that
    /// return to a seen fingerprint skip their duct solve.
    ///
    /// # Errors
    ///
    /// As [`CoSimulation::run`].
    pub fn run_yield(&mut self) -> Result<YieldReport, CoreError> {
        self.thermal_model()?;
        self.cell_template()?.warm()?;
        self.geometry_cache
            .warm_from(self.template.get().expect("built above"))?;
        let s = &self.scenario;

        // Thermal field under the full chip load.
        let thermal = self.thermal.get().expect("built above");
        self.thermal_session
            .set_preconditioner(thermal.solve_options().preconditioner);
        let power_map = s.thermal_load.rasterize(&s.floorplan, thermal.grid())?;
        let chip_power = power_map.integral();
        let thermal_sol = thermal
            .solve_steady_with_sources_warm(&[(0, &power_map)], &mut self.thermal_session)?;

        // Coupled array at the 1 V rail point only, through the
        // persistent per-column array: cached per-channel models are
        // retargeted in place to the sample's geometry / ASR / flow /
        // temperature profiles instead of being cloned fresh.
        let template = self.template.get().expect("built above");
        let group = s.channel_count / s.thermal_columns;
        let at_1v_cols = if s.couple_temperature {
            let profiles: Vec<TemperatureProfile> = (0..s.thermal_columns)
                .map(|ix| TemperatureProfile::Sampled(thermal_sol.channel_profile(ix)))
                .collect();
            let geometry = cell_geometry_for(s)?;
            let contact_asr = s.cell_options.contact_asr;
            let per_channel = s.per_channel_flow();
            let reusable = matches!(
                &self.yield_array,
                Some(a) if a.count() == s.thermal_columns
                    && cell_shape_compatible(a.template().options(), template.options())
            );
            if reusable {
                let cache = Arc::clone(&self.geometry_cache);
                let array = self.yield_array.as_mut().expect("checked above");
                let refreshed = array
                    .retarget_models(|m| {
                        m.retarget_geometry(geometry, Some(&cache))?;
                        m.retarget_contact_asr(contact_asr)?;
                        if m.flow().value() != per_channel.value() {
                            m.retarget_flow(per_channel)?;
                        }
                        Ok(())
                    })
                    .and_then(|()| array.retarget_channel_temperatures(profiles));
                if let Err(e) = refreshed {
                    // Failed mutators clear their contexts; drop the
                    // array so the next sample rebuilds it cold.
                    self.yield_array = None;
                    return Err(e.into());
                }
            } else {
                self.yield_array = Some(
                    CellArray::new(template.clone(), s.thermal_columns)?
                        .with_channel_temperatures(profiles)?,
                );
            }
            self.yield_array
                .as_ref()
                .expect("set above")
                .solve_at_voltage(1.0)?
        } else {
            CellArray::new(template.clone(), s.thermal_columns)?.solve_at_voltage(1.0)?
        };
        let at_1v_current = at_1v_cols.current * group as f64;
        let at_1v_power = at_1v_cols.power * group as f64;

        // PDN droop through the cached conductance system and its
        // cached banded Cholesky factor: the matrix never depends on
        // the load, so per-sample cost is two triangular sweeps — no
        // iteration, bitwise-deterministic regardless of solve history.
        let s = &self.scenario;
        let key = PdnKey::of(s);
        match &mut self.pdn {
            Some((cached_key, pdn)) if *cached_key == key => {
                let rail_map = s.rail_load.rasterize(&s.floorplan, pdn.grid())?;
                pdn.set_power_density(&rail_map)?;
            }
            cache => *cache = Some((key, Self::build_pdn(s)?)),
        }
        let pdn = &self.pdn.as_ref().expect("cached above").1;
        let pdn_sol = pdn.solve_direct()?;

        // Hydraulics at the sampled channel geometry.
        let template = self.template.get().expect("built above");
        let channel = *template.geometry().channel();
        let pitch = Meters::new(s.floorplan.width().value() / s.channel_count as f64);
        let hydraulic_array = ChannelArray::new(channel, s.channel_count, pitch)?;
        let props = TemperatureDependentFluid::vanadium_electrolyte()
            .at(s.inlet_temperature)
            .map_err(|e| CoreError::Fluidics(e.to_string()))?;
        let pressure_drop = hydraulic_array.pressure_drop(&props, s.total_flow);
        let pumping_power =
            hydraulic_array.pumping_power(&props, s.total_flow, s.pump_efficiency)?;

        Ok(YieldReport {
            chip_power: bright_units::Watt::new(chip_power),
            peak_temperature: thermal_sol.max_temperature(),
            outlet_temperature: thermal_sol.outlet_mean(),
            current_at_1v: at_1v_current,
            power_at_1v: at_1v_power,
            pdn_min_voltage: pdn_sol.min_voltage(),
            pressure_drop,
            pumping_power,
            junction_map: thermal_sol.junction_map().clone(),
        })
    }

    /// Builds the PDN conductance system for the current scenario, with
    /// the rail load already stamped into the RHS.
    fn build_pdn(s: &Scenario) -> Result<PowerGrid, CoreError> {
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
        let mut best: Option<OperatingPoint> = None;
        let mut max_available = 0.0_f64;
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
            max_available = max_available.max(supply);
            if supply >= demand {
                best = Some(OperatingPoint {
                    array_voltage: Volt::new(v),
                    array_current: current,
                    array_power: bright_units::Watt::new(supply),
                    vrm_efficiency: eff,
                    rail_voltage: s.vrm.output_voltage(),
                    rail_power: bright_units::Watt::new(rail_power),
                });
                break;
            }
        }
        Ok(best)
    }
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

/// `true` when two option sets describe the same transport shape —
/// grids, velocity model and physics switches. The contact ASR is
/// deliberately excluded: it is a coefficient
/// ([`CellModel::retarget_contact_asr`]), not a shape.
pub(crate) fn cell_shape_compatible(a: &SolverOptions, b: &SolverOptions) -> bool {
    a.ny == b.ny && a.nx == b.nx && a.velocity == b.velocity && a.track_products == b.track_products
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

/// Retargets a built cell model to a scenario's coefficients in place
/// (channel geometry, contact ASR, per-channel flow, inlet
/// temperature), touching only what actually changed. Geometry moves
/// consult `cache` so fingerprint collisions reuse a previous duct
/// solve. Shared by [`CoSimulation::retarget`] and the engine's
/// polarization workers so their compare-and-retarget semantics cannot
/// drift. The scenario's `cell_options` must be shape-compatible with
/// the model's (the callers guarantee this via their pattern keys /
/// [`cell_shape_compatible`] checks).
///
/// # Errors
///
/// Refresh errors as in the `CellModel::retarget_*` mutators; the
/// model's context is cleared by the failed mutator, and callers drop
/// the model itself.
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
        // side: every retarget refreshed the template in place…
        assert_eq!(sim.cell_context_reuses(), 3);
        let cell = sim.cell_context_stats();
        // …with zero further duct-profile solves and zero new transport
        // operator builds (the acceptance criterion of the PR-5 split).
        assert_eq!(cell.geometry_builds, 1, "{cell:?}");
        assert_eq!(cell.op_builds, 2, "{cell:?}");
        assert_eq!(cell.coefficient_refreshes, 3, "{cell:?}");
        assert!(cell.op_refreshes >= 6, "{cell:?}");
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

    #[test]
    fn summary_mentions_key_figures() {
        let r = reduced_report();
        let text = r.summary();
        assert!(text.contains("peak temperature"));
        assert!(text.contains("pumping"));
        assert!(text.contains("OCV"));
    }
}

