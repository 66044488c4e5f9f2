//! The coupled flow-cell solver.
//!
//! For a trial terminal voltage `V`, the solver marches down the channel;
//! at every station the local current density `i(x)` must satisfy the
//! voltage balance (paper Section II-A):
//!
//! ```text
//! V = U_eq(T) − η_act+mt,anode(i) + η_act+mt,cathode(i) − i·ASR(T)
//! ```
//!
//! where the activation and mass-transfer overpotentials come from the
//! Butler–Volmer inversion with *surface* concentrations, which the
//! transport marcher exposes as exact affine functions of the wall flux.
//!
//! Every solve is one station-major march over a voltage ladder (a
//! single voltage is a ladder of one). Each voltage is a lane of the
//! transport marchers; at every station:
//!
//! 1. both streams advance all lanes through the station's factored
//!    transport operators in one multi-lane back-substitution;
//! 2. each lane solves its scalar balance with a bracketed Brent's
//!    method, starting from residuals the station has already evaluated
//!    and bracketing around the previous lane's current density at this
//!    station (the neighbouring voltage of the sweep);
//! 3. all lanes commit their wall fluxes, advancing both streams'
//!    concentration fields.
//!
//! Lane `k` performs exactly the floating-point operations of marching
//! voltage `k` alone with lane `k−1`'s profile as its hint, so a sweep's
//! points are bitwise-independent of how many voltages march together.
//! A march may end in a point lane whose hint chain restarts cold: the
//! array marches a column's polarization ladder plus its rail point
//! together this way, and the point lane performs exactly the operations
//! of [`CellModel::solve_at_voltage`] at that voltage.

use crate::geometry::CellGeometry;
use crate::options::{SolverOptions, TemperatureProfile, VelocityModel};
use crate::polarization::{PolarizationCurve, PolarizationPoint};
use crate::transport::{LaneMarcher, OpBlock, StationOp, StationResponse};
use crate::FlowCellError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use bright_echem::electrolyte::area_specific_resistance;
use bright_echem::temperature::{diffusivity_law, rate_constant_law};
use bright_echem::{
    Arrhenius, CellChemistry, HalfCellChemistry, InversionConstants, InversionStamp, SurfaceState,
};
use bright_flow::profile::{plane_poiseuille, DuctFlowSolution};
use bright_num::roots::{brent, brent_bracketed, RootOptions};
use bright_units::constants::FARADAY;
use bright_units::{
    Ampere, AmperePerSquareMeter, CubicMetersPerSecond, Kelvin, MetersPerSecondRate,
    MolePerCubicMeter, SquareMeters, Volt, Watt,
};

/// A configured single-channel flow cell.
#[derive(Debug)]
pub struct CellModel {
    geometry: CellGeometry,
    chemistry: CellChemistry,
    flow: CubicMetersPerSecond,
    temperature: TemperatureProfile,
    options: SolverOptions,
    /// Geometry-keyed context (grid spacings + normalized velocity
    /// shape): survives every coefficient retarget and is *shared*
    /// across models of the same geometry — `with_temperature` siblings,
    /// clones and array channels all point at one duct solution.
    geo: OnceLock<Arc<GeometryContext>>,
    /// Lazily built coefficient state, shared by every solve on this
    /// model. The `retarget_*` mutators drop it; the next use builds it
    /// again from `geo`.
    ctx: OnceLock<SolveContext>,
    /// Context work this model paid for.
    counters: Counters,
}

impl Clone for CellModel {
    fn clone(&self) -> Self {
        // A clone shares the geometry `Arc` and the built state but paid
        // for no duct solve: its geometry count starts at zero (matching
        // a `with_temperature` sibling), the other counts carry over.
        Self {
            geometry: self.geometry,
            chemistry: self.chemistry.clone(),
            flow: self.flow,
            temperature: self.temperature.clone(),
            options: self.options.clone(),
            geo: self.geo.clone(),
            ctx: self.ctx.clone(),
            counters: Counters::of(CellContextStats {
                geometry_builds: 0,
                ..self.context_stats()
            }),
        }
    }
}

/// Per-station chemistry snapshot (temperature-resolved): only what the
/// station balance and the operator stamps read.
#[derive(Debug, Clone, Copy)]
struct StationChem {
    ocv: f64,
    asr: f64,
    /// Electrons per reaction of the negative / positive couple.
    n_neg: f64,
    n_pos: f64,
    /// Species diffusivity of the negative / positive stream.
    d_neg: f64,
    d_pos: f64,
    /// Butler–Volmer inversion constants of the negative / positive
    /// electrode at the station temperature.
    neg_bv: InversionConstants,
    pos_bv: InversionConstants,
}

/// What resolving one electrode at a station temperature takes, built
/// once per [`CellModel::compute_stations`]: the Arrhenius laws of its
/// rate constant and diffusivity (those of
/// [`CellChemistry::at_temperature`]) and its inversion stamp, so a
/// station evaluates two exponentials and no `powf`, and clones nothing.
struct ElectrodeLaws {
    rate: Arrhenius,
    diffusivity: Arrhenius,
    stamp: InversionStamp,
}

impl ElectrodeLaws {
    fn of(half: &HalfCellChemistry, t_ref: Kelvin) -> Result<Self, FlowCellError> {
        Ok(Self {
            rate: rate_constant_law(half.kinetics.rate_constant().value(), t_ref)?,
            diffusivity: diffusivity_law(half.diffusivity.value(), t_ref)?,
            stamp: half.kinetics.inversion_stamp(),
        })
    }

    /// The diffusivity and the inversion constants at `t`: bitwise those
    /// of the electrode of [`CellChemistry::at_temperature`]`(t)`.
    fn at(&self, t: Kelvin) -> Result<(f64, InversionConstants), FlowCellError> {
        let rate = MetersPerSecondRate::new(self.rate.at(t)?);
        let diffusivity = self.diffusivity.at(t)?;
        Ok((diffusivity, self.stamp.at(rate, t)?))
    }
}

/// Counters of the geometry/coefficient context split. All values are
/// monotonic over a model's life and scoped to work *this model paid
/// for*: an inherited (shared) geometry context does not count as a
/// build here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellContextStats {
    /// Geometry contexts built by this model (duct-profile solves /
    /// velocity-shape evaluations). Stays 0 when the geometry was
    /// inherited from another model (a `with_temperature` sibling or a
    /// plain clone); grows only with a geometry retarget the
    /// [`GeometryCache`] could not serve — every other retarget keeps it.
    pub geometry_builds: u64,
    /// Coefficient-state builds: the first use, plus one after each
    /// retarget that dropped a built state.
    pub coefficient_builds: u64,
    /// Retargets that dropped a built coefficient state.
    pub coefficient_refreshes: u64,
    /// Transport operators factored by those builds: one per run of
    /// equal diffusivity per stream, so 2 per isothermal build.
    pub op_builds: u64,
}

/// The counters behind [`CellContextStats`]. The context is built
/// lazily behind `&self`, so they are atomics on the model itself: a
/// dropped or failed context takes no count with it.
#[derive(Debug, Default)]
struct Counters {
    geometry_builds: AtomicU64,
    coefficient_builds: AtomicU64,
    coefficient_refreshes: AtomicU64,
    op_builds: AtomicU64,
}

impl Counters {
    fn of(stats: CellContextStats) -> Self {
        Self {
            geometry_builds: AtomicU64::new(stats.geometry_builds),
            coefficient_builds: AtomicU64::new(stats.coefficient_builds),
            coefficient_refreshes: AtomicU64::new(stats.coefficient_refreshes),
            op_builds: AtomicU64::new(stats.op_builds),
        }
    }

    fn stats(&self) -> CellContextStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CellContextStats {
            geometry_builds: get(&self.geometry_builds),
            coefficient_builds: get(&self.coefficient_builds),
            coefficient_refreshes: get(&self.coefficient_refreshes),
            op_builds: get(&self.op_builds),
        }
    }
}

/// Geometry-keyed half of the solve context: everything that depends
/// only on the cell geometry and the discretization options. Immutable
/// once built, shared via `Arc` across coefficient retargets, sibling
/// models (`with_temperature`, clones) and array channels.
#[derive(Debug)]
pub(crate) struct GeometryContext {
    nx: usize,
    dx: f64,
    dy: f64,
    half_width: f64,
    electrode_length: f64,
    /// Normalized (unit-mean-velocity) height-averaged streamwise
    /// profile at the `ny` half-width cell centers, wall-first. The
    /// expensive duct Poisson solve lives here; coefficient states only
    /// rescale it by the mean velocity.
    shape_half: Vec<f64>,
}

/// Fingerprint of everything a [`GeometryContext`] is built from: the
/// channel dimensions and electrode coverage (bit patterns, so the key
/// is exact) plus the discretization/velocity half of the solver
/// options. Two models with equal keys build bitwise-identical
/// geometry contexts and can share one duct solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GeometryKey {
    width_bits: u64,
    height_bits: u64,
    length_bits: u64,
    coverage_bits: u64,
    ny: usize,
    nx: usize,
    velocity_kind: u8,
    nz: usize,
}

impl GeometryKey {
    fn new(geometry: &CellGeometry, options: &SolverOptions) -> Self {
        let (ny, nx, velocity_kind, nz) = options.geometry_fingerprint();
        let ch = geometry.channel();
        Self {
            width_bits: ch.width().value().to_bits(),
            height_bits: ch.height().value().to_bits(),
            length_bits: ch.length().value().to_bits(),
            coverage_bits: geometry.electrode_coverage().to_bits(),
            ny,
            nx,
            velocity_kind,
            nz,
        }
    }
}

/// A concurrent, fingerprint-keyed cache of built geometry contexts.
///
/// Monte Carlo geometry sampling retargets a cached cell model across
/// thousands of channel dimensions; when the sampled dimensions are
/// quantized to a manufacturing grid, fingerprints collide constantly
/// and the expensive duct Poisson solve should be paid once per
/// *distinct* geometry, not once per sample. Workers share one cache
/// (it is `Sync`); [`CellModel::retarget_geometry`] consults it before
/// solving the duct, and the model's next use builds its coefficient
/// state from the context it was served. Hit/miss counters feed
/// `McStats`.
#[derive(Debug, Default)]
pub struct GeometryCache {
    map: std::sync::Mutex<std::collections::HashMap<GeometryKey, Arc<GeometryContext>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl GeometryCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Duct-solve reuses served so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Geometry builds the cache could not avoid.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct geometry contexts held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().expect("geometry cache poisoned").len()
    }

    /// `true` when no context has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seeds the cache with `model`'s built (or herewith built)
    /// geometry context, so later retargets back to this geometry hit.
    /// Neither counter moves: seeding is not a served request.
    ///
    /// # Errors
    ///
    /// Propagates duct-solver errors when the model had no context yet.
    pub fn warm_from(&self, model: &CellModel) -> Result<(), FlowCellError> {
        let geo = Arc::clone(model.geometry_context()?);
        let key = GeometryKey::new(&model.geometry, &model.options);
        self.map
            .lock()
            .expect("geometry cache poisoned")
            .entry(key)
            .or_insert(geo);
        Ok(())
    }

    /// Returns the cached context for the fingerprint of `(geometry,
    /// options)`, or builds, caches and returns it. The boolean is
    /// `true` when `build` ran (the caller paid for a duct solve).
    fn get_or_build(
        &self,
        geometry: &CellGeometry,
        options: &SolverOptions,
        build: impl FnOnce() -> Result<GeometryContext, FlowCellError>,
    ) -> Result<(Arc<GeometryContext>, bool), FlowCellError> {
        let key = GeometryKey::new(geometry, options);
        if let Some(hit) = self.map.lock().expect("geometry cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(hit), false));
        }
        // Build outside the lock — the duct solve is the long pole and
        // must not serialize unrelated lookups. A racing builder of the
        // same key wins the insert; both results are bitwise-identical
        // (pure functions of the fingerprint), so either Arc serves.
        let built = Arc::new(build()?);
        let mut map = self.map.lock().expect("geometry cache poisoned");
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&built));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((Arc::clone(entry), true))
    }
}

/// One electrode stream's factored transport operators: an [`OpBlock`]
/// with one operator per run of equal diffusivity, plus the station →
/// operator map (consecutive equal-diffusivity stations share one
/// operator, so the isothermal case holds exactly one per side).
#[derive(Debug, Clone)]
struct OpBank {
    block: OpBlock,
    station_op: Vec<usize>,
}

impl OpBank {
    /// Stamps the bank for per-station diffusivities `ds` over the
    /// given velocity profile.
    fn build(velocity: &[f64], dx: f64, dy: f64, ds: &[f64]) -> Result<Self, FlowCellError> {
        let mut run_d = Vec::new();
        let mut station_op = Vec::with_capacity(ds.len());
        for (k, &d) in ds.iter().enumerate() {
            if k == 0 || ds[k - 1] != d {
                run_d.push(d);
            }
            station_op.push(run_d.len() - 1);
        }
        let mut block = OpBlock::new();
        block.stamp(velocity, dx, dy, &run_d)?;
        Ok(Self { block, station_op })
    }

    /// The operator serving `station`.
    #[inline]
    fn op(&self, station: usize) -> StationOp<'_> {
        self.block.op(self.station_op[station])
    }
}

/// The coefficient state every solve marches through: the shared
/// geometry context plus what depends on the flow rate, the inlets, the
/// temperature profile and the contact ASR, built from the geometry
/// context at the model's current parameters.
#[derive(Debug, Clone)]
struct SolveContext {
    geo: Arc<GeometryContext>,
    stations: Vec<StationChem>,
    anode: OpBank,
    cathode: OpBank,
    /// Marcher skeletons: inlet-filled, never-marched one-lane
    /// prototypes every march widens to its lane count (skips per-solve
    /// validation and re-derivation).
    anode_proto: LaneMarcher,
    cathode_proto: LaneMarcher,
}

/// The solved state of a cell at one operating point.
#[derive(Debug, Clone)]
pub struct CellSolution {
    voltage: Volt,
    current: Ampere,
    current_density: Vec<f64>,
    eta_anode: Vec<f64>,
    eta_cathode: Vec<f64>,
    electrode_area: SquareMeters,
    transport_limited_stations: usize,
}

impl CellSolution {
    /// Terminal voltage.
    #[inline]
    pub fn voltage(&self) -> Volt {
        self.voltage
    }

    /// Delivered current.
    #[inline]
    pub fn current(&self) -> Ampere {
        self.current
    }

    /// Delivered power `V·I`.
    #[inline]
    pub fn power(&self) -> Watt {
        self.voltage * self.current
    }

    /// Local current density per marching station (A/m²), inlet to outlet.
    pub fn current_density_profile(&self) -> &[f64] {
        &self.current_density
    }

    /// Mean current density over the electrode.
    pub fn mean_current_density(&self) -> AmperePerSquareMeter {
        self.current / self.electrode_area
    }

    /// Anode overpotential per station (V).
    pub fn anode_overpotential_profile(&self) -> &[f64] {
        &self.eta_anode
    }

    /// Cathode overpotential per station (V, negative in discharge).
    pub fn cathode_overpotential_profile(&self) -> &[f64] {
        &self.eta_cathode
    }

    /// Electrode geometric area used to convert current ↔ density.
    #[inline]
    pub fn electrode_area(&self) -> SquareMeters {
        self.electrode_area
    }

    /// Number of stations clamped at the local transport limit. Non-zero
    /// values indicate operation on the limiting-current plateau.
    #[inline]
    pub fn transport_limited_stations(&self) -> usize {
        self.transport_limited_stations
    }
}

impl CellModel {
    /// Creates a cell model.
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] for invalid options or a
    /// non-positive flow rate.
    pub fn new(
        geometry: CellGeometry,
        chemistry: CellChemistry,
        flow: CubicMetersPerSecond,
        temperature: TemperatureProfile,
        options: SolverOptions,
    ) -> Result<Self, FlowCellError> {
        options.validate()?;
        check_flow(flow)?;
        temperature.resample(options.nx)?;
        Ok(Self {
            geometry,
            chemistry,
            flow,
            temperature,
            options,
            geo: OnceLock::new(),
            ctx: OnceLock::new(),
            counters: Counters::default(),
        })
    }

    /// The cell geometry.
    #[inline]
    pub fn geometry(&self) -> &CellGeometry {
        &self.geometry
    }

    /// The cell chemistry.
    #[inline]
    pub fn chemistry(&self) -> &CellChemistry {
        &self.chemistry
    }

    /// Per-channel volumetric flow rate.
    #[inline]
    pub fn flow(&self) -> CubicMetersPerSecond {
        self.flow
    }

    /// The temperature profile seen by the cell.
    #[inline]
    pub fn temperature(&self) -> &TemperatureProfile {
        &self.temperature
    }

    /// Solver options.
    #[inline]
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Returns a copy with a different temperature profile (used by the
    /// electro-thermal co-simulation loop). The copy **shares** this
    /// model's geometry context (velocity shape / duct solution) when it
    /// has been built — temperature is a coefficient, not geometry.
    ///
    /// # Errors
    ///
    /// As [`CellModel::new`].
    pub fn with_temperature(&self, temperature: TemperatureProfile) -> Result<Self, FlowCellError> {
        let mut model = Self::new(
            self.geometry,
            self.chemistry.clone(),
            self.flow,
            temperature,
            self.options.clone(),
        )?;
        model.geo = self.geo.clone();
        Ok(model)
    }

    /// Points this model at a different flow rate. The geometry context
    /// (duct solution, grid) is kept; the coefficient state is dropped
    /// and the next use builds it again, so subsequent solves are
    /// bitwise-equal to a cold model built at the new flow.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] for a non-positive flow (the
    /// model is unchanged).
    pub fn retarget_flow(&mut self, flow: CubicMetersPerSecond) -> Result<(), FlowCellError> {
        check_flow(flow)?;
        self.flow = flow;
        self.drop_state();
        Ok(())
    }

    /// Points this model at a different temperature profile, keeping
    /// the geometry context and dropping the coefficient state, like
    /// [`CellModel::retarget_flow`].
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] for a non-physical profile (the
    /// model is unchanged).
    pub fn retarget_temperature(
        &mut self,
        temperature: TemperatureProfile,
    ) -> Result<(), FlowCellError> {
        temperature.resample(self.options.nx)?;
        self.temperature = temperature;
        self.drop_state();
        Ok(())
    }

    /// Points this model at a different channel geometry: the geometry
    /// context is swapped (served from `cache` when the fingerprint
    /// matches a previous build — the duct solve is then *not*
    /// repeated) and the coefficient state dropped, so subsequent solves
    /// are bitwise-equal to a cold model built at the new geometry. A
    /// retarget to the current geometry is a no-op.
    ///
    /// # Errors
    ///
    /// Duct-solver errors on a cache miss. The model then holds the new
    /// geometry and no context, so its next use fails the same way.
    pub fn retarget_geometry(
        &mut self,
        geometry: CellGeometry,
        cache: Option<&GeometryCache>,
    ) -> Result<(), FlowCellError> {
        if geometry == self.geometry {
            return Ok(());
        }
        self.geometry = geometry;
        self.geo = OnceLock::new();
        self.drop_state();
        if let Some(cache) = cache {
            let (geo, paid) =
                cache.get_or_build(&self.geometry, &self.options, || self.build_geometry())?;
            if paid {
                self.counters
                    .geometry_builds
                    .fetch_add(1, Ordering::Relaxed);
            }
            let _ = self.geo.set(geo);
        }
        self.warm_geometry()
    }

    /// Points this model at a different contact/electrode
    /// area-specific resistance (Ω·m²), keeping the geometry context and
    /// dropping the coefficient state, like [`CellModel::retarget_flow`].
    /// A retarget to the current value is a no-op.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] for a negative or non-finite
    /// value (the model is unchanged).
    pub fn retarget_contact_asr(&mut self, contact_asr: f64) -> Result<(), FlowCellError> {
        if !(contact_asr >= 0.0 && contact_asr.is_finite()) {
            return Err(FlowCellError::InvalidConfig(format!(
                "contact ASR must be non-negative, got {contact_asr}"
            )));
        }
        if contact_asr == self.options.contact_asr {
            return Ok(());
        }
        self.options.contact_asr = contact_asr;
        self.drop_state();
        Ok(())
    }

    /// Drops the built coefficient state, counting a refresh when there
    /// was one; the next use builds it again at the new parameters.
    fn drop_state(&mut self) {
        if self.ctx.take().is_some() {
            *self.counters.coefficient_refreshes.get_mut() += 1;
        }
    }

    /// Context telemetry: geometry builds, coefficient builds and
    /// refreshes, and transport-operator builds paid by this model. All
    /// zero before any context work happens; monotonic afterwards.
    #[must_use]
    pub fn context_stats(&self) -> CellContextStats {
        self.counters.stats()
    }

    /// Builds the geometry context now (idempotent). Call before fanning
    /// `with_temperature` clones out of a template so every clone shares
    /// one duct solution instead of each paying for its own.
    ///
    /// # Errors
    ///
    /// Propagates duct-solver errors.
    pub fn warm_geometry(&self) -> Result<(), FlowCellError> {
        self.geometry_context().map(|_| ())
    }

    /// Builds the coefficient state now (idempotent), and the geometry
    /// context it needs. Long-lived holders (the co-simulation, the
    /// scenario engine's polarization workers) warm a model after
    /// building or retargeting it, so a point the flow cell cannot
    /// represent fails there and not at the next solve; clones of a
    /// warmed model carry its built state.
    ///
    /// # Errors
    ///
    /// As the first solve would: context-construction errors.
    pub fn warm(&self) -> Result<(), FlowCellError> {
        self.context().map(|_| ())
    }

    /// `true` when both models share one built geometry context (same
    /// `Arc`). `false` when either side has not built one yet.
    #[must_use]
    pub fn shares_geometry_with(&self, other: &CellModel) -> bool {
        match (self.geo.get(), other.geo.get()) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Open-circuit voltage at the mean channel temperature.
    ///
    /// # Errors
    ///
    /// Propagates chemistry validation errors.
    pub fn open_circuit_voltage(&self) -> Result<Volt, FlowCellError> {
        Ok(self.chemistry.open_circuit_voltage(self.temperature.mean())?)
    }

    /// The cached solve context, built on first use.
    fn context(&self) -> Result<&SolveContext, FlowCellError> {
        bright_num::lazy::get_or_try_init(&self.ctx, || self.build_context())
    }

    /// The cached geometry context, built on first use. A build is
    /// charged to this model's geometry counter, so the attribution is
    /// correct whether the build happens here, inside
    /// [`CellModel::warm_geometry`], or not at all (inherited `Arc`).
    fn geometry_context(&self) -> Result<&Arc<GeometryContext>, FlowCellError> {
        bright_num::lazy::get_or_try_init(&self.geo, || {
            let geo = self.build_geometry().map(Arc::new)?;
            self.counters
                .geometry_builds
                .fetch_add(1, Ordering::Relaxed);
            Ok(geo)
        })
    }

    /// Builds the geometry-keyed context: grid spacings plus the
    /// normalized velocity shape (the duct Poisson solve for
    /// [`VelocityModel::Duct`]).
    fn build_geometry(&self) -> Result<GeometryContext, FlowCellError> {
        let nx = self.options.nx;
        let ny = self.options.ny;
        let shape_half: Vec<f64> = match self.options.velocity {
            VelocityModel::PlanePoiseuille => (0..ny)
                .map(|j| {
                    let xi = (j as f64 + 0.5) / (2.0 * ny as f64);
                    plane_poiseuille(xi)
                })
                .collect(),
            VelocityModel::Duct { nz } => {
                let sol = DuctFlowSolution::solve(self.geometry.channel(), 2 * ny, nz)?;
                sol.width_profile()[..ny].to_vec()
            }
        };
        Ok(GeometryContext {
            nx,
            dx: self.geometry.electrode_length().value() / nx as f64,
            dy: self.geometry.stream_half_width().value() / ny as f64,
            half_width: self.geometry.stream_half_width().value(),
            electrode_length: self.geometry.electrode_length().value(),
            shape_half,
        })
    }

    /// Per-station chemistry snapshots at the current temperature
    /// profile (reusing a single snapshot when isothermal).
    fn compute_stations(&self) -> Result<Vec<StationChem>, FlowCellError> {
        let nx = self.options.nx;
        let temps = self.temperature.resample(nx)?;
        let uniform = temps.windows(2).all(|w| w[0] == w[1]);
        let mut stations = Vec::with_capacity(nx);
        let chem = &self.chemistry;
        let negative = ElectrodeLaws::of(&chem.negative, chem.reference_temperature)?;
        let positive = ElectrodeLaws::of(&chem.positive, chem.reference_temperature)?;
        let make = |t: Kelvin| -> Result<StationChem, FlowCellError> {
            let (d_neg, neg_bv) = negative.at(t)?;
            let (d_pos, pos_bv) = positive.at(t)?;
            let ocv = chem.open_circuit_voltage(t)?.value();
            let sigma = chem.conductivity.at(t)?;
            let asr = area_specific_resistance(self.geometry.electrode_gap().value(), sigma)?
                + self.options.contact_asr;
            Ok(StationChem {
                ocv,
                asr,
                n_neg: chem.negative.kinetics.couple().electrons() as f64,
                n_pos: chem.positive.kinetics.couple().electrons() as f64,
                d_neg,
                d_pos,
                neg_bv,
                pos_bv,
            })
        };
        if uniform {
            let proto = make(temps[0])?;
            stations.resize(nx, proto);
        } else {
            for t in &temps {
                stations.push(make(*t)?);
            }
        }
        Ok(stations)
    }

    /// Builds the coefficient state from the geometry context at the
    /// model's current parameters.
    fn build_context(&self) -> Result<SolveContext, FlowCellError> {
        let geo = Arc::clone(self.geometry_context()?);
        let stations = self.compute_stations()?;
        let v_mean = self
            .flow
            .mean_velocity(self.geometry.channel().cross_section())
            .value();
        let velocity: Vec<f64> = geo.shape_half.iter().map(|s| s * v_mean).collect();
        let bank = |d: fn(&StationChem) -> f64| {
            let ds: Vec<f64> = stations.iter().map(d).collect();
            OpBank::build(&velocity, geo.dx, geo.dy, &ds)
        };
        let anode = bank(|st| st.d_neg)?;
        let cathode = bank(|st| st.d_pos)?;
        let marcher = |reactant: f64, product: f64| {
            let (w, l) = (geo.half_width, geo.electrode_length);
            LaneMarcher::new(w, l, geo.nx, &velocity, reactant, product, 1)
        };
        let (neg, pos) = (
            &self.chemistry.negative.inlet,
            &self.chemistry.positive.inlet,
        );
        let anode_proto = marcher(neg.c_red.value(), neg.c_ox.value())?;
        let cathode_proto = marcher(pos.c_ox.value(), pos.c_red.value())?;
        self.counters
            .coefficient_builds
            .fetch_add(1, Ordering::Relaxed);
        let ops = anode.block.len() + cathode.block.len();
        self.counters
            .op_builds
            .fetch_add(ops as u64, Ordering::Relaxed);
        Ok(SolveContext {
            geo,
            stations,
            anode,
            cathode,
            anode_proto,
            cathode_proto,
        })
    }

    /// One lane's march: the cell at `voltage` with cold station
    /// brackets.
    fn solve_with_context(
        &self,
        voltage: f64,
        ctx: &SolveContext,
    ) -> Result<CellSolution, FlowCellError> {
        let mut sols = self.march(ctx, &[voltage], None)?;
        Ok(sols.pop().expect("one lane, one solution"))
    }

    /// The station-major march of the voltage ladder `voltages`, one
    /// lane per voltage (see the module docs). Each lane brackets its
    /// station root around the previous lane's current density at the
    /// same station; lane 0 brackets cold, and lane `restart` (when
    /// given) starts a new, cold hint chain. Every committed root
    /// satisfies the same residual tolerance as a cold one.
    ///
    /// Measured on an 88-channel array with sampled temperature profiles
    /// at paper resolution, a 16-voltage ladder averages 9.96 residual
    /// evaluations per station solve with the hints, against 15.81 with
    /// every voltage bracketed cold.
    fn march(
        &self,
        ctx: &SolveContext,
        voltages: &[f64],
        restart: Option<usize>,
    ) -> Result<Vec<CellSolution>, FlowCellError> {
        if let Some(bad) = voltages.iter().find(|v| !(**v >= 0.0 && v.is_finite())) {
            return Err(FlowCellError::Infeasible(format!(
                "terminal voltage must be non-negative and finite, got {bad}"
            )));
        }
        if voltages.is_empty() {
            return Ok(Vec::new());
        }
        let nx = self.options.nx;
        let lanes = voltages.len();
        let track = self.options.track_products;
        let mut anode = ctx.anode_proto.with_lanes(lanes);
        let mut cathode = ctx.cathode_proto.with_lanes(lanes);
        let mut sols: Vec<CellSolution> = voltages
            .iter()
            .map(|&v| CellSolution {
                voltage: Volt::new(v),
                current: Ampere::new(0.0),
                current_density: Vec::with_capacity(nx),
                eta_anode: Vec::with_capacity(nx),
                eta_cathode: Vec::with_capacity(nx),
                electrode_area: self.geometry.electrode_area(),
                transport_limited_stations: 0,
            })
            .collect();
        let mut q_a = vec![0.0; lanes];
        let mut q_c = vec![0.0; lanes];

        for (station, st) in ctx.stations.iter().enumerate() {
            let op_a = ctx.anode.op(station);
            let op_c = ctx.cathode.op(station);
            anode.advance(op_a)?;
            cathode.advance(op_c)?;
            let mut hint = None;
            for (lane, sol) in sols.iter_mut().enumerate() {
                if Some(lane) == restart {
                    hint = None;
                }
                let balance = StationBalance {
                    st,
                    voltage: sol.voltage.value(),
                    track,
                    anode: anode.response(op_a, lane),
                    cathode: cathode.response(op_c, lane),
                };
                let root = balance.solve(hint)?;
                hint = Some(root.i);
                q_a[lane] = root.i / (st.n_neg * FARADAY);
                q_c[lane] = root.i / (st.n_pos * FARADAY);
                sol.current_density.push(root.i);
                sol.eta_anode.push(root.eta_a);
                sol.eta_cathode.push(root.eta_c);
                sol.transport_limited_stations += usize::from(root.clamped);
            }
            anode.commit(op_a, &q_a);
            cathode.commit(op_c, &q_c);
        }

        let height = self.geometry.channel().height().value();
        for sol in &mut sols {
            let current: f64 = sol.current_density.iter().sum::<f64>() * ctx.geo.dx * height;
            sol.current = Ampere::new(current);
        }
        Ok(sols)
    }

    /// Solves the cell at a fixed terminal voltage.
    ///
    /// # Errors
    ///
    /// * [`FlowCellError::Infeasible`] for a negative/non-finite voltage,
    /// * solver errors propagated from transport and kinetics.
    pub fn solve_at_voltage(&self, voltage: f64) -> Result<CellSolution, FlowCellError> {
        let ctx = self.context()?;
        self.solve_with_context(voltage, ctx)
    }

    /// Solves a whole voltage ladder with one cached context in one
    /// station-major march: every voltage advances through each station
    /// together, and each point warm-starts its station root brackets
    /// from the previous point's current density — the amortized path
    /// used by polarization sweeps and the sweep engines. Point `k` is
    /// bitwise-equal to solving voltage `k` hinted by point `k−1`'s
    /// profile. When several voltages fail, the error reported is the
    /// first one the march meets (station-major), not necessarily the
    /// lowest-index voltage.
    ///
    /// # Errors
    ///
    /// As [`CellModel::solve_at_voltage`].
    pub fn sweep_at_voltages(&self, voltages: &[f64]) -> Result<Vec<CellSolution>, FlowCellError> {
        let ctx = self.context()?;
        self.march(ctx, voltages, None)
    }

    /// [`CellModel::sweep_at_voltages`] whose hint chain restarts cold at
    /// lane `restart` (an index past the last lane never restarts). The
    /// lanes before it are bitwise the sweep of those voltages alone; a
    /// final restarted lane is bitwise [`CellModel::solve_at_voltage`]
    /// at its voltage. [`crate::CellArray`] marches a column's ladder
    /// and its rail point this way, with one context build.
    pub(crate) fn sweep_restarting_at(
        &self,
        voltages: &[f64],
        restart: usize,
    ) -> Result<Vec<CellSolution>, FlowCellError> {
        self.march(self.context()?, voltages, Some(restart))
    }

    /// Solves the cell at a fixed delivered current by inverting the
    /// voltage–current map with Brent's method.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::Infeasible`] if `target` exceeds the cell's
    /// limiting current (or is negative).
    pub fn solve_at_current(&self, target: Ampere) -> Result<CellSolution, FlowCellError> {
        if !(target.value() >= 0.0 && target.is_finite()) {
            return Err(FlowCellError::Infeasible(format!(
                "target current must be non-negative, got {target}"
            )));
        }
        let ctx = self.context()?;
        let v_floor = 0.02;
        let i_max = self.solve_with_context(v_floor, ctx)?.current.value();
        if target.value() > i_max {
            return Err(FlowCellError::Infeasible(format!(
                "target {target} exceeds limiting current {i_max:.4} A at {v_floor} V"
            )));
        }
        let ocv = ctx
            .stations
            .iter()
            .map(|s| s.ocv)
            .fold(f64::NEG_INFINITY, f64::max);
        let v = brent(
            |v| match self.solve_with_context(v, ctx) {
                Ok(sol) => sol.current.value() - target.value(),
                Err(_) => f64::NAN,
            },
            v_floor,
            ocv,
            &RootOptions {
                x_tolerance: 1e-7,
                f_tolerance: (target.value() * 1e-7).max(1e-12),
                max_iterations: 100,
            },
        )
        .map_err(FlowCellError::from)?;
        self.solve_with_context(v, ctx)
    }

    /// Sweeps the polarization curve with `n ≥ 2` voltage points between
    /// 0.05 V and the open-circuit voltage (the exact OCV/zero-current
    /// point is appended).
    ///
    /// # Errors
    ///
    /// Propagates solver errors; [`FlowCellError::InvalidConfig`] if
    /// `n < 2`.
    pub fn polarization_curve(&self, n: usize) -> Result<PolarizationCurve, FlowCellError> {
        if n < 2 {
            return Err(FlowCellError::InvalidConfig(
                "need at least 2 sweep points".into(),
            ));
        }
        let ctx = self.context()?;
        let ocv = ctx.stations.iter().map(|s| s.ocv).sum::<f64>() / ctx.stations.len() as f64;
        let v_lo = 0.05_f64.min(ocv / 2.0);
        let voltages: Vec<f64> = (0..n)
            .map(|k| v_lo + (ocv - 1e-4 - v_lo) * k as f64 / (n - 1) as f64)
            .collect();
        let mut points: Vec<PolarizationPoint> = self
            .sweep_at_voltages(&voltages)?
            .iter()
            .map(|sol| PolarizationPoint {
                voltage: sol.voltage(),
                current: sol.current(),
                power: sol.power(),
            })
            .collect();
        points.push(PolarizationPoint {
            voltage: Volt::new(ocv),
            current: Ampere::new(0.0),
            power: Watt::new(0.0),
        });
        PolarizationCurve::new(points)
    }
}

/// Rejects a flow rate that is not positive and finite.
fn check_flow(flow: CubicMetersPerSecond) -> Result<(), FlowCellError> {
    if flow.value() > 0.0 && flow.is_finite() {
        Ok(())
    } else {
        Err(FlowCellError::InvalidConfig(format!(
            "flow must be positive, got {flow}"
        )))
    }
}

/// One lane's voltage balance at one station (paper Section II-A),
/// `r(i) = U − η_a(i) + η_c(i) − i·ASR − V`, which decreases
/// monotonically in the local current density `i`.
struct StationBalance<'a> {
    st: &'a StationChem,
    voltage: f64,
    track: bool,
    anode: StationResponse,
    cathode: StationResponse,
}

/// A solved station of one lane.
struct StationRoot {
    i: f64,
    eta_a: f64,
    eta_c: f64,
    /// Clamped at the local transport limit.
    clamped: bool,
}

impl StationBalance<'_> {
    /// `(r(i), η_a(i), η_c(i))`.
    fn eval(&self, i: f64) -> Result<(f64, f64, f64), FlowCellError> {
        let st = self.st;
        let q_a = i / (st.n_neg * FARADAY);
        let q_c = i / (st.n_pos * FARADAY);
        let surf_a = SurfaceState {
            c_red: MolePerCubicMeter::new(self.anode.reactant_surface(q_a)),
            c_ox: MolePerCubicMeter::new(if self.track {
                self.anode.product_surface(q_a)
            } else {
                self.anode.p0
            }),
        };
        let eta_a = st
            .neg_bv
            .overpotential(AmperePerSquareMeter::new(i), surf_a)?;
        let surf_c = SurfaceState {
            c_ox: MolePerCubicMeter::new(self.cathode.reactant_surface(q_c)),
            c_red: MolePerCubicMeter::new(if self.track {
                self.cathode.product_surface(q_c)
            } else {
                self.cathode.p0
            }),
        };
        let eta_c = st
            .pos_bv
            .overpotential(AmperePerSquareMeter::new(-i), surf_c)?;
        let residual = st.ocv - eta_a + eta_c - i * st.asr - self.voltage;
        Ok((residual, eta_a, eta_c))
    }

    /// Solves `r(i) = 0` on `[0, i_hi]`, `i_hi` just below the local
    /// transport limit. `hint`, a nearby operating point's current
    /// density at this station, splits the bracket by one sign probe.
    /// Brent starts from the residuals already evaluated at the bracket
    /// ends and returns the overpotentials of its root evaluation.
    fn solve(&self, hint: Option<f64>) -> Result<StationRoot, FlowCellError> {
        let (r0, ea0, ec0) = self.eval(0.0)?;
        if r0 <= 0.0 {
            // Local balance wants zero (or charging) current: clamp.
            return Ok(StationRoot {
                i: 0.0,
                eta_a: ea0,
                eta_c: ec0,
                clamped: false,
            });
        }
        let st = self.st;
        let i_hi = (1.0 - 1e-9)
            * (self.anode.q_max * st.n_neg * FARADAY).min(self.cathode.q_max * st.n_pos * FARADAY);
        let (r_hi, ea_hi, ec_hi) = self.eval(i_hi)?;
        if r_hi >= 0.0 {
            // Even near-total surface depletion cannot absorb the
            // driving force: transport-limited plateau.
            return Ok(StationRoot {
                i: i_hi,
                eta_a: ea_hi,
                eta_c: ec_hi,
                clamped: true,
            });
        }
        // The residual decreases monotonically in `i`, so a hint from a
        // nearby operating point splits the bracket by one sign probe.
        let mut lo = (0.0, r0, Some((ea0, ec0)));
        let mut hi = (i_hi, r_hi, Some((ea_hi, ec_hi)));
        if let Some(h) = hint {
            let i_h = h.clamp(0.0, i_hi * (1.0 - 1e-9));
            if i_h > 0.0 {
                let (r_h, ea_h, ec_h) = self.eval(i_h)?;
                let probe = (i_h, r_h, Some((ea_h, ec_h)));
                if r_h > 0.0 {
                    lo = probe;
                } else {
                    hi = probe;
                }
            }
        }
        let (root, etas) = brent_bracketed(
            |i| match self.eval(i) {
                Ok((r, ea, ec)) => (r, Some((ea, ec))),
                Err(_) => (f64::NAN, None),
            },
            lo,
            hi,
            &RootOptions {
                x_tolerance: (i_hi * 1e-12).max(1e-14),
                f_tolerance: 1e-10,
                max_iterations: 200,
            },
        )
        .map_err(FlowCellError::from)?;
        let (eta_a, eta_c) = match etas {
            Some(etas) => etas,
            None => {
                // The root's evaluation failed: repeat it so its error
                // surfaces.
                let (_, ea, ec) = self.eval(root)?;
                (ea, ec)
            }
        };
        Ok(StationRoot {
            i: root,
            eta_a,
            eta_c,
            clamped: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn power7_channel_model() -> CellModel {
        presets::power7_channel().expect("valid preset")
    }

    /// The paper channel built cold at `flow`.
    fn power7_at_flow(flow: CubicMetersPerSecond) -> Result<CellModel, FlowCellError> {
        let m = power7_channel_model();
        CellModel::new(
            m.geometry,
            m.chemistry,
            flow,
            m.temperature,
            m.options,
        )
    }

    #[test]
    fn ocv_is_the_zero_current_point() {
        let m = power7_channel_model();
        let ocv = m.open_circuit_voltage().unwrap().value();
        let sol = m.solve_at_voltage(ocv).unwrap();
        assert!(
            sol.current.value().abs() < 1e-6,
            "I at OCV = {}",
            sol.current
        );
    }

    #[test]
    fn current_increases_as_voltage_drops() {
        let m = power7_channel_model();
        let i_12 = m.solve_at_voltage(1.2).unwrap().current.value();
        let i_10 = m.solve_at_voltage(1.0).unwrap().current.value();
        let i_06 = m.solve_at_voltage(0.6).unwrap().current.value();
        assert!(i_12 < i_10 && i_10 < i_06, "{i_12} {i_10} {i_06}");
        assert!(i_10 > 0.0);
    }

    #[test]
    fn per_channel_current_at_1v_is_tens_of_milliamps() {
        // 88 channels supply ~amps in Fig. 7, so each channel delivers
        // tens of mA at 1 V.
        let m = power7_channel_model();
        let i = m.solve_at_voltage(1.0).unwrap().current.value();
        assert!(i > 0.01 && i < 0.2, "I = {i} A");
    }

    #[test]
    fn solve_at_current_roundtrips() {
        let m = power7_channel_model();
        let sol_v = m.solve_at_voltage(1.1).unwrap();
        let sol_i = m.solve_at_current(sol_v.current()).unwrap();
        assert!(
            (sol_i.voltage().value() - 1.1).abs() < 1e-3,
            "V = {}",
            sol_i.voltage()
        );
    }

    #[test]
    fn infeasible_current_is_rejected() {
        let m = power7_channel_model();
        assert!(matches!(
            m.solve_at_current(Ampere::new(100.0)),
            Err(FlowCellError::Infeasible(_))
        ));
        assert!(m.solve_at_current(Ampere::new(-1.0)).is_err());
    }

    #[test]
    fn polarization_curve_is_monotone_with_plateau() {
        let m = power7_channel_model();
        let curve = m.polarization_curve(12).unwrap();
        assert!(curve.open_circuit_voltage().value() > 1.5);
        // The low-voltage end approaches the transport-limited plateau:
        // current at 0.2 V within 25% of current at 0.05 V.
        let i_low = curve.current_at_voltage(0.2).unwrap().value();
        let i_lim = curve.limiting_current().value();
        assert!(i_low > 0.7 * i_lim, "knee: {i_low} vs plateau {i_lim}");
    }

    #[test]
    fn warmer_cell_delivers_more_current() {
        // The paper's Section III-B observation, at channel scale.
        let m = power7_channel_model();
        let warm = m
            .with_temperature(TemperatureProfile::Uniform(Kelvin::new(310.0)))
            .unwrap();
        let i_cold = m.solve_at_voltage(1.0).unwrap().current.value();
        let i_warm = warm.solve_at_voltage(1.0).unwrap().current.value();
        assert!(
            i_warm > i_cold * 1.05,
            "cold {i_cold} A vs warm {i_warm} A"
        );
    }

    #[test]
    fn higher_flow_raises_limiting_current() {
        let m = power7_channel_model();
        let half_flow = power7_at_flow(m.flow() / 2.0).unwrap();
        let i_full = m.solve_at_voltage(0.3).unwrap().current.value();
        let i_half = half_flow.solve_at_voltage(0.3).unwrap().current.value();
        assert!(i_full > i_half, "full {i_full} vs half {i_half}");
    }

    #[test]
    fn transport_limit_flags_at_low_voltage() {
        let m = power7_channel_model();
        let sol = m.solve_at_voltage(0.05).unwrap();
        assert!(sol.transport_limited_stations() > 0 || sol.current.value() > 0.0);
    }

    #[test]
    fn current_density_decays_downstream() {
        // Boundary-layer growth starves downstream stations.
        let m = power7_channel_model();
        let sol = m.solve_at_voltage(0.6).unwrap();
        let prof = sol.current_density_profile();
        let inlet_avg: f64 = prof[..10].iter().sum::<f64>() / 10.0;
        let outlet_avg: f64 = prof[prof.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(
            inlet_avg > outlet_avg,
            "inlet {inlet_avg} vs outlet {outlet_avg}"
        );
    }

    fn assert_bitwise_equal(a: &CellSolution, b: &CellSolution) {
        assert_eq!(a.voltage().value().to_bits(), b.voltage().value().to_bits());
        assert_eq!(a.current().value().to_bits(), b.current().value().to_bits());
        assert_eq!(a.current_density_profile().len(), b.current_density_profile().len());
        for (x, y) in a
            .current_density_profile()
            .iter()
            .zip(b.current_density_profile())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            a.transport_limited_stations(),
            b.transport_limited_stations()
        );
    }

    /// Voltage `v` marched alone, each station's root bracketed around
    /// `hint[station]` when a hint profile is given: the voltage-major
    /// loop the lanes replaced, kept as the reference the lane march
    /// must reproduce.
    fn hinted_lone_march(
        model: &CellModel,
        ctx: &SolveContext,
        v: f64,
        hint: Option<&[f64]>,
    ) -> CellSolution {
        let mut anode = ctx.anode_proto.with_lanes(1);
        let mut cathode = ctx.cathode_proto.with_lanes(1);
        let mut sol = CellSolution {
            voltage: Volt::new(v),
            current: Ampere::new(0.0),
            current_density: Vec::new(),
            eta_anode: Vec::new(),
            eta_cathode: Vec::new(),
            electrode_area: model.geometry.electrode_area(),
            transport_limited_stations: 0,
        };
        for (station, st) in ctx.stations.iter().enumerate() {
            let (op_a, op_c) = (ctx.anode.op(station), ctx.cathode.op(station));
            anode.advance(op_a).unwrap();
            cathode.advance(op_c).unwrap();
            let balance = StationBalance {
                st,
                voltage: v,
                track: model.options.track_products,
                anode: anode.response(op_a, 0),
                cathode: cathode.response(op_c, 0),
            };
            let root = balance.solve(hint.map(|h| h[station])).unwrap();
            anode.commit(op_a, &[root.i / (st.n_neg * FARADAY)]);
            cathode.commit(op_c, &[root.i / (st.n_pos * FARADAY)]);
            sol.current_density.push(root.i);
            sol.eta_anode.push(root.eta_a);
            sol.eta_cathode.push(root.eta_c);
            sol.transport_limited_stations += usize::from(root.clamped);
        }
        let height = model.geometry.channel().height().value();
        let total: f64 = sol.current_density.iter().sum::<f64>() * ctx.geo.dx * height;
        sol.current = Ampere::new(total);
        sol
    }

    #[test]
    fn lane_march_matches_chained_single_lane_marches_bitwise() {
        // Lane k of a sweep must be the march of voltage k alone, hinted
        // by lane k-1's current-density profile — the voltage-major loop
        // the lanes replaced. The sampled profile gives every station
        // its own operator; the ladder spans the plateau, the knee and
        // a voltage above the local OCVs (zero-current stations).
        let sampled = power7_channel_model()
            .with_temperature(TemperatureProfile::Sampled(vec![
                Kelvin::new(300.0),
                Kelvin::new(304.0),
                Kelvin::new(309.0),
                Kelvin::new(306.5),
            ]))
            .unwrap();
        for model in [power7_channel_model(), sampled] {
            let voltages: Vec<f64> = (0..16).map(|k| 0.02 + 0.11 * k as f64).collect();
            let swept = model.sweep_at_voltages(&voltages).unwrap();
            let ctx = model.context().unwrap();
            let mut seed: Option<Vec<f64>> = None;
            for (lane, &v) in voltages.iter().enumerate() {
                let alone = hinted_lone_march(&model, ctx, v, seed.as_deref());
                assert_bitwise_equal(&swept[lane], &alone);
                for (a, b) in [
                    (
                        swept[lane].anode_overpotential_profile(),
                        alone.anode_overpotential_profile(),
                    ),
                    (
                        swept[lane].cathode_overpotential_profile(),
                        alone.cathode_overpotential_profile(),
                    ),
                ] {
                    assert!(
                        a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "lane {lane}: overpotentials differ"
                    );
                }
                seed = Some(alone.current_density_profile().to_vec());
            }
        }
    }

    #[test]
    fn restarted_point_lane_matches_a_one_lane_solve_bitwise() {
        // The array marches a column's ladder plus its rail point as one
        // more lane whose hint chain restarts cold: the ladder lanes must
        // be the plain sweep's and the point lane the one-lane solve's.
        // One point lies inside the ladder's range, one above the local
        // OCVs (zero-current stations).
        let sampled = power7_channel_model()
            .with_temperature(TemperatureProfile::Sampled(vec![
                Kelvin::new(300.0),
                Kelvin::new(304.0),
                Kelvin::new(309.0),
                Kelvin::new(306.5),
            ]))
            .unwrap();
        let assert_lane = |a: &CellSolution, b: &CellSolution| {
            assert_bitwise_equal(a, b);
            for (x, y) in [
                (a.anode_overpotential_profile(), b.anode_overpotential_profile()),
                (a.cathode_overpotential_profile(), b.cathode_overpotential_profile()),
            ] {
                assert_eq!(x.len(), y.len());
                assert!(x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()));
            }
        };
        for model in [power7_channel_model(), sampled] {
            let ladder: Vec<f64> = (0..12).map(|k| 0.05 + 0.13 * k as f64).collect();
            let swept = model.sweep_at_voltages(&ladder).unwrap();
            for point in [1.0, 1.9] {
                let mut voltages = ladder.clone();
                voltages.push(point);
                let mut lanes = model.sweep_restarting_at(&voltages, ladder.len()).unwrap();
                let alone = model.solve_at_voltage(point).unwrap();
                assert_lane(&lanes.pop().unwrap(), &alone);
                assert_eq!(lanes.len(), swept.len());
                for (lane, plain) in lanes.iter().zip(&swept) {
                    assert_lane(lane, plain);
                }
            }
            assert_eq!(
                model.solve_at_voltage(1.9).unwrap().current().value(),
                0.0,
                "1.9 V lies above every local OCV"
            );
        }
    }

    #[test]
    fn failing_voltage_fails_the_whole_sweep() {
        let m = power7_channel_model();
        assert!(matches!(
            m.sweep_at_voltages(&[1.0, -0.5, 0.8]),
            Err(FlowCellError::Infeasible(_))
        ));
        assert!(m.sweep_at_voltages(&[0.9, f64::NAN]).is_err());
        assert!(m.sweep_at_voltages(&[]).unwrap().is_empty());

        // A station balance that cannot be evaluated (no reductant left
        // at the negative electrode: the zero-current overpotential does
        // not exist) fails every lane of the march, not just the first.
        let mut chem = bright_echem::vanadium::power7_cell_chemistry();
        chem.negative.inlet.c_red = MolePerCubicMeter::new(0.0);
        let starved = CellModel::new(
            *m.geometry(),
            chem,
            m.flow(),
            m.temperature().clone(),
            m.options().clone(),
        )
        .unwrap();
        assert!(starved.solve_at_voltage(1.0).is_err());
        assert!(starved.sweep_at_voltages(&[0.5, 1.0, 1.5]).is_err());
    }

    #[test]
    fn retarget_flow_matches_cold_build_bitwise() {
        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        let base = m.context_stats();
        assert_eq!(base.geometry_builds, 1);
        assert_eq!(base.coefficient_builds, 1);
        // Isothermal: exactly one distinct operator per side.
        assert_eq!(base.op_builds, 2);

        let half = m.flow() / 2.0;
        m.retarget_flow(half).unwrap();
        let warm = m.solve_at_voltage(0.9).unwrap();
        let cold = power7_at_flow(half).unwrap().solve_at_voltage(0.9).unwrap();
        assert_bitwise_equal(&warm, &cold);

        let stats = m.context_stats();
        assert_eq!(
            stats.geometry_builds, 1,
            "flow retarget must not re-solve the duct"
        );
        assert_eq!(
            stats.op_builds,
            2 * base.op_builds,
            "the rebuild factors one op per side"
        );
        assert_eq!(stats.coefficient_refreshes, 1);
        assert_eq!(stats.coefficient_builds, 2);
    }

    #[test]
    fn retarget_temperature_matches_cold_build_bitwise() {
        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        let base = m.context_stats();
        let profile = TemperatureProfile::Sampled(vec![
            Kelvin::new(301.0),
            Kelvin::new(306.0),
            Kelvin::new(311.0),
        ]);
        m.retarget_temperature(profile.clone()).unwrap();
        let warm = m.solve_at_voltage(1.0).unwrap();
        let cold = power7_channel_model()
            .with_temperature(profile)
            .unwrap()
            .solve_at_voltage(1.0)
            .unwrap();
        assert_bitwise_equal(&warm, &cold);
        let stats = m.context_stats();
        assert_eq!(stats.geometry_builds, 1);
        // The sampled profile needs more distinct operators than the
        // isothermal pair.
        assert!(stats.op_builds > 2 * base.op_builds, "{stats:?}");
        // Back to isothermal: the rebuild factors one operator per side.
        let before = m.context_stats().op_builds;
        m.retarget_temperature(TemperatureProfile::Uniform(Kelvin::new(300.0)))
            .unwrap();
        let back = m.solve_at_voltage(1.0).unwrap();
        let cold_back = power7_channel_model().solve_at_voltage(1.0).unwrap();
        assert_bitwise_equal(&back, &cold_back);
        let stats = m.context_stats();
        assert_eq!(stats.op_builds, before + base.op_builds, "{stats:?}");
        assert_eq!(
            (stats.coefficient_builds, stats.coefficient_refreshes),
            (3, 2)
        );
        // A retarget drops the state; nothing is built until the next
        // use.
        m.retarget_temperature(TemperatureProfile::Sampled(vec![
            Kelvin::new(301.0),
            Kelvin::new(306.0),
            Kelvin::new(311.0),
        ]))
        .unwrap();
        let stats = m.context_stats();
        assert_eq!(stats.op_builds, before + base.op_builds, "{stats:?}");
        assert_eq!(
            (stats.coefficient_builds, stats.coefficient_refreshes),
            (3, 3)
        );
    }

    #[test]
    fn retarget_geometry_matches_cold_build_bitwise() {
        use bright_flow::RectChannel;
        use bright_units::Meters;

        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        assert_eq!(m.context_stats().geometry_builds, 1);

        let wider = CellGeometry::new(
            RectChannel::new(
                Meters::from_micrometers(210.0),
                Meters::from_micrometers(400.0),
                Meters::from_millimeters(22.0),
            )
            .unwrap(),
        );
        m.retarget_geometry(wider, None).unwrap();
        let warm = m.solve_at_voltage(0.9).unwrap();
        let cold = CellModel::new(
            wider,
            bright_echem::vanadium::power7_cell_chemistry(),
            m.flow(),
            m.temperature().clone(),
            m.options().clone(),
        )
        .unwrap()
        .solve_at_voltage(0.9)
        .unwrap();
        assert_bitwise_equal(&warm, &cold);
        let stats = m.context_stats();
        assert_eq!(
            stats.geometry_builds, 2,
            "uncached geometry retarget pays a build"
        );
        assert_eq!(
            stats.coefficient_builds, 2,
            "coefficients rebuilt on the new geometry"
        );
        assert_eq!(stats.coefficient_refreshes, 1);
        // Retargeting to the current geometry is free.
        m.retarget_geometry(wider, None).unwrap();
        assert_eq!(m.context_stats(), stats);
    }

    #[test]
    fn geometry_cache_shares_duct_solves_across_retargets() {
        use bright_flow::RectChannel;
        use bright_units::Meters;

        let geom = |w_um: f64| {
            CellGeometry::new(
                RectChannel::new(
                    Meters::from_micrometers(w_um),
                    Meters::from_micrometers(400.0),
                    Meters::from_millimeters(22.0),
                )
                .unwrap(),
            )
        };
        let cache = GeometryCache::new();
        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        cache.warm_from(&m).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 1));

        // Oscillate between two sampled geometries: one miss each,
        // every revisit a hit — the model never pays a second build
        // for a fingerprint the cache has seen.
        for (i, w) in [210.0, 220.0, 210.0, 220.0, 200.0].iter().enumerate() {
            m.retarget_geometry(geom(*w), Some(&cache)).unwrap();
            m.solve_at_voltage(1.0).unwrap();
            let _ = i;
        }
        assert_eq!(cache.misses(), 2, "only two distinct new fingerprints");
        assert_eq!(cache.hits(), 3, "revisits (incl. the seeded base) are hits");
        assert_eq!(cache.len(), 3);
        assert_eq!(
            m.context_stats().geometry_builds,
            1 + 2,
            "builds paid: the cold one plus the two cache misses"
        );
        // Cached revisit agrees bitwise with a cold model.
        m.retarget_geometry(geom(210.0), Some(&cache)).unwrap();
        let warm = m.solve_at_voltage(0.9).unwrap();
        let cold = CellModel::new(
            geom(210.0),
            bright_echem::vanadium::power7_cell_chemistry(),
            m.flow(),
            m.temperature().clone(),
            m.options().clone(),
        )
        .unwrap()
        .solve_at_voltage(0.9)
        .unwrap();
        assert_bitwise_equal(&warm, &cold);
    }

    #[test]
    fn retarget_contact_asr_matches_cold_build_bitwise() {
        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        let base = m.context_stats();

        m.retarget_contact_asr(2e-4).unwrap();
        let warm = m.solve_at_voltage(1.0).unwrap();
        let cold = CellModel::new(
            *m.geometry(),
            bright_echem::vanadium::power7_cell_chemistry(),
            m.flow(),
            m.temperature().clone(),
            SolverOptions {
                contact_asr: 2e-4,
                ..m.options().clone()
            },
        )
        .unwrap()
        .solve_at_voltage(1.0)
        .unwrap();
        assert_bitwise_equal(&warm, &cold);
        // ASR is a series term in the station balance: higher resistance
        // must cost current at fixed voltage.
        assert!(warm.current().value() < m.retarget_contact_asr(0.0).map(|()| {
            m.solve_at_voltage(1.0).unwrap().current().value()
        }).unwrap());

        let stats = m.context_stats();
        assert_eq!(stats.geometry_builds, 1);
        assert_eq!(
            stats.op_builds,
            3 * base.op_builds,
            "two rebuilds, one op per side each"
        );
        assert_eq!(stats.coefficient_refreshes, 2);
        // Retargeting to the current value is free.
        m.retarget_contact_asr(0.0).unwrap();
        assert_eq!(m.context_stats(), stats);
        // Invalid values are rejected without touching the model.
        assert!(m.retarget_contact_asr(-1.0).is_err());
        assert!(m.retarget_contact_asr(f64::NAN).is_err());
        assert_eq!(m.options().contact_asr, 0.0);
    }

    #[test]
    fn sibling_models_share_one_geometry_context() {
        let m = power7_channel_model();
        m.warm_geometry().unwrap();
        let warm = m
            .with_temperature(TemperatureProfile::Uniform(Kelvin::new(310.0)))
            .unwrap();
        let mut throttled = m.clone();
        throttled.retarget_flow(m.flow() / 3.0).unwrap();
        assert!(m.shares_geometry_with(&warm));
        assert!(m.shares_geometry_with(&throttled));
        // Shared geometry is telemetry-visible: the siblings never pay
        // for a duct solve of their own.
        warm.solve_at_voltage(1.0).unwrap();
        assert_eq!(warm.context_stats().geometry_builds, 0);
        // A fresh model without sharing pays for its own.
        let fresh = power7_channel_model();
        fresh.solve_at_voltage(1.0).unwrap();
        assert!(!m.shares_geometry_with(&fresh));
        assert_eq!(fresh.context_stats().geometry_builds, 1);
    }

    #[test]
    fn warm_geometry_build_is_attributed_to_the_payer() {
        // Warming geometry before the first solve must not hide the
        // duct build from the telemetry.
        let m = power7_channel_model();
        m.warm_geometry().unwrap();
        m.solve_at_voltage(1.0).unwrap();
        assert_eq!(m.context_stats().geometry_builds, 1);
        // A clone shares the Arc and paid nothing: no double-counting.
        assert_eq!(m.clone().context_stats().geometry_builds, 0);
    }

    #[test]
    fn retarget_before_first_solve_is_a_plain_parameter_update() {
        let mut m = power7_channel_model();
        let half = m.flow() / 2.0;
        m.retarget_flow(half).unwrap();
        assert_eq!(m.context_stats(), CellContextStats::default());
        let warm = m.solve_at_voltage(0.9).unwrap();
        let cold = power7_at_flow(half).unwrap().solve_at_voltage(0.9).unwrap();
        assert_bitwise_equal(&warm, &cold);
    }

    #[test]
    fn counters_survive_a_failed_build() {
        // A coefficient build that errors leaves no state behind, so
        // the next use builds again; the counters stay monotonic and the
        // geometry context is kept.
        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        let base = m.flow();
        m.retarget_flow(base / 2.0).unwrap();
        m.warm().unwrap();
        let before = m.context_stats();
        assert_eq!(
            (before.coefficient_builds, before.coefficient_refreshes),
            (2, 1)
        );

        // A flow this small passes validation, but its operators have a
        // zero pivot: the build fails, at every use.
        m.retarget_flow(CubicMetersPerSecond::from_milliliters_per_minute(1e-300))
            .unwrap();
        assert!(m.warm().is_err());
        assert!(m.solve_at_voltage(1.0).is_err());
        let failed = m.context_stats();
        assert_eq!(
            failed.coefficient_refreshes,
            before.coefficient_refreshes + 1
        );
        assert_eq!(failed.coefficient_builds, before.coefficient_builds);
        assert_eq!(failed.op_builds, before.op_builds);
        assert_eq!(failed.geometry_builds, 1);

        // A failed build drops nothing the model had paid for: the next
        // good flow builds on the kept duct solution.
        m.retarget_flow(base).unwrap();
        assert_eq!(m.context_stats(), failed, "no built state to drop");
        let again = m.solve_at_voltage(1.0).unwrap();
        let cold = power7_channel_model().solve_at_voltage(1.0).unwrap();
        assert_bitwise_equal(&again, &cold);
        let after = m.context_stats();
        assert_eq!(
            after.geometry_builds, 1,
            "geometry survives the failed build"
        );
        assert_eq!(after.coefficient_builds, before.coefficient_builds + 1);
        assert_eq!(after.op_builds, before.op_builds + 2);
    }

    #[test]
    fn retarget_rejects_bad_inputs_and_keeps_state() {
        let mut m = power7_channel_model();
        let i_before = m.solve_at_voltage(1.0).unwrap().current().value();
        assert!(m.retarget_flow(CubicMetersPerSecond::new(0.0)).is_err());
        assert!(m.retarget_flow(CubicMetersPerSecond::new(f64::NAN)).is_err());
        assert!(m
            .retarget_temperature(TemperatureProfile::Uniform(Kelvin::new(-3.0)))
            .is_err());
        let i_after = m.solve_at_voltage(1.0).unwrap().current().value();
        assert_eq!(i_before.to_bits(), i_after.to_bits());
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = power7_channel_model();
        assert!(m.solve_at_voltage(-0.1).is_err());
        assert!(m.solve_at_voltage(f64::NAN).is_err());
        assert!(m.polarization_curve(1).is_err());
        assert!(power7_at_flow(CubicMetersPerSecond::new(0.0)).is_err());
    }
}
