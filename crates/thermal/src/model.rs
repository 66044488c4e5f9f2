//! Assembly and steady-state solution of the thermal network.
//!
//! The operator is assembled **once** per model through the symbolic/
//! numeric CSR split: the stamp list, the compiled [`CsrSymbolic`]
//! pattern and the numeric matrix are all cached. Flow-rate and
//! inlet-temperature sweeps call [`ThermalModel::refresh_coefficients`]
//! to re-stamp *values* through the cached pattern in O(nnz) — the
//! sparsity is identical between such configurations, only conductances
//! change — instead of rebuilding the model. Solves run through a
//! [`SolverSession`] (Krylov scratch + warm start + preconditioner),
//! kept in sync with the operator by an (operator tag, coefficient
//! epoch) pair.

use crate::stack::{LayerSpec, MicrochannelSpec, StackConfig};
use crate::ThermalError;
use bright_flow::laminar::heat_transfer_coefficient;
use bright_flow::RectChannel;
use bright_mesh::{Field2d, Grid2d};
use bright_num::session::next_operator_tag;
use bright_num::solvers::IterOptions;
use bright_num::{CsrSymbolic, PrecondSpec, SolverSession, TripletMatrix};
use bright_units::{CubicMetersPerSecond, Kelvin, Meters, Watt};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One vertical level of the flattened stack.
#[derive(Debug, Clone)]
enum Level {
    Solid {
        conductivity: f64,
        heat_capacity: f64,
        dz: f64,
    },
    Fluid {
        spec: MicrochannelSpec,
        /// Advective capacity rate per channel, ρc·V̇ (W/K).
        capacity_rate: f64,
        /// Convective conductance to the solid below/above per cell (W/K),
        /// fin-homogenized.
        g_conv: f64,
        /// Vertical wall (fin) conduction bypass per cell (W/K).
        g_wall: f64,
    },
}

/// The assembled conductance operator: the stamp list, the compiled
/// sparsity pattern, the numeric matrix and the source-independent RHS.
/// Built once per model; coefficient refreshes re-stamp the values
/// through the cached pattern.
#[derive(Debug, Clone)]
pub(crate) struct ThermalOperator {
    /// The stamp list of the last assembly/refresh (kept so refreshes
    /// reuse the allocation and the scatter map stays valid).
    triplets: TripletMatrix,
    symbolic: CsrSymbolic,
    pub(crate) matrix: bright_num::CsrMatrix,
    /// Inlet forcing and top-cooling ambient terms (power-independent).
    pub(crate) rhs_base: Vec<f64>,
    /// Session-facing operator identity (see [`next_operator_tag`]).
    tag: u64,
}

/// The assembled compact thermal model.
#[derive(Debug)]
pub struct ThermalModel {
    config: StackConfig,
    levels: Vec<Level>,
    grid: Grid2d,
    /// Lazily built, then shared by all solves on this model (clones
    /// carry the cache along).
    operator: OnceLock<ThermalOperator>,
    /// Coefficient epoch: bumped by every refresh so bound sessions can
    /// resync values without re-assembly.
    epoch: u64,
    /// Full (symbolic) operator assemblies over this model's lifetime —
    /// the counter sweep tests use to prove refreshes don't re-assemble.
    assemblies: AtomicUsize,
    /// Value-only refreshes over this model's lifetime.
    refreshes: usize,
}

impl Clone for ThermalModel {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            levels: self.levels.clone(),
            grid: self.grid.clone(),
            operator: self.operator.clone(),
            epoch: self.epoch,
            assemblies: AtomicUsize::new(self.assemblies.load(Ordering::Relaxed)),
            refreshes: self.refreshes,
        }
    }
}

/// A solved temperature field.
#[derive(Debug, Clone)]
pub struct ThermalSolution {
    levels: Vec<Field2d>,
    fluid_levels: Vec<usize>,
    inlet: Kelvin,
    capacity_rate: f64,
}

/// Builds the per-level coefficient table from a (validated) stack
/// configuration. Shared by construction and coefficient refreshes so
/// both produce bit-identical values.
fn build_levels(config: &StackConfig, grid: &Grid2d) -> Result<Vec<Level>, ThermalError> {
    let pitch = config.pitch().value();
    let dy = grid.dy();
    let mut levels = Vec::with_capacity(config.total_levels());
    for layer in &config.layers {
        match layer {
            LayerSpec::Solid {
                material,
                thickness,
                sublayers,
                ..
            } => {
                let dz = thickness.value() / *sublayers as f64;
                for _ in 0..*sublayers {
                    levels.push(Level::Solid {
                        conductivity: material.conductivity.value(),
                        heat_capacity: material.heat_capacity.value(),
                        dz,
                    });
                }
            }
            LayerSpec::Microchannel { spec, .. } => {
                let w = spec.channel_width.value();
                let h_ch = spec.channel_height.value();
                let cpc = spec.channels_per_cell as f64;
                // Wall (fin) thickness attributed to each channel.
                let t_wall = (pitch - cpc * w) / cpc;
                // Capacity rate of all channels lumped in one cell.
                let capacity_rate = spec.fluid.volumetric_heat_capacity.value()
                    * spec.total_flow.value()
                    / config.nx as f64;
                // Heat-transfer coefficient from the laminar H1
                // Nusselt correlation for one physical channel.
                let duct = RectChannel::new(
                    Meters::new(w),
                    Meters::new(h_ch),
                    Meters::new(config.height.value()),
                )
                .map_err(|e| ThermalError::InvalidConfig(e.to_string()))?;
                let htc = heat_transfer_coefficient(&spec.fluid, &duct);
                // Fin homogenization: side walls are fins of thickness
                // t_wall wetted on both faces, split top/bottom; each
                // cell aggregates `cpc` channels.
                let k_wall = spec.wall_material.conductivity.value();
                let g_conv = if t_wall > 0.0 {
                    let m = (2.0 * htc / (k_wall * t_wall)).sqrt();
                    let mh = m * h_ch / 2.0;
                    let eta = if mh > 1e-12 { mh.tanh() / mh } else { 1.0 };
                    cpc * htc * dy * (w + eta * h_ch)
                } else {
                    cpc * htc * dy * w
                };
                let g_wall = if t_wall > 0.0 {
                    cpc * k_wall * t_wall * dy / h_ch
                } else {
                    0.0
                };
                levels.push(Level::Fluid {
                    spec: *spec,
                    capacity_rate,
                    g_conv,
                    g_wall,
                });
            }
        }
    }
    Ok(levels)
}

impl ThermalModel {
    /// Builds a model from a stack configuration.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] from [`StackConfig::validate`],
    ///   if the stack has no microchannel layer (the network would float
    ///   with all-adiabatic boundaries), or if two microchannel layers are
    ///   adjacent.
    pub fn new(config: StackConfig) -> Result<Self, ThermalError> {
        config.validate()?;
        if config.top_cooling.is_none()
            && !config
                .layers
                .iter()
                .any(|l| matches!(l, LayerSpec::Microchannel { .. }))
        {
            return Err(ThermalError::InvalidConfig(
                "stack needs a microchannel layer or top cooling (adiabatic outer walls)"
                    .into(),
            ));
        }
        for w in config.layers.windows(2) {
            if matches!(w[0], LayerSpec::Microchannel { .. })
                && matches!(w[1], LayerSpec::Microchannel { .. })
            {
                return Err(ThermalError::InvalidConfig(
                    "adjacent microchannel layers are not supported".into(),
                ));
            }
        }
        let grid = Grid2d::from_extent(
            config.width.value(),
            config.height.value(),
            config.nx,
            config.ny,
        )
        .map_err(|e| ThermalError::InvalidConfig(e.to_string()))?;
        let levels = build_levels(&config, &grid)?;
        Ok(Self {
            config,
            levels,
            grid,
            operator: OnceLock::new(),
            epoch: 0,
            assemblies: AtomicUsize::new(0),
            refreshes: 0,
        })
    }

    /// The shared in-plane grid (power maps must live on this grid).
    #[inline]
    pub fn grid(&self) -> &Grid2d {
        &self.grid
    }

    /// The stack configuration.
    #[inline]
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Number of vertical levels.
    #[inline]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Indices of the fluid levels.
    pub fn fluid_levels(&self) -> Vec<usize> {
        self.levels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| matches!(l, Level::Fluid { .. }).then_some(i))
            .collect()
    }

    /// Volumetric heat capacity × flow (W/K) summed over all channels of
    /// the first microchannel layer — the fluid's total capacity rate.
    pub fn total_capacity_rate(&self) -> f64 {
        self.levels
            .iter()
            .find_map(|l| match l {
                Level::Fluid { capacity_rate, .. } => {
                    Some(capacity_rate * self.config.nx as f64)
                }
                _ => None,
            })
            .unwrap_or(0.0)
    }

    fn cell_index(&self, level: usize, ix: usize, iy: usize) -> usize {
        level * self.grid.len() + iy * self.grid.nx() + ix
    }

    /// Exact stamp count of [`ThermalModel::stamp_operator`], so the
    /// triplet buffer is sized once with no growth reallocation in the
    /// assembly loops.
    fn operator_stamp_count(&self) -> usize {
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let cells = self.grid.len();
        let n_levels = self.levels.len();
        let mut count = 0usize;
        for (lvl, level) in self.levels.iter().enumerate() {
            match level {
                Level::Solid { .. } => {
                    // In-plane conductance stamps: 4 entries each.
                    count += 4 * ((nx - 1) * ny + nx * (ny - 1));
                }
                Level::Fluid { g_wall, .. } => {
                    // Advection: diagonal everywhere + upwind neighbour
                    // away from the inlet row.
                    count += cells + nx * (ny - 1);
                    if *g_wall > 0.0 && lvl > 0 && lvl + 1 < n_levels {
                        count += 4 * cells;
                    }
                }
            }
        }
        // Vertical coupling between adjacent levels.
        count += 4 * cells * n_levels.saturating_sub(1);
        if self.config.top_cooling.is_some() && matches!(self.levels[n_levels - 1], Level::Solid { .. })
        {
            count += cells;
        }
        count
    }

    /// The cached operator, assembled on first use.
    pub(crate) fn operator(&self) -> Result<&ThermalOperator, ThermalError> {
        bright_num::lazy::get_or_try_init(&self.operator, || self.assemble_operator())
    }

    /// Forces the lazy operator assembly now (idempotent). Callers that
    /// fan a model out by cloning should assemble first, so every clone
    /// carries the cached operator instead of re-assembling its own.
    ///
    /// # Errors
    ///
    /// Assembly errors as in [`ThermalModel::solve_steady`].
    pub fn assemble(&self) -> Result<(), ThermalError> {
        self.operator().map(|_| ())
    }

    /// Number of full (symbolic) operator assemblies this model has
    /// performed. Sweeps routed through
    /// [`ThermalModel::refresh_coefficients`] keep this at 1 however
    /// many points they evaluate.
    pub fn assembly_count(&self) -> usize {
        self.assemblies.load(Ordering::Relaxed)
    }

    /// Number of O(nnz) coefficient refreshes this model has performed.
    #[inline]
    pub fn refresh_count(&self) -> usize {
        self.refreshes
    }

    /// The coefficient epoch (bumped by every refresh); sessions bound
    /// to this model resync automatically when it advances.
    #[inline]
    pub fn coefficient_epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamps the steady conductance matrix `G` and the power-independent
    /// part of the RHS (inlet forcing, top-cooling ambient) into `t` and
    /// `rhs`. The stamp *sequence* depends only on the grid and the layer
    /// structure — never on coefficient values (the
    /// [`CsrSymbolic::refresh_values`] contract) — with one exception:
    /// the `g_wall > 0` fin-bypass branch, which is structural and
    /// guarded against in [`ThermalModel::refresh_microchannels`].
    fn stamp_operator(
        &self,
        t: &mut TripletMatrix,
        rhs: &mut Vec<f64>,
    ) -> Result<(), ThermalError> {
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let dx = self.grid.dx();
        let dy = self.grid.dy();
        let n_levels = self.levels.len();
        let n = n_levels * self.grid.len();
        rhs.clear();
        rhs.resize(n, 0.0);

        // In-plane conduction within solid levels.
        for (lvl, level) in self.levels.iter().enumerate() {
            if let Level::Solid {
                conductivity, dz, ..
            } = level
            {
                let gx = conductivity * dz * dy / dx;
                let gy = conductivity * dz * dx / dy;
                for iy in 0..ny {
                    for ix in 0..nx {
                        let me = self.cell_index(lvl, ix, iy);
                        if ix + 1 < nx {
                            t.stamp_conductance(me, self.cell_index(lvl, ix + 1, iy), gx)
                                .map_err(ThermalError::from)?;
                        }
                        if iy + 1 < ny {
                            t.stamp_conductance(me, self.cell_index(lvl, ix, iy + 1), gy)
                                .map_err(ThermalError::from)?;
                        }
                    }
                }
            }
        }

        // Vertical coupling between adjacent levels.
        let area = dx * dy;
        for lvl in 0..n_levels.saturating_sub(1) {
            let (below, above) = (&self.levels[lvl], &self.levels[lvl + 1]);
            match (below, above) {
                (
                    Level::Solid {
                        conductivity: kb,
                        dz: dzb,
                        ..
                    },
                    Level::Solid {
                        conductivity: ka,
                        dz: dza,
                        ..
                    },
                ) => {
                    let g = area / (dzb / (2.0 * kb) + dza / (2.0 * ka));
                    for iy in 0..ny {
                        for ix in 0..nx {
                            t.stamp_conductance(
                                self.cell_index(lvl, ix, iy),
                                self.cell_index(lvl + 1, ix, iy),
                                g,
                            )
                            .map_err(ThermalError::from)?;
                        }
                    }
                }
                (
                    Level::Solid {
                        conductivity: ks,
                        dz: dzs,
                        ..
                    },
                    Level::Fluid { g_conv, .. },
                )
                | (
                    Level::Fluid { g_conv, .. },
                    Level::Solid {
                        conductivity: ks,
                        dz: dzs,
                        ..
                    },
                ) => {
                    // Solid half-cell conduction in series with the
                    // fin-homogenized convective conductance.
                    let g_half = 2.0 * ks * area / dzs;
                    let g = 1.0 / (1.0 / g_half + 1.0 / g_conv);
                    for iy in 0..ny {
                        for ix in 0..nx {
                            t.stamp_conductance(
                                self.cell_index(lvl, ix, iy),
                                self.cell_index(lvl + 1, ix, iy),
                                g,
                            )
                            .map_err(ThermalError::from)?;
                        }
                    }
                }
                (Level::Fluid { .. }, Level::Fluid { .. }) => {
                    unreachable!("adjacent fluid layers rejected at construction")
                }
            }
        }

        // Wall (fin) vertical bypass across fluid levels.
        for lvl in 0..n_levels {
            if let Level::Fluid { g_wall, .. } = &self.levels[lvl] {
                if *g_wall > 0.0 && lvl > 0 && lvl + 1 < n_levels {
                    for iy in 0..ny {
                        for ix in 0..nx {
                            t.stamp_conductance(
                                self.cell_index(lvl - 1, ix, iy),
                                self.cell_index(lvl + 1, ix, iy),
                                *g_wall,
                            )
                            .map_err(ThermalError::from)?;
                        }
                    }
                }
            }
        }

        // Fluid advection (upwind along +y) and inlet forcing.
        for lvl in 0..n_levels {
            if let Level::Fluid {
                spec,
                capacity_rate,
                ..
            } = &self.levels[lvl]
            {
                for iy in 0..ny {
                    for ix in 0..nx {
                        let me = self.cell_index(lvl, ix, iy);
                        t.push(me, me, *capacity_rate).map_err(ThermalError::from)?;
                        if iy > 0 {
                            t.push(me, self.cell_index(lvl, ix, iy - 1), -capacity_rate)
                                .map_err(ThermalError::from)?;
                        } else {
                            rhs[me] += capacity_rate * spec.inlet_temperature.value();
                        }
                    }
                }
            }
        }

        // Conventional heat-sink boundary on the top face, if configured:
        // solid half-cell conduction in series with the film coefficient.
        if let Some(tc) = &self.config.top_cooling {
            if let Level::Solid {
                conductivity: ks,
                dz: dzs,
                ..
            } = &self.levels[n_levels - 1]
            {
                let g_half = 2.0 * ks * area / dzs;
                let g_film = tc.coefficient * area;
                let g = 1.0 / (1.0 / g_half + 1.0 / g_film);
                for iy in 0..ny {
                    for ix in 0..nx {
                        let me = self.cell_index(n_levels - 1, ix, iy);
                        t.push(me, me, g).map_err(ThermalError::from)?;
                        rhs[me] += g * tc.ambient.value();
                    }
                }
            }
        }
        Ok(())
    }

    /// Assembles the operator: stamps the triplet list, compiles the
    /// symbolic pattern and materializes the numeric matrix. Called once
    /// per model; refreshes reuse the pattern.
    fn assemble_operator(&self) -> Result<ThermalOperator, ThermalError> {
        let n = self.levels.len() * self.grid.len();
        let mut t = TripletMatrix::with_capacity(n, n, self.operator_stamp_count());
        let mut rhs = Vec::new();
        self.stamp_operator(&mut t, &mut rhs)?;
        let symbolic = t.to_csr_symbolic();
        let matrix = symbolic.numeric(&t).map_err(ThermalError::from)?;
        self.assemblies.fetch_add(1, Ordering::Relaxed);
        Ok(ThermalOperator {
            triplets: t,
            symbolic,
            matrix,
            rhs_base: rhs,
            tag: next_operator_tag(),
        })
    }

    /// Re-derives the level coefficients after a microchannel update and
    /// re-stamps the cached operator's values through its pattern —
    /// O(nnz), no sorting, no symbolic work. `update` is applied to every
    /// microchannel layer's spec.
    ///
    /// Permitted updates are those that change coefficient *values* only
    /// (flow, inlet temperature, fluid snapshot, wall material, channel
    /// geometry within the pitch). An update that would change the
    /// sparsity pattern (e.g. making the fin bypass appear or vanish) is
    /// rejected; build a fresh model for those.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] if the updated configuration
    ///   fails validation or changes the operator pattern.
    pub fn refresh_microchannels(
        &mut self,
        mut update: impl FnMut(&mut MicrochannelSpec),
    ) -> Result<(), ThermalError> {
        let mut config = self.config.clone();
        for layer in &mut config.layers {
            if let LayerSpec::Microchannel { spec, .. } = layer {
                update(spec);
            }
        }
        config.validate()?;
        let levels = build_levels(&config, &self.grid)?;
        // Structural guard: the fin-bypass branch is the only stamp whose
        // presence depends on a coefficient; refuse a flip.
        let bypass = |ls: &[Level]| -> Vec<bool> {
            ls.iter()
                .map(|l| matches!(l, Level::Fluid { g_wall, .. } if *g_wall > 0.0))
                .collect()
        };
        if bypass(&levels) != bypass(&self.levels) {
            return Err(ThermalError::InvalidConfig(
                "update changes the operator pattern (fin bypass appeared/vanished); \
                 build a new ThermalModel instead"
                    .into(),
            ));
        }
        self.config = config;
        self.levels = levels;
        // Take the operator out so `stamp_operator` can borrow `self`
        // (an error mid-refresh drops the cache; the next solve
        // re-assembles lazily with the committed coefficients).
        if let Some(mut op) = self.operator.take() {
            op.triplets.clear();
            // Re-stamp with the same sequence; only values differ.
            self.stamp_operator(&mut op.triplets, &mut op.rhs_base)?;
            op.symbolic
                .refresh_values(&mut op.matrix, &op.triplets)
                .map_err(ThermalError::from)?;
            let _ = self.operator.set(op);
            self.epoch += 1;
            self.refreshes += 1;
        }
        Ok(())
    }

    /// Re-stamps the cached operator for a new total flow rate and inlet
    /// temperature — the fast path for the paper's flow-rate and
    /// inlet-temperature design sweeps. The coolant property snapshot is
    /// left unchanged; callers that re-evaluate fluid properties at the
    /// new inlet temperature should use
    /// [`ThermalModel::refresh_microchannels`] and update
    /// [`MicrochannelSpec::fluid`] too.
    ///
    /// # Errors
    ///
    /// As [`ThermalModel::refresh_microchannels`].
    pub fn refresh_coefficients(
        &mut self,
        total_flow: CubicMetersPerSecond,
        inlet_temperature: Kelvin,
    ) -> Result<(), ThermalError> {
        self.refresh_microchannels(|spec| {
            spec.total_flow = total_flow;
            spec.inlet_temperature = inlet_temperature;
        })
    }

    /// Iteration options shared by every thermal solve: BiCGSTAB on the
    /// nonsymmetric advection system to a 1e-10 relative residual, with
    /// symmetric Gauss–Seidel (SSOR ω=1) preconditioning. A session
    /// that solves a model adopts [`ThermalModel::solve_options`]'
    /// preconditioner, which is MILU(0) on every stack with a fluid
    /// layer.
    #[must_use]
    pub fn iter_options() -> IterOptions {
        IterOptions {
            tolerance: 1e-10,
            max_iterations: 60_000,
            preconditioner: PrecondSpec::ssor(),
        }
    }

    /// True when the stack has at least one microchannel layer. Fluid
    /// advection makes the operator strongly nonsymmetric, which rules
    /// out the geometric-multigrid preconditioner (its symmetric
    /// bilinear transfers produce expansive Galerkin coarse operators
    /// there — see `docs/MULTIGRID.md`) and calls for MILU(0).
    fn has_fluid_levels(&self) -> bool {
        self.levels.iter().any(|l| matches!(l, Level::Fluid { .. }))
    }

    /// Iteration options sized to *this* model's grid and physics: as
    /// [`ThermalModel::iter_options`], with the preconditioner chosen
    /// by the stack.
    ///
    /// * Stacks with fluid layers get MILU(0) ([`PrecondSpec::Milu0`])
    ///   at every size. Conduction and upwind advection balance, so the
    ///   operator's rows sum to zero everywhere except at the inlet row's
    ///   fluid cells; MILU(0) keeps those row sums, and with them the
    ///   smooth error modes that stall SSOR. A paper point takes about
    ///   13 BiCGSTAB iterations instead of SSOR's 31. The
    ///   advection-dominated rows are outside the geometric hierarchy's
    ///   reach.
    /// * Conduction-only stacks (the operator is symmetric) take
    ///   [`PrecondSpec::auto_for_grid`]: SSOR, switching to the
    ///   geometric-multigrid V-cycle once `nx·ny·levels` reaches
    ///   [`bright_num::MG_MIN_UNKNOWNS`] (200 000) — the scaled
    ///   conduction presets land there.
    #[must_use]
    pub fn solve_options(&self) -> IterOptions {
        let preconditioner = if self.has_fluid_levels() {
            PrecondSpec::Milu0
        } else {
            PrecondSpec::auto_for_grid(
                self.grid.nx(),
                self.grid.ny(),
                self.level_count(),
                PrecondSpec::ssor(),
            )
        };
        IterOptions {
            preconditioner,
            ..Self::iter_options()
        }
    }

    /// Creates a solver session bound to this model's operator, with the
    /// thermal solve defaults. One session per sweep (or per worker
    /// thread) amortizes the Krylov scratch, the preconditioner and the
    /// warm start across every solve.
    ///
    /// # Errors
    ///
    /// Assembly errors as in [`ThermalModel::solve_steady`].
    pub fn session(&self) -> Result<SolverSession, ThermalError> {
        let mut session = SolverSession::new(self.solve_options());
        let op = self.operator()?;
        session.load(&op.matrix, op.tag, self.epoch)?;
        Ok(session)
    }

    fn validate_sources(&self, sources: &[(usize, &Field2d)]) -> Result<(), ThermalError> {
        for (level, power) in sources {
            if power.grid() != &self.grid {
                return Err(ThermalError::PowerMapMismatch(format!(
                    "power grid {}x{} != model grid {}x{}",
                    power.grid().nx(),
                    power.grid().ny(),
                    self.grid.nx(),
                    self.grid.ny()
                )));
            }
            if *level >= self.levels.len() {
                return Err(ThermalError::PowerMapMismatch(format!(
                    "injection level {level} outside the {}-level stack",
                    self.levels.len()
                )));
            }
            if matches!(self.levels[*level], Level::Fluid { .. }) {
                return Err(ThermalError::PowerMapMismatch(format!(
                    "injection level {level} is a fluid layer"
                )));
            }
        }
        Ok(())
    }

    /// Fills `rhs` with the base RHS plus the power injection of the
    /// (already validated) sources.
    fn build_rhs(&self, rhs_base: &[f64], sources: &[(usize, &Field2d)], rhs: &mut Vec<f64>) {
        rhs.clear();
        rhs.extend_from_slice(rhs_base);
        let area = self.grid.dx() * self.grid.dy();
        let cells = self.grid.len();
        for (level, power) in sources {
            let dst = &mut rhs[level * cells..(level + 1) * cells];
            for (d, p) in dst.iter_mut().zip(power.as_slice()) {
                *d += p * area;
            }
        }
    }

    /// Solves the steady-state temperature field for a power-density map
    /// (W/m² on the model grid).
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerMapMismatch`] if the map grid differs,
    /// * [`ThermalError::Numerical`] if BiCGSTAB fails.
    pub fn solve_steady(&self, power: &Field2d) -> Result<ThermalSolution, ThermalError> {
        self.solve_steady_with_sources(&[(0, power)])
    }

    /// As [`ThermalModel::solve_steady`], but reusing a caller-owned
    /// [`SolverSession`]: the operator pattern, the Krylov scratch and
    /// the preconditioner are reused, and the solve warm-starts from the
    /// previous solution held in the session — the fast path for sweeps
    /// where the power map (or, via
    /// [`ThermalModel::refresh_coefficients`], the coefficients) change
    /// gradually between points. An unbound session is bound on first
    /// use; a stale one is resynced automatically.
    ///
    /// # Errors
    ///
    /// As [`ThermalModel::solve_steady`].
    pub fn solve_steady_warm(
        &self,
        power: &Field2d,
        session: &mut SolverSession,
    ) -> Result<ThermalSolution, ThermalError> {
        self.solve_steady_with_sources_warm(&[(0, power)], session)
    }

    /// Solves the steady state with power maps injected at arbitrary
    /// solid levels — the 3D-stacking case of the paper's introduction
    /// (multiple active dies with interlayer cooling, refs [6-8]).
    ///
    /// # Errors
    ///
    /// As [`ThermalModel::solve_steady`], plus
    /// [`ThermalError::PowerMapMismatch`] for a level index outside the
    /// stack or on a fluid layer.
    pub fn solve_steady_with_sources(
        &self,
        sources: &[(usize, &Field2d)],
    ) -> Result<ThermalSolution, ThermalError> {
        let mut session = SolverSession::new(self.solve_options());
        self.solve_steady_with_sources_warm(sources, &mut session)
    }

    /// Session variant of [`ThermalModel::solve_steady_with_sources`];
    /// see [`ThermalModel::solve_steady_warm`].
    ///
    /// # Errors
    ///
    /// As [`ThermalModel::solve_steady_with_sources`].
    pub fn solve_steady_with_sources_warm(
        &self,
        sources: &[(usize, &Field2d)],
        session: &mut SolverSession,
    ) -> Result<ThermalSolution, ThermalError> {
        self.validate_sources(sources)?;
        let op = self.operator()?;
        session.load(&op.matrix, op.tag, self.epoch)?;
        let n = op.rhs_base.len();
        {
            let rhs = session.rhs_mut();
            self.build_rhs(&op.rhs_base, sources, rhs);
        }
        if session.solution().len() != n {
            // No previous solution of this size: start from a uniform
            // inlet-temperature field, matching the cold-start path.
            session.seed_uniform(n, self.inlet_temperature().value());
        }
        session
            .solve_general_in_place()
            .map_err(ThermalError::from)?;
        self.wrap_solution(session.solution().to_vec())
    }

    /// The coolant reference temperature: the inlet of the first
    /// microchannel layer, or the top-cooling ambient for stacks without
    /// fluid layers.
    pub fn inlet_temperature(&self) -> Kelvin {
        self.levels
            .iter()
            .find_map(|l| match l {
                Level::Fluid { spec, .. } => Some(spec.inlet_temperature),
                _ => None,
            })
            .or(self.config.top_cooling.map(|tc| tc.ambient))
            .expect("validated: a microchannel layer or top cooling exists")
    }

    pub(crate) fn wrap_solution(&self, x: Vec<f64>) -> Result<ThermalSolution, ThermalError> {
        let cells = self.grid.len();
        let mut maps = Vec::with_capacity(self.levels.len());
        for lvl in 0..self.levels.len() {
            let data = x[lvl * cells..(lvl + 1) * cells].to_vec();
            maps.push(
                Field2d::from_vec(self.grid.clone(), data)
                    .map_err(|e| ThermalError::Numerical(e.to_string()))?,
            );
        }
        Ok(ThermalSolution {
            levels: maps,
            fluid_levels: self.fluid_levels(),
            inlet: self.inlet_temperature(),
            capacity_rate: self.total_capacity_rate() / self.config.nx as f64,
        })
    }

    pub(crate) fn levels_heat_capacity_volumes(&self) -> Vec<f64> {
        // Per-cell heat capacity (J/K) per level, for the transient solver.
        let dx = self.grid.dx();
        let dy = self.grid.dy();
        self.levels
            .iter()
            .map(|l| match l {
                Level::Solid {
                    heat_capacity, dz, ..
                } => heat_capacity * dx * dy * dz,
                Level::Fluid { spec, .. } => {
                    spec.fluid.volumetric_heat_capacity.value()
                        * spec.channel_width.value()
                        * spec.channel_height.value()
                        * spec.channels_per_cell as f64
                        * dy
                }
            })
            .collect()
    }

    /// Fills `rhs` with the transient steady forcing (base RHS plus the
    /// power injection at the active layer) — the piece of the transient
    /// system that changes when the power map changes mid-trace.
    pub(crate) fn transient_rhs(
        &self,
        power: &Field2d,
        rhs: &mut Vec<f64>,
    ) -> Result<(), ThermalError> {
        let sources: &[(usize, &Field2d)] = &[(0, power)];
        self.validate_sources(sources)?;
        let op = self.operator()?;
        self.build_rhs(&op.rhs_base, sources, rhs);
        Ok(())
    }

    /// The current coefficient operating point: the first microchannel
    /// layer's (total flow, inlet temperature). `None` for stacks
    /// without fluid layers — those have no rampable coefficients.
    #[must_use]
    pub fn operating_point(&self) -> Option<(CubicMetersPerSecond, Kelvin)> {
        self.config.layers.iter().find_map(|l| match l {
            LayerSpec::Microchannel { spec, .. } => {
                Some((spec.total_flow, spec.inlet_temperature))
            }
            _ => None,
        })
    }
}

impl ThermalSolution {
    /// Number of levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Temperature map (kelvin) of one level (0 = active silicon).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_map(&self, level: usize) -> &Field2d {
        &self.levels[level]
    }

    /// The junction (bottom, active-silicon) temperature map.
    pub fn junction_map(&self) -> &Field2d {
        &self.levels[0]
    }

    /// Peak temperature over the whole stack.
    pub fn max_temperature(&self) -> Kelvin {
        Kelvin::new(
            self.levels
                .iter()
                .map(Field2d::max)
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// `(level, ix, iy)` of the hottest cell.
    pub fn max_location(&self) -> (usize, usize, usize) {
        let mut best = (0, 0, 0);
        let mut best_t = f64::NEG_INFINITY;
        for (lvl, map) in self.levels.iter().enumerate() {
            let (ix, iy) = map.argmax();
            let t = map.get(ix, iy);
            if t > best_t {
                best_t = t;
                best = (lvl, ix, iy);
            }
        }
        best
    }

    /// Indices of the fluid levels.
    pub fn fluid_levels(&self) -> &[usize] {
        &self.fluid_levels
    }

    /// Fluid temperature profile along channel `ix` of the first fluid
    /// level, inlet to outlet.
    ///
    /// # Panics
    ///
    /// Panics if there is no fluid level or `ix` is out of range.
    pub fn channel_profile(&self, ix: usize) -> Vec<Kelvin> {
        let map = &self.levels[self.fluid_levels[0]];
        (0..map.grid().ny())
            .map(|iy| Kelvin::new(map.get(ix, iy)))
            .collect()
    }

    /// Mean fluid outlet temperature of the first fluid level.
    pub fn outlet_mean(&self) -> Kelvin {
        let map = &self.levels[self.fluid_levels[0]];
        let ny = map.grid().ny();
        let mean = map
            .mean_where(|_, iy| iy == ny - 1)
            .expect("non-empty outlet row");
        Kelvin::new(mean)
    }

    /// Heat absorbed by the coolant, `Σ_ch ṁc·(T_out − T_in)` — equals
    /// the injected power at steady state (energy balance).
    pub fn absorbed_power(&self) -> Watt {
        let map = &self.levels[self.fluid_levels[0]];
        let ny = map.grid().ny();
        let mut acc = 0.0;
        for ix in 0..map.grid().nx() {
            acc += self.capacity_rate * (map.get(ix, ny - 1) - self.inlet.value());
        }
        Watt::new(acc)
    }

    /// Coolant inlet temperature.
    pub fn inlet_temperature(&self) -> Kelvin {
        self.inlet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use bright_floorplan::{power7, PowerScenario};

    fn power_map(model: &ThermalModel, scenario: &PowerScenario) -> Field2d {
        scenario
            .rasterize(&power7::floorplan(), model.grid())
            .unwrap()
    }

    #[test]
    fn energy_balance_holds() {
        let model = presets::power7_stack().unwrap();
        let power = power_map(&model, &PowerScenario::full_load());
        let injected = power.integral();
        let sol = model.solve_steady(&power).unwrap();
        let absorbed = sol.absorbed_power().value();
        assert!(
            ((injected - absorbed) / injected).abs() < 1e-5,
            "injected {injected} vs absorbed {absorbed}"
        );
    }

    #[test]
    fn full_load_peak_matches_paper_ballpark() {
        // Fig. 9: peak 41 degC at 676 ml/min, 27 degC inlet.
        let model = presets::power7_stack().unwrap();
        let power = power_map(&model, &PowerScenario::full_load());
        let sol = model.solve_steady(&power).unwrap();
        let peak_c = sol.max_temperature().to_celsius().value();
        assert!(peak_c > 32.0 && peak_c < 50.0, "peak = {peak_c} degC");
        // Hottest spot sits in the active layer.
        let (lvl, _, _) = sol.max_location();
        assert_eq!(lvl, 0);
    }

    #[test]
    fn fluid_heats_downstream() {
        let model = presets::power7_stack().unwrap();
        let power = power_map(&model, &PowerScenario::full_load());
        let sol = model.solve_steady(&power).unwrap();
        let prof = sol.channel_profile(44);
        assert!(prof.last().unwrap().value() > prof.first().unwrap().value());
        assert!(sol.outlet_mean().value() > sol.inlet_temperature().value());
    }

    #[test]
    fn zero_power_stays_at_inlet() {
        let model = presets::power7_stack().unwrap();
        let zero = Field2d::zeros(model.grid().clone());
        let sol = model.solve_steady(&zero).unwrap();
        let max = sol.max_temperature().value();
        let inlet = sol.inlet_temperature().value();
        assert!((max - inlet).abs() < 1e-6, "max {max} vs inlet {inlet}");
    }

    #[test]
    fn hotter_cores_show_in_junction_map() {
        let model = presets::power7_stack().unwrap();
        let power = power_map(&model, &PowerScenario::full_load());
        let sol = model.solve_steady(&power).unwrap();
        let j = sol.junction_map();
        // Core band (bottom band y ~ 2.5 mm) hotter than center L3 band.
        let core_t = j
            .mean_where(|ix, iy| {
                let (x, y) = j.grid().cell_center(ix, iy).unwrap();
                (1.3e-3..24e-3).contains(&x) && y < 5e-3
            })
            .unwrap();
        let l3_t = j
            .mean_where(|_, iy| {
                let y = (iy as f64 + 0.5) * j.grid().dy();
                (8e-3..13e-3).contains(&y)
            })
            .unwrap();
        assert!(core_t > l3_t, "core {core_t} vs L3 {l3_t}");
    }

    #[test]
    fn doubled_flow_lowers_peak() {
        let base = presets::power7_stack().unwrap();
        let power = power_map(&base, &PowerScenario::full_load());
        let hot = base.solve_steady(&power).unwrap().max_temperature();

        let mut config = base.config().clone();
        if let LayerSpec::Microchannel { spec, .. } = &mut config.layers[1] {
            spec.total_flow = spec.total_flow * 2.0;
        }
        let fast = ThermalModel::new(config).unwrap();
        let cool = fast.solve_steady(&power).unwrap().max_temperature();
        assert!(cool.value() < hot.value());
    }

    #[test]
    fn refresh_coefficients_matches_cold_rebuild_exactly() {
        // A model refreshed to (flow₂, T₂) must carry the *bitwise* same
        // operator values and base RHS as a model built at (flow₂, T₂)
        // from scratch — both run the same stamp sequence through the
        // same accumulation order.
        let mut model = presets::power7_stack().unwrap();
        let power = power_map(&model, &PowerScenario::full_load());
        model.solve_steady(&power).unwrap(); // force assembly
        let flow2 = CubicMetersPerSecond::from_milliliters_per_minute(211.0);
        let inlet2 = Kelvin::new(306.0);

        let mut config2 = model.config().clone();
        for layer in &mut config2.layers {
            if let LayerSpec::Microchannel { spec, .. } = layer {
                spec.total_flow = flow2;
                spec.inlet_temperature = inlet2;
            }
        }
        let fresh = ThermalModel::new(config2).unwrap();
        let fresh_op = fresh.operator().unwrap();

        model.refresh_coefficients(flow2, inlet2).unwrap();
        let refreshed_op = model.operator().unwrap();

        assert_eq!(refreshed_op.matrix, fresh_op.matrix, "operator values diverged");
        assert_eq!(refreshed_op.rhs_base, fresh_op.rhs_base, "base RHS diverged");
        assert_eq!(model.assembly_count(), 1);
        assert_eq!(model.refresh_count(), 1);
        assert_eq!(model.coefficient_epoch(), 1);

        // And the solutions agree.
        let a = model.solve_steady(&power).unwrap();
        let b = fresh.solve_steady(&power).unwrap();
        assert!((a.max_temperature().value() - b.max_temperature().value()).abs() < 1e-8);
    }

    #[test]
    fn flow_sweep_through_refresh_assembles_once() {
        // The paper's flow-rate ablation: one model, one assembly, N
        // refreshed solves; the warm session follows along.
        let mut model = presets::power7_stack().unwrap();
        let power = power_map(&model, &PowerScenario::full_load());
        let mut session = model.session().unwrap();
        let mut peaks = Vec::new();
        for ml_min in [676.0, 400.0, 200.0, 100.0, 48.0] {
            model
                .refresh_coefficients(
                    CubicMetersPerSecond::from_milliliters_per_minute(ml_min),
                    Kelvin::new(300.0),
                )
                .unwrap();
            let sol = model.solve_steady_warm(&power, &mut session).unwrap();
            peaks.push(sol.max_temperature().value());
        }
        // Less flow → hotter chip, monotonically.
        for pair in peaks.windows(2) {
            assert!(pair[1] > pair[0], "peaks not monotone: {peaks:?}");
        }
        assert_eq!(model.assembly_count(), 1, "sweep must not re-assemble");
        assert_eq!(model.refresh_count(), 5);
        // The session re-synced values per refresh but never re-bound.
        assert_eq!(session.stats().binds, 1);
        assert_eq!(session.stats().refreshes, 5);
    }

    #[test]
    fn refresh_rejects_invalid_updates_and_leaves_model_usable() {
        let mut model = presets::power7_stack().unwrap();
        model.operator().unwrap();
        let before_epoch = model.coefficient_epoch();
        // Widening the channels beyond the pitch fails validation; the
        // model must be left untouched and still solvable.
        let pitch_um = model.config().pitch().to_micrometers();
        let err = model.refresh_microchannels(|spec| {
            spec.channel_width = Meters::from_micrometers(pitch_um * 1.5);
        });
        assert!(err.is_err(), "invalid update must be rejected");
        assert_eq!(model.coefficient_epoch(), before_epoch);
        let power = power_map(&model, &PowerScenario::full_load());
        model.solve_steady(&power).unwrap();
    }

    #[test]
    fn power_map_grid_is_checked() {
        let model = presets::power7_stack().unwrap();
        let wrong = Field2d::zeros(Grid2d::new(10, 10, 1e-3, 1e-3).unwrap());
        assert!(matches!(
            model.solve_steady(&wrong),
            Err(ThermalError::PowerMapMismatch(_))
        ));
    }

    #[test]
    fn stack_without_channels_is_rejected() {
        let mut config = presets::power7_stack().unwrap().config().clone();
        config.layers.retain(|l| matches!(l, LayerSpec::Solid { .. }));
        assert!(matches!(
            ThermalModel::new(config),
            Err(ThermalError::InvalidConfig(_))
        ));
    }

    #[test]
    fn single_cell_stack_matches_hand_calculation() {
        // 1x1 grid: the network reduces to a resistance chain that can be
        // checked by hand. All power P flows into the single fluid cell:
        // T_fluid = T_in + P/(rho c V), T_junction = T_fluid + P/G with
        // 1/G = 1/G_half + 1/G_conv.
        use crate::stack::{LayerSpec, MicrochannelSpec, StackConfig};
        use crate::Material;
        use bright_flow::fluid::TemperatureDependentFluid;
        use bright_units::CubicMetersPerSecond;

        let fluid = TemperatureDependentFluid::vanadium_electrolyte()
            .at(Kelvin::new(300.0))
            .unwrap();
        let config = StackConfig {
            width: Meters::from_micrometers(300.0),
            height: Meters::from_millimeters(22.0),
            nx: 1,
            ny: 1,
            layers: vec![
                LayerSpec::Solid {
                    name: "die".into(),
                    material: Material::silicon(),
                    thickness: Meters::from_micrometers(400.0),
                    sublayers: 1,
                },
                LayerSpec::Microchannel {
                    name: "mc".into(),
                    spec: MicrochannelSpec {
                        channel_width: Meters::from_micrometers(200.0),
                        channel_height: Meters::from_micrometers(400.0),
                        channels_per_cell: 1,
                        fluid,
                        total_flow: CubicMetersPerSecond::from_milliliters_per_minute(7.68),
                        inlet_temperature: Kelvin::new(300.0),
                        wall_material: Material::silicon(),
                    },
                },
            ],
            top_cooling: None,
        };
        let model = ThermalModel::new(config).unwrap();
        let p = 1.0; // W
        let area = model.grid().cell_area();
        let power = Field2d::constant(model.grid().clone(), p / area);
        let sol = model.solve_steady(&power).unwrap();

        let cap_rate = model.total_capacity_rate();
        let t_fluid_expected = 300.0 + p / cap_rate;
        let fluid_lvl = model.fluid_levels()[0];
        let t_fluid = sol.level_map(fluid_lvl).get(0, 0);
        assert!(
            (t_fluid - t_fluid_expected).abs() < 1e-6,
            "{t_fluid} vs {t_fluid_expected}"
        );
        // Junction is hotter than the fluid, by P/G for some finite G.
        let t_j = sol.junction_map().get(0, 0);
        assert!(t_j > t_fluid);
        let g_implied = p / (t_j - t_fluid);
        assert!(g_implied > 0.1 && g_implied < 100.0, "G = {g_implied} W/K");
    }
}
