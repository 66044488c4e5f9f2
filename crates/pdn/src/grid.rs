//! The on-chip power grid as a resistive sheet.
//!
//! The rail metal is modelled as a uniform sheet of resistance `R_s`
//! (Ω/sq) discretized on the simulation grid; block loads are constant
//! current sinks (`I = P/V_nom`); supply ports connect cells to the VRM
//! output voltage through a series port resistance. The resulting SPD
//! system yields the voltage map of Fig. 8.
//!
//! The conductance system is assembled once through the symbolic/numeric
//! CSR split and never changes afterwards
//! ([`PowerGrid::set_power_density`] touches only the RHS). The library
//! solves it one way: one cached banded Cholesky factor
//! ([`PowerGrid::solve_direct`]), with
//! [`PowerGrid::min_voltages_direct`] solving many loads per pass over
//! it and reducing each to its worst cell. The co-simulation, the yield
//! solve and Monte Carlo studies all use it.
//!
//! The preconditioned-CG path ([`PowerGrid::solve`],
//! [`PowerGrid::solve_warm`] through a [`SolverSession`]) remains as the
//! reference the factor is tested against and for the benchmark rows
//! that time it; its default preconditioner is SSOR, which beats Jacobi
//! on the weakly dominant sheet Laplacian by the largest margin (the
//! `pdn_cg_jacobi_over_best` row of `GATES.json`).

use crate::ports::PortLayout;
use crate::PdnError;
use bright_floorplan::{Floorplan, PowerScenario};
use bright_mesh::{Field2d, Grid2d};
use bright_num::session::next_operator_tag;
use bright_num::solvers::IterOptions;
use bright_num::{BandedCholesky, CsrMatrix, PrecondSpec, SolverSession};
use bright_num::TripletMatrix;
use std::iter::StepBy;
use std::sync::{Arc, OnceLock};
use bright_units::{Ampere, Volt, Watt};

/// A configured power grid ready to solve.
///
/// The conductance system is assembled once at construction (the matrix
/// depends only on the grid, sheet resistance and ports); repeated solves
/// and power-map updates reuse it. Clones share the direct-solve factor
/// once it is built.
#[derive(Debug, Clone)]
pub struct PowerGrid {
    grid: Grid2d,
    sheet_resistance: f64,
    supply: Volt,
    port_resistance: f64,
    port_cells: Vec<(usize, usize)>,
    sink_current: Field2d,
    system: CsrMatrix,
    rhs: Vec<f64>,
    /// Session-facing operator identity.
    tag: u64,
    /// Banded Cholesky factor of the conductance system, built on the
    /// first [`PowerGrid::solve_direct`] call. The matrix depends only
    /// on grid, sheet resistance and ports — never on the load — so
    /// the factor survives every [`PowerGrid::set_power_density`]. It
    /// sits behind an `Arc` so a clone (an engine worker cloned for a
    /// batch chunk) shares the band instead of copying it: n·(nx + 1)
    /// doubles, 7.7 MB on the 106×85 Fig. 8 sheet. The cell holds the
    /// build's result, so threads that race to the first direct solve
    /// wait on one build and share its factor or its error.
    direct: OnceLock<Result<Arc<BandedCholesky>, PdnError>>,
}

/// The solved voltage distribution.
#[derive(Debug, Clone)]
pub struct PdnSolution {
    voltage: Field2d,
    supply: Volt,
    total_current: Ampere,
    sink_current: Field2d,
}

/// Loads one [`PowerGrid::min_voltages_direct`] sweep carries as lanes.
/// Sixteen keeps a lane group's rows of the factor's band window in
/// cache while streaming the factor once per group; measured on the
/// 106×85 Fig. 8 sheet, wider groups gain nothing. Callers that gather
/// loads as they come can hand them over a group at a time, holding no
/// more than one group of maps.
pub const LANE_GROUP: usize = 16;

/// Validates a power-density map (W/m²) against `grid` and converts it
/// to the node sink currents it draws at the `supply` voltage.
fn sink_current_for(grid: &Grid2d, supply: Volt, power_density: &Field2d) -> Result<Field2d, PdnError> {
    if power_density.grid() != grid {
        return Err(PdnError::GridMismatch(format!(
            "power map {}x{} vs grid {}x{}",
            power_density.grid().nx(),
            power_density.grid().ny(),
            grid.nx(),
            grid.ny()
        )));
    }
    if power_density.as_slice().iter().any(|p| *p < 0.0 || !p.is_finite()) {
        return Err(PdnError::InvalidConfig(
            "power density must be non-negative and finite".into(),
        ));
    }
    let cell_area = grid.cell_area();
    let supply = supply.value();
    Ok(Field2d::from_vec(
        grid.clone(),
        power_density
            .as_slice()
            .iter()
            .map(|p| p * cell_area / supply)
            .collect(),
    )
    .expect("same grid"))
}

impl PowerGrid {
    /// Builds a power grid.
    ///
    /// * `grid` — simulation grid over the die,
    /// * `sheet_resistance` — effective rail sheet resistance (Ω/sq),
    /// * `supply` — VRM output voltage feeding the ports,
    /// * `port_resistance` — series resistance of each port (TSV + VRM
    ///   output impedance), Ω,
    /// * `ports` — port layout,
    /// * `power_density` — block power-density map (W/m²) on `grid`;
    ///   converted to current sinks at the supply voltage.
    ///
    /// # Errors
    ///
    /// [`PdnError::InvalidConfig`] / [`PdnError::GridMismatch`] on bad
    /// inputs.
    pub fn new(
        grid: Grid2d,
        sheet_resistance: f64,
        supply: Volt,
        port_resistance: f64,
        ports: &PortLayout,
        power_density: &Field2d,
    ) -> Result<Self, PdnError> {
        if !(sheet_resistance > 0.0 && sheet_resistance.is_finite()) {
            return Err(PdnError::InvalidConfig(format!(
                "sheet resistance must be positive, got {sheet_resistance}"
            )));
        }
        if !(supply.value() > 0.0 && supply.is_finite()) {
            return Err(PdnError::InvalidConfig(format!(
                "supply voltage must be positive, got {supply}"
            )));
        }
        if !(port_resistance >= 0.0 && port_resistance.is_finite()) {
            return Err(PdnError::InvalidConfig(format!(
                "port resistance must be non-negative, got {port_resistance}"
            )));
        }
        let sink_current = sink_current_for(&grid, supply, power_density)?;
        let port_cells = ports.resolve(&grid)?;
        let mut pg = Self {
            grid,
            sheet_resistance,
            supply,
            port_resistance,
            port_cells,
            sink_current,
            system: CsrMatrix::empty(),
            rhs: Vec::new(),
            tag: next_operator_tag(),
            direct: OnceLock::new(),
        };
        pg.assemble()?;
        Ok(pg)
    }

    /// Assembles the conductance matrix and RHS through the
    /// symbolic/numeric split. Called once from [`PowerGrid::new`];
    /// [`PowerGrid::set_power_density`] refreshes the RHS only (the
    /// matrix is load-independent).
    fn assemble(&mut self) -> Result<(), PdnError> {
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let n = self.grid.len();
        // Square-sheet link conductance: horizontal neighbours span one
        // square of aspect dy/dx, vertical dx/dy.
        let g_x = self.grid.dy() / (self.sheet_resistance * self.grid.dx());
        let g_y = self.grid.dx() / (self.sheet_resistance * self.grid.dy());
        // Exact stamp count: 4 entries per interior link + one diagonal
        // push per port.
        let cap = 4 * ((nx - 1) * ny + nx * (ny - 1)) + self.port_cells.len();
        let mut t = TripletMatrix::with_capacity(n, n, cap);

        let idx = |ix: usize, iy: usize| iy * nx + ix;
        for iy in 0..ny {
            for ix in 0..nx {
                let me = idx(ix, iy);
                if ix + 1 < nx {
                    t.stamp_conductance(me, idx(ix + 1, iy), g_x)
                        .map_err(PdnError::from)?;
                }
                if iy + 1 < ny {
                    t.stamp_conductance(me, idx(ix, iy + 1), g_y)
                        .map_err(PdnError::from)?;
                }
            }
        }
        let g_port = self.port_conductance();
        for &(ix, iy) in &self.port_cells {
            let me = idx(ix, iy);
            t.push(me, me, g_port).map_err(PdnError::from)?;
        }
        self.system = t.to_csr_symbolic().numeric(&t).map_err(PdnError::from)?;
        self.direct = OnceLock::new();
        self.rebuild_rhs();
        Ok(())
    }

    fn port_conductance(&self) -> f64 {
        if self.port_resistance > 0.0 {
            1.0 / self.port_resistance
        } else {
            // An ideal port: huge but finite conductance keeps the system
            // well-conditioned.
            1e9
        }
    }

    fn rebuild_rhs(&mut self) {
        let mut rhs = std::mem::take(&mut self.rhs);
        rhs.resize(self.grid.len(), 0.0);
        self.stamp_rhs(self.sink_current.as_slice(), &mut rhs);
        self.rhs = rhs;
    }

    /// Writes the RHS of one load into `rhs`: the sink currents drawn
    /// out of every node, plus the supply current each port injects.
    fn stamp_rhs(&self, sink_current: &[f64], rhs: &mut [f64]) {
        for (r, s) in rhs.iter_mut().zip(sink_current) {
            *r = -s;
        }
        let nx = self.grid.nx();
        let g_port = self.port_conductance();
        for &(ix, iy) in &self.port_cells {
            rhs[iy * nx + ix] += g_port * self.supply.value();
        }
    }

    /// Swaps in a new power-density map (W/m² on the same grid) without
    /// re-assembling the conductance matrix — the amortized path for
    /// load sweeps and ablations.
    ///
    /// # Errors
    ///
    /// [`PdnError::GridMismatch`] / [`PdnError::InvalidConfig`] on bad
    /// maps, as in [`PowerGrid::new`].
    pub fn set_power_density(&mut self, power_density: &Field2d) -> Result<(), PdnError> {
        self.sink_current = sink_current_for(&self.grid, self.supply, power_density)?;
        self.rebuild_rhs();
        Ok(())
    }

    /// The simulation grid.
    #[inline]
    pub fn grid(&self) -> &Grid2d {
        &self.grid
    }

    /// Number of supply ports.
    #[inline]
    pub fn port_count(&self) -> usize {
        self.port_cells.len()
    }

    /// Total sink current at nominal voltage.
    pub fn total_sink_current(&self) -> Ampere {
        Ampere::new(self.sink_current.as_slice().iter().sum())
    }

    /// Iteration options tuned for the PDN solve (CG on the SPD sheet
    /// Laplacian), with the given preconditioner.
    #[must_use]
    pub fn iter_options(preconditioner: PrecondSpec) -> IterOptions {
        IterOptions {
            tolerance: 1e-11,
            max_iterations: 50_000,
            preconditioner,
        }
    }

    /// The default session preconditioner: SSOR over-relaxed for the
    /// sheet Laplacian (4.4× fewer CG iterations than Jacobi on the
    /// 212×170 grid, 141 vs 623; the `pdn_cg_jacobi_over_best` row of
    /// `GATES.json`).
    #[must_use]
    pub fn default_preconditioner() -> PrecondSpec {
        PrecondSpec::Ssor { omega: 1.5 }
    }

    /// Size-aware preconditioner for *this* grid:
    /// [`PowerGrid::default_preconditioner`] (SSOR ω=1.5) on the
    /// paper-sized sheets, the geometric-multigrid V-cycle once the
    /// sheet reaches [`bright_num::MG_MIN_UNKNOWNS`] (200 000 unknowns),
    /// where SSOR iteration counts stop scaling.
    #[must_use]
    pub fn preferred_preconditioner(&self) -> PrecondSpec {
        PrecondSpec::auto_for_grid(
            self.grid.nx(),
            self.grid.ny(),
            1,
            Self::default_preconditioner(),
        )
    }

    /// Creates a solver session bound to this grid's conductance system
    /// with the size-aware [`PowerGrid::preferred_preconditioner`]. One
    /// session per sweep (or per worker thread) amortizes scratch,
    /// factorization and warm start.
    #[must_use]
    pub fn session(&self) -> SolverSession {
        self.session_with(self.preferred_preconditioner())
    }

    /// As [`PowerGrid::session`] with an explicit preconditioner choice
    /// (benches compare Jacobi/SSOR/IC(0) this way).
    #[must_use]
    pub fn session_with(&self, preconditioner: PrecondSpec) -> SolverSession {
        let mut session = SolverSession::new(Self::iter_options(preconditioner));
        session
            .load(&self.system, self.tag, 0)
            .expect("the grid's tag is never 0");
        session
    }

    /// Solves the grid for the voltage map with a cold-started,
    /// size-aware preconditioned CG ([`PowerGrid::session`]). The
    /// library solves through [`PowerGrid::solve_direct`]; this is the
    /// independent reference it is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Numerical`] if CG fails.
    pub fn solve(&self) -> Result<PdnSolution, PdnError> {
        let mut session = self.session();
        self.solve_warm(&mut session)
    }

    /// As [`PowerGrid::solve`], but reusing a caller-owned
    /// [`SolverSession`]: scratch and preconditioner are reused across
    /// solves and the solve warm-starts from the previous voltage map —
    /// the fast path when sweeping loads via
    /// [`PowerGrid::set_power_density`]. An unbound or foreign session
    /// is (re)bound to this grid's operator automatically.
    ///
    /// # Errors
    ///
    /// As [`PowerGrid::solve`].
    pub fn solve_warm(&self, session: &mut SolverSession) -> Result<PdnSolution, PdnError> {
        session.load(&self.system, self.tag, 0)?;
        let n = self.grid.len();
        if session.solution().len() != n {
            // No previous solution: start from the flat supply voltage,
            // matching the cold-start path.
            session.seed_uniform(n, self.supply.value());
        }
        session.solve_spd(&self.rhs).map_err(PdnError::from)?;
        Ok(self.solution(session.solution().to_vec(), self.sink_current.clone()))
    }

    /// Solves the grid through a banded Cholesky factorization of the
    /// conductance system, built once on first call and cached for the
    /// life of the grid (the matrix never depends on the load, so every
    /// [`PowerGrid::set_power_density`] keeps the factor). This is the
    /// amortized path for load sweeps and Monte Carlo studies: after
    /// the one-time `O(n·bw²)` factor, each solve is two triangular
    /// sweeps — no iteration, no preconditioner, and exactly
    /// reproducible regardless of what was solved before. It is the
    /// one-load case of the sweeps behind
    /// [`PowerGrid::min_voltages_direct`], with the currently stamped
    /// load.
    ///
    /// On the 106×85 Fig. 8 sheet (2-vCPU host) the factor costs about
    /// 30 ms and each solve 2–4 ms, against 23–24 ms for a cold CG
    /// ([`PowerGrid::solve`]); the factor pays for itself from the
    /// second load. Only a warm CG re-solve of an unchanged load (about
    /// 0.4 ms) is cheaper, and a solve history that is reset for
    /// determinism never has one.
    ///
    /// # Errors
    ///
    /// [`PdnError::Numerical`] if the factorization fails (the
    /// assembled system is always SPD, so this indicates a bug or a
    /// fault-injection event).
    pub fn solve_direct(&self) -> Result<PdnSolution, PdnError> {
        let mut voltage = Vec::new();
        self.solve_lanes(
            1,
            |_, rhs| {
                self.stamp_rhs(self.sink_current.as_slice(), rhs);
                Ok(())
            },
            |lane| voltage = lane.copied().collect(),
        )?;
        Ok(self.solution(voltage, self.sink_current.clone()))
    }

    /// The minimum rail voltage under each rail load on `plan`, through
    /// the cached direct factor: each bitwise equal to
    /// [`PdnSolution::min_voltage`] of that load's rasterized map after
    /// [`PowerGrid::set_power_density`] and [`PowerGrid::solve_direct`].
    /// The loads are solved [`LANE_GROUP`] at a time as the lanes of one
    /// [`BandedCholesky::solve_lanes_in_place`] sweep, so the factor is
    /// streamed once per group instead of once per load. Each load is
    /// rasterized onto this grid only as it is stamped into its lane, and
    /// each lane is reduced to its minimum in place, so the call holds
    /// one group's lane block and no map per load. This is the Monte
    /// Carlo droop path: a sample needs its worst cell, not its map.
    ///
    /// # Errors
    ///
    /// [`PdnError::InvalidConfig`] for the first load that does not
    /// rasterize on `plan` or draws a negative or non-finite density;
    /// [`PdnError::Numerical`] as in [`PowerGrid::solve_direct`].
    pub fn min_voltages_direct(
        &self,
        plan: &Floorplan,
        loads: &[&PowerScenario],
    ) -> Result<Vec<Volt>, PdnError> {
        let mut mins = Vec::with_capacity(loads.len());
        self.solve_lanes(
            loads.len(),
            |k, rhs| {
                let map = loads[k]
                    .rasterize(plan, &self.grid)
                    .map_err(|e| PdnError::InvalidConfig(e.to_string()))?;
                let sink = sink_current_for(&self.grid, self.supply, &map)?;
                self.stamp_rhs(sink.as_slice(), rhs);
                Ok(())
            },
            // The fold of `Field2d::min`, over the lane in node order.
            |lane| mins.push(Volt::new(lane.copied().fold(f64::INFINITY, f64::min))),
        )?;
        Ok(mins)
    }

    /// Builds the direct-solve factor now rather than on the first
    /// direct solve, or returns the error its one build gave. Threads
    /// sharing a grid may race to the first direct solve: one of them
    /// factors and the others wait for it.
    ///
    /// # Errors
    ///
    /// As [`PowerGrid::solve_direct`].
    pub fn factor_direct(&self) -> Result<(), PdnError> {
        self.direct_factor().map(|_| ())
    }

    fn direct_factor(&self) -> Result<&BandedCholesky, PdnError> {
        self.direct
            .get_or_init(|| {
                #[cfg(test)]
                tests::FACTOR_BUILDS.lock().expect("build log").push(self.tag);
                BandedCholesky::factor(&self.system)
                    .map(Arc::new)
                    .map_err(PdnError::from)
            })
            .as_deref()
            .map_err(Clone::clone)
    }

    /// Solves the grid under each power-density map (W/m² on this
    /// grid) through the cached direct factor in lane groups, leaving
    /// the stamped load untouched: the tests' reference for
    /// [`PowerGrid::min_voltages_direct`]. Each map's solution is
    /// bitwise equal to [`PowerGrid::set_power_density`] followed by
    /// [`PowerGrid::solve_direct`].
    ///
    /// # Errors
    ///
    /// [`PdnError::GridMismatch`] / [`PdnError::InvalidConfig`] for the
    /// first bad map, as in [`PowerGrid::set_power_density`];
    /// [`PdnError::Numerical`] as in [`PowerGrid::solve_direct`].
    #[cfg(test)]
    fn solve_direct_loads(
        &self,
        power_densities: &[Field2d],
    ) -> Result<Vec<PdnSolution>, PdnError> {
        let sinks = power_densities
            .iter()
            .map(|p| sink_current_for(&self.grid, self.supply, p))
            .collect::<Result<Vec<_>, _>>()?;
        let mut voltages = Vec::with_capacity(sinks.len());
        self.solve_lanes(
            sinks.len(),
            |k, rhs| {
                self.stamp_rhs(sinks[k].as_slice(), rhs);
                Ok(())
            },
            |lane| voltages.push(lane.copied().collect::<Vec<_>>()),
        )?;
        Ok(sinks
            .into_iter()
            .zip(voltages)
            .map(|(sink, voltage)| self.solution(voltage, sink))
            .collect())
    }

    /// Every direct solve, one lane group at a time: `stamp(k, rhs)`
    /// writes load `k`'s RHS into `rhs`, which is copied into the
    /// group's lane block; one multi-lane sweep through the factor solves
    /// the group; then `take` receives each load's voltages in load
    /// order, node by node along its lane.
    fn solve_lanes(
        &self,
        loads: usize,
        mut stamp: impl FnMut(usize, &mut [f64]) -> Result<(), PdnError>,
        mut take: impl FnMut(StepBy<std::slice::Iter<'_, f64>>),
    ) -> Result<(), PdnError> {
        let chol = self.direct_factor()?;
        let n = self.grid.len();
        let mut rhs = vec![0.0; n];
        let mut block = Vec::new();
        for first in (0..loads).step_by(LANE_GROUP) {
            let lanes = LANE_GROUP.min(loads - first);
            block.clear();
            block.resize(n * lanes, 0.0);
            for q in 0..lanes {
                stamp(first + q, &mut rhs)?;
                for (b, r) in block[q..].iter_mut().step_by(lanes).zip(&rhs) {
                    *b = *r;
                }
            }
            chol.solve_lanes_in_place(&mut block, lanes)?;
            for q in 0..lanes {
                take(block[q..].iter().step_by(lanes));
            }
        }
        Ok(())
    }

    /// A solved voltage map (node order) with the load that produced it.
    fn solution(&self, voltage: Vec<f64>, sink_current: Field2d) -> PdnSolution {
        PdnSolution {
            voltage: Field2d::from_vec(self.grid.clone(), voltage).expect("sized from grid"),
            supply: self.supply,
            total_current: Ampere::new(sink_current.as_slice().iter().sum()),
            sink_current,
        }
    }

    /// Whether the direct-solve factor has been built (telemetry for
    /// cache-reuse accounting).
    #[inline]
    #[must_use]
    pub fn direct_factor_ready(&self) -> bool {
        matches!(self.direct.get(), Some(Ok(_)))
    }
}

impl PdnSolution {
    /// The solved voltage map (V).
    #[inline]
    pub fn voltage_map(&self) -> &Field2d {
        &self.voltage
    }

    /// Minimum rail voltage (worst-case droop cell).
    pub fn min_voltage(&self) -> Volt {
        Volt::new(self.voltage.min())
    }

    /// Maximum rail voltage.
    pub fn max_voltage(&self) -> Volt {
        Volt::new(self.voltage.max())
    }

    /// Worst-case IR drop from the supply.
    pub fn worst_drop(&self) -> Volt {
        Volt::new(self.supply.value() - self.voltage.min())
    }

    /// The nominal supply voltage.
    #[inline]
    pub fn supply(&self) -> Volt {
        self.supply
    }

    /// Total load current.
    #[inline]
    pub fn total_current(&self) -> Ampere {
        self.total_current
    }

    /// Total power dissipated in the loads at the *actual* (drooped)
    /// node voltages.
    pub fn delivered_power(&self) -> Watt {
        let mut acc = 0.0;
        for (ix, iy) in self.voltage.grid().iter_cells() {
            acc += self.sink_current.get(ix, iy) * self.voltage.get(ix, iy);
        }
        Watt::new(acc)
    }

    /// Mean voltage over cells selected by the predicate (e.g. one cache
    /// block). `None` if no cell matches.
    pub fn mean_voltage_where<F: FnMut(f64, f64) -> bool>(&self, mut pred: F) -> Option<Volt> {
        let grid = self.voltage.grid().clone();
        self.voltage
            .mean_where(|ix, iy| {
                let (x, y) = grid.cell_center(ix, iy).expect("valid cell");
                pred(x, y)
            })
            .map(Volt::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The operator tag of every grid whose direct factor was built, one
    /// entry per build, so a test can count one grid's builds while
    /// other tests factor theirs.
    pub(super) static FACTOR_BUILDS: std::sync::Mutex<Vec<u64>> =
        std::sync::Mutex::new(Vec::new());

    fn small_grid() -> Grid2d {
        Grid2d::from_extent(10e-3, 10e-3, 20, 20).unwrap()
    }

    #[test]
    fn no_load_means_no_drop() {
        let grid = small_grid();
        let zero = Field2d::zeros(grid.clone());
        let pg = PowerGrid::new(
            grid,
            0.05,
            Volt::new(1.0),
            0.01,
            &PortLayout::UniformArray { pitch: 3e-3 },
            &zero,
        )
        .unwrap();
        let sol = pg.solve().unwrap();
        assert!((sol.min_voltage().value() - 1.0).abs() < 1e-9);
        assert!((sol.worst_drop().value()).abs() < 1e-9);
    }

    #[test]
    fn load_pulls_voltage_down_but_ports_hold_it() {
        let grid = small_grid();
        let load = Field2d::constant(grid.clone(), 1e4); // 1 W/cm^2
        let pg = PowerGrid::new(
            grid,
            0.05,
            Volt::new(1.0),
            0.01,
            &PortLayout::UniformArray { pitch: 3e-3 },
            &load,
        )
        .unwrap();
        let sol = pg.solve().unwrap();
        assert!(sol.min_voltage().value() < 1.0);
        assert!(sol.min_voltage().value() > 0.9);
        assert!(sol.max_voltage().value() <= 1.0 + 1e-9);
        // 1 W/cm^2 over 1 cm^2 at 1 V nominal -> 1 A total.
        assert!((sol.total_current().value() - 1.0).abs() < 1e-9);
        assert!(sol.delivered_power().value() < 1.0);
    }

    #[test]
    fn direct_solve_matches_iterative_and_survives_load_restamps() {
        let grid = small_grid();
        let load = Field2d::constant(grid.clone(), 1e4);
        let mut pg = PowerGrid::new(
            grid.clone(),
            0.05,
            Volt::new(1.0),
            0.01,
            &PortLayout::UniformArray { pitch: 3e-3 },
            &load,
        )
        .unwrap();

        let iterative = pg.solve().unwrap();
        assert!(!pg.direct_factor_ready());
        let direct = pg.solve_direct().unwrap();
        assert!(pg.direct_factor_ready());
        for (d, i) in direct.voltage.as_slice().iter().zip(iterative.voltage.as_slice()) {
            assert!((d - i).abs() < 1e-8, "direct {d} vs iterative {i}");
        }

        // Re-stamping the load only rewrites the RHS: the cached factor
        // must survive and keep agreeing with the iterative solve.
        let heavier = Field2d::constant(grid, 3e4);
        pg.set_power_density(&heavier).unwrap();
        assert!(pg.direct_factor_ready());
        let direct2 = pg.solve_direct().unwrap();
        let iterative2 = pg.solve().unwrap();
        for (d, i) in direct2.voltage.as_slice().iter().zip(iterative2.voltage.as_slice()) {
            assert!((d - i).abs() < 1e-8, "direct {d} vs iterative {i}");
        }
        assert!(direct2.min_voltage().value() < direct.min_voltage().value());
    }

    #[test]
    fn denser_ports_reduce_droop() {
        let grid = small_grid();
        let load = Field2d::constant(grid.clone(), 2e4);
        let sparse = PowerGrid::new(
            grid.clone(),
            0.08,
            Volt::new(1.0),
            0.01,
            &PortLayout::EdgeColumns {
                columns: 1,
                pitch: 2e-3,
            },
            &load,
        )
        .unwrap()
        .solve()
        .unwrap();
        let dense = PowerGrid::new(
            grid,
            0.08,
            Volt::new(1.0),
            0.01,
            &PortLayout::UniformArray { pitch: 2e-3 },
            &load,
        )
        .unwrap()
        .solve()
        .unwrap();
        assert!(
            dense.worst_drop().value() < sparse.worst_drop().value(),
            "dense {} vs sparse {}",
            dense.worst_drop().value(),
            sparse.worst_drop().value()
        );
    }

    #[test]
    fn droop_scales_with_sheet_resistance() {
        let grid = small_grid();
        let load = Field2d::constant(grid.clone(), 1e4);
        let ports = PortLayout::EdgeColumns {
            columns: 1,
            pitch: 2e-3,
        };
        let drop_of = |rs: f64| {
            PowerGrid::new(grid.clone(), rs, Volt::new(1.0), 0.0, &ports, &load)
                .unwrap()
                .solve()
                .unwrap()
                .worst_drop()
                .value()
        };
        let d1 = drop_of(0.02);
        let d2 = drop_of(0.04);
        assert!(
            (d2 / d1 - 2.0).abs() < 0.05,
            "drops {d1} and {d2} should scale linearly"
        );
    }

    #[test]
    fn mean_voltage_where_selects_regions() {
        let grid = small_grid();
        let mut load = Field2d::zeros(grid.clone());
        // Load only the left half.
        for iy in 0..20 {
            for ix in 0..10 {
                load.set(ix, iy, 3e4);
            }
        }
        let pg = PowerGrid::new(
            grid,
            0.05,
            Volt::new(1.0),
            0.005,
            &PortLayout::UniformArray { pitch: 4e-3 },
            &load,
        )
        .unwrap();
        let sol = pg.solve().unwrap();
        let left = sol.mean_voltage_where(|x, _| x < 5e-3).unwrap();
        let right = sol.mean_voltage_where(|x, _| x >= 5e-3).unwrap();
        assert!(left.value() < right.value());
        assert!(sol.mean_voltage_where(|_, _| false).is_none());
    }

    #[test]
    fn warm_solve_matches_cold_and_power_updates_apply() {
        let grid = small_grid();
        let light = Field2d::constant(grid.clone(), 5e3);
        let heavy = Field2d::constant(grid.clone(), 3e4);
        let ports = PortLayout::UniformArray { pitch: 3e-3 };
        let mut pg = PowerGrid::new(grid.clone(), 0.05, Volt::new(1.0), 0.01, &ports, &light)
            .unwrap();

        let cold = pg.solve().unwrap();
        let mut session = pg.session();
        let warm_first = pg.solve_warm(&mut session).unwrap();
        for (a, b) in cold
            .voltage_map()
            .as_slice()
            .iter()
            .zip(warm_first.voltage_map().as_slice())
        {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }

        // Swap the load without re-assembling; the warm-started result
        // must match a freshly built grid at the new load.
        pg.set_power_density(&heavy).unwrap();
        let warm = pg.solve_warm(&mut session).unwrap();
        let fresh = PowerGrid::new(grid.clone(), 0.05, Volt::new(1.0), 0.01, &ports, &heavy)
            .unwrap()
            .solve()
            .unwrap();
        for (a, b) in warm
            .voltage_map()
            .as_slice()
            .iter()
            .zip(fresh.voltage_map().as_slice())
        {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        // Session bound once, preconditioner factored once, 2 solves.
        assert_eq!(session.stats().binds, 1);
        assert_eq!(session.stats().precond_setups, 1);
        assert_eq!(session.stats().solves, 2);
        // The update validates its input.
        let wrong = Field2d::zeros(Grid2d::new(5, 5, 1e-3, 1e-3).unwrap());
        assert!(pg.set_power_density(&wrong).is_err());
        let neg = Field2d::constant(grid, -1.0);
        assert!(pg.set_power_density(&neg).is_err());
    }

    #[test]
    fn preconditioner_choices_agree_and_ssor_ic0_iterate_less() {
        let grid = small_grid();
        let load = Field2d::constant(grid.clone(), 2e4);
        let pg = PowerGrid::new(
            grid,
            0.05,
            Volt::new(1.0),
            0.01,
            &PortLayout::UniformArray { pitch: 3e-3 },
            &load,
        )
        .unwrap();
        let run = |spec: PrecondSpec| {
            let mut s = pg.session_with(spec);
            let sol = pg.solve_warm(&mut s).unwrap();
            (sol, s.last_stats().iterations)
        };
        let (v_jac, it_jac) = run(PrecondSpec::Jacobi);
        for spec in [PrecondSpec::ssor(), PowerGrid::default_preconditioner(), PrecondSpec::Ic0] {
            let (v, it) = run(spec);
            assert!(it < it_jac, "{spec:?}: {it} vs jacobi {it_jac}");
            for (a, b) in v
                .voltage_map()
                .as_slice()
                .iter()
                .zip(v_jac.voltage_map().as_slice())
            {
                assert!((a - b).abs() < 1e-8, "{spec:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn foreign_session_is_rebound() {
        // A session bound to one grid keeps working when handed to
        // another (it rebinds and cold-starts).
        let grid = small_grid();
        let load = Field2d::constant(grid.clone(), 1e4);
        let ports = PortLayout::UniformArray { pitch: 3e-3 };
        let a = PowerGrid::new(grid.clone(), 0.05, Volt::new(1.0), 0.01, &ports, &load).unwrap();
        let b = PowerGrid::new(grid, 0.10, Volt::new(1.0), 0.01, &ports, &load).unwrap();
        let mut session = a.session();
        a.solve_warm(&mut session).unwrap();
        let sol_b = b.solve_warm(&mut session).unwrap();
        let fresh_b = b.solve().unwrap();
        for (x, y) in sol_b
            .voltage_map()
            .as_slice()
            .iter()
            .zip(fresh_b.voltage_map().as_slice())
        {
            assert!((x - y).abs() < 1e-8);
        }
        assert_eq!(session.stats().binds, 2);
    }

    #[test]
    fn multi_load_direct_solve_matches_one_load_solves_bitwise() {
        use bright_floorplan::{power7, PowerScenario};
        let mut pg = crate::presets::power7_cache_rail().unwrap();
        let grid = pg.grid().clone();
        let plan = power7::floorplan();
        let map = |s: PowerScenario| s.rasterize(&plan, &grid).unwrap();
        let loads = vec![
            map(PowerScenario::cache_only().scaled(0.9)),
            map(PowerScenario::full_load()),
            map(PowerScenario::cache_only().scaled(1.3)),
        ];
        let bits = |f: &Field2d| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let same = |a: &PdnSolution, b: &PdnSolution| {
            bits(&a.voltage) == bits(&b.voltage)
                && bits(&a.sink_current) == bits(&b.sink_current)
                && a.total_current.value().to_bits() == b.total_current.value().to_bits()
                && a.supply == b.supply
        };
        let stamped = pg.solve_direct().unwrap();
        // Three loads, then enough to span two lane groups.
        let many: Vec<Field2d> = (0..19)
            .map(|k| map(PowerScenario::cache_only().scaled(0.5 + 0.1 * k as f64)))
            .collect();
        for batch in [&loads, &many] {
            let solved = pg.solve_direct_loads(batch).unwrap();
            assert_eq!(solved.len(), batch.len());
            assert!(same(&pg.solve_direct().unwrap(), &stamped), "stamped load untouched");
            let mut one = pg.clone();
            for (k, (load, got)) in batch.iter().zip(&solved).enumerate() {
                one.set_power_density(load).unwrap();
                assert!(same(got, &one.solve_direct().unwrap()), "load {k} of {}", batch.len());
            }
        }
        assert!(pg.solve_direct_loads(&[]).unwrap().is_empty());

        // Bad maps fail exactly as `set_power_density` does.
        let wrong = Field2d::zeros(Grid2d::new(5, 5, 1e-3, 1e-3).unwrap());
        let negative = Field2d::constant(grid.clone(), -1.0);
        for bad in [wrong, negative] {
            let mut with_bad = loads.clone();
            with_bad.insert(1, bad.clone());
            let err = pg.solve_direct_loads(&with_bad).unwrap_err();
            assert_eq!(err, pg.set_power_density(&bad).unwrap_err());
            assert!(matches!(
                err,
                PdnError::GridMismatch(_) | PdnError::InvalidConfig(_)
            ));
        }
    }

    #[test]
    fn clones_share_the_direct_factor() {
        let grid = small_grid();
        let load = Field2d::constant(grid.clone(), 1e4);
        let ports = PortLayout::UniformArray { pitch: 3e-3 };
        let pg = PowerGrid::new(grid, 0.05, Volt::new(1.0), 0.01, &ports, &load).unwrap();
        let before = pg.clone();
        pg.factor_direct().unwrap();
        let after = pg.clone();
        assert!(std::ptr::eq(
            pg.direct_factor().unwrap(),
            after.direct_factor().unwrap()
        ));
        // A clone taken before the factor builds its own.
        assert!(!before.direct_factor_ready());
        assert!(!std::ptr::eq(
            pg.direct_factor().unwrap(),
            before.direct_factor().unwrap()
        ));
    }

    #[test]
    fn min_voltages_match_the_one_load_solves_bitwise() {
        use bright_floorplan::{power7, BlockKind, PowerScenario};
        use bright_units::WattPerSquareMeter;
        let pg = crate::presets::power7_cache_rail().unwrap();
        let plan = power7::floorplan();
        // Enough loads to span two lane groups.
        let loads: Vec<PowerScenario> =
            (0..19).map(|k| PowerScenario::cache_only().scaled(0.5 + 0.1 * k as f64)).collect();
        let refs: Vec<&PowerScenario> = loads.iter().collect();
        let mins = pg.min_voltages_direct(&plan, &refs).unwrap();
        assert_eq!(mins.len(), loads.len());
        for (k, (load, min)) in loads.iter().zip(&mins).enumerate() {
            let map = load.rasterize(&plan, pg.grid()).unwrap();
            let one = pg.solve_direct_loads(std::slice::from_ref(&map)).unwrap();
            assert_eq!(min.value().to_bits(), one[0].min_voltage().value().to_bits(), "load {k}");
        }
        assert!(pg.min_voltages_direct(&plan, &[]).unwrap().is_empty());

        // A load that cannot rasterize or draws a negative density fails
        // the call.
        let mut negative = PowerScenario::cache_only();
        negative.set_kind_density(BlockKind::L2Cache, WattPerSquareMeter::new(-1.0));
        for bad in [PowerScenario::new(), negative] {
            let err = pg.min_voltages_direct(&plan, &[&loads[0], &bad]).unwrap_err();
            assert!(matches!(err, PdnError::InvalidConfig(_)), "{err:?}");
        }
    }

    #[test]
    fn racing_first_direct_solves_share_one_factor_build() {
        let pg = crate::presets::power7_cache_rail().unwrap();
        let start = std::sync::Barrier::new(2);
        let solve = || {
            start.wait();
            pg.solve_direct().unwrap()
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(solve);
            (solve(), other.join().unwrap())
        });
        let bits = |sol: &PdnSolution| {
            sol.voltage_map().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b));
        let builds = FACTOR_BUILDS.lock().unwrap().iter().filter(|&&t| t == pg.tag).count();
        assert_eq!(builds, 1, "both threads must share one factor build");
    }

    #[test]
    fn validation() {
        let grid = small_grid();
        let zero = Field2d::zeros(grid.clone());
        let ports = PortLayout::UniformArray { pitch: 3e-3 };
        assert!(PowerGrid::new(grid.clone(), 0.0, Volt::new(1.0), 0.01, &ports, &zero).is_err());
        assert!(PowerGrid::new(grid.clone(), 0.05, Volt::new(0.0), 0.01, &ports, &zero).is_err());
        assert!(
            PowerGrid::new(grid.clone(), 0.05, Volt::new(1.0), -0.01, &ports, &zero).is_err()
        );
        let wrong = Field2d::zeros(Grid2d::new(5, 5, 1e-3, 1e-3).unwrap());
        assert!(PowerGrid::new(grid.clone(), 0.05, Volt::new(1.0), 0.01, &ports, &wrong).is_err());
        let neg = Field2d::constant(grid.clone(), -1.0);
        assert!(PowerGrid::new(grid, 0.05, Volt::new(1.0), 0.01, &ports, &neg).is_err());
    }
}
