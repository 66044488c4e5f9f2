//! Streamwise-marching species transport in one half-channel.
//!
//! At the paper's operating points the species Péclet number is 10⁴–10⁶,
//! so axial diffusion is negligible and the steady transport equation
//! (paper eq. 12) reduces to a parabolic problem that can be marched down
//! the channel:
//!
//! ```text
//! u(y)·∂C/∂x = D·∂²C/∂y²,   D·∂C/∂y|wall = ±q,   ∂C/∂y|interface = 0
//! ```
//!
//! Each station performs implicit (unconditionally stable) cross-stream
//! diffusion solves. Because the discrete operator is *linear* in the wall
//! flux `q`, the station exposes the surface concentrations as exact
//! affine functions of `q` — the cell solver uses this to couple transport
//! with Butler–Volmer kinetics without nested iteration.
//!
//! The cell solver marches with [`LaneMarcher`]: every voltage of a sweep
//! is one lane, and a station's factored [`TransportOp`] advances all
//! lanes in one back-substitution. [`HalfCellMarcher`] assembles and
//! solves each station from scratch; it is the reference the lane path
//! is tested against.

use crate::FlowCellError;
use bright_num::tridiag::{TridiagonalFactorization, TridiagonalWorkspace};

/// Affine response of a station's surface state to the wall molar flux
/// `q` (mol/(m²·s), positive = reactant consumed at the wall):
///
/// * reactant surface concentration: `r_surf(q) = r0 − q·sens`,
/// * product  surface concentration: `p_surf(q) = p0 + q·sens`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationResponse {
    /// Reactant surface concentration at `q = 0`.
    pub r0: f64,
    /// Product surface concentration at `q = 0`.
    pub p0: f64,
    /// Surface sensitivity to the wall flux (m²·s/m³ — concentration per
    /// unit flux).
    pub sens: f64,
    /// Largest flux that keeps the reactant surface concentration
    /// non-negative: `q_max = r0/sens`.
    pub q_max: f64,
}

impl StationResponse {
    /// Reactant surface concentration at flux `q`.
    #[inline]
    pub fn reactant_surface(&self, q: f64) -> f64 {
        (self.r0 - q * self.sens).max(0.0)
    }

    /// Product surface concentration at flux `q`.
    #[inline]
    pub fn product_surface(&self, q: f64) -> f64 {
        (self.p0 + q * self.sens).max(0.0)
    }
}

/// Precomputed cross-stream operator for one `(velocity profile,
/// diffusivity)` pair.
///
/// The implicit diffusion operator of [`HalfCellMarcher::prepare`]
/// depends only on the velocity profile, the grid spacings and the
/// diffusivity — none of which change across the stations of an
/// isothermal channel or across the voltage points of a polarization
/// sweep. Factoring it once (and solving the flux-sensitivity system
/// once, since that right-hand side is operator-determined too) turns
/// each station visit into two back-substitutions instead of three full
/// Thomas solves plus band assembly. This is the flow-cell counterpart
/// of the sparse symbolic/numeric split in `bright-num`.
#[derive(Debug, Clone)]
pub struct TransportOp {
    fac: TridiagonalFactorization,
    /// Response of the concentration field to a unit wall flux.
    sensitivity: Vec<f64>,
    /// Surface (wall-extrapolated) sensitivity, including the half-cell
    /// correction.
    sens_surface: f64,
    d: f64,
    dy: f64,
    dx: f64,
    // Band scratch reused across refreshes (the operator's "symbolic"
    // structure: sized storage that survives coefficient changes).
    lower: Vec<f64>,
    diag: Vec<f64>,
    upper: Vec<f64>,
}

impl TransportOp {
    /// Builds and factors the station operator.
    ///
    /// * `velocity` — streamwise velocity at the `ny` cell centers
    ///   (wall-first),
    /// * `dx` — station spacing (m),
    /// * `dy` — cross-stream cell size (m),
    /// * `d` — species diffusivity (m²/s).
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] for a non-positive
    /// diffusivity and [`FlowCellError::Numerical`] if the factorization
    /// fails.
    pub fn new(velocity: &[f64], dx: f64, dy: f64, d: f64) -> Result<Self, FlowCellError> {
        check_diffusivity(d)?;
        let ny = velocity.len();
        let mut lower = vec![0.0; ny.saturating_sub(1)];
        let mut diag = vec![0.0; ny];
        let mut upper = vec![0.0; ny.saturating_sub(1)];
        stamp_bands(velocity, dx, dy, d, &mut lower, &mut diag, &mut upper);
        let fac =
            TridiagonalFactorization::factor(&lower, &diag, &upper).map_err(FlowCellError::from)?;
        let mut op = Self {
            fac,
            sensitivity: vec![0.0; ny],
            sens_surface: 0.0,
            d,
            dy,
            dx,
            lower,
            diag,
            upper,
        };
        op.solve_sensitivity()?;
        Ok(op)
    }

    /// Re-stamps and re-eliminates the operator **in place** for new
    /// coefficient values (velocity scaling, grid spacings, diffusivity)
    /// on the same cross-stream grid. No allocation: the band storage
    /// and the factorization buffers survive. The arithmetic is the same
    /// as [`TransportOp::new`], so a refreshed operator is bitwise-equal
    /// to a freshly built one — the flow-cell counterpart of
    /// `CsrSymbolic::refresh_values` on the thermal side.
    ///
    /// # Errors
    ///
    /// * [`FlowCellError::InvalidConfig`] for a non-positive diffusivity
    ///   or a velocity profile of a different length,
    /// * [`FlowCellError::Numerical`] if the re-elimination fails (the
    ///   operator must then be refreshed again before use).
    pub fn refresh(
        &mut self,
        velocity: &[f64],
        dx: f64,
        dy: f64,
        d: f64,
    ) -> Result<(), FlowCellError> {
        check_diffusivity(d)?;
        let ny = self.sensitivity.len();
        if velocity.len() != ny {
            return Err(FlowCellError::InvalidConfig(format!(
                "velocity profile has {} cells for an operator sized {ny}",
                velocity.len()
            )));
        }
        stamp_bands(
            velocity,
            dx,
            dy,
            d,
            &mut self.lower,
            &mut self.diag,
            &mut self.upper,
        );
        self.fac
            .refactor(&self.lower, &self.diag, &self.upper)
            .map_err(FlowCellError::from)?;
        self.d = d;
        self.dy = dy;
        self.dx = dx;
        self.solve_sensitivity()
    }

    /// Solves the unit-wall-flux response through the factored operator
    /// (`d` and `dy` must already hold the operator's values).
    fn solve_sensitivity(&mut self) -> Result<(), FlowCellError> {
        for s in self.sensitivity.iter_mut() {
            *s = 0.0;
        }
        self.sensitivity[0] = 1.0 / self.dy;
        self.fac
            .solve_in_place(&mut self.sensitivity)
            .map_err(FlowCellError::from)?;
        self.sens_surface = self.sensitivity[0] + self.dy / (2.0 * self.d);
        Ok(())
    }

    /// The diffusivity this operator was built for.
    #[inline]
    pub fn diffusivity(&self) -> f64 {
        self.d
    }
}

fn check_diffusivity(d: f64) -> Result<(), FlowCellError> {
    if !d.is_finite() || d <= 0.0 {
        return Err(FlowCellError::InvalidConfig(format!(
            "diffusivity must be positive, got {d}"
        )));
    }
    Ok(())
}

/// Stamps the implicit cross-stream operator's bands: advection
/// `u_j/dx` on the diagonal plus the diffusion coupling `D/dy²` to each
/// existing neighbour (zero-flux walls).
fn stamp_bands(
    velocity: &[f64],
    dx: f64,
    dy: f64,
    d: f64,
    lower: &mut [f64],
    diag: &mut [f64],
    upper: &mut [f64],
) {
    let ny = velocity.len();
    let w = d / (dy * dy);
    for (j, u) in velocity.iter().enumerate() {
        let adv = u / dx;
        let mut dj = adv;
        if j > 0 {
            lower[j - 1] = -w;
            dj += w;
        }
        if j + 1 < ny {
            upper[j] = -w;
            dj += w;
        }
        diag[j] = dj;
    }
}

/// Checks a stream's marching inputs (shared by both marchers).
fn validate_stream(
    half_width: f64,
    electrode_length: f64,
    nx: usize,
    velocity: &[f64],
    c_reactant_in: f64,
    c_product_in: f64,
) -> Result<(), FlowCellError> {
    let ny = velocity.len();
    if ny < 4 {
        return Err(FlowCellError::InvalidConfig(format!(
            "need >= 4 cross-stream cells, got {ny}"
        )));
    }
    if nx < 2 {
        return Err(FlowCellError::InvalidConfig(format!(
            "need >= 2 stations, got {nx}"
        )));
    }
    if !half_width.is_finite()
        || half_width <= 0.0
        || !electrode_length.is_finite()
        || electrode_length <= 0.0
    {
        return Err(FlowCellError::InvalidConfig(format!(
            "bad domain {half_width} x {electrode_length}"
        )));
    }
    if velocity.iter().any(|u| !u.is_finite() || *u < 0.0) {
        return Err(FlowCellError::InvalidConfig(
            "velocity profile must be non-negative and finite".into(),
        ));
    }
    if velocity.iter().all(|u| *u == 0.0) {
        return Err(FlowCellError::InvalidConfig(
            "velocity profile is identically zero".into(),
        ));
    }
    if !c_reactant_in.is_finite()
        || c_reactant_in < 0.0
        || !c_product_in.is_finite()
        || c_product_in < 0.0
    {
        return Err(FlowCellError::InvalidConfig(
            "negative inlet concentration".into(),
        ));
    }
    Ok(())
}

/// Marching transport solver for one electrolyte stream (half-channel)
/// that assembles and solves its station operator from scratch at every
/// station — the reference the factored [`LaneMarcher`] is checked
/// against.
///
/// The y-grid covers the half-width with `ny` cells; index 0 is adjacent
/// to the electrode wall, index `ny−1` to the co-laminar interface.
#[derive(Debug, Clone)]
pub struct HalfCellMarcher {
    ny: usize,
    dy: f64,
    dx: f64,
    velocity: Vec<f64>,
    reactant: Vec<f64>,
    product: Vec<f64>,
    // Station scratch state (filled by `prepare`).
    r_zero_flux: Vec<f64>,
    p_zero_flux: Vec<f64>,
    sensitivity: Vec<f64>,
    station_d: f64,
    ws: TridiagonalWorkspace,
    lower: Vec<f64>,
    diag: Vec<f64>,
    upper: Vec<f64>,
}

impl HalfCellMarcher {
    /// Creates a marcher.
    ///
    /// * `half_width` — stream width (m), electrode wall to interface,
    /// * `electrode_length` — marched length (m),
    /// * `nx` — number of stations,
    /// * `velocity` — streamwise velocity at the `ny` cell centers (m/s),
    ///   wall-first ordering,
    /// * `c_reactant_in`, `c_product_in` — inlet concentrations (mol/m³).
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] for degenerate dimensions
    /// or non-physical inputs.
    pub fn new(
        half_width: f64,
        electrode_length: f64,
        nx: usize,
        velocity: Vec<f64>,
        c_reactant_in: f64,
        c_product_in: f64,
    ) -> Result<Self, FlowCellError> {
        validate_stream(
            half_width,
            electrode_length,
            nx,
            &velocity,
            c_reactant_in,
            c_product_in,
        )?;
        let ny = velocity.len();
        Ok(Self {
            ny,
            dy: half_width / ny as f64,
            dx: electrode_length / nx as f64,
            velocity,
            reactant: vec![c_reactant_in; ny],
            product: vec![c_product_in; ny],
            r_zero_flux: vec![0.0; ny],
            p_zero_flux: vec![0.0; ny],
            sensitivity: vec![0.0; ny],
            station_d: 0.0,
            ws: TridiagonalWorkspace::new(ny),
            lower: vec![0.0; ny - 1],
            diag: vec![0.0; ny],
            upper: vec![0.0; ny - 1],
        })
    }

    /// Streamwise station spacing (m).
    #[inline]
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Current reactant profile (wall-first).
    #[inline]
    pub fn reactant(&self) -> &[f64] {
        &self.reactant
    }

    /// Current product profile (wall-first).
    #[inline]
    pub fn product(&self) -> &[f64] {
        &self.product
    }

    /// Convected reactant molar flow per unit channel height
    /// (mol/(m·s)): `Σ u_j·C_j·dy`. Used by conservation tests.
    pub fn convected_reactant_flux(&self) -> f64 {
        self.velocity
            .iter()
            .zip(&self.reactant)
            .map(|(u, c)| u * c)
            .sum::<f64>()
            * self.dy
    }

    /// Prepares the next station with diffusivity `d`, returning the
    /// affine surface response to the wall flux.
    ///
    /// # Errors
    ///
    /// * [`FlowCellError::InvalidConfig`] for a non-positive diffusivity,
    /// * [`FlowCellError::Numerical`] if a tridiagonal solve fails.
    pub fn prepare(&mut self, d: f64) -> Result<StationResponse, FlowCellError> {
        check_diffusivity(d)?;
        stamp_bands(
            &self.velocity,
            self.dx,
            self.dy,
            d,
            &mut self.lower,
            &mut self.diag,
            &mut self.upper,
        );
        // Wall cells with u ~ 0 would make the zero-flux row singular-ish;
        // the diffusion terms keep the diagonal positive for ny >= 2.

        // Zero-flux advance of both species.
        self.r_zero_flux.copy_from_slice(&self.reactant);
        for (rhs, u) in self.r_zero_flux.iter_mut().zip(&self.velocity) {
            *rhs *= u / self.dx;
        }
        self.ws
            .solve_in_place(&self.lower, &self.diag, &self.upper, &mut self.r_zero_flux)
            .map_err(FlowCellError::from)?;

        self.p_zero_flux.copy_from_slice(&self.product);
        for (rhs, u) in self.p_zero_flux.iter_mut().zip(&self.velocity) {
            *rhs *= u / self.dx;
        }
        self.ws
            .solve_in_place(&self.lower, &self.diag, &self.upper, &mut self.p_zero_flux)
            .map_err(FlowCellError::from)?;

        // Sensitivity: response to a unit wall flux (1 mol/(m^2 s) removed
        // from the wall cell).
        for s in self.sensitivity.iter_mut() {
            *s = 0.0;
        }
        self.sensitivity[0] = 1.0 / self.dy;
        self.ws
            .solve_in_place(&self.lower, &self.diag, &self.upper, &mut self.sensitivity)
            .map_err(FlowCellError::from)?;

        self.station_d = d;
        // Half-cell correction: extrapolate from the wall-cell center to
        // the wall itself using the imposed flux gradient q/D over dy/2.
        let sens_surface = self.sensitivity[0] + self.dy / (2.0 * d);
        let r0_surf = self.r_zero_flux[0];
        let p0_surf = self.p_zero_flux[0];
        Ok(StationResponse {
            r0: r0_surf,
            p0: p0_surf,
            sens: sens_surface,
            q_max: if sens_surface > 0.0 {
                r0_surf / sens_surface
            } else {
                f64::INFINITY
            },
        })
    }

    /// Commits the prepared station with the chosen wall flux `q`
    /// (mol/(m²·s), positive = reactant consumed).
    ///
    /// # Panics
    ///
    /// Panics (debug) if called before [`HalfCellMarcher::prepare`].
    pub fn commit(&mut self, q: f64) {
        debug_assert!(self.station_d > 0.0, "commit before prepare");
        for j in 0..self.ny {
            self.reactant[j] = (self.r_zero_flux[j] - q * self.sensitivity[j]).max(0.0);
            self.product[j] = (self.p_zero_flux[j] + q * self.sensitivity[j]).max(0.0);
        }
    }
}

/// Marching transport for one electrolyte stream under `lanes`
/// independent wall-flux histories at once — one per voltage of a
/// polarization sweep — against precomputed [`TransportOp`]s.
///
/// All lanes share the stream's grid and, station by station, its
/// factored operator, so a station advances every lane's reactant and
/// product fields with one multi-lane back-substitution
/// ([`TridiagonalFactorization::solve_lanes_in_place`]). Each lane gets
/// exactly the arithmetic of a single-lane march, so lane `k` is
/// bitwise-equal to marching its flux history alone.
///
/// A station is [`LaneMarcher::advance`] (zero-flux advance of every
/// lane), then [`LaneMarcher::response`] per lane, then
/// [`LaneMarcher::commit`] with every lane's chosen wall flux.
#[derive(Debug, Clone)]
pub struct LaneMarcher {
    ny: usize,
    lanes: usize,
    dy: f64,
    dx: f64,
    /// Advection weight `u_j/dx` of row `j` of the right-hand side.
    adv: Vec<f64>,
    c_reactant_in: f64,
    c_product_in: f64,
    /// Row-major `[ny][2·lanes]`: row `j` holds lane 0's reactant and
    /// product, then lane 1's, and so on. Committed fields between
    /// stations; zero-flux advances between `advance` and `commit`.
    fields: Vec<f64>,
}

impl LaneMarcher {
    /// Creates an inlet-filled marcher with `lanes` lanes. Arguments and
    /// errors as [`HalfCellMarcher::new`]; `lanes == 0` is rejected too.
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] for degenerate dimensions
    /// or non-physical inputs.
    pub fn new(
        half_width: f64,
        electrode_length: f64,
        nx: usize,
        velocity: &[f64],
        c_reactant_in: f64,
        c_product_in: f64,
        lanes: usize,
    ) -> Result<Self, FlowCellError> {
        validate_stream(
            half_width,
            electrode_length,
            nx,
            velocity,
            c_reactant_in,
            c_product_in,
        )?;
        if lanes == 0 {
            return Err(FlowCellError::InvalidConfig("need >= 1 lane".into()));
        }
        let ny = velocity.len();
        let dx = electrode_length / nx as f64;
        let skeleton = Self {
            ny,
            lanes: 0,
            dy: half_width / ny as f64,
            dx,
            adv: velocity.iter().map(|u| u / dx).collect(),
            c_reactant_in,
            c_product_in,
            fields: Vec::new(),
        };
        Ok(skeleton.with_lanes(lanes))
    }

    /// A fresh inlet-filled marcher of the same stream with `lanes ≥ 1`
    /// lanes (none of this marcher's marching state carries over).
    #[must_use]
    pub(crate) fn with_lanes(&self, lanes: usize) -> Self {
        debug_assert!(lanes > 0, "a marcher needs at least one lane");
        let inlet = [self.c_reactant_in, self.c_product_in];
        Self {
            lanes,
            fields: inlet.repeat(self.ny * lanes),
            adv: self.adv.clone(),
            ..*self
        }
    }

    /// Streamwise station spacing (m).
    #[inline]
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Lane `lane`'s current reactant profile (wall-first).
    pub fn reactant(&self, lane: usize) -> Vec<f64> {
        self.column(2 * lane)
    }

    /// Lane `lane`'s current product profile (wall-first).
    pub fn product(&self, lane: usize) -> Vec<f64> {
        self.column(2 * lane + 1)
    }

    fn column(&self, k: usize) -> Vec<f64> {
        self.fields
            .iter()
            .skip(k)
            .step_by(2 * self.lanes)
            .copied()
            .collect()
    }

    /// Advances every lane to the next station with zero wall flux
    /// through `op`, the station's factored operator.
    ///
    /// The operator must have been built from this marcher's geometry
    /// *and velocity profile* (the profile is baked into the factored
    /// bands and is too large to compare per station; the `ny`/`dy`/`dx`
    /// checks below catch geometry mixups, not a different profile on
    /// the same grid).
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::Numerical`] if the operator's grid does
    /// not match this marcher's.
    pub fn advance(&mut self, op: &TransportOp) -> Result<(), FlowCellError> {
        if op.sensitivity.len() != self.ny
            || (op.dy - self.dy).abs() > 1e-15 * self.dy
            || (op.dx - self.dx).abs() > 1e-15 * self.dx
        {
            return Err(FlowCellError::Numerical(format!(
                "transport operator sized {} (dy {:.3e}, dx {:.3e}) vs marcher {} \
                 (dy {:.3e}, dx {:.3e})",
                op.sensitivity.len(),
                op.dy,
                op.dx,
                self.ny,
                self.dy,
                self.dx
            )));
        }
        let width = 2 * self.lanes;
        for (row, adv) in self.fields.chunks_exact_mut(width).zip(&self.adv) {
            for c in row {
                *c *= adv;
            }
        }
        op.fac
            .solve_lanes_in_place(&mut self.fields, width)
            .map_err(FlowCellError::from)
    }

    /// Lane `lane`'s affine surface response at the advanced station
    /// (`op` is the operator the station was advanced through).
    #[inline]
    pub fn response(&self, op: &TransportOp, lane: usize) -> StationResponse {
        let r0 = self.fields[2 * lane];
        StationResponse {
            r0,
            p0: self.fields[2 * lane + 1],
            sens: op.sens_surface,
            q_max: if op.sens_surface > 0.0 {
                r0 / op.sens_surface
            } else {
                f64::INFINITY
            },
        }
    }

    /// Commits the advanced station with each lane's wall flux
    /// (`fluxes[lane]`, mol/(m²·s), positive = reactant consumed)
    /// through the sensitivity of `op`, the operator of the advance.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `fluxes` does not hold one flux per lane.
    pub fn commit(&mut self, op: &TransportOp, fluxes: &[f64]) {
        debug_assert_eq!(fluxes.len(), self.lanes, "one flux per lane");
        for (row, s) in self
            .fields
            .chunks_exact_mut(2 * self.lanes)
            .zip(&op.sensitivity)
        {
            for (pair, q) in row.chunks_exact_mut(2).zip(fluxes) {
                pair[0] = (pair[0] - q * s).max(0.0);
                pair[1] = (pair[1] + q * s).max(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_marcher(ny: usize, nx: usize) -> HalfCellMarcher {
        HalfCellMarcher::new(100e-6, 22e-3, nx, vec![1.5; ny], 2000.0, 1.0).unwrap()
    }

    #[test]
    fn zero_flux_preserves_uniform_profile() {
        let mut m = uniform_marcher(32, 50);
        for _ in 0..50 {
            let resp = m.prepare(1.26e-10).unwrap();
            assert!((resp.r0 - 2000.0).abs() < 1e-6, "r0 = {}", resp.r0);
            m.commit(0.0);
        }
        assert!(m.reactant().iter().all(|c| (c - 2000.0).abs() < 1e-6));
        assert!(m.product().iter().all(|c| (c - 1.0).abs() < 1e-9));
    }

    #[test]
    fn constant_flux_develops_boundary_layer() {
        let mut m = uniform_marcher(64, 100);
        let q = 5e-3; // mol/(m^2 s)
        let mut last_surf = 2000.0;
        for _ in 0..100 {
            let resp = m.prepare(1.26e-10).unwrap();
            let surf = resp.reactant_surface(q);
            assert!(surf <= last_surf + 1e-9, "surface must deplete monotonically");
            last_surf = surf;
            m.commit(q);
        }
        // Depleted at the wall, untouched at the interface.
        assert!(m.reactant()[0] < 2000.0);
        assert!((m.reactant()[63] - 2000.0).abs() < 1.0);
        // Product accumulates at the wall.
        assert!(m.product()[0] > 1.0);
    }

    #[test]
    fn mass_conservation_under_wall_extraction() {
        let mut m = uniform_marcher(48, 80);
        let q = 2e-3;
        let inflow = m.convected_reactant_flux();
        for _ in 0..80 {
            m.prepare(4.13e-10).unwrap();
            m.commit(q);
        }
        let outflow = m.convected_reactant_flux();
        let extracted = q * m.dx() * 80.0;
        let balance = inflow - outflow - extracted;
        assert!(
            balance.abs() < 1e-3 * extracted,
            "imbalance {balance} vs extracted {extracted}"
        );
    }

    #[test]
    fn affine_response_matches_committed_state() {
        let mut a = uniform_marcher(32, 40);
        let mut b = uniform_marcher(32, 40);
        let q = 1e-3;
        // March `a` twice with q; predict `b`'s second-station surface via
        // the affine response, then commit and compare.
        let ra = a.prepare(1e-10).unwrap();
        a.commit(q);
        let rb = b.prepare(1e-10).unwrap();
        assert!((ra.r0 - rb.r0).abs() < 1e-12);
        b.commit(q);
        let ra2 = a.prepare(1e-10).unwrap();
        let rb2 = b.prepare(1e-10).unwrap();
        assert!((ra2.reactant_surface(q) - rb2.reactant_surface(q)).abs() < 1e-9);
    }

    #[test]
    fn q_max_prevents_negative_surface() {
        let mut m = uniform_marcher(32, 40);
        let resp = m.prepare(1e-10).unwrap();
        let almost = resp.q_max * 0.999999;
        assert!(resp.reactant_surface(almost) >= 0.0);
        assert!(resp.reactant_surface(resp.q_max * 1.1) == 0.0); // clamped
        m.commit(almost);
        assert!(m.reactant()[0] >= 0.0);
    }

    #[test]
    fn station_sensitivity_is_memoryless_but_depletion_accumulates() {
        // The affine sensitivity is a single-station response: with a
        // station-independent operator it is identical at every station.
        // The boundary-layer *memory* lives in the committed profiles:
        // under constant flux the zero-flux surface value r0 keeps
        // falling downstream.
        let mut m = uniform_marcher(64, 60);
        let first = m.prepare(1.26e-10).unwrap();
        m.commit(2e-3);
        let mut r0_prev = first.r0;
        for k in 0..58 {
            let resp = m.prepare(1.26e-10).unwrap();
            assert!(
                (resp.sens - first.sens).abs() < 1e-9 * first.sens,
                "sens changed at station {k}"
            );
            assert!(resp.r0 < r0_prev + 1e-9, "r0 must decay, station {k}");
            r0_prev = resp.r0;
            m.commit(2e-3);
        }
        assert!(r0_prev < first.r0 - 10.0, "significant depletion expected");
    }

    #[test]
    fn lane_marcher_matches_prepare() {
        // The factored-operator lane path must reproduce the per-station
        // assembly path over a full march with extraction — for one lane
        // and for several lanes with distinct flux histories.
        let d = 1.26e-10;
        for lanes in [1, 3] {
            let flux = |lane: usize| 3e-3 * (lane + 1) as f64;
            let mut refs: Vec<HalfCellMarcher> =
                (0..lanes).map(|_| uniform_marcher(48, 60)).collect();
            let mut b =
                LaneMarcher::new(100e-6, 22e-3, 60, &[1.5; 48], 2000.0, 1.0, lanes).unwrap();
            let op = TransportOp::new(&vec![1.5; 48], b.dx(), 100e-6 / 48.0, d).unwrap();
            assert_eq!(op.diffusivity(), d);
            let fluxes: Vec<f64> = (0..lanes).map(flux).collect();
            for station in 0..60 {
                b.advance(&op).unwrap();
                for (lane, a) in refs.iter_mut().enumerate() {
                    let ra = a.prepare(d).unwrap();
                    let rb = b.response(&op, lane);
                    assert!(
                        (ra.r0 - rb.r0).abs() < 1e-9 * ra.r0.abs().max(1.0),
                        "lane {lane}, station {station}: r0 {} vs {}",
                        ra.r0,
                        rb.r0
                    );
                    assert!((ra.sens - rb.sens).abs() < 1e-9 * ra.sens);
                    a.commit(flux(lane));
                }
                b.commit(&op, &fluxes);
            }
            for (lane, a) in refs.iter().enumerate() {
                for (ca, cb) in a.reactant().iter().zip(b.reactant(lane)) {
                    assert!((ca - cb).abs() < 1e-6, "lane {lane}: {ca} vs {cb}");
                }
                for (ca, cb) in a.product().iter().zip(b.product(lane)) {
                    assert!((ca - cb).abs() < 1e-6, "lane {lane}: {ca} vs {cb}");
                }
            }
        }
    }

    #[test]
    fn refreshed_op_matches_fresh_build_bitwise() {
        // A refreshed operator must be indistinguishable from one built
        // cold at the new coefficients: same factorization, same
        // sensitivity, same marching behaviour.
        let dx = 22e-3 / 60.0;
        let dy = 100e-6 / 48.0;
        let slow: Vec<f64> = (0..48).map(|j| 0.8 + 0.01 * j as f64).collect();
        let fast: Vec<f64> = slow.iter().map(|u| u * 2.5).collect();
        let mut op = TransportOp::new(&slow, dx, dy, 1.26e-10).unwrap();
        // Flow change (velocity rescale), then a diffusivity change.
        for (v, d) in [(&fast, 1.26e-10), (&slow, 4.13e-10)] {
            op.refresh(v, dx, dy, d).unwrap();
            let fresh = TransportOp::new(v, dx, dy, d).unwrap();
            assert_eq!(op.fac, fresh.fac);
            assert_eq!(op.sensitivity, fresh.sensitivity);
            assert_eq!(op.sens_surface.to_bits(), fresh.sens_surface.to_bits());
            assert_eq!(op.diffusivity(), d);
        }
        // Wrong-sized profiles and bad diffusivities are rejected.
        assert!(op.refresh(&slow[..20], dx, dy, 1e-10).is_err());
        assert!(op.refresh(&slow, dx, dy, 0.0).is_err());
        assert!(op.refresh(&slow, dx, dy, f64::NAN).is_err());
    }

    #[test]
    fn transport_op_validates() {
        assert!(TransportOp::new(&[1.0; 8], 1e-3, 1e-5, 0.0).is_err());
        assert!(TransportOp::new(&[1.0; 8], 1e-3, 1e-5, f64::NAN).is_err());
        let op = TransportOp::new(&[1.0; 8], 1e-3, 1e-5, 1e-10).unwrap();
        for lanes in [1, 4] {
            let mut m = LaneMarcher::new(100e-6, 22e-3, 4, &[1.5; 16], 2000.0, 1.0, lanes).unwrap();
            // Mismatched operator size is rejected.
            assert!(m.advance(&op).is_err());
            // Matching ny/dy but a different station spacing is rejected
            // too (dx is baked into the factored bands).
            let mut m32 =
                LaneMarcher::new(100e-6, 22e-3, 40, &[1.5; 32], 2000.0, 1.0, lanes).unwrap();
            let wrong_dx =
                TransportOp::new(&vec![1.5; 32], m32.dx() * 2.0, 100e-6 / 32.0, 1e-10).unwrap();
            assert!(m32.advance(&wrong_dx).is_err());
        }
        // A lane marcher validates its stream like the reference marcher
        // and needs at least one lane.
        assert!(LaneMarcher::new(1e-4, 1e-2, 10, &[1.0; 3], 1.0, 1.0, 1).is_err());
        assert!(LaneMarcher::new(1e-4, 1e-2, 10, &[1.0; 8], 1.0, 1.0, 0).is_err());
    }

    #[test]
    fn construction_validation() {
        assert!(HalfCellMarcher::new(1e-4, 1e-2, 10, vec![1.0; 3], 1.0, 1.0).is_err());
        assert!(HalfCellMarcher::new(1e-4, 1e-2, 1, vec![1.0; 8], 1.0, 1.0).is_err());
        assert!(HalfCellMarcher::new(0.0, 1e-2, 10, vec![1.0; 8], 1.0, 1.0).is_err());
        assert!(HalfCellMarcher::new(1e-4, 1e-2, 10, vec![-1.0; 8], 1.0, 1.0).is_err());
        assert!(HalfCellMarcher::new(1e-4, 1e-2, 10, vec![0.0; 8], 1.0, 1.0).is_err());
        assert!(HalfCellMarcher::new(1e-4, 1e-2, 10, vec![1.0; 8], -1.0, 1.0).is_err());
        let mut m = uniform_marcher(8, 4);
        assert!(m.prepare(0.0).is_err());
        assert!(m.prepare(f64::NAN).is_err());
    }
}
