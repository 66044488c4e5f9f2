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
//! is one lane, and a station's factored operator, one [`StationOp`] of
//! the stream's [`OpBlock`], advances all lanes in one
//! back-substitution. [`HalfCellMarcher`] stamps and factors each
//! station from scratch; it is the reference the lane path is tested
//! against, bit for bit.

use crate::FlowCellError;
use bright_num::tridiag::TridiagonalFactorization;
use bright_num::NumError;

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

/// Operators of an [`OpBlock`] factored together: this many pivot
/// chains advance row by row side by side, so their divisions overlap.
const TILE: usize = 8;

/// A pivot below this magnitude fails the factor, as in
/// [`TridiagonalFactorization`].
const PIVOT_FLOOR: f64 = f64::MIN_POSITIVE * 16.0;

/// One stream's factored cross-stream operators, one per diffusivity,
/// in one block.
///
/// The implicit diffusion operator of [`HalfCellMarcher::prepare`]
/// depends only on the velocity profile, the grid spacings and the
/// diffusivity. Factoring it once per diffusivity (and solving the
/// flux-sensitivity system once, since that right-hand side is
/// operator-determined too) turns each station visit into two
/// back-substitutions instead of three full Thomas solves plus band
/// assembly.
///
/// Operator `k` keeps its reciprocal pivots, its `c′` row and its
/// unit-wall-flux response contiguous. The factor runs eight
/// operators at a time with rows in the outer loop, and each operator
/// performs exactly the operations of stamping its bands, a
/// [`TridiagonalFactorization::factor`] and a
/// [`TridiagonalFactorization::solve_in_place`] of the unit flux, so its
/// bits match that one-operator build.
#[derive(Debug, Clone, Default)]
pub struct OpBlock {
    ny: usize,
    dy: f64,
    dx: f64,
    /// Operators stamped by the last [`OpBlock::stamp`].
    len: usize,
    /// Advection weight `u_j/dx` of each row's diagonal.
    adv: Vec<f64>,
    /// Per operator: `−D/dy²`, the entry of both off-diagonal bands.
    off: Vec<f64>,
    /// Per operator: the surface sensitivity, including the half-cell
    /// correction.
    sens_surface: Vec<f64>,
    /// `[op][3·ny]`: operator `k`'s reciprocal pivots, its `c′` row and
    /// its response to a unit wall flux.
    rows: Vec<f64>,
}

impl OpBlock {
    /// An empty block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Operators stamped by the last [`OpBlock::stamp`].
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no operator is stamped.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stamps and factors one operator per entry of `ds` over
    /// `velocity` (the streamwise velocity at the `ny` cell centers,
    /// wall-first), station spacing `dx` and cross-stream cell size
    /// `dy` (m). Operator `k` is built for diffusivity `ds[k]` (m²/s).
    ///
    /// # Errors
    ///
    /// The error the one-operator builds, run in order, would meet
    /// first: [`FlowCellError::InvalidConfig`] for a non-positive
    /// diffusivity or an empty profile, [`FlowCellError::Numerical`] for
    /// a pivot that underflows. [`OpBlock::len`] then counts the
    /// operators stamped before it, and the block must be stamped again
    /// before use.
    pub fn stamp(
        &mut self,
        velocity: &[f64],
        dx: f64,
        dy: f64,
        ds: &[f64],
    ) -> Result<(), FlowCellError> {
        let ny = velocity.len();
        if ny == 0 {
            return Err(FlowCellError::InvalidConfig(
                "empty velocity profile".into(),
            ));
        }
        let ops = ds.len();
        let stride = 3 * ny;
        self.off.resize(ops, 0.0);
        self.sens_surface.resize(ops, 0.0);
        self.rows.resize(ops * stride, 0.0);
        self.adv.clear();
        self.adv.extend(velocity.iter().map(|u| u / dx));
        (self.ny, self.dy, self.dx, self.len) = (ny, dy, dx, 0);
        let inv_dy = 1.0 / dy;
        for (t, tile_d) in ds.chunks(TILE).enumerate() {
            let first = t * TILE;
            let mut w = [0.0; TILE];
            for (wk, d) in w.iter_mut().zip(tile_d) {
                *wk = d / (dy * dy);
            }
            let tile = &mut self.rows[first * stride..(first + tile_d.len()) * stride];
            let bad = factor_tile(tile, &self.adv, &w[..tile_d.len()], inv_dy);
            for (k, (&d, bad)) in tile_d.iter().zip(bad).enumerate() {
                check_diffusivity(d)?;
                if let Some(index) = bad {
                    return Err(NumError::SingularMatrix { index }.into());
                }
                let op = first + k;
                self.off[op] = -w[k];
                self.sens_surface[op] = tile[k * stride + 2 * ny] + dy / (2.0 * d);
                self.len = op + 1;
            }
        }
        Ok(())
    }

    /// Operator `k`, as a station advances and commits through it.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not below the number of diffusivities the last
    /// [`OpBlock::stamp`] was given (debug: below [`OpBlock::len`]).
    #[inline]
    pub fn op(&self, k: usize) -> StationOp<'_> {
        debug_assert!(k < self.len, "operator {k} of {} stamped", self.len);
        let ny = self.ny;
        let (inv_beta, rest) = self.rows[3 * ny * k..3 * ny * (k + 1)].split_at(ny);
        let (c_prime, sensitivity) = rest.split_at(ny);
        StationOp {
            off: self.off[k],
            sens_surface: self.sens_surface[k],
            dy: self.dy,
            dx: self.dx,
            inv_beta,
            c_prime,
            sensitivity,
        }
    }
}

/// Factors the operators of one tile of an [`OpBlock`] and solves their
/// unit-wall-flux responses. `tile` holds `w.len() ≤ TILE` operators'
/// rows (`[op][3·ny]`); operator `k` is `diag(adv) + w[k]·N`, `N` the
/// zero-flux second difference, so both off-diagonals hold `−w[k]`. Rows
/// run in the outer loop and operators in the inner one, so the
/// operators' pivot chains overlap, while each operator performs exactly
/// the operations of [`stamp_bands`], [`TridiagonalFactorization::factor`]
/// and [`TridiagonalFactorization::solve_in_place`] on `e₀/dy`. Returns
/// each operator's first row whose pivot underflows.
fn factor_tile(
    tile: &mut [f64],
    adv: &[f64],
    w: &[f64],
    inv_dy: f64,
) -> [Option<usize>; TILE] {
    let ny = adv.len();
    let stride = 3 * ny;
    let mut bad = [None; TILE];
    // Operator k's `c′` and forward-swept response of the previous row.
    let mut c = [0.0; TILE];
    let mut x = [0.0; TILE];
    for (i, &a) in adv.iter().enumerate() {
        let last = i + 1 == ny;
        for (k, row) in tile.chunks_exact_mut(stride).enumerate() {
            let (wk, off) = (w[k], -w[k]);
            let mut diag = a;
            if i > 0 {
                diag += wk;
            }
            if !last {
                diag += wk;
            }
            let beta = if i == 0 { diag } else { diag - off * c[k] };
            if beta.abs() < PIVOT_FLOOR && bad[k].is_none() {
                bad[k] = Some(i);
            }
            let inv = 1.0 / beta;
            row[i] = inv;
            if !last {
                c[k] = off * inv;
                row[ny + i] = c[k];
            }
            x[k] = if i == 0 { inv_dy * inv } else { (0.0 - off * x[k]) * inv };
            row[2 * ny + i] = x[k];
        }
    }
    for i in (0..ny.saturating_sub(1)).rev() {
        for row in tile.chunks_exact_mut(stride) {
            let next = row[2 * ny + i + 1];
            row[2 * ny + i] -= row[ny + i] * next;
        }
    }
    bad
}

/// One operator of an [`OpBlock`]: the rows a station advances every
/// lane through and commits the wall fluxes with.
#[derive(Debug, Clone, Copy)]
pub struct StationOp<'a> {
    off: f64,
    sens_surface: f64,
    dy: f64,
    dx: f64,
    inv_beta: &'a [f64],
    c_prime: &'a [f64],
    sensitivity: &'a [f64],
}

impl StationOp<'_> {
    /// Advances `width` right-hand sides stored row-major in `x`
    /// (`[ny][width]`): scales row `j` by `adv[j]`, then solves through
    /// the factored operator. Each column gets exactly the arithmetic of
    /// scaling it and calling
    /// [`TridiagonalFactorization::solve_lanes_in_place`], with the
    /// scaling folded into the forward sweep. Kept out of line: inlined
    /// into the cell solver's station loop, a paper column's march ran
    /// about 6% slower on a 2-vCPU x86-64 host.
    #[inline(never)]
    fn solve_lanes(&self, adv: &[f64], x: &mut [f64], width: usize) {
        let n = self.inv_beta.len();
        let (a0, inv0) = (adv[0], self.inv_beta[0]);
        for xi in &mut x[..width] {
            *xi = *xi * a0 * inv0;
        }
        for i in 1..n {
            let (prev, row) = x[(i - 1) * width..(i + 1) * width].split_at_mut(width);
            let (a, inv) = (adv[i], self.inv_beta[i]);
            for (xi, p) in row.iter_mut().zip(&*prev) {
                *xi = (*xi * a - self.off * p) * inv;
            }
        }
        for i in (0..n - 1).rev() {
            let (row, next) = x[i * width..(i + 2) * width].split_at_mut(width);
            let c = self.c_prime[i];
            for (xi, nx) in row.iter_mut().zip(&*next) {
                *xi -= c * nx;
            }
        }
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
/// that stamps and factors its station operator from scratch at every
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
    /// * [`FlowCellError::Numerical`] if the station operator cannot be
    ///   factored.
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
        let fac = TridiagonalFactorization::factor(&self.lower, &self.diag, &self.upper)?;

        // Zero-flux advance of both species.
        self.r_zero_flux.copy_from_slice(&self.reactant);
        for (rhs, u) in self.r_zero_flux.iter_mut().zip(&self.velocity) {
            *rhs *= u / self.dx;
        }
        fac.solve_in_place(&mut self.r_zero_flux)?;

        self.p_zero_flux.copy_from_slice(&self.product);
        for (rhs, u) in self.p_zero_flux.iter_mut().zip(&self.velocity) {
            *rhs *= u / self.dx;
        }
        fac.solve_in_place(&mut self.p_zero_flux)?;

        // Sensitivity: response to a unit wall flux (1 mol/(m^2 s) removed
        // from the wall cell).
        for s in self.sensitivity.iter_mut() {
            *s = 0.0;
        }
        self.sensitivity[0] = 1.0 / self.dy;
        fac.solve_in_place(&mut self.sensitivity)?;

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
/// polarization sweep — against the stream's [`OpBlock`].
///
/// All lanes share the stream's grid and, station by station, its
/// factored operator, so a station advances every lane's reactant and
/// product fields with one multi-lane back-substitution (the arithmetic
/// of [`TridiagonalFactorization::solve_lanes_in_place`]). Each lane gets
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
    /// The operator must have been stamped from this marcher's geometry
    /// *and velocity profile* (the profile is baked into the factored
    /// rows and is too large to compare per station; the `ny`/`dy`/`dx`
    /// checks below catch geometry mixups, not a different profile on
    /// the same grid).
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::Numerical`] if the operator's grid does
    /// not match this marcher's.
    pub fn advance(&mut self, op: StationOp<'_>) -> Result<(), FlowCellError> {
        if op.inv_beta.len() != self.ny
            || (op.dy - self.dy).abs() > 1e-15 * self.dy
            || (op.dx - self.dx).abs() > 1e-15 * self.dx
        {
            return Err(FlowCellError::Numerical(format!(
                "transport operator sized {} (dy {:.3e}, dx {:.3e}) vs marcher {} \
                 (dy {:.3e}, dx {:.3e})",
                op.inv_beta.len(),
                op.dy,
                op.dx,
                self.ny,
                self.dy,
                self.dx
            )));
        }
        op.solve_lanes(&self.adv, &mut self.fields, 2 * self.lanes);
        Ok(())
    }

    /// Lane `lane`'s affine surface response at the advanced station
    /// (`op` is the operator the station was advanced through).
    #[inline]
    pub fn response(&self, op: StationOp<'_>, lane: usize) -> StationResponse {
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
    pub fn commit(&mut self, op: StationOp<'_>, fluxes: &[f64]) {
        debug_assert_eq!(fluxes.len(), self.lanes, "one flux per lane");
        for (row, s) in self
            .fields
            .chunks_exact_mut(2 * self.lanes)
            .zip(op.sensitivity)
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
    use proptest::prelude::*;

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
        // assembly path bit for bit over a full march with extraction —
        // for one lane and for several lanes with distinct flux histories.
        let d = 1.26e-10;
        for lanes in [1, 3] {
            let flux = |lane: usize| 3e-3 * (lane + 1) as f64;
            let mut refs: Vec<HalfCellMarcher> =
                (0..lanes).map(|_| uniform_marcher(48, 60)).collect();
            let mut b =
                LaneMarcher::new(100e-6, 22e-3, 60, &[1.5; 48], 2000.0, 1.0, lanes).unwrap();
            let mut block = OpBlock::new();
            block.stamp(&[1.5; 48], b.dx(), 100e-6 / 48.0, &[d]).unwrap();
            let op = block.op(0);
            let fluxes: Vec<f64> = (0..lanes).map(flux).collect();
            for station in 0..60 {
                b.advance(op).unwrap();
                for (lane, a) in refs.iter_mut().enumerate() {
                    let ra = a.prepare(d).unwrap();
                    let rb = b.response(op, lane);
                    // Rows 0-3: r0, p0, sens, q_max.
                    let got = [rb.r0, rb.p0, rb.sens, rb.q_max];
                    let want = [ra.r0, ra.p0, ra.sens, ra.q_max];
                    assert_bits(&got, &want, &format!("lane {lane}, station {station}"));
                    a.commit(flux(lane));
                }
                b.commit(op, &fluxes);
            }
            for (lane, a) in refs.iter().enumerate() {
                assert_bits(&b.reactant(lane), a.reactant(), &format!("lane {lane} reactant"));
                assert_bits(&b.product(lane), a.product(), &format!("lane {lane} product"));
            }
        }
    }

    /// One operator built alone, with the arithmetic the block must
    /// reproduce: bands, factor, unit-wall-flux response and surface
    /// sensitivity.
    fn one_operator(
        velocity: &[f64],
        dx: f64,
        dy: f64,
        d: f64,
    ) -> Result<(TridiagonalFactorization, Vec<f64>, f64), FlowCellError> {
        check_diffusivity(d)?;
        let ny = velocity.len();
        let (mut lower, mut diag, mut upper) =
            (vec![0.0; ny - 1], vec![0.0; ny], vec![0.0; ny - 1]);
        stamp_bands(velocity, dx, dy, d, &mut lower, &mut diag, &mut upper);
        let fac = TridiagonalFactorization::factor(&lower, &diag, &upper)?;
        let mut sens = vec![0.0; ny];
        sens[0] = 1.0 / dy;
        fac.solve_in_place(&mut sens)?;
        let surface = sens[0] + dy / (2.0 * d);
        Ok((fac, sens, surface))
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}, row {i}: {g} vs {w}");
        }
    }

    #[test]
    fn refreshed_op_matches_fresh_build_bitwise() {
        // A block stamped again must be indistinguishable from one
        // built cold at the new coefficients: same rows, same
        // sensitivity as a lone operator, same marching behaviour as the
        // reference.
        let dx = 22e-3 / 60.0;
        let dy = 100e-6 / 48.0;
        let slow: Vec<f64> = (0..48).map(|j| 0.8 + 0.01 * j as f64).collect();
        let fast: Vec<f64> = slow.iter().map(|u| u * 2.5).collect();
        let mut block = OpBlock::new();
        block.stamp(&slow, dx, dy, &[1.26e-10, 3e-10]).unwrap();
        // Flow change (velocity rescale), then a diffusivity change with
        // fewer operators.
        for (v, d) in [(&fast, 1.26e-10), (&slow, 4.13e-10)] {
            block.stamp(v, dx, dy, &[d]).unwrap();
            assert_eq!(block.len(), 1);
            let mut fresh = OpBlock::new();
            fresh.stamp(v, dx, dy, &[d]).unwrap();
            let (op, cold) = (block.op(0), fresh.op(0));
            assert_bits(op.inv_beta, cold.inv_beta, "pivots");
            assert_bits(&op.c_prime[..47], &cold.c_prime[..47], "c'");
            assert_bits(op.sensitivity, cold.sensitivity, "sensitivity");
            let (_, sens, surface) = one_operator(v, dx, dy, d).unwrap();
            assert_bits(op.sensitivity, &sens, "lone operator's sensitivity");
            assert_eq!(op.sens_surface.to_bits(), surface.to_bits());
            assert_eq!(op.off.to_bits(), (-(d / (dy * dy))).to_bits());
            // And it marches like the from-scratch reference.
            let mut reference =
                HalfCellMarcher::new(100e-6, 22e-3, 60, v.clone(), 2000.0, 1.0).unwrap();
            let mut lane = LaneMarcher::new(100e-6, 22e-3, 60, v, 2000.0, 1.0, 1).unwrap();
            for _ in 0..20 {
                let ra = reference.prepare(d).unwrap();
                lane.advance(op).unwrap();
                let rb = lane.response(op, 0);
                assert!((ra.r0 - rb.r0).abs() < 1e-9 * ra.r0, "{} vs {}", ra.r0, rb.r0);
                assert!((ra.sens - rb.sens).abs() < 1e-9 * ra.sens);
                reference.commit(2e-3);
                lane.commit(op, &[2e-3]);
            }
        }
        // Bad diffusivities are rejected.
        assert!(block.stamp(&slow, dx, dy, &[0.0]).is_err());
        assert!(block.stamp(&slow, dx, dy, &[f64::NAN]).is_err());
    }

    #[test]
    fn transport_op_validates() {
        let mut block = OpBlock::new();
        assert!(block.stamp(&[1.0; 8], 1e-3, 1e-5, &[0.0]).is_err());
        assert!(block.stamp(&[1.0; 8], 1e-3, 1e-5, &[f64::NAN]).is_err());
        assert!(block.stamp(&[], 1e-3, 1e-5, &[1e-10]).is_err());
        block.stamp(&[1.0; 8], 1e-3, 1e-5, &[1e-10]).unwrap();
        for lanes in [1, 4] {
            let mut m = LaneMarcher::new(100e-6, 22e-3, 4, &[1.5; 16], 2000.0, 1.0, lanes).unwrap();
            // Mismatched operator size is rejected.
            assert!(m.advance(block.op(0)).is_err());
            // Matching ny/dy but a different station spacing is rejected
            // too (dx is baked into the factored rows).
            let mut m32 =
                LaneMarcher::new(100e-6, 22e-3, 40, &[1.5; 32], 2000.0, 1.0, lanes).unwrap();
            let mut wrong_dx = OpBlock::new();
            wrong_dx
                .stamp(&[1.5; 32], m32.dx() * 2.0, 100e-6 / 32.0, &[1e-10])
                .unwrap();
            assert!(m32.advance(wrong_dx.op(0)).is_err());
        }
        // A lane marcher validates its stream like the reference marcher
        // and needs at least one lane.
        assert!(LaneMarcher::new(1e-4, 1e-2, 10, &[1.0; 3], 1.0, 1.0, 1).is_err());
        assert!(LaneMarcher::new(1e-4, 1e-2, 10, &[1.0; 8], 1.0, 1.0, 0).is_err());
    }

    /// A deterministic value in `[-0.5, 0.5)` for `(seed, i, salt)`.
    fn noise(seed: u64, i: u64, salt: u64) -> f64 {
        let x = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15));
        ((x >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    }

    /// Operator counts around the tile width: a partial tile, whole
    /// tiles, and whole tiles plus a remainder.
    const OP_COUNTS: [usize; 6] = [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 2, TILE];

    proptest! {
        #[test]
        fn op_block_matches_one_operator_builds_bitwise(
            ny in 4usize..97,
            seed in 0u64..1_000_000,
            dominant in 0u8..2,
        ) {
            // A non-negative profile gives diagonally dominant bands; a
            // signed one gives random bands, whose pivots can shrink or
            // change sign.
            let dx = 22e-3 / 220.0;
            let dy = 100e-6 / ny as f64;
            let velocity: Vec<f64> = (0..ny)
                .map(|j| {
                    let u = 3.0 * noise(seed, j as u64, 1);
                    if dominant == 1 { u.abs() } else { u }
                })
                .collect();
            let adv: Vec<f64> = velocity.iter().map(|u| u / dx).collect();
            let width = 5;
            let rhs: Vec<f64> = (0..ny * width)
                .map(|i| 2000.0 * (noise(seed, i as u64, 2) + 0.5))
                .collect();
            // One block stamped through every count, growing and
            // shrinking.
            let mut block = OpBlock::new();
            for (round, ops) in OP_COUNTS.into_iter().enumerate() {
                let ds: Vec<f64> = (0..ops)
                    .map(|k| 1e-10 * (1.0 + 8.0 * (noise(seed, (round * 64 + k) as u64, 3) + 0.5)))
                    .collect();
                let lone: Result<Vec<_>, FlowCellError> =
                    ds.iter().map(|&d| one_operator(&velocity, dx, dy, d)).collect();
                let stamped = block.stamp(&velocity, dx, dy, &ds);
                let lone = match (stamped, lone) {
                    (Ok(()), Ok(lone)) => lone,
                    (Err(got), Err(want)) => {
                        prop_assert_eq!(got, want);
                        continue;
                    }
                    (got, want) => panic!("block {got:?} vs lone operators {:?}", want.map(|_| ())),
                };
                prop_assert_eq!(block.len(), ops);
                for (k, (fac, sens, surface)) in lone.iter().enumerate() {
                    let op = block.op(k);
                    let what = format!("ny {ny}, {ops} ops, op {k}");
                    assert_bits(op.sensitivity, sens, &what);
                    prop_assert_eq!(op.sens_surface.to_bits(), surface.to_bits(), "{}", what);
                    let mut want = rhs.clone();
                    for (row, a) in want.chunks_exact_mut(width).zip(&adv) {
                        for c in row {
                            *c *= a;
                        }
                    }
                    fac.solve_lanes_in_place(&mut want, width).unwrap();
                    let mut got = rhs.clone();
                    op.solve_lanes(&adv, &mut got, width);
                    assert_bits(&got, &want, &what);
                }
            }
        }

        #[test]
        fn op_block_reports_the_first_failing_operator(
            ny in 4usize..97,
            seed in 0u64..1_000_000,
            count in 0usize..5,
            first in 0usize..64,
            second in 0usize..64,
            kind in 0u8..4,
        ) {
            // A profile with one stagnant row: a subnormal diffusivity
            // makes that row's pivot underflow.
            let stagnant = (seed as usize) % ny;
            let velocity: Vec<f64> = (0..ny)
                .map(|j| if j == stagnant { 0.0 } else { 0.5 + noise(seed, j as u64, 1) + 0.5 })
                .collect();
            let (dx, dy) = (22e-3 / 220.0, 1.0);
            let ops = OP_COUNTS[count];
            let mut ds: Vec<f64> =
                (0..ops).map(|k| 1e-10 * (1.5 + noise(seed, k as u64, 3))).collect();
            let failing = |kind: u8| [0.0, f64::NAN, -1e-10, 1e-320][usize::from(kind % 4)];
            ds[first % ops] = failing(kind);
            ds[second % ops] = failing(kind + 1);
            let lone: Result<Vec<_>, FlowCellError> =
                ds.iter().map(|&d| one_operator(&velocity, dx, dy, d)).collect();
            let Err(want) = lone else { panic!("a planted operator must fail alone") };
            let mut block = OpBlock::new();
            let got = block.stamp(&velocity, dx, dy, &ds).unwrap_err();
            prop_assert_eq!(got, want);
            prop_assert_eq!(block.len(), (first % ops).min(second % ops));
        }
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
