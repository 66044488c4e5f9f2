//! Geometric multigrid (GMG) V-cycle preconditioner for structured
//! thermal/PDN grids.
//!
//! The SSOR/IC(0) preconditioners in [`crate::precond`] keep Krylov
//! iteration counts acceptable up to ~10^5 unknowns, but on the
//! stacked-tier grids the iteration count grows with mesh size: the
//! low-frequency error components that dominate large Laplacian-like
//! operators are exactly the ones pointwise relaxation damps slowest.
//! A multigrid V-cycle attacks every frequency band on the grid level
//! where it is oscillatory, which makes the preconditioned iteration
//! count (near-)independent of the mesh — the property the
//! `mg_iteration_growth` row of the `gates` binary checks.
//!
//! Design, in the order the pieces appear below:
//!
//! * [`MgConfig`] names the fine-grid geometry (`nx × ny` per plane,
//!   `layers` stacked planes) and is the payload of
//!   [`PrecondSpec::Multigrid`]. The cycle itself is fixed: one pre- and
//!   one post-smoothing application of degree 3 per level.
//! * `TransferOps` holds one plane's full-weighting restriction and
//!   bilinear prolongation as flat CSR triples; the layered-3D
//!   operators are `I_layers ⊗ P_plane` and are applied by index
//!   arithmetic instead of being materialized.
//! * Coarse operators are Galerkin products `A_c = R·A·P` assembled
//!   per coarse row. The sparsity pattern is cached on first build;
//!   coefficient retargets re-run only the O(nnz) numeric accumulation
//!   into the cached pattern (bitwise identical to a cold build, which
//!   a proptest asserts).
//! * Smoothing is Chebyshev polynomial smoothing on the
//!   Jacobi-preconditioned operator `D⁻¹A` (eigenvalue upper bound from
//!   a deterministic power iteration, refreshed on every setup), with a
//!   weighted-Jacobi fallback that setup selects for nonsymmetric
//!   operators (the thermal stack's upwind advection terms), where
//!   Chebyshev's real-interval bounds do not apply.
//! * The coarsest level (≤ 256 unknowns, or the 16th level) is solved
//!   exactly with the dense LU from [`crate::dense`].
//!
//! # Examples
//!
//! ```
//! use bright_num::solvers::{conjugate_gradient, IterOptions};
//! use bright_num::{MgConfig, PrecondSpec, TripletMatrix};
//!
//! // 5-point Laplacian on a 12x12 grid.
//! let n = 12usize;
//! let mut t = TripletMatrix::new(n * n, n * n);
//! for iy in 0..n {
//!     for ix in 0..n {
//!         let i = iy * n + ix;
//!         t.push(i, i, 4.0)?;
//!         if ix > 0 { t.push(i, i - 1, -1.0)?; }
//!         if ix + 1 < n { t.push(i, i + 1, -1.0)?; }
//!         if iy > 0 { t.push(i, i - n, -1.0)?; }
//!         if iy + 1 < n { t.push(i, i + n, -1.0)?; }
//!     }
//! }
//! let a = t.to_csr();
//! let b = vec![1.0; n * n];
//! let opts = IterOptions {
//!     preconditioner: PrecondSpec::Multigrid(MgConfig::for_grid(n, n, 1)),
//!     ..IterOptions::default()
//! };
//! let sol = conjugate_gradient(&a, &b, None, &opts)?;
//! assert!(sol.relative_residual <= 1e-10);
//! # Ok::<(), bright_num::NumError>(())
//! ```

use crate::dense::{DenseMatrix, LuFactors};
use crate::precond::{PrecondSpec, Preconditioner, TINY_DIAGONAL};
use crate::sparse::CsrMatrix;
use crate::NumError;

/// Smoother family used on every non-coarsest level: Chebyshev for
/// (numerically) symmetric operators, weighted Jacobi otherwise. Every
/// setup picks it from the fine operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Smoother {
    /// Chebyshev polynomial smoothing on `D⁻¹A`. Strongest choice for
    /// SPD operators; assumes a real positive spectrum.
    Chebyshev,
    /// Damped point-Jacobi relaxation (`ω = 0.7`). Safe for the
    /// nonsymmetric advective thermal operators.
    WeightedJacobi,
}

impl Smoother {
    fn name(self) -> &'static str {
        match self {
            Self::Chebyshev => "chebyshev",
            Self::WeightedJacobi => "weighted-jacobi",
        }
    }
}

/// Pre-smoothing applications per level per V-cycle.
const PRE_SMOOTH: usize = 1;

/// Post-smoothing applications per level per V-cycle.
const POST_SMOOTH: usize = 1;

/// Chebyshev polynomial degree (weighted-Jacobi steps) per smoothing
/// application.
const CHEB_DEGREE: usize = 3;

/// Coarsening stops once a level has at most this many unknowns; that
/// level is solved exactly by dense LU.
const MAX_COARSE: usize = 256;

/// Hard cap on hierarchy depth (safety backstop).
const MAX_LEVELS: usize = 16;

/// Fine-grid geometry for [`PrecondSpec::Multigrid`].
///
/// The fine grid is `layers` stacked `nx × ny` planes with unknown
/// index `layer * nx * ny + iy * nx + ix` — the layout both
/// `ThermalModel` and `PowerGrid` (with `layers = 1`) already use.
/// Coarsening is in-plane only (semicoarsening): stacks are a few
/// layers deep but planes run to hundreds of points per side, so the
/// plane directions are where resolution must be shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgConfig {
    /// Fine-grid points along x (plane fast axis).
    pub nx: usize,
    /// Fine-grid points along y.
    pub ny: usize,
    /// Number of stacked planes (1 for the 2D PDN sheet).
    pub layers: usize,
}

impl MgConfig {
    /// A `layers`-deep stack of `nx × ny` planes.
    #[must_use]
    pub fn for_grid(nx: usize, ny: usize, layers: usize) -> Self {
        Self { nx, ny, layers }
    }

    /// Fine-grid unknown count (`nx · ny · layers`).
    #[must_use]
    pub fn unknowns(&self) -> usize {
        self.nx * self.ny * self.layers
    }
}

/// Lifetime counters and hierarchy shape of a [`MultigridPrecond`],
/// surfaced through `SessionStats` so cache behaviour (pattern reuse
/// vs. rebuild) is assertable and scaled runs are diagnosable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MgStats {
    /// Full hierarchy (pattern + values) constructions.
    pub hierarchy_builds: u64,
    /// O(nnz) value-only refreshes into the cached pattern.
    pub value_refreshes: u64,
    /// V-cycles applied (one per `Preconditioner::apply`).
    pub cycles: u64,
    /// Levels in the current hierarchy (1 = direct dense solve only).
    pub levels: u32,
    /// Unknowns on the coarsest level.
    pub coarse_rows: u32,
    /// Resolved smoother name (`"chebyshev"` / `"weighted-jacobi"`),
    /// empty before the first setup.
    pub smoother: &'static str,
}

/// Restriction scale: full weighting in 2D is `R = ¼·Pᵀ`, which makes
/// interior coarse-row weights sum to 1 (an average, so restricted
/// residuals keep the fine grid's scale).
pub(crate) const RESTRICTION_SCALE: f64 = 0.25;

/// 1D coarse size under standard coarsening (coarse point at every
/// even fine index).
fn coarse_dim(n: usize) -> usize {
    if n >= 2 {
        n.div_ceil(2)
    } else {
        n.max(1)
    }
}

/// One plane's grid-transfer operators in flat CSR form.
///
/// Prolongation rows are fine-plane points (≤ 4 coarse entries,
/// bilinear weights); restriction rows are coarse-plane points (≤ 9
/// fine entries, pre-scaled by [`RESTRICTION_SCALE`] so `R = ¼·Pᵀ`).
/// The layered-3D operators are Kronecker products with the layer
/// identity and are applied via index arithmetic.
#[derive(Debug, Clone)]
pub(crate) struct TransferOps {
    /// Coarse-plane x extent.
    pub cnx: usize,
    /// Coarse-plane y extent.
    pub cny: usize,
    p_ptr: Vec<usize>,
    p_col: Vec<usize>,
    p_w: Vec<f64>,
    r_ptr: Vec<usize>,
    r_col: Vec<usize>,
    r_w: Vec<f64>,
}

/// 1D bilinear interpolation stencil for fine index `f` on an `n`-point
/// line with `cn` coarse points: `(count, [(coarse, weight); 2])`.
fn interp_1d(f: usize, cn: usize) -> (usize, [(usize, f64); 2]) {
    if f.is_multiple_of(2) {
        (1, [(f / 2, 1.0), (0, 0.0)])
    } else {
        let left = f / 2;
        let right = left + 1;
        if right >= cn {
            // Clamped at the right boundary (even fine extent).
            (1, [(left, 1.0), (0, 0.0)])
        } else {
            (2, [(left, 0.5), (right, 0.5)])
        }
    }
}

impl TransferOps {
    /// Builds the plane transfer pair, or `None` when the plane cannot
    /// shrink any further (both extents < 2).
    pub(crate) fn build(nx: usize, ny: usize) -> Option<Self> {
        let cnx = coarse_dim(nx);
        let cny = coarse_dim(ny);
        if cnx == nx && cny == ny {
            return None;
        }
        let fine = nx * ny;
        let coarse = cnx * cny;

        // Prolongation: fine row -> tensor product of the 1D stencils.
        let mut p_ptr = Vec::with_capacity(fine + 1);
        let mut p_col = Vec::new();
        let mut p_w = Vec::new();
        p_ptr.push(0);
        for fy in 0..ny {
            let (ncy, sy) = interp_1d(fy, cny);
            for fx in 0..nx {
                let (ncx, sx) = interp_1d(fx, cnx);
                for (cy, wy) in &sy[..ncy] {
                    for (cx, wx) in &sx[..ncx] {
                        p_col.push(cy * cnx + cx);
                        p_w.push(wy * wx);
                    }
                }
                p_ptr.push(p_col.len());
            }
        }

        // Restriction = RESTRICTION_SCALE * P^T, built by counting
        // sort so each coarse row's fine entries come out in ascending
        // fine-index order (deterministic accumulation order).
        let mut counts = vec![0usize; coarse + 1];
        for &c in &p_col {
            counts[c + 1] += 1;
        }
        for i in 0..coarse {
            counts[i + 1] += counts[i];
        }
        let r_ptr = counts.clone();
        let nnz = p_col.len();
        let mut r_col = vec![0usize; nnz];
        let mut r_w = vec![0.0f64; nnz];
        let mut cursor = counts;
        for f in 0..fine {
            for k in p_ptr[f]..p_ptr[f + 1] {
                let c = p_col[k];
                let slot = cursor[c];
                cursor[c] += 1;
                r_col[slot] = f;
                r_w[slot] = RESTRICTION_SCALE * p_w[k];
            }
        }

        Some(Self {
            cnx,
            cny,
            p_ptr,
            p_col,
            p_w,
            r_ptr,
            r_col,
            r_w,
        })
    }

    /// Prolongation row `f` (a fine-plane index): `(coarse, weight)`
    /// pairs.
    pub(crate) fn p_row(&self, f: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.p_ptr[f];
        let hi = self.p_ptr[f + 1];
        self.p_col[lo..hi]
            .iter()
            .zip(&self.p_w[lo..hi])
            .map(|(&c, &w)| (c, w))
    }

    /// Restriction row `c` (a coarse-plane index): `(fine, weight)`
    /// pairs, weights already scaled by [`RESTRICTION_SCALE`].
    pub(crate) fn r_row(&self, c: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.r_ptr[c];
        let hi = self.r_ptr[c + 1];
        self.r_col[lo..hi]
            .iter()
            .zip(&self.r_w[lo..hi])
            .map(|(&f, &w)| (f, w))
    }

    /// Fine-plane row count of the prolongation operator.
    pub(crate) fn fine_plane(&self) -> usize {
        self.p_ptr.len() - 1
    }

    /// Coarse-plane row count of the restriction operator.
    pub(crate) fn coarse_plane(&self) -> usize {
        self.cnx * self.cny
    }
}

/// One level of the hierarchy: its operator, smoother data, plane
/// geometry, the transfer pair *down* to the next (coarser) level, and
/// per-level solve workspaces.
#[derive(Debug)]
struct MgLevel {
    a: CsrMatrix,
    inv_diag: Vec<f64>,
    /// Safety-scaled upper bound on the spectrum of `D⁻¹A`.
    lambda_max: f64,
    transfer: Option<TransferOps>,
    x: Vec<f64>,
    b: Vec<f64>,
    r: Vec<f64>,
    d: Vec<f64>,
    z: Vec<f64>,
}

impl MgLevel {
    fn new(a: CsrMatrix, transfer: Option<TransferOps>) -> Self {
        let n = a.rows();
        Self {
            a,
            inv_diag: Vec::new(),
            lambda_max: 0.0,
            transfer,
            x: vec![0.0; n],
            b: vec![0.0; n],
            r: vec![0.0; n],
            d: vec![0.0; n],
            z: vec![0.0; n],
        }
    }
}

/// Scratch for Galerkin coarse-row accumulation: a dense value strip
/// over coarse columns plus a stamp array so only touched columns are
/// reset between rows.
struct GalerkinScratch {
    acc: Vec<f64>,
    stamp: Vec<u64>,
    touched: Vec<usize>,
    epoch: u64,
}

impl GalerkinScratch {
    fn new(coarse_cols: usize) -> Self {
        Self {
            acc: vec![0.0; coarse_cols],
            stamp: vec![0; coarse_cols],
            touched: Vec::with_capacity(32),
            epoch: 0,
        }
    }

    /// Accumulates one coarse row of `A_c = R·A·P` into `acc`/`touched`.
    ///
    /// `coarse_row = lc · cplane + pi_c`. The traversal order (R row →
    /// fine A row → P row) is fixed, so re-running it over refreshed
    /// fine values writes bitwise-identical coarse values — the cache
    /// refresh path relies on this.
    fn accumulate(
        &mut self,
        fine: &CsrMatrix,
        transfer: &TransferOps,
        layers: usize,
        coarse_row: usize,
    ) {
        let plane = transfer.fine_plane();
        let cplane = transfer.coarse_plane();
        debug_assert_eq!(fine.rows(), plane * layers);
        self.epoch += 1;
        self.touched.clear();
        let lc = coarse_row / cplane;
        let pi_c = coarse_row % cplane;
        for (pf, rw) in transfer.r_row(pi_c) {
            let i = lc * plane + pf;
            for (j, v) in fine.row(i) {
                let lj = j / plane;
                let pj = j % plane;
                for (pc, pw) in transfer.p_row(pj) {
                    let col = lj * cplane + pc;
                    if self.stamp[col] != self.epoch {
                        self.stamp[col] = self.epoch;
                        self.acc[col] = 0.0;
                        self.touched.push(col);
                    }
                    self.acc[col] += rw * v * pw;
                }
            }
        }
    }
}

/// Builds the Galerkin coarse operator `A_c = R·A·P` from scratch
/// (pattern + values).
fn galerkin_build(fine: &CsrMatrix, transfer: &TransferOps, layers: usize) -> CsrMatrix {
    let cplane = transfer.coarse_plane();
    let coarse_n = cplane * layers;
    let mut scratch = GalerkinScratch::new(coarse_n);
    let mut row_ptr = Vec::with_capacity(coarse_n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for cr in 0..coarse_n {
        scratch.accumulate(fine, transfer, layers, cr);
        scratch.touched.sort_unstable();
        for &col in &scratch.touched {
            col_idx.push(col);
            values.push(scratch.acc[col]);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts(coarse_n, coarse_n, row_ptr, col_idx, values)
}

/// Re-runs the Galerkin accumulation over refreshed fine values,
/// writing into `coarse`'s cached pattern in place. Values come out
/// bitwise identical to [`galerkin_build`] on the same fine values.
fn galerkin_refresh(
    fine: &CsrMatrix,
    transfer: &TransferOps,
    layers: usize,
    coarse: &mut CsrMatrix,
    scratch: &mut GalerkinScratch,
) {
    let coarse_n = coarse.rows();
    for cr in 0..coarse_n {
        scratch.accumulate(fine, transfer, layers, cr);
        let lo = coarse.row_ptr()[cr];
        let hi = coarse.row_ptr()[cr + 1];
        debug_assert_eq!(hi - lo, scratch.touched.len());
        for k in lo..hi {
            let col = coarse.col_idx()[k];
            debug_assert_eq!(scratch.stamp[col], scratch.epoch);
            let v = scratch.acc[col];
            coarse.values_mut()[k] = v;
        }
    }
}

/// Geometric multigrid V-cycle preconditioner (see the module docs for
/// the construction). Built by [`PrecondSpec::Multigrid`]; one
/// [`Preconditioner::apply`] performs one V-cycle.
#[derive(Debug)]
pub struct MultigridPrecond {
    config: MgConfig,
    levels: Vec<MgLevel>,
    coarse_lu: Option<LuFactors>,
    /// Picked from the fine operator's symmetry at every setup.
    smoother: Smoother,
    stats: MgStats,
}

impl MultigridPrecond {
    /// Creates an un-set-up preconditioner for the given geometry.
    #[must_use]
    pub fn new(config: MgConfig) -> Self {
        Self {
            config,
            levels: Vec::new(),
            coarse_lu: None,
            smoother: Smoother::Chebyshev,
            stats: MgStats::default(),
        }
    }

    /// Lifetime counters and hierarchy shape.
    #[must_use]
    pub fn stats(&self) -> MgStats {
        self.stats
    }

    /// True if `a`'s pattern matches the cached fine-level pattern.
    fn pattern_matches(&self, a: &CsrMatrix) -> bool {
        self.levels.first().is_some_and(|l0| {
            l0.a.rows() == a.rows()
                && l0.a.row_ptr() == a.row_ptr()
                && l0.a.col_idx() == a.col_idx()
        })
    }

    /// Builds the full hierarchy (patterns + values) from the fine
    /// operator.
    fn build_hierarchy(&mut self, a: &CsrMatrix) {
        self.levels.clear();
        let mut nx = self.config.nx;
        let mut ny = self.config.ny;
        let layers = self.config.layers;
        let mut current = a.clone();
        loop {
            let rows = current.rows();
            let at_depth_cap = self.levels.len() + 1 >= MAX_LEVELS;
            let transfer = if rows <= MAX_COARSE || at_depth_cap {
                None
            } else {
                TransferOps::build(nx, ny)
            };
            match transfer {
                Some(t) => {
                    let coarse = galerkin_build(&current, &t, layers);
                    let (cnx, cny) = (t.cnx, t.cny);
                    self.levels.push(MgLevel::new(current, Some(t)));
                    current = coarse;
                    nx = cnx;
                    ny = cny;
                }
                None => {
                    self.levels.push(MgLevel::new(current, None));
                    break;
                }
            }
        }
        self.stats.hierarchy_builds += 1;
    }

    /// Copies refreshed fine values in and re-runs the Galerkin
    /// accumulation down the cached patterns (O(nnz) per level, no
    /// re-allocation).
    fn refresh_hierarchy(&mut self, a: &CsrMatrix) -> Result<(), NumError> {
        self.levels[0].a.copy_values_from(a)?;
        let layers = self.config.layers;
        for l in 0..self.levels.len() - 1 {
            let (lo, hi) = self.levels.split_at_mut(l + 1);
            let fine = &lo[l];
            let coarse = &mut hi[0];
            let transfer = fine
                .transfer
                .as_ref()
                .expect("non-coarsest level always has a transfer pair");
            let mut scratch = GalerkinScratch::new(coarse.a.rows());
            galerkin_refresh(&fine.a, transfer, layers, &mut coarse.a, &mut scratch);
        }
        self.stats.value_refreshes += 1;
        Ok(())
    }

    /// Per-setup numeric work shared by build and refresh: inverse
    /// diagonals, smoother eigenvalue estimates, coarsest-level LU, and
    /// the smoother choice.
    fn refresh_numerics(&mut self) -> Result<(), NumError> {
        self.smoother = if self.levels[0].a.is_symmetric(1e-8) {
            Smoother::Chebyshev
        } else {
            Smoother::WeightedJacobi
        };
        let n_levels = self.levels.len();
        for (idx, level) in self.levels.iter_mut().enumerate() {
            level.a.diagonal_into(&mut level.inv_diag);
            for (i, d) in level.inv_diag.iter_mut().enumerate() {
                if d.abs() < TINY_DIAGONAL {
                    return Err(NumError::Breakdown(format!(
                        "multigrid: near-zero diagonal at row {i} of level {idx}"
                    )));
                }
                *d = 1.0 / *d;
            }
            let coarsest = idx + 1 == n_levels;
            if !coarsest {
                // Both smoothers need the spectral bound: Chebyshev to
                // place its polynomial, Jacobi to stay contractive on
                // Galerkin-coarsened advection levels where D⁻¹A leaves
                // the unit Gershgorin disk.
                level.lambda_max = estimate_lambda_max(&level.a, &level.inv_diag, &mut level.r, &mut level.z);
            }
        }
        let coarsest = self.levels.last().expect("hierarchy is non-empty");
        let n = coarsest.a.rows();
        let mut dense = DenseMatrix::zeros(n, n)?;
        for i in 0..n {
            for (j, v) in coarsest.a.row(i) {
                dense.set(i, j, v);
            }
        }
        self.coarse_lu = Some(dense.lu()?);
        self.stats.levels = u32::try_from(self.levels.len()).unwrap_or(u32::MAX);
        self.stats.coarse_rows = u32::try_from(n).unwrap_or(u32::MAX);
        self.stats.smoother = self.smoother.name();
        Ok(())
    }

    /// Setup-time self-check: estimates the spectral radius of the
    /// V-cycle error propagator `E = I − M·A` by power iteration and
    /// rejects the hierarchy when the cycle is expansive. Geometric
    /// coarsening with the symmetric bilinear transfers is only sound
    /// for (near-)symmetric operators; on strongly nonsymmetric ones —
    /// e.g. the advection-dominated fluid layers of a microchannel
    /// stack — the Galerkin coarse operators lose diagonal dominance
    /// and the cycle *amplifies* error, which would stagnate the outer
    /// Krylov solve for its full iteration budget. Failing fast here
    /// turns that pathology into a recoverable
    /// [`NumError::Breakdown`], so the session's recovery ladder swaps
    /// in a sweep-based preconditioner instead.
    fn verify_contraction(&mut self) -> Result<(), NumError> {
        if self.levels.len() == 1 {
            // Single-level hierarchies solve by dense LU: E = 0.
            return Ok(());
        }
        let n = self.levels[0].a.rows();
        let mut v = vec![0.0f64; n];
        lcg_fill(&mut v);
        let mut rho = 0.0f64;
        for _ in 0..CONTRACTION_PROBE_ITERS {
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if !(norm.is_finite() && norm > 0.0) {
                break;
            }
            let inv_norm = 1.0 / norm;
            for vi in v.iter_mut() {
                *vi *= inv_norm;
            }
            // levels[0].b ← A·v, then x ← M·b via one V-cycle.
            {
                let level = &mut self.levels[0];
                level
                    .a
                    .matvec_into(&v, &mut level.b)
                    .expect("probe vector matches the fine operator");
            }
            self.v_cycle();
            // v ← E·v = v − M·A·v.
            for (vi, xi) in v.iter_mut().zip(&self.levels[0].x) {
                *vi -= xi;
            }
            rho = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        }
        if rho > CONTRACTION_LIMIT {
            return Err(NumError::Breakdown(format!(
                "multigrid: V-cycle is not contractive (spectral-radius estimate {rho:.2e}); \
                 the operator is outside the geometric hierarchy's reach \
                 (typically strong nonsymmetry, e.g. advection-dominated rows)"
            )));
        }
        Ok(())
    }

    /// One V-cycle: `levels[0].x ← M⁻¹ · levels[0].b`.
    fn v_cycle(&mut self) {
        let n_levels = self.levels.len();
        let smoother = self.smoother;
        let layers = self.config.layers;

        // Down sweep: smooth, form the residual, restrict it.
        for l in 0..n_levels - 1 {
            let (lo, hi) = self.levels.split_at_mut(l + 1);
            let level = &mut lo[l];
            let next = &mut hi[0];
            level.x.fill(0.0);
            for _ in 0..PRE_SMOOTH {
                smooth(level, smoother);
            }
            residual_into(level);
            let transfer = level
                .transfer
                .as_ref()
                .expect("non-coarsest level always has a transfer pair");
            restrict_into(transfer, layers, &level.r, &mut next.b);
        }

        // Coarsest: exact dense solve.
        {
            let coarsest = self
                .levels
                .last_mut()
                .expect("hierarchy is non-empty");
            let lu = self.coarse_lu.as_ref().expect("setup built the LU");
            let solved = lu
                .solve(&coarsest.b)
                .expect("setup verified the coarse LU is non-singular");
            coarsest.x.copy_from_slice(&solved);
        }

        // Up sweep: prolongate the correction, post-smooth.
        for l in (0..n_levels - 1).rev() {
            let (lo, hi) = self.levels.split_at_mut(l + 1);
            let level = &mut lo[l];
            let next = &hi[0];
            let transfer = level
                .transfer
                .as_ref()
                .expect("non-coarsest level always has a transfer pair");
            prolong_add(transfer, layers, &next.x, &mut level.x);
            for _ in 0..POST_SMOOTH {
                smooth(level, smoother);
            }
        }
    }
}

/// Power iterations of the setup-time V-cycle contraction probe.
const CONTRACTION_PROBE_ITERS: usize = 8;

/// Largest tolerated spectral-radius estimate of `I − M·A`. A healthy
/// V-cycle sits well below 1; the divergent advection case sits at
/// several, so the gap is wide.
const CONTRACTION_LIMIT: f64 = 1.25;

/// Fills `v` with a fixed-seed LCG sequence mapped into `[-0.5, 0.5)` —
/// the deterministic start vector of every power-iteration probe
/// (identical across runs and build-vs-refresh paths).
fn lcg_fill(v: &mut [f64]) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for vi in v.iter_mut() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Map the top bits into [-0.5, 0.5).
        *vi = ((state >> 11) as f64) / (u64::MAX >> 11) as f64 - 0.5;
    }
}

/// Deterministic power iteration estimating `λ_max(D⁻¹A)`, returned
/// with a 1.1 safety factor. `v` and `w` are caller scratch (level
/// workspaces).
fn estimate_lambda_max(
    a: &CsrMatrix,
    inv_diag: &[f64],
    v: &mut [f64],
    w: &mut [f64],
) -> f64 {
    lcg_fill(v);
    let mut lambda = 1.0f64;
    for _ in 0..12 {
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if !(norm.is_finite() && norm > 0.0) {
            break;
        }
        let inv_norm = 1.0 / norm;
        for vi in v.iter_mut() {
            *vi *= inv_norm;
        }
        a.matvec_into(v, w).expect("level workspaces match the level operator");
        for (wi, di) in w.iter_mut().zip(inv_diag) {
            *wi *= di;
        }
        lambda = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        v.copy_from_slice(w);
    }
    (lambda.max(1e-12)) * 1.1
}

/// Computes `level.r = level.b - A·level.x`.
fn residual_into(level: &mut MgLevel) {
    level
        .a
        .matvec_into(&level.x, &mut level.r)
        .expect("level workspaces match the level operator");
    for (ri, bi) in level.r.iter_mut().zip(&level.b) {
        *ri = bi - *ri;
    }
}

/// One smoothing application on `level` (in-place on `level.x`).
fn smooth(level: &mut MgLevel, smoother: Smoother) {
    match smoother {
        Smoother::Chebyshev => chebyshev_smooth(level),
        Smoother::WeightedJacobi => weighted_jacobi_smooth(level),
    }
}

/// Ceiling for the weighted-Jacobi damping factor (the classic 2/3-ish
/// choice for diagonally dominant operators).
const JACOBI_OMEGA: f64 = 0.7;

/// [`CHEB_DEGREE`] steps of damped Jacobi: `x += ω·D⁻¹(b − A·x)`, with the
/// damping adapted to the level's spectral estimate. On a diagonally
/// dominant level `λ_max(D⁻¹A) ≲ 2` and `ω` stays at [`JACOBI_OMEGA`];
/// on Galerkin-coarsened advection levels `λ_max` can reach 4–6, where
/// a fixed `ω = 0.7` *amplifies* the top of the spectrum (`|1 − ωλ| >
/// 1`), so the damping shrinks as `1.4/λ_max` to keep every real mode
/// inside the unit circle.
fn weighted_jacobi_smooth(level: &mut MgLevel) {
    let omega = if level.lambda_max > 2.0 {
        JACOBI_OMEGA * 2.0 / level.lambda_max
    } else {
        JACOBI_OMEGA
    };
    for _ in 0..CHEB_DEGREE {
        residual_into(level);
        for ((xi, ri), di) in level.x.iter_mut().zip(&level.r).zip(&level.inv_diag) {
            *xi += omega * ri * di;
        }
    }
}

/// Chebyshev polynomial smoothing of degree [`CHEB_DEGREE`] on `D⁻¹A`,
/// targeting the upper spectrum `[λ_max/4, λ_max]` (the classic
/// smoothing band; lower frequencies are the coarse grid's job).
fn chebyshev_smooth(level: &mut MgLevel) {
    let upper = level.lambda_max;
    let lower = upper * 0.25;
    let theta = 0.5 * (upper + lower);
    let delta = 0.5 * (upper - lower);
    let sigma = theta / delta;
    let mut rho = 1.0 / sigma;

    // d = D⁻¹(b − A·x)/θ ; x += d
    residual_into(level);
    for ((di_out, ri), di) in level.d.iter_mut().zip(&level.r).zip(&level.inv_diag) {
        *di_out = ri * di / theta;
    }
    for (xi, di_out) in level.x.iter_mut().zip(&level.d) {
        *xi += di_out;
    }
    for _ in 1..CHEB_DEGREE {
        let rho_new = 1.0 / (2.0 * sigma - rho);
        residual_into(level);
        let c_old = rho_new * rho;
        let c_res = 2.0 * rho_new / delta;
        for ((di_out, ri), di) in level.d.iter_mut().zip(&level.r).zip(&level.inv_diag) {
            *di_out = c_old * *di_out + c_res * ri * di;
        }
        for (xi, di_out) in level.x.iter_mut().zip(&level.d) {
            *xi += di_out;
        }
        rho = rho_new;
    }
}

/// Restricts a fine-level vector into a coarse-level one, layer by
/// layer: `coarse[lc·cplane + c] = Σ w·fine[lc·plane + f]`.
fn restrict_into(transfer: &TransferOps, layers: usize, fine: &[f64], coarse: &mut [f64]) {
    let plane = transfer.fine_plane();
    let cplane = transfer.coarse_plane();
    for lc in 0..layers {
        let fine_base = lc * plane;
        let coarse_base = lc * cplane;
        for c in 0..cplane {
            let mut acc = 0.0;
            for (f, w) in transfer.r_row(c) {
                acc += w * fine[fine_base + f];
            }
            coarse[coarse_base + c] = acc;
        }
    }
}

/// Adds the prolonged coarse correction onto a fine-level vector:
/// `fine[lc·plane + f] += Σ w·coarse[lc·cplane + c]`.
fn prolong_add(transfer: &TransferOps, layers: usize, coarse: &[f64], fine: &mut [f64]) {
    let plane = transfer.fine_plane();
    let cplane = transfer.coarse_plane();
    for lc in 0..layers {
        let fine_base = lc * plane;
        let coarse_base = lc * cplane;
        for f in 0..plane {
            let mut acc = 0.0;
            for (c, w) in transfer.p_row(f) {
                acc += w * coarse[coarse_base + c];
            }
            fine[fine_base + f] += acc;
        }
    }
}

impl Preconditioner for MultigridPrecond {
    fn setup(&mut self, a: &CsrMatrix) -> Result<(), NumError> {
        if a.rows() != self.config.unknowns() || a.rows() != a.cols() {
            return Err(NumError::Breakdown(format!(
                "multigrid geometry mismatch: operator is {}x{}, config names {} unknowns \
                 ({}x{}x{} layers)",
                a.rows(),
                a.cols(),
                self.config.unknowns(),
                self.config.nx,
                self.config.ny,
                self.config.layers
            )));
        }
        if self.pattern_matches(a) {
            self.refresh_hierarchy(a)?;
        } else {
            self.build_hierarchy(a);
        }
        self.refresh_numerics()?;
        self.verify_contraction()
    }

    fn apply(&mut self, dst: &mut [f64], src: &[f64]) {
        self.levels[0].b.copy_from_slice(src);
        self.v_cycle();
        dst.copy_from_slice(&self.levels[0].x);
        self.stats.cycles += 1;
    }

    fn spec(&self) -> PrecondSpec {
        PrecondSpec::Multigrid(self.config)
    }

    fn mg_counters(&self) -> Option<MgStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    /// 5-point Laplacian on an `nx × ny` plane, `layers` stacked
    /// copies weakly coupled through the layer axis.
    fn layered_laplacian(nx: usize, ny: usize, layers: usize) -> CsrMatrix {
        let plane = nx * ny;
        let n = plane * layers;
        let mut t = TripletMatrix::new(n, n);
        for l in 0..layers {
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = l * plane + iy * nx + ix;
                    let mut diag = 0.5; // absorption keeps it SPD under pure Neumann-ish edges
                    let mut couple = |t: &mut TripletMatrix, j: usize| {
                        t.push(i, j, -1.0).unwrap();
                        diag += 1.0;
                    };
                    if ix > 0 {
                        couple(&mut t, i - 1);
                    }
                    if ix + 1 < nx {
                        couple(&mut t, i + 1);
                    }
                    if iy > 0 {
                        couple(&mut t, i - nx);
                    }
                    if iy + 1 < ny {
                        couple(&mut t, i + nx);
                    }
                    if l > 0 {
                        t.push(i, i - plane, -0.25).unwrap();
                        diag += 0.25;
                    }
                    if l + 1 < layers {
                        t.push(i, i + plane, -0.25).unwrap();
                        diag += 0.25;
                    }
                    t.push(i, i, diag).unwrap();
                }
            }
        }
        t.to_csr()
    }

    fn dense_solve(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
        let n = a.rows();
        let mut d = DenseMatrix::zeros(n, n).unwrap();
        for i in 0..n {
            for (j, v) in a.row(i) {
                d.set(i, j, v);
            }
        }
        d.lu().unwrap().solve(b).unwrap()
    }

    #[test]
    fn transfer_ops_are_transposes_up_to_scale() {
        for (nx, ny) in [(2, 2), (3, 3), (4, 5), (7, 6), (9, 9), (1, 8)] {
            let t = TransferOps::build(nx, ny).unwrap();
            let fine = nx * ny;
            let coarse = t.coarse_plane();
            // Densify P and R, check R == 0.25 * P^T entrywise.
            let mut p = vec![0.0; fine * coarse];
            for f in 0..fine {
                for (c, w) in t.p_row(f) {
                    p[f * coarse + c] += w;
                }
            }
            let mut r = vec![0.0; coarse * fine];
            for c in 0..coarse {
                for (f, w) in t.r_row(c) {
                    r[c * fine + f] += w;
                }
            }
            for f in 0..fine {
                for c in 0..coarse {
                    let want = RESTRICTION_SCALE * p[f * coarse + c];
                    let got = r[c * fine + f];
                    assert!(
                        (got - want).abs() < 1e-15,
                        "({nx}x{ny}) R[{c},{f}]={got} vs scale*P^T={want}"
                    );
                }
            }
        }
    }

    #[test]
    fn interior_coarse_row_weights_average() {
        // Interior coarse points on an odd-sized plane: full-weighting
        // row weights must sum to exactly 1 (a true average).
        let t = TransferOps::build(9, 9).unwrap();
        let (cnx, cny) = (t.cnx, t.cny);
        for cy in 1..cny - 1 {
            for cx in 1..cnx - 1 {
                let sum: f64 = t.r_row(cy * cnx + cx).map(|(_, w)| w).sum();
                assert!((sum - 1.0).abs() < 1e-15, "row ({cx},{cy}) sums to {sum}");
            }
        }
    }

    #[test]
    fn vcycle_preconditioner_solves_spd_plane() {
        let (nx, ny) = (33, 29);
        let a = layered_laplacian(nx, ny, 1);
        let mut mg = MultigridPrecond::new(MgConfig::for_grid(nx, ny, 1));
        mg.setup(&a).unwrap();
        assert_eq!(mg.stats().smoother, "chebyshev");
        assert!(mg.stats().levels >= 2, "expected a real hierarchy");

        // One V-cycle must shrink the error of a random-ish RHS a lot
        // (contraction factor well under 1).
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 19) as f64 - 9.0).collect();
        let exact = dense_solve(&a, &b);
        let mut x = vec![0.0; n];
        mg.apply(&mut x, &b);
        let err0: f64 = exact.iter().map(|e| e * e).sum::<f64>().sqrt();
        let err1: f64 = x
            .iter()
            .zip(&exact)
            .map(|(xi, ei)| (xi - ei) * (xi - ei))
            .sum::<f64>()
            .sqrt();
        assert!(
            err1 < 0.2 * err0,
            "one V-cycle contracted {err0} only to {err1}"
        );
    }

    #[test]
    fn layered_hierarchy_converges_in_krylov() {
        use crate::solvers::{conjugate_gradient, IterOptions};
        let (nx, ny, layers) = (12, 10, 3);
        let a = layered_laplacian(nx, ny, layers);
        let b = vec![1.0; a.rows()];
        let mg_opts = IterOptions {
            preconditioner: PrecondSpec::Multigrid(MgConfig::for_grid(nx, ny, layers)),
            tolerance: 1e-11,
            ..IterOptions::default()
        };
        let jac_opts = IterOptions {
            tolerance: 1e-11,
            ..IterOptions::default()
        };
        let mg_sol = conjugate_gradient(&a, &b, None, &mg_opts).unwrap();
        let jac_sol = conjugate_gradient(&a, &b, None, &jac_opts).unwrap();
        for (m, j) in mg_sol.x.iter().zip(&jac_sol.x) {
            assert!((m - j).abs() < 1e-7, "{m} vs {j}");
        }
        assert!(
            mg_sol.iterations < jac_sol.iterations,
            "MG took {} iterations, Jacobi {}",
            mg_sol.iterations,
            jac_sol.iterations
        );
    }

    #[test]
    fn refresh_matches_cold_build_bitwise() {
        let (nx, ny, layers) = (11, 9, 2);
        let a1 = layered_laplacian(nx, ny, layers);
        // Retargeted values on the same pattern: scale everything.
        let mut a2 = a1.clone();
        a2.copy_values_from(&a1).unwrap();
        let scaled: Vec<f64> = a2.values_mut().iter().map(|v| v * 1.7).collect();
        a2.values_mut().copy_from_slice(&scaled);

        let cfg = MgConfig::for_grid(nx, ny, layers);
        let mut warm = MultigridPrecond::new(cfg);
        warm.setup(&a1).unwrap();
        warm.setup(&a2).unwrap(); // pattern unchanged -> refresh path
        assert_eq!(warm.stats().hierarchy_builds, 1);
        assert_eq!(warm.stats().value_refreshes, 1);

        let mut cold = MultigridPrecond::new(cfg);
        cold.setup(&a2).unwrap();
        assert_eq!(cold.stats().hierarchy_builds, 1);
        assert_eq!(cold.stats().value_refreshes, 0);

        let n = a1.rows();
        let src: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 23) as f64 - 11.0).collect();
        let mut dw = vec![0.0; n];
        let mut dc = vec![0.0; n];
        warm.apply(&mut dw, &src);
        cold.apply(&mut dc, &src);
        for (w, c) in dw.iter().zip(&dc) {
            assert_eq!(w.to_bits(), c.to_bits(), "{w} vs {c}");
        }
    }

    #[test]
    fn geometry_mismatch_is_a_recoverable_breakdown() {
        let a = layered_laplacian(6, 6, 1);
        let mut mg = MultigridPrecond::new(MgConfig::for_grid(7, 7, 1));
        match mg.setup(&a) {
            Err(NumError::Breakdown(msg)) => {
                assert!(msg.contains("geometry mismatch"), "{msg}");
            }
            other => panic!("expected Breakdown, got {other:?}"),
        }
    }

    #[test]
    fn auto_smoother_picks_jacobi_for_nonsymmetric() {
        let (nx, ny) = (9, 8);
        let mut a = layered_laplacian(nx, ny, 1);
        // Skew one off-diagonal pair to make it nonsymmetric (an
        // upwind-advection-like perturbation).
        let vals = a.values_mut();
        vals[1] *= 3.0;
        let mut mg = MultigridPrecond::new(MgConfig::for_grid(nx, ny, 1));
        mg.setup(&a).unwrap();
        assert_eq!(mg.stats().smoother, "weighted-jacobi");
    }

    #[test]
    fn advective_layer_operator_is_rejected_at_setup() {
        // A microchannel-style stack: strongly advective fluid layers
        // (one-sided upwind coupling at high capacity rate) weakly
        // coupled into diffusive solid tiers — the 3-D interlayer-
        // cooling structure. Once the hierarchy is deep enough, the
        // Galerkin coarse operators are expansive under the symmetric
        // transfers, so setup's contraction probe must refuse the
        // hierarchy with a recoverable breakdown instead of handing the
        // solver a divergent preconditioner.
        let (nx, ny, layers) = (48, 40, 7);
        let plane = nx * ny;
        let n = plane * layers;
        let cap = 50.0; // advective capacity rate per cell
        let g = 0.05; // vertical exchange conductance
        let mut t = TripletMatrix::new(n, n);
        for l in 0..layers {
            let fluid = l == 2 || l == 5;
            for iy in 0..ny {
                for ix in 0..nx {
                    let i = l * plane + iy * nx + ix;
                    let mut diag = 0.01;
                    if fluid {
                        // Upwind advection along y, inlet at iy = 0.
                        if iy > 0 {
                            t.push(i, i - nx, -cap).unwrap();
                        }
                        diag += cap;
                    } else {
                        for (cond, j) in [
                            (ix > 0, i.wrapping_sub(1)),
                            (ix + 1 < nx, i + 1),
                            (iy > 0, i.wrapping_sub(nx)),
                            (iy + 1 < ny, i + nx),
                        ] {
                            if cond {
                                t.push(i, j, -1.0).unwrap();
                                diag += 1.0;
                            }
                        }
                    }
                    if l > 0 {
                        t.push(i, i - plane, -g).unwrap();
                        diag += g;
                    }
                    if l + 1 < layers {
                        t.push(i, i + plane, -g).unwrap();
                        diag += g;
                    }
                    t.push(i, i, diag).unwrap();
                }
            }
        }
        let a = t.to_csr();
        let mut mg = MultigridPrecond::new(MgConfig::for_grid(nx, ny, layers));
        match mg.setup(&a) {
            Err(NumError::Breakdown(msg)) => {
                assert!(msg.contains("not contractive"), "{msg}");
            }
            Ok(()) => panic!("expected the contraction probe to reject the hierarchy"),
            other => panic!("expected Breakdown, got {other:?}"),
        }
    }

    #[test]
    fn tiny_grid_degenerates_to_direct_solve() {
        let a = layered_laplacian(3, 3, 1);
        let mut mg = MultigridPrecond::new(MgConfig::for_grid(3, 3, 1));
        mg.setup(&a).unwrap();
        assert_eq!(mg.stats().levels, 1);
        let b = vec![1.0; 9];
        let mut x = vec![0.0; 9];
        mg.apply(&mut x, &b);
        let exact = dense_solve(&a, &b);
        for (xi, ei) in x.iter().zip(&exact) {
            assert!((xi - ei).abs() < 1e-10, "{xi} vs {ei}");
        }
    }

    mod transfer_properties {
        use super::super::{TransferOps, RESTRICTION_SCALE};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// For every plane size: `R = RESTRICTION_SCALE · Pᵀ`
            /// entrywise, and every coarse row's prolongation column
            /// sums to at least 1 (each coarse point fully represents
            /// its own fine point plus shared halves).
            #[test]
            fn restriction_is_scaled_prolongation_transpose(
                nx in 1usize..24,
                ny in 1usize..24,
            ) {
                let built = TransferOps::build(nx, ny);
                // Both extents below 2: nothing to coarsen.
                prop_assert!(built.is_some() || (nx < 2 && ny < 2));
                prop_assume!(built.is_some());
                let t = built.unwrap();
                let fine = nx * ny;
                let coarse = t.coarse_plane();
                let mut p = vec![0.0; fine * coarse];
                for f in 0..fine {
                    for (c, w) in t.p_row(f) {
                        p[f * coarse + c] += w;
                    }
                }
                let mut r_dense = vec![0.0; coarse * fine];
                for c in 0..coarse {
                    for (f, w) in t.r_row(c) {
                        r_dense[c * fine + f] += w;
                    }
                }
                for f in 0..fine {
                    for c in 0..coarse {
                        let want = RESTRICTION_SCALE * p[f * coarse + c];
                        let got = r_dense[c * fine + f];
                        prop_assert!(
                            (got - want).abs() < 1e-15,
                            "({nx}x{ny}) R[{c},{f}]={got} vs scale*P^T={want}"
                        );
                    }
                }
                for c in 0..coarse {
                    let col_sum: f64 = (0..fine).map(|f| p[f * coarse + c]).sum();
                    prop_assert!(col_sum >= 1.0 - 1e-12, "coarse {c} column sums to {col_sum}");
                }
            }
        }
    }
}
