//! Pluggable preconditioners for the Krylov solvers.
//!
//! The PR-1 solvers hard-wired Jacobi (diagonal) preconditioning into the
//! iteration loops. This module moves that choice behind the
//! [`Preconditioner`] trait so solver *sessions* can pick (and amortize)
//! stronger options on a cached sparsity pattern:
//!
//! * [`JacobiPrecond`] — diagonal scaling; cheap, effective on strongly
//!   diagonally dominant systems (the PR-1 default, unchanged numerics);
//! * [`SsorPrecond`] — symmetric SOR: one forward and one backward
//!   triangular sweep per application. Markedly fewer iterations than
//!   Jacobi on the weakly dominant PDN sheet Laplacians;
//! * [`Ic0Precond`] — incomplete Cholesky with zero fill on the matrix's
//!   own lower-triangular pattern. The strongest option for the SPD
//!   systems (PDN grid, conduction networks); requires SPD input;
//! * [`Milu0Precond`] — modified incomplete LU with zero fill on the
//!   matrix's own pattern, with `L·U` keeping `A`'s row sums. The
//!   option for the nonsymmetric fluid-cooled thermal stacks, whose
//!   rows sum to zero almost everywhere.
//!
//! A [`PrecondSpec`] names a choice declaratively (it is `Copy` and lives
//! in [`crate::solvers::IterOptions`]); [`PrecondSpec::build`] constructs
//! the boxed operator. Setup (factorization, triangle extraction) is
//! separated from application so a [`crate::session::SolverSession`] can
//! re-run setup only when the operator's *values* change and keep the
//! pattern-dependent allocations across refreshes.
//!
//! # Examples
//!
//! Build a preconditioner from its spec and apply it directly (sessions
//! normally do this internally):
//!
//! ```
//! use bright_num::{PrecondSpec, TripletMatrix};
//!
//! let mut t = TripletMatrix::new(2, 2);
//! t.push(0, 0, 4.0)?;
//! t.push(1, 1, 2.0)?;
//! let a = t.to_csr();
//! let mut jacobi = PrecondSpec::Jacobi.build();
//! jacobi.setup(&a)?;
//! let mut z = [0.0; 2];
//! jacobi.apply(&mut z, &[8.0, 8.0]); // z = M^{-1} r
//! assert_eq!(z, [2.0, 4.0]);
//! # Ok::<(), bright_num::NumError>(())
//! ```

use crate::multigrid::{MgConfig, MgStats, MultigridPrecond};
use crate::sparse::CsrMatrix;
use crate::NumError;

/// Declarative preconditioner choice, carried by
/// [`crate::solvers::IterOptions`] and solver sessions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PrecondSpec {
    /// Diagonal (Jacobi) scaling.
    #[default]
    Jacobi,
    /// Symmetric SOR with the given relaxation factor `omega ∈ (0, 2)`;
    /// `omega = 1` is symmetric Gauss–Seidel.
    Ssor {
        /// Relaxation factor.
        omega: f64,
    },
    /// Incomplete Cholesky, zero fill-in. SPD matrices only.
    Ic0,
    /// Modified incomplete LU, zero fill-in: each dropped fill entry is
    /// subtracted from its row's pivot, so `L·U` keeps `A`'s row sums.
    Milu0,
    /// Geometric multigrid V-cycle on the structured grid named by the
    /// [`MgConfig`] (see [`crate::multigrid`]). The strongest option
    /// for large structured grids: iteration counts stay
    /// near-mesh-independent where SSOR/IC(0) counts grow with size.
    Multigrid(MgConfig),
}

impl PrecondSpec {
    /// SSOR at the symmetric Gauss–Seidel point (`omega = 1`).
    #[must_use]
    pub fn ssor() -> Self {
        Self::Ssor { omega: 1.0 }
    }

    /// Constructs the preconditioner this spec names (un-set-up; call
    /// [`Preconditioner::setup`] with the operator before applying).
    #[must_use]
    pub fn build(&self) -> Box<dyn Preconditioner> {
        match *self {
            Self::Jacobi => Box::new(JacobiPrecond::default()),
            Self::Ssor { omega } => Box::new(SsorPrecond::new(omega)),
            Self::Ic0 => Box::new(Ic0Precond::default()),
            Self::Milu0 => Box::new(Milu0Precond::default()),
            Self::Multigrid(config) => Box::new(MultigridPrecond::new(config)),
        }
    }

    /// The recovery ladder's preconditioner fallback chain, strongest
    /// first: IC(0) → SSOR(ω=1) → Jacobi.
    /// [`crate::session::SolverSession`] walks it (skipping the entry
    /// equal to the configured spec) when a solve breaks down or stalls;
    /// a chain entry whose setup fails — e.g. IC(0) on a matrix that has
    /// drifted off SPD — is skipped in favor of the next, weaker one.
    /// Multigrid and MILU(0) are deliberately *not* in the chain: a
    /// session configured with either degrades to IC(0) → SSOR → Jacobi
    /// and never falls back to itself.
    #[must_use]
    pub fn fallback_chain() -> [Self; 3] {
        [Self::Ic0, Self::ssor(), Self::Jacobi]
    }

    /// Short human-readable name (reports, benches).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Jacobi => "jacobi",
            Self::Ssor { .. } => "ssor",
            Self::Ic0 => "ic0",
            Self::Milu0 => "milu0",
            Self::Multigrid(_) => "multigrid",
        }
    }

    /// Size-aware preconditioner choice for a structured
    /// `nx × ny × layers` grid: [`Self::Multigrid`] once the grid
    /// reaches [`MG_MIN_UNKNOWNS`] unknowns, `fallback` below that.
    #[must_use]
    pub fn auto_for_grid(nx: usize, ny: usize, layers: usize, fallback: Self) -> Self {
        if nx * ny * layers >= MG_MIN_UNKNOWNS {
            Self::Multigrid(MgConfig::for_grid(nx, ny, layers))
        } else {
            fallback
        }
    }
}

/// Grid-size threshold (in unknowns) at which
/// [`PrecondSpec::auto_for_grid`] switches to multigrid. Below ~2·10^5
/// unknowns the SSOR/IC(0) setup-cost-to-iteration-savings trade still
/// favors the sweep preconditioners; above it multigrid's mesh
/// independence wins.
pub const MG_MIN_UNKNOWNS: usize = 200_000;

/// A left preconditioner `M ≈ A`: [`Preconditioner::apply`] computes
/// `dst = M⁻¹·src`.
///
/// Implementations separate [`Preconditioner::setup`] (factorization on
/// the operator's current values — re-run after every coefficient
/// refresh) from application (once per Krylov iteration). `apply` takes
/// `&mut self` so implementations can keep internal scratch buffers
/// without interior mutability.
pub trait Preconditioner: std::fmt::Debug + Send {
    /// Prepares the preconditioner for the given operator. Must be called
    /// before [`Preconditioner::apply`], and again whenever the
    /// operator's values change.
    ///
    /// # Errors
    ///
    /// * [`NumError::SingularMatrix`] on a (near-)zero diagonal,
    /// * [`NumError::Breakdown`] if a factorization collapses (e.g. IC(0)
    ///   on a non-SPD matrix),
    /// * [`NumError::InvalidInput`] for invalid parameters.
    fn setup(&mut self, a: &CsrMatrix) -> Result<(), NumError>;

    /// Applies `dst = M⁻¹·src`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a successful
    /// [`Preconditioner::setup`] or with mismatched lengths.
    fn apply(&mut self, dst: &mut [f64], src: &[f64]);

    /// The spec this preconditioner was built from.
    fn spec(&self) -> PrecondSpec;

    /// Multigrid hierarchy/cycle counters, for implementations that
    /// have them ([`MultigridPrecond`]); `None` for everything else.
    /// Sessions surface these through `SessionStats`.
    fn mg_counters(&self) -> Option<MgStats> {
        None
    }
}

pub(crate) const TINY_DIAGONAL: f64 = f64::MIN_POSITIVE * 16.0;

/// Diagonal (Jacobi) scaling: `M = diag(A)`.
#[derive(Debug, Clone, Default)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl Preconditioner for JacobiPrecond {
    fn setup(&mut self, a: &CsrMatrix) -> Result<(), NumError> {
        a.diagonal_into(&mut self.inv_diag);
        for (i, d) in self.inv_diag.iter_mut().enumerate() {
            if d.abs() < TINY_DIAGONAL {
                return Err(NumError::SingularMatrix { index: i });
            }
            *d = 1.0 / *d;
        }
        Ok(())
    }

    fn apply(&mut self, dst: &mut [f64], src: &[f64]) {
        dst.copy_from_slice(src);
        for (d, m) in dst.iter_mut().zip(&self.inv_diag) {
            *d *= m;
        }
    }

    fn spec(&self) -> PrecondSpec {
        PrecondSpec::Jacobi
    }
}

/// Strict triangle of a CSR matrix (diagonal excluded), rows in order,
/// columns sorted — the storage both sweep-based preconditioners share.
#[derive(Debug, Clone, Default)]
struct TriangleCsr {
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
}

impl TriangleCsr {
    fn clear(&mut self) {
        self.row_ptr.clear();
        self.col.clear();
        self.val.clear();
    }

    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col[lo..hi]
            .iter()
            .copied()
            .zip(self.val[lo..hi].iter().copied())
    }
}

/// Symmetric SOR preconditioner:
/// `M = (D/ω + L)·(ω/(2−ω))·D⁻¹·(D/ω + U)`.
///
/// One application is a forward sweep, a diagonal scaling and a backward
/// sweep — about two extra matrix-vector products per iteration, paid
/// back several times over in iteration count on the weakly dominant
/// sheet Laplacians. For symmetric `A`, `M` is SPD whenever `A`'s
/// diagonal is positive, so it is safe inside CG; for nonsymmetric `A`
/// it acts as a symmetric Gauss–Seidel smoother inside BiCGSTAB.
#[derive(Debug, Clone)]
pub struct SsorPrecond {
    omega: f64,
    lower: TriangleCsr,
    upper: TriangleCsr,
    diag: Vec<f64>,
    scratch: Vec<f64>,
}

impl SsorPrecond {
    /// Creates an SSOR preconditioner with relaxation `omega ∈ (0, 2)`.
    #[must_use]
    pub fn new(omega: f64) -> Self {
        Self {
            omega,
            lower: TriangleCsr::default(),
            upper: TriangleCsr::default(),
            diag: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl Preconditioner for SsorPrecond {
    fn setup(&mut self, a: &CsrMatrix) -> Result<(), NumError> {
        if !(self.omega > 0.0 && self.omega < 2.0) {
            return Err(NumError::InvalidInput(format!(
                "SSOR omega must lie in (0, 2), got {}",
                self.omega
            )));
        }
        let n = a.rows();
        self.lower.clear();
        self.upper.clear();
        self.diag.clear();
        self.diag.resize(n, 0.0);
        self.scratch.clear();
        self.scratch.resize(n, 0.0);
        self.lower.row_ptr.reserve(n + 1);
        self.upper.row_ptr.reserve(n + 1);
        self.lower.row_ptr.push(0);
        self.upper.row_ptr.push(0);
        for i in 0..n {
            for (j, v) in a.row(i) {
                match j.cmp(&i) {
                    std::cmp::Ordering::Less => {
                        self.lower.col.push(j);
                        self.lower.val.push(v);
                    }
                    std::cmp::Ordering::Equal => self.diag[i] = v,
                    std::cmp::Ordering::Greater => {
                        self.upper.col.push(j);
                        self.upper.val.push(v);
                    }
                }
            }
            self.lower.row_ptr.push(self.lower.col.len());
            self.upper.row_ptr.push(self.upper.col.len());
            if self.diag[i].abs() < TINY_DIAGONAL {
                return Err(NumError::SingularMatrix { index: i });
            }
        }
        Ok(())
    }

    fn apply(&mut self, dst: &mut [f64], src: &[f64]) {
        let n = self.diag.len();
        assert_eq!(dst.len(), n, "SSOR apply: dst length mismatch");
        assert_eq!(src.len(), n, "SSOR apply: src length mismatch");
        let w = self.omega;
        let y = &mut self.scratch;
        // Forward sweep: (D/ω + L)·y = src.
        for i in 0..n {
            let mut s = src[i];
            for (j, v) in self.lower.row(i) {
                s -= v * y[j];
            }
            y[i] = s * w / self.diag[i];
        }
        // Diagonal scaling: y ← ((2−ω)/ω)·D·y.
        let scale = (2.0 - w) / w;
        for (yi, d) in y.iter_mut().zip(&self.diag) {
            *yi *= scale * d;
        }
        // Backward sweep: (D/ω + U)·dst = y.
        for i in (0..n).rev() {
            let mut s = y[i];
            for (j, v) in self.upper.row(i) {
                s -= v * dst[j];
            }
            dst[i] = s * w / self.diag[i];
        }
    }

    fn spec(&self) -> PrecondSpec {
        PrecondSpec::Ssor { omega: self.omega }
    }
}

/// Incomplete Cholesky with zero fill-in: `A ≈ L·Lᵀ` where `L` keeps
/// exactly the lower-triangular pattern of `A`.
///
/// The factorization runs in `O(Σᵢ nnzᵢ²)` over rows — effectively
/// linear for the bounded-stencil matrices of this workspace — and each
/// application is a forward and a backward triangular solve. Valid for
/// SPD input only; a non-positive pivot aborts with
/// [`NumError::Breakdown`] so callers can fall back to a weaker
/// preconditioner.
#[derive(Debug, Clone, Default)]
pub struct Ic0Precond {
    /// Lower factor, diagonal included, columns sorted per row.
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
    scratch: Vec<f64>,
}

impl Ic0Precond {
    fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// Sparse dot of `L[i, ..limit)` and `L[j, ..limit)` via a merge walk
    /// (both rows have sorted columns).
    fn row_dot_below(&self, i: usize, j: usize, limit: usize) -> f64 {
        let (mut p, pe) = (self.row_ptr[i], self.row_ptr[i + 1]);
        let (mut q, qe) = (self.row_ptr[j], self.row_ptr[j + 1]);
        let mut acc = 0.0;
        while p < pe && q < qe {
            let (cp, cq) = (self.col[p], self.col[q]);
            if cp >= limit || cq >= limit {
                break;
            }
            match cp.cmp(&cq) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.val[p] * self.val[q];
                    p += 1;
                    q += 1;
                }
            }
        }
        acc
    }
}

impl Preconditioner for Ic0Precond {
    fn setup(&mut self, a: &CsrMatrix) -> Result<(), NumError> {
        let n = a.rows();
        self.row_ptr.clear();
        self.col.clear();
        self.val.clear();
        self.scratch.clear();
        self.scratch.resize(n, 0.0);
        self.row_ptr.reserve(n + 1);
        self.row_ptr.push(0);
        // Copy the lower triangle (incl. diagonal); CSR rows are sorted.
        for i in 0..n {
            let mut has_diag = false;
            for (j, v) in a.row(i) {
                if j < i {
                    self.col.push(j);
                    self.val.push(v);
                } else if j == i {
                    self.col.push(j);
                    self.val.push(v);
                    has_diag = true;
                }
            }
            if !has_diag {
                return Err(NumError::SingularMatrix { index: i });
            }
            self.row_ptr.push(self.col.len());
        }
        // Factor in place, row by row.
        for i in 0..n {
            let range = self.row_range(i);
            for idx in range {
                let j = self.col[idx];
                if j < i {
                    // l_ij = (a_ij − Σ_{k<j} l_ik·l_jk) / l_jj.
                    let dot = self.row_dot_below(i, j, j);
                    let diag_idx = self.row_ptr[j + 1] - 1;
                    debug_assert_eq!(self.col[diag_idx], j, "factor row must end on its diagonal");
                    self.val[idx] = (self.val[idx] - dot) / self.val[diag_idx];
                } else {
                    // l_ii = √(a_ii − Σ_{k<i} l_ik²).
                    let dot = self.row_dot_below(i, i, i);
                    let pivot = self.val[idx] - dot;
                    if !(pivot > 0.0 && pivot.is_finite()) {
                        return Err(NumError::Breakdown(format!(
                            "IC(0) pivot {pivot:.3e} at row {i}; matrix not SPD?"
                        )));
                    }
                    self.val[idx] = pivot.sqrt();
                }
            }
        }
        Ok(())
    }

    fn apply(&mut self, dst: &mut [f64], src: &[f64]) {
        let n = self.scratch.len();
        assert_eq!(dst.len(), n, "IC(0) apply: dst length mismatch");
        assert_eq!(src.len(), n, "IC(0) apply: src length mismatch");
        let y = &mut self.scratch;
        // Forward solve L·y = src.
        for i in 0..n {
            let mut s = src[i];
            let range = self.row_ptr[i]..self.row_ptr[i + 1] - 1;
            for idx in range {
                s -= self.val[idx] * y[self.col[idx]];
            }
            y[i] = s / self.val[self.row_ptr[i + 1] - 1];
        }
        // Backward solve Lᵀ·dst = y (column-sweep form).
        dst.copy_from_slice(y);
        for i in (0..n).rev() {
            let diag_idx = self.row_ptr[i + 1] - 1;
            dst[i] /= self.val[diag_idx];
            let xi = dst[i];
            for idx in self.row_ptr[i]..diag_idx {
                dst[self.col[idx]] -= self.val[idx] * xi;
            }
        }
    }

    fn spec(&self) -> PrecondSpec {
        PrecondSpec::Ic0
    }
}

/// A pivot at most this multiple of its row's largest original entry
/// is rounding noise: [`Milu0Precond::setup`] refuses it.
const MILU_PIVOT_FLOOR: f64 = 1e-12;

/// Modified incomplete LU with zero fill-in: `A ≈ L·U`, where the unit
/// lower factor `L` and the upper factor `U` keep exactly `A`'s
/// sparsity pattern and every fill entry the elimination drops is
/// subtracted from its row's pivot instead. So `L·U` matches `A` on
/// every off-diagonal pattern entry and has `A`'s row sums: the smooth
/// error modes of an operator whose rows sum to (nearly) zero — the
/// conduction-plus-upwind-advection thermal stack — are the ones it
/// reproduces, where SSOR and plain ILU(0) leave them to the Krylov
/// iteration.
///
/// Setup is one row-wise (IKJ) elimination pass. The elimination's
/// position map — for every update, the entry of row `i` it lands on,
/// or the pivot for a dropped fill — depends on the pattern alone, so
/// it is built once and kept while the pattern stays the same; a value
/// refresh redoes only the arithmetic. The pivots are stored as
/// reciprocals, so neither triangular sweep of an application divides.
/// A zero, tiny or non-finite pivot aborts with [`NumError::Breakdown`]
/// so a session can fall back to a weaker preconditioner.
#[derive(Debug, Clone, Default)]
pub struct Milu0Precond {
    /// `A`'s pattern, which the position map below was built for.
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    /// Position of each row's diagonal entry.
    diag: Vec<usize>,
    /// For each elimination update in setup order, the position it
    /// subtracts from: an entry of the row being eliminated, or that
    /// row's diagonal when the fill is dropped.
    targets: Vec<usize>,
    /// The factors on `A`'s pattern: `L`'s multipliers below the
    /// diagonal (its unit diagonal is implicit), `U` on and above it,
    /// with `U`'s pivots stored as reciprocals.
    val: Vec<f64>,
}

impl Milu0Precond {
    /// Adopts `a`'s pattern and builds the position map for it.
    fn plan(&mut self, a: &CsrMatrix) -> Result<(), NumError> {
        let n = a.rows();
        self.row_ptr.clear();
        self.row_ptr.extend_from_slice(a.row_ptr());
        self.col.clear();
        self.col.extend_from_slice(a.col_idx());
        self.diag.clear();
        for i in 0..n {
            let row = &self.col[self.row_ptr[i]..self.row_ptr[i + 1]];
            match row.binary_search(&i) {
                Ok(at) => self.diag.push(self.row_ptr[i] + at),
                Err(_) => {
                    // Leave the pattern unmatched so the next setup
                    // plans again.
                    self.row_ptr.clear();
                    return Err(NumError::Breakdown(format!(
                        "MILU(0) zero pivot at row {i}: no diagonal entry"
                    )));
                }
            }
        }
        self.targets.clear();
        for i in 0..n {
            let (lo, d, hi) = (self.row_ptr[i], self.diag[i], self.row_ptr[i + 1]);
            let row = &self.col[lo..hi];
            for &k in &self.col[lo..d] {
                for &j in &self.col[self.diag[k] + 1..self.row_ptr[k + 1]] {
                    let at = row.binary_search(&j).map_or(d, |at| lo + at);
                    self.targets.push(at);
                }
            }
        }
        Ok(())
    }
}

impl Preconditioner for Milu0Precond {
    fn setup(&mut self, a: &CsrMatrix) -> Result<(), NumError> {
        if self.row_ptr != a.row_ptr() || self.col != a.col_idx() {
            self.plan(a)?;
        }
        let n = a.rows();
        let val = &mut self.val;
        val.clear();
        val.extend_from_slice(a.values());
        let mut targets = self.targets.iter();
        for i in 0..n {
            let (lo, d, hi) = (self.row_ptr[i], self.diag[i], self.row_ptr[i + 1]);
            let scale = val[lo..hi].iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for p in lo..d {
                let k = self.col[p];
                // l_ik = a_ik / u_kk, with u_kk already stored inverted.
                let l = val[p] * val[self.diag[k]];
                val[p] = l;
                for q in self.diag[k] + 1..self.row_ptr[k + 1] {
                    let at = *targets.next().expect("position map covers every update");
                    let u = val[q];
                    val[at] -= l * u;
                }
            }
            let pivot = val[d];
            if !(pivot.is_finite() && pivot.abs() > MILU_PIVOT_FLOOR * scale) {
                return Err(NumError::Breakdown(format!(
                    "MILU(0) pivot {pivot:.3e} at row {i} (row scale {scale:.3e})"
                )));
            }
            val[d] = 1.0 / pivot;
        }
        Ok(())
    }

    fn apply(&mut self, dst: &mut [f64], src: &[f64]) {
        let n = self.diag.len();
        assert_eq!(dst.len(), n, "MILU(0) apply: dst length mismatch");
        assert_eq!(src.len(), n, "MILU(0) apply: src length mismatch");
        let (col, val) = (&self.col[..], &self.val[..]);
        // Forward solve L·y = src (unit diagonal), y kept in dst.
        for i in 0..n {
            let (lo, d) = (self.row_ptr[i], self.diag[i]);
            let mut s = src[i];
            for (&j, &v) in col[lo..d].iter().zip(&val[lo..d]) {
                s -= v * dst[j];
            }
            dst[i] = s;
        }
        // Backward solve U·dst = y in place, multiplying by the stored
        // reciprocal pivots.
        for i in (0..n).rev() {
            let (d, hi) = (self.diag[i], self.row_ptr[i + 1]);
            let mut s = dst[i];
            for (&j, &v) in col[d + 1..hi].iter().zip(&val[d + 1..hi]) {
                s -= v * dst[j];
            }
            dst[i] = s * val[d];
        }
    }

    fn spec(&self) -> PrecondSpec {
        PrecondSpec::Milu0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    fn laplacian_2d(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n * n, n * n);
        let idx = |i: usize, j: usize| i * n + j;
        for i in 0..n {
            for j in 0..n {
                t.push(idx(i, j), idx(i, j), 4.0).unwrap();
                if i > 0 {
                    t.push(idx(i, j), idx(i - 1, j), -1.0).unwrap();
                }
                if i + 1 < n {
                    t.push(idx(i, j), idx(i + 1, j), -1.0).unwrap();
                }
                if j > 0 {
                    t.push(idx(i, j), idx(i, j - 1), -1.0).unwrap();
                }
                if j + 1 < n {
                    t.push(idx(i, j), idx(i, j + 1), -1.0).unwrap();
                }
            }
        }
        t.to_csr()
    }

    /// Dense solve of `A·x = b` via Gaussian elimination, for reference.
    fn dense_solve(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
        let n = a.rows();
        let mut m = vec![vec![0.0; n + 1]; n];
        for i in 0..n {
            for (j, v) in a.row(i) {
                m[i][j] = v;
            }
            m[i][n] = b[i];
        }
        for k in 0..n {
            let piv = (k..n).max_by(|&p, &q| m[p][k].abs().total_cmp(&m[q][k].abs())).unwrap();
            m.swap(k, piv);
            for i in k + 1..n {
                let f = m[i][k] / m[k][k];
                let (pivot_rows, rest) = m.split_at_mut(k + 1);
                let (pivot, row) = (&pivot_rows[k], &mut rest[i - k - 1]);
                for (mij, mkj) in row[k..].iter_mut().zip(&pivot[k..]) {
                    *mij -= f * mkj;
                }
            }
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = m[i][n];
            for j in i + 1..n {
                s -= m[i][j] * x[j];
            }
            x[i] = s / m[i][i];
        }
        x
    }

    #[test]
    fn jacobi_apply_is_diagonal_scaling() {
        let a = laplacian_2d(3);
        let mut p = JacobiPrecond::default();
        p.setup(&a).unwrap();
        let src = vec![2.0; 9];
        let mut dst = vec![0.0; 9];
        p.apply(&mut dst, &src);
        assert!(dst.iter().all(|&v| (v - 0.5).abs() < 1e-15));
    }

    #[test]
    fn ssor_apply_matches_direct_inverse_of_m() {
        // M = (D/ω + L)·(ω/(2−ω))·D⁻¹·(D/ω + U); verify M·(M⁻¹·src) = src.
        let a = laplacian_2d(3);
        let n = a.rows();
        let omega = 1.3;
        let mut p = SsorPrecond::new(omega);
        p.setup(&a).unwrap();
        let src: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let mut z = vec![0.0; n];
        p.apply(&mut z, &src);
        // Recompute M·z densely from the definition.
        let mut dl = vec![vec![0.0; n]; n]; // D/ω + L
        let mut du = vec![vec![0.0; n]; n]; // D/ω + U
        let mut dinv = vec![0.0; n];
        for i in 0..n {
            for (j, v) in a.row(i) {
                match j.cmp(&i) {
                    std::cmp::Ordering::Less => dl[i][j] = v,
                    std::cmp::Ordering::Equal => {
                        dl[i][i] = v / omega;
                        du[i][i] = v / omega;
                        dinv[i] = 1.0 / v;
                    }
                    std::cmp::Ordering::Greater => du[i][j] = v,
                }
            }
        }
        let scale = omega / (2.0 - omega);
        let mut t1 = vec![0.0; n]; // (D/ω + U)·z
        for i in 0..n {
            t1[i] = du[i].iter().zip(&z).map(|(m, x)| m * x).sum();
        }
        for i in 0..n {
            t1[i] *= scale * dinv[i];
        }
        let mut mz = vec![0.0; n];
        for i in 0..n {
            mz[i] = dl[i].iter().zip(&t1).map(|(m, x)| m * x).sum();
        }
        for (got, want) in mz.iter().zip(&src) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn ic0_is_exact_cholesky_on_tridiagonal() {
        // A tridiagonal SPD matrix has no fill-in, so IC(0) equals the
        // full Cholesky factor and M⁻¹·b is the exact solution.
        let n = 12;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + 0.1 * i as f64).unwrap();
            if i > 0 {
                t.push(i, i - 1, -1.0).unwrap();
                t.push(i - 1, i, -1.0).unwrap();
            }
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.3).cos()).collect();
        let mut p = Ic0Precond::default();
        p.setup(&a).unwrap();
        let mut x = vec![0.0; n];
        p.apply(&mut x, &b);
        let x_ref = dense_solve(&a, &b);
        for (got, want) in x.iter().zip(&x_ref) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn ic0_rejects_indefinite_matrices() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(0, 1, 3.0).unwrap();
        t.push(1, 0, 3.0).unwrap();
        t.push(1, 1, 1.0).unwrap();
        let a = t.to_csr();
        let mut p = Ic0Precond::default();
        assert!(matches!(p.setup(&a), Err(NumError::Breakdown(_))));
    }

    /// A nonsymmetric upwind M-matrix on an `n × n` grid: diffusion
    /// links of 1, upwind advection of `peclet` along x, rows summing to
    /// zero except the inflow column's, which are strictly dominant.
    fn upwind_m_matrix(n: usize, peclet: f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(n * n, n * n);
        let idx = |iy: usize, ix: usize| iy * n + ix;
        for iy in 0..n {
            for ix in 0..n {
                let i = idx(iy, ix);
                // The inflow column's upstream link goes to the inlet.
                let mut diag = if ix == 0 { 1.0 + peclet } else { 0.0 };
                let links = [
                    (ix > 0, ix.wrapping_sub(1), iy, 1.0 + peclet),
                    (ix + 1 < n, ix + 1, iy, 1.0),
                    (iy > 0, ix, iy.wrapping_sub(1), 1.0),
                    (iy + 1 < n, ix, iy + 1, 1.0),
                ];
                for (present, jx, jy, g) in links {
                    if present {
                        t.push(i, idx(jy, jx), -g).unwrap();
                        diag += g;
                    }
                }
                t.push(i, i, diag).unwrap();
            }
        }
        t.to_csr()
    }

    /// `L·U` of a set-up MILU(0) factor, densely.
    fn milu_product(p: &Milu0Precond) -> Vec<Vec<f64>> {
        let n = p.diag.len();
        let mut l = vec![vec![0.0; n]; n];
        let mut u = vec![vec![0.0; n]; n];
        for i in 0..n {
            l[i][i] = 1.0;
            for q in p.row_ptr[i]..p.row_ptr[i + 1] {
                let j = p.col[q];
                match j.cmp(&i) {
                    std::cmp::Ordering::Less => l[i][j] = p.val[q],
                    std::cmp::Ordering::Equal => u[i][i] = 1.0 / p.val[q],
                    std::cmp::Ordering::Greater => u[i][j] = p.val[q],
                }
            }
        }
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| (0..n).map(|k| l[i][k] * u[k][j]).sum())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn milu0_keeps_row_sums_and_off_diagonal_entries() {
        let a = upwind_m_matrix(6, 2.5);
        let mut p = Milu0Precond::default();
        p.setup(&a).unwrap();
        let mut dropped = 0.0f64;
        for (i, lu_row) in milu_product(&p).iter().enumerate() {
            let row: Vec<(usize, f64)> = a.row(i).collect();
            let scale = row.iter().fold(0.0f64, |m, (_, v)| m.max(v.abs()));
            let a_sum: f64 = row.iter().map(|(_, v)| v).sum();
            let lu_sum: f64 = lu_row.iter().sum();
            assert!(
                (a_sum - lu_sum).abs() < 1e-12 * scale,
                "row {i}: {a_sum} vs {lu_sum}"
            );
            for (j, lu_ij) in lu_row.iter().enumerate() {
                match row.iter().find(|(c, _)| *c == j) {
                    Some(&(_, v)) if j != i => {
                        assert!(
                            (v - lu_ij).abs() < 1e-12 * scale,
                            "({i},{j}): {v} vs {lu_ij}"
                        );
                    }
                    Some(_) => {}
                    None => dropped = dropped.max(lu_ij.abs()),
                }
            }
        }
        // The grid has fill to drop, so this is not a plain exact LU.
        assert!(dropped > 0.1, "largest dropped fill {dropped}");
    }

    #[test]
    fn milu0_is_exact_lu_on_tridiagonal() {
        // A tridiagonal matrix has no fill-in, so MILU(0) is the exact
        // LU factorization and M⁻¹·b is the solution.
        let n = 12;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0 + 0.1 * i as f64).unwrap();
            if i > 0 {
                t.push(i, i - 1, -2.0).unwrap();
                t.push(i - 1, i, -0.5).unwrap();
            }
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.3).cos()).collect();
        let mut p = PrecondSpec::Milu0.build();
        p.setup(&a).unwrap();
        let mut x = vec![0.0; n];
        p.apply(&mut x, &b);
        let x_ref = dense_solve(&a, &b);
        for (got, want) in x.iter().zip(&x_ref) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn milu0_zero_pivot_breaks_down_and_a_session_falls_back() {
        // Row 1 drops the fill (1, 2) that row 0's upper entry would
        // make, and the modification zeroes its pivot: 1 − 1·1 = 0. The
        // matrix itself is regular (det 1).
        let mut t = TripletMatrix::new(3, 3);
        for (i, j, v) in [
            (0, 0, 1.0),
            (0, 2, 1.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (2, 2, 1.0),
        ] {
            t.push(i, j, v).unwrap();
        }
        let a = t.to_csr();
        let mut p = Milu0Precond::default();
        assert!(matches!(p.setup(&a), Err(NumError::Breakdown(_))));

        let mut s = crate::SolverSession::with_preconditioner(PrecondSpec::Milu0);
        s.load(&a, crate::session::next_operator_tag(), 0).unwrap();
        let b = [2.0, 3.0, 1.0];
        s.solve_general(&b).unwrap();
        assert_eq!(
            s.last_recovery(),
            crate::RecoveryRung::PrecondFallback(PrecondSpec::ssor())
        );
        assert_eq!(s.stats().recovered_solves, 1);
        for (got, want) in s.solution().iter().zip(dense_solve(&a, &b)) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        // While the refusal stands, the next solve starts from the kept
        // SSOR fallback: no setup, served by the same rung.
        let setups = s.stats().precond_setups;
        s.solve_general(&b).unwrap();
        assert_eq!(s.stats().precond_setups, setups);
        assert_eq!(
            s.last_recovery(),
            crate::RecoveryRung::PrecondFallback(PrecondSpec::ssor())
        );
        assert_eq!(s.stats().recovered_solves, 2);
    }

    #[test]
    fn ssor_rejects_bad_omega_and_zero_diagonal() {
        let a = laplacian_2d(2);
        assert!(SsorPrecond::new(2.5).setup(&a).is_err());
        assert!(SsorPrecond::new(0.0).setup(&a).is_err());
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 1, 1.0).unwrap();
        t.push(1, 0, 1.0).unwrap();
        let singular = t.to_csr();
        assert!(SsorPrecond::new(1.0).setup(&singular).is_err());
    }

    #[test]
    fn spec_round_trips_through_build() {
        for spec in [
            PrecondSpec::Jacobi,
            PrecondSpec::Ssor { omega: 1.4 },
            PrecondSpec::Ic0,
            PrecondSpec::Milu0,
            PrecondSpec::Multigrid(crate::multigrid::MgConfig::for_grid(16, 16, 2)),
        ] {
            let built = spec.build();
            assert_eq!(built.spec(), spec);
        }
        assert_eq!(PrecondSpec::default(), PrecondSpec::Jacobi);
        assert_eq!(PrecondSpec::ssor(), PrecondSpec::Ssor { omega: 1.0 });
        assert_eq!(PrecondSpec::Ic0.name(), "ic0");
        assert_eq!(PrecondSpec::Milu0.name(), "milu0");
        assert_eq!(
            PrecondSpec::Multigrid(crate::multigrid::MgConfig::for_grid(4, 4, 1)).name(),
            "multigrid"
        );
    }

    #[test]
    fn auto_for_grid_switches_on_unknown_count() {
        // Below the threshold: caller fallback; above: multigrid with
        // the call site's geometry.
        let small = PrecondSpec::auto_for_grid(10, 10, 1, PrecondSpec::ssor());
        assert_eq!(small, PrecondSpec::ssor());
        let n = super::MG_MIN_UNKNOWNS;
        let side = (n as f64).sqrt().ceil() as usize + 1;
        let big = PrecondSpec::auto_for_grid(side, side, 1, PrecondSpec::ssor());
        assert_eq!(
            big,
            PrecondSpec::Multigrid(crate::multigrid::MgConfig::for_grid(side, side, 1))
        );
    }
}
