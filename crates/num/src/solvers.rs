//! Iterative solvers for sparse linear systems.
//!
//! Two Krylov methods cover every field solve in the workspace:
//!
//! * [`conjugate_gradient`] — for the symmetric positive-definite systems
//!   (PDN conductance Laplacian with Dirichlet ports, pure-conduction
//!   thermal networks);
//! * [`bicgstab`] — for the nonsymmetric systems created by upwind
//!   advection (fluid thermal cells, full 2-D convection–diffusion).
//!
//! Preconditioning is pluggable via [`crate::precond::Preconditioner`]:
//! [`IterOptions::preconditioner`] names a [`PrecondSpec`] (Jacobi by
//! default — remarkably effective for the diagonally dominant matrices
//! these applications produce; SSOR and IC(0) for the tougher grids).
//! Each method has two entry points. The one-shot [`conjugate_gradient`]
//! and [`bicgstab`] build and set up the named preconditioner for one
//! solve; [`conjugate_gradient_preconditioned`] and
//! [`bicgstab_preconditioned`] take an already-set-up preconditioner and
//! caller-owned buffers, so a [`crate::session::SolverSession`] can
//! amortize factorization, scratch and warm start across solves.
//!
//! # Examples
//!
//! ```
//! use bright_num::solvers::{conjugate_gradient, IterOptions};
//! use bright_num::TripletMatrix;
//!
//! // -u'' = f on 3 interior nodes (SPD tridiagonal system).
//! let mut t = TripletMatrix::new(3, 3);
//! for i in 0..3 {
//!     t.push(i, i, 2.0)?;
//!     if i > 0 {
//!         t.push(i, i - 1, -1.0)?;
//!         t.push(i - 1, i, -1.0)?;
//!     }
//! }
//! let a = t.to_csr();
//! let sol = conjugate_gradient(&a, &[1.0, 0.0, 1.0], None, &IterOptions::default())?;
//! assert!((sol.x[1] - 1.0).abs() < 1e-8);
//! assert!(sol.relative_residual <= 1e-10);
//! # Ok::<(), bright_num::NumError>(())
//! ```

use crate::precond::{PrecondSpec, Preconditioner};
use crate::sparse::CsrMatrix;
use crate::vec_ops::{all_finite, axpy, axpy_norm2_sq, dot, dot2, norm2, sub, xpby};
use crate::NumError;

/// Options controlling an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterOptions {
    /// Relative residual tolerance: stop when `‖r‖₂ ≤ tol·‖b‖₂`.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Preconditioner choice ([`PrecondSpec::Jacobi`] by default). The
    /// `_preconditioned` entry points ignore this field and use the
    /// caller-supplied operator instead.
    pub preconditioner: PrecondSpec,
}

impl Default for IterOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 10_000,
            preconditioner: PrecondSpec::Jacobi,
        }
    }
}

/// Outcome of a converged iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A·x‖₂ / ‖b‖₂`.
    pub relative_residual: f64,
}

fn validate(a: &CsrMatrix, b: &[f64], x0: Option<&[f64]>) -> Result<(), NumError> {
    if a.rows() != a.cols() {
        return Err(NumError::DimensionMismatch(format!(
            "iterative solve requires square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    if b.len() != a.rows() {
        return Err(NumError::DimensionMismatch(format!(
            "rhs length {} != matrix size {}",
            b.len(),
            a.rows()
        )));
    }
    if let Some(x0) = x0 {
        if x0.len() != a.rows() {
            return Err(NumError::DimensionMismatch(format!(
                "initial guess length {} != matrix size {}",
                x0.len(),
                a.rows()
            )));
        }
    }
    if !all_finite(b) {
        return Err(NumError::InvalidInput("non-finite rhs entry".into()));
    }
    Ok(())
}

/// Iteration statistics of a converged workspace-based solve (the
/// solution itself lives in the caller's `x` buffer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A·x‖₂ / ‖b‖₂`.
    pub relative_residual: f64,
}

impl Default for SolveStats {
    fn default() -> Self {
        Self {
            iterations: 0,
            relative_residual: f64::NAN,
        }
    }
}

/// Preallocated scratch vectors for the Krylov solvers.
///
/// A [`crate::session::SolverSession`] owns one and reuses it across
/// every solve; buffers grow on first use and are never reallocated
/// while the system size is unchanged. The same workspace can serve both
/// [`conjugate_gradient_preconditioned`] and [`bicgstab_preconditioned`].
#[derive(Debug, Clone, Default)]
pub struct KrylovWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    r_hat: Vec<f64>,
    v: Vec<f64>,
    p_hat: Vec<f64>,
    s: Vec<f64>,
    s_hat: Vec<f64>,
    t: Vec<f64>,
}

impl KrylovWorkspace {
    /// Creates an empty workspace (buffers grow on first solve).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn resize_cg(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
    }

    fn resize_bicgstab(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.r_hat.resize(n, 0.0);
        self.v.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.p_hat.resize(n, 0.0);
        self.s.resize(n, 0.0);
        self.s_hat.resize(n, 0.0);
        self.t.resize(n, 0.0);
    }

    /// True when every scratch vector holds only finite values. Sessions
    /// run this scan (together with one over the solution) after each
    /// solve; a NaN or infinity that slipped into the scratch state marks
    /// the session poisoned (see [`crate::session::SolverSession`]).
    #[must_use]
    pub fn all_finite(&self) -> bool {
        [
            &self.r, &self.z, &self.p, &self.ap, &self.r_hat, &self.v, &self.p_hat, &self.s,
            &self.s_hat, &self.t,
        ]
        .into_iter()
        .all(|v| crate::vec_ops::all_finite(v))
    }

    /// Fault-injection hook: plants a NaN in the residual scratch (shared
    /// by both solvers) so the post-solve state scan trips.
    pub(crate) fn corrupt_residual(&mut self) {
        if let Some(slot) = self.r.first_mut() {
            *slot = f64::NAN;
        }
    }
}

/// Prepares the warm-start/solution buffer: a correctly sized `x` is kept
/// as the initial guess; any other length is reset to a zero cold start.
fn prime_guess(x: &mut Vec<f64>, n: usize) {
    if x.len() != n {
        x.clear();
        x.resize(n, 0.0);
    }
}

/// Resets the BiCGSTAB recurrence around the current residual `r`:
/// fresh shadow vector, zeroed search directions, unit scalars. Shared
/// by the stagnation restart and both residual-replacement paths (the
/// caller reseeds `rho_new` itself).
#[allow(clippy::too_many_arguments)]
fn bicgstab_restart(
    r: &[f64],
    r_hat: &mut [f64],
    v: &mut [f64],
    p: &mut [f64],
    rho: &mut f64,
    alpha: &mut f64,
    omega: &mut f64,
) {
    r_hat.copy_from_slice(r);
    v.iter_mut().for_each(|vi| *vi = 0.0);
    p.iter_mut().for_each(|pi| *pi = 0.0);
    *rho = 1.0;
    *alpha = 1.0;
    *omega = 1.0;
}

/// Preconditioned conjugate gradient for symmetric positive-definite `A`,
/// one shot: builds and sets up `opts.preconditioner`, then runs
/// [`conjugate_gradient_preconditioned`] from `x0` (a zero start when
/// `None`) with a fresh workspace.
///
/// # Errors
///
/// * [`NumError::DimensionMismatch`] / [`NumError::InvalidInput`] on bad
///   inputs,
/// * [`NumError::SingularMatrix`] / [`NumError::Breakdown`] from
///   preconditioner setup (zero diagonal, failed IC(0) pivot),
/// * [`NumError::Breakdown`] if `pᵀAp ≤ 0` (matrix not SPD),
/// * [`NumError::NotConverged`] when the budget is exhausted.
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &IterOptions,
) -> Result<IterSolution, NumError> {
    validate(a, b, x0)?;
    let mut x = x0.map_or_else(Vec::new, <[f64]>::to_vec);
    let mut m = opts.preconditioner.build();
    m.setup(a)?;
    let mut ws = KrylovWorkspace::new();
    let stats = conjugate_gradient_preconditioned(a, b, &mut x, opts, &mut ws, m.as_mut())?;
    Ok(IterSolution {
        x,
        iterations: stats.iterations,
        relative_residual: stats.relative_residual,
    })
}

/// Preconditioned conjugate gradient with a caller-supplied,
/// already-set-up preconditioner — the amortized entry point used by
/// [`crate::session::SolverSession`].
///
/// `opts.preconditioner` is ignored; `m` must have been
/// [`Preconditioner::setup`] on (the current values of) `a`. `x` doubles
/// as warm start and result: when its length matches the system it is
/// the initial guess; any other length — e.g. an empty vector — is reset
/// to a zero cold start. `ws` supplies every scratch vector, so repeated
/// solves allocate nothing after the first.
///
/// # Errors
///
/// As [`conjugate_gradient`].
pub fn conjugate_gradient_preconditioned(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut Vec<f64>,
    opts: &IterOptions,
    ws: &mut KrylovWorkspace,
    m: &mut dyn Preconditioner,
) -> Result<SolveStats, NumError> {
    validate(a, b, None)?;
    let n = b.len();
    prime_guess(x, n);
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        x.iter_mut().for_each(|xi| *xi = 0.0);
        return Ok(SolveStats {
            iterations: 0,
            relative_residual: 0.0,
        });
    }
    ws.resize_cg(n);
    let r = &mut ws.r;
    let z = &mut ws.z;
    let p = &mut ws.p;
    let ap = &mut ws.ap;

    a.matvec_into(x, ap)?;
    sub(b, ap, r);

    m.apply(z, r);
    p.copy_from_slice(z);
    // Fused: r·z (the CG scalar) and r·r (the residual check) in one
    // pass over r.
    let (mut rz, mut rr) = dot2(r, z, r);

    for it in 0..opts.max_iterations {
        let res = rr.sqrt() / b_norm;
        if res <= opts.tolerance {
            return Ok(SolveStats {
                iterations: it,
                relative_residual: res,
            });
        }
        a.matvec_into(p, ap)?;
        let pap = dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            return Err(NumError::Breakdown(format!(
                "pAp = {pap:.3e} at iteration {it}; matrix not SPD?"
            )));
        }
        let alpha = rz / pap;
        axpy(alpha, p, x);
        axpy(-alpha, ap, r);

        m.apply(z, r);
        let (rz_new, rr_new) = dot2(r, z, r);
        let beta = rz_new / rz;
        rz = rz_new;
        rr = rr_new;
        xpby(z, beta, p);
    }
    Err(NumError::NotConverged {
        iterations: opts.max_iterations,
        residual: rr.sqrt() / b_norm,
        tolerance: opts.tolerance,
    })
}

/// Preconditioned BiCGSTAB for general (nonsymmetric) `A`, one shot:
/// builds and sets up `opts.preconditioner`, then runs
/// [`bicgstab_preconditioned`] from `x0` (a zero start when `None`) with
/// a fresh workspace.
///
/// # Errors
///
/// As [`conjugate_gradient`], with [`NumError::Breakdown`] raised when the
/// stabilized bi-orthogonal recurrences collapse (`ρ ≈ 0` or `ω ≈ 0`).
pub fn bicgstab(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    opts: &IterOptions,
) -> Result<IterSolution, NumError> {
    validate(a, b, x0)?;
    let mut x = x0.map_or_else(Vec::new, <[f64]>::to_vec);
    let mut m = opts.preconditioner.build();
    m.setup(a)?;
    let mut ws = KrylovWorkspace::new();
    let stats = bicgstab_preconditioned(a, b, &mut x, opts, &mut ws, m.as_mut())?;
    Ok(IterSolution {
        x,
        iterations: stats.iterations,
        relative_residual: stats.relative_residual,
    })
}

/// Preconditioned BiCGSTAB with a caller-supplied, already-set-up
/// preconditioner — the amortized entry point used by
/// [`crate::session::SolverSession`].
///
/// `opts.preconditioner` is ignored; `m` must have been
/// [`Preconditioner::setup`] on (the current values of) `a`. `x` and
/// `ws` are as in [`conjugate_gradient_preconditioned`].
///
/// # Errors
///
/// As [`bicgstab`].
pub fn bicgstab_preconditioned(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut Vec<f64>,
    opts: &IterOptions,
    ws: &mut KrylovWorkspace,
    m: &mut dyn Preconditioner,
) -> Result<SolveStats, NumError> {
    validate(a, b, None)?;
    let n = b.len();
    prime_guess(x, n);
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        x.iter_mut().for_each(|xi| *xi = 0.0);
        return Ok(SolveStats {
            iterations: 0,
            relative_residual: 0.0,
        });
    }
    ws.resize_bicgstab(n);
    let r = &mut ws.r;
    let r_hat = &mut ws.r_hat;
    let v = &mut ws.v;
    let p = &mut ws.p;
    let p_hat = &mut ws.p_hat;
    let s = &mut ws.s;
    let s_hat = &mut ws.s_hat;
    let t = &mut ws.t;

    a.matvec_into(x, v)?;
    sub(b, v, r);
    r_hat.copy_from_slice(r);
    v.iter_mut().for_each(|vi| *vi = 0.0);
    p.iter_mut().for_each(|pi| *pi = 0.0);

    let mut rho = 1.0_f64;
    let mut alpha = 1.0_f64;
    let mut omega = 1.0_f64;
    // Fused: the bi-orthogonality scalar r̂·r and the residual check
    // r·r in one pass over r (re-fused at the end of every iteration).
    let (mut rho_new, mut rr) = dot2(r, r_hat, r);
    let mut restarts = 0usize;
    const MAX_RESTARTS: usize = 40;
    // True while `r` holds the directly computed b − A·x (start, and
    // after every residual replacement) rather than the recursive
    // update — lets the convergence check skip the verification matvec.
    let mut r_is_true = true;

    let mut it = 0;
    while it < opts.max_iterations {
        let res = rr.sqrt() / b_norm;
        if res <= opts.tolerance {
            if r_is_true {
                return Ok(SolveStats {
                    iterations: it,
                    relative_residual: res,
                });
            }
            // The recursively updated residual can drift from
            // b − A·x on stagnating solves; verify against the true
            // residual before reporting convergence (residual
            // replacement, van der Vorst). Every `Ok` return therefore
            // carries a genuine relative residual.
            a.matvec_into(x, t)?;
            sub(b, t, r);
            let rr_true = dot(r, r);
            let res_true = rr_true.sqrt() / b_norm;
            if res_true <= opts.tolerance {
                return Ok(SolveStats {
                    iterations: it,
                    relative_residual: res_true,
                });
            }
            // Drifted: continue from the current iterate with the true
            // residual and a fresh shadow vector.
            restarts += 1;
            if restarts > MAX_RESTARTS {
                return Err(NumError::NotConverged {
                    iterations: it,
                    residual: res_true,
                    tolerance: opts.tolerance,
                });
            }
            bicgstab_restart(r, r_hat, v, p, &mut rho, &mut alpha, &mut omega);
            rho_new = rr_true;
            rr = rr_true;
            r_is_true = true;
        }
        if rho_new.abs() < 1e-300 {
            // The shadow residual has become (numerically) orthogonal
            // to r while the iterate is not converged — the classic
            // BiCGSTAB stagnation. Restart the recurrence with
            // r̂ = r (then r̂·r = ‖r‖² > 0) instead of aborting.
            restarts += 1;
            if restarts > MAX_RESTARTS {
                return Err(NumError::Breakdown(format!(
                    "rho = {rho_new:.3e} at iteration {it} after {} restarts",
                    restarts - 1
                )));
            }
            bicgstab_restart(r, r_hat, v, p, &mut rho, &mut alpha, &mut omega);
            rho_new = rr;
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        // p = r + beta (p - omega v)
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        m.apply(p_hat, p);
        // Fused: v = A·p̂ and (r̂, v) in one pass over the rows —
        // bitwise identical to matvec followed by dot.
        let rhat_v = a.matvec_dot_into(p_hat, v, r_hat)?;
        if rhat_v.abs() < 1e-300 {
            return Err(NumError::Breakdown(format!(
                "r_hat.v = {rhat_v:.3e} at iteration {it}"
            )));
        }
        alpha = rho / rhat_v;
        // Fused: s = r − α·v and ‖s‖² in one pass.
        s.copy_from_slice(r);
        let s_rr = axpy_norm2_sq(-alpha, v, s);
        if s_rr.sqrt() / b_norm <= opts.tolerance {
            // Half-step convergence claim: commit x, then verify the
            // true residual at the top of the next trip (rr ≤ tol²·b²
            // forces the verified check immediately).
            axpy(alpha, p_hat, x);
            a.matvec_into(x, t)?;
            sub(b, t, r);
            rr = dot(r, r);
            let res_true = rr.sqrt() / b_norm;
            if res_true <= opts.tolerance {
                return Ok(SolveStats {
                    iterations: it + 1,
                    relative_residual: res_true,
                });
            }
            restarts += 1;
            if restarts > MAX_RESTARTS {
                return Err(NumError::NotConverged {
                    iterations: it + 1,
                    residual: res_true,
                    tolerance: opts.tolerance,
                });
            }
            bicgstab_restart(r, r_hat, v, p, &mut rho, &mut alpha, &mut omega);
            rho_new = rr;
            // (r is now the true residual, but the next loop trip is
            // guaranteed res > tol, so the flag need not be raised.)
            it += 1;
            continue;
        }
        m.apply(s_hat, s);
        a.matvec_into(s_hat, t)?;
        // Fused: t·s and t·t in one pass over t.
        let (ts, tt) = dot2(t, s, t);
        if tt.abs() < 1e-300 {
            return Err(NumError::Breakdown(format!("t.t = 0 at iteration {it}")));
        }
        omega = ts / tt;
        if omega.abs() < 1e-300 {
            return Err(NumError::Breakdown(format!("omega = 0 at iteration {it}")));
        }
        for i in 0..n {
            x[i] += alpha * p_hat[i] + omega * s_hat[i];
            r[i] = s[i] - omega * t[i];
        }
        (rho_new, rr) = dot2(r, r_hat, r);
        r_is_true = false;
        it += 1;
    }
    Err(NumError::NotConverged {
        iterations: opts.max_iterations,
        residual: rr.sqrt() / b_norm,
        tolerance: opts.tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    /// 2-D 5-point Laplacian with Dirichlet boundaries on an n×n grid.
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

    /// Upwind 1-D convection-diffusion operator (nonsymmetric).
    fn convection_diffusion_1d(n: usize, peclet: f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + peclet).unwrap();
            if i > 0 {
                t.push(i, i - 1, -1.0 - peclet).unwrap();
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0).unwrap();
            }
        }
        t.to_csr()
    }

    #[test]
    fn cg_solves_2d_laplacian() {
        let n = 20;
        let a = laplacian_2d(n);
        let x_true: Vec<f64> = (0..n * n).map(|i| ((i % 17) as f64) * 0.3 - 1.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let sol = conjugate_gradient(&a, &b, None, &IterOptions::default()).unwrap();
        for (xi, ti) in sol.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-6, "{xi} vs {ti}");
        }
        assert!(sol.relative_residual <= 1e-10);
    }

    #[test]
    fn stronger_preconditioners_cut_iterations_on_laplacian() {
        let n = 24;
        let a = laplacian_2d(n);
        let b = vec![1.0; n * n];
        let iters = |spec: PrecondSpec| {
            conjugate_gradient(
                &a,
                &b,
                None,
                &IterOptions {
                    preconditioner: spec,
                    ..IterOptions::default()
                },
            )
            .unwrap()
            .iterations
        };
        let jacobi = iters(PrecondSpec::Jacobi);
        let ssor = iters(PrecondSpec::ssor());
        let ic0 = iters(PrecondSpec::Ic0);
        // ≥1.5× on this small grid; the gap widens with grid size (the
        // PR-2 bench gates ≥2× on the production-size PDN grid).
        assert!(
            3 * ssor <= 2 * jacobi,
            "SSOR should cut CG iterations ≥1.5x: {ssor} vs {jacobi}"
        );
        assert!(
            3 * ic0 <= 2 * jacobi,
            "IC(0) should cut CG iterations ≥1.5x: {ic0} vs {jacobi}"
        );
    }

    #[test]
    fn all_preconditioners_reach_the_same_solution() {
        let n = 16;
        let a = laplacian_2d(n);
        let x_true: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.11).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        for spec in [
            PrecondSpec::Jacobi,
            PrecondSpec::ssor(),
            PrecondSpec::Ssor { omega: 1.5 },
            PrecondSpec::Ic0,
        ] {
            let sol = conjugate_gradient(
                &a,
                &b,
                None,
                &IterOptions {
                    preconditioner: spec,
                    ..IterOptions::default()
                },
            )
            .unwrap();
            for (xi, ti) in sol.x.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-6, "{:?}: {xi} vs {ti}", spec);
            }
        }
    }

    #[test]
    fn cg_rejects_nonspd() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, -1.0).unwrap();
        t.push(1, 1, -1.0).unwrap();
        let a = t.to_csr();
        let err = conjugate_gradient(&a, &[1.0, 1.0], None, &IterOptions::default()).unwrap_err();
        assert!(matches!(err, NumError::Breakdown(_)));
    }

    #[test]
    fn bicgstab_solves_nonsymmetric() {
        let n = 200;
        let a = convection_diffusion_1d(n, 3.0);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let sol = bicgstab(&a, &b, None, &IterOptions::default()).unwrap();
        for (xi, ti) in sol.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-6, "{xi} vs {ti}");
        }
    }

    #[test]
    fn bicgstab_with_ssor_matches_jacobi_on_nonsymmetric() {
        let n = 120;
        let a = convection_diffusion_1d(n, 2.0);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).cos()).collect();
        let b = a.matvec(&x_true).unwrap();
        let jac = bicgstab(&a, &b, None, &IterOptions::default()).unwrap();
        let ssor = bicgstab(
            &a,
            &b,
            None,
            &IterOptions {
                preconditioner: PrecondSpec::ssor(),
                ..IterOptions::default()
            },
        )
        .unwrap();
        for (u, v) in jac.x.iter().zip(&ssor.x) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn bicgstab_matches_cg_on_spd() {
        let n = 12;
        let a = laplacian_2d(n);
        let b: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.01).cos()).collect();
        let c = conjugate_gradient(&a, &b, None, &IterOptions::default()).unwrap();
        let s = bicgstab(&a, &b, None, &IterOptions::default()).unwrap();
        for (xc, xs) in c.x.iter().zip(&s.x) {
            assert!((xc - xs).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_start_converges_immediately() {
        let n = 10;
        let a = laplacian_2d(n);
        let b = vec![1.0; n * n];
        let sol = conjugate_gradient(&a, &b, None, &IterOptions::default()).unwrap();
        let warm = conjugate_gradient(&a, &b, Some(&sol.x), &IterOptions::default()).unwrap();
        assert!(warm.iterations <= 1);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = laplacian_2d(4);
        let sol = conjugate_gradient(&a, &[0.0; 16], None, &IterOptions::default()).unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_budget_is_enforced() {
        let a = laplacian_2d(16);
        let b = vec![1.0; 256];
        let err = conjugate_gradient(
            &a,
            &b,
            None,
            &IterOptions {
                max_iterations: 2,
                ..IterOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, NumError::NotConverged { iterations: 2, .. }));
    }

    #[test]
    fn solvers_validate_inputs() {
        let a = laplacian_2d(3);
        assert!(conjugate_gradient(&a, &[1.0], None, &IterOptions::default()).is_err());
        assert!(bicgstab(&a, &[f64::NAN; 9], None, &IterOptions::default()).is_err());
        let bad_guess = vec![0.0; 4];
        assert!(
            conjugate_gradient(&a, &[1.0; 9], Some(&bad_guess), &IterOptions::default())
                .is_err()
        );
    }
}
