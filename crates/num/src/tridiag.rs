//! Tridiagonal systems and the Thomas algorithm.
//!
//! The streamwise marching solver in `bright-flowcell` performs implicit
//! cross-stream diffusion solves at every axial station; each is a
//! tridiagonal system, making this kernel the hottest numerical path of the
//! polarization sweeps. A sweep marches all of its voltages through a
//! station together, so the station's factored operator back-substitutes
//! every voltage's fields in one multi-lane pass. The flow cell keeps its
//! station operators in a block of its own, and
//! [`TridiagonalFactorization`] with
//! [`TridiagonalFactorization::solve_lanes_in_place`] is the reference
//! whose bits that block reproduces.

use crate::NumError;

/// A tridiagonal linear system `A·x = b` stored by bands.
///
/// For an `n × n` system the bands are: `lower` (length `n−1`, entries
/// `A[i+1][i]`), `diag` (length `n`) and `upper` (length `n−1`, entries
/// `A[i][i+1]`).
///
/// # Examples
///
/// ```
/// use bright_num::tridiag::TridiagonalSystem;
///
/// let sys = TridiagonalSystem::from_bands(
///     vec![1.0],
///     vec![4.0, 4.0],
///     vec![1.0],
/// )?;
/// let x = sys.solve(&[5.0, 5.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-14);
/// # Ok::<(), bright_num::NumError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TridiagonalSystem {
    lower: Vec<f64>,
    diag: Vec<f64>,
    upper: Vec<f64>,
}

impl TridiagonalSystem {
    /// Builds a system from its three bands.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if the band lengths are
    /// inconsistent and [`NumError::InvalidInput`] if any entry is not
    /// finite.
    pub fn from_bands(
        lower: Vec<f64>,
        diag: Vec<f64>,
        upper: Vec<f64>,
    ) -> Result<Self, NumError> {
        let n = diag.len();
        if n == 0 {
            return Err(NumError::InvalidInput("empty diagonal".into()));
        }
        if lower.len() + 1 != n || upper.len() + 1 != n {
            return Err(NumError::DimensionMismatch(format!(
                "bands must have lengths (n-1, n, n-1); got ({}, {}, {})",
                lower.len(),
                n,
                upper.len()
            )));
        }
        if !crate::vec_ops::all_finite(&lower)
            || !crate::vec_ops::all_finite(&diag)
            || !crate::vec_ops::all_finite(&upper)
        {
            return Err(NumError::InvalidInput("non-finite band entry".into()));
        }
        Ok(Self { lower, diag, upper })
    }

    /// Number of unknowns.
    #[inline]
    pub fn len(&self) -> usize {
        self.diag.len()
    }

    /// Returns `true` if the system has no unknowns (never true for a
    /// successfully constructed system).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.diag.is_empty()
    }

    /// Solves `A·x = b` by the Thomas algorithm (LU without pivoting).
    ///
    /// The Thomas algorithm is unconditionally stable for diagonally
    /// dominant systems, which is what the implicit diffusion discretization
    /// produces.
    ///
    /// # Errors
    ///
    /// * [`NumError::DimensionMismatch`] if `b.len() != self.len()`.
    /// * [`NumError::SingularMatrix`] if a pivot underflows.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        let n = self.len();
        if b.len() != n {
            return Err(NumError::DimensionMismatch(format!(
                "rhs length {} != system size {n}",
                b.len()
            )));
        }
        let mut c_prime = vec![0.0; n];
        let mut d_prime = vec![0.0; n];

        let mut beta = self.diag[0];
        if beta.abs() < f64::MIN_POSITIVE * 16.0 {
            return Err(NumError::SingularMatrix { index: 0 });
        }
        c_prime[0] = if n > 1 { self.upper[0] / beta } else { 0.0 };
        d_prime[0] = b[0] / beta;

        for i in 1..n {
            beta = self.diag[i] - self.lower[i - 1] * c_prime[i - 1];
            if beta.abs() < f64::MIN_POSITIVE * 16.0 {
                return Err(NumError::SingularMatrix { index: i });
            }
            if i < n - 1 {
                c_prime[i] = self.upper[i] / beta;
            }
            d_prime[i] = (b[i] - self.lower[i - 1] * d_prime[i - 1]) / beta;
        }

        let mut x = d_prime;
        for i in (0..n - 1).rev() {
            let next = x[i + 1];
            x[i] -= c_prime[i] * next;
        }
        Ok(x)
    }

    /// Computes `A·x` (used by tests to verify residuals).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `x.len() != self.len()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, NumError> {
        let mut y = vec![0.0; self.len()];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// Allocation-free `y ← A·x` with a caller-owned output buffer —
    /// the repeated-residual counterpart of
    /// [`crate::sparse::CsrMatrix::matvec_into`].
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `x` or `y` do not
    /// match the system size.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumError> {
        let n = self.len();
        if x.len() != n || y.len() != n {
            return Err(NumError::DimensionMismatch(format!(
                "matvec: x has {}, y has {}, system size {n}",
                x.len(),
                y.len()
            )));
        }
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = self.diag[i] * x[i];
            if i > 0 {
                acc += self.lower[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                acc += self.upper[i] * x[i + 1];
            }
            *yi = acc;
        }
        Ok(())
    }
}

/// A precomputed Thomas (LU) factorization of a tridiagonal operator.
///
/// The marching transport solver applies the *same* cross-stream operator
/// at every station of every sweep point; factoring once and reusing the
/// factorization turns each solve into a forward/backward substitution
/// with no divisions, which is the amortized-assembly counterpart of
/// [`TridiagonalWorkspace`]. The flow cell's operator block performs this
/// factor's and these solves' exact arithmetic, and is tested against
/// them.
///
/// # Examples
///
/// ```
/// use bright_num::tridiag::{TridiagonalFactorization, TridiagonalSystem};
///
/// let lower = vec![-1.0];
/// let diag = vec![4.0, 4.0];
/// let upper = vec![-1.0];
/// let fac = TridiagonalFactorization::factor(&lower, &diag, &upper)?;
/// let mut x = vec![3.0, 3.0];
/// fac.solve_in_place(&mut x)?;
/// let sys = TridiagonalSystem::from_bands(lower, diag, upper)?;
/// let expect = sys.solve(&[3.0, 3.0])?;
/// assert!((x[0] - expect[0]).abs() < 1e-14);
/// # Ok::<(), bright_num::NumError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TridiagonalFactorization {
    lower: Vec<f64>,
    inv_beta: Vec<f64>,
    c_prime: Vec<f64>,
}

impl TridiagonalFactorization {
    /// Factors the operator given by its bands.
    ///
    /// # Errors
    ///
    /// * [`NumError::DimensionMismatch`] for inconsistent band lengths,
    /// * [`NumError::SingularMatrix`] if a pivot underflows.
    pub fn factor(lower: &[f64], diag: &[f64], upper: &[f64]) -> Result<Self, NumError> {
        let n = diag.len();
        if n == 0 || lower.len() + 1 != n || upper.len() + 1 != n {
            return Err(NumError::DimensionMismatch(format!(
                "bands must have lengths (n-1, n, n-1) with n > 0; got ({}, {}, {})",
                lower.len(),
                n,
                upper.len()
            )));
        }
        let mut inv_beta = vec![0.0; n];
        let mut c_prime = vec![0.0; n];
        let mut beta = diag[0];
        if beta.abs() < f64::MIN_POSITIVE * 16.0 {
            return Err(NumError::SingularMatrix { index: 0 });
        }
        inv_beta[0] = 1.0 / beta;
        if n > 1 {
            c_prime[0] = upper[0] * inv_beta[0];
        }
        for i in 1..n {
            beta = diag[i] - lower[i - 1] * c_prime[i - 1];
            if beta.abs() < f64::MIN_POSITIVE * 16.0 {
                return Err(NumError::SingularMatrix { index: i });
            }
            inv_beta[i] = 1.0 / beta;
            if i < n - 1 {
                c_prime[i] = upper[i] * inv_beta[i];
            }
        }
        Ok(Self {
            lower: lower.to_vec(),
            inv_beta,
            c_prime,
        })
    }

    /// Number of unknowns.
    #[inline]
    pub fn len(&self) -> usize {
        self.inv_beta.len()
    }

    /// `true` if the factorization is empty (never true for a
    /// successfully constructed factorization).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inv_beta.is_empty()
    }

    /// Solves in place: `x` enters holding the right-hand side and exits
    /// holding the solution. Substitution only — no divisions and no
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `x.len() != self.len()`.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<(), NumError> {
        let n = self.len();
        if x.len() != n {
            return Err(NumError::DimensionMismatch(format!(
                "rhs length {} != factored system size {n}",
                x.len()
            )));
        }
        x[0] *= self.inv_beta[0];
        for i in 1..n {
            x[i] = (x[i] - self.lower[i - 1] * x[i - 1]) * self.inv_beta[i];
        }
        for i in (0..n - 1).rev() {
            let next = x[i + 1];
            x[i] -= self.c_prime[i] * next;
        }
        Ok(())
    }

    /// Solves `lanes` independent right-hand sides in one pass. `x` is
    /// row-major `[n][lanes]`: row `i` holds entry `i` of every lane.
    /// Each lane gets exactly the arithmetic of
    /// [`TridiagonalFactorization::solve_in_place`] (so its bits match a
    /// separate solve), but the lanes' dependency chains interleave and
    /// the per-row lane loop vectorizes.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `lanes == 0` or
    /// `x.len() != self.len() · lanes`.
    pub fn solve_lanes_in_place(&self, x: &mut [f64], lanes: usize) -> Result<(), NumError> {
        let n = self.len();
        if lanes == 0 || x.len() != n * lanes {
            return Err(NumError::DimensionMismatch(format!(
                "lane block of {} entries != factored system size {n} x {lanes} lanes",
                x.len()
            )));
        }
        // Each row step is `solve_in_place`'s, applied to every lane of
        // the row in one contiguous loop.
        for xi in &mut x[..lanes] {
            *xi *= self.inv_beta[0];
        }
        for i in 1..n {
            let (prev, row) = x[(i - 1) * lanes..(i + 1) * lanes].split_at_mut(lanes);
            let (l, inv) = (self.lower[i - 1], self.inv_beta[i]);
            for (xi, p) in row.iter_mut().zip(&*prev) {
                *xi = (*xi - l * p) * inv;
            }
        }
        for i in (0..n - 1).rev() {
            let (row, next) = x[i * lanes..(i + 2) * lanes].split_at_mut(lanes);
            let c = self.c_prime[i];
            for (xi, nx) in row.iter_mut().zip(&*next) {
                *xi -= c * nx;
            }
        }
        Ok(())
    }
}

/// Workspace-reusing Thomas solver for repeated solves of same-sized
/// systems (the marching solver calls this once per axial station).
///
/// Unlike [`TridiagonalSystem::solve`], no allocations are made after
/// construction.
#[derive(Debug, Clone)]
pub struct TridiagonalWorkspace {
    c_prime: Vec<f64>,
    n: usize,
}

impl TridiagonalWorkspace {
    /// Creates a workspace for systems of `n` unknowns.
    pub fn new(n: usize) -> Self {
        Self {
            c_prime: vec![0.0; n],
            n,
        }
    }

    /// Solves in place: `x` enters holding the right-hand side and exits
    /// holding the solution. Bands are passed as slices.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`TridiagonalSystem::solve`].
    pub fn solve_in_place(
        &mut self,
        lower: &[f64],
        diag: &[f64],
        upper: &[f64],
        x: &mut [f64],
    ) -> Result<(), NumError> {
        let n = self.n;
        if diag.len() != n || x.len() != n || lower.len() + 1 != n || upper.len() + 1 != n {
            return Err(NumError::DimensionMismatch(format!(
                "workspace sized {n}, got bands ({}, {}, {}) rhs {}",
                lower.len(),
                diag.len(),
                upper.len(),
                x.len()
            )));
        }
        let mut beta = diag[0];
        if beta.abs() < f64::MIN_POSITIVE * 16.0 {
            return Err(NumError::SingularMatrix { index: 0 });
        }
        self.c_prime[0] = if n > 1 { upper[0] / beta } else { 0.0 };
        x[0] /= beta;
        for i in 1..n {
            beta = diag[i] - lower[i - 1] * self.c_prime[i - 1];
            if beta.abs() < f64::MIN_POSITIVE * 16.0 {
                return Err(NumError::SingularMatrix { index: i });
            }
            if i < n - 1 {
                self.c_prime[i] = upper[i] / beta;
            }
            x[i] = (x[i] - lower[i - 1] * x[i - 1]) / beta;
        }
        for i in (0..n - 1).rev() {
            let next = x[i + 1];
            x[i] -= self.c_prime[i] * next;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec_ops::{norm_inf, sub};

    #[test]
    fn solves_poisson_exactly() {
        // -u'' = 2 with u(0)=u(1)=0, h=0.2: exact u = x(1-x).
        let n = 4;
        let h: f64 = 0.2;
        let sys = TridiagonalSystem::from_bands(
            vec![-1.0; n - 1],
            vec![2.0; n],
            vec![-1.0; n - 1],
        )
        .unwrap();
        let b = vec![2.0 * h * h; n];
        let x = sys.solve(&b).unwrap();
        for (i, xi) in x.iter().enumerate() {
            let xi_exact = {
                let pos = h * (i as f64 + 1.0);
                pos * (1.0 - pos)
            };
            assert!((xi - xi_exact).abs() < 1e-12, "node {i}: {xi} vs {xi_exact}");
        }
    }

    #[test]
    fn residual_is_tiny_for_random_like_system() {
        let n = 64;
        let lower: Vec<f64> = (0..n - 1).map(|i| -(1.0 + (i as f64 * 0.37).sin().abs())).collect();
        let upper: Vec<f64> = (0..n - 1).map(|i| -(1.0 + (i as f64 * 0.73).cos().abs())).collect();
        let diag: Vec<f64> = (0..n)
            .map(|i: usize| {
                4.0 + (i as f64 * 0.11).sin()
                    + lower.get(i.wrapping_sub(1)).map_or(0.0, |v: &f64| v.abs())
                    + upper.get(i).map_or(0.0, |v: &f64| v.abs())
            })
            .collect();
        let sys = TridiagonalSystem::from_bands(lower, diag, upper).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos()).collect();
        let x = sys.solve(&b).unwrap();
        let ax = sys.matvec(&x).unwrap();
        let mut r = vec![0.0; n];
        sub(&ax, &b, &mut r);
        assert!(norm_inf(&r) < 1e-11, "residual {}", norm_inf(&r));
    }

    #[test]
    fn single_unknown_system() {
        let sys = TridiagonalSystem::from_bands(vec![], vec![5.0], vec![]).unwrap();
        let x = sys.solve(&[10.0]).unwrap();
        assert_eq!(x, vec![2.0]);
    }

    #[test]
    fn rejects_inconsistent_bands() {
        let err = TridiagonalSystem::from_bands(vec![1.0], vec![1.0], vec![]).unwrap_err();
        assert!(matches!(err, NumError::DimensionMismatch(_)));
        let err = TridiagonalSystem::from_bands(vec![], vec![], vec![]).unwrap_err();
        assert!(matches!(err, NumError::InvalidInput(_)));
    }

    #[test]
    fn rejects_singular_pivot() {
        let sys = TridiagonalSystem::from_bands(vec![1.0], vec![0.0, 1.0], vec![1.0]).unwrap();
        assert!(matches!(
            sys.solve(&[1.0, 1.0]),
            Err(NumError::SingularMatrix { index: 0 })
        ));
    }

    #[test]
    fn workspace_matches_allocating_solver() {
        let n = 16;
        let lower = vec![-1.0; n - 1];
        let diag = vec![3.0; n];
        let upper = vec![-1.5; n - 1];
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let sys =
            TridiagonalSystem::from_bands(lower.clone(), diag.clone(), upper.clone()).unwrap();
        let expected = sys.solve(&b).unwrap();
        let mut ws = TridiagonalWorkspace::new(n);
        let mut x = b;
        ws.solve_in_place(&lower, &diag, &upper, &mut x).unwrap();
        for (a, e) in x.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-13);
        }
    }

    #[test]
    fn factorization_matches_allocating_solver() {
        let n = 24;
        let lower: Vec<f64> = (0..n - 1).map(|i| -(1.0 + 0.1 * i as f64)).collect();
        let upper: Vec<f64> = (0..n - 1).map(|i| -(0.5 + 0.05 * i as f64)).collect();
        let diag: Vec<f64> = (0..n).map(|i| 4.0 + 0.2 * i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
        let sys =
            TridiagonalSystem::from_bands(lower.clone(), diag.clone(), upper.clone()).unwrap();
        let expected = sys.solve(&b).unwrap();
        let fac = TridiagonalFactorization::factor(&lower, &diag, &upper).unwrap();
        // Factor once, solve repeatedly.
        for _ in 0..3 {
            let mut x = b.clone();
            fac.solve_in_place(&mut x).unwrap();
            for (a, e) in x.iter().zip(&expected) {
                assert!((a - e).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn factorization_validates() {
        assert!(TridiagonalFactorization::factor(&[1.0], &[1.0], &[]).is_err());
        assert!(TridiagonalFactorization::factor(&[], &[], &[]).is_err());
        assert!(matches!(
            TridiagonalFactorization::factor(&[1.0], &[0.0, 1.0], &[1.0]),
            Err(NumError::SingularMatrix { index: 0 })
        ));
        let fac = TridiagonalFactorization::factor(&[], &[2.0], &[]).unwrap();
        assert_eq!(fac.len(), 1);
        assert!(!fac.is_empty());
        let mut wrong = vec![1.0, 2.0];
        assert!(fac.solve_in_place(&mut wrong).is_err());
        let mut x = vec![10.0];
        fac.solve_in_place(&mut x).unwrap();
        assert_eq!(x, vec![5.0]);
        // Lane blocks must hold exactly n x lanes entries.
        let mut lanes = vec![10.0, 4.0];
        assert!(fac.solve_lanes_in_place(&mut lanes, 0).is_err());
        assert!(fac.solve_lanes_in_place(&mut lanes, 3).is_err());
        fac.solve_lanes_in_place(&mut lanes, 2).unwrap();
        assert_eq!(lanes, vec![5.0, 2.0]);
    }

    #[test]
    fn workspace_rejects_wrong_size() {
        let mut ws = TridiagonalWorkspace::new(4);
        let mut x = vec![0.0; 3];
        assert!(ws
            .solve_in_place(&[1.0, 1.0], &[1.0, 1.0, 1.0], &[1.0, 1.0], &mut x)
            .is_err());
    }
}
