//! Tridiagonal systems and the Thomas algorithm.
//!
//! The streamwise marching solver in `bright-flowcell` performs implicit
//! cross-stream diffusion solves at every axial station; each is a
//! tridiagonal system. A sweep marches all of its voltages through a
//! station together, so the station's factored operator back-substitutes
//! every voltage's fields in one multi-lane pass. The flow cell keeps its
//! station operators in a block of its own, and
//! [`TridiagonalFactorization`] with
//! [`TridiagonalFactorization::solve_lanes_in_place`] is the reference
//! whose bits that block reproduces.

use crate::NumError;

/// A Thomas (LU without pivoting) factorization of a tridiagonal
/// operator `A`, given by its bands: `lower` (length `n−1`, entries
/// `A[i+1][i]`), `diag` (length `n`) and `upper` (length `n−1`, entries
/// `A[i][i+1]`).
///
/// Factoring once and reusing the factorization turns each solve into a
/// forward/backward substitution with no divisions. The Thomas algorithm
/// is stable for the diagonally dominant systems implicit diffusion
/// produces. The flow cell's operator block performs this factor's and
/// these solves' exact arithmetic, and is tested against them.
///
/// # Examples
///
/// ```
/// use bright_num::tridiag::TridiagonalFactorization;
///
/// // [4 -1; -1 4]·x = [3, 3] has x = [1, 1].
/// let fac = TridiagonalFactorization::factor(&[-1.0], &[4.0, 4.0], &[-1.0])?;
/// let mut x = vec![3.0, 3.0];
/// fac.solve_in_place(&mut x)?;
/// assert!((x[0] - 1.0).abs() < 1e-14 && (x[1] - 1.0).abs() < 1e-14);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::vec_ops::norm_inf;

    /// Factors the bands and solves `A·x = b`.
    fn solve(lower: &[f64], diag: &[f64], upper: &[f64], b: &[f64]) -> Result<Vec<f64>, NumError> {
        let fac = TridiagonalFactorization::factor(lower, diag, upper)?;
        let mut x = b.to_vec();
        fac.solve_in_place(&mut x)?;
        Ok(x)
    }

    #[test]
    fn solves_poisson_exactly() {
        // -u'' = 2 with u(0)=u(1)=0, h=0.2: exact u = x(1-x).
        let n = 4;
        let h: f64 = 0.2;
        let b = vec![2.0 * h * h; n];
        let x = solve(&vec![-1.0; n - 1], &vec![2.0; n], &vec![-1.0; n - 1], &b).unwrap();
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
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos()).collect();
        let x = solve(&lower, &diag, &upper, &b).unwrap();
        let r: Vec<f64> = (0..n)
            .map(|i| {
                let mut ax = diag[i] * x[i];
                if i > 0 {
                    ax += lower[i - 1] * x[i - 1];
                }
                if i + 1 < n {
                    ax += upper[i] * x[i + 1];
                }
                ax - b[i]
            })
            .collect();
        assert!(norm_inf(&r) < 1e-11, "residual {}", norm_inf(&r));
    }

    #[test]
    fn single_unknown_system() {
        assert_eq!(solve(&[], &[5.0], &[], &[10.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn rejects_inconsistent_bands() {
        for (lower, diag, upper) in [(&[1.0][..], &[1.0][..], &[][..]), (&[], &[], &[])] {
            assert!(matches!(
                TridiagonalFactorization::factor(lower, diag, upper),
                Err(NumError::DimensionMismatch(_))
            ));
        }
    }

    #[test]
    fn rejects_singular_pivot() {
        assert!(matches!(
            solve(&[1.0], &[0.0, 1.0], &[1.0], &[1.0, 1.0]),
            Err(NumError::SingularMatrix { index: 0 })
        ));
    }

    #[test]
    fn factorization_matches_allocating_solver() {
        let n = 24;
        let lower: Vec<f64> = (0..n - 1).map(|i| -(1.0 + 0.1 * i as f64)).collect();
        let upper: Vec<f64> = (0..n - 1).map(|i| -(0.5 + 0.05 * i as f64)).collect();
        let diag: Vec<f64> = (0..n).map(|i| 4.0 + 0.2 * i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
        let mut rows = vec![vec![0.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i] = diag[i];
            if i > 0 {
                row[i - 1] = lower[i - 1];
            }
            if i + 1 < n {
                row[i + 1] = upper[i];
            }
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let expected = DenseMatrix::from_rows(&row_refs).unwrap().solve(&b).unwrap();
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
}
