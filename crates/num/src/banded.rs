//! Banded SPD Cholesky factorization.
//!
//! Grid-graph conductance and conduction systems (PDN sheets, thermal
//! stacks) have a fixed, narrow bandwidth: with row-major node
//! numbering on an `nx × ny` grid every off-diagonal coupling sits
//! within `nx` columns of the diagonal. When the *matrix* is fixed and
//! only the right-hand side changes — the shape of a Monte Carlo yield
//! study, where thousands of samples re-stamp load currents into the
//! same power grid — a one-time banded Cholesky factorization turns
//! every subsequent solve into two triangular sweeps:
//!
//! * factor: `O(n·bw²)` flops, paid once per matrix,
//! * solve: `O(n·bw)` flops per right-hand side, no iteration, no
//!   preconditioner, and bitwise-deterministic by construction.
//!
//! The crossover against preconditioned CG is a handful of solves; a
//! thousand-sample study amortizes the factor to noise.

use crate::error::NumError;
use crate::sparse::CsrMatrix;

/// Cholesky factor `L` (lower triangle, `A = L·Lᵀ`) of a banded
/// symmetric positive-definite matrix, stored in packed band layout:
/// row `i` holds `L[i][j]` for `j ∈ [i − bw, i]` contiguously, so both
/// factorization and the triangular sweeps run on dense row slices.
#[derive(Debug, Clone)]
pub struct BandedCholesky {
    n: usize,
    bw: usize,
    /// `l[i * (bw + 1) + (bw - i + j)]` is `L[i][j]`.
    l: Vec<f64>,
}

impl BandedCholesky {
    /// Factors a symmetric positive-definite CSR matrix whose profile
    /// fits a band (`bw` = the widest `|i − j|` over stored entries —
    /// measured from the pattern, not assumed). Entries outside the
    /// lower triangle are ignored; symmetry is the caller's contract.
    ///
    /// # Errors
    ///
    /// * [`NumError::DimensionMismatch`] for a non-square matrix,
    /// * [`NumError::SingularMatrix`] when a pivot is not strictly
    ///   positive (the matrix is not SPD).
    pub fn factor(a: &CsrMatrix) -> Result<Self, NumError> {
        let n = a.rows();
        if n == 0 || a.cols() != n {
            return Err(NumError::DimensionMismatch(format!(
                "banded Cholesky needs a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let mut bw = 0usize;
        for i in 0..n {
            for (j, _) in a.row(i) {
                bw = bw.max(i.abs_diff(j));
            }
        }

        let stride = bw + 1;
        let mut l = vec![0.0; n * stride];
        // Stamp the lower triangle of A into the band.
        for i in 0..n {
            for (j, v) in a.row(i) {
                if j <= i {
                    l[i * stride + bw + j - i] = v;
                }
            }
        }

        // In-place banded Cholesky, row by row. Entry `L[i][j]` is
        // `(A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j]`, summed in
        // ascending `k` from the row's first band column. Four
        // off-diagonal entries go together: one pass over the shared
        // `k < j` range feeds four independent sums, then each sum
        // finishes with the entries of row `i` just computed, still in
        // ascending `k` — the same subtractions as one entry at a time.
        for i in 0..n {
            let start = i.saturating_sub(bw);
            let (done, rest) = l.split_at_mut(i * stride);
            // `row[k + bw - i]` is `L[i][k]`; `done[r[q] + k]` is `L[j + q][k]`.
            let row = &mut rest[..stride];
            let at = |k: usize| k + bw - i;
            let mut j = start;
            while j + 4 <= i {
                let r = [j, j + 1, j + 2, j + 3].map(|jq| jq * stride + bw - jq);
                let m = j - start;
                let a = &row[at(start)..at(start) + m];
                let b = r.map(|rq| &done[rq + start..rq + start + m]);
                let mut s = [row[at(j)], row[at(j + 1)], row[at(j + 2)], row[at(j + 3)]];
                for k in 0..m {
                    let lik = a[k];
                    s[0] -= lik * b[0][k];
                    s[1] -= lik * b[1][k];
                    s[2] -= lik * b[2][k];
                    s[3] -= lik * b[3][k];
                }
                for q in 0..4 {
                    let v = s[q] / done[r[q] + j + q];
                    row[at(j + q)] = v;
                    for p in q + 1..4 {
                        s[p] -= v * done[r[p] + j + q];
                    }
                }
                j += 4;
            }
            for j in j..i {
                let rj = j * stride + bw - j;
                let mut sum = row[at(j)];
                for k in start..j {
                    sum -= row[at(k)] * done[rj + k];
                }
                row[at(j)] = sum / done[rj + j];
            }
            let mut sum = row[at(i)];
            for k in start..i {
                sum -= row[at(k)] * row[at(k)];
            }
            if sum <= 0.0 || sum.is_nan() {
                return Err(NumError::SingularMatrix { index: i });
            }
            row[at(i)] = sum.sqrt();
        }
        Ok(Self { n, bw, l })
    }

    /// Matrix dimension.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Half-bandwidth of the factored matrix.
    #[inline]
    #[must_use]
    pub fn bandwidth(&self) -> usize {
        self.bw
    }

    /// Bytes held by the packed factor.
    #[inline]
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.l.len() * std::mem::size_of::<f64>()
    }

    /// Solves `A·x = b` by forward and backward substitution through
    /// the cached factor.
    ///
    /// # Errors
    ///
    /// [`NumError::DimensionMismatch`] when `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` with `x` overwriting `b` in place.
    ///
    /// # Errors
    ///
    /// [`NumError::DimensionMismatch`] when `x` has the wrong length.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<(), NumError> {
        if x.len() != self.n {
            return Err(NumError::DimensionMismatch(format!(
                "rhs length {} vs matrix dimension {}",
                x.len(),
                self.n
            )));
        }
        let (n, bw, stride) = (self.n, self.bw, self.bw + 1);
        // Forward sweep: L·y = b.
        for i in 0..n {
            let start = i.saturating_sub(bw);
            let ri = i * stride + bw - i;
            let mut sum = x[i];
            for (lv, xv) in self.l[ri + start..ri + i].iter().zip(&x[start..i]) {
                sum -= lv * xv;
            }
            x[i] = sum / self.l[ri + i];
        }
        // Backward sweep: Lᵀ·x = y. Row i of Lᵀ reads column i of L,
        // i.e. rows i..=i+bw of the band.
        for i in (0..n).rev() {
            let end = (i + bw).min(n - 1);
            let mut sum = x[i];
            for (off, xv) in x[i + 1..=end].iter().enumerate() {
                let r = i + 1 + off;
                sum -= self.l[r * stride + bw + i - r] * xv;
            }
            x[i] = sum / self.l[i * stride + bw];
        }
        Ok(())
    }

    /// Solves `A·X = B` for several right-hand sides at once, stored
    /// lane-interleaved: `x[i·lanes + q]` is row `i` of right-hand side
    /// `q`, overwritten by the solution. Every lane does exactly the
    /// arithmetic of [`BandedCholesky::solve_in_place`], so each lane's
    /// result is bitwise equal to a one-at-a-time solve. The factor is
    /// read once per sweep for all lanes, and a fixed register block of
    /// lanes carries independent subtraction chains through each row.
    ///
    /// # Errors
    ///
    /// [`NumError::DimensionMismatch`] if `lanes == 0` or
    /// `x.len() != n · lanes`.
    pub fn solve_lanes_in_place(&self, x: &mut [f64], lanes: usize) -> Result<(), NumError> {
        let (n, bw, stride) = (self.n, self.bw, self.bw + 1);
        if lanes == 0 || x.len() != n * lanes {
            return Err(NumError::DimensionMismatch(format!(
                "lane block of {} entries != matrix dimension {n} x {lanes} lanes",
                x.len()
            )));
        }
        if lanes == 1 {
            // One lane is the single right-hand-side sweep itself.
            return self.solve_in_place(x);
        }
        // Forward sweep: row i of L·Y = B reads L[i][start..i] against
        // the solved rows start..i of every lane.
        for i in 0..n {
            let start = i.saturating_sub(bw);
            let li = &self.l[i * stride + bw + start - i..=i * stride + bw];
            let (solved, rest) = x.split_at_mut(i * lanes);
            let (coeffs, pivot) = li.split_at(li.len() - 1);
            lane_row_step(coeffs, pivot[0], &solved[start * lanes..], &mut rest[..lanes], lanes);
        }
        // Backward sweep: row i of Lᵀ·X = Y reads column i of L (rows
        // i+1..=end of the band), gathered once for every lane.
        let mut column = Vec::with_capacity(bw);
        for i in (0..n).rev() {
            let end = (i + bw).min(n - 1);
            column.clear();
            column.extend((i + 1..=end).map(|r| self.l[r * stride + bw + i - r]));
            let (row, solved) = x[i * lanes..(end + 1) * lanes].split_at_mut(lanes);
            lane_row_step(&column, self.l[i * stride + bw], solved, row, lanes);
        }
        Ok(())
    }
}

/// Lanes one register block of [`BandedCholesky::solve_lanes_in_place`]
/// carries through a row: that many independent subtraction chains.
const LANE_BLOCK: usize = 8;

/// One row of a lane sweep: every lane `q` of `row` becomes
/// `(row[q] − Σ_k coeffs[k] · rows[k·lanes + q]) / pivot`, subtracting
/// in ascending `k` as the single right-hand-side sweeps do. Lanes go
/// [`LANE_BLOCK`] at a time, then 4, 2 and 1 for the remainder.
fn lane_row_step(coeffs: &[f64], pivot: f64, rows: &[f64], row: &mut [f64], lanes: usize) {
    let mut q0 = 0;
    while q0 < lanes {
        q0 += match lanes - q0 {
            r if r >= LANE_BLOCK => lane_block::<LANE_BLOCK>(coeffs, pivot, rows, row, lanes, q0),
            r if r >= 4 => lane_block::<4>(coeffs, pivot, rows, row, lanes, q0),
            r if r >= 2 => lane_block::<2>(coeffs, pivot, rows, row, lanes, q0),
            _ => lane_block::<1>(coeffs, pivot, rows, row, lanes, q0),
        };
    }
}

/// [`lane_row_step`] for lanes `q0..q0 + W`; returns `W`.
#[inline(always)]
fn lane_block<const W: usize>(
    coeffs: &[f64],
    pivot: f64,
    rows: &[f64],
    row: &mut [f64],
    lanes: usize,
    q0: usize,
) -> usize {
    let mut acc = [0.0; W];
    acc.copy_from_slice(&row[q0..q0 + W]);
    for (k, c) in coeffs.iter().enumerate() {
        let xk = &rows[k * lanes + q0..k * lanes + q0 + W];
        for (a, xv) in acc.iter_mut().zip(xk) {
            *a -= c * xv;
        }
    }
    for (out, a) in row[q0..q0 + W].iter_mut().zip(acc) {
        *out = a / pivot;
    }
    W
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    /// 2-D Laplacian with Dirichlet-like diagonal shift on an
    /// `nx × ny` grid — the same structure as the PDN sheet.
    fn grid_laplacian(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut t = TripletMatrix::new(n, n);
        for iy in 0..ny {
            for ix in 0..nx {
                let i = iy * nx + ix;
                t.push(i, i, 4.5).unwrap();
                if ix + 1 < nx {
                    t.stamp_conductance(i, i + 1, 1.0).unwrap();
                }
                if iy + 1 < ny {
                    t.stamp_conductance(i, i + nx, 1.0).unwrap();
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn factors_and_solves_grid_system() {
        let a = grid_laplacian(13, 9);
        let n = a.rows();
        let chol = BandedCholesky::factor(&a).unwrap();
        assert_eq!(chol.n(), n);
        assert_eq!(chol.bandwidth(), 13);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = chol.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }

    #[test]
    fn solve_is_bitwise_deterministic() {
        let a = grid_laplacian(7, 5);
        let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + i as f64).collect();
        let x1 = BandedCholesky::factor(&a).unwrap().solve(&b).unwrap();
        let x2 = BandedCholesky::factor(&a).unwrap().solve(&b).unwrap();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x1), bits(&x2));
    }

    /// Random symmetric `n × n` band of half-bandwidth `bw` (every band
    /// entry stored) under a dominant diagonal.
    fn random_band(n: usize, bw: usize, seed: u64) -> TripletMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut t = TripletMatrix::new(n, n);
        let mut diag = vec![0.5; n];
        for i in 0..n {
            for j in i + 1..n.min(i + bw + 1) {
                let v = next() * 10f64.powi((i + j) as i32 % 5 - 2);
                t.push(i, j, v).unwrap();
                t.push(j, i, v).unwrap();
                diag[i] += v.abs();
                diag[j] += v.abs();
            }
        }
        for (i, d) in diag.iter().enumerate() {
            t.push(i, i, d + next().abs()).unwrap();
        }
        t
    }

    /// The one-entry-at-a-time factor loop the four-entry blocks must
    /// reproduce bitwise, run on an already stamped band.
    fn reference_factor(n: usize, bw: usize, l: &mut [f64]) -> Result<(), NumError> {
        let stride = bw + 1;
        for i in 0..n {
            let start = i.saturating_sub(bw);
            for j in start..=i {
                let k0 = start.max(j.saturating_sub(bw));
                let (ri, rj) = (i * stride + bw - i, j * stride + bw - j);
                let mut sum = l[ri + j];
                for k in k0..j {
                    sum -= l[ri + k] * l[rj + k];
                }
                if j == i {
                    if sum <= 0.0 || sum.is_nan() {
                        return Err(NumError::SingularMatrix { index: i });
                    }
                    l[ri + i] = sum.sqrt();
                } else {
                    l[ri + j] = sum / l[rj + j];
                }
            }
        }
        Ok(())
    }

    /// The band of `a` stamped as `factor` stamps it.
    fn stamped(a: &CsrMatrix, bw: usize) -> Vec<f64> {
        let stride = bw + 1;
        let mut l = vec![0.0; a.rows() * stride];
        for i in 0..a.rows() {
            for (j, v) in a.row(i) {
                if j <= i {
                    l[i * stride + bw + j - i] = v;
                }
            }
        }
        l
    }

    #[test]
    fn blocked_factor_matches_one_entry_loop_bitwise() {
        for bw in 0..=6 {
            for n in 1..3 * bw + 6 {
                for seed in 0..4 {
                    let a = random_band(n, bw, (bw * 100 + n) as u64 * 7 + seed).to_csr();
                    let chol = BandedCholesky::factor(&a).unwrap();
                    assert_eq!(chol.bandwidth(), bw.min(n - 1));
                    let mut l = stamped(&a, chol.bandwidth());
                    reference_factor(n, chol.bandwidth(), &mut l).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&chol.l), bits(&l), "bw {bw}, n {n}, seed {seed}");
                }
            }
        }
        // A pivot that goes non-positive past the blocked entries fails
        // at the same row in both loops.
        for (n, bw, bad) in [(9, 6, 8), (12, 5, 7), (3, 2, 2)] {
            let mut t = random_band(n, bw, 11);
            t.push(bad, bad, -1e3).unwrap();
            let a = t.to_csr();
            let err = BandedCholesky::factor(&a).unwrap_err();
            let mut l = stamped(&a, bw);
            let want = reference_factor(n, bw, &mut l).unwrap_err();
            assert!(
                matches!(err, NumError::SingularMatrix { index } if index == bad)
                    && matches!(want, NumError::SingularMatrix { index } if index == bad),
                "{err:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn rejects_non_spd() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(1, 1, -1.0).unwrap();
        let err = BandedCholesky::factor(&t.to_csr()).unwrap_err();
        assert!(matches!(err, NumError::SingularMatrix { index: 1 }));
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let a = grid_laplacian(3, 3);
        let chol = BandedCholesky::factor(&a).unwrap();
        assert!(chol.solve(&[1.0; 5]).is_err());
    }

    #[test]
    fn tridiagonal_matches_thomas_structure() {
        // bw = 1 on a chain: banded Cholesky degenerates to the
        // tridiagonal case and must reproduce the exact solution.
        let n = 40;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.5).unwrap();
            if i + 1 < n {
                t.stamp_conductance(i, i + 1, 1.0).unwrap();
            }
        }
        let a = t.to_csr();
        let chol = BandedCholesky::factor(&a).unwrap();
        assert_eq!(chol.bandwidth(), 1);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = chol.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }
}
