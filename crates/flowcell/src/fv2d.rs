//! Full elliptic 2-D finite-volume transport solver (cross-validation).
//!
//! The production path marches the parabolic (no axial diffusion) form of
//! the species equation. This module solves the *full* steady 2-D
//! convection–diffusion problem
//!
//! ```text
//! u(y)·∂C/∂x = D·(∂²C/∂x² + ∂²C/∂y²)
//! ```
//!
//! with upwind convection on a structured grid and a prescribed wall-flux
//! profile, using the sparse BiCGSTAB solver. Tests verify the marching
//! solver against it — the two discretizations agree to within a few
//! percent at the paper's Péclet numbers, which justifies the cheaper
//! marching scheme exactly as argued in DESIGN.md.

use crate::FlowCellError;
use bright_num::solvers::{bicgstab, IterOptions};
use bright_num::TripletMatrix;

/// Steady 2-D concentration field in one half-channel with a prescribed
/// wall flux.
#[derive(Debug, Clone)]
pub struct FullTransportSolution {
    nx: usize,
    ny: usize,
    /// Concentration at cell centers, x-major (`i·ny + j`), `j = 0` at the
    /// electrode wall.
    field: Vec<f64>,
}

impl FullTransportSolution {
    /// Solves the half-channel transport problem.
    ///
    /// * `half_width`, `length` — domain size (m),
    /// * `velocity` — streamwise velocity per y-cell (m/s), wall-first
    ///   (its length sets `ny`),
    /// * `nx` — number of x cells,
    /// * `d` — diffusivity (m²/s),
    /// * `c_in` — inlet concentration (mol/m³),
    /// * `wall_flux` — molar consumption flux per x-cell (mol/(m²·s)),
    ///   length `nx`.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] on inconsistent inputs,
    /// [`FlowCellError::Numerical`] if BiCGSTAB fails.
    pub fn solve(
        half_width: f64,
        length: f64,
        velocity: &[f64],
        nx: usize,
        d: f64,
        c_in: f64,
        wall_flux: &[f64],
    ) -> Result<Self, FlowCellError> {
        let ny = velocity.len();
        if ny < 4 || nx < 4 {
            return Err(FlowCellError::InvalidConfig(format!(
                "grid too small: {nx} x {ny}"
            )));
        }
        if wall_flux.len() != nx {
            return Err(FlowCellError::InvalidConfig(format!(
                "wall flux has {} entries for {nx} x-cells",
                wall_flux.len()
            )));
        }
        if !d.is_finite() || d <= 0.0 || !c_in.is_finite() || c_in < 0.0 {
            return Err(FlowCellError::InvalidConfig(
                "bad diffusivity or inlet concentration".into(),
            ));
        }
        let dx = length / nx as f64;
        let dy = half_width / ny as f64;
        let wx = d / (dx * dx);
        let wy = d / (dy * dy);
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;

        let mut t = TripletMatrix::with_capacity(n, n, 5 * n);
        let mut b = vec![0.0; n];
        // i/j index several arrays and feed `idx`; the range loop is the
        // clear form here.
        #[allow(clippy::needless_range_loop)]
        for i in 0..nx {
            for j in 0..ny {
                let me = idx(i, j);
                let u = velocity[j];
                let adv = u / dx;
                let mut diag = 0.0;

                // Upwind convection (flow in +x).
                diag += adv;
                if i > 0 {
                    t.push(me, idx(i - 1, j), -adv).map_err(FlowCellError::from)?;
                } else {
                    b[me] += adv * c_in;
                }

                // Axial diffusion: inlet Dirichlet ghost at dx/2, outflow
                // zero-gradient.
                if i > 0 {
                    t.push(me, idx(i - 1, j), -wx).map_err(FlowCellError::from)?;
                    diag += wx;
                } else {
                    diag += 2.0 * wx;
                    b[me] += 2.0 * wx * c_in;
                }
                if i + 1 < nx {
                    t.push(me, idx(i + 1, j), -wx).map_err(FlowCellError::from)?;
                    diag += wx;
                }

                // Cross-stream diffusion: flux wall at j = 0, insulated
                // interface at j = ny-1.
                if j > 0 {
                    t.push(me, idx(i, j - 1), -wy).map_err(FlowCellError::from)?;
                    diag += wy;
                } else {
                    b[me] -= wall_flux[i] / dy;
                }
                if j + 1 < ny {
                    t.push(me, idx(i, j + 1), -wy).map_err(FlowCellError::from)?;
                    diag += wy;
                }

                t.push(me, me, diag).map_err(FlowCellError::from)?;
            }
        }
        let a = t.to_csr();
        let x0 = vec![c_in; n];
        let sol = bicgstab(
            &a,
            &b,
            Some(&x0),
            &IterOptions {
                tolerance: 1e-11,
                max_iterations: 40_000,
                preconditioner: bright_num::PrecondSpec::Jacobi,
            },
        )
        .map_err(FlowCellError::from)?;
        Ok(Self {
            nx,
            ny,
            field: sol.x,
        })
    }

    /// Grid size `(nx, ny)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Concentration at cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nx && j < self.ny, "index out of bounds");
        self.field[i * self.ny + j]
    }

    /// Wall-adjacent concentration per x-cell.
    pub fn wall_profile(&self) -> Vec<f64> {
        (0..self.nx).map(|i| self.get(i, 0)).collect()
    }

    /// Outlet profile across the half-width.
    pub fn outlet_profile(&self) -> Vec<f64> {
        (0..self.ny).map(|j| self.get(self.nx - 1, j)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::HalfCellMarcher;

    #[test]
    fn zero_flux_keeps_inlet_concentration() {
        let sol = FullTransportSolution::solve(
            100e-6,
            22e-3,
            &[1.5; 24],
            40,
            1.26e-10,
            2000.0,
            &vec![0.0; 40],
        )
        .unwrap();
        for i in 0..40 {
            for j in 0..24 {
                assert!((sol.get(i, j) - 2000.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn matches_marching_solver_at_high_peclet() {
        // Same constant wall flux through both discretizations.
        let ny = 48;
        let nx = 120;
        let q = 4e-3;
        let velocity = vec![1.5; ny];

        let full = FullTransportSolution::solve(
            100e-6,
            22e-3,
            &velocity,
            nx,
            1.26e-10,
            2000.0,
            &vec![q; nx],
        )
        .unwrap();

        let mut marcher =
            HalfCellMarcher::new(100e-6, 22e-3, nx, velocity, 2000.0, 1.0).unwrap();
        // Record the committed wall-cell value (same quantity the full
        // solver stores at its wall-adjacent cell centers).
        let mut march_wall = Vec::with_capacity(nx);
        for _ in 0..nx {
            marcher.prepare(1.26e-10).unwrap();
            marcher.commit(q);
            march_wall.push(marcher.reactant()[0]);
        }
        let full_wall = full.wall_profile();
        // Compare depletion (inlet-relative) midway and at the outlet.
        for &i in &[nx / 2, nx - 1] {
            let dep_full = 2000.0 - full_wall[i];
            let dep_march = 2000.0 - march_wall[i];
            let rel = (dep_full - dep_march).abs() / dep_full.max(1e-12);
            assert!(
                rel < 0.08,
                "station {i}: full {dep_full:.2} vs march {dep_march:.2} ({rel:.3})"
            );
        }
    }

    #[test]
    fn refreshed_transport_op_matches_full_solver() {
        // The in-place coefficient refresh must leave the marching
        // discretization agreeing with the full elliptic solve exactly
        // as a cold-built operator does: start from deliberately wrong
        // coefficients, refresh to the real ones, and run the same
        // high-Péclet comparison as `matches_marching_solver_at_high_peclet`.
        use crate::transport::TransportOp;

        let ny = 48;
        let nx = 120;
        let q = 4e-3;
        let d = 1.26e-10;
        let velocity = vec![1.5; ny];
        let dx = 22e-3 / nx as f64;
        let dy = 100e-6 / ny as f64;

        let full = FullTransportSolution::solve(
            100e-6,
            22e-3,
            &velocity,
            nx,
            d,
            2000.0,
            &vec![q; nx],
        )
        .unwrap();

        let wrong: Vec<f64> = velocity.iter().map(|u| u * 0.1).collect();
        let mut op = TransportOp::new(&wrong, dx * 2.0, dy, d * 10.0).unwrap();
        op.refresh(&velocity, dx, dy, d).unwrap();

        let mut marcher =
            HalfCellMarcher::new(100e-6, 22e-3, nx, velocity, 2000.0, 1.0).unwrap();
        let mut march_wall = Vec::with_capacity(nx);
        for _ in 0..nx {
            marcher.prepare_with(&op).unwrap();
            marcher.commit(q);
            march_wall.push(marcher.reactant()[0]);
        }
        let full_wall = full.wall_profile();
        for &i in &[nx / 2, nx - 1] {
            let dep_full = 2000.0 - full_wall[i];
            let dep_march = 2000.0 - march_wall[i];
            let rel = (dep_full - dep_march).abs() / dep_full.max(1e-12);
            assert!(
                rel < 0.08,
                "station {i}: full {dep_full:.2} vs march {dep_march:.2} ({rel:.3})"
            );
        }
    }

    #[test]
    fn mass_balance_of_full_solver() {
        let ny = 32;
        let nx = 60;
        let q = 2e-3;
        let u = 1.0;
        let sol = FullTransportSolution::solve(
            100e-6,
            10e-3,
            &vec![u; ny],
            nx,
            3e-10,
            1000.0,
            &vec![q; nx],
        )
        .unwrap();
        let dy = 100e-6 / ny as f64;
        let outflow: f64 = sol.outlet_profile().iter().map(|c| u * c * dy).sum();
        let inflow = u * 1000.0 * 100e-6;
        let extracted = q * 10e-3;
        let imbalance = (inflow - outflow - extracted).abs() / extracted;
        assert!(imbalance < 0.02, "imbalance {imbalance}");
    }

    #[test]
    fn validates_inputs() {
        assert!(FullTransportSolution::solve(
            1e-4, 1e-2, &[1.0; 2], 10, 1e-10, 1.0, &[0.0; 10]
        )
        .is_err());
        assert!(FullTransportSolution::solve(
            1e-4, 1e-2, &[1.0; 8], 10, 1e-10, 1.0, &[0.0; 5]
        )
        .is_err());
        assert!(FullTransportSolution::solve(
            1e-4, 1e-2, &[1.0; 8], 10, 0.0, 1.0, &[0.0; 10]
        )
        .is_err());
    }
}
