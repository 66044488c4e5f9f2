//! Velocity profiles in rectangular microchannels.
//!
//! The species-transport solver of `bright-flowcell` needs the streamwise
//! velocity as a function of the cross-channel coordinate. Two models are
//! provided:
//!
//! * [`plane_poiseuille`] — the parallel-plate closed form, adequate for
//!   wide, flat channels such as the Kjeang validation cell (aspect 0.075);
//! * [`DuctFlowSolution`] — a numerical solve of the Poisson problem
//!   `∇²u = −G/µ` on the duct cross-section (cell-centered finite volumes,
//!   conjugate gradient), which captures the side-wall drag in channels of
//!   moderate aspect ratio such as the 200 µm × 400 µm POWER7+ channels.
//!
//! The numerical solution doubles as a cross-check of the Shah–London
//! `f·Re` correlation: tests verify both agree to better than 1 %.

use crate::{FlowError, RectChannel};
use bright_num::solvers::{conjugate_gradient, IterOptions};
use bright_num::TripletMatrix;

/// Normalized plane-Poiseuille profile: `u/ū = 6·ξ·(1−ξ)` for the
/// fractional cross-channel position `ξ ∈ [0, 1]`. Zero outside the walls.
pub fn plane_poiseuille(xi: f64) -> f64 {
    if !(0.0..=1.0).contains(&xi) {
        return 0.0;
    }
    6.0 * xi * (1.0 - xi)
}

/// Numerical fully developed laminar flow in a rectangular duct.
///
/// Solves `∂²u/∂y² + ∂²u/∂z² = −1` (unit `G/µ`) with no-slip walls on a
/// cell-centered `ny × nz` grid; velocities scale linearly with the actual
/// pressure gradient, so normalized quantities (profiles, `f·Re`) are
/// exact for any operating point.
#[derive(Debug, Clone)]
pub struct DuctFlowSolution {
    ny: usize,
    nz: usize,
    /// u at cell centers, y-fastest ordering, for unit G/µ.
    u: Vec<f64>,
    mean_u: f64,
    aspect: f64,
    dh: f64,
}

impl DuctFlowSolution {
    /// Solves the duct flow on an `ny × nz` grid (`ny` across the width,
    /// `nz` across the height).
    ///
    /// # Errors
    ///
    /// * [`FlowError::InvalidGeometry`] if `ny` or `nz` < 2,
    /// * [`FlowError::Numerical`] if the CG solve fails.
    pub fn solve(channel: &RectChannel, ny: usize, nz: usize) -> Result<Self, FlowError> {
        if ny < 2 || nz < 2 {
            return Err(FlowError::InvalidGeometry(format!(
                "need at least 2x2 cells, got {ny}x{nz}"
            )));
        }
        let w = channel.width().value();
        let h = channel.height().value();
        let dy = w / ny as f64;
        let dz = h / nz as f64;
        let n = ny * nz;
        let idx = |iy: usize, iz: usize| iz * ny + iy;

        let mut t = TripletMatrix::with_capacity(n, n, 5 * n);
        let wy = 1.0 / (dy * dy);
        let wz = 1.0 / (dz * dz);
        for iz in 0..nz {
            for iy in 0..ny {
                let me = idx(iy, iz);
                let mut diag = 0.0;
                // y-direction neighbours / walls (no-slip: ghost value -u).
                if iy > 0 {
                    t.push(me, idx(iy - 1, iz), -wy).map_err(FlowError::from)?;
                    diag += wy;
                } else {
                    diag += 2.0 * wy;
                }
                if iy + 1 < ny {
                    t.push(me, idx(iy + 1, iz), -wy).map_err(FlowError::from)?;
                    diag += wy;
                } else {
                    diag += 2.0 * wy;
                }
                if iz > 0 {
                    t.push(me, idx(iy, iz - 1), -wz).map_err(FlowError::from)?;
                    diag += wz;
                } else {
                    diag += 2.0 * wz;
                }
                if iz + 1 < nz {
                    t.push(me, idx(iy, iz + 1), -wz).map_err(FlowError::from)?;
                    diag += wz;
                } else {
                    diag += 2.0 * wz;
                }
                t.push(me, me, diag).map_err(FlowError::from)?;
            }
        }
        let a = t.to_csr();
        let b = vec![1.0; n];
        let sol = conjugate_gradient(
            &a,
            &b,
            None,
            &IterOptions {
                tolerance: 1e-12,
                max_iterations: 20_000,
                preconditioner: bright_num::PrecondSpec::Jacobi,
            },
        )
        .map_err(FlowError::from)?;
        let mean_u = sol.x.iter().sum::<f64>() / n as f64;
        Ok(Self {
            ny,
            nz,
            u: sol.x,
            mean_u,
            aspect: channel.aspect_ratio(),
            dh: channel.hydraulic_diameter().value(),
        })
    }

    /// Grid resolution across the width.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Grid resolution across the height.
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Normalized local velocity `u/ū` at cell `(iy, iz)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn normalized_at(&self, iy: usize, iz: usize) -> f64 {
        assert!(iy < self.ny && iz < self.nz, "index out of bounds");
        self.u[iz * self.ny + iy] / self.mean_u
    }

    /// Height-averaged normalized profile across the width:
    /// `ū(y_i)/ū_bulk` for `i ∈ [0, ny)`. The mean of the returned vector
    /// is 1 by construction.
    pub fn width_profile(&self) -> Vec<f64> {
        let mut prof = vec![0.0; self.ny];
        for iz in 0..self.nz {
            for (iy, p) in prof.iter_mut().enumerate() {
                *p += self.u[iz * self.ny + iy];
            }
        }
        let scale = 1.0 / (self.nz as f64 * self.mean_u);
        for p in &mut prof {
            *p *= scale;
        }
        prof
    }

    /// Numerical Darcy `f·Re` product implied by this solution:
    /// `f·Re = 2·D_h²·(G/µ)/ū` with unit `G/µ`.
    pub fn f_re_darcy(&self) -> f64 {
        2.0 * self.dh * self.dh / self.mean_u
    }

    /// Aspect ratio of the solved channel.
    #[inline]
    pub fn aspect_ratio(&self) -> f64 {
        self.aspect
    }

    /// Ratio of peak to mean velocity.
    pub fn peak_to_mean(&self) -> f64 {
        self.u.iter().copied().fold(0.0_f64, f64::max) / self.mean_u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laminar::f_re_darcy;
    use bright_units::Meters;

    fn channel(w_um: f64, h_um: f64) -> RectChannel {
        RectChannel::new(
            Meters::from_micrometers(w_um),
            Meters::from_micrometers(h_um),
            Meters::from_millimeters(10.0),
        )
        .unwrap()
    }

    #[test]
    fn plane_poiseuille_properties() {
        assert_eq!(plane_poiseuille(0.0), 0.0);
        assert_eq!(plane_poiseuille(1.0), 0.0);
        assert!((plane_poiseuille(0.5) - 1.5).abs() < 1e-12);
        assert_eq!(plane_poiseuille(-0.1), 0.0);
        assert_eq!(plane_poiseuille(1.1), 0.0);
        // Mean over [0,1] is 1.
        let n = 1000;
        let mean: f64 =
            (0..n).map(|i| plane_poiseuille((i as f64 + 0.5) / n as f64)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 1e-6);
    }

    #[test]
    fn numerical_f_re_matches_shah_london_square() {
        let sol = DuctFlowSolution::solve(&channel(200.0, 200.0), 48, 48).unwrap();
        let expected = f_re_darcy(1.0);
        let got = sol.f_re_darcy();
        assert!(
            ((got - expected) / expected).abs() < 0.01,
            "numerical {got} vs correlation {expected}"
        );
    }

    #[test]
    fn numerical_f_re_matches_shah_london_aspect_half() {
        // The Table II channel shape.
        let sol = DuctFlowSolution::solve(&channel(200.0, 400.0), 40, 80).unwrap();
        let expected = f_re_darcy(0.5);
        let got = sol.f_re_darcy();
        assert!(
            ((got - expected) / expected).abs() < 0.01,
            "numerical {got} vs correlation {expected}"
        );
    }

    #[test]
    fn width_profile_is_normalized_and_symmetric() {
        let sol = DuctFlowSolution::solve(&channel(200.0, 400.0), 40, 60).unwrap();
        let prof = sol.width_profile();
        let mean: f64 = prof.iter().sum::<f64>() / prof.len() as f64;
        assert!((mean - 1.0).abs() < 1e-10);
        for i in 0..prof.len() / 2 {
            let a = prof[i];
            let b = prof[prof.len() - 1 - i];
            assert!((a - b).abs() < 1e-8, "asymmetry at {i}: {a} vs {b}");
        }
        // Walls slow, center fast.
        assert!(prof[0] < prof[prof.len() / 2]);
    }

    #[test]
    fn wide_flat_channel_approaches_plane_poiseuille() {
        // Aspect 0.075 like the Kjeang cell: the z-averaged profile across
        // the *height* is what plane Poiseuille describes; across the
        // width it is nearly plug-like except near side walls. Check the
        // peak-to-mean of the full 2-D field approaches the parallel-plate
        // value 1.5 x (plug) = 1.5 within ~15%.
        let sol = DuctFlowSolution::solve(&channel(2000.0, 150.0), 100, 16).unwrap();
        let p2m = sol.peak_to_mean();
        assert!(p2m > 1.4 && p2m < 1.75, "peak/mean = {p2m}");
    }

    #[test]
    fn rejects_tiny_grids() {
        assert!(DuctFlowSolution::solve(&channel(100.0, 100.0), 1, 10).is_err());
    }
}
