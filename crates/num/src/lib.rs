//! Numerical substrate for the `bright-silicon` workspace.
//!
//! The DATE 2014 paper this workspace reproduces relied on COMSOL
//! Multiphysics for its field solves; this crate provides the hand-rolled
//! replacement kernels every other crate builds on:
//!
//! * dense small-matrix LU ([`dense`]),
//! * the tridiagonal (Thomas) factorization ([`tridiag`]) the flow cell's
//!   marched cross-stream diffusion reproduces bit for bit,
//! * sparse CSR matrices with CG and BiCGSTAB iterative solvers
//!   ([`sparse`], [`solvers`]) for the thermal network, power grid and the
//!   full 2-D finite-volume solves,
//! * pluggable preconditioners ([`precond`]: Jacobi, SSOR, IC(0),
//!   MILU(0)) and reusable solver sessions ([`session`]) that amortize
//!   scratch, warm start and factorization across repeated solves,
//! * a geometric multigrid V-cycle preconditioner ([`multigrid`]:
//!   structured plane coarsening, Galerkin coarse operators cached per
//!   pattern, Chebyshev/weighted-Jacobi smoothing) that keeps Krylov
//!   iteration counts near-mesh-independent on large structured grids,
//! * a seeded fault-injection harness ([`faults`]) and session recovery
//!   ladder ([`session::RecoveryPolicy`]) so the failure paths of all of
//!   the above are deterministic and testable,
//! * Brent root finding ([`roots`]) for polarization operating points,
//! * the relative-error metric of the Fig. 3 validation ([`interp`]).
//!
//! # Examples
//!
//! ```
//! use bright_num::tridiag::TridiagonalFactorization;
//!
//! // Solve the 1-D Poisson problem -u'' = 1 on 3 interior nodes.
//! let fac = TridiagonalFactorization::factor(
//!     &[-1.0, -1.0],
//!     &[2.0, 2.0, 2.0],
//!     &[-1.0, -1.0],
//! ).unwrap();
//! let mut x = vec![1.0, 1.0, 1.0];
//! fac.solve_in_place(&mut x).unwrap();
//! assert!((x[1] - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod banded;
pub mod dense;
pub mod error;
pub mod faults;
pub mod interp;
pub mod lazy;
pub mod multigrid;
pub mod parallel;
pub mod precond;
pub mod rng;
pub mod roots;
pub mod session;
pub mod solvers;
pub mod sparse;
pub mod stats;
pub mod tridiag;
pub mod vec_ops;

pub use banded::BandedCholesky;
pub use error::NumError;
pub use faults::{FaultPlan, FaultSite};
pub use rng::{CorrelatedSampler, CounterRng, Distribution};
pub use stats::{Accumulate, DyadicForest, Moments, QuantileSketch, VecMoments};
pub use multigrid::{MgConfig, MgStats, MultigridPrecond};
pub use precond::{PrecondSpec, Preconditioner, MG_MIN_UNKNOWNS};
pub use session::{Backend, RecoveryPolicy, RecoveryRung, SessionStats, SolverSession};
pub use solvers::{KrylovWorkspace, SolveStats};
pub use sparse::{CsrMatrix, CsrSymbolic, TripletMatrix};
