//! Numerical substrate for the `bright-silicon` workspace.
//!
//! The DATE 2014 paper this workspace reproduces relied on COMSOL
//! Multiphysics for its field solves; this crate provides the hand-rolled
//! replacement kernels every other crate builds on:
//!
//! * dense small-matrix LU ([`dense`]),
//! * tridiagonal (Thomas) solves ([`tridiag`]) for the streamwise marching
//!   species-transport solver,
//! * sparse CSR matrices with CG and BiCGSTAB iterative solvers
//!   ([`sparse`], [`solvers`]) for the thermal network, power grid and the
//!   full 2-D finite-volume solves,
//! * pluggable preconditioners ([`precond`]: Jacobi, SSOR, IC(0)) and
//!   reusable solver sessions ([`session`]) that amortize pattern,
//!   scratch, warm start and factorization across repeated solves,
//! * a geometric multigrid V-cycle preconditioner ([`multigrid`]:
//!   structured plane coarsening, Galerkin coarse operators cached per
//!   pattern, Chebyshev/weighted-Jacobi smoothing) that keeps Krylov
//!   iteration counts near-mesh-independent on large structured grids,
//! * a seeded fault-injection harness ([`faults`]) and session recovery
//!   ladder ([`session::RecoveryPolicy`]) so the failure paths of all of
//!   the above are deterministic and testable,
//! * scalar root finding ([`roots`]) for polarization operating points,
//! * interpolation ([`interp`]) and quadrature ([`quadrature`]) helpers.
//!
//! # Examples
//!
//! ```
//! use bright_num::tridiag::TridiagonalSystem;
//!
//! // Solve the 1-D Poisson problem -u'' = 1 on 3 interior nodes.
//! let sys = TridiagonalSystem::from_bands(
//!     vec![-1.0, -1.0],
//!     vec![2.0, 2.0, 2.0],
//!     vec![-1.0, -1.0],
//! ).unwrap();
//! let x = sys.solve(&[1.0, 1.0, 1.0]).unwrap();
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
pub mod quadrature;
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
pub use multigrid::{MgConfig, MgSmoother, MgStats, MultigridPrecond};
pub use precond::{mg_min_unknowns, PrecondSpec, Preconditioner};
pub use session::{Backend, RecoveryPolicy, RecoveryRung, SessionStats, SolverSession};
pub use solvers::{KrylovWorkspace, SolveStats};
pub use sparse::{CsrMatrix, CsrSymbolic, TripletMatrix};
