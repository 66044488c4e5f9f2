//! Microfluidic redox flow cell model — the paper's COMSOL replacement.
//!
//! A membrane-less (co-laminar) vanadium redox flow cell in a rectangular
//! microchannel: fuel (V²⁺) and oxidant (VO₂⁺) streams flow side by side,
//! electrodes line the opposite side walls, and the laminar interface
//! replaces the membrane (Fig. 2 of the paper). This crate solves the
//! coupled species-transport / electrode-kinetics / ohmic problem and
//! produces the polarization curves of Fig. 3 (validation cell) and Fig. 7
//! (88-channel POWER7+ array):
//!
//! * [`geometry`] — cell geometry (channel + wall electrodes),
//! * [`transport`] — 2-D convection–diffusion of reactants and products in
//!   each half-channel (streamwise marching, implicit cross-stream
//!   diffusion; the high-Péclet reduction of the paper's eq. 12),
//! * [`solver`] — the coupled cell solve: local Butler–Volmer currents,
//!   Nernst shifts from surface concentrations, lumped ohmic path
//!   (eqs. 1–8), at fixed voltage or fixed current,
//! * [`fv2d`] — a full elliptic 2-D finite-volume solver used to
//!   cross-validate the marching scheme,
//! * [`polarization`] — polarization curves and operating points,
//! * [`array`](mod@array) — parallel cell arrays with per-channel temperatures,
//! * [`validation`] — Lévêque analytical references and the digitized
//!   Kjeang et al. (2007) experimental anchors of Fig. 3,
//! * [`presets`] — Table I and Table II configurations.
//!
//! # Examples
//!
//! ```
//! use bright_flowcell::presets;
//!
//! // Table I cell at 60 uL/min: currents in the tens of mA/cm^2.
//! let model = presets::kjeang2007(60.0).expect("valid preset");
//! let sol = model.solve_at_voltage(0.8).expect("solvable");
//! let j = sol.mean_current_density().to_milliamps_per_square_centimeter();
//! assert!(j > 1.0 && j < 60.0, "j = {j} mA/cm^2");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod array;
pub mod fv2d;
pub mod geometry;
pub mod options;
pub mod polarization;
pub mod presets;
pub mod solver;
pub mod transport;
pub mod validation;

pub use array::CellArray;
pub use geometry::CellGeometry;
pub use options::{SolverOptions, TemperatureProfile};
pub use polarization::PolarizationCurve;
pub use solver::{CellContextStats, CellModel, CellSolution, GeometryCache};

use std::fmt;

/// Errors produced by the flow-cell solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowCellError {
    /// Invalid geometry or discretization parameters.
    InvalidConfig(String),
    /// The requested operating point is outside the feasible range
    /// (e.g. voltage above OCV, current above the transport limit).
    Infeasible(String),
    /// An underlying numerical solve failed.
    Numerical(String),
    /// An electrochemistry sub-model rejected its inputs.
    Chemistry(String),
    /// A fluid sub-model rejected its inputs.
    Fluidics(String),
}

impl fmt::Display for FlowCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowCellError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            FlowCellError::Infeasible(m) => write!(f, "infeasible operating point: {m}"),
            FlowCellError::Numerical(m) => write!(f, "numerical failure: {m}"),
            FlowCellError::Chemistry(m) => write!(f, "chemistry error: {m}"),
            FlowCellError::Fluidics(m) => write!(f, "fluidics error: {m}"),
        }
    }
}

impl std::error::Error for FlowCellError {}

impl From<bright_num::NumError> for FlowCellError {
    fn from(e: bright_num::NumError) -> Self {
        FlowCellError::Numerical(e.to_string())
    }
}

impl From<bright_echem::EchemError> for FlowCellError {
    fn from(e: bright_echem::EchemError) -> Self {
        FlowCellError::Chemistry(e.to_string())
    }
}

impl From<bright_flow::FlowError> for FlowCellError {
    fn from(e: bright_flow::FlowError) -> Self {
        FlowCellError::Fluidics(e.to_string())
    }
}
