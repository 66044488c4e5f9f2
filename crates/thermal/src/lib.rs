//! 3D-ICE-style compact thermal model with microchannel liquid cooling.
//!
//! Re-implements the compact transient/steady thermal modelling approach
//! of 3D-ICE (Sridhar et al., the tool the paper uses for its thermal
//! evaluation): the chip stack is divided into layers, each discretized
//! into cells connected by thermal conductances; microchannel layers add
//! fluid cells with upstream advection and fin-homogenized convective
//! coupling to the solid above and below.
//!
//! * [`materials`] — material library (silicon, oxide, copper, TIM),
//! * [`stack`] — layer stack description (solid layers, microchannel
//!   layers),
//! * [`model`] — assembly and the steady-state solver,
//! * [`transient`] — transient stepping: fixed backward-Euler or
//!   adaptive TR-BDF2 Δt control, piecewise-constant power traces with
//!   optional coolant coefficient ramps, and serializable checkpoints
//!   for branching shared trace prefixes,
//! * [`presets`] — the POWER7+ stack of the paper's case study.
//!
//! # Examples
//!
//! ```
//! use bright_thermal::presets;
//! use bright_floorplan::{power7, PowerScenario};
//!
//! let model = presets::power7_stack().expect("valid stack");
//! let power = PowerScenario::full_load()
//!     .rasterize(&power7::floorplan(), model.grid())
//!     .expect("power map");
//! let sol = model.solve_steady(&power).expect("steady solve");
//! let peak = sol.max_temperature().to_celsius().value();
//! // The paper's Fig. 9: peak around 41 degC with the Table II flow.
//! assert!(peak > 30.0 && peak < 55.0, "peak = {peak} degC");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod materials;
pub mod model;
pub mod presets;
pub mod stack;
pub mod transient;

pub use materials::Material;
pub use model::{ThermalModel, ThermalSolution};
pub use stack::{LayerSpec, MicrochannelSpec, StackConfig};
pub use transient::{
    AdaptiveConfig, AdaptiveStats, AdaptiveStep, AdaptiveTransient, Checkpoint, CoefficientRamp,
    Controller, PowerTrace, TraceSegment, TransientSimulation,
};

use std::fmt;

/// Errors produced by the thermal model.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// Invalid stack or discretization description.
    InvalidConfig(String),
    /// The power map does not match the model grid.
    PowerMapMismatch(String),
    /// The linear solve failed.
    Numerical(String),
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            ThermalError::PowerMapMismatch(m) => write!(f, "power map mismatch: {m}"),
            ThermalError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl std::error::Error for ThermalError {}

impl From<bright_num::NumError> for ThermalError {
    fn from(e: bright_num::NumError) -> Self {
        ThermalError::Numerical(e.to_string())
    }
}
