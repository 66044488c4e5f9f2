//! Microfluidics for the `bright-silicon` workspace.
//!
//! Models the hydraulics of the electrolyte streams that simultaneously
//! feed the on-chip redox flow cells and cool the die:
//!
//! * [`channel`] — rectangular microchannel geometry (hydraulic diameter,
//!   aspect ratio),
//! * [`fluid`] — electrolyte property sets with temperature dependence
//!   (density, viscosity, thermal conductivity, heat capacity),
//! * [`laminar`] — laminar friction (Shah–London `f·Re`), Nusselt
//!   correlations, entrance lengths, dimensionless groups,
//! * [`profile`] — velocity profiles: plane-Poiseuille closed form and a
//!   numerical duct cross-section solve (validated against `f·Re`),
//! * [`hydraulics`] — Darcy–Weisbach pressure drop and pumping power
//!   (the paper's 4.4 W headline number),
//! * [`array`](mod@array) — manifolded channel arrays (the 88-channel POWER7+ layer).
//!
//! # Examples
//!
//! ```
//! use bright_flow::channel::RectChannel;
//! use bright_units::Meters;
//!
//! // Table II channel: 200 um x 400 um x 22 mm.
//! let ch = RectChannel::new(
//!     Meters::from_micrometers(200.0),
//!     Meters::from_micrometers(400.0),
//!     Meters::from_millimeters(22.0),
//! )?;
//! assert!((ch.hydraulic_diameter().to_micrometers() - 266.7).abs() < 0.1);
//! # Ok::<(), bright_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod array;
pub mod channel;
pub mod fluid;
pub mod hydraulics;
pub mod laminar;
pub mod profile;

pub use array::ChannelArray;
pub use channel::RectChannel;
pub use fluid::FluidProperties;

use std::fmt;

/// Errors produced by the microfluidics models.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// A geometric parameter is non-positive or non-finite.
    InvalidGeometry(String),
    /// A fluid property is non-physical.
    InvalidFluid(String),
    /// An operating condition (flow rate, temperature) is out of the model
    /// validity range.
    InvalidOperatingPoint(String),
    /// A numerical sub-solve failed.
    Numerical(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidGeometry(m) => write!(f, "invalid geometry: {m}"),
            FlowError::InvalidFluid(m) => write!(f, "invalid fluid: {m}"),
            FlowError::InvalidOperatingPoint(m) => write!(f, "invalid operating point: {m}"),
            FlowError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<bright_num::NumError> for FlowError {
    fn from(e: bright_num::NumError) -> Self {
        FlowError::Numerical(e.to_string())
    }
}
