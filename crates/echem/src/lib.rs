//! Electrochemistry of redox flow cells.
//!
//! Implements the electrochemical theory of Section II of the DATE 2014
//! paper for the all-vanadium chemistry:
//!
//! * [`couple`] — redox couples (`Ox + n·e⁻ ⇌ Red`) with standard
//!   potentials: V²⁺/V³⁺ at the negative electrode, VO₂⁺/VO²⁺ at the
//!   positive electrode,
//! * [`nernst`] — equilibrium (Nernst) potentials, eqs. (4)–(5), and the
//!   open-circuit voltage,
//! * [`kinetics`] — Butler–Volmer electrode kinetics, eq. (6), with the
//!   surface-concentration factors that embed the mass-transfer
//!   overpotential, eqs. (7)–(8),
//! * [`electrolyte`] — compositions, state of charge and ionic
//!   conductivity (the ohmic overpotential `η_Ω = R·I`),
//! * [`temperature`] — Arrhenius laws for the kinetic rate constant and
//!   diffusivities (the coupling that makes warm chips *better*
//!   generators — the paper's +23 % observation),
//! * [`vanadium`] — ready-made parameter sets for Table I (validation
//!   cell) and Table II (POWER7+ array).
//!
//! Note on eq. (6): the paper prints the Butler–Volmer exponents as
//! `α·R·T·η/F`, which is dimensionally inverted; this crate implements the
//! standard `α·F·η/(R·T)` form from the paper's own references (Bard &
//! Faulkner).
//!
//! # Examples
//!
//! ```
//! use bright_echem::vanadium;
//! use bright_units::Kelvin;
//!
//! let cell = vanadium::power7_cell_chemistry();
//! let ocv = cell.open_circuit_voltage(Kelvin::new(300.0)).unwrap();
//! // High concentration ratios push the OCV well above the 1.255 V
//! // standard value (Fig. 7 shows ~1.6 V at zero current).
//! assert!(ocv.value() > 1.4 && ocv.value() < 1.8);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cell;
pub mod couple;
pub mod electrolyte;
pub mod kinetics;
pub mod nernst;
pub mod temperature;
pub mod vanadium;

pub use cell::{CellChemistry, HalfCellChemistry};
pub use couple::RedoxCouple;
pub use electrolyte::{Electrolyte, IonicConductivity};
pub use kinetics::{ButlerVolmer, InversionConstants, InversionStamp, SurfaceState};
pub use temperature::Arrhenius;

use std::fmt;

/// Errors produced by the electrochemical models.
#[derive(Debug, Clone, PartialEq)]
pub enum EchemError {
    /// A concentration is non-positive or non-finite.
    InvalidConcentration(String),
    /// A temperature is non-physical.
    InvalidTemperature(String),
    /// A kinetic or thermodynamic parameter is out of range.
    InvalidParameter(String),
    /// An operating point cannot be realized (e.g. current above the
    /// mass-transfer limit).
    InfeasibleOperatingPoint(String),
}

impl fmt::Display for EchemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EchemError::InvalidConcentration(m) => write!(f, "invalid concentration: {m}"),
            EchemError::InvalidTemperature(m) => write!(f, "invalid temperature: {m}"),
            EchemError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            EchemError::InfeasibleOperatingPoint(m) => {
                write!(f, "infeasible operating point: {m}")
            }
        }
    }
}

impl std::error::Error for EchemError {}
