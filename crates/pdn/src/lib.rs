//! On-chip power delivery network (PDN) modelling.
//!
//! Implements Section III-A of the paper: the microfluidic flow-cell
//! array feeds the POWER7+ cache rails through TSVs and on-package
//! voltage-regulator modules (VRMs, Fig. 5/Fig. 6), and a resistive
//! power-grid solve produces the cache voltage map of Fig. 8.
//!
//! * [`grid`] — the power grid as a resistive sheet (node Laplacian),
//!   with current sinks from block power maps and supply ports,
//! * [`ports`] — supply-port layouts (TSV arrays, edge columns),
//! * [`vrm`] — voltage-regulator models (ideal, fixed-efficiency,
//!   switched-capacitor per Andersen et al., buck per Onizuka et al.),
//! * [`pins`] — the C4 pin-budget argument of the introduction: how many
//!   package bumps the fluidic supply frees for I/O,
//! * [`presets`] — the POWER7+ cache-rail configuration.
//!
//! # Examples
//!
//! ```
//! use bright_pdn::presets;
//!
//! // The banded factor is built on the first direct solve and kept for
//! // every later load on this grid.
//! let solution = presets::power7_cache_rail().expect("valid preset")
//!     .solve_direct().expect("solvable grid");
//! let min_v = solution.min_voltage().value();
//! // Fig. 8: the cache rail sags to ~0.96 V from the 1.0 V supply.
//! assert!(min_v > 0.9 && min_v < 1.0, "min = {min_v} V");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod grid;
pub mod pins;
pub mod ports;
pub mod presets;
pub mod vrm;

pub use grid::{PdnSolution, PowerGrid};
pub use ports::PortLayout;
pub use vrm::Vrm;

use std::fmt;

/// Errors produced by the PDN models.
#[derive(Debug, Clone, PartialEq)]
pub enum PdnError {
    /// Invalid grid/port/VRM configuration.
    InvalidConfig(String),
    /// A map does not match the grid.
    GridMismatch(String),
    /// The linear solve failed.
    Numerical(String),
}

impl fmt::Display for PdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdnError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            PdnError::GridMismatch(m) => write!(f, "grid mismatch: {m}"),
            PdnError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl std::error::Error for PdnError {}

impl From<bright_num::NumError> for PdnError {
    fn from(e: bright_num::NumError) -> Self {
        PdnError::Numerical(e.to_string())
    }
}
