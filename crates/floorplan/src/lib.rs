//! Block floorplans and power maps.
//!
//! The paper's case study targets the IBM POWER7+ — a 21.34 mm × 26.55 mm,
//! 8-core MPSoC with a peak power density of 26.7 W/cm² and cache memories
//! (L2 + the large central eDRAM L3) averaging 1 W/cm². This crate models:
//!
//! * [`block`] — rectangles and typed blocks (core / L2 / L3 / logic / IO),
//! * [`plan`] — validated floorplans (blocks tile the die without
//!   overlap) with point queries,
//! * [`power`] — power scenarios (density per block kind) and their
//!   rasterization onto simulation grids,
//! * [`power7`] — the POWER7+ floorplan reconstructed from Fig. 4/Fig. 8
//!   of the paper.
//!
//! # Examples
//!
//! ```
//! use bright_floorplan::power7;
//! use bright_floorplan::power::PowerScenario;
//!
//! let plan = power7::floorplan();
//! let full = PowerScenario::full_load();
//! let total = full.total_power(&plan).unwrap();
//! // Full-load POWER7+ in this reconstruction dissipates ~70-80 W.
//! assert!(total.value() > 50.0 && total.value() < 110.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod block;
pub mod plan;
pub mod power;
pub mod power7;

pub use block::{Block, BlockKind, Rect};
pub use plan::Floorplan;
pub use power::PowerScenario;

use std::fmt;

/// Errors produced by floorplan construction and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum FloorplanError {
    /// A rectangle has non-positive extent or non-finite coordinates.
    InvalidRect(String),
    /// A block lies (partly) outside the die.
    OutsideDie {
        /// Name of the offending block.
        block: String,
    },
    /// Two blocks overlap.
    Overlap {
        /// First block name.
        first: String,
        /// Second block name.
        second: String,
    },
    /// The blocks do not cover the die (gap area above tolerance).
    IncompleteCoverage {
        /// Total uncovered area in m².
        gap_area: f64,
    },
    /// A power scenario is missing a density for a block kind.
    MissingDensity {
        /// The uncovered block kind.
        kind: BlockKind,
    },
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::InvalidRect(m) => write!(f, "invalid rectangle: {m}"),
            FloorplanError::OutsideDie { block } => {
                write!(f, "block '{block}' extends outside the die")
            }
            FloorplanError::Overlap { first, second } => {
                write!(f, "blocks '{first}' and '{second}' overlap")
            }
            FloorplanError::IncompleteCoverage { gap_area } => {
                write!(f, "floorplan leaves {gap_area:.3e} m^2 uncovered")
            }
            FloorplanError::MissingDensity { kind } => {
                write!(f, "power scenario has no density for {kind:?}")
            }
        }
    }
}

impl std::error::Error for FloorplanError {}
