//! Structured grids and scalar fields for the `bright-silicon` solvers.
//!
//! The thermal model, the power grid and the species-transport solver all
//! discretize rectangular domains on uniform structured grids. This crate
//! provides:
//!
//! * [`Grid2d`] — a uniform cell-centered 2-D grid with linear indexing,
//! * [`Field2d`] — a scalar field over a [`Grid2d`] with statistics,
//! * [`render`] — ASCII heat-map rendering used by the figure harnesses to
//!   print the paper's thermal (Fig. 9) and voltage (Fig. 8) maps in a
//!   terminal.
//!
//! # Examples
//!
//! ```
//! use bright_mesh::{Grid2d, Field2d};
//!
//! let grid = Grid2d::new(4, 3, 0.5e-3, 0.5e-3)?;
//! let mut f = Field2d::zeros(grid.clone());
//! f.set(2, 1, 42.0);
//! assert_eq!(f.get(2, 1), 42.0);
//! assert_eq!(f.max(), 42.0);
//! # Ok::<(), bright_mesh::MeshError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod field;
pub mod grid;
pub mod render;

pub use field::Field2d;
pub use grid::Grid2d;

use std::fmt;

/// Errors produced by grid and field construction.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshError {
    /// A grid dimension or spacing is invalid (zero, negative, non-finite).
    InvalidGrid(String),
    /// Field data does not match the grid it is attached to.
    ShapeMismatch(String),
    /// An index lies outside the grid.
    OutOfBounds {
        /// Requested x-index.
        ix: usize,
        /// Requested y-index.
        iy: usize,
        /// Grid extent in x.
        nx: usize,
        /// Grid extent in y.
        ny: usize,
    },
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::InvalidGrid(msg) => write!(f, "invalid grid: {msg}"),
            MeshError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            MeshError::OutOfBounds { ix, iy, nx, ny } => {
                write!(f, "index ({ix},{iy}) outside grid {nx}x{ny}")
            }
        }
    }
}

impl std::error::Error for MeshError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = MeshError::OutOfBounds {
            ix: 5,
            iy: 1,
            nx: 4,
            ny: 4,
        };
        assert!(e.to_string().contains("(5,1)"));
    }
}
