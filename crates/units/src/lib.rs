//! Physical quantities, constants and unit conversions for the
//! `bright-silicon` workspace.
//!
//! Every physical value that crosses a crate boundary in this workspace is
//! wrapped in a newtype from this crate ([`Kelvin`], [`Volt`], [`Pascal`],
//! ...), so that a pressure can never be passed where a potential is
//! expected. The newtypes are thin `f64` wrappers: construction and access
//! are free, and a small set of physically meaningful arithmetic operations
//! is provided (same-type addition, scalar scaling, and cross-type products
//! such as `Volt * Ampere = Watt`).
//!
//! # Examples
//!
//! ```
//! use bright_units::{Celsius, Kelvin, Volt, Ampere};
//!
//! let inlet = Celsius::new(27.0).to_kelvin();
//! assert!((inlet.value() - 300.15).abs() < 1e-12);
//!
//! let power = Volt::new(1.0) * Ampere::new(6.0);
//! assert_eq!(power.value(), 6.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

#[macro_use]
mod quantity;

pub mod constants;
pub mod electrical;
pub mod flowrate;
pub mod geometry;
pub mod pressure;
pub mod temperature;

pub use electrical::{
    Ampere, AmperePerSquareMeter, Coulomb, Ohm, SiemensPerMeter, Volt, Watt, WattPerSquareMeter,
};
pub use flowrate::{CubicMetersPerSecond, KilogramsPerSecond, MetersPerSecond};
pub use geometry::{CubicMeters, Meters, SquareMeters};
pub use pressure::{Pascal, PascalPerMeter};
pub use temperature::{Celsius, Kelvin};

/// Amount-of-substance concentration in mol/m³ (the SI unit used throughout
/// the electrochemistry crates; note 1 mol/L = 1000 mol/m³).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MolePerCubicMeter(f64);
quantity_impl!(MolePerCubicMeter, "mol/m^3");

/// Diffusion coefficient in m²/s.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SquareMetersPerSecond(f64);
quantity_impl!(SquareMetersPerSecond, "m^2/s");

/// Dynamic viscosity in Pa·s.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct PascalSecond(f64);
quantity_impl!(PascalSecond, "Pa.s");

/// Mass density in kg/m³.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct KilogramPerCubicMeter(f64);
quantity_impl!(KilogramPerCubicMeter, "kg/m^3");

/// Thermal conductivity in W/(m·K).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct WattPerMeterKelvin(f64);
quantity_impl!(WattPerMeterKelvin, "W/(m.K)");

/// Volumetric heat capacity in J/(m³·K).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct JoulePerCubicMeterKelvin(f64);
quantity_impl!(JoulePerCubicMeterKelvin, "J/(m^3.K)");

/// Specific heat capacity in J/(kg·K).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct JoulePerKilogramKelvin(f64);
quantity_impl!(JoulePerKilogramKelvin, "J/(kg.K)");

/// Heat-transfer coefficient in W/(m²·K).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct WattPerSquareMeterKelvin(f64);
quantity_impl!(WattPerSquareMeterKelvin, "W/(m^2.K)");

/// Kinetic (electrochemical) rate constant in m/s.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MetersPerSecondRate(f64);
quantity_impl!(MetersPerSecondRate, "m/s");

/// Thermal resistance in K/W.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct KelvinPerWatt(f64);
quantity_impl!(KelvinPerWatt, "K/W");

/// Molar activation energy in J/mol (used by Arrhenius temperature models).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct JoulePerMole(f64);
quantity_impl!(JoulePerMole, "J/mol");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concentration_roundtrip() {
        let c = MolePerCubicMeter::new(2000.0);
        assert_eq!(c.value(), 2000.0);
        assert_eq!(format!("{c}"), "2000 mol/m^3");
    }

    #[test]
    fn quantity_arithmetic() {
        let a = MolePerCubicMeter::new(10.0);
        let b = MolePerCubicMeter::new(4.0);
        assert_eq!((a + b).value(), 14.0);
        assert_eq!((a - b).value(), 6.0);
        assert_eq!((a * 2.0).value(), 20.0);
        assert_eq!((a / 2.0).value(), 5.0);
        assert_eq!((2.0 * a).value(), 20.0);
    }

    #[test]
    fn ratio_of_same_quantity_is_dimensionless() {
        let a = JoulePerMole::new(30.0);
        let b = JoulePerMole::new(10.0);
        assert_eq!(a / b, 3.0);
    }
}
