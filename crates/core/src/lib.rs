//! Integrated co-simulation of microfluidic power generation and cooling.
//!
//! This crate is the paper's headline contribution: it couples the three
//! domain models of the workspace over the IBM POWER7+ case study —
//!
//! 1. the chip's power map heats the die ([`bright_thermal`]),
//! 2. the electrolyte streams absorb that heat, which accelerates their
//!    electrochemistry ([`bright_flowcell`] with per-channel temperature
//!    profiles),
//! 3. the flow-cell array feeds the cache rail through VRMs and the
//!    on-chip grid ([`bright_pdn`]),
//! 4. the hydraulic cost of pushing the electrolytes closes the energy
//!    balance ([`bright_flow`]).
//!
//! The [`scenario::Scenario`] builder describes an operating point; a
//! [`cosim::CoSimulation`] runs the coupled solve and produces a
//! [`reports::CoSimReport`] with every quantity the paper reports (peak
//! temperature, array V–I, cache-rail voltage map, pumping power,
//! thermal enhancement of generation). For streams of operating points
//! — design sweeps, server-style workloads — the
//! [`engine::ScenarioEngine`] serves steady points, transient traces and
//! polarization sweeps through one request path:
//! [`engine::ScenarioEngine::submit`] queues an
//! [`engine::ScenarioRequest`] of any kind and
//! [`engine::ScenarioEngine::run`] serves the queue as one batch through
//! cached, retargeted workers. Time-varying loads (throttling events,
//! dark-silicon duty cycles) are [`transient::TransientRequest`]s:
//! TR-BDF2 adaptive or fixed-Δt trace integrations whose shared segment
//! prefixes are integrated once and branched from checkpoints.
//!
//! # Examples
//!
//! ```no_run
//! use bright_core::scenario::Scenario;
//! use bright_core::cosim::CoSimulation;
//!
//! let report = CoSimulation::new(Scenario::power7_nominal())
//!     .expect("valid scenario")
//!     .run()
//!     .expect("co-simulation converges");
//! println!("{}", report.summary());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cosim;
pub mod engine;
pub mod montecarlo;
pub mod reports;
pub mod scenario;
pub mod service;
pub mod sweeps;
pub mod transient;

pub use cosim::CoSimulation;
pub use engine::{
    CellPatternKey, EngineReport, EngineStats, PolarizationReport, PolarizationRequest,
    ScenarioEngine, ScenarioReport, ScenarioRequest,
};
pub use montecarlo::{McLimits, McParameter, McReport, McRun, McSpec, McStats, McVariable};
pub use reports::{CoSimReport, PolarizationOutcome, YieldReport};
pub use scenario::Scenario;
pub use service::{
    DrainSummary, JobId, JobKind, JobSpec, JobStatus, LoadRef, Overrides, PartialReport, Priority,
    ReportPayload, ScenarioService, ServiceClock, ServiceConfig, ServiceError, ServiceStats,
};
pub use transient::{
    LoadRamp, LoadStep, SteppingMode, TransientOutcome, TransientReport, TransientRequest,
};

use std::fmt;

/// Errors produced by the co-simulation engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Invalid scenario description.
    InvalidScenario(String),
    /// The scenario's PDN sheet needs a banded factor larger than
    /// [`scenario::MAX_PDN_BAND_BYTES`] ([`Scenario::validate`]).
    PdnBandTooLarge {
        /// PDN grid columns (the factor's bandwidth).
        nx: usize,
        /// PDN grid rows.
        ny: usize,
        /// Bytes the band would take: `nx·ny·(nx + 1)` doubles
        /// (saturating).
        band_bytes: u128,
    },
    /// The thermal sub-model failed.
    Thermal(String),
    /// The flow-cell sub-model failed.
    FlowCell(String),
    /// The PDN sub-model failed.
    Pdn(String),
    /// The hydraulics sub-model failed.
    Fluidics(String),
    /// The floorplan/power-map stage failed.
    Floorplan(String),
    /// Report (de)serialization failed.
    Report(String),
    /// A worker panicked while serving this request; the rest of the
    /// batch completed and the worker was quarantined (see
    /// `docs/ROBUSTNESS.md`).
    WorkerPanic(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidScenario(m) => write!(f, "invalid scenario: {m}"),
            CoreError::PdnBandTooLarge { nx, ny, band_bytes } => write!(
                f,
                "invalid scenario: the {nx}x{ny} PDN sheet needs a {:.1} MB banded factor, \
                 above the {:.1} MB limit (MAX_PDN_BAND_BYTES, 35x the Fig. 8 sheet's 7.7 MB)",
                *band_bytes as f64 / 1e6,
                scenario::MAX_PDN_BAND_BYTES as f64 / 1e6
            ),
            CoreError::Thermal(m) => write!(f, "thermal model: {m}"),
            CoreError::FlowCell(m) => write!(f, "flow-cell model: {m}"),
            CoreError::Pdn(m) => write!(f, "PDN model: {m}"),
            CoreError::Fluidics(m) => write!(f, "fluidics: {m}"),
            CoreError::Floorplan(m) => write!(f, "floorplan: {m}"),
            CoreError::Report(m) => write!(f, "report: {m}"),
            CoreError::WorkerPanic(m) => write!(f, "worker panic: {m}"),
        }
    }
}

/// Extracts a human-readable message from a caught panic payload
/// (`catch_unwind` gives back a `Box<dyn Any>`; `&str` and `String`
/// cover every panic raised by this workspace).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl std::error::Error for CoreError {}

impl From<bright_thermal::ThermalError> for CoreError {
    fn from(e: bright_thermal::ThermalError) -> Self {
        CoreError::Thermal(e.to_string())
    }
}

impl From<bright_flowcell::FlowCellError> for CoreError {
    fn from(e: bright_flowcell::FlowCellError) -> Self {
        CoreError::FlowCell(e.to_string())
    }
}

impl From<bright_pdn::PdnError> for CoreError {
    fn from(e: bright_pdn::PdnError) -> Self {
        CoreError::Pdn(e.to_string())
    }
}

impl From<bright_flow::FlowError> for CoreError {
    fn from(e: bright_flow::FlowError) -> Self {
        CoreError::Fluidics(e.to_string())
    }
}

impl From<bright_floorplan::FloorplanError> for CoreError {
    fn from(e: bright_floorplan::FloorplanError) -> Self {
        CoreError::Floorplan(e.to_string())
    }
}
