//! Physics-based zonal thermal simulator of the HVAC-controlled
//! auditorium testbed of the ICDCS'14 paper.
//!
//! The original study instrumented a real ~90-seat auditorium and
//! collected a closed 14-week dataset. This crate substitutes that
//! testbed with a reproducible synthetic one, built so that the
//! *structural* properties the paper's analysis rests on emerge from
//! physics rather than being baked into the data:
//!
//! * a front/back spatial gradient of ≈2 °C under full occupancy
//!   (supply outlets near the podium, audience heat toward the back),
//! * second-order step responses (zone RC dynamics cascaded with a
//!   supply-air mixing plume),
//! * correlated sensor groups induced by the outlet geometry,
//! * gap-ridden telemetry (sensor noise, 0.1 °C quantisation,
//!   Bluetooth dropout bursts, whole-day server outages).
//!
//! # Quick start
//!
//! ```
//! use thermal_sim::{run, Scenario};
//!
//! # fn main() -> Result<(), thermal_sim::SimError> {
//! let output = run(&Scenario::quick().with_days(2))?;
//! let t27 = output.dataset.channel("t27").expect("sensor 27 exists");
//! assert!(t27.coverage() > 0.8);
//! # Ok(())
//! # }
//! ```
//!
//! The major pieces:
//!
//! * [`Layout`] — floor plan and sensor positions (Fig. 1–2),
//! * [`ZoneNetwork`] / [`ThermalParams`] — the RC network and ODE,
//! * [`Hvac`] / [`HvacConfig`] — VAV boxes and supervisory schedule,
//! * [`Weather`], [`OccupancySchedule`] — exogenous drives,
//! * [`SensorLayer`] / [`SensorConfig`] — measurement imperfections,
//! * [`Scenario`] / [`run`] — campaign configuration and execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod geometry;
mod hvac;
mod occupancy;
mod runner;
mod scenario;
mod sensors;
mod thermal;
mod weather;

pub use error::SimError;
pub use geometry::{Layout, SensorId, SensorSite};
pub use hvac::{outlet_of, Hvac, HvacConfig, Outlet, VAV_COUNT};
pub use occupancy::{Event, OccupancyConfig, OccupancySchedule};
pub use runner::{run, SimOutput};
pub use scenario::Scenario;
pub use sensors::{SensorConfig, SensorLayer};
pub use thermal::{Drive, Rk4Buffers, ThermalParams, ZoneNetwork, OUTLET_COUNT};
pub use weather::{Weather, WeatherConfig};
