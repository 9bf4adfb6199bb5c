//! Gap-aware, grid-aligned multivariate time series for building
//! telemetry.
//!
//! The auditorium testbed of the ICDCS'14 paper produced *imperfect*
//! data: wireless temperature sensors with Bluetooth dropouts, an HVAC
//! portal sampled at irregular 10–30 minute intervals, and whole days
//! lost to server failures (98 calendar days → 64 usable days). The
//! paper's identification step therefore solves a *piece-wise*
//! least-squares problem over the gap-free intervals (its Eq. 4).
//!
//! This crate provides the containers and slicing machinery that make
//! that workflow explicit:
//!
//! * [`Timestamp`] / [`TimeGrid`] — a uniform sampling grid in minutes,
//! * [`Channel`] / [`Dataset`] — named, aligned series with explicit
//!   missing samples: one `f64` per slot beside presence words that
//!   mark the gaps,
//! * [`Mask`] — composable boolean selections over the grid
//!   (daily occupancy windows, day subsets, joint presence),
//! * [`Segment`] / [`segments_from_mask`] — maximal contiguous runs
//!   usable as the intervals `i = 1..K` of the paper's Eq. (4);
//!   [`Dataset::joint_presence`] finds the jointly present runs of a
//!   mask straight off the channels' presence words,
//! * [`split`] — day-based train/validation splitting,
//! * [`csv`] — plain-text round-tripping of datasets,
//! * [`validate`] — quality flags, outlier quarantine, and gap
//!   healing for raw, possibly faulty telemetry.
//!
//! # Example
//!
//! ```
//! use thermal_timeseries::{Channel, Dataset, TimeGrid, Timestamp};
//!
//! # fn main() -> Result<(), thermal_timeseries::TimeSeriesError> {
//! // A 2-channel dataset sampled every 5 minutes for one hour.
//! let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 12)?;
//! let temp = Channel::new("t1", vec![Some(20.0); 12])?;
//! let flow = Channel::new("vav1", vec![Some(0.4); 12])?;
//! let ds = Dataset::new(grid, vec![temp, flow])?;
//! assert_eq!(ds.channel_index("vav1"), Some(1));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod dataset;
mod error;
mod mask;
#[cfg(test)]
mod reference;
mod segment;
mod time;

pub mod csv;
pub mod split;
pub mod validate;

pub use channel::Channel;
pub use dataset::{Dataset, JointPresence, JointSegments};
pub use error::TimeSeriesError;
pub use mask::Mask;
pub use segment::{segments_from_mask, Segment};
pub use time::{Date, TimeGrid, Timestamp, MINUTES_PER_DAY, MINUTES_PER_HOUR};
pub use validate::{ChannelQuality, GapPolicy, ValidationConfig, ValidationReport};

/// Convenient crate-wide result alias.
pub type Result<T> = std::result::Result<T, TimeSeriesError>;
