//! Data-driven thermal modeling of large open spaces: the end-to-end
//! method of *“Thermal Modeling for a HVAC Controlled Real-life
//! Auditorium”* (ICDCS 2014) as a reusable Rust library.
//!
//! The paper's three-step recipe for turning a dense temporary sensor
//! deployment into a small permanent one with a control-ready model:
//!
//! 1. **Cluster** the dense deployment's sensors by the similarity of
//!    their temperature trajectories (spectral clustering; cluster
//!    count by the largest log-eigengap) — [`thermal_cluster`],
//! 2. **Select** one (or a few) representative sensors per cluster
//!    (near-mean selection beats random, thermostats and GP
//!    placement) — [`thermal_select`],
//! 3. **Identify** a first- or second-order linear thermal model of
//!    the selected sensors from HVAC flows, occupancy, lighting and
//!    ambient temperature by piece-wise least squares —
//!    [`thermal_sysid`].
//!
//! [`ThermalPipeline`] wires the three stages together;
//! [`ReducedModel`] is the product. Every stage is also usable on its
//! own through the re-exported building blocks, and the [`control`]
//! module closes the loop the paper motivates: a receding-horizon
//! flow planner that trades supply-fan energy against a comfort band
//! on top of any identified model.
//!
//! # Example
//!
//! ```
//! use thermal_core::{ClusterCount, ModelOrder, SelectorKind, Similarity, ThermalPipeline};
//! use thermal_core::timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Toy dataset: two sensor families driven by one input channel.
//! let n = 200;
//! let u: Vec<f64> = (0..n).map(|k| 0.5 + 0.5 * (k as f64 * 0.17).sin()).collect();
//! let mut channels = vec![Channel::from_values("vav", u.clone())?];
//! for (i, gain) in [0.2_f64, 0.22, -0.2, -0.22].into_iter().enumerate() {
//!     let mut t = vec![21.0];
//!     for k in 0..n - 1 {
//!         t.push(0.9 * t[k] + 2.1 + gain * u[k]);
//!     }
//!     channels.push(Channel::from_values(format!("s{i}"), t)?);
//! }
//! let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n)?;
//! let dataset = Dataset::new(grid, channels)?;
//!
//! let pipeline = ThermalPipeline::builder()
//!     .similarity(Similarity::correlation())
//!     .cluster_count(ClusterCount::Fixed(2))
//!     .selector(SelectorKind::NearMean)
//!     .model_order(ModelOrder::First)
//!     .build()?;
//! let reduced = pipeline.fit(
//!     &dataset,
//!     &["s0", "s1", "s2", "s3"],
//!     &["vav"],
//!     &Mask::all(dataset.grid()),
//! )?;
//! assert_eq!(reduced.selected_channels().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod degradation;
mod error;
mod pipeline;
mod reduced;
#[cfg(test)]
mod reference;

pub mod checkpoint;
pub mod control;

pub use checkpoint::{dataset_fingerprint, FitResume};
pub use degradation::{
    DegradationEvent, DegradationPolicy, DegradationReport, DegradedEvaluation, FallbackAction,
    ModelHealth,
};
pub use error::CoreError;
pub use pipeline::{SelectorKind, ThermalPipeline, ThermalPipelineBuilder};
pub use reduced::{ClusterMeanModelReport, ReducedModel};

// Re-export the stage vocabulary so `thermal_core` is a one-stop
// dependency for downstream users.
pub use thermal_cluster::{ClusterCount, Clustering, Similarity, SpectralConfig};
pub use thermal_select::{Selection, Selector};
pub use thermal_sysid::{
    CacheStats, EvalConfig, EvalReport, FitConfig, GramCache, ModelOrder, ModelSpec, ThermalModel,
};

/// Re-export of the time-series containers.
pub mod timeseries {
    pub use thermal_timeseries::*;
}

/// Convenient crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
