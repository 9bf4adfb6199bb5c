//! Piece-wise least-squares identification of first- and second-order
//! thermal state-space models — the "system identification" half of
//! the ICDCS'14 paper's method.
//!
//! The paper models the auditorium as
//!
//! ```text
//! first order:   T(k+1) = A·T(k) + [b1 b2 b3 b4]·[h(k); o(k); l(k); w(k)]
//! second order:  [T(k+1); ΔT(k+1)] = A'·[T(k); ΔT(k)] + B'·u(k)
//! ```
//!
//! with `T` the sensor temperatures, `h` the four VAV flows, `o`
//! occupancy, `l` lighting and `w` ambient temperature, and fits the
//! coefficients by a *piece-wise* least-squares objective over the
//! gap-free intervals of the trace (Eq. 4). This crate implements the
//! full workflow:
//!
//! * [`ModelSpec`] / [`ModelOrder`] — what to identify,
//! * [`regressors`] — gap-aware transition stacking,
//! * [`identify`] / [`FitConfig`] — the (optionally ridge-regularised)
//!   least-squares solve,
//! * [`rls`] — forgetting-factor recursive least squares keeping a
//!   served model fresh one accepted reading at a time,
//! * [`ThermalModel`] — the identified model: one-step prediction and
//!   open-loop simulation,
//! * [`evaluate`] / [`EvalReport`] — per-sensor RMS, percentiles and
//!   CDFs (Table I, Fig. 3),
//! * [`sweep`] — training-horizon and prediction-length sweeps
//!   (Fig. 5),
//! * [`diagnostics`] — residual whiteness analysis (autocorrelation,
//!   Ljung–Box), the classical lens on model-order sufficiency.
//!
//! # Example
//!
//! ```
//! use thermal_sysid::{identify, evaluate, EvalConfig, FitConfig, ModelOrder, ModelSpec};
//! use thermal_timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Identify a scalar thermal model from a short trace.
//! let n = 50;
//! let u: Vec<f64> = (0..n).map(|k| (k % 5) as f64 / 5.0).collect();
//! let mut t = vec![20.0];
//! for k in 0..n - 1 {
//!     t.push(0.9 * t[k] + 0.8 * u[k]);
//! }
//! let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n)?;
//! let ds = Dataset::new(grid, vec![
//!     Channel::from_values("room", t)?,
//!     Channel::from_values("vav", u)?,
//! ])?;
//! let spec = ModelSpec::new(vec!["room".into()], vec!["vav".into()], ModelOrder::First)?;
//! let model = identify(&ds, &spec, &Mask::all(ds.grid()), &FitConfig::plain())?;
//! let report = evaluate(&model, &ds, &Mask::all(ds.grid()), &EvalConfig::default())?;
//! assert!(report.overall_rms() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fit;
mod metrics;
mod model;

pub mod cache;
pub mod diagnostics;
pub mod regressors;
pub mod rls;
pub mod sweep;

#[cfg(test)]
mod reference;

pub use cache::{identify_with_cache, CacheStats, GramCache};
pub use error::SysidError;
pub use fit::{identify, identify_from_data, FitConfig};
pub use metrics::{
    evaluate, predict_segment, EvalConfig, EvalReport, RolloutScratch, SegmentPredictor,
    TracePrediction,
};
pub use model::{ModelOrder, ModelSpec, ThermalModel};
pub use rls::{RlsConfig, RlsEstimator};

/// Convenient crate-wide result alias.
pub type Result<T> = std::result::Result<T, SysidError>;
