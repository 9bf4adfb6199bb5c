//! Typed errors for the synthetic-campaign simulator.

use std::fmt;

use thermal_timeseries::TimeSeriesError;

/// Errors produced when configuring or running a simulated campaign.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The scenario failed validation.
    InvalidConfig {
        /// Explanation of the problem.
        reason: &'static str,
    },
    /// Assembling the output dataset failed (indicates an internal
    /// inconsistency).
    Dataset(TimeSeriesError),
    /// The ground truth was asked for after
    /// [`crate::SimOutput::discard_truth`] freed it.
    TruthDiscarded,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { reason } => write!(f, "invalid scenario: {reason}"),
            SimError::Dataset(e) => write!(f, "dataset assembly failed: {e}"),
            SimError::TruthDiscarded => write!(f, "the ground truth was discarded"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Dataset(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<TimeSeriesError> for SimError {
    fn from(e: TimeSeriesError) -> Self {
        SimError::Dataset(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::InvalidConfig { reason: "bad" };
        assert!(e.to_string().contains("bad"));
        let inner = TimeSeriesError::GridMismatch;
        let e = SimError::from(inner);
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("grids"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<SimError>();
    }
}
