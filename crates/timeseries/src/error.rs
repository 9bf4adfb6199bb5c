//! Typed errors for time-series construction and access.

use std::fmt;

/// Errors produced by time-series construction and slicing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TimeSeriesError {
    /// A grid was constructed with a zero step or zero length.
    InvalidGrid {
        /// Explanation of the problem.
        reason: &'static str,
    },
    /// A channel's sample count does not match the dataset grid.
    LengthMismatch {
        /// Channel (or mask) name or description.
        what: String,
        /// Expected sample count (grid length).
        expected: usize,
        /// Actual sample count.
        actual: usize,
    },
    /// Two datasets/masks on different grids were combined.
    GridMismatch,
    /// A channel name was not found in the dataset.
    UnknownChannel {
        /// The offending channel name.
        name: String,
    },
    /// A duplicate channel name was supplied.
    DuplicateChannel {
        /// The duplicated name.
        name: String,
    },
    /// An index or range fell outside the grid.
    OutOfRange {
        /// Human-readable name of the offending operation.
        op: &'static str,
        /// The offending index.
        index: usize,
        /// The grid length.
        len: usize,
    },
    /// A sample value was NaN or infinite (missing data must be `None`,
    /// never NaN).
    NonFinite {
        /// Channel in which the value was found.
        channel: String,
        /// Sample index of the offending value.
        index: usize,
    },
    /// A CSV document could not be parsed.
    Csv {
        /// 1-based line number of the problem.
        line: usize,
        /// Explanation of the problem.
        reason: String,
    },
    /// A daily window was specified with `start >= end` or beyond 24 h.
    InvalidWindow {
        /// Window start, minutes after midnight.
        start: u32,
        /// Window end, minutes after midnight.
        end: u32,
    },
    /// An operation required at least one channel/sample but none were
    /// available.
    Empty {
        /// Human-readable name of the offending operation.
        op: &'static str,
    },
    /// A validation/healing policy was configured inconsistently.
    InvalidPolicy {
        /// Explanation of the problem.
        reason: &'static str,
    },
}

impl fmt::Display for TimeSeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeSeriesError::InvalidGrid { reason } => write!(f, "invalid time grid: {reason}"),
            TimeSeriesError::LengthMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "length mismatch for {what}: expected {expected} samples, got {actual}"
            ),
            TimeSeriesError::GridMismatch => {
                write!(f, "operands live on different time grids")
            }
            TimeSeriesError::UnknownChannel { name } => {
                write!(f, "unknown channel {name:?}")
            }
            TimeSeriesError::DuplicateChannel { name } => {
                write!(f, "duplicate channel name {name:?}")
            }
            TimeSeriesError::OutOfRange { op, index, len } => {
                write!(f, "index {index} out of range for {op} (grid length {len})")
            }
            TimeSeriesError::NonFinite { channel, index } => write!(
                f,
                "non-finite sample in channel {channel:?} at index {index} (use None for missing data)"
            ),
            TimeSeriesError::Csv { line, reason } => {
                write!(f, "csv parse error at line {line}: {reason}")
            }
            TimeSeriesError::InvalidWindow { start, end } => write!(
                f,
                "invalid daily window: start {start} must be before end {end} within 1440 minutes"
            ),
            TimeSeriesError::Empty { op } => write!(f, "empty input to {op}"),
            TimeSeriesError::InvalidPolicy { reason } => {
                write!(f, "invalid validation policy: {reason}")
            }
        }
    }
}

impl std::error::Error for TimeSeriesError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let err = TimeSeriesError::LengthMismatch {
            what: "channel t1".to_owned(),
            expected: 10,
            actual: 7,
        };
        let msg = err.to_string();
        assert!(msg.contains("t1") && msg.contains("10") && msg.contains('7'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<TimeSeriesError>();
    }
}
