//! Named, gap-aware sample channels on the shared time grid.

use serde::{Deserialize, Serialize};

use crate::{Result, TimeSeriesError};

/// One named telemetry series with explicit missing samples.
///
/// Values are `Option<f64>`: `None` marks a gap (dropped packet,
/// portal outage), never NaN — construction rejects non-finite values
/// so downstream numerics can trust every `Some`.
///
/// Every constructor also records which slots are present as a bitset
/// of 64-bit words, so joint presence over many channels
/// ([`crate::Dataset::presence_mask`]) is one AND per 64 slots. The
/// channel has no `&mut` API, so the words never go stale.
///
/// # Example
///
/// ```
/// use thermal_timeseries::Channel;
///
/// # fn main() -> Result<(), thermal_timeseries::TimeSeriesError> {
/// let ch = Channel::new("sensor-7", vec![Some(20.5), None, Some(20.7)])?;
/// assert_eq!(ch.len(), 3);
/// assert_eq!(ch.present_count(), 2);
/// assert!((ch.coverage() - 2.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Channel {
    name: String,
    values: Vec<Option<f64>>,
    /// Bit `i % 64` of word `i / 64` is set iff `values[i]` is `Some`;
    /// bits past the last slot are clear. A function of `values`, so
    /// the derived `PartialEq` compares what it always did.
    present: Vec<u64>,
}

impl Channel {
    /// Creates a channel from a name and samples.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::NonFinite`] when any present sample
    /// is NaN or infinite.
    pub fn new(name: impl Into<String>, values: Vec<Option<f64>>) -> Result<Self> {
        let name = name.into();
        for (i, v) in values.iter().enumerate() {
            if let Some(x) = v {
                if !x.is_finite() {
                    return Err(TimeSeriesError::NonFinite {
                        channel: name,
                        index: i,
                    });
                }
            }
        }
        Ok(Channel::from_parts(name, values))
    }

    /// The one place a channel is assembled: derives the presence
    /// words from `values`.
    fn from_parts(name: String, values: Vec<Option<f64>>) -> Channel {
        let present = values
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .rev()
                    .fold(0, |word, v| (word << 1) | u64::from(v.is_some()))
            })
            .collect();
        Channel {
            name,
            values,
            present,
        }
    }

    /// Creates a fully-present channel from plain values.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::NonFinite`] for NaN/∞ samples.
    pub fn from_values(name: impl Into<String>, values: Vec<f64>) -> Result<Self> {
        Channel::new(name, values.into_iter().map(Some).collect())
    }

    /// Channel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of grid slots (present + missing).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the channel has no slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw samples.
    pub fn values(&self) -> &[Option<f64>] {
        &self.values
    }

    /// The presence words: bit `i % 64` of word `i / 64` is set iff
    /// slot `i` holds a sample.
    pub(crate) fn presence_words(&self) -> &[u64] {
        &self.present
    }

    /// Sample at index `i`; `None` for a gap, and also `None` when `i`
    /// is out of bounds.
    pub fn value(&self, i: usize) -> Option<f64> {
        self.values.get(i).copied().flatten()
    }

    /// `true` when slot `i` holds a sample.
    pub fn is_present(&self, i: usize) -> bool {
        self.value(i).is_some()
    }

    /// Number of present samples.
    pub fn present_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// Fraction of slots holding a sample, in `[0, 1]`; `0.0` for an
    /// empty channel.
    pub fn coverage(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.present_count() as f64 / self.values.len() as f64
    }

    /// Iterates over `(index, value)` for present samples only.
    pub fn iter_present(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|x| (i, x)))
    }

    /// Mean of present samples.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::Empty`] when no samples are present.
    pub fn mean(&self) -> Result<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (_, v) in self.iter_present() {
            sum += v;
            n += 1;
        }
        if n == 0 {
            return Err(TimeSeriesError::Empty { op: "channel mean" });
        }
        Ok(sum / n as f64)
    }

    /// Minimum and maximum of present samples.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::Empty`] when no samples are present.
    pub fn min_max(&self) -> Result<(f64, f64)> {
        let mut it = self.iter_present().map(|(_, v)| v);
        let first = it.next().ok_or(TimeSeriesError::Empty {
            op: "channel min_max",
        })?;
        let mut lo = first;
        let mut hi = first;
        for v in it {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Ok((lo, hi))
    }

    /// Returns a copy with the given slots blanked to `None`
    /// (failure-injection and masking helper).
    ///
    /// Indices outside the channel are ignored.
    pub fn with_gaps(&self, gap_indices: &[usize]) -> Channel {
        let mut values = self.values.clone();
        for &i in gap_indices {
            if i < values.len() {
                values[i] = None;
            }
        }
        Channel::from_parts(self.name.clone(), values)
    }

    /// Returns a copy renamed to `name`.
    pub fn renamed(&self, name: impl Into<String>) -> Channel {
        Channel::from_parts(name.into(), self.values.clone())
    }

    /// Extracts the sub-channel covering slot range `start..end`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::OutOfRange`] when the range exceeds
    /// the channel or is empty.
    pub fn slice(&self, start: usize, end: usize) -> Result<Channel> {
        if start >= end || end > self.values.len() {
            return Err(TimeSeriesError::OutOfRange {
                op: "channel slice",
                index: end,
                len: self.values.len(),
            });
        }
        Ok(Channel::from_parts(
            self.name.clone(),
            self.values[start..end].to_vec(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_rejects_nan() {
        assert!(Channel::new("x", vec![Some(f64::NAN)]).is_err());
        assert!(Channel::new("x", vec![Some(f64::INFINITY)]).is_err());
        assert!(Channel::new("x", vec![None, Some(1.0)]).is_ok());
        assert!(Channel::from_values("x", vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn presence_accounting() {
        let ch = Channel::new("x", vec![Some(1.0), None, Some(3.0), None]).unwrap();
        assert_eq!(ch.len(), 4);
        assert_eq!(ch.present_count(), 2);
        assert_eq!(ch.coverage(), 0.5);
        assert!(ch.is_present(0));
        assert!(!ch.is_present(1));
        assert!(!ch.is_present(10));
        assert_eq!(ch.value(2), Some(3.0));
        assert_eq!(ch.value(9), None);
    }

    #[test]
    fn iter_present_skips_gaps() {
        let ch = Channel::new("x", vec![None, Some(5.0), None, Some(7.0)]).unwrap();
        let got: Vec<(usize, f64)> = ch.iter_present().collect();
        assert_eq!(got, vec![(1, 5.0), (3, 7.0)]);
    }

    #[test]
    fn statistics() {
        let ch = Channel::new("x", vec![Some(1.0), None, Some(3.0)]).unwrap();
        assert_eq!(ch.mean().unwrap(), 2.0);
        assert_eq!(ch.min_max().unwrap(), (1.0, 3.0));
        let empty = Channel::new("y", vec![None, None]).unwrap();
        assert!(empty.mean().is_err());
        assert!(empty.min_max().is_err());
        assert_eq!(empty.coverage(), 0.0);
        assert_eq!(Channel::new("z", vec![]).unwrap().coverage(), 0.0);
    }

    #[test]
    fn gap_injection() {
        let ch = Channel::from_values("x", vec![1.0, 2.0, 3.0]).unwrap();
        let gapped = ch.with_gaps(&[1, 5]);
        assert_eq!(gapped.values(), &[Some(1.0), None, Some(3.0)]);
        assert_eq!(gapped.name(), "x");
    }

    #[test]
    fn rename_and_slice() {
        let ch = Channel::from_values("x", vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(ch.renamed("y").name(), "y");
        let s = ch.slice(1, 3).unwrap();
        assert_eq!(s.values(), &[Some(2.0), Some(3.0)]);
        assert!(ch.slice(2, 2).is_err());
        assert!(ch.slice(0, 5).is_err());
    }
}
