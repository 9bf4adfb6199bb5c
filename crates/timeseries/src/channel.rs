//! Named, gap-aware sample channels on the shared time grid.

use std::ops::Range;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::{Result, TimeSeriesError};

/// The sample a gap holds in [`Channel::samples`].
const GAP_FILL: f64 = 0.0;

/// One named telemetry series with explicit missing samples.
///
/// A slot either holds a finite sample or is a gap (dropped packet,
/// portal outage), never NaN — construction rejects non-finite values
/// so downstream numerics can trust every present sample.
///
/// The channel stores one `f64` per slot ([`Channel::samples`]) beside
/// a bitset of 64-bit presence words ([`Channel::presence_words`]),
/// which are the only record of a gap: a gap's sample is a fixed
/// filler. Joint presence over many channels
/// ([`crate::Dataset::presence_mask`]) is one AND per 64 slots, and a
/// gap-free run of slots is one slice of the samples
/// ([`Channel::present_samples`]). The channel has no `&mut` API, so
/// the words never go stale.
///
/// Equality compares names, presence and present samples as `f64`s:
/// `Some(-0.0)` equals `Some(0.0)`, and a gap never equals a sample.
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
/// assert_eq!(ch.present_samples(0..1), Some(&[20.5][..]));
/// assert_eq!(ch.present_samples(0..2), None);
/// # Ok(())
/// # }
/// ```
#[derive(Serialize, Deserialize)]
pub struct Channel {
    name: String,
    /// One sample per slot; a gap holds [`GAP_FILL`].
    samples: Vec<f64>,
    /// Bit `i % 64` of word `i / 64` is set iff slot `i` holds a
    /// sample; bits past the last slot are clear.
    present: Vec<u64>,
    /// The `Option` form of the samples, built by the first
    /// [`Channel::values`] call.
    #[serde(skip)]
    view: OnceLock<Vec<Option<f64>>>,
}

impl Channel {
    /// Creates a channel from a name and samples.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::NonFinite`] when any present sample
    /// is NaN or infinite.
    pub fn new(name: impl Into<String>, values: Vec<Option<f64>>) -> Result<Self> {
        Channel::from_slots(name, values)
    }

    /// Creates a channel from one `Option` per slot, in slot order,
    /// writing the samples and the presence words as it reads them:
    /// no `Option` vector is built.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::NonFinite`] for the first present
    /// sample that is NaN or infinite.
    pub fn from_slots(
        name: impl Into<String>,
        slots: impl IntoIterator<Item = Option<f64>>,
    ) -> Result<Self> {
        let name = name.into();
        let slots = slots.into_iter();
        let (expected, _) = slots.size_hint();
        let mut samples = Vec::with_capacity(expected);
        let mut present = Vec::with_capacity(expected.div_ceil(64));
        let mut word = 0_u64;
        for (index, slot) in slots.enumerate() {
            let bit = index % 64;
            match slot {
                Some(x) if !x.is_finite() => {
                    return Err(TimeSeriesError::NonFinite {
                        channel: name,
                        index,
                    })
                }
                Some(x) => {
                    samples.push(x);
                    word |= 1 << bit;
                }
                None => samples.push(GAP_FILL),
            }
            if bit == 63 {
                present.push(word);
                word = 0;
            }
        }
        if !samples.len().is_multiple_of(64) {
            present.push(word);
        }
        Ok(Channel::from_parts(name, samples, present))
    }

    /// Creates a fully-present channel from plain values, keeping
    /// `values` as its samples.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::NonFinite`] for NaN/∞ samples.
    pub fn from_values(name: impl Into<String>, values: Vec<f64>) -> Result<Self> {
        let name = name.into();
        if let Some(index) = values.iter().position(|x| !x.is_finite()) {
            return Err(TimeSeriesError::NonFinite {
                channel: name,
                index,
            });
        }
        let len = values.len();
        let mut present = vec![u64::MAX; len / 64];
        if !len.is_multiple_of(64) {
            present.push(u64::MAX >> (64 - len % 64));
        }
        Ok(Channel::from_parts(name, values, present))
    }

    /// The one place a channel is assembled, from samples whose gaps
    /// hold [`GAP_FILL`] and the matching presence words.
    fn from_parts(name: String, samples: Vec<f64>, present: Vec<u64>) -> Channel {
        Channel {
            name,
            samples,
            present,
            view: OnceLock::new(),
        }
    }

    /// Channel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of grid slots (present + missing).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the channel has no slots.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// One sample per slot. A gap holds `0.0`, so read a slot only
    /// where [`Channel::presence_words`] marks it present.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The presence words: bit `i % 64` of word `i / 64` is set iff
    /// slot `i` holds a sample; bits past the last slot are clear.
    pub fn presence_words(&self) -> &[u64] {
        &self.present
    }

    /// The samples as one `Option` per slot, `None` for a gap.
    ///
    /// The channel does not store this form: the first call builds it
    /// (16 bytes per slot) and keeps it for the channel's lifetime.
    /// [`Channel::value`], [`Channel::iter_slots`] and
    /// [`Channel::present_samples`] read the same slots without it.
    pub fn values(&self) -> &[Option<f64>] {
        self.view.get_or_init(|| {
            let mut view = Vec::with_capacity(self.len());
            view.extend(self.iter_slots());
            view
        })
    }

    /// Sample at index `i`; `None` for a gap, and also `None` when `i`
    /// is out of bounds.
    pub fn value(&self, i: usize) -> Option<f64> {
        self.samples.get(i).copied().filter(|_| self.is_present(i))
    }

    /// `true` when slot `i` holds a sample.
    pub fn is_present(&self, i: usize) -> bool {
        self.present
            .get(i / 64)
            .is_some_and(|word| (word >> (i % 64)) & 1 == 1)
    }

    /// Number of present samples.
    pub fn present_count(&self) -> usize {
        self.present.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of slots holding a sample, in `[0, 1]`; `0.0` for an
    /// empty channel.
    pub fn coverage(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.present_count() as f64 / self.samples.len() as f64
    }

    /// Iterates over every slot in order: its sample, or `None` for a
    /// gap.
    pub fn iter_slots(&self) -> impl ExactSizeIterator<Item = Option<f64>> + '_ {
        self.samples
            .iter()
            .enumerate()
            .map(|(i, &x)| self.is_present(i).then_some(x))
    }

    /// Iterates over `(index, value)` for present samples only,
    /// reading the set bits of the presence words.
    pub fn iter_present(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.present
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest.wrapping_sub(1);
                    (bit < 64).then_some(w * 64 + bit)
                })
            })
            .filter_map(|i| self.samples.get(i).map(|&x| (i, x)))
    }

    /// The samples of `slots` when every one of them is present, as one
    /// slice; `None` when one is a gap or lies past the channel. The
    /// presence check reads a word per 64 slots.
    pub fn present_samples(&self, slots: Range<usize>) -> Option<&[f64]> {
        let samples = self.samples.get(slots.clone())?;
        self.all_present(slots).then_some(samples)
    }

    /// `true` when every slot of `slots` is present (vacuously for an
    /// empty range); `slots` must lie within the channel.
    fn all_present(&self, slots: Range<usize>) -> bool {
        if slots.is_empty() {
            return true;
        }
        let (first, last) = (slots.start / 64, (slots.end - 1) / 64);
        let Some(words) = self.present.get(first..=last) else {
            return false;
        };
        words.iter().zip(first..).all(|(&word, w)| {
            let low = if w == first { slots.start % 64 } else { 0 };
            let high = if w == last { (slots.end - 1) % 64 } else { 63 };
            let need = (u64::MAX << low) & (u64::MAX >> (63 - high));
            word & need == need
        })
    }

    /// A copy whose presence words are these ANDed with `keep` (one
    /// word per 64 slots, as the presence words): every slot `keep`
    /// clears becomes a gap.
    pub(crate) fn keeping(&self, keep: &[u64]) -> Channel {
        let present: Vec<u64> = self
            .present
            .iter()
            .zip(keep.iter().chain(std::iter::repeat(&0)))
            .map(|(&word, &k)| word & k)
            .collect();
        let mut samples = self.samples.clone();
        for (chunk, (&old, &new)) in samples
            .chunks_mut(64)
            .zip(self.present.iter().zip(&present))
        {
            let mut dropped = old & !new;
            while dropped != 0 {
                let bit = dropped.trailing_zeros() as usize;
                dropped &= dropped - 1;
                if let Some(x) = chunk.get_mut(bit) {
                    *x = GAP_FILL;
                }
            }
        }
        Channel::from_parts(self.name.clone(), samples, present)
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

    /// Returns a copy with the given slots blanked to gaps
    /// (failure-injection and masking helper).
    ///
    /// Indices outside the channel are ignored.
    pub fn with_gaps(&self, gap_indices: &[usize]) -> Channel {
        let mut keep = vec![u64::MAX; self.present.len()];
        for &i in gap_indices.iter().filter(|&&i| i < self.len()) {
            if let Some(word) = keep.get_mut(i / 64) {
                *word &= !(1 << (i % 64));
            }
        }
        self.keeping(&keep)
    }

    /// Returns a copy renamed to `name`.
    pub fn renamed(&self, name: impl Into<String>) -> Channel {
        Channel::from_parts(name.into(), self.samples.clone(), self.present.clone())
    }

    /// Extracts the sub-channel covering slot range `start..end`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::OutOfRange`] when the range exceeds
    /// the channel or is empty.
    pub fn slice(&self, start: usize, end: usize) -> Result<Channel> {
        if start >= end || end > self.samples.len() {
            return Err(TimeSeriesError::OutOfRange {
                op: "channel slice",
                index: end,
                len: self.samples.len(),
            });
        }
        Channel::from_slots(self.name.clone(), (start..end).map(|i| self.value(i)))
    }
}

/// A clone leaves the [`Channel::values`] view unbuilt.
impl Clone for Channel {
    fn clone(&self) -> Channel {
        self.renamed(self.name.clone())
    }
}

/// Names, presence words and samples as `f64`s: the gaps' filler is the
/// same everywhere, so this is slot-wise `Option<f64>` equality.
impl PartialEq for Channel {
    fn eq(&self, other: &Channel) -> bool {
        self.name == other.name && self.present == other.present && self.samples == other.samples
    }
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("name", &self.name)
            .field("samples", &self.samples)
            .field("present", &self.present)
            .finish()
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
