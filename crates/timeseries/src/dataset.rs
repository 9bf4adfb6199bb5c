//! Multi-channel datasets aligned on one time grid.
//!
//! The in-memory form of the auditorium trace: channels share a grid
//! and carry optional samples so sensor gaps stay explicit.

use std::collections::BTreeMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use thermal_linalg::Matrix;

use crate::{Channel, Mask, Result, Segment, TimeGrid, TimeSeriesError};

/// A set of named channels aligned on one [`TimeGrid`].
///
/// This is the in-memory form of the auditorium trace: 25 wireless
/// temperature channels, 2 thermostat channels, 4 VAV flow channels,
/// occupancy, lighting and ambient temperature, all re-gridded to a
/// common sampling step with gaps preserved as `None`.
///
/// # Example
///
/// ```
/// use thermal_timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};
///
/// # fn main() -> Result<(), thermal_timeseries::TimeSeriesError> {
/// let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 4)?;
/// let ds = Dataset::new(
///     grid,
///     vec![
///         Channel::new("a", vec![Some(1.0), Some(2.0), None, Some(4.0)])?,
///         Channel::from_values("b", vec![0.0, 0.0, 0.0, 0.0])?,
///     ],
/// )?;
/// let present = ds.presence_mask(&[0, 1])?;
/// assert_eq!(present.count(), 3); // slot 2 lost to channel "a"
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    grid: TimeGrid,
    channels: Vec<Channel>,
    #[serde(skip)]
    index: BTreeMap<String, usize>,
}

impl Dataset {
    /// Creates a dataset from a grid and channels.
    ///
    /// # Errors
    ///
    /// * [`TimeSeriesError::LengthMismatch`] when a channel's length
    ///   differs from the grid length,
    /// * [`TimeSeriesError::DuplicateChannel`] for repeated names.
    pub fn new(grid: TimeGrid, channels: Vec<Channel>) -> Result<Self> {
        let mut index = BTreeMap::new();
        for (i, ch) in channels.iter().enumerate() {
            if ch.len() != grid.len() {
                return Err(TimeSeriesError::LengthMismatch {
                    what: format!("channel {:?}", ch.name()),
                    expected: grid.len(),
                    actual: ch.len(),
                });
            }
            if index.insert(ch.name().to_owned(), i).is_some() {
                return Err(TimeSeriesError::DuplicateChannel {
                    name: ch.name().to_owned(),
                });
            }
        }
        Ok(Dataset {
            grid,
            channels,
            index,
        })
    }

    /// The shared sampling grid.
    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// All channels, in insertion order.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Looks a channel up by name.
    pub fn channel(&self, name: &str) -> Option<&Channel> {
        self.index.get(name).map(|&i| &self.channels[i])
    }

    /// Index of a channel by name.
    pub fn channel_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Channel at position `i`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::OutOfRange`] when `i` is out of
    /// bounds.
    pub fn channel_at(&self, i: usize) -> Result<&Channel> {
        self.channels.get(i).ok_or(TimeSeriesError::OutOfRange {
            op: "channel_at",
            index: i,
            len: self.channels.len(),
        })
    }

    /// Resolves a list of names to indices.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::UnknownChannel`] on the first name
    /// not present.
    pub fn resolve(&self, names: &[&str]) -> Result<Vec<usize>> {
        names
            .iter()
            .map(|&n| {
                self.channel_index(n)
                    .ok_or_else(|| TimeSeriesError::UnknownChannel { name: n.to_owned() })
            })
            .collect()
    }

    /// Checks every index in `channel_indices` before any sample is
    /// read, naming `op` in the error.
    fn check_channels(&self, op: &'static str, channel_indices: &[usize]) -> Result<()> {
        match channel_indices.iter().find(|&&c| c >= self.channels.len()) {
            Some(&index) => Err(TimeSeriesError::OutOfRange {
                op,
                index,
                len: self.channels.len(),
            }),
            None => Ok(()),
        }
    }

    /// Mask of slots where *all* the given channels are present.
    ///
    /// ANDs the channels' presence words, 64 slots per word, and
    /// expands the result into the mask once.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::OutOfRange`] for a bad channel
    /// index.
    pub fn presence_mask(&self, channel_indices: &[usize]) -> Result<Mask> {
        self.check_channels("presence_mask", channel_indices)?;
        let len = self.grid.len();
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        self.and_presence_words(channel_indices, &mut words);
        Ok(Mask::from_words(&words, len))
    }

    /// ANDs the presence words of every channel of `channel_indices`
    /// into `words`, 64 slots per step.
    fn and_presence_words(&self, channel_indices: &[usize], words: &mut [u64]) {
        for channel in channel_indices.iter().filter_map(|&c| self.channels.get(c)) {
            for (word, present) in words.iter_mut().zip(channel.presence_words()) {
                *word &= present;
            }
        }
    }

    /// The slots where every channel of `channel_indices` is present
    /// and `mask` is selected: the conjunction
    /// `presence_mask(channel_indices)?.and(mask)?`, kept as 64-slot
    /// words. One pass ANDs the channels' presence words into the
    /// mask's bits, so neither grid-length mask is built; its
    /// [`JointPresence::segments`] are the runs
    /// [`crate::segments_from_mask`] would find in that conjunction.
    ///
    /// # Errors
    ///
    /// * [`TimeSeriesError::OutOfRange`] for a bad channel index,
    /// * [`TimeSeriesError::GridMismatch`] when `mask` is not one slot
    ///   per grid slot.
    pub fn joint_presence(&self, channel_indices: &[usize], mask: &Mask) -> Result<JointPresence> {
        self.check_channels("joint_presence", channel_indices)?;
        if mask.len() != self.grid.len() {
            return Err(TimeSeriesError::GridMismatch);
        }
        let mut words = mask_words(mask);
        self.and_presence_words(channel_indices, &mut words);
        Ok(JointPresence {
            words,
            len: mask.len(),
        })
    }

    /// Extracts a dense `segment.len() × channels` matrix for the given
    /// channels over a segment.
    ///
    /// Channel indices are checked before any sample is read; each
    /// channel's presence over the segment is then checked a word per
    /// 64 slots, and its samples copied into its column in one pass.
    ///
    /// # Errors
    ///
    /// * [`TimeSeriesError::OutOfRange`] when the segment or a channel
    ///   index is out of bounds,
    /// * [`TimeSeriesError::Empty`] when any requested sample is
    ///   missing (call [`Dataset::presence_mask`] +
    ///   [`crate::segments_from_mask`] first to avoid this).
    pub fn matrix(&self, segment: Segment, channel_indices: &[usize]) -> Result<Matrix> {
        let mut data = Vec::new();
        self.matrix_into(segment, channel_indices, &mut data)?;
        Matrix::from_vec(segment.len(), channel_indices.len(), data).map_err(|_| {
            TimeSeriesError::Empty {
                op: "matrix extraction",
            }
        })
    }

    /// [`Dataset::matrix`] into a caller-owned buffer: `out` is cleared
    /// and refilled with the `segment.len() × channels` row-major
    /// entries, keeping its capacity, so a caller extracting many
    /// segments reuses one allocation.
    ///
    /// # Errors
    ///
    /// As [`Dataset::matrix`]; `out` holds no meaningful entries then.
    pub fn matrix_into(
        &self,
        segment: Segment,
        channel_indices: &[usize],
        out: &mut Vec<f64>,
    ) -> Result<()> {
        if segment.end > self.grid.len() {
            return Err(TimeSeriesError::OutOfRange {
                op: "matrix",
                index: segment.end,
                len: self.grid.len(),
            });
        }
        self.check_channels("matrix", channel_indices)?;
        let width = channel_indices.len();
        out.clear();
        out.resize(segment.len() * width, 0.0);
        for (j, channel) in channel_indices
            .iter()
            .filter_map(|&c| self.channels.get(c))
            .enumerate()
        {
            let samples = channel.present_samples(segment.start..segment.end).ok_or(
                TimeSeriesError::Empty {
                    op: "matrix extraction over a gap",
                },
            )?;
            for (dst, &v) in out.iter_mut().skip(j).step_by(width).zip(samples) {
                *dst = v;
            }
        }
        Ok(())
    }

    /// Sub-dataset containing only the named channels (order
    /// preserved as given).
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::UnknownChannel`] for a missing name.
    pub fn select(&self, names: &[&str]) -> Result<Dataset> {
        let idx = self.resolve(names)?;
        let channels = idx.iter().map(|&i| self.channels[i].clone()).collect();
        Dataset::new(self.grid, channels)
    }

    /// Sub-dataset with channels at the given indices.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::OutOfRange`] for a bad index.
    pub fn select_indices(&self, channel_indices: &[usize]) -> Result<Dataset> {
        let mut channels = Vec::with_capacity(channel_indices.len());
        for &i in channel_indices {
            channels.push(self.channel_at(i)?.clone());
        }
        Dataset::new(self.grid, channels)
    }

    /// Returns a copy with an extra channel appended.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dataset::new`].
    pub fn with_channel(&self, channel: Channel) -> Result<Dataset> {
        let mut channels = self.channels.clone();
        channels.push(channel);
        Dataset::new(self.grid, channels)
    }

    /// Returns a copy with channel `name` blanked to `None` over
    /// `slots`: a scripted outage of one sensor. Slots past the grid,
    /// and a `name` no channel carries, blank nothing.
    pub fn with_outage(&self, name: &str, slots: Range<usize>) -> Dataset {
        let gaps: Vec<usize> = (slots.start..slots.end.min(self.grid.len())).collect();
        let channels = self
            .channels
            .iter()
            .map(|ch| {
                if ch.name() == name {
                    ch.with_gaps(&gaps)
                } else {
                    ch.clone()
                }
            })
            .collect();
        Dataset {
            grid: self.grid,
            channels,
            index: self.index.clone(),
        }
    }

    /// Returns a copy where samples *outside* `mask` are blanked to
    /// gaps in every channel (used to restrict a dataset to a mode or
    /// a train/validation day set): each channel's presence words are
    /// ANDed with the mask's, 64 slots per step.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::GridMismatch`] when the mask length
    /// differs from the grid.
    pub fn restricted_to(&self, mask: &Mask) -> Result<Dataset> {
        if mask.len() != self.grid.len() {
            return Err(TimeSeriesError::GridMismatch);
        }
        let keep = mask_words(mask);
        Ok(Dataset {
            grid: self.grid,
            channels: self.channels.iter().map(|ch| ch.keeping(&keep)).collect(),
            index: self.index.clone(),
        })
    }

    /// Day indices (epoch-relative) for which every listed channel has
    /// coverage of at least `min_coverage` within the day — the
    /// "usable days" rule that turns the paper's 98 calendar days into
    /// 64 analysis days.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::OutOfRange`] for a bad channel
    /// index.
    pub fn usable_days(&self, channel_indices: &[usize], min_coverage: f64) -> Result<Vec<i64>> {
        self.check_channels("usable_days", channel_indices)?;
        let present = self.presence_mask(channel_indices)?;
        // slot counts and jointly present counts per day
        let mut per_day: BTreeMap<i64, (usize, usize)> = BTreeMap::new();
        for ((_, t), &joint) in self.grid.iter().zip(present.bits()) {
            let e = per_day.entry(t.day()).or_insert((0, 0));
            e.0 += 1;
            e.1 += usize::from(joint);
        }
        let mut days: Vec<i64> = per_day
            .into_iter()
            .filter(|&(_, (slots, present))| present as f64 >= min_coverage * slots as f64)
            .map(|(d, _)| d)
            .collect();
        days.sort_unstable();
        Ok(days)
    }

    /// Names of all channels, in order.
    pub fn channel_names(&self) -> Vec<&str> {
        self.channels.iter().map(|c| c.name()).collect()
    }
}

/// The mask's slots as words: bit `i % 64` of word `i / 64` is set iff
/// slot `i` is selected.
fn mask_words(mask: &Mask) -> Vec<u64> {
    mask.bits()
        .chunks(64)
        .map(|chunk| {
            chunk
                .iter()
                .rev()
                .fold(0, |word, &b| (word << 1) | u64::from(b))
        })
        .collect()
}

/// Joint presence of some channels within a mask
/// ([`Dataset::joint_presence`]): bit `i % 64` of word `i / 64` is set
/// iff slot `i` is selected and present in every channel. Bits past
/// the last slot are clear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointPresence {
    words: Vec<u64>,
    len: usize,
}

impl JointPresence {
    /// The maximal runs of at least `min_len` jointly present slots (at
    /// least one), in ascending order. Each step reads the words, 64
    /// slots at a time, and allocates nothing.
    pub fn segments(&self, min_len: usize) -> JointSegments<'_> {
        JointSegments {
            words: &self.words,
            len: self.len,
            min_len: min_len.max(1),
            pos: 0,
        }
    }
}

/// The runs of [`JointPresence::segments`].
#[derive(Debug, Clone)]
pub struct JointSegments<'a> {
    words: &'a [u64],
    len: usize,
    min_len: usize,
    /// The first slot not yet examined.
    pos: usize,
}

impl JointSegments<'_> {
    /// The first slot at or after `from` whose joint bit is `set`, or
    /// the slot count when there is none.
    fn seek(&self, from: usize, set: bool) -> usize {
        let (mut w, mut below) = (from / 64, from % 64);
        while let Some(&word) = self.words.get(w) {
            let word = if set { word } else { !word };
            let rest = word & (u64::MAX << below);
            if rest != 0 {
                let bit = usize::try_from(rest.trailing_zeros()).unwrap_or(64);
                return (w * 64 + bit).min(self.len);
            }
            (w, below) = (w + 1, 0);
        }
        self.len
    }
}

impl Iterator for JointSegments<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        while self.pos < self.len {
            let start = self.seek(self.pos, true);
            if start >= self.len {
                break;
            }
            let end = self.seek(start, false);
            self.pos = end;
            if end - start >= self.min_len {
                return Some(Segment::new(start, end));
            }
        }
        self.pos = self.len;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;
    use proptest::prelude::*;

    fn small() -> Dataset {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 60, 6).unwrap();
        Dataset::new(
            grid,
            vec![
                Channel::new(
                    "a",
                    vec![Some(1.0), Some(2.0), None, Some(4.0), Some(5.0), Some(6.0)],
                )
                .unwrap(),
                Channel::from_values("b", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 60, 3).unwrap();
        let short = Channel::from_values("a", vec![1.0]).unwrap();
        assert!(matches!(
            Dataset::new(grid, vec![short]),
            Err(TimeSeriesError::LengthMismatch { .. })
        ));
        let a1 = Channel::from_values("a", vec![1.0, 2.0, 3.0]).unwrap();
        let a2 = Channel::from_values("a", vec![4.0, 5.0, 6.0]).unwrap();
        assert!(matches!(
            Dataset::new(grid, vec![a1, a2]),
            Err(TimeSeriesError::DuplicateChannel { .. })
        ));
    }

    #[test]
    fn lookup() {
        let ds = small();
        assert_eq!(ds.channel_count(), 2);
        assert_eq!(ds.channel_index("b"), Some(1));
        assert!(ds.channel("zzz").is_none());
        assert_eq!(ds.resolve(&["b", "a"]).unwrap(), vec![1, 0]);
        assert!(ds.resolve(&["b", "zzz"]).is_err());
        assert!(ds.channel_at(2).is_err());
        assert_eq!(ds.channel_names(), vec!["a", "b"]);
    }

    #[test]
    fn presence_mask_joint() {
        let ds = small();
        let m = ds.presence_mask(&[0, 1]).unwrap();
        assert_eq!(m.count(), 5);
        assert!(!m.get(2));
        assert!(ds.presence_mask(&[7]).is_err());
    }

    #[test]
    fn matrix_extraction() {
        let ds = small();
        let m = ds.matrix(Segment::new(3, 6), &[0, 1]).unwrap();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(0, 0)], 4.0);
        assert_eq!(m[(2, 1)], 60.0);
        // Crossing the gap at slot 2 fails.
        assert!(ds.matrix(Segment::new(0, 4), &[0]).is_err());
        // Only channel b is fine across the gap.
        assert!(ds.matrix(Segment::new(0, 6), &[1]).is_ok());
        assert!(ds.matrix(Segment::new(0, 9), &[1]).is_err());
    }

    #[test]
    fn selection_and_extension() {
        let ds = small();
        let only_b = ds.select(&["b"]).unwrap();
        assert_eq!(only_b.channel_count(), 1);
        assert!(ds.select(&["zz"]).is_err());
        let by_idx = ds.select_indices(&[1]).unwrap();
        assert_eq!(by_idx.channel_names(), vec!["b"]);
        assert!(ds.select_indices(&[9]).is_err());
        let grown = ds
            .with_channel(Channel::from_values("c", vec![0.0; 6]).unwrap())
            .unwrap();
        assert_eq!(grown.channel_count(), 3);
        // Duplicate name rejected.
        assert!(ds
            .with_channel(Channel::from_values("a", vec![0.0; 6]).unwrap())
            .is_err());
    }

    #[test]
    fn restriction_blanks_outside_mask() {
        let ds = small();
        let mask = Mask::from_bits(vec![true, false, true, true, false, false]);
        let r = ds.restricted_to(&mask).unwrap();
        assert_eq!(r.channel("b").unwrap().value(0), Some(10.0));
        assert_eq!(r.channel("b").unwrap().value(1), None);
        assert_eq!(r.channel("a").unwrap().value(2), None); // was gap, stays gap
        let bad = Mask::from_bits(vec![true]);
        assert!(ds.restricted_to(&bad).is_err());
    }

    #[test]
    fn outage_blanks_one_channel_over_the_slots() {
        let ds = small();
        let out = ds.with_outage("b", 3..9);
        let b = out.channel("b").unwrap();
        assert_eq!(b.values()[..3], [Some(10.0), Some(20.0), Some(30.0)]);
        assert_eq!(b.values()[3..], [None, None, None]);
        assert_eq!(out.channel("a"), ds.channel("a"));
        assert_eq!(out.presence_mask(&[1]).unwrap().count(), 3);
        assert_eq!(ds.with_outage("zz", 0..6), ds);
    }

    #[test]
    fn usable_days_threshold() {
        // Two days, hourly; channel has 50% coverage on day 0, 100% on day 1.
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 60, 48).unwrap();
        let values: Vec<Option<f64>> = (0..48)
            .map(|i| {
                if i < 24 && i % 2 == 0 {
                    None
                } else {
                    Some(20.0)
                }
            })
            .collect();
        let ds = Dataset::new(grid, vec![Channel::new("t", values).unwrap()]).unwrap();
        assert_eq!(ds.usable_days(&[0], 0.9).unwrap(), vec![1]);
        assert_eq!(ds.usable_days(&[0], 0.4).unwrap(), vec![0, 1]);
        assert!(ds.usable_days(&[3], 0.5).is_err());
    }

    #[test]
    fn usable_days_order_is_pinned() {
        // Pinning test for the determinism contract: the per-day
        // aggregation is backed by a BTreeMap, so the output is the
        // ascending day order on every run of every process — a
        // HashMap here would only be saved by the trailing sort, and
        // clippy's `disallowed-types` wall forbids it outright.
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 60, 24 * 5).unwrap();
        let values: Vec<Option<f64>> = (0..24 * 5).map(|_| Some(21.0)).collect();
        let ds = Dataset::new(grid, vec![Channel::new("t", values).unwrap()]).unwrap();
        let once = ds.usable_days(&[0], 0.5).unwrap();
        let twice = ds.usable_days(&[0], 0.5).unwrap();
        assert_eq!(once, twice);
        assert_eq!(once, vec![0, 1, 2, 3, 4]);
        assert!(once.windows(2).all(|w| w[0] < w[1]));
    }

    /// The per-sample joint-presence loop that the word-wise
    /// `presence_mask` replaced, kept as its oracle.
    fn reference_presence(ds: &Dataset, channel_indices: &[usize]) -> Vec<bool> {
        let mut bits = vec![true; ds.grid().len()];
        for &c in channel_indices {
            for (bit, v) in bits.iter_mut().zip(ds.channels()[c].values()) {
                *bit &= v.is_some();
            }
        }
        bits
    }

    /// The per-slot, per-channel `usable_days` loop that the
    /// presence-mask version replaced, kept as its oracle.
    fn reference_usable_days(
        ds: &Dataset,
        channel_indices: &[usize],
        min_coverage: f64,
    ) -> Vec<i64> {
        let mut per_day: BTreeMap<i64, (usize, usize)> = BTreeMap::new();
        for (i, t) in ds.grid().iter() {
            let e = per_day.entry(t.day()).or_insert((0, 0));
            e.0 += 1;
            if channel_indices
                .iter()
                .all(|&c| ds.channels()[c].is_present(i))
            {
                e.1 += 1;
            }
        }
        per_day
            .into_iter()
            .filter(|&(_, (slots, present))| present as f64 >= min_coverage * slots as f64)
            .map(|(d, _)| d)
            .collect()
    }

    /// A random gappy dataset of `len` slots whose channels come from
    /// every `Channel` constructor: `new`, `from_values` + `with_gaps`,
    /// `renamed` and `slice`.
    fn gappy(len: usize, seed: u64) -> Dataset {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let gap_rate = [0.0, 0.02, 0.3, 0.9, 1.0][rng.gen_range(0..5)];
        let mut values = |n: usize| -> Vec<Option<f64>> {
            (0..n)
                .map(|_| (!rng.gen_bool(gap_rate)).then(|| rng.gen_range(-40.0..60.0)))
                .collect()
        };
        let plain = Channel::new("new", values(len)).unwrap();
        let renamed = Channel::new("x", values(len)).unwrap().renamed("renamed");
        let offset = 1 + len % 7;
        let sliced = Channel::new("slice", values(len + 2 * offset))
            .unwrap()
            .slice(offset, offset + len)
            .unwrap();
        let dense = Channel::from_values("dense", vec![21.5; len]).unwrap();
        let gaps: Vec<usize> = (0..len + 3)
            .filter(|i| (i * 31 + len).is_multiple_of(5))
            .collect();
        let gapped = Channel::from_values("gapped", vec![-3.25; len])
            .unwrap()
            .with_gaps(&gaps);
        let step = [5, 60, 7][len % 3];
        let grid = TimeGrid::new(Timestamp::from_minutes(-(len as i64) * 3), step, len).unwrap();
        Dataset::new(grid, vec![plain, dense, gapped, renamed, sliced]).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `presence_mask` and `usable_days` equal the per-sample loops
        /// on datasets from every constructor, after `restricted_to`
        /// and after a CSV round trip, for the empty, single,
        /// duplicated and full channel lists.
        #[test]
        fn presence_matches_reference(
            pick in 0usize..6,
            odd in 1usize..300,
            first in 0usize..5,
            second in 0usize..5,
            min_coverage in 0.0_f64..1.0,
            seed in any::<u64>(),
        ) {
            let len = [1, 63, 64, 65, 8_640, odd][pick];
            let ds = gappy(len, seed);
            let keep: Vec<bool> = (0..len).map(|i| !(i as u64 ^ seed).is_multiple_of(3)).collect();
            let restricted = ds.restricted_to(&Mask::from_bits(keep)).unwrap();
            let text = crate::csv::to_csv_string(&ds).unwrap();
            let csv = crate::csv::read_csv(text.as_bytes()).unwrap();
            let lists: [Vec<usize>; 5] =
                [vec![], vec![first], vec![first, first], vec![first, second], (0..5).collect()];
            for data in [&ds, &restricted, &csv] {
                for ch in data.channels() {
                    let words = ch.presence_words();
                    prop_assert_eq!(words.len(), len.div_ceil(64));
                    for (i, v) in ch.values().iter().enumerate() {
                        prop_assert_eq!(words[i / 64] >> (i % 64) & 1 == 1, v.is_some());
                    }
                    if len % 64 != 0 {
                        prop_assert_eq!(words[len / 64] >> (len % 64), 0);
                    }
                }
                for list in &lists {
                    let got = data.presence_mask(list).unwrap();
                    prop_assert_eq!(got.bits(), &reference_presence(data, list)[..]);
                    prop_assert_eq!(
                        data.usable_days(list, min_coverage).unwrap(),
                        reference_usable_days(data, list, min_coverage)
                    );
                }
            }
        }

        /// The segments of `joint_presence` equal `segments_from_mask`
        /// over the presence mask ANDed with the mask, for masks of long
        /// runs, single slots and everything, and every `min_len` up to
        /// 9.
        #[test]
        fn joint_presence_segments_match_the_mask_path(
            pick in 0usize..6,
            odd in 1usize..300,
            first in 0usize..5,
            min_len in 0usize..10,
            period in 1usize..90,
            seed in any::<u64>(),
        ) {
            let len = [1, 63, 64, 65, 8_640, odd][pick];
            let ds = gappy(len, seed);
            let masks = [
                Mask::from_bits((0..len).map(|i| (i / period) as u64 ^ seed).map(|v| v.is_multiple_of(3)).collect()),
                Mask::from_bits((0..len).map(|i| !(i as u64 ^ seed).is_multiple_of(5)).collect()),
                Mask::all(ds.grid()),
            ];
            let lists: [Vec<usize>; 4] = [vec![], vec![first], vec![first, first], (0..5).collect()];
            for mask in &masks {
                for list in &lists {
                    let joint = Mask::from_bits(reference_presence(&ds, list)).and(mask).unwrap();
                    let want = crate::segments_from_mask(&joint, min_len);
                    let joint = ds.joint_presence(list, mask).unwrap();
                    let got: Vec<Segment> = joint.segments(min_len).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert!(ds.joint_presence(&[5], &masks[2]).is_err());
            let short = Mask::from_bits(vec![true; len + 1]);
            prop_assert!(matches!(
                ds.joint_presence(&[0], &short),
                Err(TimeSeriesError::GridMismatch)
            ));
        }
    }
}
