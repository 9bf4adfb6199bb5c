//! Boolean slot masks for selecting subsets of a time grid.

use serde::{Deserialize, Serialize};

use crate::{Result, TimeGrid, TimeSeriesError, MINUTES_PER_DAY};

/// A boolean selection over the slots of a [`TimeGrid`].
///
/// Masks compose with `and`/`or`/`not`, which is how the paper's data
/// slicing is expressed: *occupied mode* = daily window 06:00–21:00,
/// *training set* = a set of day indices, *usable* = all required
/// channels present — the identification segments are the contiguous
/// runs of the conjunction (see [`crate::segments_from_mask`]).
///
/// # Example
///
/// ```
/// use thermal_timeseries::{Mask, TimeGrid, Timestamp};
///
/// # fn main() -> Result<(), thermal_timeseries::TimeSeriesError> {
/// let grid = TimeGrid::new(Timestamp::from_minutes(0), 60, 48)?; // 2 days hourly
/// let morning = Mask::daily_window(&grid, 6 * 60, 12 * 60)?;
/// let day0 = Mask::days(&grid, &[0]);
/// let sel = morning.and(&day0)?;
/// assert_eq!(sel.count(), 6); // 06:00..12:00 on day 0 only
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mask {
    bits: Vec<bool>,
}

impl Mask {
    /// All-true mask over `grid`.
    pub fn all(grid: &TimeGrid) -> Self {
        Mask {
            bits: vec![true; grid.len()],
        }
    }

    /// All-false mask over `grid`.
    pub fn none(grid: &TimeGrid) -> Self {
        Mask {
            bits: vec![false; grid.len()],
        }
    }

    /// Builds a mask directly from bits.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Mask { bits }
    }

    /// Expands `len` slots of a bitset — slot `i` is bit `i % 64` of
    /// `words[i / 64]` — into a mask. Slots past the last word are
    /// unselected.
    pub(crate) fn from_words(words: &[u64], len: usize) -> Self {
        let mut bits = vec![false; len];
        for (chunk, &word) in bits.chunks_mut(64).zip(words) {
            for (bit, shift) in chunk.iter_mut().zip(0..) {
                *bit = (word >> shift) & 1 == 1;
            }
        }
        Mask { bits }
    }

    /// Mask selecting slots whose minute-of-day lies in
    /// `[start_minute, end_minute)`.
    ///
    /// This is the paper's mode split: occupied = `[360, 1260)`
    /// (06:00–21:00, HVAC on), unoccupied = its complement.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::InvalidWindow`] unless
    /// `start < end ≤ 1440`.
    pub fn daily_window(grid: &TimeGrid, start_minute: u32, end_minute: u32) -> Result<Self> {
        if start_minute >= end_minute || i64::from(end_minute) > MINUTES_PER_DAY {
            return Err(TimeSeriesError::InvalidWindow {
                start: start_minute,
                end: end_minute,
            });
        }
        let mut mask = Mask::none(grid);
        let days = (grid.start().day()..).zip(0..grid.day_count());
        for (day, _) in days {
            let midnight = i128::from(day) * i128::from(MINUTES_PER_DAY);
            mask.fill_minutes(
                grid,
                midnight + i128::from(start_minute),
                midnight + i128::from(end_minute),
            );
        }
        Ok(mask)
    }

    /// Mask selecting slots whose (epoch-relative) day index is in
    /// `days`. Each listed day fills its run of slots; days off the
    /// grid select nothing, and a repeated day changes nothing.
    pub fn days(grid: &TimeGrid, days: &[i64]) -> Self {
        let mut mask = Mask::none(grid);
        for &day in days {
            if let Some(slots) = mask.bits.get_mut(day_run(grid, day)) {
                slots.fill(true);
            }
        }
        mask
    }

    /// The slots of `within` whose day index is in `days`:
    /// `Mask::days(grid, days).and(within)` in one allocation. Each
    /// listed day copies its run of `within`'s slots.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::GridMismatch`] when `within` is not
    /// one slot per grid slot.
    pub fn days_within(grid: &TimeGrid, days: &[i64], within: &Mask) -> Result<Self> {
        if within.len() != grid.len() {
            return Err(TimeSeriesError::GridMismatch);
        }
        let mut mask = Mask::none(grid);
        for &day in days {
            let run = day_run(grid, day);
            if let (Some(dst), Some(src)) = (mask.bits.get_mut(run.clone()), within.bits.get(run)) {
                dst.copy_from_slice(src);
            }
        }
        Ok(mask)
    }

    /// Selects the slots of `grid` whose instants lie in the epoch
    /// minutes `[from, to)`: one contiguous run of slots.
    fn fill_minutes(&mut self, grid: &TimeGrid, from: i128, to: i128) {
        let run = first_slot_at(grid, from)..first_slot_at(grid, to);
        if let Some(slots) = self.bits.get_mut(run) {
            slots.fill(true);
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when the mask covers zero slots.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of selected slots.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Whether slot `i` is selected (`false` out of range).
    pub fn get(&self, i: usize) -> bool {
        self.bits.get(i).copied().unwrap_or(false)
    }

    /// The raw bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Sets slot `i`.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::OutOfRange`] when `i` is out of
    /// bounds.
    pub fn set(&mut self, i: usize, value: bool) -> Result<()> {
        let len = self.bits.len();
        let slot = self.bits.get_mut(i).ok_or(TimeSeriesError::OutOfRange {
            op: "mask set",
            index: i,
            len,
        })?;
        *slot = value;
        Ok(())
    }

    /// Element-wise conjunction.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::GridMismatch`] when lengths differ.
    pub fn and(&self, other: &Mask) -> Result<Mask> {
        if self.len() != other.len() {
            return Err(TimeSeriesError::GridMismatch);
        }
        Ok(Mask {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| *a && *b)
                .collect(),
        })
    }

    /// Element-wise disjunction.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::GridMismatch`] when lengths differ.
    pub fn or(&self, other: &Mask) -> Result<Mask> {
        if self.len() != other.len() {
            return Err(TimeSeriesError::GridMismatch);
        }
        Ok(Mask {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| *a || *b)
                .collect(),
        })
    }

    /// Element-wise negation.
    pub fn not(&self) -> Mask {
        Mask {
            bits: self.bits.iter().map(|b| !b).collect(),
        }
    }

    /// Iterates over the indices of selected slots.
    pub fn iter_selected(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
    }
}

/// The run of slots of `grid` on (epoch-relative) day `day`.
fn day_run(grid: &TimeGrid, day: i64) -> std::ops::Range<usize> {
    let midnight = i128::from(day) * i128::from(MINUTES_PER_DAY);
    first_slot_at(grid, midnight)..first_slot_at(grid, midnight + i128::from(MINUTES_PER_DAY))
}

/// The first slot of `grid` whose instant is at or after epoch minute
/// `minute`, clamped to `0..=grid.len()`. Slot `i` sits at minute
/// `start + i·step`, so that slot is `⌈(minute − start) / step⌉`.
fn first_slot_at(grid: &TimeGrid, minute: i128) -> usize {
    let offset = minute - i128::from(grid.start().as_minutes());
    if offset <= 0 {
        return 0;
    }
    let step = i128::from(grid.step_minutes());
    usize::try_from((offset + step - 1) / step).map_or(grid.len(), |slot| slot.min(grid.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;

    fn grid_2days_hourly() -> TimeGrid {
        TimeGrid::new(Timestamp::from_minutes(0), 60, 48).unwrap()
    }

    #[test]
    fn all_and_none() {
        let g = grid_2days_hourly();
        assert_eq!(Mask::all(&g).count(), 48);
        assert_eq!(Mask::none(&g).count(), 0);
    }

    #[test]
    fn daily_window_selects_expected_hours() {
        let g = grid_2days_hourly();
        let occupied = Mask::daily_window(&g, 6 * 60, 21 * 60).unwrap();
        // 15 hours per day, 2 days.
        assert_eq!(occupied.count(), 30);
        assert!(!occupied.get(0)); // midnight
        assert!(occupied.get(6)); // 06:00
        assert!(occupied.get(20)); // 20:00
        assert!(!occupied.get(21)); // 21:00 excluded (half-open)
        let unoccupied = occupied.not();
        assert_eq!(unoccupied.count(), 18);
    }

    #[test]
    fn daily_window_validation() {
        let g = grid_2days_hourly();
        assert!(Mask::daily_window(&g, 100, 100).is_err());
        assert!(Mask::daily_window(&g, 200, 100).is_err());
        assert!(Mask::daily_window(&g, 0, 1441).is_err());
        assert!(Mask::daily_window(&g, 0, 1440).is_ok());
    }

    #[test]
    fn day_selection() {
        let g = grid_2days_hourly();
        let d1 = Mask::days(&g, &[1]);
        assert_eq!(d1.count(), 24);
        assert!(!d1.get(23));
        assert!(d1.get(24));
        let none = Mask::days(&g, &[7]);
        assert_eq!(none.count(), 0);
    }

    #[test]
    fn boolean_composition() {
        let g = grid_2days_hourly();
        let a = Mask::days(&g, &[0]);
        let b = Mask::daily_window(&g, 0, 60).unwrap();
        let and = a.and(&b).unwrap();
        assert_eq!(and.count(), 1);
        assert!(and.get(0));
        let or = a.or(&b).unwrap();
        assert_eq!(or.count(), 25); // day 0 (24) + midnight of day 1
        let short = Mask::from_bits(vec![true]);
        assert!(a.and(&short).is_err());
        assert!(a.or(&short).is_err());
    }

    #[test]
    fn set_and_get_bounds() {
        let g = grid_2days_hourly();
        let mut m = Mask::none(&g);
        m.set(3, true).unwrap();
        assert!(m.get(3));
        assert!(!m.get(99));
        assert!(m.set(48, true).is_err());
    }

    #[test]
    fn iter_selected_yields_indices() {
        let m = Mask::from_bits(vec![false, true, true, false, true]);
        let idx: Vec<usize> = m.iter_selected().collect();
        assert_eq!(idx, vec![1, 2, 4]);
    }
}
