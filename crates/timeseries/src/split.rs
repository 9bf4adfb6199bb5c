//! Day-based train/validation splitting.
//!
//! The paper trains on the first half of the usable days and
//! validates on the second half ("We use the half of the data set (32
//! days) to train the models and the other half to validate").
//! [`halves`] reproduces that rule.

use crate::{Dataset, Mask, Result, TimeSeriesError};

/// A train/validation partition of a set of day indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaySplit {
    /// Days used for model fitting.
    pub train: Vec<i64>,
    /// Days used for validation.
    pub validation: Vec<i64>,
}

impl DaySplit {
    /// Masks for the two halves over `dataset`'s grid.
    ///
    /// # Errors
    ///
    /// Never fails for a dataset on the same grid the days were drawn
    /// from; kept fallible for interface symmetry.
    pub fn masks(&self, dataset: &Dataset) -> Result<(Mask, Mask)> {
        Ok((
            Mask::days(dataset.grid(), &self.train),
            Mask::days(dataset.grid(), &self.validation),
        ))
    }
}

/// Splits sorted `days` into first-half training and second-half
/// validation (odd counts give the extra day to training).
///
/// # Errors
///
/// Returns [`TimeSeriesError::Empty`] when fewer than two days are
/// supplied.
///
/// # Example
///
/// ```
/// use thermal_timeseries::split;
///
/// # fn main() -> Result<(), thermal_timeseries::TimeSeriesError> {
/// let s = split::halves(&[0, 1, 2, 3, 4, 5])?;
/// assert_eq!(s.train, vec![0, 1, 2]);
/// assert_eq!(s.validation, vec![3, 4, 5]);
/// # Ok(())
/// # }
/// ```
pub fn halves(days: &[i64]) -> Result<DaySplit> {
    if days.len() < 2 {
        return Err(TimeSeriesError::Empty { op: "halves split" });
    }
    let mut sorted = days.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len().div_ceil(2);
    Ok(DaySplit {
        train: sorted[..mid].to_vec(),
        validation: sorted[mid..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, TimeGrid, Timestamp};

    #[test]
    fn halves_even_and_odd() {
        let s = halves(&[5, 1, 3, 2]).unwrap();
        assert_eq!(s.train, vec![1, 2]);
        assert_eq!(s.validation, vec![3, 5]);
        let s = halves(&[1, 2, 3]).unwrap();
        assert_eq!(s.train, vec![1, 2]);
        assert_eq!(s.validation, vec![3]);
        assert!(halves(&[1]).is_err());
        assert!(halves(&[]).is_err());
    }

    #[test]
    fn masks_cover_disjoint_days() {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 720, 8).unwrap(); // 4 days
        let ds =
            Dataset::new(grid, vec![Channel::from_values("x", vec![0.0; 8]).unwrap()]).unwrap();
        let s = halves(&[0, 1, 2, 3]).unwrap();
        let (train, val) = s.masks(&ds).unwrap();
        assert_eq!(train.count(), 4);
        assert_eq!(val.count(), 4);
        assert_eq!(train.and(&val).unwrap().count(), 0);
    }
}
