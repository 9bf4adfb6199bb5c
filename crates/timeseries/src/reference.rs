//! The `Option`-vector definitions that the dense channel storage
//! replaced, kept as a test-only oracle: a channel as one `Option<f64>`
//! per slot, and `Dataset::matrix_into` as the per-element extraction
//! that filled each column slot by slot from those options.
//!
//! The proptests below build channels through every constructor from
//! random gappy series — signed zeros, `Some(0.0)` beside gaps, empty
//! series and lengths that are not multiples of 64 — and compare each
//! accessor, `==`, the `values()` view, `Dataset::restricted_to` and
//! `Dataset::matrix_into` with the definitions here, bit for bit.

use crate::{Result, Segment, TimeSeriesError};

/// `Dataset::matrix_into` over `Option` columns: the segment and the
/// channel indices are checked first, then each column is filled slot
/// by slot, failing at the first gap.
pub(crate) fn matrix_into(
    columns: &[Vec<Option<f64>>],
    grid_len: usize,
    segment: Segment,
    channel_indices: &[usize],
    out: &mut Vec<f64>,
) -> Result<()> {
    if segment.end > grid_len {
        return Err(TimeSeriesError::OutOfRange {
            op: "matrix",
            index: segment.end,
            len: grid_len,
        });
    }
    if let Some(&index) = channel_indices.iter().find(|&&c| c >= columns.len()) {
        return Err(TimeSeriesError::OutOfRange {
            op: "matrix",
            index,
            len: columns.len(),
        });
    }
    let width = channel_indices.len();
    out.clear();
    out.resize(segment.len() * width, 0.0);
    for (j, values) in channel_indices.iter().map(|&c| &columns[c]).enumerate() {
        let column = out.iter_mut().skip(j).step_by(width);
        for (dst, v) in column.zip(&values[segment.start..segment.end]) {
            *dst = v.ok_or(TimeSeriesError::Empty {
                op: "matrix extraction over a gap",
            })?;
        }
    }
    Ok(())
}

/// Mean of the present samples, summed in slot order from `0.0`.
pub(crate) fn mean(values: &[Option<f64>]) -> Option<f64> {
    let present: Vec<f64> = values.iter().flatten().copied().collect();
    let sum = present.iter().fold(0.0, |s, v| s + v);
    (!present.is_empty()).then(|| sum / present.len() as f64)
}

/// Minimum and maximum of the present samples, folded in slot order.
pub(crate) fn min_max(values: &[Option<f64>]) -> Option<(f64, f64)> {
    let mut present = values.iter().flatten().copied();
    let first = present.next()?;
    Some(present.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, Dataset, Mask, TimeGrid, Timestamp};
    use proptest::prelude::*;

    /// A series of `len` slots from `seed`: gaps at one of five rates,
    /// and present samples drawn from `0.0`, `-0.0`, small integers and
    /// wide values, so signed zeros sit beside gaps.
    fn series(len: usize, seed: u64) -> Vec<Option<f64>> {
        let mut state = seed | 1;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let gap_per_8 = match draw() % 5 {
            0 => 0,
            1 => 1,
            2 => 4,
            3 => 7,
            _ => 8,
        };
        (0..len)
            .map(|_| {
                let gap = draw() % 8 < gap_per_8;
                let value = match draw() % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => (draw() % 7) as f64 - 3.0,
                    _ => f64::from_bits(draw() >> 12 | 0x4000_0000_0000_0000) * 3.0 - 9.0,
                };
                (!gap).then_some(value)
            })
            .collect()
    }

    fn option_bits(values: &[Option<f64>]) -> Vec<Option<u64>> {
        values.iter().map(|v| v.map(f64::to_bits)).collect()
    }

    /// Every observable of `channel` equals its definition over
    /// `values`, bit for bit.
    fn assert_matches(channel: &Channel, name: &str, values: &[Option<f64>]) {
        let len = values.len();
        assert_eq!(channel.name(), name);
        assert_eq!(channel.len(), len);
        assert_eq!(channel.is_empty(), len == 0);
        for i in 0..len + 70 {
            let want = values.get(i).copied().flatten();
            assert_eq!(
                channel.value(i).map(f64::to_bits),
                want.map(f64::to_bits),
                "slot {i}"
            );
            assert_eq!(channel.is_present(i), want.is_some(), "slot {i}");
        }
        let present = values.iter().filter(|v| v.is_some()).count();
        assert_eq!(channel.present_count(), present);
        let coverage = if len == 0 {
            0.0
        } else {
            present as f64 / len as f64
        };
        assert_eq!(channel.coverage().to_bits(), coverage.to_bits());
        let got: Vec<(usize, u64)> = channel
            .iter_present()
            .map(|(i, v)| (i, v.to_bits()))
            .collect();
        let want: Vec<(usize, u64)> = values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|x| (i, x.to_bits())))
            .collect();
        assert_eq!(got, want);
        let slots: Vec<Option<f64>> = channel.iter_slots().collect();
        assert_eq!(option_bits(&slots), option_bits(values));
        assert_eq!(
            channel.mean().ok().map(f64::to_bits),
            mean(values).map(f64::to_bits)
        );
        let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
        assert_eq!(channel.min_max().ok().map(bits), min_max(values).map(bits));
        assert_eq!(channel.presence_words().len(), len.div_ceil(64));
        assert_eq!(option_bits(channel.values()), option_bits(values));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Channels from `new`, `from_slots` and `from_values`, and after
        /// `with_gaps`, `renamed`, `slice`, a clone and
        /// `Dataset::restricted_to`, equal their `Option`-vector
        /// definitions; `==` is slot-wise `Option<f64>` equality, so
        /// `Some(-0.0) == Some(0.0)` and a gap never equals `Some(0.0)`.
        #[test]
        fn dense_channel_matches_option_reference(
            pick in 0usize..8,
            odd in 0usize..300,
            from in 0usize..300,
            to in 0usize..300,
            seed in any::<u64>(),
        ) {
            let len = [0, 1, 63, 64, 65, 128, 129, odd][pick];
            let values = series(len, seed);
            let channel = Channel::new("c", values.clone()).unwrap();
            assert_matches(&channel, "c", &values);
            assert_matches(&Channel::from_slots("s", values.iter().copied()).unwrap(), "s", &values);
            assert_matches(&channel.clone(), "c", &values);
            assert_matches(&channel.renamed("r"), "r", &values);
            if values.iter().all(Option::is_some) {
                let plain: Vec<f64> = values.iter().flatten().copied().collect();
                assert_matches(&Channel::from_values("c", plain).unwrap(), "c", &values);
            }

            let gaps: Vec<usize> = (0..len + 5).filter(|i| (i ^ from).is_multiple_of(3)).collect();
            let mut gapped = values.clone();
            for &i in gaps.iter().filter(|&&i| i < len) {
                gapped[i] = None;
            }
            assert_matches(&channel.with_gaps(&gaps), "c", &gapped);

            let (start, end) = (from.min(len), to.min(len + 1));
            match channel.slice(start, end) {
                Ok(sliced) => assert_matches(&sliced, "c", &values[start..end]),
                Err(e) => prop_assert!(
                    (start >= end || end > len)
                        && e == TimeSeriesError::OutOfRange { op: "channel slice", index: end, len }
                ),
            }
            for (a, b) in [(start, end), (from % (len + 1), len), (0, len)] {
                let want = values
                    .get(a..b)
                    .filter(|run| run.iter().all(Option::is_some))
                    .map(|run| run.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>());
                let got = channel
                    .present_samples(a..b)
                    .map(|run| run.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                prop_assert_eq!(got, want, "present_samples({}..{})", a, b);
            }

            let mut flipped = values.clone();
            for v in flipped.iter_mut().flatten().filter(|v| **v == 0.0) {
                *v = -*v;
            }
            prop_assert!(Channel::new("c", flipped).unwrap() == channel);
            if let Some(i) = values.iter().position(Option::is_none) {
                let mut zero = values.clone();
                zero[i] = Some(0.0);
                prop_assert!(Channel::new("c", zero).unwrap() != channel);
            }
            if let Some(i) = values.iter().position(|v| *v == Some(0.0)) {
                let mut gap = values.clone();
                gap[i] = None;
                prop_assert!(Channel::new("c", gap).unwrap() != channel);
            }
            prop_assert!(channel.renamed("d") != channel);

            if len > 0 {
                let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, len).unwrap();
                let other = series(len, seed ^ 0x5555);
                let ds = Dataset::new(
                    grid,
                    vec![channel.clone(), Channel::new("o", other.clone()).unwrap()],
                )
                .unwrap();
                let keep: Vec<bool> = (0..len).map(|i| (i + to) % 5 != 0 && i % 97 != 3).collect();
                let restricted = ds.restricted_to(&Mask::from_bits(keep.clone())).unwrap();
                for (ch, (name, column)) in restricted.channels().iter().zip([("c", &values), ("o", &other)]) {
                    let want: Vec<Option<f64>> =
                        column.iter().zip(&keep).map(|(v, &k)| if k { *v } else { None }).collect();
                    assert_matches(ch, name, &want);
                }
            }
        }

        /// `matrix_into` over random segments and channel lists (empty,
        /// repeated, out of range) equals the per-element extraction,
        /// bit for bit, the gap and range errors included.
        #[test]
        fn matrix_into_matches_per_element_reference(
            pick in 0usize..6,
            odd in 1usize..300,
            a in 0usize..320,
            b in 0usize..320,
            list in 0usize..5,
            seed in any::<u64>(),
        ) {
            let len = [1, 63, 64, 65, 130, odd][pick];
            let columns: Vec<Vec<Option<f64>>> =
                (0..3).map(|c| series(len, seed.wrapping_add(c))).collect();
            let channels = columns
                .iter()
                .enumerate()
                .map(|(c, values)| Channel::new(format!("c{c}"), values.clone()).unwrap())
                .collect();
            let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, len).unwrap();
            let ds = Dataset::new(grid, channels).unwrap();
            let (start, end) = (a.min(b), a.max(b) + 1);
            let segments = [Segment::new(start, end), Segment::new(start % len, len)];
            let lists: [&[usize]; 5] = [&[], &[0], &[2, 0], &[1, 1, 2], &[0, 3]];
            for segment in segments {
                let channel_indices = lists[list];
                let (mut got, mut want) = (vec![7.0], vec![7.0]);
                let got_result = ds.matrix_into(segment, channel_indices, &mut got);
                let want_result = matrix_into(&columns, len, segment, channel_indices, &mut want);
                prop_assert_eq!(&got_result, &want_result);
                if got_result.is_ok() {
                    let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&got), bits(&want));
                }
            }
        }
    }
}
