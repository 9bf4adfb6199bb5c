//! Property-based tests for the time-series containers.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use thermal_timeseries::validate::{validate_channel, GapPolicy, ValidationConfig};
use thermal_timeseries::{
    csv, segments_from_mask, split, Channel, Dataset, Mask, TimeGrid, TimeSeriesError, Timestamp,
};

fn values_strategy(len: usize) -> impl Strategy<Value = Vec<Option<f64>>> {
    prop::collection::vec(prop::option::weighted(0.8, -40.0_f64..60.0), len)
}

fn gap_policy_strategy() -> impl Strategy<Value = GapPolicy> {
    (0usize..3, 0usize..=4).prop_map(|(which, max_len)| match which {
        0 => GapPolicy::Quarantine,
        1 => GapPolicy::Hold { max_len },
        _ => GapPolicy::Interpolate { max_len },
    })
}

proptest! {
    #[test]
    fn segments_cover_exactly_the_selected_slots(bits in prop::collection::vec(any::<bool>(), 0..200)) {
        let mask = Mask::from_bits(bits.clone());
        let segs = segments_from_mask(&mask, 1);
        // Each selected index is in exactly one segment; unselected in none.
        for (i, b) in bits.iter().enumerate() {
            let covered = segs.iter().filter(|s| s.contains(i)).count();
            prop_assert_eq!(covered, usize::from(*b));
        }
        // Segments are maximal: no two adjacent.
        for w in segs.windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
    }

    #[test]
    fn segment_sample_counts_sum_to_mask_count(
        bits in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        let mask = Mask::from_bits(bits);
        let segs = segments_from_mask(&mask, 1);
        let total: usize = segs.iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, mask.count());
    }

    #[test]
    fn min_len_filters_short_runs(
        bits in prop::collection::vec(any::<bool>(), 0..120),
        min_len in 1usize..10,
    ) {
        let mask = Mask::from_bits(bits);
        for s in segments_from_mask(&mask, min_len) {
            prop_assert!(s.len() >= min_len);
        }
    }

    #[test]
    fn mask_de_morgan(
        a in prop::collection::vec(any::<bool>(), 50),
        b in prop::collection::vec(any::<bool>(), 50),
    ) {
        let ma = Mask::from_bits(a);
        let mb = Mask::from_bits(b);
        let lhs = ma.and(&mb).unwrap().not();
        let rhs = ma.not().or(&mb.not()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// `Mask::days`, `Mask::daily_window` and `Mask::days_within` fill
    /// slot runs; they equal the slot-wise definitions (slot `i` is
    /// selected iff its day is listed, or its minute of day is in the
    /// window, or both) on grids that start before or after the epoch,
    /// with steps that do and do not divide a day, and day lists that
    /// are unsorted, repeated or off the grid.
    #[test]
    fn day_and_window_masks_match_slot_definitions(
        start in -5_000i64..5_000,
        step in (0usize..3, 1u32..4_000).prop_map(|(pick, s)| [s % 200 + 1, 1_440, s][pick]),
        len in 1usize..700,
        days in prop::collection::vec(
            (0usize..4, -8i64..60, i64::MIN..=i64::MAX)
                .prop_map(|(pick, near, far)| [near, i64::MIN, i64::MAX, far][pick]),
            0..10,
        ),
        window in (0u32..1_440).prop_flat_map(|a| (Just(a), a + 1..=1_440)),
    ) {
        let grid = TimeGrid::new(Timestamp::from_minutes(start), step, len).unwrap();
        let by_day: Vec<bool> = grid.iter().map(|(_, t)| days.contains(&t.day())).collect();
        let got = Mask::days(&grid, &days);
        prop_assert_eq!(got.bits(), &by_day[..]);
        let (from, to) = window;
        let in_window: Vec<bool> = grid
            .iter()
            .map(|(_, t)| (i64::from(from)..i64::from(to)).contains(&t.minute_of_day()))
            .collect();
        let window = Mask::daily_window(&grid, from, to).unwrap();
        prop_assert_eq!(window.bits(), &in_window[..]);
        let both: Vec<bool> = by_day.iter().zip(&in_window).map(|(&d, &w)| d && w).collect();
        let got = Mask::days_within(&grid, &days, &window).unwrap();
        prop_assert_eq!(got.bits(), &both[..]);
        let short = Mask::from_bits(vec![true; len + 1]);
        prop_assert!(matches!(
            Mask::days_within(&grid, &days, &short),
            Err(TimeSeriesError::GridMismatch)
        ));
    }

    #[test]
    fn csv_roundtrip(
        step in 1u32..120,
        start in -10_000i64..10_000,
        v1 in values_strategy(12),
        v2 in values_strategy(12),
    ) {
        let grid = TimeGrid::new(Timestamp::from_minutes(start), step, 12).unwrap();
        let ds = Dataset::new(
            grid,
            vec![
                Channel::new("alpha", v1).unwrap(),
                Channel::new("beta", v2).unwrap(),
            ],
        )
        .unwrap();
        let text = csv::to_csv_string(&ds).unwrap();
        let back = csv::from_csv_str(&text).unwrap();
        prop_assert_eq!(back.grid(), ds.grid());
        for (x, y) in back.channels().iter().zip(ds.channels()) {
            prop_assert_eq!(x.name(), y.name());
            for (a, b) in x.values().iter().zip(y.values()) {
                match (a, b) {
                    (None, None) => {}
                    (Some(p), Some(q)) => prop_assert!((p - q).abs() < 1e-12),
                    _ => prop_assert!(false, "presence flipped in roundtrip"),
                }
            }
        }
    }

    #[test]
    fn halves_split_partitions_days(days in prop::collection::btree_set(-50i64..50, 2..40)) {
        let days: Vec<i64> = days.into_iter().collect();
        let s = split::halves(&days).unwrap();
        let mut merged = s.train.clone();
        merged.extend(&s.validation);
        merged.sort_unstable();
        let mut expected = days.clone();
        expected.sort_unstable();
        prop_assert_eq!(merged, expected);
        prop_assert!(s.train.len() >= s.validation.len());
        prop_assert!(s.train.len() - s.validation.len() <= 1);
    }

    #[test]
    fn presence_mask_matches_channel_presence(
        columns in prop::collection::vec(values_strategy(30), 1..5),
        picks in prop::collection::vec(0usize..16, 0..7),
    ) {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 30).unwrap();
        let ch: Vec<Channel> = columns
            .into_iter()
            .enumerate()
            .map(|(i, v)| Channel::new(format!("c{i}"), v).unwrap())
            .collect();
        let ds = Dataset::new(grid, ch.clone()).unwrap();
        // A random subset in random order: possibly empty, usually
        // with repeated indices.
        let indices: Vec<usize> = picks.iter().map(|&k| k % ch.len()).collect();
        for indices in [&indices[..], &[]] {
            let mask = ds.presence_mask(indices).unwrap();
            prop_assert_eq!(mask.len(), 30);
            for i in 0..30 {
                prop_assert_eq!(mask.get(i), indices.iter().all(|&c| ch[c].is_present(i)));
            }
        }
        // One index past the last channel, anywhere in the list, is
        // rejected with the offending index.
        let mut bad = indices.clone();
        bad.insert(picks.first().map_or(0, |&k| k % (bad.len() + 1)), ch.len());
        let err = ds.presence_mask(&bad).unwrap_err();
        prop_assert!(
            matches!(err, TimeSeriesError::OutOfRange { index, .. } if index == ch.len()),
            "{err:?}"
        );
    }

    #[test]
    fn grid_index_roundtrip(step in 1u32..200, len in 1usize..300, start in -5_000i64..5_000) {
        let grid = TimeGrid::new(Timestamp::from_minutes(start), step, len).unwrap();
        for i in (0..len).step_by(7) {
            let t = grid.timestamp(i).unwrap();
            prop_assert_eq!(grid.index_of(t), Some(i));
        }
    }

    #[test]
    fn gap_healing_is_idempotent(
        v in prop::collection::vec(prop::option::weighted(0.7, 15.0_f64..40.0), 1..120),
        policy in gap_policy_strategy(),
    ) {
        // Quarantine stages off: the property under test is the gap
        // policy alone. Healing must converge in one pass — a healed
        // channel fed back through validation is a fixed point, and
        // in particular a too-long gap is never *partially* healed
        // (which would shrink it below max_len for the next pass).
        let cfg = ValidationConfig {
            max_step: 0.0,
            max_stuck_run: 0,
            gap_policy: policy,
            ..ValidationConfig::default()
        };
        let ch = Channel::new("x", v).unwrap();
        let (once, _) = validate_channel(&ch, &cfg).unwrap();
        let (twice, q2) = validate_channel(&once, &cfg).unwrap();
        prop_assert_eq!(once.values(), twice.values());
        prop_assert_eq!(q2.healed, 0, "a second pass must find nothing to heal");
    }

    #[test]
    fn restriction_never_adds_samples(v in values_strategy(20), bits in prop::collection::vec(any::<bool>(), 20)) {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 20).unwrap();
        let ds = Dataset::new(grid, vec![Channel::new("x", v).unwrap()]).unwrap();
        let r = ds.restricted_to(&Mask::from_bits(bits)).unwrap();
        let before = ds.channel("x").unwrap();
        let after = r.channel("x").unwrap();
        for i in 0..20 {
            if after.is_present(i) {
                prop_assert!(before.is_present(i));
                prop_assert_eq!(after.value(i), before.value(i));
            }
        }
    }
}
