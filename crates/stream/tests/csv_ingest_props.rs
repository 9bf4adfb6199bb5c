//! CSV ingest never panics: `thermal_timeseries::csv::read_csv` and
//! `thermal_stream::parse_csv_events` return `Ok` or a typed error on
//! arbitrary bytes, on arbitrary text built from CSV-shaped pieces
//! (ragged rows, empty, NaN, ∞ and huge cells, duplicate headers) and
//! on valid CSV that was truncated or mutated.
//!
//! Whatever parses must also keep the ingest contracts: a dataset's
//! channels hold only finite samples and span the grid, and every
//! reading `parse_csv_events` emits is finite and counted.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use thermal_stream::parse_csv_events;
use thermal_timeseries::{csv, Channel, Dataset, TimeGrid, TimeSeriesError, Timestamp};

/// Cell texts: numbers, gaps, non-finite and out-of-range literals,
/// and things that are no number at all.
const CELLS: &[&str] = &[
    "",
    " ",
    "20.5",
    "-3",
    "-0",
    "1e308",
    "1e400",
    "-1e400",
    "1e-320",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "Infinity",
    "9223372036854775807",
    "-9223372036854775808",
    "99999999999999999999",
    "abc",
    "0x10",
    "+4",
    ".",
    "-",
    "\t5\t",
    "\u{feff}7",
    "é",
    "\"q\"",
];

/// Header names, with duplicates and blanks among them.
const NAMES: &[&str] = &["minutes", "a", "b", "a", " a ", "", "ç", "x y"];

/// Timestamp cells: a uniform 5-minute grid position is used for
/// index 0 (see [`stamp`]); the rest break it.
const STAMPS: &[&str] = &[
    "",
    "9223372036854775807",
    "-9223372036854775808",
    "4611686018427387904",
    "-4611686018427387905",
    "0",
    "-5",
    "x",
    "1.5",
];

/// Line separators.
const SEPARATORS: &[&str] = &["\n", "\r\n", "\r", "\n\n"];

/// The timestamp cell of row `r` for the choice `pick`.
fn stamp(pick: usize, r: usize) -> String {
    match STAMPS.get(pick) {
        Some(s) if pick > 0 => (*s).to_owned(),
        _ => (5 * r).to_string(),
    }
}

/// CSV-shaped text: a header of picked names, then rows of a picked
/// timestamp and picked cells, joined by picked separators. Unless
/// `ragged`, every row is cut or padded to the header's width.
fn shaped(
    header: &[usize],
    rows: &[(usize, Vec<usize>)],
    separators: &[usize],
    minutes: bool,
    ragged: bool,
) -> String {
    let mut text = String::from(if minutes { "minutes" } else { "time" });
    for &h in header {
        text.push(',');
        text.push_str(NAMES[h % NAMES.len()]);
    }
    for (r, (pick, cells)) in rows.iter().enumerate() {
        let sep = separators.get(r).copied().unwrap_or(0);
        text.push_str(SEPARATORS[sep % SEPARATORS.len()]);
        text.push_str(&stamp(pick % STAMPS.len(), r));
        let width = if ragged { cells.len() } else { header.len() };
        for &c in cells.iter().cycle().take(width) {
            text.push(',');
            text.push_str(CELLS[c % CELLS.len()]);
        }
    }
    text
}

/// A valid CSV document of `len` rows over three gappy channels.
fn valid_csv(len: usize, seed: u64) -> String {
    let value = |k: usize, c: u64| {
        let h = (k as u64 + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(seed ^ c);
        (!h.is_multiple_of(5)).then(|| (h % 4000) as f64 / 100.0 - 10.0)
    };
    let channels = ["t1", "t2", "vav"]
        .iter()
        .zip(0..)
        .map(|(name, c)| Channel::new(*name, (0..len).map(|k| value(k, c)).collect()).unwrap())
        .collect();
    let grid = TimeGrid::new(Timestamp::from_minutes(-60), 5, len).unwrap();
    csv::to_csv_string(&Dataset::new(grid, channels).unwrap()).unwrap()
}

/// `at` reduced to a position in `0..=len`.
fn position(at: u64, len: usize) -> usize {
    usize::try_from(at % (len as u64 + 1)).unwrap()
}

/// `text` cut at a char boundary at or before `at`, with `edits`
/// applied: each inserts a cell text at a char boundary.
fn mutate(text: &str, at: u64, edits: &[(u64, usize)]) -> String {
    let mut out = text.to_owned();
    let mut cut = position(at, out.len());
    while !out.is_char_boundary(cut) {
        cut -= 1;
    }
    out.truncate(cut);
    for &(pos, cell) in edits {
        let mut pos = position(pos, out.len());
        while !out.is_char_boundary(pos) {
            pos -= 1;
        }
        out.insert_str(pos, CELLS[cell % CELLS.len()]);
    }
    out
}

/// Feeds `bytes` to `read_csv` and checks what it accepts.
fn check_read_csv(bytes: &[u8]) -> Result<(), TestCaseError> {
    match csv::read_csv(bytes) {
        Ok(ds) => {
            let len = ds.grid().len();
            prop_assert!(len > 0);
            for ch in ds.channels() {
                prop_assert_eq!(ch.len(), len);
                prop_assert!(ch.iter_present().all(|(_, v)| v.is_finite()));
            }
            let all: Vec<usize> = (0..ds.channel_count()).collect();
            let joint = ds.presence_mask(&all).unwrap();
            let want = (0..len)
                .filter(|&i| ds.channels().iter().all(|c| c.is_present(i)))
                .count();
            prop_assert_eq!(joint.count(), want);
        }
        Err(TimeSeriesError::Csv { line, .. }) => prop_assert!(line >= 1),
        Err(_) => {}
    }
    Ok(())
}

/// Feeds `text` to `parse_csv_events`, with a channel map that fits
/// its header and with one that does not, and checks what it accepts.
fn check_events(text: &str) -> Result<(), TestCaseError> {
    let columns = text.lines().next().map_or(0, |h| h.split(',').count());
    let fitting: Vec<Option<usize>> = (0..columns.saturating_sub(1))
        .map(|i| (i % 3 != 2).then_some(i))
        .collect();
    let wrong: Vec<Option<usize>> = vec![Some(0); columns + 1];
    for map in [&fitting, &wrong] {
        if let Ok((batches, stats)) = parse_csv_events(text, map) {
            let readings: usize = batches.iter().map(Vec::len).sum();
            prop_assert_eq!(readings as u64, stats.parsed);
            for r in batches.iter().flatten() {
                prop_assert!(r.value.is_finite());
                prop_assert!(map.contains(&Some(r.channel)));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, and their lossy text for the event parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..300)) {
        check_read_csv(&bytes)?;
        check_events(&String::from_utf8_lossy(&bytes))?;
    }

    /// CSV-shaped text: ragged rows, gaps, NaN/∞/huge cells, duplicate
    /// and blank header names, broken timestamps and mixed line ends.
    #[test]
    fn shaped_text_never_panics(
        header in prop::collection::vec(0usize..NAMES.len(), 0..5),
        rows in prop::collection::vec((0usize..2 * STAMPS.len(), prop::collection::vec(0usize..CELLS.len(), 1..6)), 0..8),
        separators in prop::collection::vec(0usize..SEPARATORS.len(), 0..8),
        minutes in any::<bool>(),
        ragged in any::<bool>(),
    ) {
        let text = shaped(&header, &rows, &separators, minutes, ragged);
        check_read_csv(text.as_bytes())?;
        check_events(&text)?;
    }

    /// Valid CSV, truncated at any point and with cells spliced in.
    #[test]
    fn mutated_valid_csv_never_panics(
        len in 1usize..12,
        at in any::<u64>(),
        edits in prop::collection::vec((any::<u64>(), 0usize..CELLS.len()), 0..4),
        seed in any::<u64>(),
    ) {
        let text = mutate(&valid_csv(len, seed), at, &edits);
        check_read_csv(text.as_bytes())?;
        check_events(&text)?;
    }
}

#[test]
fn valid_csv_parses_in_both_readers() {
    let text = valid_csv(9, 3);
    let ds = csv::read_csv(text.as_bytes()).unwrap();
    assert_eq!(ds.grid().len(), 9);
    let (batches, stats) = parse_csv_events(&text, &[Some(0), Some(1), Some(2)]).unwrap();
    assert_eq!(batches.len(), 9);
    assert_eq!(stats.rejected(), 0);
}

/// Timestamps at both ends of `i64`: their difference overflows.
#[test]
fn extreme_timestamps_are_a_typed_error() {
    for text in [
        "minutes,a\n-9223372036854775808,1\n9223372036854775807,2\n",
        "minutes,a\n9223372036854775807,1\n-9223372036854775808,2\n",
        "minutes,a\n0,1\n4611686018427387904,2\n-4611686018427387905,3\n",
    ] {
        assert!(
            matches!(
                csv::read_csv(text.as_bytes()),
                Err(TimeSeriesError::Csv { .. })
            ),
            "{text:?}"
        );
    }
}
