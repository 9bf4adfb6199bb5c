//! Plain-text (CSV) serialisation of datasets.
//!
//! The format is one header row (`minutes,<channel>,...`) followed by
//! one row per grid slot; missing samples are empty cells. The grid
//! step is inferred from the first two timestamps on read, matching
//! how the testbed's cloud database exports were post-processed.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};

use crate::{Channel, Dataset, Result, TimeGrid, TimeSeriesError, Timestamp};

/// Writes `dataset` as CSV.
///
/// A `mut` reference to any [`Write`] implementation can be passed for
/// the writer.
///
/// # Errors
///
/// Returns [`TimeSeriesError::Csv`] on I/O failure.
pub fn write_csv<W: Write>(dataset: &Dataset, mut writer: W) -> Result<()> {
    let io_err = |e: std::io::Error| TimeSeriesError::Csv {
        line: 0,
        reason: format!("write failed: {e}"),
    };
    // Header.
    let mut header = String::from("minutes");
    for ch in dataset.channels() {
        header.push(',');
        // Channel names with commas/newlines would corrupt the format.
        header.push_str(&ch.name().replace([',', '\n', '\r'], "_"));
    }
    writeln!(writer, "{header}").map_err(io_err)?;
    // Rows, each formatted straight into one reused buffer.
    let fmt_err = |_| TimeSeriesError::Csv {
        line: 0,
        reason: "formatting failed".to_owned(),
    };
    let mut row = String::new();
    for (i, t) in dataset.grid().iter() {
        row.clear();
        write!(row, "{}", t.as_minutes()).map_err(fmt_err)?;
        for ch in dataset.channels() {
            row.push(',');
            if let Some(v) = ch.value(i) {
                write!(row, "{v}").map_err(fmt_err)?;
            }
        }
        row.push('\n');
        writer.write_all(row.as_bytes()).map_err(io_err)?;
    }
    Ok(())
}

/// Renders `dataset` as a CSV string.
///
/// # Errors
///
/// Same conditions as [`write_csv`].
pub fn to_csv_string(dataset: &Dataset) -> Result<String> {
    let mut buf = Vec::new();
    write_csv(dataset, &mut buf)?;
    String::from_utf8(buf).map_err(|_| TimeSeriesError::Csv {
        line: 0,
        reason: "produced invalid utf-8".to_owned(),
    })
}

/// Reads a dataset from CSV.
///
/// A `mut` reference to any [`Read`] implementation can be passed for
/// the reader. Expects the format produced by [`write_csv`]: uniform
/// minute timestamps in the first column, one channel per further
/// column, empty cells for gaps.
///
/// # Errors
///
/// Returns [`TimeSeriesError::Csv`] for structural problems (bad
/// header, ragged rows, unparsable numbers, non-uniform steps) with
/// the offending line number.
pub fn read_csv<R: Read>(reader: R) -> Result<Dataset> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines().enumerate();

    let (_, header) = lines.next().ok_or(TimeSeriesError::Csv {
        line: 1,
        reason: "missing header".to_owned(),
    })?;
    let header = header.map_err(|e| TimeSeriesError::Csv {
        line: 1,
        reason: format!("read failed: {e}"),
    })?;
    let cols: Vec<&str> = header.split(',').collect();
    if cols.len() < 2 || cols[0] != "minutes" {
        return Err(TimeSeriesError::Csv {
            line: 1,
            reason: "header must start with \"minutes\" and name at least one channel".to_owned(),
        });
    }
    let names: Vec<String> = cols[1..].iter().map(|s| s.trim().to_owned()).collect();
    for (i, name) in names.iter().enumerate() {
        if name.is_empty() {
            return Err(TimeSeriesError::Csv {
                line: 1,
                reason: format!("empty channel name in header column {}", i + 2),
            });
        }
        if names[..i].contains(name) {
            return Err(TimeSeriesError::Csv {
                line: 1,
                reason: format!("duplicate channel name {name:?} in header"),
            });
        }
    }

    let mut stamps: Vec<i64> = Vec::new();
    let mut columns: Vec<Vec<Option<f64>>> = vec![Vec::new(); names.len()];
    for (idx, line) in lines {
        let lineno = idx + 1;
        let line = line.map_err(|e| TimeSeriesError::Csv {
            line: lineno,
            reason: format!("read failed: {e}"),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != names.len() + 1 {
            return Err(TimeSeriesError::Csv {
                line: lineno,
                reason: format!(
                    "expected {} fields, found {}",
                    names.len() + 1,
                    fields.len()
                ),
            });
        }
        let t: i64 = fields[0].trim().parse().map_err(|_| TimeSeriesError::Csv {
            line: lineno,
            reason: format!("bad timestamp {:?}", fields[0]),
        })?;
        stamps.push(t);
        for (c, field) in fields[1..].iter().enumerate() {
            let field = field.trim();
            if field.is_empty() {
                columns[c].push(None);
            } else {
                let v: f64 = field.parse().map_err(|_| TimeSeriesError::Csv {
                    line: lineno,
                    reason: format!("bad number {field:?}"),
                })?;
                // `"NaN".parse::<f64>()` succeeds, but non-finite
                // samples would violate the Channel invariant (missing
                // data must be an empty cell, never NaN/inf) — reject
                // them here with the line number.
                if !v.is_finite() {
                    return Err(TimeSeriesError::Csv {
                        line: lineno,
                        reason: format!(
                            "non-finite value {field:?} (missing samples must be empty cells)"
                        ),
                    });
                }
                columns[c].push(Some(v));
            }
        }
    }

    if stamps.is_empty() {
        return Err(TimeSeriesError::Csv {
            line: 2,
            reason: "no data rows".to_owned(),
        });
    }
    let step = if stamps.len() >= 2 {
        // Saturating: a difference beyond `i64` is no valid step, and
        // saturation keeps its sign for the checks below.
        let s = stamps[1].saturating_sub(stamps[0]);
        if s <= 0 {
            return Err(TimeSeriesError::Csv {
                line: 3,
                reason: "timestamps must be strictly increasing".to_owned(),
            });
        }
        for (i, w) in stamps.windows(2).enumerate() {
            if w[1].saturating_sub(w[0]) != s {
                return Err(TimeSeriesError::Csv {
                    line: i + 3,
                    reason: "non-uniform timestamp step".to_owned(),
                });
            }
        }
        u32::try_from(s).map_err(|_| TimeSeriesError::Csv {
            line: 3,
            reason: "timestamp step too large".to_owned(),
        })?
    } else {
        1
    };

    let grid = TimeGrid::new(Timestamp::from_minutes(stamps[0]), step, stamps.len())?;
    let channels = names
        .into_iter()
        .zip(columns)
        .map(|(name, values)| Channel::new(name, values))
        .collect::<Result<Vec<_>>>()?;
    Dataset::new(grid, channels)
}

/// Parses a dataset from a CSV string.
///
/// # Errors
///
/// Same conditions as [`read_csv`].
pub fn from_csv_str(s: &str) -> Result<Dataset> {
    read_csv(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The row loop as it was before the reused buffer: a fresh
    /// `String` per row, `to_string` for the timestamp and `format!`
    /// per value. Kept as the oracle of `writer_matches_reference`.
    fn reference_csv(dataset: &Dataset) -> Vec<u8> {
        let mut out = Vec::new();
        let mut header = String::from("minutes");
        for ch in dataset.channels() {
            header.push(',');
            header.push_str(&ch.name().replace([',', '\n', '\r'], "_"));
        }
        writeln!(out, "{header}").unwrap();
        for (i, t) in dataset.grid().iter() {
            let mut row = t.as_minutes().to_string();
            for ch in dataset.channels() {
                row.push(',');
                if let Some(v) = ch.value(i) {
                    row.push_str(&format!("{v}"));
                }
            }
            writeln!(out, "{row}").unwrap();
        }
        out
    }

    /// One cell: a gap, or a value from the corners of the format —
    /// signed zeros, subnormals, huge and integral values, ordinary
    /// temperatures, any finite bit pattern.
    fn cell() -> impl Strategy<Value = Option<f64>> {
        (
            0u8..10,
            -40.0_f64..60.0,
            -1_000_000i64..1_000_000,
            any::<u64>(),
        )
            .prop_map(|(kind, temperature, integral, bits)| match kind {
                0 => None,
                1 => Some(-0.0),
                2 => Some(0.0),
                3 => Some(f64::MIN_POSITIVE / 3.0),
                4 => Some(-5e-324),
                5 => Some(1e300),
                6 => Some(integral as f64),
                7 => Some(temperature),
                _ => Some(f64::from_bits(bits)).filter(|v| v.is_finite()),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The buffered writer emits the per-value `format!` loop's
        /// bytes exactly, on grids starting at negative, zero and
        /// positive minutes.
        #[test]
        fn writer_matches_reference(
            start in -100_000i64..100_000,
            step in 1u32..120,
            channels in 1usize..5,
            cells in prop::collection::vec(cell(), 0..160),
        ) {
            let slots = (cells.len() / channels).max(1);
            let grid = TimeGrid::new(Timestamp::from_minutes(start), step, slots).unwrap();
            let chans = (0..channels)
                .map(|c| {
                    let values = (0..slots).map(|k| cells.get(k * channels + c).copied().flatten()).collect();
                    Channel::new(format!("c{c}"), values).unwrap()
                })
                .collect();
            let ds = Dataset::new(grid, chans).unwrap();
            let mut got = Vec::new();
            write_csv(&ds, &mut got).unwrap();
            prop_assert_eq!(got, reference_csv(&ds));
        }
    }

    fn sample() -> Dataset {
        let grid = TimeGrid::new(Timestamp::from_minutes(100), 5, 3).unwrap();
        Dataset::new(
            grid,
            vec![
                Channel::new("temp", vec![Some(20.5), None, Some(21.0)]).unwrap(),
                Channel::from_values("flow", vec![0.1, 0.2, 0.3]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = sample();
        let text = to_csv_string(&ds).unwrap();
        let back = from_csv_str(&text).unwrap();
        assert_eq!(back.grid(), ds.grid());
        assert_eq!(back.channel_names(), ds.channel_names());
        for (a, b) in back.channels().iter().zip(ds.channels()) {
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn written_format_is_as_documented() {
        let text = to_csv_string(&sample()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("minutes,temp,flow"));
        assert_eq!(lines.next(), Some("100,20.5,0.1"));
        assert_eq!(lines.next(), Some("105,,0.2"));
        assert_eq!(lines.next(), Some("110,21,0.3"));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(from_csv_str("").is_err());
        assert!(from_csv_str("time,a\n0,1\n").is_err());
        assert!(from_csv_str("minutes\n0\n").is_err());
    }

    #[test]
    fn rejects_ragged_rows_and_bad_numbers() {
        assert!(matches!(
            from_csv_str("minutes,a\n0,1,2\n"),
            Err(TimeSeriesError::Csv { line: 2, .. })
        ));
        assert!(matches!(
            from_csv_str("minutes,a\n0,xyz\n"),
            Err(TimeSeriesError::Csv { line: 2, .. })
        ));
        assert!(matches!(
            from_csv_str("minutes,a\nfoo,1\n"),
            Err(TimeSeriesError::Csv { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_non_finite_literals_with_line_numbers() {
        // `"NaN".parse::<f64>()` succeeds — the parser must reject it
        // itself, with the offending line, not let it reach Channel.
        for field in ["NaN", "nan", "inf", "-inf", "Infinity"] {
            let text = format!("minutes,a\n0,1.0\n5,{field}\n");
            match from_csv_str(&text) {
                Err(TimeSeriesError::Csv { line, reason }) => {
                    assert_eq!(line, 3, "wrong line for {field:?}");
                    assert!(
                        reason.contains(field),
                        "reason must quote {field:?}: {reason}"
                    );
                }
                other => panic!("{field:?} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_duplicate_and_empty_header_names() {
        assert!(matches!(
            from_csv_str("minutes,a,b,a\n0,1,2,3\n"),
            Err(TimeSeriesError::Csv { line: 1, .. })
        ));
        assert!(matches!(
            from_csv_str("minutes,a,,b\n0,1,2,3\n"),
            Err(TimeSeriesError::Csv { line: 1, .. })
        ));
    }

    #[test]
    fn header_names_are_trimmed() {
        let ds = from_csv_str("minutes, a , b\n0,1,2\n").unwrap();
        assert_eq!(ds.channel_names(), vec!["a", "b"]);
    }

    #[test]
    fn rejects_non_uniform_steps() {
        assert!(from_csv_str("minutes,a\n0,1\n5,2\n11,3\n").is_err());
        assert!(from_csv_str("minutes,a\n5,1\n0,2\n").is_err());
    }

    #[test]
    fn no_data_rows_is_an_error() {
        assert!(from_csv_str("minutes,a\n").is_err());
    }

    #[test]
    fn single_row_gets_unit_step() {
        let ds = from_csv_str("minutes,a\n42,7.5\n").unwrap();
        assert_eq!(ds.grid().len(), 1);
        assert_eq!(ds.grid().step_minutes(), 1);
        assert_eq!(ds.channel("a").unwrap().value(0), Some(7.5));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let ds = from_csv_str("minutes,a\n0,1\n\n5,2\n").unwrap();
        assert_eq!(ds.grid().len(), 2);
    }

    #[test]
    fn commas_in_channel_names_are_sanitised() {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 1, 1).unwrap();
        let ds = Dataset::new(grid, vec![Channel::from_values("a,b", vec![1.0]).unwrap()]).unwrap();
        let text = to_csv_string(&ds).unwrap();
        assert!(text.starts_with("minutes,a_b"));
    }
}
