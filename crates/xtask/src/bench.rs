//! Parsing and reporting for `cargo xtask bench`.
//!
//! The vendored criterion shim prints one line per benchmark — the
//! figure is the **median** per-iteration wall time over the sampled
//! iterations:
//!
//! ```text
//! bench qr_decompose_5760x61                                 20.750ms/iter over 10 iters
//! ```
//!
//! This module parses those lines and renders the machine-readable
//! `BENCH_<label>.json` document (wall-times, thread count, git
//! revision) that `--compare` diffs between two builds. These are
//! microbenchmarks; the repository benchmark with gated end-to-end
//! metrics is `BENCHMARK.json` / `perfbench/`.
//! Timings are informational, never a pass/fail gate: shared
//! single-CPU runners are too noisy for thresholds, which is also why
//! the shim reports medians rather than means.

use crate::json::escape;

/// One parsed benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name, e.g. `identify/dense_second-order`.
    pub name: String,
    /// Median wall-time per iteration in nanoseconds (the shim
    /// reports the median of its samples; a single preempted
    /// iteration on a noisy shared runner cannot skew it).
    pub median_ns: f64,
    /// Iterations the median was taken over.
    pub iters: u64,
}

/// Parses a `Duration`-debug-formatted time like `71.250ms`, `1.004s`,
/// `603.399µs` or `12ns` into nanoseconds.
pub fn parse_duration_ns(text: &str) -> Option<f64> {
    let split = text.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let (number, unit) = text.split_at(split);
    let value: f64 = number.parse().ok()?;
    let scale = match unit {
        "ns" => 1.0,
        "µs" | "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => return None,
    };
    Some(value * scale)
}

/// Extracts every `bench ...` line from a bench binary's stdout.
///
/// Unparseable lines are skipped: the shim's format is the contract,
/// and anything else (compiler noise, cargo status) is not a
/// measurement.
pub fn parse_bench_output(stdout: &str) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix("bench ") else {
            continue;
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // name  <dur>/iter  over  <n>  iters
        if fields.len() != 5 || fields[2] != "over" || fields[4] != "iters" {
            continue;
        }
        let Some(duration) = fields[1].strip_suffix("/iter") else {
            continue;
        };
        let (Some(median_ns), Ok(iters)) = (parse_duration_ns(duration), fields[3].parse::<u64>())
        else {
            continue;
        };
        out.push(BenchRecord {
            name: fields[0].to_owned(),
            median_ns,
            iters,
        });
    }
    out
}

/// Renders the `BENCH_<label>.json` document.
///
/// Hand-assembled JSON: the vendored serde shim has no serializer, and
/// the schema is flat enough that string assembly stays readable.
pub fn render_json(
    label: &str,
    git_rev: &str,
    threads: usize,
    samples: &str,
    records: &[BenchRecord],
) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"label\": \"{}\",\n", escape(label)));
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", escape(git_rev)));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"samples\": \"{}\",\n", escape(samples)));
    json.push_str("  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"iters\": {}}}{comma}\n",
            escape(&r.name),
            r.median_ns,
            r.iters,
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Why a committed bench report cannot be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The document (still) uses the retired `mean_ns` schema — or
    /// mixes it with `median_ns`. Mixed-unit comparisons silently
    /// mislead, so they are rejected outright; regenerate the report
    /// with `cargo xtask bench`.
    LegacySchema,
    /// No `{"name": ..., "median_ns": ...}` entries were found.
    NoBenches,
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::LegacySchema => write!(
                f,
                "legacy `mean_ns` schema (or a mean/median mix); \
                 regenerate with `cargo xtask bench` before comparing"
            ),
            ReportError::NoBenches => write!(f, "no parseable bench entries"),
        }
    }
}

/// Parses the bench entries out of a `BENCH_<label>.json` report.
///
/// Line-oriented by design: the documents are written by
/// [`render_json`] (one entry per line), and rejecting anything else —
/// in particular the retired `mean_ns` schema — is the point, not a
/// limitation.
pub fn parse_report(json: &str) -> Result<Vec<BenchRecord>, ReportError> {
    if json.contains("\"mean_ns\"") {
        return Err(ReportError::LegacySchema);
    }
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix("{\"name\": \"") else {
            continue;
        };
        let Some(name_end) = rest.find("\", \"median_ns\": ") else {
            continue;
        };
        let name = rest[..name_end].replace("\\\"", "\"").replace("\\\\", "\\");
        let rest = &rest[name_end + "\", \"median_ns\": ".len()..];
        let Some((median, tail)) = rest.split_once(", \"iters\": ") else {
            continue;
        };
        let (Ok(median_ns), Ok(iters)) = (
            median.parse::<f64>(),
            tail.trim_end_matches('}').parse::<u64>(),
        ) else {
            continue;
        };
        out.push(BenchRecord {
            name,
            median_ns,
            iters,
        });
    }
    if out.is_empty() {
        return Err(ReportError::NoBenches);
    }
    Ok(out)
}

/// One before/after pair of a bench comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benchmark name present in both reports.
    pub name: String,
    /// Median ns/iter in the `before` report.
    pub before_ns: f64,
    /// Median ns/iter in the `after` report.
    pub after_ns: f64,
}

impl Comparison {
    /// `before / after` — > 1 means `after` is faster.
    pub fn speedup(&self) -> f64 {
        self.before_ns / self.after_ns
    }
}

/// Pairs up benches present in both reports, in `before` order.
pub fn compare(before: &[BenchRecord], after: &[BenchRecord]) -> Vec<Comparison> {
    before
        .iter()
        .filter_map(|b| {
            after.iter().find(|a| a.name == b.name).map(|a| Comparison {
                name: b.name.clone(),
                before_ns: b.median_ns,
                after_ns: a.median_ns,
            })
        })
        .collect()
}

/// Renders a comparison as an aligned text table.
pub fn render_comparison(rows: &[Comparison]) -> String {
    let mut out = format!(
        "{:<48} {:>12} {:>12} {:>9}\n",
        "bench", "before", "after", "speedup"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<48} {:>9.3} ms {:>9.3} ms {:>8.2}x\n",
            r.name,
            r.before_ns / 1e6,
            r.after_ns / 1e6,
            r.speedup(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_duration_units() {
        assert_eq!(parse_duration_ns("12ns"), Some(12.0));
        assert_eq!(parse_duration_ns("603.399µs"), Some(603_399.0));
        assert_eq!(parse_duration_ns("71.250ms"), Some(71_250_000.0));
        assert_eq!(parse_duration_ns("1.004s"), Some(1_004_000_000.0));
        assert_eq!(parse_duration_ns("7.5parsecs"), None);
        assert_eq!(parse_duration_ns("fast"), None);
    }

    #[test]
    fn parses_shim_output_and_skips_noise() {
        let stdout = "\
   Compiling thermal-bench v0.1.0
bench qr_decompose_5760x61                                 20.750ms/iter over 10 iters
bench identify/dense_second-order                           4.396ms/iter over 10 iters
warning: something unrelated
bench malformed line without the shape
";
        let records = parse_bench_output(stdout);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "qr_decompose_5760x61");
        assert_eq!(records[0].median_ns, 20_750_000.0);
        assert_eq!(records[0].iters, 10);
        assert_eq!(records[1].name, "identify/dense_second-order");
    }

    #[test]
    fn json_document_is_well_formed() {
        let records = vec![
            BenchRecord {
                name: "a/b".to_owned(),
                median_ns: 1234.5,
                iters: 3,
            },
            BenchRecord {
                name: "c".to_owned(),
                median_ns: 5.0,
                iters: 10,
            },
        ];
        let json = render_json("post", "abc1234", 4, "3", &records);
        assert!(json.contains("\"label\": \"post\""));
        assert!(json.contains("\"git_rev\": \"abc1234\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("{\"name\": \"a/b\", \"median_ns\": 1234.5, \"iters\": 3},"));
        assert!(json.contains("{\"name\": \"c\", \"median_ns\": 5.0, \"iters\": 10}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_escapes_quotes() {
        let json = render_json("a\"b", "rev", 1, "default", &[]);
        assert!(json.contains("a\\\"b"));
        // A control character in the label must not reach the document raw.
        let json = render_json("a\tb", "rev", 1, "default", &[]);
        assert!(json.contains("\"label\": \"a\\tb\""), "{json}");
        assert!(crate::json::parse(&json).is_ok());
    }

    #[test]
    fn report_round_trips_through_parse() {
        let records = vec![
            BenchRecord {
                name: "sweep/fig5_training_horizon".to_owned(),
                median_ns: 123_456.7,
                iters: 10,
            },
            BenchRecord {
                name: "odd \"name\"".to_owned(),
                median_ns: 5.0,
                iters: 3,
            },
        ];
        let json = render_json("pre", "abc1234", 1, "default", &records);
        assert_eq!(parse_report(&json), Ok(records));
    }

    #[test]
    fn legacy_mean_schema_is_rejected() {
        let legacy = "{\n  \"benches\": [\n    \
             {\"name\": \"a\", \"mean_ns\": 1.0, \"iters\": 3}\n  ]\n}\n";
        assert_eq!(parse_report(legacy), Err(ReportError::LegacySchema));
        // A mean/median mix is just as unusable.
        let mixed = "{\n  \"benches\": [\n    \
             {\"name\": \"a\", \"median_ns\": 1.0, \"iters\": 3},\n    \
             {\"name\": \"b\", \"mean_ns\": 2.0, \"iters\": 3}\n  ]\n}\n";
        assert_eq!(parse_report(mixed), Err(ReportError::LegacySchema));
        assert_eq!(parse_report("{}\n"), Err(ReportError::NoBenches));
    }

    #[test]
    fn comparison_pairs_by_name_and_reports_speedup() {
        let before = vec![
            BenchRecord {
                name: "a".to_owned(),
                median_ns: 100.0,
                iters: 10,
            },
            BenchRecord {
                name: "gone".to_owned(),
                median_ns: 1.0,
                iters: 10,
            },
        ];
        let after = vec![BenchRecord {
            name: "a".to_owned(),
            median_ns: 20.0,
            iters: 10,
        }];
        let rows = compare(&before, &after);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "a");
        assert!((rows[0].speedup() - 5.0).abs() < 1e-12);
        let table = render_comparison(&rows);
        assert!(table.contains("speedup"));
        assert!(table.contains("5.00x"));
    }
}
