//! The ratcheted lint baseline (`xtask/lint-baseline.json`).
//!
//! The baseline is the committed set of *known* findings — audited
//! code the new rules flag but that a human has reviewed (e.g. the
//! bounds-checked dense kernels in `thermal-linalg`, where `get()`
//! calls in the innermost loop would wreck the cache-blocked layout).
//! `cargo xtask lint` treats a finding that exactly matches a
//! baseline entry (rule, file, line, column *and* the trimmed source
//! line) as suppressed; everything else is active and fails the gate.
//!
//! The ratchet: `cargo xtask lint --update-baseline` rewrites the
//! file from the current findings, but refuses when any rule's entry
//! count would *grow* — the baseline may only shrink (or first
//! appear, when bootstrapping a new rule). Entries that no longer
//! match anything are reported under `stale-allow`, so a remediated
//! finding must be removed from the baseline in the same change.
//!
//! Matching is deliberately brittle: editing a baselined file shifts
//! lines, invalidates the entries, and forces a re-audit via
//! `--update-baseline` — which is the point of a ratchet.

use std::cell::Cell;
use std::fmt;

use crate::json::{self, escape, Value};

/// Relative path of the baseline file under the workspace root.
pub const BASELINE_PATH: &str = "xtask/lint-baseline.json";

/// Schema tag of the baseline document.
pub const SCHEMA: &str = "xtask-lint-baseline/1";

/// One baselined finding.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Trimmed source line at the finding, pinning the entry to the
    /// exact code it was audited against.
    pub snippet: String,
    used: Cell<bool>,
}

impl BaselineEntry {
    /// Whether this entry covers the given finding; single-use, so a
    /// second identical finding stays active.
    pub fn covers(
        &self,
        rule: &str,
        file: &str,
        line: usize,
        column: usize,
        snippet: &str,
    ) -> bool {
        if self.used.get()
            || self.rule != rule
            || self.file != file
            || self.line != line
            || self.column != column
            || self.snippet != snippet
        {
            return false;
        }
        self.used.set(true);
        true
    }

    /// Whether the entry matched a finding during the run.
    pub fn was_used(&self) -> bool {
        self.used.get()
    }
}

impl fmt::Display for BaselineEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {}:{}:{}",
            self.rule, self.file, self.line, self.column
        )
    }
}

/// The parsed baseline.
#[derive(Debug, Default)]
pub struct Baseline {
    /// All entries in file order.
    pub entries: Vec<BaselineEntry>,
}

/// Error produced when the baseline file is malformed.
#[derive(Debug)]
pub struct BaselineError {
    /// 1-based line in the baseline file (0 = whole file).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint-baseline.json:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for BaselineError {}

impl Baseline {
    /// Parses the baseline document.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let doc = json::parse(text).map_err(|e| BaselineError {
            line: e.line,
            message: e.message,
        })?;
        let whole = |message: String| BaselineError { line: 0, message };
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(whole(format!("`schema` must be \"{SCHEMA}\"")));
        }
        let findings = doc
            .get("findings")
            .and_then(Value::as_arr)
            .ok_or_else(|| whole("`findings` must be an array".to_owned()))?;
        let mut entries = Vec::with_capacity(findings.len());
        for (i, f) in findings.iter().enumerate() {
            let field_str = |key: &str| {
                f.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| whole(format!("findings[{i}]: `{key}` must be a string")))
            };
            let field_num = |key: &str| {
                f.get(key)
                    .and_then(Value::as_usize)
                    .ok_or_else(|| whole(format!("findings[{i}]: `{key}` must be an integer")))
            };
            entries.push(BaselineEntry {
                rule: field_str("rule")?,
                file: field_str("file")?,
                line: field_num("line")?,
                column: field_num("column")?,
                snippet: field_str("snippet")?,
                used: Cell::new(false),
            });
        }
        Ok(Baseline { entries })
    }

    /// Whether any entry covers the finding (consumes the entry).
    pub fn covers(
        &self,
        rule: &str,
        file: &str,
        line: usize,
        column: usize,
        snippet: &str,
    ) -> bool {
        self.entries
            .iter()
            .any(|e| e.covers(rule, file, line, column, snippet))
    }

    /// Entries that never matched during the run (stale: the code
    /// they were pinned to is gone or has moved).
    pub fn unused(&self) -> Vec<&BaselineEntry> {
        self.entries.iter().filter(|e| !e.was_used()).collect()
    }

    /// Per-rule entry counts, sorted by rule name — the quantity the
    /// ratchet compares.
    pub fn rule_counts(&self) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for e in &self.entries {
            match counts.iter_mut().find(|(r, _)| r == &e.rule) {
                Some((_, n)) => *n += 1,
                None => counts.push((e.rule.clone(), 1)),
            }
        }
        counts.sort();
        counts
    }
}

/// Renders a baseline document canonically: fixed key order, findings
/// in the caller's (already sorted) order, 2-space indent, trailing
/// newline. Byte-identical for identical inputs.
pub fn render(entries: &[BaselineEntry]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    if entries.is_empty() {
        out.push_str("  \"findings\": []\n");
    } else {
        out.push_str("  \"findings\": [\n");
        for (i, e) in entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"column\": {}, \"snippet\": \"{}\" }}{}\n",
                escape(&e.rule),
                escape(&e.file),
                e.line,
                e.column,
                escape(&e.snippet),
                if i + 1 < entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
    }
    out.push('}');
    out.push('\n');
    out
}

/// Builds an (unused) entry — the constructor `--update-baseline`
/// uses when freezing current findings.
pub fn entry(rule: &str, file: &str, line: usize, column: usize, snippet: &str) -> BaselineEntry {
    BaselineEntry {
        rule: rule.to_owned(),
        file: file.to_owned(),
        line,
        column,
        snippet: snippet.to_owned(),
        used: Cell::new(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Baseline {
        Baseline {
            entries: vec![
                entry("hot-path-index", "crates/a/src/lib.rs", 3, 9, "x[i]"),
                entry("hot-path-index", "crates/a/src/lib.rs", 7, 5, "y[j]"),
                entry("module-doc", "crates/b/src/lib.rs", 1, 1, "use x;"),
            ],
        }
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let text = render(&sample().entries);
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.entries.len(), 3);
        assert_eq!(parsed.entries[0].rule, "hot-path-index");
        assert_eq!(parsed.entries[2].line, 1);
        // Canonical: rendering the parse yields the same bytes.
        assert_eq!(render(&parsed.entries), text);
    }

    #[test]
    fn covers_is_exact_and_single_use() {
        let b = sample();
        assert!(!b.covers("hot-path-index", "crates/a/src/lib.rs", 3, 9, "x[k]"));
        assert!(b.covers("hot-path-index", "crates/a/src/lib.rs", 3, 9, "x[i]"));
        // Second identical finding is NOT covered: entries are single-use.
        assert!(!b.covers("hot-path-index", "crates/a/src/lib.rs", 3, 9, "x[i]"));
        assert_eq!(b.unused().len(), 2);
    }

    #[test]
    fn rule_counts_aggregate() {
        let counts = sample().rule_counts();
        assert_eq!(
            counts,
            vec![
                ("hot-path-index".to_owned(), 2),
                ("module-doc".to_owned(), 1)
            ]
        );
    }

    #[test]
    fn rejects_wrong_schema_and_malformed_entries() {
        let err = Baseline::parse("{\"schema\": \"nope\", \"findings\": []}").unwrap_err();
        assert!(err.message.contains("schema"));
        let err = Baseline::parse(
            "{\"schema\": \"xtask-lint-baseline/1\", \"findings\": [{\"rule\": 3}]}",
        )
        .unwrap_err();
        assert!(err.message.contains("findings[0]"));
        // Syntax errors carry the source line.
        let err = Baseline::parse("{\n  broken\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn empty_baseline_renders_compactly() {
        let text = render(&[]);
        assert!(text.contains("\"findings\": []"));
        assert!(Baseline::parse(&text).unwrap().entries.is_empty());
    }
}
