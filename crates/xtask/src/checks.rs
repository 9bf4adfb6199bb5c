//! The token-level static-analysis engine behind `cargo xtask lint`.
//!
//! The engine holds the rules clippy cannot express. Clippy's deny
//! wall (`[workspace.lints.clippy]` in the root `Cargo.toml` plus
//! `clippy.toml`, the `clippy` step of `cargo xtask ci`) enforces "no
//! panics, no lossy casts, no unordered containers, no ambient
//! clock/env/thread reads", except for panics inside `macro_rules!`
//! bodies, which it does not lint; DESIGN.md § 10 maps every rule to
//! its enforcer. The rules here run over the token stream produced by
//! [`crate::lexer`] with the scope annotations of [`crate::model`] —
//! string/comment contents can never false-match, `#[cfg(test)]`
//! regions are exempt, and every finding carries an exact line/column
//! span.
//!
//! - `module-doc` — every library source file opens with a `//!` doc.
//! - `error-type` — every `error.rs` implements `Display` and
//!   `std::error::Error`.
//! - `lints-opt-in` — every member crate opts into the workspace lint
//!   wall.
//! - `wall-exception` — no `allow`/`expect` attribute lets library
//!   code opt out of clippy's wall: naming a panic, lossy-cast or
//!   `disallowed_*` lint, or a group holding one (`restriction`,
//!   `pedantic`, `style`, `all`), is a finding. The sanctioned casts
//!   are baselined; a module in [`AMBIENT_READ_MODULES`] may put an
//!   item-level `#[expect(clippy::disallowed_methods, reason = "…")]`
//!   on the item that reads a clock or the environment.
//! - `macro-panic` — no `.unwrap()`/`.expect(..)` or `panic!`-family
//!   macro inside a `macro_rules!` body, the one place clippy's
//!   panic-free lints do not reach.
//! - `float-reduction-order` — no `.values()`/`.keys()`-style
//!   iteration flowing into a float reduction (`sum`/`product`/
//!   `fold`) in one method chain; float addition is non-associative,
//!   so the reduction order must be an indexed, stable one.
//! - `stale-allow` — every baseline entry must match a finding, and
//!   `baseline` reports a malformed baseline file.
//!
//! Panic-reachability family, scoped to [`HOT_PATH_MODULES`]:
//!
//! - `hot-path-index` — `[]` indexing (including partial-range
//!   slicing) panics on a bad bound; use `get`/iterators/split
//!   borrows, or record an audited bounds rationale in the baseline.
//!   A full-range `[..]` cannot panic and is exempt.
//! - `hot-path-arith` — unchecked `+ - * /` *inside an index
//!   expression*: overflow in the index computation aborts before the
//!   bounds check ever runs, so these must be `checked_*`/
//!   `wrapping_*` or audited. (Scoping to index expressions is
//!   deliberate: a token engine cannot see types, and flagging all
//!   arithmetic would drown the float kernels in noise — see
//!   DESIGN.md.)
//! - `hot-path-alloc` — allocation-acquiring calls (`Vec::new`,
//!   `vec!`, `.to_vec()`, `.clone()`, `Box::new`, `String::from`) in
//!   the [`STEADY_STATE_MODULES`], which carry the zero-allocation
//!   serving budget of DESIGN.md § allocation budget. Constructor and
//!   refit allocations that predate the budget live in the ratcheted
//!   baseline; the runtime proof is
//!   `crates/stream/tests/alloc_free.rs`.
//!
//! In files that implement the `Snapshot` trait, the bodies of
//! `fn capture` / `fn restore` are exempt from the hot-path family:
//! the snapshot codec runs once per snapshot boundary (tens of slots
//! apart), never in the per-event serving loop, so the
//! zero-allocation and no-panic-index budgets do not apply there.
//!
//! The baseline is the one suppression: baselined findings stay in
//! the report marked as such, and only *active* findings fail the
//! gate.

use crate::baseline::{self, Baseline, BASELINE_PATH};
use crate::json::escape;
use crate::lexer::{lex, Token, TokenKind};
use crate::model::{build, matching_bracket, TokenCtx, KEYWORDS};
use std::fmt;
use std::path::{Path, PathBuf};

/// Path prefixes whose item-level, reasoned `expect` of clippy's
/// `disallowed_methods` is sanctioned (rule `wall-exception`): the
/// repro binary, which times its experiments, and the two
/// configuration surfaces read from the environment — the
/// `thermal-par` thread-count pin and the `thermal-faults` kill-point
/// switch. Nothing else may read a wall clock or the environment: a
/// wall timestamp in a report or a snapshot record would break the
/// byte comparisons of `cargo xtask soak`. Designate a new module by
/// adding its workspace-relative path prefix here.
pub const AMBIENT_READ_MODULES: &[&str] = &[
    "crates/bench/src/bin/repro.rs",
    "crates/par/src/lib.rs",
    "crates/faults/src/killpoint.rs",
];

/// Path prefixes where reachable panics are findings (the hot-path
/// family): the streaming ingest path, the dense kernels and the
/// reduction kernels they share.
pub const HOT_PATH_MODULES: &[&str] = &[
    "crates/stream/src/service.rs",
    "crates/stream/src/reorder.rs",
    "crates/stream/src/health.rs",
    "crates/linalg/src/matrix.rs",
    "crates/linalg/src/kernels.rs",
    "crates/par/src/lib.rs",
];

/// Path prefixes under the steady-state allocation budget (rule
/// `hot-path-alloc`): the modules a warmed-up `StreamService` event —
/// `step` + `predict_into` — executes. Allocation-acquiring calls
/// here are findings; constructor/warm-up allocations are absorbed by
/// the ratcheted baseline, which only ever shrinks (see DESIGN.md
/// § allocation budget and `crates/stream/tests/alloc_free.rs` for
/// the runtime proof).
pub const STEADY_STATE_MODULES: &[&str] = &[
    "crates/stream/src/reorder.rs",
    "crates/stream/src/queue.rs",
    "crates/stream/src/health.rs",
    "crates/stream/src/drift.rs",
    "crates/stream/src/service.rs",
    "crates/stream/src/online.rs",
];

/// A single finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: usize,
    /// 1-based byte column (0 for whole-line findings).
    pub column: usize,
    /// Span length in bytes (0 when no precise span exists).
    pub len: usize,
    /// Rule identifier (e.g. `hot-path-index`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Trimmed source line at the finding (empty for whole-file
    /// findings) — what baseline entries pin against.
    pub snippet: String,
    /// Covered by an `xtask/lint-baseline.json` entry (`false` =
    /// active, fails the gate).
    pub baselined: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.column) {
            (0, _) => write!(f, "{}: [{}] {}", self.file, self.rule, self.message),
            (l, 0) => write!(f, "{}:{}: [{}] {}", self.file, l, self.rule, self.message),
            (l, c) => write!(
                f,
                "{}:{}:{}: [{}] {}",
                self.file, l, c, self.rule, self.message
            ),
        }
    }
}

/// Clippy lints (and the groups holding them) that no library file
/// may `allow` or `expect`: the panic-free, lossy-cast and
/// determinism wall. Its audited exceptions are baselined, apart from
/// the ambient reads of the [`AMBIENT_READ_MODULES`].
const WALLED_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "dbg_macro",
    "cast_possible_truncation",
    "cast_sign_loss",
    "disallowed_methods",
    "disallowed_types",
    "restriction",
    "pedantic",
    "style",
    "all",
];

/// Methods of the panic family (clippy's `unwrap_used`/`expect_used`).
const PANIC_METHODS: &[&str] = &["unwrap", "unwrap_err", "expect", "expect_err"];

/// Macros of the panic family (clippy's `panic`, `unreachable`, `todo`,
/// `unimplemented` and `dbg_macro`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "dbg"];

/// Chain heads that iterate a container in storage order.
const REDUCTION_SOURCES: &[&str] = &["values", "into_values", "keys", "into_keys"];

/// Reductions that are order-sensitive over floats.
const REDUCTIONS: &[&str] = &["sum", "product", "fold"];

fn path_in(rel_path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p))
}

fn is_indexable(prev: &Token) -> bool {
    match prev.kind {
        TokenKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
        _ => false,
    }
}

/// Index just past a turbofish generic list starting at the `<` at
/// `open`. `<<`/`>>` count double; `->` counts zero.
fn skip_angles(toks: &[Token], open: usize) -> usize {
    let mut depth = 0_i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            _ => {}
        }
        if depth <= 0 {
            return j + 1;
        }
    }
    toks.len()
}

/// Scans one library source file; pushes its findings onto `out`.
///
/// `rel_path` is the workspace-relative path used for reporting and
/// for the module designations ([`HOT_PATH_MODULES`] etc.).
pub fn check_source(rel_path: &str, content: &str, out: &mut Vec<Finding>) {
    let model = build(content);
    let lines: Vec<&str> = content.lines().collect();
    let first_nonempty = lines
        .iter()
        .copied()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");

    let mut push = |line: usize, column: usize, len: usize, rule: &'static str, message: String| {
        let line_text = if line >= 1 {
            lines.get(line - 1).copied().unwrap_or("")
        } else {
            first_nonempty
        };
        out.push(Finding {
            file: rel_path.to_owned(),
            line,
            column,
            len,
            rule,
            message,
            snippet: line_text.trim().to_owned(),
            baselined: false,
        });
    };

    // module-doc: whole-file finding.
    if !model.lexed.has_module_doc {
        push(
            0,
            0,
            0,
            "module-doc",
            "library file must open with a `//!` module doc".to_owned(),
        );
    }

    let ambient = path_in(rel_path, AMBIENT_READ_MODULES);
    let hot = path_in(rel_path, HOT_PATH_MODULES);
    let steady = path_in(rel_path, STEADY_STATE_MODULES);

    let toks = &model.lexed.tokens;
    let n = toks.len();
    // One past the last token of the `macro_rules!` bodies seen so far.
    let mut macro_end = 0_usize;

    // Snapshot codec fns are cold path: `capture`/`restore` run once
    // per snapshot boundary (tens of slots apart), never per event,
    // so the steady-state allocation and hot-path indexing budgets do
    // not apply inside them. Scoped to files that implement the
    // `Snapshot` trait so an unrelated `fn restore` stays budgeted.
    let snapshot_codec_file = (0..n.saturating_sub(1))
        .any(|i| toks[i].is_ident("impl") && toks[i + 1].is_ident("Snapshot"));
    let in_snapshot_codec = |ctx: TokenCtx| {
        snapshot_codec_file
            && ctx.fn_idx.is_some_and(|f| {
                matches!(
                    model.fns.get(f as usize).map(String::as_str),
                    Some("capture" | "restore")
                )
            })
    };

    for i in 0..n {
        let ctx = model.ctx[i];
        if ctx.in_test {
            continue;
        }
        let t = &toks[i];
        let at = |len: usize| (t.line, t.col, len);
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = |k: usize| toks.get(i + k);

        if ctx.in_attr {
            // wall-exception: an outer or inner attribute (`cfg_attr`
            // included) whose `allow(..)`/`expect(..)` names a walled
            // `clippy::` lint. The one form a designated module may
            // use is an item-level, reasoned
            // `#[expect(clippy::disallowed_methods, reason = "…")]`,
            // which covers that item alone and fails clippy once stale.
            if t.is_punct("#") {
                let inner = next(1).is_some_and(|p| p.is_punct("!"));
                let open = if inner { i + 2 } else { i + 1 };
                let attr = toks.get(open..=matching_bracket(toks, open)).unwrap_or(&[]);
                for (k, level) in attr.iter().enumerate() {
                    if !(level.is_ident("allow") || level.is_ident("expect"))
                        || !attr.get(k + 1).is_some_and(|p| p.is_punct("("))
                    {
                        continue;
                    }
                    let args = attr
                        .get(k + 2..matching_bracket(attr, k + 1))
                        .unwrap_or(&[]);
                    let sanctioned_read = ambient
                        && !inner
                        && level.is_ident("expect")
                        && args.iter().any(|a| a.is_ident("reason"));
                    for w in args.windows(3) {
                        let [tool, sep, lint] = w else { continue };
                        let name = lint.text.as_str();
                        let walled = tool.is_ident("clippy")
                            && sep.is_punct("::")
                            && WALLED_LINTS.contains(&name);
                        if !walled || (sanctioned_read && name == "disallowed_methods") {
                            continue;
                        }
                        let message = if name == "disallowed_methods" {
                            format!(
                                "`{}(clippy::disallowed_methods)`: only a designated ambient-read module (see AMBIENT_READ_MODULES in xtask) may read a clock or the environment, under an item-level `#[expect(.., reason = \"…\")]`; pass the clock or configuration in as an argument",
                                level.text
                            )
                        } else {
                            format!(
                                "`{}(clippy::{name})` opts library code out of the workspace lint wall; fix the code instead (DESIGN.md § 10)",
                                level.text
                            )
                        };
                        let len = if lint.line == tool.line {
                            lint.col + lint.text.len() - tool.col
                        } else {
                            tool.text.len()
                        };
                        push(tool.line, tool.col, len, "wall-exception", message);
                    }
                }
            }
            continue;
        }

        if t.kind == TokenKind::Ident {
            let name = t.text.as_str();
            let path2 = |a: &str, b: &str| {
                t.is_ident(a)
                    && next(1).is_some_and(|p| p.is_punct("::"))
                    && next(2).is_some_and(|p| p.is_ident(b))
            };

            // macro-panic: clippy reports none of the panic family in a
            // `macro_rules!` body (`unwrap_used`/`expect_used` skip
            // expanded code, and the macro lints resolve to the
            // outermost macro call), so the rule is held here.
            if name == "macro_rules"
                && next(1).is_some_and(|p| p.is_punct("!"))
                && next(3).is_some_and(|p| p.is_punct("{") || p.is_punct("(") || p.is_punct("["))
            {
                macro_end = macro_end.max(matching_bracket(toks, i + 3) + 1);
            } else if i < macro_end {
                let call = if PANIC_METHODS.contains(&name)
                    && prev.is_some_and(|p| p.is_punct("."))
                    && next(1).is_some_and(|p| p.is_punct("("))
                {
                    Some(format!(".{name}(..)"))
                } else if PANIC_MACROS.contains(&name) && next(1).is_some_and(|p| p.is_punct("!")) {
                    Some(format!("{name}!"))
                } else {
                    None
                };
                if let Some(call) = call {
                    let (line, col, len) = at(name.len());
                    push(
                        line,
                        col,
                        len,
                        "macro-panic",
                        format!(
                            "`{call}` in a `macro_rules!` body, where clippy's panic-free wall does not reach; return a typed error instead (DESIGN.md § 10)"
                        ),
                    );
                }
            }

            // hot-path-alloc: allocation acquisition in a
            // steady-state stream module. Constructor-time and
            // refit-time allocations that predate the budget live in
            // the ratcheted baseline; new ones are findings. Snapshot
            // capture/restore is boundary-rate, not event-rate.
            if steady && !in_snapshot_codec(ctx) {
                if path2("Vec", "new") || path2("Box", "new") || path2("String", "from") {
                    let (line, col, len) = at(t.text.len());
                    let callee = next(2).map(|p| p.text.clone()).unwrap_or_default();
                    push(
                        line,
                        col,
                        len,
                        "hot-path-alloc",
                        format!(
                            "`{name}::{callee}` allocates in a steady-state stream module (see STEADY_STATE_MODULES in xtask); reuse a scratch buffer sized at construction — DESIGN.md § allocation budget, in {}",
                            model.describe(i)
                        ),
                    );
                }
                if name == "vec" && next(1).is_some_and(|p| p.is_punct("!")) {
                    let (line, col, len) = at(t.text.len());
                    push(
                        line,
                        col,
                        len,
                        "hot-path-alloc",
                        format!(
                            "`vec!` allocates in a steady-state stream module; reuse a scratch buffer sized at construction — DESIGN.md § allocation budget, in {}",
                            model.describe(i)
                        ),
                    );
                }
                if matches!(name, "to_vec" | "clone")
                    && prev.is_some_and(|p| p.is_punct("."))
                    && next(1).is_some_and(|p| p.is_punct("("))
                {
                    let (line, col, len) = at(t.text.len());
                    push(
                        line,
                        col,
                        len,
                        "hot-path-alloc",
                        format!(
                            "`.{name}()` may allocate in a steady-state stream module; copy into a reused buffer (`clone_from`/`copy_from_slice`) instead — DESIGN.md § allocation budget, in {}",
                            model.describe(i)
                        ),
                    );
                }
            }

            // float-reduction-order: a chain starting at a
            // storage-order iterator and ending in an order-sensitive
            // reduction.
            if REDUCTION_SOURCES.contains(&name)
                && prev.is_some_and(|p| p.is_punct("."))
                && next(1).is_some_and(|p| p.is_punct("("))
                && next(2).is_some_and(|p| p.is_punct(")"))
            {
                let mut j = i + 3;
                while j < n {
                    if toks[j].is_punct("?") {
                        j += 1;
                        continue;
                    }
                    if !toks[j].is_punct(".") {
                        break;
                    }
                    let Some(m) = toks.get(j + 1).filter(|m| m.kind == TokenKind::Ident) else {
                        break;
                    };
                    // Optional turbofish, then the call parens.
                    let mut k = j + 2;
                    if toks.get(k).is_some_and(|p| p.is_punct("::"))
                        && toks.get(k + 1).is_some_and(|p| p.is_punct("<"))
                    {
                        k = skip_angles(toks, k + 1);
                    }
                    if !toks.get(k).is_some_and(|p| p.is_punct("(")) {
                        // Field access / `.await`: keep walking.
                        j += 2;
                        continue;
                    }
                    if REDUCTIONS.contains(&m.text.as_str()) {
                        push(
                            m.line,
                            m.col,
                            m.text.len(),
                            "float-reduction-order",
                            format!(
                                "`.{name}()` iteration feeding `.{}()`; float reductions must run in an indexed, stable order — collect into a sorted order first",
                                m.text
                            ),
                        );
                        break;
                    }
                    j = matching_bracket(toks, k) + 1;
                }
            }
        }

        // hot-path-index / hot-path-arith. Snapshot codec fns are exempt:
        // they run at snapshot boundaries, not in the per-event loop.
        if hot && !in_snapshot_codec(ctx) && t.is_punct("[") && prev.is_some_and(is_indexable) {
            let close = matching_bracket(toks, i);
            let inner = &toks[i + 1..close];
            let full_range = inner.len() == 1 && inner[0].is_punct("..");
            if !full_range {
                push(
                    t.line,
                    t.col,
                    1,
                    "hot-path-index",
                    format!(
                        "`[]` indexing in a designated hot-path module; use `get`/iterators/split borrows, or record an audited bounds rationale in the baseline, in {}",
                        model.describe(i)
                    ),
                );
            }
            // Unchecked arithmetic inside this index expression, at
            // this bracket's own nesting level (nested `[` regions are
            // scanned when the outer loop reaches them).
            let mut nested = 0_usize;
            for (off, it) in inner.iter().enumerate() {
                if it.is_punct("[") {
                    nested += 1;
                } else if it.is_punct("]") {
                    nested = nested.saturating_sub(1);
                }
                if nested > 0 {
                    continue;
                }
                if it.kind == TokenKind::Punct && matches!(it.text.as_str(), "+" | "-" | "*" | "/")
                {
                    let binary = off > 0
                        && match &inner[off - 1] {
                            p if p.kind == TokenKind::Ident => !KEYWORDS.contains(&p.text.as_str()),
                            p if p.kind == TokenKind::Num => true,
                            p => p.is_punct(")") || p.is_punct("]"),
                        };
                    if binary {
                        push(
                            it.line,
                            it.col,
                            it.text.len(),
                            "hot-path-arith",
                            format!(
                                "unchecked `{}` inside an index expression; overflow panics before the bounds check — use `checked_*`/`wrapping_*` or record an audited rationale, in {}",
                                it.text,
                                model.describe(i)
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Checks a crate's `Cargo.toml` for the `[lints] workspace = true`
/// opt-in.
pub fn check_lints_opt_in(rel_path: &str, manifest: &str, out: &mut Vec<Finding>) {
    let mut in_lints = false;
    let mut opted_in = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            opted_in = true;
        }
    }
    if !opted_in {
        out.push(Finding {
            file: rel_path.to_owned(),
            line: 0,
            column: 0,
            len: 0,
            rule: "lints-opt-in",
            message: "crate must opt into the workspace lint wall with `[lints] workspace = true`"
                .to_owned(),
            snippet: String::new(),
            baselined: false,
        });
    }
}

/// Checks a crate's `error.rs` for `Display` + `std::error::Error`
/// implementations (token-level, so a doc comment mentioning
/// `Display for` no longer satisfies it).
pub fn check_error_type(rel_path: &str, content: &str, out: &mut Vec<Finding>) {
    let lexed = lex(content);
    let toks = &lexed.tokens;
    let impl_pair = |trait_name: &str| {
        toks.windows(2)
            .any(|w| w[0].is_ident(trait_name) && w[1].is_ident("for"))
    };
    let mut missing = |message: &str| {
        out.push(Finding {
            file: rel_path.to_owned(),
            line: 0,
            column: 0,
            len: 0,
            rule: "error-type",
            message: message.to_owned(),
            snippet: String::new(),
            baselined: false,
        });
    };
    if !impl_pair("Display") {
        missing("crate error type must implement `std::fmt::Display`");
    }
    if !impl_pair("Error") {
        missing("crate error type must implement `std::error::Error`");
    }
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// The full result of a lint run: every finding, suppressed or not,
/// in canonical order.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (file, line, column, rule, message).
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Findings that fail the gate.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.baselined)
    }

    /// (active, baselined) counts.
    pub fn counts(&self) -> (usize, usize) {
        let baselined = self.findings.iter().filter(|f| f.baselined).count();
        (self.findings.len() - baselined, baselined)
    }

    /// Renders the canonical machine-readable report (SARIF-lite).
    /// Byte-identical across runs on identical input: fixed key
    /// order, sorted findings, no timestamps.
    pub fn render_json(&self) -> String {
        let (active, baselined) = self.counts();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"xtask-lint/2\",\n");
        out.push_str(&format!(
            "  \"summary\": {{ \"active\": {active}, \"baselined\": {baselined} }},\n"
        ));
        if self.findings.is_empty() {
            out.push_str("  \"findings\": []\n");
        } else {
            out.push_str("  \"findings\": [\n");
            for (i, f) in self.findings.iter().enumerate() {
                out.push_str(&format!(
                    "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"column\": {}, \"length\": {}, \"message\": \"{}\", \"snippet\": \"{}\", \"suppression\": \"{}\" }}{}\n",
                    escape(f.rule),
                    escape(&f.file),
                    f.line,
                    f.column,
                    f.len,
                    escape(&f.message),
                    escape(&f.snippet),
                    if f.baselined { "baseline" } else { "none" },
                    if i + 1 < self.findings.len() { "," } else { "" }
                ));
            }
            out.push_str("  ]\n");
        }
        out.push_str("}\n");
        out
    }
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.rule, &a.message)
            .cmp(&(&b.file, b.line, b.column, b.rule, &b.message))
    });
}

/// Walks the workspace and produces every rule's findings, sorted,
/// before the baseline is applied.
fn collect(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("Cargo.toml").exists())
        .collect();
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        let rel = |p: &Path| -> String {
            p.strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/")
        };
        let manifest_path = crate_dir.join("Cargo.toml");
        let manifest = std::fs::read_to_string(&manifest_path)?;
        check_lints_opt_in(&rel(&manifest_path), &manifest, &mut findings);

        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        walk_rs_files(&src, &mut files)?;
        for file in &files {
            let content = std::fs::read_to_string(file)?;
            let rel_path = rel(file);
            check_source(&rel_path, &content, &mut findings);
            if file.file_name().is_some_and(|n| n == "error.rs") {
                check_error_type(&rel_path, &content, &mut findings);
            }
        }
    }
    sort_findings(&mut findings);
    Ok(findings)
}

/// Runs every check over the workspace rooted at `root`, marks the
/// findings the baseline covers, and reports its stale entries as
/// findings.
pub fn run_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut findings = collect(root)?;
    let bpath = root.join(BASELINE_PATH);
    if bpath.exists() {
        match Baseline::parse(&std::fs::read_to_string(&bpath)?) {
            Ok(base) => {
                for f in findings.iter_mut() {
                    f.baselined = base.covers(f.rule, &f.file, f.line, f.column, &f.snippet);
                }
                for e in base.unused() {
                    findings.push(Finding {
                        file: BASELINE_PATH.to_owned(),
                        line: 0,
                        column: 0,
                        len: 0,
                        rule: "stale-allow",
                        message: format!(
                            "baseline entry ({e}) no longer matches; run `cargo xtask lint --update-baseline`"
                        ),
                        snippet: String::new(),
                        baselined: false,
                    });
                }
            }
            Err(e) => findings.push(Finding {
                file: BASELINE_PATH.to_owned(),
                line: e.line,
                column: 0,
                len: 0,
                rule: "baseline",
                message: e.message,
                snippet: String::new(),
                baselined: false,
            }),
        }
    }
    sort_findings(&mut findings);
    Ok(LintReport { findings })
}

/// Result of `cargo xtask lint --update-baseline`.
#[derive(Debug)]
pub enum BaselineUpdate {
    /// Baseline rewritten with this many entries.
    Written {
        /// Entry count of the new baseline.
        entries: usize,
    },
    /// Refused — the update would violate the ratchet or the inputs
    /// are malformed.
    Refused {
        /// Human-readable reason.
        reason: String,
    },
}

/// Rewrites `xtask/lint-baseline.json` from the current findings.
///
/// The ratchet: refuses when any rule's entry count would grow over
/// the committed baseline — the baseline may only shrink. A missing
/// baseline file bootstraps freely; to bootstrap entries for a
/// brand-new rule against an existing baseline, delete the file and
/// regenerate it (a deliberate speed bump).
pub fn update_baseline(root: &Path) -> std::io::Result<BaselineUpdate> {
    let entries: Vec<_> = collect(root)?
        .iter()
        .map(|f| baseline::entry(f.rule, &f.file, f.line, f.column, &f.snippet))
        .collect();

    let bpath = root.join(BASELINE_PATH);
    if bpath.exists() {
        let old = match Baseline::parse(&std::fs::read_to_string(&bpath)?) {
            Ok(b) => b,
            Err(e) => {
                return Ok(BaselineUpdate::Refused {
                    reason: format!("existing baseline is malformed ({e}); fix or delete it"),
                })
            }
        };
        let old_counts = old.rule_counts();
        let new_counts = Baseline {
            entries: entries.clone(),
        }
        .rule_counts();
        for (rule, new_n) in &new_counts {
            let old_n = old_counts
                .iter()
                .find(|(r, _)| r == rule)
                .map_or(0, |(_, n)| *n);
            if *new_n > old_n {
                return Ok(BaselineUpdate::Refused {
                    reason: format!(
                        "ratchet: rule `{rule}` would grow from {old_n} to {new_n} baseline entries; fix the new findings instead"
                    ),
                });
            }
        }
    }

    let text = baseline::render(&entries);
    if let Some(parent) = bpath.parent() {
        std::fs::create_dir_all(parent)?;
    }
    thermal_ckpt::write_atomic(&bpath, text.as_bytes())
        .map_err(|e| std::io::Error::other(format!("writing {}: {e}", bpath.display())))?;
    Ok(BaselineUpdate::Written {
        entries: entries.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_at(path: &str, content: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check_source(path, content, &mut out);
        out
    }

    fn scan(content: &str) -> Vec<Finding> {
        scan_at("crates/demo/src/lib.rs", content)
    }

    #[test]
    fn ignores_test_modules_and_resumes_after() {
        let v = scan(
            "//! doc\n\
             #[cfg(test)]\n\
             mod tests { fn t(m: &M) -> f64 { m.values().sum() } }\n\
             fn g(m: &M) -> f64 { m.values().sum() }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "float-reduction-order");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn ignores_comments_and_strings_even_raw() {
        let v = scan(
            "//! doc\n\
             // calling m.values().sum() would be bad\n\
             /* #[allow(clippy::panic)] /* nested */ still */\n\
             fn f() { let s = r#\"#[allow(clippy::unwrap_used)] m.values().sum()\"#; let _ = s; }\n",
        );
        assert!(v.is_empty(), "comments/strings should be exempt: {v:?}");
    }

    #[test]
    fn missing_module_doc_flagged() {
        let v = scan("fn f() {}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "module-doc");
        assert_eq!(v[0].line, 0);
    }

    #[test]
    fn wall_exception_flags_outer_and_inner_allow_and_expect() {
        for (attr, column) in [
            ("#[allow(clippy::unwrap_used)]", 9),
            ("#![allow(clippy::unwrap_used)]", 10),
            ("#[expect(clippy::unwrap_used, reason = \"r\")]", 10),
            ("#![expect(clippy::unwrap_used, reason = \"r\")]", 11),
        ] {
            let v = scan(&format!("//! doc\n{attr}\nfn f() {{}}\n"));
            assert_eq!(v.len(), 1, "{attr}: {v:?}");
            assert_eq!(v[0].rule, "wall-exception");
            assert_eq!((v[0].line, v[0].column), (2, column), "{attr}");
            assert_eq!(v[0].len, "clippy::unwrap_used".len(), "{attr}");
        }
        for lint in [
            "unwrap_used",
            "expect_used",
            "panic",
            "unreachable",
            "todo",
            "unimplemented",
            "dbg_macro",
            "cast_possible_truncation",
            "cast_sign_loss",
            "disallowed_methods",
            "disallowed_types",
        ] {
            let v = scan(&format!("//! doc\n#[allow(clippy::{lint})]\nfn f() {{}}\n"));
            assert_eq!(v.len(), 1, "{lint}: {v:?}");
        }
    }

    #[test]
    fn wall_exception_finds_a_lint_inside_a_longer_list() {
        let v = scan(
            "//! doc\n#[allow(dead_code, clippy::too_many_arguments, clippy::panic)]\nfn f() {}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].column), (2, 48));
        assert!(v[0].message.contains("clippy::panic"), "{v:?}");
        // `cfg_attr` wrapping counts; lints outside the wall do not.
        let v =
            scan("//! doc\n#[cfg_attr(feature = \"x\", expect(clippy::dbg_macro))]\nfn f() {}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        for attr in [
            "#[allow(clippy::too_many_arguments)]",
            "#[allow(clippy::cast_precision_loss)]",
            "#[allow(dead_code)]",
            "#[deny(clippy::unwrap_used)]",
        ] {
            let v = scan(&format!("//! doc\n{attr}\nfn f() {{}}\n"));
            assert!(v.is_empty(), "{attr}: {v:?}");
        }
    }

    #[test]
    fn wall_exception_flags_the_groups() {
        for group in ["restriction", "pedantic", "style", "all"] {
            let v = scan(&format!("//! doc\n#![allow(clippy::{group})]\n"));
            assert_eq!(v.len(), 1, "{group}: {v:?}");
            assert_eq!(v[0].rule, "wall-exception");
        }
    }

    #[test]
    fn wall_exception_exempts_cfg_test() {
        let v = scan(
            "//! doc\n\
             #[cfg(test)]\n\
             #[allow(clippy::unwrap_used)]\n\
             fn helper() {}\n\
             #[allow(clippy::panic)]\n\
             #[cfg(test)]\n\
             fn other_helper() {}\n\
             #[cfg(test)]\n\
             mod tests { #![allow(clippy::restriction)] }\n\
             #[allow(clippy::expect_used)]\n\
             fn live() {}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 10);
    }

    #[test]
    fn wall_exception_designations_exempt_only_disallowed_lints() {
        let sanctioned = "#[expect(clippy::disallowed_methods, reason = \"r\")]";
        for file in AMBIENT_READ_MODULES {
            let v = scan_at(file, &format!("//! doc\n{sanctioned}\nfn f() {{}}\n"));
            assert!(v.is_empty(), "{file}: {v:?}");
            // Only that form: no `allow`, no module-wide inner
            // attribute, no missing reason, no other walled lint.
            for attr in [
                "#[allow(clippy::disallowed_methods)]",
                "#![expect(clippy::disallowed_methods, reason = \"r\")]",
                "#[expect(clippy::disallowed_methods)]",
                "#[expect(clippy::disallowed_types, reason = \"r\")]",
                "#[expect(clippy::style, reason = \"r\")]",
                "#[expect(clippy::unwrap_used, reason = \"r\")]",
                "#[allow(clippy::restriction)]",
            ] {
                let v = scan_at(file, &format!("//! doc\n{attr}\nfn f() {{}}\n"));
                assert_eq!(v.len(), 1, "{file} {attr}: {v:?}");
            }
        }
        let v = scan(&format!("//! doc\n{sanctioned}\nfn f() {{}}\n"));
        assert_eq!(v.len(), 1, "undesignated file: {v:?}");
    }

    #[test]
    fn flags_float_int_casts() {
        // Clippy denies the lossy casts themselves; opting a library
        // item out of that denial is the token engine's finding.
        for attr in [
            "#[allow(clippy::cast_possible_truncation)]",
            "#[expect(clippy::cast_sign_loss, reason = \"r\")]",
            "#[allow(clippy::pedantic)]",
        ] {
            let v = scan(&format!(
                "//! doc\n{attr}\nfn f(x: f64) -> usize {{ x.floor() as usize }}\n"
            ));
            assert_eq!(v.len(), 1, "{attr}: {v:?}");
            assert_eq!(v[0].rule, "wall-exception");
        }
        let v = scan("//! doc\nfn f(x: f64) -> usize { x.floor() as usize }\n");
        assert!(v.is_empty(), "the cast is clippy's to report: {v:?}");
    }

    #[test]
    fn unordered_container_flagged_outside_tests() {
        let v = scan(
            "//! doc\n\
             #[allow(clippy::disallowed_types)]\n\
             fn live() -> std::collections::HashSet<u8> { Default::default() }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[allow(clippy::disallowed_types)]\n\
                 fn t() -> std::collections::HashSet<u8> { Default::default() }\n\
             }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("wall-exception", 2));
    }

    #[test]
    fn ambient_authority_respects_designations() {
        // The repro binary is the designated clock module; its
        // exception sits on the item that reads the clock.
        let v = scan_at(
            "crates/bench/src/bin/repro.rs",
            "//! doc\n#[expect(clippy::disallowed_methods, reason = \"r\")]\nfn main() { let _ = std::time::Instant::now(); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
        let v = scan_at(
            "crates/bench/src/bin/repro.rs",
            "//! doc\n#![expect(clippy::disallowed_methods, reason = \"r\")]\nfn main() { let _ = std::time::Instant::now(); }\n",
        );
        assert_eq!(v.len(), 1, "a module-wide exception is a finding: {v:?}");
        // par/lib.rs is a designated config module.
        let v = scan_at(
            "crates/par/src/lib.rs",
            "//! doc\n#[expect(clippy::disallowed_methods, reason = \"r\")]\nfn f() { let _ = std::env::var(\"THERMAL_THREADS\"); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
        // ...but an opt-out of the panic wall there still fails.
        let v = scan_at(
            "crates/par/src/lib.rs",
            "//! doc\n#[expect(clippy::unwrap_used, reason = \"r\")]\nfn f() { x.unwrap(); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wall-exception");
    }

    #[test]
    fn harness_scenarios_may_not_read_a_clock() {
        // Every harness scenario writes byte-compared reports and
        // snapshots, so opting any of its files out of clippy's
        // clock/env wall is a finding; the repro binary beside it
        // keeps its designation.
        let src = "//! doc\n#[expect(clippy::disallowed_methods, reason = \"r\")]\nfn f() { let _ = std::time::Instant::now(); }\n";
        for file in ["main.rs", "grid.rs", "stream.rs", "recovery.rs", "fleet.rs"] {
            let v = scan_at(&format!("crates/bench/src/bin/harness/{file}"), src);
            assert_eq!(v.len(), 1, "{file}: {v:?}");
            assert_eq!(v[0].rule, "wall-exception");
        }
        let v = scan_at("crates/bench/src/bin/repro.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_unwrap_in_library_code_with_span() {
        // Inside a `macro_rules!` body, the one place clippy's
        // `unwrap_used` does not look.
        let v = scan("//! doc\nmacro_rules! first { ($xs:expr) => { $xs.first().unwrap() }; }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "macro-panic");
        assert_eq!((v[0].line, v[0].column, v[0].len), (2, 50, 6));
        assert_eq!(
            v[0].snippet,
            "macro_rules! first { ($xs:expr) => { $xs.first().unwrap() }; }"
        );
    }

    #[test]
    fn flags_every_forbidden_pattern() {
        let v = scan(
            "//! doc\n\
             macro_rules! m {\n\
                 ($x:expr) => {{\n\
                     let a = $x.unwrap(); let b = $x.expect(\"e\"); $x.unwrap_err();\n\
                     if a { ::core::panic!(\"p\") } else { unreachable!() }\n\
                     todo!(); unimplemented!(); dbg!(b);\n\
                 }};\n\
             }\n",
        );
        let got: Vec<_> = v
            .iter()
            .map(|f| (f.rule, f.line, f.column, f.len))
            .collect();
        assert_eq!(
            got,
            [
                ("macro-panic", 4, 12, 6),
                ("macro-panic", 4, 33, 6),
                ("macro-panic", 4, 49, 10),
                ("macro-panic", 5, 16, 5),
                ("macro-panic", 5, 37, 11),
                ("macro-panic", 6, 1, 4),
                ("macro-panic", 6, 10, 13),
                ("macro-panic", 6, 28, 3),
            ],
            "{v:?}"
        );
        assert!(v[0].message.contains("`.unwrap(..)`"), "{v:?}");
        assert!(v[3].message.contains("`panic!`"), "{v:?}");
    }

    #[test]
    fn unwrap_or_is_not_a_forbidden_call() {
        let v = scan(
            "//! doc\n\
             macro_rules! m { ($x:expr) => {\n\
                 $x.unwrap_or(0) + $x.unwrap_or_default() + $x.expect_count + $x.panic\n\
                 + std::panic::catch_unwind(|| 0).map_or(0, |n| n)\n\
             }; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn macro_panic_is_scoped_to_live_macro_bodies() {
        // The same calls outside a macro body are clippy's to report,
        // and a test module's macros are exempt like its code.
        let v = scan(
            "//! doc\n\
             fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
             macro_rules! ok [ ($x:expr) => { $x.unwrap_or(0) } ];\n\
             fn g() { panic!() }\n\
             #[cfg(test)]\n\
             mod tests { macro_rules! t { () => { x.unwrap() } } }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn snapshot_codec_fns_are_cold_path() {
        // `capture`/`restore` in a file that implements `Snapshot`
        // run at snapshot boundaries, not per event: family B rules
        // (hot-path-alloc / hot-path-index) do not apply inside them.
        let src = "//! doc\n\
             impl Snapshot for S {\n\
                 fn capture(&self, rec: &mut Record) { let _ = Vec::new(); }\n\
                 fn restore(&mut self, rec: &Record) { let _ = self.buf[0]; }\n\
             }\n\
             fn step(&mut self) { let _ = Vec::new(); let _ = self.buf[0]; }\n";
        let v = scan_at("crates/stream/src/service.rs", src);
        assert_eq!(v.len(), 2, "only `fn step` findings expected: {v:?}");
        assert!(v.iter().all(|f| f.line == 6), "{v:?}");
        assert!(v.iter().any(|f| f.rule == "hot-path-alloc"), "{v:?}");
        assert!(v.iter().any(|f| f.rule == "hot-path-index"), "{v:?}");
        // Without a `Snapshot` impl in the file, the fn names alone
        // grant no exemption.
        let plain = "//! doc\nfn restore(x: &[u8]) { let _ = Vec::new(); }\n";
        let v = scan_at("crates/stream/src/service.rs", plain);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-alloc");
    }

    #[test]
    fn float_reduction_order_follows_the_chain() {
        let v = scan("//! doc\nfn f(m: &M) -> f64 { m.values().sum() }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "float-reduction-order");
        // Through adapters, across lines, with turbofish.
        let v = scan(
            "//! doc\nfn f(m: &M) -> f64 {\n    m.values()\n        .map(|x| x * 2.0)\n        .sum::<f64>()\n}\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
        // fold too.
        let v = scan("//! doc\nfn f(m: &M) -> f64 { m.into_values().fold(0.0, |a, b| a + b) }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        // A chain that never reduces is fine.
        let v = scan("//! doc\nfn f(m: &M) -> Vec<f64> { m.values().cloned().collect() }\n");
        assert!(v.is_empty(), "{v:?}");
        // Indexed iteration reducing is fine.
        let v = scan("//! doc\nfn f(xs: &[f64]) -> f64 { xs.iter().sum() }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_path_index_only_in_designated_modules() {
        let src = "//! doc\npub fn f(xs: &[f64], i: usize) -> f64 { xs[i] }\n";
        let v = scan_at("crates/stream/src/service.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-path-index");
        assert_eq!((v[0].line, v[0].column), (2, 43));
        // The same code outside a hot-path module is fine.
        let v = scan(src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_path_index_skips_non_index_brackets() {
        let src = "//! doc\n\
            pub fn f() -> [u8; 4] { [0, 1, 2, 3] }\n\
            pub fn g(xs: &[f64]) -> &[f64] { &xs[..] }\n\
            pub fn h(v: &[u8]) -> u8 { let [a, ..] = v else { return 0 }; *a }\n\
            pub fn m() -> Vec<u8> { vec![0; 4] }\n";
        let v = scan_at("crates/stream/src/service.rs", src);
        // `vec!` is a steady-state allocation finding, but none of
        // these brackets are index expressions.
        let rules: Vec<&str> = v.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["hot-path-alloc"], "{v:?}");
    }

    #[test]
    fn hot_path_alloc_flags_acquisition_in_steady_state_modules() {
        let src = "//! doc\n\
            pub fn a() -> Vec<u8> { Vec::new() }\n\
            pub fn b() -> Vec<u8> { vec![0; 4] }\n\
            pub fn c(xs: &[u8]) -> Vec<u8> { xs.to_vec() }\n\
            pub fn d(s: &Label) -> Label { s.clone() }\n\
            pub fn e() -> Box<u8> { Box::new(0) }\n\
            pub fn f(s: &str) -> String { String::from(s) }\n";
        let v = scan_at("crates/stream/src/queue.rs", src);
        let rules: Vec<&str> = v.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["hot-path-alloc"; 6], "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[5].line, 7);
        // The same code outside the steady-state set (even in a
        // hot-path module) is not this rule's concern.
        let v = scan_at("crates/linalg/src/matrix.rs", src);
        assert!(v.is_empty(), "{v:?}");
        let v = scan(src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_path_alloc_exempts_tests_and_reuse_idioms() {
        let src = "//! doc\n\
            pub fn ok(dst: &mut Vec<u8>, src: &[u8]) { dst.clear(); dst.extend_from_slice(src); }\n\
            pub fn also_ok(a: &mut Label, b: &Label) { a.clone_from(b); }\n\
            #[cfg(test)]\n\
            mod tests { fn t() -> Vec<u8> { vec![1, 2].to_vec() } }\n";
        let v = scan_at("crates/stream/src/drift.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hot_path_index_catches_call_results_and_ranges() {
        let src = "//! doc\npub fn f(xs: &[f64], n: usize) -> &[f64] { &xs[..n] }\n";
        let v = scan_at("crates/stream/src/service.rs", src);
        assert_eq!(v.len(), 1, "partial ranges can panic: {v:?}");
        let src = "//! doc\npub fn f(m: &M, j: usize) -> f64 { m.row(0)[j] }\n";
        let v = scan_at("crates/stream/src/service.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn hot_path_arith_inside_index_expressions() {
        let src = "//! doc\npub fn f(xs: &[f64], i: usize, k: usize) -> f64 { xs[i * 3 + k] }\n";
        let v = scan_at("crates/stream/src/service.rs", src);
        let rules: Vec<&str> = v.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            vec!["hot-path-index", "hot-path-arith", "hot-path-arith"],
            "{v:?}"
        );
        // Arithmetic outside an index is not family B's concern.
        let src = "//! doc\npub fn f(a: f64, b: f64) -> f64 { a * b + 1.0 }\n";
        let v = scan_at("crates/stream/src/service.rs", src);
        assert!(v.is_empty(), "{v:?}");
        // Unary minus / deref are not binary arithmetic.
        let src = "//! doc\npub fn f(xs: &[f64], i: &usize) -> f64 { xs[*i] }\n";
        let v = scan_at("crates/stream/src/service.rs", src);
        assert_eq!(v.len(), 1, "only the index finding: {v:?}");
    }

    #[test]
    fn nested_indexing_flags_each_site_once() {
        let src =
            "//! doc\npub fn f(xs: &[f64], idx: &[usize], i: usize) -> f64 { xs[idx[i + 1]] }\n";
        let v = scan_at("crates/stream/src/service.rs", src);
        let mut rules: Vec<&str> = v.iter().map(|f| f.rule).collect();
        rules.sort_unstable();
        assert_eq!(
            rules,
            vec!["hot-path-arith", "hot-path-index", "hot-path-index"],
            "{v:?}"
        );
    }

    #[test]
    fn lints_opt_in_detected() {
        let mut out = Vec::new();
        check_lints_opt_in("a/Cargo.toml", "[package]\nname = \"a\"\n", &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        check_lints_opt_in(
            "a/Cargo.toml",
            "[package]\nname = \"a\"\n\n[lints]\nworkspace = true\n",
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn error_type_impls_required_at_token_level() {
        let mut out = Vec::new();
        check_error_type("a/src/error.rs", "pub enum Error {}\n", &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        // A doc comment mentioning the impls does not count.
        check_error_type(
            "a/src/error.rs",
            "//! Implements Display for and Error for the crate error.\npub enum Error {}\n",
            &mut out,
        );
        assert_eq!(out.len(), 2);
        out.clear();
        check_error_type(
            "a/src/error.rs",
            "impl fmt::Display for Error {}\nimpl std::error::Error for Error {}\n",
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn report_json_is_deterministic_and_sorted() {
        let mut findings =
            scan("fn f(m: &M) -> f64 { m.values().sum::<f64>() + m.keys().sum::<f64>() }\n");
        sort_findings(&mut findings);
        let report = LintReport { findings };
        let a = report.render_json();
        let b = report.render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"xtask-lint/2\""));
        assert!(a.contains("\"summary\": { \"active\": 3, \"baselined\": 0 }"));
        assert!(a.contains("\"suppression\": \"none\""));
        let values_pos = a.find("`.values()`").unwrap();
        let keys_pos = a.find("`.keys()`").unwrap();
        assert!(
            values_pos < keys_pos,
            "findings sorted by position within the file"
        );
    }
}
