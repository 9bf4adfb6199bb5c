//! The token-level static-analysis engine behind `cargo xtask lint`.
//!
//! Rules enforce the workspace conventions in `DESIGN.md` § static
//! analysis v2. All source rules run over the token stream produced
//! by [`crate::lexer`] with the scope annotations of
//! [`crate::model`] — string/comment contents can never false-match,
//! `#[cfg(test)]` regions are exempt, and every finding carries an
//! exact line/column span.
//!
//! Long-standing rules (re-implemented on tokens):
//!
//! - `forbidden-call` — no `unwrap`/`expect`/`panic!`-family calls in
//!   library code.
//! - `module-doc` — every library source file opens with a `//!` doc.
//! - `float-int-cast` — no `as` float→int conversions.
//! - `error-type` — every `error.rs` implements `Display` and
//!   `std::error::Error`.
//! - `lints-opt-in` — every member crate opts into the workspace lint
//!   wall.
//! - `stale-allow` — allowlist *and* baseline entries must match
//!   something.
//!
//! Determinism family (rule family A):
//!
//! - `unordered-container` — no `HashMap`/`HashSet` in library
//!   crates; their iteration order is seeded per-process and breaks
//!   the bitwise-reproducibility contract.
//! - `ambient-authority` — no `Instant::now`/`SystemTime::now`
//!   outside [`CLOCK_MODULES`], no `env::var` outside
//!   [`CONFIG_MODULES`], no `thread::current` identity reads at all.
//! - `float-reduction-order` — no `.values()`/`.keys()`-style
//!   iteration flowing into a float reduction (`sum`/`product`/
//!   `fold`) in one method chain; float addition is non-associative,
//!   so the reduction order must be an indexed, stable one.
//!
//! Panic-reachability family (rule family B), scoped to
//! [`HOT_PATH_MODULES`]:
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
//! `fn capture` / `fn restore` are exempt from family B: the snapshot
//! codec runs once per snapshot boundary (tens of slots apart), never
//! in the per-event serving loop, so the zero-allocation and
//! no-panic-index budgets do not apply there.
//!
//! Findings are never silently dropped: allowlist- and
//! baseline-suppressed findings stay in the report with their
//! suppression recorded, and only *active* findings fail the gate.

use crate::allowlist::Allowlist;
use crate::baseline::{self, Baseline, BASELINE_PATH};
use crate::json::escape;
use crate::lexer::{lex, Token, TokenKind};
use crate::model::{build, TokenCtx, KEYWORDS};
use std::fmt;
use std::path::{Path, PathBuf};

/// Path prefixes allowed to read wall clocks (`Instant::now`,
/// `SystemTime::now`): the benchmark / reproduction binaries, whose
/// job is to measure wall time. Designate a new clock module by
/// adding its workspace-relative path prefix here.
pub const CLOCK_MODULES: &[&str] = &["crates/bench/src/bin/"];

/// Path prefixes allowed to read the process environment
/// (`env::var`): the two designated configuration surfaces — the
/// `thermal-par` thread-count pin and the `thermal-faults` kill-point
/// switch. Everything else must take configuration as arguments.
pub const CONFIG_MODULES: &[&str] = &["crates/par/src/lib.rs", "crates/faults/src/killpoint.rs"];

/// Path prefixes carrying snapshot capture/restore code, where
/// wall-clock reads are findings **even inside a designated clock
/// module**: a wall timestamp folded into a snapshot record would
/// break the restore-equivalence byte comparisons of
/// `cargo xtask soak stream|fleet --kill` (see DESIGN.md
/// § restore-equivalence). Snapshot timestamping must come from the
/// simulated clock ([`SimClock`] state travels inside the snapshot).
pub const SNAPSHOT_MODULES: &[&str] = &[
    "crates/ckpt/src/snapshot.rs",
    "crates/ckpt/src/breaker.rs",
    "crates/bench/src/bin/soak.rs",
    "crates/fleet/src/orchestrator.rs",
    "crates/fleet/src/shard.rs",
];

/// Path prefixes where reachable panics are findings (rule family B):
/// the streaming ingest path, the dense kernels and the reduction
/// kernels they share.
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

/// How a reported finding was suppressed, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suppression {
    /// Covered by an `xtask/lint-allow.toml` entry.
    Allowlist,
    /// Covered by an `xtask/lint-baseline.json` entry.
    Baseline,
}

impl Suppression {
    /// Canonical report spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Suppression::Allowlist => "allowlist",
            Suppression::Baseline => "baseline",
        }
    }
}

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
    /// How the finding is suppressed (`None` = active, fails the
    /// gate).
    pub suppression: Option<Suppression>,
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

/// Panic-family macros banned from library code.
const FORBIDDEN_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "dbg"];

/// Integer types the float-cast rule protects against truncation.
const INT_TYPES: &[&str] = &[
    "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128",
];

/// Float-producing methods whose result must not be `as`-cast.
const FLOAT_PRODUCERS: &[&str] = &["floor", "ceil", "round", "trunc"];

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

/// Index of the `]` matching the `[` at `open`, if any.
fn matching_bracket(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0_usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index just past the `)` matching the `(` at `open` (or end of
/// stream when unbalanced).
fn skip_parens(toks: &[Token], open: usize) -> usize {
    let mut depth = 0_usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    toks.len()
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

/// Scans one library source file; pushes findings (with allowlist
/// suppression already applied) onto `out`.
///
/// `rel_path` is the workspace-relative path used for reporting,
/// rule designation ([`CLOCK_MODULES`] etc.) and allowlist matching.
pub fn check_source(rel_path: &str, content: &str, allow: &Allowlist, out: &mut Vec<Finding>) {
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
        let suppression = allow
            .covers(rel_path, line_text, rule)
            .then_some(Suppression::Allowlist);
        out.push(Finding {
            file: rel_path.to_owned(),
            line,
            column,
            len,
            rule,
            message,
            snippet: line_text.trim().to_owned(),
            suppression,
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

    // Snapshot modules revoke a clock designation: even a bench
    // binary allowed to measure wall time must not fold it into
    // snapshot records.
    let in_clock = path_in(rel_path, CLOCK_MODULES) && !path_in(rel_path, SNAPSHOT_MODULES);
    let in_config = path_in(rel_path, CONFIG_MODULES);
    let hot = path_in(rel_path, HOT_PATH_MODULES);
    let steady = path_in(rel_path, STEADY_STATE_MODULES);

    let toks = &model.lexed.tokens;
    let n = toks.len();

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
        if ctx.in_test || ctx.in_attr {
            continue;
        }
        let t = &toks[i];
        let at = |len: usize| (t.line, t.col, len);
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = |k: usize| toks.get(i + k);

        if t.kind == TokenKind::Ident {
            let name = t.text.as_str();

            // forbidden-call: `.unwrap(` / `.expect(` and the
            // panic-family macros.
            if matches!(name, "unwrap" | "expect")
                && prev.is_some_and(|p| p.is_punct("."))
                && next(1).is_some_and(|p| p.is_punct("("))
            {
                let (line, col, len) = at(t.text.len());
                push(
                    line,
                    col,
                    len,
                    "forbidden-call",
                    format!("`.{name}(..)` in library code; return a typed error instead"),
                );
            }
            if FORBIDDEN_MACROS.contains(&name) && next(1).is_some_and(|p| p.is_punct("!")) {
                let (line, col, len) = at(t.text.len());
                push(
                    line,
                    col,
                    len,
                    "forbidden-call",
                    format!("`{name}!` in library code; return a typed error instead"),
                );
            }

            // float-int-cast: `.floor() as usize` and `as f64 as u32`.
            if FLOAT_PRODUCERS.contains(&name)
                && prev.is_some_and(|p| p.is_punct("."))
                && next(1).is_some_and(|p| p.is_punct("("))
                && next(2).is_some_and(|p| p.is_punct(")"))
                && next(3).is_some_and(|p| p.is_ident("as"))
                && next(4).is_some_and(|p| {
                    p.kind == TokenKind::Ident && INT_TYPES.contains(&p.text.as_str())
                })
            {
                let ty = &next(4).map(|p| p.text.clone()).unwrap_or_default();
                let (line, col, len) = at(t.text.len());
                push(
                    line,
                    col,
                    len,
                    "float-int-cast",
                    format!(
                        "float result cast `.{name}() as {ty}`; use a checked conversion or allowlist with a bounds rationale"
                    ),
                );
            }
            if matches!(name, "f64" | "f32")
                && next(1).is_some_and(|p| p.is_ident("as"))
                && next(2).is_some_and(|p| {
                    p.kind == TokenKind::Ident && INT_TYPES.contains(&p.text.as_str())
                })
            {
                let ty = &next(2).map(|p| p.text.clone()).unwrap_or_default();
                let (line, col, len) = at(t.text.len());
                push(
                    line,
                    col,
                    len,
                    "float-int-cast",
                    format!("`{name} as {ty}` truncates; use a checked conversion"),
                );
            }

            // unordered-container (family A).
            if matches!(name, "HashMap" | "HashSet") {
                let ordered = if name == "HashMap" {
                    "BTreeMap"
                } else {
                    "BTreeSet"
                };
                let (line, col, len) = at(t.text.len());
                push(
                    line,
                    col,
                    len,
                    "unordered-container",
                    format!(
                        "`{name}` iteration order is nondeterministic; use `{ordered}` or allowlist with a rationale"
                    ),
                );
            }

            // ambient-authority (family A).
            let path2 = |a: &str, b: &str| {
                t.is_ident(a)
                    && next(1).is_some_and(|p| p.is_punct("::"))
                    && next(2).is_some_and(|p| p.is_ident(b))
            };
            if !in_clock && (path2("Instant", "now") || path2("SystemTime", "now")) {
                let (line, col, len) = at(t.text.len());
                push(
                    line,
                    col,
                    len,
                    "ambient-authority",
                    format!(
                        "wall-clock read `{name}::now` outside a designated clock module (see CLOCK_MODULES in xtask); hoist the read to the caller, in {}",
                        model.describe(i)
                    ),
                );
            }
            if !in_config
                && name == "env"
                && next(1).is_some_and(|p| p.is_punct("::"))
                && next(2).is_some_and(|p| p.is_ident("var") || p.is_ident("var_os"))
            {
                let (line, col, len) = at(t.text.len());
                push(
                    line,
                    col,
                    len,
                    "ambient-authority",
                    format!(
                        "environment read `env::var` outside a designated config module (see CONFIG_MODULES in xtask); pass configuration as an argument, in {}",
                        model.describe(i)
                    ),
                );
            }
            // hot-path-alloc (family B): allocation acquisition in a
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

            if path2("thread", "current") {
                let (line, col, len) = at(t.text.len());
                push(
                    line,
                    col,
                    len,
                    "ambient-authority",
                    format!(
                        "`thread::current` identity read; output must not depend on scheduling, in {}",
                        model.describe(i)
                    ),
                );
            }

            // float-reduction-order (family A): a chain starting at a
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
                    j = skip_parens(toks, k);
                }
            }
        }

        // hot-path rules (family B). Snapshot codec fns are exempt:
        // they run at snapshot boundaries, not in the per-event loop.
        if hot && !in_snapshot_codec(ctx) && t.is_punct("[") && prev.is_some_and(is_indexable) {
            let close = matching_bracket(toks, i).unwrap_or(n.saturating_sub(1));
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
            suppression: None,
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
            suppression: None,
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
        self.findings.iter().filter(|f| f.suppression.is_none())
    }

    /// (active, allowlisted, baselined) counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for f in &self.findings {
            match f.suppression {
                None => c.0 += 1,
                Some(Suppression::Allowlist) => c.1 += 1,
                Some(Suppression::Baseline) => c.2 += 1,
            }
        }
        c
    }

    /// Renders the canonical machine-readable report (SARIF-lite).
    /// Byte-identical across runs on identical input: fixed key
    /// order, sorted findings, no timestamps.
    pub fn render_json(&self) -> String {
        let (active, allowlisted, baselined) = self.counts();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"xtask-lint/1\",\n");
        out.push_str(&format!(
            "  \"summary\": {{ \"active\": {active}, \"allowlisted\": {allowlisted}, \"baselined\": {baselined} }},\n"
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
                    f.suppression.map_or("none", Suppression::as_str),
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

/// Walks the workspace and produces findings with *allowlist*
/// suppression applied (the baseline layer is added by
/// [`run_workspace`]).
fn collect(root: &Path) -> std::io::Result<Vec<Finding>> {
    let allow_path = root.join("xtask").join("lint-allow.toml");
    let allow = if allow_path.exists() {
        let text = std::fs::read_to_string(&allow_path)?;
        match Allowlist::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                return Ok(vec![Finding {
                    file: "xtask/lint-allow.toml".to_owned(),
                    line: e.line,
                    column: 0,
                    len: 0,
                    rule: "allowlist",
                    message: e.message,
                    snippet: String::new(),
                    suppression: None,
                }]);
            }
        }
    } else {
        Allowlist::default()
    };

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
            check_source(&rel_path, &content, &allow, &mut findings);
            if file.file_name().is_some_and(|n| n == "error.rs") {
                check_error_type(&rel_path, &content, &mut findings);
            }
        }
    }

    for entry in allow.unused() {
        findings.push(Finding {
            file: "xtask/lint-allow.toml".to_owned(),
            line: 0,
            column: 0,
            len: 0,
            rule: "stale-allow",
            message: format!(
                "entry (path = \"{}\", pattern = \"{}\") matched nothing; remove it",
                entry.path, entry.pattern
            ),
            snippet: String::new(),
            suppression: None,
        });
    }

    Ok(findings)
}

/// Runs every check over the workspace rooted at `root`, applying
/// both suppression layers (allowlist, then baseline) and reporting
/// stale entries of either as findings.
pub fn run_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut findings = collect(root)?;
    let bpath = root.join(BASELINE_PATH);
    if bpath.exists() {
        match Baseline::parse(&std::fs::read_to_string(&bpath)?) {
            Ok(base) => {
                for f in findings.iter_mut() {
                    if f.suppression.is_none()
                        && !matches!(f.rule, "stale-allow" | "allowlist")
                        && base.covers(f.rule, &f.file, f.line, f.column, &f.snippet)
                    {
                        f.suppression = Some(Suppression::Baseline);
                    }
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
                        suppression: None,
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
                suppression: None,
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
    let findings = collect(root)?;
    if let Some(bad) = findings.iter().find(|f| f.rule == "allowlist") {
        return Ok(BaselineUpdate::Refused {
            reason: format!("fix the allowlist first: {bad}"),
        });
    }
    let mut candidates: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.suppression.is_none() && f.rule != "stale-allow")
        .collect();
    candidates.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.rule, &a.message)
            .cmp(&(&b.file, b.line, b.column, b.rule, &b.message))
    });
    let entries: Vec<_> = candidates
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
        let allow = Allowlist::default();
        let mut out = Vec::new();
        check_source(path, content, &allow, &mut out);
        out
    }

    fn scan(content: &str) -> Vec<Finding> {
        scan_at("crates/demo/src/lib.rs", content)
    }

    #[test]
    fn flags_unwrap_in_library_code_with_span() {
        let v = scan("//! doc\nfn f() { x.unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "forbidden-call");
        assert_eq!((v[0].line, v[0].column), (2, 12));
        assert_eq!(v[0].snippet, "fn f() { x.unwrap(); }");
    }

    #[test]
    fn flags_every_forbidden_pattern() {
        for call in [
            "x.unwrap()",
            "x.expect(\"m\")",
            "panic!(\"m\")",
            "unreachable!()",
            "todo!()",
            "unimplemented!()",
            "dbg!(x)",
        ] {
            let v = scan(&format!("//! doc\nfn f() {{ {call}; }}\n"));
            assert_eq!(v.len(), 1, "expected one finding for `{call}`: {v:?}");
        }
    }

    #[test]
    fn unwrap_or_is_not_a_forbidden_call() {
        let v = scan("//! doc\nfn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ignores_test_modules_and_resumes_after() {
        let v = scan(
            "//! doc\n\
             #[cfg(test)]\n\
             mod tests { fn t() { x.unwrap(); } }\n\
             fn g() { y.unwrap(); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn ignores_comments_and_strings_even_raw() {
        let v = scan(
            "//! doc\n\
             // calling x.unwrap() would be bad\n\
             /* panic!(\"no\") /* nested */ still */\n\
             fn f() { let s = r#\"don't panic!(here) x.unwrap()\"#; let _ = s; }\n",
        );
        assert!(v.is_empty(), "comments/strings should be exempt: {v:?}");
    }

    #[test]
    fn flags_float_int_casts() {
        let v = scan("//! doc\nfn f(x: f64) -> usize { x.floor() as usize }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "float-int-cast");
        let v = scan("//! doc\nfn f(x: f64) -> u32 { x as f64 as u32 }\n");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn missing_module_doc_flagged() {
        let v = scan("fn f() {}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "module-doc");
        assert_eq!(v[0].line, 0);
    }

    #[test]
    fn unordered_container_flagged_outside_tests() {
        let v = scan("//! doc\nuse std::collections::HashMap;\nfn f() -> HashMap<u32, u32> { HashMap::new() }\n");
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|f| f.rule == "unordered-container"));
        assert_eq!((v[0].line, v[0].column), (2, 23));
        let v = scan("//! doc\n#[cfg(test)]\nmod tests { use std::collections::HashSet; }\n");
        assert!(v.is_empty(), "test-only HashSet is exempt: {v:?}");
    }

    #[test]
    fn btreemap_is_fine() {
        let v = scan("//! doc\nuse std::collections::BTreeMap;\nfn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ambient_authority_flags_clock_env_thread() {
        let v = scan("//! doc\nfn f() -> std::time::Instant { std::time::Instant::now() }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ambient-authority");
        let v = scan("//! doc\nfn f() -> u64 { std::time::SystemTime::now(); 0 }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        let v = scan("//! doc\nfn f() -> Option<String> { std::env::var(\"X\").ok() }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        let v = scan("//! doc\nfn f() { let _ = std::thread::current().id(); }\n");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn ambient_authority_respects_designations() {
        // The bench binaries are designated clock modules.
        let v = scan_at(
            "crates/bench/src/bin/repro.rs",
            "//! doc\nfn f() { let _ = std::time::Instant::now(); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
        // par/lib.rs is a designated config module (env only).
        let v = scan_at(
            "crates/par/src/lib.rs",
            "//! doc\nfn f() { let _ = std::env::var(\"THERMAL_THREADS\"); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
        // ...but a clock read there still fails.
        let v = scan_at(
            "crates/par/src/lib.rs",
            "//! doc\nfn f() { let _ = std::time::Instant::now(); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn snapshot_modules_revoke_the_clock_designation() {
        // The soak binary sits inside the bench clock designation,
        // but it captures snapshots: wall-clock reads there must be
        // findings — a wall timestamp in a snapshot record would
        // break restore-equivalence byte comparisons.
        for src in [
            "//! doc\nfn f() { let _ = std::time::SystemTime::now(); }\n",
            "//! doc\nfn f() { let _ = std::time::Instant::now(); }\n",
        ] {
            let v = scan_at("crates/bench/src/bin/soak.rs", src);
            assert_eq!(v.len(), 1, "{v:?}");
            assert_eq!(v[0].rule, "ambient-authority");
        }
        // The snapshot codec itself is likewise never clock-eligible.
        let v = scan_at(
            "crates/ckpt/src/snapshot.rs",
            "//! doc\nfn f() { let _ = std::time::SystemTime::now(); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        // A sibling bench binary that takes no snapshots keeps the
        // designation.
        let v = scan_at(
            "crates/bench/src/bin/repro.rs",
            "//! doc\nfn f() { let _ = std::time::Instant::now(); }\n",
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
    fn allowlist_suppression_is_recorded_not_dropped() {
        let allow = Allowlist::parse(
            "[[allow]]\npath = \"crates/demo/src/lib.rs\"\npattern = \".unwrap()\"\nreason = \"r\"\ncount = 1\n",
        )
        .unwrap();
        let mut out = Vec::new();
        check_source(
            "crates/demo/src/lib.rs",
            "//! doc\nfn f() { a.unwrap(); }\nfn g() { b.unwrap(); }\n",
            &allow,
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].suppression, Some(Suppression::Allowlist));
        assert_eq!(out[1].suppression, None, "budget exhausted on the second");
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
        let mut findings = scan("fn f() { x.unwrap(); y.expect(\"m\"); }\n");
        sort_findings(&mut findings);
        let report = LintReport { findings };
        let a = report.render_json();
        let b = report.render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"xtask-lint/1\""));
        let unwrap_pos = a.find("unwrap").unwrap();
        let expect_pos = a.find("expect").unwrap();
        assert!(
            unwrap_pos < expect_pos,
            "findings sorted by position within the file"
        );
    }
}
