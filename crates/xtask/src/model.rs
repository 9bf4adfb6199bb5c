//! Brace-tree scope model over the token stream.
//!
//! [`build`] lexes a source file and annotates every token with the
//! context the rules in `checks.rs` need:
//!
//! - whether the token lies inside a `#[cfg(test)]` region (item body
//!   or the attributed item head itself);
//! - whether it lies inside an attribute (`#[…]` / `#![…]`), so rule
//!   scans never mistake attribute brackets for indexing;
//! - the enclosing `fn` name and `mod` path, for diagnostics.
//!
//! The tracker is a mini-parser, not a full one: a stack of brace
//! frames, pushed on `{` and popped on `}`, plus a pending-item state
//! machine that carries `#[cfg(test)]` / `fn name` / `mod name`
//! forward to the next `{` that opens the item body. Pending state is
//! discarded at a `;` at zero paren/bracket depth (`#[cfg(test)] use
//! …;`, `mod foo;`) — the depth guard keeps a `;` inside `[u8; 4]` in
//! a signature from clearing it early.

use crate::lexer::{lex, LexedFile, Token, TokenKind};

/// Per-token context.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenCtx {
    /// Token lies in a `#[cfg(test)]` item (head or body).
    pub in_test: bool,
    /// Token lies inside an attribute.
    pub in_attr: bool,
    /// Index into [`FileModel::fns`] of the enclosing function.
    pub fn_idx: Option<u32>,
    /// Index into [`FileModel::mods`] of the enclosing module path.
    pub mod_idx: Option<u32>,
}

/// A lexed file plus per-token scope annotations.
#[derive(Debug)]
pub struct FileModel {
    /// The token stream (see [`crate::lexer`]).
    pub lexed: LexedFile,
    /// Context for each token, same indexing as `lexed.tokens`.
    pub ctx: Vec<TokenCtx>,
    /// Interned function names.
    pub fns: Vec<String>,
    /// Interned module paths (`""` is the crate root; nested modules
    /// join with `::`).
    pub mods: Vec<String>,
}

impl FileModel {
    /// Human-readable location of token `i` ("fn `step`", "mod
    /// `tests`", or "module root").
    pub fn describe(&self, i: usize) -> String {
        let ctx = self.ctx.get(i).copied().unwrap_or_default();
        if let Some(f) = ctx.fn_idx {
            return format!("fn `{}`", self.fns[f as usize]);
        }
        if let Some(m) = ctx.mod_idx {
            return format!("mod `{}`", self.mods[m as usize]);
        }
        "module root".to_owned()
    }
}

#[derive(Clone, Copy)]
struct Frame {
    test: bool,
    fn_idx: Option<u32>,
    mod_idx: Option<u32>,
}

fn intern(pool: &mut Vec<String>, name: &str) -> u32 {
    if let Some(i) = pool.iter().position(|n| n == name) {
        return u32::try_from(i).unwrap_or(u32::MAX);
    }
    pool.push(name.to_owned());
    u32::try_from(pool.len().saturating_sub(1)).unwrap_or(u32::MAX)
}

/// Whether an attribute token slice (from `[` to the matching `]`)
/// gates on `cfg(test)`. `not(test)` is recognised and does NOT count
/// — `#[cfg(not(test))]` code is live library code.
fn attr_is_cfg_test(tokens: &[Token]) -> bool {
    let has_cfg = tokens.iter().any(|t| t.is_ident("cfg"));
    if !has_cfg {
        return false;
    }
    tokens.iter().enumerate().any(|(k, t)| {
        t.is_ident("test")
            && !(k >= 2 && tokens[k - 1].is_punct("(") && tokens[k - 2].is_ident("not"))
    })
}

/// Index of the delimiter closing the `(`, `[` or `{` at `open` (the
/// last token when unbalanced).
pub(crate) fn matching_bracket(toks: &[Token], open: usize) -> usize {
    let (opener, closer) = match toks.get(open).map(|t| t.text.as_str()) {
        Some("(") => ("(", ")"),
        Some("{") => ("{", "}"),
        _ => ("[", "]"),
    };
    let mut depth = 0_usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(opener) {
            depth += 1;
        } else if t.is_punct(closer) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Whether the run of outer attributes starting at the `#` at `start`
/// gates its item on `cfg(test)`.
fn outer_run_is_cfg_test(toks: &[Token], mut start: usize) -> bool {
    while toks.get(start).is_some_and(|t| t.is_punct("#"))
        && toks.get(start + 1).is_some_and(|t| t.is_punct("["))
    {
        let end = matching_bracket(toks, start + 1);
        if attr_is_cfg_test(&toks[start + 1..=end]) {
            return true;
        }
        start = end + 1;
    }
    false
}

/// Rust keywords that can precede `[` without it being an index
/// expression (`for x in [..]`, `let [a, b] = ..`, `&mut [T]`).
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

/// Lexes `src` and builds the scope model.
pub fn build(src: &str) -> FileModel {
    let lexed = lex(src);
    let n = lexed.tokens.len();
    let mut ctx = vec![TokenCtx::default(); n];
    let mut fns: Vec<String> = Vec::new();
    let mut mods: Vec<String> = Vec::new();
    let mut stack = vec![Frame {
        test: false,
        fn_idx: None,
        mod_idx: None,
    }];

    let mut pending_test = false;
    let mut pending_fn: Option<u32> = None;
    let mut pending_mod: Option<u32> = None;
    // Paren/bracket depth since the last statement boundary; a `;`
    // only clears pending item state at depth zero.
    let mut sig_depth = 0_usize;

    let mut i = 0;
    while i < n {
        let toks = &lexed.tokens;
        // Frame the current scope once per token.
        let top = *stack.last().unwrap_or(&Frame {
            test: false,
            fn_idx: None,
            mod_idx: None,
        });

        // Attributes: `#[…]` and `#![…]`, skipped wholesale.
        if toks[i].is_punct("#") {
            let open = if toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
                Some(i + 1)
            } else if toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct("["))
            {
                Some(i + 2)
            } else {
                None
            };
            if let Some(open) = open {
                let end = matching_bracket(toks, open);
                // An outer attribute belongs to its item, so a
                // `cfg(test)` anywhere in the item's attribute run
                // gates the attributes before it too.
                if open == i + 1 && outer_run_is_cfg_test(toks, i) {
                    pending_test = true;
                }
                for c in ctx.iter_mut().take(end + 1).skip(i) {
                    *c = TokenCtx {
                        in_test: top.test || pending_test,
                        in_attr: true,
                        fn_idx: top.fn_idx,
                        mod_idx: top.mod_idx,
                    };
                }
                if attr_is_cfg_test(&toks[open..=end]) {
                    pending_test = true;
                }
                i = end + 1;
                continue;
            }
        }

        ctx[i] = TokenCtx {
            in_test: top.test || pending_test,
            in_attr: false,
            fn_idx: top.fn_idx,
            mod_idx: top.mod_idx,
        };

        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "{") => {
                stack.push(Frame {
                    test: top.test || pending_test,
                    fn_idx: pending_fn.or(top.fn_idx),
                    mod_idx: pending_mod.or(top.mod_idx),
                });
                pending_test = false;
                pending_fn = None;
                pending_mod = None;
                sig_depth = 0;
            }
            (TokenKind::Punct, "}") if stack.len() > 1 => {
                stack.pop();
            }
            (TokenKind::Punct, "(" | "[") => sig_depth += 1,
            (TokenKind::Punct, ")" | "]") => sig_depth = sig_depth.saturating_sub(1),
            (TokenKind::Punct, ";") if sig_depth == 0 => {
                pending_test = false;
                pending_fn = None;
                pending_mod = None;
            }
            (TokenKind::Ident, "fn") => {
                if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                    if !KEYWORDS.contains(&name.text.as_str()) {
                        pending_fn = Some(intern(&mut fns, &name.text));
                    }
                }
            }
            (TokenKind::Ident, "mod") => {
                if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                    let parent = top.mod_idx.map(|m| mods[m as usize].clone());
                    let path = match parent.as_deref() {
                        Some("") | None => name.text.clone(),
                        Some(p) => format!("{p}::{}", name.text),
                    };
                    pending_mod = Some(intern(&mut mods, &path));
                }
            }
            _ => {}
        }
        i += 1;
    }

    FileModel {
        lexed,
        ctx,
        fns,
        mods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        build(src)
    }

    fn ctx_of<'m>(m: &'m FileModel, text: &str) -> (&'m Token, TokenCtx) {
        let i = m
            .lexed
            .tokens
            .iter()
            .position(|t| t.text == text)
            .unwrap_or_else(|| panic!("token `{text}` not found"));
        (&m.lexed.tokens[i], m.ctx[i])
    }

    #[test]
    fn cfg_test_mod_body_is_test() {
        let m = model(
            "fn live() { a(); }\n\
             #[cfg(test)]\n\
             mod tests {\n    fn t() { b(); }\n}\n\
             fn live2() { c(); }\n",
        );
        assert!(!ctx_of(&m, "a").1.in_test);
        assert!(ctx_of(&m, "b").1.in_test);
        assert!(!ctx_of(&m, "c").1.in_test);
    }

    #[test]
    fn cfg_test_use_clears_at_semicolon() {
        let m = model("#[cfg(test)]\nuse std::vec::Vec;\nfn live() { a(); }\n");
        assert!(!ctx_of(&m, "a").1.in_test);
    }

    #[test]
    fn semicolon_inside_signature_brackets_does_not_clear() {
        let m = model("#[cfg(test)]\nfn helper(x: [u8; 4]) { b(); }\nfn live() { a(); }\n");
        assert!(ctx_of(&m, "b").1.in_test, "helper body stays test");
        assert!(!ctx_of(&m, "a").1.in_test, "next item is live again");
    }

    #[test]
    fn cfg_test_anywhere_in_an_attribute_run_gates_the_item() {
        let m = model(
            "#[allow(a)]\n#[cfg(test)]\nfn helper() { b(); }\n#[allow(d)]\nfn live() { c(); }\n",
        );
        assert!(ctx_of(&m, "a").1.in_test, "attribute before cfg(test)");
        assert!(ctx_of(&m, "b").1.in_test);
        assert!(!ctx_of(&m, "d").1.in_test, "the next item's run is live");
        assert!(!ctx_of(&m, "c").1.in_test);
    }

    #[test]
    fn matching_bracket_pairs_each_delimiter() {
        let toks = lex("f(a, (b)) [c[d]] { e { g } } h").tokens;
        let close =
            |open: &str| matching_bracket(&toks, toks.iter().position(|t| t.text == open).unwrap());
        assert_eq!(toks[close("(")].col, 9);
        assert_eq!(toks[close("[")].col, 16);
        assert_eq!(toks[close("{")].col, 28);
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let m = model("#[cfg(not(test))]\nfn live() { a(); }\n");
        assert!(!ctx_of(&m, "a").1.in_test);
    }

    #[test]
    fn attr_tokens_are_marked() {
        let m = model("#[derive(Clone)]\nstruct S { x: u8 }\n");
        assert!(ctx_of(&m, "derive").1.in_attr);
        assert!(ctx_of(&m, "Clone").1.in_attr);
        assert!(!ctx_of(&m, "x").1.in_attr);
    }

    #[test]
    fn fn_and_mod_context_for_diagnostics() {
        let m = model("mod outer {\n    mod inner {\n        fn work() { x(); }\n    }\n}\n");
        let (_, ctx) = ctx_of(&m, "x");
        assert_eq!(m.fns[ctx.fn_idx.unwrap() as usize], "work");
        assert_eq!(m.mods[ctx.mod_idx.unwrap() as usize], "outer::inner");
    }

    #[test]
    fn nested_cfg_test_region_ends_at_matching_brace() {
        let m = model(
            "mod live {\n\
                 #[cfg(test)]\n\
                 mod tests { fn t() { b(); } }\n\
                 fn live_fn() { a(); }\n\
             }\n",
        );
        assert!(ctx_of(&m, "b").1.in_test);
        assert!(!ctx_of(&m, "a").1.in_test);
    }

    #[test]
    fn describe_names_enclosing_scope() {
        let m = model("fn work() { marker(); }\n");
        let i = m
            .lexed
            .tokens
            .iter()
            .position(|t| t.text == "marker")
            .unwrap();
        assert_eq!(m.describe(i), "fn `work`");
    }
}
