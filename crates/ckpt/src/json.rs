//! The workspace's one canonical JSON writer.
//!
//! The robustness harnesses byte-compare whole reports (soak,
//! recovery, fleet) across runs, thread counts and kill points, so the
//! rules that make those bytes canonical live here once: members in
//! the order the caller writes them, strings escaped by [`escape`] and
//! nothing else, floats as the hex of their IEEE-754 bits plus a
//! rounded echo ([`JsonWriter::f64`]), and each object or array laid
//! out as its caller picks ([`Layout`]). It streams: there is no value
//! tree.

use std::fmt::{Display, Write as _};

/// How an object or array lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces per nesting level.
    Block,
    /// Every member on one line, `", "`-separated.
    Inline,
}

/// A streaming writer of one canonical JSON document; only
/// [`JsonWriter::document`] makes one.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Each open container's layout and whether it has a member yet.
    open: Vec<(Layout, bool)>,
}

impl JsonWriter {
    /// A document whose root is a block object filled by `body`, with
    /// a trailing newline.
    pub fn document(body: impl FnOnce(&mut Self)) -> String {
        let mut w = JsonWriter {
            out: String::new(),
            open: Vec::new(),
        };
        w.object(Layout::Block, body);
        w.out.push('\n');
        w.out
    }

    /// Starts the next member of the open object; a value call follows.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item().str(key);
        self.out.push_str(": ");
        self
    }

    /// Starts the next element of the open array; a value call follows.
    pub fn item(&mut self) -> &mut Self {
        if let Some((layout, started)) = self.open.last_mut() {
            let (block, started) = (*layout == Layout::Block, std::mem::replace(started, true));
            if started {
                self.out.push_str(if block { "," } else { ", " });
            }
            if block {
                self.newline();
            }
        }
        self
    }

    /// Writes an integer.
    pub fn num(&mut self, value: impl Display) -> &mut Self {
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.num(value)
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.out.push_str("null");
        self
    }

    /// Writes a quoted, escaped string.
    pub fn str(&mut self, value: &str) -> &mut Self {
        let _ = write!(self.out, "\"{}\"", escape(value));
        self
    }

    /// Writes a float as `{"bits": "<hex of to_bits>", "approx": "<4 decimals>"}`.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.object(Layout::Inline, |w| {
            w.key("bits").str(&format!("{:016x}", value.to_bits()));
            w.key("approx").str(&format!("{value:.4}"));
        })
    }

    /// Writes an object whose members `body` writes with [`key`](Self::key).
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.out.push('{');
        self.nest(layout, body).out.push('}');
        self
    }

    /// Writes an array whose elements `body` writes with [`item`](Self::item).
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.out.push('[');
        self.nest(layout, body).out.push(']');
        self
    }

    /// Runs `body` inside a new container; a block one ends on its own line.
    fn nest(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.open.push((layout, false));
        body(self);
        self.open.pop();
        if layout == Layout::Block {
            self.newline();
        }
        self
    }

    /// A line break indented to the current nesting depth.
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }
}

/// Escapes a string for embedding in JSON (no surrounding quotes):
/// quote, backslash and control characters.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_inline_layouts_nest() {
        let doc = JsonWriter::document(|w| {
            w.key("n").num(7_u64);
            w.key("flag").bool(true);
            w.key("none").null();
            w.key("inline").object(Layout::Inline, |w| {
                w.key("a").num(1);
                w.key("b").array(Layout::Inline, |w| {
                    w.item().str("x");
                    w.item().num(-2);
                });
            });
            w.key("rows").array(Layout::Block, |w| {
                w.item().object(Layout::Block, |w| {
                    w.key("x").f64(0.75);
                });
                w.item().array(Layout::Inline, |_| {});
            });
            w.key("empty").array(Layout::Block, |_| {});
        });
        assert_eq!(
            doc,
            "{\n  \"n\": 7,\n  \"flag\": true,\n  \"none\": null,\n  \
             \"inline\": {\"a\": 1, \"b\": [\"x\", -2]},\n  \"rows\": [\n    {\n      \
             \"x\": {\"bits\": \"3fe8000000000000\", \"approx\": \"0.7500\"}\n    },\n    \
             []\n  ],\n  \"empty\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let doc = JsonWriter::document(|w| {
            w.key("q\"k").str("a\\b\nc\td\r\u{1}");
        });
        assert_eq!(doc, "{\n  \"q\\\"k\": \"a\\\\b\\nc\\td\\r\\u0001\"\n}\n");
    }
}
