//! Dependency-free minimal JSON for the lint gate.
//!
//! The container is offline and the vendored dependency set has no
//! `serde_json`, so the baseline reader and the diagnostics writer
//! are hand-rolled. The subset is exactly what the lint schemas need:
//! objects, arrays, strings with the standard escapes, non-negative
//! integers, booleans and `null`. Parse errors carry 1-based line
//! numbers so a hand-edited `xtask/lint-baseline.json` fails with a
//! pointable message.
//!
//! The writer side is canonical by construction — callers emit keys
//! in a fixed order and the escaper ([`escape`], the workspace's one,
//! from `thermal_ckpt::json`) is deterministic — which is what makes
//! `cargo xtask lint --json` byte-identical across runs.

use std::fmt;

/// A parsed JSON value (integers only; the lint schemas carry no
/// floats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number.
    Num(i64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, preserving key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload as `usize`, when this is a non-negative
    /// number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0 => usize::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The array payload, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse failure with a 1-based source line.
#[derive(Debug)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    i: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            line: self.line,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.bytes.get(self.i).copied();
        if let Some(b) = b {
            self.i += 1;
            if b == b'\n' {
                self.line += 1;
            }
        }
        b
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.bump();
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(self.err(format!("expected `{}`, got `{}`", b as char, got as char))),
            None => Err(self.err(format!("expected `{}`, got end of input", b as char))),
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_obj(),
            Some(b'[') => self.parse_arr(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_num(),
            Some(b) => Err(self.err(format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn parse_num(&mut self) -> Result<Value, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.err("floating-point numbers are not part of the lint schemas"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.i])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<i64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("invalid integer `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0_u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble a UTF-8 sequence.
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.i - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let end = self.i.min(self.bytes.len());
                    out.push_str(&String::from_utf8_lossy(&self.bytes[start..end]));
                }
            }
        }
    }

    fn parse_arr(&mut self) -> Result<Value, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_obj(&mut self) -> Result<Value, JsonError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect_byte(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Obj(members)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

/// Parses a complete JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        i: 0,
        line: 1,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.i != p.bytes.len() {
        return Err(p.err("trailing bytes after the JSON document"));
    }
    Ok(value)
}

/// The workspace's one JSON string escaper, shared with every
/// byte-compared report.
pub use thermal_ckpt::json::escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_baseline_shape() {
        let v = parse(
            r#"{
  "schema": "xtask-lint-baseline/1",
  "findings": [
    { "rule": "hot-path-index", "file": "a.rs", "line": 3, "column": 9, "snippet": "x[i]" }
  ]
}"#,
        )
        .unwrap();
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("xtask-lint-baseline/1")
        );
        let findings = v.get("findings").and_then(Value::as_arr).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].get("line").and_then(Value::as_usize), Some(3));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("{\n  \"a\": 1,\n  oops\n}").unwrap_err();
        assert_eq!(err.line, 3);
        let err = parse("{ \"a\": 1.5 }").unwrap_err();
        assert!(err.message.contains("floating-point"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "quote \" backslash \\ newline \n tab \t ctrl \u{1} done";
        let doc = format!("{{\"s\": \"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some(original));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }
}
