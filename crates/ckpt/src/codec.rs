//! Hand-rolled text codec for checkpoint payloads.
//!
//! The vendored serde shim has no serializer, so every checkpoint is
//! encoded as a small line-oriented [`Record`]: a tag line followed
//! by `key value` lines. The format is designed for *bit-exact*
//! round-trips and stable bytes:
//!
//! * `f64` values are encoded as the hex of [`f64::to_bits`]
//!   ([`Record::put_f64`]/[`Record::get_f64`]) — no decimal formatting, no
//!   round-trip drift, NaN-payload preserving,
//! * keys are emitted in insertion order and the encoder is the only
//!   producer, so identical inputs yield identical bytes (the
//!   property the chaos harness' byte-equality assertion rests on),
//! * strings are percent-escaped only for the four characters the
//!   format reserves (`%`, newline, space, and the list separator
//!   `,`), keeping payloads human-inspectable.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

use crate::error::CkptError;

/// A tagged, ordered list of `key value` pairs — the payload shape
/// every checkpoint in the workspace encodes to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    tag: String,
    fields: Vec<(String, String)>,
}

impl Record {
    /// A new empty record with the given tag (format identifier).
    pub fn new(tag: &str) -> Self {
        Self {
            tag: tag.to_string(),
            fields: Vec::new(),
        }
    }

    /// The record's tag line.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// Appends a string field (value escaped at insertion).
    pub fn put(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields.push((key.to_string(), escape(value)));
        self
    }

    /// Appends any `Display` value (an integer, in practice) as its
    /// text form. [`fields!`](crate::fields!) writes through this.
    pub fn put_value(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.put(key, &value.to_string())
    }

    /// Appends an unsigned integer field.
    pub fn put_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.put_value(key, value)
    }

    /// Appends a usize field.
    pub fn put_usize(&mut self, key: &str, value: usize) -> &mut Self {
        self.put_value(key, value)
    }

    /// Appends a signed integer field (timestamps in minutes).
    pub fn put_i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.put_value(key, value)
    }

    /// Appends a slice, each element rendered by `render`, comma-joined
    /// (the joined text is escaped like any string field).
    fn put_joined<T>(
        &mut self,
        key: &str,
        values: &[T],
        render: impl Fn(&T) -> String,
    ) -> &mut Self {
        let joined = values.iter().map(render).collect::<Vec<_>>().join(",");
        self.put(key, &joined)
    }

    /// Appends a slice of `i64`s, comma-joined.
    pub fn put_i64_slice(&mut self, key: &str, values: &[i64]) -> &mut Self {
        self.put_joined(key, values, ToString::to_string)
    }

    /// Appends a slice of `u64`s, comma-joined.
    pub fn put_u64_slice(&mut self, key: &str, values: &[u64]) -> &mut Self {
        self.put_joined(key, values, ToString::to_string)
    }

    /// Appends an `f64` field, bit-exact (hex of `to_bits`).
    pub fn put_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.put(key, &f64_to_hex(value))
    }

    /// Appends a slice of `f64`s, bit-exact, comma-joined.
    pub fn put_f64_slice(&mut self, key: &str, values: &[f64]) -> &mut Self {
        self.put_joined(key, values, |&v| f64_to_hex(v))
    }

    /// Appends a slice of usizes, comma-joined.
    pub fn put_usize_slice(&mut self, key: &str, values: &[usize]) -> &mut Self {
        self.put_joined(key, values, ToString::to_string)
    }

    /// Appends a list of strings, each percent-escaped, comma-joined.
    pub fn put_str_list(&mut self, key: &str, values: &[String]) -> &mut Self {
        let joined = values
            .iter()
            .map(|s| escape(s))
            .collect::<Vec<_>>()
            .join(",");
        self.fields.push((key.to_string(), joined));
        self
    }

    /// First value for `key` (still escaped).
    fn raw(&self, key: &str) -> Result<&str, CkptError> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| CkptError::decode("record", format!("missing field {key:?}")))
    }

    /// Required string field (unescaped).
    pub fn get(&self, key: &str) -> Result<String, CkptError> {
        unescape(self.raw(key)?).map_err(|e| field_error(key, e))
    }

    /// Required field parsed with `FromStr` (an integer, in practice).
    /// [`fields!`](crate::fields!) reads through this.
    pub fn parse<T: FromStr>(&self, key: &str) -> Result<T, CkptError>
    where
        T::Err: Display,
    {
        parse_token(key, &self.get(key)?)
    }

    /// Required `u64` field.
    pub fn get_u64(&self, key: &str) -> Result<u64, CkptError> {
        self.parse(key)
    }

    /// Required `usize` field.
    pub fn get_usize(&self, key: &str) -> Result<usize, CkptError> {
        self.parse(key)
    }

    /// Required `i64` field.
    pub fn get_i64(&self, key: &str) -> Result<i64, CkptError> {
        self.parse(key)
    }

    /// Required comma-joined list, each element parsed with `FromStr`.
    fn parse_list<T: FromStr>(&self, key: &str) -> Result<Vec<T>, CkptError>
    where
        T::Err: Display,
    {
        split_list(&self.get(key)?, |tok| parse_token(key, tok))
    }

    /// Required `i64`-slice field.
    pub fn get_i64_slice(&self, key: &str) -> Result<Vec<i64>, CkptError> {
        self.parse_list(key)
    }

    /// Required `u64`-slice field.
    pub fn get_u64_slice(&self, key: &str) -> Result<Vec<u64>, CkptError> {
        self.parse_list(key)
    }

    /// Required bit-exact `f64` field.
    pub fn get_f64(&self, key: &str) -> Result<f64, CkptError> {
        f64_from_hex(&self.get(key)?).map_err(|e| field_error(key, e))
    }

    /// Required `f64`-slice field.
    pub fn get_f64_slice(&self, key: &str) -> Result<Vec<f64>, CkptError> {
        split_list(&self.get(key)?, |tok| {
            f64_from_hex(tok).map_err(|e| field_error(key, e))
        })
    }

    /// Required usize-slice field.
    pub fn get_usize_slice(&self, key: &str) -> Result<Vec<usize>, CkptError> {
        self.parse_list(key)
    }

    /// Required string-list field (each element unescaped).
    pub fn get_str_list(&self, key: &str) -> Result<Vec<String>, CkptError> {
        // Elements were escaped one by one, so split the raw text.
        split_list(self.raw(key)?, |tok| {
            unescape(tok).map_err(|e| field_error(key, e))
        })
    }

    /// Encodes the record to its canonical byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        let _ = writeln!(out, "record {}", escape(&self.tag));
        for (k, v) in &self.fields {
            // String fields were escaped at insertion; scalar fields
            // never contain reserved characters. Keys are validated
            // by construction (crate-internal callers).
            let _ = writeln!(out, "{} {}", escape(k), v);
        }
        out.into_bytes()
    }

    /// Decodes a record from bytes, verifying the expected tag.
    ///
    /// Lines end at `\n` only, as [`Record::encode`] writes them: a
    /// `\r` before it belongs to the line (a string value may end in
    /// one), so `\r\n` is not read as a line ending.
    pub fn decode(bytes: &[u8], expect_tag: &str) -> Result<Self, CkptError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| CkptError::decode("record", format!("not UTF-8: {e}")))?;
        let mut lines = text.split_terminator('\n');
        let header = lines
            .next()
            .ok_or_else(|| CkptError::decode("record", "empty payload"))?;
        let tag_raw = header
            .strip_prefix("record ")
            .ok_or_else(|| CkptError::decode("record", format!("bad header {header:?}")))?;
        let tag = unescape(tag_raw).map_err(|e| CkptError::decode("record", e))?;
        if tag != expect_tag {
            return Err(CkptError::decode(
                "record",
                format!("tag mismatch: found {tag:?}, expected {expect_tag:?}"),
            ));
        }
        let mut fields = Vec::new();
        for line in lines {
            let (k, v) = line
                .split_once(' ')
                .ok_or_else(|| CkptError::decode("record", format!("bad field line {line:?}")))?;
            let key = unescape(k).map_err(|e| CkptError::decode("record", e))?;
            fields.push((key, v.to_string()));
        }
        Ok(Self { tag, fields })
    }
}

/// A decode error naming the offending field.
fn field_error(key: &str, detail: impl Display) -> CkptError {
    CkptError::decode("record", format!("field {key:?}: {detail}"))
}

/// Splits a comma-joined list (empty text is the empty list),
/// decoding each element.
fn split_list<T>(
    text: &str,
    decode: impl Fn(&str) -> Result<T, CkptError>,
) -> Result<Vec<T>, CkptError> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',').map(decode).collect()
}

/// Parses one token of field `key` as a `T`.
fn parse_token<T: FromStr>(key: &str, token: &str) -> Result<T, CkptError>
where
    T::Err: Display,
{
    token.parse().map_err(|e| {
        field_error(
            key,
            format_args!("not a {}: {e}", std::any::type_name::<T>()),
        )
    })
}

/// Hex of the IEEE-754 bits of `v` — the bit-exact wire form.
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`f64_to_hex`].
pub fn f64_from_hex(hex: &str) -> Result<f64, String> {
    let bits =
        u64::from_str_radix(hex.trim(), 16).map_err(|e| format!("bad f64 bits {hex:?}: {e}"))?;
    Ok(f64::from_bits(bits))
}

/// Percent-escapes the characters the record format reserves.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0a"),
            ',' => out.push_str("%2c"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in {s:?}"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| format!("bad escape in {s:?}"))?;
            let code = u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape in {s:?}"))?;
            out.push(char::from(code));
            i += 3;
        } else {
            // Input is valid UTF-8; walk one scalar at a time.
            let ch = s[i..]
                .chars()
                .next()
                .ok_or_else(|| format!("bad offset in {s:?}"))?;
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut r = Record::new("test-v1");
        r.put("name", "cell a,b %weird")
            .put_u64("seed", u64::MAX)
            .put_usize("n", 42)
            .put_f64("x", -0.1)
            .put_f64("nan", f64::NAN);
        let bytes = r.encode();
        let d = Record::decode(&bytes, "test-v1").unwrap();
        assert_eq!(d.get("name").unwrap(), "cell a,b %weird");
        assert_eq!(d.get_u64("seed").unwrap(), u64::MAX);
        assert_eq!(d.get_usize("n").unwrap(), 42);
        assert_eq!(d.get_f64("x").unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(d.get_f64("nan").unwrap().is_nan());
    }

    #[test]
    fn slice_roundtrip_including_empty() {
        let mut r = Record::new("s");
        r.put_f64_slice("vals", &[1.5, -2.25, f64::INFINITY])
            .put_f64_slice("none", &[])
            .put_usize_slice("idx", &[3, 0, 7])
            .put_usize_slice("noidx", &[])
            .put_str_list("names", &["t01".into(), "has space".into(), "c,d".into()])
            .put_str_list("nonames", &[]);
        let d = Record::decode(&r.encode(), "s").unwrap();
        assert_eq!(
            d.get_f64_slice("vals").unwrap(),
            vec![1.5, -2.25, f64::INFINITY]
        );
        assert!(d.get_f64_slice("none").unwrap().is_empty());
        assert_eq!(d.get_usize_slice("idx").unwrap(), vec![3, 0, 7]);
        assert!(d.get_usize_slice("noidx").unwrap().is_empty());
        assert_eq!(
            d.get_str_list("names").unwrap(),
            vec!["t01".to_string(), "has space".into(), "c,d".into()]
        );
        assert!(d.get_str_list("nonames").unwrap().is_empty());
    }

    #[test]
    fn encode_is_deterministic() {
        let build = || {
            let mut r = Record::new("det");
            r.put_f64("a", 0.1 + 0.2).put_usize("b", 9);
            r.encode()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(Record::decode(b"", "t").is_err());
        assert!(Record::decode(b"not-a-record\n", "t").is_err());
        assert!(Record::decode(b"record other\n", "t").is_err());
        assert!(Record::decode(b"record t\nbadline\n", "t").is_err());
        assert!(Record::decode(&[0xff, 0xfe], "t").is_err());
        let r = Record::decode(b"record t\nk v\n", "t").unwrap();
        assert!(r.get("missing").is_err());
        assert!(r.get_u64("k").is_err());
        assert!(r.get_f64("k").is_err());
    }

    #[test]
    fn values_ending_in_carriage_return_roundtrip() {
        for value in ["a\r", "\r", "\r\r", "x\r\ny\r", "\n\r"] {
            let mut r = Record::new("cr\r");
            r.put("k", value)
                .put_str_list("list", &[value.into(), "b".into()]);
            let bytes = r.encode();
            let d = Record::decode(&bytes, "cr\r").unwrap();
            assert_eq!(d.get("k").unwrap(), value);
            assert_eq!(
                d.get_str_list("list").unwrap(),
                vec![value.to_string(), "b".into()]
            );
            assert_eq!(d.encode(), bytes);
        }
    }

    #[test]
    fn f64_hex_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
        ] {
            let back = f64_from_hex(&f64_to_hex(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
