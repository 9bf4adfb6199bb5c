//! One field list per counter struct.
//!
//! A counter struct (a bag of `u64`/`usize` tallies such as a queue's
//! loss accounting) travels in two canonical forms: snapshot records,
//! which must restore it bit for bit, and JSON reports, which the
//! harnesses byte-compare. [`fields!`](crate::fields!) names the
//! struct's fields once and derives both, so a counter added to the
//! list reaches every snapshot and report that carries the struct, in
//! the same order and under the same key.

use crate::codec::Record;
use crate::error::CkptError;
use crate::json::JsonWriter;

/// A struct whose fields were listed by [`fields!`](crate::fields!).
///
/// Every key is `prefix + field name`, so one struct can appear several
/// times in one record (`queue_accepted`, `reorder_released`, …).
pub trait Fields: Sized {
    /// Appends every listed field to `rec`, in list order.
    fn put_fields(&self, rec: &mut Record, prefix: &str);

    /// Reads every listed field from `rec` into a new value; fields not
    /// in the list take their `Default`. Nothing is built unless every
    /// listed field parses, so a restore using it stays all-or-nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Decode`] when a listed field is missing or
    /// malformed.
    fn get_fields(rec: &Record, prefix: &str) -> Result<Self, CkptError>;

    /// Writes every listed field as a member of the open JSON object.
    fn json_fields(&self, w: &mut JsonWriter, prefix: &str);
}

/// Implements [`Fields`] for a struct from one list of its field names.
///
/// `fields!(QueueStats: accepted, rejected, evicted, high_water);`
/// lists every field; a trailing `..` (`fields!(Stats: a, b, ..);`)
/// lists some and lets the rest take their `Default` on read. Listed
/// fields must be integers (anything `Display + FromStr`).
#[macro_export]
macro_rules! fields {
    ($ty:ident: $($field:ident),+ $(,)?) => {
        $crate::fields!(@impl $ty [$($field),+] []);
    };
    ($ty:ident: $($field:ident),+, ..) => {
        $crate::fields!(@impl $ty [$($field),+] [..::core::default::Default::default()]);
    };
    (@impl $ty:ident [$($field:ident),+] [$($rest:tt)*]) => {
        impl $crate::Fields for $ty {
            fn put_fields(&self, rec: &mut $crate::codec::Record, prefix: &str) {
                $(rec.put_value(&::std::format!("{prefix}{}", ::core::stringify!($field)), self.$field);)+
            }

            fn get_fields(
                rec: &$crate::codec::Record,
                prefix: &str,
            ) -> ::core::result::Result<Self, $crate::CkptError> {
                ::core::result::Result::Ok($ty {
                    $($field: rec.parse(&::std::format!("{prefix}{}", ::core::stringify!($field)))?,)+
                    $($rest)*
                })
            }

            fn json_fields(&self, w: &mut $crate::json::JsonWriter, prefix: &str) {
                $(w.key(&::std::format!("{prefix}{}", ::core::stringify!($field))).num(self.$field);)+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Layout;

    #[derive(Debug, Default, PartialEq)]
    struct Toy {
        hits: u64,
        depth: usize,
        skew: i64,
        unlisted: u64,
    }

    crate::fields!(Toy: hits, depth, skew, ..);

    #[test]
    fn record_keys_equal_json_keys_under_a_prefix() {
        let toy = Toy {
            hits: 3,
            depth: 9,
            skew: -4,
            unlisted: 77,
        };
        let mut rec = Record::new("toy");
        toy.put_fields(&mut rec, "q_");
        let body = String::from_utf8(rec.encode()).unwrap();
        assert_eq!(body, "record toy\nq_hits 3\nq_depth 9\nq_skew -4\n");
        let json = JsonWriter::document(|w| {
            w.key("toy")
                .object(Layout::Inline, |w| toy.json_fields(w, "q_"));
        });
        assert_eq!(
            json,
            "{\n  \"toy\": {\"q_hits\": 3, \"q_depth\": 9, \"q_skew\": -4}\n}\n"
        );
        let back = Toy::get_fields(&Record::decode(body.as_bytes(), "toy").unwrap(), "q_");
        let expected = Toy { unlisted: 0, ..toy };
        assert_eq!(back.unwrap(), expected);
    }

    #[test]
    fn a_record_missing_one_listed_field_is_an_error() {
        let mut rec = Record::new("toy");
        rec.put_u64("q_hits", 3).put_usize("q_depth", 9);
        assert!(Toy::get_fields(&rec, "q_").is_err());
        assert!(Toy::get_fields(&rec, "").is_err());
        rec.put_i64("q_skew", 1);
        assert!(Toy::get_fields(&rec, "q_").is_ok());
    }
}
