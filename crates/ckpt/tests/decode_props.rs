//! The checkpoint decoders never panic: [`snapshot::unseal`],
//! [`Record::decode`] and [`Manifest::parse`] fed arbitrary bytes,
//! truncated or spliced valid envelopes, records and manifests, and
//! non-UTF-8 bytes return `Ok` or a typed [`CkptError::Decode`].
//!
//! Hand-picked malformations (a dangling or non-ASCII escape, a CRLF
//! record, an envelope with an empty body, a non-UTF-8 manifest
//! field) run as a fixed test beside the random ones.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use thermal_ckpt::codec::Record;
use thermal_ckpt::manifest::{Manifest, ManifestEntry};
use thermal_ckpt::snapshot::{seal, unseal};
use thermal_ckpt::CkptError;

/// Arbitrary bytes, up to `max` long.
fn bytes_strategy(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0usize..256, 0..max)
        .prop_map(|v| v.into_iter().map(|b| u8::try_from(b).unwrap()).collect())
}

/// Text drawn from the characters the formats care about: every
/// escape, the separators, `\r`, digits, hex and non-ASCII.
fn text_strategy() -> impl Strategy<Value = String> {
    const PALETTE: &[char] = &[
        'a', 'f', 'x', '0', '7', '%', ' ', '\n', '\r', ',', '=', '+', '-', 'é', '°',
    ];
    prop::collection::vec(0usize..PALETTE.len(), 0..20)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

/// A sealed snapshot of a record with string, integer and float
/// fields.
fn envelope_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(text_strategy(), 0..5),
        any::<u64>(),
        any::<f64>(),
    )
        .prop_map(|(texts, word, real)| {
            let mut rec = Record::new("prop-test");
            for (i, text) in texts.iter().enumerate() {
                rec.put(&format!("s{i}"), text);
            }
            rec.put_u64("w", word)
                .put_f64("r", real)
                .put_str_list("l", &texts);
            seal("prop-test", 1, &rec)
        })
}

/// A rendered manifest with a few entries and failure counts.
fn manifest_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u64>(),
        prop::collection::vec((0usize..6, any::<u64>(), any::<u32>()), 0..5),
    )
        .prop_map(|(seed, rows)| {
            let mut m = Manifest::new(seed, "rev");
            for (i, len, count) in rows {
                m.entries.insert(
                    format!("cell{i}.ck"),
                    ManifestEntry {
                        len,
                        hash: len.rotate_left(17),
                    },
                );
                m.failures.insert(format!("cell{i}"), count);
            }
            m.render()
        })
}

/// `bytes` cut at `cut`, with `insert` spliced in there and the part
/// of `tail` from `from` appended: truncation, splicing and
/// non-UTF-8 injection in one shape.
fn mangle(bytes: &[u8], cut: usize, insert: &[u8], tail: &[u8], from: usize) -> Vec<u8> {
    let cut = cut % (bytes.len() + 1);
    let from = from % (tail.len() + 1);
    let mut out = bytes[..cut].to_vec();
    out.extend_from_slice(insert);
    out.extend_from_slice(&tail[from..]);
    out
}

/// A random position, wrapped into range by [`mangle`].
fn index(word: u64) -> usize {
    usize::try_from(word).unwrap_or(usize::MAX)
}

/// Every decoder on `bytes`: each returns, and every error is a
/// decode error.
fn decode_all(bytes: &[u8]) -> Result<(), TestCaseError> {
    let results = [
        unseal(bytes, "prop-test", 1).err(),
        Record::decode(bytes, "prop-test").err(),
        Manifest::parse(bytes).err(),
    ];
    for err in results.into_iter().flatten() {
        prop_assert!(
            matches!(err, CkptError::Decode { .. }),
            "untyped decode failure: {err:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, UTF-8 or not.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in bytes_strategy(300)) {
        decode_all(&bytes)?;
    }

    /// Valid envelopes cut, spliced into each other and salted with
    /// arbitrary (often non-UTF-8) bytes; the record bodies alone too,
    /// since the checksum otherwise keeps a mangled body from ever
    /// reaching `Record::decode`.
    #[test]
    fn mangled_envelopes_never_panic(
        a in envelope_strategy(),
        b in envelope_strategy(),
        cut in any::<u64>(),
        from in any::<u64>(),
        insert in bytes_strategy(6),
    ) {
        let (cut, from) = (index(cut), index(from));
        decode_all(&mangle(&a, cut, &insert, &b, from))?;
        decode_all(&mangle(&a, cut, &[], &[], 0))?;
        let body = |e: &[u8]| e.iter().position(|&x| x == b'\n').map_or(Vec::new(), |i| e[i + 1..].to_vec());
        decode_all(&mangle(&body(&a), cut, &insert, &body(&b), from))?;
    }

    /// Valid manifests cut, spliced and salted the same way.
    #[test]
    fn mangled_manifests_never_panic(
        a in manifest_strategy(),
        b in manifest_strategy(),
        cut in any::<u64>(),
        from in any::<u64>(),
        insert in bytes_strategy(6),
    ) {
        let (cut, from) = (index(cut), index(from));
        decode_all(&mangle(&a, cut, &insert, &b, from))?;
        decode_all(&mangle(&a, cut, &[], &[], 0))?;
    }
}

#[test]
fn hand_picked_malformations_are_typed_errors() {
    let cases: [&[u8]; 9] = [
        b"",
        b"\n",
        b"record prop-test\n%",
        b"record prop-test\nk %e",
        b"record prop-test\nk %\xc3\xa9",
        b"record prop-test\r\nk v\r\n",
        b"thermal-snapshot v1 prop-test 1 0 cbf29ce484222325\n",
        b"thermal-ckpt-manifest v1\nschema=1\nseed=1\nrev=\xff\n",
        b"\xff\xfe\n\n",
    ];
    for bytes in cases {
        decode_all(bytes).unwrap();
    }
}
