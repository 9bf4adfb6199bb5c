//! Property-based tests of the snapshot envelope and the
//! [`Snapshot`] byte-identity contract (see DESIGN.md
//! § restore-equivalence): for *any* record contents, sealing is
//! deterministic and `encode → decode → encode` is byte-identical;
//! for *any* single corrupted bit or truncation, unsealing fails
//! closed; and for *any* driven [`CircuitBreaker`] history, restoring
//! its snapshot onto a fresh instance reproduces the snapshot bytes
//! exactly.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use thermal_ckpt::codec::Record;
use thermal_ckpt::snapshot::{restore_from, seal, snapshot_bytes, unseal};
use thermal_ckpt::{BreakerPolicy, CircuitBreaker};

/// Characters exercised in generated string values — every byte class
/// the codec escapes (`%`, space, newline, comma), the carriage return
/// it does not, plus plain ASCII and non-ASCII text.
const PALETTE: &[char] = &[
    'a', 'b', 'z', 'A', '0', '9', '_', '-', '.', '%', ' ', '\n', '\r', ',', '°', 'é', '/',
];

/// Arbitrary field value drawing from the full escape palette.
fn value_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..24)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

/// One generated record field: a short key plus one of the codec's
/// value shapes, chosen by `kind`.
#[derive(Debug)]
struct Field {
    key: String,
    kind: usize,
    text: String,
    word: u64,
    real: f64,
    reals: Vec<f64>,
    words: Vec<u64>,
    texts: Vec<String>,
}

fn field_strategy() -> impl Strategy<Value = Field> {
    (
        prop::collection::vec(0usize..26, 1..8),
        0usize..7,
        value_strategy(),
        any::<u64>(),
        any::<f64>(),
        prop::collection::vec(any::<f64>(), 0..6),
        (
            prop::collection::vec(any::<u64>(), 0..6),
            prop::collection::vec(value_strategy(), 0..4),
        ),
    )
        .prop_map(
            |(key, kind, text, word, real, reals, (words, texts))| Field {
                key: key
                    .into_iter()
                    .map(|i| char::from(b'a' + u8::try_from(i).unwrap()))
                    .collect(),
                kind,
                text,
                word,
                real,
                reals,
                words,
                texts,
            },
        )
}

/// A record with arbitrary string, integer, float, and list fields.
fn record_strategy() -> impl Strategy<Value = Record> {
    prop::collection::vec(field_strategy(), 0..10).prop_map(|fields| {
        let mut rec = Record::new("prop-test");
        for f in fields {
            match f.kind {
                0 => rec.put(&f.key, &f.text),
                1 => rec.put_u64(&f.key, f.word),
                2 => rec.put_i64(&f.key, f.word.cast_signed()),
                3 => rec.put_f64(&f.key, f.real),
                4 => rec.put_f64_slice(&f.key, &f.reals),
                5 => rec.put_u64_slice(&f.key, &f.words),
                _ => rec.put_str_list(&f.key, &f.texts),
            };
        }
        rec
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sealing any record twice yields the same bytes, and the
    /// decoded record re-seals to those bytes — the determinism the
    /// kill-point harness's byte comparisons stand on.
    #[test]
    fn seal_unseal_seal_is_byte_identical(rec in record_strategy()) {
        let first = seal("prop-test", 3, &rec);
        prop_assert_eq!(&first, &seal("prop-test", 3, &rec));
        let decoded = unseal(&first, "prop-test", 3).unwrap();
        prop_assert_eq!(first, seal("prop-test", 3, &decoded));
    }

    /// Values ending in `\r`, or made of `\r` alone, unseal intact and
    /// re-seal to the same bytes: the decoder splits lines on `\n`
    /// only.
    #[test]
    fn carriage_returns_survive_a_round_trip(text in value_strategy(), crs in 1usize..3) {
        for value in [format!("{text}{}", "\r".repeat(crs)), "\r".repeat(crs)] {
            let mut rec = Record::new("prop-test");
            rec.put("k", &value).put_str_list("l", &[value.clone(), text.clone()]);
            let sealed = seal("prop-test", 1, &rec);
            let decoded = unseal(&sealed, "prop-test", 1).unwrap();
            prop_assert_eq!(decoded.get("k").unwrap(), value.clone());
            prop_assert_eq!(decoded.get_str_list("l").unwrap(), vec![value.clone(), text.clone()]);
            prop_assert_eq!(&sealed, &seal("prop-test", 1, &decoded));
        }
    }

    /// Any single flipped bit anywhere in a sealed snapshot —
    /// header, length, checksum, or body — must be detected; a
    /// corrupted snapshot is never parsed.
    #[test]
    fn any_single_bit_flip_is_detected(
        (rec, pos, bit) in (record_strategy(), any::<u64>(), 0u8..8),
    ) {
        let sealed = seal("prop-test", 1, &rec);
        let at = usize::try_from(pos).unwrap_or(usize::MAX) % sealed.len();
        let mut bytes = sealed;
        bytes[at] ^= 1 << bit;
        prop_assert!(
            unseal(&bytes, "prop-test", 1).is_err(),
            "flip of bit {bit} at byte {at} went undetected"
        );
    }

    /// Any truncation of a sealed snapshot is detected — a torn write
    /// can never masquerade as a shorter valid snapshot.
    #[test]
    fn any_truncation_is_detected(
        (rec, keep) in (record_strategy(), any::<u64>()),
    ) {
        let sealed = seal("prop-test", 1, &rec);
        let cut = usize::try_from(keep).unwrap_or(usize::MAX) % sealed.len();
        prop_assert!(unseal(&sealed[..cut], "prop-test", 1).is_err());
    }

    /// Driving a breaker through any tick/allow/success/failure
    /// history, snapshotting it, and restoring onto a fresh breaker
    /// with the same policy reproduces the snapshot bytes exactly.
    #[test]
    fn breaker_roundtrip_is_byte_identical(ops in prop::collection::vec(0usize..4, 0..64)) {
        let policy = BreakerPolicy {
            threshold: 2,
            cooldown_ticks: 3,
        };
        let mut driven = CircuitBreaker::new(policy).unwrap();
        for op in ops {
            match op {
                0 => driven.tick(),
                1 => {
                    let _ = driven.allow();
                }
                2 => driven.record_success(),
                _ => driven.record_failure(),
            }
        }
        let bytes = snapshot_bytes(&driven);
        let mut fresh = CircuitBreaker::new(policy).unwrap();
        restore_from(&mut fresh, &bytes).unwrap();
        prop_assert_eq!(&bytes, &snapshot_bytes(&fresh));
        prop_assert_eq!(fresh.state(), driven.state());
        prop_assert_eq!(fresh.trips(), driven.trips());
        prop_assert_eq!(fresh.refusals(), driven.refusals());
    }
}
