//! Versioned, checksummed snapshots of live serving state.
//!
//! The [`crate::codec::Record`] format gives bit-exact payload bytes;
//! this module wraps it in a self-verifying *envelope* and a small
//! trait so every piece of streaming/fleet runtime state (queues,
//! reorder buffers, health machines, RLS estimators, shard ladders)
//! can be captured at a slot boundary and restored after a crash:
//!
//! ```text
//! thermal-snapshot v1 <tag> <version> <len> <fnv64-hex>
//! record <tag>
//! <key> <value>
//! ...
//! ```
//!
//! The header carries the schema tag, the per-type version, the body
//! length, and the FNV-1a 64 hash of the body, so a truncated or
//! bit-flipped snapshot is *detected before parsing* — [`unseal`]
//! refuses it with a typed error and the store helpers quarantine it
//! (with a structured log entry) and fall back to the previous good
//! snapshot. Restore is therefore never fed garbage.
//!
//! # The restore discipline
//!
//! [`Snapshot::restore`] mutates state in place (live state usually
//! needs construction context — a fitted model, a replay trace — that
//! a from-bytes constructor cannot supply). Implementations must
//! parse **every** field into locals before assigning any of them, so
//! a malformed record leaves the receiver untouched. The envelope
//! checksum makes post-checksum malformation an anomaly, not a crash
//! artifact, so the store helpers treat it like corruption: quarantine
//! and fall back.
//!
//! # Determinism
//!
//! Capture must be a pure function of logical state: insertion-ordered
//! fields, hex-of-bits floats, and **no wall-clock timestamps** — any
//! notion of "when" inside a snapshot comes from the simulated clock
//! that is itself part of the captured state. (clippy.toml's
//! `disallowed-methods` keep the wall clocks out of this crate.) That is what
//! lets the chaos harness assert that a killed-and-resumed soak writes
//! a report byte-identical to an uninterrupted one.

use crate::atomic::fnv1a64;
use crate::codec::Record;
use crate::error::CkptError;
use crate::store::CheckpointStore;

/// Magic + format version of the envelope header line.
pub const SNAPSHOT_MAGIC: &str = "thermal-snapshot v1";

/// State that can be captured into a [`Record`] and restored from one.
///
/// `TAG` identifies the state's schema (one tag per type), `VERSION`
/// its layout revision; both are verified by [`unseal`] before any
/// field is read. See the module docs for the all-or-nothing restore
/// discipline implementations must follow.
pub trait Snapshot {
    /// Schema tag naming this state's record layout.
    const TAG: &'static str;
    /// Layout revision; bump on any incompatible field change.
    const VERSION: u32;

    /// Writes every logical field into `rec` (insertion order fixed).
    fn capture(&self, rec: &mut Record);

    /// Restores state from a record produced by [`Snapshot::capture`].
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Decode`] when a field is missing,
    /// malformed, or inconsistent with this receiver's construction
    /// parameters; the receiver is left unchanged in that case.
    fn restore(&mut self, rec: &Record) -> Result<(), CkptError>;
}

/// Encodes `state` to envelope bytes (header + record body).
pub fn snapshot_bytes<S: Snapshot>(state: &S) -> Vec<u8> {
    let mut rec = Record::new(S::TAG);
    state.capture(&mut rec);
    seal(S::TAG, S::VERSION, &rec)
}

/// Verifies envelope bytes and restores `state` from them.
///
/// # Errors
///
/// Returns [`CkptError::Decode`] on any envelope, checksum, tag,
/// version, or field failure; `state` is unchanged on error.
pub fn restore_from<S: Snapshot>(state: &mut S, bytes: &[u8]) -> Result<(), CkptError> {
    let rec = unseal(bytes, S::TAG, S::VERSION)?;
    state.restore(&rec)
}

/// Wraps an encoded record in the checksummed snapshot envelope.
pub fn seal(tag: &str, version: u32, rec: &Record) -> Vec<u8> {
    let body = rec.encode();
    let mut out = format!(
        "{SNAPSHOT_MAGIC} {tag} {version} {} {:016x}\n",
        body.len(),
        fnv1a64(&body)
    )
    .into_bytes();
    out.extend_from_slice(&body);
    out
}

/// Verifies the envelope (magic, tag, version, length, checksum) and
/// decodes the record body. The checksum is checked *before* the body
/// is parsed, so torn or bit-flipped snapshots never reach a decoder.
///
/// # Errors
///
/// Returns [`CkptError::Decode`] describing the first verification
/// failure.
pub fn unseal(bytes: &[u8], tag: &str, version: u32) -> Result<Record, CkptError> {
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| CkptError::decode("snapshot", "missing envelope header"))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|e| CkptError::decode("snapshot", format!("header not UTF-8: {e}")))?;
    let rest = header
        .strip_prefix(SNAPSHOT_MAGIC)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| CkptError::decode("snapshot", format!("bad magic in {header:?}")))?;
    let mut parts = rest.split(' ');
    let (Some(got_tag), Some(got_version), Some(got_len), Some(got_hash), None) = (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    ) else {
        return Err(CkptError::decode(
            "snapshot",
            format!("malformed header {header:?}"),
        ));
    };
    if got_tag != tag {
        return Err(CkptError::decode(
            "snapshot",
            format!("tag mismatch: found {got_tag:?}, expected {tag:?}"),
        ));
    }
    let got_version: u32 = got_version
        .parse()
        .map_err(|e| CkptError::decode("snapshot", format!("bad version: {e}")))?;
    if got_version != version {
        return Err(CkptError::decode(
            "snapshot",
            format!("version mismatch: found {got_version}, expected {version}"),
        ));
    }
    let len: usize = got_len
        .parse()
        .map_err(|e| CkptError::decode("snapshot", format!("bad length: {e}")))?;
    let hash = u64::from_str_radix(got_hash, 16)
        .map_err(|e| CkptError::decode("snapshot", format!("bad checksum field: {e}")))?;
    // Integer parsing tolerates aliases (uppercase hex, leading `+`,
    // leading zeros); the envelope does not. Requiring the header to
    // re-render byte-identically rejects every non-canonical spelling,
    // so no two distinct byte strings unseal to the same snapshot.
    let canonical = format!("{SNAPSHOT_MAGIC} {tag} {version} {len} {hash:016x}");
    if header != canonical {
        return Err(CkptError::decode(
            "snapshot",
            format!("non-canonical header {header:?}"),
        ));
    }
    let body = &bytes[newline + 1..];
    if body.len() != len {
        return Err(CkptError::decode(
            "snapshot",
            format!(
                "length mismatch: body {} bytes, header says {len}",
                body.len()
            ),
        ));
    }
    if fnv1a64(body) != hash {
        return Err(CkptError::decode(
            "snapshot",
            "checksum mismatch: snapshot is torn or corrupted",
        ));
    }
    Record::decode(body, tag)
}

/// Embeds `child` as a nested snapshot field of `rec`.
///
/// The child's full envelope (so its own tag/version/checksum travel
/// with it) is valid UTF-8 and stored as an escaped string field.
pub fn put_nested<S: Snapshot>(rec: &mut Record, key: &str, child: &S) {
    let bytes = snapshot_bytes(child);
    // Envelope bytes are built from `String`s, so this cannot fail.
    let text = String::from_utf8_lossy(&bytes);
    rec.put(key, &text);
}

/// Restores `child` from a nested snapshot field written by
/// [`put_nested`].
///
/// # Errors
///
/// Returns [`CkptError::Decode`] when the field is missing or the
/// nested envelope fails verification.
pub fn get_nested<S: Snapshot>(rec: &Record, key: &str, child: &mut S) -> Result<(), CkptError> {
    let text = rec.get(key)?;
    restore_from(child, text.as_bytes())
}

/// Embeds a homogeneous list of nested snapshots as one field.
pub fn put_nested_list<S: Snapshot>(rec: &mut Record, key: &str, children: &[S]) {
    let items: Vec<String> = children
        .iter()
        .map(|c| String::from_utf8_lossy(&snapshot_bytes(c)).into_owned())
        .collect();
    rec.put_str_list(key, &items);
}

/// Restores a list written by [`put_nested_list`] element-wise.
///
/// # Errors
///
/// Returns [`CkptError::Decode`] when the field is missing, the list
/// length differs from `children.len()`, or any element fails
/// verification.
pub fn get_nested_list<S: Snapshot>(
    rec: &Record,
    key: &str,
    children: &mut [S],
) -> Result<(), CkptError> {
    let items = rec.get_str_list(key)?;
    if items.len() != children.len() {
        return Err(CkptError::decode(
            "snapshot",
            format!(
                "nested list {key:?} has {} elements, receiver has {}",
                items.len(),
                children.len()
            ),
        ));
    }
    for (child, text) in children.iter_mut().zip(&items) {
        restore_from(child, text.as_bytes())?;
    }
    Ok(())
}

/// Zero-padded store name of snapshot `seq` in `namespace`, e.g.
/// `progress-00000042`. Zero padding makes lexicographic order equal
/// numeric order, so "newest" is a plain name scan.
pub fn snapshot_name(namespace: &str, seq: u64) -> String {
    format!("{namespace}-{seq:08}")
}

/// Parses the sequence number out of a store name produced by
/// [`snapshot_name`] for `namespace`; `None` for foreign names.
fn parse_seq(namespace: &str, name: &str) -> Option<u64> {
    let suffix = name.strip_prefix(namespace)?.strip_prefix('-')?;
    if suffix.len() != 8 || !suffix.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    suffix.parse().ok()
}

/// Commits snapshot `seq` of `state` under `namespace` in `store`.
///
/// # Errors
///
/// Returns [`CkptError`] on I/O failure.
pub fn save_snapshot<S: Snapshot>(
    store: &mut CheckpointStore,
    namespace: &str,
    seq: u64,
    state: &S,
) -> Result<(), CkptError> {
    store.put(&snapshot_name(namespace, seq), &snapshot_bytes(state))
}

/// Commits a record-level snapshot (for composite top-level state a
/// workload assembles by hand with [`put_nested`]).
///
/// # Errors
///
/// Returns [`CkptError`] on I/O failure.
pub fn save_record_snapshot(
    store: &mut CheckpointStore,
    namespace: &str,
    seq: u64,
    version: u32,
    rec: &Record,
) -> Result<(), CkptError> {
    store.put(
        &snapshot_name(namespace, seq),
        &seal(rec.tag(), version, rec),
    )
}

/// Restores `state` from the newest good snapshot in `namespace`.
///
/// Walks snapshots newest-first. Store-level corruption (content-hash
/// mismatch) is already quarantined by [`CheckpointStore::get`];
/// envelope or field failures are quarantined here with a structured
/// log entry. Either way the walk falls back to the next older
/// snapshot. Returns the restored sequence number, or `None` when no
/// good snapshot exists (fresh start).
///
/// # Errors
///
/// Returns [`CkptError`] only on I/O failure — corruption is
/// quarantine-and-continue, never an error.
pub fn latest_snapshot<S: Snapshot>(
    store: &mut CheckpointStore,
    namespace: &str,
    state: &mut S,
) -> Result<Option<u64>, CkptError> {
    walk_latest(
        store,
        namespace,
        |bytes, state| restore_from(state, bytes),
        state,
    )
}

/// Record-level counterpart of [`latest_snapshot`]: returns the
/// newest good record (and its sequence number) in `namespace`.
///
/// # Errors
///
/// Returns [`CkptError`] only on I/O failure.
pub fn latest_record_snapshot(
    store: &mut CheckpointStore,
    namespace: &str,
    tag: &str,
    version: u32,
) -> Result<Option<(u64, Record)>, CkptError> {
    let mut slot: Option<Record> = None;
    let seq = walk_latest(
        store,
        namespace,
        |bytes, slot| {
            *slot = Some(unseal(bytes, tag, version)?);
            Ok(())
        },
        &mut slot,
    )?;
    Ok(seq.and_then(|s| slot.map(|rec| (s, rec))))
}

/// Shared newest-first walk: try `restore` on each snapshot in
/// descending sequence order, quarantining failures, returning the
/// first success.
fn walk_latest<T>(
    store: &mut CheckpointStore,
    namespace: &str,
    restore: impl Fn(&[u8], &mut T) -> Result<(), CkptError>,
    state: &mut T,
) -> Result<Option<u64>, CkptError> {
    let mut seqs: Vec<u64> = store
        .names()
        .iter()
        .filter_map(|n| parse_seq(namespace, n))
        .collect();
    seqs.sort_unstable();
    for seq in seqs.into_iter().rev() {
        let name = snapshot_name(namespace, seq);
        // `get` re-verifies the content hash; `None` means the payload
        // was already quarantined (late corruption) — fall back.
        let Some(bytes) = store.get(&name)? else {
            continue;
        };
        match restore(&bytes, state) {
            Ok(()) => return Ok(Some(seq)),
            Err(err) => {
                // Hash-intact but unverifiable envelope/fields: treat
                // like corruption — quarantine, log, fall back.
                store.quarantine(&name, &format!("snapshot rejected: {err}"))?;
            }
        }
    }
    Ok(None)
}

/// Deletes all but the newest `keep_last` snapshots in `namespace`,
/// bounding on-disk growth of a long soak. Returns how many were
/// removed.
///
/// # Errors
///
/// Returns [`CkptError`] on I/O failure.
pub fn gc_snapshots(
    store: &mut CheckpointStore,
    namespace: &str,
    keep_last: usize,
) -> Result<usize, CkptError> {
    let mut seqs: Vec<u64> = store
        .names()
        .iter()
        .filter_map(|n| parse_seq(namespace, n))
        .collect();
    seqs.sort_unstable();
    let excess = seqs.len().saturating_sub(keep_last.max(1));
    let stale: Vec<String> = seqs[..excess]
        .iter()
        .map(|&seq| snapshot_name(namespace, seq))
        .collect();
    store.remove_batch(&stale)?;
    Ok(stale.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Toy {
        count: u64,
        level: f64,
        label: String,
    }

    impl Snapshot for Toy {
        const TAG: &'static str = "toy";
        const VERSION: u32 = 1;

        fn capture(&self, rec: &mut Record) {
            rec.put_u64("count", self.count)
                .put_f64("level", self.level)
                .put("label", &self.label);
        }

        fn restore(&mut self, rec: &Record) -> Result<(), CkptError> {
            let count = rec.get_u64("count")?;
            let level = rec.get_f64("level")?;
            let label = rec.get("label")?;
            self.count = count;
            self.level = level;
            self.label = label;
            Ok(())
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("thermal-ckpt-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn envelope_roundtrip_is_byte_identical() {
        let toy = Toy {
            count: 9,
            level: -0.125,
            label: "aud hall".into(),
        };
        let bytes = snapshot_bytes(&toy);
        let mut back = Toy::default();
        restore_from(&mut back, &bytes).unwrap();
        assert_eq!(back, toy);
        assert_eq!(snapshot_bytes(&back), bytes);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = snapshot_bytes(&Toy {
            count: 3,
            level: 1.5,
            label: "x".into(),
        });
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x01;
            let mut sink = Toy::default();
            assert!(
                restore_from(&mut sink, &evil).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = snapshot_bytes(&Toy::default());
        for cut in 0..bytes.len() {
            let mut sink = Toy::default();
            assert!(restore_from(&mut sink, &bytes[..cut]).is_err());
        }
    }

    #[test]
    fn tag_and_version_are_enforced() {
        let rec = {
            let mut r = Record::new("toy");
            Toy::default().capture(&mut r);
            r
        };
        let wrong_version = seal("toy", 2, &rec);
        let mut sink = Toy::default();
        assert!(restore_from(&mut sink, &wrong_version).is_err());
        let mut other = Record::new("other");
        Toy::default().capture(&mut other);
        let wrong_tag = seal("other", 1, &other);
        assert!(restore_from(&mut sink, &wrong_tag).is_err());
    }

    #[test]
    fn failed_restore_leaves_state_untouched() {
        let mut rec = Record::new("toy");
        rec.put_u64("count", 5); // level and label missing
        let bytes = seal("toy", 1, &rec);
        let mut toy = Toy {
            count: 1,
            level: 2.0,
            label: "keep".into(),
        };
        let before = toy.clone();
        assert!(restore_from(&mut toy, &bytes).is_err());
        assert_eq!(toy, before);
    }

    #[test]
    fn nested_and_list_roundtrip() {
        let a = Toy {
            count: 1,
            level: 0.5,
            label: "a".into(),
        };
        let kids = vec![
            a.clone(),
            Toy {
                count: 2,
                level: f64::NAN,
                label: "b,c d".into(),
            },
        ];
        let mut rec = Record::new("parent");
        put_nested(&mut rec, "one", &a);
        put_nested_list(&mut rec, "kids", &kids);
        let wire = Record::decode(&rec.encode(), "parent").unwrap();
        let mut one = Toy::default();
        get_nested(&wire, "one", &mut one).unwrap();
        assert_eq!(one, a);
        let mut back = vec![Toy::default(), Toy::default()];
        get_nested_list(&wire, "kids", &mut back).unwrap();
        assert_eq!(back[0], kids[0]);
        assert_eq!(back[1].count, 2);
        assert!(back[1].level.is_nan());
        assert_eq!(back[1].label, "b,c d");
        let mut short = vec![Toy::default()];
        assert!(get_nested_list(&wire, "kids", &mut short).is_err());
    }

    #[test]
    fn store_save_latest_and_fallback() {
        let root = scratch("latest");
        let mut store = CheckpointStore::open(&root, 7, "t").unwrap();
        for seq in 0..3u64 {
            let toy = Toy {
                count: seq,
                level: seq as f64,
                label: format!("s{seq}"),
            };
            save_snapshot(&mut store, "prog", seq, &toy).unwrap();
        }
        let mut out = Toy::default();
        assert_eq!(
            latest_snapshot(&mut store, "prog", &mut out).unwrap(),
            Some(2)
        );
        assert_eq!(out.count, 2);

        // Corrupt the newest payload on disk: the store-level hash
        // check quarantines it and the walk falls back to seq 1.
        std::fs::write(root.join(snapshot_name("prog", 2)), b"garbage").unwrap();
        let mut store = CheckpointStore::open(&root, 7, "t").unwrap();
        let mut out = Toy::default();
        assert_eq!(
            latest_snapshot(&mut store, "prog", &mut out).unwrap(),
            Some(1)
        );
        assert_eq!(out.label, "s1");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn hash_valid_but_unverifiable_snapshot_is_quarantined_with_log() {
        let root = scratch("badenv");
        let mut store = CheckpointStore::open(&root, 7, "t").unwrap();
        save_snapshot(
            &mut store,
            "prog",
            0,
            &Toy {
                count: 1,
                level: 1.0,
                label: "good".into(),
            },
        )
        .unwrap();
        // A manifested payload whose *envelope* is wrong (here: a bare
        // record with no snapshot header) — store hash passes, unseal
        // must not.
        store
            .put(&snapshot_name("prog", 1), b"not a snapshot at all")
            .unwrap();
        let mut out = Toy::default();
        assert_eq!(
            latest_snapshot(&mut store, "prog", &mut out).unwrap(),
            Some(0)
        );
        assert_eq!(out.label, "good");
        assert!(!store.contains(&snapshot_name("prog", 1)));
        let log = std::fs::read_to_string(root.join(crate::store::QUARANTINE_DIR).join("log.txt"))
            .unwrap();
        assert!(log.contains("prog-00000001"));
        assert!(log.contains("snapshot rejected"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_keeps_last_k_and_dir_stays_bounded() {
        let root = scratch("gc");
        let mut store = CheckpointStore::open(&root, 7, "t").unwrap();
        for seq in 0..40u64 {
            let toy = Toy {
                count: seq,
                level: 0.0,
                label: String::new(),
            };
            save_snapshot(&mut store, "prog", seq, &toy).unwrap();
            let removed = gc_snapshots(&mut store, "prog", 3).unwrap();
            assert!(removed <= 1, "steady-state GC removes at most one");
            // The long-soak bound: never more than keep_last snapshot
            // payloads (plus the manifest) on disk.
            let files = std::fs::read_dir(&root)
                .unwrap()
                .flatten()
                .filter(|e| e.path().is_file())
                .count();
            assert!(files <= 4, "dir grew to {files} files at seq {seq}");
        }
        // Newest survivor is still restorable after heavy GC.
        let mut out = Toy::default();
        assert_eq!(
            latest_snapshot(&mut store, "prog", &mut out).unwrap(),
            Some(39)
        );
        // Foreign namespaces are untouched by GC.
        save_snapshot(&mut store, "other", 0, &out).unwrap();
        gc_snapshots(&mut store, "prog", 1).unwrap();
        assert!(store.contains(&snapshot_name("other", 0)));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn record_level_save_and_latest() {
        let root = scratch("reclevel");
        let mut store = CheckpointStore::open(&root, 7, "t").unwrap();
        let mut rec = Record::new("progress");
        rec.put_usize("slot", 17);
        put_nested(&mut rec, "toy", &Toy::default());
        save_record_snapshot(&mut store, "prog", 4, 1, &rec).unwrap();
        let (seq, back) = latest_record_snapshot(&mut store, "prog", "progress", 1)
            .unwrap()
            .unwrap();
        assert_eq!(seq, 4);
        assert_eq!(back.get_usize("slot").unwrap(), 17);
        // Version bump refuses (and quarantines) the old snapshot.
        assert!(latest_record_snapshot(&mut store, "prog", "progress", 2)
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&root);
    }
}
