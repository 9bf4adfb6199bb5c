//! Crash-safe checkpointing for long-running thermal campaigns.
//!
//! The ICDCS'14 deployment lost a third of its 98-day campaign to
//! sensor *and server* failures; `thermal-faults` covers the sensor
//! side, this crate covers the process side. It provides the durable
//! execution substrate the bench grids and `ThermalPipeline::fit`
//! run on:
//!
//! * [`write_atomic`] — temp file + fsync + rename + parent fsync, so
//!   an artifact on disk is always whole (never torn), with a chaos
//!   kill-point hook ticked before every commit,
//! * [`CheckpointStore`] — a directory of content-hash-verified
//!   payloads under a plain-text [`manifest`](crate::manifest) that
//!   records schema version, run seed, and source revision; opening a
//!   store performs full recovery (sweep temp strays, quarantine
//!   corrupt/truncated/orphaned files, discard on identity mismatch)
//!   and reports it via [`OpenReport`],
//! * [`run_cell`] — the supervised resumable cell: restore from
//!   checkpoint, else execute under bounded deterministic
//!   retry/backoff and a persisted circuit breaker
//!   that yields [`CellOutcome::Quarantined`] instead of aborting the
//!   grid,
//! * [`CircuitBreaker`] — the in-memory, tick-driven counterpart of
//!   that breaker, protecting live ingest sources in the streaming
//!   runtime (`thermal-stream`) with the same trip/cooldown/half-open
//!   discipline,
//! * [`codec`] — the hand-rolled, bit-exact text record format every
//!   checkpoint payload uses (hex-of-bits `f64`s, canonical bytes),
//! * [`json`] — the one canonical JSON writer every byte-compared
//!   report goes through, and the string escaper `cargo xtask` shares,
//! * [`fields!`] — one field list per counter struct, from which its
//!   record capture, record restore and JSON members all derive
//!   ([`Fields`]),
//! * [`snapshot`] — the versioned, FNV-checksummed envelope and
//!   [`Snapshot`] trait live serving state (queues, health machines,
//!   RLS estimators, fleet shards) uses to checkpoint itself at slot
//!   boundaries and restore after a crash, with keep-last-K retention
//!   and quarantine-and-fall-back on torn snapshots.
//!
//! # Resume equivalence
//!
//! The workspace's bitwise-determinism contract (see `thermal-par`)
//! plus canonical payload/manifest encodings give the crate its
//! headline guarantee, enforced by `cargo xtask soak grid --kill`: a
//! run killed at *any* durable write and then resumed produces final
//! artifacts **byte-identical** to an uninterrupted run.
//!
//! # Example
//!
//! ```
//! use thermal_ckpt::{run_cell, CellOutcome, CellPolicy, CheckpointStore};
//!
//! # fn main() -> Result<(), thermal_ckpt::CkptError> {
//! let dir = std::env::temp_dir().join(format!("ckpt-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut store = CheckpointStore::open(&dir, 42, "doc")?;
//! let out = run_cell(&mut store, "cell-0", &CellPolicy::default(), || {
//!     Ok(b"expensive result".to_vec())
//! })?;
//! assert_eq!(out.bytes(), Some(&b"expensive result"[..]));
//! // A second run restores instead of recomputing.
//! let again = run_cell(&mut store, "cell-0", &CellPolicy::default(), || {
//!     Err("must not re-run".to_string())
//! })?;
//! assert!(matches!(again, CellOutcome::Restored(_)));
//! # let _ = std::fs::remove_dir_all(&dir);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomic;
mod breaker;
mod error;
mod fields;
mod runner;
mod store;

pub mod codec;
pub mod json;
pub mod manifest;
pub mod snapshot;

pub use atomic::{fnv1a64, valid_name, write_atomic, Fnv64};
pub use breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
pub use error::CkptError;
pub use fields::Fields;
pub use manifest::SCHEMA_VERSION;
pub use runner::{run_cell, CellOutcome, CellPolicy};
pub use snapshot::Snapshot;
pub use store::{CheckpointStore, OpenReport, MANIFEST_NAME, QUARANTINE_DIR, QUARANTINE_LOG};

/// Convenient crate-wide result alias.
pub type Result<T> = std::result::Result<T, CkptError>;
