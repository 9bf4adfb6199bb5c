//! The supervised cell runner: resume, retry, breaker.
//!
//! A *cell* is one unit of recomputable work in a grid or pipeline —
//! identified by a stable name, producing a byte payload (encoded via
//! [`crate::codec`]). [`run_cell`] wraps the execution of one cell
//! with the full robustness ladder:
//!
//! 1. **Resume** — a verified checkpoint under the cell's name short-
//!    circuits execution entirely ([`CellOutcome::Restored`]).
//! 2. **Circuit breaker** — a cell whose persisted consecutive-failure
//!    count has reached [`CellPolicy::breaker_threshold`] is *not*
//!    attempted again; it yields [`CellOutcome::Quarantined`] so the
//!    rest of the grid still completes. Failure counts live in the
//!    manifest, so a cell that crash-loops the whole process is still
//!    recognized across restarts.
//! 3. **Bounded deterministic retry** — up to
//!    [`CellPolicy::max_attempts`] tries with exponential backoff
//!    (`backoff_base_ms << (attempt-1)`). The schedule is a pure
//!    function of the policy; no jitter, no wall-clock dependence in
//!    any persisted output.
//!
//! On success the payload is committed to the store (atomic write +
//! manifest update) *before* the outcome is returned, so a crash
//! immediately after a cell completes never loses its work.

use std::time::Duration;

use crate::error::CkptError;
use crate::store::CheckpointStore;

/// Supervision parameters for [`run_cell`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPolicy {
    /// Maximum execution attempts per `run_cell` call (≥ 1).
    pub max_attempts: u32,
    /// Base backoff before retry `n` is `backoff_base_ms << (n-1)`.
    pub backoff_base_ms: u64,
    /// Persisted consecutive-failure count at which the breaker opens
    /// and the cell is skipped without execution.
    pub breaker_threshold: u32,
}

impl Default for CellPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 2,
            backoff_base_ms: 10,
            breaker_threshold: 6,
        }
    }
}

/// How a supervised cell concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// A verified checkpoint existed; the cell body never ran.
    Restored(Vec<u8>),
    /// The cell body ran (possibly after retries) and its payload was
    /// committed to the store.
    Computed(Vec<u8>),
    /// The cell did not produce a payload: the breaker was open or
    /// every attempt failed. The grid should continue without it.
    Quarantined {
        /// Cell name, for reporting.
        name: String,
        /// Attempts made in *this* call (0 when the breaker was open).
        attempts: u32,
        /// Persisted consecutive-failure count after this call.
        failures: u32,
        /// Last failure message (or why the breaker is open).
        reason: String,
    },
}

impl CellOutcome {
    /// The payload, when one exists (restored or computed).
    pub fn bytes(&self) -> Option<&[u8]> {
        match self {
            Self::Restored(b) | Self::Computed(b) => Some(b),
            Self::Quarantined { .. } => None,
        }
    }

    /// True when the payload came from a checkpoint, not execution.
    pub fn was_restored(&self) -> bool {
        matches!(self, Self::Restored(_))
    }
}

/// Executes one supervised cell: resume from checkpoint if possible,
/// otherwise run `work` under the policy's retry/breaker rules and
/// commit the result.
///
/// `work` returns the cell's encoded payload or a failure message; it
/// runs inline on the caller's thread and may borrow the caller's
/// data. `Err` is only returned for store I/O failures — cell failures
/// surface as [`CellOutcome::Quarantined`].
pub fn run_cell<W>(
    store: &mut CheckpointStore,
    name: &str,
    policy: &CellPolicy,
    work: W,
) -> Result<CellOutcome, CkptError>
where
    W: Fn() -> Result<Vec<u8>, String>,
{
    if let Some(bytes) = store.get(name)? {
        store.clear_failures(name)?;
        return Ok(CellOutcome::Restored(bytes));
    }

    let prior = store.failure_count(name);
    if prior >= policy.breaker_threshold {
        return Ok(CellOutcome::Quarantined {
            name: name.to_string(),
            attempts: 0,
            failures: prior,
            reason: format!(
                "circuit breaker open: {prior} recorded failures (threshold {})",
                policy.breaker_threshold
            ),
        });
    }

    let max_attempts = policy.max_attempts.max(1);
    let mut last_reason = String::new();
    let mut attempts = 0u32;
    for attempt in 1..=max_attempts {
        attempts = attempt;
        match work() {
            Ok(bytes) => {
                store.put(name, &bytes)?;
                store.clear_failures(name)?;
                return Ok(CellOutcome::Computed(bytes));
            }
            Err(reason) => {
                last_reason = reason;
                let failures = store.record_failure(name)?;
                if failures >= policy.breaker_threshold {
                    return Ok(CellOutcome::Quarantined {
                        name: name.to_string(),
                        attempts,
                        failures,
                        reason: last_reason,
                    });
                }
                if attempt < max_attempts {
                    let shift = u32::min(attempt - 1, 16);
                    let pause = policy.backoff_base_ms.saturating_mul(1u64 << shift);
                    std::thread::sleep(Duration::from_millis(pause));
                }
            }
        }
    }

    Ok(CellOutcome::Quarantined {
        name: name.to_string(),
        attempts,
        failures: store.failure_count(name),
        reason: last_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("thermal-ckpt-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_policy() -> CellPolicy {
        CellPolicy {
            max_attempts: 2,
            backoff_base_ms: 0,
            breaker_threshold: 6,
        }
    }

    #[test]
    fn computed_then_restored() {
        let root = scratch("restore");
        let mut store = CheckpointStore::open(&root, 1, "r").unwrap();
        let calls = Cell::new(0);
        let work = || {
            calls.set(calls.get() + 1);
            Ok(b"payload".to_vec())
        };
        let out = run_cell(&mut store, "cell", &quick_policy(), work).unwrap();
        assert_eq!(out, CellOutcome::Computed(b"payload".to_vec()));
        // Second run resumes without executing.
        let out = run_cell(&mut store, "cell", &quick_policy(), work).unwrap();
        assert!(out.was_restored());
        assert_eq!(out.bytes(), Some(&b"payload"[..]));
        assert_eq!(calls.get(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retry_recovers_from_transient_failure() {
        let root = scratch("retry");
        let mut store = CheckpointStore::open(&root, 1, "r").unwrap();
        let calls = Cell::new(0);
        let out = run_cell(&mut store, "cell", &quick_policy(), || {
            calls.set(calls.get() + 1);
            if calls.get() == 1 {
                Err("transient".to_string())
            } else {
                Ok(b"ok".to_vec())
            }
        })
        .unwrap();
        assert_eq!(out, CellOutcome::Computed(b"ok".to_vec()));
        assert_eq!(calls.get(), 2);
        // Success clears the interim failure record.
        assert_eq!(store.failure_count("cell"), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn exhausted_attempts_quarantine_with_persisted_failures() {
        let root = scratch("exhaust");
        let mut store = CheckpointStore::open(&root, 1, "r").unwrap();
        let out = run_cell(&mut store, "bad", &quick_policy(), || {
            Err("always broken".to_string())
        })
        .unwrap();
        match out {
            CellOutcome::Quarantined {
                attempts,
                failures,
                reason,
                ..
            } => {
                assert_eq!(attempts, 2);
                assert_eq!(failures, 2);
                assert!(reason.contains("always broken"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // Counts survive a reopen (crash-loop recognition).
        drop(store);
        let store = CheckpointStore::open(&root, 1, "r").unwrap();
        assert_eq!(store.failure_count("bad"), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn breaker_opens_and_skips_execution() {
        let root = scratch("breaker");
        let mut store = CheckpointStore::open(&root, 1, "r").unwrap();
        let policy = CellPolicy {
            breaker_threshold: 3,
            ..quick_policy()
        };
        // Two runs of two failed attempts each: breaker trips mid-second.
        let _ = run_cell(&mut store, "bad", &policy, || Err("x".to_string())).unwrap();
        let _ = run_cell(&mut store, "bad", &policy, || Err("x".to_string())).unwrap();
        assert!(store.failure_count("bad") >= 3);
        let calls = Cell::new(0);
        let out = run_cell(&mut store, "bad", &policy, || {
            calls.set(calls.get() + 1);
            Ok(vec![])
        })
        .unwrap();
        match out {
            CellOutcome::Quarantined {
                attempts, reason, ..
            } => {
                assert_eq!(attempts, 0);
                assert!(reason.contains("circuit breaker open"));
            }
            other => panic!("expected open breaker, got {other:?}"),
        }
        assert_eq!(calls.get(), 0, "breaker must skip execution");
        let _ = std::fs::remove_dir_all(&root);
    }
}
