//! Kill-point injection: deterministic process abort at the *k*-th
//! durable write.
//!
//! The kill-point sweep (`cargo xtask soak <scenario> --kill`) needs to
//! crash the process at every point where on-disk state changes, then
//! prove that a resumed run converges to the byte-identical final
//! artifacts. This module is the crash trigger: `thermal-ckpt` calls
//! [`durable_write_tick`] immediately *before* each atomic commit
//! (the rename that publishes a temp file), and when the process-wide
//! write counter reaches the configured kill point the process exits
//! with [`KILL_EXIT_CODE`] — the commit never happens, exactly like a
//! power cut between `write` and `rename`.
//!
//! # Configuration (environment)
//!
//! * [`KILL_AT_ENV`] (`THERMAL_KILL_AT`) — explicit kill point: abort
//!   instead of performing the `k`-th durable write (1-based).
//! * [`KILL_SEED_ENV`] (`THERMAL_KILL_SEED`) — seeded kill point
//!   `"<seed>,<range>"`: the kill point is drawn deterministically
//!   from `1..=range` using the same `StdRng` generator (and the same
//!   salt-mixing idiom) as [`crate::FaultPlan`]'s fault streams, so a
//!   chaos campaign can cover random write indices reproducibly.
//!   Ignored when `THERMAL_KILL_AT` is set.
//!
//! Unset (the normal case) means the counter still counts — so a
//! clean run can report how many durable writes a workload performs —
//! but nothing ever aborts.
//!
//! # Determinism
//!
//! The kill point is resolved once (first tick) from the environment
//! and never changes within a process; the counter is a plain atomic
//! increment. Two runs of the same workload with the same environment
//! abort at the identical write.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// Environment variable naming the explicit 1-based kill write index.
pub const KILL_AT_ENV: &str = "THERMAL_KILL_AT";

/// Environment variable holding a seeded kill spec `"<seed>,<range>"`.
pub const KILL_SEED_ENV: &str = "THERMAL_KILL_SEED";

/// Exit code of a kill-point abort, distinguishable from both success
/// and ordinary failures by the chaos driver.
pub const KILL_EXIT_CODE: i32 = 86;

/// Salt decorrelating the kill-point stream from the fault-injection
/// streams derived from the same user seed.
const KILL_STREAM_SALT: u64 = 0x6B69_6C6C_7074_5F31;

static WRITES: AtomicU64 = AtomicU64::new(0);
static TARGET: OnceLock<Option<u64>> = OnceLock::new();

/// Parses the kill-point configuration from explicit env values
/// (exposed for tests; the process reads the real environment once).
///
/// Returns the 1-based write index to abort at, or `None` when no
/// kill is configured or the spec is malformed (a malformed spec is
/// deliberately inert: the chaos driver controls these variables, and
/// an inert typo is diagnosable from the "durable writes" report
/// while a panicking library is not).
pub fn parse_kill_spec(kill_at: Option<&str>, kill_seed: Option<&str>) -> Option<u64> {
    if let Some(raw) = kill_at {
        return raw.trim().parse::<u64>().ok().filter(|&k| k > 0);
    }
    let raw = kill_seed?;
    let (seed, range) = raw.trim().split_once(',')?;
    let seed: u64 = seed.trim().parse().ok()?;
    let range: u64 = range.trim().parse().ok().filter(|&r| r > 0)?;
    Some(seeded_kill_point(seed, range))
}

/// The deterministic kill point drawn from `1..=range` for `seed` —
/// the value `THERMAL_KILL_SEED="<seed>,<range>"` resolves to.
pub fn seeded_kill_point(seed: u64, range: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ KILL_STREAM_SALT);
    rng.gen_range(1..=range)
}

// Designated config surface (AMBIENT_READ_MODULES in xtask): the one
// place the kill-point spec may be read from the environment.
#[expect(clippy::disallowed_methods, reason = "reads THERMAL_KILL_AT/SEED")]
fn target() -> Option<u64> {
    *TARGET.get_or_init(|| {
        parse_kill_spec(
            std::env::var(KILL_AT_ENV).ok().as_deref(),
            std::env::var(KILL_SEED_ENV).ok().as_deref(),
        )
    })
}

/// Records one imminent durable write; aborts the process with
/// [`KILL_EXIT_CODE`] when this write is the configured kill point.
///
/// Callers (the atomic-write helper in `thermal-ckpt`) invoke this
/// *before* the rename that publishes the write, so an abort leaves
/// the previous on-disk state untouched.
pub fn durable_write_tick() {
    let n = WRITES.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(k) = target() {
        if n == k {
            eprintln!("thermal-faults: kill-point reached at durable write {k}; aborting");
            std::process::exit(KILL_EXIT_CODE);
        }
    }
}

/// Number of durable writes ticked so far in this process.
pub fn durable_writes() -> u64 {
    WRITES.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_kill_at_wins_and_validates() {
        assert_eq!(parse_kill_spec(Some("7"), None), Some(7));
        assert_eq!(parse_kill_spec(Some(" 12 "), Some("1,5")), Some(12));
        assert_eq!(parse_kill_spec(Some("0"), None), None);
        assert_eq!(parse_kill_spec(Some("garbage"), None), None);
        assert_eq!(parse_kill_spec(None, None), None);
    }

    #[test]
    fn seeded_spec_is_deterministic_and_in_range() {
        let a = parse_kill_spec(None, Some("42,10"));
        let b = parse_kill_spec(None, Some("42,10"));
        assert_eq!(a, b);
        let k = a.expect("valid spec must resolve");
        assert!((1..=10).contains(&k));
        // Different seeds cover different points (not a fixed value).
        let distinct: std::collections::BTreeSet<u64> =
            (0..32).map(|s| seeded_kill_point(s, 1000)).collect();
        assert!(distinct.len() > 16, "seeded points should spread");
    }

    #[test]
    fn malformed_seed_specs_are_inert() {
        for spec in ["", "42", "42,", ",10", "a,b", "42,0"] {
            assert_eq!(parse_kill_spec(None, Some(spec)), None, "spec {spec:?}");
        }
    }

    #[test]
    fn tick_counts_without_a_target() {
        // No kill env in the test process: ticking must only count.
        let before = durable_writes();
        durable_write_tick();
        durable_write_tick();
        assert!(durable_writes() >= before + 2);
    }
}
