//! Property-based test of the bulkhead's [`Snapshot`] impl (see
//! DESIGN.md § restore-equivalence): killing a shard's serve loop
//! after *any* prefix of slots, restoring its snapshot onto a freshly
//! built shard, and re-capturing must be byte-identical — and the
//! restored shard must serve the remaining slots exactly as the
//! uninterrupted one. This is the per-building unit of the
//! `cargo xtask soak fleet --kill` restore-equivalence contract.
//!
//! The shard computes its prediction once per `step_slot`; the cache
//! oracle requires `serve()` to equal the service's own `predict()`
//! (blacked out under quarantine) after every step and every restore,
//! through Degraded → Quarantined → Restored.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use thermal_ckpt::snapshot::{restore_from, snapshot_bytes};
use thermal_ckpt::BreakerPolicy;
use thermal_cluster::Clustering;
use thermal_core::{FallbackAction, ModelHealth, ReducedModel};
use thermal_fleet::{BuildingShard, ShardPhase, ShardPolicy};
use thermal_linalg::Matrix;
use thermal_select::Selection;
use thermal_stream::{
    BackoffPolicy, FlakySource, LivePrediction, Reading, ReplayConfig, StreamConfig, StreamService,
    TraceReplayer,
};
use thermal_sysid::{ModelOrder, ModelSpec, ThermalModel};
use thermal_timeseries::{TimeGrid, Timestamp};

/// Slots of telemetry the fixture trace carries.
const TRACE_SLOTS: usize = 48;

/// Slots of the cache oracle's trace: long enough for a flaky source
/// at `fail_prob` 0.6 to walk Degraded → Quarantined → Restored.
const CYCLE_SLOTS: usize = 200;

/// Builds one deterministic bulkhead: the identity-hold two-cluster
/// model over four sensors, fed by a flaky replay of a synthetic
/// trace. Building the same fixture twice yields byte-identical
/// shards, which is what lets the roundtrip compare snapshot bytes.
fn shard_fixture(seed: u64, fail_prob: f64) -> BuildingShard {
    shard_fixture_for(9, seed, fail_prob)
}

fn shard_fixture_for(building: u32, seed: u64, fail_prob: f64) -> BuildingShard {
    shard_fixture_with(building, seed, fail_prob, TRACE_SLOTS)
}

/// [`shard_fixture_for`] over a trace of `trace_slots` slots.
fn shard_fixture_with(
    building: u32,
    seed: u64,
    fail_prob: f64,
    trace_slots: usize,
) -> BuildingShard {
    let names: Vec<String> = (0..4).map(|i| format!("s{i}")).collect();
    let clustering = Clustering::from_assignments(vec![0, 0, 0, 1], 2).unwrap();
    let selection = Selection::new(vec![vec![0], vec![3]])
        .unwrap()
        .with_backups(vec![vec![1], vec![]])
        .unwrap();
    let spec = ModelSpec::new(
        vec!["s0".to_owned(), "s3".to_owned()],
        vec!["u".to_owned()],
        ModelOrder::First,
    )
    .unwrap();
    let mut coef = Matrix::zeros(2, 3);
    coef.row_mut(0)[0] = 1.0;
    coef.row_mut(1)[1] = 1.0;
    let model = ThermalModel::new(spec, coef).unwrap();
    let reduced = ReducedModel::new(
        names,
        clustering,
        selection,
        vec!["s0".to_owned(), "s3".to_owned()],
        model,
    );
    let service =
        StreamService::new(reduced, StreamConfig::default(), Timestamp::from_minutes(0)).unwrap();

    let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, trace_slots).unwrap();
    let batches: Vec<Vec<Reading>> = (0..trace_slots)
        .map(|slot| {
            let at = Timestamp::from_minutes(slot as i64 * 5);
            let mut batch: Vec<Reading> = (0..4)
                .map(|channel| Reading {
                    channel,
                    at,
                    value: 20.0 + channel as f64 + (slot % 7) as f64 * 0.1,
                })
                .collect();
            batch.push(Reading {
                channel: 4,
                at,
                value: 0.5,
            });
            batch
        })
        .collect();
    let replayer = TraceReplayer::new(
        grid,
        &batches,
        &ReplayConfig {
            seed,
            ..ReplayConfig::default()
        },
    )
    .unwrap();
    let source = FlakySource::new(
        replayer,
        fail_prob,
        seed ^ 0x5eed,
        BackoffPolicy::default(),
        BreakerPolicy::default(),
    )
    .unwrap();

    let policy = ShardPolicy {
        warmup_slots: 4,
        degraded_after: 2,
        recover_after: 3,
        error_budget: 6,
        probe_ok: 2,
        max_depth: 1024,
        breaker: BreakerPolicy::default(),
    };
    BuildingShard::new(building, service, source, policy).unwrap()
}

/// What `serve()` must return: the service's own prediction, with
/// every cluster blacked out under quarantine.
fn expected_serve(shard: &BuildingShard) -> LivePrediction {
    let mut live = shard.service().predict();
    if shard.phase() == ShardPhase::Quarantined {
        for c in &mut live.clusters {
            c.action = FallbackAction::Unavailable;
            c.predicted = None;
            c.health = ModelHealth::Stable;
            c.uncertainty = None;
        }
    }
    live
}

/// Serves a [`CYCLE_SLOTS`] trace, restoring the shard from its own
/// snapshot onto a fresh one every `restore_every` slots, and checks
/// the served prediction after construction, every step and every
/// restore. Returns the shard at the end of the trace.
fn serve_checking_cache(
    seed: u64,
    fail_prob: f64,
    restore_every: usize,
) -> Result<BuildingShard, TestCaseError> {
    let fixture = || shard_fixture_with(9, seed, fail_prob, CYCLE_SLOTS);
    let mut shard = fixture();
    prop_assert_eq!(shard.serve(), expected_serve(&shard));
    for slot in 0..shard.slots() {
        shard.step_slot(slot).unwrap();
        prop_assert_eq!(shard.serve(), expected_serve(&shard), "slot {}", slot);
        if (slot + 1) % restore_every == 0 {
            let mut fresh = fixture();
            restore_from(&mut fresh, &snapshot_bytes(&shard))
                .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
            prop_assert_eq!(fresh.serve(), expected_serve(&fresh), "restore at {}", slot);
            prop_assert_eq!(fresh.serve(), shard.serve());
            shard = fresh;
        }
    }
    Ok(shard)
}

/// The cache oracle walks the whole escalation: the flaky fixture goes
/// Degraded, is quarantined (blackouts served) and is restored.
#[test]
fn served_prediction_tracks_every_step_through_quarantine() {
    let shard = serve_checking_cache(0, 0.6, 7).unwrap();
    let phases: Vec<ShardPhase> = shard.transitions().iter().map(|t| t.to).collect();
    let walked = phases.windows(3).any(|w| {
        w == [
            ShardPhase::Degraded,
            ShardPhase::Quarantined,
            ShardPhase::Restored,
        ]
    });
    assert!(
        walked,
        "fixture never walked the quarantine cycle: {phases:?}"
    );
    assert!(shard.counters().blackout_slots > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After every step and every restore, for any seed, failure rate
    /// and restore cadence, `serve()` is the service's prediction of
    /// the last step (blacked out under quarantine).
    #[test]
    fn served_prediction_is_the_last_steps(
        (seed, fail_prob, restore_every) in (any::<u64>(), 0.0f64..0.9, 1usize..50),
    ) {
        serve_checking_cache(seed, fail_prob, restore_every)?;
    }

    /// Crash the serve loop after any prefix, restore, and the
    /// snapshot bytes, the served predictions, and the lifetime
    /// counters all match the uninterrupted shard.
    #[test]
    fn shard_roundtrip_is_byte_identical(
        (seed, fail_prob, prefix) in (any::<u64>(), 0.0f64..0.8, 0usize..60),
    ) {
        let mut driven = shard_fixture(seed, fail_prob);
        let slots = driven.slots();
        let cut = prefix.min(slots);
        for slot in 0..cut {
            driven.step_slot(slot).unwrap();
        }
        let bytes = snapshot_bytes(&driven);
        let mut fresh = shard_fixture(seed, fail_prob);
        restore_from(&mut fresh, &bytes)
            .map_err(|e| TestCaseError::fail(format!("restore failed: {e}")))?;
        prop_assert_eq!(&bytes, &snapshot_bytes(&fresh));

        // The restored shard must finish the trace exactly as the
        // uninterrupted one — phase, counters, and final prediction.
        driven.serve_from(cut).unwrap();
        fresh.serve_from(cut).unwrap();
        prop_assert_eq!(fresh.phase(), driven.phase());
        prop_assert_eq!(fresh.counters(), driven.counters());
        prop_assert_eq!(fresh.transitions(), driven.transitions());
        prop_assert_eq!(fresh.serve(), driven.serve());
        prop_assert_eq!(
            snapshot_bytes(&fresh),
            snapshot_bytes(&driven)
        );
    }

    /// A snapshot from one building must never restore into another
    /// building's shard — the id check is the guard against crossed
    /// snapshot namespaces in a fleet store.
    #[test]
    fn shard_restore_rejects_wrong_building(seed in any::<u64>()) {
        let driven = shard_fixture_for(4, seed, 0.1);
        let bytes = snapshot_bytes(&driven);
        let mut other = shard_fixture_for(9, seed, 0.1);
        prop_assert!(restore_from(&mut other, &bytes).is_err());
    }
}
