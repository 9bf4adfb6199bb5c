//! The allocation budget of the bulkhead (see DESIGN.md § allocation
//! budget): once a shard is warmed up, `BuildingShard::step_slot` —
//! poll the flaky source into the shard's reused arrivals buffer, step
//! the service, refresh the cached prediction, run the watchdog and
//! phase machine — must perform **zero** heap allocations. A counting
//! global allocator wraps `System` and the single test in this file
//! asserts the counter does not move across a simulated day of slots.
//!
//! This file must stay a one-test binary: a second test running on a
//! sibling thread would allocate concurrently and poison the counter.

// The `GlobalAlloc` trait is an unsafe contract; this thin counting
// wrapper delegates every operation verbatim to `System`.
#![allow(unsafe_code)]
// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use thermal_ckpt::BreakerPolicy;
use thermal_cluster::Clustering;
use thermal_core::ReducedModel;
use thermal_fleet::{BuildingShard, ShardPhase, ShardPolicy};
use thermal_linalg::Matrix;
use thermal_select::Selection;
use thermal_stream::{
    BackoffPolicy, FlakySource, OnlineConfig, Reading, ReplayConfig, StreamConfig, StreamService,
    TraceReplayer,
};
use thermal_sysid::{ModelOrder, ModelSpec, ThermalModel};
use thermal_timeseries::{TimeGrid, Timestamp};

/// Counts every allocation-side operation (`alloc`, `alloc_zeroed`,
/// `realloc`) while delegating the actual work to [`System`].
/// Deallocations are deliberately not counted: releasing memory is
/// allowed on the hot path, acquiring it is not.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Slots per simulated day (5-minute telemetry).
const DAY: usize = 288;
/// Warm-up slots before measuring.
const WARMUP: usize = 96;
/// Measurement windows tried before giving up.
const WINDOWS: usize = 3;
/// Slots of the fixture trace.
const TRACE_SLOTS: usize = WARMUP + WINDOWS * DAY;

/// One bulkhead over four sensors in two clusters ({s0, s1, s2},
/// {s3}) with the identity-hold model (`T(k+1) = T(k)`) and online
/// identification on. Each sensor reports a constant baseline, so
/// one-step residuals are exactly zero — no drift, no refit, the shard
/// stays Healthy on the steady-state path — while the default replay
/// jitter delivers readings late, shuffled and duplicated.
fn shard(root: &std::path::Path) -> BuildingShard {
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
    let mut service =
        StreamService::new(reduced, StreamConfig::default(), Timestamp::from_minutes(0)).unwrap();
    service
        .enable_online(OnlineConfig::new(root.to_path_buf()))
        .unwrap();

    let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, TRACE_SLOTS).unwrap();
    let batches: Vec<Vec<Reading>> = (0..TRACE_SLOTS)
        .map(|slot| {
            let at = Timestamp::from_minutes(slot as i64 * 5);
            let mut batch: Vec<Reading> = (0..4)
                .map(|channel| Reading {
                    channel,
                    at,
                    value: 20.0 + channel as f64,
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
            seed: 11,
            ..ReplayConfig::default()
        },
    )
    .unwrap();
    let source = FlakySource::new(
        replayer,
        0.0,
        11,
        BackoffPolicy::default(),
        BreakerPolicy::default(),
    )
    .unwrap();
    BuildingShard::new(3, service, source, ShardPolicy::default()).unwrap()
}

#[test]
fn warmed_up_step_slot_does_not_allocate() {
    let root =
        std::env::temp_dir().join(format!("thermal-fleet-alloc-free-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut shard = shard(&root);

    // Warm-up: fill the reorder pipelines, the model history, the
    // online estimator, the arrivals and staging buffers and the
    // cached prediction.
    for slot in 0..WARMUP {
        shard.step_slot(slot).unwrap();
    }
    assert!(shard.serve().warmed_up, "fixture must be warmed up");

    // Let the libtest harness thread park itself: its first blocking
    // channel receive lazily initializes a thread-local context (a
    // couple of one-time heap allocations) at a scheduling-dependent
    // moment, and the counter is process-global.
    std::thread::sleep(std::time::Duration::from_millis(10));

    // Measure a simulated day at a time. A genuine per-slot allocation
    // taints every window; a buffer growing to a new largest delivery
    // happens once and cannot survive a retry. Require a clean window.
    let mut windows = Vec::new();
    for window in 0..WINDOWS {
        let start = WARMUP + window * DAY;
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for slot in start..start + DAY {
            shard.step_slot(slot).unwrap();
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        windows.push(after - before);
        if after == before {
            break;
        }
    }
    assert_eq!(
        windows.last().copied(),
        Some(0),
        "warmed-up step_slot must not touch the heap \
         (allocations per {DAY}-slot window: {windows:?})"
    );

    // The slots were real work: readings applied, live predictions.
    let stats = shard.service_stats();
    assert!(
        stats.applied >= 5 * DAY as u64,
        "readings were applied: {stats:?}"
    );
    assert!(stats.reorder.duplicates > 0, "replay jitter duplicated");
    assert_eq!(shard.phase(), ShardPhase::Healthy);
    let served = shard.serve();
    assert_eq!(served.clusters[0].predicted, Some(20.0));
    assert_eq!(served.clusters[1].predicted, Some(23.0));

    let _ = std::fs::remove_dir_all(&root);
}
