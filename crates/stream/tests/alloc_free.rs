//! The allocation budget contract of the streaming hot path (see
//! DESIGN.md § allocation budget): once the service is warmed up, a
//! steady-state event — `step` over a slot of arrivals followed by
//! `predict_into` — must perform **zero** heap allocations. The replay
//! schedule is shared, never copied: cloning a `TraceReplayer`, or a
//! `FlakySource` with nothing staged, must not allocate either. A
//! counting global allocator wraps `System` and the single test in
//! this file asserts the counter does not move across hundreds of
//! events and clones.
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

/// Four sensors in two clusters ({s0, s1, s2}, {s3}); reps s0 and s3;
/// identity-hold model (`T(k+1) = T(k)`) so constant telemetry yields
/// exactly zero one-step residuals — no drift, no refit, the loop
/// stays on the steady-state path.
fn fixture() -> ReducedModel {
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
    ReducedModel::new(
        names,
        clustering,
        selection,
        vec!["s0".to_owned(), "s3".to_owned()],
        model,
    )
}

/// Fills `arrivals` in place with the slot's readings: all four
/// sensors at their constant baselines plus the input channel.
fn fill_arrivals(arrivals: &mut [Reading], minute: i64) {
    let at = Timestamp::from_minutes(minute);
    for (s, slot) in arrivals.iter_mut().take(4).enumerate() {
        *slot = Reading {
            channel: s,
            at,
            value: 20.0 + s as f64,
        };
    }
    arrivals[4] = Reading {
        channel: 4,
        at,
        value: 0.5,
    };
}

/// A jittered, flaky source over a day of the four sensors and the
/// input, nothing staged yet.
fn source() -> FlakySource {
    let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 288).unwrap();
    let batches: Vec<Vec<Reading>> = (0..grid.len())
        .map(|slot| {
            let mut arrivals = vec![
                Reading {
                    channel: 0,
                    at: Timestamp::from_minutes(0),
                    value: 0.0,
                };
                5
            ];
            fill_arrivals(&mut arrivals, slot as i64 * 5);
            arrivals
        })
        .collect();
    let replay = ReplayConfig {
        seed: 3,
        ..ReplayConfig::default()
    };
    let replayer = TraceReplayer::new(grid, &batches, &replay).unwrap();
    FlakySource::new(
        replayer,
        0.3,
        3,
        BackoffPolicy::default(),
        BreakerPolicy::default(),
    )
    .unwrap()
}

/// Runs `event` over up to three windows of 400 events, stopping at
/// the first window that leaves the allocation counter where it was;
/// returns each window's allocation count. A genuine per-event
/// allocation recurs on every event, so it taints *every* window with
/// hundreds of counts; stray one-time allocations from the harness
/// cannot survive a retry.
fn allocations_per_window(mut event: impl FnMut(i64)) -> Vec<u64> {
    let mut windows = Vec::new();
    for window in 0..3 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for i in window * 400..(window + 1) * 400 {
            event(i);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        windows.push(after - before);
        if after == before {
            break;
        }
    }
    windows
}

#[test]
fn steady_state_events_do_not_allocate() {
    let root =
        std::env::temp_dir().join(format!("thermal-stream-alloc-free-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let mut svc = StreamService::new(
        fixture(),
        StreamConfig::default(),
        Timestamp::from_minutes(0),
    )
    .unwrap();
    svc.enable_online(OnlineConfig::new(root.clone())).unwrap();

    let mut arrivals = vec![
        Reading {
            channel: 0,
            at: Timestamp::from_minutes(0),
            value: 0.0,
        };
        5
    ];
    let mut prediction = svc.predict();

    // Warm-up: fill the reorder pipelines, the model history, the
    // online estimator, and every scratch buffer; the first
    // `predict_into` sizes the reused prediction. 40 slots is well
    // past the 15-minute lateness window and the model warmup.
    for slot in 0..40_i64 {
        let minute = slot * 5;
        fill_arrivals(&mut arrivals, minute);
        svc.step(Timestamp::from_minutes(minute), &arrivals)
            .unwrap();
        svc.predict_into(&mut prediction);
    }
    assert!(
        prediction.warmed_up,
        "fixture must be warmed up before measuring"
    );
    assert_eq!(prediction.clusters.len(), 2);

    // Let the libtest harness thread park itself: its first blocking
    // channel receive lazily initializes a thread-local context (a
    // couple of one-time heap allocations) at a scheduling-dependent
    // moment, and the counter is process-global.
    std::thread::sleep(std::time::Duration::from_millis(10));

    // Measure: several hundred steady-state events must leave the
    // allocation counter exactly where it was. Require a clean window.
    let windows = allocations_per_window(|i| {
        let minute = (40 + i) * 5;
        fill_arrivals(&mut arrivals, minute);
        svc.step(Timestamp::from_minutes(minute), &arrivals)
            .unwrap();
        svc.predict_into(&mut prediction);
    });
    assert_eq!(
        windows.last().copied(),
        Some(0),
        "steady-state step+predict_into must not touch the heap \
         (allocations per 400-event window: {windows:?})"
    );

    // The events were real work, not no-ops.
    assert!(prediction.warmed_up);
    assert_eq!(prediction.clusters[0].predicted, Some(20.0));
    assert_eq!(prediction.clusters[1].predicted, Some(23.0));
    let stats = svc.stats();
    assert_eq!(stats.steps, 40 + 400 * windows.len() as u64);
    assert!(stats.applied > 2000, "readings were applied: {stats:?}");

    // Clones share the replay schedule: a replayer clone and a clone
    // of a source with nothing staged acquire no memory.
    let source = source();
    let replayer = source.replayer();
    let clones = allocations_per_window(|_| {
        std::hint::black_box(replayer.clone());
        std::hint::black_box(source.clone());
    });
    assert_eq!(
        clones.last().copied(),
        Some(0),
        "cloning a TraceReplayer or an unstaged FlakySource must not touch the heap \
         (allocations per 400-clone window: {clones:?})"
    );
    assert!(replayer.total_deliveries() >= 5 * 288);

    let _ = std::fs::remove_dir_all(&root);
}
