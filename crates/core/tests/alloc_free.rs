//! The cluster-mean validation's allocation budget (see DESIGN.md
//! § allocation budget): `ReducedModel::evaluate_cluster_means` may
//! allocate per call and per validation segment, never per predicted
//! slot. A counting global allocator wraps `System`, and the single
//! test in this file asserts a call allocates exactly as often over one
//! 500-slot segment as over one 50-slot segment, for a model with
//! fewer outputs than one rollout panel and for one with a full panel.
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

use thermal_core::timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};
use thermal_core::{Clustering, ModelOrder, ModelSpec, ReducedModel, Selection, ThermalModel};
use thermal_linalg::Matrix;

/// Counts every allocation-side operation (`alloc`, `alloc_zeroed`,
/// `realloc`) while delegating the actual work to [`System`].
/// Deallocations are not counted.
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

/// A gap-free trace of `n` slots: `sensors` room temperatures around
/// two inputs, so the whole grid is one segment.
fn dataset(sensors: usize, n: usize) -> Dataset {
    let wave = |k: usize, f: f64| (k as f64 * f).sin();
    let mut channels: Vec<Channel> = (0..sensors)
        .map(|s| {
            let values = (0..n)
                .map(|k| 20.0 + s as f64 * 0.1 + wave(k, 0.05 + 0.01 * s as f64))
                .collect();
            Channel::from_values(format!("s{s}"), values).unwrap()
        })
        .collect();
    channels.push(Channel::from_values("u0", (0..n).map(|k| wave(k, 0.3)).collect()).unwrap());
    channels.push(Channel::from_values("u1", (0..n).map(|k| wave(k, 0.7)).collect()).unwrap());
    Dataset::new(
        TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap(),
        channels,
    )
    .unwrap()
}

/// `k` clusters over `sensors` sensors (sensor `s` in cluster
/// `s % k`), the first member of each kept, and a stable model over
/// the kept sensors.
fn reduced(sensors: usize, k: usize, order: ModelOrder) -> ReducedModel {
    let names: Vec<String> = (0..sensors).map(|s| format!("s{s}")).collect();
    let clustering =
        Clustering::from_assignments((0..sensors).map(|s| s % k).collect(), k).unwrap();
    let selection = Selection::new((0..k).map(|c| vec![c]).collect()).unwrap();
    let selected: Vec<String> = names[..k].to_vec();
    let spec = ModelSpec::new(selected.clone(), vec!["u0".into(), "u1".into()], order).unwrap();
    let width = spec.regressor_width();
    let coef = Matrix::from_fn(k, width, |r, c| if r == c { 0.9 } else { 0.01 });
    let model = ThermalModel::new(spec, coef).unwrap();
    ReducedModel::new(names, clustering, selection, selected, model)
}

/// Fewest allocations `f` made over three calls: a stray one-time
/// allocation from the test harness can only raise a count, while a
/// per-slot allocation recurs on every call.
fn allocations(mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            f();
            ALLOCATIONS.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap()
}

#[test]
fn cluster_mean_validation_allocates_per_segment_not_per_slot() {
    // Let the libtest harness thread park itself: its first blocking
    // channel receive lazily allocates a thread-local context at a
    // scheduling-dependent moment, and the counter is process-global.
    std::thread::sleep(std::time::Duration::from_millis(10));

    // (sensors, clusters): a two-output model, whose packed `Θ` is all
    // tail, and a nine-output one with a full eight-row panel.
    for (sensors, k) in [(4, 2), (12, 9)] {
        for order in [ModelOrder::First, ModelOrder::Second] {
            let model = reduced(sensors, k, order);
            let mut counts = Vec::new();
            for n in [50, 500] {
                let ds = dataset(sensors, n);
                let mask = Mask::all(ds.grid());
                let steps = n - order.warmup();
                // Warm every lazily initialised global before counting.
                model.evaluate_cluster_means(&ds, &mask, n).unwrap();
                counts.push(allocations(|| {
                    let report = model.evaluate_cluster_means(&ds, &mask, n).unwrap();
                    assert_eq!(report.errors().len(), steps * k);
                    assert_eq!(report.segments_used(), 1);
                }));
            }
            assert_eq!(
                counts[0], counts[1],
                "{order}, {k} clusters: evaluate_cluster_means allocations over one \
                 50-slot vs one 500-slot segment"
            );
        }
    }
}
