//! The batch identification path's allocation budget (see DESIGN.md
//! § allocation budget): `assemble`, `predict_segment` and `simulate`
//! may allocate per call and per gap-free segment, never per sample,
//! row or step. A counting global allocator wraps `System`, and the
//! single test in this file asserts each call allocates exactly as
//! often over one 500-sample segment as over one 50-sample segment.
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

use thermal_linalg::Matrix;
use thermal_sysid::regressors::assemble;
use thermal_sysid::{predict_segment, ModelOrder, ModelSpec, ThermalModel};
use thermal_timeseries::{Channel, Dataset, Mask, Segment, TimeGrid, Timestamp};

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

/// A gap-free trace of `n` slots: two room temperatures driven by two
/// inputs, so the whole grid is one segment.
fn dataset(n: usize) -> Dataset {
    let wave = |k: usize, f: f64| (k as f64 * f).sin();
    let mut t0 = vec![20.0_f64];
    let mut t1 = vec![22.0_f64];
    for k in 0..n - 1 {
        t0.push(0.9 * t0[k] + 0.05 * t1[k] + 0.4 * wave(k, 0.3));
        t1.push(0.1 * t0[k] + 0.8 * t1[k] + 0.2 * wave(k, 0.7));
    }
    let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
    Dataset::new(
        grid,
        vec![
            Channel::from_values("t0", t0).unwrap(),
            Channel::from_values("t1", t1).unwrap(),
            Channel::from_values("u0", (0..n).map(|k| wave(k, 0.3)).collect()).unwrap(),
            Channel::from_values("u1", (0..n).map(|k| wave(k, 0.7)).collect()).unwrap(),
        ],
    )
    .unwrap()
}

fn model(order: ModelOrder) -> ThermalModel {
    let spec = ModelSpec::new(
        vec!["t0".into(), "t1".into()],
        vec!["u0".into(), "u1".into()],
        order,
    )
    .unwrap();
    let width = spec.regressor_width();
    let coef = Matrix::from_fn(2, width, |r, c| if r == c { 0.9 } else { 0.01 });
    ThermalModel::new(spec, coef).unwrap()
}

/// Fewest allocations `f` made over three calls: a stray one-time
/// allocation from the test harness can only raise a count, while a
/// per-sample allocation recurs on every call.
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
fn batch_allocations_scale_with_segments_not_samples() {
    // Let the libtest harness thread park itself: its first blocking
    // channel receive lazily allocates a thread-local context at a
    // scheduling-dependent moment, and the counter is process-global.
    std::thread::sleep(std::time::Duration::from_millis(10));

    for order in [ModelOrder::First, ModelOrder::Second] {
        let model = model(order);
        let warmup = order.warmup();
        let mut counts = Vec::new();
        for n in [50, 500] {
            let ds = dataset(n);
            let mask = Mask::all(ds.grid());
            let whole = Segment::new(0, n);
            let initial = Matrix::from_fn(warmup, 2, |r, c| 20.0 + (r + c) as f64);
            let inputs = Matrix::from_fn(n - warmup, 2, |r, c| ((r + c) as f64 * 0.1).sin());
            // Warm every lazily initialised global (thread count,
            // formatting machinery) before counting.
            assemble(&ds, model.spec(), &mask).unwrap();
            counts.push([
                allocations(|| {
                    let data = assemble(&ds, model.spec(), &mask).unwrap();
                    assert_eq!(data.transition_count(), n - warmup);
                }),
                allocations(|| {
                    let pred = predict_segment(&model, &ds, whole, None).unwrap();
                    assert_eq!(pred.predicted.rows(), n - warmup);
                }),
                allocations(|| {
                    let out = model.simulate(&initial, &inputs).unwrap();
                    assert!(out.as_slice().iter().all(|v| v.is_finite()));
                }),
            ]);
        }
        assert_eq!(
            counts[0], counts[1],
            "{order}: [assemble, predict_segment, simulate] allocations over one \
             50-sample vs one 500-sample segment"
        );
    }
}
