//! The batch identification path's allocation budget (see DESIGN.md
//! § allocation budget): `assemble`, `predict_segment` and `simulate`
//! may allocate per call and per gap-free segment, never per sample,
//! row or step, `identify` with a ridge also never allocates anything
//! that grows with its transitions, and validation (`evaluate`)
//! allocates per call only. A counting global allocator wraps
//! `System`, and the single test in this file asserts each call
//! allocates exactly as often over one 500-sample segment as over one
//! 50-sample segment, that a ridge `identify` makes the same largest
//! allocation over one 500-slot segment, one 5,000-slot segment and ten
//! 50-slot segments of one 5,000-slot trace, as often over the first
//! two and at most once more per added segment over the third, and that
//! `evaluate` allocates exactly as often over ten 50-slot segments as
//! over one 500-slot segment.
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
use thermal_sysid::{
    evaluate, identify, predict_segment, EvalConfig, FitConfig, ModelOrder, ModelSpec, ThermalModel,
};
use thermal_timeseries::{Channel, Dataset, Mask, Segment, TimeGrid, Timestamp};

/// Counts every allocation-side operation (`alloc`, `alloc_zeroed`,
/// `realloc`) and tracks the largest single one (a `realloc` by its
/// whole new size) while delegating the actual work to [`System`].
/// Deallocations are not counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Fewest allocations, and the smallest largest allocation (bytes),
/// `f` made over three calls: a stray one-time allocation from the test
/// harness can only raise either, while a per-sample allocation recurs
/// on every call.
fn spend(mut f: impl FnMut()) -> (u64, u64) {
    (0..3)
        .map(|_| {
            LARGEST.store(0, Ordering::SeqCst);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            f();
            (
                ALLOCATIONS.load(Ordering::SeqCst) - before,
                LARGEST.load(Ordering::SeqCst),
            )
        })
        .reduce(|a, b| (a.0.min(b.0), a.1.min(b.1)))
        .unwrap()
}

/// Fewest allocations `f` made over three calls.
fn allocations(f: impl FnMut()) -> u64 {
    spend(f).0
}

/// A mask over `n` slots selecting `runs` runs of `len` slots, run `r`
/// starting at slot `r · 2 · len`.
fn runs(n: usize, runs: usize, len: usize) -> Mask {
    Mask::from_bits(
        (0..n)
            .map(|i| (i / len).is_multiple_of(2) && i / (2 * len) < runs)
            .collect(),
    )
}

/// `identify` with a ridge over one 5,000-slot trace: the largest
/// allocation stays put whether the mask selects one 500-slot segment,
/// one 5,000-slot segment or ten 50-slot segments; the count does too
/// over the first two (nothing per row or per 128-row panel) and grows
/// by at most one per added segment over the third.
fn ridge_identify_allocations_do_not_grow_with_transitions(order: ModelOrder) {
    let n = 5_000;
    let ds = dataset(n);
    let spec = model(order).spec().clone();
    let config = FitConfig::default();
    let masks = [runs(n, 1, 500), Mask::all(ds.grid()), runs(n, 10, 50)];
    identify(&ds, &spec, &masks[0], &config).unwrap();
    let spent: Vec<(u64, u64)> = masks
        .iter()
        .map(|mask| {
            spend(|| {
                let model = identify(&ds, &spec, mask, &config).unwrap();
                assert_eq!(model.coefficients().shape(), (2, spec.regressor_width()));
            })
        })
        .collect();
    let [one, long, ten] = [spent[0], spent[1], spent[2]];
    assert_eq!(
        (one.1, ten.1),
        (long.1, long.1),
        "{order}: ridge identify's largest allocation (bytes) over one 500-slot, one \
         5,000-slot and ten 50-slot segments"
    );
    assert_eq!(
        one.0, long.0,
        "{order}: ridge identify allocations over one 500-slot vs one 5,000-slot segment"
    );
    assert!(
        ten.0 <= one.0 + 9,
        "{order}: ridge identify allocations over ten 50-slot segments ({}) vs one ({})",
        ten.0,
        one.0
    );
}

/// `evaluate` over one 5,000-slot trace allocates exactly as often
/// when the mask selects ten 50-slot segments as when it selects one
/// 500-slot segment: its rollout, its measured rows and its error sums
/// are one set of buffers per call.
fn evaluate_allocates_per_call(order: ModelOrder) {
    let n = 5_000;
    let ds = dataset(n);
    let model = model(order);
    let config = EvalConfig::default();
    let masks = [runs(n, 1, 500), runs(n, 10, 50)];
    evaluate(&model, &ds, &masks[0], &config).unwrap();
    let counts: Vec<u64> = masks
        .iter()
        .map(|mask| {
            allocations(|| {
                let report = evaluate(&model, &ds, mask, &config).unwrap();
                assert!(report.overall_rms().is_finite());
            })
        })
        .collect();
    assert_eq!(
        counts[1], counts[0],
        "{order}: evaluate allocations over ten 50-slot segments vs one 500-slot segment"
    );
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
        ridge_identify_allocations_do_not_grow_with_transitions(order);
        evaluate_allocates_per_call(order);
    }
}
