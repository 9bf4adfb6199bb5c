//! GP selection's allocation budget (see DESIGN.md § allocation
//! budget): one `GpSelector::select` may allocate per call and per
//! sensor, never per time sample and never per candidate evaluation.
//! A counting global allocator wraps `System`, and the single test in
//! this file asserts that a selection allocates exactly as often over
//! 500-sample trajectories as over 5,000-sample ones, and that the
//! count grows at most linearly with the sensor count while the
//! greedy loop's candidate evaluations grow quadratically.
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

use thermal_cluster::Clustering;
use thermal_linalg::Matrix;
use thermal_select::{GpSelector, SelectionInput, Selector};

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

/// `n` room-temperature trajectories of `samples` slots: three shared
/// modes with per-sensor loadings, so the covariance is well
/// conditioned at every size.
fn trajectories(n: usize, samples: usize) -> Matrix {
    Matrix::from_fn(n, samples, |i, k| {
        let (s, t) = (i as f64, k as f64);
        22.0 + (0.7 * s).sin() * (0.11 * t).sin()
            + (1.3 * s).cos() * (0.37 * t).cos()
            + 0.05 * s * (0.05 * t + s).sin()
            + 0.01 * ((i * 7919 + k * 104_729) % 1000) as f64 / 1000.0
    })
}

/// Fewest allocations one selection made over three calls: a stray
/// one-time allocation from the test harness can only raise a count,
/// while a per-sample or per-candidate allocation recurs on every call.
fn allocations(traj: &Matrix, per_cluster: usize) -> u64 {
    let n = traj.rows();
    let clustering = Clustering::from_assignments((0..n).map(|i| i % 2).collect(), 2).unwrap();
    let input = SelectionInput {
        trajectories: traj,
        clustering: &clustering,
        per_cluster,
        seed: 1,
    };
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let selection = GpSelector.select(&input).unwrap();
            let count = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert_eq!(selection.sensors().len(), 2 * per_cluster);
            count
        })
        .min()
        .unwrap()
}

#[test]
fn gp_allocations_scale_with_sensors_not_samples_or_candidates() {
    // Let the libtest harness thread park itself: its first blocking
    // channel receive lazily allocates a thread-local context at a
    // scheduling-dependent moment, and the counter is process-global.
    std::thread::sleep(std::time::Duration::from_millis(10));
    // Warm every lazily initialised global before counting.
    allocations(&trajectories(8, 50), 1);

    let short = allocations(&trajectories(12, 500), 2);
    let long = allocations(&trajectories(12, 5000), 2);
    assert_eq!(
        short, long,
        "GP selection allocations over 500- vs 5,000-sample trajectories"
    );

    // Choosing half the sensors makes the candidate evaluations grow
    // as ~3n²/8 (24, 96, 384); the allocations must stay within a
    // constant per sensor.
    let counts: Vec<(usize, u64)> = [8, 16, 32]
        .into_iter()
        .map(|n| (n, allocations(&trajectories(n, 200), n / 4)))
        .collect();
    let (n0, c0) = counts[0];
    for &(n, c) in &counts[1..] {
        assert!(
            c * n0 as u64 <= c0 * n as u64,
            "GP selection allocations grow faster than the sensor count: {counts:?}"
        );
    }
}
