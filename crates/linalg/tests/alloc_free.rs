//! The centred Gram's allocation budget (see DESIGN.md § allocation
//! budget): `stats::centred_gram` centres its rows one panel of
//! observations at a time into one reused buffer, so what it allocates
//! (the Gram, the row means and the panel) depends on the number of
//! variables, never on the number of observations. A counting global
//! allocator wraps `System`, and the single test in this file asserts
//! a call allocates the same bytes, as often, over 256 as over 2,560
//! observations of 27 variables (the paper's sensor count).
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

use thermal_linalg::{stats, Matrix};

/// Counts every allocation-side operation (`alloc`, `alloc_zeroed`,
/// `realloc`) and the bytes each acquires (a `realloc` counts its whole
/// new size) while delegating the actual work to [`System`].
/// Deallocations are not counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
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

/// Fewest `(allocations, bytes)` `f` made over three calls: a stray
/// one-time allocation from the test harness can only raise a count,
/// while a per-observation allocation recurs on every call.
fn allocations(mut f: impl FnMut()) -> (u64, u64) {
    (0..3)
        .map(|_| {
            let before = (
                ALLOCATIONS.load(Ordering::SeqCst),
                BYTES.load(Ordering::SeqCst),
            );
            f();
            (
                ALLOCATIONS.load(Ordering::SeqCst) - before.0,
                BYTES.load(Ordering::SeqCst) - before.1,
            )
        })
        .min()
        .unwrap()
}

#[test]
fn centred_gram_allocates_per_variable_not_per_observation() {
    // Let the libtest harness thread park itself: its first blocking
    // channel receive lazily allocates a thread-local context at a
    // scheduling-dependent moment, and the counter is process-global.
    std::thread::sleep(std::time::Duration::from_millis(10));

    let sensors = 27;
    let mut spent = Vec::new();
    for observations in [256, 2_560] {
        let data = Matrix::from_fn(sensors, observations, |s, t| {
            20.0 + s as f64 * 0.1 + (t as f64 * (0.01 + 0.002 * s as f64)).sin()
        });
        // Warm every lazily initialised global before counting.
        stats::centred_gram(&data);
        spent.push(allocations(|| {
            let gram = stats::centred_gram(&data);
            assert_eq!(gram.shape(), (sensors, sensors));
        }));
    }
    assert_eq!(
        spent[0], spent[1],
        "centred_gram (allocations, bytes) over 256 vs 2,560 observations of {sensors} variables"
    );
}
