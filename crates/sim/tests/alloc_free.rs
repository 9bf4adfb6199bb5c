//! The simulator's allocation budget (see DESIGN.md § simulator
//! design): once the drive and the RK4 buffers exist, a campaign step —
//! the occupant and lighting loads written into the drive, then one
//! RK4 step — performs **zero** heap allocations, and a whole campaign
//! (`thermal_sim::run`) allocates at most [`BYTES_PER_SAMPLE`] bytes
//! per sample per channel: the integrator's record (8 B), the measured
//! channel's dense sample (8 B) and its presence bit, each once; a
//! transient `Option<f64>` per sample (16 B) breaks it. A counting global
//! allocator wraps `System` and the single test in this file asserts
//! the allocation counter does not move across hundreds of steps and
//! that the byte counter grows by at most that budget per added day.
//!
//! This file must stay a one-test binary: a second test running on a
//! sibling thread would allocate concurrently and poison the counter.

// The `GlobalAlloc` trait is an unsafe contract; this thin counting
// wrapper delegates every operation verbatim to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use thermal_sim::{Drive, Layout, Rk4Buffers, Scenario, ThermalParams, ZoneNetwork};

/// Bytes a campaign may allocate per added sample of each channel.
const BYTES_PER_SAMPLE: f64 = 17.0;

/// Counts every allocation-side operation (`alloc`, `alloc_zeroed`,
/// `realloc`) and the bytes each acquires (a `realloc` counts its whole
/// new size) while delegating the actual work to [`System`].
/// Deallocations are not counted: releasing memory is allowed,
/// acquiring it is not.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn campaign_steps_do_not_allocate() {
    let net = ZoneNetwork::new(Layout::auditorium(), ThermalParams::default());
    let mut state = net.initial_state(20.0);
    let mut drive = Drive::quiescent(net.node_count(), 20.0);
    drive.ambient = 8.0;
    drive.supply_temp = 14.0;
    drive.outlet_flow = [0.6, 0.4];
    let mut buf = Rk4Buffers::new(net.state_len());
    let before_run = state.clone();

    // Let the libtest harness thread park itself: its first blocking
    // channel receive lazily allocates a thread-local context at a
    // scheduling-dependent moment, and the counter is process-global.
    std::thread::sleep(std::time::Duration::from_millis(10));

    // A real per-step allocation recurs on every step, so it taints
    // every window; a stray one-time allocation from the harness cannot
    // survive a retry. Require one clean window.
    let mut windows = Vec::with_capacity(3);
    for window in 0..3_u32 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for step in 0..240_u32 {
            let minute = window * 240 + step;
            net.occupant_load(minute % 120, 0.3, &mut drive.occupant_watts);
            net.lighting_load(minute % 90 < 45, &mut drive.lighting_watts);
            net.rk4_step(&mut state, &drive, 60.0, &mut buf);
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
        "loads + rk4_step must not touch the heap \
         (allocations per 240-step window: {windows:?})"
    );

    // The steps were real work, not no-ops.
    assert!(state.iter().all(|t| t.is_finite()));
    assert_ne!(state, before_run);

    // A campaign's bytes: the difference between a 2-day and a 1-day
    // run is what one more day of samples costs; fixed costs (layout,
    // network, schedules) cancel.
    let campaign = |days: usize| {
        let before = BYTES.load(Ordering::SeqCst);
        let out = thermal_sim::run(&Scenario::quick().with_seed(3).with_days(days))
            .expect("quick campaign runs");
        let bytes = BYTES.load(Ordering::SeqCst) - before;
        (bytes, out.dataset.grid().len(), out.dataset.channel_count())
    };
    let (one_day, samples_1, channels) = campaign(1);
    let (two_days, samples_2, _) = campaign(2);
    let per_sample = (two_days - one_day) as f64 / ((samples_2 - samples_1) * channels) as f64;
    assert!(
        per_sample <= BYTES_PER_SAMPLE,
        "`run` allocates {per_sample:.2} bytes per sample per channel \
         ({one_day} B for 1 day, {two_days} B for 2 days, {channels} channels); \
         the budget is {BYTES_PER_SAMPLE}"
    );
}
