//! The pipeline's allocation budgets (see DESIGN.md § allocation
//! budget). The batch fit: one `ThermalPipeline::fit` makes exactly
//! one campaign-sized allocation (at least `sensors × samples × 4`
//! bytes), its trajectory matrix; the centred Gram and the ridge
//! identification work in panels. A `fit_checkpointed` whose three
//! stages are all restored makes none. The cluster-mean validation:
//! `ReducedModel::evaluate_cluster_means` may allocate per call and per
//! validation segment, never per predicted slot, and in fact allocates
//! per call only. A counting global
//! allocator wraps `System`, and the single test in this file asserts
//! both: the fit's campaign-sized allocations, and that a validation
//! call allocates exactly as often over one 500-slot segment as over
//! one 50-slot segment, and as often over ten 50-slot segments as over
//! one 500-slot segment (its rollout, truth sums and errors are one set
//! of buffers per call), for a model with fewer outputs than one
//! rollout panel and for one with a full panel. The channels' `Option`
//! view: over an N-slot dataset, `ThermalPipeline::fit`,
//! `evaluate_cluster_means`, `fit_checkpointed` and a training-horizon
//! sweep make no allocation of exactly N × 16 bytes, the size of a
//! channel's `values()` view; the library reads samples and presence
//! words instead.
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

use thermal_ckpt::CheckpointStore;
use thermal_core::timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};
use thermal_core::{
    ClusterCount, Clustering, EvalConfig, FitConfig, GramCache, ModelOrder, ModelSpec,
    ReducedModel, Selection, ThermalModel, ThermalPipeline,
};
use thermal_linalg::Matrix;

/// Counts every allocation-side operation (`alloc`, `alloc_zeroed`,
/// `realloc`), separately those that acquire at least [`LARGE_BYTES`]
/// (a `realloc` by its whole new size), and those that acquire exactly
/// [`EXACT_BYTES`], while delegating the actual work to [`System`].
/// Deallocations are not counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LARGE: AtomicU64 = AtomicU64::new(0);
/// Size from which an allocation counts as large; `u64::MAX` until a
/// measurement sets it.
static LARGE_BYTES: AtomicU64 = AtomicU64::new(u64::MAX);
static EXACT: AtomicU64 = AtomicU64::new(0);
/// Size an allocation must have to count in [`EXACT`]; `u64::MAX` until
/// a measurement sets it.
static EXACT_BYTES: AtomicU64 = AtomicU64::new(u64::MAX);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if bytes as u64 >= LARGE_BYTES.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
    if bytes as u64 == EXACT_BYTES.load(Ordering::Relaxed) {
        EXACT.fetch_add(1, Ordering::Relaxed);
    }
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

/// A gap-free trace of `n` slots: `sensors` room temperatures around
/// `inputs` inputs `u0, u1, …`, so the whole grid is one segment.
fn dataset(sensors: usize, inputs: usize, n: usize) -> Dataset {
    let wave = |k: usize, f: f64| (k as f64 * f).sin();
    let mut channels: Vec<Channel> = (0..sensors)
        .map(|s| {
            let values = (0..n)
                .map(|k| 20.0 + s as f64 * 0.1 + wave(k, 0.05 + 0.01 * s as f64))
                .collect();
            Channel::from_values(format!("s{s}"), values).unwrap()
        })
        .collect();
    for i in 0..inputs {
        let values = (0..n).map(|k| wave(k, 0.3 + 0.4 * i as f64)).collect();
        channels.push(Channel::from_values(format!("u{i}"), values).unwrap());
    }
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

/// A mask over `n` slots selecting `runs` runs of `len` slots, run `r`
/// starting at slot `r · 2 · len`.
fn runs(n: usize, runs: usize, len: usize) -> Mask {
    Mask::from_bits(
        (0..n)
            .map(|i| (i / len).is_multiple_of(2) && i / (2 * len) < runs)
            .collect(),
    )
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

/// Fewest allocations of at least `bytes` that `f` made over three
/// calls.
fn large_allocations(bytes: usize, mut f: impl FnMut()) -> u64 {
    LARGE_BYTES.store(bytes as u64, Ordering::SeqCst);
    let fewest = (0..3)
        .map(|_| {
            let before = LARGE.load(Ordering::SeqCst);
            f();
            LARGE.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap();
    LARGE_BYTES.store(u64::MAX, Ordering::SeqCst);
    fewest
}

/// The batch fit's budget: the paper's 27 sensors over 2,048 samples,
/// four clusters and six inputs, so the stacked second-order design
/// matrix a fit used to build (14 columns) would count too.
fn batch_fit_makes_one_campaign_sized_allocation() {
    let (sensors, inputs, n) = (27, 6, 2_048);
    let ds = dataset(sensors, inputs, n);
    let mask = Mask::all(ds.grid());
    let names: Vec<String> = (0..sensors).map(|s| format!("s{s}")).collect();
    let temps: Vec<&str> = names.iter().map(String::as_str).collect();
    let input_names: Vec<String> = (0..inputs).map(|i| format!("u{i}")).collect();
    let input_refs: Vec<&str> = input_names.iter().map(String::as_str).collect();
    let pipeline = ThermalPipeline::builder()
        .cluster_count(ClusterCount::Fixed(4))
        .build()
        .unwrap();
    let campaign = sensors * n * 4;
    let fit = || pipeline.fit(&ds, &temps, &input_refs, &mask).unwrap();
    let model = fit();
    assert_eq!(model.clustering().k(), 4);
    assert_eq!(
        large_allocations(campaign, || drop(fit())),
        1,
        "ThermalPipeline::fit allocations of at least {campaign} bytes over {sensors} sensors \
         × {n} samples"
    );

    let root = std::env::temp_dir().join(format!("core-alloc-free-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut store = CheckpointStore::open(&root, 9, "alloc-free").unwrap();
    let (cold, resume) = pipeline
        .fit_checkpointed(&ds, &temps, &input_refs, &mask, &mut store, "fit")
        .unwrap();
    assert_eq!(cold, model);
    assert_eq!(resume.computed.len(), 3);
    let restored = large_allocations(campaign, || {
        let (warm, resume) = pipeline
            .fit_checkpointed(&ds, &temps, &input_refs, &mask, &mut store, "fit")
            .unwrap();
        assert_eq!(resume.restored.len(), 3);
        assert_eq!(warm, model);
    });
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(
        restored, 0,
        "a fully restored fit_checkpointed's allocations of at least {campaign} bytes"
    );
}

/// The library never builds a channel's `Option` view: over a fresh
/// dataset of N = 2,017 slots (seven days and one slot; no other
/// allocation of these calls is N × 16 bytes), a fit, its cluster-mean
/// validation, a cold `fit_checkpointed` and a training-horizon sweep
/// over the occupied window make no allocation of exactly N × 16 bytes.
/// The first call on each channel would build its view, so nothing is
/// warmed up first.
fn no_call_builds_the_option_view() {
    let (sensors, inputs, n) = (27, 6, 2_017);
    let ds = dataset(sensors, inputs, n);
    let mask = Mask::all(ds.grid());
    let names: Vec<String> = (0..sensors).map(|s| format!("s{s}")).collect();
    let temps: Vec<&str> = names.iter().map(String::as_str).collect();
    let input_names: Vec<String> = (0..inputs).map(|i| format!("u{i}")).collect();
    let input_refs: Vec<&str> = input_names.iter().map(String::as_str).collect();
    let pipeline = ThermalPipeline::builder()
        .cluster_count(ClusterCount::Fixed(4))
        .build()
        .unwrap();
    let root = std::env::temp_dir().join(format!("core-view-free-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut store = CheckpointStore::open(&root, 9, "view-free").unwrap();
    let occupied = Mask::daily_window(ds.grid(), 6 * 60, 21 * 60).unwrap();

    EXACT_BYTES.store(n as u64 * 16, Ordering::SeqCst);
    let before = EXACT.load(Ordering::SeqCst);
    let model = pipeline.fit(&ds, &temps, &input_refs, &mask).unwrap();
    let fit = EXACT.load(Ordering::SeqCst) - before;
    let report = model.evaluate_cluster_means(&ds, &mask, 48).unwrap();
    let evaluate = EXACT.load(Ordering::SeqCst) - before - fit;
    let (cold, resume) = pipeline
        .fit_checkpointed(&ds, &temps, &input_refs, &mask, &mut store, "fit")
        .unwrap();
    let checkpointed = EXACT.load(Ordering::SeqCst) - before - fit - evaluate;
    let points = thermal_sysid::sweep::sweep_training_horizon_with_cache(
        &ds,
        model.model().spec(),
        &occupied,
        &[0, 1, 2, 3, 4, 5],
        &[1, 3, 5],
        &[6],
        &FitConfig::default(),
        &EvalConfig::with_horizon(12),
        &mut GramCache::default(),
    )
    .unwrap();
    let sweep = EXACT.load(Ordering::SeqCst) - before - fit - evaluate - checkpointed;
    EXACT_BYTES.store(u64::MAX, Ordering::SeqCst);
    std::fs::remove_dir_all(&root).unwrap();

    assert!(!report.errors().is_empty());
    assert_eq!(cold, model);
    assert_eq!(resume.computed.len(), 3);
    assert_eq!(points.len(), 3);
    assert_eq!(
        [fit, evaluate, checkpointed, sweep],
        [0; 4],
        "allocations of exactly {n} × 16 bytes (a channel's `Option` view) by fit, \
         evaluate_cluster_means, fit_checkpointed and the sweep"
    );
}

#[test]
fn cluster_mean_validation_allocates_per_segment_not_per_slot() {
    // Let the libtest harness thread park itself: its first blocking
    // channel receive lazily allocates a thread-local context at a
    // scheduling-dependent moment, and the counter is process-global.
    std::thread::sleep(std::time::Duration::from_millis(10));

    batch_fit_makes_one_campaign_sized_allocation();
    no_call_builds_the_option_view();

    // (sensors, clusters): a two-output model, whose packed `Θ` is all
    // tail, and a nine-output one with a full eight-row panel.
    for (sensors, k) in [(4, 2), (12, 9)] {
        for order in [ModelOrder::First, ModelOrder::Second] {
            let model = reduced(sensors, k, order);
            let mut counts = Vec::new();
            for n in [50, 500] {
                let ds = dataset(sensors, 2, n);
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
            let n = 1_000;
            let ds = dataset(sensors, 2, n);
            let segments = [(1, 500), (10, 50)];
            model
                .evaluate_cluster_means(&ds, &runs(n, 1, 500), n)
                .unwrap();
            let counts: Vec<u64> = segments
                .iter()
                .map(|&(count, len)| {
                    let mask = runs(n, count, len);
                    allocations(|| {
                        let report = model.evaluate_cluster_means(&ds, &mask, n).unwrap();
                        assert_eq!(report.segments_used(), count);
                    })
                })
                .collect();
            assert_eq!(
                counts[1], counts[0],
                "{order}, {k} clusters: evaluate_cluster_means allocations over ten \
                 50-slot segments vs one 500-slot segment"
            );
        }
    }
}
