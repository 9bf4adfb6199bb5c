//! Benchmark of the streaming layer: row-tolerant CSV ingest and a
//! full day of event-loop replay (queue → reorder → health →
//! substitution ladder → live prediction).
//!
//! Timings here are informational (recorded in `BENCH_<label>.json`);
//! correctness of the stream layer is gated by `cargo xtask soak stream`,
//! which asserts bitwise-deterministic final state instead of
//! wall-clock numbers.

// Benchmarks are fixture-driven: a panic on a broken fixture is the
// right failure mode, so the panic-free-library lints are relaxed here.
#![allow(missing_docs, clippy::expect_used, clippy::unwrap_used)]
use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, Criterion};
use thermal_core::{ClusterCount, ModelOrder, ReducedModel, SelectorKind, ThermalPipeline};
use thermal_stream::{
    parse_csv_events, BackoffPolicy, FlakySource, Reading, ReplayConfig, StreamConfig,
    StreamService, TraceReplayer,
};
use thermal_timeseries::{csv, Channel, Dataset, Mask, TimeGrid, Timestamp};

/// One simulated day of 5-minute telemetry.
const SLOTS: usize = 288;

/// Shared fixture: the synthetic day, its fitted reduced model, and
/// its CSV rendering (the replay input).
struct Fixture {
    dataset: Dataset,
    model: ReducedModel,
    csv_text: String,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let u: Vec<f64> = (0..SLOTS)
            .map(|k| 0.5 + 0.5 * (k as f64 * 0.11).sin())
            .collect();
        let mut channels = vec![Channel::from_values("u", u.clone()).expect("input channel")];
        for (i, (gain, base)) in [
            (1.0_f64, 20.0_f64),
            (1.05, 20.1),
            (1.1, 20.2),
            (-1.0, 22.0),
            (-0.95, 22.1),
            (-0.9, 22.2),
        ]
        .into_iter()
        .enumerate()
        {
            let mut t = vec![base];
            for k in 0..SLOTS - 1 {
                t.push(0.9 * t[k] + 0.1 * base + gain * 0.2 * u[k]);
            }
            channels.push(Channel::from_values(format!("s{i}"), t).expect("sensor channel"));
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, SLOTS).expect("grid");
        let dataset = Dataset::new(grid, channels).expect("dataset");
        let model = ThermalPipeline::builder()
            .cluster_count(ClusterCount::Fixed(2))
            .selector(SelectorKind::NearMean)
            .model_order(ModelOrder::First)
            .build()
            .expect("valid pipeline")
            .fit(
                &dataset,
                &["s0", "s1", "s2", "s3", "s4", "s5"],
                &["u"],
                &Mask::all(dataset.grid()),
            )
            .expect("fittable");
        let csv_text = csv::to_csv_string(&dataset).expect("csv");
        Fixture {
            dataset,
            model,
            csv_text,
        }
    })
}

/// Replays the fixture day through a fresh service and returns the
/// final step count (kept out of the optimizer's reach by the caller).
fn replay_day(f: &Fixture) -> u64 {
    let service = StreamService::new(
        f.model.clone(),
        StreamConfig::default(),
        f.dataset.grid().start(),
    )
    .expect("service");
    let mapping: Vec<Option<usize>> = f
        .dataset
        .channels()
        .iter()
        .map(|ch| service.channel_index(ch.name()).ok())
        .collect();
    let (batches, _) = parse_csv_events(&f.csv_text, &mapping).expect("parse");
    let replayer = TraceReplayer::new(*f.dataset.grid(), &batches, &ReplayConfig::default())
        .expect("replayer");
    let mut source = FlakySource::new(
        replayer,
        0.1,
        7,
        BackoffPolicy::default(),
        thermal_ckpt::BreakerPolicy::default(),
    )
    .expect("source");
    let mut service = service;
    for slot in 0..source.slots() {
        let now = source.replayer().slot_time(slot);
        let arrivals = source.poll(slot);
        service.step(now, &arrivals).expect("step");
    }
    let stats = service.stats();
    assert!(stats.applied > 0, "replay must deliver readings");
    stats.steps
}

fn bench_stream(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    group.bench_function("ingest_parse_day", |b| {
        let service = StreamService::new(
            f.model.clone(),
            StreamConfig::default(),
            f.dataset.grid().start(),
        )
        .expect("service");
        let mapping: Vec<Option<usize>> = f
            .dataset
            .channels()
            .iter()
            .map(|ch| service.channel_index(ch.name()).ok())
            .collect();
        b.iter(|| parse_csv_events(&f.csv_text, &mapping).expect("parse"))
    });
    group.bench_function("replay_day_6ch", |b| b.iter(|| replay_day(f)));
    group.bench_function("steady_state_events", |b| {
        // The allocation-free serving contract (see
        // crates/stream/tests/alloc_free.rs): one warmed service,
        // one reused arrivals buffer, one reused prediction; each
        // iteration is one step + predict_into event.
        let mut service = StreamService::new(
            f.model.clone(),
            StreamConfig::default(),
            f.dataset.grid().start(),
        )
        .expect("service");
        let channel_count = service.channel_names().len();
        let mut arrivals: Vec<Reading> = (0..channel_count)
            .map(|c| Reading {
                channel: c,
                at: f.dataset.grid().start(),
                value: if c < channel_count - 1 { 21.0 } else { 0.5 },
            })
            .collect();
        let mut minute = f.dataset.grid().start().as_minutes();
        let stamp = |arrivals: &mut [Reading], minute: i64| {
            let at = Timestamp::from_minutes(minute);
            for r in arrivals.iter_mut() {
                r.at = at;
            }
        };
        for _ in 0..40 {
            minute += 5;
            stamp(&mut arrivals, minute);
            service
                .step(Timestamp::from_minutes(minute), &arrivals)
                .expect("warmup step");
        }
        let mut prediction = service.predict();
        assert!(prediction.warmed_up, "bench fixture must be warmed up");
        b.iter(|| {
            minute += 5;
            stamp(&mut arrivals, minute);
            service
                .step(Timestamp::from_minutes(minute), &arrivals)
                .expect("step");
            service.predict_into(&mut prediction);
            prediction.warmed_up
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
