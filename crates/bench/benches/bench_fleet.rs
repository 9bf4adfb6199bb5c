//! Benchmark of the fleet layer's two throughput axes: buildings
//! fitted per second (mint → simulate → cluster → select → identify,
//! one namespaced cache slice per building) and predictions served
//! per second (every building's full replay through its own
//! [`BuildingShard`] bulkhead), at fleet sizes 8, 64 and 256.
//!
//! Building `i` of a fleet is independent of the fleet size, so one
//! 256-building fixture is sliced for the smaller sizes, and both
//! stages run through the same order-preserving `thermal-par` maps
//! the orchestrator uses — the numbers scale with `THERMAL_THREADS`
//! exactly like production. The repository benchmark's
//! `fleet-onboard` and `serve` workloads (`perfbench/`) measure the
//! same two paths end to end.

// Benchmarks are fixture-driven: a panic on a broken fixture is the
// right failure mode, so the panic-free-library lints are relaxed here.
#![allow(missing_docs, clippy::expect_used, clippy::unwrap_used)]
use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, Criterion};
use thermal_core::{
    ClusterCount, GramCache, ModelOrder, ReducedModel, SelectorKind, ThermalPipeline,
};
use thermal_fleet::{BuildingShard, BuildingSpec, ShardPolicy};
use thermal_stream::{
    parse_csv_events, BackoffPolicy, FlakySource, Reading, ReplayConfig, StreamConfig,
    StreamService, TraceReplayer,
};
use thermal_timeseries::{csv, Dataset, Mask};

/// Fleet master seed — matches the soak workload.
const FLEET_SEED: u64 = 7;
/// One simulated day per building keeps the largest size in budget.
const DAYS: usize = 1;
/// The fleet sizes the report quotes.
const SIZES: &[usize] = &[8, 64, 256];

/// One minted building, simulated once; the fit bench refits it every
/// iteration, the serve fixture fits it once more to build shards.
struct Minted {
    spec: BuildingSpec,
    dataset: Dataset,
    sensors: Vec<String>,
    inputs: Vec<String>,
    step_minutes: u32,
}

/// A fitted building ready to serve: the reduced model plus the
/// pre-parsed replay batches of its campaign trace.
struct Fitted {
    minted: &'static Minted,
    model: ReducedModel,
    batches: Vec<Vec<Reading>>,
}

fn pipeline_for(spec: &BuildingSpec) -> ThermalPipeline {
    ThermalPipeline::builder()
        .cluster_count(ClusterCount::Fixed(spec.cluster_count))
        .selector(SelectorKind::NearMean)
        .model_order(ModelOrder::First)
        .seed(spec.seed)
        .build()
        .expect("pipeline")
}

fn fit_one(minted: &Minted) -> ReducedModel {
    let sensors: Vec<&str> = minted.sensors.iter().map(String::as_str).collect();
    let inputs: Vec<&str> = minted.inputs.iter().map(String::as_str).collect();
    let mask = Mask::all(minted.dataset.grid());
    let mut cache = GramCache::with_slot_bits(6).with_namespace(minted.spec.fingerprint());
    pipeline_for(&minted.spec)
        .fit_with_cache(&minted.dataset, &sensors, &inputs, &mask, &mut cache)
        .expect("fit")
}

/// The largest fleet, minted and simulated once; smaller sizes are
/// prefixes (building `i` does not depend on the fleet size).
fn minted() -> &'static Vec<Minted> {
    static F: OnceLock<Vec<Minted>> = OnceLock::new();
    F.get_or_init(|| {
        let max = *SIZES.iter().max().expect("sizes");
        (0..max)
            .map(|i| {
                let spec = BuildingSpec::generate(FLEET_SEED, u32::try_from(i).expect("id"));
                let scenario = spec.scenario(DAYS).expect("scenario");
                let sim = thermal_sim::run(&scenario).expect("sim");
                Minted {
                    spec,
                    sensors: sim.wireless_channels(),
                    inputs: sim.input_channels(),
                    step_minutes: sim.scenario.sample_minutes,
                    dataset: sim.dataset,
                }
            })
            .collect()
    })
}

/// The serve fixture: every building fitted once, its trace rendered
/// to CSV and pre-parsed into replay batches.
fn fitted() -> &'static Vec<Fitted> {
    static F: OnceLock<Vec<Fitted>> = OnceLock::new();
    F.get_or_init(|| {
        minted()
            .iter()
            .map(|m| {
                let model = fit_one(m);
                let csv_text = csv::to_csv_string(&m.dataset).expect("csv");
                let service = service_for(m, &model);
                let mapping: Vec<Option<usize>> = m
                    .dataset
                    .channels()
                    .iter()
                    .map(|ch| service.channel_index(ch.name()).ok())
                    .collect();
                let (batches, _ingest) =
                    parse_csv_events(&csv_text, &mapping).expect("parse events");
                Fitted {
                    minted: m,
                    model,
                    batches,
                }
            })
            .collect()
    })
}

fn service_for(minted: &Minted, model: &ReducedModel) -> StreamService {
    let mut config = StreamConfig {
        queue_capacity: 1024,
        step_minutes: minted.step_minutes,
        ..StreamConfig::default()
    };
    config.reorder.allowed_lateness = 30;
    config.reorder.capacity = 64;
    config.health.suspect_after = 60;
    config.health.dead_after = 90;
    StreamService::new(model.clone(), config, minted.dataset.grid().start()).expect("service")
}

/// Serves one building's whole campaign through a fresh bulkhead and
/// returns the prediction count (slots × clusters).
fn serve_one(f: &Fitted) -> usize {
    let replay = ReplayConfig {
        seed: thermal_par::derive_seed(f.minted.spec.seed, 1),
        ..ReplayConfig::default()
    };
    let replayer =
        TraceReplayer::new(*f.minted.dataset.grid(), &f.batches, &replay).expect("replayer");
    let source = FlakySource::new(
        replayer,
        0.0,
        thermal_par::derive_seed(f.minted.spec.seed, 2),
        BackoffPolicy::default(),
        thermal_ckpt::BreakerPolicy::default(),
    )
    .expect("source");
    let service = service_for(f.minted, &f.model);
    let mut shard = BuildingShard::new(f.minted.spec.id, service, source, ShardPolicy::default())
        .expect("shard");
    shard.serve_all().expect("serve");
    f.minted.dataset.grid().len() * shard.serve().clusters.len()
}

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    for &size in SIZES {
        group.bench_function(&format!("fit_{size}"), |b| {
            let fleet = &minted()[..size];
            b.iter(|| {
                let models = thermal_par::parallel_map(fleet, fit_one);
                assert_eq!(models.len(), size);
                models.len()
            })
        });
    }
    for &size in SIZES {
        group.bench_function(&format!("serve_{size}"), |b| {
            let fleet = &fitted()[..size];
            b.iter(|| {
                let counts = thermal_par::parallel_map(fleet, serve_one);
                assert_eq!(counts.len(), size);
                counts.iter().sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
