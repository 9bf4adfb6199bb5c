//! Onboarding one fleet building — spec → sim → fit → CSV → ingest →
//! replay schedule → delivery source — with a span around every call
//! into a layer. `fleet-onboard` times this as its operation; `serve`
//! runs it in set-up.

use thermal_ckpt::{BreakerPolicy, Fnv64};
use thermal_core::{
    ClusterCount, GramCache, ModelOrder, ReducedModel, SelectorKind, ThermalPipeline,
};
use thermal_fleet::{AdmissionPolicy, BuildingShard, BuildingSpec, ShardPolicy};
use thermal_stream::{
    parse_csv_events, BackoffPolicy, FlakySource, IngestStats, ReplayConfig, StreamConfig,
    StreamService, TraceReplayer,
};
use thermal_sysid::CacheStats;
use thermal_timeseries::{csv, Dataset, Mask};

use crate::trace::Tracer;

/// Result alias of the benchmark: every layer error becomes its text.
pub type Res<T> = Result<T, String>;

/// Adds the failing stage's name to any layer error.
pub trait Ctx<T> {
    /// Maps the error to `"<stage>: <error>"`.
    fn ctx(self, stage: &str) -> Res<T>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, stage: &str) -> Res<T> {
        self.map_err(|e| format!("{stage}: {e}"))
    }
}

/// The stream settings the fleet orchestrator gives every bulkhead:
/// a lateness budget that absorbs the replay jumble, silence
/// thresholds above it, and a small queue as the shard's memory bound.
pub fn fleet_stream_config(step_minutes: u32) -> StreamConfig {
    let mut config = StreamConfig {
        queue_capacity: 1024,
        step_minutes,
        ..StreamConfig::default()
    };
    config.reorder.allowed_lateness = 30;
    config.reorder.capacity = 64;
    config.health.suspect_after = 60;
    config.health.dead_after = 90;
    config
}

/// The shard policy the orchestrator uses, its watchdog bound tied to
/// the queue capacity.
pub fn fleet_shard_policy() -> ShardPolicy {
    ShardPolicy {
        max_depth: fleet_stream_config(5).queue_capacity,
        ..ShardPolicy::default()
    }
}

/// One onboarded building: everything a fresh bulkhead is built from.
#[derive(Debug, Clone)]
pub struct Building {
    /// The minted spec.
    pub spec: BuildingSpec,
    /// The simulated campaign telemetry.
    pub dataset: Dataset,
    /// The fitted reduced model.
    pub model: ReducedModel,
    /// A fresh service around the model.
    pub service: StreamService,
    /// A fresh fault-free delivery source over the jumbled replay.
    pub source: FlakySource,
    /// Field accounting of the CSV ingest.
    pub ingest: IngestStats,
    /// Rows the ingest parsed into batches.
    pub parse_rows: u64,
    /// Gram-cache counters of the fit.
    pub cache: CacheStats,
}

impl Building {
    /// Content digest of what onboarding produced: model bits,
    /// clustering, selection, ingest counters and replay schedule.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        let coef = self.model.model().coefficients();
        for r in 0..coef.rows() {
            for v in coef.row(r) {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        for &a in self.model.clustering().assignments() {
            h.update(&(a as u64).to_le_bytes());
        }
        for name in self.model.selected_channels() {
            h.update(name.as_bytes());
        }
        h.update(format!("{:?}", self.ingest).as_bytes());
        h.update(&self.source.replayer().total_deliveries().to_le_bytes());
        h.finish()
    }

    /// A fresh bulkhead over clones of the service and source.
    pub fn shard(&self, service: StreamService, policy: ShardPolicy) -> Res<BuildingShard> {
        BuildingShard::new(self.spec.id, service, self.source.clone(), policy).ctx("shard")
    }
}

/// Onboards building `id` of the fleet minted from `fleet_seed`, with a
/// `days`-long campaign.
pub fn onboard(t: &mut Tracer, fleet_seed: u64, id: u32, days: usize) -> Res<Building> {
    let spec = t.call("fleet.spec", || BuildingSpec::generate(fleet_seed, id));
    let scenario = t
        .call("fleet.scenario", || spec.scenario(days))
        .ctx("scenario")?;
    let sim = t
        .call("sim.run", || thermal_sim::run(&scenario))
        .ctx("sim")?;
    let sensors = sim.wireless_channels();
    let sensors: Vec<&str> = sensors.iter().map(String::as_str).collect();
    let inputs = sim.input_channels();
    let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let dataset = sim.dataset;
    let mask = Mask::all(dataset.grid());
    let pipeline = ThermalPipeline::builder()
        .cluster_count(ClusterCount::Fixed(spec.cluster_count))
        .selector(SelectorKind::NearMean)
        .model_order(ModelOrder::First)
        .seed(spec.seed)
        .build()
        .ctx("pipeline")?;
    // A fresh namespaced slice per building, as the orchestrator
    // gives each tenant: buildings never share Gram blocks.
    let mut cache = GramCache::with_slot_bits(AdmissionPolicy::default().cache_slot_bits)
        .with_namespace(spec.fingerprint());
    let model = t
        .call("core.fit", || {
            pipeline.fit_with_cache(&dataset, &sensors, &inputs, &mask, &mut cache)
        })
        .ctx("fit")?;
    let csv_text = t
        .call("timeseries.to_csv", || csv::to_csv_string(&dataset))
        .ctx("csv")?;
    let config = fleet_stream_config(sim.scenario.sample_minutes);
    let service = t
        .call("stream.service_new", || {
            StreamService::new(model.clone(), config, dataset.grid().start())
        })
        .ctx("service")?;
    let mapping: Vec<Option<usize>> = dataset
        .channels()
        .iter()
        .map(|ch| service.channel_index(ch.name()).ok())
        .collect();
    let (batches, ingest) = t
        .call("stream.parse", || parse_csv_events(&csv_text, &mapping))
        .ctx("parse")?;
    let replay = ReplayConfig {
        seed: thermal_par::derive_seed(spec.seed, 1),
        ..ReplayConfig::default()
    };
    let replayer = t
        .call("stream.replayer_new", || {
            TraceReplayer::new(*dataset.grid(), &batches, &replay)
        })
        .ctx("replayer")?;
    let source = t
        .call("stream.source_new", || {
            FlakySource::new(
                replayer,
                0.0,
                thermal_par::derive_seed(spec.seed, 2),
                BackoffPolicy::default(),
                BreakerPolicy::default(),
            )
        })
        .ctx("source")?;
    Ok(Building {
        parse_rows: batches.len() as u64,
        cache: cache.stats(),
        spec,
        dataset,
        model,
        service,
        source,
        ingest,
    })
}
