//! The fleet orchestrator: mint → admit → fit → serve, all
//! deterministic and bulkheaded.
//!
//! [`run_fleet`] is a pure function of its [`FleetConfig`]: building
//! specs are minted from the fleet seed, admission is planned from
//! static demand (never runtime health), and each admitted building
//! is fitted (cluster→select→identify, optionally through the
//! checkpointed runner) and then served through its own
//! [`BuildingShard`] bulkhead. Buildings
//! are processed by order-preserving `thermal-par` maps, and no
//! mutable state is shared across buildings, so:
//!
//! * results are bit-identical across `THERMAL_THREADS` settings and
//!   repeated runs;
//! * each building's [`BuildingReport`] depends only on
//!   `(fleet_seed, id, days, its own fault directive, the policies)`
//!   — which is the **blast-radius guarantee**: changing the fault
//!   targets can only ever change the targeted buildings' reports.
//!
//! Fault injection per targeted building mirrors the single-building
//! chaos soak: a scripted mid-trace outage of the fitted
//! representative, CSV corruption at the configured intensity, and a
//! flaky delivery source. Untargeted buildings replay the same
//! benign jumbled stream in every run.

use std::path::PathBuf;

use thermal_ckpt::codec::Record;
use thermal_ckpt::snapshot::{
    gc_snapshots, get_nested, latest_record_snapshot, put_nested, save_record_snapshot,
};
use thermal_core::{
    ClusterCount, GramCache, ModelOrder, ReducedModel, SelectorKind, ThermalPipeline,
};
use thermal_sim::SimOutput;
use thermal_stream::{
    parse_csv_events, BackoffPolicy, FlakySource, ReplayConfig, SoakPrediction, StreamConfig,
    StreamService, TraceReplayer,
};
use thermal_timeseries::{csv, Mask};

use crate::admission::{AdmissionPlan, AdmissionPolicy};
use crate::error::{FleetError, Result};
use crate::report::{
    BuildingDigest, BuildingReport, FitStatus, FleetReport, QuarantineEvent, QuarantineLog,
    ServeOutcome, ShedDigest,
};
use crate::shard::{BuildingShard, ShardPolicy};
use crate::spec::BuildingSpec;

/// Scripted representative-outage length for targeted buildings,
/// slots. Long enough that the representative goes Dead and the
/// bulkhead exhausts its error budget deterministically.
const OUTAGE_LEN: usize = 120;

/// Base per-poll failure probability of a targeted building's
/// delivery source; corruption intensity adds to it.
const FAIL_PROB: f64 = 0.1;

/// Everything one fleet run depends on.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet master seed; building `i` derives from `(seed, i)`.
    pub fleet_seed: u64,
    /// Buildings to mint.
    pub buildings: u32,
    /// Campaign days per building.
    pub days: usize,
    /// Building ids to inject faults into (deduplicated, ascending).
    pub targets: Vec<u32>,
    /// CSV corruption intensity for targeted buildings, milli-units.
    pub intensity_millis: u32,
    /// Shared-resource admission policy.
    pub admission: AdmissionPolicy,
    /// Per-building bulkhead policy.
    pub shard: ShardPolicy,
    /// When set, fits run through the checkpointed runner with a
    /// per-building store under this directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// When set alongside `checkpoint_dir`, the serve loop snapshots
    /// each building's whole bulkhead into its store at every
    /// `serve_snap_every`-slot boundary and resumes from the newest
    /// good snapshot after a crash.
    pub serve_snap_every: Option<usize>,
}

impl FleetConfig {
    /// A fleet of `buildings` seeded by `fleet_seed`, two days per
    /// building, no faults, default policies.
    #[must_use]
    pub fn new(fleet_seed: u64, buildings: u32) -> Self {
        FleetConfig {
            fleet_seed,
            buildings,
            days: 2,
            targets: Vec::new(),
            intensity_millis: 0,
            admission: AdmissionPolicy::default(),
            shard: ShardPolicy::default(),
            checkpoint_dir: None,
            serve_snap_every: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an empty fleet, a
    /// zero-day campaign, or a fault target outside the fleet.
    pub fn validate(&self) -> Result<()> {
        if self.buildings == 0 {
            return Err(FleetError::InvalidConfig {
                reason: "fleet needs at least one building".to_owned(),
            });
        }
        if self.days == 0 {
            return Err(FleetError::InvalidConfig {
                reason: "campaign needs at least one day".to_owned(),
            });
        }
        if let Some(&bad) = self.targets.iter().find(|&&t| t >= self.buildings) {
            return Err(FleetError::InvalidConfig {
                reason: format!("fault target {bad} outside fleet of {}", self.buildings),
            });
        }
        if self.serve_snap_every == Some(0) {
            return Err(FleetError::InvalidConfig {
                reason: "serve_snap_every must be positive when set".to_owned(),
            });
        }
        Ok(())
    }
}

/// Everything one fleet run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The fleet-level summary.
    pub fleet: FleetReport,
    /// The fleet-wide quarantine event log.
    pub quarantine_log: QuarantineLog,
    /// Per-building reports, ascending id (every minted building,
    /// including shed ones).
    pub buildings: Vec<BuildingReport>,
}

/// Runs a whole fleet: mint specs, plan admission, fit and serve
/// every admitted building through its bulkhead, and assemble the
/// reports.
///
/// # Errors
///
/// Returns [`FleetError::InvalidConfig`] for a bad configuration and
/// [`FleetError::Serve`] for a structural stream failure (a bug).
/// Per-building fit failures are *not* errors — the building is
/// reported quarantined-at-fit and the fleet carries on.
pub fn run_fleet(config: &FleetConfig) -> Result<FleetOutcome> {
    config.validate()?;
    let specs: Vec<BuildingSpec> = (0..config.buildings)
        .map(|i| BuildingSpec::generate(config.fleet_seed, i))
        .collect();
    let plan = AdmissionPlan::plan(&specs, &config.admission);

    let buildings: Vec<BuildingReport> =
        thermal_par::try_parallel_map(&specs, |spec| run_building(config, &plan, spec))?;

    let mut events = Vec::new();
    let mut digests = Vec::new();
    let mut slots = 0_usize;
    for report in &buildings {
        let (outcome, left) = match (&report.fit, &report.serve) {
            (FitStatus::Shed { .. }, _) => ("shed".to_owned(), false),
            (FitStatus::Failed { .. }, _) => ("fit_failed".to_owned(), true),
            (FitStatus::Fitted { .. }, Some(s)) => {
                slots = slots.max(s.slots);
                for t in &s.transitions {
                    events.push(QuarantineEvent {
                        building: report.building,
                        transition: *t,
                    });
                }
                (s.final_phase.clone(), s.ever_left_healthy)
            }
            (FitStatus::Fitted { .. }, None) => ("fitted".to_owned(), false),
        };
        digests.push(BuildingDigest {
            building: report.building,
            fingerprint: report.fingerprint,
            outcome,
            left_healthy: left,
        });
    }

    let fleet = FleetReport {
        fleet_seed: config.fleet_seed,
        buildings: config.buildings,
        days: config.days,
        slots,
        targets: config.targets.clone(),
        intensity_millis: config.intensity_millis,
        admitted: plan.admitted.len(),
        admitted_units: plan.admitted_units,
        budget_units: plan.budget_units,
        shed: plan
            .shed
            .iter()
            .map(|s| ShedDigest {
                building: s.building,
                demand_units: s.demand_units,
                reason: s.reason.label().to_owned(),
            })
            .collect(),
        digests,
    };
    Ok(FleetOutcome {
        fleet,
        quarantine_log: QuarantineLog { events },
        buildings,
    })
}

/// Runs one building end to end. Pure in `(config, plan, spec)`;
/// crucially, nothing here reads *which other* buildings exist or
/// are targeted — only whether this one is.
fn run_building(
    config: &FleetConfig,
    plan: &AdmissionPlan,
    spec: &BuildingSpec,
) -> Result<BuildingReport> {
    let targeted = config.targets.contains(&spec.id);
    let intensity_millis = if targeted { config.intensity_millis } else { 0 };
    let mut report = BuildingReport {
        building: spec.id,
        fingerprint: spec.fingerprint(),
        seed: spec.seed,
        targeted,
        intensity_millis,
        rows: spec.rows,
        cols: spec.cols,
        capacity: spec.capacity,
        cluster_count: spec.cluster_count,
        fit: FitStatus::Failed {
            reason: String::new(),
        },
        serve: None,
    };

    if let Some(shed) = plan.shed.iter().find(|s| s.building == spec.id) {
        report.fit = FitStatus::Shed {
            reason: shed.reason.label().to_owned(),
        };
        return Ok(report);
    }

    // Fit stage: a terminal failure quarantines the building at fit
    // instead of failing the fleet — that is the bulkhead's job.
    let (sim, model) = match fit_building(config, spec) {
        Ok(pair) => pair,
        Err(e) => {
            report.fit = FitStatus::Failed {
                reason: e.to_string(),
            };
            return Ok(report);
        }
    };
    report.fit = FitStatus::Fitted {
        clusters: model.clustering().k(),
        selected: model.selected_channels().to_vec(),
    };

    let serve = serve_building(config, spec, &sim, &model, targeted, intensity_millis)?;
    report.serve = Some(serve);
    Ok(report)
}

/// Simulates the building's campaign and fits the reduced model.
fn fit_building(config: &FleetConfig, spec: &BuildingSpec) -> Result<(SimOutput, ReducedModel)> {
    let scenario = spec.scenario(config.days)?;
    let sim = thermal_sim::run(&scenario).map_err(|e| FleetError::Sim {
        building: spec.id,
        reason: e.to_string(),
    })?;
    let sensor_names = sim.wireless_channels();
    let sensors: Vec<&str> = sensor_names.iter().map(String::as_str).collect();
    let input_names = sim.input_channels();
    let inputs: Vec<&str> = input_names.iter().map(String::as_str).collect();
    let mask = Mask::all(sim.dataset.grid());
    let pipeline = ThermalPipeline::builder()
        .cluster_count(ClusterCount::Fixed(spec.cluster_count))
        .selector(SelectorKind::NearMean)
        .model_order(ModelOrder::First)
        .seed(spec.seed)
        .build()
        .map_err(|e| FleetError::Fit {
            building: spec.id,
            reason: e.to_string(),
        })?;
    let model = match &config.checkpoint_dir {
        Some(dir) => {
            let store_dir = dir.join(format!("b{:03}", spec.id));
            let mut store = thermal_ckpt::CheckpointStore::open(store_dir, spec.seed, "fleet-v1")
                .map_err(|e| FleetError::Io {
                context: format!("checkpoint store for building {}", spec.id),
                reason: e.to_string(),
            })?;
            pipeline
                .fit_checkpointed(&sim.dataset, &sensors, &inputs, &mask, &mut store, "fit")
                .map(|(model, _resume)| model)
        }
        None => {
            // Per-building slice of the admission-bounded cache
            // arena, namespaced by the spec fingerprint so buildings
            // can never cross-hit (see `thermal_sysid::cache`).
            let mut cache = GramCache::with_slot_bits(config.admission.cache_slot_bits)
                .with_namespace(spec.fingerprint());
            pipeline.fit_with_cache(&sim.dataset, &sensors, &inputs, &mask, &mut cache)
        }
    }
    .map_err(|e| FleetError::Fit {
        building: spec.id,
        reason: e.to_string(),
    })?;
    Ok((sim, model))
}

/// Replays the building's campaign as a live stream through its
/// bulkhead and reports the outcome.
fn serve_building(
    config: &FleetConfig,
    spec: &BuildingSpec,
    sim: &SimOutput,
    model: &ReducedModel,
    targeted: bool,
    intensity_millis: u32,
) -> Result<ServeOutcome> {
    let slots = sim.dataset.grid().len();
    let intensity = f64::from(intensity_millis) / 1000.0;

    // Targeted buildings suffer a scripted outage of the fitted
    // representative plus CSV corruption; untargeted buildings replay
    // their unmodified trace.
    let deployed = if targeted {
        let rep = model
            .selected_channels()
            .first()
            .cloned()
            .ok_or_else(|| FleetError::Serve {
                building: spec.id,
                reason: "model selected no representatives".to_owned(),
            })?;
        let start = slots / 4;
        let len = OUTAGE_LEN.min(slots.saturating_sub(start) / 2);
        sim.dataset.with_outage(&rep, start..start + len)
    } else {
        sim.dataset.clone()
    };

    let csv_text = csv::to_csv_string(&deployed).map_err(|e| FleetError::Serve {
        building: spec.id,
        reason: e.to_string(),
    })?;
    let (stream_text, corrupted_lines) = if targeted && intensity > 0.0 {
        let (text, log) = thermal_faults::ingest::corrupt_csv(
            &csv_text,
            thermal_par::derive_seed(spec.seed, 0xc0_44), // corruption stream
            intensity,
        );
        (text, log.len() as u64)
    } else {
        (csv_text, 0)
    };

    // Bulkhead stream settings: the lateness budget absorbs the
    // replay jumble's delays, and the silence thresholds sit above it
    // (see the single-building soak for the coupling rule). The
    // queue is deliberately small — it is the shard's memory bound.
    let mut stream_config = StreamConfig {
        queue_capacity: 1024,
        step_minutes: sim.scenario.sample_minutes,
        ..StreamConfig::default()
    };
    stream_config.reorder.allowed_lateness = 30;
    stream_config.reorder.capacity = 64;
    stream_config.health.suspect_after = 60;
    stream_config.health.dead_after = 90;
    let depth_bound = stream_config.queue_capacity;
    let service = StreamService::new(model.clone(), stream_config, deployed.grid().start())
        .map_err(|e| FleetError::Serve {
            building: spec.id,
            reason: e.to_string(),
        })?;

    let mapping: Vec<Option<usize>> = deployed
        .channels()
        .iter()
        .map(|ch| service.channel_index(ch.name()).ok())
        .collect();
    let (batches, ingest) =
        parse_csv_events(&stream_text, &mapping).map_err(|e| FleetError::Serve {
            building: spec.id,
            reason: e.to_string(),
        })?;

    let replay = ReplayConfig {
        seed: thermal_par::derive_seed(spec.seed, 1),
        ..ReplayConfig::default()
    };
    let replayer =
        TraceReplayer::new(*deployed.grid(), &batches, &replay).map_err(|e| FleetError::Serve {
            building: spec.id,
            reason: e.to_string(),
        })?;
    let fail_prob = if targeted {
        (FAIL_PROB + intensity / 2.0).min(0.9)
    } else {
        0.0
    };
    let source = FlakySource::new(
        replayer,
        fail_prob,
        thermal_par::derive_seed(spec.seed, 2),
        BackoffPolicy::default(),
        thermal_ckpt::BreakerPolicy::default(),
    )
    .map_err(|e| FleetError::Serve {
        building: spec.id,
        reason: e.to_string(),
    })?;

    let mut policy = config.shard.clone();
    policy.max_depth = depth_bound;
    let mut shard = BuildingShard::new(spec.id, service, source, policy)?;
    match (&config.checkpoint_dir, config.serve_snap_every) {
        (Some(dir), Some(every)) => {
            serve_checkpointed(&mut shard, dir, spec, every)?;
        }
        _ => shard.serve_all()?,
    }

    Ok(ServeOutcome {
        slots,
        final_phase: shard.phase().label().to_owned(),
        ever_left_healthy: shard.ever_left_healthy(),
        transitions: shard.transitions().to_vec(),
        counters: shard.counters(),
        max_depth_seen: shard.max_depth_seen(),
        depth_bound,
        corrupted_lines,
        ingest,
        source: shard.source_stats(),
        service: shard.service_stats(),
        health: shard.sensor_health(),
        predictions: SoakPrediction::from_live(&shard.serve()),
    })
}

/// Envelope tag of a mid-serve shard snapshot record.
const SERVE_TAG: &str = "fleet-serve-progress";

/// Envelope version of the serve-progress record.
const SERVE_VERSION: u32 = 1;

/// Serve-progress snapshots kept per building — enough to survive a
/// torn newest snapshot and still fall back to an older good one.
const KEEP_SERVE_SNAPSHOTS: usize = 3;

/// The crash-safe serve loop: restore the bulkhead from the newest
/// good snapshot in the building's store (quarantining torn or
/// corrupt ones), then replay the remaining slots, snapshotting the
/// whole shard at every `every`-slot boundary.
fn serve_checkpointed(
    shard: &mut BuildingShard,
    dir: &std::path::Path,
    spec: &BuildingSpec,
    every: usize,
) -> Result<()> {
    let io_err = |e: thermal_ckpt::CkptError| FleetError::Io {
        context: format!("serve snapshots for building {}", spec.id),
        reason: e.to_string(),
    };
    let store_dir = dir.join(format!("b{:03}", spec.id));
    let mut store =
        thermal_ckpt::CheckpointStore::open(store_dir, spec.seed, "fleet-v1").map_err(io_err)?;
    let recovered =
        latest_record_snapshot(&mut store, "serve", SERVE_TAG, SERVE_VERSION).map_err(io_err)?;
    let (mut next_seq, mut start) = (0_u64, 0_usize);
    if let Some((seq, rec)) = recovered {
        get_nested(&rec, "shard", shard).map_err(io_err)?;
        start = rec
            .get_usize("next_slot")
            .map_err(io_err)?
            .min(shard.slots());
        next_seq = seq + 1;
    }
    let slots = shard.slots();
    for slot in start..slots {
        shard.step_slot(slot)?;
        let done = slot + 1;
        if done % every == 0 && done < slots {
            let mut rec = Record::new(SERVE_TAG);
            rec.put_usize("next_slot", done);
            put_nested(&mut rec, "shard", shard);
            save_record_snapshot(&mut store, "serve", next_seq, SERVE_VERSION, &rec)
                .map_err(io_err)?;
            next_seq += 1;
            gc_snapshots(&mut store, "serve", KEEP_SERVE_SNAPSHOTS).map_err(io_err)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_catches_bad_inputs() {
        assert!(FleetConfig::new(7, 0).validate().is_err());
        let mut c = FleetConfig::new(7, 4);
        c.days = 0;
        assert!(c.validate().is_err());
        let mut c = FleetConfig::new(7, 4);
        c.targets = vec![4];
        assert!(c.validate().is_err());
        assert!(FleetConfig::new(7, 4).validate().is_ok());
    }

    #[test]
    fn a_small_clean_fleet_stays_healthy_everywhere() {
        let mut config = FleetConfig::new(11, 3);
        config.days = 1;
        let outcome = run_fleet(&config).unwrap();
        assert_eq!(outcome.buildings.len(), 3);
        assert!(outcome.quarantine_log.events.is_empty());
        for b in &outcome.buildings {
            assert!(matches!(b.fit, FitStatus::Fitted { .. }), "{:?}", b.fit);
            let serve = b.serve.as_ref().unwrap();
            assert_eq!(serve.final_phase, "healthy");
            assert!(!serve.ever_left_healthy);
            assert!(serve.counters.blackout_slots == 0);
        }
        assert!(outcome.fleet.left_healthy().is_empty());
    }

    #[test]
    fn a_targeted_building_leaves_healthy_and_untargeted_reports_are_unchanged() {
        let mut clean = FleetConfig::new(13, 3);
        clean.days = 2;
        let mut faulted = clean.clone();
        faulted.targets = vec![1];
        faulted.intensity_millis = 400;
        let clean_out = run_fleet(&clean).unwrap();
        let faulted_out = run_fleet(&faulted).unwrap();
        // The targeted building degrades...
        let hit = faulted_out.buildings[1].serve.as_ref().unwrap();
        assert!(hit.ever_left_healthy, "targeted building never degraded");
        // ...and the others are byte-identical to the clean run.
        for id in [0_usize, 2] {
            assert_eq!(
                clean_out.buildings[id].to_json(),
                faulted_out.buildings[id].to_json(),
                "blast radius leaked into building {id}"
            );
        }
        assert!(!faulted_out.fleet.left_healthy().contains(&0));
        assert!(!faulted_out.fleet.left_healthy().contains(&2));
    }
}
