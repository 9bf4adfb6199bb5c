//! `serve`: one operation advances one building's bulkhead by one slot
//! and serves its prediction (`BuildingShard::step_slot` then
//! `BuildingShard::serve`). Buildings are onboarded in set-up; their
//! traces replay, jumbled by the default `ReplayConfig` (15% of
//! readings late by up to 4 slots, 5% duplicated), in passes through
//! fresh shards. One client advances every building a slot before the
//! next slot: a closed loop on the simulated clock.
//!
//! Why: ingest → supervise → forecast → predict is the whole operation,
//! the read path; simulation and fitting are set-up.
//!
//! The traced run replays the read path, then the online path: the same
//! operation with online identification writing refits into a fresh
//! store per building and a whole-shard snapshot saved every simulated
//! day. The online path has no timed run of its own: its time is
//! mostly fsync, which on a shared disk varies by 2× from minute to
//! minute, too much for a gated end-to-end number; its layers are
//! measured here. In both, a twin of each building is driven straight
//! through `FlakySource::poll` → `StreamService::step` →
//! `predict_into`, which splits the operation between the stream layer
//! and the fleet bulkhead; the twin's final counters must equal the
//! shard's.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

use thermal_ckpt::codec::Record;
use thermal_ckpt::snapshot::{
    gc_snapshots, get_nested, put_nested, seal, snapshot_bytes, snapshot_name, unseal,
};
use thermal_ckpt::{CheckpointStore, CkptError};
use thermal_fleet::{BuildingShard, BuildingSpec, ShardPolicy};
use thermal_stream::{
    FlakySource, LivePrediction, OnlineConfig, OnlineStats, ServiceStats, StreamService,
};
use thermal_timeseries::ValidationConfig;

use crate::env::{store_entries, StoreRoot};
use crate::onboard::{fleet_shard_policy, onboard, Building, Ctx, Res};
use crate::report::{Args, Report};
use crate::stats::{percentile, Best};
use crate::trace::{TraceAgg, Tracer};

/// Campaign days per building (one pass replays them all); online
/// refits start on the second day.
const DAYS: usize = 2;
/// Workers that onboard the buildings in set-up.
const SETUP_WORKERS: usize = 2;
/// Five-minute slots per simulated day.
const SLOTS_PER_DAY: u64 = 288;
/// Slots between whole-shard snapshots (one simulated day).
const SNAPSHOT_EVERY: usize = SLOTS_PER_DAY as usize;
/// Snapshots each building's store keeps.
const KEEP_SNAPSHOTS: usize = 3;
const SNAP_TAG: &str = "perfbench-serve";
const SNAP_VERSION: u32 = 1;
/// Bound on the one-step RMSE, °C, of served predictions against the
/// simulated reading of the slot they target.
const RMSE_BOUND: f64 = 0.5;

/// The fleet's first building of every (grid rows, grid columns,
/// cluster count) class the spec generator draws from. Serving cost
/// follows building size, so taking one of each gives every seed the
/// same size mix while everything else about the buildings still comes
/// from the seed.
fn stratified_ids(seed: u64) -> Res<Vec<u32>> {
    // rows 2–4 × columns 3–5 × 2–3 clusters.
    const CLASSES: usize = 18;
    let mut classes = BTreeSet::new();
    let mut ids = Vec::new();
    for id in 0..10_000 {
        let spec = BuildingSpec::generate(seed, id);
        if classes.insert((spec.rows, spec.cols, spec.cluster_count)) {
            ids.push(id);
            if ids.len() == CLASSES {
                return Ok(ids);
            }
        }
    }
    Err(format!("only {} building classes drawn", ids.len()))
}

/// The onboarded buildings, and for each cluster of each building the
/// dataset columns of its representatives (the truth a prediction is
/// scored against).
struct Fixture {
    buildings: Vec<Building>,
    reps: Vec<Vec<Vec<usize>>>,
}

impl Fixture {
    fn new(seed: u64) -> Res<Self> {
        let ids = stratified_ids(seed)?;
        let built = thermal_par::parallel_map_with(SETUP_WORKERS, &ids, |&id| {
            onboard(&mut Tracer::new(false), seed, id, DAYS)
        });
        let buildings = built.into_iter().collect::<Res<Vec<_>>>()?;
        let reps = buildings
            .iter()
            .map(|b| {
                let names = b.model.all_channels();
                (0..b.model.clustering().k())
                    .map(|c| {
                        b.model
                            .selection()
                            .representatives(c)
                            .iter()
                            .map(|&r| {
                                b.dataset
                                    .channel_index(&names[r])
                                    .ok_or_else(|| format!("no column for {}", names[r]))
                            })
                            .collect::<Res<Vec<usize>>>()
                    })
                    .collect::<Res<Vec<_>>>()
            })
            .collect::<Res<Vec<_>>>()?;
        Ok(Fixture { buildings, reps })
    }
}

/// The attribution twin of one building.
struct Twin {
    service: StreamService,
    source: FlakySource,
    prediction: LivePrediction,
}

/// One building within a pass.
struct Lane {
    shard: BuildingShard,
    refit_dir: Option<PathBuf>,
    snapshots: Option<CheckpointStore>,
    next_seq: u64,
    twin: Option<Twin>,
}

/// What a run accumulates over its passes.
#[derive(Default)]
struct Acc {
    ops: u64,
    op_ns: u64,
    wall_ns: u64,
    sq_err: f64,
    scored: u64,
    snapshot_bytes: u64,
    snapshots: u64,
    readings: u64,
    polls: u64,
    online_step_ns: Vec<u64>,
    refit_ns: Vec<u64>,
    restore_mismatches: u64,
    twin_stats: Vec<ServiceStats>,
    twin_online: OnlineStats,
    store_entries: u64,
}

/// Online identification as the online path runs it. The estimator
/// must see one day of clean transitions before its first refit: at
/// the default 48 the first refits on these clean traces install
/// models that predict far outside the plausibility band (58–294 °C
/// and −11 °C on seeds 1–8) while the cluster reads Stable or
/// Recovered.
fn online_config(dir: PathBuf, seed: u64) -> OnlineConfig {
    OnlineConfig {
        seed,
        min_refit_observations: SLOTS_PER_DAY,
        ..OnlineConfig::new(dir)
    }
}

/// The bulkhead policy. With online identification the drift detector
/// flags clean traces as drifting, which the default error budget turns
/// into a quarantine (blackouts) of fault-free buildings within about
/// 60 slots; the online path therefore never spends its budget, so
/// every operation serves a live prediction that the output check can
/// judge.
fn policy(online: bool) -> ShardPolicy {
    let mut policy = fleet_shard_policy();
    if online {
        policy.error_budget = u32::MAX;
    }
    policy
}

/// A fresh service for `b`, online when `refit_dir` is given.
fn service(b: &Building, refit_dir: Option<&PathBuf>) -> Res<StreamService> {
    let mut service = b.service.clone();
    if let Some(dir) = refit_dir {
        service
            .enable_online(online_config(dir.clone(), b.spec.seed))
            .ctx("enable_online")?;
    }
    Ok(service)
}

fn lanes(fx: &Fixture, online: bool, twins: bool, stores: &StoreRoot, tag: &str) -> Res<Vec<Lane>> {
    let mut lanes = Vec::new();
    for (i, b) in fx.buildings.iter().enumerate() {
        let fresh = |kind: &str| stores.fresh(&format!("{tag}-b{i}-{kind}"));
        let online_dir = |kind: &str| {
            if online {
                fresh(kind).map(Some)
            } else {
                Ok(None)
            }
        };
        let refit_dir = online_dir("refit")?;
        let snapshots = match online_dir("snap")? {
            Some(dir) => {
                Some(CheckpointStore::open(dir, b.spec.seed, "perfbench").ctx("snapshot store")?)
            }
            None => None,
        };
        let twin = if twins {
            let service = service(b, online_dir("twin")?.as_ref())?;
            Some(Twin {
                prediction: service.predict(),
                service,
                source: b.source.clone(),
            })
        } else {
            None
        };
        lanes.push(Lane {
            shard: b.shard(service(b, refit_dir.as_ref())?, policy(online))?,
            refit_dir,
            snapshots,
            next_seq: 0,
            twin,
        });
    }
    Ok(lanes)
}

/// Seals the whole shard into a snapshot record and saves it, keeping
/// the newest [`KEEP_SNAPSHOTS`]; returns the sealed bytes.
fn snapshot(
    t: &mut Tracer,
    shard: &BuildingShard,
    store: &mut CheckpointStore,
    seq: u64,
    next_slot: usize,
) -> Res<Vec<u8>> {
    let bytes = t.call("ckpt.seal", || {
        let mut rec = Record::new(SNAP_TAG);
        rec.put_usize("next_slot", next_slot);
        put_nested(&mut rec, "shard", shard);
        seal(SNAP_TAG, SNAP_VERSION, &rec)
    });
    t.call("ckpt.save", || -> Result<(), CkptError> {
        store.put(&snapshot_name("serve", seq), &bytes)?;
        gc_snapshots(store, "serve", KEEP_SNAPSHOTS)?;
        Ok(())
    })
    .ctx("snapshot save")?;
    Ok(bytes)
}

/// After warm-up every cluster must be predicted, finite and inside
/// the plausibility band; predictions whose target lies on the grid are
/// scored against the representatives' simulated reading there.
fn check_prediction(
    fx: &Fixture,
    b: usize,
    slot: usize,
    p: &LivePrediction,
    acc: &mut Acc,
) -> Res<()> {
    if slot < fleet_shard_policy().warmup_slots {
        return Ok(());
    }
    if !p.warmed_up {
        return Err(format!("slot {slot}: prediction not warmed up"));
    }
    let band = ValidationConfig::default();
    let dataset = &fx.buildings[b].dataset;
    let grid = dataset.grid();
    let offset = p.target.as_minutes() - grid.start().as_minutes();
    let target = usize::try_from(offset / i64::from(grid.step_minutes())).ok();
    for c in &p.clusters {
        let v = c
            .predicted
            .ok_or_else(|| format!("slot {slot}: cluster {} unpredicted", c.cluster))?;
        if !(v.is_finite() && (band.min_value..=band.max_value).contains(&v)) {
            return Err(format!(
                "slot {slot}: cluster {} predicted {v} with health {:?}",
                c.cluster, c.health
            ));
        }
        let truth: Option<Vec<f64>> = target.and_then(|k| {
            fx.reps[b][c.cluster]
                .iter()
                .map(|&col| dataset.channels()[col].values().get(k).copied().flatten())
                .collect()
        });
        if let Some(truth) = truth.filter(|t| !t.is_empty()) {
            let mean = truth.iter().sum::<f64>() / truth.len() as f64;
            acc.sq_err += (v - mean) * (v - mean);
            acc.scored += 1;
        }
    }
    Ok(())
}

/// Advances a twin one slot through the stream layer's own calls.
fn twin_step(t: &mut Tracer, twin: &mut Twin, slot: usize, acc: &mut Acc) -> Res<()> {
    t.span("twin", |t| {
        let now = twin.source.replayer().slot_time(slot);
        let arrivals = t.call("stream.poll", || twin.source.poll(slot));
        acc.readings += arrivals.len() as u64;
        acc.polls += 1;
        let refits = |s: &StreamService| s.online_stats().map(|o| o.refit_attempts);
        let before = refits(&twin.service);
        let (stepped, ns) = t.timed_call("stream.step", || twin.service.step(now, &arrivals));
        stepped.ctx("twin step")?;
        match (before, refits(&twin.service)) {
            (Some(b), Some(a)) if a > b => acc.refit_ns.push(ns),
            (Some(_), _) => acc.online_step_ns.push(ns),
            _ => {}
        }
        t.call("stream.predict", || {
            twin.service.predict_into(&mut twin.prediction)
        });
        Ok(())
    })
}

/// Restores a snapshot into a fresh shard and checks that it captures
/// the same state as the shard it was taken from.
fn restore_check(
    t: &mut Tracer,
    b: &Building,
    lane: &Lane,
    bytes: &[u8],
    acc: &mut Acc,
) -> Res<()> {
    let mut fresh = b.shard(
        service(b, lane.refit_dir.as_ref())?,
        policy(lane.refit_dir.is_some()),
    )?;
    t.span("restore", |t| {
        t.call("ckpt.restore", || {
            unseal(bytes, SNAP_TAG, SNAP_VERSION)
                .and_then(|rec| get_nested(&rec, "shard", &mut fresh))
        })
    })
    .ctx("snapshot restore")?;
    if snapshot_bytes(&fresh) != snapshot_bytes(&lane.shard) {
        acc.restore_mismatches += 1;
    }
    Ok(())
}

/// Replays every building once through fresh shards; returns each
/// building's final counters, rendered for exact comparison.
#[allow(clippy::too_many_arguments)]
fn pass(
    fx: &Fixture,
    online: bool,
    t: &mut Tracer,
    stores: &StoreRoot,
    tag: &str,
    ops: &mut Best,
    acc: &mut Acc,
    report: &mut Report,
) -> Res<Vec<String>> {
    let mut lanes = lanes(fx, online, t.enabled(), stores, tag)?;
    let slots = lanes.first().map_or(0, |l| l.shard.slots());
    let width = lanes.len();
    let started = Instant::now();
    for slot in 0..slots {
        for (b, lane) in lanes.iter_mut().enumerate() {
            let snap_due = (slot + 1) % SNAPSHOT_EVERY == 0 && slot + 1 < slots;
            let start = Instant::now();
            let served = t.span("op", |t| -> Res<_> {
                t.call("fleet.step_slot", || lane.shard.step_slot(slot))
                    .ctx("step_slot")?;
                let served = t.call("fleet.serve", || lane.shard.serve());
                let sealed = match (&mut lane.snapshots, snap_due) {
                    (Some(store), true) => {
                        let bytes = snapshot(t, &lane.shard, store, lane.next_seq, slot + 1)?;
                        lane.next_seq += 1;
                        Some(bytes)
                    }
                    _ => None,
                };
                Ok((served, sealed))
            });
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ops.record(slot * width + b, ns);
            acc.op_ns += ns;
            acc.ops += 1;
            report.attempted += 1;
            let checked = served.and_then(|(served, sealed)| -> Res<()> {
                check_prediction(fx, b, slot, &served, acc)?;
                if let Some(bytes) = sealed {
                    acc.snapshot_bytes += bytes.len() as u64;
                    acc.snapshots += 1;
                    if t.enabled() {
                        restore_check(t, &fx.buildings[b], lane, &bytes, acc)?;
                    }
                }
                Ok(())
            });
            if let Err(e) = checked {
                report.fail(format!("building {b}: {e}"));
            }
            if let Some(twin) = &mut lane.twin {
                twin_step(t, twin, slot, acc)?;
            }
        }
    }
    acc.wall_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut finals = Vec::with_capacity(lanes.len());
    for lane in &lanes {
        let stats = lane.shard.service_stats();
        finals.push(format!(
            "{stats:?} {:?} {:?} {}",
            lane.shard.source_stats(),
            lane.shard.counters(),
            lane.shard.phase().label()
        ));
        if let Some(twin) = &lane.twin {
            acc.twin_stats.push(twin.service.stats());
            if twin.service.stats() != stats {
                report.check(
                    "twin_matches_shard",
                    false,
                    "twin ServiceStats differ from the shard's",
                );
            }
            if let Some(o) = twin.service.online_stats() {
                let sum = &mut acc.twin_online;
                sum.refit_attempts += o.refit_attempts;
                sum.refits_completed += o.refits_completed;
                sum.refits_quarantined += o.refits_quarantined;
                sum.rows_ingested += o.rows_ingested;
            }
            acc.store_entries += lane
                .snapshots
                .as_ref()
                .map_or(0, |s| s.names().len() as u64)
                + lane.refit_dir.as_deref().map_or(0, store_entries);
        }
    }
    drop(lanes);
    for i in 0..fx.buildings.len() {
        for kind in ["refit", "snap", "twin"] {
            let name = format!("{tag}-b{i}-{kind}");
            if stores.path().join(&name).exists() {
                stores.remove(&name)?;
            }
        }
    }
    Ok(finals)
}

/// Runs `serve`: the timed run replays the read path; the traced run
/// also replays it once with online identification and snapshots.
pub fn run(args: &Args, stores: &StoreRoot, report: &mut Report) -> Res<()> {
    let fx = report.setup(|| Fixture::new(args.seed))?;
    let slots = fx.buildings.first().map_or(0, |b| b.source.slots());
    let mut ops = Best::new(slots * fx.buildings.len());
    let mut acc = Acc::default();
    if args.trace {
        traced(&fx, stores, &mut ops, &mut acc, report)?;
    } else {
        // The pass is the window: its best time is one round's time.
        let mut passes = Best::new(1);
        let mut t = Tracer::new(false);
        let mut first: Option<Vec<String>> = None;
        let mut repeat_ok = true;
        while (acc.wall_ns as f64) < args.seconds * 1e9 || ops.rounds() < 2 {
            let tag = format!("p{}", ops.rounds());
            let before = acc.wall_ns;
            let finals = pass(&fx, false, &mut t, stores, &tag, &mut ops, &mut acc, report)?;
            passes.record(0, acc.wall_ns - before);
            ops.end_round();
            passes.end_round();
            match &first {
                None => first = Some(finals),
                Some(f) => repeat_ok &= *f == finals,
            }
        }
        report.check(
            "pass_repeat",
            repeat_ok,
            format!("final counters of all {} passes identical", ops.rounds()),
        );
        report.best_of(&ops, &passes);
    }
    let rmse = (acc.sq_err / acc.scored.max(1) as f64).sqrt();
    report.check(
        "one_step_rmse",
        acc.scored > 0 && rmse <= RMSE_BOUND,
        format!(
            "one-step RMSE {rmse:.4} C over {} scored cluster predictions (bound {RMSE_BOUND} C)",
            acc.scored
        ),
    );
    Ok(())
}

/// One untraced pass, then one traced pass with twins, of the read
/// path or (`online`) the online path; both must end in identical
/// counters. Returns the traced pass's spans and the untraced pass's
/// operation time.
fn twice(
    fx: &Fixture,
    online: bool,
    stores: &StoreRoot,
    ops: &mut Best,
    acc: &mut Acc,
    report: &mut Report,
) -> Res<(TraceAgg, u64)> {
    let path = if online { "online" } else { "read" };
    let mut plain_acc = Acc::default();
    let mut plain_tracer = Tracer::new(false);
    let tag = format!("{path}-plain");
    let plain = pass(
        fx,
        online,
        &mut plain_tracer,
        stores,
        &tag,
        ops,
        &mut plain_acc,
        report,
    )?;
    let mut t = Tracer::new(true);
    let tag = format!("{path}-traced");
    let spanned = pass(fx, online, &mut t, stores, &tag, ops, acc, report)?;
    report.check(
        &format!("{path}_repeat"),
        plain == spanned,
        format!("{path}-path final counters identical untraced and traced"),
    );
    Ok((t.agg, plain_acc.op_ns))
}

/// Sums the twins' final service counters.
fn twin_counters(report: &mut Report, acc: &Acc) {
    let mut sum = ServiceStats::default();
    let mut dropped = 0;
    for s in &acc.twin_stats {
        sum.applied += s.applied;
        sum.queue.high_water = sum.queue.high_water.max(s.queue.high_water);
        dropped += s.queue.dropped();
        sum.reorder.duplicates += s.reorder.duplicates;
        sum.reorder.too_late += s.reorder.too_late;
        sum.backup_outputs += s.backup_outputs;
        sum.unavailable_outputs += s.unavailable_outputs;
    }
    report.set("stream.applied", sum.applied as f64);
    report.set("stream.queue_high_water", sum.queue.high_water as f64);
    report.set("stream.queue_dropped", dropped as f64);
    report.set("stream.reorder_duplicates", sum.reorder.duplicates as f64);
    report.set("stream.reorder_too_late", sum.reorder.too_late as f64);
    report.set("stream.backup_outputs", sum.backup_outputs as f64);
    report.set("stream.unavailable_outputs", sum.unavailable_outputs as f64);
}

/// The median, over operations, of the shard's `step_slot` + `serve`
/// minus its twin's poll + step + predict. Each slot of each building
/// records exactly one span of each name, in the same order, so index
/// `i` pairs a shard operation with its twin.
fn bulkhead_ns(agg: &TraceAgg) -> (i128, u64) {
    let sum_at = |names: &[&str], i: usize| -> i128 {
        names
            .iter()
            .map(|n| i128::from(agg.samples(n).get(i).copied().unwrap_or(0)))
            .sum()
    };
    let mut paired: Vec<i128> = (0..agg.samples("fleet.step_slot").len())
        .map(|i| {
            sum_at(&["fleet.step_slot", "fleet.serve"], i)
                - sum_at(&["stream.poll", "stream.step", "stream.predict"], i)
        })
        .collect();
    paired.sort_unstable();
    let median = paired.get(paired.len() / 2).copied().unwrap_or(0);
    (median, paired.len() as u64)
}

/// The traced run: the read path twice, then the online path twice.
fn traced(
    fx: &Fixture,
    stores: &StoreRoot,
    ops: &mut Best,
    acc: &mut Acc,
    report: &mut Report,
) -> Res<()> {
    let (read, plain_ns) = twice(fx, false, stores, ops, acc, report)?;
    let mut online_acc = Acc::default();
    let (online, _) = twice(fx, true, stores, ops, &mut online_acc, report)?;
    report.check(
        "snapshot_restore",
        online_acc.restore_mismatches == 0 && online_acc.snapshots > 0,
        format!(
            "{} of {} restored snapshots re-capture identically",
            online_acc.snapshots - online_acc.restore_mismatches,
            online_acc.snapshots
        ),
    );
    report.overhead(acc.op_ns, plain_ns);
    let mut all = read.clone();
    all.merge(online.clone());
    report.coverage(&all);

    report.set("stream.poll_us", read.mean_ns("stream.poll") / 1e3);
    let mut steps = read.samples("stream.step").to_vec();
    let n = steps.len() as u64;
    report.set_n(
        "stream.step_us_p50",
        percentile(&mut steps, 50.0) as f64 / 1e3,
        n,
    );
    report.set_n(
        "stream.step_us_p99",
        percentile(&mut steps, 99.0) as f64 / 1e3,
        n,
    );
    report.set("stream.predict_ns", read.mean_ns("stream.predict"));
    report.set(
        "stream.readings_per_slot",
        acc.readings as f64 / acc.polls.max(1) as f64,
    );
    twin_counters(report, acc);
    let (bulkhead, n) = bulkhead_ns(&read);
    report.set_n("fleet.bulkhead_us", bulkhead as f64 / 1e3, n);

    let mean_us = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e3;
    report.set_n(
        "stream.online_step_us",
        mean_us(&online_acc.online_step_ns),
        online_acc.online_step_ns.len() as u64,
    );
    let refits = &online_acc.refit_ns;
    let quarter = refits.len() / 4;
    let median_us = |v: &[u64]| percentile(&mut v.to_vec(), 50.0) as f64 / 1e3;
    report.set_n(
        "stream.refit_us_p50",
        median_us(refits),
        refits.len() as u64,
    );
    report.set_n(
        "stream.refit_us_q1",
        median_us(&refits[..quarter]),
        quarter as u64,
    );
    report.set_n(
        "stream.refit_us_q4",
        median_us(&refits[refits.len() - quarter..]),
        quarter as u64,
    );
    let o = online_acc.twin_online;
    report.set(
        "stream.refits_per_kslot",
        o.refit_attempts as f64 * 1e3 / online_acc.ops.max(1) as f64,
    );
    report.set("stream.refits_completed", o.refits_completed as f64);
    report.set("stream.refits_quarantined", o.refits_quarantined as f64);
    report.set("stream.rows_ingested", o.rows_ingested as f64);
    report.set("ckpt.store_entries", online_acc.store_entries as f64);
    report.set(
        "ckpt.snapshot_bytes",
        online_acc.snapshot_bytes as f64 / online_acc.snapshots.max(1) as f64,
    );
    report.set("ckpt.snapshot_seal_us", online.mean_ns("ckpt.seal") / 1e3);
    report.set("ckpt.snapshot_save_us", online.mean_ns("ckpt.save") / 1e3);
    report.set(
        "ckpt.snapshot_restore_us",
        online.mean_ns("ckpt.restore") / 1e3,
    );
    acc.sq_err += online_acc.sq_err;
    acc.scored += online_acc.scored;
    Ok(())
}
