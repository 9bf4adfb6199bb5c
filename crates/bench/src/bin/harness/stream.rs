//! `harness stream` — the corrupted-stream soak scenario.
//!
//! One complete deployment rehearsal per corruption intensity: fit a
//! reduced model on a synthetic multi-day campaign, serialize the
//! telemetry to CSV, corrupt the CSV text with
//! [`thermal_faults::ingest::corrupt_csv`], parse it back through the
//! row-tolerant ingest boundary, jumble it into an out-of-order /
//! duplicated / flaky live stream, and replay the whole trace through
//! [`thermal_stream::StreamService`] — asserting on every slot that
//! the service stays panic-free, keeps its buffered depth under the
//! configured bound, and serves a prediction for every cluster.
//!
//! The final state (health machines, runtime counters, per-cluster
//! predictions) is written to `<dir>/report.json` as canonical
//! byte-stable JSON ([`thermal_stream::SoakReport`]) via the
//! atomic-write path, so the `cargo xtask soak stream` runner can
//! require bitwise-identical reports across repeated runs and
//! `THERMAL_THREADS` settings.
//!
//! Flags: `--seed N` (default 42), `--days N` (default 3),
//! `--intensities a,b,c` (milli-units, default `0,50,150,400`; `50`
//! corrupts each CSV data line with probability 0.05) and
//! `--snap-every SLOTS`.
//!
//! With `--snap-every` the run is **crash-safe**: the live service and
//! source state are snapshotted into a [`thermal_ckpt`] store at
//! `<dir>/store` every that many slots, each completed intensity's
//! report is snapshotted whole, and a re-launch after a mid-run kill
//! restores the newest good snapshot and continues — producing a
//! report byte-identical to an uninterrupted run (the
//! restore-equivalence contract `cargo xtask soak stream --kill`
//! enforces at every kill point).

use std::path::PathBuf;

use thermal_bench::campaign::{fit_model, synth_dataset, SLOTS_PER_DAY};
use thermal_ckpt::codec::Record;
use thermal_ckpt::snapshot::{
    gc_snapshots, get_nested, latest_record_snapshot, put_nested, restore_from,
    save_record_snapshot, save_snapshot, snapshot_name,
};
use thermal_ckpt::CheckpointStore;
use thermal_core::ReducedModel;
use thermal_stream::{
    parse_csv_events, BackoffPolicy, FlakySource, ReplayConfig, SoakIntensityReport,
    SoakPrediction, SoakReport, StreamConfig, StreamService, TraceReplayer,
};
use thermal_timeseries::{csv, Dataset};

use crate::Options;

/// Default corruption intensities, milli-units.
const DEFAULT_INTENSITIES: &[u32] = &[0, 50, 150, 400];

/// Base per-poll failure probability of the flaky source; corruption
/// intensity adds to it so higher intensities also stress the
/// backoff/breaker supervision.
const FAIL_PROB: f64 = 0.1;

/// First slot of the scripted representative outage (drives the Live
/// → Suspect → Dead → Recovered arc and the backup rung of the
/// ladder).
const OUTAGE_START: usize = SLOTS_PER_DAY / 4;

/// Outage length in slots: five hours of silence, far past the
/// dead-after threshold.
const OUTAGE_LEN: usize = 60;

/// Progress snapshots kept per namespace — enough to survive a torn
/// newest snapshot and still fall back to an older good one.
const KEEP_SNAPSHOTS: usize = 3;

/// Envelope tag of the mid-intensity progress record.
const PROGRESS_TAG: &str = "soak-progress";

/// Envelope version of the progress record.
const PROGRESS_VERSION: u32 = 1;

/// Crash-safety state of one soak run: the snapshot store, the
/// snapshot cadence, the next progress sequence number, and the
/// mid-intensity progress record recovered at startup (consumed by
/// the intensity it belongs to).
struct SoakCkpt {
    store: CheckpointStore,
    snap_every: usize,
    next_seq: u64,
    resume: Option<Record>,
}

impl SoakCkpt {
    fn open(dir: PathBuf, seed: u64, snap_every: usize) -> Result<Self, String> {
        let mut store = CheckpointStore::open(dir, seed, "soak-v1").map_err(|e| e.to_string())?;
        let recovered =
            latest_record_snapshot(&mut store, "progress", PROGRESS_TAG, PROGRESS_VERSION)
                .map_err(|e| e.to_string())?;
        let (next_seq, resume) = match recovered {
            Some((seq, rec)) => (seq + 1, Some(rec)),
            None => (0, None),
        };
        Ok(SoakCkpt {
            store,
            snap_every,
            next_seq,
            resume,
        })
    }

    /// A completed intensity's report, when a good snapshot of it
    /// exists; a corrupt one is quarantined and recomputed.
    fn load_intensity(&mut self, index: usize) -> Option<SoakIntensityReport> {
        let name = snapshot_name("intensity", index as u64);
        let bytes = self.store.get(&name).ok()??;
        let mut report = SoakIntensityReport::default();
        match restore_from(&mut report, &bytes) {
            Ok(()) => Some(report),
            Err(err) => {
                let _ = self
                    .store
                    .quarantine(&name, &format!("snapshot rejected: {err}"));
                None
            }
        }
    }

    /// The recovered progress record, if it belongs to intensity
    /// `index` (consumed on first use).
    fn take_progress(&mut self, index: usize) -> Option<Record> {
        let belongs = self
            .resume
            .as_ref()
            .and_then(|rec| rec.get_usize("intensity_index").ok())
            == Some(index);
        if belongs {
            self.resume.take()
        } else {
            None
        }
    }

    /// Saves a mid-intensity progress snapshot and prunes old ones.
    fn save_progress(&mut self, rec: &Record) -> Result<(), String> {
        save_record_snapshot(
            &mut self.store,
            "progress",
            self.next_seq,
            PROGRESS_VERSION,
            rec,
        )
        .map_err(|e| e.to_string())?;
        self.next_seq += 1;
        gc_snapshots(&mut self.store, "progress", KEEP_SNAPSHOTS).map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Saves a completed intensity's report snapshot.
    fn save_intensity(&mut self, index: usize, report: &SoakIntensityReport) -> Result<(), String> {
        save_snapshot(&mut self.store, "intensity", index as u64, report).map_err(|e| e.to_string())
    }
}

/// Runs the scenario: `<dir>/report.json`, and `<dir>/store` with
/// `--snap-every`.
pub fn run(options: &Options) -> Result<(), String> {
    let dir = &options.dir;
    let days = options.days.unwrap_or(3);
    let seed = options.seed.unwrap_or(42);
    let intensities = options
        .intensities
        .as_deref()
        .unwrap_or(DEFAULT_INTENSITIES);

    // Fit on the clean history, then let the *deployed*
    // representative of the first cluster suffer the outage — exactly
    // the failure the backup ranking exists for.
    let dataset = synth_dataset(days)?;
    let model = fit_model(&dataset, seed)?;
    let rep = model
        .selected_channels()
        .first()
        .cloned()
        .ok_or_else(|| "model selected no representatives".to_owned())?;
    let deployed = dataset.with_outage(&rep, OUTAGE_START..OUTAGE_START + OUTAGE_LEN);
    let slots = deployed.grid().len();
    println!("stream: slots = {slots}");
    println!("stream: outage channel = {rep}");
    let csv_text = csv::to_csv_string(&deployed).map_err(|e| e.to_string())?;

    let mut ckpt = options
        .snap_every
        .map(|snap_every| SoakCkpt::open(dir.join("store"), seed, snap_every))
        .transpose()?;
    let mut reports = Vec::new();
    for (index, &millis) in intensities.iter().enumerate() {
        let report = match ckpt.as_mut().and_then(|ck| ck.load_intensity(index)) {
            Some(restored) => restored,
            None => {
                let report = soak_intensity(
                    &deployed,
                    &model,
                    &csv_text,
                    seed,
                    index,
                    millis,
                    ckpt.as_mut(),
                )?;
                if let Some(ck) = ckpt.as_mut() {
                    ck.save_intensity(index, &report)?;
                }
                report
            }
        };
        println!(
            "stream: intensity {millis} corrupted={} parsed={} applied={} trips={} depth={}/{}",
            report.corrupted_lines,
            report.ingest.parsed,
            report.service.applied,
            report.source.breaker_trips,
            report.max_buffered_depth,
            report.depth_bound,
        );
        reports.push(report);
    }

    let report = SoakReport {
        seed,
        days,
        slots,
        intensities: reports,
    };
    thermal_ckpt::write_atomic(&dir.join("report.json"), report.to_json().as_bytes())
        .map_err(|e| e.to_string())
}

/// Replays the whole trace once at one corruption intensity,
/// asserting the runtime invariants on every slot.
///
/// With a checkpoint context the service/source state is snapshotted
/// every `snap_every` slot boundaries, and a progress record
/// recovered from a previous (killed) run of this same intensity
/// fast-forwards the replay to where it left off.
fn soak_intensity(
    dataset: &Dataset,
    model: &ReducedModel,
    csv_text: &str,
    seed: u64,
    index: usize,
    millis: u32,
    mut ckpt: Option<&mut SoakCkpt>,
) -> Result<SoakIntensityReport, String> {
    let intensity = f64::from(millis) / 1000.0;
    let stream_seed = thermal_par::derive_seed(seed, index as u64);
    let (corrupted, corruption_log) =
        thermal_faults::ingest::corrupt_csv(csv_text, stream_seed, intensity);

    // A lateness budget generous enough for the replay jumble's
    // 4-slot delays (20 minutes at the 5-minute step): delays should
    // exercise the reorder path, not silently fall off the watermark.
    // Readings reach the health machines only once the watermark
    // passes, so the silence thresholds must sit above the lateness
    // budget or every sensor would flap Suspect by construction.
    let mut config = StreamConfig::default();
    config.reorder.allowed_lateness = 30;
    config.reorder.capacity = 64;
    config.health.suspect_after = 60;
    config.health.dead_after = 180;
    let depth_bound = config.queue_capacity;
    let mut service = StreamService::new(model.clone(), config, dataset.grid().start())
        .map_err(|e| e.to_string())?;

    // Map CSV columns (dataset channel order) onto the service
    // registry; a column the registry does not know is ignored.
    let mapping: Vec<Option<usize>> = dataset
        .channels()
        .iter()
        .map(|ch| service.channel_index(ch.name()).ok())
        .collect();
    let (batches, ingest) = parse_csv_events(&corrupted, &mapping).map_err(|e| e.to_string())?;

    let replay = ReplayConfig {
        seed: thermal_par::derive_seed(stream_seed, 1),
        ..ReplayConfig::default()
    };
    let replayer =
        TraceReplayer::new(*dataset.grid(), &batches, &replay).map_err(|e| e.to_string())?;
    let mut source = FlakySource::new(
        replayer,
        (FAIL_PROB + intensity / 2.0).min(0.9),
        thermal_par::derive_seed(stream_seed, 2),
        BackoffPolicy::default(),
        thermal_ckpt::BreakerPolicy::default(),
    )
    .map_err(|e| e.to_string())?;

    let clusters = model.clustering().k();
    let mut max_depth = 0_usize;
    let mut start_slot = 0_usize;
    if let Some(rec) = ckpt.as_mut().and_then(|ck| ck.take_progress(index)) {
        get_nested(&rec, "service", &mut service)
            .and_then(|()| get_nested(&rec, "source", &mut source))
            .map_err(|e| format!("intensity {millis}: progress restore: {e}"))?;
        start_slot = rec
            .get_usize("next_slot")
            .map_err(|e| e.to_string())?
            .min(source.slots());
        max_depth = rec.get_usize("max_depth").map_err(|e| e.to_string())?;
    }
    for slot in start_slot..source.slots() {
        let now = source.replayer().slot_time(slot);
        let arrivals = source.poll(slot);
        service
            .step(now, &arrivals)
            .map_err(|e| format!("intensity {millis}, slot {slot}: step failed: {e}"))?;
        let depth = service.buffered_depth();
        max_depth = max_depth.max(depth);
        if depth > depth_bound {
            return Err(format!(
                "intensity {millis}, slot {slot}: buffered depth {depth} exceeds bound {depth_bound}"
            ));
        }
        // The liveness contract: a prediction for every cluster, every
        // slot, no matter what the stream looks like.
        let prediction = service.predict();
        if prediction.clusters.len() != clusters {
            return Err(format!(
                "intensity {millis}, slot {slot}: prediction covers {} of {clusters} clusters",
                prediction.clusters.len()
            ));
        }
        // Snapshot at the slot boundary: everything up to and
        // including `slot` is folded in, the next run resumes at
        // `slot + 1`.
        if let Some(ck) = ckpt.as_mut() {
            let done = slot + 1;
            if done % ck.snap_every == 0 && done < source.slots() {
                let mut rec = Record::new(PROGRESS_TAG);
                rec.put_usize("intensity_index", index)
                    .put_usize("next_slot", done)
                    .put_usize("max_depth", max_depth);
                put_nested(&mut rec, "service", &service);
                put_nested(&mut rec, "source", &source);
                ck.save_progress(&rec)?;
            }
        }
    }

    Ok(SoakIntensityReport {
        intensity_millis: millis,
        corrupted_lines: corruption_log.len() as u64,
        ingest,
        source: source.stats(),
        service: service.stats(),
        max_buffered_depth: max_depth,
        depth_bound,
        health: service.sensor_health(),
        predictions: SoakPrediction::from_live(&service.predict()),
    })
}
