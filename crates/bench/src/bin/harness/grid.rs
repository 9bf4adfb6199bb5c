//! `harness grid` — the checkpointed-campaign kill-point scenario.
//!
//! A deliberately small but *complete* checkpointed campaign: fit a
//! reduced model on a five-sensor dataset with
//! [`ThermalPipeline::fit_checkpointed`], run a fault-injection ×
//! validation grid of supervised cells with [`thermal_ckpt::run_cell`],
//! and commit a final `grid.csv` artifact — every byte on disk going
//! through the atomic-write path, into the store at `<dir>`.
//! `cargo xtask soak grid --kill` runs it once cleanly to count durable
//! writes, then re-runs it with `THERMAL_KILL_AT=k` for each k
//! (crashing with exit code 86 at the k-th write), resumes, and
//! asserts the final store is byte-identical to the uninterrupted run.
//!
//! Flags: `--seed N` (default 42).

use std::path::Path;

use thermal_bench::{BenchError, Result};
use thermal_ckpt::codec::Record;
use thermal_ckpt::{fnv1a64, run_cell, CellOutcome, CellPolicy, CheckpointStore};
use thermal_core::{dataset_fingerprint, ClusterCount, ModelOrder, SelectorKind, ThermalPipeline};
use thermal_faults::{FaultDirective, FaultKind, FaultPlan};
use thermal_timeseries::validate::{validate_channel, ValidationConfig};
use thermal_timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};

use crate::Options;

/// Fault classes × intensities making up the grid.
const CLASSES: &[&str] = &["spike", "garbage", "stuck"];
const INTENSITIES: &[f64] = &[0.0, 1.0];
const CELL_TAG: &str = "chaos-cell-v1";

/// Runs the scenario on the store at `<dir>`.
pub fn run(options: &Options) -> std::result::Result<(), String> {
    grid(&options.dir, options.seed.unwrap_or(42)).map_err(|e| e.to_string())
}

/// The synthetic campaign: five sensors in two thermal families
/// driven by one input, 240 five-minute samples. Pure arithmetic —
/// bit-identical on every run.
fn five_sensor_dataset() -> Result<Dataset> {
    let n = 240;
    let u: Vec<f64> = (0..n)
        .map(|k| 0.5 + 0.5 * (k as f64 * 0.13).sin())
        .collect();
    let mut channels = vec![Channel::from_values("u", u.clone())?];
    for (i, (gain, base)) in [
        (1.0_f64, 20.0_f64),
        (0.9, 20.1),
        (1.1, 19.9),
        (-1.0, 22.0),
        (-0.9, 22.1),
    ]
    .into_iter()
    .enumerate()
    {
        let mut t = vec![base];
        for k in 0..n - 1 {
            let wiggle = 0.01 * (((k * 31 + i * 7) % 17) as f64 / 17.0);
            t.push(0.9 * t[k] + 0.1 * base + gain * u[k] * 0.2 + wiggle);
        }
        channels.push(Channel::from_values(format!("s{i}"), t)?);
    }
    let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n)?;
    Ok(Dataset::new(grid, channels)?)
}

fn grid(dir: &Path, seed: u64) -> Result<()> {
    let dataset = five_sensor_dataset()?;
    let sensors = ["s0", "s1", "s2", "s3", "s4"];
    let mask = Mask::all(dataset.grid());
    let mut store = CheckpointStore::open(dir, seed, "chaos")?;
    let report = store.open_report();
    if !report.fresh {
        eprintln!(
            "grid: resuming (restored={} quarantined={:?} missing={:?} temps-swept={})",
            report.restored, report.quarantined, report.missing, report.swept_temps
        );
    }

    // Phase 1: checkpointed three-stage fit.
    let pipeline = ThermalPipeline::builder()
        .cluster_count(ClusterCount::Fixed(2))
        .model_order(ModelOrder::First)
        .selector(SelectorKind::NearMean)
        .seed(seed)
        .build()?;
    let (reduced, resume) =
        pipeline.fit_checkpointed(&dataset, &sensors, &["u"], &mask, &mut store, "fit")?;
    eprintln!(
        "grid: fit restored={:?} computed={:?}",
        resume.restored, resume.computed
    );

    // Phase 2: supervised fault × validation grid.
    let fp = {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(
            &dataset_fingerprint(&dataset, &sensors, &["u"], &mask).to_le_bytes(),
        );
        bytes.extend_from_slice(format!("{reduced:?}").as_bytes());
        bytes.extend_from_slice(&seed.to_le_bytes());
        fnv1a64(&bytes)
    };
    let policy = CellPolicy {
        max_attempts: 2,
        backoff_base_ms: 0,
        breaker_threshold: 6,
    };
    let mut rows = Vec::new();
    for &class in CLASSES {
        for (idx, &intensity) in INTENSITIES.iter().enumerate() {
            let name = format!("cell-{class}-{idx}.ck");
            let outcome = run_cell(&mut store, &name, &policy, || {
                eval_cell(&dataset, seed, class, intensity, fp).map_err(|e| e.to_string())
            })?;
            match outcome {
                CellOutcome::Restored(bytes) | CellOutcome::Computed(bytes) => {
                    rows.push(decode_row(&bytes, fp)?);
                }
                CellOutcome::Quarantined { reason, .. } => {
                    return Err(BenchError::Ckpt {
                        detail: format!("cell {name} quarantined unexpectedly: {reason}"),
                    });
                }
            }
        }
    }

    // Phase 3: the final artifact, also written atomically + hashed.
    let mut csv = String::from("class,intensity_bits,injected,quarantined,checksum\n");
    for row in &rows {
        csv.push_str(row);
        csv.push('\n');
    }
    store.put("grid.csv", csv.as_bytes())?;
    Ok(())
}

/// Evaluates one grid cell: inject the fault class at `intensity`
/// into every sensor channel, run the validation/quarantine layer,
/// and record the ground-truth injection count, quarantined-sample
/// count, and a bit-exact checksum of the cleaned telemetry.
fn eval_cell(
    dataset: &Dataset,
    seed: u64,
    class: &str,
    intensity: f64,
    fingerprint: u64,
) -> std::result::Result<Vec<u8>, String> {
    let kind =
        FaultKind::default_params(class).ok_or_else(|| format!("unknown fault class {class:?}"))?;
    let sensor_names: Vec<String> = (0..5).map(|i| format!("s{i}")).collect();
    let plan = FaultPlan::new(seed).with(FaultDirective::channels(
        kind,
        sensor_names.clone(),
        intensity,
    ));
    let (faulted, log) = plan.apply(dataset).map_err(|e| e.to_string())?;
    let config = ValidationConfig::default();
    let mut quarantined = 0usize;
    let mut checksum = 0u64;
    for name in &sensor_names {
        let ch = faulted
            .channel(name)
            .ok_or_else(|| format!("channel {name} vanished"))?;
        let (cleaned, quality) = validate_channel(ch, &config).map_err(|e| e.to_string())?;
        quarantined += quality.quarantined();
        let mut bits = Vec::with_capacity(cleaned.len() * 9);
        for v in cleaned.iter_slots() {
            match v {
                Some(x) => {
                    bits.push(1u8);
                    bits.extend_from_slice(&x.to_bits().to_le_bytes());
                }
                None => bits.push(0u8),
            }
        }
        checksum ^= fnv1a64(&bits);
    }
    let mut r = Record::new(CELL_TAG);
    r.put_u64("fp", fingerprint)
        .put("class", class)
        .put_f64("intensity", intensity)
        .put_usize("injected", log.events().len())
        .put_usize("quarantined", quarantined)
        .put_u64("checksum", checksum);
    Ok(r.encode())
}

/// Turns a verified cell payload into one CSV row.
fn decode_row(bytes: &[u8], fingerprint: u64) -> Result<String> {
    let err = || BenchError::Protocol {
        context: "chaos cell payload malformed",
    };
    let r = Record::decode(bytes, CELL_TAG).map_err(|_| err())?;
    if r.get_u64("fp").map_err(|_| err())? != fingerprint {
        return Err(BenchError::Protocol {
            context: "chaos cell fingerprint mismatch",
        });
    }
    Ok(format!(
        "{},{:016x},{},{},{:016x}",
        r.get("class").map_err(|_| err())?,
        r.get_f64("intensity").map_err(|_| err())?.to_bits(),
        r.get_usize("injected").map_err(|_| err())?,
        r.get_usize("quarantined").map_err(|_| err())?,
        r.get_u64("checksum").map_err(|_| err())?,
    ))
}
