//! `fault_matrix` — robustness sweep over fault class × intensity.
//!
//! The testbed lost a third of its campaign to sensor and server
//! faults; this experiment measures how gracefully the full stack
//! (fault injection → validation/quarantine → degradation-aware
//! reduced-model evaluation) absorbs each fault class as its
//! intensity grows:
//!
//! 1. fit the reduced model once on the *clean* training half,
//! 2. for every `(class, intensity)` cell, inject that fault class
//!    into the temperature channels with [`thermal_faults::FaultPlan`],
//! 3. pass the corrupted telemetry through the
//!    [`thermal_timeseries::validate`] quarantine layer,
//! 4. evaluate the clean-fitted model on the damaged validation data
//!    with [`ReducedModel::evaluate_degraded`] — backups stand in for
//!    dead representatives, and total blackout yields a structured
//!    outcome instead of an error,
//! 5. report the RMSE-degradation curve of each class against the
//!    zero-intensity baseline.
//!
//! Zero intensity is an exact no-op in the injector, so every class's
//! first cell reproduces the clean-baseline RMSE bit-for-bit — the
//! anchor that makes the curves comparable.

use thermal_ckpt::codec::Record;
use thermal_ckpt::{run_cell, CellOutcome, CellPolicy, CheckpointStore, Fnv64};
use thermal_cluster::ClusterCount;
use thermal_core::{
    dataset_fingerprint, DegradationPolicy, ModelOrder, ReducedModel, SelectorKind, ThermalPipeline,
};
use thermal_faults::{FaultDirective, FaultKind, FaultPlan};
use thermal_timeseries::validate::{validate_channel, ValidationConfig};
use thermal_timeseries::{Channel, Dataset, Mask};

use crate::error::{BenchError, Result};
use crate::protocol::{occupied_horizon, Protocol};
use crate::render;

/// Every fault class the injector knows, in reporting order.
pub const FAULT_CLASSES: &[&str] = &[
    "stuck",
    "drift",
    "spike",
    "garbage",
    "skew",
    "death",
    "outage",
    "regime_shift",
];

/// Default intensity sweep (0 anchors the clean baseline).
pub const DEFAULT_INTENSITIES: &[f64] = &[0.0, 0.25, 0.5, 1.0];

/// Seed of the fault streams (independent of the campaign seed so the
/// same campaign can be swept under different fault realisations).
const FAULT_SEED: u64 = 0xFA17_2026;

/// One cell of the fault matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMatrixCell {
    /// Fault class name (see [`FAULT_CLASSES`]).
    pub class: &'static str,
    /// Injection intensity in `[0, 1]`.
    pub intensity: f64,
    /// Fault events the injector logged (ground truth).
    pub injected: usize,
    /// Samples the validation layer quarantined.
    pub quarantined: usize,
    /// Representatives that needed a fallback during evaluation.
    pub degraded_reps: usize,
    /// Pooled cluster-mean RMSE on the *raw* faulted telemetry
    /// (quarantine bypassed), °C — the degradation curve. `None`
    /// under total blackout (the pipeline still completed, with a
    /// degradation report).
    pub rmse_raw: Option<f64>,
    /// The same after the validation/quarantine layer — the
    /// mitigation curve.
    pub rmse_validated: Option<f64>,
}

/// The pipeline configuration the sweep evaluates.
fn sweep_pipeline() -> Result<ThermalPipeline> {
    Ok(ThermalPipeline::builder()
        .cluster_count(ClusterCount::Fixed(2))
        .selector(SelectorKind::NearMean)
        .model_order(ModelOrder::Second)
        .build()?)
}

/// Fits the reduced model the sweep evaluates, on clean data. With a
/// `store`, the three pipeline stages are checkpointed in it under
/// `fm-fit-*` names.
fn fit_clean(p: &Protocol, store: Option<&mut CheckpointStore>) -> Result<ReducedModel> {
    let temps = p.temperature_channels();
    let temp_refs: Vec<&str> = temps.iter().map(String::as_str).collect();
    let inputs = p.input_channels();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let pipeline = sweep_pipeline()?;
    let (dataset, mask) = (&p.output.dataset, &p.train_occupied);
    Ok(match store {
        Some(store) => {
            pipeline
                .fit_checkpointed(dataset, &temp_refs, &input_refs, mask, store, "fm-fit")?
                .0
        }
        None => pipeline.fit(dataset, &temp_refs, &input_refs, mask)?,
    })
}

/// Runs the validation/quarantine layer over the temperature channels
/// only (the exogenous inputs live on different physical scales and
/// are not faulted here), returning the cleaned dataset and the total
/// quarantined-sample count.
fn validate_temps(
    dataset: &Dataset,
    temps: &[String],
    config: &ValidationConfig,
) -> Result<(Dataset, usize)> {
    let mut quarantined = 0usize;
    let mut channels: Vec<Channel> = Vec::with_capacity(dataset.channel_count());
    for ch in dataset.channels() {
        if temps.iter().any(|t| t == ch.name()) {
            let (cleaned, quality) = validate_channel(ch, config)?;
            quarantined += quality.quarantined();
            channels.push(cleaned);
        } else {
            channels.push(ch.clone());
        }
    }
    Ok((Dataset::new(*dataset.grid(), channels)?, quarantined))
}

/// Everything a cell evaluation shares across the sweep.
struct SweepContext<'a> {
    dataset: &'a Dataset,
    val_mask: &'a Mask,
    reduced: ReducedModel,
    temps: Vec<String>,
    config: ValidationConfig,
    policy: DegradationPolicy,
    horizon: usize,
}

impl<'a> SweepContext<'a> {
    fn build(p: &'a Protocol, reduced: ReducedModel) -> Self {
        SweepContext {
            dataset: &p.output.dataset,
            val_mask: &p.val_occupied,
            reduced,
            temps: p.temperature_channels(),
            config: ValidationConfig::default(),
            policy: DegradationPolicy::default(),
            horizon: occupied_horizon(&p.output),
        }
    }
}

/// Runs one `(class, intensity)` cell.
fn run_sweep_cell(
    ctx: &SweepContext<'_>,
    class: &'static str,
    intensity: f64,
) -> Result<FaultMatrixCell> {
    let kind = FaultKind::default_params(class).ok_or(BenchError::Protocol {
        context: "unknown fault class in sweep",
    })?;
    let plan = FaultPlan::new(FAULT_SEED).with(FaultDirective::channels(
        kind,
        ctx.temps.clone(),
        intensity,
    ));
    let (faulted, log) = plan.apply(ctx.dataset)?;
    let raw = ctx
        .reduced
        .evaluate_degraded(&faulted, ctx.val_mask, ctx.horizon, &ctx.policy)?;
    let (cleaned, quarantined) = validate_temps(&faulted, &ctx.temps, &ctx.config)?;
    let validated =
        ctx.reduced
            .evaluate_degraded(&cleaned, ctx.val_mask, ctx.horizon, &ctx.policy)?;
    let rms_of = |out: &thermal_core::DegradedEvaluation| -> Result<Option<f64>> {
        match &out.report {
            Some(r) => Ok(Some(r.rms()?)),
            None => Ok(None),
        }
    };
    Ok(FaultMatrixCell {
        class,
        intensity,
        injected: log.events().len(),
        quarantined,
        degraded_reps: validated.degradation.degraded_count(),
        rmse_raw: rms_of(&raw)?,
        rmse_validated: rms_of(&validated)?,
    })
}

/// Runs the full sweep: every fault class at every intensity.
///
/// The `(class, intensity)` cells are independent — each fault stream
/// is seeded from the cell's own directive, not a shared RNG — so the
/// grid fans out over the configured [`thermal_par::thread_count`].
/// Cells are returned in class-major, intensity-minor order and the
/// result is bitwise identical for every thread count
/// (`THERMAL_THREADS=1` forces the sequential walk).
///
/// # Errors
///
/// Propagates pipeline-fitting, injection and validation failures.
/// Degraded or blacked-out evaluation is *not* an error — it lands in
/// the cell as `degraded_reps` / `rmse: None`.
pub fn fault_matrix(p: &Protocol, intensities: &[f64]) -> Result<Vec<FaultMatrixCell>> {
    let ctx = SweepContext::build(p, fit_clean(p, None)?);
    let mut grid = Vec::with_capacity(FAULT_CLASSES.len() * intensities.len());
    for &class in FAULT_CLASSES {
        for &intensity in intensities {
            grid.push((class, intensity));
        }
    }
    thermal_par::try_parallel_map(&grid, |&(class, intensity)| {
        run_sweep_cell(&ctx, class, intensity)
    })
}

/// How one cell of a checkpointed sweep concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultCellOutcome {
    /// The cell has a result — computed now or restored from a
    /// verified checkpoint.
    Done {
        /// The cell's measurements.
        cell: FaultMatrixCell,
        /// True when the payload came from a checkpoint.
        restored: bool,
    },
    /// The cell was skipped by the supervision layer (open circuit
    /// breaker or exhausted retries); the rest of the grid completed.
    Quarantined {
        /// Fault class of the skipped cell.
        class: &'static str,
        /// Intensity of the skipped cell.
        intensity: f64,
        /// Why the cell was skipped.
        reason: String,
    },
}

const CELL_TAG: &str = "bench-fault-cell-v1";

/// Encodes one cell result as a canonical checkpoint payload.
fn encode_cell(cell: &FaultMatrixCell, fingerprint: u64) -> Vec<u8> {
    let mut r = Record::new(CELL_TAG);
    r.put_u64("fp", fingerprint)
        .put("class", cell.class)
        .put_f64("intensity", cell.intensity)
        .put_usize("injected", cell.injected)
        .put_usize("quarantined", cell.quarantined)
        .put_usize("degraded_reps", cell.degraded_reps)
        // `Option<f64>` as a 0- or 1-element slice.
        .put_f64_slice("rmse_raw", cell.rmse_raw.as_slice())
        .put_f64_slice("rmse_validated", cell.rmse_validated.as_slice());
    r.encode()
}

/// Decodes a cell payload (the class name is interned back onto
/// [`FAULT_CLASSES`] so the struct keeps its `&'static str` field).
fn decode_cell(bytes: &[u8], fingerprint: u64) -> Result<FaultMatrixCell> {
    let invariant = |context| BenchError::Protocol { context };
    let r = Record::decode(bytes, CELL_TAG).map_err(BenchError::from)?;
    if r.get_u64("fp")? != fingerprint {
        return Err(invariant("cell checkpoint fingerprint mismatch"));
    }
    let class_name = r.get("class")?;
    let class = FAULT_CLASSES
        .iter()
        .copied()
        .find(|c| *c == class_name)
        .ok_or_else(|| invariant("cell checkpoint names an unknown fault class"))?;
    let opt = |v: Vec<f64>| v.first().copied();
    Ok(FaultMatrixCell {
        class,
        intensity: r.get_f64("intensity")?,
        injected: r.get_usize("injected")?,
        quarantined: r.get_usize("quarantined")?,
        degraded_reps: r.get_usize("degraded_reps")?,
        rmse_raw: opt(r.get_f64_slice("rmse_raw")?),
        rmse_validated: opt(r.get_f64_slice("rmse_validated")?),
    })
}

/// Fingerprint of everything a sweep cell's result depends on: the
/// dataset bits over the swept channels, the validation mask, the
/// fitted model, the validation/degradation configuration, and the
/// fault seed.
fn cell_fingerprint(ctx: &SweepContext<'_>, input_refs: &[&str]) -> u64 {
    let temp_refs: Vec<&str> = ctx.temps.iter().map(String::as_str).collect();
    let mut h = Fnv64::new();
    h.update(&dataset_fingerprint(ctx.dataset, &temp_refs, input_refs, ctx.val_mask).to_le_bytes());
    h.update(format!("{:?}", ctx.reduced).as_bytes());
    h.update(format!("{:?}|{:?}|{}", ctx.config, ctx.policy, ctx.horizon).as_bytes());
    h.update(&FAULT_SEED.to_le_bytes());
    h.finish()
}

/// The checkpointed, supervised variant of [`fault_matrix`].
///
/// Each `(class, intensity)` cell runs under
/// [`thermal_ckpt::run_cell`]: restored from `store` when a verified
/// checkpoint exists, otherwise executed with the policy's
/// retry/breaker supervision and committed atomically. The
/// model fit itself resumes via
/// [`ThermalPipeline::fit_checkpointed`]. Cells run sequentially —
/// supervision trades the plain sweep's fan-out for per-cell
/// isolation and restartability; use [`fault_matrix`] when raw
/// throughput matters more than crash-safety.
///
/// A restored-or-computed grid is bitwise identical to an
/// uninterrupted run (the chaos harness enforces this); cells the
/// supervisor had to skip surface as
/// [`FaultCellOutcome::Quarantined`] instead of failing the sweep.
///
/// # Errors
///
/// Store I/O failures and fit/injection failures on the *first*
/// computation of a cell's dependencies. Per-cell execution failures
/// do not abort the sweep.
pub fn fault_matrix_checkpointed(
    p: &Protocol,
    intensities: &[f64],
    store: &mut CheckpointStore,
    policy: &CellPolicy,
) -> Result<Vec<FaultCellOutcome>> {
    let ctx = SweepContext::build(p, fit_clean(p, Some(store))?);
    let inputs = p.input_channels();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let fp = cell_fingerprint(&ctx, &input_refs);

    let mut outcomes = Vec::with_capacity(FAULT_CLASSES.len() * intensities.len());
    for &class in FAULT_CLASSES {
        for &intensity in intensities {
            // The fingerprint is part of the name, so stale
            // checkpoints (other data/config) simply never match.
            let name = format!("fm-{class}-{:016x}-{fp:016x}.ck", intensity.to_bits());
            let outcome = run_cell(store, &name, policy, || {
                run_sweep_cell(&ctx, class, intensity)
                    .map(|cell| encode_cell(&cell, fp))
                    .map_err(|e| e.to_string())
            })?;
            outcomes.push(match outcome {
                CellOutcome::Restored(bytes) => FaultCellOutcome::Done {
                    cell: decode_cell(&bytes, fp)?,
                    restored: true,
                },
                CellOutcome::Computed(bytes) => FaultCellOutcome::Done {
                    cell: decode_cell(&bytes, fp)?,
                    restored: false,
                },
                CellOutcome::Quarantined { reason, .. } => FaultCellOutcome::Quarantined {
                    class,
                    intensity,
                    reason,
                },
            });
        }
    }
    Ok(outcomes)
}

/// Renders the sweep as an aligned table plus a CSV document.
pub fn render_fault_matrix(cells: &[FaultMatrixCell]) -> (String, String) {
    let baseline = cells
        .iter()
        .find(|c| c.intensity == 0.0)
        .and_then(|c| c.rmse_raw);
    let fmt_rmse = |r: Option<f64>| -> (String, String) {
        match r {
            Some(v) => (
                format!("{v:.4}"),
                baseline.map_or_else(|| "-".to_owned(), |b| format!("x{:.2}", v / b.max(1e-12))),
            ),
            None => ("blackout".to_owned(), "-".to_owned()),
        }
    };
    let mut table = vec![vec![
        "class".to_owned(),
        "intensity".to_owned(),
        "injected".to_owned(),
        "quarantined".to_owned(),
        "degraded reps".to_owned(),
        "raw rmse [°C]".to_owned(),
        "vs clean".to_owned(),
        "validated rmse".to_owned(),
        "vs clean".to_owned(),
    ]];
    let mut csv = String::from(
        "class,intensity,injected,quarantined,degraded_reps,rmse_raw,rmse_validated\n",
    );
    for c in cells {
        let (raw_s, raw_ratio) = fmt_rmse(c.rmse_raw);
        let (val_s, val_ratio) = fmt_rmse(c.rmse_validated);
        table.push(vec![
            c.class.to_owned(),
            format!("{:.2}", c.intensity),
            c.injected.to_string(),
            c.quarantined.to_string(),
            c.degraded_reps.to_string(),
            raw_s,
            raw_ratio,
            val_s,
            val_ratio,
        ]);
        let as_csv = |r: Option<f64>| r.map_or_else(|| "nan".to_owned(), |v| v.to_string());
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            c.class,
            c.intensity,
            c.injected,
            c.quarantined,
            c.degraded_reps,
            as_csv(c.rmse_raw),
            as_csv(c.rmse_validated),
        ));
    }
    (render::table(&table), csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole acceptance contract in one (slow) sweep: end-to-end
    /// completion, a clean-baseline anchor shared by every class, and
    /// degradation that grows with intensity.
    #[test]
    fn fault_matrix_sweeps_end_to_end() {
        let p = Protocol::quick(11).unwrap();
        let cells = fault_matrix(&p, &[0.0, 0.5, 1.0]).unwrap();
        assert_eq!(cells.len(), FAULT_CLASSES.len() * 3);

        // Zero intensity injects nothing and reproduces the same
        // clean-baseline RMSE for every class, raw and validated
        // alike.
        let baselines: Vec<f64> = cells
            .iter()
            .filter(|c| c.intensity == 0.0)
            .map(|c| {
                assert_eq!(c.injected, 0, "{} injected at intensity 0", c.class);
                assert_eq!(c.degraded_reps, 0);
                c.rmse_raw.expect("clean baseline must evaluate")
            })
            .collect();
        assert_eq!(baselines.len(), FAULT_CLASSES.len());
        for b in &baselines {
            assert!((b - baselines[0]).abs() < 1e-12, "baselines disagree");
        }

        // Injection happens at full intensity, and the value-altering
        // classes degrade raw RMSE monotonically along the sweep.
        for class in ["drift", "spike", "garbage"] {
            let curve: Vec<&FaultMatrixCell> = cells.iter().filter(|c| c.class == class).collect();
            assert!(curve[2].injected > 0, "{class} injected nothing");
            let raw: Vec<f64> = curve
                .iter()
                .map(|c| c.rmse_raw.expect("raw curve cell must evaluate"))
                .collect();
            assert!(
                raw[0] <= raw[1] + 1e-9 && raw[1] <= raw[2] + 1e-9,
                "{class} raw RMSE not monotone: {raw:?}"
            );
            assert!(
                raw[2] > raw[0],
                "{class} full intensity did not degrade raw RMSE"
            );
        }

        // The quarantine layer mitigates: at full intensity the
        // validated RMSE of the implausible-value classes beats raw.
        for class in ["garbage", "spike"] {
            let full = cells
                .iter()
                .find(|c| c.class == class && c.intensity == 1.0)
                .unwrap();
            assert!(full.quarantined > 0, "{class} nothing quarantined");
            let (raw, validated) = (full.rmse_raw.unwrap(), full.rmse_validated.unwrap());
            assert!(
                validated < raw,
                "{class}: validation did not mitigate ({validated} vs {raw})"
            );
        }

        // Every cell completed: blackout is allowed, an error is not
        // (the pipeline promise under sensor death).
        for c in &cells {
            assert!(
                c.rmse_validated.is_some() || c.degraded_reps > 0,
                "{} at {} reported blackout without degradation",
                c.class,
                c.intensity
            );
        }
    }

    /// Cell payload codec round-trips bit-exactly, including the
    /// `None` (blackout) RMSE encoding.
    #[test]
    fn cell_codec_roundtrip() {
        let cell = FaultMatrixCell {
            class: "spike",
            intensity: 0.5,
            injected: 42,
            quarantined: 17,
            degraded_reps: 1,
            rmse_raw: Some(0.123_456_789_012_345_6),
            rmse_validated: None,
        };
        let bytes = encode_cell(&cell, 7);
        assert_eq!(decode_cell(&bytes, 7).unwrap(), cell);
        assert!(decode_cell(&bytes, 8).is_err(), "fingerprint must gate");
        assert!(decode_cell(b"garbage", 7).is_err());
    }

    /// Resume-equivalence for the supervised sweep: a cold
    /// checkpointed run matches the plain sweep, and a warm rerun
    /// restores every cell bit-for-bit without recomputing.
    #[test]
    fn checkpointed_sweep_matches_plain_and_resumes() {
        let p = Protocol::quick(11).unwrap();
        let intensities = [0.0, 1.0];
        let plain = fault_matrix(&p, &intensities).unwrap();

        let root = std::env::temp_dir().join(format!("bench-fm-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = CheckpointStore::open(&root, 11, "test").unwrap();
        let policy = CellPolicy {
            backoff_base_ms: 0,
            ..CellPolicy::default()
        };

        let cold = fault_matrix_checkpointed(&p, &intensities, &mut store, &policy).unwrap();
        let cells_of =
            |outcomes: &[FaultCellOutcome], want_restored: bool| -> Vec<FaultMatrixCell> {
                outcomes
                    .iter()
                    .map(|o| match o {
                        FaultCellOutcome::Done { cell, restored } => {
                            assert_eq!(*restored, want_restored);
                            cell.clone()
                        }
                        FaultCellOutcome::Quarantined { class, reason, .. } => {
                            panic!("{class} quarantined: {reason}")
                        }
                    })
                    .collect()
            };
        assert_eq!(cells_of(&cold, false), plain);

        // Warm rerun over a fresh handle: everything restores.
        drop(store);
        let mut store = CheckpointStore::open(&root, 11, "test").unwrap();
        let warm = fault_matrix_checkpointed(&p, &intensities, &mut store, &policy).unwrap();
        assert_eq!(cells_of(&warm, true), plain);

        // Corrupt one cell checkpoint: it alone recomputes, to the
        // identical value.
        drop(store);
        let victim = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .find(|n| n.starts_with("fm-spike-"))
            .unwrap();
        std::fs::write(root.join(&victim), b"bitrot").unwrap();
        let mut store = CheckpointStore::open(&root, 11, "test").unwrap();
        assert_eq!(store.open_report().quarantined, vec![victim]);
        let healed = fault_matrix_checkpointed(&p, &intensities, &mut store, &policy).unwrap();
        let healed_cells: Vec<FaultMatrixCell> = healed
            .iter()
            .map(|o| match o {
                FaultCellOutcome::Done { cell, .. } => cell.clone(),
                FaultCellOutcome::Quarantined { class, reason, .. } => {
                    panic!("{class} quarantined: {reason}")
                }
            })
            .collect();
        assert_eq!(healed_cells, plain);
        let recomputed = healed
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    FaultCellOutcome::Done {
                        restored: false,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(recomputed, 1, "only the corrupted cell recomputes");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A persistently failing cell is skipped with a structured
    /// outcome instead of aborting the sweep — here driven through
    /// the public supervision API with the sweep's own store.
    #[test]
    fn breaker_quarantines_cell_without_failing_grid() {
        let root = std::env::temp_dir().join(format!("bench-fm-breaker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = CheckpointStore::open(&root, 1, "test").unwrap();
        let policy = CellPolicy {
            max_attempts: 2,
            backoff_base_ms: 0,
            breaker_threshold: 2,
        };
        let out = run_cell(&mut store, "doomed.ck", &policy, || {
            Err("synthetic cell failure".to_string())
        })
        .unwrap();
        assert!(matches!(out, CellOutcome::Quarantined { .. }));
        // The grid continues: the next cell still commits.
        let out = run_cell(&mut store, "fine.ck", &policy, || Ok(b"ok".to_vec())).unwrap();
        assert_eq!(out.bytes(), Some(&b"ok"[..]));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The grid fan-out keeps the determinism contract: the sweep is
    /// bitwise identical under `THERMAL_THREADS=1` (sequential walk)
    /// and `THERMAL_THREADS=4`.
    #[test]
    fn fault_matrix_bitwise_identical_across_thread_counts() {
        let p = Protocol::quick(7).unwrap();
        std::env::set_var(thermal_par::THREADS_ENV, "1");
        let sequential = fault_matrix(&p, &[0.0, 1.0]).unwrap();
        std::env::set_var(thermal_par::THREADS_ENV, "4");
        let parallel = fault_matrix(&p, &[0.0, 1.0]).unwrap();
        std::env::remove_var(thermal_par::THREADS_ENV);
        assert_eq!(sequential, parallel);
    }
}
