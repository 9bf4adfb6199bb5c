//! `harness recovery` — the drift-recovery soak scenario.
//!
//! One complete self-healing rehearsal: fit a reduced model on a
//! synthetic multi-day campaign, inject a deterministic mid-trace
//! [`thermal_faults::FaultKind::RegimeShift`] into every sensor
//! channel (the *physics* change, not the sensors), replay the whole
//! shifted trace through [`thermal_stream::StreamService`] with the
//! online identification loop enabled, and assert the served model
//! heals itself:
//!
//! * the windowed one-step residual RMSE must visibly leave the
//!   pre-shift band after the onset (the shift is detectable),
//! * at least one drift alarm and one supervised refit install must
//!   occur,
//! * the windowed RMSE must re-enter the tolerance band
//!   (`tolerance × baseline`) within the recovery budget and still be
//!   inside it at the end of the run,
//! * every slot must step panic-free.
//!
//! The final state is written to `<dir>/report.json` as canonical
//! byte-stable JSON ([`thermal_stream::RecoveryReport`]) via the
//! atomic-write path, so the `cargo xtask soak recovery` runner can
//! require bitwise identical reports across repeated runs and
//! `THERMAL_THREADS` settings. Refit cells go to the store at
//! `<dir>/ckpt`, which each run clears first.
//!
//! Flags: `--seed N` (default 42), `--days N` (default 2).

use std::collections::VecDeque;
use std::path::Path;

use thermal_bench::campaign::{fit_model, synth_dataset};
use thermal_faults::{FaultDirective, FaultKind, FaultPlan};
use thermal_stream::{
    DriftConfig, OnlineConfig, Reading, RecoveryClusterReport, RecoveryReport, StreamConfig,
    StreamService,
};

use crate::Options;

/// Sliding residual window behind every reported RMSE (four hours).
const WINDOW: usize = 48;

/// Slots after the shift within which the windowed RMSE must re-enter
/// the tolerance band (twelve hours).
const RECOVERY_BUDGET: usize = 144;

/// Recovery tolerance in milli-units: the windowed RMSE must fall
/// back under `2.5 ×` the pre-shift baseline.
const TOLERANCE_MILLIS: u32 = 2500;

/// The online-loop tuning of the recovery scenario: a forgetting
/// factor short enough that post-shift data dominates the estimator
/// within a few windows, and a drift detector whose noise floor sits
/// above the campaign's wiggle but far under the shift's residuals.
fn online_config(ckpt: &Path, seed: u64) -> OnlineConfig {
    let mut config = OnlineConfig::new(ckpt);
    config.seed = seed;
    config.rls.forgetting = 0.92;
    config.drift = DriftConfig {
        delta: 0.03,
        lambda: 1.5,
        min_samples: 24,
        confirm_dwell: 2,
        recovered_hold: 24,
        widening: 3.0,
    };
    config.cell.backoff_base_ms = 0;
    config.min_refit_observations = 48;
    config.refit_cooldown = 12;
    config
}

/// Runs the scenario: `<dir>/report.json`, refit cells in `<dir>/ckpt`.
pub fn run(options: &Options) -> Result<(), String> {
    let days = options.days.unwrap_or(2);
    let seed = options.seed.unwrap_or(42);
    let ckpt = options.dir.join("ckpt");
    // Fit on the clean history; then the building's physics change
    // mid-trace and stay changed — exactly the failure the online
    // identification loop exists for.
    let dataset = synth_dataset(days)?;
    let model = fit_model(&dataset, seed)?;
    let slots = dataset.grid().len();
    let shift = FaultDirective::channels(
        FaultKind::RegimeShift {
            onset: 0.5,
            gain_delta: 0.6,
            offset: 1.5,
        },
        (0..6).map(|i| format!("s{i}")).collect(),
        1.0,
    );
    let (shifted, fault_log) = FaultPlan::new(seed)
        .with(shift)
        .apply(&dataset)
        .map_err(|e| e.to_string())?;
    let shift_slot = fault_log
        .events()
        .iter()
        .find_map(|e| match e {
            thermal_faults::FaultEvent::RegimeShift { start, .. } => Some(*start),
            _ => None,
        })
        .ok_or_else(|| "fault plan logged no regime shift".to_owned())?;
    println!("recovery: slots = {slots}");
    println!("recovery: shift_slot = {shift_slot}");

    // Each run owns its checkpoint directory: the scenario rehearses
    // drift recovery, not crash recovery, so stale refit cells from an
    // earlier run must not leak in.
    if ckpt.exists() {
        std::fs::remove_dir_all(&ckpt).map_err(|e| format!("clear {}: {e}", ckpt.display()))?;
    }

    // In-order, complete delivery: the scenario isolates model-level
    // drift from transport faults, so the lateness budget is zero and
    // every reading lands the slot it was measured.
    let mut config = StreamConfig::default();
    config.reorder.allowed_lateness = 0;
    let mut service = StreamService::new(model.clone(), config, dataset.grid().start())
        .map_err(|e| e.to_string())?;
    service
        .enable_online(online_config(&ckpt, seed))
        .map_err(|e| e.to_string())?;

    // Registry wiring: dataset channel index → service channel index,
    // and cluster → dataset index of its representative channel.
    let mapping: Vec<usize> = shifted
        .channels()
        .iter()
        .map(|ch| service.channel_index(ch.name()).map_err(|e| e.to_string()))
        .collect::<Result<_, String>>()?;
    let clusters = model.clustering().k();
    let assignments = model.clustering().assignments();
    let all = model.all_channels();
    let mut rep_columns: Vec<Option<usize>> = vec![None; clusters];
    for name in model.selected_channels() {
        let sensor = all
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| format!("representative {name} is not a deployment channel"))?;
        let cluster = assignments
            .get(sensor)
            .copied()
            .ok_or_else(|| format!("representative {name} has no cluster assignment"))?;
        let column = shifted
            .channels()
            .iter()
            .position(|ch| ch.name() == name)
            .ok_or_else(|| format!("representative {name} is not a dataset channel"))?;
        rep_columns[cluster] = Some(column);
    }

    // Per-slot mean squared one-step residual over all clusters, last
    // WINDOW slots.
    let mut residual_window: VecDeque<f64> = VecDeque::with_capacity(WINDOW);
    let mut last_forecast: Vec<Option<f64>> = vec![None; clusters];
    let mut baseline_rmse: Option<f64> = None;
    let mut peak_rmse = 0.0_f64;
    let mut final_rmse = 0.0_f64;
    let mut shift_seen = false;
    let mut recovered_after: Option<usize> = None;

    for slot in 0..slots {
        let now = dataset
            .grid()
            .timestamp(slot)
            .map_err(|e| format!("slot {slot}: {e}"))?;
        let batch: Vec<Reading> = shifted
            .channels()
            .iter()
            .zip(&mapping)
            .filter_map(|(ch, &channel)| {
                ch.values()
                    .get(slot)
                    .copied()
                    .flatten()
                    .map(|value| Reading {
                        channel,
                        at: now,
                        value,
                    })
            })
            .collect();
        service
            .step(now, &batch)
            .map_err(|e| format!("slot {slot}: step failed: {e}"))?;

        // Score the forecast issued last slot against what the
        // building actually did this slot.
        let mut sum_sq = 0.0;
        let mut count = 0_usize;
        for (cluster, forecast) in last_forecast.iter().enumerate() {
            let (Some(f), Some(column)) = (forecast, rep_columns[cluster]) else {
                continue;
            };
            if let Some(observed) = shifted
                .channels()
                .get(column)
                .and_then(|ch| ch.values().get(slot).copied().flatten())
            {
                sum_sq += (f - observed) * (f - observed);
                count += 1;
            }
        }
        if count > 0 {
            if residual_window.len() == WINDOW {
                residual_window.pop_front();
            }
            residual_window.push_back(sum_sq / count as f64);
        }
        let rmse = (residual_window.len() == WINDOW)
            .then(|| (residual_window.iter().sum::<f64>() / residual_window.len() as f64).sqrt());

        if slot + 1 == shift_slot {
            baseline_rmse = Some(
                rmse.ok_or_else(|| "residual window never filled before the shift".to_owned())?,
            );
        }
        if let (Some(rmse), Some(baseline)) = (rmse, baseline_rmse) {
            final_rmse = rmse;
            let band = baseline * f64::from(TOLERANCE_MILLIS) / 1000.0;
            if slot >= shift_slot {
                peak_rmse = peak_rmse.max(rmse);
                if rmse > band {
                    shift_seen = true;
                    recovered_after = None;
                } else if shift_seen && recovered_after.is_none() {
                    recovered_after = Some(slot - shift_slot);
                }
            }
        }

        let prediction = service.predict();
        if prediction.clusters.len() != clusters {
            return Err(format!(
                "slot {slot}: prediction covers {} of {clusters} clusters",
                prediction.clusters.len()
            ));
        }
        for c in &prediction.clusters {
            last_forecast[c.cluster] = prediction.warmed_up.then_some(c.predicted).flatten();
        }
    }

    let baseline =
        baseline_rmse.ok_or_else(|| "shift landed before the baseline window".to_owned())?;
    let online = service
        .online_stats()
        .ok_or_else(|| "online identification was not enabled".to_owned())?;
    let drift = service.drift_stats();
    let health = service.model_health();
    let report = RecoveryReport {
        seed,
        days,
        slots,
        shift_slot,
        window: WINDOW,
        recovery_budget: RECOVERY_BUDGET,
        tolerance_millis: TOLERANCE_MILLIS,
        baseline_rmse: baseline,
        peak_rmse,
        final_rmse,
        recovered_after,
        online,
        refit_installs: service.stats().refit_installs,
        clusters: drift
            .iter()
            .enumerate()
            .map(|(cluster, d)| RecoveryClusterReport {
                cluster,
                final_health: health
                    .get(cluster)
                    .copied()
                    .unwrap_or_default()
                    .name()
                    .to_owned(),
                alarms: d.alarms,
                refits: d.refits,
            })
            .collect(),
    };
    println!(
        "recovery: baseline={baseline:.4} peak={peak_rmse:.4} final={final_rmse:.4} \
         recovered_after={recovered_after:?} alarms={} installs={}",
        drift.iter().map(|d| d.alarms).sum::<u64>(),
        report.refit_installs,
    );
    println!(
        "recovery: ingested={} skipped={} residual_slots={} observed={:?}",
        online.rows_ingested,
        online.rows_skipped,
        online.residual_slots,
        drift.iter().map(|d| d.observed).collect::<Vec<_>>(),
    );

    // The self-healing contract.
    if !shift_seen {
        return Err(format!(
            "the regime shift never left the tolerance band (baseline {baseline:.4}, peak {peak_rmse:.4})"
        ));
    }
    if !drift.iter().any(|d| d.alarms > 0) {
        return Err("no cluster ever raised a drift alarm".to_owned());
    }
    if report.refit_installs == 0 {
        return Err("no supervised refit was ever installed".to_owned());
    }
    match recovered_after {
        Some(after) if after <= RECOVERY_BUDGET => {}
        Some(after) => {
            return Err(format!(
                "recovered after {after} slots, budget is {RECOVERY_BUDGET}"
            ));
        }
        None => {
            return Err(format!(
                "residual RMSE never re-entered {TOLERANCE_MILLIS}‰ of baseline \
                 (baseline {baseline:.4}, final {final_rmse:.4})"
            ));
        }
    }

    thermal_ckpt::write_atomic(
        &options.dir.join("report.json"),
        report.to_json().as_bytes(),
    )
    .map_err(|e| e.to_string())
}
