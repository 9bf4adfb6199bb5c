//! Parameter sweeps: training-data horizon and prediction length
//! (the two panels of the paper's Fig. 5).
//!
//! Both sweeps run through the incremental engine of [`crate::cache`]
//! when the fit is ridge-regularised (the default): the nested
//! training windows are fitted smallest-to-largest, each cell
//! ingesting only the transitions the previous cell did not cover,
//! with per-range Gram blocks memoized in a [`GramCache`]. The
//! `ridge == 0` configuration keeps the numerically robust QR
//! full-refit path ([`sweep_training_horizon_full`]).

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use thermal_timeseries::{Dataset, Mask};

use crate::cache::{identify_with_cache, GramCache, SweepEngine};
use crate::{
    evaluate, identify, EvalConfig, EvalReport, FitConfig, ModelSpec, Result, SysidError,
    ThermalModel,
};

/// One point of a sweep: the swept parameter value and the resulting
/// evaluation report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Value of the swept parameter (days of training data, or
    /// prediction horizon in samples, depending on the sweep).
    pub parameter: f64,
    /// Evaluation of the model at this parameter value.
    pub report: EvalReport,
}

/// Sweeps the amount of training data: for each entry of
/// `train_day_counts`, fit on the **most recent** `n` usable days
/// (within `mode_mask`) and evaluate on the fixed `validation_days`.
///
/// Reproduces the top panel of Fig. 5, where the paper observes that
/// *more* training data does not monotonically improve accuracy (13
/// training days beat 58 in their campaign): growing the window drags
/// in stale data from weeks earlier — different season, different
/// load patterns — which biases the fit.
///
/// The cells' windows are nested and fitted in ascending order, so one
/// call looks each transition range up at most once: it memoizes
/// nothing ([`GramCache::disabled`]). Sweeps that repeat over the same
/// dataset and spec share a cache through
/// [`sweep_training_horizon_with_cache`].
///
/// # Errors
///
/// Propagates identification/evaluation failures; returns
/// [`crate::SysidError::InvalidSpec`] when `train_day_counts` asks for
/// more days than available.
#[allow(clippy::too_many_arguments)]
pub fn sweep_training_horizon(
    dataset: &Dataset,
    spec: &ModelSpec,
    mode_mask: &Mask,
    usable_days: &[i64],
    train_day_counts: &[usize],
    validation_days: &[i64],
    fit: &FitConfig,
    eval_cfg: &EvalConfig,
) -> Result<Vec<SweepPoint>> {
    sweep_training_horizon_with_cache(
        dataset,
        spec,
        mode_mask,
        usable_days,
        train_day_counts,
        validation_days,
        fit,
        eval_cfg,
        &mut GramCache::disabled(),
    )
}

/// [`sweep_training_horizon`] with a caller-owned [`GramCache`], so
/// repeated sweeps over the same dataset and spec (both Fig. 5
/// panels, bench reruns) reuse each other's memoized Gram blocks.
///
/// Ridge-regularised fits (the default) run through the incremental
/// engine; `fit.ridge == 0` falls back to
/// [`sweep_training_horizon_full`] (see the fallback rule in
/// [`crate::cache`]).
///
/// # Errors
///
/// Same conditions as [`sweep_training_horizon`]; when several cells
/// fail, the error of the lowest-index failing cell surfaces, matching
/// the full-refit path.
#[allow(clippy::too_many_arguments)]
pub fn sweep_training_horizon_with_cache(
    dataset: &Dataset,
    spec: &ModelSpec,
    mode_mask: &Mask,
    usable_days: &[i64],
    train_day_counts: &[usize],
    validation_days: &[i64],
    fit: &FitConfig,
    eval_cfg: &EvalConfig,
    cache: &mut GramCache,
) -> Result<Vec<SweepPoint>> {
    if fit.ridge == 0.0 {
        return sweep_training_horizon_full(
            dataset,
            spec,
            mode_mask,
            usable_days,
            train_day_counts,
            validation_days,
            fit,
            eval_cfg,
        );
    }
    let mut sorted = usable_days.to_vec();
    sorted.sort_unstable();
    let val_mask = Mask::days_within(dataset.grid(), validation_days, mode_mask)?;
    // Validate every requested horizon up front so the fit loop and
    // the parallel evaluation fan-out only see well-formed cells.
    for &n in train_day_counts {
        if n == 0 || n > sorted.len() {
            return Err(SysidError::InvalidSpec {
                reason: format!(
                    "training horizon {n} outside available {} usable days",
                    sorted.len()
                ),
            });
        }
    }
    // Fit stage, sequential by design: distinct horizons ascending are
    // nested windows, so the engine ingests every training day exactly
    // once across the whole sweep. Duplicated counts fit once.
    let distinct: BTreeSet<usize> = train_day_counts.iter().copied().collect();
    let mut engine = SweepEngine::new(dataset, spec, fit)?;
    let mut fits: BTreeMap<usize, Result<ThermalModel>> = BTreeMap::new();
    for &n in &distinct {
        let train_mask = Mask::days_within(dataset.grid(), &sorted[sorted.len() - n..], mode_mask);
        let result = train_mask.map_err(SysidError::from).and_then(|mask| {
            let fitted = engine.fit_mask(&mask, cache);
            if fitted.is_err() {
                // A failed ingest may leave a partial delta in the
                // accumulators; the next cell re-ingests from scratch.
                engine.reset();
            }
            fitted
        });
        fits.insert(n, result);
    }
    // Error parity with the parallel full-refit path: the failing
    // cell with the lowest original index wins.
    for n in train_day_counts {
        if fits.get(n).is_some_and(std::result::Result::is_err) {
            if let Some(Err(e)) = fits.remove(n) {
                return Err(e);
            }
        }
    }
    let models: BTreeMap<usize, ThermalModel> = fits
        .into_iter()
        .filter_map(|(n, r)| r.ok().map(|m| (n, m)))
        .collect();
    // Evaluation stage: independent per cell, deterministic output
    // order — same fan-out as the full-refit path.
    thermal_par::try_parallel_map(train_day_counts, |&n| {
        let model = models.get(&n).ok_or(SysidError::Internal {
            context: "sweep cell model missing after fit stage",
        })?;
        let report = evaluate(model, dataset, &val_mask, eval_cfg)?;
        Ok(SweepPoint {
            parameter: n as f64,
            report,
        })
    })
}

/// The full-refit training-horizon sweep: every cell independently
/// assembles its regressors and solves from scratch (QR for
/// `ridge == 0`, ridge normal equations otherwise), cells fanned out
/// over the configured thread count.
///
/// This is the reference implementation the incremental engine is
/// differentially tested against, and the serving path for plain
/// (unregularised) least squares.
///
/// # Errors
///
/// Same conditions as [`sweep_training_horizon`].
#[allow(clippy::too_many_arguments)]
pub fn sweep_training_horizon_full(
    dataset: &Dataset,
    spec: &ModelSpec,
    mode_mask: &Mask,
    usable_days: &[i64],
    train_day_counts: &[usize],
    validation_days: &[i64],
    fit: &FitConfig,
    eval_cfg: &EvalConfig,
) -> Result<Vec<SweepPoint>> {
    let mut sorted = usable_days.to_vec();
    sorted.sort_unstable();
    let val_mask = Mask::days_within(dataset.grid(), validation_days, mode_mask)?;
    // Validate every requested horizon up front so the parallel fan-out
    // below only sees well-formed cells.
    for &n in train_day_counts {
        if n == 0 || n > sorted.len() {
            return Err(SysidError::InvalidSpec {
                reason: format!(
                    "training horizon {n} outside available {} usable days",
                    sorted.len()
                ),
            });
        }
    }
    // Each sweep cell fits and evaluates an independent model; errors
    // surface for the lowest-index failing cell regardless of
    // scheduling, matching the sequential loop.
    thermal_par::try_parallel_map(train_day_counts, |&n| {
        let recent = &sorted[sorted.len() - n..];
        let train_mask = Mask::days_within(dataset.grid(), recent, mode_mask)?;
        let model = identify(dataset, spec, &train_mask, fit)?;
        let report = evaluate(&model, dataset, &val_mask, eval_cfg)?;
        Ok(SweepPoint {
            parameter: n as f64,
            report,
        })
    })
}

/// Sweeps the open-loop prediction length: one model (fit on
/// `train_mask`) evaluated at each horizon of `horizons_samples`.
///
/// Reproduces the bottom panel of Fig. 5 (error grows monotonically
/// with prediction length). The one fit goes through
/// [`identify_with_cache`], so a ridge-regularised fit takes the
/// engine's numerics, as the training-horizon sweep does; it fits
/// once, so it memoizes nothing ([`GramCache::disabled`]).
///
/// # Errors
///
/// Propagates identification/evaluation failures.
pub fn sweep_prediction_length(
    dataset: &Dataset,
    spec: &ModelSpec,
    train_mask: &Mask,
    validation_mask: &Mask,
    horizons_samples: &[usize],
    fit: &FitConfig,
) -> Result<Vec<SweepPoint>> {
    // One shared fit, then each horizon is an independent open-loop
    // evaluation — the cells fan out over the configured thread count.
    let model = identify_with_cache(dataset, spec, train_mask, fit, &mut GramCache::disabled())?;
    thermal_par::try_parallel_map(horizons_samples, |&h| {
        let cfg = EvalConfig::with_horizon(h.max(1));
        let report = evaluate(&model, dataset, validation_mask, &cfg)?;
        Ok(SweepPoint {
            parameter: h as f64,
            report,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelOrder;
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    /// Four days of hourly data from a noisy first-order system.
    fn synth() -> Dataset {
        let n = 4 * 24;
        let u: Vec<f64> = (0..n).map(|k| (k as f64 * 0.4).sin() * 0.5 + 0.5).collect();
        let mut t = vec![20.0_f64];
        // Deterministic "noise" so identification is imperfect but
        // reproducible.
        for k in 0..n - 1 {
            let wiggle = 0.01 * ((k * 7919 % 97) as f64 / 97.0 - 0.5);
            t.push(0.9 * t[k] + 1.0 * u[k] + wiggle);
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 60, n).unwrap();
        Dataset::new(
            grid,
            vec![
                Channel::from_values("t", t).unwrap(),
                Channel::from_values("u", u).unwrap(),
            ],
        )
        .unwrap()
    }

    fn spec() -> ModelSpec {
        ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::First).unwrap()
    }

    #[test]
    fn training_sweep_produces_one_point_per_count() {
        let ds = synth();
        let mode = Mask::all(ds.grid());
        let points = sweep_training_horizon(
            &ds,
            &spec(),
            &mode,
            &[0, 1, 2],
            &[1, 2],
            &[3],
            &FitConfig::default(),
            &EvalConfig::default(),
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].parameter, 1.0);
        assert_eq!(points[1].parameter, 2.0);
        for p in &points {
            assert!(p.report.per_sensor_rms()[0].is_finite());
        }
    }

    #[test]
    fn training_sweep_rejects_oversized_horizon() {
        let ds = synth();
        let mode = Mask::all(ds.grid());
        assert!(sweep_training_horizon(
            &ds,
            &spec(),
            &mode,
            &[0, 1],
            &[3],
            &[2],
            &FitConfig::default(),
            &EvalConfig::default(),
        )
        .is_err());
    }

    /// Byte-level view of a sweep result: the full `Debug` rendering
    /// plus the exact bits of every per-sensor RMS.
    fn fingerprint(points: &[SweepPoint]) -> (String, Vec<u64>) {
        let bits = points
            .iter()
            .flat_map(|p| p.report.per_sensor_rms().iter().map(|v| v.to_bits()))
            .collect();
        (format!("{points:?}"), bits)
    }

    #[test]
    fn incremental_sweep_matches_full_refit_within_tolerance() {
        let ds = synth();
        let mode = Mask::all(ds.grid());
        let run = |full: bool| {
            let args = (
                &ds,
                &spec(),
                &mode,
                [0_i64, 1, 2].as_slice(),
                [1_usize, 2, 3].as_slice(),
                [3_i64].as_slice(),
            );
            if full {
                sweep_training_horizon_full(
                    args.0,
                    args.1,
                    args.2,
                    args.3,
                    args.4,
                    args.5,
                    &FitConfig::default(),
                    &EvalConfig::default(),
                )
            } else {
                sweep_training_horizon(
                    args.0,
                    args.1,
                    args.2,
                    args.3,
                    args.4,
                    args.5,
                    &FitConfig::default(),
                    &EvalConfig::default(),
                )
            }
        };
        let incremental = run(false).unwrap();
        let full = run(true).unwrap();
        assert_eq!(incremental.len(), full.len());
        for (a, b) in incremental.iter().zip(&full) {
            assert_eq!(a.parameter, b.parameter);
            for (x, y) in a
                .report
                .per_sensor_rms()
                .iter()
                .zip(b.report.per_sensor_rms())
            {
                assert!(
                    (x - y).abs() < 1e-6,
                    "cell {}: incremental {x} vs full {y}",
                    a.parameter
                );
            }
        }
    }

    #[test]
    fn sweep_is_bitwise_identical_across_cold_warm_and_disabled_caches() {
        let ds = synth();
        let mode = Mask::all(ds.grid());
        let mut shared = GramCache::new();
        let run = |cache: &mut GramCache| {
            fingerprint(
                &sweep_training_horizon_with_cache(
                    &ds,
                    &spec(),
                    &mode,
                    &[0, 1, 2],
                    &[1, 2, 3],
                    &[3],
                    &FitConfig::default(),
                    &EvalConfig::default(),
                    cache,
                )
                .unwrap(),
            )
        };
        let cold = run(&mut shared);
        let warm = run(&mut shared);
        let disabled = run(&mut GramCache::disabled());
        assert_eq!(cold, warm, "warm-cache sweep must be bit-identical");
        assert_eq!(cold, disabled, "memoization must not change results");
        assert!(shared.stats().hits > 0, "{:?}", shared.stats());
    }

    /// The one-shot sweeps memoize nothing, and answer exactly as their
    /// cached forms do over a fresh default cache: the training-horizon
    /// sweep as `sweep_training_horizon_with_cache`, the
    /// prediction-length sweep as its fit through `identify_with_cache`
    /// evaluated at each horizon.
    #[test]
    fn one_shot_sweeps_equal_their_cached_forms() {
        let ds = synth();
        let mode = Mask::all(ds.grid());
        let fit = FitConfig::default();
        let eval = EvalConfig::with_horizon(9);
        let args = (
            &ds,
            &spec(),
            &mode,
            [0_i64, 1, 2].as_slice(),
            [2_usize, 1, 3, 2].as_slice(),
        );
        let one_shot =
            sweep_training_horizon(args.0, args.1, args.2, args.3, args.4, &[3], &fit, &eval)
                .unwrap();
        let mut cache = GramCache::new();
        let cached = sweep_training_horizon_with_cache(
            args.0,
            args.1,
            args.2,
            args.3,
            args.4,
            &[3],
            &fit,
            &eval,
            &mut cache,
        )
        .unwrap();
        assert_eq!(fingerprint(&one_shot), fingerprint(&cached));
        assert!(cache.stats().misses > 0);

        let train = Mask::days(ds.grid(), &[0, 1]);
        let val = Mask::days(ds.grid(), &[2, 3]);
        let horizons = [1, 6, 23];
        let one_shot =
            sweep_prediction_length(&ds, &spec(), &train, &val, &horizons, &fit).unwrap();
        let model = identify_with_cache(&ds, &spec(), &train, &fit, &mut GramCache::new()).unwrap();
        let cached: Vec<SweepPoint> = horizons
            .iter()
            .map(|&h| SweepPoint {
                parameter: h as f64,
                report: evaluate(&model, &ds, &val, &EvalConfig::with_horizon(h)).unwrap(),
            })
            .collect();
        assert_eq!(fingerprint(&one_shot), fingerprint(&cached));
    }

    #[test]
    fn duplicate_counts_fit_once_and_match_bitwise() {
        let ds = synth();
        let mode = Mask::all(ds.grid());
        let points = sweep_training_horizon(
            &ds,
            &spec(),
            &mode,
            &[0, 1, 2],
            &[2, 1, 2],
            &[3],
            &FitConfig::default(),
            &EvalConfig::default(),
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].parameter, 2.0);
        assert_eq!(points[1].parameter, 1.0);
        let (first, _) = fingerprint(&points[0..1]);
        let (third, _) = fingerprint(&points[2..3]);
        assert_eq!(first, third, "duplicated cells must be identical");
    }

    #[test]
    fn eval_stage_is_thread_count_invariant() {
        let ds = synth();
        let mode = Mask::all(ds.grid());
        let val_mask = Mask::days(ds.grid(), &[3]).and(&mode).unwrap();
        let spec = spec();
        let mut engine = SweepEngine::new(&ds, &spec, &FitConfig::default()).unwrap();
        let mut cache = GramCache::new();
        let models: Vec<ThermalModel> = (1..=3_i64)
            .map(|n| {
                let days: Vec<i64> = (3 - n..3).collect();
                let mask = Mask::days(ds.grid(), &days).and(&mode).unwrap();
                engine.fit_mask(&mask, &mut cache).unwrap()
            })
            .collect();
        let eval_all = |threads: usize| {
            thermal_par::try_parallel_map_with(threads, &models, |m| {
                evaluate(m, &ds, &val_mask, &EvalConfig::default())
            })
            .unwrap()
        };
        let seq = eval_all(1);
        let par = eval_all(4);
        assert_eq!(
            format!("{seq:?}"),
            format!("{par:?}"),
            "evaluation fan-out must be thread-count invariant"
        );
    }

    #[test]
    fn ridge_zero_sweep_takes_the_full_refit_path_bitwise() {
        let ds = synth();
        let mode = Mask::all(ds.grid());
        let run_plain = |via_cache: bool| {
            let fit = FitConfig::plain();
            if via_cache {
                sweep_training_horizon_with_cache(
                    &ds,
                    &spec(),
                    &mode,
                    &[0, 1, 2],
                    &[1, 2],
                    &[3],
                    &fit,
                    &EvalConfig::default(),
                    &mut GramCache::new(),
                )
            } else {
                sweep_training_horizon_full(
                    &ds,
                    &spec(),
                    &mode,
                    &[0, 1, 2],
                    &[1, 2],
                    &[3],
                    &fit,
                    &EvalConfig::default(),
                )
            }
        };
        let a = fingerprint(&run_plain(true).unwrap());
        let b = fingerprint(&run_plain(false).unwrap());
        assert_eq!(a, b, "ridge == 0 must route to the QR full-refit path");
    }

    #[test]
    fn prediction_length_sweep_is_monotone_for_imperfect_model() {
        let ds = synth();
        let train = Mask::days(ds.grid(), &[0, 1]);
        let val = Mask::days(ds.grid(), &[2, 3]);
        let points = sweep_prediction_length(
            &ds,
            &spec(),
            &train,
            &val,
            &[1, 6, 23],
            &FitConfig::default(),
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        // One-step error should not exceed long-horizon error.
        let short = points[0].report.per_sensor_rms()[0];
        let long = points[2].report.per_sensor_rms()[0];
        assert!(
            short <= long + 1e-12,
            "expected error to grow with horizon: {short} vs {long}"
        );
    }
}
