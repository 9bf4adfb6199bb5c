//! Model-identification experiments: Table I and Figures 3–5.

use thermal_ckpt::codec::Record;
use thermal_ckpt::CheckpointStore;
use thermal_linalg::cast;
use thermal_sysid::{
    evaluate, identify, predict_segment, regressors, EvalConfig, FitConfig, ModelOrder, ModelSpec,
    ThermalModel,
};
use thermal_timeseries::Mask;

use crate::error::{BenchError, Result};
use crate::protocol::{occupied_horizon, steps_per_hour, unoccupied_horizon, Protocol};
use crate::render;

/// Fits the dense model of the given order on a mask.
fn fit_dense(p: &Protocol, order: ModelOrder, mask: &Mask) -> Result<ThermalModel> {
    let spec = ModelSpec::new(p.temperature_channels(), p.input_channels(), order)?;
    Ok(identify(
        &p.output.dataset,
        &spec,
        mask,
        &FitConfig::default(),
    )?)
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// `"occupied"` or `"unoccupied"`.
    pub mode: &'static str,
    /// Model order.
    pub order: ModelOrder,
    /// 90th percentile of per-sensor RMS, °C.
    pub p90: f64,
    /// RMS over all sensors, °C.
    pub overall: f64,
    /// Smallest per-sensor RMS, °C.
    pub min: f64,
    /// Largest per-sensor RMS, °C.
    pub max: f64,
}

/// Table I: 90th-percentile RMS of the open-loop prediction error for
/// first- and second-order models in both HVAC modes.
///
/// # Errors
///
/// Propagates identification and evaluation failures.
pub fn table1(p: &Protocol) -> Result<Vec<Table1Row>> {
    let mut rows = Vec::with_capacity(4);
    let cases = [
        (
            "occupied",
            &p.train_occupied,
            &p.val_occupied,
            occupied_horizon(&p.output),
        ),
        (
            "unoccupied",
            &p.train_unoccupied,
            &p.val_unoccupied,
            unoccupied_horizon(&p.output),
        ),
    ];
    for (mode, train, val, horizon) in cases {
        for order in [ModelOrder::First, ModelOrder::Second] {
            let model = fit_dense(p, order, train)?;
            let report = evaluate(
                &model,
                &p.output.dataset,
                val,
                &EvalConfig::with_horizon(horizon),
            )?;
            let rms = report.per_sensor_rms();
            rows.push(Table1Row {
                mode,
                order,
                p90: report.rms_percentile(90.0)?,
                overall: report.overall_rms(),
                min: rms.iter().copied().fold(f64::INFINITY, f64::min),
                max: rms.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            });
        }
    }
    Ok(rows)
}

/// Renders Table I alongside the paper's published values.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let paper = |mode: &str, order: ModelOrder| -> &'static str {
        match (mode, order) {
            ("occupied", ModelOrder::First) => "0.68",
            ("occupied", ModelOrder::Second) => "0.48",
            ("unoccupied", ModelOrder::First) => "0.37",
            ("unoccupied", ModelOrder::Second) => "0.25",
            _ => "?",
        }
    };
    let mut t = vec![vec![
        "mode".to_owned(),
        "order".to_owned(),
        "90th pct RMS".to_owned(),
        "overall".to_owned(),
        "per-sensor range".to_owned(),
        "paper".to_owned(),
    ]];
    for r in rows {
        t.push(vec![
            r.mode.to_owned(),
            r.order.to_string(),
            format!("{:.3}", r.p90),
            format!("{:.3}", r.overall),
            format!("{:.2}-{:.2}", r.min, r.max),
            paper(r.mode, r.order).to_owned(),
        ]);
    }
    render::table(&t)
}

/// Figure 3: ECDF of per-sensor RMS (occupied mode, 13.5 h windows)
/// for both model orders.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// `(rms, cumulative probability)` steps for the first-order
    /// model.
    pub first: Vec<(f64, f64)>,
    /// The same for the second-order model.
    pub second: Vec<(f64, f64)>,
}

/// Computes Fig. 3.
///
/// # Errors
///
/// Propagates identification and evaluation failures.
pub fn fig3(p: &Protocol) -> Result<Fig3Result> {
    let horizon = occupied_horizon(&p.output);
    let mut curves = Vec::with_capacity(2);
    for order in [ModelOrder::First, ModelOrder::Second] {
        let model = fit_dense(p, order, &p.train_occupied)?;
        let report = evaluate(
            &model,
            &p.output.dataset,
            &p.val_occupied,
            &EvalConfig::with_horizon(horizon),
        )?;
        curves.push(report.cdf()?.steps());
    }
    let second = curves.pop().ok_or(BenchError::Protocol {
        context: "Fig. 3 produced no curves",
    })?;
    let first = curves.pop().ok_or(BenchError::Protocol {
        context: "Fig. 3 produced one curve, expected two",
    })?;
    Ok(Fig3Result { first, second })
}

/// Renders Fig. 3 as an ASCII chart plus CSV.
pub fn render_fig3(r: &Fig3Result) -> (String, String) {
    let series: Vec<(&str, &[(f64, f64)])> =
        vec![("first-order", &r.first), ("second-order", &r.second)];
    (
        render::ascii_chart(&series, 60, 16),
        render::series_csv(&series),
    )
}

/// Figure 4: one validation day's measured trace against both models'
/// open-loop predictions for a single sensor.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// The traced sensor.
    pub sensor: String,
    /// Hour-of-campaign of each sample.
    pub hours: Vec<f64>,
    /// Measured temperatures, °C.
    pub measured: Vec<f64>,
    /// First-order predictions, °C.
    pub first: Vec<f64>,
    /// Second-order predictions, °C.
    pub second: Vec<f64>,
}

/// Computes Fig. 4 for the named sensor (the paper traces sensor 1).
///
/// # Errors
///
/// Fails when the sensor is not a modelled channel or no validation
/// day has a long-enough gap-free occupied window.
pub fn fig4(p: &Protocol, sensor: &str) -> Result<Fig4Result> {
    let dataset = &p.output.dataset;
    let temps = p.temperature_channels();
    let col = temps
        .iter()
        .position(|n| n == sensor)
        .ok_or(BenchError::Protocol {
            context: "Fig. 4 sensor is not a temperature channel",
        })?;
    let horizon = occupied_horizon(&p.output);

    let first_model = fit_dense(p, ModelOrder::First, &p.train_occupied)?;
    let second_model = fit_dense(p, ModelOrder::Second, &p.train_occupied)?;

    // Longest usable validation segment (second-order needs warmup 2).
    let segments = regressors::usable_segments(dataset, second_model.spec(), &p.val_occupied)?;
    let segment = segments
        .iter()
        .copied()
        .max_by_key(thermal_timeseries::Segment::len)
        .ok_or(BenchError::Protocol {
            context: "no usable validation segment for Fig. 4",
        })?;

    let pred1 = predict_segment(&first_model, dataset, segment, Some(horizon))?;
    let pred2 = predict_segment(&second_model, dataset, segment, Some(horizon))?;
    // Align on the shared indices (second order starts one step later).
    let start = pred1
        .indices
        .iter()
        .position(|i| *i == pred2.indices[0])
        .ok_or(BenchError::Protocol {
            context: "prediction windows of the two orders do not overlap",
        })?;

    let grid = dataset.grid();
    let n = pred2.indices.len().min(pred1.indices.len() - start);
    let mut hours = Vec::with_capacity(n);
    let mut measured = Vec::with_capacity(n);
    let mut first = Vec::with_capacity(n);
    let mut second = Vec::with_capacity(n);
    for k in 0..n {
        let idx = pred2.indices[k];
        let t = grid.timestamp(idx)?;
        hours.push(t.as_minutes() as f64 / 60.0);
        measured.push(pred2.measured[(k, col)]);
        first.push(pred1.predicted[(start + k, col)]);
        second.push(pred2.predicted[(k, col)]);
    }
    Ok(Fig4Result {
        sensor: sensor.to_owned(),
        hours,
        measured,
        first,
        second,
    })
}

/// Renders Fig. 4 as an ASCII chart plus CSV.
pub fn render_fig4(r: &Fig4Result) -> (String, String) {
    let zip = |ys: &[f64]| -> Vec<(f64, f64)> {
        r.hours.iter().copied().zip(ys.iter().copied()).collect()
    };
    let measured = zip(&r.measured);
    let first = zip(&r.first);
    let second = zip(&r.second);
    let series: Vec<(&str, &[(f64, f64)])> = vec![
        ("measured", &measured),
        ("first-order", &first),
        ("second-order", &second),
    ];
    (
        render::ascii_chart(&series, 64, 18),
        render::series_csv(&series),
    )
}

/// Figure 5: model quality as a function of training-data amount (top
/// panel) and prediction length (bottom panel).
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// `(training days, 90th-pct RMS)` per order.
    pub training: Vec<(f64, f64, f64)>,
    /// `(prediction hours, 90th-pct RMS)` per order.
    pub prediction: Vec<(f64, f64, f64)>,
}

/// Tags guarding the checkpoint payloads of the two Fig. 5 sweeps.
const FIG5_TRAIN_TAG: &str = "bench-fig5-train-v1";
const FIG5_PRED_TAG: &str = "bench-fig5-pred-v1";

/// Which Fig. 5 cells were restored from checkpoints versus
/// recomputed (both empty without a store).
#[derive(Debug, Clone, Default)]
pub struct Fig5Resume {
    /// Checkpoint names restored without recomputation.
    pub restored: Vec<String>,
    /// Checkpoint names computed (fresh, missing, or stale).
    pub computed: Vec<String>,
}

/// Fingerprint binding Fig. 5 checkpoints to the exact dataset,
/// masks, day split, and fit configuration that produced them. The
/// fingerprint is embedded in every cell *name*, so any change makes
/// old cells unreachable (and quarantined as unmanifested leftovers
/// on a later open) instead of silently reused.
fn fig5_fingerprint(p: &Protocol) -> u64 {
    let temps = p.temperature_channels();
    let inputs = p.input_channels();
    let temp_refs: Vec<&str> = temps.iter().map(String::as_str).collect();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let mut h = thermal_ckpt::Fnv64::new();
    h.update(
        &thermal_core::dataset_fingerprint(&p.output.dataset, &temp_refs, &input_refs, &p.occupied)
            .to_le_bytes(),
    );
    for mask in [&p.train_occupied, &p.val_occupied] {
        for &b in mask.bits() {
            h.update(&[u8::from(b)]);
        }
    }
    for days in [&p.split.train, &p.split.validation] {
        for &d in days.iter() {
            h.update(&d.to_le_bytes());
        }
        h.update(b";");
    }
    h.update(format!("{:?}", FitConfig::default()).as_bytes());
    h.finish()
}

/// The checkpoint side of a [`fig5`] run: the store, the fingerprint
/// every cell name carries, and which cells took which path.
struct Fig5Cells<'s> {
    store: &'s mut CheckpointStore,
    fingerprint: u64,
    resume: Fig5Resume,
}

/// Computes one Fig. 5 cell's f64 values. With a store, the cell
/// named `{stem}-{fingerprint}.ck` is restored instead when present,
/// and persisted after computing when not.
fn fig5_cell<F>(
    cells: Option<&mut Fig5Cells<'_>>,
    stem: &str,
    tag: &'static str,
    compute: F,
) -> Result<Vec<f64>>
where
    F: FnOnce() -> Result<Vec<f64>>,
{
    let Some(cells) = cells else {
        return compute();
    };
    let name = format!("{stem}-{:016x}.ck", cells.fingerprint);
    if let Some(bytes) = cells.store.get(&name)? {
        // A verified payload that fails to decode is an invariant
        // violation, not a cache miss.
        let record = Record::decode(&bytes, tag).map_err(BenchError::from)?;
        let values = record.get_f64_slice("values").map_err(BenchError::from)?;
        cells.resume.restored.push(name);
        return Ok(values);
    }
    let values = compute()?;
    let mut record = Record::new(tag);
    record.put_f64_slice("values", &values);
    cells.store.put(&name, &record.encode())?;
    cells.resume.computed.push(name);
    Ok(values)
}

/// Computes Fig. 5. Training-day counts follow the paper
/// (13/27/34/44/58) clipped to the available training half;
/// prediction lengths are 2.5/5/7.5/10/13.5 hours.
///
/// With a `store`, every `(training-day count, order)` point of the
/// top panel and each per-order horizon sweep of the bottom panel is
/// a resumable cell, and the returned [`Fig5Resume`] says which were
/// restored. The [`Fig5Result`] is bitwise the same with or without a
/// store, whether cold, resumed, or fully restored.
///
/// # Errors
///
/// Propagates sweep and checkpoint-store failures.
pub fn fig5(p: &Protocol, store: Option<&mut CheckpointStore>) -> Result<(Fig5Result, Fig5Resume)> {
    let dataset = &p.output.dataset;
    let sph = steps_per_hour(&p.output);
    let one_day = cast::floor_to_index(13.5 * sph as f64, usize::MAX - 1);
    let mut cells = store.map(|store| Fig5Cells {
        store,
        fingerprint: fig5_fingerprint(p),
        resume: Fig5Resume::default(),
    });
    let order_key = |order: ModelOrder| match order {
        ModelOrder::First => "o1",
        ModelOrder::Second => "o2",
    };

    // Top panel: sweep training horizon, predict one day ahead.
    let candidate_counts = [13usize, 27, 34, 44, 58];
    let max_train = p.split.train.len();
    let counts: Vec<usize> = candidate_counts
        .into_iter()
        .filter(|&c| c <= max_train)
        .collect();
    let counts = if counts.is_empty() {
        vec![max_train.saturating_sub(1).max(1)]
    } else {
        counts
    };
    let mut training = Vec::with_capacity(counts.len());
    for &count in &counts {
        let mut row = (count as f64, 0.0, 0.0);
        for (slot, order) in [ModelOrder::First, ModelOrder::Second]
            .into_iter()
            .enumerate()
        {
            let stem = format!("fig5-train-{count}-{}", order_key(order));
            let values = fig5_cell(cells.as_mut(), &stem, FIG5_TRAIN_TAG, || {
                let spec = ModelSpec::new(p.temperature_channels(), p.input_channels(), order)?;
                let points = thermal_sysid::sweep::sweep_training_horizon(
                    dataset,
                    &spec,
                    &p.occupied,
                    &p.split.train,
                    &[count],
                    &p.split.validation,
                    &FitConfig::default(),
                    &EvalConfig::with_horizon(one_day),
                )?;
                let point = points.first().ok_or(BenchError::Protocol {
                    context: "training sweep returned no points",
                })?;
                Ok(vec![point.report.rms_percentile(90.0)?])
            })?;
            let v = *values.first().ok_or(BenchError::Protocol {
                context: "Fig. 5 training cell payload is empty",
            })?;
            if slot == 0 {
                row.1 = v;
            } else {
                row.2 = v;
            }
        }
        training.push(row);
    }

    // Bottom panel: one model per order, sweep the horizon.
    let horizons: Vec<usize> = [2.5_f64, 5.0, 7.5, 10.0, 13.5]
        .into_iter()
        .map(|h| cast::floor_to_index(h * sph as f64, usize::MAX - 1))
        .collect();
    let mut prediction: Vec<(f64, f64, f64)> = horizons
        .iter()
        .map(|&h| (h as f64 / sph as f64, 0.0, 0.0))
        .collect();
    for (slot, order) in [ModelOrder::First, ModelOrder::Second]
        .into_iter()
        .enumerate()
    {
        let stem = format!("fig5-pred-{}", order_key(order));
        let values = fig5_cell(cells.as_mut(), &stem, FIG5_PRED_TAG, || {
            let spec = ModelSpec::new(p.temperature_channels(), p.input_channels(), order)?;
            let points = thermal_sysid::sweep::sweep_prediction_length(
                dataset,
                &spec,
                &p.train_occupied,
                &p.val_occupied,
                &horizons,
                &FitConfig::default(),
            )?;
            points
                .iter()
                .map(|point| Ok(point.report.rms_percentile(90.0)?))
                .collect()
        })?;
        if values.len() != prediction.len() {
            return Err(BenchError::Protocol {
                context: "Fig. 5 prediction cell has the wrong number of horizons",
            });
        }
        for (row, &v) in prediction.iter_mut().zip(&values) {
            if slot == 0 {
                row.1 = v;
            } else {
                row.2 = v;
            }
        }
    }

    let result = Fig5Result {
        training,
        prediction,
    };
    Ok((result, cells.map(|c| c.resume).unwrap_or_default()))
}

/// Renders Fig. 5 as two tables.
pub fn render_fig5(r: &Fig5Result) -> String {
    let mut out = String::from("training-data sweep (one-day prediction):\n");
    let mut t = vec![vec![
        "train days".to_owned(),
        "first-order".to_owned(),
        "second-order".to_owned(),
    ]];
    for &(d, a, b) in &r.training {
        t.push(vec![
            format!("{d:.0}"),
            format!("{a:.3}"),
            format!("{b:.3}"),
        ]);
    }
    out.push_str(&render::table(&t));
    out.push_str("\nprediction-length sweep:\n");
    let mut t = vec![vec![
        "hours".to_owned(),
        "first-order".to_owned(),
        "second-order".to_owned(),
    ]];
    for &(h, a, b) in &r.prediction {
        t.push(vec![
            format!("{h:.1}"),
            format!("{a:.3}"),
            format!("{b:.3}"),
        ]);
    }
    out.push_str(&render::table(&t));
    out
}

/// Residual-whiteness comparison of the two model orders (an
/// extension beyond the paper's figures): mean Ljung–Box Q over all
/// sensors at `max_lag` lags, computed on the validation half. Larger
/// Q = more unmodelled structure.
#[derive(Debug, Clone)]
pub struct DiagnosticsResult {
    /// Mean Q of the first-order model.
    pub first_q: f64,
    /// Mean Q of the second-order model.
    pub second_q: f64,
    /// Lags used.
    pub max_lag: usize,
}

/// Computes the whiteness comparison.
///
/// # Errors
///
/// Propagates identification and residual-analysis failures.
pub fn diagnostics(p: &Protocol, max_lag: usize) -> Result<DiagnosticsResult> {
    let mut qs = [0.0_f64; 2];
    for (slot, order) in [ModelOrder::First, ModelOrder::Second]
        .into_iter()
        .enumerate()
    {
        let model = fit_dense(p, order, &p.train_occupied)?;
        let report = thermal_sysid::diagnostics::residual_report(
            &model,
            &p.output.dataset,
            &p.val_occupied,
        )?;
        qs[slot] = report.mean_ljung_box(max_lag)?;
    }
    Ok(DiagnosticsResult {
        first_q: qs[0],
        second_q: qs[1],
        max_lag,
    })
}

/// Renders the whiteness comparison.
pub fn render_diagnostics(r: &DiagnosticsResult) -> String {
    let mut t = vec![vec![
        "order".to_owned(),
        format!("mean Ljung-Box Q ({} lags)", r.max_lag),
    ]];
    t.push(vec!["first-order".to_owned(), format!("{:.0}", r.first_q)]);
    t.push(vec![
        "second-order".to_owned(),
        format!("{:.0}", r.second_q),
    ]);
    let mut out = render::table(&t);
    out.push_str(
        "(whiteness reference: chi-square mean equals the lag count; larger = more unmodelled dynamics)\n",
    );
    out
}
