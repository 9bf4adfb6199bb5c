//! Open-loop evaluation of identified models: per-sensor RMS errors,
//! percentiles and CDFs — the quantities behind Table I and
//! Figures 3–5 of the paper.

use serde::{Deserialize, Serialize};

use thermal_linalg::kernels::RowPanels;
use thermal_linalg::stats::{self, EmpiricalCdf};
use thermal_linalg::Matrix;
use thermal_timeseries::{Dataset, Mask, Segment};

use crate::model::StateRows;
use crate::regressors::resolve_spec;
use crate::{Result, SysidError, ThermalModel};

/// Evaluation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Maximum open-loop prediction length per segment, in samples
    /// (`None` = predict to the end of each segment). The paper's
    /// headline evaluation uses 13.5 hours.
    pub horizon: Option<usize>,
    /// Segments shorter than this many samples are skipped.
    pub min_segment_len: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            horizon: None,
            min_segment_len: 6,
        }
    }
}

impl EvalConfig {
    /// Evaluation with a fixed prediction horizon in samples.
    pub fn with_horizon(horizon: usize) -> Self {
        EvalConfig {
            horizon: Some(horizon),
            ..EvalConfig::default()
        }
    }
}

/// One segment's open-loop prediction against measurements.
#[derive(Debug, Clone)]
pub struct TracePrediction {
    /// Grid indices of the predicted samples.
    pub indices: Vec<usize>,
    /// Measured outputs, one row per predicted sample.
    pub measured: Matrix,
    /// Model predictions, aligned with `measured`.
    pub predicted: Matrix,
}

impl TracePrediction {
    /// Per-sensor RMS error of this prediction.
    pub fn per_sensor_rms(&self) -> Vec<f64> {
        let p = self.measured.cols();
        (0..p)
            .map(|j| {
                let errs: Vec<f64> = (0..self.measured.rows())
                    .map(|i| self.measured[(i, j)] - self.predicted[(i, j)])
                    .collect();
                stats::rms(&errs).unwrap_or(f64::NAN)
            })
            .collect()
    }
}

/// Rolls `model` open-loop over one segment: the first `warmup`
/// samples seed the state, measured inputs drive the rest.
///
/// Resolves the model's channels by name on every call; callers that
/// predict many segments resolve once with [`SegmentPredictor`].
///
/// # Errors
///
/// * [`SysidError::InvalidSpec`] for channels missing from `dataset`,
/// * [`SysidError::InsufficientData`] when the segment is shorter than
///   the warmup plus one step,
/// * propagated extraction failures when the segment contains gaps.
pub fn predict_segment(
    model: &ThermalModel,
    dataset: &Dataset,
    segment: Segment,
    horizon: Option<usize>,
) -> Result<TracePrediction> {
    SegmentPredictor::new(model, dataset)?.predict(segment, horizon)
}

/// A model with its spec channels resolved against one dataset, so
/// predicting many segments looks each channel name up once instead
/// of once per segment. [`SegmentPredictor::predict`] is
/// [`predict_segment`] bit for bit.
///
/// The model's coefficients are also packed once here for the rollout
/// (see [`ThermalModel::simulate`]).
#[derive(Debug)]
pub struct SegmentPredictor<'a> {
    model: &'a ThermalModel,
    dataset: &'a Dataset,
    outputs: Vec<usize>,
    inputs: Vec<usize>,
    panels: RowPanels,
}

impl<'a> SegmentPredictor<'a> {
    /// Resolves `model`'s output and input channels in `dataset`.
    ///
    /// # Errors
    ///
    /// Returns [`SysidError::InvalidSpec`] for channels missing from
    /// `dataset`.
    pub fn new(model: &'a ThermalModel, dataset: &'a Dataset) -> Result<Self> {
        let (outputs, inputs) = resolve_spec(dataset, model.spec())?;
        Ok(SegmentPredictor {
            model,
            dataset,
            outputs,
            inputs,
            panels: RowPanels::new(model.coefficients()),
        })
    }

    /// Rolls the model open-loop over `segment`, as
    /// [`predict_segment`] does.
    ///
    /// # Errors
    ///
    /// * [`SysidError::InsufficientData`] when the segment is shorter
    ///   than the warmup plus one step,
    /// * propagated extraction failures when the segment contains gaps.
    pub fn predict(&self, segment: Segment, horizon: Option<usize>) -> Result<TracePrediction> {
        let mut scratch = RolloutScratch::default();
        let first = self.predict_into(segment, horizon, &mut scratch)?;
        let steps = scratch.rows;
        let predicted = Matrix::from_vec(steps, self.outputs.len(), scratch.predicted)?;
        let measured = self
            .dataset
            .matrix(Segment::new(first, first + steps), &self.outputs)?;
        Ok(TracePrediction {
            indices: (first..first + steps).collect(),
            measured,
            predicted,
        })
    }

    /// The predictions of [`SegmentPredictor::predict`] alone, without
    /// the measured matrix, into caller-owned buffers: returns the grid
    /// index of the first predicted sample and leaves one row per
    /// predicted sample in [`RolloutScratch::predicted`], bit for bit
    /// the rows of [`TracePrediction::predicted`]. The scratch keeps its
    /// capacity, so a caller that predicts many segments through one
    /// scratch allocates only while the longest segment so far grows it.
    ///
    /// # Errors
    ///
    /// * [`SysidError::InsufficientData`] when the segment is shorter
    ///   than the warmup plus one step,
    /// * propagated extraction failures when the warmup or input rows
    ///   contain gaps; the scratch holds no meaningful rows then.
    pub fn predict_into(
        &self,
        segment: Segment,
        horizon: Option<usize>,
        scratch: &mut RolloutScratch,
    ) -> Result<usize> {
        let warmup = self.model.spec().order.warmup();
        if segment.len() < warmup + 1 {
            return Err(SysidError::InsufficientData {
                available: segment.len(),
                required: warmup + 1,
            });
        }
        let steps = (segment.len() - warmup).min(horizon.unwrap_or(usize::MAX));
        let RolloutScratch {
            initial,
            inputs,
            predicted,
            rows,
            state,
        } = scratch;
        *rows = 0;
        self.dataset.matrix_into(
            Segment::new(segment.start, segment.start + warmup),
            &self.outputs,
            initial,
        )?;
        self.dataset.matrix_into(
            Segment::new(
                segment.start + warmup - 1,
                segment.start + warmup - 1 + steps,
            ),
            &self.inputs,
            inputs,
        )?;
        self.model
            .roll(&self.panels, (initial, inputs), steps, predicted, state)?;
        *rows = steps;
        Ok(segment.start + warmup)
    }
}

/// Caller-owned buffers of one open-loop rollout
/// ([`SegmentPredictor::predict_into`]): the initial rows, the input
/// rows, the predicted rows and the state rows each step rotates
/// through. Reused from segment to segment, they keep their capacity.
#[derive(Debug, Clone, Default)]
pub struct RolloutScratch {
    initial: Vec<f64>,
    inputs: Vec<f64>,
    predicted: Vec<f64>,
    /// Rows in `predicted`.
    rows: usize,
    state: StateRows,
}

impl RolloutScratch {
    /// The predictions of the last successful
    /// [`SegmentPredictor::predict_into`], row-major: one row of the
    /// model's outputs, in spec order, per predicted sample.
    pub fn predicted(&self) -> &[f64] {
        &self.predicted
    }

    /// The number of rows in [`RolloutScratch::predicted`].
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Aggregate evaluation results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    sensor_names: Vec<String>,
    per_sensor_rms: Vec<f64>,
    n_predictions: usize,
    n_segments: usize,
}

impl EvalReport {
    /// Sensor names, aligned with [`EvalReport::per_sensor_rms`].
    pub fn sensor_names(&self) -> &[String] {
        &self.sensor_names
    }

    /// RMS prediction error of each sensor over all evaluated
    /// segments.
    pub fn per_sensor_rms(&self) -> &[f64] {
        &self.per_sensor_rms
    }

    /// Total number of predicted samples.
    pub fn prediction_count(&self) -> usize {
        self.n_predictions
    }

    /// Number of segments evaluated.
    pub fn segment_count(&self) -> usize {
        self.n_segments
    }

    /// RMS over all sensors (root of the mean of per-sensor mean
    /// squared errors).
    pub fn overall_rms(&self) -> f64 {
        let n = self.per_sensor_rms.len() as f64;
        (self.per_sensor_rms.iter().map(|r| r * r).sum::<f64>() / n).sqrt()
    }

    /// Percentile of the per-sensor RMS distribution — the paper's
    /// "RMS at the 90th percentile".
    ///
    /// # Errors
    ///
    /// Propagates percentile-argument failures.
    pub fn rms_percentile(&self, p: f64) -> Result<f64> {
        Ok(stats::percentile(&self.per_sensor_rms, p)?)
    }

    /// ECDF over per-sensor RMS (Fig. 3's curves).
    ///
    /// # Errors
    ///
    /// Propagates ECDF construction failures (empty report).
    pub fn cdf(&self) -> Result<EmpiricalCdf> {
        Ok(EmpiricalCdf::new(&self.per_sensor_rms)?)
    }

    /// Iterates over `(sensor name, rms)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.sensor_names
            .iter()
            .map(String::as_str)
            .zip(self.per_sensor_rms.iter().copied())
    }
}

/// Evaluates a model open-loop over every usable segment of `mask`.
///
/// # Errors
///
/// * [`SysidError::InvalidSpec`] for channels missing from the
///   dataset,
/// * [`SysidError::InsufficientData`] when no segment is long enough.
pub fn evaluate(
    model: &ThermalModel,
    dataset: &Dataset,
    mask: &Mask,
    config: &EvalConfig,
) -> Result<EvalReport> {
    let spec = model.spec();
    let warmup = spec.order.warmup();
    let p = spec.output_count();

    let predictor = SegmentPredictor::new(model, dataset)?;
    let mut channels = predictor.outputs.clone();
    channels.extend(&predictor.inputs);
    let joint = dataset.joint_presence(&channels, mask)?;
    let mut scratch = RolloutScratch::default();
    let mut measured = Vec::new();
    let mut sq_sum = vec![0.0_f64; p];
    let mut count = 0usize;
    let mut n_segments = 0usize;
    for seg in joint.segments(config.min_segment_len.max(warmup + 1)) {
        let first = predictor.predict_into(seg, config.horizon, &mut scratch)?;
        let steps = scratch.rows();
        dataset.matrix_into(
            Segment::new(first, first + steps),
            &predictor.outputs,
            &mut measured,
        )?;
        let width = p.max(1);
        let rows = measured
            .chunks_exact(width)
            .zip(scratch.predicted().chunks_exact(width));
        for (measured, predicted) in rows {
            for ((sq, m), f) in sq_sum.iter_mut().zip(measured).zip(predicted) {
                let e = m - f;
                *sq += e * e;
            }
        }
        count += steps;
        n_segments += 1;
    }
    if count == 0 {
        return Err(SysidError::InsufficientData {
            available: 0,
            required: config.min_segment_len,
        });
    }
    let per_sensor_rms: Vec<f64> = sq_sum
        .into_iter()
        .map(|s| (s / count as f64).sqrt())
        .collect();
    Ok(EvalReport {
        sensor_names: spec.outputs.clone(),
        per_sensor_rms,
        n_predictions: count,
        n_segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{identify, FitConfig, ModelOrder, ModelSpec};
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    /// Dataset generated by a known first-order system, split into two
    /// halves by a gap.
    fn synth() -> Dataset {
        let n = 200;
        let u: Vec<f64> = (0..n)
            .map(|k| (k as f64 * 0.17).sin() * 0.5 + 0.5)
            .collect();
        let mut t = vec![18.0_f64];
        for k in 0..n - 1 {
            t.push(0.92 * t[k] + 1.2 * u[k]);
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
        Dataset::new(
            grid,
            vec![
                Channel::from_values("t", t).unwrap(),
                Channel::from_values("u", u).unwrap(),
            ],
        )
        .unwrap()
    }

    fn fitted(ds: &Dataset) -> ThermalModel {
        let spec = ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::First).unwrap();
        identify(ds, &spec, &Mask::all(ds.grid()), &FitConfig::plain()).unwrap()
    }

    #[test]
    fn perfect_model_has_zero_error() {
        let ds = synth();
        let model = fitted(&ds);
        let report = evaluate(&model, &ds, &Mask::all(ds.grid()), &EvalConfig::default()).unwrap();
        assert!(report.per_sensor_rms()[0] < 1e-9);
        assert_eq!(report.sensor_names(), &["t".to_owned()]);
        assert!(report.prediction_count() > 100);
        assert_eq!(report.segment_count(), 1);
        assert!(report.overall_rms() < 1e-9);
    }

    #[test]
    fn horizon_limits_prediction_length() {
        let ds = synth();
        let model = fitted(&ds);
        let seg = Segment::new(0, 50);
        let full = predict_segment(&model, &ds, seg, None).unwrap();
        assert_eq!(full.predicted.rows(), 49);
        let short = predict_segment(&model, &ds, seg, Some(10)).unwrap();
        assert_eq!(short.predicted.rows(), 10);
        assert_eq!(short.indices, (1..11).collect::<Vec<_>>());
    }

    #[test]
    fn wrong_model_has_positive_error() {
        let ds = synth();
        let spec = ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::First).unwrap();
        // Deliberately wrong coefficients.
        let bad = ThermalModel::new(
            spec,
            thermal_linalg::Matrix::from_rows(&[&[0.5, 0.0][..]]).unwrap(),
        )
        .unwrap();
        let report = evaluate(&bad, &ds, &Mask::all(ds.grid()), &EvalConfig::default()).unwrap();
        assert!(report.per_sensor_rms()[0] > 1.0);
        assert!(report.rms_percentile(90.0).unwrap() > 1.0);
        assert!(report.cdf().is_ok());
    }

    #[test]
    fn too_short_segment_is_rejected() {
        let ds = synth();
        let model = fitted(&ds);
        assert!(matches!(
            predict_segment(&model, &ds, Segment::new(0, 1), None),
            Err(SysidError::InsufficientData { .. })
        ));
    }

    #[test]
    fn empty_mask_reports_insufficient_data() {
        let ds = synth();
        let model = fitted(&ds);
        let none = Mask::none(ds.grid());
        assert!(matches!(
            evaluate(&model, &ds, &none, &EvalConfig::default()),
            Err(SysidError::InsufficientData { .. })
        ));
    }

    #[test]
    fn min_segment_len_filters_short_runs() {
        let ds = synth();
        let model = fitted(&ds);
        // Mask with one long run and one short run.
        let mut mask = Mask::none(ds.grid());
        for i in 0..40 {
            mask.set(i, true).unwrap();
        }
        for i in 50..54 {
            mask.set(i, true).unwrap();
        }
        let cfg = EvalConfig {
            min_segment_len: 10,
            ..EvalConfig::default()
        };
        let report = evaluate(&model, &ds, &mask, &cfg).unwrap();
        assert_eq!(report.segment_count(), 1);
    }

    #[test]
    fn trace_prediction_rms_matches_report() {
        let ds = synth();
        let model = fitted(&ds);
        let pred = predict_segment(&model, &ds, Segment::new(0, 30), None).unwrap();
        let rms = pred.per_sensor_rms();
        assert_eq!(rms.len(), 1);
        assert!(rms[0] < 1e-9);
    }
}
