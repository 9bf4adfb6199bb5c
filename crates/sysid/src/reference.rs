//! The batch data path as it was before rows were written in place,
//! kept as a test-only oracle: per-slot gathers into fresh `Vec`s,
//! regressor rows built by pushing, a slot-major presence walk and
//! matrix extraction, and an open-loop rollout that allocates its
//! prediction every step. Two later forms are kept beside them: the
//! sweep block accumulated as full rank-1 updates, and the rollout whose
//! every step is one [`Matrix::matvec_into`].
//!
//! The production path must match it bit for bit: the proptests below
//! (and the engine proptest in `cache.rs`) compare `to_bits` on random
//! gappy datasets and masks, for both model orders.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thermal_linalg::Matrix;
use thermal_timeseries::{
    segments_from_mask, Channel, Dataset, Mask, Segment, TimeGrid, Timestamp,
};

use crate::metrics::TracePrediction;
use crate::regressors::resolve_spec;
use crate::{ModelOrder, ModelSpec, Result, SysidError, ThermalModel};

/// Error of a reference gather that hit a gap.
const MISSING: SysidError = SysidError::Internal {
    context: "segmentation admitted a missing sample",
};

/// Dense values of `channels` at slot `i`; `None` when any is missing.
fn values_at(dataset: &Dataset, i: usize, channels: &[usize]) -> Option<Vec<f64>> {
    channels
        .iter()
        .map(|&c| dataset.channels().get(c).and_then(|ch| ch.value(i)))
        .collect()
}

/// Slot-wise joint presence of the spec's channels within `mask`, split into
/// segments long enough for one transition.
pub(crate) fn usable_segments(
    dataset: &Dataset,
    spec: &ModelSpec,
    mask: &Mask,
) -> Result<Vec<Segment>> {
    let (outputs, inputs) = resolve_spec(dataset, spec)?;
    let bits = (0..dataset.grid().len())
        .map(|i| {
            mask.get(i)
                && outputs
                    .iter()
                    .chain(&inputs)
                    .all(|&c| dataset.channels().get(c).is_some_and(|ch| ch.is_present(i)))
        })
        .collect();
    Ok(segments_from_mask(
        &Mask::from_bits(bits),
        spec.order.warmup() + 1,
    ))
}

/// The regressor `x = [T(k); (ΔT(k)); u(k)]` and target `T(k+1)` of
/// transition `k`, built by pushing onto fresh vectors.
fn row(
    dataset: &Dataset,
    outputs: &[usize],
    inputs: &[usize],
    warmup: usize,
    k: usize,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let t_now = values_at(dataset, k, outputs).ok_or(MISSING)?;
    let u_now = values_at(dataset, k, inputs).ok_or(MISSING)?;
    let t_next = values_at(dataset, k + 1, outputs).ok_or(MISSING)?;
    let mut x = t_now.clone();
    if warmup == 2 {
        let t_prev = values_at(dataset, k.wrapping_sub(1), outputs).ok_or(MISSING)?;
        for (now, prev) in t_now.iter().zip(&t_prev) {
            x.push(now - prev);
        }
    }
    x.extend_from_slice(&u_now);
    Ok((x, t_next))
}

/// One `Vec` per stacked row.
type Rows = Vec<Vec<f64>>;

/// Stacked `(X rows, Y rows, segments)` of the piece-wise problem.
fn assemble(
    dataset: &Dataset,
    spec: &ModelSpec,
    mask: &Mask,
) -> Result<(Rows, Rows, Vec<Segment>)> {
    let (outputs, inputs) = resolve_spec(dataset, spec)?;
    let segments = usable_segments(dataset, spec, mask)?;
    let warmup = spec.order.warmup();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for seg in &segments {
        for k in (seg.start + warmup - 1)..(seg.end - 1) {
            let (x, y) = row(dataset, &outputs, &inputs, warmup, k)?;
            xs.push(x);
            ys.push(y);
        }
    }
    if xs.len() < spec.regressor_width() {
        return Err(SysidError::InsufficientData {
            available: xs.len(),
            required: spec.regressor_width(),
        });
    }
    Ok((xs, ys, segments))
}

/// `gram += x xᵀ`, `cross += x yᵀ` over transitions `[a, b)`, in
/// ascending order.
pub(crate) fn accumulate_rows(
    dataset: &Dataset,
    spec: &ModelSpec,
    (a, b): (usize, usize),
    gram: &mut [f64],
    cross: &mut [f64],
) -> Result<()> {
    let (outputs, inputs) = resolve_spec(dataset, spec)?;
    for k in a..b {
        let (x, y) = row(dataset, &outputs, &inputs, spec.order.warmup(), k)?;
        for (i, &xi) in x.iter().enumerate() {
            let grow = gram
                .get_mut(i * x.len()..(i + 1) * x.len())
                .ok_or(MISSING)?;
            for (g, &xj) in grow.iter_mut().zip(&x) {
                *g += xi * xj;
            }
            let crow = cross
                .get_mut(i * y.len()..(i + 1) * y.len())
                .ok_or(MISSING)?;
            for (c, &yj) in crow.iter_mut().zip(&y) {
                *c += xi * yj;
            }
        }
    }
    Ok(())
}

/// The sweep engine's block over written rows as full rank-1 updates:
/// `gram += x xᵀ` on every entry and `cross += x yᵀ`, row by row.
pub(crate) fn full_block(
    row_x: &[f64],
    row_y: &[f64],
    width: usize,
    p: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut gram = vec![0.0; width * width];
    let mut cross = vec![0.0; width * p];
    for (x, y) in row_x.chunks_exact(width).zip(row_y.chunks_exact(p)) {
        for (i, &xi) in x.iter().enumerate() {
            for (g, &xj) in gram[i * width..(i + 1) * width].iter_mut().zip(x) {
                *g += xi * xj;
            }
            for (c, &yj) in cross[i * p..(i + 1) * p].iter_mut().zip(y) {
                *c += xi * yj;
            }
        }
    }
    (gram, cross)
}

/// Open-loop rollout whose every step is `predict_next_into`, i.e. one
/// [`Matrix::matvec_into`] of `Θ`, four rows per pass.
pub(crate) fn simulate_matvec(
    model: &ThermalModel,
    initial: &Matrix,
    inputs: &Matrix,
) -> Result<Matrix> {
    let second = model.spec().order == ModelOrder::Second;
    let mut out = Matrix::zeros(inputs.rows(), model.spec().output_count());
    let mut prev = initial.row(0).to_vec();
    let mut cur = initial.row(initial.rows() - 1).to_vec();
    let (mut regressor, mut next) = (Vec::new(), Vec::new());
    for k in 0..inputs.rows() {
        model.predict_next_into(
            &cur,
            second.then_some(&prev[..]),
            inputs.row(k),
            &mut regressor,
            &mut next,
        )?;
        out.row_mut(k).copy_from_slice(&next);
        std::mem::swap(&mut prev, &mut cur);
        std::mem::swap(&mut cur, &mut next);
    }
    Ok(out)
}

/// One-step prediction through a pushed regressor and a fresh output.
fn predict_next(model: &ThermalModel, t: &[f64], t_prev: Option<&[f64]>, u: &[f64]) -> Vec<f64> {
    let mut regressor = t.to_vec();
    if let (ModelOrder::Second, Some(prev)) = (model.spec().order, t_prev) {
        for (a, b) in t.iter().zip(prev) {
            regressor.push(a - b);
        }
    }
    regressor.extend_from_slice(u);
    let coef = model.coefficients();
    (0..coef.rows())
        .map(|r| coef.row(r).iter().zip(&regressor).map(|(a, b)| a * b).sum())
        .collect()
}

/// Open-loop rollout allocating each step's state.
fn simulate(model: &ThermalModel, initial: &Matrix, inputs: &Matrix) -> Matrix {
    let second = model.spec().order == ModelOrder::Second;
    let mut out = Matrix::zeros(inputs.rows(), model.spec().output_count());
    let mut prev = initial.row(0).to_vec();
    let mut cur = initial.row(initial.rows() - 1).to_vec();
    for k in 0..inputs.rows() {
        let next = predict_next(model, &cur, second.then_some(&prev[..]), inputs.row(k));
        out.row_mut(k).copy_from_slice(&next);
        prev = std::mem::replace(&mut cur, next);
    }
    out
}

/// Slot-major dense extraction; `None` over a gap.
fn matrix(dataset: &Dataset, segment: Segment, channels: &[usize]) -> Option<Matrix> {
    let mut data = Vec::new();
    for i in segment.indices() {
        data.extend(values_at(dataset, i, channels)?);
    }
    Matrix::from_vec(segment.len(), channels.len(), data).ok()
}

/// Open-loop prediction of one segment.
fn predict_segment(
    model: &ThermalModel,
    dataset: &Dataset,
    segment: Segment,
    horizon: Option<usize>,
) -> Result<TracePrediction> {
    let (outputs, inputs) = resolve_spec(dataset, model.spec())?;
    let warmup = model.spec().order.warmup();
    let steps = (segment.len() - warmup).min(horizon.unwrap_or(usize::MAX));
    let first = segment.start + warmup;
    let init = matrix(dataset, Segment::new(segment.start, first), &outputs).ok_or(MISSING)?;
    let input_rows =
        matrix(dataset, Segment::new(first - 1, first - 1 + steps), &inputs).ok_or(MISSING)?;
    let measured = matrix(dataset, Segment::new(first, first + steps), &outputs).ok_or(MISSING)?;
    Ok(TracePrediction {
        indices: (first..first + steps).collect(),
        predicted: simulate(model, &init, &input_rows),
        measured,
    })
}

/// One-step residual series per output over the usable segments.
fn residuals(model: &ThermalModel, dataset: &Dataset, mask: &Mask) -> Result<Vec<Vec<f64>>> {
    let spec = model.spec();
    let (outputs, inputs) = resolve_spec(dataset, spec)?;
    let warmup = spec.order.warmup();
    let mut residuals = vec![Vec::new(); outputs.len()];
    for seg in usable_segments(dataset, spec, mask)? {
        for k in (seg.start + warmup - 1)..(seg.end - 1) {
            let t_now = values_at(dataset, k, &outputs).ok_or(MISSING)?;
            let u_now = values_at(dataset, k, &inputs).ok_or(MISSING)?;
            let t_prev = if warmup == 2 {
                Some(values_at(dataset, k - 1, &outputs).ok_or(MISSING)?)
            } else {
                None
            };
            let predicted = predict_next(model, &t_now, t_prev.as_deref(), &u_now);
            let actual = values_at(dataset, k + 1, &outputs).ok_or(MISSING)?;
            for ((series, a), f) in residuals.iter_mut().zip(&actual).zip(&predicted) {
                series.push(a - f);
            }
        }
    }
    Ok(residuals)
}

/// One random oracle case: a gappy dataset, a spec over some of its
/// channels, a selection mask and a model over the spec.
#[derive(Debug, Clone)]
pub(crate) struct Case {
    /// `p` outputs `t*`, one unmodelled channel and `m` inputs `u*`.
    pub dataset: Dataset,
    /// The modelled channels and order.
    pub spec: ModelSpec,
    /// Slots the fit may use.
    pub mask: Mask,
    /// Coefficients with row sums of `|Θ|` below one, so rollouts stay
    /// bounded.
    pub model: ThermalModel,
}

impl Case {
    /// Draws a case with `p` outputs, `m` inputs and `n` slots from
    /// `seed`: each sample is present with probability 0.9 and the mask
    /// keeps a slot with probability 0.85.
    ///
    /// # Errors
    ///
    /// Propagates construction failures of the dataset, spec or model.
    pub(crate) fn draw(p: usize, m: usize, n: usize, order: ModelOrder, seed: u64) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        let outputs: Vec<String> = (0..p).map(|i| format!("t{i}")).collect();
        let inputs: Vec<String> = (0..m).map(|i| format!("u{i}")).collect();
        let decoy = ["decoy".to_owned()];
        let mut channels = Vec::new();
        for name in outputs.iter().chain(&decoy).chain(&inputs) {
            let base = if name.starts_with('t') { 21.0 } else { 0.5 };
            let values = (0..n)
                .map(|_| rng.gen_bool(0.9).then(|| base + rng.gen_range(-3.0..3.0)))
                .collect();
            channels.push(Channel::new(name.clone(), values)?);
        }
        let dataset = Dataset::new(TimeGrid::new(Timestamp::from_minutes(0), 5, n)?, channels)?;
        let mask = Mask::from_bits((0..n).map(|_| rng.gen_bool(0.85)).collect());
        let spec = ModelSpec::new(outputs, inputs, order)?;
        let bound = 1.0 / spec.regressor_width() as f64;
        let coef = Matrix::from_fn(p, spec.regressor_width(), |_, _| {
            rng.gen_range(-bound..bound)
        });
        let model = ThermalModel::new(spec.clone(), coef)?;
        Ok(Case {
            dataset,
            spec,
            mask,
            model,
        })
    }
}

/// Bit patterns of `values`.
pub(crate) fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::residual_report;
    use crate::regressors;
    use proptest::prelude::*;

    fn matrix_bits(m: &Matrix) -> Vec<u64> {
        bits(m.as_slice())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Batch assembly, open-loop rollout and residuals equal the
        /// reference path bit for bit.
        #[test]
        fn batch_path_matches_reference(
            shape in (1usize..=3, 1usize..=2, 12usize..90),
            second in any::<bool>(),
            seed in any::<u64>(),
            horizon in 0usize..40,
        ) {
            let horizon = (horizon > 0).then_some(horizon);
            let order = if second { ModelOrder::Second } else { ModelOrder::First };
            let (p, m, n) = shape;
            let Case { dataset, spec, mask, model } = Case::draw(p, m, n, order, seed).unwrap();

            let got = regressors::assemble(&dataset, &spec, &mask);
            match (got, assemble(&dataset, &spec, &mask)) {
                (Ok(data), Ok((xs, ys, segments))) => {
                    prop_assert_eq!(data.x.rows(), xs.len());
                    for (r, (x, y)) in xs.iter().zip(&ys).enumerate() {
                        prop_assert_eq!(bits(data.x.row(r)), bits(x), "X row {}", r);
                        prop_assert_eq!(bits(data.y.row(r)), bits(y), "Y row {}", r);
                    }
                    prop_assert_eq!(data.segments, segments);
                }
                (Err(_), Err(_)) => {}
                (got, want) => prop_assert!(false, "assemble: {:?} vs {:?}", got.is_ok(), want.is_ok()),
            }

            let segments = usable_segments(&dataset, &spec, &mask).unwrap();
            prop_assert_eq!(&regressors::usable_segments(&dataset, &spec, &mask).unwrap(), &segments);
            for &seg in &segments {
                let got = crate::predict_segment(&model, &dataset, seg, horizon).unwrap();
                let want = predict_segment(&model, &dataset, seg, horizon).unwrap();
                prop_assert_eq!(&got.indices, &want.indices);
                prop_assert_eq!(matrix_bits(&got.measured), matrix_bits(&want.measured));
                prop_assert_eq!(matrix_bits(&got.predicted), matrix_bits(&want.predicted));
            }

            // One scratch across every segment, as the validation loops
            // use it.
            let predictor = crate::SegmentPredictor::new(&model, &dataset).unwrap();
            let mut scratch = crate::RolloutScratch::default();
            for &seg in &segments {
                let first = predictor.predict_into(seg, horizon, &mut scratch).unwrap();
                let want = predict_segment(&model, &dataset, seg, horizon).unwrap();
                prop_assert_eq!(Some(&first), want.indices.first());
                prop_assert_eq!(scratch.rows(), want.predicted.rows());
                prop_assert_eq!(bits(scratch.predicted()), matrix_bits(&want.predicted));
            }

            match (residual_report(&model, &dataset, &mask), residuals(&model, &dataset, &mask)) {
                (Ok(report), Ok(want)) => {
                    for (s, series) in want.iter().enumerate() {
                        prop_assert_eq!(bits(report.residuals(s)), bits(series), "sensor {}", s);
                    }
                }
                (Err(_), Ok(want)) => prop_assert!(want[0].is_empty(), "residual_report failed"),
                (Ok(_), Err(e)) => prop_assert!(false, "reference failed: {}", e),
                (Err(_), Err(_)) => {}
            }
        }

        /// Open-loop rollouts equal the `matvec_into` rollout and the
        /// per-row reference at output counts on both sides of the
        /// eight-row panels, for both orders; segment predictions equal
        /// the reference too.
        #[test]
        fn rollouts_match_reference_across_panel_widths(
            pick in 0usize..7,
            m in 0usize..4,
            steps in 0usize..30,
            second in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let p = [1, 7, 8, 9, 16, 17, 27][pick];
            let order = if second { ModelOrder::Second } else { ModelOrder::First };
            let Case { dataset, mask, model, .. } = Case::draw(p, m, 40, order, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 3);
            let mut draw = |rows: usize, cols: usize| {
                Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-30.0..30.0),
                })
            };
            let initial = draw(order.warmup(), p);
            let inputs = draw(steps, m);
            let got = model.simulate(&initial, &inputs).unwrap();
            prop_assert_eq!(matrix_bits(&got), matrix_bits(&simulate_matvec(&model, &initial, &inputs).unwrap()));
            prop_assert_eq!(matrix_bits(&got), matrix_bits(&simulate(&model, &initial, &inputs)));

            // Gaps filled, so wide models still see long segments.
            let channels = dataset
                .channels()
                .iter()
                .map(|ch| {
                    let values = ch.values().iter().map(|v| Some(v.unwrap_or(21.0))).collect();
                    Channel::new(ch.name(), values).unwrap()
                })
                .collect();
            let dense = Dataset::new(*dataset.grid(), channels).unwrap();
            let predictor = crate::SegmentPredictor::new(&model, &dense).unwrap();
            let segments = usable_segments(&dense, model.spec(), &mask).unwrap();
            prop_assert!(!segments.is_empty());
            for seg in segments {
                let got = predictor.predict(seg, None).unwrap();
                let want = predict_segment(&model, &dense, seg, None).unwrap();
                prop_assert_eq!(matrix_bits(&got.predicted), matrix_bits(&want.predicted));
                prop_assert_eq!(matrix_bits(&got.measured), matrix_bits(&want.measured));
            }
        }
    }
}
