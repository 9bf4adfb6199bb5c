//! Regressor assembly: turn a gap-ridden dataset into the stacked
//! `(X, Y)` pair of the paper's piece-wise least-squares problem
//! (Eq. 4).
//!
//! For every contiguous segment where all modelled channels are
//! present, each admissible index `k` contributes one row
//! `x = [T(k); (ΔT(k)); u(k)]` and one target row `y = T(k+1)`.
//! Rows never straddle segment boundaries, which is exactly what makes
//! the objective *piece-wise*. [`write_regressor`] is the only place
//! that layout is written down.
//!
//! [`assemble`] stacks every row into one `(X, Y)` pair; a ridge fit
//! ([`crate::identify`]) never stacks them: `RangeFold` writes one
//! segment's rows at a time into one reused panel of at most 128 rows
//! and sums each segment's normal equations, so nothing it allocates
//! grows with the number of transitions.

use thermal_linalg::lstsq::RidgeNormalEquations;
use thermal_linalg::Matrix;
use thermal_timeseries::{Dataset, Mask, Segment};

use crate::cache::GramBlock;
use crate::{ModelOrder, ModelSpec, Result, SysidError};

/// The assembled regression problem.
#[derive(Debug, Clone)]
pub struct RegressionData {
    /// Stacked regressors, one row per transition.
    pub x: Matrix,
    /// Stacked one-step targets, aligned with `x`.
    pub y: Matrix,
    /// The segments that contributed transitions.
    pub segments: Vec<Segment>,
}

impl RegressionData {
    /// Number of transitions (rows).
    pub fn transition_count(&self) -> usize {
        self.x.rows()
    }
}

/// Resolves the spec's channel names against a dataset.
///
/// # Errors
///
/// Returns [`SysidError::InvalidSpec`] naming the first missing
/// channel.
pub fn resolve_spec(dataset: &Dataset, spec: &ModelSpec) -> Result<(Vec<usize>, Vec<usize>)> {
    let find = |name: &String| {
        dataset
            .channel_index(name)
            .ok_or_else(|| SysidError::InvalidSpec {
                reason: format!("channel {name:?} not in dataset"),
            })
    };
    let outputs: Vec<usize> = spec.outputs.iter().map(find).collect::<Result<_>>()?;
    let inputs: Vec<usize> = spec.inputs.iter().map(find).collect::<Result<_>>()?;
    Ok((outputs, inputs))
}

/// Segments of `mask` on which *all* spec channels are present, long
/// enough to contribute at least one transition.
///
/// The segments come straight off the channels' presence words and the
/// mask ([`Dataset::joint_presence`]); no grid-length mask is built.
///
/// # Errors
///
/// Propagates channel-resolution failures.
pub fn usable_segments(dataset: &Dataset, spec: &ModelSpec, mask: &Mask) -> Result<Vec<Segment>> {
    let (mut all, inputs) = resolve_spec(dataset, spec)?;
    all.extend(&inputs);
    let joint = dataset.joint_presence(&all, mask)?;
    Ok(joint.segments(spec.order.warmup() + 1).collect())
}

/// Writes the regressor of one transition, `x = [T(k); (T(k) − T(k−1));
/// u(k)]`, into `x`; the transition's target is the measured `T(k+1)`.
///
/// This is the one definition of the regressor layout: batch assembly,
/// the sweep engine, residual diagnostics, one-step prediction and the
/// live recursive estimator all write their rows through it.
/// `t_prev = Some(T(k−1))` writes a second-order row
/// (`x.len() == 2p + m`), `None` a first-order one (`x.len() == p + m`).
///
/// Returns `false`, leaving `x` untouched, when the lengths do not fit
/// that layout.
pub fn write_regressor(t_now: &[f64], t_prev: Option<&[f64]>, u: &[f64], x: &mut [f64]) -> bool {
    let p = t_now.len();
    let state_len = if t_prev.is_some() { 2 * p } else { p };
    if x.len() != state_len + u.len() || t_prev.is_some_and(|prev| prev.len() != p) {
        return false;
    }
    let (state, inputs) = x.split_at_mut(state_len);
    let (level, increment) = state.split_at_mut(p);
    level.copy_from_slice(t_now);
    if let Some(prev) = t_prev {
        for ((d, now), before) in increment.iter_mut().zip(t_now).zip(prev) {
            *d = now - before;
        }
    }
    inputs.copy_from_slice(u);
    true
}

/// The slots a run of transitions reads, outputs and inputs row-major
/// ([`Dataset::matrix_into`]): [`write_transitions`]' buffers, reused
/// from run to run.
#[derive(Debug, Default)]
pub(crate) struct RunSlots {
    t: Vec<f64>,
    u: Vec<f64>,
}

impl RunSlots {
    /// Buffers for runs of up to `rows` transitions, reserved once.
    fn for_runs(rows: usize, order: ModelOrder, outputs: usize, inputs: usize) -> Self {
        RunSlots {
            t: Vec::with_capacity((rows + order.warmup()) * outputs),
            u: Vec::with_capacity((rows + order.warmup()) * inputs),
        }
    }
}

/// Writes transitions `k ∈ [a, b)` of one gap-free run into `x`
/// (`b − a` regressor rows, row-major) and `y` (their targets).
///
/// The slots the run reads, `a + 1 − warmup ..= b`, are extracted
/// column by column into `slots` ([`Dataset::matrix_into`]); every row
/// then goes through [`write_regressor`]. Allocation scales with the
/// number of runs (and not even that once `slots` holds the longest),
/// not with their length in samples.
///
/// # Errors
///
/// * propagated extraction failures when a read slot is missing or out
///   of range,
/// * [`SysidError::Internal`] when `x`/`y` do not hold `b − a` rows or
///   the run starts before its warmup.
pub(crate) fn write_transitions(
    dataset: &Dataset,
    outputs: &[usize],
    inputs: &[usize],
    order: ModelOrder,
    (a, b): (usize, usize),
    (x, y): (&mut [f64], &mut [f64]),
    slots: &mut RunSlots,
) -> Result<()> {
    let mismatch = || SysidError::Internal {
        context: "transition buffers do not match the run",
    };
    let (p, m) = (outputs.len(), inputs.len());
    let width = order.state_blocks() * p + m;
    let rows = b.saturating_sub(a);
    let Some(first) = (a + 1).checked_sub(order.warmup()) else {
        return Err(mismatch());
    };
    if p == 0 || x.len() != rows * width || y.len() != rows * p {
        return Err(mismatch());
    }
    if rows == 0 {
        return Ok(());
    }
    let read = Segment::new(first, b + 1);
    dataset.matrix_into(read, outputs, &mut slots.t)?;
    dataset.matrix_into(read, inputs, &mut slots.u)?;
    let (t, u) = (slots.t.as_slice(), slots.u.as_slice());
    let t_row = |i: usize| t.get(i * p..(i + 1) * p);
    let rows = x.chunks_exact_mut(width).zip(y.chunks_exact_mut(p));
    for (r, (xr, yr)) in rows.enumerate() {
        // Row of T(k) within the extracted slots.
        let now = r + order.warmup() - 1;
        let t_prev = match order {
            ModelOrder::First => None,
            ModelOrder::Second => Some(t_row(now - 1).ok_or_else(mismatch)?),
        };
        let (Some(t_now), Some(t_next), Some(u_now)) =
            (t_row(now), t_row(now + 1), u.get(now * m..(now + 1) * m))
        else {
            return Err(mismatch());
        };
        if !write_regressor(t_now, t_prev, u_now, xr) {
            return Err(mismatch());
        }
        yr.copy_from_slice(t_next);
    }
    Ok(())
}

/// Assembles the stacked regression problem over the usable segments
/// of `mask`.
///
/// # Errors
///
/// * [`SysidError::InvalidSpec`] for unknown channels,
/// * [`SysidError::InsufficientData`] when fewer transitions than
///   regressor columns are available (the LS problem would be
///   under-determined).
pub fn assemble(dataset: &Dataset, spec: &ModelSpec, mask: &Mask) -> Result<RegressionData> {
    let (outputs, inputs) = resolve_spec(dataset, spec)?;
    let segments = usable_segments(dataset, spec, mask)?;
    let warmup = spec.order.warmup();
    let width = spec.regressor_width();
    let total: usize = segments.iter().map(|s| s.transition_count(warmup)).sum();
    if total < width {
        return Err(SysidError::InsufficientData {
            available: total,
            required: width,
        });
    }
    let p = outputs.len();
    let mut x = vec![0.0_f64; total * width];
    let mut y = vec![0.0_f64; total * p];
    // Each segment writes its own row block of X and Y (the rows a
    // segment contributes depend only on that segment), so the blocks
    // fan out over the configured thread count — bitwise identical to
    // the sequential walk for any thread count.
    let mut blocks = Vec::with_capacity(segments.len());
    let (mut x_rest, mut y_rest) = (x.as_mut_slice(), y.as_mut_slice());
    for seg in &segments {
        let count = seg.transition_count(warmup);
        let (xb, xt) = std::mem::take(&mut x_rest).split_at_mut(count * width);
        let (yb, yt) = std::mem::take(&mut y_rest).split_at_mut(count * p);
        (x_rest, y_rest) = (xt, yt);
        blocks.push((*seg, xb, yb, Ok(())));
    }
    thermal_par::parallel_chunks_mut(&mut blocks, 1, |_, chunk| {
        for (seg, xb, yb, status) in chunk {
            // The transitions `k ∈ [a, b)` of the segment.
            let run = (seg.start + warmup - 1, seg.end - 1);
            let mut slots = RunSlots::default();
            *status = write_transitions(
                dataset,
                &outputs,
                &inputs,
                spec.order,
                run,
                (xb, yb),
                &mut slots,
            );
        }
    });
    for (_, _, _, status) in blocks {
        status?;
    }

    Ok(RegressionData {
        x: Matrix::from_vec(total, width, x)?,
        y: Matrix::from_vec(total, p, y)?,
        segments,
    })
}

/// Regressor rows per panel of a [`RangeFold`].
const PANEL_ROWS: usize = 128;

/// The normal equations of one gap-free run of transitions at a time,
/// the pieces of Problem (4)'s sum: the run's rows go through
/// [`write_transitions`] into one reused panel of at most
/// [`PANEL_ROWS`] rows, and each panel folds into chains that start
/// from `+0.0` at the run's first row ([`RidgeNormalEquations`]).
/// Nothing it holds grows with the run.
#[derive(Debug)]
pub(crate) struct RangeFold {
    outputs: Vec<usize>,
    inputs: Vec<usize>,
    order: ModelOrder,
    x: Vec<f64>,
    y: Vec<f64>,
    slots: RunSlots,
    piece: RidgeNormalEquations,
}

impl RangeFold {
    /// A fold for runs of a spec whose channels resolve to `outputs`
    /// and `inputs`.
    pub(crate) fn new(outputs: Vec<usize>, inputs: Vec<usize>, order: ModelOrder) -> Result<Self> {
        let (p, m) = (outputs.len(), inputs.len());
        let width = order.state_blocks() * p + m;
        Ok(RangeFold {
            x: vec![0.0; PANEL_ROWS * width],
            y: vec![0.0; PANEL_ROWS * p],
            slots: RunSlots::for_runs(PANEL_ROWS, order, p, m),
            piece: RidgeNormalEquations::new(width, p, 0.0)?,
            outputs,
            inputs,
            order,
        })
    }

    /// Adds the normal equations of transitions `[a, b)` of one gap-free
    /// run into `sums`.
    ///
    /// The chains are drained into `sums` even when a row fails, so the
    /// next run starts from `+0.0`; `sums` then holds part of this run,
    /// and the caller discards it.
    ///
    /// # Errors
    ///
    /// As [`write_transitions`], plus a non-finite regressor or target
    /// (`NonFinite`).
    pub(crate) fn add_run(
        &mut self,
        dataset: &Dataset,
        (a, b): (usize, usize),
        sums: &mut GramBlock,
    ) -> Result<()> {
        let folded = self.fold_run(dataset, (a, b));
        sums.drain(&mut self.piece)?;
        folded
    }

    /// Folds the run's rows into the piece, one panel at a time.
    fn fold_run(&mut self, dataset: &Dataset, (a, b): (usize, usize)) -> Result<()> {
        let p = self.outputs.len();
        let width = self.order.state_blocks() * p + self.inputs.len();
        let mut start = a;
        while start < b {
            let rows = (b - start).min(PANEL_ROWS);
            let (x, _) = self.x.split_at_mut(rows * width);
            let (y, _) = self.y.split_at_mut(rows * p);
            let run = (start, start + rows);
            let (outputs, inputs) = (&self.outputs, &self.inputs);
            write_transitions(
                dataset,
                outputs,
                inputs,
                self.order,
                run,
                (x, y),
                &mut self.slots,
            )?;
            self.piece.fold(x, y)?;
            start += rows;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    fn dataset() -> Dataset {
        // t: 1 2 3 4 _ 6 7 8 9 10 ; u: constant 0.5 with one gap at 5
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 10).unwrap();
        let t: Vec<Option<f64>> = vec![
            Some(1.0),
            Some(2.0),
            Some(3.0),
            Some(4.0),
            None,
            Some(6.0),
            Some(7.0),
            Some(8.0),
            Some(9.0),
            Some(10.0),
        ];
        let u: Vec<Option<f64>> = (0..10)
            .map(|i| if i == 5 { None } else { Some(0.5) })
            .collect();
        Dataset::new(
            grid,
            vec![Channel::new("t", t).unwrap(), Channel::new("u", u).unwrap()],
        )
        .unwrap()
    }

    fn spec(order: ModelOrder) -> ModelSpec {
        ModelSpec::new(vec!["t".into()], vec!["u".into()], order).unwrap()
    }

    #[test]
    fn resolve_rejects_unknown_channels() {
        let ds = dataset();
        let bad = ModelSpec::new(vec!["zz".into()], vec![], ModelOrder::First).unwrap();
        assert!(matches!(
            resolve_spec(&ds, &bad),
            Err(SysidError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn first_order_rows_respect_gaps() {
        let ds = dataset();
        let mask = Mask::all(ds.grid());
        let data = assemble(&ds, &spec(ModelOrder::First), &mask).unwrap();
        // Usable joint-presence runs: [0..4) and [6..10) — slot 4 has
        // no t, slot 5 has no u. Transitions: 3 in the first run, 3 in
        // the second.
        assert_eq!(data.transition_count(), 6);
        assert_eq!(data.x.shape(), (6, 2));
        assert_eq!(data.y.shape(), (6, 1));
        assert_eq!(data.x.row(0), &[1.0, 0.5]);
        assert_eq!(data.y[(0, 0)], 2.0);
        assert_eq!(data.x.row(5), &[9.0, 0.5]);
        assert_eq!(data.y[(5, 0)], 10.0);
    }

    #[test]
    fn second_order_rows_include_increment() {
        let ds = dataset();
        let mask = Mask::all(ds.grid());
        let data = assemble(&ds, &spec(ModelOrder::Second), &mask).unwrap();
        // Segment [0..4): transitions at k=1,2 (k=0 lacks T(k-1)).
        // Segment [6..10): transitions at k=7,8.
        assert_eq!(data.transition_count(), 4);
        assert_eq!(data.x.shape(), (4, 3));
        // Row 0: T(1)=2, ΔT = 1, u = 0.5 -> y = 3.
        assert_eq!(data.x.row(0), &[2.0, 1.0, 0.5]);
        assert_eq!(data.y[(0, 0)], 3.0);
    }

    #[test]
    fn mask_restricts_transitions() {
        let ds = dataset();
        // Only slots 0..3 selected.
        let mut mask = Mask::none(ds.grid());
        for i in 0..3 {
            mask.set(i, true).unwrap();
        }
        let data = assemble(&ds, &spec(ModelOrder::First), &mask).unwrap();
        assert_eq!(data.transition_count(), 2);
    }

    #[test]
    fn insufficient_data_is_reported() {
        let ds = dataset();
        let mut mask = Mask::none(ds.grid());
        mask.set(0, true).unwrap();
        mask.set(1, true).unwrap();
        // 1 transition < 2 regressor columns.
        assert!(matches!(
            assemble(&ds, &spec(ModelOrder::First), &mask),
            Err(SysidError::InsufficientData { .. })
        ));
    }

    #[test]
    fn usable_segments_need_warmup() {
        let ds = dataset();
        let mask = Mask::all(ds.grid());
        let s1 = usable_segments(&ds, &spec(ModelOrder::First), &mask).unwrap();
        assert_eq!(s1.len(), 2);
        let s2 = usable_segments(&ds, &spec(ModelOrder::Second), &mask).unwrap();
        assert_eq!(s2.len(), 2);
        // A run of exactly two samples supports first order only.
        let mut narrow = Mask::none(ds.grid());
        narrow.set(6, true).unwrap();
        narrow.set(7, true).unwrap();
        assert_eq!(
            usable_segments(&ds, &spec(ModelOrder::First), &narrow)
                .unwrap()
                .len(),
            1
        );
        assert!(usable_segments(&ds, &spec(ModelOrder::Second), &narrow)
            .unwrap()
            .is_empty());
    }
}
