//! The cluster-mean evaluation as it was before its truth sums were
//! built column by column, kept as a test-only oracle: for every
//! predicted slot and cluster, the members' values are gathered into a
//! scratch row and summed there.
//!
//! [`ReducedModel::evaluate_cluster_means`] must match it bit for bit:
//! the proptest below compares `to_bits` of every pooled error on random
//! gappy datasets, for both model orders, 1–4 clusters, one or two
//! representatives per cluster and horizons of 1–200 steps.

use thermal_sysid::{regressors, SegmentPredictor};
use thermal_timeseries::{Dataset, Mask};

use crate::{CoreError, ReducedModel, Result};

/// The values of `channel_indices` at slot `i` written into `out`;
/// `false` when any is missing or out of range.
fn gather(dataset: &Dataset, i: usize, channel_indices: &[usize], out: &mut [f64]) -> bool {
    out.len() == channel_indices.len()
        && channel_indices.iter().zip(out.iter_mut()).all(|(&c, dst)| {
            match dataset.channels().get(c).and_then(|ch| ch.value(i)) {
                Some(v) => {
                    *dst = v;
                    true
                }
                None => false,
            }
        })
}

/// Pooled errors and segments used of `evaluate_cluster_means`, one
/// gathered row of member values per (slot, cluster).
pub(crate) fn cluster_mean_errors(
    reduced: &ReducedModel,
    dataset: &Dataset,
    mask: &Mask,
    horizon: usize,
) -> Result<(Vec<f64>, usize)> {
    if horizon == 0 {
        return Err(CoreError::InvalidConfig {
            reason: "evaluation horizon must be at least one step".to_owned(),
        });
    }
    let model = reduced.model();
    let all_refs: Vec<&str> = reduced.all_channels().iter().map(String::as_str).collect();
    let dense_idx = dataset.resolve(&all_refs)?;
    let joint = dataset.presence_mask(&dense_idx)?.and(mask)?;
    let segments = regressors::usable_segments(dataset, model.spec(), &joint)?;
    let spec_outputs = &model.spec().outputs;
    let clusters = reduced.clustering().clusters();
    let mut rep_cols = Vec::new();
    let mut member_idx: Vec<Vec<usize>> = Vec::new();
    for (c, members) in clusters.iter().enumerate() {
        let cols: Vec<usize> = reduced
            .selection()
            .representatives(c)
            .iter()
            .map(|&r| {
                let name = &reduced.all_channels()[r];
                spec_outputs
                    .iter()
                    .position(|o| o == name)
                    .ok_or(CoreError::Internal {
                        context: "representative missing from model outputs",
                    })
            })
            .collect::<Result<_>>()?;
        rep_cols.push(cols);
        member_idx.push(members.iter().map(|&m| dense_idx[m]).collect());
    }
    let mut errors = Vec::new();
    let mut truth_vals = vec![0.0; member_idx.iter().map(Vec::len).max().unwrap_or(0)];
    let mut segments_used = 0usize;
    let predictor = SegmentPredictor::new(model, dataset)?;
    for seg in segments {
        let Ok(pred) = predictor.predict(seg, Some(horizon)) else {
            continue;
        };
        segments_used += 1;
        for (row, &grid_idx) in pred.indices.iter().enumerate() {
            for (cols, members) in rep_cols.iter().zip(&member_idx) {
                let predicted: f64 =
                    cols.iter().map(|&j| pred.predicted[(row, j)]).sum::<f64>() / cols.len() as f64;
                let truth_vals = &mut truth_vals[..members.len()];
                if !gather(dataset, grid_idx, members, truth_vals) {
                    return Err(CoreError::Internal {
                        context: "segmentation admitted a missing sample",
                    });
                }
                let truth: f64 = truth_vals.iter().sum::<f64>() / truth_vals.len() as f64;
                errors.push((predicted - truth).abs());
            }
        }
    }
    Ok((errors, segments_used))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use thermal_cluster::Clustering;
    use thermal_linalg::Matrix;
    use thermal_select::Selection;
    use thermal_sysid::{ModelOrder, ModelSpec, ThermalModel};
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    /// A random reduced model over a gappy dataset: `sensors` temperature
    /// channels `s*` (each with a few gaps), `m` inputs `u*`, `k` clusters
    /// with up to `per_cluster` representatives each, and coefficients
    /// with row sums of `|Θ|` below one. Returns the model, its dataset
    /// and a mask that drops a few slots.
    fn draw(
        sensors: usize,
        m: usize,
        k: usize,
        per_cluster: usize,
        order: ModelOrder,
        seed: u64,
    ) -> (ReducedModel, Dataset, Mask) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 480;
        let names: Vec<String> = (0..sensors).map(|i| format!("s{i}")).collect();
        let inputs: Vec<String> = (0..m).map(|i| format!("u{i}")).collect();
        let mut channels = Vec::new();
        for name in names.iter().chain(&inputs) {
            let base = if name.starts_with('s') { 21.0 } else { 0.5 };
            let mut values: Vec<Option<f64>> = (0..n)
                .map(|_| Some(base + rng.gen_range(-3.0..3.0)))
                .collect();
            for _ in 0..rng.gen_range(0..3) {
                let start = rng.gen_range(0..n);
                let end = (start + rng.gen_range(1..12)).min(n);
                values[start..end].fill(None);
            }
            channels.push(Channel::new(name.clone(), values).unwrap());
        }
        let dataset = Dataset::new(
            TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap(),
            channels,
        )
        .unwrap();
        let mask = Mask::from_bits((0..n).map(|_| rng.gen_bool(0.995)).collect());

        let assignments: Vec<usize> = (0..sensors)
            .map(|i| if i < k { i } else { rng.gen_range(0..k) })
            .collect();
        let clustering = Clustering::from_assignments(assignments, k).unwrap();
        let reps: Vec<Vec<usize>> = clustering
            .clusters()
            .into_iter()
            .map(|members| members.into_iter().take(per_cluster).collect())
            .collect();
        let selection = Selection::new(reps).unwrap();
        let mut kept = selection.sensors();
        kept.sort_unstable();
        let selected: Vec<String> = kept.iter().map(|&i| names[i].clone()).collect();
        let spec = ModelSpec::new(selected.clone(), inputs, order).unwrap();
        let bound = 1.0 / spec.regressor_width() as f64;
        let coef = Matrix::from_fn(selected.len(), spec.regressor_width(), |_, _| {
            rng.gen_range(-bound..bound)
        });
        let model = ThermalModel::new(spec, coef).unwrap();
        let reduced = ReducedModel::new(names, clustering, selection, selected, model);
        (reduced, dataset, mask)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Column-wise truth sums give the per-slot gather loop's pooled
        /// errors bit for bit, in the same (slot, cluster) order.
        #[test]
        fn cluster_mean_errors_match_reference(
            k in 1usize..=4,
            extra in 0usize..5,
            per_cluster in 1usize..=2,
            m in 1usize..=2,
            second in any::<bool>(),
            horizon in 1usize..=200,
            seed in any::<u64>(),
        ) {
            let order = if second { ModelOrder::Second } else { ModelOrder::First };
            let (reduced, dataset, mask) = draw(k + extra, m, k, per_cluster, order, seed);
            let got = reduced.evaluate_cluster_means(&dataset, &mask, horizon);
            match (got, cluster_mean_errors(&reduced, &dataset, &mask, horizon)) {
                (Ok(report), Ok((errors, used))) => {
                    prop_assert!(!errors.is_empty());
                    prop_assert_eq!(bits(report.errors()), bits(&errors));
                    prop_assert_eq!(report.segments_used(), used);
                    prop_assert_eq!(report.cluster_count(), k);
                }
                (Err(_), Ok((errors, _))) => prop_assert!(errors.is_empty()),
                (got, want) => prop_assert!(false, "{:?} vs {:?}", got.is_ok(), want.is_ok()),
            }
        }
    }
}
