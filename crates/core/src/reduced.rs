//! The pipeline's product: a reduced thermal model over a handful of
//! representative sensors, evaluated against the cluster thermal
//! means it is meant to track (Fig. 11's metric).

use serde::{Deserialize, Serialize};

use thermal_cluster::Clustering;
use thermal_linalg::stats::{self, EmpiricalCdf};
use thermal_select::Selection;
use thermal_sysid::{regressors, RolloutScratch, SegmentPredictor, ThermalModel};
use thermal_timeseries::{Channel, Dataset, Mask};

use crate::degradation::{
    DegradationEvent, DegradationPolicy, DegradationReport, DegradedEvaluation, FallbackAction,
};
use crate::{CoreError, Result};

/// Error of a truth read that hit a gap the segmentation should have
/// excluded.
const MISSING_SAMPLE: CoreError = CoreError::Internal {
    context: "segmentation admitted a missing sample",
};

/// A simplified thermal model built on selected sensors, with the
/// clustering context needed to interpret its predictions as cluster
/// thermal means.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReducedModel {
    /// All modelled sensor channels (the dense deployment).
    all_channels: Vec<String>,
    /// Clustering of `all_channels`.
    clustering: Clustering,
    /// Which sensors were kept, per cluster.
    selection: Selection,
    /// Names of the kept sensors, ascending dataset order.
    selected_channels: Vec<String>,
    /// The identified state-space model over `selected_channels`.
    model: ThermalModel,
}

impl ReducedModel {
    /// Assembles a reduced model (normally done by
    /// [`crate::ThermalPipeline::fit`]).
    pub fn new(
        all_channels: Vec<String>,
        clustering: Clustering,
        selection: Selection,
        selected_channels: Vec<String>,
        model: ThermalModel,
    ) -> Self {
        ReducedModel {
            all_channels,
            clustering,
            selection,
            selected_channels,
            model,
        }
    }

    /// The dense deployment's channel names.
    pub fn all_channels(&self) -> &[String] {
        &self.all_channels
    }

    /// The sensor clustering.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The selection that produced this model.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// Names of the kept sensors.
    pub fn selected_channels(&self) -> &[String] {
        &self.selected_channels
    }

    /// The identified state-space model over the kept sensors.
    pub fn model(&self) -> &ThermalModel {
        &self.model
    }

    /// Swaps in a re-identified model over the *same* sensor
    /// selection — the install step of an online refit: the
    /// clustering/selection context is untouched, only the
    /// coefficients change.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the replacement's
    /// spec (outputs, inputs, order) differs from the served model's,
    /// which would silently re-wire the deployment.
    pub fn install_model(&mut self, model: ThermalModel) -> Result<()> {
        if model.spec() != self.model.spec() {
            return Err(CoreError::InvalidConfig {
                reason: "replacement model must keep the served spec (outputs, inputs, order)"
                    .to_owned(),
            });
        }
        self.model = model;
        Ok(())
    }

    /// Evaluates how well the reduced model predicts each cluster's
    /// thermal mean, open-loop over the usable segments of `mask`:
    /// the model rolls forward from measured initial conditions, its
    /// per-cluster predictions (mean over that cluster's kept
    /// sensors) are compared with the measured mean over *all* the
    /// cluster's sensors.
    ///
    /// Returns the pooled absolute errors, the quantity whose 99th
    /// percentile Fig. 11 plots.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] when `horizon` is zero,
    /// * identification-stage errors when no usable segment exists.
    pub fn evaluate_cluster_means(
        &self,
        dataset: &Dataset,
        mask: &Mask,
        horizon: usize,
    ) -> Result<ClusterMeanModelReport> {
        if horizon == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "evaluation horizon must be at least one step".to_owned(),
            });
        }
        // Usable segments need every channel the model consumes *and*
        // every dense channel for ground truth: one presence pass over
        // all of them, read straight off the presence words and the
        // mask.
        let all_refs: Vec<&str> = self.all_channels.iter().map(String::as_str).collect();
        let dense_idx = dataset.resolve(&all_refs)?;
        let (outputs, inputs) = regressors::resolve_spec(dataset, self.model.spec())?;
        let mut read = dense_idx.clone();
        read.extend(outputs.iter().chain(&inputs));
        let warmup = self.model.spec().order.warmup();
        let joint = dataset.joint_presence(&read, mask)?;

        // Column index of each selected channel within the model's
        // output ordering.
        let spec_outputs = &self.model.spec().outputs;

        // Per-cluster: positions (within model outputs) of that
        // cluster's representatives, and dataset indices of all its
        // members.
        let clusters = self.clustering.clusters();
        let mut rep_cols: Vec<Vec<usize>> = Vec::with_capacity(clusters.len());
        let mut member_idx: Vec<Vec<usize>> = Vec::with_capacity(clusters.len());
        for (c, members) in clusters.iter().enumerate() {
            let reps = self.selection.representatives(c);
            let cols = reps
                .iter()
                .map(|&r| {
                    let name = &self.all_channels[r];
                    spec_outputs.iter().position(|o| o == name).ok_or_else(|| {
                        CoreError::InvalidConfig {
                            reason: format!("representative {name:?} missing from model outputs"),
                        }
                    })
                })
                .collect::<Result<Vec<usize>>>()?;
            rep_cols.push(cols);
            member_idx.push(members.iter().map(|&m| dense_idx[m]).collect());
        }

        // One error per (predicted step, cluster). Each segment's truth
        // sums are built column by column: cluster `c`'s column adds its
        // members' values over the predicted slots, member by member, so
        // slot `s` holds `-0.0 + v₀[s] + v₁[s] + …` in member order — the
        // `Iterator::sum` of that slot's member values. The rollout,
        // the truth sums and the errors each use one buffer per call.
        let lengths = joint
            .segments(warmup + 1)
            .map(|s| s.len().saturating_sub(warmup).min(horizon));
        let steps: usize = lengths.clone().sum();
        let longest = lengths.max().unwrap_or(0);
        let mut errors = Vec::with_capacity(steps * clusters.len());
        let mut truth_sums: Vec<f64> = Vec::with_capacity(longest * clusters.len());
        let mut segments_used = 0usize;
        let predictor = SegmentPredictor::new(&self.model, dataset)?;
        let mut rollout = RolloutScratch::default();
        let width = spec_outputs.len().max(1);
        for seg in joint.segments(warmup + 1) {
            let Ok(first) = predictor.predict_into(seg, Some(horizon), &mut rollout) else {
                continue;
            };
            segments_used += 1;
            let len = rollout.rows();
            truth_sums.clear();
            truth_sums.resize(len * clusters.len(), -0.0);
            for (sums, members) in truth_sums.chunks_exact_mut(len.max(1)).zip(&member_idx) {
                for &m in members {
                    let values = dataset
                        .channels()
                        .get(m)
                        .and_then(|ch| ch.present_samples(first..first + len))
                        .ok_or(MISSING_SAMPLE)?;
                    for (sum, v) in sums.iter_mut().zip(values) {
                        *sum += v;
                    }
                }
            }
            for (row, prow) in rollout.predicted().chunks_exact(width).enumerate() {
                let per_cluster = rep_cols.iter().zip(&member_idx);
                for ((cols, members), sums) in per_cluster.zip(truth_sums.chunks_exact(len.max(1)))
                {
                    let predicted: f64 =
                        cols.iter().map(|&j| prow[j]).sum::<f64>() / cols.len() as f64;
                    let truth = sums[row] / members.len() as f64;
                    errors.push((predicted - truth).abs());
                }
            }
        }
        if errors.is_empty() {
            return Err(CoreError::Sysid(
                thermal_sysid::SysidError::InsufficientData {
                    available: 0,
                    required: 1,
                },
            ));
        }
        Ok(ClusterMeanModelReport {
            errors,
            segments_used,
            cluster_count: clusters.len(),
        })
    }

    /// Degradation-aware version of [`Self::evaluate_cluster_means`]:
    /// instead of failing when sensors are dark, it substitutes each
    /// dead representative (ranked cluster-mate backup first, then the
    /// per-slot mean of still-reporting cluster members) and records
    /// every fallback in a [`DegradationReport`].
    ///
    /// Differences from the clean evaluation, by design:
    ///
    /// * ground truth per cluster is the mean over the members
    ///   *present at each slot* (the clean version requires the full
    ///   dense deployment, which dead sensors would veto outright),
    /// * a cluster whose members are all dark is frozen at a constant
    ///   (so the coupled model stays evaluable) and excluded from the
    ///   pooled errors,
    /// * total blackout returns `report: None` instead of an error —
    ///   the pipeline always completes and explains itself through
    ///   the degradation report.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] for a zero `horizon` or an
    ///   invalid `policy`,
    /// * dataset errors when `dataset` lacks modelled channels or
    ///   `mask` lives on another grid.
    pub fn evaluate_degraded(
        &self,
        dataset: &Dataset,
        mask: &Mask,
        horizon: usize,
        policy: &DegradationPolicy,
    ) -> Result<DegradedEvaluation> {
        if horizon == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "evaluation horizon must be at least one step".to_owned(),
            });
        }
        policy.validate()?;
        let n = dataset.grid().len();
        if mask.len() != n {
            return Err(CoreError::TimeSeries(
                thermal_timeseries::TimeSeriesError::GridMismatch,
            ));
        }
        let all_refs: Vec<&str> = self.all_channels.iter().map(String::as_str).collect();
        let dense_idx = dataset.resolve(&all_refs)?;

        let mask_slots: Vec<usize> = mask.iter_selected().collect();
        let denom = mask_slots.len().max(1) as f64;
        let coverage_of = |di: usize| -> f64 {
            let ch = &dataset.channels()[di];
            mask_slots
                .iter()
                .filter(|&&i| ch.value(i).is_some())
                .count() as f64
                / denom
        };

        let clusters = self.clustering.clusters();
        let mut events = Vec::new();
        let mut channels: Vec<Channel> = dataset.channels().to_vec();
        let mut cluster_evaluable = vec![true; clusters.len()];

        for (c, members) in clusters.iter().enumerate() {
            for &r in self.selection.representatives(c) {
                let rep_name = self.all_channels[r].clone();
                let rep_di = dense_idx[r];
                let cov = coverage_of(rep_di);
                if cov >= policy.min_rep_coverage {
                    events.push(DegradationEvent {
                        cluster: c,
                        representative: rep_name,
                        coverage: cov,
                        action: FallbackAction::Healthy,
                    });
                    continue;
                }
                // First choice: the ranked backups attached at
                // selection time, best substitute first.
                let mut action = None;
                for &b in self.selection.backups(c) {
                    if coverage_of(dense_idx[b]) >= policy.min_rep_coverage {
                        channels[rep_di] = dataset.channels()[dense_idx[b]].renamed(&rep_name);
                        action = Some(FallbackAction::Backup {
                            substitute: self.all_channels[b].clone(),
                        });
                        break;
                    }
                }
                let action = if let Some(a) = action {
                    a
                } else {
                    // Second choice: per-slot mean of whatever cluster
                    // members still report.
                    let member_di: Vec<usize> = members.iter().map(|&m| dense_idx[m]).collect();
                    let col = Channel::from_slots(
                        rep_name.clone(),
                        (0..n).map(|i| {
                            let mut sum = 0.0;
                            let mut k = 0usize;
                            for &mi in &member_di {
                                if let Some(v) = dataset.channels()[mi].value(i) {
                                    sum += v;
                                    k += 1;
                                }
                            }
                            (k > 0).then(|| sum / k as f64)
                        }),
                    )?;
                    let col_cov =
                        mask_slots.iter().filter(|&&i| col.is_present(i)).count() as f64 / denom;
                    if col_cov >= policy.min_rep_coverage {
                        channels[rep_di] = col;
                        FallbackAction::ClusterMean {
                            members: members.len(),
                        }
                    } else {
                        // Last resort: freeze the channel at a
                        // constant so the coupled model still rolls
                        // forward for the live clusters, and exclude
                        // this cluster from the pooled errors.
                        let present = col.present_count();
                        let fill = if present == 0 {
                            let mut sum = 0.0;
                            let mut k = 0usize;
                            for &di in &dense_idx {
                                for (_, v) in dataset.channels()[di].iter_present() {
                                    sum += v;
                                    k += 1;
                                }
                            }
                            if k > 0 {
                                sum / k as f64
                            } else {
                                0.0
                            }
                        } else {
                            col.iter_present().map(|(_, v)| v).sum::<f64>() / present as f64
                        };
                        channels[rep_di] = Channel::from_values(rep_name.clone(), vec![fill; n])?;
                        cluster_evaluable[c] = false;
                        FallbackAction::Unavailable
                    }
                };
                events.push(DegradationEvent {
                    cluster: c,
                    representative: rep_name,
                    coverage: cov,
                    action,
                });
            }
        }

        let degradation = DegradationReport::new(events);
        let substituted = Dataset::new(*dataset.grid(), channels)?;

        // Segments need only the model's own (substituted) channels —
        // dead cluster members must not veto the live clusters the
        // way the clean evaluation's dense-presence mask would.
        let segments = regressors::usable_segments(&substituted, self.model.spec(), mask)?;
        let spec_outputs = &self.model.spec().outputs;
        let mut rep_cols: Vec<Vec<usize>> = Vec::with_capacity(clusters.len());
        let mut member_idx: Vec<Vec<usize>> = Vec::with_capacity(clusters.len());
        for (c, members) in clusters.iter().enumerate() {
            let cols = self
                .selection
                .representatives(c)
                .iter()
                .map(|&r| {
                    let name = &self.all_channels[r];
                    spec_outputs.iter().position(|o| o == name).ok_or_else(|| {
                        CoreError::InvalidConfig {
                            reason: format!("representative {name:?} missing from model outputs"),
                        }
                    })
                })
                .collect::<Result<Vec<usize>>>()?;
            rep_cols.push(cols);
            member_idx.push(members.iter().map(|&m| dense_idx[m]).collect());
        }

        let mut errors = Vec::new();
        let mut segments_used = 0usize;
        let predictor = SegmentPredictor::new(&self.model, &substituted)?;
        for seg in segments {
            let Ok(pred) = predictor.predict(seg, Some(horizon)) else {
                continue;
            };
            segments_used += 1;
            for (row, &grid_idx) in pred.indices.iter().enumerate() {
                for (c, cols) in rep_cols.iter().enumerate() {
                    if !cluster_evaluable[c] {
                        continue;
                    }
                    let predicted: f64 =
                        cols.iter().map(|&j| pred.predicted[(row, j)]).sum::<f64>()
                            / cols.len() as f64;
                    // Ground truth over members present at this slot
                    // in the *original* (faulty) dataset.
                    let mut sum = 0.0;
                    let mut k = 0usize;
                    for &mi in &member_idx[c] {
                        if let Some(v) = dataset.channels()[mi].value(grid_idx) {
                            sum += v;
                            k += 1;
                        }
                    }
                    if k == 0 {
                        continue;
                    }
                    errors.push((predicted - sum / k as f64).abs());
                }
            }
        }
        let report = if errors.is_empty() {
            None
        } else {
            Some(ClusterMeanModelReport {
                errors,
                segments_used,
                cluster_count: cluster_evaluable.iter().filter(|&&e| e).count(),
            })
        };
        Ok(DegradedEvaluation {
            degradation,
            report,
        })
    }
}

/// Pooled cluster-mean prediction errors of a reduced model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterMeanModelReport {
    errors: Vec<f64>,
    segments_used: usize,
    cluster_count: usize,
}

impl ClusterMeanModelReport {
    /// Pooled absolute errors (clusters × predicted samples).
    pub fn errors(&self) -> &[f64] {
        &self.errors
    }

    /// Number of segments that contributed predictions.
    pub fn segments_used(&self) -> usize {
        self.segments_used
    }

    /// Number of clusters evaluated.
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Percentile of the pooled errors (Fig. 11 uses the 99th).
    ///
    /// # Errors
    ///
    /// Propagates percentile failures.
    pub fn percentile(&self, p: f64) -> Result<f64> {
        stats::percentile(&self.errors, p).map_err(|e| CoreError::Sysid(e.into()))
    }

    /// ECDF of the pooled errors.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn cdf(&self) -> Result<EmpiricalCdf> {
        EmpiricalCdf::new(&self.errors).map_err(|e| CoreError::Sysid(e.into()))
    }

    /// RMS of the pooled errors.
    ///
    /// # Errors
    ///
    /// Propagates RMS failures.
    pub fn rms(&self) -> Result<f64> {
        stats::rms(&self.errors).map_err(|e| CoreError::Sysid(e.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SelectorKind, ThermalPipeline};
    use thermal_cluster::ClusterCount;
    use thermal_sysid::ModelOrder;
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    fn synth_dataset() -> Dataset {
        let n = 300;
        let u: Vec<f64> = (0..n)
            .map(|k| 0.5 + 0.5 * (k as f64 * 0.11).sin())
            .collect();
        let mut channels = vec![Channel::from_values("u", u.clone()).unwrap()];
        for (i, (gain, base)) in [(1.0, 20.0), (1.05, 20.1), (-1.0, 22.0), (-0.95, 22.1)]
            .into_iter()
            .enumerate()
        {
            let mut t = vec![base];
            for k in 0..n - 1 {
                t.push(0.9 * t[k] + 0.1 * base + gain * 0.2 * u[k]);
            }
            channels.push(Channel::from_values(format!("s{i}"), t).unwrap());
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
        Dataset::new(grid, channels).unwrap()
    }

    fn fit_reduced(ds: &Dataset) -> ReducedModel {
        ThermalPipeline::builder()
            .cluster_count(ClusterCount::Fixed(2))
            .selector(SelectorKind::NearMean)
            .model_order(ModelOrder::First)
            .build()
            .unwrap()
            .fit(ds, &["s0", "s1", "s2", "s3"], &["u"], &Mask::all(ds.grid()))
            .unwrap()
    }

    #[test]
    fn reduced_model_tracks_cluster_means() {
        let ds = synth_dataset();
        let reduced = fit_reduced(&ds);
        let report = reduced
            .evaluate_cluster_means(&ds, &Mask::all(ds.grid()), 50)
            .unwrap();
        assert_eq!(report.cluster_count(), 2);
        assert!(report.segments_used() >= 1);
        // Representatives sit within 0.1 of their cluster mean by
        // construction, and the model is near-exact.
        assert!(
            report.percentile(99.0).unwrap() < 0.2,
            "99th pct {}",
            report.percentile(99.0).unwrap()
        );
        assert!(report.rms().unwrap() < 0.2);
        assert!(report.cdf().is_ok());
    }

    #[test]
    fn install_model_swaps_coefficients_but_guards_the_spec() {
        let ds = synth_dataset();
        let mut reduced = fit_reduced(&ds);
        let spec = reduced.model().spec().clone();
        let mut coef = reduced.model().coefficients().clone();
        coef[(0, 0)] += 0.01;
        let replacement = ThermalModel::new(spec.clone(), coef.clone()).unwrap();
        reduced.install_model(replacement).unwrap();
        assert_eq!(reduced.model().coefficients(), &coef);
        // A different spec (dropped input) must be refused.
        let narrow =
            thermal_sysid::ModelSpec::new(spec.outputs.clone(), vec![], spec.order).unwrap();
        let bad = ThermalModel::new(
            narrow.clone(),
            thermal_linalg::Matrix::zeros(spec.outputs.len(), narrow.regressor_width()),
        )
        .unwrap();
        assert!(matches!(
            reduced.install_model(bad),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn zero_horizon_rejected() {
        let ds = synth_dataset();
        let reduced = fit_reduced(&ds);
        assert!(matches!(
            reduced.evaluate_cluster_means(&ds, &Mask::all(ds.grid()), 0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_mask_reports_no_data() {
        let ds = synth_dataset();
        let reduced = fit_reduced(&ds);
        let none = Mask::none(ds.grid());
        assert!(reduced.evaluate_cluster_means(&ds, &none, 10).is_err());
    }

    /// Returns `ds` with the named channel's samples blanked on
    /// `[start, end)`.
    fn kill_channel(ds: &Dataset, name: &str, start: usize, end: usize) -> Dataset {
        let channels: Vec<Channel> = ds
            .channels()
            .iter()
            .map(|ch| {
                if ch.name() == name {
                    let values = ch
                        .values()
                        .iter()
                        .enumerate()
                        .map(|(i, v)| if (start..end).contains(&i) { None } else { *v })
                        .collect();
                    Channel::new(ch.name(), values).unwrap()
                } else {
                    ch.clone()
                }
            })
            .collect();
        Dataset::new(*ds.grid(), channels).unwrap()
    }

    #[test]
    fn degraded_evaluation_on_clean_data_matches_healthy_path() {
        let ds = synth_dataset();
        let reduced = fit_reduced(&ds);
        let out = reduced
            .evaluate_degraded(
                &ds,
                &Mask::all(ds.grid()),
                50,
                &DegradationPolicy::default(),
            )
            .unwrap();
        assert!(!out.degradation.is_degraded());
        let report = out.report.expect("clean data must be evaluable");
        // Same segments and error count as the clean evaluation (all
        // members are present at every slot, so truth agrees too).
        let clean = reduced
            .evaluate_cluster_means(&ds, &Mask::all(ds.grid()), 50)
            .unwrap();
        assert_eq!(report.errors().len(), clean.errors().len());
        assert!((report.rms().unwrap() - clean.rms().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn killing_any_single_representative_yields_a_degradation_report() {
        let ds = synth_dataset();
        let reduced = fit_reduced(&ds);
        let n = ds.grid().len();
        for rep in reduced.selected_channels().to_vec() {
            let faulty = kill_channel(&ds, &rep, 0, n);
            let out = reduced
                .evaluate_degraded(
                    &faulty,
                    &Mask::all(ds.grid()),
                    50,
                    &DegradationPolicy::default(),
                )
                .unwrap();
            assert!(out.degradation.is_degraded(), "{rep} death went unnoticed");
            assert_eq!(out.degradation.degraded_count(), 1);
            let event = out
                .degradation
                .substitutions()
                .next()
                .expect("one substitution");
            assert_eq!(event.representative, rep);
            // The cluster has live mates, so a backup stands in and
            // evaluation still succeeds with bounded error.
            assert!(
                matches!(event.action, FallbackAction::Backup { .. }),
                "expected a backup for {rep}, got {:?}",
                event.action
            );
            let report = out.report.expect("backup keeps the cluster evaluable");
            assert!(report.rms().unwrap() < 1.0, "rms {}", report.rms().unwrap());
        }
    }

    #[test]
    fn mid_validation_death_falls_back_without_panicking() {
        let ds = synth_dataset();
        let reduced = fit_reduced(&ds);
        let n = ds.grid().len();
        for rep in reduced.selected_channels().to_vec() {
            // The channel dies at 10% of the trace and never returns.
            let faulty = kill_channel(&ds, &rep, n / 10, n);
            let out = reduced
                .evaluate_degraded(
                    &faulty,
                    &Mask::all(ds.grid()),
                    50,
                    &DegradationPolicy::default(),
                )
                .unwrap();
            assert!(out.degradation.is_degraded());
            assert!(out.report.is_some());
        }
    }

    #[test]
    fn whole_cluster_dark_is_excluded_not_fatal() {
        let ds = synth_dataset();
        let reduced = fit_reduced(&ds);
        let n = ds.grid().len();
        // Kill every member of the first representative's cluster.
        let rep = reduced.selected_channels()[0].clone();
        let all = reduced.all_channels().to_vec();
        let rep_pos = all.iter().position(|c| *c == rep).unwrap();
        let cluster = reduced
            .clustering()
            .clusters()
            .into_iter()
            .find(|m| m.contains(&rep_pos))
            .unwrap();
        let mut faulty = ds.clone();
        for &m in &cluster {
            faulty = kill_channel(&faulty, &all[m], 0, n);
        }
        let out = reduced
            .evaluate_degraded(
                &faulty,
                &Mask::all(ds.grid()),
                50,
                &DegradationPolicy::default(),
            )
            .unwrap();
        assert_eq!(out.degradation.unavailable_clusters().len(), 1);
        // The other cluster is still evaluated.
        let report = out.report.expect("live cluster still evaluable");
        assert_eq!(report.cluster_count(), 1);
    }

    #[test]
    fn total_blackout_reports_none_instead_of_erroring() {
        let ds = synth_dataset();
        let reduced = fit_reduced(&ds);
        let n = ds.grid().len();
        let mut faulty = ds.clone();
        for name in reduced.all_channels().to_vec() {
            faulty = kill_channel(&faulty, &name, 0, n);
        }
        let out = reduced
            .evaluate_degraded(
                &faulty,
                &Mask::all(ds.grid()),
                50,
                &DegradationPolicy::default(),
            )
            .unwrap();
        assert!(out.report.is_none(), "no ground truth anywhere");
        assert!(out.degradation.is_degraded());
        for e in out.degradation.events() {
            assert_eq!(e.action, FallbackAction::Unavailable);
        }
    }

    #[test]
    fn degraded_rejects_bad_inputs() {
        let ds = synth_dataset();
        let reduced = fit_reduced(&ds);
        let policy = DegradationPolicy::default();
        assert!(reduced
            .evaluate_degraded(&ds, &Mask::all(ds.grid()), 0, &policy)
            .is_err());
        let bad = DegradationPolicy {
            min_rep_coverage: 2.0,
        };
        assert!(reduced
            .evaluate_degraded(&ds, &Mask::all(ds.grid()), 10, &bad)
            .is_err());
    }

    #[test]
    fn accessors_expose_structure() {
        let ds = synth_dataset();
        let reduced = fit_reduced(&ds);
        assert_eq!(reduced.all_channels().len(), 4);
        assert_eq!(reduced.clustering().k(), 2);
        assert_eq!(reduced.selection().cluster_count(), 2);
        assert_eq!(reduced.selected_channels().len(), 2);
        assert_eq!(reduced.model().spec().outputs.len(), 2);
    }
}
