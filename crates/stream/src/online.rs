//! Continuous identification: the recursive estimator, the per-cluster
//! drift supervision, and the supervised refit path that together keep
//! the served model healthy under regime change.
//!
//! The [`OnlineIdentifier`] rides along inside
//! [`crate::StreamService`] (see
//! [`enable_online`](crate::StreamService::enable_online)). Every
//! event-loop slot it:
//!
//! 1. compares the previous slot's one-step-ahead forecast against the
//!    substituted row that actually arrived, feeding the per-cluster
//!    [`DriftMachine`]s with residual magnitudes — but only for
//!    outputs served [`Healthy`](FallbackAction::Healthy), so the
//!    fallback ladder never masquerades as regime drift;
//! 2. folds the transition into the forgetting-factor
//!    [`RlsEstimator`] — again only across runs of fully-healthy
//!    slots, so substituted values never teach the estimator wrong
//!    physics;
//! 3. when a cluster has confirmed drift and the estimator is warm,
//!    launches a **supervised refit**: the RLS solve runs as one
//!    retry/deadline/breaker-supervised cell through
//!    [`thermal_ckpt::run_cell`], its coefficient payload bit-exactly
//!    encoded via [`thermal_ckpt::codec::Record`]. The old model keeps
//!    serving (flagged degraded) until the refit lands; a quarantined
//!    refit falls back to `Drifting` and retries after a cooldown.
//!
//! Everything is deterministic: the estimator and detectors are pure
//! folds over the accepted-reading sequence, and the refit payload is
//! a bit-exact encoding of a deterministic solve — so the recovery
//! soak can require byte-identical reports across runs and thread
//! counts.

use std::collections::VecDeque;
use std::path::PathBuf;

use thermal_ckpt::codec::Record;
use thermal_ckpt::snapshot::{get_nested, get_nested_list, put_nested, put_nested_list};
use thermal_ckpt::{
    run_cell, CellOutcome, CellPolicy, CheckpointStore, CkptError, Fields, Snapshot,
};
use thermal_core::{FallbackAction, ModelHealth};
use thermal_linalg::Matrix;
use thermal_sysid::{regressors, ModelSpec, RlsConfig, RlsEstimator, ThermalModel};

use crate::drift::{DriftConfig, DriftMachine, DriftStats};
use crate::{Result, StreamError};

/// Smoothing factor of the per-cluster residual-scale EWMA that feeds
/// the published uncertainty band.
const NOISE_ALPHA: f64 = 0.1;

/// Payload tag of an encoded refit checkpoint.
const REFIT_TAG: &str = "thermal-refit-v1";

/// Configuration of the online identification loop.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Recursive estimator settings (forgetting factor, ridge seed).
    pub rls: RlsConfig,
    /// Drift detector and health-machine hysteresis settings.
    pub drift: DriftConfig,
    /// Directory of the refit checkpoint store (supervision state and
    /// committed refit payloads live here).
    pub checkpoint_root: PathBuf,
    /// Store seed recorded in the checkpoint manifest.
    pub seed: u64,
    /// Supervision policy of each refit cell (retry, deadline,
    /// breaker).
    pub cell: CellPolicy,
    /// Minimum accepted transitions before a refit may be attempted —
    /// keeps a barely-warm estimator from replacing a well-fitted
    /// batch model.
    pub min_refit_observations: u64,
    /// Slots to wait after any refit attempt (landed or quarantined)
    /// before the next one.
    pub refit_cooldown: u64,
}

impl OnlineConfig {
    /// A default-tuned configuration rooted at the given checkpoint
    /// directory.
    pub fn new(checkpoint_root: impl Into<PathBuf>) -> Self {
        OnlineConfig {
            rls: RlsConfig::default(),
            drift: DriftConfig::default(),
            checkpoint_root: checkpoint_root.into(),
            seed: 0,
            cell: CellPolicy::default(),
            min_refit_observations: 48,
            refit_cooldown: 12,
        }
    }

    /// Validates every sub-configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for invalid RLS or drift
    /// settings or a zero refit cooldown.
    pub fn validate(&self) -> Result<()> {
        self.rls
            .validate()
            .map_err(|e| StreamError::InvalidConfig {
                reason: e.to_string(),
            })?;
        self.drift.validate()?;
        if self.refit_cooldown == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "refit_cooldown must be at least 1 slot".to_owned(),
            });
        }
        Ok(())
    }
}

/// Lifetime counters of the online identification loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Transitions folded into the recursive estimator.
    pub rows_ingested: u64,
    /// Slots skipped because an output was substituted or an input was
    /// missing (the estimator only learns from clean data).
    pub rows_skipped: u64,
    /// Slots on which at least one cluster received a residual
    /// observation.
    pub residual_slots: u64,
    /// Supervised refits launched.
    pub refit_attempts: u64,
    /// Refits that landed and were installed.
    pub refits_completed: u64,
    /// Refits that were quarantined (or failed to decode) and left the
    /// old model serving.
    pub refits_quarantined: u64,
}

thermal_ckpt::fields!(OnlineStats: rows_ingested, rows_skipped, residual_slots, refit_attempts,
    refits_completed, refits_quarantined);

/// EWMA of a cluster's squared one-step residual — the scale behind
/// the published uncertainty band.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ResidualScale {
    mean_square: f64,
    samples: u64,
}

impl ResidualScale {
    fn observe(&mut self, residual: f64) {
        let sq = residual * residual;
        if self.samples == 0 {
            self.mean_square = sq;
        } else {
            self.mean_square += NOISE_ALPHA * (sq - self.mean_square);
        }
        self.samples += 1;
    }

    fn rms(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.mean_square.sqrt())
    }
}

/// The continuous-identification sidecar of a
/// [`crate::StreamService`]: recursive estimator, per-cluster drift
/// machines, residual-scale tracking, and the supervised refit
/// launcher.
#[derive(Debug, Clone)]
pub struct OnlineIdentifier {
    config: OnlineConfig,
    estimator: RlsEstimator,
    /// One drift machine per cluster.
    machines: Vec<DriftMachine>,
    /// One residual-scale tracker per cluster.
    noise: Vec<ResidualScale>,
    /// Cluster served by each model output.
    output_clusters: Vec<usize>,
    /// The previous slot's one-step forecast per output (what this
    /// slot's substituted row is compared against); valid only while
    /// `forecast_ready`. The buffer is recycled across slots.
    last_forecast: Vec<f64>,
    /// `true` when `last_forecast` holds an unconsumed forecast.
    forecast_ready: bool,
    /// The last `warmup` substituted rows, oldest first (row buffers
    /// recycled once the window is full).
    prev_rows: VecDeque<Vec<f64>>,
    /// The input values as of the previous slot; valid only while
    /// `prev_inputs_ready` (all were known that slot).
    prev_inputs: Vec<f64>,
    /// `true` when `prev_inputs` holds a complete input row.
    prev_inputs_ready: bool,
    /// Scratch: per-cluster residual-magnitude sums.
    residual_sum: Vec<f64>,
    /// Scratch: per-cluster residual counts.
    residual_count: Vec<u64>,
    /// Scratch: the assembled regressor row.
    x_scratch: Vec<f64>,
    /// Consecutive fully-healthy slots up to and including the last
    /// observed one.
    clean_streak: u64,
    /// Slots remaining before another refit may be attempted.
    cooldown: u64,
    /// Refit cells launched so far (names the next cell).
    refit_ordinal: u64,
    stats: OnlineStats,
}

impl OnlineIdentifier {
    /// Builds the identifier for a model spec whose outputs map onto
    /// `cluster_count` clusters via `output_clusters`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for invalid
    /// configuration or an output/cluster map that does not match the
    /// spec.
    pub fn new(
        spec: ModelSpec,
        output_clusters: Vec<usize>,
        cluster_count: usize,
        config: OnlineConfig,
    ) -> Result<Self> {
        config.validate()?;
        if output_clusters.len() != spec.output_count() {
            return Err(StreamError::InvalidConfig {
                reason: format!(
                    "output/cluster map covers {} outputs, spec has {}",
                    output_clusters.len(),
                    spec.output_count()
                ),
            });
        }
        if output_clusters.iter().any(|&c| c >= cluster_count) {
            return Err(StreamError::InvalidConfig {
                reason: format!("output/cluster map names a cluster >= {cluster_count}"),
            });
        }
        let estimator =
            RlsEstimator::new(spec, config.rls).map_err(|e| StreamError::Core(e.to_string()))?;
        let outputs = estimator.spec().output_count();
        let inputs = estimator.spec().input_count();
        let width = estimator.spec().regressor_width();
        let warmup = estimator.spec().order.warmup().max(1);
        Ok(OnlineIdentifier {
            estimator,
            machines: vec![DriftMachine::new(); cluster_count],
            noise: vec![ResidualScale::default(); cluster_count],
            output_clusters,
            last_forecast: Vec::with_capacity(outputs),
            forecast_ready: false,
            prev_rows: VecDeque::with_capacity(warmup + 1),
            prev_inputs: Vec::with_capacity(inputs),
            prev_inputs_ready: false,
            residual_sum: Vec::with_capacity(cluster_count),
            residual_count: Vec::with_capacity(cluster_count),
            x_scratch: Vec::with_capacity(width),
            clean_streak: 0,
            cooldown: 0,
            refit_ordinal: 0,
            stats: OnlineStats::default(),
            config,
        })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// The recursive estimator's accepted-transition count.
    pub fn observations(&self) -> u64 {
        self.estimator.observations()
    }

    /// Health of one cluster ([`ModelHealth::Stable`] for an unknown
    /// index).
    pub fn cluster_health(&self, cluster: usize) -> ModelHealth {
        self.machines
            .get(cluster)
            .map_or(ModelHealth::Stable, DriftMachine::health)
    }

    /// Health of every cluster, cluster order.
    pub fn health(&self) -> Vec<ModelHealth> {
        self.machines.iter().map(DriftMachine::health).collect()
    }

    /// Drift counters of one cluster.
    pub fn cluster_drift_stats(&self, cluster: usize) -> Option<DriftStats> {
        self.machines.get(cluster).map(DriftMachine::stats)
    }

    /// Published uncertainty band of one cluster: the residual RMS
    /// scale, widened by [`DriftConfig::widening`] while the cluster's
    /// health is degraded. `None` before any residual was observed.
    pub fn cluster_uncertainty(&self, cluster: usize) -> Option<f64> {
        let scale = self.noise.get(cluster)?.rms()?;
        let widen = if self.cluster_health(cluster).is_degraded() {
            self.config.drift.widening
        } else {
            1.0
        };
        Some(scale * widen)
    }

    /// Stores the service's one-step forecast of the *next* slot (the
    /// baseline the next observed row is compared against); `None`
    /// clears any pending forecast. The internal buffer is reused.
    pub fn note_forecast(&mut self, forecast: Option<&[f64]>) {
        match forecast {
            Some(values) => {
                self.last_forecast.clear();
                self.last_forecast.extend_from_slice(values);
                self.forecast_ready = true;
            }
            None => self.forecast_ready = false,
        }
    }

    /// Folds one event-loop slot in: residual supervision against the
    /// stored forecast, then (on clean runs) one RLS transition.
    ///
    /// `row` is the substituted output row of the current slot,
    /// `actions` the ladder action per output, `inputs` the latest
    /// known value per input channel.
    pub fn observe(&mut self, row: &[f64], actions: &[FallbackAction], inputs: &[Option<f64>]) {
        self.cooldown = self.cooldown.saturating_sub(1);
        self.observe_residuals(row, actions);
        self.ingest_transition(row, actions);

        // Roll the regressor state forward, recycling the oldest row
        // buffer once the window is full.
        let warmup = self.estimator.spec().order.warmup().max(1);
        let mut row_buf = if self.prev_rows.len() >= warmup {
            self.prev_rows.pop_front().unwrap_or_default()
        } else {
            Vec::with_capacity(row.len())
        };
        row_buf.clear();
        row_buf.extend_from_slice(row);
        self.prev_rows.push_back(row_buf);
        while self.prev_rows.len() > warmup {
            self.prev_rows.pop_front();
        }
        self.prev_inputs_ready = inputs.len() == self.estimator.spec().input_count()
            && inputs.iter().all(Option::is_some);
        if self.prev_inputs_ready {
            self.prev_inputs.clear();
            for v in inputs {
                self.prev_inputs.push(v.unwrap_or(0.0));
            }
        }
        let all_healthy = actions.iter().all(|a| *a == FallbackAction::Healthy);
        if all_healthy {
            self.clean_streak += 1;
        } else {
            self.clean_streak = 0;
        }
    }

    /// Feeds per-cluster residual magnitudes from the stored forecast.
    fn observe_residuals(&mut self, row: &[f64], actions: &[FallbackAction]) {
        if !self.forecast_ready {
            return;
        }
        // The forecast is one-shot: consumed here, re-armed only by
        // the next `note_forecast`. Buffers are taken, not dropped, so
        // the steady-state slot stays off the heap.
        self.forecast_ready = false;
        let forecast = std::mem::take(&mut self.last_forecast);
        let clusters = self.machines.len();
        let mut sum = std::mem::take(&mut self.residual_sum);
        let mut count = std::mem::take(&mut self.residual_count);
        sum.clear();
        sum.resize(clusters, 0.0);
        count.clear();
        count.resize(clusters, 0);
        let per_output = row
            .iter()
            .zip(&forecast)
            .zip(actions)
            .zip(&self.output_clusters);
        for (((observed, predicted), action), &cluster) in per_output {
            if *action != FallbackAction::Healthy {
                continue;
            }
            let residual = observed - predicted;
            if !residual.is_finite() {
                continue;
            }
            if let (Some(s), Some(n)) = (sum.get_mut(cluster), count.get_mut(cluster)) {
                *s += residual.abs();
                *n += 1;
            }
            if let Some(scale) = self.noise.get_mut(cluster) {
                scale.observe(residual);
            }
        }
        let mut any = false;
        let fed = self
            .machines
            .iter_mut()
            .zip(sum.iter().zip(&count))
            .filter(|(_, (_, &n))| n > 0);
        for (machine, (s, &n)) in fed {
            machine.observe(&self.config.drift, s / n as f64);
            any = true;
        }
        if any {
            self.stats.residual_slots += 1;
        }
        self.last_forecast = forecast;
        self.residual_sum = sum;
        self.residual_count = count;
    }

    /// Folds one transition into the estimator when the current slot
    /// *and* the whole regressor window were served healthy.
    fn ingest_transition(&mut self, row: &[f64], actions: &[FallbackAction]) {
        let warmup = self.estimator.spec().order.warmup().max(1);
        let all_healthy = actions.iter().all(|a| *a == FallbackAction::Healthy);
        let window_clean = self.clean_streak >= warmup as u64 && self.prev_rows.len() >= warmup;
        if !self.prev_inputs_ready {
            self.stats.rows_skipped += 1;
            return;
        }
        if !all_healthy || !window_clean {
            self.stats.rows_skipped += 1;
            return;
        }
        let p = self.estimator.spec().output_count();
        let mut x = std::mem::take(&mut self.x_scratch);
        x.clear();
        x.resize(self.estimator.spec().regressor_width(), 0.0);
        let ok = 'assemble: {
            let Some(t_now) = self.prev_rows.back() else {
                break 'assemble false;
            };
            let t_prev = match (warmup, self.prev_rows.front()) {
                (2, Some(t_prev)) => Some(t_prev.as_slice()),
                (2, None) => break 'assemble false,
                _ => None,
            };
            debug_assert_eq!(row.len(), p);
            // The row layout is sysid's: batch identification writes
            // its rows through the same function, so the live and
            // batch layouts cannot drift apart.
            let written = regressors::write_regressor(t_now, t_prev, &self.prev_inputs, &mut x);
            written && self.estimator.ingest(&x, row).is_ok()
        };
        self.x_scratch = x;
        if ok {
            self.stats.rows_ingested += 1;
        } else {
            self.stats.rows_skipped += 1;
        }
    }

    /// `true` when a supervised refit should be launched now: some
    /// cluster has confirmed drift and sat in it for the confirmation
    /// dwell (so the degraded window is externally observable), no
    /// cooldown is pending, and the estimator has seen enough clean
    /// transitions to be trusted.
    pub fn refit_due(&self) -> bool {
        self.cooldown == 0
            && self.estimator.is_warmed_up()
            && self.estimator.observations() >= self.config.min_refit_observations
            && self.machines.iter().any(|m| {
                m.health() == ModelHealth::Drifting && m.dwell() >= self.config.drift.confirm_dwell
            })
    }

    /// Launches one supervised refit through the checkpoint runner:
    /// drifting clusters move to [`ModelHealth::Refitting`], the RLS
    /// solve runs as a retried/deadlined/breaker-guarded cell, and on
    /// success the decoded replacement model is returned for the
    /// service to install (clusters then move to
    /// [`ModelHealth::Recovered`]). On quarantine the clusters fall
    /// back to [`ModelHealth::Drifting`] and `None` is returned; either
    /// way the cooldown restarts.
    pub fn supervised_refit(&mut self) -> Option<ThermalModel> {
        for machine in &mut self.machines {
            machine.begin_refit();
        }
        self.stats.refit_attempts += 1;
        self.refit_ordinal += 1;
        self.cooldown = self.config.refit_cooldown;

        let name = format!("refit-{:06}", self.refit_ordinal);
        let model = self.run_refit_cell(&name);
        match model {
            Some(model) => {
                for machine in &mut self.machines {
                    machine.complete_refit();
                }
                self.stats.refits_completed += 1;
                Some(model)
            }
            None => {
                for machine in &mut self.machines {
                    machine.abort_refit();
                }
                self.stats.refits_quarantined += 1;
                None
            }
        }
    }

    /// The supervised solve itself: estimator snapshot → `run_cell` →
    /// bit-exact payload → decoded model. Any failure (store I/O,
    /// quarantine, decode) yields `None`.
    fn run_refit_cell(&self, name: &str) -> Option<ThermalModel> {
        let mut store = CheckpointStore::open(
            self.config.checkpoint_root.clone(),
            self.config.seed,
            "online",
        )
        .ok()?;
        let snapshot = self.estimator.clone();
        let outcome = run_cell(&mut store, name, &self.config.cell, move || {
            let model = snapshot.solve().map_err(|e| e.to_string())?;
            Ok(encode_refit(&model))
        })
        .ok()?;
        let bytes = match outcome {
            CellOutcome::Restored(b) | CellOutcome::Computed(b) => b,
            CellOutcome::Quarantined { .. } => return None,
        };
        decode_refit(&bytes, self.estimator.spec())
    }
}

/// Encodes a refit payload: shape plus bit-exact coefficients.
fn encode_refit(model: &ThermalModel) -> Vec<u8> {
    let coef = model.coefficients();
    let mut flat = Vec::with_capacity(coef.rows() * coef.cols());
    for r in 0..coef.rows() {
        flat.extend_from_slice(coef.row(r));
    }
    let mut record = Record::new(REFIT_TAG);
    record
        .put_usize("rows", coef.rows())
        .put_usize("cols", coef.cols())
        .put_f64_slice("coef", &flat);
    record.encode()
}

/// Decodes a refit payload back into a model for `spec`; `None` on any
/// shape or payload mismatch.
fn decode_refit(bytes: &[u8], spec: &ModelSpec) -> Option<ThermalModel> {
    let record = Record::decode(bytes, REFIT_TAG).ok()?;
    let rows = record.get_usize("rows").ok()?;
    let cols = record.get_usize("cols").ok()?;
    let flat = record.get_f64_slice("coef").ok()?;
    if rows.checked_mul(cols)? != flat.len() {
        return None;
    }
    let mut coef = Matrix::zeros(rows, cols);
    for (r, chunk) in flat.chunks_exact(cols).enumerate() {
        coef.row_mut(r).copy_from_slice(chunk);
    }
    ThermalModel::new(spec.clone(), coef).ok()
}

/// The estimator, drift machines, noise trackers, learning window and
/// counters round-trip; the per-slot scratch buffers (`residual_sum`,
/// `residual_count`, `x_scratch`) are rebuilt within one slot and are
/// deliberately not saved. `refit_ordinal` rides along so resumed runs
/// keep naming refit cells where the killed run left off.
impl Snapshot for OnlineIdentifier {
    const TAG: &'static str = "stream-online";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        put_nested(rec, "estimator", &self.estimator);
        put_nested_list(rec, "machines", &self.machines);
        let mean_squares: Vec<f64> = self.noise.iter().map(|n| n.mean_square).collect();
        let samples: Vec<u64> = self.noise.iter().map(|n| n.samples).collect();
        rec.put_f64_slice("noise_mean_squares", &mean_squares)
            .put_u64_slice("noise_samples", &samples)
            .put_f64_slice("last_forecast", &self.last_forecast)
            .put_u64("forecast_ready", u64::from(self.forecast_ready))
            .put_usize("prev_rows_len", self.prev_rows.len());
        let mut flat = Vec::new();
        for row in &self.prev_rows {
            flat.extend_from_slice(row);
        }
        rec.put_f64_slice("prev_rows", &flat)
            .put_f64_slice("prev_inputs", &self.prev_inputs)
            .put_u64("prev_inputs_ready", u64::from(self.prev_inputs_ready))
            .put_u64("clean_streak", self.clean_streak)
            .put_u64("cooldown", self.cooldown)
            .put_u64("refit_ordinal", self.refit_ordinal);
        self.stats.put_fields(rec, "");
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let mut estimator = self.estimator.clone();
        get_nested(rec, "estimator", &mut estimator)?;
        let mut machines = self.machines.clone();
        get_nested_list(rec, "machines", &mut machines)?;
        let mean_squares = rec.get_f64_slice("noise_mean_squares")?;
        let samples = rec.get_u64_slice("noise_samples")?;
        if mean_squares.len() != self.noise.len() || samples.len() != self.noise.len() {
            return Err(CkptError::decode(
                "online snapshot",
                format!(
                    "noise trackers cover {} clusters, identifier has {}",
                    mean_squares.len(),
                    self.noise.len()
                ),
            ));
        }
        let last_forecast = rec.get_f64_slice("last_forecast")?;
        let outputs = self.output_clusters.len();
        if !last_forecast.is_empty() && last_forecast.len() != outputs {
            return Err(CkptError::decode(
                "online snapshot",
                format!(
                    "forecast covers {} outputs, spec has {outputs}",
                    last_forecast.len()
                ),
            ));
        }
        let forecast_ready = rec.get_u64("forecast_ready")? != 0;
        let rows_len = rec.get_usize("prev_rows_len")?;
        let flat = rec.get_f64_slice("prev_rows")?;
        if rows_len.checked_mul(outputs) != Some(flat.len()) {
            return Err(CkptError::decode(
                "online snapshot",
                format!(
                    "{rows_len} rows of width {outputs} cannot hold {} values",
                    flat.len()
                ),
            ));
        }
        let prev_inputs = rec.get_f64_slice("prev_inputs")?;
        let prev_inputs_ready = rec.get_u64("prev_inputs_ready")? != 0;
        if prev_inputs_ready && prev_inputs.len() != self.estimator.spec().input_count() {
            return Err(CkptError::decode(
                "online snapshot",
                format!(
                    "input row covers {} inputs, spec has {}",
                    prev_inputs.len(),
                    self.estimator.spec().input_count()
                ),
            ));
        }
        let clean_streak = rec.get_u64("clean_streak")?;
        let cooldown = rec.get_u64("cooldown")?;
        let refit_ordinal = rec.get_u64("refit_ordinal")?;
        let stats = OnlineStats::get_fields(rec, "")?;
        self.estimator = estimator;
        self.machines = machines;
        for (tracker, (&ms, &s)) in self
            .noise
            .iter_mut()
            .zip(mean_squares.iter().zip(samples.iter()))
        {
            tracker.mean_square = ms;
            tracker.samples = s;
        }
        self.last_forecast = last_forecast;
        self.forecast_ready = forecast_ready;
        self.prev_rows.clear();
        for chunk in flat.chunks_exact(outputs.max(1)) {
            self.prev_rows.push_back(chunk.to_vec());
        }
        self.prev_inputs = prev_inputs;
        self.prev_inputs_ready = prev_inputs_ready;
        self.clean_streak = clean_streak;
        self.cooldown = cooldown;
        self.refit_ordinal = refit_ordinal;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use thermal_sysid::ModelOrder;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "thermal-stream-online-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> ModelSpec {
        ModelSpec::new(
            vec!["s0".into(), "s3".into()],
            vec!["u".into()],
            ModelOrder::First,
        )
        .unwrap()
    }

    fn config(tag: &str) -> OnlineConfig {
        let mut config = OnlineConfig::new(scratch(tag));
        config.drift = DriftConfig {
            delta: 0.05,
            lambda: 1.0,
            min_samples: 5,
            confirm_dwell: 2,
            recovered_hold: 4,
            widening: 3.0,
        };
        config.min_refit_observations = 8;
        config.refit_cooldown = 4;
        config
    }

    fn identifier(tag: &str) -> OnlineIdentifier {
        OnlineIdentifier::new(spec(), vec![0, 1], 2, config(tag)).unwrap()
    }

    /// Drives a first-order truth `T(k+1) = a·T(k) + g·u` through the
    /// identifier as cleanly-served slots.
    fn feed(ident: &mut OnlineIdentifier, slots: usize, a: f64, g: f64, start: &mut Vec<f64>) {
        let healthy = vec![FallbackAction::Healthy, FallbackAction::Healthy];
        for k in 0..slots {
            let u = 0.5 + 0.5 * ((k as f64) * 0.29).sin();
            let next: Vec<f64> = start.iter().map(|t| a * t + g * u).collect();
            ident.observe(&next, &healthy, &[Some(u)]);
            *start = next;
        }
    }

    #[test]
    fn config_validation() {
        assert!(OnlineConfig::new("x").validate().is_ok());
        let mut bad = OnlineConfig::new("x");
        bad.refit_cooldown = 0;
        assert!(bad.validate().is_err());
        let mut bad = OnlineConfig::new("x");
        bad.rls.forgetting = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = OnlineConfig::new("x");
        bad.drift.lambda = -1.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn construction_checks_the_cluster_map() {
        assert!(OnlineIdentifier::new(spec(), vec![0], 2, config("map-a")).is_err());
        assert!(OnlineIdentifier::new(spec(), vec![0, 5], 2, config("map-b")).is_err());
        assert!(OnlineIdentifier::new(spec(), vec![0, 1], 2, config("map-c")).is_ok());
    }

    #[test]
    fn clean_slots_feed_the_estimator_and_dirty_slots_do_not() {
        let mut ident = identifier("gate");
        let mut t = vec![20.0, 22.0];
        feed(&mut ident, 10, 0.9, 2.0, &mut t);
        let clean = ident.stats().rows_ingested;
        assert!(clean >= 8, "ingested {clean} of 10 clean transitions");
        // A substituted output must break the streak: no ingest on the
        // dirty slot, none on the slot right after (its regressor row
        // is tainted).
        let dirty = vec![
            FallbackAction::ClusterMean { members: 2 },
            FallbackAction::Healthy,
        ];
        ident.observe(&[21.0, 22.0], &dirty, &[Some(0.5)]);
        let after_dirty = ident.stats().rows_ingested;
        assert_eq!(after_dirty, clean, "dirty slot must not be ingested");
        let healthy = vec![FallbackAction::Healthy, FallbackAction::Healthy];
        ident.observe(&[21.1, 22.1], &healthy, &[Some(0.5)]);
        assert_eq!(
            ident.stats().rows_ingested,
            after_dirty,
            "slot after a dirty one borrows its regressor row and must be skipped"
        );
        ident.observe(&[21.2, 22.2], &healthy, &[Some(0.5)]);
        assert_eq!(
            ident.stats().rows_ingested,
            after_dirty + 1,
            "two clean slots in a row resume ingestion"
        );
        assert!(ident.stats().rows_skipped >= 2);
    }

    #[test]
    fn residuals_only_flow_from_healthy_outputs() {
        let mut ident = identifier("residual");
        let healthy = vec![FallbackAction::Healthy, FallbackAction::Healthy];
        ident.note_forecast(Some(&[20.0, 22.0]));
        ident.observe(&[20.5, 22.0], &healthy, &[Some(0.5)]);
        assert_eq!(ident.stats().residual_slots, 1);
        assert!(ident.cluster_uncertainty(0).is_some());
        // Without a forecast no residual is observed.
        let before = ident.stats().residual_slots;
        ident.observe(&[20.5, 22.0], &healthy, &[Some(0.5)]);
        assert_eq!(ident.stats().residual_slots, before);
        // Unavailable outputs are not compared.
        let dark = vec![FallbackAction::Unavailable, FallbackAction::Unavailable];
        ident.note_forecast(Some(&[20.0, 22.0]));
        ident.observe(&[99.0, 99.0], &dark, &[Some(0.5)]);
        assert_eq!(ident.stats().residual_slots, before);
    }

    #[test]
    fn drift_escalates_and_supervised_refit_recovers() {
        let config = config("refit");
        let root = config.checkpoint_root.clone();
        let mut ident = OnlineIdentifier::new(spec(), vec![0, 1], 2, config).unwrap();
        // Warm the estimator on the true regime.
        let mut t = vec![20.0, 22.0];
        feed(&mut ident, 40, 0.9, 2.0, &mut t);
        assert!(!ident.refit_due(), "no drift confirmed yet");
        // The *served* forecasts suddenly miss by 1 °C slot after slot
        // (a stale model), while the data itself keeps following the
        // true regime the estimator is learning.
        let healthy = vec![FallbackAction::Healthy, FallbackAction::Healthy];
        for _ in 0..10 {
            let u = 0.5;
            let next: Vec<f64> = t.iter().map(|v| 0.9 * v + 2.0 * u).collect();
            let biased: Vec<f64> = next.iter().map(|v| v - 1.0).collect();
            ident.note_forecast(Some(&biased));
            ident.observe(&next, &healthy, &[Some(u)]);
            t = next;
        }
        assert_eq!(ident.cluster_health(0), ModelHealth::Drifting);
        assert!(ident.refit_due());
        let model = ident.supervised_refit().expect("refit should land");
        assert_eq!(model.spec(), ident.estimator.spec());
        assert_eq!(ident.cluster_health(0), ModelHealth::Recovered);
        assert_eq!(ident.stats().refits_completed, 1);
        assert!(!ident.refit_due(), "cooldown must gate the next attempt");
        // The refit learned the true regime it was fed: one predicted
        // step from the current state matches the truth. (Individual
        // coefficients are not pinned — the two outputs share dynamics
        // and become collinear, so the ridge may split weight between
        // them — but the predicted *behavior* must match.)
        let u = 0.5;
        let predicted = model.predict_next(&t, None, &[u]).expect("predict");
        for (p, truth) in predicted.iter().zip(t.iter().map(|v| 0.9 * v + 2.0 * u)) {
            // Tolerance covers the ridge-seed bias of a ~50-sample
            // recursive fit; the stale forecast it replaces was a full
            // 1 °C off.
            assert!((p - truth).abs() < 0.15, "predicted {p}, truth {truth}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn refit_payload_roundtrip_is_bit_exact() {
        let spec = spec();
        let mut coef = Matrix::zeros(2, 3);
        for r in 0..2 {
            for c in 0..3 {
                coef[(r, c)] = 0.1 + (r * 3 + c) as f64 * 0.173;
            }
        }
        let model = ThermalModel::new(spec.clone(), coef).unwrap();
        let bytes = encode_refit(&model);
        let back = decode_refit(&bytes, &spec).expect("roundtrip");
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(
                    back.coefficients()[(r, c)].to_bits(),
                    model.coefficients()[(r, c)].to_bits()
                );
            }
        }
        // Corrupt payloads decode to None, never panic.
        assert!(decode_refit(b"record thermal-refit-v1\nrows 9\n", &spec).is_none());
        assert!(decode_refit(b"garbage", &spec).is_none());
    }
}
