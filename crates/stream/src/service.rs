//! The live prediction service: one event loop over queued, reordered,
//! health-supervised readings, serving degradation-aware temperature
//! predictions from the fitted reduced model.
//!
//! [`StreamService::step`] advances simulated time one grid slot:
//! arrivals flow through the bounded ingest queue, fan out to
//! per-channel reorder buffers, and everything at or below the
//! watermark feeds the per-sensor [`crate::HealthMachine`]s.
//! [`StreamService::predict`] then answers from whatever survives,
//! walking the same substitution ladder the batch evaluator uses
//! ([`FallbackAction`]): representative → ranked backup → cluster mean
//! → structured blackout. A prediction is **always** returned — sensor
//! death degrades the answer, it never becomes an `Err` or a panic.

use std::collections::VecDeque;

use thermal_ckpt::codec::Record;
use thermal_ckpt::snapshot::{get_nested, get_nested_list, put_nested, put_nested_list};
use thermal_ckpt::{CkptError, Fields, Snapshot};
use thermal_core::{FallbackAction, ModelHealth, ReducedModel};
use thermal_linalg::Matrix;
use thermal_sysid::ThermalModel;
use thermal_timeseries::Timestamp;

use crate::drift::DriftStats;
use crate::event::{Reading, SimClock};
use crate::health::{HealthConfig, HealthMachine, HealthState};
use crate::online::{OnlineConfig, OnlineIdentifier, OnlineStats};
use crate::queue::{BoundedQueue, OverflowPolicy, QueueStats};
use crate::reorder::{ReorderBuffer, ReorderConfig, ReorderStats};
use crate::{Result, StreamError};

/// Runtime knobs of the service.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Capacity of the single ingest queue (the memory bound).
    pub queue_capacity: usize,
    /// What to do with arrivals while the queue is full.
    pub overflow: OverflowPolicy,
    /// Watermark/reorder settings shared by every channel.
    pub reorder: ReorderConfig,
    /// Health supervision settings shared by every sensor.
    pub health: HealthConfig,
    /// Event-loop slot width in minutes (the telemetry grid step).
    pub step_minutes: u32,
}

impl Default for StreamConfig {
    /// A 4096-reading queue with drop-oldest backpressure over
    /// 5-minute telemetry.
    fn default() -> Self {
        StreamConfig {
            queue_capacity: 4096,
            overflow: OverflowPolicy::DropOldest,
            reorder: ReorderConfig::default(),
            health: HealthConfig::default(),
            step_minutes: 5,
        }
    }
}

impl StreamConfig {
    /// Validates every sub-configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for a zero queue
    /// capacity or step, or invalid reorder/health settings.
    pub fn validate(&self) -> Result<()> {
        if self.queue_capacity == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "ingest queue capacity must be at least 1".to_owned(),
            });
        }
        if self.step_minutes == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "step_minutes must be at least 1".to_owned(),
            });
        }
        self.reorder.validate()?;
        self.health.validate()?;
        Ok(())
    }
}

/// One cluster's slice of a [`LivePrediction`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPrediction {
    /// Cluster index.
    pub cluster: usize,
    /// How the cluster's representative data was sourced this slot.
    pub action: FallbackAction,
    /// Predicted cluster temperature for the next slot; `None` only
    /// under structured blackout ([`FallbackAction::Unavailable`]).
    pub predicted: Option<f64>,
    /// Served-model health of this cluster. Always
    /// [`ModelHealth::Stable`] while online identification is
    /// disabled; under regime drift the cluster is flagged
    /// [`ModelHealth::Drifting`]/[`ModelHealth::Refitting`] and the
    /// prediction counts as degraded even when served from a healthy
    /// sensor.
    pub health: ModelHealth,
    /// One-step residual scale (°C), widened while `health` is
    /// degraded — the uncertainty band HVAC control should assume
    /// around `predicted`. `None` until residuals have been observed
    /// (or while online identification is disabled).
    pub uncertainty: Option<f64>,
}

/// A prediction served by [`StreamService::predict`] — total by
/// construction: every cluster is present, dead sensors degrade their
/// cluster's entry instead of failing the call.
#[derive(Debug, Clone, PartialEq)]
pub struct LivePrediction {
    /// Simulated time the prediction was issued at.
    pub at: Timestamp,
    /// Instant the prediction is *for* (one slot ahead).
    pub target: Timestamp,
    /// `true` once the model rolls open-loop from streamed history;
    /// `false` while still warming up (the prediction is then a
    /// nowcast of the substituted current values).
    pub warmed_up: bool,
    /// Per-cluster predictions, cluster order.
    pub clusters: Vec<ClusterPrediction>,
}

impl LivePrediction {
    /// `true` when any cluster needed a fallback this slot, or is
    /// served by a model whose coefficients are under confirmed drift.
    pub fn is_degraded(&self) -> bool {
        self.clusters
            .iter()
            .any(|c| c.action != FallbackAction::Healthy || c.health.is_degraded())
    }

    /// Clusters under structured blackout.
    pub fn blacked_out(&self) -> Vec<usize> {
        self.clusters
            .iter()
            .filter(|c| c.action == FallbackAction::Unavailable)
            .map(|c| c.cluster)
            .collect()
    }
}

/// One sensor's health snapshot (for reports).
#[derive(Debug, Clone, PartialEq)]
pub struct SensorHealth {
    /// Channel name.
    pub name: String,
    /// Current supervision state.
    pub state: HealthState,
    /// Lifetime state changes (flap indicator).
    pub transitions: u64,
    /// Lifetime implausible readings.
    pub implausible: u64,
}

/// Aggregated runtime counters of a [`StreamService`] — the structured
/// outcomes that replace errors at every lossy boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Ingest-queue accounting.
    pub queue: QueueStats,
    /// Reorder/watermark accounting summed over all channels.
    pub reorder: ReorderStats,
    /// Readings naming a channel index outside the registry.
    pub unknown_channel: u64,
    /// In-order readings accepted as plausible by health supervision.
    pub applied: u64,
    /// In-order readings rejected as implausible.
    pub implausible: u64,
    /// Event-loop steps taken.
    pub steps: u64,
    /// Output slots served from the representative itself.
    pub healthy_outputs: u64,
    /// Output slots served from a ranked backup.
    pub backup_outputs: u64,
    /// Output slots served from a cluster mean.
    pub cluster_mean_outputs: u64,
    /// Output slots under structured blackout.
    pub unavailable_outputs: u64,
    /// Replacement models installed by the online identification loop.
    pub refit_installs: u64,
}

// `queue` and `reorder` are not listed: the service rebuilds them from
// its nested queue and reorder buffers (`StreamService::stats`).
thermal_ckpt::fields!(ServiceStats: unknown_channel, applied, implausible, steps, healthy_outputs,
    backup_outputs, cluster_mean_outputs, unavailable_outputs, refit_installs, ..);

/// Static wiring of one model output column.
#[derive(Debug, Clone)]
struct OutputWiring {
    /// Registry index of the representative sensor.
    sensor: usize,
    /// Cluster the representative serves.
    cluster: usize,
}

/// Heap-free ladder decision for one output this slot; materialised
/// into a [`FallbackAction`] (whose `Backup` variant owns a `String`)
/// only when the action actually changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Served from the representative itself.
    Healthy,
    /// Served from the ranked backup at this registry index.
    Backup(usize),
    /// Served from the mean of this many usable cluster members.
    ClusterMean(usize),
    /// Structured blackout.
    Unavailable,
}

/// The streaming runtime: simulated clock, ingest queue, per-channel
/// reorder buffers and health machines, and the substitution ladder
/// feeding the reduced model.
#[derive(Debug, Clone)]
pub struct StreamService {
    model: ReducedModel,
    config: StreamConfig,
    clock: SimClock,
    /// Registry: sensor channels (dense deployment order) followed by
    /// input channels (model spec order).
    names: Vec<String>,
    sensor_count: usize,
    queue: BoundedQueue,
    reorders: Vec<ReorderBuffer>,
    /// Health machines, sensors only (`0..sensor_count`).
    machines: Vec<HealthMachine>,
    /// Last finite value per input channel.
    input_latest: Vec<Option<f64>>,
    /// Per model output: representative sensor and cluster.
    wiring: Vec<OutputWiring>,
    /// Registry indices of each cluster's members.
    cluster_members: Vec<Vec<usize>>,
    /// Substituted output rows of the last `warmup` slots (oldest
    /// first) — the model's initial condition.
    history: VecDeque<Vec<f64>>,
    /// Last substituted value per output (the blackout freeze).
    frozen: Vec<Option<f64>>,
    /// Ladder action per output, as of the last step.
    actions: Vec<FallbackAction>,
    /// Continuous identification sidecar, when enabled.
    online: Option<OnlineIdentifier>,
    /// One-step forecast per output, refreshed each step; valid only
    /// while `forecast_ready` (warmed up and inputs primed).
    forecast: Vec<f64>,
    /// `true` when `forecast` holds the current open-loop forecast.
    forecast_ready: bool,
    /// Scratch: readings drained from one reorder buffer.
    drain_scratch: Vec<(Timestamp, f64)>,
    /// Scratch: per-output ladder decisions.
    decision_scratch: Vec<(Option<f64>, Decision)>,
    /// Scratch: substituted input row for the forecast.
    input_scratch: Vec<f64>,
    /// Scratch: regressor row for the forecast.
    regressor_scratch: Vec<f64>,
    stats: ServiceStats,
}

impl StreamService {
    /// Builds a service around a fitted reduced model, anchored at
    /// simulated time `start`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] on bad configuration or
    /// a model whose outputs are not all dense-deployment channels.
    pub fn new(model: ReducedModel, config: StreamConfig, start: Timestamp) -> Result<Self> {
        config.validate()?;
        let sensors = model.all_channels().to_vec();
        let sensor_count = sensors.len();
        let inputs = model.model().spec().inputs.clone();
        let mut names = sensors;
        names.extend(inputs.iter().cloned());

        let assignments = model.clustering().assignments().to_vec();
        let mut wiring = Vec::with_capacity(model.model().spec().outputs.len());
        for out in &model.model().spec().outputs {
            let sensor = names
                .iter()
                .take(sensor_count)
                .position(|n| n == out)
                .ok_or_else(|| StreamError::InvalidConfig {
                    reason: format!("model output {out:?} is not a deployment channel"),
                })?;
            let cluster =
                assignments
                    .get(sensor)
                    .copied()
                    .ok_or_else(|| StreamError::InvalidConfig {
                        reason: format!("channel {out:?} has no cluster assignment"),
                    })?;
            wiring.push(OutputWiring { sensor, cluster });
        }
        let cluster_members = model.clustering().clusters();
        let output_count = wiring.len();

        let queue = BoundedQueue::new(config.queue_capacity, config.overflow)?;
        let reorders = (0..names.len())
            .map(|_| ReorderBuffer::new(config.reorder))
            .collect::<Result<Vec<_>>>()?;
        let warmup = model.model().spec().order.warmup();
        let width = model.model().spec().regressor_width();
        Ok(StreamService {
            clock: SimClock::new(start),
            queue,
            reorders,
            machines: vec![HealthMachine::new(); sensor_count],
            input_latest: vec![None; inputs.len()],
            wiring,
            cluster_members,
            history: VecDeque::with_capacity(warmup + 1),
            frozen: vec![None; output_count],
            actions: vec![FallbackAction::Unavailable; output_count],
            online: None,
            forecast: Vec::with_capacity(output_count),
            forecast_ready: false,
            drain_scratch: Vec::with_capacity(config.reorder.capacity),
            decision_scratch: Vec::with_capacity(output_count),
            input_scratch: Vec::with_capacity(inputs.len()),
            regressor_scratch: Vec::with_capacity(width),
            stats: ServiceStats::default(),
            names,
            sensor_count,
            model,
            config,
        })
    }

    /// The fitted model the service predicts with.
    pub fn model(&self) -> &ReducedModel {
        &self.model
    }

    /// Turns on continuous identification: every accepted reading
    /// refines a forgetting-factor RLS estimate, per-cluster drift
    /// detectors watch the one-step residuals, and confirmed drift
    /// triggers a supervised refit that replaces the served
    /// coefficients in place (see [`crate::OnlineIdentifier`]).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for invalid online
    /// settings.
    pub fn enable_online(&mut self, config: OnlineConfig) -> Result<()> {
        let clusters: Vec<usize> = self.wiring.iter().map(|w| w.cluster).collect();
        let online = OnlineIdentifier::new(
            self.model.model().spec().clone(),
            clusters,
            self.cluster_members.len(),
            config,
        )?;
        self.online = Some(online);
        Ok(())
    }

    /// Counters of the online identification loop, when enabled.
    pub fn online_stats(&self) -> Option<OnlineStats> {
        self.online.as_ref().map(OnlineIdentifier::stats)
    }

    /// Served-model health per cluster. All
    /// [`ModelHealth::Stable`] while online identification is
    /// disabled.
    pub fn model_health(&self) -> Vec<ModelHealth> {
        match &self.online {
            Some(online) => online.health(),
            None => vec![ModelHealth::Stable; self.cluster_members.len()],
        }
    }

    /// Drift-supervision counters per cluster; empty while online
    /// identification is disabled.
    pub fn drift_stats(&self) -> Vec<DriftStats> {
        match &self.online {
            Some(online) => (0..self.cluster_members.len())
                .filter_map(|c| online.cluster_drift_stats(c))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Registry index of a channel name (sensors first, then inputs).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownChannel`] when no channel has
    /// that name.
    pub fn channel_index(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| StreamError::UnknownChannel {
                name: name.to_owned(),
            })
    }

    /// Registry channel names, index order (sensors, then inputs).
    pub fn channel_names(&self) -> &[String] {
        &self.names
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Aggregated runtime counters (queue, reorder, health, ladder).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.stats;
        stats.queue = self.queue.stats();
        stats.reorder = ReorderStats::default();
        for r in &self.reorders {
            let s = r.stats();
            stats.reorder.released += s.released;
            stats.reorder.duplicates += s.duplicates;
            stats.reorder.too_late += s.too_late;
            stats.reorder.overflowed += s.overflowed;
            stats.reorder.high_water = stats.reorder.high_water.max(s.high_water);
        }
        stats
    }

    /// Current queue depth plus every reorder buffer's depth — the
    /// number the soak harness asserts stays bounded.
    pub fn buffered_depth(&self) -> usize {
        self.queue.len() + self.reorders.iter().map(ReorderBuffer::len).sum::<usize>()
    }

    /// Health snapshot of every sensor, registry order.
    pub fn sensor_health(&self) -> Vec<SensorHealth> {
        self.machines
            .iter()
            .zip(&self.names)
            .map(|(m, name)| SensorHealth {
                name: name.clone(),
                state: m.state(),
                transitions: m.transitions(),
                implausible: m.implausible_total(),
            })
            .collect()
    }

    /// Health state of one sensor by registry index (`None` for
    /// inputs and out-of-range indices).
    pub fn health_of(&self, sensor: usize) -> Option<HealthState> {
        self.machines.get(sensor).map(HealthMachine::state)
    }

    /// Advances the event loop to `now`: enqueues `arrivals`, drains
    /// the queue through the per-channel reorder buffers, applies
    /// every reading at or below the watermark to health supervision,
    /// ticks the heartbeat watchdogs, and refreshes the substitution
    /// ladder.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::ClockRegression`] when `now` is earlier
    /// than the last step — the only error a driver can provoke;
    /// lossy events are counted in [`ServiceStats`] instead.
    pub fn step(&mut self, now: Timestamp, arrivals: &[Reading]) -> Result<()> {
        self.clock.advance_to(now)?;
        for reading in arrivals {
            if reading.channel >= self.names.len() {
                self.stats.unknown_channel += 1;
                continue;
            }
            self.queue.push(*reading);
        }
        while let Some(reading) = self.queue.pop() {
            // The admission check above guarantees the channel has a
            // reorder buffer; `get_mut` keeps that proof local.
            if let Some(reorder) = self.reorders.get_mut(reading.channel) {
                reorder.offer(&reading);
            }
        }
        let now_minutes = now.as_minutes();
        let mut drained = std::mem::take(&mut self.drain_scratch);
        for (channel, reorder) in self.reorders.iter_mut().enumerate() {
            drained.clear();
            reorder.drain_ready_into(now, &mut drained);
            for &(at, value) in &drained {
                if let Some(machine) = self.machines.get_mut(channel) {
                    if machine.on_reading(&self.config.health, at.as_minutes(), value) {
                        self.stats.applied += 1;
                    } else {
                        self.stats.implausible += 1;
                    }
                } else if value.is_finite() {
                    // Channels past the sensors are inputs; the registry
                    // gives every one an `input_latest` slot.
                    if let Some(slot) = channel
                        .checked_sub(self.sensor_count)
                        .and_then(|i| self.input_latest.get_mut(i))
                    {
                        *slot = Some(value);
                        self.stats.applied += 1;
                    }
                } else {
                    self.stats.implausible += 1;
                }
            }
        }
        self.drain_scratch = drained;
        for machine in &mut self.machines {
            machine.on_tick(&self.config.health, now_minutes);
        }
        self.refresh_ladder();
        self.step_online();
        self.stats.steps += 1;
        Ok(())
    }

    /// One tick of the continuous-identification sidecar: residual
    /// supervision against the previous slot's forecast, RLS
    /// refinement, and — under confirmed drift — the supervised refit
    /// that swaps the served coefficients while this same loop keeps
    /// serving from the old ones.
    fn step_online(&mut self) {
        let Some(mut online) = self.online.take() else {
            self.update_forecast();
            return;
        };
        if let Some(row) = self.history.back() {
            online.observe(row, &self.actions, &self.input_latest);
        }
        if online.refit_due() {
            if let Some(model) = online.supervised_refit() {
                // The estimator shares the served spec by
                // construction, so installation cannot be refused; if
                // it ever were, the old model simply keeps serving.
                if self.model.install_model(model).is_ok() {
                    self.stats.refit_installs += 1;
                }
            }
        }
        // Refresh after any install so both the served prediction and
        // the residual supervisor see the new coefficients.
        self.update_forecast();
        let forecast = if self.forecast_ready {
            Some(self.forecast.as_slice())
        } else {
            None
        };
        online.note_forecast(forecast);
        self.online = Some(online);
    }

    /// `true` when a sensor's last known value may feed predictions.
    /// Out-of-range indices are simply not usable.
    fn usable(&self, sensor: usize) -> bool {
        self.machines
            .get(sensor)
            .is_some_and(|m| m.state().is_usable() && m.last_good_value().is_some())
    }

    /// Walks the substitution ladder for every model output and
    /// appends the substituted row to the model's rolling history.
    fn refresh_ladder(&mut self) {
        let p = &self.config.health.plausibility;
        // Neutral constant for outputs with no data at all yet: the
        // middle of the plausible band keeps the model state finite
        // without pretending precision (those clusters report
        // Unavailable anyway).
        let neutral = (p.min_value + p.max_value) / 2.0;
        // Decide first (the ladder walk borrows `self` shared), then
        // apply over the zipped per-output state — no indexing needed.
        // The decision buffer and the recycled history row keep the
        // steady-state path off the heap.
        let mut decisions = std::mem::take(&mut self.decision_scratch);
        decisions.clear();
        decisions.extend(self.wiring.iter().map(|wire| self.substitute(wire)));
        let warmup = self.model.model().spec().order.warmup();
        let mut row = if self.history.len() >= warmup {
            self.history.pop_front().unwrap_or_default()
        } else {
            Vec::with_capacity(self.wiring.len())
        };
        row.clear();
        for ((slot, act), &(value, decision)) in self
            .frozen
            .iter_mut()
            .zip(self.actions.iter_mut())
            .zip(&decisions)
        {
            match decision {
                Decision::Healthy => self.stats.healthy_outputs += 1,
                Decision::Backup(_) => self.stats.backup_outputs += 1,
                Decision::ClusterMean(_) => self.stats.cluster_mean_outputs += 1,
                Decision::Unavailable => self.stats.unavailable_outputs += 1,
            }
            if let Some(v) = value {
                *slot = Some(v);
            }
            row.push(slot.unwrap_or(neutral));
            Self::assign_action(act, decision, &self.names);
        }
        self.decision_scratch = decisions;
        self.history.push_back(row);
        while self.history.len() > warmup {
            self.history.pop_front();
        }
    }

    /// Materialises a ladder decision into the per-output
    /// [`FallbackAction`], reusing the existing `Backup` string buffer
    /// so an unchanged action never touches the heap.
    fn assign_action(act: &mut FallbackAction, decision: Decision, names: &[String]) {
        match decision {
            Decision::Healthy => *act = FallbackAction::Healthy,
            Decision::ClusterMean(members) => *act = FallbackAction::ClusterMean { members },
            Decision::Unavailable => *act = FallbackAction::Unavailable,
            Decision::Backup(idx) => {
                let name = names.get(idx).map_or("", String::as_str);
                if let FallbackAction::Backup { substitute } = act {
                    if substitute != name {
                        substitute.clear();
                        substitute.push_str(name);
                    }
                } else {
                    *act = FallbackAction::Backup {
                        substitute: name.to_owned(),
                    };
                }
            }
        }
    }

    /// The ladder for one output: representative → first usable ranked
    /// backup → mean of usable cluster members → blackout.
    fn substitute(&self, wire: &OutputWiring) -> (Option<f64>, Decision) {
        if self.usable(wire.sensor) {
            return (
                self.machines
                    .get(wire.sensor)
                    .and_then(|m| m.last_good_value()),
                Decision::Healthy,
            );
        }
        for &backup in self.model.selection().backups(wire.cluster) {
            if backup >= self.sensor_count || !self.usable(backup) {
                continue;
            }
            if let Some(machine) = self.machines.get(backup) {
                return (machine.last_good_value(), Decision::Backup(backup));
            }
        }
        let members = self
            .cluster_members
            .get(wire.cluster)
            .map_or(&[][..], Vec::as_slice);
        let mut sum = 0.0;
        let mut count = 0_usize;
        for &m in members {
            if m < self.sensor_count && self.usable(m) {
                if let Some(v) = self.machines.get(m).and_then(|mach| mach.last_good_value()) {
                    sum += v;
                    count += 1;
                }
            }
        }
        if count > 0 {
            return (Some(sum / count as f64), Decision::ClusterMean(count));
        }
        (None, Decision::Unavailable)
    }

    /// Refreshes the cached one-step forecast per output, once warmed
    /// up (full substituted history and at least one value on every
    /// input channel); clears `forecast_ready` while still warming.
    ///
    /// Called once per step so [`StreamService::predict`] is a pure
    /// read of precomputed state — the serving path never allocates.
    fn update_forecast(&mut self) {
        self.forecast_ready = false;
        let warmup = self.model.model().spec().order.warmup();
        if self.history.len() < warmup || !self.input_latest.iter().all(Option::is_some) {
            return;
        }
        self.input_scratch.clear();
        for v in &self.input_latest {
            self.input_scratch.push(v.unwrap_or(0.0));
        }
        let Some(current) = self.history.back() else {
            return;
        };
        let previous = if warmup >= 2 {
            self.history.front().map(Vec::as_slice)
        } else {
            None
        };
        let mut regressor = std::mem::take(&mut self.regressor_scratch);
        let mut out = std::mem::take(&mut self.forecast);
        // A dimension error here would be a wiring bug; degrade to
        // the nowcast rather than surfacing an Err from a serving
        // path that promises totality.
        let ok = self
            .model
            .model()
            .predict_next_into(
                current,
                previous,
                &self.input_scratch,
                &mut regressor,
                &mut out,
            )
            .is_ok();
        self.regressor_scratch = regressor;
        self.forecast = out;
        self.forecast_ready = ok;
    }

    /// Serves a prediction for the next slot. Total: every cluster
    /// gets an entry; clusters whose every data source is dead are
    /// reported as [`FallbackAction::Unavailable`] with `predicted:
    /// None` while the rest keep predicting.
    ///
    /// Before the model is warmed up (full substituted history and at
    /// least one value on every input channel) the prediction is a
    /// nowcast: the substituted current values, flagged `warmed_up:
    /// false`.
    pub fn predict(&self) -> LivePrediction {
        let mut out = LivePrediction {
            at: self.clock.now(),
            target: self.clock.now(),
            warmed_up: false,
            clusters: Vec::with_capacity(self.cluster_members.len()),
        };
        self.predict_into(&mut out);
        out
    }

    /// Serves a prediction into a caller-owned [`LivePrediction`],
    /// reusing its cluster entries (including `Backup` string buffers)
    /// so the steady-state serving path never allocates. Semantics
    /// are identical to [`StreamService::predict`].
    pub fn predict_into(&self, out: &mut LivePrediction) {
        let now = self.clock.now();
        out.at = now;
        out.target = now + i64::from(self.config.step_minutes);
        out.warmed_up = self.forecast_ready;

        let n = self.cluster_members.len();
        out.clusters.truncate(n);
        while out.clusters.len() < n {
            out.clusters.push(ClusterPrediction {
                cluster: 0,
                action: FallbackAction::Unavailable,
                predicted: None,
                health: ModelHealth::Stable,
                uncertainty: None,
            });
        }
        for (c, entry) in out.clusters.iter_mut().enumerate() {
            entry.cluster = c;
            entry.health = self
                .online
                .as_ref()
                .map_or(ModelHealth::Stable, |o| o.cluster_health(c));
            entry.uncertainty = self.online.as_ref().and_then(|o| o.cluster_uncertainty(c));
            let mut sum = 0.0;
            let mut count = 0_usize;
            // The most severe contributing action, borrowed until the
            // single materialisation below.
            let mut chosen: Option<&FallbackAction> = None;
            let outputs = self
                .wiring
                .iter()
                .zip(&self.actions)
                .zip(&self.frozen)
                .enumerate();
            for (o, ((wire, act), frozen)) in outputs {
                if wire.cluster != c {
                    continue;
                }
                if *act == FallbackAction::Unavailable {
                    continue;
                }
                let value = if self.forecast_ready {
                    self.forecast.get(o).copied()
                } else {
                    *frozen
                };
                if let Some(v) = value {
                    sum += v;
                    count += 1;
                    chosen = Some(match chosen {
                        Some(current) if Self::rank(current) >= Self::rank(act) => current,
                        _ => act,
                    });
                }
            }
            if count > 0 {
                entry.predicted = Some(sum / count as f64);
                Self::clone_action_into(
                    &mut entry.action,
                    chosen.unwrap_or(&FallbackAction::Unavailable),
                );
            } else {
                entry.predicted = None;
                entry.action = FallbackAction::Unavailable;
            }
        }
    }

    /// Severity rank of a ladder action (higher is worse); clusters
    /// with several representatives report their worst source.
    fn rank(a: &FallbackAction) -> u8 {
        match a {
            FallbackAction::Healthy => 0,
            FallbackAction::Backup { .. } => 1,
            FallbackAction::ClusterMean { .. } => 2,
            _ => 3,
        }
    }

    /// Clones an action into an existing slot, reusing the `Backup`
    /// string buffer when both sides carry one.
    fn clone_action_into(dst: &mut FallbackAction, src: &FallbackAction) {
        if let (
            FallbackAction::Backup { substitute: d },
            FallbackAction::Backup { substitute: s },
        ) = (&mut *dst, src)
        {
            if d != s {
                d.clear();
                d.push_str(s);
            }
            return;
        }
        *dst = src.clone();
    }
}

/// Encodes one ladder action as a stable label for snapshots.
fn action_label(a: &FallbackAction) -> String {
    match a {
        FallbackAction::Healthy => "healthy".to_owned(),
        FallbackAction::Backup { substitute } => format!("backup:{substitute}"),
        FallbackAction::ClusterMean { members } => format!("cluster-mean:{members}"),
        _ => "unavailable".to_owned(),
    }
}

/// Decodes an [`action_label`] back into the action.
fn action_from_label(label: &str) -> std::result::Result<FallbackAction, CkptError> {
    if label == "healthy" {
        return Ok(FallbackAction::Healthy);
    }
    if label == "unavailable" {
        return Ok(FallbackAction::Unavailable);
    }
    if let Some(substitute) = label.strip_prefix("backup:") {
        return Ok(FallbackAction::Backup {
            substitute: substitute.to_owned(),
        });
    }
    if let Some(members) = label.strip_prefix("cluster-mean:") {
        let members = members.parse().map_err(|e| {
            CkptError::decode("service snapshot", format!("cluster-mean members: {e}"))
        })?;
        return Ok(FallbackAction::ClusterMean { members });
    }
    Err(CkptError::decode(
        "service snapshot",
        format!("unknown ladder action {label:?}"),
    ))
}

/// Packs a `Vec<Option<f64>>` into a presence mask plus values (`0.0`
/// placeholders for `None`, so re-capturing a restored service is
/// byte-identical).
fn put_opt_f64s(rec: &mut Record, mask_key: &str, values_key: &str, opts: &[Option<f64>]) {
    let mask: Vec<u64> = opts.iter().map(|o| u64::from(o.is_some())).collect();
    let values: Vec<f64> = opts.iter().map(|o| o.unwrap_or(0.0)).collect();
    rec.put_u64_slice(mask_key, &mask)
        .put_f64_slice(values_key, &values);
}

/// Inverse of [`put_opt_f64s`]; `expect` pins the slot count.
fn get_opt_f64s(
    rec: &Record,
    mask_key: &str,
    values_key: &str,
    expect: usize,
) -> std::result::Result<Vec<Option<f64>>, CkptError> {
    let mask = rec.get_u64_slice(mask_key)?;
    let values = rec.get_f64_slice(values_key)?;
    if mask.len() != expect || values.len() != expect {
        return Err(CkptError::decode(
            "service snapshot",
            format!(
                "field {mask_key:?} covers {} slots, service has {expect}",
                mask.len()
            ),
        ));
    }
    Ok(mask
        .iter()
        .zip(values.iter())
        .map(|(&m, &v)| (m != 0).then_some(v))
        .collect())
}

/// Everything the event loop accumulates round-trips: the simulated
/// clock, ingest queue, per-channel reorder buffers, per-sensor health
/// machines, the freeze/history/ladder state, the served coefficients
/// (refits mutate them in place), and the online identifier when
/// enabled. Static wiring, the channel registry, configuration and the
/// four per-slot scratch buffers are construction context and are
/// deliberately not saved.
impl Snapshot for StreamService {
    const TAG: &'static str = "stream-service";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        let coef = self.model.model().coefficients();
        let mut flat = Vec::with_capacity(coef.rows() * coef.cols());
        for r in 0..coef.rows() {
            flat.extend_from_slice(coef.row(r));
        }
        rec.put_usize("coef_rows", coef.rows())
            .put_usize("coef_cols", coef.cols())
            .put_f64_slice("coef", &flat);
        put_nested(rec, "clock", &self.clock);
        put_nested(rec, "queue", &self.queue);
        put_nested_list(rec, "reorders", &self.reorders);
        put_nested_list(rec, "machines", &self.machines);
        put_opt_f64s(rec, "input_latest_mask", "input_latest", &self.input_latest);
        put_opt_f64s(rec, "frozen_mask", "frozen", &self.frozen);
        rec.put_usize("history_len", self.history.len());
        let mut history_flat = Vec::new();
        for row in &self.history {
            history_flat.extend_from_slice(row);
        }
        rec.put_f64_slice("history", &history_flat);
        let actions: Vec<String> = self.actions.iter().map(action_label).collect();
        rec.put_str_list("actions", &actions);
        match &self.online {
            Some(online) => {
                rec.put_u64("online", 1);
                put_nested(rec, "online_state", online);
            }
            None => {
                rec.put_u64("online", 0);
            }
        }
        rec.put_f64_slice("forecast", &self.forecast)
            .put_u64("forecast_ready", u64::from(self.forecast_ready));
        self.stats.put_fields(rec, "");
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let rows = rec.get_usize("coef_rows")?;
        let cols = rec.get_usize("coef_cols")?;
        let flat = rec.get_f64_slice("coef")?;
        let coef = Matrix::from_vec(rows, cols, flat)
            .map_err(|e| CkptError::decode("service snapshot", format!("coefficients: {e}")))?;
        let model = ThermalModel::new(self.model.model().spec().clone(), coef)
            .map_err(|e| CkptError::decode("service snapshot", format!("coefficients: {e}")))?;
        let mut clock = self.clock;
        get_nested(rec, "clock", &mut clock)?;
        let mut queue = self.queue.clone();
        get_nested(rec, "queue", &mut queue)?;
        let mut reorders = self.reorders.clone();
        get_nested_list(rec, "reorders", &mut reorders)?;
        let mut machines = self.machines.clone();
        get_nested_list(rec, "machines", &mut machines)?;
        let input_latest = get_opt_f64s(
            rec,
            "input_latest_mask",
            "input_latest",
            self.input_latest.len(),
        )?;
        let frozen = get_opt_f64s(rec, "frozen_mask", "frozen", self.frozen.len())?;
        let outputs = self.wiring.len();
        let history_len = rec.get_usize("history_len")?;
        let history_flat = rec.get_f64_slice("history")?;
        if history_len.checked_mul(outputs) != Some(history_flat.len()) {
            return Err(CkptError::decode(
                "service snapshot",
                format!(
                    "{history_len} history rows of width {outputs} cannot hold {} values",
                    history_flat.len()
                ),
            ));
        }
        let action_labels = rec.get_str_list("actions")?;
        if action_labels.len() != outputs {
            return Err(CkptError::decode(
                "service snapshot",
                format!(
                    "ladder covers {} outputs, service has {outputs}",
                    action_labels.len()
                ),
            ));
        }
        let mut actions = Vec::with_capacity(outputs);
        for label in &action_labels {
            actions.push(action_from_label(label)?);
        }
        let online_present = rec.get_u64("online")? != 0;
        let mut online = match (online_present, &self.online) {
            (true, Some(live)) => {
                let mut online = live.clone();
                get_nested(rec, "online_state", &mut online)?;
                Some(online)
            }
            (false, None) => None,
            (snap, _) => {
                return Err(CkptError::decode(
                    "service snapshot",
                    format!(
                        "online identification is {} in the snapshot but {} in the service",
                        if snap { "enabled" } else { "disabled" },
                        if snap { "disabled" } else { "enabled" },
                    ),
                ));
            }
        };
        let forecast = rec.get_f64_slice("forecast")?;
        if !forecast.is_empty() && forecast.len() != outputs {
            return Err(CkptError::decode(
                "service snapshot",
                format!(
                    "forecast covers {} outputs, service has {outputs}",
                    forecast.len()
                ),
            ));
        }
        let forecast_ready = rec.get_u64("forecast_ready")? != 0;
        let stats = ServiceStats::get_fields(rec, "")?;
        self.model
            .install_model(model)
            .map_err(|e| CkptError::decode("service snapshot", format!("install: {e}")))?;
        self.clock = clock;
        self.queue = queue;
        self.reorders = reorders;
        self.machines = machines;
        self.input_latest = input_latest;
        self.frozen = frozen;
        self.history.clear();
        for chunk in history_flat.chunks_exact(outputs.max(1)) {
            self.history.push_back(chunk.to_vec());
        }
        self.actions = actions;
        self.online = online.take();
        self.forecast = forecast;
        self.forecast_ready = forecast_ready;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermal_cluster::Clustering;
    use thermal_linalg::Matrix;
    use thermal_select::Selection;
    use thermal_sysid::{ModelOrder, ModelSpec, ThermalModel};

    /// Four sensors in two clusters ({s0, s1, s2}, {s3}); reps s0 and
    /// s3; ranked backup s1 for cluster 0. The model is the identity
    /// hold (`T(k+1) = T(k)`), so prediction values are transparent.
    fn fixture() -> ReducedModel {
        let names: Vec<String> = (0..4).map(|i| format!("s{i}")).collect();
        let clustering = Clustering::from_assignments(vec![0, 0, 0, 1], 2).unwrap();
        let selection = Selection::new(vec![vec![0], vec![3]])
            .unwrap()
            .with_backups(vec![vec![1], vec![]])
            .unwrap();
        let spec = ModelSpec::new(
            vec!["s0".to_owned(), "s3".to_owned()],
            vec!["u".to_owned()],
            ModelOrder::First,
        )
        .unwrap();
        let mut coef = Matrix::zeros(2, 3);
        coef.row_mut(0)[0] = 1.0;
        coef.row_mut(1)[1] = 1.0;
        let model = ThermalModel::new(spec, coef).unwrap();
        ReducedModel::new(
            names.clone(),
            clustering,
            selection,
            vec!["s0".to_owned(), "s3".to_owned()],
            model,
        )
    }

    fn service() -> StreamService {
        StreamService::new(
            fixture(),
            StreamConfig::default(),
            Timestamp::from_minutes(0),
        )
        .unwrap()
    }

    /// Readings for the given sensors at `minute`, values 20 + index.
    fn batch(minute: i64, sensors: &[usize]) -> Vec<Reading> {
        let mut out: Vec<Reading> = sensors
            .iter()
            .map(|&s| Reading {
                channel: s,
                at: Timestamp::from_minutes(minute),
                value: 20.0 + s as f64,
            })
            .collect();
        out.push(Reading {
            channel: 4, // input "u"
            at: Timestamp::from_minutes(minute),
            value: 0.5,
        });
        out
    }

    /// Drives `svc` for `slots` 5-minute slots, feeding `sensors`.
    fn drive(svc: &mut StreamService, from_slot: i64, slots: i64, sensors: &[usize]) {
        for k in from_slot..from_slot + slots {
            let now = Timestamp::from_minutes(k * 5);
            svc.step(now, &batch(now.as_minutes(), sensors)).unwrap();
        }
    }

    #[test]
    fn registry_resolves_sensors_and_inputs() {
        let svc = service();
        assert_eq!(svc.channel_index("s2").unwrap(), 2);
        assert_eq!(svc.channel_index("u").unwrap(), 4);
        assert!(matches!(
            svc.channel_index("nope"),
            Err(StreamError::UnknownChannel { .. })
        ));
        assert_eq!(svc.channel_names().len(), 5);
    }

    #[test]
    fn clock_regression_is_the_only_step_error() {
        let mut svc = service();
        svc.step(Timestamp::from_minutes(10), &[]).unwrap();
        assert!(matches!(
            svc.step(Timestamp::from_minutes(5), &[]),
            Err(StreamError::ClockRegression { .. })
        ));
    }

    #[test]
    fn healthy_flow_predicts_from_representatives() {
        let mut svc = service();
        // Lateness budget is 15 min: readings release ~3 slots back.
        drive(&mut svc, 0, 10, &[0, 1, 2, 3]);
        let p = svc.predict();
        assert!(p.warmed_up, "history and inputs should be primed");
        assert!(!p.is_degraded());
        assert_eq!(p.clusters.len(), 2);
        assert_eq!(p.clusters[0].action, FallbackAction::Healthy);
        // Identity-hold model: prediction equals the rep's last value.
        assert_eq!(p.clusters[0].predicted, Some(20.0));
        assert_eq!(p.clusters[1].predicted, Some(23.0));
        assert_eq!(p.target - p.at, 5);
    }

    #[test]
    fn dead_rep_falls_back_to_ranked_backup() {
        let mut svc = service();
        drive(&mut svc, 0, 10, &[0, 1, 2, 3]);
        // s0 goes silent for over an hour; s1, s2, s3 keep reporting.
        drive(&mut svc, 10, 20, &[1, 2, 3]);
        assert_eq!(svc.health_of(0), Some(HealthState::Dead));
        let p = svc.predict();
        assert!(p.warmed_up);
        assert_eq!(
            p.clusters[0].action,
            FallbackAction::Backup {
                substitute: "s1".to_owned()
            }
        );
        assert_eq!(p.clusters[0].predicted, Some(21.0), "backup value served");
        assert_eq!(p.clusters[1].action, FallbackAction::Healthy);
    }

    #[test]
    fn dead_rep_and_backup_fall_back_to_cluster_mean() {
        let mut svc = service();
        drive(&mut svc, 0, 10, &[0, 1, 2, 3]);
        // Only s2 (neither rep nor ranked backup) and s3 survive.
        drive(&mut svc, 10, 20, &[2, 3]);
        let p = svc.predict();
        assert_eq!(
            p.clusters[0].action,
            FallbackAction::ClusterMean { members: 1 }
        );
        assert_eq!(p.clusters[0].predicted, Some(22.0));
    }

    #[test]
    fn whole_cluster_dead_is_a_structured_blackout_not_an_error() {
        let mut svc = service();
        drive(&mut svc, 0, 10, &[0, 1, 2, 3]);
        // Cluster 0 dies entirely; cluster 1 keeps reporting.
        drive(&mut svc, 10, 20, &[3]);
        let p = svc.predict();
        assert_eq!(p.clusters[0].action, FallbackAction::Unavailable);
        assert_eq!(p.clusters[0].predicted, None);
        assert_eq!(p.blacked_out(), vec![0]);
        // The healthy cluster still predicts.
        assert_eq!(p.clusters[1].action, FallbackAction::Healthy);
        assert_eq!(p.clusters[1].predicted, Some(23.0));
    }

    #[test]
    fn predictions_always_available_for_any_proper_subset_dead() {
        // Acceptance criterion: kill every proper subset of sensors;
        // predict() must return values for every cluster that retains
        // at least one live member, and never panic or error.
        for dead_mask in 0_u32..15 {
            let alive: Vec<usize> = (0..4).filter(|s| dead_mask & (1 << s) == 0).collect();
            let mut svc = service();
            drive(&mut svc, 0, 10, &[0, 1, 2, 3]);
            drive(&mut svc, 10, 20, &alive);
            let p = svc.predict();
            assert_eq!(p.clusters.len(), 2);
            let cluster0_alive = alive.iter().any(|&s| s < 3);
            let cluster1_alive = alive.contains(&3);
            assert_eq!(
                p.clusters[0].predicted.is_some(),
                cluster0_alive,
                "mask {dead_mask:#06b}"
            );
            assert_eq!(
                p.clusters[1].predicted.is_some(),
                cluster1_alive,
                "mask {dead_mask:#06b}"
            );
        }
    }

    #[test]
    fn recovery_restores_healthy_service() {
        let mut svc = service();
        drive(&mut svc, 0, 10, &[0, 1, 2, 3]);
        drive(&mut svc, 10, 20, &[1, 2, 3]);
        assert_eq!(svc.health_of(0), Some(HealthState::Dead));
        // s0 resumes; after probation it serves again.
        drive(&mut svc, 30, 10, &[0, 1, 2, 3]);
        assert_eq!(svc.health_of(0), Some(HealthState::Live));
        let p = svc.predict();
        assert_eq!(p.clusters[0].action, FallbackAction::Healthy);
    }

    #[test]
    fn unknown_channel_indices_are_counted_not_fatal() {
        let mut svc = service();
        let mut arrivals = batch(0, &[0]);
        arrivals.push(Reading {
            channel: 99,
            at: Timestamp::from_minutes(0),
            value: 20.0,
        });
        svc.step(Timestamp::from_minutes(0), &arrivals).unwrap();
        assert_eq!(svc.stats().unknown_channel, 1);
    }

    #[test]
    fn stats_aggregate_ladder_and_boundary_counters() {
        let mut svc = service();
        drive(&mut svc, 0, 10, &[0, 1, 2, 3]);
        drive(&mut svc, 10, 20, &[3]);
        let stats = svc.stats();
        assert!(stats.applied > 0);
        assert!(stats.healthy_outputs > 0);
        assert!(stats.unavailable_outputs > 0, "cluster 0 blacked out");
        assert_eq!(stats.steps, 30);
        assert!(stats.queue.high_water > 0);
        assert!(svc.buffered_depth() <= svc.queue.capacity() + 5 * 32);
    }

    /// A fast-reacting online configuration rooted at a scratch
    /// checkpoint dir unique to `tag`.
    fn online_config(tag: &str) -> OnlineConfig {
        let root = std::env::temp_dir().join(format!(
            "thermal-stream-service-online-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let mut config = OnlineConfig::new(root);
        config.rls.forgetting = 0.9;
        config.drift = crate::drift::DriftConfig {
            delta: 0.05,
            lambda: 0.5,
            min_samples: 5,
            confirm_dwell: 2,
            recovered_hold: 4,
            widening: 3.0,
        };
        config.cell = thermal_ckpt::CellPolicy {
            max_attempts: 2,
            backoff_base_ms: 0,
            breaker_threshold: 6,
        };
        config.min_refit_observations = 8;
        config.refit_cooldown = 4;
        config
    }

    /// Readings at `minute` following a ramp of `slope` °C per slot
    /// from the 20 + index baseline.
    fn ramp_batch(minute: i64, slope: f64, ramp_slots: i64) -> Vec<Reading> {
        let mut out: Vec<Reading> = (0..4)
            .map(|s| Reading {
                channel: s,
                at: Timestamp::from_minutes(minute),
                value: 20.0 + s as f64 + slope * ramp_slots as f64,
            })
            .collect();
        out.push(Reading {
            channel: 4,
            at: Timestamp::from_minutes(minute),
            value: 0.5,
        });
        out
    }

    #[test]
    fn disabled_online_reports_stable_health() {
        let mut svc = service();
        drive(&mut svc, 0, 10, &[0, 1, 2, 3]);
        assert_eq!(svc.model_health(), vec![ModelHealth::Stable; 2]);
        assert!(svc.online_stats().is_none());
        assert!(svc.drift_stats().is_empty());
        let p = svc.predict();
        assert!(p.clusters.iter().all(|c| c.health == ModelHealth::Stable));
        assert!(p.clusters.iter().all(|c| c.uncertainty.is_none()));
        assert!(!p.is_degraded());
    }

    #[test]
    fn online_loop_detects_drift_refits_and_recovers() {
        let root_cfg = online_config("recover");
        let ckpt_root = root_cfg.checkpoint_root.clone();
        let mut svc = service();
        svc.enable_online(root_cfg).unwrap();

        // Phase 1: the identity-hold regime the model was "fitted" on.
        drive(&mut svc, 0, 30, &[0, 1, 2, 3]);
        assert_eq!(svc.model_health(), vec![ModelHealth::Stable; 2]);
        let warm = svc.online_stats().unwrap();
        assert!(warm.rows_ingested >= 8, "ingested {}", warm.rows_ingested);

        // Phase 2: regime shift — every sensor starts ramping, which
        // the identity-hold coefficients cannot explain.
        let mut saw_drift_degradation = false;
        for k in 0..60_i64 {
            let now = Timestamp::from_minutes((30 + k) * 5);
            svc.step(now, &ramp_batch(now.as_minutes(), 0.3, k))
                .unwrap();
            let p = svc.predict();
            if p.clusters
                .iter()
                .any(|c| c.health.is_degraded() && c.action == FallbackAction::Healthy)
            {
                assert!(
                    p.is_degraded(),
                    "drift must flag the prediction degraded even with healthy sensors"
                );
                saw_drift_degradation = true;
            }
        }
        assert!(
            saw_drift_degradation,
            "the drift window never flagged a served prediction"
        );
        let stats = svc.online_stats().unwrap();
        let drift = svc.drift_stats();
        assert!(
            drift.iter().any(|d| d.alarms > 0),
            "no cluster ever alarmed: {drift:?}"
        );
        assert!(
            svc.stats().refit_installs >= 1,
            "no refit was installed: {stats:?}"
        );
        // The refitted coefficients track the ramp where the identity
        // hold could not: the served forecast now moves with the data.
        let p = svc.predict();
        for c in &p.clusters {
            let predicted = c.predicted.expect("healthy cluster must predict");
            let current = 20.0 + 3.0 * c.cluster as f64 + 0.3 * 59.0;
            assert!(
                (predicted - current).abs() < 3.0,
                "cluster {} prediction {predicted} lost the ramp (now at ~{current})",
                c.cluster
            );
            assert!(c.uncertainty.is_some(), "residual scale must be published");
        }
        let _ = std::fs::remove_dir_all(&ckpt_root);
    }

    #[test]
    fn online_trace_is_bitwise_deterministic() {
        let run = |tag: &str| {
            let config = online_config(tag);
            let root = config.checkpoint_root.clone();
            let mut svc = service();
            svc.enable_online(config).unwrap();
            drive(&mut svc, 0, 20, &[0, 1, 2, 3]);
            let mut log: Vec<(u64, u64, Vec<Option<u64>>)> = Vec::new();
            for k in 0..40_i64 {
                let now = Timestamp::from_minutes((20 + k) * 5);
                svc.step(now, &ramp_batch(now.as_minutes(), 0.3, k))
                    .unwrap();
                let p = svc.predict();
                let stats = svc.online_stats().unwrap();
                log.push((
                    stats.rows_ingested,
                    stats.refits_completed,
                    p.clusters
                        .iter()
                        .map(|c| c.predicted.map(f64::to_bits))
                        .collect(),
                ));
            }
            let _ = std::fs::remove_dir_all(&root);
            log
        };
        assert_eq!(run("det-a"), run("det-b"));
    }

    #[test]
    fn service_trace_is_bitwise_deterministic() {
        let run = || {
            let mut svc = service();
            let mut log: Vec<(u64, Vec<Option<u64>>)> = Vec::new();
            drive(&mut svc, 0, 10, &[0, 1, 2, 3]);
            drive(&mut svc, 10, 15, &[1, 3]);
            for k in 25..30 {
                let now = Timestamp::from_minutes(k * 5);
                svc.step(now, &batch(now.as_minutes(), &[0, 1, 2, 3]))
                    .unwrap();
                let p = svc.predict();
                log.push((
                    svc.stats().applied,
                    p.clusters
                        .iter()
                        .map(|c| c.predicted.map(f64::to_bits))
                        .collect(),
                ));
            }
            log
        };
        assert_eq!(run(), run());
    }
}
