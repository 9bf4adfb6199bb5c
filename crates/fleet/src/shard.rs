//! Per-building shard supervisors: the bulkhead layer.
//!
//! One [`BuildingShard`] owns everything that can fail for one
//! building — its [`StreamService`] (bounded ingest queue, reorder
//! buffers, health machines), its flaky delivery source, a deadline
//! watchdog over buffered depth, and an error budget — so a poisoned
//! trace or drift storm in one building is structurally unable to
//! touch any other: no shared mutable state crosses a shard boundary
//! during serving.
//!
//! Failures escalate through a four-phase machine:
//!
//! ```text
//! Healthy ──(degraded_after consecutive degraded slots)──▶ Degraded
//! Degraded ──(recover_after consecutive healthy slots)──▶ Healthy*
//! Degraded ──(error_budget degraded slots spent)────────▶ Quarantined
//! Quarantined ──(probe_ok breaker-gated healthy probes)─▶ Restored
//! ```
//!
//! `*` a building that has ever been quarantined recovers to
//! `Restored` rather than `Healthy`, so "ever left Healthy" is
//! readable off the final phase plus the transition log.
//!
//! A quarantined shard keeps draining its own queues (the bulkhead
//! stays bounded) but **serves structured blackouts** — see
//! [`BuildingShard::serve`] — while a `thermal-ckpt`
//! [`CircuitBreaker`] paces recovery probes: each allowed probe
//! evaluates the real prediction, failures re-open the breaker, and
//! `probe_ok` consecutive successes restore the building to service.
//! Every phase change is recorded with its slot for the fleet's
//! quarantine event log.

use thermal_ckpt::codec::Record;
use thermal_ckpt::snapshot::{get_nested, put_nested};
use thermal_ckpt::{BreakerPolicy, CircuitBreaker, CkptError, Fields, Snapshot};
use thermal_core::{FallbackAction, ModelHealth};
use thermal_stream::{
    ClusterPrediction, FlakySource, LivePrediction, Reading, SensorHealth, ServiceStats,
    SourceStats, StreamService,
};

use crate::error::{FleetError, Result};

/// The bulkhead escalation phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// Serving live predictions, error budget intact.
    Healthy,
    /// Serving live predictions while burning error budget.
    Degraded,
    /// Serving structured blackouts; breaker-paced probes only.
    Quarantined,
    /// Serving live predictions again after a quarantine.
    Restored,
}

impl ShardPhase {
    /// Stable report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShardPhase::Healthy => "healthy",
            ShardPhase::Degraded => "degraded",
            ShardPhase::Quarantined => "quarantined",
            ShardPhase::Restored => "restored",
        }
    }

    /// Inverse of [`ShardPhase::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "healthy" => Some(ShardPhase::Healthy),
            "degraded" => Some(ShardPhase::Degraded),
            "quarantined" => Some(ShardPhase::Quarantined),
            "restored" => Some(ShardPhase::Restored),
            _ => None,
        }
    }
}

/// One recorded phase change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTransition {
    /// Event-loop slot the change happened at.
    pub slot: usize,
    /// Phase before.
    pub from: ShardPhase,
    /// Phase after.
    pub to: ShardPhase,
}

/// Escalation thresholds of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Leading slots exempt from degradation accounting: until the
    /// watermark passes, no readings have been applied and every
    /// prediction is a structural fallback, not a failure.
    pub warmup_slots: usize,
    /// Consecutive degraded slots before Healthy/Restored → Degraded.
    pub degraded_after: u32,
    /// Consecutive healthy slots before Degraded recovers.
    pub recover_after: u32,
    /// Degraded slots spent in the Degraded phase before quarantine.
    pub error_budget: u32,
    /// Consecutive successful breaker-gated probes before a
    /// quarantined building is restored.
    pub probe_ok: u32,
    /// Deadline-watchdog bound on buffered depth (queue + reorder);
    /// a slot over the bound counts as degraded.
    pub max_depth: usize,
    /// Circuit breaker pacing quarantine probes.
    pub breaker: BreakerPolicy,
}

impl Default for ShardPolicy {
    /// Escalate after 5 degraded slots, quarantine after a 30-slot
    /// budget, restore after 3 clean probes paced 8 slots apart.
    fn default() -> Self {
        ShardPolicy {
            warmup_slots: 24,
            degraded_after: 5,
            recover_after: 12,
            error_budget: 30,
            probe_ok: 3,
            max_depth: 4096,
            breaker: BreakerPolicy::default(),
        }
    }
}

/// Lifetime counters of one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Slots whose prediction (or watchdog) was degraded.
    pub degraded_slots: u64,
    /// Slots served as structured blackouts while quarantined.
    pub blackout_slots: u64,
    /// Deadline-watchdog trips (buffered depth over bound).
    pub watchdog_trips: u64,
    /// Breaker-allowed recovery probes.
    pub probes: u64,
    /// Probes whose prediction was still degraded.
    pub probe_failures: u64,
}

thermal_ckpt::fields!(ShardCounters: degraded_slots, blackout_slots, watchdog_trips, probes,
    probe_failures);

/// One building's bulkhead: service, source, watchdog, error budget
/// and the phase machine, all private to this building.
#[derive(Debug)]
pub struct BuildingShard {
    building: u32,
    service: StreamService,
    source: FlakySource,
    policy: ShardPolicy,
    phase: ShardPhase,
    ever_quarantined: bool,
    consec_degraded: u32,
    consec_healthy: u32,
    budget_spent: u32,
    consec_probe_ok: u32,
    breaker: CircuitBreaker,
    counters: ShardCounters,
    max_depth_seen: usize,
    transitions: Vec<PhaseTransition>,
    /// The service's prediction, refreshed once per step (and at
    /// construction and restore): the degraded check and
    /// [`BuildingShard::serve`] both read it.
    prediction: LivePrediction,
    /// Reused buffer of one slot's arrivals.
    arrivals: Vec<Reading>,
}

impl BuildingShard {
    /// Builds the bulkhead for `building` around an already-fitted
    /// service and its delivery source.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an invalid breaker
    /// policy.
    pub fn new(
        building: u32,
        service: StreamService,
        source: FlakySource,
        policy: ShardPolicy,
    ) -> Result<Self> {
        let breaker =
            CircuitBreaker::new(policy.breaker).map_err(|e| FleetError::InvalidConfig {
                reason: format!("building {building}: {e}"),
            })?;
        Ok(BuildingShard {
            building,
            prediction: service.predict(),
            service,
            source,
            policy,
            phase: ShardPhase::Healthy,
            ever_quarantined: false,
            consec_degraded: 0,
            consec_healthy: 0,
            budget_spent: 0,
            consec_probe_ok: 0,
            breaker,
            counters: ShardCounters::default(),
            max_depth_seen: 0,
            transitions: Vec::new(),
            arrivals: Vec::new(),
        })
    }

    /// Building id this shard supervises.
    #[must_use]
    pub fn building(&self) -> u32 {
        self.building
    }

    /// Current phase.
    #[must_use]
    pub fn phase(&self) -> ShardPhase {
        self.phase
    }

    /// True iff the shard has ever left [`ShardPhase::Healthy`].
    #[must_use]
    pub fn ever_left_healthy(&self) -> bool {
        !self.transitions.is_empty()
    }

    /// Recorded phase changes, chronological.
    #[must_use]
    pub fn transitions(&self) -> &[PhaseTransition] {
        &self.transitions
    }

    /// Lifetime counters.
    #[must_use]
    pub fn counters(&self) -> ShardCounters {
        self.counters
    }

    /// Largest buffered depth ever observed.
    #[must_use]
    pub fn max_depth_seen(&self) -> usize {
        self.max_depth_seen
    }

    /// Service runtime counters.
    #[must_use]
    pub fn service_stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Delivery-source supervision counters.
    #[must_use]
    pub fn source_stats(&self) -> SourceStats {
        self.source.stats()
    }

    /// Final per-sensor health, registry order.
    #[must_use]
    pub fn sensor_health(&self) -> Vec<SensorHealth> {
        self.service.sensor_health()
    }

    /// Slots in the shard's replay schedule.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.source.slots()
    }

    /// The supervised service (read-only: the shard alone steps it).
    #[must_use]
    pub fn service(&self) -> &StreamService {
        &self.service
    }

    /// What the fleet serves for this building right now: the live
    /// prediction computed once per [`BuildingShard::step_slot`],
    /// except under quarantine where every cluster is overridden to a
    /// structured blackout ([`FallbackAction::Unavailable`],
    /// `predicted: None`) — degraded-but-plausible output from a
    /// quarantined building must never leak.
    #[must_use]
    pub fn serve(&self) -> LivePrediction {
        let live = &self.prediction;
        if self.phase != ShardPhase::Quarantined {
            return live.clone();
        }
        LivePrediction {
            at: live.at,
            target: live.target,
            warmed_up: live.warmed_up,
            clusters: live
                .clusters
                .iter()
                .map(|c| ClusterPrediction {
                    cluster: c.cluster,
                    action: FallbackAction::Unavailable,
                    predicted: None,
                    health: ModelHealth::Stable,
                    uncertainty: None,
                })
                .collect(),
        }
    }

    /// Replays the shard's whole schedule through the bulkhead.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Serve`] only for a structural stream
    /// failure (a bug), never for a data condition — fault injection
    /// degrades phases, it does not error.
    pub fn serve_all(&mut self) -> Result<()> {
        self.serve_from(0)
    }

    /// Replays the schedule from `start` onward — the resume path
    /// after restoring a snapshot taken at the `start` slot boundary.
    ///
    /// # Errors
    ///
    /// As [`BuildingShard::serve_all`].
    pub fn serve_from(&mut self, start: usize) -> Result<()> {
        for slot in start..self.source.slots() {
            self.step_slot(slot)?;
        }
        Ok(())
    }

    /// Advances the bulkhead by one event-loop slot.
    ///
    /// # Errors
    ///
    /// As [`BuildingShard::serve_all`].
    pub fn step_slot(&mut self, slot: usize) -> Result<()> {
        let now = self.source.replayer().slot_time(slot);
        self.source.poll_into(slot, &mut self.arrivals);
        // The bulkhead's own queues keep draining in every phase —
        // quarantine gates the *output*, not ingest, so the memory
        // bound holds and recovery probes see fresh state.
        self.service
            .step(now, &self.arrivals)
            .map_err(|e| FleetError::Serve {
                building: self.building,
                reason: format!("slot {slot}: {e}"),
            })?;
        self.service.predict_into(&mut self.prediction);
        let depth = self.service.buffered_depth();
        self.max_depth_seen = self.max_depth_seen.max(depth);
        let watchdog = depth > self.policy.max_depth;
        if watchdog {
            self.counters.watchdog_trips += 1;
        }
        if slot < self.policy.warmup_slots {
            return Ok(());
        }
        let degraded = watchdog || self.prediction.is_degraded();
        if degraded {
            self.counters.degraded_slots += 1;
        }
        match self.phase {
            ShardPhase::Healthy | ShardPhase::Restored => {
                if degraded {
                    self.consec_degraded += 1;
                    if self.consec_degraded >= self.policy.degraded_after {
                        self.transition(slot, ShardPhase::Degraded);
                        self.budget_spent = 0;
                        self.consec_healthy = 0;
                    }
                } else {
                    self.consec_degraded = 0;
                }
            }
            ShardPhase::Degraded => {
                if degraded {
                    self.consec_healthy = 0;
                    self.budget_spent += 1;
                    if self.budget_spent >= self.policy.error_budget {
                        self.transition(slot, ShardPhase::Quarantined);
                        self.ever_quarantined = true;
                        self.consec_probe_ok = 0;
                        // Trip the probe breaker open so the first
                        // probe waits out a full cooldown.
                        for _ in 0..self.policy.breaker.threshold {
                            self.breaker.record_failure();
                        }
                    }
                } else {
                    self.consec_healthy += 1;
                    if self.consec_healthy >= self.policy.recover_after {
                        let back_to = if self.ever_quarantined {
                            ShardPhase::Restored
                        } else {
                            ShardPhase::Healthy
                        };
                        self.transition(slot, back_to);
                        self.consec_degraded = 0;
                    }
                }
            }
            ShardPhase::Quarantined => {
                self.counters.blackout_slots += 1;
                self.breaker.tick();
                if self.breaker.allow() {
                    self.counters.probes += 1;
                    if degraded {
                        self.counters.probe_failures += 1;
                        self.consec_probe_ok = 0;
                        self.breaker.record_failure();
                    } else {
                        self.consec_probe_ok += 1;
                        self.breaker.record_success();
                        if self.consec_probe_ok >= self.policy.probe_ok {
                            self.transition(slot, ShardPhase::Restored);
                            self.consec_degraded = 0;
                            self.consec_healthy = 0;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Records a phase change.
    fn transition(&mut self, slot: usize, to: ShardPhase) {
        self.transitions.push(PhaseTransition {
            slot,
            from: self.phase,
            to,
        });
        self.phase = to;
    }
}

/// Parses one phase label out of a snapshot column.
fn phase_from(label: &str) -> std::result::Result<ShardPhase, CkptError> {
    ShardPhase::from_label(label).ok_or_else(|| {
        CkptError::decode("shard snapshot", format!("unknown shard phase {label:?}"))
    })
}

/// The whole bulkhead rides in one snapshot: the nested service and
/// source, the probe breaker, the phase machine with its hysteresis
/// counters, the error budget, the lifetime counters and the
/// transition log. The shard policy is construction context, and the
/// served prediction is recomputed from the restored service.
impl Snapshot for BuildingShard {
    const TAG: &'static str = "fleet-shard";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        rec.put_value("building", self.building);
        put_nested(rec, "service", &self.service);
        put_nested(rec, "source", &self.source);
        put_nested(rec, "breaker", &self.breaker);
        rec.put("phase", self.phase.label())
            .put_u64("ever_quarantined", u64::from(self.ever_quarantined))
            .put_value("consec_degraded", self.consec_degraded)
            .put_value("consec_healthy", self.consec_healthy)
            .put_value("budget_spent", self.budget_spent)
            .put_value("consec_probe_ok", self.consec_probe_ok);
        self.counters.put_fields(rec, "");
        rec.put_usize("max_depth_seen", self.max_depth_seen);
        let slots: Vec<usize> = self.transitions.iter().map(|t| t.slot).collect();
        let from: Vec<String> = self
            .transitions
            .iter()
            .map(|t| t.from.label().to_owned())
            .collect();
        let to: Vec<String> = self
            .transitions
            .iter()
            .map(|t| t.to.label().to_owned())
            .collect();
        rec.put_usize_slice("transition_slots", &slots)
            .put_str_list("transition_from", &from)
            .put_str_list("transition_to", &to);
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let building: u32 = rec.parse("building")?;
        if building != self.building {
            return Err(CkptError::decode(
                "shard snapshot",
                format!(
                    "snapshot is for building {building}, shard supervises {}",
                    self.building
                ),
            ));
        }
        let mut service = self.service.clone();
        get_nested(rec, "service", &mut service)?;
        let mut source = self.source.clone();
        get_nested(rec, "source", &mut source)?;
        let mut breaker = self.breaker.clone();
        get_nested(rec, "breaker", &mut breaker)?;
        let phase = phase_from(&rec.get("phase")?)?;
        let ever_quarantined = rec.get_u64("ever_quarantined")? != 0;
        let consec_degraded = rec.parse("consec_degraded")?;
        let consec_healthy = rec.parse("consec_healthy")?;
        let budget_spent = rec.parse("budget_spent")?;
        let consec_probe_ok = rec.parse("consec_probe_ok")?;
        let counters = ShardCounters::get_fields(rec, "")?;
        let max_depth_seen = rec.get_usize("max_depth_seen")?;
        let slots = rec.get_usize_slice("transition_slots")?;
        let from = rec.get_str_list("transition_from")?;
        let to = rec.get_str_list("transition_to")?;
        if from.len() != slots.len() || to.len() != slots.len() {
            return Err(CkptError::decode(
                "shard snapshot",
                "transition columns have mismatched lengths",
            ));
        }
        let mut transitions = Vec::with_capacity(slots.len());
        for i in 0..slots.len() {
            transitions.push(PhaseTransition {
                slot: slots[i],
                from: phase_from(&from[i])?,
                to: phase_from(&to[i])?,
            });
        }
        self.service = service;
        self.source = source;
        self.breaker = breaker;
        self.phase = phase;
        self.ever_quarantined = ever_quarantined;
        self.consec_degraded = consec_degraded;
        self.consec_healthy = consec_healthy;
        self.budget_spent = budget_spent;
        self.consec_probe_ok = consec_probe_ok;
        self.counters = counters;
        self.max_depth_seen = max_depth_seen;
        self.transitions = transitions;
        self.service.predict_into(&mut self.prediction);
        Ok(())
    }
}
