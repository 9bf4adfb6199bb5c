//! Canonical, byte-stable fleet reports.
//!
//! The blast-radius guarantee is asserted by **byte comparison**: an
//! untargeted building's report from a faulted fleet run must equal,
//! byte for byte, its report from a fault-free run. Two rules make
//! that possible:
//!
//! * a [`BuildingReport`] contains *only* building-local state — its
//!   own spec, fit outcome, bulkhead counters, stream stats and final
//!   predictions. Fleet-level facts (which buildings were targeted,
//!   what was shed elsewhere) live in [`FleetReport`] and the
//!   [`QuarantineLog`], which are allowed to differ between runs;
//! * serialization is canonical: every document goes through the
//!   workspace's one writer, [`thermal_ckpt::json`] (fixed field
//!   order, floats as the hex of their IEEE-754 bits with a rounded
//!   echo), and the sections a building shares with a soak intensity
//!   are written by `thermal_stream`'s own functions
//!   ([`counters_json`], [`final_state_json`]).

use thermal_ckpt::json::{JsonWriter, Layout};
use thermal_ckpt::Fields;
use thermal_stream::{
    counters_json, final_state_json, IngestStats, SensorHealth, ServiceStats, SoakPrediction,
    SourceStats,
};

use crate::shard::{PhaseTransition, ShardCounters};

/// How a building's cluster→select→identify stage ended.
#[derive(Debug, Clone, PartialEq)]
pub enum FitStatus {
    /// Fit succeeded; the building was served.
    Fitted {
        /// Clusters in the reduced model.
        clusters: usize,
        /// Selected representative channels, cluster order.
        selected: Vec<String>,
    },
    /// Fit failed terminally; the building is quarantined at fit and
    /// serves blackouts without ever starting a stream.
    Failed {
        /// The terminal fit error.
        reason: String,
    },
    /// Admission control refused the building before fit.
    Shed {
        /// Which budget refused it (stable label).
        reason: String,
    },
}

/// Everything measured while serving one building.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Event-loop slots replayed.
    pub slots: usize,
    /// Final bulkhead phase label.
    pub final_phase: String,
    /// True iff the building ever left `healthy`.
    pub ever_left_healthy: bool,
    /// Chronological phase changes.
    pub transitions: Vec<PhaseTransition>,
    /// Bulkhead lifetime counters.
    pub counters: ShardCounters,
    /// Largest buffered depth observed.
    pub max_depth_seen: usize,
    /// Watchdog depth bound.
    pub depth_bound: usize,
    /// CSV lines the fault layer corrupted for this building.
    pub corrupted_lines: u64,
    /// Row-tolerant ingest accounting.
    pub ingest: IngestStats,
    /// Delivery-source supervision accounting.
    pub source: SourceStats,
    /// Stream-service runtime counters.
    pub service: ServiceStats,
    /// Final per-sensor health, registry order.
    pub health: Vec<SensorHealth>,
    /// Final served per-cluster predictions (blackout-overridden
    /// while quarantined).
    pub predictions: Vec<SoakPrediction>,
}

/// One building's complete, building-local soak report.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildingReport {
    /// Building id.
    pub building: u32,
    /// Spec content fingerprint.
    pub fingerprint: u64,
    /// Per-building master seed.
    pub seed: u64,
    /// Whether faults were injected into this building.
    pub targeted: bool,
    /// Corruption intensity applied to this building, milli-units
    /// (0 when untargeted).
    pub intensity_millis: u32,
    /// Sensor-grid rows.
    pub rows: usize,
    /// Sensor-grid columns.
    pub cols: usize,
    /// Seating capacity.
    pub capacity: u32,
    /// Reduced-model cluster count requested.
    pub cluster_count: usize,
    /// Fit outcome.
    pub fit: FitStatus,
    /// Serving outcome; `None` when the building never served
    /// (shed or quarantined at fit).
    pub serve: Option<ServeOutcome>,
}

impl BuildingReport {
    /// Renders the canonical JSON document (stable field order,
    /// bit-exact floats, trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonWriter::document(|w| {
            w.key("building").num(self.building);
            w.key("fingerprint")
                .str(&format!("{:016x}", self.fingerprint));
            w.key("seed").num(self.seed);
            w.key("targeted").bool(self.targeted);
            w.key("intensity_millis").num(self.intensity_millis);
            w.key("spec").object(Layout::Inline, |w| {
                w.key("rows").num(self.rows);
                w.key("cols").num(self.cols);
                w.key("capacity").num(self.capacity);
                w.key("cluster_count").num(self.cluster_count);
            });
            w.key("fit").object(Layout::Inline, |w| match &self.fit {
                FitStatus::Fitted { clusters, selected } => {
                    w.key("status").str("fitted");
                    w.key("clusters").num(clusters);
                    w.key("selected").array(Layout::Inline, |w| {
                        for name in selected {
                            w.item().str(name);
                        }
                    });
                }
                FitStatus::Failed { reason } => {
                    w.key("status").str("failed");
                    w.key("reason").str(reason);
                }
                FitStatus::Shed { reason } => {
                    w.key("status").str("shed");
                    w.key("reason").str(reason);
                }
            });
            w.key("serve");
            match &self.serve {
                None => w.null(),
                Some(s) => w.object(Layout::Block, |w| Self::serve_json(w, s)),
            };
        })
    }

    fn serve_json(w: &mut JsonWriter, s: &ServeOutcome) {
        w.key("slots").num(s.slots);
        w.key("final_phase").str(&s.final_phase);
        w.key("ever_left_healthy").bool(s.ever_left_healthy);
        w.key("transitions").array(Layout::Inline, |w| {
            for t in &s.transitions {
                w.item().object(Layout::Inline, |w| {
                    w.key("slot").num(t.slot);
                    w.key("from").str(t.from.label());
                    w.key("to").str(t.to.label());
                });
            }
        });
        w.key("counters")
            .object(Layout::Inline, |w| s.counters.json_fields(w, ""));
        w.key("max_depth_seen").num(s.max_depth_seen);
        w.key("depth_bound").num(s.depth_bound);
        w.key("corrupted_lines").num(s.corrupted_lines);
        counters_json(w, &s.ingest, &s.source, &s.service);
        final_state_json(w, &s.health, &s.predictions);
    }
}

/// One quarantine-relevant event in the fleet-wide log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// Building the phase change happened in.
    pub building: u32,
    /// The transition, with the slot it happened at.
    pub transition: PhaseTransition,
}

/// The fleet-wide quarantine event log: every phase change of every
/// building, ordered by building id then slot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuarantineLog {
    /// The recorded events.
    pub events: Vec<QuarantineEvent>,
}

impl QuarantineLog {
    /// Renders the canonical JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonWriter::document(|w| {
            w.key("events").array(Layout::Block, |w| {
                for e in &self.events {
                    w.item().object(Layout::Inline, |w| {
                        w.key("building").num(e.building);
                        w.key("slot").num(e.transition.slot);
                        w.key("from").str(e.transition.from.label());
                        w.key("to").str(e.transition.to.label());
                    });
                }
            });
        })
    }
}

/// One building's digest line in the fleet summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildingDigest {
    /// Building id.
    pub building: u32,
    /// Spec fingerprint.
    pub fingerprint: u64,
    /// Final phase label (or `shed` / `fit_failed`).
    pub outcome: String,
    /// Whether the building ever left `healthy`.
    pub left_healthy: bool,
}

/// One shed building in the fleet summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedDigest {
    /// Building id.
    pub building: u32,
    /// Refused demand, sensor-units.
    pub demand_units: u64,
    /// Which budget refused it.
    pub reason: String,
}

/// The fleet-level summary — the one document allowed to mention
/// targets, admission and cross-building facts.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet master seed.
    pub fleet_seed: u64,
    /// Buildings requested.
    pub buildings: u32,
    /// Campaign days per building.
    pub days: usize,
    /// Event-loop slots per building.
    pub slots: usize,
    /// Fault-targeted building ids, ascending.
    pub targets: Vec<u32>,
    /// Corruption intensity for targeted buildings, milli-units.
    pub intensity_millis: u32,
    /// Admitted building count.
    pub admitted: usize,
    /// Units consumed of the admission budget.
    pub admitted_units: u64,
    /// The admission budget.
    pub budget_units: u64,
    /// Buildings shed at admission.
    pub shed: Vec<ShedDigest>,
    /// Per-building outcomes, ascending id.
    pub digests: Vec<BuildingDigest>,
}

impl FleetReport {
    /// Ids of buildings that ever left `healthy`, ascending.
    #[must_use]
    pub fn left_healthy(&self) -> Vec<u32> {
        self.digests
            .iter()
            .filter(|d| d.left_healthy)
            .map(|d| d.building)
            .collect()
    }

    /// Renders the canonical JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonWriter::document(|w| {
            w.key("fleet_seed").num(self.fleet_seed);
            w.key("buildings").num(self.buildings);
            w.key("days").num(self.days);
            w.key("slots").num(self.slots);
            w.key("targets").array(Layout::Inline, |w| {
                for t in &self.targets {
                    w.item().num(t);
                }
            });
            w.key("intensity_millis").num(self.intensity_millis);
            w.key("admission").object(Layout::Inline, |w| {
                w.key("admitted").num(self.admitted);
                w.key("admitted_units").num(self.admitted_units);
                w.key("budget_units").num(self.budget_units);
            });
            w.key("shed").array(Layout::Inline, |w| {
                for s in &self.shed {
                    w.item().object(Layout::Inline, |w| {
                        w.key("building").num(s.building);
                        w.key("demand_units").num(s.demand_units);
                        w.key("reason").str(&s.reason);
                    });
                }
            });
            w.key("digests").array(Layout::Block, |w| {
                for d in &self.digests {
                    w.item().object(Layout::Inline, |w| {
                        w.key("building").num(d.building);
                        w.key("fingerprint").str(&format!("{:016x}", d.fingerprint));
                        w.key("outcome").str(&d.outcome);
                        w.key("left_healthy").bool(d.left_healthy);
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardPhase;

    fn report() -> BuildingReport {
        BuildingReport {
            building: 3,
            fingerprint: 0xdead_beef,
            seed: 99,
            targeted: true,
            intensity_millis: 400,
            rows: 3,
            cols: 4,
            capacity: 120,
            cluster_count: 2,
            fit: FitStatus::Fitted {
                clusters: 2,
                selected: vec!["t05".to_owned(), "t09".to_owned()],
            },
            serve: Some(ServeOutcome {
                slots: 576,
                final_phase: "quarantined".to_owned(),
                ever_left_healthy: true,
                transitions: vec![PhaseTransition {
                    slot: 80,
                    from: ShardPhase::Healthy,
                    to: ShardPhase::Degraded,
                }],
                counters: ShardCounters::default(),
                max_depth_seen: 40,
                depth_bound: 4096,
                corrupted_lines: 17,
                ingest: IngestStats::default(),
                source: SourceStats::default(),
                service: ServiceStats::default(),
                health: vec![],
                predictions: vec![
                    SoakPrediction {
                        cluster: 0,
                        action: "healthy".to_owned(),
                        predicted: Some(21.125),
                    },
                    SoakPrediction {
                        cluster: 1,
                        action: "unavailable".to_owned(),
                        predicted: None,
                    },
                ],
            }),
        }
    }

    /// The fixture's bytes as rendered before the reports moved onto
    /// the shared JSON writer; only the `service` line has changed
    /// since, to carry the snapshot record's counter keys.
    const BUILDING_JSON: &str = r#"{
  "building": 3,
  "fingerprint": "00000000deadbeef",
  "seed": 99,
  "targeted": true,
  "intensity_millis": 400,
  "spec": {"rows": 3, "cols": 4, "capacity": 120, "cluster_count": 2},
  "fit": {"status": "fitted", "clusters": 2, "selected": ["t05", "t09"]},
  "serve": {
    "slots": 576,
    "final_phase": "quarantined",
    "ever_left_healthy": true,
    "transitions": [{"slot": 80, "from": "healthy", "to": "degraded"}],
    "counters": {"degraded_slots": 0, "blackout_slots": 0, "watchdog_trips": 0, "probes": 0, "probe_failures": 0},
    "max_depth_seen": 40,
    "depth_bound": 4096,
    "corrupted_lines": 17,
    "ingest": {"parsed": 0, "non_finite": 0, "malformed": 0, "missing_fields": 0, "skipped_rows": 0},
    "source": {"successes": 0, "failures": 0, "breaker_refusals": 0, "backoff_skips": 0, "breaker_trips": 0},
    "service": {"queue_accepted": 0, "queue_rejected": 0, "queue_evicted": 0, "queue_high_water": 0, "reorder_released": 0, "reorder_duplicates": 0, "reorder_too_late": 0, "reorder_overflowed": 0, "reorder_high_water": 0, "unknown_channel": 0, "applied": 0, "implausible": 0, "steps": 0, "healthy_outputs": 0, "backup_outputs": 0, "cluster_mean_outputs": 0, "unavailable_outputs": 0, "refit_installs": 0},
    "health": [],
    "predictions": [{"cluster": 0, "action": "healthy", "predicted": {"bits": "4035200000000000", "approx": "21.1250"}}, {"cluster": 1, "action": "unavailable", "predicted": null}]
  }
}
"#;

    #[test]
    fn building_json_is_byte_stable() {
        assert_eq!(report().to_json(), BUILDING_JSON);
    }

    #[test]
    fn building_json_carries_exact_float_bits_and_sections() {
        let json = report().to_json();
        let expected_bits = format!("{:016x}", 21.125_f64.to_bits());
        assert!(json.contains(&expected_bits));
        assert!(json.contains("\"predicted\": null"));
        for key in [
            "\"building\": 3",
            "\"fingerprint\": \"00000000deadbeef\"",
            "\"targeted\": true",
            "\"status\": \"fitted\"",
            "\"final_phase\": \"quarantined\"",
            "\"transitions\"",
            "\"counters\"",
            "\"ingest\"",
            "\"source\"",
            "\"service\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn shed_and_failed_fits_render_without_serve() {
        let mut r = report();
        r.fit = FitStatus::Shed {
            reason: "memory_budget".to_owned(),
        };
        r.serve = None;
        let json = r.to_json();
        assert!(json.contains("\"status\": \"shed\""));
        assert!(json.contains("\"serve\": null"));
        r.fit = FitStatus::Failed {
            reason: "singular \"G\"".to_owned(),
        };
        assert!(r.to_json().contains("singular \\\"G\\\""));
        r.fit = FitStatus::Shed {
            reason: "over \"memory\"".to_owned(),
        };
        assert!(r
            .to_json()
            .contains(r#"{"status": "shed", "reason": "over \"memory\""}"#));
        r.fit = FitStatus::Failed {
            reason: "line one\nline two".to_owned(),
        };
        assert!(r
            .to_json()
            .contains(r#"{"status": "failed", "reason": "line one\nline two"}"#));
    }

    /// Both fixtures' bytes as rendered before the reports moved onto
    /// the shared JSON writer.
    const QUARANTINE_JSON: &str = r#"{
  "events": [
    {"building": 5, "slot": 80, "from": "degraded", "to": "quarantined"}
  ]
}
"#;
    const FLEET_JSON: &str = r#"{
  "fleet_seed": 7,
  "buildings": 8,
  "days": 2,
  "slots": 576,
  "targets": [2, 5],
  "intensity_millis": 400,
  "admission": {"admitted": 8, "admitted_units": 100, "budget_units": 65536},
  "shed": [{"building": 7, "demand_units": 900, "reason": "memory_budget"}],
  "digests": [
    {"building": 5, "fingerprint": "0000000000000001", "outcome": "quarantined", "left_healthy": true},
    {"building": 6, "fingerprint": "00000000deadbeef", "outcome": "healthy", "left_healthy": false}
  ]
}
"#;

    #[test]
    fn quarantine_log_and_fleet_report_are_byte_stable() {
        let log = QuarantineLog {
            events: vec![QuarantineEvent {
                building: 5,
                transition: PhaseTransition {
                    slot: 80,
                    from: ShardPhase::Degraded,
                    to: ShardPhase::Quarantined,
                },
            }],
        };
        assert_eq!(log.to_json(), QUARANTINE_JSON);
        let fleet = FleetReport {
            fleet_seed: 7,
            buildings: 8,
            days: 2,
            slots: 576,
            targets: vec![2, 5],
            intensity_millis: 400,
            admitted: 8,
            admitted_units: 100,
            budget_units: 65536,
            shed: vec![ShedDigest {
                building: 7,
                demand_units: 900,
                reason: "memory_budget".to_owned(),
            }],
            digests: vec![
                BuildingDigest {
                    building: 5,
                    fingerprint: 1,
                    outcome: "quarantined".to_owned(),
                    left_healthy: true,
                },
                BuildingDigest {
                    building: 6,
                    fingerprint: 0xdead_beef,
                    outcome: "healthy".to_owned(),
                    left_healthy: false,
                },
            ],
        };
        assert_eq!(fleet.to_json(), FLEET_JSON);
        assert_eq!(fleet.left_healthy(), vec![5]);
    }
}
