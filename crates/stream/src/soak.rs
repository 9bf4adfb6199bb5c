//! Machine-readable soak reports with canonical, byte-stable JSON.
//!
//! The chaos soak (`cargo xtask soak stream`) replays a full trace
//! through corrupted ingest at several intensities and asserts the
//! final state is **bitwise identical** across repeated runs and
//! thread counts. That comparison is done on the serialized report,
//! so the serialization itself must be canonical; it goes through the
//! workspace's one writer, [`thermal_ckpt::json`] (fixed member order,
//! floats as the hex of their IEEE-754 bits with a rounded echo).
//!
//! The report sections a soak intensity shares with a fleet building
//! report are written here once: [`counters_json`] (the `ingest`,
//! `source` and `service` objects) and [`final_state_json`] (the
//! `health` and `predictions` arrays).

use thermal_ckpt::codec::Record;
use thermal_ckpt::json::{JsonWriter, Layout};
use thermal_ckpt::{CkptError, Fields, Snapshot};
use thermal_core::FallbackAction;

use crate::health::HealthState;
use crate::queue::QueueStats;
use crate::reorder::ReorderStats;
use crate::replay::{IngestStats, SourceStats};
use crate::service::{LivePrediction, SensorHealth, ServiceStats};

/// One cluster's final prediction in a soak or fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakPrediction {
    /// Cluster index.
    pub cluster: usize,
    /// Ladder action label (`healthy`, `backup`, `cluster_mean`,
    /// `unavailable`).
    pub action: String,
    /// Predicted value; `None` under structured blackout.
    pub predicted: Option<f64>,
}

impl SoakPrediction {
    /// One report row per cluster of `live`, labelling each ladder
    /// action with its stable report label.
    pub fn from_live(live: &LivePrediction) -> Vec<Self> {
        live.clusters
            .iter()
            .map(|c| SoakPrediction {
                cluster: c.cluster,
                action: match c.action {
                    FallbackAction::Healthy => "healthy",
                    FallbackAction::Backup { .. } => "backup",
                    FallbackAction::ClusterMean { .. } => "cluster_mean",
                    FallbackAction::Unavailable => "unavailable",
                    _ => "unknown",
                }
                .to_owned(),
                predicted: c.predicted,
            })
            .collect()
    }
}

/// Writes the `ingest`, `source` and `service` objects of a report.
/// `service` carries the keys of the [`SoakIntensityReport`] snapshot
/// record, in the same order.
pub fn counters_json(
    w: &mut JsonWriter,
    ingest: &IngestStats,
    source: &SourceStats,
    service: &ServiceStats,
) {
    w.key("ingest")
        .object(Layout::Inline, |w| ingest.json_fields(w, ""));
    w.key("source")
        .object(Layout::Inline, |w| source.json_fields(w, ""));
    w.key("service").object(Layout::Inline, |w| {
        service.queue.json_fields(w, "queue_");
        service.reorder.json_fields(w, "reorder_");
        service.json_fields(w, "");
    });
}

/// Writes the `health` and `predictions` arrays of a report.
pub fn final_state_json(
    w: &mut JsonWriter,
    health: &[SensorHealth],
    predictions: &[SoakPrediction],
) {
    w.key("health").array(Layout::Inline, |w| {
        for h in health {
            w.item().object(Layout::Inline, |w| {
                w.key("name").str(&h.name);
                w.key("state").str(h.state.label());
                w.key("transitions").num(h.transitions);
                w.key("implausible").num(h.implausible);
            });
        }
    });
    w.key("predictions").array(Layout::Inline, |w| {
        for p in predictions {
            w.item().object(Layout::Inline, |w| {
                w.key("cluster").num(p.cluster);
                w.key("action").str(&p.action);
                w.key("predicted");
                match p.predicted {
                    Some(v) => w.f64(v),
                    None => w.null(),
                };
            });
        }
    });
}

/// Everything measured while soaking one corruption intensity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoakIntensityReport {
    /// Corruption intensity in milli-units (e.g. `50` = 0.05), kept
    /// integral so the report never round-trips a float through text.
    pub intensity_millis: u32,
    /// Lines the fault layer actually corrupted.
    pub corrupted_lines: u64,
    /// Row-tolerant CSV ingest accounting.
    pub ingest: IngestStats,
    /// Flaky-source supervision accounting.
    pub source: SourceStats,
    /// Service runtime counters at end of replay.
    pub service: ServiceStats,
    /// Largest combined queue + reorder depth ever observed.
    pub max_buffered_depth: usize,
    /// Configured bound the depth must stay under.
    pub depth_bound: usize,
    /// Final health state of every sensor, registry order.
    pub health: Vec<SensorHealth>,
    /// Final per-cluster predictions.
    pub predictions: Vec<SoakPrediction>,
}

/// A full soak run: one report per intensity, plus the replay
/// parameters that make the run reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Campaign seed.
    pub seed: u64,
    /// Simulated days replayed.
    pub days: usize,
    /// Event-loop slots replayed per intensity.
    pub slots: usize,
    /// Per-intensity results, ascending intensity.
    pub intensities: Vec<SoakIntensityReport>,
}

impl SoakReport {
    /// Renders the canonical JSON document (stable field order,
    /// bit-exact floats, trailing newline).
    pub fn to_json(&self) -> String {
        JsonWriter::document(|w| {
            w.key("seed").num(self.seed);
            w.key("days").num(self.days);
            w.key("slots").num(self.slots);
            w.key("intensities").array(Layout::Block, |w| {
                for r in &self.intensities {
                    w.item().object(Layout::Block, |w| {
                        w.key("intensity_millis").num(r.intensity_millis);
                        w.key("corrupted_lines").num(r.corrupted_lines);
                        counters_json(w, &r.ingest, &r.source, &r.service);
                        w.key("max_buffered_depth").num(r.max_buffered_depth);
                        w.key("depth_bound").num(r.depth_bound);
                        final_state_json(w, &r.health, &r.predictions);
                    });
                }
            });
        })
    }
}

/// A completed intensity's full report round-trips, so a resumed soak
/// never re-runs finished intensities. Restore rebuilds the health and
/// prediction vectors from scratch (the receiver is normally a
/// [`Default`] placeholder, so nothing pins their lengths).
impl Snapshot for SoakIntensityReport {
    const TAG: &'static str = "stream-soak-intensity";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        rec.put_value("intensity_millis", self.intensity_millis)
            .put_u64("corrupted_lines", self.corrupted_lines);
        self.ingest.put_fields(rec, "ingest_");
        self.source.put_fields(rec, "source_");
        self.service.queue.put_fields(rec, "queue_");
        self.service.reorder.put_fields(rec, "reorder_");
        self.service.put_fields(rec, "");
        rec.put_usize("max_buffered_depth", self.max_buffered_depth)
            .put_usize("depth_bound", self.depth_bound);
        let names: Vec<String> = self.health.iter().map(|h| h.name.clone()).collect();
        let states: Vec<String> = self
            .health
            .iter()
            .map(|h| h.state.label().to_owned())
            .collect();
        let transitions: Vec<u64> = self.health.iter().map(|h| h.transitions).collect();
        let implausible: Vec<u64> = self.health.iter().map(|h| h.implausible).collect();
        rec.put_str_list("health_names", &names)
            .put_str_list("health_states", &states)
            .put_u64_slice("health_transitions", &transitions)
            .put_u64_slice("health_implausible", &implausible);
        let clusters: Vec<usize> = self.predictions.iter().map(|p| p.cluster).collect();
        let actions: Vec<String> = self.predictions.iter().map(|p| p.action.clone()).collect();
        let predicted: Vec<Option<f64>> = self.predictions.iter().map(|p| p.predicted).collect();
        let mask: Vec<u64> = predicted.iter().map(|o| u64::from(o.is_some())).collect();
        let values: Vec<f64> = predicted.iter().map(|o| o.unwrap_or(0.0)).collect();
        rec.put_usize_slice("prediction_clusters", &clusters)
            .put_str_list("prediction_actions", &actions)
            .put_u64_slice("prediction_mask", &mask)
            .put_f64_slice("prediction_values", &values);
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let intensity_millis = rec.parse("intensity_millis")?;
        let corrupted_lines = rec.get_u64("corrupted_lines")?;
        let ingest = IngestStats::get_fields(rec, "ingest_")?;
        let source = SourceStats::get_fields(rec, "source_")?;
        let service = ServiceStats {
            queue: QueueStats::get_fields(rec, "queue_")?,
            reorder: ReorderStats::get_fields(rec, "reorder_")?,
            ..ServiceStats::get_fields(rec, "")?
        };
        let max_buffered_depth = rec.get_usize("max_buffered_depth")?;
        let depth_bound = rec.get_usize("depth_bound")?;
        let names = rec.get_str_list("health_names")?;
        let states = rec.get_str_list("health_states")?;
        let transitions = rec.get_u64_slice("health_transitions")?;
        let implausible = rec.get_u64_slice("health_implausible")?;
        if states.len() != names.len()
            || transitions.len() != names.len()
            || implausible.len() != names.len()
        {
            return Err(CkptError::decode(
                "soak snapshot",
                "health columns have mismatched lengths",
            ));
        }
        let mut health = Vec::with_capacity(names.len());
        for i in 0..names.len() {
            let state = HealthState::from_label(&states[i]).ok_or_else(|| {
                CkptError::decode(
                    "soak snapshot",
                    format!("unknown health state {:?}", states[i]),
                )
            })?;
            health.push(SensorHealth {
                name: names[i].clone(),
                state,
                transitions: transitions[i],
                implausible: implausible[i],
            });
        }
        let clusters = rec.get_usize_slice("prediction_clusters")?;
        let actions = rec.get_str_list("prediction_actions")?;
        let mask = rec.get_u64_slice("prediction_mask")?;
        let values = rec.get_f64_slice("prediction_values")?;
        if actions.len() != clusters.len()
            || mask.len() != clusters.len()
            || values.len() != clusters.len()
        {
            return Err(CkptError::decode(
                "soak snapshot",
                "prediction columns have mismatched lengths",
            ));
        }
        let mut predictions = Vec::with_capacity(clusters.len());
        for i in 0..clusters.len() {
            predictions.push(SoakPrediction {
                cluster: clusters[i],
                action: actions[i].clone(),
                predicted: (mask[i] != 0).then_some(values[i]),
            });
        }
        self.intensity_millis = intensity_millis;
        self.corrupted_lines = corrupted_lines;
        self.ingest = ingest;
        self.source = source;
        self.service = service;
        self.max_buffered_depth = max_buffered_depth;
        self.depth_bound = depth_bound;
        self.health = health;
        self.predictions = predictions;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthState;
    use thermal_ckpt::snapshot::snapshot_bytes;

    fn report() -> SoakReport {
        SoakReport {
            seed: 42,
            days: 3,
            slots: 864,
            intensities: vec![SoakIntensityReport {
                intensity_millis: 50,
                corrupted_lines: 17,
                ingest: IngestStats {
                    parsed: 1000,
                    non_finite: 3,
                    malformed: 2,
                    missing_fields: 1,
                    skipped_rows: 0,
                },
                source: SourceStats {
                    successes: 800,
                    failures: 64,
                    breaker_refusals: 10,
                    backoff_skips: 20,
                    breaker_trips: 2,
                },
                service: ServiceStats {
                    queue: QueueStats {
                        accepted: 11,
                        rejected: 12,
                        evicted: 13,
                        high_water: 14,
                    },
                    reorder: ReorderStats {
                        released: 21,
                        duplicates: 22,
                        too_late: 23,
                        overflowed: 24,
                        high_water: 25,
                    },
                    unknown_channel: 31,
                    applied: 32,
                    implausible: 33,
                    steps: 34,
                    healthy_outputs: 35,
                    backup_outputs: 36,
                    cluster_mean_outputs: 37,
                    unavailable_outputs: 38,
                    refit_installs: 39,
                },
                max_buffered_depth: 96,
                depth_bound: 4096,
                health: vec![SensorHealth {
                    name: "t0".to_owned(),
                    state: HealthState::Live,
                    transitions: 2,
                    implausible: 5,
                }],
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
            }],
        }
    }

    /// The fixture's bytes as rendered before the report moved onto the
    /// shared JSON writer; only the `service` line has changed since,
    /// to carry the snapshot record's counter keys.
    const REPORT_JSON: &str = r#"{
  "seed": 42,
  "days": 3,
  "slots": 864,
  "intensities": [
    {
      "intensity_millis": 50,
      "corrupted_lines": 17,
      "ingest": {"parsed": 1000, "non_finite": 3, "malformed": 2, "missing_fields": 1, "skipped_rows": 0},
      "source": {"successes": 800, "failures": 64, "breaker_refusals": 10, "backoff_skips": 20, "breaker_trips": 2},
      "service": {"queue_accepted": 11, "queue_rejected": 12, "queue_evicted": 13, "queue_high_water": 14, "reorder_released": 21, "reorder_duplicates": 22, "reorder_too_late": 23, "reorder_overflowed": 24, "reorder_high_water": 25, "unknown_channel": 31, "applied": 32, "implausible": 33, "steps": 34, "healthy_outputs": 35, "backup_outputs": 36, "cluster_mean_outputs": 37, "unavailable_outputs": 38, "refit_installs": 39},
      "max_buffered_depth": 96,
      "depth_bound": 4096,
      "health": [{"name": "t0", "state": "live", "transitions": 2, "implausible": 5}],
      "predictions": [{"cluster": 0, "action": "healthy", "predicted": {"bits": "4035200000000000", "approx": "21.1250"}}, {"cluster": 1, "action": "unavailable", "predicted": null}]
    }
  ]
}
"#;

    #[test]
    fn json_is_byte_stable_across_renders() {
        assert_eq!(report().to_json(), REPORT_JSON);
    }

    /// The fixture intensity's snapshot, byte for byte as sealed before
    /// its counters moved onto `fields!`: every prefixed counter key,
    /// in order, with its value.
    #[test]
    fn intensity_snapshot_bytes_are_pinned() {
        let bytes = snapshot_bytes(&report().intensities[0]);
        assert_eq!(String::from_utf8(bytes).unwrap(), INTENSITY_SNAPSHOT);
        let mut back = SoakIntensityReport::default();
        thermal_ckpt::snapshot::restore_from(&mut back, INTENSITY_SNAPSHOT.as_bytes()).unwrap();
        assert_eq!(back, report().intensities[0]);
    }

    const INTENSITY_SNAPSHOT: &str = r#"thermal-snapshot v1 stream-soak-intensity 1 878 6ef49dedd9e577e3
record stream-soak-intensity
intensity_millis 50
corrupted_lines 17
ingest_parsed 1000
ingest_non_finite 3
ingest_malformed 2
ingest_missing_fields 1
ingest_skipped_rows 0
source_successes 800
source_failures 64
source_breaker_refusals 10
source_backoff_skips 20
source_breaker_trips 2
queue_accepted 11
queue_rejected 12
queue_evicted 13
queue_high_water 14
reorder_released 21
reorder_duplicates 22
reorder_too_late 23
reorder_overflowed 24
reorder_high_water 25
unknown_channel 31
applied 32
implausible 33
steps 34
healthy_outputs 35
backup_outputs 36
cluster_mean_outputs 37
unavailable_outputs 38
refit_installs 39
max_buffered_depth 96
depth_bound 4096
health_names t0
health_states live
health_transitions 2
health_implausible 5
prediction_clusters 0%2c1
prediction_actions healthy,unavailable
prediction_mask 1%2c0
prediction_values 4035200000000000%2c0000000000000000
"#;

    #[test]
    fn json_carries_exact_float_bits() {
        let json = report().to_json();
        let expected_bits = format!("{:016x}", 21.125_f64.to_bits());
        assert!(json.contains(&expected_bits), "missing exact bits");
        assert!(json.contains("\"approx\": \"21.1250\""));
        assert!(json.contains("\"predicted\": null"));
        assert!(json.ends_with("\n"), "trailing newline for clean diffs");
    }

    #[test]
    fn json_lists_every_section() {
        let json = report().to_json();
        for key in [
            "\"seed\": 42",
            "\"intensity_millis\": 50",
            "\"ingest\"",
            "\"source\"",
            "\"service\"",
            "\"max_buffered_depth\": 96",
            "\"health\"",
            "\"predictions\"",
            "\"breaker_trips\": 2",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
