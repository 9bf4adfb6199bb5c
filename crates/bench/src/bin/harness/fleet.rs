//! `harness fleet` — the fleet blast-radius soak scenario.
//!
//! Mints a fleet of seed-deterministic buildings, injects fault plans
//! (representative outage + CSV corruption at 400 milli-units + flaky
//! delivery) into the chosen target subset, fits every admitted
//! building through the checkpointed runner (stores under
//! `<dir>/ckpt`), serves all buildings concurrently under their
//! bulkhead shards, and writes one canonical report per building plus
//! the fleet summary and quarantine event log:
//!
//! ```text
//! <dir>/building-XXX.json     one per minted building
//! <dir>/quarantine-log.json   every phase change, fleet-wide
//! <dir>/fleet-report.json     fleet summary (targets, admission)
//! ```
//!
//! The scenario asserts the blast radius internally — every targeted
//! building must leave Healthy, no untargeted building may — and the
//! `cargo xtask soak fleet` runner additionally byte-compares the
//! untargeted buildings' reports against a fault-free run and across
//! `THERMAL_THREADS` settings.
//!
//! Flags: `--seed N` (default 7), `--buildings N` (default 8),
//! `--days N` (default 2), `--targets a,b,c|none` (default none) and
//! `--snap-every SLOTS`.
//!
//! With `--snap-every` each building's serve loop snapshots its whole
//! bulkhead (service, source, breaker, phase machine) into the
//! building's checkpoint store at every such slot boundary; a
//! re-launch after a mid-run kill restores the newest good snapshots
//! and produces byte-identical reports — the restore-equivalence
//! contract `cargo xtask soak fleet --kill` enforces at every kill
//! point.

use thermal_fleet::{run_fleet, FitStatus, FleetConfig};

use crate::Options;

/// CSV corruption intensity of the targeted buildings, milli-units.
const INTENSITY_MILLIS: u32 = 400;

/// Runs the scenario: the reports under `<dir>`, stores in `<dir>/ckpt`.
pub fn run(options: &Options) -> Result<(), String> {
    let out = &options.dir;
    let mut config = FleetConfig::new(options.seed.unwrap_or(7), options.buildings.unwrap_or(8));
    config.days = options.days.unwrap_or(2);
    config.targets = options.targets.clone().unwrap_or_default();
    config.intensity_millis = INTENSITY_MILLIS;
    config.checkpoint_dir = Some(out.join("ckpt"));
    config.serve_snap_every = options.snap_every;
    let outcome = run_fleet(&config).map_err(|e| e.to_string())?;

    println!("fleet: buildings = {}", config.buildings);
    println!("fleet: slots = {}", outcome.fleet.slots);
    println!(
        "fleet: admitted = {} shed = {}",
        outcome.fleet.admitted,
        outcome.fleet.shed.len()
    );

    // The blast-radius invariant, asserted building by building.
    for report in &outcome.buildings {
        let targeted = config.targets.contains(&report.building);
        match (&report.fit, &report.serve) {
            (FitStatus::Shed { .. }, _) => {}
            (FitStatus::Failed { reason }, _) => {
                // A fit failure is tolerable only where faults were
                // injected; an untargeted building must fit cleanly.
                if !targeted {
                    return Err(format!(
                        "untargeted building {} failed fit: {reason}",
                        report.building
                    ));
                }
            }
            (FitStatus::Fitted { .. }, Some(serve)) => {
                if targeted && !serve.ever_left_healthy {
                    return Err(format!(
                        "targeted building {} never left healthy (faults had no effect)",
                        report.building
                    ));
                }
                if !targeted && serve.ever_left_healthy {
                    return Err(format!(
                        "blast radius violated: untargeted building {} left healthy \
                         (final phase {})",
                        report.building, serve.final_phase
                    ));
                }
                if serve.max_depth_seen > serve.depth_bound {
                    return Err(format!(
                        "building {}: buffered depth {} exceeds bound {}",
                        report.building, serve.max_depth_seen, serve.depth_bound
                    ));
                }
            }
            (FitStatus::Fitted { .. }, None) => {
                return Err(format!(
                    "building {}: fitted but never served",
                    report.building
                ));
            }
        }
    }

    let left: Vec<String> = outcome
        .fleet
        .left_healthy()
        .iter()
        .map(ToString::to_string)
        .collect();
    println!(
        "fleet: quarantined = {}",
        if left.is_empty() {
            "none".to_owned()
        } else {
            left.join(",")
        }
    );

    for report in &outcome.buildings {
        let path = out.join(format!("building-{:03}.json", report.building));
        thermal_ckpt::write_atomic(&path, report.to_json().as_bytes())
            .map_err(|e| e.to_string())?;
    }
    thermal_ckpt::write_atomic(
        &out.join("quarantine-log.json"),
        outcome.quarantine_log.to_json().as_bytes(),
    )
    .map_err(|e| e.to_string())?;
    thermal_ckpt::write_atomic(
        &out.join("fleet-report.json"),
        outcome.fleet.to_json().as_bytes(),
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}
