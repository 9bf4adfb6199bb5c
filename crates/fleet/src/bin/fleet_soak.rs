//! `fleet_soak` — the fleet chaos-soak workload.
//!
//! Mints a fleet of seed-deterministic buildings, injects fault plans
//! (representative outage + CSV corruption + flaky delivery) into the
//! chosen target subset, fits every admitted building through the
//! checkpointed runner, serves all buildings concurrently under their
//! bulkhead shards, and writes one canonical report per building plus
//! the fleet summary and quarantine event log:
//!
//! ```text
//! <outdir>/building-XXX.json     one per minted building
//! <outdir>/quarantine-log.json   every phase change, fleet-wide
//! <outdir>/fleet-report.json     fleet summary (targets, admission)
//! ```
//!
//! The workload asserts the blast radius internally — every targeted
//! building must leave Healthy, no untargeted building may — and the
//! `cargo xtask soak fleet` runner additionally byte-compares the
//! untargeted buildings' reports against a fault-free run and across
//! `THERMAL_THREADS` settings.
//!
//! ```sh
//! fleet_soak <outdir> [--seed N] [--buildings N] [--days D]
//!            [--targets a,b,c] [--intensity millis]
//!            [--snap-every SLOTS]
//! ```
//!
//! Exit codes: `0` success, `2` any violated invariant. Fully
//! deterministic: same arguments ⇒ same report bytes.
//!
//! With `--snap-every` each building's serve loop snapshots its whole
//! bulkhead (service, source, breaker, phase machine) into the
//! building's checkpoint store at every such slot boundary; a
//! re-launch after a mid-run kill restores the newest good snapshots
//! and produces byte-identical reports — the restore-equivalence
//! contract `cargo xtask soak fleet --kill` enforces at every kill
//! point.

use std::path::{Path, PathBuf};

use thermal_fleet::{run_fleet, FitStatus, FleetConfig};

fn die(msg: &str) -> ! {
    eprintln!("fleet: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut seed = 7_u64;
    let mut buildings = 8_u32;
    let mut days = 2_usize;
    let mut targets: Vec<u32> = Vec::new();
    let mut intensity = 400_u32;
    let mut snap_every: Option<usize> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--seed" => {
                seed = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--buildings" => {
                buildings = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&b| b > 0)
                    .unwrap_or_else(|| die("--buildings needs a positive integer"));
            }
            "--days" => {
                days = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&d| d > 0)
                    .unwrap_or_else(|| die("--days needs a positive integer"));
            }
            "--targets" => {
                let raw = argv
                    .next()
                    .unwrap_or_else(|| die("--targets needs a comma-separated list (or 'none')"));
                if raw != "none" && !raw.is_empty() {
                    targets = raw
                        .split(',')
                        .map(|p| {
                            p.trim()
                                .parse()
                                .unwrap_or_else(|_| die("--targets entries must be integers"))
                        })
                        .collect();
                    targets.sort_unstable();
                    targets.dedup();
                }
            }
            "--intensity" => {
                intensity = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--intensity needs an integer (milli-units)"));
            }
            "--snap-every" => {
                snap_every = Some(
                    argv.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| die("--snap-every needs a positive integer")),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: fleet_soak <outdir> [--seed N] [--buildings N] [--days D] \
                     [--targets a,b,c|none] [--intensity millis] [--snap-every SLOTS]"
                );
                std::process::exit(0);
            }
            other if out.is_none() && !other.starts_with('-') => {
                out = Some(PathBuf::from(other));
            }
            other => die(&format!("unknown argument {other:?} (try --help)")),
        }
    }
    let Some(out) = out else {
        die("missing <outdir> argument");
    };
    match run(&out, seed, buildings, days, &targets, intensity, snap_every) {
        Ok(()) => println!("fleet: ok"),
        Err(e) => die(&e),
    }
}

fn run(
    out: &Path,
    seed: u64,
    buildings: u32,
    days: usize,
    targets: &[u32],
    intensity: u32,
    snap_every: Option<usize>,
) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut config = FleetConfig::new(seed, buildings);
    config.days = days;
    config.targets = targets.to_vec();
    config.intensity_millis = intensity;
    config.checkpoint_dir = Some(out.join("ckpt"));
    config.serve_snap_every = snap_every;
    let outcome = run_fleet(&config).map_err(|e| e.to_string())?;

    println!("fleet: buildings = {buildings}");
    println!("fleet: slots = {}", outcome.fleet.slots);
    println!(
        "fleet: admitted = {} shed = {}",
        outcome.fleet.admitted,
        outcome.fleet.shed.len()
    );

    // The blast-radius invariant, asserted building by building.
    for report in &outcome.buildings {
        let targeted = targets.contains(&report.building);
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
    println!(
        "fleet: durable writes = {}",
        thermal_faults::durable_writes()
    );
    println!("fleet: reports = {}", out.display());
    Ok(())
}
