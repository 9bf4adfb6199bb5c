//! The repository benchmark: three closed-loop workloads over the
//! workspace's public API, their end-to-end metrics, and a traced run
//! that attributes operation time to the layers (crates).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-onboard|paper-fit|serve> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the JSON result; the lines
//! before it list the run context, the checks, and every metric with
//! its unit and sample count. The exit code is 0 only for a correct
//! run. See `perfbench/README.md`.

// Timing wall clocks is this binary's job; the workspace's
// ambient-clock rule exempts benchmark binaries.
#![allow(clippy::disallowed_methods)]

mod env;
mod fleet_onboard;
mod onboard;
mod paper_fit;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use report::{Args, Report};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["fleet-onboard", "paper-fit", "serve"];

/// `THERMAL_THREADS` of every workload. The machine this benchmark
/// targets has two cores: `fleet-onboard` runs two onboarding workers
/// of its own, which nested library fan-outs would oversubscribe, and
/// the others are one client issuing one operation at a time, which
/// extra library threads only make noisier.
pub const THERMAL_THREADS: usize = 1;

const USAGE: &str = "usage: perfbench --workload <fleet-onboard|paper-fit|serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every library fan-out resolves its worker count from here.
    std::env::set_var(thermal_par::THREADS_ENV, THERMAL_THREADS.to_string());
    let stores = match env::StoreRoot::create(&format!("{}-{}", args.workload, args.seed)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "fleet-onboard" => fleet_onboard::run(&args, &mut report),
        "paper-fit" => paper_fit::run(&args, &mut report),
        _ => serve::run(&args, &stores, &mut report),
    };
    if let Err(e) = outcome {
        report.check("workload", false, e);
    }
    if !args.trace {
        report.set("peak_rss_mb", env::peak_rss_mb());
    }

    let context = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("tracing", if args.trace { "on" } else { "off" }.to_owned()),
        (
            "git_rev",
            env::git_rev().unwrap_or_else(|| "unknown (not a git checkout)".to_owned()),
        ),
        ("nproc", env::nproc().to_string()),
        (
            "THERMAL_THREADS",
            std::env::var(thermal_par::THREADS_ENV).unwrap_or_default(),
        ),
        ("store_fs", env::filesystem_of(stores.path())),
    ];
    let (text, correct) = report.render(args.trace, &context);
    drop(stores);
    print!("{text}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
