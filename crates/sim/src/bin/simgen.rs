//! `simgen` — generate a synthetic auditorium campaign and export it
//! as CSV, for use outside this workspace (plotting, other toolchains,
//! teaching datasets).
//!
//! ```sh
//! simgen --days 14 --seed 7 --out campaign.csv
//! simgen --days 98 --paper --clean --out truth.csv   # ground truth, no sensor layer
//! ```

use std::fs::File;
use std::io::BufWriter;

use thermal_sim::{run, Scenario};
use thermal_timeseries::csv::write_csv;

struct Args {
    days: usize,
    seed: u64,
    out: String,
    clean: bool,
    paper: bool,
    sample_minutes: u32,
}

fn die(msg: &str) -> ! {
    eprintln!("simgen: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        days: 14,
        seed: 20130131,
        out: "campaign.csv".to_owned(),
        clean: false,
        paper: false,
        sample_minutes: 5,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--days" => {
                args.days = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--days needs a positive integer"));
            }
            "--seed" => {
                args.seed = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--sample-minutes" => {
                args.sample_minutes = argv
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--sample-minutes needs a positive integer"));
            }
            "--out" => {
                args.out = argv.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--clean" => args.clean = true,
            "--paper" => args.paper = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: simgen [--days N] [--seed N] [--sample-minutes N] \
                     [--paper] [--clean] [--out FILE]\n\
                     \n\
                     --paper   use the paper campaign's failure rates (outages, dropouts)\n\
                     --clean   export the ground-truth traces instead of the telemetry"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?} (try --help)")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut scenario = if args.paper {
        Scenario::paper()
    } else {
        Scenario::quick()
    };
    scenario = scenario
        .with_days(args.days)
        .with_seed(args.seed)
        .with_sample_minutes(args.sample_minutes);

    eprintln!(
        "simulating {} days at {}-minute sampling (seed {})...",
        scenario.days, scenario.sample_minutes, scenario.seed
    );
    let output = match run(&scenario) {
        Ok(o) => o,
        Err(e) => die(&format!("simulation failed: {e}")),
    };
    let clean;
    let dataset = if args.clean {
        clean = match output.clean_dataset() {
            Ok(d) => d,
            Err(e) => die(&format!("ground-truth assembly failed: {e}")),
        };
        &clean
    } else {
        &output.dataset
    };

    let file = match File::create(&args.out) {
        Ok(f) => f,
        Err(e) => die(&format!("cannot create {}: {e}", args.out)),
    };
    if let Err(e) = write_csv(dataset, BufWriter::new(file)) {
        die(&format!("csv export failed: {e}"));
    }
    eprintln!(
        "wrote {} channels x {} samples to {} ({} outage days)",
        dataset.channel_count(),
        dataset.grid().len(),
        args.out,
        output.outage_days.len()
    );
}
