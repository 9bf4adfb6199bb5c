//! `harness` — the four robustness scenarios `cargo xtask soak` drives.
//!
//! ```sh
//! harness <grid|stream|recovery|fleet> <dir> [flags]
//! ```
//!
//! Each scenario rehearses one failure the deployment must survive and
//! writes its artefacts under `<dir>`:
//!
//! | scenario | rehearses | writes under `<dir>` |
//! |---|---|---|
//! | `grid` | a checkpointed fit and supervised fault grid | the checkpoint store itself |
//! | `stream` | a corrupted, flaky live stream with a scripted outage | `report.json`; `store/` with `--snap-every` |
//! | `recovery` | a mid-trace regime shift healed by online identification | `report.json`, `ckpt/` |
//! | `fleet` | a multi-building fleet under faults, asserting the blast radius | `building-*.json`, `quarantine-log.json`, `fleet-report.json`, `ckpt/` |
//!
//! A scenario takes only its own flags ([`FLAGS`]); any other flag, a
//! flag with no value or a value that does not parse, a missing `<dir>`
//! and an unknown scenario are usage errors. Every scenario ends with
//! `<scenario>: durable writes = N` and `<scenario>: ok`.
//!
//! Exit codes: `0` success, `2` a usage error or a violated invariant,
//! `86` a kill-point abort (`THERMAL_KILL_AT`, from inside the
//! atomic-write hook). No scenario reads a clock: same arguments ⇒ same
//! artefact bytes, at any `THERMAL_THREADS`.

mod fleet;
mod grid;
mod recovery;
mod stream;

use std::path::PathBuf;

/// The parsed command line. A flag left out is `None`, and each
/// scenario applies its own default.
#[derive(Debug, Default)]
pub struct Options {
    /// Directory every artefact is written under.
    pub dir: PathBuf,
    /// `--seed`: the run seed.
    pub seed: Option<u64>,
    /// `--days`: simulated campaign days (positive).
    pub days: Option<usize>,
    /// `--intensities`: CSV corruption intensities, milli-units.
    pub intensities: Option<Vec<u32>>,
    /// `--snap-every`: snapshot the serving state every this many slots
    /// (positive); snapshots are off without it.
    pub snap_every: Option<usize>,
    /// `--buildings`: fleet size (positive).
    pub buildings: Option<u32>,
    /// `--targets`: fault-injected building ids, ascending and
    /// deduplicated (`none` for none).
    pub targets: Option<Vec<u32>>,
}

/// A scenario's body; its error ends the run with exit code 2.
type Run = fn(&Options) -> Result<(), String>;

/// Stores a flag's parsed value; `None` when the value does not parse.
type Set = fn(&mut Options, &str) -> Option<()>;

/// The scenarios, by name.
const SCENARIOS: &[(&str, Run)] = &[
    ("grid", grid::run),
    ("stream", stream::run),
    ("recovery", recovery::run),
    ("fleet", fleet::run),
];

/// The flag table: each flag, the scenarios that take it, what its
/// value must be, and where the parsed value goes.
const FLAGS: &[(&str, &[&str], &str, Set)] = &[
    (
        "--seed",
        &["grid", "stream", "recovery", "fleet"],
        "an integer",
        |o, v| v.parse().ok().map(|n| o.seed = Some(n)),
    ),
    (
        "--days",
        &["stream", "recovery", "fleet"],
        "a positive integer",
        |o, v| positive(v).map(|n| o.days = Some(n)),
    ),
    (
        "--intensities",
        &["stream"],
        "a comma-separated list of integers",
        |o, v| list(v).map(|l| o.intensities = Some(l)),
    ),
    (
        "--snap-every",
        &["stream", "fleet"],
        "a positive integer",
        |o, v| positive(v).map(|n| o.snap_every = Some(n)),
    ),
    ("--buildings", &["fleet"], "a positive integer", |o, v| {
        positive(v).map(|n| o.buildings = Some(n))
    }),
    (
        "--targets",
        &["fleet"],
        "a comma-separated list of building ids, or `none`",
        |o, v| {
            let mut targets = if v == "none" { Vec::new() } else { list(v)? };
            targets.sort_unstable();
            targets.dedup();
            o.targets = Some(targets);
            Some(())
        },
    ),
];

const USAGE: &str = "usage: harness <grid|stream|recovery|fleet> <dir> [flags]\n\
    \x20 grid      [--seed N]\n\
    \x20 stream    [--seed N] [--days N] [--intensities a,b,c] [--snap-every SLOTS]\n\
    \x20 recovery  [--seed N] [--days N]\n\
    \x20 fleet     [--seed N] [--days N] [--buildings N] [--targets a,b,c|none] \
    [--snap-every SLOTS]";

fn die(msg: &str) -> ! {
    eprintln!("harness: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let (name, run, options) = parse(&args).unwrap_or_else(|e| die(&format!("{e} (try --help)")));
    if let Err(e) = std::fs::create_dir_all(&options.dir) {
        die(&format!("create {}: {e}", options.dir.display()));
    }
    if let Err(e) = run(&options) {
        die(&format!("{name}: {e}"));
    }
    println!(
        "{name}: durable writes = {}",
        thermal_faults::durable_writes()
    );
    println!("{name}: ok");
}

/// Parses `<scenario> <dir> [flags]` against [`SCENARIOS`] and [`FLAGS`].
fn parse(args: &[String]) -> Result<(&'static str, Run, Options), String> {
    let mut args = args.iter();
    let scenario = args.next().ok_or("name a scenario")?;
    let &(name, run) = SCENARIOS
        .iter()
        .find(|(name, _)| name == scenario)
        .ok_or_else(|| format!("unknown scenario `{scenario}`"))?;
    let mut options = Options::default();
    let mut dir = None;
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            if dir.replace(PathBuf::from(arg)).is_some() {
                return Err(format!("unexpected argument `{arg}`"));
            }
            continue;
        }
        let (flag, takes, value, set) = FLAGS
            .iter()
            .find(|(flag, ..)| flag == arg)
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        if !takes.contains(&name) {
            return Err(format!("{name} takes no {flag}"));
        }
        let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        set(&mut options, raw).ok_or_else(|| format!("{flag} needs {value}, not `{raw}`"))?;
    }
    options.dir = dir.ok_or("missing <dir>")?;
    Ok((name, run, options))
}

/// A positive integer.
fn positive<T: std::str::FromStr + Default + PartialOrd>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

/// A comma-separated list of integers.
fn list(v: &str) -> Option<Vec<u32>> {
    v.split(',').map(|p| p.trim().parse().ok()).collect()
}
