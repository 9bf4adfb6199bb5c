//! Table-driven soak/chaos runner — `cargo xtask soak <scenario>
//! [--smoke] [--kill]`.
//!
//! Each robustness scenario is one [`Scenario`] row in [`SCENARIOS`]:
//! its arguments to the `thermal-bench` `harness` binary, the artefacts
//! whose bytes carry its contract, and, where it has them, a kill
//! contract and fault targets. The engine makes every check once, for
//! every row:
//!
//! 1. **Determinism.** Three runs (`THERMAL_THREADS=1`, a repeat, and
//!    `THERMAL_THREADS=4`) must write byte-identical artefacts.
//! 2. **Blast radius** (rows with `blast_radius`). A `--targets none`
//!    baseline must quarantine nothing and each faulted run exactly its
//!    targets; every untargeted building's report must equal the
//!    baseline's byte for byte.
//! 3. **Kill sweep** (`--kill`). A census run counts the durable writes
//!    `N`, and a repeat and a `THERMAL_THREADS=4` run must match it. At
//!    every kill point `k` (all of `1..=N`, or the boundary sample under
//!    `--smoke`) a run dies with exit code 86 at its `k`-th durable
//!    write, a rerun resumes, and the artefacts must equal the clean
//!    run's. The row's corruption cases then damage a store and require
//!    the same convergence, and a damaged snapshot must be named in the
//!    store's quarantine log. `matrix.json` and `quarantine-log.txt`
//!    record the sweep for the CI upload.
//!
//! Every run is `harness <name> <args>`. Its exit code is checked (0,
//! or 86 at a kill point), and every clean exit must print the
//! `<name>: ok` marker. Nothing here measures wall-clock time, so the
//! runner is meaningful on a single-core CI runner. Each invocation
//! writes under `target/soak/<scenario>[-kill]/<case>/`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json;

/// A scenario's arguments after its name, split at whitespace; `{dir}`
/// stands for the run's case directory.
pub type Args = &'static str;

/// One robustness scenario and the contract its bytes carry.
#[derive(Debug)]
pub struct Scenario {
    /// Name on the command line, of both `cargo xtask soak` and the
    /// harness, and prefix of the harness's report lines
    /// (`<name>: ok`).
    pub name: &'static str,
    /// One-line description for `--list`.
    pub about: &'static str,
    /// Arguments of the `--smoke` runs.
    pub smoke: Args,
    /// Arguments of the full runs.
    pub full: Args,
    /// Names in a case directory whose bytes carry the contract; a `*`
    /// matches any run of characters.
    pub artefacts: &'static [&'static str],
    /// Whether the plain runs check the fleet blast radius against a
    /// `--targets none` baseline.
    pub blast_radius: bool,
    /// The `--kill` contract, if the scenario can resume after a crash.
    pub kill: Option<Kill>,
}

/// What `--kill` sweeps for one scenario.
#[derive(Debug)]
pub struct Kill {
    /// Arguments of every run of the sweep.
    pub args: Args,
    /// Checkpoint stores, relative to the case directory; a trailing
    /// `/*` names every sub-directory.
    pub stores: &'static str,
    /// Whether each corruption case starts from a run killed at its
    /// `N - 2`-th write (live snapshots on disk) instead of a clean run.
    pub after_kill: bool,
    /// The corruption cases, each on a fresh store: case name (output
    /// directory and matrix row), the file to damage, and how.
    pub corruptions: &'static [(&'static str, Victim, Damage)],
}

/// Which store file a corruption case damages.
#[derive(Debug)]
pub enum Victim {
    /// The first `.ck` payload of the first store, in name order.
    FirstPayload,
    /// The newest payload whose name starts with one of these prefixes,
    /// across every store; the quarantine log must name it.
    NewestSnapshot(&'static [&'static str]),
    /// The first store's manifest.
    Manifest,
}

/// How a corruption case damages its victim.
#[derive(Debug, Clone, Copy)]
pub enum Damage {
    /// Truncate it to half its length.
    Truncate,
    /// Flip its last byte.
    Flip,
}

const STREAM_SNAPSHOTS: Victim = Victim::NewestSnapshot(&["progress-", "intensity-"]);
const FLEET_SNAPSHOTS: Victim = Victim::NewestSnapshot(&["serve-"]);

/// The scenario table. Every scenario runs with seed 7: the runner
/// compares bytes, so every run of a case must agree on it.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "grid",
        about: "checkpointed pipeline fit + supervised fault grid",
        smoke: "{dir} --seed 7",
        full: "{dir} --seed 7",
        artefacts: &["*"],
        blast_radius: false,
        kill: Some(Kill {
            args: "{dir} --seed 7",
            stores: "",
            after_kill: false,
            corruptions: &[
                ("truncate-payload", Victim::FirstPayload, Damage::Truncate),
                ("flip-byte", Victim::FirstPayload, Damage::Flip),
                ("truncate-manifest", Victim::Manifest, Damage::Truncate),
            ],
        }),
    },
    Scenario {
        name: "stream",
        about: "corrupted/flaky stream replay with a scripted outage",
        smoke: "{dir} --seed 7 --days 1 --intensities 0,150",
        full: "{dir} --seed 7 --days 3 --intensities 0,50,150,400",
        artefacts: &["report.json"],
        blast_radius: false,
        kill: Some(Kill {
            args: "{dir} --days 1 --seed 7 --intensities 0,150 --snap-every 29",
            stores: "store",
            after_kill: true,
            corruptions: &[
                ("bitflip-snapshot", STREAM_SNAPSHOTS, Damage::Flip),
                ("truncate-snapshot", STREAM_SNAPSHOTS, Damage::Truncate),
                ("truncate-manifest", Victim::Manifest, Damage::Truncate),
            ],
        }),
    },
    Scenario {
        name: "recovery",
        about: "mid-trace regime shift healed by the online identification loop",
        smoke: "{dir} --seed 7 --days 1",
        full: "{dir} --seed 7 --days 2",
        artefacts: &["report.json"],
        blast_radius: false,
        // It clears its store on start, so a resume would test nothing.
        kill: None,
    },
    Scenario {
        name: "fleet",
        about: "multi-building soak asserting the bulkhead blast radius",
        smoke: "{dir} --seed 7 --buildings 8 --days 1 --targets 2,5",
        full: "{dir} --seed 7 --buildings 16 --days 2 --targets 2,5,11",
        artefacts: &[
            "building-*.json",
            "quarantine-log.json",
            "fleet-report.json",
        ],
        blast_radius: true,
        kill: Some(Kill {
            args: "{dir} --seed 7 --buildings 4 --days 1 --targets 1,2 --snap-every 64",
            stores: "ckpt/*",
            after_kill: true,
            corruptions: &[
                ("bitflip-snapshot", FLEET_SNAPSHOTS, Damage::Flip),
                ("truncate-snapshot", FLEET_SNAPSHOTS, Damage::Truncate),
                ("truncate-manifest", Victim::Manifest, Damage::Truncate),
            ],
        }),
    },
];

/// The `thermal-bench` binary that runs every scenario.
const HARNESS: &str = "harness";

/// Exit code the harness dies with at a kill point (pinned in
/// `thermal-faults`; redeclared here so the runner does not link the
/// whole workspace).
const KILL_EXIT_CODE: i32 = 86;

/// Environment variable carrying the kill point to the harness.
const KILL_AT_ENV: &str = "THERMAL_KILL_AT";

/// Seeded-kill-point variable; cleared on every run.
const KILL_SEED_ENV: &str = "THERMAL_KILL_SEED";

/// Thread-count variable, pinned or cleared per run.
const THREADS_ENV: &str = "THERMAL_THREADS";

/// Store subdirectory holding quarantined artefacts: crash debris that
/// differs by crash point by design, so never compared.
const QUARANTINE_DIR: &str = "quarantine";

/// Determinism axes `(case, THERMAL_THREADS)` of the plain runs.
const PLAIN_AXES: &[(&str, Option<&str>)] = &[
    ("t1", Some("1")),
    ("t1-repeat", Some("1")),
    ("t4", Some("4")),
];

/// Determinism axes of a kill sweep; the first is the census run.
const KILL_AXES: &[(&str, Option<&str>)] =
    &[("clean", None), ("repeat", None), ("threads-4", Some("4"))];

/// The scenario called `name`.
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// The smoke runs of `cargo xtask ci`, as `(scenario, kill)`: each
/// row's plain smoke, then its kill smoke if it has a kill contract.
/// A plain smoke is left out when the kill sweep takes the same
/// arguments, since its clean, repeat and threads-4 runs already make
/// the plain checks.
pub fn ci_smokes() -> Vec<(&'static Scenario, bool)> {
    let mut runs = Vec::new();
    for s in SCENARIOS {
        if s.kill.as_ref().is_none_or(|k| k.args != s.smoke) {
            runs.push((s, false));
        }
        if s.kill.is_some() {
            runs.push((s, true));
        }
    }
    runs
}

/// Runs one scenario: the plain checks, or the kill sweep with `kill`.
///
/// # Errors
///
/// Returns a description of the first failed check: a build failure,
/// a run with the wrong exit code or no `ok` marker, artefacts that
/// differ from their reference, a wrong quarantine set, or an
/// unrecovered corruption.
pub fn run(root: &Path, scenario: &Scenario, smoke: bool, kill: bool) -> Result<(), String> {
    let name = scenario.name;
    if kill && scenario.kill.is_none() {
        return Err(format!("scenario `{name}` has no kill contract"));
    }
    let dir = format!("{name}{}", if kill { "-kill" } else { "" });
    let harness = Harness {
        scenario,
        bin: build(root)?,
        base: root.join("target").join("soak").join(dir),
    };
    reset_dir(&harness.base)?;
    match scenario.kill.as_ref().filter(|_| kill) {
        Some(contract) => harness.kill_sweep(contract, smoke),
        None => harness.plain(smoke),
    }
}

/// Builds the harness binary in release mode and returns its path.
fn build(root: &Path) -> Result<PathBuf, String> {
    eprintln!("xtask soak: building {HARNESS} (release)");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "-p", "thermal-bench"])
        .args(["--bin", HARNESS])
        .current_dir(root)
        .status()
        .map_err(|e| format!("could not start cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("{HARNESS} build failed with {status}"));
    }
    let exe = format!("{HARNESS}{}", std::env::consts::EXE_SUFFIX);
    Ok(root.join("target").join("release").join(exe))
}

/// One scenario, the harness binary and the invocation root.
struct Harness<'a> {
    scenario: &'a Scenario,
    bin: PathBuf,
    base: PathBuf,
}

impl Harness<'_> {
    /// Determinism, and the blast radius for rows that have one.
    fn plain(&self, smoke: bool) -> Result<(), String> {
        let s = self.scenario;
        let args = if smoke { s.smoke } else { s.full };
        if !s.blast_radius {
            return self.axes(args, PLAIN_AXES).map(drop);
        }
        let targets = arg(args, "--targets").ok_or("blast-radius arguments name no --targets")?;
        let baseline = args.replace(&format!("--targets {targets}"), "--targets none");
        let prefix = format!("{}: quarantined = ", s.name);
        let check = |case: &str, stdout: &str, expected: &str| {
            let got = parse_marker(stdout, &prefix).unwrap_or_default();
            if got == expected {
                return Ok(());
            }
            Err(format!(
                "run `{case}`: quarantine set `{got}` differs from the fault-target set \
                 `{expected}`: the blast radius is wrong"
            ))
        };
        let clean = self.fresh("clean")?;
        check(
            "clean",
            &self.exec(&clean, &baseline, Some("1"), None)?,
            "none",
        )?;
        let faulted = self.axes(args, PLAIN_AXES)?;
        for (&(case, _), stdout) in PLAIN_AXES.iter().zip(&faulted) {
            check(case, stdout, targets)?;
        }
        blast_radius(&clean, &self.base.join("t1"), args)
    }

    /// Census, determinism axes, kill sweep and corruption cases, then
    /// the `matrix.json` and `quarantine-log.txt` artefacts.
    fn kill_sweep(&self, contract: &Kill, smoke: bool) -> Result<(), String> {
        let name = self.scenario.name;
        let args = contract.args;
        let outs = self.axes(args, KILL_AXES)?;
        let writes = parse_durable_writes(outs.first().map_or("", String::as_str))?;
        if writes < 4 {
            return Err(format!(
                "{name} committed only {writes} durable writes; the sweep would prove nothing"
            ));
        }
        let clean = self.base.join("clean");
        let mut cases: Vec<String> = vec!["repeat".to_owned(), "threads-4".to_owned()];

        let points = select_kill_points(writes, smoke);
        eprintln!("xtask soak: {name}: {writes} durable writes, kill points {points:?}");
        for k in points {
            let dir = self.fresh(&format!("k{k}"))?;
            self.exec(&dir, args, None, Some(k))?;
            self.exec(&dir, args, None, None)?;
            self.same(&clean, &dir, &format!("kill point {k}"))?;
            cases.push(format!("kill-{k}"));
        }

        let mut quarantine_log = String::new();
        for (case, victim, how) in contract.corruptions {
            let dir = self.fresh(case)?;
            self.exec(&dir, args, None, contract.after_kill.then(|| writes - 2))?;
            let stores = stores(&dir, contract.stores)?;
            let path = pick_victim(victim, &stores)?;
            damage(&path, *how)?;
            eprintln!("xtask soak: {name}: `{case}` damaged {}", path.display());
            self.exec(&dir, args, None, None)?;
            self.same(&clean, &dir, &format!("corruption case `{case}`"))?;
            let log = quarantine_logs(&stores);
            let entry = format!("name={}", file_name(&path));
            if matches!(victim, Victim::NewestSnapshot(_)) && !log.contains(&entry) {
                return Err(format!(
                    "corruption case `{case}`: quarantine log has no `{entry}` entry:\n{log}"
                ));
            }
            quarantine_log.push_str(&format!("# case {case}\n{log}"));
            cases.push((*case).to_owned());
        }

        let matrix = render_matrix(name, smoke, writes, &cases);
        for (file, text) in [
            ("matrix.json", matrix.as_str()),
            ("quarantine-log.txt", quarantine_log.as_str()),
        ] {
            let path = self.base.join(file);
            fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        eprintln!("xtask soak: {name}: matrix in {}", self.base.display());
        Ok(())
    }

    /// Runs `args` once per axis, each in a fresh case directory, and
    /// requires every later run's artefacts to equal the first's.
    /// Returns each run's stdout.
    fn axes(&self, args: &str, axes: &[(&str, Option<&str>)]) -> Result<Vec<String>, String> {
        let mut outs = Vec::new();
        for &(case, threads) in axes {
            let dir = self.fresh(case)?;
            outs.push(self.exec(&dir, args, threads, None)?);
            if let Some(&(first, _)) = axes.first().filter(|&&(first, _)| first != case) {
                self.same(&self.base.join(first), &dir, &format!("run `{case}`"))?;
            }
        }
        eprintln!(
            "xtask soak: {}: {} runs byte-identical",
            self.scenario.name,
            axes.len()
        );
        Ok(outs)
    }

    /// An empty case directory under the invocation root.
    fn fresh(&self, case: &str) -> Result<PathBuf, String> {
        let dir = self.base.join(case);
        reset_dir(&dir)?;
        Ok(dir)
    }

    /// Runs the scenario on case directory `dir` with `THERMAL_THREADS`
    /// pinned to `threads` (or unset) and, with `kill_at`, a kill point.
    /// Requires exit code 86 at a kill point, otherwise 0 and the `ok`
    /// marker. Returns stdout.
    fn exec(
        &self,
        dir: &Path,
        args: &str,
        threads: Option<&str>,
        kill_at: Option<u64>,
    ) -> Result<String, String> {
        let dir_text = dir.to_string_lossy();
        let mut cmd = Command::new(&self.bin);
        cmd.arg(self.scenario.name)
            .args(
                args.split_whitespace()
                    .map(|a| a.replace("{dir}", &dir_text)),
            )
            .env_remove(KILL_AT_ENV)
            .env_remove(KILL_SEED_ENV)
            .env_remove(THREADS_ENV);
        if let Some(t) = threads {
            cmd.env(THREADS_ENV, t);
        }
        if let Some(k) = kill_at {
            cmd.env(KILL_AT_ENV, k.to_string());
        }
        let output = cmd
            .output()
            .map_err(|e| format!("could not start {}: {e}", self.bin.display()))?;
        let (code, dir) = (output.status.code(), dir.display());
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let expected = if kill_at.is_some() { KILL_EXIT_CODE } else { 0 };
        let ok = format!("{}: ok", self.scenario.name);
        if code != Some(expected) {
            let stderr = String::from_utf8_lossy(&output.stderr);
            return Err(format!(
                "run on {dir} (THERMAL_THREADS={threads:?}, kill_at={kill_at:?}) exited with \
                 {code:?}, expected {expected}\nstderr:\n{stderr}"
            ));
        }
        if kill_at.is_none() && !stdout.lines().any(|l| l.trim() == ok) {
            return Err(format!("run on {dir} never printed `{ok}`:\n{stdout}"));
        }
        Ok(stdout)
    }

    /// Byte-compares the scenario's artefacts in two case directories.
    fn same(&self, reference: &Path, candidate: &Path, what: &str) -> Result<(), String> {
        let keep = |n: &str| self.scenario.artefacts.iter().any(|p| glob(p, n));
        compare_sets(reference, candidate, &keep).map_err(|e| format!("{what}: {e}"))
    }
}

/// Requires every untargeted building's report in `faulted` to equal
/// the fault-free baseline's, byte for byte, and `faulted` to hold a
/// report for every building.
fn blast_radius(clean: &Path, faulted: &Path, args: &str) -> Result<(), String> {
    let buildings: usize = arg(args, "--buildings")
        .and_then(|b| b.parse().ok())
        .ok_or("blast-radius arguments name no --buildings")?;
    let targets = target_ids(args);
    let report = |id: usize| format!("building-{id:03}.json");
    let untargeted: Vec<String> = (0..buildings)
        .filter(|id| !targets.contains(id))
        .map(report)
        .collect();
    compare_sets(clean, faulted, &|n| untargeted.iter().any(|u| u == n))
        .map_err(|e| format!("blast radius violated for an untargeted building: {e}"))?;
    let written = read_set(faulted, &|n| glob("building-*.json", n))?.len();
    if written != buildings {
        return Err(format!(
            "faulted run wrote {written} building reports for a fleet of {buildings}"
        ));
    }
    eprintln!(
        "xtask soak: {} untargeted building reports byte-identical to the fault-free baseline",
        untargeted.len()
    );
    Ok(())
}

/// The value after `flag` in `args`.
fn arg<'a>(args: &'a str, flag: &str) -> Option<&'a str> {
    args.split_whitespace().skip_while(|a| *a != flag).nth(1)
}

/// The building ids after `--targets` (none for `none`).
fn target_ids(args: &str) -> Vec<usize> {
    arg(args, "--targets")
        .unwrap_or("none")
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect()
}

/// Whether `name` matches `pattern`, where one `*` matches any run of
/// characters.
fn glob(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        Some((head, tail)) => {
            name.len() >= head.len() + tail.len() && name.starts_with(head) && name.ends_with(tail)
        }
        None => pattern == name,
    }
}

/// Reads the files of `dir` whose names `keep` accepts into a sorted
/// name → bytes map. `quarantine/` holds crash debris and is skipped;
/// any other kept directory is an error.
fn read_set(dir: &Path, keep: &dyn Fn(&str) -> bool) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let mut set = BTreeMap::new();
    for path in entries(dir)? {
        let name = file_name(&path);
        if !keep(&name) || (path.is_dir() && name == QUARANTINE_DIR) {
            continue;
        }
        if path.is_dir() {
            return Err(format!("unexpected directory {}", path.display()));
        }
        let bytes = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        set.insert(name, bytes);
    }
    Ok(set)
}

/// Requires the kept files of `candidate` to be exactly those of
/// `reference`, byte for byte, and `reference` to hold at least one
/// file and no empty one. The error names every offending file.
fn compare_sets(
    reference: &Path,
    candidate: &Path,
    keep: &dyn Fn(&str) -> bool,
) -> Result<(), String> {
    let lhs = read_set(reference, keep)?;
    let rhs = read_set(candidate, keep)?;
    if lhs.is_empty() {
        return Err(format!("no artefacts in {}", reference.display()));
    }
    let mut diffs = Vec::new();
    for (name, bytes) in &lhs {
        match rhs.get(name) {
            _ if bytes.is_empty() => diffs.push(format!("{name}: empty in the reference")),
            Some(other) if other == bytes => {}
            Some(_) => diffs.push(format!("{name}: bytes differ")),
            None => diffs.push(format!("{name}: missing")),
        }
    }
    diffs.extend(
        rhs.keys()
            .filter(|n| !lhs.contains_key(*n))
            .map(|n| format!("{n}: extra")),
    );
    if diffs.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} differs from {}:\n  {}",
        candidate.display(),
        reference.display(),
        diffs.join("\n  ")
    ))
}

/// The checkpoint stores of a case: `pattern` relative to `dir`, where a
/// trailing `/*` names every sub-directory, in name order.
fn stores(dir: &Path, pattern: &str) -> Result<Vec<PathBuf>, String> {
    match pattern.strip_suffix("/*") {
        Some(parent) => Ok(entries(&dir.join(parent))?
            .into_iter()
            .filter(|p| p.is_dir())
            .collect()),
        None => Ok(vec![dir.join(pattern)]),
    }
}

/// The file a corruption case damages.
fn pick_victim(victim: &Victim, stores: &[PathBuf]) -> Result<PathBuf, String> {
    let first = stores.first().ok_or("no checkpoint stores to damage")?;
    let found = match victim {
        Victim::Manifest => Some(first.join("manifest.txt")),
        Victim::FirstPayload => entries(first)?
            .into_iter()
            .find(|p| p.extension().is_some_and(|ext| ext == "ck")),
        Victim::NewestSnapshot(prefixes) => {
            let mut snapshots = Vec::new();
            for store in stores {
                let live = entries(store)?.into_iter();
                snapshots
                    .extend(live.filter(|p| prefixes.iter().any(|x| file_name(p).starts_with(x))));
            }
            // On a tie, the first store in name order.
            snapshots.into_iter().rev().max_by_key(|p| file_name(p))
        }
    };
    found.ok_or_else(|| format!("no {victim:?} to damage under {}", first.display()))
}

/// Damages `victim` on disk.
fn damage(victim: &Path, how: Damage) -> Result<(), String> {
    let mut bytes = fs::read(victim).map_err(|e| format!("read {}: {e}", victim.display()))?;
    match (how, bytes.last_mut()) {
        (Damage::Truncate, _) => bytes.truncate(bytes.len() / 2),
        (Damage::Flip, Some(last)) => *last ^= 0x01,
        (Damage::Flip, None) => {}
    }
    fs::write(victim, &bytes).map_err(|e| format!("damage {}: {e}", victim.display()))
}

/// Concatenates every store's structured quarantine log.
fn quarantine_logs(stores: &[PathBuf]) -> String {
    stores
        .iter()
        .filter_map(|s| fs::read_to_string(s.join(QUARANTINE_DIR).join("log.txt")).ok())
        .collect()
}

/// The kill-point matrix artefact of one sweep.
fn render_matrix(scenario: &str, smoke: bool, writes: u64, cases: &[String]) -> String {
    let row = |c: &String| {
        format!(
            "    {{\"case\": \"{}\", \"status\": \"ok\"}}",
            json::escape(c)
        )
    };
    let rows: Vec<String> = cases.iter().map(row).collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"smoke\": {smoke},\n  \"durable_writes\": {writes},\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        json::escape(scenario),
        rows.join(",\n")
    )
}

/// Every kill point, or the boundary sample in smoke mode: the first
/// two writes (store creation), the middle, and the last two (final
/// artefact + manifest), where off-by-one bugs live.
fn select_kill_points(writes: u64, smoke: bool) -> Vec<u64> {
    if !smoke {
        return (1..=writes).collect();
    }
    let mut points = vec![1, 2, writes / 2, writes - 1, writes];
    points.sort_unstable();
    points.dedup();
    points
}

/// Extracts `N` from the harness's `durable writes = N` report line.
fn parse_durable_writes(stdout: &str) -> Result<u64, String> {
    parse_marker(stdout, "durable writes = ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("harness stdout had no parseable durable-write count:\n{stdout}"))
}

/// Extracts the value after `prefix` on the first matching stdout line.
fn parse_marker(stdout: &str, prefix: &str) -> Option<String> {
    stdout
        .lines()
        .find_map(|l| l.split(prefix).nth(1))
        .map(|v| v.trim().to_owned())
}

/// The entries of `dir`, in name order.
fn entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths = fs::read_dir(dir)
        .and_then(|rd| {
            rd.map(|e| e.map(|e| e.path()))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    paths.sort();
    Ok(paths)
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Deletes and recreates a directory, so a failed run cannot pass on
/// old bytes.
fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn number(args: &str, flag: &str) -> u32 {
        arg(args, flag).unwrap().parse().unwrap()
    }

    #[test]
    fn kill_point_selection_covers_boundaries() {
        assert_eq!(select_kill_points(20, false).len(), 20);
        assert_eq!(select_kill_points(20, true), vec![1, 2, 10, 19, 20]);
        // Tiny write counts dedup instead of repeating points.
        assert_eq!(select_kill_points(4, true), vec![1, 2, 3, 4]);
    }

    #[test]
    fn durable_write_count_is_parsed_from_report_line() {
        let out = "stream: slots = 288\nstream: durable writes = 20\nstream: ok\n";
        assert_eq!(parse_durable_writes(out), Ok(20));
        assert!(parse_durable_writes("no report").is_err());
    }

    #[test]
    fn marker_parsing_finds_values_and_tolerates_noise() {
        let out = "stream: slots = 288\nstream: ok\n";
        assert_eq!(
            parse_marker(out, "stream: slots = ").as_deref(),
            Some("288")
        );
        assert_eq!(parse_marker(out, "stream: missing = "), None);
    }

    #[test]
    fn scenario_registry_is_unique_and_describes_every_entry() {
        let mut names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCENARIOS.len());
        assert!(SCENARIOS
            .iter()
            .all(|s| !s.name.is_empty() && !s.about.is_empty()));
        assert!(names.contains(&"grid"));
        assert!(names.contains(&"stream"));
        assert!(names.contains(&"recovery"));
        assert!(names.contains(&"fleet"));
    }

    #[test]
    fn fleet_sweep_parameters_shrink_under_smoke() {
        let fleet = find("fleet").unwrap();
        assert!(number(fleet.smoke, "--buildings") < number(fleet.full, "--buildings"));
        assert!(target_ids(fleet.smoke).len() < target_ids(fleet.full).len());
        // Every target id must exist in its fleet, or the scenario's
        // "targeted building never left healthy" assertion is vacuous.
        for args in [fleet.smoke, fleet.full] {
            let buildings = number(args, "--buildings");
            for id in target_ids(args) {
                assert!(
                    id < buildings as usize,
                    "target {id} outside fleet of {buildings}"
                );
            }
        }
    }

    #[test]
    fn sweep_parameters_differ_between_smoke_and_full() {
        // The smoke sweep must be a strict subset of the work (fewer
        // days, fewer intensities), or ci would not be faster.
        for s in SCENARIOS.iter().filter(|s| s.smoke != s.full) {
            assert!(
                number(s.smoke, "--days") < number(s.full, "--days"),
                "{}",
                s.name
            );
        }
        let stream = find("stream").unwrap();
        let count = |args: Args| arg(args, "--intensities").unwrap().split(',').count();
        assert!(count(stream.smoke) < count(stream.full));
    }

    #[test]
    fn ci_runs_the_six_smokes() {
        let runs: Vec<String> = ci_smokes()
            .iter()
            .map(|(s, kill)| format!("{}{}", s.name, if *kill { " --kill" } else { "" }))
            .collect();
        let today = [
            "grid --kill",
            "stream --kill",
            "fleet --kill",
            "stream",
            "recovery",
            "fleet",
        ];
        assert_eq!(runs.len(), today.len());
        assert!(
            today.iter().all(|t| runs.contains(&(*t).to_owned())),
            "{runs:?}"
        );
    }

    #[test]
    fn glob_matches_one_wildcard() {
        assert!(glob("*", "manifest.txt"));
        assert!(glob("building-*.json", "building-007.json"));
        assert!(!glob("building-*.json", "fleet-report.json"));
        assert!(!glob("report.json", "report.json.tmp"));
    }

    /// A fresh temp directory holding `files` (`name`, bytes).
    fn store(tag: &str, files: &[(&str, &[u8])]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtask-soak-{tag}-{}", std::process::id()));
        reset_dir(&dir).unwrap();
        for (name, bytes) in files {
            let path = dir.join(name);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, bytes).unwrap();
        }
        dir
    }

    const FILES: &[(&str, &[u8])] = &[("a.ck", b"alpha"), ("manifest.txt", b"a.ck 1\n")];

    fn all(_: &str) -> bool {
        true
    }

    #[test]
    fn comparator_passes_identical_sets_and_skips_quarantine() {
        let lhs = store("same-l", FILES);
        let rhs = store(
            "same-r",
            &[FILES, &[("quarantine/a.ck.0", b"debris")]].concat(),
        );
        assert_eq!(compare_sets(&lhs, &rhs, &all), Ok(()));
        assert_eq!(compare_sets(&rhs, &lhs, &all), Ok(()));
    }

    #[test]
    fn comparator_names_every_offending_file() {
        let clean = store("diff-clean", FILES);
        let flipped = store(
            "diff-flip",
            &[("a.ck", b"alphA"), ("manifest.txt", b"a.ck 1\n")],
        );
        let missing = store("diff-missing", &FILES[..1]);
        let extra = store("diff-extra", &[FILES, &[("b.ck", b"beta")]].concat());
        for (dir, expected) in [
            (flipped, "a.ck: bytes differ"),
            (missing, "manifest.txt: missing"),
            (extra, "b.ck: extra"),
        ] {
            let err = compare_sets(&clean, &dir, &all).unwrap_err();
            assert!(err.contains(expected), "{err}");
        }
    }

    #[test]
    fn comparator_rejects_other_directories_and_empty_references() {
        let clean = store("dirs-clean", FILES);
        let nested = store("dirs-nested", &[FILES, &[("cache/x", b"x")]].concat());
        let err = compare_sets(&clean, &nested, &all).unwrap_err();
        assert!(
            err.contains("unexpected directory") && err.contains("cache"),
            "{err}"
        );
        // A directory outside the artefact set is not part of it.
        assert_eq!(compare_sets(&clean, &nested, &|n| n != "cache"), Ok(()));
        let empty = store("dirs-empty", &[]);
        assert!(compare_sets(&empty, &empty, &all).is_err());
        let hollow = store("dirs-hollow", &[("report.json", b"")]);
        let err = compare_sets(&hollow, &hollow, &all).unwrap_err();
        assert!(err.contains("report.json"), "{err}");
    }
}
