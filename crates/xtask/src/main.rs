//! `cargo xtask` — the single entry point for workspace correctness
//! tooling. See `DESIGN.md` § static analysis and `README.md` for the
//! policy this enforces.
//!
//! Commands:
//!
//! - `cargo xtask lint [--json] [--report <p>] [--update-baseline]` —
//!   the token-level rules clippy cannot express, with the ratcheted
//!   baseline as their one exception path (see DESIGN.md § 10).
//! - `cargo xtask fmt` — `cargo fmt --all`.
//! - `cargo xtask ci` — fmt-check → clippy → lint → doc → build →
//!   test → allocation-budget gate → determinism smoke → soak smokes
//!   (one per scenario row, plain and `--kill`) → perfbench smoke
//!   (every workload, untraced and traced).
//! - `cargo xtask soak <scenario> [--smoke] [--kill]` / `--list` —
//!   the table-driven robustness runner (see `xtask::soak`): byte
//!   determinism across repeats and thread counts, the fleet blast
//!   radius, and with `--kill` the kill-point crash/resume sweep with
//!   corruption cases (see DESIGN.md § crash recovery and
//!   § restore-equivalence).
//! - `cargo xtask miri` — Miri over the `linalg`/`timeseries` unit
//!   tests (skips with a notice when Miri is not installed).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "lint" => lint(&args[1..]),
        "fmt" => run_steps(&[step("fmt", &["fmt", "--all"])]),
        "ci" => ci(),
        "soak" => soak(&args[1..]),
        "miri" => miri(),
        "help" | "--help" | "-h" => {
            print_help();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("xtask: unknown command `{other}`\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    eprintln!(
        "usage: cargo xtask <command>\n\n\
         commands:\n\
         \x20 lint [--root <dir>]  run the token-level rules clippy cannot express\n\
         \x20      [--json]        print the canonical JSON report to stdout\n\
         \x20      [--report <p>]  write the JSON report to <p> (atomic)\n\
         \x20      [--update-baseline]  rewrite xtask/lint-baseline.json, the one\n\
         \x20                      exception path (per-rule counts may only shrink)\n\
         \x20 fmt                  format the workspace (cargo fmt --all)\n\
         \x20 ci                   fmt-check, clippy, lint, doc, build, test,\n\
         \x20                      alloc-free, determinism, soak and perfbench\n\
         \x20                      smokes\n\
         \x20 soak <scenario>      robustness runner: determinism, blast radius\n\
         \x20      [--smoke]       (short sweep / boundary kill points)\n\
         \x20      [--kill]        kill-point crash/resume sweep + corruption cases\n\
         \x20 soak --list          print the scenario table\n\
         \x20 miri                 Miri over linalg/timeseries unit tests\n\
         \x20 help                 show this message"
    );
}

fn lint(args: &[String]) -> ExitCode {
    let mut root = workspace_root();
    let mut json = false;
    let mut report: Option<PathBuf> = None;
    let mut update = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("xtask lint: --root needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => json = true,
            "--report" => match it.next() {
                Some(path) => report = Some(PathBuf::from(path)),
                None => {
                    eprintln!("xtask lint: --report needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--update-baseline" => update = true,
            other => {
                eprintln!(
                    "xtask lint: unknown argument `{other}` (expected --root <dir>, --json, \
                     --report <path>, --update-baseline)"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if update {
        return match xtask::checks::update_baseline(&root) {
            Ok(xtask::checks::BaselineUpdate::Written { entries }) => {
                eprintln!("xtask lint: baseline rewritten with {entries} entrie(s)");
                ExitCode::SUCCESS
            }
            Ok(xtask::checks::BaselineUpdate::Refused { reason }) => {
                eprintln!("xtask lint: baseline update refused: {reason}");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("xtask lint: i/o error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match xtask::checks::run_workspace(&root) {
        Ok(lint_report) => {
            if json {
                print!("{}", lint_report.render_json());
            }
            if let Some(path) = &report {
                let path = if path.is_absolute() {
                    path.clone()
                } else {
                    root.join(path)
                };
                if let Some(parent) = path.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                if let Err(e) =
                    thermal_ckpt::write_atomic(&path, lint_report.render_json().as_bytes())
                {
                    eprintln!("xtask lint: could not write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("xtask lint: report written to {}", path.display());
            }
            let active: Vec<_> = lint_report.active().collect();
            if active.is_empty() {
                let (_, baselined) = lint_report.counts();
                eprintln!("xtask lint: clean ({baselined} baselined)");
                ExitCode::SUCCESS
            } else {
                for v in &active {
                    eprintln!("{v}");
                }
                eprintln!(
                    "xtask lint: {} violation(s); see xtask/lint-baseline.json and \
                     DESIGN.md § 10 for the exception policy",
                    active.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: i/o error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Step {
    name: &'static str,
    args: Vec<String>,
    envs: Vec<(String, String)>,
}

fn step(name: &'static str, args: &[&str]) -> Step {
    Step {
        name,
        args: args.iter().map(|&s| s.to_owned()).collect(),
        envs: Vec::new(),
    }
}

/// A [`step`] with extra environment variables, e.g. the
/// `THERMAL_THREADS` pins of the determinism smoke.
fn step_env(name: &'static str, args: &[&str], envs: &[(&str, &str)]) -> Step {
    Step {
        envs: envs
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect(),
        ..step(name, args)
    }
}

/// Runs `cargo` steps sequentially from the workspace root, stopping
/// at the first failure.
fn run_steps(steps: &[Step]) -> ExitCode {
    let root = workspace_root();
    for s in steps {
        let env_prefix: String = s.envs.iter().map(|(k, v)| format!("{k}={v} ")).collect();
        eprintln!("xtask: {env_prefix}cargo {}", s.args.join(" "));
        let status = Command::new(env!("CARGO"))
            .args(&s.args)
            .envs(s.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .current_dir(&root)
            .status();
        match status {
            Ok(st) if st.success() => {}
            Ok(st) => {
                eprintln!("xtask: step `{}` failed with {st}", s.name);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask: step `{}` could not start: {e}", s.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn ci() -> ExitCode {
    // fmt-check and clippy walls first (cheapest feedback), then the
    // custom gate and the docs, then build + test.
    let steps = [
        step("fmt-check", &["fmt", "--all", "--check"]),
        step(
            "clippy",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--offline",
                "--",
                "-D",
                "warnings",
            ],
        ),
    ];
    let code = run_steps(&steps);
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Lint gate, with the machine-readable report dropped where the
    // CI workflow picks it up as an artifact.
    eprintln!("xtask: lint");
    let code = lint(&["--report".to_owned(), "target/lint-report.json".to_owned()]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    let code = run_steps(&[
        // The workspace's rustdoc lints deny broken, private and
        // redundant intra-doc links, so a bad link fails this step.
        step("doc", &["doc", "--no-deps", "--workspace", "--offline"]),
        step("build", &["build", "--release", "--offline"]),
        step("test", &["test", "-q", "--offline"]),
    ]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Allocation-budget gate: the counting-allocator binaries prove a
    // warmed-up steady-state stream event, a warmed-up bulkhead slot
    // and a simulator step perform zero heap allocations, that a
    // simulated campaign allocates at most 17 bytes per sample per
    // channel (one record, one dense measured sample and its presence
    // bit each), that cloning
    // a replay schedule or an unstaged flaky source allocates nothing
    // (clones share the schedule), that batch assembly and open-loop
    // prediction allocate per segment, never per sample or slot, and
    // that GP selection allocates per sensor, never per sample or per
    // candidate evaluation. The validation budget: `evaluate` and the
    // cluster-mean validation allocate per call, as often over ten
    // 50-slot segments as over one 500-slot segment. The
    // batch-fit budget rides along: one `ThermalPipeline::fit` makes
    // exactly one campaign-sized allocation (its trajectory matrix)
    // and a fully restored `fit_checkpointed` none, the centred Gram
    // allocates the same bytes at any number of observations, and a
    // ridge `identify` the same largest allocation at any number of
    // transitions. The dataset budget: a fit, its cluster-mean
    // validation, a cold `fit_checkpointed` and a training-horizon
    // sweep never build a channel's 16-byte-per-slot `Option` view
    // (see DESIGN.md § allocation budget and § simulator design). The
    // full test step above already ran them; this
    // dedicated step keeps the budget visible — and individually
    // bisectable — in the CI log.
    let code = run_steps(&[step(
        "alloc-free",
        &[
            "test",
            "-q",
            "--offline",
            "--release",
            "-p",
            "thermal-stream",
            "-p",
            "thermal-fleet",
            "-p",
            "thermal-sim",
            "-p",
            "thermal-sysid",
            "-p",
            "thermal-select",
            "-p",
            "thermal-core",
            "-p",
            "thermal-linalg",
            "--test",
            "alloc_free",
        ],
    )]);
    if code != ExitCode::SUCCESS {
        return code;
    }
    let code = determinism_smoke();
    if code != ExitCode::SUCCESS {
        return code;
    }
    // Robustness smokes, one per scenario row (the dedicated CI
    // matrix job runs the full sweeps).
    for (scenario, kill) in xtask::soak::ci_smokes() {
        let flag = if kill { " --kill" } else { "" };
        eprintln!("xtask: soak {} --smoke{flag}", scenario.name);
        let code = run_soak(scenario, true, kill);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    perfbench_smoke()
}

/// One 1 s perfbench run per workload, untraced and traced.
/// `perfbench/` is a Cargo workspace of its own, so no step above
/// builds it: this one catches a crate API change that breaks the
/// benchmark. Each run's exit code carries its output checks (0
/// correct, 1 a failed operation or check, 2 bad arguments); there
/// are no timing thresholds.
fn perfbench_smoke() -> ExitCode {
    let mut steps = Vec::new();
    for workload in ["fleet-onboard", "paper-fit", "serve"] {
        for trace in ["0", "1"] {
            steps.push(step(
                "perfbench",
                &[
                    "run",
                    "--release",
                    "--offline",
                    "--locked",
                    "--manifest-path",
                    "perfbench/Cargo.toml",
                    "--",
                    "--workload",
                    workload,
                    "--seed",
                    "1",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ],
            ));
        }
    }
    run_steps(&steps)
}

/// Runs the repro pipeline twice — `THERMAL_THREADS=1` and `=4` — and
/// byte-compares the result CSVs, enforcing the `thermal-par`
/// determinism contract end-to-end (see DESIGN.md § performance).
/// Each run includes the quick fault-class × intensity sweep, so it is
/// also the robustness smoke: the sweep must complete end-to-end,
/// sensor death and total blackout included (DESIGN.md § robustness).
fn determinism_smoke() -> ExitCode {
    let root = workspace_root();
    let out_base = root.join("target").join("determinism");
    let runs = [("1", out_base.join("t1")), ("4", out_base.join("t4"))];
    for (threads, dir) in &runs {
        let code = run_steps(&[step_env(
            "determinism-repro",
            &[
                "run",
                "--release",
                "--offline",
                "-p",
                "thermal-bench",
                "--bin",
                "repro",
                "--",
                "--quick",
                "--out",
                &dir.to_string_lossy(),
                "fig3",
                "fault_matrix",
            ],
            &[("THERMAL_THREADS", threads)],
        )]);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    for csv in ["fig3.csv", "fault_matrix.csv"] {
        let (a, b) = (runs[0].1.join(csv), runs[1].1.join(csv));
        match (std::fs::read(&a), std::fs::read(&b)) {
            (Ok(lhs), Ok(rhs)) if lhs == rhs => {
                eprintln!("xtask: determinism smoke: {csv} identical across thread counts");
            }
            (Ok(_), Ok(_)) => {
                eprintln!(
                    "xtask: determinism smoke FAILED: {csv} differs between \
                     THERMAL_THREADS=1 and THERMAL_THREADS=4"
                );
                return ExitCode::FAILURE;
            }
            (a_res, b_res) => {
                eprintln!(
                    "xtask: determinism smoke could not read {csv}: {:?} / {:?}",
                    a_res.err(),
                    b_res.err()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `cargo xtask soak <scenario> [--smoke] [--kill]`, or `--list`.
fn soak(args: &[String]) -> ExitCode {
    let (mut smoke, mut kill, mut name) = (false, false, None);
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--kill" => kill = true,
            "--list" => {
                for s in xtask::soak::SCENARIOS {
                    let flags = if s.kill.is_some() { "[--kill]" } else { "" };
                    println!("{:<10} {:<9}{}", s.name, flags, s.about);
                }
                return ExitCode::SUCCESS;
            }
            other if name.is_none() && !other.starts_with('-') => name = Some(other),
            other => {
                eprintln!(
                    "xtask soak: unexpected `{other}`; usage: soak <scenario> [--smoke] \
                     [--kill] | soak --list"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(name) = name else {
        eprintln!("xtask soak: name a scenario (see --list)");
        return ExitCode::FAILURE;
    };
    match xtask::soak::find(name) {
        Some(scenario) => run_soak(scenario, smoke, kill),
        None => {
            eprintln!("xtask soak: unknown scenario `{name}` (see --list)");
            ExitCode::FAILURE
        }
    }
}

fn run_soak(scenario: &xtask::soak::Scenario, smoke: bool, kill: bool) -> ExitCode {
    match xtask::soak::run(&workspace_root(), scenario, smoke, kill) {
        Ok(()) => {
            eprintln!("xtask soak: clean ({})", scenario.name);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask soak: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn miri() -> ExitCode {
    // Miri needs the nightly component; degrade to an explicit skip
    // when it is absent so the aggregate stays usable offline. The
    // scheduled CI job installs the component and runs this for real.
    let probe = Command::new(env!("CARGO"))
        .args(["miri", "--version"])
        .output();
    let available = matches!(&probe, Ok(out) if out.status.success());
    if !available {
        eprintln!(
            "xtask miri: `cargo miri` unavailable in this toolchain; skipping.\n\
             Install with `rustup +nightly component add miri` to run locally."
        );
        return ExitCode::SUCCESS;
    }
    run_steps(&[step(
        "miri",
        &[
            "miri",
            "test",
            "-p",
            "thermal-linalg",
            "-p",
            "thermal-timeseries",
            "--lib",
        ],
    )])
}
