//! Argument handling of the `harness` binary: every usage error exits
//! 2 with a `harness:` message before any scenario runs, and `--help`
//! exits 0.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .env_remove("THERMAL_KILL_AT")
        .env_remove("THERMAL_KILL_SEED")
        .output()
        .unwrap()
}

#[test]
fn usage_errors_exit_2_with_a_harness_message() {
    // No case reaches a scenario, so the directory is never created.
    let dir = std::env::temp_dir().join(format!("harness-cli-{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    for (args, says) in [
        (vec!["bogus", dir], "unknown scenario"),
        (vec!["grid", dir, "--days", "1"], "grid takes no --days"),
        (vec!["stream", dir, "--days"], "--days needs a value"),
        (
            vec!["fleet", dir, "--days", "0"],
            "--days needs a positive integer",
        ),
        (vec!["recovery", "--days", "1"], "missing <dir>"),
    ] {
        let out = harness(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("harness: ") && stderr.contains(says),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    assert!(!std::path::Path::new(dir).exists());
}

#[test]
fn help_exits_0() {
    let out = harness(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&out.stdout);
    for scenario in ["grid", "stream", "recovery", "fleet"] {
        assert!(usage.contains(scenario), "{usage}");
    }
}
