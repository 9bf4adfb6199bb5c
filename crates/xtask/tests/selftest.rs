//! End-to-end self-test of the `cargo xtask lint` gate: the binary
//! must exit non-zero on a workspace containing a seeded violation
//! and zero once the violation is remediated.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::Command;

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("xtask-selftest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/demo/src")).unwrap();
        std::fs::write(
            root.join("crates/demo/Cargo.toml"),
            "[package]\nname = \"demo\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n[lints]\nworkspace = true\n",
        )
        .unwrap();
        Fixture { root }
    }

    fn write_lib(&self, content: &str) {
        std::fs::write(self.root.join("crates/demo/src/lib.rs"), content).unwrap();
    }

    /// Writes any workspace-relative file, creating parent dirs — used
    /// to place fixtures at designated hot-path/clock module paths.
    /// Files under `crates/<name>/` get a minimal manifest too, since
    /// the walker only visits crate dirs that carry a `Cargo.toml`.
    fn write_file(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
        if let Some(name) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
        {
            let manifest = self.root.join("crates").join(name).join("Cargo.toml");
            if !manifest.exists() {
                std::fs::write(
                    manifest,
                    format!(
                        "[package]\nname = \"{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n[lints]\nworkspace = true\n"
                    ),
                )
                .unwrap();
            }
        }
    }

    fn lint(&self) -> (bool, String) {
        let (ok, _, stderr) = self.lint_args(&[]);
        (ok, stderr)
    }

    fn lint_args(&self, extra: &[&str]) -> (bool, String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["lint", "--root"])
            .arg(&self.root)
            .args(extra)
            .output()
            .expect("xtask binary runs");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn seeded_violation_fails_and_clean_tree_passes() {
    let fx = Fixture::new("seeded");
    fx.write_lib(
        "//! Demo crate.\n\n/// Doc.\n#[allow(clippy::unwrap_used)]\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let (ok, stderr) = fx.lint();
    assert!(!ok, "lint must fail on a seeded wall exception: {stderr}");
    assert!(
        stderr.contains("wall-exception"),
        "stderr names the rule: {stderr}"
    );

    fx.write_lib(
        "//! Demo crate.\n\n/// Doc.\npub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    );
    let (ok, stderr) = fx.lint();
    assert!(ok, "lint must pass once remediated: {stderr}");
}

/// Every new rule family fires on a seeded fixture with a
/// span-accurate `file:line:column` diagnostic naming the rule.
#[test]
fn each_new_rule_fires_with_an_accurate_span() {
    let cases: &[(&str, &str, &str, &str)] = &[
        (
            "crates/demo/src/lib.rs",
            "//! Demo.\n#![allow(clippy::disallowed_methods)]\n/// D.\npub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
            "wall-exception",
            "lib.rs:2:10",
        ),
        (
            "crates/demo/src/lib.rs",
            "//! Demo.\n/// D.\n#[expect(clippy::panic, reason = \"r\")]\npub fn f() {\n    panic!(\"no\")\n}\n",
            "wall-exception",
            "lib.rs:3:10",
        ),
        (
            "crates/demo/src/lib.rs",
            "//! Demo.\n/// D.\npub fn f(m: &std::collections::BTreeMap<u32, f64>) -> f64 {\n    m.values().sum()\n}\n",
            "float-reduction-order",
            "lib.rs:4:16",
        ),
        (
            "crates/demo/src/lib.rs",
            "//! Demo.\nmacro_rules! first {\n    ($xs:expr) => {\n        $xs.first().unwrap()\n    };\n}\n",
            "macro-panic",
            "lib.rs:4:21",
        ),
        (
            "crates/stream/src/service.rs",
            "//! Demo hot path.\n/// D.\npub fn f(xs: &[f64], i: usize) -> f64 {\n    xs[i]\n}\n",
            "hot-path-index",
            "service.rs:4:7",
        ),
    ];
    for (rel, source, rule, span) in cases {
        let fx = Fixture::new(&format!("rule-{rule}"));
        fx.write_file(rel, source);
        let (ok, stderr) = fx.lint();
        assert!(!ok, "{rule} fixture must fail the gate: {stderr}");
        assert!(stderr.contains(rule), "stderr names {rule}: {stderr}");
        assert!(
            stderr.contains(span),
            "diagnostic carries span {span}: {stderr}"
        );
    }

    let fx = Fixture::new("rule-hot-path-arith");
    fx.write_file(
        "crates/stream/src/service.rs",
        "//! Demo hot path.\n/// D.\npub fn f(xs: &[f64], i: usize) -> f64 {\n    xs[i + 1]\n}\n",
    );
    let (ok, stderr) = fx.lint();
    assert!(!ok, "hot-path-arith fixture must fail: {stderr}");
    assert!(
        stderr.contains("hot-path-arith"),
        "names the rule: {stderr}"
    );
    assert!(
        stderr.contains("service.rs:4:10"),
        "span points at the `+`: {stderr}"
    );
}

/// The same hot-path code outside a designated module passes, and a
/// designated clock module may expect `clippy::disallowed_methods` on
/// the item that reads the clock.
#[test]
fn designations_scope_the_new_rules() {
    let fx = Fixture::new("designations");
    fx.write_lib("//! Demo.\n/// D.\npub fn f(xs: &[f64], i: usize) -> f64 {\n    xs[i + 1]\n}\n");
    let (ok, stderr) = fx.lint();
    assert!(ok, "indexing outside hot-path modules is fine: {stderr}");

    let fx = Fixture::new("clock");
    fx.write_file(
        "crates/bench/src/bin/repro.rs",
        "//! Demo clock module.\n#[expect(clippy::disallowed_methods, reason = \"r\")]\nfn main() {\n    let _ = std::time::Instant::now();\n}\n",
    );
    let (ok, stderr) = fx.lint();
    assert!(
        ok,
        "AMBIENT_READ_MODULES may opt out of disallowed_methods: {stderr}"
    );
}

/// Baseline lifecycle: seed → bootstrap → clean → remediate → the now
/// stale entry fails → regenerating shrinks; growing is refused.
#[test]
fn baseline_ratchet_only_shrinks() {
    let fx = Fixture::new("ratchet");
    let one = "//! Demo hot path.\n/// D.\npub fn f(xs: &[f64], i: usize) -> f64 {\n    xs[i]\n}\n";
    let two = "//! Demo hot path.\n/// D.\npub fn f(xs: &[f64], i: usize) -> f64 {\n    xs[i]\n}\n/// D.\npub fn g(xs: &[f64], i: usize) -> f64 {\n    xs[i]\n}\n";
    let zero = "//! Demo hot path.\n/// D.\npub fn f(xs: &[f64], i: usize) -> f64 {\n    xs.get(i).copied().unwrap_or(0.0)\n}\n";

    fx.write_file("crates/stream/src/service.rs", one);
    let (ok, _) = fx.lint();
    assert!(!ok, "unbaselined violation fails");

    // Bootstrap: with no baseline on disk, --update-baseline records
    // the current findings and the gate goes green.
    let (ok, _, stderr) = fx.lint_args(&["--update-baseline"]);
    assert!(ok, "bootstrap update succeeds: {stderr}");
    let (ok, stderr) = fx.lint();
    assert!(ok, "baselined violation passes: {stderr}");

    // Growth is refused: a second violation cannot be absorbed.
    fx.write_file("crates/stream/src/service.rs", two);
    let (ok, _, stderr) = fx.lint_args(&["--update-baseline"]);
    assert!(!ok, "ratchet must refuse growth: {stderr}");
    assert!(
        stderr.contains("grow") || stderr.contains("ratchet"),
        "refusal names the ratchet: {stderr}"
    );

    // Remediation leaves the baseline entry stale, which fails...
    fx.write_file("crates/stream/src/service.rs", zero);
    let (ok, stderr) = fx.lint();
    assert!(!ok, "stale baseline entry fails the gate");
    assert!(
        stderr.contains("stale-allow"),
        "reported as stale: {stderr}"
    );

    // ...until the baseline is regenerated (shrinking is always OK).
    let (ok, _, stderr) = fx.lint_args(&["--update-baseline"]);
    assert!(ok, "shrinking update succeeds: {stderr}");
    let (ok, stderr) = fx.lint();
    assert!(ok, "empty baseline on a clean tree passes: {stderr}");
}

/// `--json` output is byte-identical across runs (the machine-readable
/// report is canonical).
#[test]
fn json_report_is_byte_identical_across_runs() {
    let fx = Fixture::new("json");
    fx.write_lib(
        "//! Demo.\n#![allow(clippy::restriction)]\n/// D.\npub fn f(m: &std::collections::BTreeMap<u32, f64>) -> f64 {\n    m.values().sum()\n}\n",
    );
    let (ok1, out1, _) = fx.lint_args(&["--json"]);
    let (ok2, out2, _) = fx.lint_args(&["--json"]);
    assert_eq!(ok1, ok2);
    assert_eq!(out1, out2, "lint --json must be deterministic");
    assert!(out1.contains("\"schema\": \"xtask-lint/2\""));
    assert!(out1.contains("\"summary\": { \"active\": 2, \"baselined\": 0 }"));
    assert!(out1.contains("wall-exception"));
    assert!(out1.contains("float-reduction-order"));
}

#[test]
fn real_workspace_is_clean() {
    // The acceptance gate: the remediated workspace itself passes.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(&root)
        .output()
        .expect("xtask binary runs");
    assert!(
        out.status.success(),
        "workspace must be lint-clean:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Clippy is the one enforcer of the panic-free, lossy-cast and
/// determinism rules, so the wall itself is pinned: deleting any of
/// its lines from the root `Cargo.toml` or `clippy.toml` fails here.
#[test]
fn clippy_wall_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let mut in_table = false;
    let mut denied = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[workspace.lints.clippy]";
        } else if let Some((key, level)) = line.split_once('=').filter(|_| in_table) {
            if level.trim() == "\"deny\"" {
                denied.push(key.trim().to_owned());
            }
        }
    }
    for lint in [
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "dbg_macro",
        "cast_possible_truncation",
        "cast_sign_loss",
    ] {
        assert!(
            denied.iter().any(|d| d == lint),
            "[workspace.lints.clippy] must set {lint} = \"deny\"; denied: {denied:?}"
        );
    }

    let config = std::fs::read_to_string(root.join("clippy.toml")).unwrap();
    let disallowed = |key: &str| -> Vec<String> {
        let mut paths = Vec::new();
        let mut in_list = false;
        for line in config.lines().map(str::trim) {
            if line.starts_with('#') {
                continue;
            }
            if line.starts_with(key) && line.contains('[') {
                in_list = true;
            } else if in_list && line.starts_with(']') {
                in_list = false;
            } else if let Some(rest) = line.strip_prefix("{ path = \"").filter(|_| in_list) {
                paths.extend(rest.split('"').next().map(str::to_owned));
            }
        }
        paths
    };
    let types = disallowed("disallowed-types");
    for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            types.iter().any(|t| t == ty),
            "clippy.toml must disallow {ty}: {types:?}"
        );
    }
    let methods = disallowed("disallowed-methods");
    for method in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::env::var",
        "std::env::var_os",
        "std::thread::current",
    ] {
        assert!(
            methods.iter().any(|m| m == method),
            "clippy.toml must disallow {method}: {methods:?}"
        );
    }
}
