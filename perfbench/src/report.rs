//! The metric catalogue, the per-run report, and its rendering: a
//! readable listing followed by the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use thermal_sysid::CacheStats;

use crate::onboard::Res;
use crate::stats::{highest_supported, median_f64, percentile, Best};
use crate::trace::TraceAgg;

/// End-to-end metrics every workload reports untraced: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p90", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics printed where a workload supports them; the
/// result line carries only [`END_TO_END`], which every workload has.
pub const END_TO_END_EXTRA: &[(&str, &str)] = &[
    ("op_us_p99", "us"),
    ("sweep_ms_p50", "ms"),
    ("failed_ratio", "ratio"),
];

/// Layers (workspace crates) and the name of their self-time share.
pub const LAYERS: &[(&str, &str)] = &[
    ("sim", "sim.share"),
    ("timeseries", "timeseries.share"),
    ("core", "core.share"),
    ("cluster", "cluster.share"),
    ("select", "select.share"),
    ("sysid", "sysid.share"),
    ("linalg", "linalg.share"),
    ("stream", "stream.share"),
    ("fleet", "fleet.share"),
    ("ckpt", "ckpt.share"),
];

/// Per-layer metrics of the traced run: name, unit. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("sim.run_ms", "ms"),
    ("sim.share", "ratio"),
    ("par.busy_ratio", "ratio"),
    ("timeseries.to_csv_ms", "ms"),
    ("timeseries.share", "ratio"),
    ("core.fit_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.share", "ratio"),
    ("cluster.trajectory_ms", "ms"),
    ("cluster.weight_matrix_ms", "ms"),
    ("cluster.spectral_ms", "ms"),
    ("cluster.share", "ratio"),
    ("select.sms_ms", "ms"),
    ("select.srs_ms", "ms"),
    ("select.rs_ms", "ms"),
    ("select.gp_ms", "ms"),
    ("select.rank_backups_ms", "ms"),
    ("select.share", "ratio"),
    ("sysid.identify_ms", "ms"),
    ("sysid.sweep_ms", "ms"),
    ("sysid.cache_lookups", "count"),
    ("sysid.cache_hits", "count"),
    ("sysid.cache_misses", "count"),
    ("sysid.cache_evictions", "count"),
    ("sysid.cache_hit_ratio", "ratio"),
    ("sysid.share", "ratio"),
    ("linalg.solve_flops", "flop"),
    ("linalg.gflops", "GFLOP/s"),
    ("linalg.share", "ratio"),
    ("stream.parse_ms", "ms"),
    ("stream.parse_rows", "count"),
    ("stream.replayer_new_ms", "ms"),
    ("stream.poll_us", "us"),
    ("stream.step_us_p50", "us"),
    ("stream.step_us_p99", "us"),
    ("stream.predict_ns", "ns"),
    ("stream.readings_per_slot", "count"),
    ("stream.applied", "count"),
    ("stream.queue_high_water", "count"),
    ("stream.queue_dropped", "count"),
    ("stream.reorder_duplicates", "count"),
    ("stream.reorder_too_late", "count"),
    ("stream.backup_outputs", "count"),
    ("stream.unavailable_outputs", "count"),
    ("stream.online_step_us", "us"),
    ("stream.refit_us_p50", "us"),
    ("stream.refit_us_q1", "us"),
    ("stream.refit_us_q4", "us"),
    ("stream.refits_per_kslot", "count"),
    ("stream.refits_completed", "count"),
    ("stream.refits_quarantined", "count"),
    ("stream.rows_ingested", "count"),
    ("stream.share", "ratio"),
    ("fleet.bulkhead_us", "us"),
    ("fleet.share", "ratio"),
    ("ckpt.store_entries", "count"),
    ("ckpt.snapshot_bytes", "bytes"),
    ("ckpt.snapshot_seal_us", "us"),
    ("ckpt.snapshot_save_us", "us"),
    ("ckpt.snapshot_restore_us", "us"),
    ("ckpt.share", "ratio"),
];

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Stated tolerance: layer self times should explain at least this
/// share of traced operation time.
pub const COVERAGE_MIN: f64 = 0.85;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured run length, s.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed their output check.
    pub failed: u64,
    failures: Vec<String>,
    checks: Vec<(String, bool, String)>,
    notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, u64>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(END_TO_END_EXTRA)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

impl Report {
    /// Records a metric; `name` must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.values.insert(name, value);
    }

    /// Records a timing with its sample count.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: u64) {
        self.set(name, value);
        self.samples.insert(name, samples);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(reason);
        }
    }

    /// Records a whole-run output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_owned(), ok, detail.into()));
    }

    /// Runs set-up [`SETUP_REPS`] times, records the median as
    /// `setup_s`, and returns the last result.
    pub fn setup<T>(&mut self, mut f: impl FnMut() -> Res<T>) -> Res<T> {
        let mut secs = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let start = Instant::now();
            last = Some(f()?);
            secs.push(start.elapsed().as_secs_f64());
        }
        self.set_n("setup_s", median_f64(&secs), SETUP_REPS as u64);
        last.ok_or_else(|| "set-up never ran".to_owned())
    }

    /// End-to-end timings of a run that repeats a fixed population of
    /// operations in rounds: `ops_per_s` is one round's operations over
    /// the sum of its windows' best times (a window is the unit the
    /// loop times as a whole), and the latency percentiles are over
    /// each operation's best time, the tail ones only where at least
    /// ten operations lie beyond them.
    pub fn best_of(&mut self, ops: &Best, windows: &Best) {
        let mut times = ops.times();
        let n = times.len() as u64;
        let round_s = windows.total() as f64 / 1e9;
        self.set_n("ops_per_s", n as f64 / round_s, n);
        self.notes.push(format!(
            "timings are each operation's best of {} rounds",
            ops.rounds()
        ));
        if ops.rounds() < 2 {
            self.check("rounds", false, "fewer than two rounds completed");
        }
        let tail = highest_supported(&[90.0, 99.0], n).unwrap_or(0.0);
        self.set_n("op_us_p50", percentile(&mut times, 50.0) as f64 / 1e3, n);
        if tail >= 90.0 {
            self.set_n("op_us_p90", percentile(&mut times, 90.0) as f64 / 1e3, n);
        } else {
            self.check(
                "p90_supported",
                false,
                format!("{n} operations cannot support p90"),
            );
        }
        if tail >= 99.0 {
            self.set_n("op_us_p99", percentile(&mut times, 99.0) as f64 / 1e3, n);
        }
    }

    /// `trace.overhead`: traced over untraced operation time, minus 1.
    pub fn overhead(&mut self, traced_ns: u64, plain_ns: u64) {
        self.set(
            "trace.overhead",
            traced_ns as f64 / plain_ns.max(1) as f64 - 1.0,
        );
    }

    /// `trace.coverage` and every layer's self-time share. Coverage
    /// below [`COVERAGE_MIN`] is reported, not failed: the uncovered
    /// part is mostly the tracer's own clock reads, so a faster program
    /// covers less without being wrong.
    pub fn coverage(&mut self, agg: &TraceAgg) {
        let coverage = agg.coverage();
        self.set("trace.coverage", coverage);
        let verdict = if coverage >= COVERAGE_MIN {
            "within"
        } else {
            "OUTSIDE"
        };
        self.notes.push(format!(
            "trace coverage {coverage:.4} of traced op time is {verdict} the tolerance (>= {COVERAGE_MIN})"
        ));
        for &(layer, share) in LAYERS {
            self.set(share, agg.layer_share(layer));
        }
    }

    /// Mean duration of `span`, ms, as metric `name`.
    pub fn span_ms(&mut self, agg: &TraceAgg, name: &'static str, span: &str) {
        let n = agg.samples(span).len() as u64;
        self.set_n(name, agg.mean_ns(span) / 1e6, n);
    }

    /// Gram-cache counters and the hit ratio with its base.
    pub fn cache(&mut self, c: CacheStats) {
        let lookups = c.hits + c.misses;
        self.set("sysid.cache_lookups", lookups as f64);
        self.set("sysid.cache_hits", c.hits as f64);
        self.set("sysid.cache_misses", c.misses as f64);
        self.set("sysid.cache_evictions", c.evictions as f64);
        self.set(
            "sysid.cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                c.hits as f64 / lookups as f64
            },
        );
    }

    /// Whether every operation and check passed and every reported
    /// number is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|(_, ok, _)| *ok)
            && self.values.values().all(|v| v.is_finite())
    }

    /// Renders the listing and the result line (last), and whether the
    /// run is correct.
    pub fn render(&mut self, trace: bool, context: &[(&str, String)]) -> (String, bool) {
        if self.attempted > 0 {
            let ratio = self.failed as f64 / self.attempted as f64;
            self.set_n("failed_ratio", ratio, self.attempted);
        }
        let mut out = String::new();
        for (key, value) in context {
            let _ = writeln!(out, "context {key}: {value}");
        }
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "check {name}: {verdict} ({detail})");
        }
        for note in &self.notes {
            let _ = writeln!(out, "note {note}");
        }
        for reason in &self.failures {
            let _ = writeln!(out, "failed op: {reason}");
        }
        let _ = writeln!(
            out,
            "ops attempted {} failed {}",
            self.attempted, self.failed
        );
        for (&name, &value) in &self.values {
            let unit = unit_of(name).unwrap_or("");
            match self.samples.get(name) {
                Some(n) => {
                    let _ = writeln!(out, "metric {name} = {value} {unit} (samples {n})");
                }
                None => {
                    let _ = writeln!(out, "metric {name} = {value} {unit}");
                }
            }
        }
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut correct = self.correct() && self.attempted > 0;
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            // A layer this workload leaves idle reads 0; an end-to-end
            // metric must have been measured.
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if trace => 0.0,
                _ => {
                    correct = false;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        (out, correct)
    }
}
