//! Smoke test of the experiment harness: every experiment runs on a
//! tiny campaign and produces structurally sane output. (The
//! full-scale numbers live in EXPERIMENTS.md; this guards the
//! plumbing.)

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::OnceLock;

use thermal_bench::experiments::{clustering, model, selection};
use thermal_bench::protocol::Protocol;
use thermal_cluster::Similarity;
use thermal_sim::Scenario;

fn tiny_protocol() -> &'static Protocol {
    static P: OnceLock<Protocol> = OnceLock::new();
    P.get_or_init(|| {
        let mut scenario = Scenario::quick().with_days(8).with_seed(77);
        scenario.min_usable_days = 8;
        Protocol::new(&scenario).expect("tiny protocol")
    })
}

#[test]
fn table1_has_four_finite_rows() {
    let rows = model::table1(tiny_protocol()).unwrap();
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert!(r.p90.is_finite() && r.p90 > 0.0);
        assert!(r.min <= r.p90 && r.p90 <= r.max + 1e-12);
    }
    let rendered = model::render_table1(&rows);
    assert!(rendered.contains("occupied"));
    assert!(rendered.contains("paper"));
}

#[test]
fn fig3_cdfs_are_monotone() {
    let r = model::fig3(tiny_protocol()).unwrap();
    for curve in [&r.first, &r.second] {
        assert!(!curve.is_empty());
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0, "x must be sorted");
            assert!(w[0].1 <= w[1].1, "cdf must be monotone");
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }
    let (chart, csv) = model::render_fig3(&r);
    assert!(chart.contains("first-order"));
    assert!(csv.starts_with("x,"));
}

#[test]
fn fig4_aligns_measured_and_predicted() {
    let r = model::fig4(tiny_protocol(), "t01").unwrap();
    assert_eq!(r.hours.len(), r.measured.len());
    assert_eq!(r.hours.len(), r.first.len());
    assert_eq!(r.hours.len(), r.second.len());
    assert!(r.hours.len() > 10);
    // Hours strictly increase by one sample step.
    for w in r.hours.windows(2) {
        assert!(w[1] > w[0]);
    }
}

#[test]
fn fig5_sweeps_have_expected_axes() {
    let (r, _) = model::fig5(tiny_protocol(), None).unwrap();
    assert!(!r.training.is_empty());
    assert_eq!(r.prediction.len(), 5);
    assert_eq!(r.prediction[0].0, 2.5);
    assert_eq!(r.prediction[4].0, 13.5);
    let rendered = model::render_fig5(&r);
    assert!(rendered.contains("training-data sweep"));
}

#[test]
fn fig5_checkpointed_matches_plain_cold_and_warm() {
    let p = tiny_protocol();
    let (plain, resume) = model::fig5(p, None).unwrap();
    assert!(resume.restored.is_empty() && resume.computed.is_empty());
    let root = std::env::temp_dir().join(format!("bench-fig5-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Cold run: every cell computed, result bitwise equal to plain.
    let mut store = thermal_ckpt::CheckpointStore::open(&root, 9, "test").unwrap();
    let (cold, resume) = model::fig5(p, Some(&mut store)).unwrap();
    assert!(resume.restored.is_empty());
    assert!(!resume.computed.is_empty());
    assert_eq!(cold.training, plain.training);
    assert_eq!(cold.prediction, plain.prediction);
    drop(store);

    // Warm run: every cell restored, still bitwise equal.
    let mut store = thermal_ckpt::CheckpointStore::open(&root, 9, "test").unwrap();
    let (warm, resume) = model::fig5(p, Some(&mut store)).unwrap();
    assert!(
        resume.computed.is_empty(),
        "warm run recomputed {:?}",
        resume.computed
    );
    assert_eq!(resume.restored.len(), plain.training.len() * 2 + 2);
    assert_eq!(warm.training, plain.training);
    assert_eq!(warm.prediction, plain.prediction);
    drop(store);

    // Corrupt one training cell on disk: the store quarantines it on
    // open and exactly that cell is recomputed to the same value.
    let victim = std::fs::read_dir(&root)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("fig5-train-"))
        })
        .unwrap();
    std::fs::write(&victim, b"definitely not a checkpoint").unwrap();
    let mut store = thermal_ckpt::CheckpointStore::open(&root, 9, "test").unwrap();
    assert_eq!(store.open_report().quarantined.len(), 1);
    let (healed, resume) = model::fig5(p, Some(&mut store)).unwrap();
    assert_eq!(resume.computed.len(), 1);
    assert_eq!(healed.training, plain.training);
    assert_eq!(healed.prediction, plain.prediction);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fig6_covers_both_similarities() {
    let sides = clustering::fig6(tiny_protocol()).unwrap();
    assert_eq!(sides.len(), 2);
    for s in &sides {
        assert!(s.k >= 2);
        assert_eq!(s.members.len(), s.k);
        assert_eq!(s.mean_temps.len(), s.k);
        assert_eq!(s.log_eigenvalues.len(), 25);
        let total: usize = s.members.iter().map(Vec::len).sum();
        assert_eq!(total, 25, "every wireless sensor is clustered");
    }
    assert!(clustering::render_fig6(&sides).contains("similarity"));
}

#[test]
fn quality_columns_match_requested_ks() {
    let cols =
        clustering::quality_columns(tiny_protocol(), Similarity::correlation(), &[2, 3]).unwrap();
    assert_eq!(cols.len(), 2);
    assert_eq!(cols[0].k, 2);
    assert_eq!(cols[0].per_cluster.len(), 2);
    assert_eq!(cols[1].per_cluster.len(), 3);
    for col in &cols {
        assert!(col.overall.0 <= col.overall.1);
        assert!((-1.0..=1.0).contains(&col.corr_within));
        assert!((-1.0..=1.0).contains(&col.corr_between));
    }
    let rendered = clustering::render_quality(Similarity::correlation(), &cols);
    assert!(rendered.contains("overall"));
}

#[test]
fn table2_ranks_sms_reasonably() {
    let rows = selection::table2(tiny_protocol()).unwrap();
    assert_eq!(rows.len(), 5);
    let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap().p99;
    // SMS never loses to blind random selection.
    assert!(get("SMS") <= get("RS"));
    for r in &rows {
        assert!(r.p99.is_finite() && r.p99 >= 0.0);
    }
    assert!(selection::render_table2(&rows).contains("SMS"));
}

#[test]
fn fig9_is_weakly_decreasing_overall() {
    let points = selection::fig9(tiny_protocol(), 4).unwrap();
    // The sweep may stop early when a cluster is small, but never
    // exceeds the request and always yields at least one point.
    assert!(!points.is_empty() && points.len() <= 4);
    // The endpoints must improve (or tie) even if single steps wobble.
    assert!(points.last().unwrap().1 <= points[0].1 + 1e-9);
    assert!(selection::render_fig9(&points).contains("sensors per cluster"));
}

#[test]
fn fig10_and_fig11_cover_requested_ks() {
    let p = tiny_protocol();
    let f10 = selection::fig10(p, &[2, 3]).unwrap();
    assert_eq!(f10.len(), 2);
    for row in &f10 {
        assert!(row.sms.is_finite() && row.srs.is_finite() && row.rs.is_finite());
    }
    let f11 = selection::fig11(p, &[2]).unwrap();
    assert_eq!(f11.len(), 1);
    assert!(f11[0].sms > 0.0);
    let rendered = selection::render_k_comparison("title:", &f11);
    assert!(rendered.contains("title:"));
}
