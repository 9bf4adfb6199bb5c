//! Determinism: identical seeds reproduce campaigns and pipeline
//! products bit-for-bit; different seeds genuinely differ.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use thermal_core::timeseries::Mask;
use thermal_core::{ClusterCount, SelectorKind, Similarity, ThermalPipeline};
use thermal_sim::{run, Scenario};

#[test]
fn same_seed_same_campaign() {
    let a = run(&Scenario::quick().with_days(5).with_seed(7)).unwrap();
    let b = run(&Scenario::quick().with_days(5).with_seed(7)).unwrap();
    assert_eq!(a.dataset, b.dataset);
    assert_eq!(a.clean_dataset().unwrap(), b.clean_dataset().unwrap());
    assert_eq!(a.outage_days, b.outage_days);
}

#[test]
fn different_seed_different_campaign() {
    let a = run(&Scenario::quick().with_days(5).with_seed(7)).unwrap();
    let b = run(&Scenario::quick().with_days(5).with_seed(8)).unwrap();
    assert_ne!(a.dataset, b.dataset);
}

#[test]
fn pipeline_is_deterministic() {
    let output = run(&Scenario::quick().with_days(10).with_seed(31)).unwrap();
    let dataset = &output.dataset;
    let occupied = Mask::daily_window(dataset.grid(), 6 * 60, 21 * 60).unwrap();
    let temps = output.temperature_channels();
    let refs: Vec<&str> = temps.iter().map(String::as_str).collect();
    let inputs = output.input_channels();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();

    let build = || {
        ThermalPipeline::builder()
            .similarity(Similarity::correlation())
            .cluster_count(ClusterCount::Fixed(2))
            .selector(SelectorKind::StratifiedRandom) // stochastic stage
            .seed(99)
            .build()
            .unwrap()
    };
    let a = build().fit(dataset, &refs, &input_refs, &occupied).unwrap();
    let b = build().fit(dataset, &refs, &input_refs, &occupied).unwrap();
    assert_eq!(a.clustering().assignments(), b.clustering().assignments());
    assert_eq!(a.selected_channels(), b.selected_channels());
    assert_eq!(a.model().coefficients(), b.model().coefficients());
}

#[test]
fn stochastic_selection_varies_with_seed() {
    let output = run(&Scenario::quick().with_days(10).with_seed(31)).unwrap();
    let dataset = &output.dataset;
    let occupied = Mask::daily_window(dataset.grid(), 6 * 60, 21 * 60).unwrap();
    let temps = output.temperature_channels();
    let refs: Vec<&str> = temps.iter().map(String::as_str).collect();
    let inputs = output.input_channels();
    let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();

    let fit_with_seed = |seed: u64| {
        ThermalPipeline::builder()
            .similarity(Similarity::correlation())
            .cluster_count(ClusterCount::Fixed(2))
            .selector(SelectorKind::StratifiedRandom)
            .seed(seed)
            .build()
            .unwrap()
            .fit(dataset, &refs, &input_refs, &occupied)
            .unwrap()
    };
    // With 25 candidate sensors the probability that five different
    // seeds all pick identical pairs is negligible.
    let baseline = fit_with_seed(1).selected_channels().to_vec();
    let any_differs = (2..=6).any(|s| fit_with_seed(s).selected_channels() != baseline);
    assert!(any_differs, "SRS never varied across seeds");
}
