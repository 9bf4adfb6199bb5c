//! Property-based tests for model identification.

// Test fixtures: panicking on a broken fixture is the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use proptest::prelude::*;
use thermal_linalg::{LinalgError, Matrix};
use thermal_sysid::regressors::assemble;
use thermal_sysid::{
    evaluate, identify, identify_from_data, identify_with_cache, EvalConfig, FitConfig, GramCache,
    ModelOrder, ModelSpec, SysidError, ThermalModel,
};
use thermal_timeseries::{Channel, Dataset, Mask, TimeGrid, Timestamp};

/// Builds a dataset generated by a known stable 2-output first-order
/// system with the provided input sequence.
fn first_order_dataset(a: [[f64; 2]; 2], b: [f64; 2], u: &[f64]) -> Dataset {
    let n = u.len();
    let mut t0 = vec![20.0_f64];
    let mut t1 = vec![21.0_f64];
    for k in 0..n - 1 {
        t0.push(a[0][0] * t0[k] + a[0][1] * t1[k] + b[0] * u[k]);
        t1.push(a[1][0] * t0[k] + a[1][1] * t1[k] + b[1] * u[k]);
    }
    let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
    Dataset::new(
        grid,
        vec![
            Channel::from_values("t0", t0).unwrap(),
            Channel::from_values("t1", t1).unwrap(),
            Channel::from_values("u", u.to_vec()).unwrap(),
        ],
    )
    .unwrap()
}

/// Strategy: a stable, well-conditioned system matrix plus an
/// exciting input sequence.
fn system_strategy() -> impl Strategy<Value = ([[f64; 2]; 2], [f64; 2], Vec<f64>)> {
    (
        0.3_f64..0.9,
        -0.2_f64..0.2,
        -0.2_f64..0.2,
        0.3_f64..0.9,
        -2.0_f64..2.0,
        -2.0_f64..2.0,
        prop::collection::vec(-1.0_f64..1.0, 80..160),
    )
        .prop_map(|(a00, a01, a10, a11, b0, b1, u)| ([[a00, a01], [a10, a11]], [b0, b1], u))
}

fn spec(order: ModelOrder) -> ModelSpec {
    ModelSpec::new(vec!["t0".into(), "t1".into()], vec!["u".into()], order).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identification on noise-free first-order data recovers the
    /// generator (sysid consistency).
    #[test]
    fn first_order_identification_is_consistent((a, b, u) in system_strategy()) {
        let ds = first_order_dataset(a, b, &u);
        let Ok(model) = identify(&ds, &spec(ModelOrder::First), &Mask::all(ds.grid()), &FitConfig::plain()) else {
            // A degenerate input draw can be rank-deficient; skip.
            return Ok(());
        };
        let c = model.coefficients();
        for r in 0..2 {
            prop_assert!((c[(r, 0)] - a[r][0]).abs() < 1e-5, "A[{r}][0]");
            prop_assert!((c[(r, 1)] - a[r][1]).abs() < 1e-5, "A[{r}][1]");
            prop_assert!((c[(r, 2)] - b[r]).abs() < 1e-5, "B[{r}]");
        }
    }

    /// A second-order fit of first-order data predicts exactly as well
    /// as the first-order fit (its extra regressors are redundant, so
    /// coefficients are not unique, but predictions must coincide).
    #[test]
    fn second_order_fit_adds_no_phantom_dynamics((a, b, u) in system_strategy()) {
        let ds = first_order_dataset(a, b, &u);
        let mask = Mask::all(ds.grid());
        let Ok(second) = identify(&ds, &spec(ModelOrder::Second), &mask, &FitConfig::with_ridge(1e-9)) else {
            return Ok(());
        };
        let cfg = EvalConfig::with_horizon(20);
        let err = evaluate(&second, &ds, &mask, &cfg).unwrap().overall_rms();
        prop_assert!(
            err < 1e-5,
            "second-order fit of noise-free first-order data mispredicts: {err}"
        );
    }

    /// The evaluation of the true model is (numerically) zero, and any
    /// perturbed model is no better.
    #[test]
    fn true_model_is_unbeatable((a, b, u) in system_strategy(), bump in 0.01_f64..0.3) {
        let ds = first_order_dataset(a, b, &u);
        let s = spec(ModelOrder::First);
        let truth = ThermalModel::new(
            s.clone(),
            Matrix::from_rows(&[
                &[a[0][0], a[0][1], b[0]][..],
                &[a[1][0], a[1][1], b[1]][..],
            ]).unwrap(),
        ).unwrap();
        let mut perturbed_coef = truth.coefficients().clone();
        perturbed_coef[(0, 0)] += bump;
        let perturbed = ThermalModel::new(s, perturbed_coef).unwrap();

        let cfg = EvalConfig::with_horizon(20);
        let mask = Mask::all(ds.grid());
        let true_err = evaluate(&truth, &ds, &mask, &cfg).unwrap().overall_rms();
        let pert_err = evaluate(&perturbed, &ds, &mask, &cfg).unwrap().overall_rms();
        prop_assert!(true_err < 1e-8, "true model error {true_err}");
        prop_assert!(pert_err >= true_err);
    }

    /// Masking out data never invents transitions: restricting the
    /// mask can only reduce the number of evaluated predictions.
    #[test]
    fn masking_reduces_prediction_count(
        (a, b, u) in system_strategy(),
        keep in 10usize..60,
    ) {
        let ds = first_order_dataset(a, b, &u);
        let s = spec(ModelOrder::First);
        let Ok(model) = identify(&ds, &s, &Mask::all(ds.grid()), &FitConfig::default()) else {
            return Ok(());
        };
        let cfg = EvalConfig::default();
        let full = evaluate(&model, &ds, &Mask::all(ds.grid()), &cfg).unwrap();
        let mut partial_mask = Mask::none(ds.grid());
        for i in 0..keep.min(ds.grid().len()) {
            partial_mask.set(i, true).unwrap();
        }
        if let Ok(partial) = evaluate(&model, &ds, &partial_mask, &cfg) {
            prop_assert!(partial.prediction_count() <= full.prediction_count());
        }
    }

    /// Simulation length always equals the input length, and outputs
    /// stay finite for stable systems.
    #[test]
    fn simulation_shape_and_finiteness((a, b, u) in system_strategy()) {
        let s = spec(ModelOrder::First);
        let model = ThermalModel::new(
            s,
            Matrix::from_rows(&[
                &[a[0][0], a[0][1], b[0]][..],
                &[a[1][0], a[1][1], b[1]][..],
            ]).unwrap(),
        ).unwrap();
        let init = Matrix::from_rows(&[&[20.0, 21.0][..]]).unwrap();
        let inputs = Matrix::from_fn(u.len(), 1, |r, _| u[r]);
        let traj = model.simulate(&init, &inputs).unwrap();
        prop_assert_eq!(traj.rows(), u.len());
        prop_assert!(traj.is_finite());
    }
}

// Recursive/batch agreement under forgetting: after T rows at
// forgetting factor λ the RLS estimator holds
//   P = λ^T ρ I + Σ_k λ^(T−1−k) x_k x_kᵀ,   B = Σ_k λ^(T−1−k) x_k y_kᵀ,
// the normal equations of a batch ridge fit on rows scaled by
// λ^((T−1−k)/2) with ridge λ^T ρ. Solving after ingesting every
// transition must land on that weighted batch solution (at λ = 1, the
// plain batch ridge). The targets carry drawn noise so that the
// weighting changes the answer: over these 96 draws the agreement is
// within 1.1e-13 (relative), while the unweighted fit sits at least
// 5e-5 away at λ = 0.999 and 5e-4 away at λ ≤ 0.99, so the 1e-9 gate
// tells the two apart.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rls_matches_weighted_batch(
        (a, b, u) in system_strategy(),
        forgetting in (0usize..5).prop_map(|i| [1.0, 0.999, 0.99, 0.97, 0.95][i]),
        noise in prop::collection::vec(-0.05_f64..0.05, 2 * 160),
    ) {
        use thermal_sysid::regressors::assemble;
        use thermal_sysid::{RlsConfig, RlsEstimator};

        let ds = first_order_dataset(a, b, &u);
        let spec = spec(ModelOrder::First);
        let mask = Mask::all(ds.grid());
        let mut data = assemble(&ds, &spec, &mask).unwrap();
        let rows = data.x.rows();
        for k in 0..rows {
            for j in 0..data.y.cols() {
                data.y[(k, j)] += noise[2 * k + j];
            }
        }
        let ridge = 1e-6;

        let mut est = RlsEstimator::new(spec.clone(), RlsConfig { forgetting, ridge }).unwrap();
        for k in 0..rows {
            est.ingest(data.x.row(k), data.y.row(k)).unwrap();
        }
        let recursive = est.solve().unwrap();

        let mut weighted = data.clone();
        for k in 0..rows {
            let w = forgetting.powf((rows - 1 - k) as f64 / 2.0);
            for c in 0..weighted.x.cols() {
                weighted.x[(k, c)] *= w;
            }
            for j in 0..weighted.y.cols() {
                weighted.y[(k, j)] *= w;
            }
        }
        let weighted_ridge = forgetting.powf(rows as f64) * ridge;
        let batch =
            identify_from_data(&spec, &weighted, &FitConfig::with_ridge(weighted_ridge)).unwrap();

        let bc = batch.coefficients();
        let rc = recursive.coefficients();
        let scale = bc.norm_max().max(1.0);
        for r in 0..bc.rows() {
            for c in 0..bc.cols() {
                prop_assert!(
                    (bc[(r, c)] - rc[(r, c)]).abs() < 1e-9 * scale,
                    "λ = {forgetting}, coef ({r},{c}): batch {} vs rls {}",
                    bc[(r, c)],
                    rc[(r, c)],
                );
            }
        }
    }
}

// Crash-safe estimator state: for any ingested history (any forgetting
// factor, any finite regressor rows), capturing the factored state,
// restoring it onto a fresh estimator with the same spec/config, and
// re-capturing must be byte-identical — and the restored estimator
// must solve to the same coefficients (see DESIGN.md
// § restore-equivalence).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rls_snapshot_roundtrip_is_byte_identical(
        (forgetting, rows) in (
            0.9f64..1.0,
            prop::collection::vec(
                (
                    (-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0),
                    (-2.0f64..2.0, -2.0f64..2.0),
                ),
                0..40,
            ),
        ),
    ) {
        use thermal_ckpt::snapshot::{restore_from, snapshot_bytes};
        use thermal_sysid::{RlsConfig, RlsEstimator};

        let spec = spec(ModelOrder::First);
        let config = RlsConfig {
            forgetting,
            ridge: 1e-4,
        };
        let mut driven = RlsEstimator::new(spec.clone(), config).unwrap();
        for ((x0, x1, x2), (y0, y1)) in rows {
            driven.ingest(&[x0, x1, x2], &[y0, y1]).unwrap();
        }
        let bytes = snapshot_bytes(&driven);
        let mut fresh = RlsEstimator::new(spec, config).unwrap();
        restore_from(&mut fresh, &bytes).unwrap();
        prop_assert_eq!(&bytes, &snapshot_bytes(&fresh));
        prop_assert_eq!(fresh.observations(), driven.observations());
        if driven.is_warmed_up() {
            let a = driven.solve().unwrap();
            let b = fresh.solve().unwrap();
            let ac = a.coefficients();
            let bc = b.coefficients();
            for r in 0..ac.rows() {
                for c in 0..ac.cols() {
                    prop_assert!(
                        ac[(r, c)].to_bits() == bc[(r, c)].to_bits(),
                        "coef ({r},{c}): driven {} vs restored {}",
                        ac[(r, c)],
                        bc[(r, c)],
                    );
                }
            }
        }
    }
}

/// A trace of `n` slots: three room temperatures driven by two inputs
/// (a stable first-order system plus a deterministic wiggle), every
/// channel with its own gaps: `bursts` runs of 1–12 missing slots each,
/// placed by `seed`.
fn gappy_dataset(n: usize, bursts: usize, seed: u64) -> Dataset {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let u: Vec<[f64; 2]> = (0..n)
        .map(|k| [(k as f64 * 0.31).sin(), rng.gen_range(-1.0..1.0)])
        .collect();
    let mut t = vec![[20.0, 21.0, 19.5]];
    for k in 0..n - 1 {
        let [a, b, c] = t[k];
        let [u0, u1] = u[k];
        let wiggle = 0.01 * (k % 13) as f64;
        t.push([
            0.8 * a + 0.1 * b + 0.5 * u0 + 2.0,
            0.1 * a + 0.7 * b + 0.1 * c - 0.3 * u1 + 2.1 + wiggle,
            0.05 * b + 0.9 * c + 0.2 * u0 + 0.2 * u1 + 1.0,
        ]);
    }
    let mut channels = Vec::new();
    for (column, name) in ["t0", "t1", "t2", "u0", "u1"].into_iter().enumerate() {
        let mut values: Vec<Option<f64>> = (0..n)
            .map(|k| {
                Some(if column < 3 {
                    t[k][column]
                } else {
                    u[k][column - 3]
                })
            })
            .collect();
        for _ in 0..bursts {
            let start = rng.gen_range(0..n);
            let len = rng.gen_range(1..13);
            for v in values.iter_mut().skip(start).take(len) {
                *v = None;
            }
        }
        channels.push(Channel::new(name, values).unwrap());
    }
    let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
    Dataset::new(grid, channels).unwrap()
}

fn three_room_spec(order: ModelOrder) -> ModelSpec {
    let outputs = vec!["t0".into(), "t1".into(), "t2".into()];
    ModelSpec::new(outputs, vec!["u0".into(), "u1".into()], order).unwrap()
}

/// The stacked route: every transition in one `(X, Y)`, then the solve.
fn stacked(
    ds: &Dataset,
    spec: &ModelSpec,
    mask: &Mask,
    config: &FitConfig,
) -> Result<ThermalModel, SysidError> {
    identify_from_data(spec, &assemble(ds, spec, mask)?, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `identify` with a ridge streams its rows through 128-row panels
    /// and never stacks them, yet its coefficients equal
    /// `identify_from_data` on `assemble`'s stacked rows bit for bit,
    /// and so do `identify_with_cache`'s over a fresh default cache, the
    /// same cache warm and a disabled cache: gappy channels and masks
    /// (segments from a few rows to several panels), both orders, ridge
    /// 1e-9, 1e-6 and 1. Where one route fails, every route fails alike.
    #[test]
    fn streamed_ridge_fit_equals_the_stacked_fit(
        n in 30usize..900,
        bursts in 0usize..8,
        holes in prop::collection::vec((0usize..900, 1usize..40), 0..4),
        second in any::<bool>(),
        ridge in 0usize..3,
        seed in any::<u64>(),
    ) {
        let ds = gappy_dataset(n, bursts, seed);
        let mut bits = vec![true; n];
        for (start, len) in holes {
            for b in bits.iter_mut().skip(start % n).take(len) {
                *b = false;
            }
        }
        let mask = Mask::from_bits(bits);
        let order = if second { ModelOrder::Second } else { ModelOrder::First };
        let spec = three_room_spec(order);
        let config = FitConfig::with_ridge([1e-9, 1e-6, 1.0][ridge]);
        let want = stacked(&ds, &spec, &mask, &config);
        let mut cache = GramCache::new();
        let routes = [
            identify(&ds, &spec, &mask, &config),
            identify_with_cache(&ds, &spec, &mask, &config, &mut cache),
            identify_with_cache(&ds, &spec, &mask, &config, &mut cache),
            identify_with_cache(&ds, &spec, &mask, &config, &mut GramCache::disabled()),
        ];
        let bits = |m: &ThermalModel| -> Vec<u64> {
            m.coefficients().as_slice().iter().map(|v| v.to_bits()).collect()
        };
        for got in routes {
            match (got, &want) {
                (Ok(got), Ok(want)) => prop_assert_eq!(bits(&got), bits(want)),
                (got, want) => prop_assert_eq!(got.err(), want.clone().err()),
            }
        }
        if want.is_ok() {
            let stats = cache.stats();
            prop_assert!(stats.hits > 0 && stats.hits == stats.misses, "{:?}", stats);
        }
    }
}

/// The streamed ridge fit reports its failures in the stacked route's
/// order: an unknown channel before too few transitions, before an
/// invalid ridge, before a non-finite regressor (a second-order
/// increment `T(k) − T(k−1)` that overflows).
#[test]
fn streamed_ridge_fit_keeps_the_error_order() {
    let n = 60;
    let huge: Vec<f64> = (0..n)
        .map(|k| if k % 2 == 0 { 1.5e308 } else { -1.5e308 })
        .collect();
    let ds = Dataset::new(
        TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap(),
        vec![
            Channel::from_values("t", huge).unwrap(),
            Channel::from_values("u", (0..n).map(|k| (k as f64).sin()).collect()).unwrap(),
        ],
    )
    .unwrap();
    let spec = ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::Second).unwrap();
    let unknown =
        ModelSpec::new(vec!["t".into()], vec!["nope".into()], ModelOrder::Second).unwrap();
    let all = Mask::all(ds.grid());
    let mut few = Mask::none(ds.grid());
    for i in 0..3 {
        few.set(i, true).unwrap();
    }
    let (bad, good) = (FitConfig::with_ridge(-1.0), FitConfig::with_ridge(1e-6));
    let cases = [
        (&unknown, &few, &bad, "InvalidSpec"),
        (&spec, &few, &bad, "InsufficientData"),
        (&spec, &all, &bad, "InvalidData"),
        (&spec, &all, &good, "NonFinite"),
    ];
    for (spec, mask, config, want) in cases {
        let got = identify(&ds, spec, mask, config).unwrap_err();
        let kind = match &got {
            SysidError::InvalidSpec { .. } => "InvalidSpec",
            SysidError::InsufficientData { .. } => "InsufficientData",
            SysidError::Linalg(LinalgError::InvalidData { .. }) => "InvalidData",
            SysidError::Linalg(LinalgError::NonFinite { .. }) => "NonFinite",
            other => panic!("unexpected error {other:?}"),
        };
        assert_eq!(kind, want, "{got:?}");
        assert_eq!(Some(got), stacked(&ds, spec, mask, config).err());
    }
}

/// `identify_with_cache` reports its failures in `identify`'s order
/// (pinned to the stacked route's above) over a default and a disabled
/// cache: an unknown channel, too few transitions, an invalid ridge, a
/// non-finite regressor.
#[test]
fn cached_ridge_fit_keeps_the_error_order() {
    let n = 60;
    let huge = (0..n).map(|k| if k % 2 == 0 { 1.5e308 } else { -1.5e308 });
    let ds = Dataset::new(
        TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap(),
        vec![
            Channel::from_values("t", huge.collect()).unwrap(),
            Channel::from_values("u", (0..n).map(|k| (k as f64).sin()).collect()).unwrap(),
        ],
    )
    .unwrap();
    let spec = ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::Second).unwrap();
    let unknown =
        ModelSpec::new(vec!["t".into()], vec!["nope".into()], ModelOrder::Second).unwrap();
    let all = Mask::all(ds.grid());
    let few = Mask::from_bits((0..n).map(|k| k < 3).collect());
    let (bad, good) = (FitConfig::with_ridge(-1.0), FitConfig::with_ridge(1e-6));
    let cases = [
        (&unknown, &few, &bad),
        (&spec, &few, &bad),
        (&spec, &all, &bad),
        (&spec, &all, &good),
    ];
    let mut seen = Vec::new();
    for (spec, mask, config) in cases {
        let want = identify(&ds, spec, mask, config).unwrap_err();
        for mut cache in [GramCache::new(), GramCache::disabled()] {
            let got = identify_with_cache(&ds, spec, mask, config, &mut cache).unwrap_err();
            assert_eq!(got, want);
        }
        seen.push(want);
    }
    seen.dedup();
    assert_eq!(seen.len(), 4, "{seen:?}");
}
