//! `paper-fit`: one operation fits a reduced model of the paper's
//! 27-sensor auditorium and validates it on the cluster means; the
//! fits cycle through the SMS, SRS, RS, GP and thermostat selectors,
//! eigengap and fixed cluster counts, and several pipeline seeds. A
//! Fig. 5 training-horizon sweep over one reused Gram cache follows
//! every [`SWEEP_EVERY`] fits. The campaign is simulated in set-up.
//!
//! Why: the batch-identification kernels (correlation weights, Jacobi
//! eigen, k-means, GP selection, Gram/Cholesky) do nearly all the work
//! here; simulation is set-up only and the stream layers are idle.
//!
//! The traced run splits `ThermalPipeline::fit` into its stages, calls
//! each stage's crate directly, and checks that the staged result
//! equals the pipeline's bit for bit.

use std::time::Instant;

use thermal_bench::protocol::{occupied_horizon, steps_per_hour, Protocol};
use thermal_cluster::{
    eigengap_cluster_count, kmeans, laplacian, trajectory_matrix, weight_matrix, ClusterCount,
    Clustering, Similarity,
};
use thermal_core::{ModelOrder, ReducedModel, SelectorKind, ThermalPipeline};
use thermal_linalg::SymmetricEigen;
use thermal_select::{
    rank_backups, FixedSelector, GpSelector, NearMeanSelector, RandomSelector, SelectionInput,
    Selector, StratifiedRandomSelector,
};
use thermal_sysid::regressors::assemble;
use thermal_sysid::sweep::sweep_training_horizon_with_cache;
use thermal_sysid::{identify_from_data, CacheStats, EvalConfig, FitConfig, GramCache, ModelSpec};

use crate::onboard::{Ctx, Res};
use crate::report::{Args, Report};
use crate::stats::{percentile, Best};
use crate::trace::{TraceAgg, Tracer};

/// Campaign length, days.
const CAMPAIGN_DAYS: usize = 30;
/// Training horizons of the Fig. 5 sweep, days: the paper's 13/27/34/
/// 44/58 preceded by shorter ones, cut to the training half.
const SWEEP_DAYS: [usize; 7] = [5, 9, 13, 27, 34, 44, 58];
/// Pipeline seeds per (selector, cluster count) pair: 5 × 3 × 8 = 120
/// fits a round, enough for the 90th percentile to have ten beyond it.
const SEEDS: u64 = 8;
/// Fits between two Fig. 5 sweeps.
const SWEEP_EVERY: usize = 15;
/// k-means restarts (the pipeline's default).
const RESTARTS: usize = 8;

/// Selection strategies of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sms,
    Rs,
    Srs,
    Gp,
    Thermostats,
}

impl Kind {
    const ALL: [Kind; 5] = [Kind::Sms, Kind::Rs, Kind::Srs, Kind::Gp, Kind::Thermostats];

    fn span(self) -> &'static str {
        match self {
            Kind::Sms => "select.sms",
            Kind::Rs => "select.rs",
            Kind::Srs => "select.srs",
            Kind::Gp => "select.gp",
            Kind::Thermostats => "select.fixed",
        }
    }
}

/// One fit configuration of the cycle.
#[derive(Debug, Clone)]
struct Config {
    kind: Kind,
    count: ClusterCount,
    seed: u64,
}

/// The simulated campaign and everything derived from it once.
struct Fixture {
    protocol: Protocol,
    temps: Vec<String>,
    inputs: Vec<String>,
    thermostats: Vec<String>,
    horizon: usize,
    sweep_counts: Vec<usize>,
    sweep_horizon: usize,
    configs: Vec<Config>,
}

impl Fixture {
    fn new(seed: u64) -> Res<Self> {
        let mut scenario = thermal_sim::Scenario::paper()
            .with_days(CAMPAIGN_DAYS)
            .with_seed(seed);
        // Without day-long outages every seed yields the same number of
        // usable days, so the work per fit does not depend on the seed.
        scenario.sensors.outage_day_prob = 0.0;
        scenario.min_usable_days = CAMPAIGN_DAYS;
        let protocol = Protocol::new(&scenario).ctx("protocol")?;
        let temps = protocol.temperature_channels();
        let wireless = protocol.wireless_channels();
        let thermostats = temps
            .iter()
            .filter(|t| !wireless.contains(t))
            .cloned()
            .collect();
        let max_train = protocol.split.train.len();
        let sweep_counts: Vec<usize> = SWEEP_DAYS.into_iter().filter(|&c| c <= max_train).collect();
        let sph = steps_per_hour(&protocol.output);
        let mut configs = Vec::new();
        // SMS and RS of one (count, seed) run back to back, so even a
        // short run can compare them.
        for s in 0..SEEDS {
            for count in [
                ClusterCount::Eigengap { max: 8 },
                ClusterCount::Fixed(2),
                ClusterCount::Fixed(3),
            ] {
                for kind in Kind::ALL {
                    configs.push(Config {
                        kind,
                        count,
                        seed: thermal_par::derive_seed(seed, s),
                    });
                }
            }
        }
        Ok(Fixture {
            horizon: occupied_horizon(&protocol.output),
            sweep_horizon: thermal_linalg::cast::floor_to_index(13.5 * sph as f64, usize::MAX - 1),
            inputs: protocol.input_channels(),
            protocol,
            temps,
            thermostats,
            sweep_counts: if sweep_counts.is_empty() {
                vec![max_train.saturating_sub(1).max(1)]
            } else {
                sweep_counts
            },
            configs,
        })
    }

    fn selector_kind(&self, kind: Kind) -> SelectorKind {
        match kind {
            Kind::Sms => SelectorKind::NearMean,
            Kind::Rs => SelectorKind::Random,
            Kind::Srs => SelectorKind::StratifiedRandom,
            Kind::Gp => SelectorKind::GpMutualInformation,
            Kind::Thermostats => SelectorKind::Fixed(self.thermostats.clone()),
        }
    }

    /// The operation as users call it: `ThermalPipeline::fit`.
    fn fit(&self, cfg: &Config) -> Res<ReducedModel> {
        let p = &self.protocol;
        let temps: Vec<&str> = self.temps.iter().map(String::as_str).collect();
        let inputs: Vec<&str> = self.inputs.iter().map(String::as_str).collect();
        ThermalPipeline::builder()
            .similarity(Similarity::correlation())
            .cluster_count(cfg.count)
            .selector(self.selector_kind(cfg.kind))
            .model_order(ModelOrder::Second)
            .seed(cfg.seed)
            .restarts(RESTARTS)
            .build()
            .ctx("pipeline")?
            .fit(&p.output.dataset, &temps, &inputs, &p.train_occupied)
            .ctx("fit")
    }

    /// The same fit, stage by stage, each stage's crate called directly
    /// inside its own span. Adds the identify's solve flops to `flops`.
    fn staged_fit(&self, t: &mut Tracer, cfg: &Config, flops: &mut f64) -> Res<ReducedModel> {
        let p = &self.protocol;
        let dataset = &p.output.dataset;
        let temps: Vec<&str> = self.temps.iter().map(String::as_str).collect();
        let traj = t
            .call("cluster.trajectory", || {
                trajectory_matrix(dataset, &temps, &p.train_occupied)
            })
            .ctx("trajectories")?;
        let w = t
            .call("cluster.weight_matrix", || {
                weight_matrix(&traj, Similarity::correlation())
            })
            .ctx("weights")?;
        let clustering = t.span("cluster.spectral", |t| spectral(t, &w, cfg))?;
        let input = SelectionInput {
            trajectories: &traj,
            clustering: &clustering,
            per_cluster: 1,
            seed: cfg.seed,
        };
        let selector: Box<dyn Selector> = match cfg.kind {
            Kind::Sms => Box::new(NearMeanSelector),
            Kind::Rs => Box::new(RandomSelector),
            Kind::Srs => Box::new(StratifiedRandomSelector),
            Kind::Gp => Box::new(GpSelector),
            Kind::Thermostats => Box::new(FixedSelector::new(
                "fixed",
                self.thermostats
                    .iter()
                    .filter_map(|n| self.temps.iter().position(|c| c == n))
                    .collect(),
            )),
        };
        let selection = t
            .call(cfg.kind.span(), || selector.select(&input))
            .ctx("select")?;
        let selection = t
            .call("select.rank_backups", || rank_backups(&input, &selection))
            .ctx("backups")?;
        let selected: Vec<String> = selection
            .sensors()
            .into_iter()
            .map(|i| self.temps[i].clone())
            .collect();
        let spec = ModelSpec::new(selected.clone(), self.inputs.clone(), ModelOrder::Second)
            .ctx("spec")?;
        let model = t.span("sysid.identify", |t| {
            let data = assemble(dataset, &spec, &p.train_occupied).ctx("assemble")?;
            *flops += solve_flops(data.x.rows(), data.x.cols(), data.y.cols());
            t.call("linalg.solve", || {
                identify_from_data(&spec, &data, &FitConfig::default())
            })
            .ctx("identify")
        })?;
        Ok(ReducedModel::new(
            self.temps.clone(),
            clustering,
            selection,
            selected,
            model,
        ))
    }

    /// Cluster-mean error (99th percentile, °C) over the validation half.
    fn evaluate(&self, model: &ReducedModel) -> Res<f64> {
        let p = &self.protocol;
        model
            .evaluate_cluster_means(&p.output.dataset, &p.val_occupied, self.horizon)
            .ctx("evaluate")?
            .percentile(99.0)
            .ctx("percentile")
    }

    /// One Fig. 5 training-horizon sweep; returns the worst 90th-pct RMS.
    fn sweep(&self, order: ModelOrder, cache: &mut GramCache) -> Res<f64> {
        let p = &self.protocol;
        let spec = ModelSpec::new(self.temps.clone(), self.inputs.clone(), order).ctx("spec")?;
        let points = sweep_training_horizon_with_cache(
            &p.output.dataset,
            &spec,
            &p.occupied,
            &p.split.train,
            &self.sweep_counts,
            &p.split.validation,
            &FitConfig::default(),
            &EvalConfig::with_horizon(self.sweep_horizon),
            cache,
        )
        .ctx("sweep")?;
        if points.len() != self.sweep_counts.len() {
            return Err(format!(
                "sweep returned {} points for {} horizons",
                points.len(),
                self.sweep_counts.len()
            ));
        }
        let mut worst: f64 = 0.0;
        for point in &points {
            worst = worst.max(point.report.rms_percentile(90.0).ctx("sweep rms")?);
        }
        Ok(worst)
    }
}

/// The spectral stage of `cluster_trajectories`: Laplacian, eigen
/// decomposition (linalg), cluster count, k-means, dense relabelling.
fn spectral(t: &mut Tracer, w: &thermal_linalg::Matrix, cfg: &Config) -> Res<Clustering> {
    let n = w.rows();
    let l = laplacian(w).ctx("laplacian")?;
    let eig = t
        .call("linalg.eigen", || SymmetricEigen::new_symmetrized(&l))
        .ctx("eigen")?;
    let eigenvalues = eig.eigenvalues().to_vec();
    let k = match cfg.count {
        ClusterCount::Fixed(k) if k == 0 || k > n => {
            return Err(format!("cannot form {k} clusters of {n} sensors"))
        }
        ClusterCount::Fixed(k) => k,
        ClusterCount::Eigengap { max } => {
            eigengap_cluster_count(&eigenvalues, max.min(n - 1)).ctx("eigengap")?
        }
    };
    let assignments = if k == 1 {
        vec![0; n]
    } else {
        let embedding = eig.embedding(k).ctx("embedding")?;
        kmeans(&embedding, k, RESTARTS, cfg.seed)
            .ctx("kmeans")?
            .assignments
    };
    let mut relabel: Vec<Option<usize>> = vec![None; k];
    let mut next = 0;
    let mut dense = Vec::with_capacity(n);
    for &a in &assignments {
        let label = *relabel[a].get_or_insert_with(|| {
            next += 1;
            next - 1
        });
        dense.push(label);
    }
    Ok(Clustering::from_assignments(dense, next)
        .ctx("clustering")?
        .with_eigenvalues(eigenvalues))
}

/// Flops of the ridge least-squares solve on an `m × n` regressor with
/// `p` outputs (computed from the shapes, not counted): symmetric Gram
/// `m·n·(n+1)`, cross products `2·m·n·p`, Cholesky `n³/3`, and the two
/// triangular solves `2·n²·p`.
fn solve_flops(m: usize, n: usize, p: usize) -> f64 {
    let (m, n, p) = (m as f64, n as f64, p as f64);
    m * n * (n + 1.0) + 2.0 * m * n * p + n * n * n / 3.0 + 2.0 * n * n * p
}

/// What one fit produced, compared across repeats.
#[derive(Debug, Clone, PartialEq)]
struct Fitted {
    model: ReducedModel,
    error: f64,
}

/// Checks one fit: cluster count as configured, a finite error.
fn check_fit(cfg: &Config, out: &Res<Fitted>) -> Res<()> {
    let fitted = out.as_ref().map_err(Clone::clone)?;
    let k = fitted.model.clustering().k();
    let count_ok = match cfg.count {
        ClusterCount::Fixed(want) => k == want,
        ClusterCount::Eigengap { max } => (1..=max).contains(&k),
    };
    if !count_ok {
        return Err(format!("{:?}: fitted {k} clusters", cfg.count));
    }
    if !(fitted.error.is_finite() && fitted.error >= 0.0) {
        return Err(format!("cluster-mean error {} is not finite", fitted.error));
    }
    Ok(())
}

/// The paper's selection claim: averaged over the cluster counts and
/// seeds that both ran, SMS's cluster-mean error is at most RS's.
fn sms_beats_rs(report: &mut Report, fx: &Fixture, first: &[Option<Fitted>]) {
    let (mut sms, mut rs, mut pairs) = (0.0, 0.0, 0);
    for (i, cfg) in fx.configs.iter().enumerate() {
        if cfg.kind != Kind::Sms {
            continue;
        }
        let partner = fx
            .configs
            .iter()
            .position(|c| c.kind == Kind::Rs && c.count == cfg.count && c.seed == cfg.seed);
        if let (Some(Some(a)), Some(Some(Some(b)))) = (first.get(i), partner.map(|j| first.get(j)))
        {
            sms += a.error;
            rs += b.error;
            pairs += 1;
        }
    }
    report.check(
        "sms_le_rs",
        pairs > 0 && sms <= rs,
        format!(
            "mean p99 cluster-mean error SMS {:.4} vs RS {:.4} over {pairs} (count, seed) pairs",
            sms / f64::from(pairs.max(1)),
            rs / f64::from(pairs.max(1))
        ),
    );
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Res<()> {
    let fx = report.setup(|| Fixture::new(args.seed))?;
    if args.trace {
        return traced(&fx, report);
    }
    let n = fx.configs.len();
    let sweeps = n / SWEEP_EVERY;
    let mut ops = Best::new(n);
    let mut sweep_best = Best::new(sweeps);
    // Fits and sweeps are the windows one round is timed in.
    let mut windows = Best::new(n + sweeps);
    let mut cache = GramCache::new();
    let mut first: Vec<Option<Fitted>> = vec![None; n];
    let mut first_sweep: Vec<Option<f64>> = vec![None; sweeps];
    let mut wall = 0_u64;
    while (wall as f64) < args.seconds * 1e9 || ops.rounds() < 2 {
        for (i, cfg) in fx.configs.iter().enumerate() {
            let start = Instant::now();
            let out = fx.fit(cfg).and_then(|model| {
                let error = fx.evaluate(&model)?;
                Ok(Fitted { model, error })
            });
            let ns = elapsed_ns(start);
            wall += ns;
            ops.record(i, ns);
            windows.record(i, ns);
            report.attempted += 1;
            match check_fit(cfg, &out) {
                Err(e) => report.fail(format!("fit {i}: {e}")),
                Ok(()) => repeat(report, &mut first[i], out.ok(), "fit"),
            }
            if (i + 1) % SWEEP_EVERY == 0 {
                let k = i / SWEEP_EVERY;
                let start = Instant::now();
                let result = fx.sweep(sweep_order(k), &mut cache);
                let ns = elapsed_ns(start);
                wall += ns;
                sweep_best.record(k, ns);
                windows.record(n + k, ns);
                report.attempted += 1;
                match result {
                    Ok(v) if v.is_finite() => repeat(report, &mut first_sweep[k], Some(v), "sweep"),
                    Ok(v) => report.fail(format!("sweep {k}: RMS {v}")),
                    Err(e) => report.fail(format!("sweep {k}: {e}")),
                }
            }
        }
        ops.end_round();
        sweep_best.end_round();
        windows.end_round();
    }
    report.best_of(&ops, &windows);
    let mut sweep_times = sweep_best.times();
    report.set_n(
        "sweep_ms_p50",
        percentile(&mut sweep_times, 50.0) as f64 / 1e6,
        sweep_times.len() as u64,
    );
    sms_beats_rs(report, &fx, &first);
    Ok(())
}

/// Order of the `k`-th sweep of a round: first and second alternate.
fn sweep_order(k: usize) -> ModelOrder {
    if k.is_multiple_of(2) {
        ModelOrder::First
    } else {
        ModelOrder::Second
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Keeps the first round's output of an item and fails a later round
/// that differs from it.
fn repeat<T: PartialEq>(report: &mut Report, first: &mut Option<T>, got: Option<T>, what: &str) {
    match first {
        None => *first = got,
        Some(seen) if got.as_ref() != Some(seen) => {
            report.fail(format!("{what} differs from its first round"));
        }
        Some(_) => {}
    }
}

/// One cycle of every configuration plus its sweeps, through the
/// pipeline (untraced) or stage by stage (traced).
struct Cycle {
    fits: Vec<Res<Fitted>>,
    op_ns: u64,
    sweeps: Vec<Res<f64>>,
    cache: CacheStats,
    flops: f64,
    agg: TraceAgg,
}

fn cycle(fx: &Fixture, traced: bool) -> Cycle {
    let mut t = Tracer::new(traced);
    let mut cache = GramCache::new();
    let (mut op_ns, mut flops) = (0_u64, 0.0);
    let (mut fits, mut sweeps) = (Vec::new(), Vec::new());
    for (i, cfg) in fx.configs.iter().enumerate() {
        let start = Instant::now();
        let out = t.span("op", |t| {
            let model = if t.enabled() {
                t.span("core.fit", |t| fx.staged_fit(t, cfg, &mut flops))?
            } else {
                fx.fit(cfg)?
            };
            let error = t.call("core.evaluate", || fx.evaluate(&model))?;
            Ok(Fitted { model, error })
        });
        op_ns += elapsed_ns(start);
        fits.push(out);
        if (i + 1) % SWEEP_EVERY == 0 {
            let order = sweep_order(i / SWEEP_EVERY);
            sweeps.push(t.span("sweep", |t| {
                t.call("sysid.sweep", || fx.sweep(order, &mut cache))
            }));
        }
    }
    Cycle {
        fits,
        op_ns,
        sweeps,
        cache: cache.stats(),
        flops,
        agg: t.agg,
    }
}

/// The traced run: one cycle through the pipeline, one stage by stage;
/// the staged fits must reproduce the pipeline's bit for bit.
fn traced(fx: &Fixture, report: &mut Report) -> Res<()> {
    let plain = cycle(fx, false);
    let staged = cycle(fx, true);
    for run in [&plain, &staged] {
        for (i, (cfg, out)) in fx.configs.iter().zip(&run.fits).enumerate() {
            report.attempted += 1;
            if let Err(e) = check_fit(cfg, out) {
                report.fail(format!("fit {i}: {e}"));
            }
        }
        for sweep in &run.sweeps {
            report.attempted += 1;
            if let Err(e) = sweep {
                report.fail(format!("sweep: {e}"));
            }
        }
    }
    report.check(
        "staged_equals_pipeline",
        plain.fits == staged.fits,
        "per-stage calls reproduce ThermalPipeline::fit and its evaluation bit for bit",
    );
    report.check(
        "sweep_repeat",
        plain.sweeps == staged.sweeps && plain.cache == staged.cache,
        "sweep results and Gram-cache counters repeat exactly",
    );
    let first: Vec<Option<Fitted>> = plain.fits.iter().map(|r| r.clone().ok()).collect();
    sms_beats_rs(report, fx, &first);

    let agg = &staged.agg;
    report.overhead(staged.op_ns, plain.op_ns);
    report.coverage(agg);
    for (metric, span) in [
        ("core.fit_ms", "core.fit"),
        ("core.evaluate_ms", "core.evaluate"),
        ("cluster.trajectory_ms", "cluster.trajectory"),
        ("cluster.weight_matrix_ms", "cluster.weight_matrix"),
        ("cluster.spectral_ms", "cluster.spectral"),
        ("select.sms_ms", "select.sms"),
        ("select.srs_ms", "select.srs"),
        ("select.rs_ms", "select.rs"),
        ("select.gp_ms", "select.gp"),
        ("select.rank_backups_ms", "select.rank_backups"),
        ("sysid.identify_ms", "sysid.identify"),
        ("sysid.sweep_ms", "sysid.sweep"),
    ] {
        report.span_ms(agg, metric, span);
    }
    report.cache(staged.cache);
    let identifies = agg.samples("linalg.solve");
    let solve_ns: u64 = identifies.iter().sum();
    report.set(
        "linalg.solve_flops",
        staged.flops / identifies.len().max(1) as f64,
    );
    report.set("linalg.gflops", staged.flops / solve_ns.max(1) as f64);
    Ok(())
}
