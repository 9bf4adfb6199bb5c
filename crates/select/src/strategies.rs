//! The five selection strategies compared by the paper's Table II.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use thermal_linalg::{kernels, stats, CholeskyDecomposition, Matrix};

use crate::selection::{Selection, SelectionInput, Selector};
use crate::{Result, SelectError};

/// Stratified Near-Mean Selection (**SMS**): from every cluster, pick
/// the sensors whose trajectories lie closest (in RMS) to the cluster
/// mean trajectory — the paper's best performer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NearMeanSelector;

impl Selector for NearMeanSelector {
    fn name(&self) -> &'static str {
        "sms"
    }

    fn select(&self, input: &SelectionInput<'_>) -> Result<Selection> {
        input.validate()?;
        let traj = input.trajectories;
        let samples = traj.cols();
        let mut out = Vec::with_capacity(input.clustering.k());
        for members in input.clustering.clusters() {
            if members.len() < input.per_cluster {
                return Err(SelectError::InvalidRequest {
                    reason: format!(
                        "cluster of {} sensors cannot supply {} representatives",
                        members.len(),
                        input.per_cluster
                    ),
                });
            }
            // Cluster-mean trajectory.
            let mut mean = vec![0.0; samples];
            for &i in &members {
                for (m, v) in mean.iter_mut().zip(traj.row(i)) {
                    *m += v;
                }
            }
            for m in mean.iter_mut() {
                *m /= members.len() as f64;
            }
            // Distance of each member to the mean.
            let mut scored: Vec<(f64, usize)> = Vec::with_capacity(members.len());
            for &i in &members {
                let d = stats::euclidean_distance(traj.row(i), &mean)?;
                scored.push((d, i));
            }
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            out.push(
                scored[..input.per_cluster]
                    .iter()
                    .map(|&(_, i)| i)
                    .collect(),
            );
        }
        Selection::new(out)
    }
}

/// Stratified Random Selection (**SRS**): uniformly random members
/// from each cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct StratifiedRandomSelector;

impl Selector for StratifiedRandomSelector {
    fn name(&self) -> &'static str {
        "srs"
    }

    fn select(&self, input: &SelectionInput<'_>) -> Result<Selection> {
        input.validate()?;
        let mut rng = StdRng::seed_from_u64(input.seed);
        let mut out = Vec::with_capacity(input.clustering.k());
        for members in input.clustering.clusters() {
            if members.len() < input.per_cluster {
                return Err(SelectError::InvalidRequest {
                    reason: format!(
                        "cluster of {} sensors cannot supply {} representatives",
                        members.len(),
                        input.per_cluster
                    ),
                });
            }
            let mut pool = members.clone();
            pool.shuffle(&mut rng);
            pool.truncate(input.per_cluster);
            out.push(pool);
        }
        Selection::new(out)
    }
}

/// Simple Random Selection (**RS**): the clustering-blind baseline —
/// draws the same *total* number of sensors uniformly from the whole
/// network and assigns them to clusters round-robin, so several may
/// land in (and be charged against) the wrong zone.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSelector;

impl Selector for RandomSelector {
    fn name(&self) -> &'static str {
        "rs"
    }

    fn select(&self, input: &SelectionInput<'_>) -> Result<Selection> {
        input.validate()?;
        let n = input.trajectories.rows();
        let total = input.total_requested();
        if total > n {
            return Err(SelectError::InvalidRequest {
                reason: format!("cannot draw {total} distinct sensors from {n}"),
            });
        }
        let mut rng = StdRng::seed_from_u64(input.seed);
        let mut pool: Vec<usize> = (0..n).collect();
        pool.shuffle(&mut rng);
        pool.truncate(total);
        let k = input.clustering.k();
        let mut out = vec![Vec::with_capacity(input.per_cluster); k];
        for (slot, sensor) in pool.into_iter().enumerate() {
            out[slot % k].push(sensor);
        }
        Selection::new(out)
    }
}

/// Fixed-sensor baseline: a predetermined set of sensors (the paper
/// uses the two HVAC **thermostats**), assigned one per cluster in
/// the most favourable way (each cluster gets the fixed sensor whose
/// trajectory correlates best with the cluster mean).
#[derive(Debug, Clone)]
pub struct FixedSelector {
    /// Short name reported in comparison tables.
    name: &'static str,
    /// Sensor indices to use.
    sensors: Vec<usize>,
}

impl FixedSelector {
    /// Creates a fixed selector.
    pub fn new(name: &'static str, sensors: Vec<usize>) -> Self {
        FixedSelector { name, sensors }
    }

    /// The thermostat baseline of the paper, given the thermostat
    /// indices within the clustered sensor list.
    pub fn thermostats(indices: Vec<usize>) -> Self {
        FixedSelector::new("thermostats", indices)
    }
}

impl Selector for FixedSelector {
    fn name(&self) -> &'static str {
        self.name
    }

    fn select(&self, input: &SelectionInput<'_>) -> Result<Selection> {
        input.validate()?;
        let n = input.trajectories.rows();
        if self.sensors.is_empty() {
            return Err(SelectError::InvalidRequest {
                reason: "fixed selector has no sensors".to_owned(),
            });
        }
        for &s in &self.sensors {
            if s >= n {
                return Err(SelectError::InvalidRequest {
                    reason: format!("fixed sensor {s} out of range ({n} sensors)"),
                });
            }
        }
        assign_to_clusters(input, &self.sensors)
    }
}

/// Gaussian-process mutual-information placement (**GP**), after
/// Krause, Singh & Guestrin (JMLR 2008): greedily picks the sensors
/// that maximise the mutual information between selected and
/// unselected locations under the empirical covariance — then assigns
/// them to clusters like the other cluster-blind baselines.
///
/// The covariance comes straight from the centred trajectory rows
/// ([`stats::row_covariance_matrix`], no transpose). Each greedy step
/// scores every remaining candidate by two conditional variances, each
/// one Cholesky factorisation of a covariance block; all of them are
/// refilled into one reused factor and solved into reused buffers, so
/// a selection allocates nothing per candidate.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpSelector;

impl Selector for GpSelector {
    fn name(&self) -> &'static str {
        "gp"
    }

    fn select(&self, input: &SelectionInput<'_>) -> Result<Selection> {
        input.validate()?;
        let chosen = greedy_mutual_information(input, input.total_requested())?;
        assign_to_clusters(input, &chosen)
    }
}

/// Greedy MI selection on the empirical sensor covariance.
fn greedy_mutual_information(input: &SelectionInput<'_>, m: usize) -> Result<Vec<usize>> {
    let n = input.trajectories.rows();
    if m > n {
        return Err(SelectError::InvalidRequest {
            reason: format!("cannot place {m} sensors among {n} candidates"),
        });
    }
    // Empirical covariance over sensors (rows are sensors, columns
    // time samples) with a jitter for conditioning.
    let mut cov = stats::row_covariance_matrix(input.trajectories)?;
    let jitter = 1e-6 * (0..n).map(|i| cov[(i, i)]).sum::<f64>().max(1e-12) / n as f64;
    for i in 0..n {
        cov[(i, i)] += jitter;
    }

    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut complement: Vec<usize> = Vec::with_capacity(n);
    let mut conditioner = Conditioner::new(n)?;
    for _ in 0..m {
        let mut best: Option<(f64, usize)> = None;
        for (pos, &y) in remaining.iter().enumerate() {
            // Ā = all sensors except chosen and y.
            complement.clear();
            complement.extend((0..n).filter(|i| *i != y && !chosen.contains(i)));
            let num = conditioner.variance(&cov, y, &chosen)?;
            let den = conditioner.variance(&cov, y, &complement)?;
            let gain = num / den.max(1e-12);
            if best.as_ref().is_none_or(|&(g, _)| gain > g) {
                best = Some((gain, pos));
            }
        }
        let (_, pos) = best.ok_or(SelectError::Internal {
            context: "GP-MI greedy step found no candidate",
        })?;
        chosen.push(remaining.remove(pos));
    }
    Ok(chosen)
}

/// Workspace of `σ²_{y|S} = Σ_yy − Σ_yS Σ_SS⁻¹ Σ_Sy`, reused across the
/// greedy loop: one Cholesky factor refilled from each conditioning
/// block of the covariance, and the right-hand side and solution of
/// its solve. Sized for `n` sensors up front, so no call allocates.
struct Conditioner {
    /// `None` only after a failed factorisation, whose error ends the
    /// selection.
    chol: Option<CholeskyDecomposition>,
    sigma_sy: Vec<f64>,
    x: Vec<f64>,
}

impl Conditioner {
    fn new(n: usize) -> Result<Self> {
        // The factor of an `n × n` identity: storage for every block.
        Ok(Conditioner {
            chol: Some(CholeskyDecomposition::from_factor(Matrix::identity(
                n.max(1),
            ))?),
            sigma_sy: Vec::with_capacity(n),
            x: Vec::with_capacity(n),
        })
    }

    /// `σ²_{y|S}`, clamped at zero; `Σ_yy` for an empty `S`.
    fn variance(&mut self, cov: &Matrix, y: usize, conditioning: &[usize]) -> Result<f64> {
        if conditioning.is_empty() {
            return Ok(cov[(y, y)]);
        }
        let storage = self.chol.take().ok_or(SelectError::Internal {
            context: "GP conditioner used after a failed factorisation",
        })?;
        let chol = self
            .chol
            .insert(storage.refactor_principal(cov, conditioning)?);
        self.sigma_sy.clear();
        self.sigma_sy
            .extend(conditioning.iter().map(|&s| cov[(s, y)]));
        chol.solve_into(&self.sigma_sy, &mut self.x)?;
        // From −0.0, as `Iterator::sum` folds.
        let quad = kernels::dot_from(-0.0, &self.sigma_sy, &self.x);
        Ok((cov[(y, y)] - quad).max(0.0))
    }
}

/// Ranks every cluster's non-selected members as fallback sensors for
/// its representatives, best substitute first (closest in RMS to the
/// cluster-mean trajectory — the same criterion [`NearMeanSelector`]
/// uses to pick representatives in the first place).
///
/// Works for any strategy's output: cluster-blind selections simply
/// get all cluster members not chosen anywhere ranked as backups.
/// Returns the selection with the backup lists attached.
///
/// # Errors
///
/// Returns [`SelectError::InvalidRequest`] when `selection` does not
/// cover the clustering, and propagates numerical failures.
pub fn rank_backups(input: &SelectionInput<'_>, selection: &Selection) -> Result<Selection> {
    input.validate()?;
    if selection.cluster_count() != input.clustering.k() {
        return Err(SelectError::InvalidRequest {
            reason: format!(
                "selection covers {} clusters but clustering has {}",
                selection.cluster_count(),
                input.clustering.k()
            ),
        });
    }
    let traj = input.trajectories;
    let samples = traj.cols();
    let taken = selection.sensors();
    let mut backups = Vec::with_capacity(input.clustering.k());
    for members in input.clustering.clusters() {
        let mut mean = vec![0.0; samples];
        for &i in &members {
            for (m, v) in mean.iter_mut().zip(traj.row(i)) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= members.len() as f64;
        }
        let mut scored: Vec<(f64, usize)> = Vec::new();
        for &i in &members {
            if taken.binary_search(&i).is_ok() {
                continue;
            }
            let d = stats::euclidean_distance(traj.row(i), &mean)?;
            scored.push((d, i));
        }
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        backups.push(scored.into_iter().map(|(_, i)| i).collect());
    }
    selection.clone().with_backups(backups)
}

/// Assigns an arbitrary chosen sensor set to clusters: each cluster
/// receives the not-yet-taken sensor whose trajectory best correlates
/// with the cluster-mean trajectory; leftovers go to the cluster they
/// correlate with best.
fn assign_to_clusters(input: &SelectionInput<'_>, chosen: &[usize]) -> Result<Selection> {
    let traj = input.trajectories;
    let k = input.clustering.k();
    let samples = traj.cols();

    // Cluster mean trajectories.
    let clusters = input.clustering.clusters();
    let mut means: Vec<Vec<f64>> = Vec::with_capacity(k);
    for members in &clusters {
        let mut mean = vec![0.0; samples];
        for &i in members {
            for (m, v) in mean.iter_mut().zip(traj.row(i)) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= members.len() as f64;
        }
        means.push(mean);
    }

    // Correlation of each chosen sensor with each cluster mean.
    let corr = |sensor: usize, cluster: usize| -> f64 {
        stats::pearson(traj.row(sensor), &means[cluster]).unwrap_or(0.0)
    };

    // Greedy best-match: repeatedly take the (sensor, empty cluster)
    // pair with the highest correlation.
    let mut per_cluster: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut unassigned: Vec<usize> = chosen.to_vec();
    while per_cluster.iter().any(|c| c.is_empty()) && !unassigned.is_empty() {
        let mut best: Option<(f64, usize, usize)> = None; // (corr, sensor pos, cluster)
        for (pos, &s) in unassigned.iter().enumerate() {
            for c in 0..k {
                if per_cluster[c].is_empty() {
                    let r = corr(s, c);
                    if best.as_ref().is_none_or(|&(b, _, _)| r > b) {
                        best = Some((r, pos, c));
                    }
                }
            }
        }
        let (_, pos, c) = best.ok_or(SelectError::Internal {
            context: "cluster assignment found no (sensor, cluster) pair",
        })?;
        per_cluster[c].push(unassigned.remove(pos));
    }
    // Distribute leftovers to their best cluster.
    for s in unassigned {
        let mut best_c = 0;
        let mut best_r = f64::NEG_INFINITY;
        for (c, _) in per_cluster.iter().enumerate() {
            let r = corr(s, c);
            if r > best_r {
                best_r = r;
                best_c = c;
            }
        }
        per_cluster[best_c].push(s);
    }
    // If any cluster is still empty (fewer chosen sensors than
    // clusters), reuse the globally best-correlated sensor — a sensor
    // may stand in for several zones, as the thermostats do in the
    // paper.
    for c in 0..k {
        if per_cluster[c].is_empty() {
            let mut best_s = chosen[0];
            let mut best_r = f64::NEG_INFINITY;
            for &s in chosen {
                let r = corr(s, c);
                if r > best_r {
                    best_r = r;
                    best_s = s;
                }
            }
            per_cluster[c].push(best_s);
        }
    }
    Selection::new(per_cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use thermal_cluster::Clustering;

    /// The greedy loop as it was before the reused workspace: the
    /// covariance of the transposed trajectories, and per candidate a
    /// fresh complement list, covariance submatrices, factor and solve.
    /// (`CholeskyDecomposition::new`/`solve` themselves are checked
    /// against their one-entry references in `thermal-linalg`.)
    fn reference_greedy(trajectories: &Matrix, m: usize) -> Result<Vec<usize>> {
        fn conditional_variance(cov: &Matrix, y: usize, conditioning: &[usize]) -> Result<f64> {
            if conditioning.is_empty() {
                return Ok(cov[(y, y)]);
            }
            let sigma_ss = cov.submatrix(conditioning, conditioning)?;
            let sigma_sy: Vec<f64> = conditioning.iter().map(|&s| cov[(s, y)]).collect();
            let chol = CholeskyDecomposition::new(&sigma_ss)?;
            let x = chol.solve(&thermal_linalg::Vector::from_slice(&sigma_sy))?;
            let quad: f64 = sigma_sy.iter().zip(x.as_slice()).map(|(a, b)| a * b).sum();
            Ok((cov[(y, y)] - quad).max(0.0))
        }
        let n = trajectories.rows();
        let mut cov = stats::covariance_matrix(&trajectories.transpose())?;
        let jitter = 1e-6 * (0..n).map(|i| cov[(i, i)]).sum::<f64>().max(1e-12) / n as f64;
        for i in 0..n {
            cov[(i, i)] += jitter;
        }
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        let mut remaining: Vec<usize> = (0..n).collect();
        for _ in 0..m {
            let mut best: Option<(f64, usize)> = None;
            for (pos, &y) in remaining.iter().enumerate() {
                let complement: Vec<usize> =
                    (0..n).filter(|i| *i != y && !chosen.contains(i)).collect();
                let num = conditional_variance(&cov, y, &chosen)?;
                let den = conditional_variance(&cov, y, &complement)?;
                let gain = num / den.max(1e-12);
                if best.as_ref().is_none_or(|&(g, _)| gain > g) {
                    best = Some((gain, pos));
                }
            }
            let (_, pos) = best.ok_or(SelectError::Internal {
                context: "GP-MI greedy step found no candidate",
            })?;
            chosen.push(remaining.remove(pos));
        }
        Ok(chosen)
    }

    /// `n` trajectories of `samples` slots from `seed`: a few shared
    /// thermal modes with per-sensor loadings and noise, and every
    /// fifth sensor (from `dead_from`) dead flat.
    fn trajectories(n: usize, samples: usize, dead_from: usize, seed: u64) -> Matrix {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let loads: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ]
            })
            .collect();
        Matrix::from_fn(n, samples, |i, k| {
            if i >= dead_from && (i - dead_from).is_multiple_of(5) {
                return 21.0;
            }
            let t = k as f64;
            let [a, b, c] = loads[i];
            22.0 + a * (0.11 * t).sin()
                + b * (0.37 * t).cos()
                + c * (0.05 * t)
                + 0.2 * rng.gen_range(-1.0..1.0)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// GP selections over 3–30 sensors equal the per-candidate
        /// reference loop, including when it fails.
        #[test]
        fn gp_greedy_matches_reference(
            n in 3usize..31,
            samples in 2usize..70,
            m in 1usize..7,
            dead_from in 0usize..40,
            seed in any::<u64>(),
        ) {
            let traj = trajectories(n, samples, dead_from, seed);
            let m = m.min(n);
            let clustering = Clustering::from_assignments(vec![0; n], 1).unwrap();
            let input = SelectionInput { trajectories: &traj, clustering: &clustering, per_cluster: m, seed };
            match (greedy_mutual_information(&input, m), reference_greedy(&traj, m)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
        }
    }

    /// Six sensors in two families: 0–2 trend up (with 1 the middle
    /// one), 3–5 trend down (4 in the middle).
    fn fixture() -> (Matrix, Clustering) {
        let rows: Vec<Vec<f64>> = vec![
            (0..20).map(|k| 20.0 + 0.10 * k as f64).collect(),
            (0..20).map(|k| 20.1 + 0.11 * k as f64).collect(),
            (0..20).map(|k| 20.2 + 0.12 * k as f64).collect(),
            (0..20).map(|k| 23.0 - 0.10 * k as f64).collect(),
            (0..20).map(|k| 23.1 - 0.11 * k as f64).collect(),
            (0..20).map(|k| 23.2 - 0.12 * k as f64).collect(),
        ];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let m = Matrix::from_rows(&refs).unwrap();
        let c = Clustering::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        (m, c)
    }

    fn input<'a>(m: &'a Matrix, c: &'a Clustering, per: usize, seed: u64) -> SelectionInput<'a> {
        SelectionInput {
            trajectories: m,
            clustering: c,
            per_cluster: per,
            seed,
        }
    }

    #[test]
    fn sms_picks_the_middle_sensor() {
        let (m, c) = fixture();
        let sel = NearMeanSelector.select(&input(&m, &c, 1, 0)).unwrap();
        assert_eq!(sel.representatives(0), &[1]);
        assert_eq!(sel.representatives(1), &[4]);
        assert_eq!(NearMeanSelector.name(), "sms");
    }

    #[test]
    fn sms_multiple_per_cluster_ranked_by_distance() {
        let (m, c) = fixture();
        let sel = NearMeanSelector.select(&input(&m, &c, 2, 0)).unwrap();
        assert_eq!(sel.representatives(0).len(), 2);
        assert!(sel.representatives(0).contains(&1));
        // Requesting more than a cluster holds fails.
        assert!(NearMeanSelector.select(&input(&m, &c, 4, 0)).is_err());
    }

    #[test]
    fn rank_backups_breaks_exact_ties_by_ascending_sensor_id() {
        // One cluster whose four non-selected members sit at *exactly*
        // the same RMS distance from the cluster mean: every deviation
        // has magnitude 1.0, so the squared sums are bit-identical and
        // only the deterministic id tie-break orders them. This pins
        // the ordering contract the streaming substitution ladder
        // relies on (same trace ⇒ same backup every run).
        let rows: Vec<Vec<f64>> = vec![
            vec![20.0; 20], // the mean itself → representative
            vec![21.0; 20],
            vec![19.0; 20],
            (0..20)
                .map(|k| if k % 2 == 0 { 21.0 } else { 19.0 })
                .collect(),
            (0..20)
                .map(|k| if k % 2 == 0 { 19.0 } else { 21.0 })
                .collect(),
        ];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let m = Matrix::from_rows(&refs).unwrap();
        let c = Clustering::from_assignments(vec![0; 5], 1).unwrap();
        let sel = NearMeanSelector.select(&input(&m, &c, 1, 0)).unwrap();
        assert_eq!(sel.representatives(0), &[0]);
        let ranked = rank_backups(&input(&m, &c, 1, 0), &sel).unwrap();
        assert_eq!(
            ranked.backups(0),
            &[1, 2, 3, 4],
            "equal-distance backups must rank by ascending sensor id"
        );
    }

    #[test]
    fn srs_picks_within_clusters() {
        let (m, c) = fixture();
        for seed in 0..5 {
            let sel = StratifiedRandomSelector
                .select(&input(&m, &c, 1, seed))
                .unwrap();
            assert!(sel.representatives(0)[0] < 3);
            assert!(sel.representatives(1)[0] >= 3);
        }
        // Deterministic per seed.
        let a = StratifiedRandomSelector
            .select(&input(&m, &c, 1, 9))
            .unwrap();
        let b = StratifiedRandomSelector
            .select(&input(&m, &c, 1, 9))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rs_ignores_clusters_but_covers_them() {
        let (m, c) = fixture();
        let sel = RandomSelector.select(&input(&m, &c, 1, 3)).unwrap();
        assert_eq!(sel.cluster_count(), 2);
        assert_eq!(sel.sensors().len(), 2);
        assert!(RandomSelector.select(&input(&m, &c, 4, 0)).is_err());
    }

    #[test]
    fn fixed_selector_assigns_by_correlation() {
        let (m, c) = fixture();
        // Sensors 2 (uptrend) and 5 (downtrend) as "thermostats".
        let sel = FixedSelector::thermostats(vec![2, 5])
            .select(&input(&m, &c, 1, 0))
            .unwrap();
        assert_eq!(sel.representatives(0), &[2]);
        assert_eq!(sel.representatives(1), &[5]);
        // Both fixed sensors in the same family: one covers both
        // clusters.
        let sel = FixedSelector::new("both-up", vec![0, 2])
            .select(&input(&m, &c, 1, 0))
            .unwrap();
        assert_eq!(sel.cluster_count(), 2);
        assert!(!sel.representatives(1).is_empty());
        assert!(FixedSelector::new("bad", vec![99])
            .select(&input(&m, &c, 1, 0))
            .is_err());
        assert!(FixedSelector::new("empty", vec![])
            .select(&input(&m, &c, 1, 0))
            .is_err());
    }

    #[test]
    fn gp_selects_distinct_informative_sensors() {
        let (m, c) = fixture();
        let sel = GpSelector.select(&input(&m, &c, 1, 0)).unwrap();
        let sensors = sel.sensors();
        assert_eq!(sensors.len(), 2);
        assert_eq!(GpSelector.name(), "gp");
        // Deterministic (no randomness in the greedy).
        let again = GpSelector.select(&input(&m, &c, 1, 0)).unwrap();
        assert_eq!(sel, again);
    }

    #[test]
    fn gp_cannot_place_more_than_available() {
        let (m, c) = fixture();
        assert!(GpSelector.select(&input(&m, &c, 4, 0)).is_err());
    }

    #[test]
    fn backups_are_cluster_mates_ranked_near_mean_first() {
        let (m, c) = fixture();
        let inp = input(&m, &c, 1, 0);
        let sel = NearMeanSelector.select(&inp).unwrap();
        let with = rank_backups(&inp, &sel).unwrap();
        assert!(with.has_backups());
        // Cluster 0 keeps sensor 1; backups are 0 and 2, and neither
        // is the representative.
        assert_eq!(with.representatives(0), &[1]);
        let b0 = with.backups(0);
        assert_eq!(b0.len(), 2);
        assert!(b0.contains(&0) && b0.contains(&2));
        assert!(!b0.contains(&1));
        // Same for cluster 1 (rep 4, backups 3/5).
        let b1 = with.backups(1);
        assert!(b1.contains(&3) && b1.contains(&5) && !b1.contains(&4));
        // Ranking is deterministic.
        let again = rank_backups(&inp, &sel).unwrap();
        assert_eq!(with, again);
    }

    #[test]
    fn backups_for_cluster_blind_selections_exclude_taken_sensors() {
        let (m, c) = fixture();
        let inp = input(&m, &c, 1, 3);
        let sel = RandomSelector.select(&inp).unwrap();
        let with = rank_backups(&inp, &sel).unwrap();
        let taken = with.sensors();
        for cluster in 0..with.cluster_count() {
            for b in with.backups(cluster) {
                assert!(!taken.contains(b), "backup {b} is already selected");
            }
        }
    }

    #[test]
    fn rank_backups_rejects_mismatched_clustering() {
        let (m, c) = fixture();
        let inp = input(&m, &c, 1, 0);
        let wrong = Selection::new(vec![vec![0]]).unwrap();
        assert!(rank_backups(&inp, &wrong).is_err());
    }

    #[test]
    fn selectors_are_object_safe() {
        let selectors: Vec<Box<dyn Selector>> = vec![
            Box::new(NearMeanSelector),
            Box::new(StratifiedRandomSelector),
            Box::new(RandomSelector),
            Box::new(GpSelector),
            Box::new(FixedSelector::thermostats(vec![0, 3])),
        ];
        let (m, c) = fixture();
        for s in &selectors {
            let sel = s.select(&input(&m, &c, 1, 1)).unwrap();
            assert_eq!(sel.cluster_count(), 2, "{} failed", s.name());
        }
    }
}
