//! The five selection strategies compared by the paper's Table II.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use thermal_linalg::{kernels, stats, CholeskyDecomposition, LeaveOneOut, Matrix};

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
/// The covariance is the centred trajectory Gram over `n − 1`
/// ([`stats::centred_gram`], [`stats::covariance_from_gram`]). Each
/// greedy step scores every remaining candidate `y` by two conditional
/// variances: given the chosen set, whose factor is computed once per
/// step, and given the rest of the remaining set, whose factors all
/// come off one right-looking factorisation of the remaining set
/// ([`LeaveOneOut`]). Storage is reused across steps, so a selection
/// allocates per call and per chosen sensor, never per candidate.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpSelector;

impl GpSelector {
    /// [`Selector::select`] on the centred Gram of
    /// `input.trajectories` ([`stats::centred_gram`]), for a caller
    /// that already holds it — the pipeline's correlation clustering
    /// reads the same Gram. The selection equals `select`'s bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// * [`SelectError::InvalidRequest`] for an invalid input, more
    ///   sensors requested than exist, or a Gram of another shape,
    /// * [`SelectError::Linalg`] when a covariance block cannot be
    ///   factored.
    pub fn select_with_gram(&self, input: &SelectionInput<'_>, gram: &Matrix) -> Result<Selection> {
        input.validate()?;
        let chosen = greedy_mutual_information(input, gram, input.total_requested())?;
        assign_to_clusters(input, &chosen)
    }
}

impl Selector for GpSelector {
    fn name(&self) -> &'static str {
        "gp"
    }

    fn select(&self, input: &SelectionInput<'_>) -> Result<Selection> {
        input.validate()?;
        self.select_with_gram(input, &stats::centred_gram(input.trajectories))
    }
}

/// Greedy MI selection on the empirical sensor covariance, derived
/// from the trajectories' centred Gram.
fn greedy_mutual_information(
    input: &SelectionInput<'_>,
    gram: &Matrix,
    m: usize,
) -> Result<Vec<usize>> {
    let n = input.trajectories.rows();
    if gram.shape() != (n, n) {
        return Err(SelectError::InvalidRequest {
            reason: format!(
                "a {} x {} Gram does not match {n} sensors",
                gram.rows(),
                gram.cols()
            ),
        });
    }
    if m > n {
        return Err(SelectError::InvalidRequest {
            reason: format!("cannot place {m} sensors among {n} candidates"),
        });
    }
    // Empirical covariance over sensors (rows are sensors, columns
    // time samples) with a jitter for conditioning.
    let mut cov = stats::covariance_from_gram(gram, input.trajectories.cols())?;
    let jitter = 1e-6 * (0..n).map(|i| cov[(i, i)]).sum::<f64>().max(1e-12) / n as f64;
    for i in 0..n {
        cov[(i, i)] += jitter;
    }

    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut conditioner = Conditioner::new(n)?;
    for _ in 0..m {
        conditioner.step(&cov, &chosen, &remaining)?;
        let mut best: Option<(f64, usize)> = None;
        for (pos, &y) in remaining.iter().enumerate() {
            let num = conditioner.given_chosen(&cov, y, &chosen)?;
            let den = conditioner.given_rest(&cov, y, &remaining)?;
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
/// greedy loop: the chosen set's factor, the remaining set's
/// leave-one-out factors, and the right-hand side and solution of a
/// solve. Storage grows to the first step's sets and is reused after.
struct Conditioner {
    /// `None` only after a failed factorisation, whose error ends the
    /// selection.
    chosen: Option<CholeskyDecomposition>,
    rest: LeaveOneOut,
    sigma_sy: Vec<f64>,
    x: Vec<f64>,
}

impl Conditioner {
    fn new(n: usize) -> Result<Self> {
        // The factor of an `n × n` identity: storage for every block.
        Ok(Conditioner {
            chosen: Some(CholeskyDecomposition::from_factor(Matrix::identity(
                n.max(1),
            ))?),
            rest: LeaveOneOut::new(),
            sigma_sy: Vec::with_capacity(n),
            x: Vec::with_capacity(n),
        })
    }

    /// Factors `Σ[chosen, chosen]` and loads `Σ[remaining, remaining]`
    /// for one greedy step. A failure here is the one every candidate
    /// of the step would hit first.
    fn step(&mut self, cov: &Matrix, chosen: &[usize], remaining: &[usize]) -> Result<()> {
        if !chosen.is_empty() {
            let storage = self.chosen.take().ok_or(SelectError::Internal {
                context: "GP conditioner used after a failed factorisation",
            })?;
            self.chosen = Some(storage.refactor_principal(cov, chosen)?);
        }
        self.rest.reset(cov, remaining)?;
        Ok(())
    }

    /// `σ²_{y|chosen}`, clamped at zero; `Σ_yy` for an empty set.
    fn given_chosen(&mut self, cov: &Matrix, y: usize, chosen: &[usize]) -> Result<f64> {
        if chosen.is_empty() {
            return Ok(cov[(y, y)]);
        }
        let chol = self.chosen.as_ref().ok_or(SelectError::Internal {
            context: "GP conditioner used after a failed factorisation",
        })?;
        self.sigma_sy.clear();
        self.sigma_sy.extend(chosen.iter().map(|&s| cov[(s, y)]));
        chol.solve_into(&self.sigma_sy, &mut self.x)?;
        Ok(self.variance(cov, y))
    }

    /// `σ²_{y|remaining∖{y}}`, clamped at zero; `Σ_yy` when `y` is all
    /// that remains. Called for the remaining candidates in order.
    fn given_rest(&mut self, cov: &Matrix, y: usize, remaining: &[usize]) -> Result<f64> {
        if remaining.len() == 1 {
            return Ok(cov[(y, y)]);
        }
        self.rest.factor_next()?;
        self.rest.solve_into(&mut self.x)?;
        self.sigma_sy.clear();
        self.sigma_sy
            .extend(remaining.iter().filter(|&&s| s != y).map(|&s| cov[(s, y)]));
        Ok(self.variance(cov, y))
    }

    /// `Σ_yy − Σ_yS x` for the last solve's `x = Σ_SS⁻¹ Σ_Sy`, clamped
    /// at zero.
    fn variance(&self, cov: &Matrix, y: usize) -> f64 {
        // From −0.0, as `Iterator::sum` folds.
        let quad = kernels::dot_from(-0.0, &self.sigma_sy, &self.x);
        (cov[(y, y)] - quad).max(0.0)
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

/// Correlation of each chosen sensor's trajectory with each cluster
/// mean: entry `(sensor, cluster)` of a `traj.rows() × means.len()`
/// table, `0.0` where the correlation is undefined; rows of sensors not
/// chosen stay `0.0`. Every series' own mean is taken once, not once
/// per pair the way `stats::pearson` takes it, so each entry is
/// `pearson`'s bit for bit.
fn correlation_table(traj: &Matrix, means: &[Vec<f64>], chosen: &[usize]) -> Matrix {
    let centre = |series: &[f64]| stats::mean(series).unwrap_or(0.0);
    let mean_centres: Vec<f64> = means.iter().map(|mean| centre(mean)).collect();
    let mut table = Matrix::zeros(traj.rows(), means.len());
    for &sensor in chosen {
        let row = traj.row(sensor);
        let row_centre = centre(row);
        for (cluster, (mean, &mean_centre)) in means.iter().zip(&mean_centres).enumerate() {
            table[(sensor, cluster)] =
                stats::pearson_with_means(row, row_centre, mean, mean_centre).unwrap_or(0.0);
        }
    }
    table
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

    // Each (sensor, cluster) correlation is computed once: the matching
    // below asks for most pairs repeatedly.
    let table = correlation_table(traj, &means, chosen);
    let corr = |sensor: usize, cluster: usize| table[(sensor, cluster)];

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
    /// thermal modes with per-sensor loadings and noise, every fifth
    /// sensor (from `dead_from`) dead flat, and every sensor from
    /// `twins` on (when `twins > 0`) an exact copy of the one `twins`
    /// rows above it, so the covariance is singular and only the jitter
    /// keeps it positive definite.
    fn trajectories(n: usize, samples: usize, dead_from: usize, twins: usize, seed: u64) -> Matrix {
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
        let mut m = Matrix::from_fn(n, samples, |i, k| {
            if i >= dead_from && (i - dead_from).is_multiple_of(5) {
                return 21.0;
            }
            let t = k as f64;
            let [a, b, c] = loads[i];
            22.0 + a * (0.11 * t).sin()
                + b * (0.37 * t).cos()
                + c * (0.05 * t)
                + 0.2 * rng.gen_range(-1.0..1.0)
        });
        if twins > 0 {
            for i in twins..n {
                let copy = m.row(i - twins).to_vec();
                m.row_mut(i).copy_from_slice(&copy);
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// GP selections over 3–30 sensors equal the per-candidate
        /// reference loop, including when it fails, with dead and
        /// duplicated sensors.
        #[test]
        fn gp_greedy_matches_reference(
            n in 3usize..31,
            samples in 2usize..70,
            m in 1usize..7,
            dead_from in 0usize..40,
            twins in 0usize..40,
            seed in any::<u64>(),
        ) {
            let traj = trajectories(n, samples, dead_from, twins, seed);
            let m = m.min(n);
            let clustering = Clustering::from_assignments(vec![0; n], 1).unwrap();
            let input = SelectionInput { trajectories: &traj, clustering: &clustering, per_cluster: m, seed };
            let gram = stats::centred_gram(&traj);
            match (greedy_mutual_information(&input, &gram, m), reference_greedy(&traj, m)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
        }

        /// The correlation table of `assign_to_clusters` holds, for every
        /// chosen sensor and cluster, `stats::pearson` of the sensor's
        /// trajectory and the cluster mean (`0.0` where it is undefined),
        /// bit for bit, over 2–27 sensors in 1–4 clusters with singleton
        /// clusters, dead-flat sensors and any chosen subset.
        #[test]
        fn correlation_table_matches_pairwise_pearson(
            n in 2usize..28,
            k in 1usize..5,
            samples in 2usize..90,
            dead_from in 0usize..30,
            assignments in prop::collection::vec(0usize..4, 27),
            chosen in prop::collection::vec(any::<bool>(), 27),
            seed in any::<u64>(),
        ) {
            let k = k.min(n);
            let traj = trajectories(n, samples, dead_from, 0, seed);
            // Sensors 0..k open one cluster each, so none is empty and a
            // cluster drawn by no other sensor is a singleton.
            let assignments: Vec<usize> = (0..n)
                .map(|i| if i < k { i } else { assignments[i] % k })
                .collect();
            let clustering = Clustering::from_assignments(assignments, k).unwrap();
            // Each cluster's mean trajectory, summed and divided as
            // `assign_to_clusters` does.
            let means: Vec<Vec<f64>> = clustering
                .clusters()
                .iter()
                .map(|members| {
                    let mut mean = vec![0.0; samples];
                    for &i in members {
                        for (m, v) in mean.iter_mut().zip(traj.row(i)) {
                            *m += v;
                        }
                    }
                    mean.iter().map(|m| m / members.len() as f64).collect()
                })
                .collect();
            let chosen: Vec<usize> = (0..n).filter(|&i| chosen[i]).collect();
            let table = correlation_table(&traj, &means, &chosen);
            prop_assert_eq!(table.shape(), (n, k));
            for sensor in 0..n {
                for (cluster, mean) in means.iter().enumerate() {
                    let want = if chosen.contains(&sensor) {
                        stats::pearson(traj.row(sensor), mean).unwrap_or(0.0)
                    } else {
                        0.0
                    };
                    prop_assert_eq!(
                        table[(sensor, cluster)].to_bits(),
                        want.to_bits(),
                        "sensor {} cluster {}", sensor, cluster
                    );
                }
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
