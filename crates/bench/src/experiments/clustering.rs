//! Sensor-clustering experiments: Figures 6, 7 and 8.

use thermal_cluster::{
    cluster_trajectories, quality, trajectory_matrix, ClusterCount, Clustering, Similarity,
    SpectralConfig,
};
use thermal_linalg::stats::EmpiricalCdf;
use thermal_linalg::Matrix;

use crate::error::Result;
use crate::protocol::Protocol;
use crate::render;

/// Training-half trajectories of the wireless sensors (the 25
/// channels the paper clusters).
///
/// # Errors
///
/// Propagates trajectory-extraction failures.
pub fn wireless_training_trajectories(p: &Protocol) -> Result<(Vec<String>, Matrix)> {
    let names = p.wireless_channels();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let traj = trajectory_matrix(&p.output.dataset, &refs, &p.train_occupied)?;
    Ok((names, traj))
}

/// Clusters the wireless sensors with the given similarity and count
/// policy (seeded like the rest of the harness).
///
/// # Errors
///
/// Propagates spectral-clustering failures.
pub fn cluster_wireless(
    trajectories: &Matrix,
    similarity: Similarity,
    count: ClusterCount,
) -> Result<Clustering> {
    Ok(cluster_trajectories(
        trajectories,
        &SpectralConfig {
            similarity,
            count,
            seed: 7,
            restarts: 8,
        },
    )?)
}

/// Figure 6 for one similarity measure.
#[derive(Debug, Clone)]
pub struct Fig6Side {
    /// Which similarity produced this side.
    pub similarity: Similarity,
    /// Eigengap-chosen cluster count.
    pub k: usize,
    /// Natural-log Laplacian eigenvalues (ascending), as the paper's
    /// middle column plots.
    pub log_eigenvalues: Vec<f64>,
    /// Sensor names per cluster.
    pub members: Vec<Vec<String>>,
    /// Mean training temperature per cluster, °C.
    pub mean_temps: Vec<f64>,
}

/// Computes both sides of Fig. 6 (Euclidean above, correlation
/// below).
///
/// # Errors
///
/// Propagates clustering failures.
pub fn fig6(p: &Protocol) -> Result<Vec<Fig6Side>> {
    let (names, traj) = wireless_training_trajectories(p)?;
    let mut sides = Vec::with_capacity(2);
    for similarity in [Similarity::euclidean(), Similarity::correlation()] {
        let clustering = cluster_wireless(&traj, similarity, ClusterCount::Eigengap { max: 8 })?;
        let means = quality::cluster_means(&traj, &clustering)?;
        let members = clustering
            .clusters()
            .into_iter()
            .map(|m| m.into_iter().map(|i| names[i].clone()).collect())
            .collect();
        sides.push(Fig6Side {
            similarity,
            k: clustering.k(),
            log_eigenvalues: clustering
                .eigenvalues()
                .iter()
                .map(|&v| v.max(1e-12).ln())
                .collect(),
            members,
            mean_temps: means,
        });
    }
    Ok(sides)
}

/// Renders Fig. 6.
pub fn render_fig6(sides: &[Fig6Side]) -> String {
    let mut out = String::new();
    for s in sides {
        out.push_str(&format!(
            "similarity = {} -> k = {} (largest log-eigengap)\n",
            s.similarity, s.k
        ));
        for (c, members) in s.members.iter().enumerate() {
            out.push_str(&format!(
                "  cluster {c} (mean {:.2} degC): {:?}\n",
                s.mean_temps[c], members
            ));
        }
        let evs: Vec<String> = s
            .log_eigenvalues
            .iter()
            .map(|v| format!("{v:.1}"))
            .collect();
        out.push_str(&format!("  ln eigenvalues: [{}]\n\n", evs.join(", ")));
    }
    out
}

/// Quality metrics for one cluster count (one column of Fig. 7 or 8).
#[derive(Debug, Clone)]
pub struct QualityColumn {
    /// The cluster count.
    pub k: usize,
    /// Per-cluster (median, 95th-pct) of the max pairwise temperature
    /// difference; `None` for singleton clusters.
    pub per_cluster: Vec<Option<(f64, f64)>>,
    /// Overall (median, 95th-pct) across all sensor pairs.
    pub overall: (f64, f64),
    /// Mean within-cluster correlation of the ordered map.
    pub corr_within: f64,
    /// Mean cross-cluster correlation.
    pub corr_between: f64,
}

/// (median, 95th percentile) of a temperature-difference CDF.
fn summarise(cdf: &EmpiricalCdf) -> Result<(f64, f64)> {
    Ok((cdf.quantile(0.5)?, cdf.quantile(0.95)?))
}

/// Figures 7 (Euclidean, k ∈ 3..5) and 8 (correlation, k ∈ 2..5):
/// intra-cluster temperature-difference CDF summaries and
/// correlation-map block contrast.
///
/// # Errors
///
/// Propagates clustering and quality-report failures.
pub fn quality_columns(
    p: &Protocol,
    similarity: Similarity,
    ks: &[usize],
) -> Result<Vec<QualityColumn>> {
    let (_, traj) = wireless_training_trajectories(p)?;
    let mut cols = Vec::with_capacity(ks.len());
    for &k in ks {
        let clustering = cluster_wireless(&traj, similarity, ClusterCount::Fixed(k))?;
        let report = quality::temp_diff_report(&traj, &clustering)?;
        let map = quality::correlation_map(&traj, &clustering)?;
        let mut per_cluster = Vec::with_capacity(report.per_cluster.len());
        for c in &report.per_cluster {
            per_cluster.push(match c.as_ref() {
                Some(cdf) => Some(summarise(cdf)?),
                None => None,
            });
        }
        cols.push(QualityColumn {
            k,
            per_cluster,
            overall: summarise(&report.overall)?,
            corr_within: map.mean_within(),
            corr_between: map.mean_between(),
        });
    }
    Ok(cols)
}

/// Renders a set of quality columns.
pub fn render_quality(similarity: Similarity, cols: &[QualityColumn]) -> String {
    let mut out = format!("{similarity}-based clustering quality:\n");
    let mut t = vec![vec![
        "k".to_owned(),
        "cluster".to_owned(),
        "median dT".to_owned(),
        "95pct dT".to_owned(),
    ]];
    for col in cols {
        for (c, stats) in col.per_cluster.iter().enumerate() {
            match stats {
                Some((med, p95)) => t.push(vec![
                    format!("{}", col.k),
                    format!("{c}"),
                    format!("{med:.2}"),
                    format!("{p95:.2}"),
                ]),
                None => t.push(vec![
                    format!("{}", col.k),
                    format!("{c}"),
                    "(singleton)".to_owned(),
                    "-".to_owned(),
                ]),
            }
        }
        t.push(vec![
            format!("{}", col.k),
            "overall".to_owned(),
            format!("{:.2}", col.overall.0),
            format!("{:.2}", col.overall.1),
        ]);
    }
    out.push_str(&render::table(&t));
    out.push_str("\ncorrelation-map contrast:\n");
    let mut t = vec![vec![
        "k".to_owned(),
        "within".to_owned(),
        "between".to_owned(),
    ]];
    for col in cols {
        t.push(vec![
            format!("{}", col.k),
            format!("{:.2}", col.corr_within),
            format!("{:.2}", col.corr_between),
        ]);
    }
    out.push_str(&render::table(&t));
    out
}
