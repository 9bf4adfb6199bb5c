//! The paper's three-step method as one configurable pipeline:
//! cluster the dense deployment, select representative sensors, and
//! identify a simplified thermal model on them.

use std::cell::OnceCell;

use serde::{Deserialize, Serialize};

use thermal_ckpt::CheckpointStore;
use thermal_cluster::{
    cluster_graph, correlation_weights, trajectory_matrix, weight_matrix, ClusterCount, Clustering,
    Similarity,
};
use thermal_linalg::{stats, Matrix};
use thermal_select::{
    rank_backups, FixedSelector, GpSelector, NearMeanSelector, RandomSelector, Selection,
    SelectionInput, Selector, StratifiedRandomSelector,
};
use thermal_sysid::{
    identify_with_cache, FitConfig, GramCache, ModelOrder, ModelSpec, ThermalModel,
};
use thermal_timeseries::{Dataset, Mask};

use crate::checkpoint::{self, FitResume};
use crate::reduced::ReducedModel;
use crate::{CoreError, Result};

/// Which selection strategy the pipeline uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectorKind {
    /// Stratified near-mean selection (the paper's SMS — its best).
    NearMean,
    /// Stratified random selection (SRS).
    StratifiedRandom,
    /// Clustering-blind random baseline (RS).
    Random,
    /// A fixed set of channel names (e.g. the installed thermostats).
    Fixed(Vec<String>),
    /// Greedy Gaussian-process mutual-information placement (GP).
    GpMutualInformation,
}

impl SelectorKind {
    fn build(&self, dataset_channels: &[String]) -> Result<Box<dyn Selector>> {
        Ok(match self {
            SelectorKind::NearMean => Box::new(NearMeanSelector),
            SelectorKind::StratifiedRandom => Box::new(StratifiedRandomSelector),
            SelectorKind::Random => Box::new(RandomSelector),
            SelectorKind::GpMutualInformation => Box::new(GpSelector),
            SelectorKind::Fixed(names) => {
                let mut indices = Vec::with_capacity(names.len());
                for n in names {
                    let idx = dataset_channels
                        .iter()
                        .position(|c| c == n)
                        .ok_or_else(|| CoreError::InvalidConfig {
                            reason: format!("fixed sensor {n:?} is not a modelled channel"),
                        })?;
                    indices.push(idx);
                }
                Box::new(FixedSelector::new("fixed", indices))
            }
        })
    }
}

/// Complete pipeline configuration. Construct with
/// [`ThermalPipeline::builder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalPipeline {
    similarity: Similarity,
    count: ClusterCount,
    selector: SelectorKind,
    per_cluster: usize,
    order: ModelOrder,
    seed: u64,
    restarts: usize,
}

impl ThermalPipeline {
    /// Starts building a pipeline with the paper's defaults
    /// (correlation similarity, eigengap cluster count up to 8,
    /// near-mean selection of one sensor per cluster, second-order
    /// model).
    pub fn builder() -> ThermalPipelineBuilder {
        ThermalPipelineBuilder::default()
    }

    /// The clustering similarity in use.
    pub fn similarity(&self) -> Similarity {
        self.similarity
    }

    /// The cluster-count policy in use.
    pub fn cluster_count(&self) -> ClusterCount {
        self.count
    }

    /// The selection strategy in use.
    pub fn selector(&self) -> &SelectorKind {
        &self.selector
    }

    /// The model order in use.
    pub fn model_order(&self) -> ModelOrder {
        self.order
    }

    /// Runs the three steps on `dataset`: cluster `sensor_channels`
    /// over `train_mask`, select representatives, and identify a
    /// reduced model of the selected sensors driven by
    /// `input_channels` by ridge least squares
    /// ([`thermal_sysid::identify`]: the normal equations summed over
    /// the gap-free pieces of `train_mask`, one block per piece).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] for empty channel lists,
    /// * stage errors from clustering, selection or identification.
    pub fn fit(
        &self,
        dataset: &Dataset,
        sensor_channels: &[&str],
        input_channels: &[&str],
        train_mask: &Mask,
    ) -> Result<ReducedModel> {
        let inputs = (dataset, sensor_channels, input_channels, train_mask);
        self.run(inputs, &mut GramCache::disabled(), None)
    }

    /// Runs the steps of [`ThermalPipeline::fit`] with the
    /// identification stage memoizing its normal-equation blocks, one
    /// per gap-free piece of `train_mask`, in a caller-owned
    /// [`GramCache`] ([`thermal_sysid::identify_with_cache`]), so
    /// repeated fits over the same dataset and spec (sweeps, refits,
    /// fleet warm restarts) reuse them. The model is bit-identical to
    /// [`ThermalPipeline::fit`]'s whatever the cache holds.
    ///
    /// Callers sharing one cache across tenants (e.g. buildings of a
    /// fleet) must set a distinct [`GramCache::set_namespace`] per
    /// tenant before each fit; the namespace partitions keys
    /// structurally so tenants can never observe each other's blocks.
    ///
    /// # Errors
    ///
    /// As [`ThermalPipeline::fit`].
    pub fn fit_with_cache(
        &self,
        dataset: &Dataset,
        sensor_channels: &[&str],
        input_channels: &[&str],
        train_mask: &Mask,
        cache: &mut GramCache,
    ) -> Result<ReducedModel> {
        let inputs = (dataset, sensor_channels, input_channels, train_mask);
        self.run(inputs, cache, None)
    }

    /// Runs [`ThermalPipeline::fit`] with each of the three stages
    /// checkpointed in `store` under `{prefix}-{stage}.ck` names.
    ///
    /// A stage whose verified checkpoint matches the *fingerprint* of
    /// the current inputs (dataset bits, channel lists, mask, and the
    /// full pipeline configuration) is restored instead of
    /// recomputed; everything downstream of the first miss runs
    /// fresh and is committed atomically. Because every stage is
    /// bitwise deterministic, a resumed fit returns a model equal to
    /// an uninterrupted one — the returned [`FitResume`] says which
    /// path each stage took.
    ///
    /// # Errors
    ///
    /// As [`ThermalPipeline::fit`], plus [`CoreError::Checkpoint`]
    /// for store I/O failures. Corrupt or stale checkpoints are *not*
    /// errors — they are recomputed.
    pub fn fit_checkpointed(
        &self,
        dataset: &Dataset,
        sensor_channels: &[&str],
        input_channels: &[&str],
        train_mask: &Mask,
        store: &mut CheckpointStore,
        prefix: &str,
    ) -> Result<(ReducedModel, FitResume)> {
        let fingerprint =
            checkpoint::fit_fingerprint(self, dataset, sensor_channels, input_channels, train_mask);
        let mut resume = Resume {
            store,
            prefix,
            fingerprint,
            report: FitResume::default(),
        };
        let inputs = (dataset, sensor_channels, input_channels, train_mask);
        let model = self.run(inputs, &mut GramCache::disabled(), Some(&mut resume))?;
        Ok((model, resume.report))
    }

    /// The three steps, each resumed from `resume` when one is given:
    /// cluster the sensors, select representatives, and identify the
    /// selected sensors over `cache`.
    fn run(
        &self,
        inputs: FitInputs<'_>,
        cache: &mut GramCache,
        mut resume: Option<&mut Resume<'_>>,
    ) -> Result<ReducedModel> {
        let (dataset, sensor_channels, _, train_mask) = inputs;
        if sensor_channels.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "pipeline needs at least one sensor channel".to_owned(),
            });
        }
        let owned_names: Vec<String> = sensor_channels.iter().map(|s| (*s).to_owned()).collect();

        // Step 1: cluster the dense deployment.
        let trajectories = Trajectories::new(dataset, sensor_channels, train_mask);
        let clustering = resume_stage(
            resume.as_deref_mut(),
            "cluster",
            checkpoint::decode_clustering,
            checkpoint::encode_clustering,
            || self.cluster_stage(&trajectories),
        )?;

        // Step 2: select representative sensors (with ranked backups).
        let selection = resume_stage(
            resume.as_deref_mut(),
            "select",
            checkpoint::decode_selection,
            checkpoint::encode_selection,
            || self.select_stage(&trajectories, &clustering, &owned_names),
        )?;

        // Step 3: identify the simplified model on the selected
        // sensors.
        let (selected, model) = resume_stage(
            resume,
            "model",
            checkpoint::decode_model,
            |(selected, model), fp| checkpoint::encode_model(selected, model, fp),
            || self.identify_stage(inputs, &selection, &owned_names, cache),
        )?;

        let reduced = ReducedModel::new(owned_names, clustering, selection, selected, model);
        Ok(reduced)
    }

    /// Stage 1: spectral clustering of the trajectory matrix. The
    /// correlation weights read the shared centred Gram.
    fn cluster_stage(&self, trajectories: &Trajectories<'_>) -> Result<Clustering> {
        let weights = match self.similarity {
            Similarity::Correlation => correlation_weights(trajectories.gram()?)?,
            Similarity::Euclidean { .. } => weight_matrix(trajectories.matrix()?, self.similarity)?,
        };
        Ok(cluster_graph(
            &weights,
            self.count,
            self.restarts,
            self.seed,
        )?)
    }

    /// Stage 2: representative selection, with each cluster's
    /// remaining members ranked as backups so operation can degrade
    /// gracefully when a representative dies (see
    /// [`ReducedModel::evaluate_degraded`]). GP selection reads the
    /// shared centred Gram.
    fn select_stage(
        &self,
        trajectories: &Trajectories<'_>,
        clustering: &Clustering,
        owned_names: &[String],
    ) -> Result<Selection> {
        let selection_input = SelectionInput {
            trajectories: trajectories.matrix()?,
            clustering,
            per_cluster: self.per_cluster,
            seed: self.seed,
        };
        let selection = match &self.selector {
            SelectorKind::GpMutualInformation => {
                GpSelector.select_with_gram(&selection_input, trajectories.gram()?)?
            }
            kind => kind.build(owned_names)?.select(&selection_input)?,
        };
        Ok(rank_backups(&selection_input, &selection)?)
    }

    /// Stage 3: least-squares identification on the selected sensors.
    fn identify_stage(
        &self,
        inputs: FitInputs<'_>,
        selection: &Selection,
        owned_names: &[String],
        cache: &mut GramCache,
    ) -> Result<(Vec<String>, ThermalModel)> {
        let (dataset, _, input_channels, train_mask) = inputs;
        let selected: Vec<String> = selection
            .sensors()
            .into_iter()
            .map(|i| owned_names[i].clone())
            .collect();
        let spec = ModelSpec::new(
            selected.clone(),
            input_channels.iter().map(|s| (*s).to_owned()).collect(),
            self.order,
        )?;
        let model = identify_with_cache(dataset, &spec, train_mask, &identify_config(), cache)?;
        Ok((selected, model))
    }
}

/// A fit's dataset, sensor channels, input channels and training mask.
type FitInputs<'a> = (&'a Dataset, &'a [&'a str], &'a [&'a str], &'a Mask);

/// The least-squares configuration of the identify stage. It is not
/// a pipeline field, so [`checkpoint::fit_fingerprint`] hashes its
/// ridge on its own.
pub(crate) fn identify_config() -> FitConfig {
    FitConfig::default()
}

/// A checkpointed fit: the store and name prefix of its stage
/// records, the fingerprint they are stamped with, and what each
/// stage did.
struct Resume<'s> {
    store: &'s mut CheckpointStore,
    prefix: &'s str,
    fingerprint: u64,
    report: FitResume,
}

/// Runs one stage. Without `resume` it computes. With it, the stage
/// is restored from `{prefix}-{label}.ck` when that record decodes
/// under the fingerprint, and is otherwise computed, committed and
/// reported as computed.
fn resume_stage<T>(
    resume: Option<&mut Resume<'_>>,
    label: &'static str,
    decode: fn(&[u8], u64) -> Option<T>,
    encode: fn(&T, u64) -> Vec<u8>,
    compute: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let Some(resume) = resume else {
        return compute();
    };
    let name = format!("{}-{label}.ck", resume.prefix);
    let stored = resume.store.get(&name)?;
    if let Some(restored) = stored.and_then(|bytes| decode(&bytes, resume.fingerprint)) {
        resume.report.restored.push(label);
        return Ok(restored);
    }
    let computed = compute()?;
    let record = encode(&computed, resume.fingerprint);
    resume.store.put(&name, &record)?;
    resume.report.computed.push(label);
    Ok(computed)
}

/// One fit's trajectory matrix ([`trajectory_matrix`]) and its
/// centred Gram ([`stats::centred_gram`]), each built on first use. A
/// fit whose cluster and select stages are both restored from
/// checkpoints builds neither; a fit that computes either stage builds
/// the matrix once. Correlation clustering and GP selection both read
/// the Gram, so a fit that runs either computes it once, and a fit that
/// runs neither never does.
struct Trajectories<'a> {
    dataset: &'a Dataset,
    channels: &'a [&'a str],
    mask: &'a Mask,
    matrix: OnceCell<Matrix>,
    gram: OnceCell<Matrix>,
}

impl<'a> Trajectories<'a> {
    fn new(dataset: &'a Dataset, channels: &'a [&'a str], mask: &'a Mask) -> Self {
        Trajectories {
            dataset,
            channels,
            mask,
            matrix: OnceCell::new(),
            gram: OnceCell::new(),
        }
    }

    fn matrix(&self) -> Result<&Matrix> {
        if let Some(matrix) = self.matrix.get() {
            return Ok(matrix);
        }
        let built = trajectory_matrix(self.dataset, self.channels, self.mask)?;
        Ok(self.matrix.get_or_init(|| built))
    }

    fn gram(&self) -> Result<&Matrix> {
        if let Some(gram) = self.gram.get() {
            return Ok(gram);
        }
        let gram = stats::centred_gram(self.matrix()?);
        Ok(self.gram.get_or_init(|| gram))
    }
}

/// Builder for [`ThermalPipeline`].
#[derive(Debug, Clone)]
pub struct ThermalPipelineBuilder {
    similarity: Similarity,
    count: ClusterCount,
    selector: SelectorKind,
    per_cluster: usize,
    order: ModelOrder,
    seed: u64,
    restarts: usize,
}

impl Default for ThermalPipelineBuilder {
    fn default() -> Self {
        ThermalPipelineBuilder {
            similarity: Similarity::correlation(),
            count: ClusterCount::Eigengap { max: 8 },
            selector: SelectorKind::NearMean,
            per_cluster: 1,
            order: ModelOrder::Second,
            seed: 7,
            restarts: 8,
        }
    }
}

impl ThermalPipelineBuilder {
    /// Sets the clustering similarity.
    pub fn similarity(&mut self, similarity: Similarity) -> &mut Self {
        self.similarity = similarity;
        self
    }

    /// Sets the cluster-count policy.
    pub fn cluster_count(&mut self, count: ClusterCount) -> &mut Self {
        self.count = count;
        self
    }

    /// Sets the selection strategy.
    pub fn selector(&mut self, selector: SelectorKind) -> &mut Self {
        self.selector = selector;
        self
    }

    /// Sets how many sensors to keep per cluster.
    pub fn per_cluster(&mut self, per_cluster: usize) -> &mut Self {
        self.per_cluster = per_cluster;
        self
    }

    /// Sets the dynamic order of the identified model.
    pub fn model_order(&mut self, order: ModelOrder) -> &mut Self {
        self.order = order;
        self
    }

    /// Sets the seed shared by the stochastic stages.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the k-means restart count.
    pub fn restarts(&mut self, restarts: usize) -> &mut Self {
        self.restarts = restarts;
        self
    }

    /// Finalises the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero `per_cluster`
    /// or zero `restarts`.
    pub fn build(&self) -> Result<ThermalPipeline> {
        if self.per_cluster == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "per_cluster must be at least 1".to_owned(),
            });
        }
        if self.restarts == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "restarts must be at least 1".to_owned(),
            });
        }
        Ok(ThermalPipeline {
            similarity: self.similarity,
            count: self.count,
            selector: self.selector.clone(),
            per_cluster: self.per_cluster,
            order: self.order,
            seed: self.seed,
            restarts: self.restarts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermal_sysid::identify;
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    /// A small synthetic dataset with two sensor families driven by
    /// one input.
    fn synth_dataset() -> Dataset {
        let n = 240;
        let u: Vec<f64> = (0..n)
            .map(|k| 0.5 + 0.5 * (k as f64 * 0.13).sin())
            .collect();
        // Family A: strongly driven by u; family B: anti-driven.
        let mut families: Vec<Vec<f64>> = Vec::new();
        for (gain, base) in [
            (1.0, 20.0),
            (0.9, 20.1),
            (1.1, 19.9),
            (-1.0, 22.0),
            (-0.9, 22.1),
        ] {
            let mut t = vec![base];
            for k in 0..n - 1 {
                let drive: f64 = gain * u[k];
                let salt = thermal_linalg::cast::floor_to_index(gain * 10.0, usize::MAX - 1);
                let wiggle = 0.01 * (((k * 31 + salt) % 17) as f64 / 17.0);
                t.push(0.9 * t[k] + 0.1 * base + drive * 0.2 + wiggle);
            }
            families.push(t);
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, n).unwrap();
        let mut channels = vec![Channel::from_values("u", u).unwrap()];
        for (i, t) in families.into_iter().enumerate() {
            channels.push(Channel::from_values(format!("s{i}"), t).unwrap());
        }
        Dataset::new(grid, channels).unwrap()
    }

    #[test]
    fn builder_defaults_and_validation() {
        let p = ThermalPipeline::builder().build().unwrap();
        assert_eq!(p.model_order(), ModelOrder::Second);
        assert_eq!(p.selector(), &SelectorKind::NearMean);
        assert!(ThermalPipeline::builder().per_cluster(0).build().is_err());
        assert!(ThermalPipeline::builder().restarts(0).build().is_err());
    }

    #[test]
    fn full_pipeline_runs_end_to_end() {
        let ds = synth_dataset();
        let sensors = ["s0", "s1", "s2", "s3", "s4"];
        let pipeline = ThermalPipeline::builder()
            .cluster_count(ClusterCount::Fixed(2))
            .model_order(ModelOrder::First)
            .seed(3)
            .build()
            .unwrap();
        let reduced = pipeline
            .fit(&ds, &sensors, &["u"], &Mask::all(ds.grid()))
            .unwrap();
        assert_eq!(reduced.clustering().k(), 2);
        assert_eq!(reduced.selected_channels().len(), 2);
        // The two representatives come from the two families.
        let sel = reduced.selected_channels();
        let fam = |name: &str| {
            let idx: usize = name[1..].parse().unwrap();
            usize::from(idx >= 3)
        };
        assert_ne!(fam(&sel[0]), fam(&sel[1]));
    }

    #[test]
    fn fixed_selector_by_name() {
        let ds = synth_dataset();
        let sensors = ["s0", "s1", "s2", "s3", "s4"];
        let pipeline = ThermalPipeline::builder()
            .cluster_count(ClusterCount::Fixed(2))
            .selector(SelectorKind::Fixed(vec!["s1".into(), "s4".into()]))
            .model_order(ModelOrder::First)
            .build()
            .unwrap();
        let reduced = pipeline
            .fit(&ds, &sensors, &["u"], &Mask::all(ds.grid()))
            .unwrap();
        let mut names = reduced.selected_channels().to_vec();
        names.sort();
        assert_eq!(names, vec!["s1".to_owned(), "s4".to_owned()]);
        // Unknown fixed name is rejected.
        let bad = ThermalPipeline::builder()
            .selector(SelectorKind::Fixed(vec!["zz".into()]))
            .build()
            .unwrap();
        assert!(matches!(
            bad.fit(&ds, &sensors, &["u"], &Mask::all(ds.grid())),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    /// The pipeline with 2 fixed clusters and seed 3, for `selector`
    /// (SMS, the default, or GP, which reads the shared Gram).
    fn two_cluster_pipeline(selector: &SelectorKind, order: ModelOrder) -> ThermalPipeline {
        ThermalPipeline::builder()
            .cluster_count(ClusterCount::Fixed(2))
            .selector(selector.clone())
            .model_order(order)
            .seed(3)
            .build()
            .unwrap()
    }

    const SELECTORS: [SelectorKind; 2] =
        [SelectorKind::NearMean, SelectorKind::GpMutualInformation];

    #[test]
    fn checkpointed_fit_matches_plain_fit_cold_and_warm() {
        let ds = synth_dataset();
        let sensors = ["s0", "s1", "s2", "s3", "s4"];
        let mask = Mask::all(ds.grid());
        for (case, selector) in SELECTORS.iter().enumerate() {
            let pipeline = two_cluster_pipeline(selector, ModelOrder::First);
            let plain = pipeline.fit(&ds, &sensors, &["u"], &mask).unwrap();

            let root =
                std::env::temp_dir().join(format!("core-fit-ckpt-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let mut store = CheckpointStore::open(&root, 3, "test").unwrap();

            // Cold: every stage computed, result identical to plain fit.
            let (cold, resume) = pipeline
                .fit_checkpointed(&ds, &sensors, &["u"], &mask, &mut store, "fit")
                .unwrap();
            assert_eq!(cold, plain, "{selector:?}");
            assert_eq!(resume.computed, vec!["cluster", "select", "model"]);
            assert!(resume.restored.is_empty());

            // Warm (fresh store handle, same dir): every stage restored,
            // result still identical.
            drop(store);
            let mut store = CheckpointStore::open(&root, 3, "test").unwrap();
            assert_eq!(store.open_report().restored, 3);
            let (warm, resume) = pipeline
                .fit_checkpointed(&ds, &sensors, &["u"], &mask, &mut store, "fit")
                .unwrap();
            assert_eq!(warm, plain, "{selector:?}");
            assert_eq!(resume.restored, vec!["cluster", "select", "model"]);
            assert!(resume.computed.is_empty());

            // Changing the config invalidates the fingerprint: all
            // stages recompute rather than restoring stale state.
            let other = two_cluster_pipeline(selector, ModelOrder::Second);
            let (_, resume) = other
                .fit_checkpointed(&ds, &sensors, &["u"], &mask, &mut store, "fit")
                .unwrap();
            assert_eq!(resume.computed, vec!["cluster", "select", "model"]);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn checkpointed_fit_recovers_from_corrupted_stage() {
        let ds = synth_dataset();
        let sensors = ["s0", "s1", "s2", "s3", "s4"];
        let mask = Mask::all(ds.grid());
        for (case, selector) in SELECTORS.iter().enumerate() {
            let pipeline = two_cluster_pipeline(selector, ModelOrder::First);
            let root = std::env::temp_dir()
                .join(format!("core-fit-corrupt-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let mut store = CheckpointStore::open(&root, 3, "test").unwrap();
            let (full, _) = pipeline
                .fit_checkpointed(&ds, &sensors, &["u"], &mask, &mut store, "fit")
                .unwrap();
            drop(store);

            // Corrupt the select-stage checkpoint on disk: the cluster
            // stage is restored, so GP computes the Gram on its own.
            std::fs::write(root.join("fit-select.ck"), b"scrambled").unwrap();
            let mut store = CheckpointStore::open(&root, 3, "test").unwrap();
            assert_eq!(
                store.open_report().quarantined,
                vec!["fit-select.ck".to_string()]
            );
            let (recovered, resume) = pipeline
                .fit_checkpointed(&ds, &sensors, &["u"], &mask, &mut store, "fit")
                .unwrap();
            assert_eq!(recovered, full, "{selector:?}");
            assert_eq!(resume.restored, vec!["cluster", "model"]);
            assert_eq!(resume.computed, vec!["select"]);
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    /// A model record tagged `core-model-v1`, the tag of models whose
    /// ridge fit ran one chain across every segment, is recomputed on
    /// resume: a gappy mask would otherwise restore coefficients of the
    /// old arithmetic. The cluster and select records are restored.
    #[test]
    fn checkpointed_fit_recomputes_a_model_of_the_old_tag() {
        let ds = synth_dataset();
        let sensors = ["s0", "s1", "s2", "s3", "s4"];
        let mask = Mask::all(ds.grid());
        let pipeline = two_cluster_pipeline(&SelectorKind::NearMean, ModelOrder::First);
        let root = std::env::temp_dir().join(format!("core-fit-retag-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = CheckpointStore::open(&root, 3, "test").unwrap();
        let (full, _) = pipeline
            .fit_checkpointed(&ds, &sensors, &["u"], &mask, &mut store, "fit")
            .unwrap();
        let record = String::from_utf8(store.get("fit-model.ck").unwrap().unwrap()).unwrap();
        let old = record.replacen("record core-model-v2\n", "record core-model-v1\n", 1);
        assert_ne!(old, record);
        store.put("fit-model.ck", old.as_bytes()).unwrap();
        let (resumed, resume) = pipeline
            .fit_checkpointed(&ds, &sensors, &["u"], &mask, &mut store, "fit")
            .unwrap();
        assert_eq!(resumed, full);
        assert_eq!(resume.restored, vec!["cluster", "select"]);
        assert_eq!(resume.computed, vec!["model"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The public stages up to selection, as the pipeline with 2 fixed
    /// clusters and seed 3 runs them: `trajectory_matrix` →
    /// `weight_matrix` → `cluster_graph` → `Selector::select` →
    /// `rank_backups`.
    fn staged_selection(
        ds: &Dataset,
        sensors: &[&str],
        mask: &Mask,
        similarity: Similarity,
        selector: &SelectorKind,
    ) -> (Clustering, Selection) {
        let traj = trajectory_matrix(ds, sensors, mask).unwrap();
        let weights = weight_matrix(&traj, similarity).unwrap();
        let clustering = cluster_graph(&weights, ClusterCount::Fixed(2), 8, 3).unwrap();
        let input = SelectionInput {
            trajectories: &traj,
            clustering: &clustering,
            per_cluster: 1,
            seed: 3,
        };
        let chosen = match selector {
            SelectorKind::GpMutualInformation => GpSelector.select(&input),
            _ => NearMeanSelector.select(&input),
        }
        .unwrap();
        let selection = rank_backups(&input, &chosen).unwrap();
        (clustering, selection)
    }

    /// `fit` shares one centred Gram between correlation clustering and
    /// GP selection; the public stages compute their own. Every fit
    /// method gives the staged route's model bit for bit (`{:?}` prints
    /// every float exactly, signed zeros included) for SMS and GP under
    /// both similarities, at first and second order, on a gap-free
    /// mask and on one with two gaps: `fit`, a cold and a warm
    /// `fit_checkpointed` and `fit_with_cache` all equal the one
    /// reference ending in `identify`, which `identify_with_cache` over
    /// a fresh cache equals too.
    #[test]
    fn pipeline_equals_public_stages() {
        let ds = synth_dataset();
        let sensors = ["s0", "s1", "s2", "s3", "s4"];
        let names: Vec<String> = sensors.iter().map(|s| (*s).to_owned()).collect();
        let mut gappy = Mask::all(ds.grid());
        for slot in (80..90).chain(150..155) {
            gappy.set(slot, false).unwrap();
        }
        let root = std::env::temp_dir().join(format!("core-fit-stages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = CheckpointStore::open(&root, 3, "test").unwrap();
        let mut cases = Vec::new();
        for (gaps, mask) in [(false, Mask::all(ds.grid())), (true, gappy)] {
            for order in [ModelOrder::First, ModelOrder::Second] {
                for similarity in [Similarity::correlation(), Similarity::euclidean()] {
                    for selector in &SELECTORS {
                        cases.push((gaps, mask.clone(), order, similarity, selector));
                    }
                }
            }
        }
        let stages = vec!["cluster", "select", "model"];
        for (n, (gaps, mask, order, similarity, selector)) in cases.into_iter().enumerate() {
            let case = format!("{similarity} {selector:?} {order:?} gaps={gaps}");
            let pipeline = ThermalPipeline::builder()
                .similarity(similarity)
                .cluster_count(ClusterCount::Fixed(2))
                .selector(selector.clone())
                .model_order(order)
                .seed(3)
                .build()
                .unwrap();
            let (clustering, selection) =
                staged_selection(&ds, &sensors, &mask, similarity, selector);
            let selected: Vec<String> = selection
                .sensors()
                .into_iter()
                .map(|i| names[i].clone())
                .collect();
            let spec = ModelSpec::new(selected.clone(), vec!["u".to_owned()], order).unwrap();
            let fit = FitConfig::default();
            let model = identify(&ds, &spec, &mask, &fit).unwrap();
            let engine =
                identify_with_cache(&ds, &spec, &mask, &fit, &mut GramCache::new()).unwrap();
            assert_eq!(
                format!("{:?}", model.coefficients()),
                format!("{:?}", engine.coefficients()),
                "{case}: one arithmetic with and without a cache"
            );
            let reduced = ReducedModel::new(names.clone(), clustering, selection, selected, model);
            let staged = format!("{reduced:?}");

            let fitted = pipeline.fit(&ds, &sensors, &["u"], &mask).unwrap();
            assert_eq!(format!("{fitted:?}"), staged, "{case}");
            let prefix = format!("c{n}");
            let (cold, resume) = pipeline
                .fit_checkpointed(&ds, &sensors, &["u"], &mask, &mut store, &prefix)
                .unwrap();
            assert_eq!(resume.computed, stages, "{case}");
            assert_eq!(format!("{cold:?}"), staged, "{case}");
            let (warm, resume) = pipeline
                .fit_checkpointed(&ds, &sensors, &["u"], &mask, &mut store, &prefix)
                .unwrap();
            assert_eq!(resume.restored, stages, "{case}");
            assert_eq!(format!("{warm:?}"), staged, "{case}");
            let cached = pipeline
                .fit_with_cache(&ds, &sensors, &["u"], &mask, &mut GramCache::new())
                .unwrap();
            assert_eq!(format!("{cached:?}"), staged, "{case}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_sensor_list_rejected() {
        let ds = synth_dataset();
        let pipeline = ThermalPipeline::builder().build().unwrap();
        assert!(matches!(
            pipeline.fit(&ds, &[], &["u"], &Mask::all(ds.grid())),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
