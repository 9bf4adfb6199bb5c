//! Checkpoint codecs and input fingerprints for the resumable
//! pipeline ([`crate::ThermalPipeline::fit_checkpointed`]).
//!
//! Each pipeline stage persists its result as a bit-exact
//! [`thermal_ckpt::codec::Record`] stamped with a *fingerprint* of
//! everything the stage's output depends on: the dataset contents,
//! the channel lists, the training mask, and the full pipeline
//! configuration. On resume a checkpoint is only honoured when its
//! fingerprint matches the current inputs — edit the config or the
//! data and every stale stage silently recomputes. Decoding failures
//! are likewise treated as a cache miss, never an abort:
//! recomputation is always safe.

use thermal_ckpt::codec::Record;
use thermal_ckpt::Fnv64;
use thermal_cluster::Clustering;
use thermal_linalg::Matrix;
use thermal_select::Selection;
use thermal_sysid::{ModelOrder, ModelSpec, ThermalModel};
use thermal_timeseries::{Dataset, Mask};

use crate::pipeline::{identify_config, ThermalPipeline};

/// What [`crate::ThermalPipeline::fit_checkpointed`] restored versus
/// recomputed, for reporting and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FitResume {
    /// Stage labels restored from verified checkpoints.
    pub restored: Vec<&'static str>,
    /// Stage labels that were (re)computed and committed.
    pub computed: Vec<&'static str>,
}

/// Fingerprint of the data a fit depends on: grid geometry, the
/// named channels' exact sample bits, the mask, and the channel
/// lists themselves. Shared with `thermal-bench`'s grid runners.
pub fn dataset_fingerprint(
    dataset: &Dataset,
    sensor_channels: &[&str],
    input_channels: &[&str],
    mask: &Mask,
) -> u64 {
    let mut h = Fnv64::new();
    let grid = dataset.grid();
    h.update(&grid.start().as_minutes().to_le_bytes());
    h.update(&u64::from(grid.step_minutes()).to_le_bytes());
    h.update(&(grid.len() as u64).to_le_bytes());
    for name in sensor_channels.iter().chain(input_channels.iter()) {
        h.update(name.as_bytes());
        h.update(&[0]);
        if let Some(channel) = dataset.channel(name) {
            for v in channel.iter_slots() {
                match v {
                    Some(x) => {
                        h.update(&[1]);
                        h.update(&x.to_bits().to_le_bytes());
                    }
                    None => h.update(&[2]),
                }
            }
        } else {
            h.update(&[3]);
        }
    }
    for &b in mask.bits() {
        h.update(&[u8::from(b)]);
    }
    h.finish()
}

/// Fingerprint of everything a checkpointed fit depends on: the
/// dataset fingerprint, the pipeline's full configuration (via its
/// `Debug` form, which covers every field) and the ridge of the
/// identify stage, which is not a pipeline field.
pub(crate) fn fit_fingerprint(
    pipeline: &ThermalPipeline,
    dataset: &Dataset,
    sensor_channels: &[&str],
    input_channels: &[&str],
    mask: &Mask,
) -> u64 {
    let mut h = Fnv64::new();
    h.update(&dataset_fingerprint(dataset, sensor_channels, input_channels, mask).to_le_bytes());
    h.update(format!("{pipeline:?}").as_bytes());
    h.update(&identify_config().ridge.to_bits().to_le_bytes());
    h.finish()
}

const CLUSTER_TAG: &str = "core-cluster-v1";
const SELECT_TAG: &str = "core-select-v1";
const MODEL_TAG: &str = "core-model-v1";

/// Decodes a `tag` record stamped with `fingerprint`; `None` when the
/// framing, the tag or the fingerprint does not match.
fn stamped(bytes: &[u8], tag: &str, fingerprint: u64) -> Option<Record> {
    let r = Record::decode(bytes, tag).ok()?;
    (r.get_u64("fp").ok()? == fingerprint).then_some(r)
}

/// Encodes a clustering stage result.
pub(crate) fn encode_clustering(c: &Clustering, fingerprint: u64) -> Vec<u8> {
    let mut r = Record::new(CLUSTER_TAG);
    r.put_u64("fp", fingerprint)
        .put_usize("k", c.k())
        .put_usize_slice("assignments", c.assignments())
        .put_f64_slice("eigenvalues", c.eigenvalues());
    r.encode()
}

/// Decodes a clustering checkpoint; `None` on fingerprint mismatch
/// or any malformation (cache miss → recompute).
pub(crate) fn decode_clustering(bytes: &[u8], fingerprint: u64) -> Option<Clustering> {
    let r = stamped(bytes, CLUSTER_TAG, fingerprint)?;
    let k = r.get_usize("k").ok()?;
    let assignments = r.get_usize_slice("assignments").ok()?;
    let eigenvalues = r.get_f64_slice("eigenvalues").ok()?;
    Some(
        Clustering::from_assignments(assignments, k)
            .ok()?
            .with_eigenvalues(eigenvalues),
    )
}

/// Encodes a selection stage result (representatives + backups).
pub(crate) fn encode_selection(s: &Selection, fingerprint: u64) -> Vec<u8> {
    let mut r = Record::new(SELECT_TAG);
    r.put_u64("fp", fingerprint)
        .put_usize("clusters", s.per_cluster().len());
    for (i, reps) in s.per_cluster().iter().enumerate() {
        r.put_usize_slice(&format!("pc{i}"), reps);
    }
    r.put_usize("backup_lists", s.backup_lists().len());
    for (i, backups) in s.backup_lists().iter().enumerate() {
        r.put_usize_slice(&format!("bk{i}"), backups);
    }
    r.encode()
}

/// Decodes a selection checkpoint; `None` on mismatch/malformation.
pub(crate) fn decode_selection(bytes: &[u8], fingerprint: u64) -> Option<Selection> {
    let r = stamped(bytes, SELECT_TAG, fingerprint)?;
    let clusters = r.get_usize("clusters").ok()?;
    let mut per_cluster = Vec::with_capacity(clusters);
    for i in 0..clusters {
        per_cluster.push(r.get_usize_slice(&format!("pc{i}")).ok()?);
    }
    let selection = Selection::new(per_cluster).ok()?;
    let backup_lists = r.get_usize("backup_lists").ok()?;
    if backup_lists == 0 {
        return Some(selection);
    }
    let mut backups = Vec::with_capacity(backup_lists);
    for i in 0..backup_lists {
        backups.push(r.get_usize_slice(&format!("bk{i}")).ok()?);
    }
    selection.with_backups(backups).ok()
}

/// Encodes the identification stage result: the selected channel
/// names plus the identified model (spec + coefficient bits).
pub(crate) fn encode_model(selected: &[String], model: &ThermalModel, fingerprint: u64) -> Vec<u8> {
    let spec = model.spec();
    let mut r = Record::new(MODEL_TAG);
    r.put_u64("fp", fingerprint)
        .put_str_list("selected", selected)
        .put_str_list("outputs", &spec.outputs)
        .put_str_list("inputs", &spec.inputs)
        .put(
            "order",
            match spec.order {
                ModelOrder::First => "first",
                ModelOrder::Second => "second",
            },
        )
        .put_usize("rows", model.coefficients().rows())
        .put_usize("cols", model.coefficients().cols())
        .put_f64_slice("coef", model.coefficients().as_slice());
    r.encode()
}

/// Decodes an identification checkpoint; `None` on
/// mismatch/malformation.
pub(crate) fn decode_model(bytes: &[u8], fingerprint: u64) -> Option<(Vec<String>, ThermalModel)> {
    let r = stamped(bytes, MODEL_TAG, fingerprint)?;
    let selected = r.get_str_list("selected").ok()?;
    let outputs = r.get_str_list("outputs").ok()?;
    let inputs = r.get_str_list("inputs").ok()?;
    let order = match r.get("order").ok()?.as_str() {
        "first" => ModelOrder::First,
        "second" => ModelOrder::Second,
        _ => return None,
    };
    let spec = ModelSpec::new(outputs, inputs, order).ok()?;
    let rows = r.get_usize("rows").ok()?;
    let cols = r.get_usize("cols").ok()?;
    let coef = r.get_f64_slice("coef").ok()?;
    let coef = Matrix::from_vec(rows, cols, coef).ok()?;
    let model = ThermalModel::new(spec, coef).ok()?;
    Some((selected, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    fn tiny_dataset() -> Dataset {
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 5, 4).unwrap();
        let a = Channel::new("a", vec![Some(1.0), None, Some(3.0), Some(4.0)]).unwrap();
        let u = Channel::from_values("u", vec![0.0, 0.5, 1.0, 0.5]).unwrap();
        Dataset::new(grid, vec![a, u]).unwrap()
    }

    #[test]
    fn dataset_fingerprint_tracks_inputs() {
        let ds = tiny_dataset();
        let mask = Mask::all(ds.grid());
        let base = dataset_fingerprint(&ds, &["a"], &["u"], &mask);
        assert_eq!(base, dataset_fingerprint(&ds, &["a"], &["u"], &mask));
        // Channel list order and content both matter.
        assert_ne!(base, dataset_fingerprint(&ds, &["u"], &["a"], &mask));
        let mut other = Mask::all(ds.grid());
        other.set(0, false).unwrap();
        assert_ne!(base, dataset_fingerprint(&ds, &["a"], &["u"], &other));
    }

    /// 131 slots (not a multiple of 64) over three channels with gaps,
    /// `Some(0.0)` and `Some(-0.0)` beside gaps, and a gappy mask.
    fn gappy_fixture() -> (Dataset, Mask) {
        let n = 131;
        let slot = |k: usize, c: usize| match (k * 7 + c * 3) % 11 {
            0 | 5 => None,
            1 => Some(0.0),
            2 => Some(-0.0),
            _ => Some(20.0 + ((k * (c + 1)) as f64 * 0.37).sin()),
        };
        let channels = (0..3)
            .map(|c| Channel::new(format!("c{c}"), (0..n).map(|k| slot(k, c)).collect()).unwrap())
            .collect();
        let grid = TimeGrid::new(Timestamp::from_minutes(-45), 5, n).unwrap();
        let mask = Mask::from_bits((0..n).map(|k| k % 13 != 4).collect());
        (Dataset::new(grid, channels).unwrap(), mask)
    }

    /// Resumable stores key their records by this fingerprint, so its
    /// bytes are pinned: a change of channel storage must hash each
    /// slot exactly as before (tag `1` and the sample's bits, or tag
    /// `2` for a gap).
    #[test]
    fn dataset_fingerprint_value_is_pinned() {
        let (ds, mask) = gappy_fixture();
        assert_eq!(
            dataset_fingerprint(&ds, &["c0", "c2"], &["c1", "absent"], &mask),
            0x85e1_6285_f0bb_f7fb
        );
    }

    #[test]
    fn clustering_roundtrip_is_exact() {
        let c = Clustering::from_assignments(vec![0, 1, 0, 1], 2)
            .unwrap()
            .with_eigenvalues(vec![1.0, 0.8, 0.05]);
        let bytes = encode_clustering(&c, 99);
        assert_eq!(decode_clustering(&bytes, 99), Some(c.clone()));
        // Fingerprint mismatch is a cache miss, not an error.
        assert_eq!(decode_clustering(&bytes, 100), None);
        assert_eq!(decode_clustering(b"garbage", 99), None);
    }

    #[test]
    fn selection_roundtrip_preserves_backups() {
        let s = Selection::new(vec![vec![0], vec![3]])
            .unwrap()
            .with_backups(vec![vec![1, 2], vec![4]])
            .unwrap();
        let bytes = encode_selection(&s, 7);
        assert_eq!(decode_selection(&bytes, 7), Some(s.clone()));
        assert_eq!(decode_selection(&bytes, 8), None);
        // No backups round-trips too.
        let bare = Selection::new(vec![vec![2]]).unwrap();
        let bytes = encode_selection(&bare, 7);
        assert_eq!(decode_selection(&bytes, 7), Some(bare));
    }

    #[test]
    fn model_roundtrip_is_bit_exact() {
        let spec = ModelSpec::new(
            vec!["s0".into(), "s1".into()],
            vec!["u".into()],
            ModelOrder::Second,
        )
        .unwrap();
        let coef = Matrix::from_vec(
            2,
            5,
            vec![
                0.1,
                -0.2,
                0.3,
                1e-17,
                5.0,
                -0.5,
                0.25,
                f64::MIN_POSITIVE,
                2.0,
                0.0,
            ],
        )
        .unwrap();
        let model = ThermalModel::new(spec, coef).unwrap();
        let selected = vec!["s0".to_string(), "s1".into()];
        let bytes = encode_model(&selected, &model, 1234);
        let (sel, back) = decode_model(&bytes, 1234).unwrap();
        assert_eq!(sel, selected);
        assert_eq!(back, model);
        assert!(decode_model(&bytes, 0).is_none());
    }
}
