//! Memoized Gram/regressor blocks and the incremental fitting engine
//! behind the Fig. 5 parameter sweeps.
//!
//! The training-horizon sweep fits one model per window size, and the
//! windows are nested: the `n`-day window is the `n−1`-day window plus
//! one older day. Refitting every cell from scratch therefore
//! recomputes almost the same stacked least-squares problem over and
//! over. This module exploits the nesting:
//!
//! * admissible transitions are **monotone** in the mask — a
//!   transition `k` contributes iff slots `k−warmup+1 ..= k+1` are all
//!   jointly present and selected, and growing the day window only
//!   ever selects more slots — so each cell's regression problem is
//!   the previous cell's plus a *delta* of transition ranges;
//! * the normal equations are additive — `G = Σ xxᵀ` and `B = Σ xyᵀ`
//!   over transitions — so the delta is ingested by adding one block
//!   per range, and each cell factors `λI + G` once;
//! * per-range `(G, B)` blocks are memoized in a [`GramCache`] keyed
//!   by dataset/spec fingerprints and the transition range, so
//!   repeated sweeps over the same data (both Fig. 5 panels, bench
//!   reruns) skip the row assembly entirely.
//!
//! A block is Problem (4)'s sum over one gap-free piece: its rows, in
//! ascending transition order, fold into chains that start from `+0.0`
//! ([`crate::regressors`]' 128-row panel), and a fit adds its ranges'
//! blocks in ascending order to totals that start from `+0.0`. This is
//! the one ridge arithmetic: [`crate::identify`] is this engine over
//! [`GramCache::disabled`], and [`crate::identify_from_data`] sums the
//! stacked rows of each segment the same way.
//!
//! Determinism contract: a cache hit returns exactly the bytes the
//! miss path would have computed, and eviction is deterministic — the
//! oldest insert goes first once a block count or byte budget is
//! reached — so a fit produces bit-identical results with a cold
//! cache, a warm cache, or the cache disabled. See `DESIGN.md` § sweep
//! memoization.
//!
//! The engine solves the ridge normal equations, so `ridge == 0`
//! callers keep the QR solve of [`crate::identify_from_data`] over
//! [`crate::regressors::assemble`]d rows.

use std::collections::BTreeMap;

use thermal_ckpt::Fnv64;
use thermal_linalg::lstsq::RidgeNormalEquations;
use thermal_linalg::{CholeskyDecomposition, LinalgError, Matrix};
use thermal_timeseries::{Channel, Dataset, Mask};

use crate::regressors::{assemble, resolve_spec, RangeFold};
use crate::{identify_from_data, FitConfig, ModelSpec, Result, SysidError, ThermalModel};

/// The splitmix64 finalizer: spreads FNV's weak low bits before the
/// hash keys a cache block, and folds a channel's sample lanes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fingerprint of the model spec: output/input channel names and the
/// model order (which fixes `warmup` and the regressor width).
fn fingerprint_spec(spec: &ModelSpec) -> u64 {
    let mut h = Fnv64::new();
    for name in &spec.outputs {
        h.update(name.as_bytes());
        h.update(&[0xff]);
    }
    h.update(&[0xfe]);
    for name in &spec.inputs {
        h.update(name.as_bytes());
        h.update(&[0xff]);
    }
    h.update(&(spec.order.warmup() as u64).to_le_bytes());
    splitmix64(h.finish())
}

/// The word a gap contributes to [`fingerprint_samples`]: a quiet NaN.
/// [`thermal_timeseries::Channel`] rejects non-finite samples, so no
/// stored sample has this bit pattern.
const GAP_WORD: u64 = 0x7ff8_dead_beef_0a9f;

/// Odd multiplier of a [`fingerprint_samples`] lane step.
const LANE_MUL: u64 = 0x9fb2_1c65_1e98_df25;

/// Digest of a channel's samples, one 64-bit word per sample: a
/// present sample contributes its `to_bits()`, a gap [`GAP_WORD`].
///
/// Sample `t` goes to lane `t % 4`, and each lane steps
/// `s ← rotl((s ⊕ w) · LANE_MUL, 23)`. For a fixed word that step is a
/// bijection of the lane state, so changing any one sample changes its
/// lane's final state. The lanes are independent chains, so four of
/// them advance together. Each channel's lanes are folded through
/// splitmix64 together with the sample count.
///
/// The samples are read 64 per presence word; 64 is a multiple of the
/// four lanes, so slot `t` lands in lane `t % 4` in every word.
fn fingerprint_samples(channel: &Channel) -> u64 {
    let step = |s: u64, x: f64, present: u64| {
        let w = if present & 1 == 1 {
            x.to_bits()
        } else {
            GAP_WORD
        };
        (s ^ w).wrapping_mul(LANE_MUL).rotate_left(23)
    };
    // Distinct starting states (hex digits of π).
    let mut lanes = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let samples = channel.samples();
    for (chunk, &word) in samples.chunks(64).zip(channel.presence_words()) {
        let mut bits = word;
        let mut quads = chunk.chunks_exact(4);
        for quad in &mut quads {
            for (lane, &x) in lanes.iter_mut().zip(quad) {
                *lane = step(*lane, x, bits);
                bits >>= 1;
            }
        }
        for (lane, &x) in lanes.iter_mut().zip(quads.remainder()) {
            *lane = step(*lane, x, bits);
            bits >>= 1;
        }
    }
    lanes
        .iter()
        .fold(splitmix64(samples.len() as u64), |h, &lane| {
            splitmix64(h ^ lane)
        })
}

/// Fingerprint of the dataset *as the spec sees it*: the time grid
/// plus name and exact sample bits (including gaps) of every used
/// channel, in spec resolution order.
fn fingerprint_dataset(dataset: &Dataset, channels: &[usize]) -> u64 {
    let grid = dataset.grid();
    let mut h = Fnv64::new();
    h.update(&grid.start().as_minutes().to_le_bytes());
    h.update(&u64::from(grid.step_minutes()).to_le_bytes());
    h.update(&(grid.len() as u64).to_le_bytes());
    for &c in channels {
        let Ok(channel) = dataset.channel_at(c) else {
            // Unresolvable index: fold the index itself so the key
            // still differs from a dataset where it resolves.
            h.update(&(c as u64).to_le_bytes());
            continue;
        };
        h.update(channel.name().as_bytes());
        h.update(&[0xff]);
        h.update(&fingerprint_samples(channel).to_le_bytes());
    }
    splitmix64(h.finish())
}

/// Cache key of one memoized block: dataset and spec fingerprints
/// plus the half-open transition range `[start, end)` the block
/// covers. Equal keys imply bit-identical blocks by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockKey {
    /// Caller-assigned key namespace (see [`GramCache::with_namespace`]):
    /// a structural partition on top of the content fingerprints, so
    /// two tenants of a shared cache (e.g. two buildings of a fleet)
    /// can never observe each other's blocks even under fingerprint
    /// collision.
    namespace: u64,
    /// Fingerprint of the used channels' samples and the time grid.
    dataset: u64,
    /// Fingerprint of the model spec (channels + order).
    spec: u64,
    /// First transition index of the range.
    start: u64,
    /// One past the last transition index of the range.
    end: u64,
}

impl BlockKey {
    /// Slot hash: all fields mixed through splitmix64.
    fn slot_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        for field in [
            self.namespace,
            self.dataset,
            self.spec,
            self.start,
            self.end,
        ] {
            h.update(&field.to_le_bytes());
        }
        splitmix64(h.finish())
    }
}

/// Normal equations over a set of transitions: `gram = Σ x xᵀ` as a
/// packed upper triangle and `cross = Σ x yᵀ` (row-major `width × p`).
/// A memoized block covers one transition range, each entry one chain
/// from `+0.0` in ascending transition order; a fit's totals add its
/// ranges' blocks in ascending order.
#[derive(Debug, Clone)]
pub struct GramBlock {
    /// Upper triangle of the symmetric `width × width` Gram
    /// contribution, row-major and packed: row `i` holds columns
    /// `i..width`, so the block stores `width·(width+1)/2` entries.
    pub gram: Vec<f64>,
    /// Row-major `width × p` cross contribution.
    pub cross: Vec<f64>,
    /// Transitions (rows) the block was accumulated over.
    pub rows: usize,
}

/// Hit/miss/eviction counters of a [`GramCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a memoized block.
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Resident blocks dropped to make room for an insert (the oldest
    /// first), or replaced by a different key with the same 64-bit
    /// slot hash.
    pub evictions: u64,
}

/// Bytes of block storage a cache may hold, whatever its block count.
const BLOCK_BYTE_BUDGET: usize = 12 << 20;

/// Most blocks a default cache holds: [`GramCache::new`]'s `2^12`.
const DEFAULT_SLOT_BITS: u32 = 12;

impl GramBlock {
    /// The empty sums of `width` regressors and `p` targets.
    pub(crate) fn zeros(width: usize, p: usize) -> Self {
        GramBlock {
            gram: vec![0.0; width * (width + 1) / 2],
            cross: vec![0.0; width * p],
            rows: 0,
        }
    }

    /// Bytes of `f64` storage the block holds.
    fn bytes(&self) -> usize {
        (self.gram.len() + self.cross.len()) * std::mem::size_of::<f64>()
    }

    /// Adds `block` entry by entry.
    fn add(&mut self, block: &GramBlock) {
        for (acc, v) in self.gram.iter_mut().zip(&block.gram) {
            *acc += v;
        }
        for (acc, v) in self.cross.iter_mut().zip(&block.cross) {
            *acc += v;
        }
        self.rows += block.rows;
    }

    /// Adds the rows `piece` folded, then restarts its chains
    /// ([`RidgeNormalEquations::drain_into`]).
    pub(crate) fn drain(&mut self, piece: &mut RidgeNormalEquations) -> Result<()> {
        let rows = piece.rows();
        piece.drain_into(&mut self.gram, &mut self.cross)?;
        self.rows += rows;
        Ok(())
    }

    /// Solves `(λI + G) Θᵀ = B` by Cholesky for the model of `spec`,
    /// whose width and output count the sums must have: the packed
    /// triangle is mirrored into the dense `λI + G` once.
    pub(crate) fn solve(&self, spec: &ModelSpec, ridge: f64) -> Result<ThermalModel> {
        let (width, p) = (spec.regressor_width(), spec.output_count());
        let mut gram = Matrix::zeros(width, width);
        let mut rest = self.gram.as_slice();
        for i in 0..width {
            let (row, tail) = rest.split_at(width - i);
            gram.row_mut(i)[i..].copy_from_slice(row);
            for (j, &v) in row.iter().enumerate().skip(1) {
                gram[(i + j, i)] = v;
            }
            gram[(i, i)] += ridge;
            rest = tail;
        }
        let cross = Matrix::from_vec(width, p, self.cross.clone())?;
        let theta_t = CholeskyDecomposition::new(&gram)?.solve_matrix(&cross)?;
        ThermalModel::new(spec.clone(), theta_t.transpose())
    }
}

/// A resident block with its key and insertion number.
#[derive(Debug, Clone)]
struct Resident {
    key: BlockKey,
    block: GramBlock,
    /// Inserts before this one: the eviction order, oldest first.
    inserted: u64,
}

/// A bounded, deterministic memo table for [`GramBlock`]s.
///
/// Blocks are held by the full 64-bit slot hash of their key, so two
/// keys share a place only when all 64 bits of their hashes agree (the
/// newer then replaces the older). A cache holds at most its block
/// count and at most 12 MiB of block storage; an insert that would
/// exceed either first drops the oldest resident blocks, in insertion
/// order, and a block larger than the whole byte budget is not kept.
/// No clocks, no randomness: the same sequence of operations always
/// leaves the same table, which keeps sweep results bit-identical
/// whatever the cache history.
///
/// A cache costs nothing until its first insert. Resident bytes are at
/// most the 12 MiB budget plus about 200 bytes of bookkeeping per
/// block (map entry, key and two allocation headers): under 13 MiB for
/// the default 4,096 blocks, whatever the model widths.
#[derive(Debug, Clone)]
pub struct GramCache {
    /// Resident blocks by slot hash.
    blocks: BTreeMap<u64, Resident>,
    /// Most blocks resident at once; zero when disabled.
    capacity: usize,
    /// Sum of the resident blocks' [`GramBlock::bytes`].
    bytes: usize,
    /// Inserts so far: the next block's insertion number.
    inserts: u64,
    /// Key namespace stamped onto every lookup and insert.
    namespace: u64,
    stats: CacheStats,
}

impl GramCache {
    /// A cache of at most 4,096 blocks. A training-horizon sweep of the
    /// paper's 27 outputs and 7 inputs looks up 84 blocks per model
    /// order on a 30-day campaign, 12.1 KB each at first order (width
    /// 34) and 28.3 KB at second order (width 61): both orders' 168
    /// blocks, 3.4 MB, stay resident together.
    pub fn new() -> Self {
        Self::with_slot_bits(DEFAULT_SLOT_BITS)
    }

    /// A cache of at most `2^bits` blocks (`bits` is clamped to 16)
    /// within the same byte budget as [`GramCache::new`].
    pub fn with_slot_bits(bits: u32) -> Self {
        GramCache {
            capacity: 1_usize << bits.min(16),
            ..Self::disabled()
        }
    }

    /// A cache that never stores anything: every lookup misses, every
    /// insert is dropped. The differential tests use this to prove
    /// memoization does not change results, and one-shot sweeps, whose
    /// blocks nobody would read again, pass it.
    pub fn disabled() -> Self {
        GramCache {
            blocks: BTreeMap::new(),
            capacity: 0,
            bytes: 0,
            inserts: 0,
            namespace: 0,
            stats: CacheStats::default(),
        }
    }

    /// Assigns a key namespace (builder form). Every subsequent
    /// lookup and insert is stamped with `namespace`, so entries
    /// written under one namespace are structurally invisible to
    /// every other — the fleet gives each building its own namespace
    /// (its building ID), making cross-building hits impossible even
    /// if two buildings' dataset fingerprints were to collide.
    #[must_use]
    pub fn with_namespace(mut self, namespace: u64) -> Self {
        self.namespace = namespace;
        self
    }

    /// Re-assigns the key namespace in place. Existing entries keep
    /// the namespace they were inserted under (they become
    /// unreachable until the namespace is restored).
    pub fn set_namespace(&mut self, namespace: u64) {
        self.namespace = namespace;
    }

    /// The active key namespace.
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a block, lending the resident copy on a hit.
    fn get(&mut self, key: &BlockKey) -> Option<&GramBlock> {
        match self.blocks.get(&key.slot_hash()) {
            Some(resident) if resident.key == *key => {
                self.stats.hits += 1;
                Some(&resident.block)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a block, replacing a different resident key with the
    /// same slot hash and then dropping the oldest blocks until the
    /// new one fits.
    fn insert(&mut self, key: BlockKey, block: GramBlock) {
        let bytes = block.bytes();
        if self.capacity == 0 || bytes > BLOCK_BYTE_BUDGET {
            return;
        }
        let hash = key.slot_hash();
        if let Some(old) = self.blocks.remove(&hash) {
            self.bytes -= old.block.bytes();
            if old.key != key {
                self.stats.evictions += 1;
            }
        }
        while self.blocks.len() >= self.capacity || self.bytes + bytes > BLOCK_BYTE_BUDGET {
            let Some(oldest) = self
                .blocks
                .iter()
                .min_by_key(|(_, r)| r.inserted)
                .map(|(&h, _)| h)
            else {
                break;
            };
            if let Some(old) = self.blocks.remove(&oldest) {
                self.bytes -= old.block.bytes();
                self.stats.evictions += 1;
            }
        }
        self.bytes += bytes;
        self.blocks.insert(
            hash,
            Resident {
                key,
                block,
                inserted: self.inserts,
            },
        );
        self.inserts += 1;
    }
}

impl Default for GramCache {
    fn default() -> Self {
        Self::new()
    }
}

/// `new \ old` on sorted, disjoint, half-open ranges, or `None` when
/// `old` is not fully contained in `new` (the masks were not nested —
/// the engine then resets and re-ingests from scratch).
fn range_difference(new: &[(usize, usize)], old: &[(usize, usize)]) -> Option<Vec<(usize, usize)>> {
    for &(a, b) in old {
        if !new.iter().any(|&(na, nb)| na <= a && b <= nb) {
            return None;
        }
    }
    let mut out = Vec::new();
    for &(na, nb) in new {
        let mut cursor = na;
        for &(oa, ob) in old {
            if ob <= na || oa >= nb {
                continue;
            }
            if oa > cursor {
                out.push((cursor, oa));
            }
            cursor = cursor.max(ob);
        }
        if cursor < nb {
            out.push((cursor, nb));
        }
    }
    Some(out)
}

/// The incremental fitting engine: normal equations summed over a
/// growing family of masks.
///
/// Feed it masks from smallest to largest ([`SweepEngine::fit_mask`]);
/// each fit ingests only the transitions the previous mask did not
/// cover. Non-nested masks are handled by a deterministic reset (full
/// re-ingest), never by a wrong answer.
#[derive(Debug)]
pub(crate) struct SweepEngine<'a> {
    dataset: &'a Dataset,
    spec: &'a ModelSpec,
    /// Every spec channel, outputs then inputs: the channels whose
    /// joint presence bounds the transitions.
    channels: Vec<usize>,
    warmup: usize,
    ridge: f64,
    /// Dataset and spec fingerprints of the cache keys, computed by the
    /// first lookup in a cache that keeps blocks.
    fingerprints: Option<(u64, u64)>,
    /// The normal equations of every range ingested so far.
    totals: GramBlock,
    /// Transition ranges already ingested (sorted, disjoint).
    ingested: Vec<(usize, usize)>,
    /// One range's rows, folded into a block of its own.
    fold: RangeFold,
}

impl<'a> SweepEngine<'a> {
    /// Prepares an engine for `(dataset, spec, fit)`.
    ///
    /// # Errors
    ///
    /// * [`SysidError::InvalidSpec`] for `ridge == 0` (plain least
    ///   squares takes the QR path of [`crate::identify_from_data`]) or
    ///   unknown channels.
    pub fn new(dataset: &'a Dataset, spec: &'a ModelSpec, fit: &FitConfig) -> Result<Self> {
        if fit.ridge == 0.0 {
            return Err(SysidError::InvalidSpec {
                reason: "incremental sweep engine requires ridge > 0; \
                         use the QR full-refit path for plain least squares"
                    .to_owned(),
            });
        }
        let (outputs, inputs) = resolve_spec(dataset, spec)?;
        let channels = outputs.iter().chain(&inputs).copied().collect();
        Ok(SweepEngine {
            dataset,
            spec,
            channels,
            warmup: spec.order.warmup(),
            ridge: fit.ridge,
            fingerprints: None,
            totals: GramBlock::zeros(spec.regressor_width(), spec.output_count()),
            ingested: Vec::new(),
            fold: RangeFold::new(outputs, inputs, spec.order)?,
        })
    }

    /// Discards all accumulated state. Also the sweep driver's
    /// recovery hatch: after a failed `fit_mask` the totals may hold a
    /// partial delta, so the next cell must re-ingest from scratch.
    pub(crate) fn reset(&mut self) {
        self.totals.gram.fill(0.0);
        self.totals.cross.fill(0.0);
        self.totals.rows = 0;
        self.ingested.clear();
    }

    /// Admissible transition ranges of a mask: for every usable
    /// segment, `[start + warmup − 1, end − 1)`.
    fn transition_ranges(&self, mask: &Mask) -> Result<Vec<(usize, usize)>> {
        let joint = self.dataset.joint_presence(&self.channels, mask)?;
        Ok(joint
            .segments(self.warmup + 1)
            .map(|s| (s.start + self.warmup - 1, s.end - 1))
            .filter(|&(a, b)| a < b)
            .collect())
    }

    /// The cache key of transitions `[a, b)`.
    fn key(&mut self, (a, b): (usize, usize), namespace: u64) -> BlockKey {
        let (dataset, spec) = *self.fingerprints.get_or_insert_with(|| {
            let dataset = fingerprint_dataset(self.dataset, &self.channels);
            (dataset, fingerprint_spec(self.spec))
        });
        BlockKey {
            namespace,
            dataset,
            spec,
            start: a as u64,
            end: b as u64,
        }
    }

    /// Adds the normal equations of transitions `[a, b)` into the
    /// totals: the cached block on a hit, else the range folded afresh
    /// and stored. A cache that keeps nothing misses without a key, and
    /// the range then folds straight into the totals.
    fn ingest(&mut self, range: (usize, usize), cache: &mut GramCache) -> Result<()> {
        if cache.capacity == 0 {
            cache.stats.misses += 1;
            return self.fold.add_run(self.dataset, range, &mut self.totals);
        }
        let key = self.key(range, cache.namespace());
        let shape = (self.totals.gram.len(), self.totals.cross.len());
        if let Some(block) = cache
            .get(&key)
            .filter(|bl| (bl.gram.len(), bl.cross.len()) == shape)
        {
            self.totals.add(block);
            return Ok(());
        }
        let mut block = GramBlock::zeros(self.spec.regressor_width(), self.spec.output_count());
        self.fold.add_run(self.dataset, range, &mut block)?;
        self.totals.add(&block);
        cache.insert(key, block);
        Ok(())
    }

    /// Fits the model for `mask`, reusing everything already ingested
    /// for previous (nested) masks and memoizing new blocks in
    /// `cache`.
    ///
    /// # Errors
    ///
    /// In the order of [`crate::identify`]:
    ///
    /// * [`SysidError::InsufficientData`] when the mask admits fewer
    ///   transitions than regressor columns,
    /// * a negative or non-finite ridge (`InvalidData`), a non-finite
    ///   regressor or target (`NonFinite`),
    /// * propagated numerical failures of the Cholesky factor/solve.
    pub fn fit_mask(&mut self, mask: &Mask, cache: &mut GramCache) -> Result<ThermalModel> {
        let ranges = self.transition_ranges(mask)?;
        let total: usize = ranges.iter().map(|&(a, b)| b - a).sum();
        let width = self.spec.regressor_width();
        if total < width {
            return Err(SysidError::InsufficientData {
                available: total,
                required: width,
            });
        }
        // Where the stacked route's `RidgeNormalEquations::new` checks
        // it: after the data, before any row.
        if !(self.ridge.is_finite() && self.ridge >= 0.0) {
            return Err(LinalgError::InvalidData {
                reason: "ridge parameter must be finite and non-negative",
            }
            .into());
        }
        let delta = match range_difference(&ranges, &self.ingested) {
            Some(d) => d,
            None => {
                self.reset();
                ranges.clone()
            }
        };
        for &range in &delta {
            self.ingest(range, cache)?;
        }
        self.ingested = ranges;
        self.totals.solve(self.spec, self.ridge)
    }
}

/// [`crate::identify`] over a caller's [`GramCache`]: the same
/// arithmetic, with each gap-free range's block memoized for later fits
/// over the same dataset and spec.
///
/// `fit.ridge == 0` solves the [`assemble`]d rows by QR instead
/// ([`identify_from_data`]).
///
/// # Errors
///
/// Same conditions, in the same order, as [`crate::identify`].
pub fn identify_with_cache(
    dataset: &Dataset,
    spec: &ModelSpec,
    mask: &Mask,
    fit: &FitConfig,
    cache: &mut GramCache,
) -> Result<ThermalModel> {
    if fit.ridge == 0.0 {
        return identify_from_data(spec, &assemble(dataset, spec, mask)?, fit);
    }
    SweepEngine::new(dataset, spec, fit)?.fit_mask(mask, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, Case};
    use crate::{identify, ModelOrder};
    use proptest::prelude::*;
    use thermal_timeseries::{Channel, TimeGrid, Timestamp};

    fn synth(n: usize) -> Dataset {
        let u: Vec<f64> = (0..n)
            .map(|k| 0.5 + 0.4 * (k as f64 * 0.37).sin())
            .collect();
        let mut t = vec![20.0_f64];
        for k in 0..n - 1 {
            let wiggle = 0.02 * ((k * 7919 % 101) as f64 / 101.0 - 0.5);
            t.push(0.92 * t[k] + 0.8 * u[k] + wiggle);
        }
        let grid = TimeGrid::new(Timestamp::from_minutes(0), 60, n).unwrap();
        Dataset::new(
            grid,
            vec![
                Channel::from_values("t", t).unwrap(),
                Channel::from_values("u", u).unwrap(),
            ],
        )
        .unwrap()
    }

    fn spec() -> ModelSpec {
        ModelSpec::new(vec!["t".into()], vec!["u".into()], ModelOrder::First).unwrap()
    }

    fn bits(m: &ThermalModel) -> Vec<u64> {
        let c = m.coefficients();
        let (r, w) = c.shape();
        (0..r)
            .flat_map(|i| c.row(i)[..w].iter().map(|v| v.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The engine's transition ranges, and the block of each range
        /// folded through the 128-row panel, match the reference rows
        /// bit for bit: each packed block is the upper triangle of the
        /// reference's full block, the totals are those blocks added in
        /// range order, and the solve factors their mirrored sum.
        #[test]
        fn engine_blocks_match_reference(
            shape in (1usize..=3, 1usize..=2, 12usize..90),
            second in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let order = if second { ModelOrder::Second } else { ModelOrder::First };
            let (p, m, n) = shape;
            let Case { dataset, spec, mask, .. } = Case::draw(p, m, n, order, seed).unwrap();
            let mut engine = SweepEngine::new(&dataset, &spec, &FitConfig::default()).unwrap();
            let ranges = engine.transition_ranges(&mask).unwrap();
            let warmup = order.warmup();
            let want: Vec<(usize, usize)> = reference::usable_segments(&dataset, &spec, &mask)
                .unwrap()
                .iter()
                .map(|s| (s.start + warmup - 1, s.end - 1))
                .collect();
            prop_assert_eq!(&ranges, &want);

            let (w, p) = (spec.regressor_width(), spec.output_count());
            // Row `i` of a full row-major matrix from column `i` on.
            let upper = |full: &[f64]| -> Vec<u64> {
                (0..w).flat_map(|i| reference::bits(&full[i * w + i..(i + 1) * w])).collect()
            };
            let (mut gram, mut cross) = (vec![0.0; w * w], vec![0.0; w * p]);
            for &(a, b) in &ranges {
                let mut block = GramBlock::zeros(w, p);
                engine.fold.add_run(&dataset, (a, b), &mut block).unwrap();
                engine.ingest((a, b), &mut GramCache::disabled()).unwrap();
                let (mut g, mut c) = (vec![0.0; w * w], vec![0.0; w * p]);
                reference::accumulate_rows(&dataset, &spec, (a, b), &mut g, &mut c).unwrap();
                prop_assert_eq!(block.rows, b - a);
                prop_assert_eq!(reference::bits(&block.gram), upper(&g));
                prop_assert_eq!(reference::bits(&block.cross), reference::bits(&c));
                for (acc, v) in gram.iter_mut().zip(&g).chain(cross.iter_mut().zip(&c)) {
                    *acc += v;
                }
                prop_assert_eq!(reference::bits(&engine.totals.gram), upper(&gram));
                prop_assert_eq!(reference::bits(&engine.totals.cross), reference::bits(&cross));
            }
            // The factored Gram is the full reference sum, both triangles.
            let ridge = FitConfig::default().ridge;
            let mut dense = Matrix::from_vec(w, w, gram).unwrap();
            for i in 0..w {
                dense[(i, i)] += ridge;
            }
            let cross = Matrix::from_vec(w, p, cross).unwrap();
            let want = CholeskyDecomposition::new(&dense).and_then(|c| c.solve_matrix(&cross));
            match (engine.totals.solve(&spec, ridge), want) {
                (Ok(got), Ok(want)) => prop_assert_eq!(
                    reference::bits(got.coefficients().as_slice()),
                    reference::bits(want.transpose().as_slice())
                ),
                (got, want) => prop_assert_eq!(got.err(), want.err().map(SysidError::from)),
            }
        }
    }

    #[test]
    fn spec_and_slot_hashes_are_pinned() {
        let spec = ModelSpec::new(
            vec!["t1".into(), "t2".into()],
            vec!["u".into(), "occ".into()],
            ModelOrder::Second,
        )
        .unwrap();
        assert_eq!(fingerprint_spec(&spec), 0x5adc_008d_07ac_d35f);
        let key = BlockKey {
            namespace: 3,
            dataset: 0x1234,
            spec: 0x5678,
            start: 10,
            end: 99,
        };
        assert_eq!(key.slot_hash(), 0x3b93_7e23_78d7_fb96);
    }

    /// The Gram cache's dataset fingerprint of a gappy 131-slot
    /// fixture (gaps, `Some(0.0)` and `Some(-0.0)` beside gaps, and an
    /// unresolvable index), pinned: a change of channel storage must
    /// hash each slot exactly as before.
    #[test]
    fn dataset_fingerprint_value_is_pinned() {
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
        let ds = Dataset::new(grid, channels).unwrap();
        assert_eq!(
            fingerprint_dataset(&ds, &[2, 0, 1, 7]),
            0x1ef8_5044_4234_6350
        );
    }

    /// Datasets that differ in exactly one of the things the dataset
    /// fingerprint covers get different fingerprints.
    #[test]
    fn dataset_fingerprint_separates_single_differences() {
        let grid = TimeGrid::new(Timestamp::from_minutes(-30), 5, 9).unwrap();
        let t: Vec<Option<f64>> = (0..9)
            .map(|k| (k != 4).then_some(20.0 + 0.1 * k as f64))
            .collect();
        let u: Vec<Option<f64>> = (0..9).map(|k| Some(0.5 - 0.05 * k as f64)).collect();
        let build = |grid: TimeGrid, t: &[Option<f64>], names: [&str; 2]| {
            Dataset::new(
                grid,
                vec![
                    Channel::new(names[0], t.to_vec()).unwrap(),
                    Channel::new(names[1], u.clone()).unwrap(),
                ],
            )
            .unwrap()
        };
        let base = build(grid, &t, ["t", "u"]);
        let fp = |ds: &Dataset, order: &[usize]| fingerprint_dataset(ds, order);
        let want = fp(&base, &[0, 1]);
        assert_eq!(want, fp(&build(grid, &t, ["t", "u"]), &[0, 1]));

        let mut last_bit = t.clone();
        last_bit[8] = t[8].map(|x| f64::from_bits(x.to_bits() ^ 1));
        let mut gap_for_value = t.clone();
        gap_for_value[3] = None;
        let mut value_for_gap = t.clone();
        value_for_gap[4] = Some(20.4);
        let shifted = TimeGrid::new(Timestamp::from_minutes(-25), 5, 9).unwrap();
        let restepped = TimeGrid::new(Timestamp::from_minutes(-30), 10, 9).unwrap();
        let longer = TimeGrid::new(Timestamp::from_minutes(-30), 5, 10).unwrap();
        let mut t10 = t.clone();
        t10.push(None);
        let long_u: Vec<Option<f64>> = u.iter().copied().chain([Some(0.0)]).collect();
        let long = Dataset::new(
            longer,
            vec![
                Channel::new("t", t10).unwrap(),
                Channel::new("u", long_u).unwrap(),
            ],
        )
        .unwrap();
        let others = [
            fp(&build(grid, &last_bit, ["t", "u"]), &[0, 1]),
            fp(&build(grid, &gap_for_value, ["t", "u"]), &[0, 1]),
            fp(&build(grid, &value_for_gap, ["t", "u"]), &[0, 1]),
            fp(&base, &[1, 0]),
            fp(&build(grid, &t, ["t2", "u"]), &[0, 1]),
            fp(&build(shifted, &t, ["t", "u"]), &[0, 1]),
            fp(&build(restepped, &t, ["t", "u"]), &[0, 1]),
            fp(&long, &[0, 1]),
        ];
        for (i, other) in others.iter().enumerate() {
            assert_ne!(*other, want, "variant {i} collides with the base");
        }
    }

    #[test]
    fn range_difference_subtracts_nested_ranges() {
        assert_eq!(
            range_difference(&[(0, 10)], &[(2, 5)]),
            Some(vec![(0, 2), (5, 10)])
        );
        assert_eq!(
            range_difference(&[(0, 4), (6, 12)], &[(0, 4), (7, 9)]),
            Some(vec![(6, 7), (9, 12)])
        );
        assert_eq!(range_difference(&[(0, 10)], &[(0, 10)]), Some(vec![]));
        assert_eq!(range_difference(&[(0, 10)], &[]), Some(vec![(0, 10)]));
        // Old range bridging two new ranges: not nested.
        assert_eq!(range_difference(&[(0, 4), (6, 12)], &[(3, 7)]), None);
    }

    #[test]
    fn cache_hits_return_inserted_blocks_and_evict_deterministically() {
        let mut cache = GramCache::with_slot_bits(0); // one block
        let key_a = BlockKey {
            namespace: 0,
            dataset: 1,
            spec: 2,
            start: 0,
            end: 4,
        };
        let key_b = BlockKey {
            namespace: 0,
            dataset: 1,
            spec: 2,
            start: 4,
            end: 8,
        };
        let block = GramBlock {
            gram: vec![1.0; 4],
            cross: vec![2.0; 2],
            rows: 4,
        };
        assert!(cache.get(&key_a).is_none());
        cache.insert(key_a, block.clone());
        let got = cache.get(&key_a).unwrap();
        assert_eq!(got.gram, block.gram);
        assert_eq!(got.rows, 4);
        // A different key finds the cache full: the oldest block goes.
        cache.insert(key_b, block);
        assert!(cache.get(&key_a).is_none());
        assert!(cache.get(&key_b).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
    }

    /// With 1 MiB blocks the 12 MiB byte budget binds long before the
    /// 4,096-block count: the thirteenth insert drops the oldest block,
    /// and a block larger than the whole budget is not kept.
    #[test]
    fn byte_budget_bounds_resident_blocks() {
        let key = |start| BlockKey {
            namespace: 0,
            dataset: 1,
            spec: 2,
            start,
            end: start + 1,
        };
        let block = |bytes: usize| GramBlock {
            gram: vec![0.5; bytes / 8],
            cross: vec![],
            rows: 1,
        };
        let mut cache = GramCache::new();
        for start in 0..13 {
            cache.insert(key(start), block(1 << 20));
        }
        assert_eq!((cache.blocks.len(), cache.bytes), (12, BLOCK_BYTE_BUDGET));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&key(0)).is_none());
        assert!(cache.get(&key(1)).is_some() && cache.get(&key(12)).is_some());
        cache.insert(key(99), block(BLOCK_BYTE_BUDGET + 8));
        assert!(cache.get(&key(99)).is_none());
        assert_eq!((cache.blocks.len(), cache.stats().evictions), (12, 1));
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut cache = GramCache::disabled();
        let key = BlockKey {
            namespace: 0,
            dataset: 1,
            spec: 2,
            start: 0,
            end: 4,
        };
        cache.insert(
            key,
            GramBlock {
                gram: vec![],
                cross: vec![],
                rows: 0,
            },
        );
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn engine_matches_qr_identify_to_solver_tolerance() {
        let ds = synth(120);
        let spec = spec();
        let fit = FitConfig::with_ridge(1e-8);
        let mask = Mask::all(ds.grid());
        let reference = identify(&ds, &spec, &mask, &fit).unwrap();
        let mut cache = GramCache::new();
        let incremental = identify_with_cache(&ds, &spec, &mask, &fit, &mut cache).unwrap();
        let a = reference.coefficients();
        let b = incremental.coefficients();
        for i in 0..1 {
            for j in 0..2 {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < 1e-7,
                    "coef ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn nested_masks_reuse_state_and_match_fresh_engines_bitwise() {
        let ds = synth(5 * 24);
        let spec = spec();
        let fit = FitConfig::default();
        // Nested windows: most recent 1, 2, ..., 5 days.
        let masks: Vec<Mask> = (1..=5)
            .map(|n| {
                let days: Vec<i64> = (5 - n..5).collect();
                Mask::days(ds.grid(), &days)
            })
            .collect();
        let mut cache = GramCache::new();
        let mut engine = SweepEngine::new(&ds, &spec, &fit).unwrap();
        let chained: Vec<Vec<u64>> = masks
            .iter()
            .map(|m| bits(&engine.fit_mask(m, &mut cache).unwrap()))
            .collect();
        // Each cell of the chain must equal a fresh engine fitting
        // that mask alone — the increments add up to the whole. A
        // chained cell adds its blocks in ingest order, not in range
        // order, so compare values at solver tolerance here...
        for (i, mask) in masks.iter().enumerate() {
            let fresh = SweepEngine::new(&ds, &spec, &fit)
                .unwrap()
                .fit_mask(mask, &mut GramCache::disabled())
                .unwrap();
            let fresh_coefs = fresh.coefficients();
            let chained_model = f64::from_bits(chained[i][0]);
            assert!(
                (fresh_coefs[(0, 0)] - chained_model).abs() < 1e-9,
                "cell {i}: chained {chained_model} vs fresh {}",
                fresh_coefs[(0, 0)]
            );
        }
        // ...and the hot-cache rerun of the same chain must be
        // bit-identical to the cold-cache run.
        let mut engine2 = SweepEngine::new(&ds, &spec, &fit).unwrap();
        let warm: Vec<Vec<u64>> = masks
            .iter()
            .map(|m| bits(&engine2.fit_mask(m, &mut cache).unwrap()))
            .collect();
        assert_eq!(chained, warm, "warm-cache chain must be bit-identical");
        assert!(cache.stats().hits > 0, "{:?}", cache.stats());
    }

    #[test]
    fn cache_on_and_off_are_bitwise_identical() {
        let ds = synth(5 * 24);
        let spec = spec();
        let fit = FitConfig::default();
        let run = |cache: &mut GramCache| -> Vec<Vec<u64>> {
            let mut engine = SweepEngine::new(&ds, &spec, &fit).unwrap();
            (1..=5)
                .map(|n| {
                    let days: Vec<i64> = (5 - n..5).collect();
                    let mask = Mask::days(ds.grid(), &days);
                    bits(&engine.fit_mask(&mask, cache).unwrap())
                })
                .collect()
        };
        let with_cache = run(&mut GramCache::new());
        let without = run(&mut GramCache::disabled());
        assert_eq!(with_cache, without);
    }

    #[test]
    fn non_nested_mask_resets_instead_of_lying() {
        let ds = synth(4 * 24);
        let spec = spec();
        let fit = FitConfig::default();
        let mut cache = GramCache::new();
        let mut engine = SweepEngine::new(&ds, &spec, &fit).unwrap();
        let grow = Mask::days(ds.grid(), &[2, 3]);
        engine.fit_mask(&grow, &mut cache).unwrap();
        // Shrinking (not nested) must still answer correctly.
        let shrink = Mask::days(ds.grid(), &[0, 1]);
        let reset_fit = engine.fit_mask(&shrink, &mut cache).unwrap();
        let fresh = SweepEngine::new(&ds, &spec, &fit)
            .unwrap()
            .fit_mask(&shrink, &mut GramCache::disabled())
            .unwrap();
        assert_eq!(bits(&reset_fit), bits(&fresh));
    }

    #[test]
    fn insufficient_data_matches_assemble_contract() {
        let ds = synth(24);
        let spec = spec();
        let fit = FitConfig::default();
        let mut mask = Mask::none(ds.grid());
        mask.set(0, true).unwrap();
        mask.set(1, true).unwrap();
        let mut engine = SweepEngine::new(&ds, &spec, &fit).unwrap();
        assert!(matches!(
            engine.fit_mask(&mask, &mut GramCache::new()),
            Err(SysidError::InsufficientData {
                available: 1,
                required: 2
            })
        ));
    }

    #[test]
    fn ridge_zero_is_rejected_by_the_engine_and_falls_back_in_identify() {
        let ds = synth(48);
        let spec = spec();
        assert!(SweepEngine::new(&ds, &spec, &FitConfig::plain()).is_err());
        // identify_with_cache transparently uses the QR path.
        let mask = Mask::all(ds.grid());
        let via_cache = identify_with_cache(
            &ds,
            &spec,
            &mask,
            &FitConfig::plain(),
            &mut GramCache::new(),
        )
        .unwrap();
        let direct = identify(&ds, &spec, &mask, &FitConfig::plain()).unwrap();
        assert_eq!(bits(&via_cache), bits(&direct));
    }

    #[test]
    fn namespaces_partition_a_shared_cache_structurally() {
        // Same dataset, same spec, same mask — only the namespace
        // differs. Without the namespace field the second fit would be
        // answered entirely from the first fit's blocks; with it, the
        // shared cache must behave as if each tenant had its own.
        let ds = synth(96);
        let spec = spec();
        let fit = FitConfig::default();
        let mask = Mask::all(ds.grid());
        let mut cache = GramCache::new().with_namespace(1);
        let first = identify_with_cache(&ds, &spec, &mask, &fit, &mut cache).unwrap();
        let warm = cache.stats();
        let again = identify_with_cache(&ds, &spec, &mask, &fit, &mut cache).unwrap();
        let after_warm = cache.stats();
        assert!(after_warm.hits > warm.hits, "same-namespace refit must hit");
        assert_eq!(bits(&first), bits(&again));
        // Switch tenants: identical content, different namespace.
        cache.set_namespace(2);
        assert_eq!(cache.namespace(), 2);
        let other = identify_with_cache(&ds, &spec, &mask, &fit, &mut cache).unwrap();
        let cross = cache.stats();
        assert_eq!(
            cross.hits, after_warm.hits,
            "a different namespace must never hit another tenant's blocks"
        );
        // Isolation is structural, not behavioural: results still agree.
        assert_eq!(bits(&first), bits(&other));
    }

    /// Both orders of a training-horizon sweep over 70 days, each day's
    /// 06:00–21:00 a segment of its own: every cell adds one day, so a
    /// sweep of 66 cells looks up 66 blocks per order, 132 in all.
    #[test]
    fn default_cache_holds_both_orders_of_a_sweep() {
        use crate::sweep::{sweep_training_horizon_with_cache, SweepPoint};
        use crate::EvalConfig;
        let days = 70;
        let ds = synth(days * 24);
        let mode = Mask::daily_window(ds.grid(), 6 * 60, 21 * 60).unwrap();
        let train: Vec<i64> = (0..66).collect();
        let counts: Vec<usize> = (1..=66).collect();
        let sweep = |order: ModelOrder, cache: &mut GramCache| -> Vec<(u64, Vec<u64>)> {
            let spec = ModelSpec::new(vec!["t".into()], vec!["u".into()], order).unwrap();
            let points = sweep_training_horizon_with_cache(
                &ds,
                &spec,
                &mode,
                &train,
                &counts,
                &[66, 67, 68, 69],
                &FitConfig::default(),
                &EvalConfig::with_horizon(12),
                cache,
            )
            .unwrap();
            let bits = |p: &SweepPoint| {
                p.report
                    .per_sensor_rms()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            };
            points
                .iter()
                .map(|p| (p.parameter.to_bits(), bits(p)))
                .collect()
        };
        let pair = |cache: &mut GramCache| {
            [ModelOrder::First, ModelOrder::Second].map(|order| sweep(order, cache))
        };
        let mut cache = GramCache::new();
        let first = pair(&mut cache);
        let cold = cache.stats();
        assert_eq!(cold.hits, 0, "{cold:?}");
        assert!(
            cold.misses > 128,
            "the two orders need {} blocks",
            cold.misses
        );
        for round in 2..=3 {
            assert_eq!(pair(&mut cache), first, "pair {round}");
            let warm = cache.stats();
            assert_eq!(
                (warm.hits, warm.misses, warm.evictions),
                (cold.misses * (round - 1), cold.misses, 0),
                "pair {round}: every lookup hits"
            );
        }
        let mut disabled = GramCache::disabled();
        let mut small = GramCache::with_slot_bits(7);
        for _ in 0..2 {
            assert_eq!(pair(&mut disabled), first);
            assert_eq!(pair(&mut small), first);
        }
        assert_eq!(disabled.stats().hits, 0);
        let small = small.stats();
        assert!(
            small.evictions > 0 && small.misses > cold.misses,
            "{small:?}"
        );
    }

    #[test]
    fn identical_specs_different_datasets_never_cross_hit() {
        // Two "buildings" with the same model spec but different
        // sensor data share one cache under distinct namespaces: the
        // second building's cold fit must not be served any block
        // minted for the first.
        let ds_a = synth(96);
        let mut ds_b = synth(96);
        // Perturb one sample so the datasets differ in content.
        let grid = *ds_b.grid();
        let vals: Vec<f64> = (0..grid.len())
            .map(|k| 21.0 + 0.1 * (k as f64 * 0.11).cos())
            .collect();
        ds_b = Dataset::new(
            grid,
            vec![
                Channel::from_values("t", vals).unwrap(),
                ds_b.channel_at(1).unwrap().clone(),
            ],
        )
        .unwrap();
        let spec = spec();
        let fit = FitConfig::default();
        let mask_a = Mask::all(ds_a.grid());
        let mask_b = Mask::all(ds_b.grid());
        let mut shared = GramCache::new().with_namespace(10);
        identify_with_cache(&ds_a, &spec, &mask_a, &fit, &mut shared).unwrap();
        let after_a = shared.stats();
        shared.set_namespace(11);
        identify_with_cache(&ds_b, &spec, &mask_b, &fit, &mut shared).unwrap();
        let after_b = shared.stats();
        assert_eq!(
            after_b.hits, after_a.hits,
            "building B's cold fit must not hit building A's blocks"
        );
        assert!(after_b.misses > after_a.misses);
    }
}
