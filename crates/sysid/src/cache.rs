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
//!   over transitions — so the delta is ingested by accumulation, and
//!   a small delta (≤ `width` rows) is applied directly to the
//!   existing Cholesky factor as a chain of rank-1 updates
//!   ([`thermal_linalg::CholeskyDecomposition::rank_one_update_with`])
//!   instead of refactoring;
//! * per-range `(G, B)` blocks are memoized in a [`GramCache`] keyed
//!   by dataset/spec fingerprints and the transition range, so
//!   repeated sweeps over the same data (both Fig. 5 panels, bench
//!   reruns) skip the row assembly entirely.
//!
//! Determinism contract: a cache hit returns exactly the bytes the
//! miss path would have computed (blocks are accumulated in a fixed
//! ascending-transition order), and eviction is deterministic
//! replace-on-collision in a fixed-size direct-mapped table — so a
//! sweep produces bit-identical results with a cold cache, a warm
//! cache, or the cache disabled. See `DESIGN.md` § sweep memoization.
//!
//! Fallback rule: the incremental path solves the ridge normal
//! equations and therefore requires `ridge > 0`; `ridge == 0` callers
//! keep the numerically robust QR full-refit path of
//! [`crate::identify`].

use thermal_ckpt::Fnv64;
use thermal_linalg::{CholeskyDecomposition, Matrix};
use thermal_timeseries::{segments_from_mask, Dataset, Mask};

use crate::regressors::{resolve_spec, write_transitions, RunSlots};
use crate::{FitConfig, ModelSpec, Result, SysidError, ThermalModel};

/// The splitmix64 finalizer: spreads FNV's weak low bits before the
/// hash picks a cache slot, and folds a channel's sample lanes.
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
fn fingerprint_samples(values: &[Option<f64>]) -> u64 {
    let step = |s: u64, v: &Option<f64>| {
        (s ^ v.map_or(GAP_WORD, f64::to_bits))
            .wrapping_mul(LANE_MUL)
            .rotate_left(23)
    };
    // Distinct starting states (hex digits of π).
    let mut lanes = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut quads = values.chunks_exact(4);
    for quad in &mut quads {
        for (lane, v) in lanes.iter_mut().zip(quad) {
            *lane = step(*lane, v);
        }
    }
    for (lane, v) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = step(*lane, v);
    }
    lanes
        .iter()
        .fold(splitmix64(values.len() as u64), |h, &lane| {
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
        h.update(&fingerprint_samples(channel.values()).to_le_bytes());
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

/// One memoized normal-equation block over a transition range:
/// `gram = Σ x xᵀ` as a packed upper triangle and `cross = Σ x yᵀ`
/// (row-major `width × p`), accumulated in ascending transition order.
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
    /// Occupied slots overwritten by a colliding key
    /// (deterministic replace-on-collision).
    pub evictions: u64,
}

/// Direct-mapped slot index for a power-of-two table: mask the
/// 64-bit hash down below `n` *before* narrowing, so the cast is
/// exact on every pointer width.
#[allow(clippy::cast_possible_truncation)] // masked to n - 1 < n ≤ usize::MAX first
fn slot_index(hash: u64, n: usize) -> usize {
    (hash & (n as u64 - 1)) as usize
}

/// A bounded, deterministic memo table for [`GramBlock`]s.
///
/// Direct-mapped: each key hashes to exactly one slot, and inserting
/// over a different resident key replaces it (the transposition-table
/// idiom). No clocks, no randomness, no growth — the same sequence of
/// operations always leaves the same table, which keeps sweep results
/// bit-identical whatever the cache history.
#[derive(Debug, Clone)]
pub struct GramCache {
    /// `None` = empty slot. Length is a power of two (or zero when
    /// the cache is disabled).
    slots: Vec<Option<(BlockKey, GramBlock)>>,
    /// Key namespace stamped onto every lookup and insert.
    namespace: u64,
    stats: CacheStats,
}

impl GramCache {
    /// A cache with the default 128 slots. With the paper's 27 outputs
    /// a block takes 12 KB at first order (width 34) and 28 KB at
    /// second order (width 61), so a full table holds at most 3.5 MiB.
    pub fn new() -> Self {
        Self::with_slot_bits(7)
    }

    /// A cache with `2^bits` slots (`bits` is clamped to 16).
    pub fn with_slot_bits(bits: u32) -> Self {
        let n = 1_usize << bits.min(16);
        GramCache {
            slots: vec![None; n],
            namespace: 0,
            stats: CacheStats::default(),
        }
    }

    /// A cache that never stores anything: every lookup misses, every
    /// insert is dropped. The differential tests use this to prove
    /// memoization does not change results.
    pub fn disabled() -> Self {
        GramCache {
            slots: Vec::new(),
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
        let n = self.slots.len();
        if n == 0 {
            self.stats.misses += 1;
            return None;
        }
        let idx = slot_index(key.slot_hash(), n);
        match self.slots.get(idx) {
            Some(Some((resident, block))) if resident == key => {
                self.stats.hits += 1;
                Some(block)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a block, replacing any different resident of the slot.
    fn insert(&mut self, key: BlockKey, block: GramBlock) {
        let n = self.slots.len();
        if n == 0 {
            return;
        }
        let idx = slot_index(key.slot_hash(), n);
        if let Some(slot) = self.slots.get_mut(idx) {
            if matches!(slot, Some((resident, _)) if *resident != key) {
                self.stats.evictions += 1;
            }
            *slot = Some((key, block));
        }
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

/// Entries of a packed upper triangle of a `width × width` matrix.
fn packed_len(width: usize) -> usize {
    width * (width + 1) / 2
}

/// Accumulates one transition into normal-equation storage:
/// `cross += x yᵀ`, and `gram += x xᵀ` on the packed `j ≥ i` half.
/// Entry `(j, i)` would have summed `x_j·x_i`, the same IEEE product as
/// `x_i·x_j`, in the same order, so on finite rows the half mirrored
/// ([`SweepEngine::symmetric_gram`]) equals full rank-1 accumulation
/// bit for bit.
fn accumulate(gram: &mut [f64], cross: &mut [f64], x: &[f64], y: &[f64]) {
    let p = y.len();
    let mut rest = gram;
    for (i, &xi) in x.iter().enumerate() {
        let (grow, tail) = rest.split_at_mut(x.len() - i);
        for (g, &xj) in grow.iter_mut().zip(&x[i..]) {
            *g += xi * xj;
        }
        rest = tail;
        let crow = &mut cross[i * p..(i + 1) * p];
        for (c, &yj) in crow.iter_mut().zip(y) {
            *c += xi * yj;
        }
    }
}

/// The incremental fitting engine: accumulated normal equations plus
/// a maintained Cholesky factor over a growing family of masks.
///
/// Feed it masks from smallest to largest ([`SweepEngine::fit_mask`]);
/// each fit ingests only the transitions the previous mask did not
/// cover. Non-nested masks are handled by a deterministic reset (full
/// re-ingest), never by a wrong answer.
#[derive(Debug)]
pub(crate) struct SweepEngine<'a> {
    dataset: &'a Dataset,
    spec: &'a ModelSpec,
    outputs: Vec<usize>,
    inputs: Vec<usize>,
    /// Joint presence of every spec channel.
    present: Mask,
    warmup: usize,
    width: usize,
    p: usize,
    ridge: f64,
    dataset_fp: u64,
    spec_fp: u64,
    /// Accumulated `Σ x xᵀ`, packed upper triangle (as
    /// [`GramBlock::gram`]).
    gram: Vec<f64>,
    /// Accumulated `Σ x yᵀ`, row-major `width × p`.
    cross: Vec<f64>,
    /// Cholesky factor of `λI + gram`, when current.
    chol: Option<CholeskyDecomposition>,
    /// Transition ranges already accumulated (sorted, disjoint).
    ingested: Vec<(usize, usize)>,
    /// Scratch for the rank-1 Givens sweeps.
    workspace: Vec<f64>,
    /// Scratch regressor rows of the range being ingested.
    row_x: Vec<f64>,
    /// Scratch target rows, aligned with `row_x`.
    row_y: Vec<f64>,
}

impl<'a> SweepEngine<'a> {
    /// Prepares an engine for `(dataset, spec, fit)`.
    ///
    /// # Errors
    ///
    /// * [`SysidError::InvalidSpec`] for unknown channels or a
    ///   non-positive/non-finite ridge (the incremental path solves
    ///   the ridge normal equations; `ridge == 0` callers must use
    ///   the QR path of [`crate::identify`]),
    /// * propagated presence-mask failures.
    pub fn new(dataset: &'a Dataset, spec: &'a ModelSpec, fit: &FitConfig) -> Result<Self> {
        if !(fit.ridge.is_finite() && fit.ridge > 0.0) {
            return Err(SysidError::InvalidSpec {
                reason: "incremental sweep engine requires ridge > 0; \
                         use the QR full-refit path for plain least squares"
                    .to_owned(),
            });
        }
        let (outputs, inputs) = resolve_spec(dataset, spec)?;
        let mut all = outputs.clone();
        all.extend(&inputs);
        let present = dataset.presence_mask(&all)?;
        let warmup = spec.order.warmup();
        let width = spec.regressor_width();
        let p = outputs.len();
        let dataset_fp = fingerprint_dataset(dataset, &all);
        let spec_fp = fingerprint_spec(spec);
        Ok(SweepEngine {
            dataset,
            spec,
            outputs,
            inputs,
            present,
            warmup,
            width,
            p,
            ridge: fit.ridge,
            dataset_fp,
            spec_fp,
            gram: vec![0.0; packed_len(width)],
            cross: vec![0.0; width * p],
            chol: None,
            ingested: Vec::new(),
            workspace: Vec::with_capacity(width),
            row_x: Vec::new(),
            row_y: Vec::new(),
        })
    }

    /// Discards all accumulated state. Also the sweep driver's
    /// recovery hatch: after a failed `fit_mask` the accumulators may
    /// hold a partial delta, so the next cell must re-ingest from
    /// scratch.
    pub(crate) fn reset(&mut self) {
        self.gram.fill(0.0);
        self.cross.fill(0.0);
        self.chol = None;
        self.ingested.clear();
    }

    /// Admissible transition ranges of a mask: for every usable
    /// segment, `[start + warmup − 1, end − 1)`.
    fn transition_ranges(&self, mask: &Mask) -> Result<Vec<(usize, usize)>> {
        let usable = self.present.and(mask)?;
        Ok(segments_from_mask(&usable, self.warmup + 1)
            .iter()
            .map(|s| (s.start + self.warmup - 1, s.end - 1))
            .filter(|&(a, b)| a < b)
            .collect())
    }

    /// Writes the regressor and target rows of transitions `[a, b)`
    /// into the engine's scratch rows.
    fn write_rows(&mut self, a: usize, b: usize) -> Result<()> {
        let rows = b.saturating_sub(a);
        self.row_x.resize(rows * self.width, 0.0);
        self.row_y.resize(rows * self.p, 0.0);
        write_transitions(
            self.dataset,
            &self.outputs,
            &self.inputs,
            self.spec.order,
            (a, b),
            (&mut self.row_x, &mut self.row_y),
            &mut RunSlots::default(),
        )
    }

    /// Ingests `[a, b)` row by row, rank-1-updating the live Cholesky
    /// factor alongside the normal-equation accumulation.
    fn ingest_rows_rank_one(&mut self, a: usize, b: usize) -> Result<()> {
        self.write_rows(a, b)?;
        let rows = self.row_x.chunks_exact(self.width);
        for (x, y) in rows.zip(self.row_y.chunks_exact(self.p)) {
            accumulate(&mut self.gram, &mut self.cross, x, y);
            if let Some(chol) = self.chol.as_mut() {
                chol.rank_one_update_with(x, &mut self.workspace)?;
            }
        }
        Ok(())
    }

    /// Computes the memoizable block of `[a, b)` from scratch: the
    /// packed half of `Σ x xᵀ`, row by row.
    fn compute_block(&mut self, a: usize, b: usize) -> Result<GramBlock> {
        self.write_rows(a, b)?;
        let mut gram = vec![0.0; packed_len(self.width)];
        let mut cross = vec![0.0; self.width * self.p];
        let rows = self.row_x.chunks_exact(self.width);
        for (x, y) in rows.zip(self.row_y.chunks_exact(self.p)) {
            accumulate(&mut gram, &mut cross, x, y);
        }
        Ok(GramBlock {
            gram,
            cross,
            rows: b - a,
        })
    }

    /// Ingests `[a, b)` through the cache (hit or recompute+insert),
    /// adding the block into the accumulated normal equations.
    fn ingest_block(&mut self, a: usize, b: usize, cache: &mut GramCache) -> Result<()> {
        let key = BlockKey {
            namespace: cache.namespace(),
            dataset: self.dataset_fp,
            spec: self.spec_fp,
            start: a as u64,
            end: b as u64,
        };
        match cache.get(&key) {
            Some(bl) if bl.gram.len() == self.gram.len() && bl.cross.len() == self.cross.len() => {
                self.add_block(bl);
            }
            _ => {
                let bl = self.compute_block(a, b)?;
                self.add_block(&bl);
                cache.insert(key, bl);
            }
        }
        Ok(())
    }

    /// Adds a block into the accumulated normal equations.
    fn add_block(&mut self, block: &GramBlock) {
        for (acc, v) in self.gram.iter_mut().zip(&block.gram) {
            *acc += v;
        }
        for (acc, v) in self.cross.iter_mut().zip(&block.cross) {
            *acc += v;
        }
    }

    /// The accumulated `Σ x xᵀ` as a dense symmetric matrix: each
    /// packed row fills its upper row and is mirrored down its column.
    fn symmetric_gram(&self) -> Matrix {
        let mut m = Matrix::zeros(self.width, self.width);
        let mut rest = self.gram.as_slice();
        for i in 0..self.width {
            let (row, tail) = rest.split_at(self.width - i);
            m.row_mut(i)[i..].copy_from_slice(row);
            for (j, &v) in row.iter().enumerate().skip(1) {
                m[(i + j, i)] = v;
            }
            rest = tail;
        }
        m
    }

    /// `λI + gram` as a dense matrix, ready to factor.
    fn regularized_gram(&self) -> Matrix {
        let mut m = self.symmetric_gram();
        for i in 0..self.width {
            m[(i, i)] += self.ridge;
        }
        m
    }

    /// Fits the model for `mask`, reusing everything already ingested
    /// for previous (nested) masks and memoizing new blocks in
    /// `cache`.
    ///
    /// # Errors
    ///
    /// * [`SysidError::InsufficientData`] when the mask admits fewer
    ///   transitions than regressor columns,
    /// * propagated numerical failures of the Cholesky factor/solve.
    pub fn fit_mask(&mut self, mask: &Mask, cache: &mut GramCache) -> Result<ThermalModel> {
        let ranges = self.transition_ranges(mask)?;
        let total: usize = ranges.iter().map(|&(a, b)| b - a).sum();
        if total < self.width {
            return Err(SysidError::InsufficientData {
                available: total,
                required: self.width,
            });
        }
        let delta = match range_difference(&ranges, &self.ingested) {
            Some(d) => d,
            None => {
                self.reset();
                ranges.clone()
            }
        };
        let delta_rows: usize = delta.iter().map(|&(a, b)| b - a).sum();
        if delta_rows > 0 {
            if self.chol.is_some() && delta_rows <= self.width {
                // Small growth: cheaper to rotate the new rows into
                // the existing factor than to refactor O(width³).
                for &(a, b) in &delta {
                    self.ingest_rows_rank_one(a, b)?;
                }
            } else {
                self.chol = None;
                for &(a, b) in &delta {
                    self.ingest_block(a, b, cache)?;
                }
            }
        }
        self.ingested = ranges;
        if self.chol.is_none() {
            self.chol = Some(CholeskyDecomposition::new(&self.regularized_gram())?);
        }
        let chol = self.chol.as_ref().ok_or(SysidError::Internal {
            context: "cholesky factor missing after refactor",
        })?;
        let mut b = Matrix::zeros(self.width, self.p);
        for i in 0..self.width {
            b.row_mut(i)
                .copy_from_slice(&self.cross[i * self.p..(i + 1) * self.p]);
        }
        let theta_t = chol.solve_matrix(&b)?;
        ThermalModel::new(self.spec.clone(), theta_t.transpose())
    }
}

/// [`crate::identify`] through the incremental engine and a caller's
/// [`GramCache`]: same model family, with per-range blocks memoized
/// for reuse across calls over the same dataset and spec.
///
/// Falls back to the plain [`crate::identify`] QR path when
/// `fit.ridge == 0` (see the module docs for the fallback rule).
///
/// # Errors
///
/// Same conditions as [`crate::identify`].
pub fn identify_with_cache(
    dataset: &Dataset,
    spec: &ModelSpec,
    mask: &Mask,
    fit: &FitConfig,
    cache: &mut GramCache,
) -> Result<ThermalModel> {
    if fit.ridge == 0.0 {
        return crate::identify(dataset, spec, mask, fit);
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

        /// The engine's transition ranges, memoizable blocks and
        /// row-by-row ingest match the reference rows bit for bit: each
        /// packed block is the upper triangle of the reference's full
        /// block, and the Gram the engine factors is the full one.
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
            let dense = |m: &Matrix| -> Vec<u64> {
                (0..w).flat_map(|i| reference::bits(&m.row(i)[..w])).collect()
            };
            let (mut gram, mut cross) = (vec![0.0; w * w], vec![0.0; w * p]);
            // A second engine adds each range's block, as the cache path
            // does; the reference adds the full blocks entry by entry.
            let mut summed = SweepEngine::new(&dataset, &spec, &FitConfig::default()).unwrap();
            let mut block_sum = vec![0.0; w * w];
            for &(a, b) in &ranges {
                let block = engine.compute_block(a, b).unwrap();
                summed.ingest_block(a, b, &mut GramCache::disabled()).unwrap();
                prop_assert_eq!(block.gram.len(), w * (w + 1) / 2);
                let (mut g, mut c) = (vec![0.0; w * w], vec![0.0; w * p]);
                reference::accumulate_rows(&dataset, &spec, (a, b), &mut g, &mut c).unwrap();
                for (acc, v) in block_sum.iter_mut().zip(&g) {
                    *acc += v;
                }
                prop_assert_eq!(reference::bits(&block.gram), upper(&g));
                prop_assert_eq!(reference::bits(&block.cross), reference::bits(&c));
                // The same against the full rank-1 block over the same
                // written rows.
                let (full_g, full_c) = reference::full_block(&engine.row_x, &engine.row_y, w, p);
                prop_assert_eq!(reference::bits(&block.gram), upper(&full_g));
                prop_assert_eq!(reference::bits(&block.cross), reference::bits(&full_c));
                reference::accumulate_rows(&dataset, &spec, (a, b), &mut gram, &mut cross)
                    .unwrap();
                engine.ingest_rows_rank_one(a, b).unwrap();
                // The factor-ready Gram is the full reference, both
                // triangles, bit for bit.
                prop_assert_eq!(dense(&engine.symmetric_gram()), reference::bits(&gram));
                prop_assert_eq!(dense(&summed.symmetric_gram()), reference::bits(&block_sum));
            }
            prop_assert_eq!(reference::bits(&engine.gram), upper(&gram));
            prop_assert_eq!(reference::bits(&engine.cross), reference::bits(&cross));
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
        let mut cache = GramCache::with_slot_bits(0); // single slot
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
        // A different key lands in the same (only) slot: replace.
        cache.insert(key_b, block);
        assert!(cache.get(&key_a).is_none());
        assert!(cache.get(&key_b).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
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
        // that mask alone — the increments add up to the whole.
        // Bitwise equality holds only for the refactored cells (the
        // rank-1 chain is mathematically, not bitwise, the same), so
        // compare values at solver tolerance here...
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
