//! Reduction kernels: the one definition of the accumulation order
//! behind every dot-product-shaped chain of the identification path.
//!
//! # The rule
//!
//! A *chain* starts from a given value and folds in `a[t] * b[t]` with
//! `t` ascending: one rounded multiply, then one rounded add (or
//! subtract), per term. There is no reassociation, no fused
//! multiply-add and no pairwise split, so a chain's result depends only
//! on its start value, its operands and their order.
//!
//! * [`dot`] starts from `+0.0`.
//! * [`dot_from`] starts from the caller's value. `Iterator::sum` over
//!   `f64` folds from `-0.0`; a chain that must equal such a sum bit
//!   for bit, signed zeros included, starts from `-0.0`.
//! * `sub_dot_from` (crate-internal) subtracts the products instead:
//!   the Cholesky and triangular-solve chains `s = a_ij; s -= l_ik · l_jk`.
//!
//! A *lane* is one independent chain. The four-lane forms
//! (`dot4_from`, `sub_dot4_from`, crate-internal) advance four chains
//! that share the operand `a` in one pass over it. Lane `l` equals the
//! one-lane form on `b[l]` bit for bit, because IEEE multiplication
//! commutes. Four lanes hide the add latency a single chain waits on;
//! they never reorder a chain. Other crates reach them through
//! [`dot_rows_from`]: one vector against consecutive rows, four rows
//! per pass. Its crate-internal form `dot_rows_acc` continues each
//! chain from its own running value, so `Matrix::gram` and
//! `Matrix::transpose_matmul` can feed one chain panel by panel.
//!
//! Two more row-wise forms advance four rows per pass, each row one
//! chain: the crate-internal `sum_rows_from` adds a row's entries (a
//! row mean's `Σ`, from `-0.0` where it stands for an `Iterator::sum`)
//! and [`dot_self_rows`] is each row's `dot(row, row)`.
//!
//! [`dot_panels_from`] is [`dot_rows_from`] for a matrix packed once
//! into [`RowPanels`]: eight rows per panel, their entries of one column
//! side by side, so one pass advances eight lanes from contiguous
//! operands. It is the open-loop rollout's `Θ·x`. Each lane is still
//! its row's one-lane chain, and a matrix of fewer than eight rows is
//! all tail, which is `dot_rows_from` itself.
//!
//! Operands are zipped: a chain runs over the shorter of its two
//! slices, and callers pass equal lengths.
//!
//! # Example
//!
//! ```
//! use thermal_linalg::kernels::{dot, dot_rows_from};
//!
//! let a = [1.0, 2.0, 3.0];
//! let rows = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 0.0];
//! let mut out = [0.0; 5];
//! dot_rows_from(0.0, &a, &rows, 3, &mut out);
//! assert_eq!(out, [1.0, 2.0, 3.0, 6.0, 2.0]);
//! assert_eq!(out[3].to_bits(), dot(&a, &rows[9..12]).to_bits());
//! ```

use crate::Matrix;

/// `Σ a[t] · b[t]` from `+0.0`, `t` ascending.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_from(0.0, a, b)
}

/// `acc + a[0]·b[0] + a[1]·b[1] + …`, added left to right.
///
/// The operands are any `&f64` sequences, so a strided column walk
/// (`iter().step_by(n)`) folds by the same rule as a slice.
#[inline]
pub fn dot_from<'a>(
    acc: f64,
    a: impl IntoIterator<Item = &'a f64>,
    b: impl IntoIterator<Item = &'a f64>,
) -> f64 {
    lane(acc, a, b, |s, p| s + p)
}

/// Four [`dot_from`] chains sharing `a`: lane `l` starts from `acc[l]`
/// and is `dot_from(acc[l], a, b[l])` bit for bit.
#[inline]
pub(crate) fn dot4_from(acc: [f64; 4], a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    lanes4(acc, a, b, |s, p| s + p)
}

/// `acc − a[0]·b[0] − a[1]·b[1] − …`, subtracted left to right. Takes
/// any `&f64` sequences, like [`dot_from`].
#[inline]
pub(crate) fn sub_dot_from<'a>(
    acc: f64,
    a: impl IntoIterator<Item = &'a f64>,
    b: impl IntoIterator<Item = &'a f64>,
) -> f64 {
    lane(acc, a, b, |s, p| s - p)
}

/// Four [`sub_dot_from`] chains sharing `a`: lane `l` starts from
/// `acc[l]` and is `sub_dot_from(acc[l], a, b[l])` bit for bit.
#[inline]
pub(crate) fn sub_dot4_from(acc: [f64; 4], a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    lanes4(acc, a, b, |s, p| s - p)
}

/// `out[r] = dot_from(acc, a, row_r)` for the consecutive `width`-wide
/// rows `row_r` of the row-major buffer `rows`, four rows (four lanes)
/// per pass over `a`: a matrix-vector product, or one row of
/// `A·Bᵀ`. `rows` holds (at least) `out.len()` rows.
#[inline]
pub fn dot_rows_from(acc: f64, a: &[f64], rows: &[f64], width: usize, out: &mut [f64]) {
    rows_from(a, rows, width, out, |_| acc);
}

/// [`dot_rows_from`] where each chain continues from its own entry:
/// `out[r] = dot_from(out[r], a, row_r)`. A chain split over
/// consecutive pieces of `a` (and of its rows) therefore folds exactly
/// as one pass over the whole would.
#[inline]
pub(crate) fn dot_rows_acc(a: &[f64], rows: &[f64], width: usize, out: &mut [f64]) {
    rows_from(a, rows, width, out, |o| o);
}

/// The pass behind [`dot_rows_from`] and [`dot_rows_acc`]: chain `r`
/// starts from `start(out[r])`.
#[inline(always)]
fn rows_from(a: &[f64], rows: &[f64], width: usize, out: &mut [f64], start: impl Fn(f64) -> f64) {
    if width == 0 {
        for o in out.iter_mut() {
            *o = start(*o);
        }
        return;
    }
    let mut rows = rows.chunks_exact(width);
    let mut quads = out.chunks_exact_mut(4);
    for o in &mut quads {
        let (Some(r0), Some(r1), Some(r2), Some(r3)) =
            (rows.next(), rows.next(), rows.next(), rows.next())
        else {
            return;
        };
        let mut acc = [0.0; 4];
        for (s, v) in acc.iter_mut().zip(o.iter()) {
            *s = start(*v);
        }
        o.copy_from_slice(&dot4_from(acc, a, [r0, r1, r2, r3]));
    }
    for (o, row) in quads.into_remainder().iter_mut().zip(rows) {
        *o = dot_from(start(*o), a, row);
    }
}

/// `out[r] = acc + row_r[0] + row_r[1] + …`, added left to right, for
/// the consecutive `width`-wide rows `row_r` of `rows`, four rows per
/// pass. From `-0.0` a chain equals `row_r.iter().sum::<f64>()` bit for
/// bit.
#[inline]
pub(crate) fn sum_rows_from(acc: f64, rows: &[f64], width: usize, out: &mut [f64]) {
    fold_rows(acc, rows, width, out, |x| x);
}

/// `out[r] = dot(row_r, row_r)` for the consecutive `width`-wide rows
/// `row_r` of `rows`, four rows per pass: squared norms, each chain from
/// `+0.0`.
#[inline]
pub fn dot_self_rows(rows: &[f64], width: usize, out: &mut [f64]) {
    fold_rows(0.0, rows, width, out, |x| x * x);
}

/// The pass behind `sum_rows_from` and [`dot_self_rows`]: chain `r`
/// adds `term(x)` for each entry `x` of row `r`, from `acc`.
#[inline(always)]
fn fold_rows(acc: f64, rows: &[f64], width: usize, out: &mut [f64], term: impl Fn(f64) -> f64) {
    if width == 0 {
        out.fill(acc);
        return;
    }
    let mut rows = rows.chunks_exact(width);
    let mut quads = out.chunks_exact_mut(4);
    for o in &mut quads {
        let (Some(r0), Some(r1), Some(r2), Some(r3)) =
            (rows.next(), rows.next(), rows.next(), rows.next())
        else {
            return;
        };
        let [mut s0, mut s1, mut s2, mut s3] = [acc; 4];
        for (((x0, x1), x2), x3) in r0.iter().zip(r1).zip(r2).zip(r3) {
            s0 += term(*x0);
            s1 += term(*x1);
            s2 += term(*x2);
            s3 += term(*x3);
        }
        o.copy_from_slice(&[s0, s1, s2, s3]);
    }
    for (o, row) in quads.into_remainder().iter_mut().zip(rows) {
        *o = row.iter().fold(acc, |s, &x| s + term(x));
    }
}

/// Rows of one panel of [`RowPanels`]: the lanes of one pass of
/// [`dot_panels_from`].
const PANEL_ROWS: usize = 8;

/// A matrix packed for [`dot_panels_from`]: each full group of eight
/// rows becomes one panel that stores, column by column, the group's
/// eight entries of that column side by side; the rows past the last
/// full panel stay row-major. Pack once per matrix, then multiply as
/// often as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct RowPanels {
    width: usize,
    /// `width` lane groups per panel, panels in row order.
    panels: Vec<[f64; PANEL_ROWS]>,
    /// The last `rows % PANEL_ROWS` rows, row-major.
    tail: Vec<f64>,
}

impl RowPanels {
    /// Packs every row of `m`.
    pub fn new(m: &Matrix) -> Self {
        let width = m.cols();
        let full = m.rows() / PANEL_ROWS;
        let (packed, tail) = m.as_slice().split_at(full * PANEL_ROWS * width);
        let mut panels = vec![[0.0; PANEL_ROWS]; full * width];
        if width > 0 {
            let groups = packed.chunks_exact(PANEL_ROWS * width);
            for (panel, group) in panels.chunks_exact_mut(width).zip(groups) {
                for (lane, row) in group.chunks_exact(width).enumerate() {
                    for (column, &v) in panel.iter_mut().zip(row) {
                        if let Some(dst) = column.get_mut(lane) {
                            *dst = v;
                        }
                    }
                }
            }
        }
        RowPanels {
            width,
            panels,
            tail: tail.to_vec(),
        }
    }
}

/// [`dot_rows_from`] over packed rows: `out[r] = dot_from(acc, a,
/// row_r)` for every packed row (`out` holds one entry per row).
/// Each panel advances its eight chains in one pass over `a`, from
/// contiguous operands; the tail rows go through [`dot_rows_from`].
/// Every entry equals `dot_rows_from` on the unpacked rows bit for bit.
#[inline]
pub fn dot_panels_from(acc: f64, a: &[f64], rows: &RowPanels, out: &mut [f64]) {
    if rows.width == 0 {
        out.fill(acc);
        return;
    }
    let (octets, rest) = out.as_chunks_mut::<PANEL_ROWS>();
    for (o, panel) in octets.iter_mut().zip(rows.panels.chunks_exact(rows.width)) {
        let mut s = [acc; PANEL_ROWS];
        for (x, column) in a.iter().zip(panel) {
            for (sl, c) in s.iter_mut().zip(column) {
                *sl += x * c;
            }
        }
        *o = s;
    }
    dot_rows_from(acc, a, &rows.tail, rows.width, rest);
}

/// One chain: `fold(…fold(fold(acc, a[0]·b[0]), a[1]·b[1])…)`.
#[inline(always)]
fn lane<'a>(
    acc: f64,
    a: impl IntoIterator<Item = &'a f64>,
    b: impl IntoIterator<Item = &'a f64>,
    fold: impl Fn(f64, f64) -> f64,
) -> f64 {
    let mut s = acc;
    for (x, y) in a.into_iter().zip(b) {
        s = fold(s, x * y);
    }
    s
}

/// Four independent chains over a shared `a`, advanced together.
#[inline(always)]
fn lanes4(acc: [f64; 4], a: &[f64], b: [&[f64]; 4], fold: impl Fn(f64, f64) -> f64) -> [f64; 4] {
    let [mut s0, mut s1, mut s2, mut s3] = acc;
    let [b0, b1, b2, b3] = b;
    for ((((x, y0), y1), y2), y3) in a.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
        s0 = fold(s0, x * y0);
        s1 = fold(s1, x * y1);
        s2 = fold(s2, x * y2);
        s3 = fold(s3, x * y3);
    }
    [s0, s1, s2, s3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The chain every kernel must reproduce, written out.
    fn reference(acc: f64, a: &[f64], b: &[f64], sub: bool) -> f64 {
        let mut s = acc;
        for t in 0..a.len().min(b.len()) {
            if sub {
                s -= a[t] * b[t];
            } else {
                s += a[t] * b[t];
            }
        }
        s
    }

    /// `len` values from `seed` that exercise signed zeros and
    /// cancellation as well as ordinary magnitudes.
    fn values(len: usize, seed: u64) -> Vec<f64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| match rng.gen_range(0..7) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(-1e-300..1e-300),
                _ => rng.gen_range(-1e3..1e3),
            })
            .collect()
    }

    proptest! {
        #[test]
        fn lanes_equal_their_one_lane_chains(len in 0usize..23, seed in any::<u64>()) {
            let data = values(5 * len + 4, seed);
            let (a, rest) = data.split_at(len);
            let b: Vec<&[f64]> = rest.chunks_exact(len.max(1)).take(4).map(|c| &c[..len]).collect();
            let b4 = [b[0], b[1], b[2], b[3]];
            let acc = [rest[4 * len], rest[4 * len + 1], rest[4 * len + 2], rest[4 * len + 3]];
            let add = dot4_from(acc, a, b4);
            let sub = sub_dot4_from(acc, a, b4);
            for l in 0..4 {
                prop_assert_eq!(add[l].to_bits(), reference(acc[l], a, b[l], false).to_bits());
                prop_assert_eq!(add[l].to_bits(), dot_from(acc[l], a, b[l]).to_bits());
                prop_assert_eq!(sub[l].to_bits(), reference(acc[l], a, b[l], true).to_bits());
                prop_assert_eq!(sub[l].to_bits(), sub_dot_from(acc[l], a, b[l]).to_bits());
                prop_assert_eq!(dot(a, b[l]).to_bits(), reference(0.0, a, b[l], false).to_bits());
            }
        }
    }

    proptest! {
        #[test]
        fn dot_rows_equal_row_by_row_chains(rows in 0usize..11, width in 0usize..9, seed in any::<u64>()) {
            let data = values(rows * width + width + 1, seed);
            let (a, rest) = data.split_at(width);
            let (acc, m) = rest.split_at(1);
            let mut out = vec![1.5; rows];
            dot_rows_from(acc[0], a, m, width, &mut out);
            for (r, o) in out.iter().enumerate() {
                let row = &m[r * width..(r + 1) * width];
                prop_assert_eq!(o.to_bits(), reference(acc[0], a, row, false).to_bits());
            }
            // Each chain continues from its own start, also when split
            // into two pieces.
            let starts = values(rows, seed ^ 9);
            let mut acc_out = starts.clone();
            let cut = width / 2;
            let head: Vec<f64> = m.chunks_exact(width.max(1)).flat_map(|r| r[..cut].to_vec()).collect();
            let tail: Vec<f64> = m.chunks_exact(width.max(1)).flat_map(|r| r[cut..].to_vec()).collect();
            dot_rows_acc(&a[..cut], &head, cut, &mut acc_out);
            dot_rows_acc(&a[cut..], &tail, width - cut, &mut acc_out);
            for (r, o) in acc_out.iter().enumerate() {
                let row = &m[r * width..(r + 1) * width];
                prop_assert_eq!(o.to_bits(), reference(starts[r], a, row, false).to_bits());
            }
        }
    }

    proptest! {
        /// The packed kernel equals `dot_rows_from` on the unpacked rows
        /// for 0–20 rows (empty, tail-only, whole panels and panels plus
        /// a tail) and widths 0–70, signed zeros included.
        #[test]
        fn panels_equal_dot_rows(rows in 0usize..21, width in 0usize..71, seed in any::<u64>()) {
            let data = values(rows * width + width + 1, seed);
            let (a, rest) = data.split_at(width);
            let (acc, m) = rest.split_at(1);
            let packed = RowPanels::new(&Matrix::from_vec(rows, width, m.to_vec()).unwrap());
            for start in [acc[0], -0.0] {
                let mut want = vec![1.5; rows];
                dot_rows_from(start, a, m, width, &mut want);
                let mut got = vec![2.5; rows];
                dot_panels_from(start, a, &packed, &mut got);
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }

        /// Row sums and squared norms equal their one-row chains.
        #[test]
        fn row_folds_equal_row_by_row_chains(rows in 0usize..11, width in 0usize..9, seed in any::<u64>()) {
            let data = values(rows * width + 1, seed);
            let (acc, m) = data.split_at(1);
            let mut sums = vec![1.5; rows];
            sum_rows_from(acc[0], m, width, &mut sums);
            let mut means = vec![1.5; rows];
            sum_rows_from(-0.0, m, width, &mut means);
            let mut norms = vec![1.5; rows];
            dot_self_rows(m, width, &mut norms);
            for r in 0..rows {
                let row = &m[r * width..(r + 1) * width];
                let chain = row.iter().fold(acc[0], |s, &x| s + x);
                prop_assert_eq!(sums[r].to_bits(), chain.to_bits());
                prop_assert_eq!(means[r].to_bits(), row.iter().sum::<f64>().to_bits());
                prop_assert_eq!(norms[r].to_bits(), reference(0.0, row, row, false).to_bits());
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn start_value_sets_the_sign_of_an_all_negative_zero_chain() {
        let a = [-0.0, 1.0];
        let b = [1.0, -0.0];
        assert_eq!(dot(&a, &b).to_bits(), 0.0_f64.to_bits());
        assert_eq!(dot_from(-0.0, &a, &b).to_bits(), (-0.0_f64).to_bits());
        let summed: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot_from(-0.0, &a, &b).to_bits(), summed.to_bits());
        assert_eq!(dot(&[], &[]).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn subtraction_runs_left_to_right() {
        // (1 − 1e16) − (−1e16) = 0, where 1 − (1e16 − 1e16) = 1.
        let s = sub_dot_from(1.0, &[1e16, -1e16], &[1.0, 1.0]);
        assert_eq!(s, 0.0);
        assert_eq!(1.0 - dot(&[1e16, -1e16], &[1.0, 1.0]), 1.0);
    }
}
