//! Sample statistics: nearest-rank percentiles, the rule for which
//! tail percentile a sample supports, and the best-of-repeats record
//! the timed runs report from.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Nearest-rank position (1-based) of percentile `p` in `n` samples.
fn rank(p: f64, n: u64) -> u64 {
    // The epsilon keeps representation error (0.999 × 10000 reads
    // 9990.000000000002) from pushing an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil();
    // `r` lies in [0, n] for p in [0, 100].
    (r as u64).clamp(1, n.max(1))
}

/// Whether `n` samples support percentile `p`: at least
/// [`MIN_BEYOND`] samples rank beyond it.
pub fn supports(p: f64, n: u64) -> bool {
    n > 0 && n - rank(p, n) >= MIN_BEYOND
}

/// The highest of `candidates` that `n` samples support.
pub fn highest_supported(candidates: &[f64], n: u64) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| supports(p, n))
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Nearest-rank percentile of `samples` (sorted in place); 0 when
/// empty.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let r = rank(p, samples.len() as u64);
    samples[usize::try_from(r - 1).unwrap_or(0)]
}

/// Median of floating-point values (mean of the middle pair for an
/// even count); 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The best (smallest) time of each item of a fixed population of
/// work that a run repeats in rounds. Every item does identical work in
/// every round, so its best time is its cost with the least
/// interference from whatever else shares the machine; a busy
/// neighbour only ever adds time.
#[derive(Debug, Clone)]
pub struct Best {
    ns: Vec<u64>,
    rounds: u64,
}

impl Best {
    /// A record for `items` items.
    pub fn new(items: usize) -> Self {
        Best {
            ns: vec![u64::MAX; items],
            rounds: 0,
        }
    }

    /// Records one time of item `i`.
    pub fn record(&mut self, i: usize, ns: u64) {
        self.ns[i] = self.ns[i].min(ns);
    }

    /// Marks a completed round.
    pub fn end_round(&mut self) {
        self.rounds += 1;
    }

    /// Completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Best times of the items recorded at least once.
    pub fn times(&self) -> Vec<u64> {
        self.ns.iter().copied().filter(|&t| t != u64::MAX).collect()
    }

    /// Sum of the best times, ns: one round at every item's best.
    pub fn total(&self) -> u64 {
        self.times().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 90.0), 90);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut [], 50.0), 0);
        assert_eq!(percentile(&mut [7], 99.0), 7);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly 10 lie beyond.
        assert!(supports(90.0, 100));
        assert!(!supports(90.0, 99));
        assert!(supports(99.0, 1000));
        assert!(!supports(99.0, 999));
        assert!(supports(50.0, 20));
        assert!(!supports(50.0, 19));
        assert!(!supports(50.0, 0));
        let ladder = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(&ladder, 19), None);
        assert_eq!(highest_supported(&ladder, 150), Some(90.0));
        assert_eq!(highest_supported(&ladder, 5_000), Some(99.0));
        assert_eq!(highest_supported(&ladder, 10_000), Some(99.9));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn best_keeps_each_items_minimum_over_rounds() {
        let mut best = Best::new(3);
        best.record(0, 50);
        best.record(1, 70);
        best.end_round();
        best.record(0, 40);
        best.record(1, 90);
        best.end_round();
        assert_eq!(best.rounds(), 2);
        assert_eq!(best.times(), vec![40, 70]);
        assert_eq!(best.total(), 110);
    }
}
