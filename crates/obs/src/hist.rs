//! Log-bucketed power-of-two histograms.
//!
//! Bucket `0` holds the value `0`; bucket `i ≥ 1` holds the values in
//! `[2^(i-1), 2^i)`. With 64 value bits that is [`BUCKETS`] buckets
//! total, covering every `u64` with relative resolution ≤ 2× — the
//! standard trade for latency and batch-size distributions, where the
//! interesting structure spans many decades.
//!
//! [`Histogram`] holds plain counts. [`merge`](Histogram::merge) adds
//! bucket-wise and therefore never loses counts; it is commutative and
//! associative (integer sums), which is what makes parallel aggregation
//! order-independent.

use crate::json::Json;

/// Number of buckets: one for zero plus one per value bit.
pub const BUCKETS: usize = 65;

/// The bucket index of `value`.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The smallest value landing in bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
pub fn bucket_lower_bound(index: usize) -> u64 {
    assert!(index < BUCKETS, "bucket {index} out of range");
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// A plain log-bucketed histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
        }
    }

    /// Records one observation of `value`.
    ///
    /// Bucket counts saturate at `u64::MAX` instead of overflowing —
    /// a pinned count is a better failure mode for telemetry than a
    /// debug panic or a silent release-mode wraparound to small values.
    pub fn record(&mut self, value: u64) {
        let b = bucket_of(value);
        self.counts[b] = self.counts[b].saturating_add(1);
    }

    /// Records `n` observations of `value` (saturating, like
    /// [`record`](Self::record)).
    pub fn record_n(&mut self, value: u64, n: u64) {
        let b = bucket_of(value);
        self.counts[b] = self.counts[b].saturating_add(n);
    }

    /// Total number of recorded observations, saturating at `u64::MAX`
    /// when bucket counts sum past it.
    pub fn count(&self) -> u64 {
        self.counts
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Count in the bucket that `value` would land in.
    pub fn count_at(&self, value: u64) -> u64 {
        self.counts[bucket_of(value)]
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Absorbs `other` bucket-wise. Never loses counts below the
    /// saturation point: the merged total is exactly the sum of the two
    /// totals until a bucket pins at `u64::MAX`. Commutative and
    /// associative (saturating addition of non-negative counts is
    /// both).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
    }
}

/// The histogram as a JSON object: total count plus a sparse
/// `[lower_bound, count]` bucket list (empty buckets are omitted, so the
/// value does not depend on [`BUCKETS`]).
impl From<&Histogram> for Json {
    fn from(hist: &Histogram) -> Json {
        let buckets = hist
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![bucket_lower_bound(i).into(), c.into()]));
        Json::obj([
            ("count", hist.count().into()),
            ("buckets", Json::Arr(buckets.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(11), 1024);
    }

    #[test]
    fn every_value_lands_in_its_bucket_interval() {
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for probe in [v, v + 1, v + (v / 2)] {
                let b = bucket_of(probe);
                assert!(bucket_lower_bound(b) <= probe);
                if b + 1 < BUCKETS {
                    assert!(probe < bucket_lower_bound(b + 1));
                }
            }
        }
    }

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        h.record(0);
        h.record(1);
        h.record(1);
        h.record_n(100, 5);
        assert_eq!(h.count(), 8);
        assert_eq!(h.count_at(0), 1);
        assert_eq!(h.count_at(1), 2);
        assert_eq!(h.count_at(100), 5);
        assert!(!h.is_empty());
    }

    #[test]
    fn merge_conserves_counts() {
        let mut a = Histogram::new();
        a.record(3);
        a.record_n(1 << 20, 7);
        let mut b = Histogram::new();
        b.record(3);
        b.record(u64::MAX);
        let (ca, cb) = (a.count(), b.count());
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert_eq!(a.count_at(3), 2);
        assert_eq!(a.count_at(u64::MAX), 1);
    }

    #[test]
    fn json_is_sparse_and_stable() {
        let mut h = Histogram::new();
        h.record(0);
        h.record_n(4, 3);
        let expected = r#"{"count": 4, "buckets": [[0, 1], [4, 3]]}"#;
        assert_eq!(Ok(Json::from(&h)), crate::json::parse(expected));
    }
}
