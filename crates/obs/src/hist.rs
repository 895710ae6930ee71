//! Log-bucketed power-of-two histograms.
//!
//! Bucket `0` holds the value `0`; bucket `i ≥ 1` holds the values in
//! `[2^(i-1), 2^i)`. With 64 value bits that is [`BUCKETS`] buckets
//! total, covering every `u64` with relative resolution ≤ 2× — the
//! standard trade for latency and batch-size distributions, where the
//! interesting structure spans many decades.
//!
//! Two flavors share the bucketing:
//!
//! * [`Histogram`] — plain counts, for single-threaded accumulation and
//!   for merged snapshots. [`merge`](Histogram::merge) adds bucket-wise
//!   and therefore never loses counts; it is commutative and
//!   associative (integer sums), which is what makes parallel
//!   aggregation order-independent.
//! * [`AtomicHistogram`] — relaxed atomic counts, for concurrent
//!   recording from substrate hot paths; [`snapshot`] freezes it into a
//!   [`Histogram`].
//!
//! [`snapshot`]: AtomicHistogram::snapshot

use std::sync::atomic::{AtomicU64, Ordering};

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

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`): the exclusive
    /// upper edge of the first bucket at which the cumulative count
    /// reaches `q · total`. Returns 0 for an empty histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Bucket 0 holds exactly {0}; bucket i ≥ 1 tops out at
                // 2^i − 1 (saturating for the final bucket).
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
            }
        }
        u64::MAX
    }

    /// Renders the histogram as a stable JSON object: total count plus
    /// a sparse `[lower_bound, count]` bucket list (empty buckets are
    /// omitted, so the rendering does not depend on [`BUCKETS`]).
    pub(crate) fn render_json(&self) -> String {
        let mut out = String::from("{\"count\": ");
        out.push_str(&self.count().to_string());
        out.push_str(", \"buckets\": [");
        let mut first = true;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("[{}, {}]", bucket_lower_bound(i), c));
        }
        out.push_str("]}");
        out
    }
}

/// A log-bucketed histogram with relaxed atomic buckets, recordable
/// from any thread without coordination.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram (usable in `static` position).
    pub const fn new() -> Self {
        Self {
            counts: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one observation of `value` (relaxed, saturating).
    ///
    /// Saturation needs a CAS loop instead of `fetch_add`; the loop
    /// only ever retries under contention on the *same* bucket, and a
    /// pinned `u64::MAX` bucket never retries at all.
    pub fn record(&self, value: u64) {
        let _ =
            self.counts[bucket_of(value)].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c != u64::MAX).then(|| c + 1)
            });
    }

    /// Freezes the current counts into a plain [`Histogram`]. Exact
    /// once concurrent recorders have quiesced; approximate while they
    /// are still running.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (dst, src) in h.counts.iter_mut().zip(&self.counts) {
            *dst = src.load(Ordering::Relaxed);
        }
        h
    }

    /// Zeroes every bucket.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
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
    fn quantile_bounds_bracket_the_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // The true median is 500; the bucketed bound must be within the
        // enclosing power-of-two bucket.
        let med = h.quantile_upper_bound(0.5);
        assert!((500..=1023).contains(&med), "median bound {med}");
        assert_eq!(h.quantile_upper_bound(0.0), h.quantile_upper_bound(0.001));
        let h_empty = Histogram::new();
        assert_eq!(h_empty.quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn json_is_sparse_and_stable() {
        let mut h = Histogram::new();
        h.record(0);
        h.record_n(4, 3);
        let json = h.render_json();
        assert_eq!(json, "{\"count\": 4, \"buckets\": [[0, 1], [4, 3]]}");
    }

    #[test]
    fn atomic_histogram_snapshot_round_trip() {
        let h = AtomicHistogram::new();
        h.record(5);
        h.record(5);
        h.record(1 << 30);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.count_at(5), 2);
        h.reset();
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn atomic_histogram_concurrent_records_all_land() {
        use std::sync::Arc;
        let h = Arc::new(AtomicHistogram::new());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for k in 0..1000u64 {
                        h.record(t * 1000 + k);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 4000);
    }
}
