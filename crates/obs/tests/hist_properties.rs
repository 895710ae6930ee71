//! Property tests for the log-bucketed histograms, with the edge cases
//! that motivated the saturating arithmetic: `u64::MAX` values, zero,
//! merges of empty histograms, and counts near the `u64` ceiling.
//!
//! `sift-obs` is dependency-free, so randomness comes from an in-file
//! SplitMix64 — deterministic seeds, no external property-test crate.

use sift_obs::{bucket_lower_bound, bucket_of, Histogram, BUCKETS};

/// SplitMix64: tiny, seedable, and equidistributed enough for
/// generating test values. A copy, not `sift_sim::rng`'s: `sift-obs`
/// sits below `sift-sim`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn bucket_of_is_total_and_monotone_on_random_values() {
    let mut rng = SplitMix64(1);
    for _ in 0..10_000 {
        let a = rng.next();
        let b = rng.next();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(bucket_of(lo) <= bucket_of(hi), "monotone: {lo} vs {hi}");
        let bucket = bucket_of(a);
        assert!(bucket < BUCKETS);
        assert!(bucket_lower_bound(bucket) <= a);
    }
    assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    assert_eq!(bucket_of(0), 0);
}

#[test]
fn extreme_values_record_without_panicking() {
    let mut h = Histogram::new();
    h.record(0);
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    h.record(1);
    assert_eq!(h.count(), 4);
    assert_eq!(h.count_at(0), 1);
    assert_eq!(h.count_at(u64::MAX), 2);
}

#[test]
fn merge_of_empty_is_identity_both_ways() {
    let mut rng = SplitMix64(2);
    let mut h = Histogram::new();
    for _ in 0..500 {
        h.record(rng.next() >> (rng.next() % 64));
    }
    let before = h;
    h.merge(&Histogram::new());
    assert_eq!(h, before, "merging an empty histogram must change nothing");
    let mut empty = Histogram::new();
    empty.merge(&before);
    assert_eq!(empty, before, "merging into empty must copy exactly");
    let mut both = Histogram::new();
    both.merge(&Histogram::new());
    assert!(both.is_empty());
    assert_eq!(both.count(), 0);
}

#[test]
fn merge_matches_sequential_recording() {
    let mut rng = SplitMix64(3);
    let values: Vec<u64> = (0..2_000)
        .map(|_| rng.next() >> (rng.next() % 64))
        .collect();
    let mut sequential = Histogram::new();
    for &v in &values {
        sequential.record(v);
    }
    let (left_half, right_half) = values.split_at(values.len() / 3);
    let mut left = Histogram::new();
    let mut right = Histogram::new();
    for &v in left_half {
        left.record(v);
    }
    for &v in right_half {
        right.record(v);
    }
    left.merge(&right);
    assert_eq!(left, sequential);
}

#[test]
fn record_n_near_the_ceiling_saturates_instead_of_wrapping() {
    let mut h = Histogram::new();
    h.record_n(7, u64::MAX - 1);
    h.record(7);
    // One more would overflow; it must pin, not wrap to 0 or panic.
    h.record(7);
    h.record_n(7, 12345);
    assert_eq!(h.count_at(7), u64::MAX);
    assert_eq!(h.count(), u64::MAX);
    assert!(!h.is_empty());
}

#[test]
fn count_saturates_across_buckets() {
    let mut h = Histogram::new();
    h.record_n(1, u64::MAX);
    h.record_n(2, u64::MAX);
    assert_eq!(h.count(), u64::MAX, "total must saturate, not wrap");
}

#[test]
fn merge_saturates_instead_of_wrapping() {
    let mut a = Histogram::new();
    a.record_n(9, u64::MAX - 5);
    let mut b = Histogram::new();
    b.record_n(9, 100);
    a.merge(&b);
    assert_eq!(a.count_at(9), u64::MAX);
}
