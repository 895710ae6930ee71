//! Property-based tests of the observation algebra: report merge is
//! commutative and associative, histogram merge never loses a count,
//! and bucketing maps every value into the bucket that contains it.
//! (`sift-obs`'s own suites check the same algebra on hand-picked edge
//! cases; this one draws the reports at random.)

mod common;

use common::{any_u64, cases, size_in};

use sift::obs::{bucket_lower_bound, bucket_of, Histogram, ObsReport, BUCKETS};
use sift::sim::rng::Xoshiro256StarStar;

/// An arbitrary report: a handful of counters, maxima, and histogram
/// observations over a small shared key space (so merges collide).
fn report(rng: &mut Xoshiro256StarStar) -> ObsReport {
    let keys = ["alpha", "beta", "gamma", "delta"];
    let mut r = ObsReport::new();
    for _ in 0..size_in(rng, 0..12) {
        r.add_count(keys[size_in(rng, 0..4)], rng.range_u64(1_000_000));
        r.observe_max(keys[size_in(rng, 0..4)], rng.range_u64(1_000_000));
        r.record_hist(keys[size_in(rng, 0..4)], rng.range_u64(1_000_000));
    }
    r
}

/// Merge order cannot show: a ⊕ b = b ⊕ a.
#[test]
fn report_merge_is_commutative() {
    cases("report_merge_is_commutative", 64, |rng| {
        let (a, b) = (report(rng), report(rng));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(&ab, &ba);
    });
}

/// Merge grouping cannot show: (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c).
#[test]
fn report_merge_is_associative() {
    cases("report_merge_is_associative", 64, |rng| {
        let (a, b, c) = (report(rng), report(rng), report(rng));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
    });
}

/// Histogram merge conserves counts, bucket by bucket.
#[test]
fn histogram_merge_never_loses_counts() {
    cases("histogram_merge_never_loses_counts", 64, |rng| {
        let xs: Vec<u64> = (0..size_in(rng, 0..64)).map(|_| any_u64(rng)).collect();
        let ys: Vec<u64> = (0..size_in(rng, 0..64)).map(|_| any_u64(rng)).collect();
        let mut a = Histogram::new();
        for &x in &xs {
            a.record(x);
        }
        let mut b = Histogram::new();
        for &y in &ys {
            b.record(y);
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), (xs.len() + ys.len()) as u64);
        for i in 0..BUCKETS {
            assert_eq!(merged.buckets()[i], a.buckets()[i] + b.buckets()[i]);
        }
    });
}

/// Every value lands in the bucket whose range contains it.
#[test]
fn bucketing_is_a_partition() {
    cases("bucketing_is_a_partition", 64, |rng| {
        let v = any_u64(rng);
        let i = bucket_of(v);
        assert!(i < BUCKETS);
        assert!(bucket_lower_bound(i) <= v);
        if i + 1 < BUCKETS {
            assert!(v < bucket_lower_bound(i + 1));
        }
    });
}
