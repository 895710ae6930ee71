//! Seeded case generation for the `*_properties` suites: each property
//! runs a fixed number of cases drawn from the in-tree generators, so
//! the suites build offline and a failure replays from its case index.
//! Plus [`report_digest`], the engine suites' pinned answer per run.

#![allow(dead_code)] // each suite uses its own subset of the generators

use std::fmt::Debug;
use std::ops::Range;

use sift::sim::fuzz::FingerprintHasher;
use sift::sim::rng::{SeedSplitter, Xoshiro256StarStar};
use sift::sim::schedule::ScheduleKind;
use sift::sim::{Process, RunReport};

/// Everything observable about a run, digested: `FingerprintHasher`
/// over the `Debug` rendering of its outputs, metrics, stop reason and
/// trace events.
pub(crate) fn report_digest<P: Process>(report: &RunReport<P>) -> u64
where
    P::Output: Debug,
{
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}",
        report.outputs,
        report.metrics,
        report.stop_reason,
        report.trace.as_ref().map(|t| t.events())
    );
    let mut h = FingerprintHasher::new();
    h.write_bytes(text.as_bytes());
    h.finish()
}

/// Names the failing case when a property panics.
struct Case<'a>(&'a str, u64);

impl Drop for Case<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("property {:?} failed at case {}", self.0, self.1);
        }
    }
}

/// Runs `body` on `count` cases. Case `i` of `property` always draws
/// from the same stream, whatever the other cases consumed.
pub(crate) fn cases(property: &str, count: u64, mut body: impl FnMut(&mut Xoshiro256StarStar)) {
    let split = SeedSplitter::new(0x9E37_79B9);
    for i in 0..count {
        let _case = Case(property, i);
        body(&mut split.stream(property, i));
    }
}

/// Uniform in `range`.
pub(crate) fn in_range(rng: &mut Xoshiro256StarStar, range: Range<u64>) -> u64 {
    range.start + rng.range_u64(range.end - range.start)
}

/// Uniform in `range`, as a size.
pub(crate) fn size_in(rng: &mut Xoshiro256StarStar, range: Range<usize>) -> usize {
    in_range(rng, range.start as u64..range.end as u64) as usize
}

/// A vector of `len` values below `bound`.
pub(crate) fn vec_below(rng: &mut Xoshiro256StarStar, len: Range<usize>, bound: u64) -> Vec<u64> {
    (0..size_in(rng, len))
        .map(|_| rng.range_u64(bound))
        .collect()
}

/// A `u64` of uniformly random magnitude: every bit length is as likely
/// as any other, so small values and values near `u64::MAX` both occur.
pub(crate) fn any_u64(rng: &mut Xoshiro256StarStar) -> u64 {
    let shift = rng.range_u64(65);
    rng.next_u64().checked_shr(shift as u32).unwrap_or(0)
}

/// One of the five schedule families.
pub(crate) fn schedule_kind(rng: &mut Xoshiro256StarStar) -> ScheduleKind {
    let all = ScheduleKind::all();
    all[rng.range_u64(all.len() as u64) as usize]
}
