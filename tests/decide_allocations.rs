//! Allocations per decision, gated.
//!
//! ROADMAP aim 1 asks for machine-independent proxies that are exact
//! and can be gated in CI; the ledger's `shard.allocs_per_decision` is
//! one, but the ledger is not tier-1. This suite drives the ledger's
//! det shape — a `DeterministicService` with 4 shards and
//! `base_phases: 2`, ticked every 64 instances — under a counting
//! `#[global_allocator]`, so a change that brings per-decision
//! construction back (a stack, a memory, a grouping map or an
//! observation key built per batch) fails `cargo test`. A repeat
//! proposal on a decided instance — the table hit a repeat-heavy
//! workload is made of — is held to zero. The served path records into
//! typed fields, not through `ObsReport`; the simulator and the
//! experiment harness still do, so its recording methods are held to
//! zero on existing keys too. The library crates forbid `unsafe`, so the
//! allocator lives in this test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sift::obs::{Histogram, ObsReport};
use sift::service::det::DeterministicService;
use sift::service::{InstanceId, ShardConfig};

thread_local! {
    // Const-initialised and without a destructor: touching it from
    // inside the allocator can neither allocate nor run after teardown.
    // Per thread, so concurrently running tests never leak into a count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally touches only a
// thread-local `Cell` and never allocates, so it cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller guarantees both.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// Decides `instances` fresh instances of `k` conflicting proposals
/// each and returns allocations per decision, everything included:
/// submission, grouping, the decision, the fact table and the stream.
fn allocations_per_decision(instances: u64, k: u64) -> f64 {
    let config = ShardConfig {
        seed: 24301,
        base_phases: 2,
        ..ShardConfig::default()
    };
    let mut svc = DeterministicService::new(4, config);
    let allocations = allocations_during(|| {
        for instance in 0..instances {
            for tag in 0..k {
                svc.propose(InstanceId(instance), (instance + tag * 5) % 16, tag);
            }
            if (instance + 1) % 64 == 0 {
                svc.tick_all();
            }
        }
        svc.tick_all();
    });
    assert_eq!(svc.stream().len() as u64, instances, "decided exactly once");
    assert!(svc
        .stream()
        .iter()
        .all(|f| u64::from(f.meta.batch_size) == k));
    allocations as f64 / instances as f64
}

#[test]
fn a_batch_of_one_allocates_at_most_three_times() {
    let per_decision = allocations_per_decision(10_000, 1);
    assert!(
        per_decision <= 3.0,
        "{per_decision} allocations per decision"
    );
}

#[test]
fn a_batch_of_eight_allocates_at_most_thirty_five_times() {
    let per_decision = allocations_per_decision(2_000, 8);
    assert!(
        per_decision <= 35.0,
        "{per_decision} allocations per decision"
    );
}

#[test]
fn a_repeat_proposal_never_allocates() {
    let mut svc = DeterministicService::new(4, ShardConfig::default());
    for instance in 0..1_000 {
        svc.propose(InstanceId(instance), instance % 16, 0);
    }
    svc.tick_all();
    let repeats = allocations_during(|| {
        for i in 0..10_000u64 {
            svc.propose(InstanceId(i * 7 % 1_000), i % 16, i);
        }
    });
    assert_eq!(repeats, 0, "a table hit must not allocate");
    let report = svc.obs_report();
    assert_eq!(report.count("service.idempotent"), 10_000);
    assert_eq!(svc.stats().pending, 0);
}

#[test]
fn recording_into_existing_obs_keys_never_allocates() {
    let mut report = ObsReport::new();
    let mut sample = Histogram::new();
    sample.record(7);
    let first_use = allocations_during(|| {
        report.add_count("proposals", 1);
        report.observe_max("max_batch", 1);
        report.record_hist("latency_ns", 1);
        report.merge_hist("service.latency_ns", &sample);
    });
    assert!(first_use >= 4, "each new key owns its name: {first_use}");

    let steady = allocations_during(|| {
        for i in 0..10_000u64 {
            report.add_count("proposals", 1);
            report.observe_max("max_batch", i);
            report.record_hist("latency_ns", i);
            report.merge_hist("service.latency_ns", &sample);
        }
    });
    assert_eq!(steady, 0, "steady-state recording must not allocate");

    assert_eq!(report.count("proposals"), 10_001);
    assert_eq!(report.max("max_batch"), 9_999);
    assert_eq!(report.hist("latency_ns").unwrap().count(), 10_001);
    assert_eq!(report.hist("service.latency_ns").unwrap().count(), 10_001);
}
