//! Substrate observability: contention counters and per-op latency
//! histograms for the lock-free objects.
//!
//! Compiled to **no-ops unless the `obs` cargo feature is enabled**:
//! the hook functions below are empty `#[inline(always)]` stubs in the
//! default build, so the substrate hot paths compile to exactly the
//! uninstrumented code (the negative test in this module holds the
//! line). With the feature on, hooks
//! record into process-global [`sift_obs`] primitives:
//!
//! * striped relaxed counters for the hot events — slot CAS retries
//!   ([`Slot::publish_max`](crate::lockfree)), snapshot republish
//!   conflicts (`publish_with` rebuild loops), guard entries, retires;
//! * inline-cell counters — seqlock register publishes and write/read
//!   retries, combining max-register installs and covered (dominated)
//!   writes, plus a histogram of writes collapsed per combining
//!   install; a pure small-payload register workload shows inline
//!   writes with **zero** retires/guard entries, proving the fast path;
//! * a retire-pile occupancy gauge with a high-water mark, and a
//!   histogram of reclamation batch sizes (nodes freed per pass);
//! * stale-epoch pin events — guards that pinned an epoch already
//!   behind the live retire sequence (each one extends node lifetimes
//!   by up to one reclaim interval);
//! * log-bucketed per-op latency histograms, recorded around
//!   [`ObjectMemory::execute`](crate::memory::ObjectMemory::execute)
//!   by [`OpKind`](sift_sim::OpKind).
//!
//! All recording is `Relaxed` and strictly one-directional (the
//! substrate never reads an observation), so the instrumentation
//! cannot perturb the `SeqCst` linearization and reclamation arguments
//! of [`lockfree`](crate::lockfree) — see DESIGN.md, "Observability".
//!
//! Counters are global to the process (not per-object): the protocols
//! allocate thousands of short-lived piles per trial, and the questions
//! the counters answer — "how much CAS contention did this bench
//! suffer?", "how deep did retire piles get?" — are aggregate ones.
//! [`reset`] rezeroes everything between measurement windows;
//! [`snapshot`] freezes the current values.

use sift_obs::{Histogram, ObsReport};

/// Number of [`OpKind`](sift_sim::OpKind)s (dense index — see
/// [`sift_sim::metrics::op_kind_index`]).
const OP_KINDS: usize = 6;

/// Stable names for the per-op latency histograms, indexed by
/// [`sift_sim::metrics::op_kind_index`].
const OP_NAMES: [&str; OP_KINDS] = [
    "register_read",
    "register_write",
    "snapshot_update",
    "snapshot_scan",
    "max_read",
    "max_write",
];

/// Whether substrate instrumentation is compiled in (`obs` feature).
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

/// A frozen copy of every substrate counter.
///
/// All zeros when the `obs` feature is disabled (the hooks are no-ops)
/// or after [`reset`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubstrateSnapshot {
    /// Failed `compare_exchange` attempts in max-register publication.
    pub slot_cas_retries: u64,
    /// Copy-on-write republish conflicts (snapshot update rebuilds).
    pub republish_conflicts: u64,
    /// Read-guard entries across all piles.
    pub guard_entries: u64,
    /// Guard entries that pinned an epoch already behind the live
    /// retire sequence.
    pub stale_epoch_pins: u64,
    /// Nodes retired onto piles.
    pub retired_nodes: u64,
    /// Nodes freed by reclamation passes (excludes `Drop`).
    pub reclaimed_nodes: u64,
    /// Reclamation passes that detached a non-empty chain.
    pub reclaim_passes: u64,
    /// Current aggregate retire-pile occupancy (nodes retired but not
    /// yet reclaimed, across all live piles).
    pub retire_pile_len: u64,
    /// High-water mark of the aggregate retire-pile occupancy.
    pub retire_pile_hwm: u64,
    /// Completed writes through the inline seqlock register path
    /// (`SeqCell` publishes). Proves the fast path is taken: a pure
    /// register workload over inline payloads should show these with
    /// zero retires/guard entries.
    pub inline_register_writes: u64,
    /// Inline-cell write claims that found the sequence word odd or
    /// lost the claim CAS (writer-writer contention on a `SeqCell`).
    pub inline_write_retries: u64,
    /// Inline-cell optimistic reads invalidated by a concurrent writer
    /// (`SeqCell` reads and `CombiningMax` root reads).
    pub inline_read_retries: u64,
    /// Combining max-register installs: root-claim winners that
    /// collapsed a batch of announced writes into one store sequence.
    pub combine_installs: u64,
    /// Combining max-register writes that returned covered — their key
    /// was at or below the global maximum they observed (the O(1)
    /// amortized-CAS path).
    pub combine_covered: u64,
    /// Nodes freed per reclamation pass.
    pub reclaim_batch: Histogram,
    /// Writes collapsed per combining install (the winner's own write
    /// plus every fresh announce it carried).
    pub combine_batch: Histogram,
    /// Per-op wall-clock latency in nanoseconds, indexed by
    /// [`sift_sim::metrics::op_kind_index`].
    pub op_latency_ns: [Histogram; OP_KINDS],
}

impl SubstrateSnapshot {
    /// Folds the snapshot into an [`ObsReport`] under `substrate.*`
    /// keys (plus `substrate.enabled` recording whether the hooks were
    /// compiled in).
    pub fn to_report(&self) -> ObsReport {
        let mut r = ObsReport::new();
        r.add_count("substrate.enabled", enabled() as u64);
        r.add_count("substrate.slot_cas_retries", self.slot_cas_retries);
        r.add_count("substrate.republish_conflicts", self.republish_conflicts);
        r.add_count("substrate.guard_entries", self.guard_entries);
        r.add_count("substrate.stale_epoch_pins", self.stale_epoch_pins);
        r.add_count("substrate.retired_nodes", self.retired_nodes);
        r.add_count("substrate.reclaimed_nodes", self.reclaimed_nodes);
        r.add_count("substrate.reclaim_passes", self.reclaim_passes);
        r.add_count(
            "substrate.inline_register_writes",
            self.inline_register_writes,
        );
        r.add_count("substrate.inline_write_retries", self.inline_write_retries);
        r.add_count("substrate.inline_read_retries", self.inline_read_retries);
        r.add_count("substrate.combine_installs", self.combine_installs);
        r.add_count("substrate.combine_covered", self.combine_covered);
        r.observe_max("substrate.retire_pile_hwm", self.retire_pile_hwm);
        r.merge_hist("substrate.reclaim_batch", &self.reclaim_batch);
        r.merge_hist("substrate.combine_batch", &self.combine_batch);
        for (name, hist) in OP_NAMES.iter().zip(&self.op_latency_ns) {
            if !hist.is_empty() {
                r.merge_hist(&format!("substrate.op_ns.{name}"), hist);
            }
        }
        r
    }
}

#[cfg(feature = "obs")]
mod active {
    use super::{SubstrateSnapshot, OP_KINDS};
    use sift_obs::{AtomicHistogram, MaxTracker, StripedCounter};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static SLOT_CAS_RETRIES: StripedCounter = StripedCounter::new();
    pub(super) static REPUBLISH_CONFLICTS: StripedCounter = StripedCounter::new();
    pub(super) static GUARD_ENTRIES: StripedCounter = StripedCounter::new();
    pub(super) static STALE_EPOCH_PINS: StripedCounter = StripedCounter::new();
    pub(super) static RETIRED_NODES: StripedCounter = StripedCounter::new();
    pub(super) static RECLAIMED_NODES: StripedCounter = StripedCounter::new();
    pub(super) static RECLAIM_PASSES: StripedCounter = StripedCounter::new();
    /// Aggregate pile occupancy. A single word (not striped): the
    /// running value feeds the high-water mark, which a striped sum
    /// cannot provide atomically. Retires are already amortized by the
    /// reclaim interval, so the shared line is acceptable at obs
    /// builds' measurement fidelity.
    pub(super) static PILE_LEN: AtomicU64 = AtomicU64::new(0);
    pub(super) static PILE_HWM: MaxTracker = MaxTracker::new();
    pub(super) static INLINE_REGISTER_WRITES: StripedCounter = StripedCounter::new();
    pub(super) static INLINE_WRITE_RETRIES: StripedCounter = StripedCounter::new();
    pub(super) static INLINE_READ_RETRIES: StripedCounter = StripedCounter::new();
    pub(super) static COMBINE_INSTALLS: StripedCounter = StripedCounter::new();
    pub(super) static COMBINE_COVERED: StripedCounter = StripedCounter::new();
    pub(super) static RECLAIM_BATCH: AtomicHistogram = AtomicHistogram::new();
    pub(super) static COMBINE_BATCH: AtomicHistogram = AtomicHistogram::new();
    pub(super) static OP_LATENCY: [AtomicHistogram; OP_KINDS] =
        [const { AtomicHistogram::new() }; OP_KINDS];

    pub(super) fn snapshot() -> SubstrateSnapshot {
        SubstrateSnapshot {
            slot_cas_retries: SLOT_CAS_RETRIES.sum(),
            republish_conflicts: REPUBLISH_CONFLICTS.sum(),
            guard_entries: GUARD_ENTRIES.sum(),
            stale_epoch_pins: STALE_EPOCH_PINS.sum(),
            retired_nodes: RETIRED_NODES.sum(),
            reclaimed_nodes: RECLAIMED_NODES.sum(),
            reclaim_passes: RECLAIM_PASSES.sum(),
            retire_pile_len: PILE_LEN.load(Ordering::Relaxed),
            retire_pile_hwm: PILE_HWM.get(),
            inline_register_writes: INLINE_REGISTER_WRITES.sum(),
            inline_write_retries: INLINE_WRITE_RETRIES.sum(),
            inline_read_retries: INLINE_READ_RETRIES.sum(),
            combine_installs: COMBINE_INSTALLS.sum(),
            combine_covered: COMBINE_COVERED.sum(),
            reclaim_batch: RECLAIM_BATCH.snapshot(),
            combine_batch: COMBINE_BATCH.snapshot(),
            op_latency_ns: std::array::from_fn(|i| OP_LATENCY[i].snapshot()),
        }
    }

    pub(super) fn reset() {
        SLOT_CAS_RETRIES.reset();
        REPUBLISH_CONFLICTS.reset();
        GUARD_ENTRIES.reset();
        STALE_EPOCH_PINS.reset();
        RETIRED_NODES.reset();
        RECLAIMED_NODES.reset();
        RECLAIM_PASSES.reset();
        PILE_LEN.store(0, Ordering::Relaxed);
        PILE_HWM.reset();
        INLINE_REGISTER_WRITES.reset();
        INLINE_WRITE_RETRIES.reset();
        INLINE_READ_RETRIES.reset();
        COMBINE_INSTALLS.reset();
        COMBINE_COVERED.reset();
        RECLAIM_BATCH.reset();
        COMBINE_BATCH.reset();
        for h in &OP_LATENCY {
            h.reset();
        }
    }
}

/// Freezes the current substrate counters (all zeros when the `obs`
/// feature is off).
pub fn snapshot() -> SubstrateSnapshot {
    #[cfg(feature = "obs")]
    {
        active::snapshot()
    }
    #[cfg(not(feature = "obs"))]
    {
        SubstrateSnapshot::default()
    }
}

/// Rezeroes every substrate counter (no-op when the `obs` feature is
/// off). Call between measurement windows; concurrent recorders make
/// the reset racy but never unsafe.
pub fn reset() {
    #[cfg(feature = "obs")]
    active::reset();
}

/// Records the wall-clock latency of one [`Op`](sift_sim::Op) into the
/// per-kind histogram when dropped (so every return path of
/// [`ObjectMemory::execute`](crate::memory::ObjectMemory::execute) is
/// covered). Only exists in `obs` builds.
#[cfg(feature = "obs")]
pub(crate) struct LatencyRecorder {
    pub(crate) kind: sift_sim::OpKind,
    pub(crate) start: std::time::Instant,
}

#[cfg(feature = "obs")]
impl Drop for LatencyRecorder {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        record_op_latency(sift_sim::metrics::op_kind_index(self.kind), ns);
    }
}

// ---- hooks (pub(crate)): empty inline stubs unless `obs` is on ------

macro_rules! hooks {
    ($(fn $name:ident($($arg:ident : $ty:ty),*) $body:block)+) => {
        $(
            #[cfg(feature = "obs")]
            #[inline]
            pub(crate) fn $name($($arg: $ty),*) $body

            // Stubs a caller is compiled out of (e.g. the latency
            // recorder) are expectedly dead in the default build.
            #[cfg(not(feature = "obs"))]
            #[inline(always)]
            #[allow(dead_code)]
            pub(crate) fn $name($(#[allow(unused)] $arg: $ty),*) {}
        )+
    };
}

hooks! {
    fn note_cas_retry() {
        active::SLOT_CAS_RETRIES.add(1);
    }
    fn note_republish_conflict() {
        active::REPUBLISH_CONFLICTS.add(1);
    }
    fn note_guard_entry(stale: bool) {
        active::GUARD_ENTRIES.add(1);
        if stale {
            active::STALE_EPOCH_PINS.add(1);
        }
    }
    fn note_retire() {
        use std::sync::atomic::Ordering;
        active::RETIRED_NODES.add(1);
        let len = active::PILE_LEN.fetch_add(1, Ordering::Relaxed) + 1;
        active::PILE_HWM.observe(len);
    }
    fn note_reclaim(freed: u64, _kept: u64) {
        use std::sync::atomic::Ordering;
        active::RECLAIM_PASSES.add(1);
        active::RECLAIMED_NODES.add(freed);
        active::PILE_LEN.fetch_sub(freed, Ordering::Relaxed);
        active::RECLAIM_BATCH.record(freed);
    }
    fn note_inline_register_write() {
        active::INLINE_REGISTER_WRITES.add(1);
    }
    fn note_inline_write_retry() {
        active::INLINE_WRITE_RETRIES.add(1);
    }
    fn note_inline_read_retry() {
        active::INLINE_READ_RETRIES.add(1);
    }
    fn note_combine_install(batch: u64) {
        active::COMBINE_INSTALLS.add(1);
        active::COMBINE_BATCH.record(batch);
    }
    fn note_combine_covered() {
        active::COMBINE_COVERED.add(1);
    }
    fn record_op_latency(kind_index: usize, ns: u64) {
        active::OP_LATENCY[kind_index].record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With the feature off this proves the hooks are behavioral
    /// no-ops; with it on, that recording reaches the snapshot. The
    /// enabled-side assertions are lower bounds because other tests of
    /// this binary exercise the (global) substrate concurrently.
    #[test]
    fn hooks_match_feature_flag() {
        note_cas_retry();
        note_republish_conflict();
        note_guard_entry(true);
        note_guard_entry(false);
        note_retire();
        note_retire();
        note_reclaim(1, 1);
        note_inline_register_write();
        note_inline_write_retry();
        note_inline_read_retry();
        note_combine_install(3);
        note_combine_covered();
        record_op_latency(0, 123);
        let snap = snapshot();
        if enabled() {
            assert!(snap.slot_cas_retries >= 1);
            assert!(snap.republish_conflicts >= 1);
            assert!(snap.guard_entries >= 2);
            assert!(snap.stale_epoch_pins >= 1);
            assert!(snap.retired_nodes >= 2);
            assert!(snap.reclaimed_nodes >= 1);
            assert!(snap.retire_pile_hwm >= 2);
            assert!(snap.reclaim_batch.count() >= 1);
            assert!(snap.inline_register_writes >= 1);
            assert!(snap.inline_write_retries >= 1);
            assert!(snap.inline_read_retries >= 1);
            assert!(snap.combine_installs >= 1);
            assert!(snap.combine_covered >= 1);
            assert!(snap.combine_batch.count() >= 1);
            assert!(snap.op_latency_ns[0].count() >= 1);
        } else {
            assert_eq!(
                snap,
                SubstrateSnapshot::default(),
                "obs disabled: every hook must be a no-op"
            );
            reset();
            assert_eq!(snapshot(), SubstrateSnapshot::default());
        }
    }

    #[test]
    fn report_keys_are_prefixed_and_complete() {
        let mut snap = SubstrateSnapshot {
            slot_cas_retries: 3,
            retire_pile_hwm: 9,
            inline_register_writes: 11,
            combine_covered: 5,
            ..SubstrateSnapshot::default()
        };
        snap.op_latency_ns[0].record(100);
        snap.combine_batch.record(4);
        let report = snap.to_report();
        assert_eq!(report.count("substrate.slot_cas_retries"), 3);
        assert_eq!(report.max("substrate.retire_pile_hwm"), 9);
        assert_eq!(report.count("substrate.inline_register_writes"), 11);
        assert_eq!(report.count("substrate.combine_covered"), 5);
        assert_eq!(report.hist("substrate.combine_batch").unwrap().count(), 1);
        assert_eq!(
            report
                .hist("substrate.op_ns.register_read")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(report.count("substrate.enabled"), enabled() as u64);
        // Empty latency histograms are omitted from the report.
        assert!(report.hist("substrate.op_ns.max_write").is_none());
    }
}
