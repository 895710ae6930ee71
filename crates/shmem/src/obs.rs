//! Substrate observability: contention and reclamation counters for
//! the lock-free objects, compiled into every build.
//!
//! A hook exists only where the event is **off an uncontended
//! operation's straight line** — a failed CAS, an invalidated
//! optimistic read, a reclamation pass (every 64th retire), a combining
//! install that carried another thread's announce. Those cost nothing
//! on the fast path (DESIGN.md, "Substrate counters", has the measured
//! pairs); anything that would fire once per operation re-derives what
//! the caller already holds exactly ([`Metrics`](sift_sim::Metrics),
//! [`ThreadReport::total_ops`](crate::ThreadReport)) and is not
//! counted. Hooks record into process-global [`sift_obs`] primitives:
//!
//! * striped relaxed counters — slot CAS retries
//!   (`Slot::publish_max` and the combining root
//!   claim), snapshot republish conflicts (`publish_with` rebuild
//!   loops), inline-cell write/read retries;
//! * reclamation — passes, nodes freed, a histogram of nodes freed per
//!   pass, and the longest retire chain any pass detached; a pure
//!   small-payload register workload shows **zero** of these, proving
//!   the inline fast path (`tests/obs_fastpath.rs`);
//! * combining installs that collapsed more than one write, with a
//!   histogram of writes per such install.
//!
//! All recording is `Relaxed` and strictly one-directional (the
//! substrate never reads an observation), so the instrumentation
//! cannot perturb the `SeqCst` linearization and reclamation arguments
//! of `lockfree` — see DESIGN.md, "Observability".
//!
//! Counters are global to the process (not per-object): the protocols
//! allocate thousands of short-lived piles per trial, and the questions
//! the counters answer — "how much CAS contention did this bench
//! suffer?", "how deep did retire piles get?" — are aggregate ones.
//! [`reset`] rezeroes everything between measurement windows;
//! [`snapshot`] freezes the current values.

use sift_obs::{AtomicHistogram, Histogram, MaxTracker, StripedCounter};

/// A frozen copy of every substrate counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubstrateSnapshot {
    /// Failed `compare_exchange` attempts in max-register publication.
    pub slot_cas_retries: u64,
    /// Copy-on-write republish conflicts (snapshot update rebuilds).
    pub republish_conflicts: u64,
    /// Inline-cell write claims that found the sequence word odd or
    /// lost the claim CAS (writer-writer contention on a `SeqCell`).
    pub inline_write_retries: u64,
    /// Inline-cell optimistic reads invalidated by a concurrent writer
    /// (`SeqCell` reads and `CombiningMax` root reads).
    pub inline_read_retries: u64,
    /// Reclamation passes that detached a non-empty chain.
    pub reclaim_passes: u64,
    /// Nodes freed by reclamation passes (excludes `Drop`).
    pub reclaimed_nodes: u64,
    /// Longest retire chain any reclamation pass detached.
    pub retire_pile_hwm: u64,
    /// Combining max-register installs that collapsed more than one
    /// write: the root-claim winner carried at least one other thread's
    /// fresh announce.
    pub combine_installs: u64,
    /// Nodes freed per reclamation pass.
    pub reclaim_batch: Histogram,
    /// Writes collapsed per counted combining install (the winner's own
    /// write plus every fresh announce it carried).
    pub combine_batch: Histogram,
}

static SLOT_CAS_RETRIES: StripedCounter = StripedCounter::new();
static REPUBLISH_CONFLICTS: StripedCounter = StripedCounter::new();
static INLINE_WRITE_RETRIES: StripedCounter = StripedCounter::new();
static INLINE_READ_RETRIES: StripedCounter = StripedCounter::new();
static RECLAIM_PASSES: StripedCounter = StripedCounter::new();
static RECLAIMED_NODES: StripedCounter = StripedCounter::new();
static PILE_HWM: MaxTracker = MaxTracker::new();
static COMBINE_INSTALLS: StripedCounter = StripedCounter::new();
static RECLAIM_BATCH: AtomicHistogram = AtomicHistogram::new();
static COMBINE_BATCH: AtomicHistogram = AtomicHistogram::new();

/// Freezes the current substrate counters.
pub fn snapshot() -> SubstrateSnapshot {
    SubstrateSnapshot {
        slot_cas_retries: SLOT_CAS_RETRIES.sum(),
        republish_conflicts: REPUBLISH_CONFLICTS.sum(),
        inline_write_retries: INLINE_WRITE_RETRIES.sum(),
        inline_read_retries: INLINE_READ_RETRIES.sum(),
        reclaim_passes: RECLAIM_PASSES.sum(),
        reclaimed_nodes: RECLAIMED_NODES.sum(),
        retire_pile_hwm: PILE_HWM.get(),
        combine_installs: COMBINE_INSTALLS.sum(),
        reclaim_batch: RECLAIM_BATCH.snapshot(),
        combine_batch: COMBINE_BATCH.snapshot(),
    }
}

/// Rezeroes every substrate counter. Call between measurement windows;
/// concurrent recorders make the reset racy but never unsafe.
pub fn reset() {
    SLOT_CAS_RETRIES.reset();
    REPUBLISH_CONFLICTS.reset();
    INLINE_WRITE_RETRIES.reset();
    INLINE_READ_RETRIES.reset();
    RECLAIM_PASSES.reset();
    RECLAIMED_NODES.reset();
    PILE_HWM.reset();
    COMBINE_INSTALLS.reset();
    RECLAIM_BATCH.reset();
    COMBINE_BATCH.reset();
}

// ---- hooks: every call site is off the uncontended fast path --------

#[inline]
pub(crate) fn note_cas_retry() {
    SLOT_CAS_RETRIES.add(1);
}

#[inline]
pub(crate) fn note_republish_conflict() {
    REPUBLISH_CONFLICTS.add(1);
}

#[inline]
pub(crate) fn note_inline_write_retry() {
    INLINE_WRITE_RETRIES.add(1);
}

#[inline]
pub(crate) fn note_inline_read_retry() {
    INLINE_READ_RETRIES.add(1);
}

/// One reclamation pass over a detached chain of `freed + kept` nodes.
#[inline]
pub(crate) fn note_reclaim(freed: u64, kept: u64) {
    RECLAIM_PASSES.add(1);
    RECLAIMED_NODES.add(freed);
    PILE_HWM.observe(freed + kept);
    RECLAIM_BATCH.record(freed);
}

/// One combining install of `batch > 1` writes (callers skip the solo
/// install, which is every uncontended max-register write).
#[inline]
pub(crate) fn note_combine_install(batch: u64) {
    COMBINE_INSTALLS.add(1);
    COMBINE_BATCH.record(batch);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every hook reaches the snapshot. Lower bounds only: other tests
    /// of this binary exercise the (global) substrate concurrently.
    #[test]
    fn every_hook_reaches_the_snapshot() {
        note_cas_retry();
        note_republish_conflict();
        note_inline_write_retry();
        note_inline_read_retry();
        note_reclaim(1, 2);
        note_combine_install(3);
        let snap = snapshot();
        assert!(snap.slot_cas_retries >= 1);
        assert!(snap.republish_conflicts >= 1);
        assert!(snap.inline_write_retries >= 1);
        assert!(snap.inline_read_retries >= 1);
        assert!(snap.reclaim_passes >= 1);
        assert!(snap.reclaimed_nodes >= 1);
        assert!(snap.retire_pile_hwm >= 3);
        assert!(snap.reclaim_batch.count() >= 1);
        assert!(snap.combine_installs >= 1);
        assert!(snap.combine_batch.count() >= 1);
    }
}
