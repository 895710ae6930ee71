//! Substrate observability: contention and reclamation counters for
//! the lock-free objects, compiled into every build.
//!
//! A hook exists only where the event is **off an uncontended
//! operation's straight line** — a failed CAS or a reclamation pass
//! (every 64th retire). Those cost nothing on the fast path (DESIGN.md,
//! "Substrate counters", has the measured pairs); anything that would
//! fire once per operation re-derives what the caller already holds
//! exactly ([`Metrics`](sift_sim::Metrics),
//! [`ThreadReport::total_ops`](crate::ThreadReport)) and is not
//! counted. Hooks record into process-global [`sift_obs`] primitives:
//!
//! * striped relaxed counters — slot CAS retries (`Slot::publish_max`)
//!   and snapshot republish conflicts (`publish_with` rebuild loops);
//! * reclamation — passes, nodes freed, a histogram of nodes freed per
//!   pass, and the longest retire chain any pass detached
//!   (`tests/obs_fastpath.rs` shows a pass per reclaim interval).
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
    /// Reclamation passes that detached a non-empty chain.
    pub reclaim_passes: u64,
    /// Nodes freed by reclamation passes (excludes `Drop`).
    pub reclaimed_nodes: u64,
    /// Longest retire chain any reclamation pass detached.
    pub retire_pile_hwm: u64,
    /// Nodes freed per reclamation pass.
    pub reclaim_batch: Histogram,
}

static SLOT_CAS_RETRIES: StripedCounter = StripedCounter::new();
static REPUBLISH_CONFLICTS: StripedCounter = StripedCounter::new();
static RECLAIM_PASSES: StripedCounter = StripedCounter::new();
static RECLAIMED_NODES: StripedCounter = StripedCounter::new();
static PILE_HWM: MaxTracker = MaxTracker::new();
static RECLAIM_BATCH: AtomicHistogram = AtomicHistogram::new();

/// Freezes the current substrate counters.
pub fn snapshot() -> SubstrateSnapshot {
    SubstrateSnapshot {
        slot_cas_retries: SLOT_CAS_RETRIES.sum(),
        republish_conflicts: REPUBLISH_CONFLICTS.sum(),
        reclaim_passes: RECLAIM_PASSES.sum(),
        reclaimed_nodes: RECLAIMED_NODES.sum(),
        retire_pile_hwm: PILE_HWM.get(),
        reclaim_batch: RECLAIM_BATCH.snapshot(),
    }
}

/// Rezeroes every substrate counter. Call between measurement windows;
/// concurrent recorders make the reset racy but never unsafe.
pub fn reset() {
    SLOT_CAS_RETRIES.reset();
    REPUBLISH_CONFLICTS.reset();
    RECLAIM_PASSES.reset();
    RECLAIMED_NODES.reset();
    PILE_HWM.reset();
    RECLAIM_BATCH.reset();
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

/// One reclamation pass over a detached chain of `freed + kept` nodes.
#[inline]
pub(crate) fn note_reclaim(freed: u64, kept: u64) {
    RECLAIM_PASSES.add(1);
    RECLAIMED_NODES.add(freed);
    PILE_HWM.observe(freed + kept);
    RECLAIM_BATCH.record(freed);
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
        note_reclaim(1, 2);
        let snap = snapshot();
        assert!(snap.slot_cas_retries >= 1);
        assert!(snap.republish_conflicts >= 1);
        assert!(snap.reclaim_passes >= 1);
        assert!(snap.reclaimed_nodes >= 1);
        assert!(snap.retire_pile_hwm >= 3);
        assert!(snap.reclaim_batch.count() >= 1);
    }
}
