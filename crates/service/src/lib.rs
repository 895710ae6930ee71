//! # sift-service — consensus as a service
//!
//! A sharded, multi-instance frontend over the paper's conciliator +
//! adopt-commit stacks: clients propose `(instance, value)` pairs, each
//! instance is one single-shot consensus, and every instance freezes
//! into an immutable [`CommitFact`] the moment it first decides.
//! Ordering across instances is deliberately *not* provided — the
//! service emits commit facts; an outer session sequences them if the
//! application needs a log (see DESIGN.md, "Service layer").
//!
//! The pieces:
//!
//! * [`shard`] — the instance table, batching, and per-batch consensus
//!   execution: a round-robin lockstep over the simulator's
//!   `sift_sim::Memory`, the model the stacks are checked against;
//! * [`service`] — the threaded async frontend: shard workers, the
//!   [`propose`](Service::propose) future, eviction, introspection;
//! * [`det`] — the deterministic current-thread mode whose commit-fact
//!   stream digest is golden-pinned in CI;
//! * [`runtime`] — the minimal in-tree async runtime (`block_on`,
//!   oneshot channels). The workspace builds fully offline, so no
//!   external runtime (tokio) is linked; the API surface is
//!   future-based and would port to one directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod det;
pub mod fact;
pub mod runtime;
pub mod service;
pub mod shard;

pub use det::DeterministicService;
pub use fact::{CommitFact, DecideMeta, InstanceId, ServiceError};
pub use service::{ProposeFuture, Service, ServiceConfig};
pub use shard::{shard_of, Proposal, ShardConfig, ShardCore, ShardStats};

use sift_obs::ObsReport;

/// Merges per-shard observation reports into one: every key appears
/// both per shard (`shardNNN.<key>`) and aggregated (`service.<key>`).
/// Shard ids render zero-padded so the JSON key order is shard order.
pub(crate) fn shard_obs_report(shards: impl Iterator<Item = (u16, ObsReport)>) -> ObsReport {
    let mut merged = ObsReport::new();
    for (id, obs) in shards {
        for (key, value) in obs.counters() {
            merged.add_count(&format!("shard{id:03}.{key}"), value);
            merged.add_count(&format!("service.{key}"), value);
        }
        for (key, value) in obs.maxima() {
            merged.observe_max(&format!("shard{id:03}.{key}"), value);
            merged.observe_max(&format!("service.{key}"), value);
        }
        for (key, hist) in obs.hists() {
            merged.merge_hist(&format!("shard{id:03}.{key}"), hist);
            merged.merge_hist(&format!("service.{key}"), hist);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_obs_report_prefixes_and_aggregates() {
        let mut a = ObsReport::new();
        a.add_count("proposals", 3);
        a.observe_max("max_batch", 2);
        a.record_hist("batch_size", 2);
        let mut b = ObsReport::new();
        b.add_count("proposals", 4);
        b.observe_max("max_batch", 5);
        b.record_hist("batch_size", 1);
        let merged = shard_obs_report([(0u16, a), (1u16, b)].into_iter());
        assert_eq!(merged.count("shard000.proposals"), 3);
        assert_eq!(merged.count("shard001.proposals"), 4);
        assert_eq!(merged.count("service.proposals"), 7);
        assert_eq!(merged.max("service.max_batch"), 5);
        assert_eq!(merged.hist("service.batch_size").unwrap().count(), 2);
        assert_eq!(merged.hist("shard001.batch_size").unwrap().count(), 1);
    }
}
