//! Commit facts: the immutable output of one service instance.
//!
//! A [`CommitFact`] is produced exactly once per instance, at the
//! moment the instance's consensus stack first commits, and is never
//! mutated afterwards: every later proposal to the same instance — from
//! any client, on any worker — receives a clone of the *same* fact,
//! metadata included. Sequencing across instances is deliberately not
//! provided; an outer session orders commit facts if it needs to (see
//! DESIGN.md, "Service layer").

use std::fmt;

/// Identifies one single-shot consensus instance.
///
/// Instance ids are chosen by clients; the service maps them onto
/// shards with a fixed hash, so the same id always lands on the same
/// shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl From<u64> for InstanceId {
    fn from(raw: u64) -> Self {
        InstanceId(raw)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst:{}", self.0)
    }
}

/// Metadata about the batch and run that decided an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecideMeta {
    /// The shard that owned the instance.
    pub shard: u16,
    /// Shard-local decision sequence number (0-based, dense per shard).
    pub seq: u64,
    /// Number of proposals batched into the deciding consensus run.
    pub batch_size: u32,
    /// Consensus runs made: the constant 1, the shard never retries.
    pub attempts: u32,
    /// Conciliator + adopt-commit phases the first decider used.
    pub phases: u32,
    /// The client-supplied tag of the deciding proposal: the first
    /// proposal in batch order whose value the instance decided.
    pub deciding_tag: u64,
}

/// The immutable record that an instance decided a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitFact {
    /// The instance that decided.
    pub instance: InstanceId,
    /// The decided value — always one of the batched proposals' values.
    pub value: u64,
    /// How the decision came about.
    pub meta: DecideMeta,
}

impl fmt::Display for CommitFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {} (shard {} seq {} batch {})",
            self.instance, self.value, self.meta.shard, self.meta.seq, self.meta.batch_size
        )
    }
}

/// Why a proposal was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The instance decided, was retained up to the shard's capacity,
    /// and has since been evicted; its commit fact is gone.
    Evicted(InstanceId),
    /// The service dropped the proposal while shutting down.
    ShuttingDown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Evicted(id) => write!(f, "{id} was evicted"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_id_round_trips() {
        let id: InstanceId = 7u64.into();
        assert_eq!(id.0, 7);
        assert_eq!(id.to_string(), "inst:7");
    }

    #[test]
    fn errors_display() {
        assert!(ServiceError::Evicted(InstanceId(3))
            .to_string()
            .contains("inst:3"));
        assert!(ServiceError::ShuttingDown.to_string().contains("shutting"));
    }

    #[test]
    fn facts_compare_structurally() {
        let fact = CommitFact {
            instance: InstanceId(1),
            value: 9,
            meta: DecideMeta {
                shard: 0,
                seq: 0,
                batch_size: 2,
                attempts: 1,
                phases: 1,
                deciding_tag: 5,
            },
        };
        assert_eq!(fact.clone(), fact);
        assert!(fact.to_string().contains("inst:1 = 9"));
    }
}
