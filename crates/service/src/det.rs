//! Deterministic (current-thread) service mode.
//!
//! [`DeterministicService`] drives the *same* [`ShardCore`]s the
//! threaded frontend runs, but single-threaded, with an explicit tick
//! cadence and no wall clock — so a seeded proposal script always
//! produces the same commit-fact stream, byte for byte. The stream
//! [`digest`](DeterministicService::digest) is golden-pinned in
//! `tests/service_determinism.rs`, which is what makes service
//! behaviour replayable in CI (mirroring the fuzz/conformance golden
//! digests in `crates/bench/tests/seed_stability.rs`).

use sift_obs::ObsReport;
use sift_sim::fuzz::FingerprintHasher;
use sift_sim::rng::Xoshiro256StarStar;

use crate::fact::{CommitFact, InstanceId};
use crate::shard::{shard_of, Proposal, ShardConfig, ShardCore, ShardStats};
use crate::shard_obs_report;

/// A single-threaded, seeded service over a fixed number of shards.
///
/// # Examples
///
/// ```
/// use sift_service::det::DeterministicService;
/// use sift_service::{InstanceId, ShardConfig};
///
/// let mut svc = DeterministicService::new(4, ShardConfig::default());
/// svc.propose(InstanceId(1), 10, 0);
/// svc.propose(InstanceId(1), 20, 1);
/// let facts = svc.tick_all();
/// assert_eq!(facts.len(), 1);
/// assert!([10, 20].contains(&facts[0].value));
/// ```
#[derive(Debug)]
pub struct DeterministicService {
    shards: Vec<ShardCore>,
    stream: Vec<CommitFact>,
}

impl DeterministicService {
    /// Creates `shards` empty shards sharing `config`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or does not fit in `u16`.
    pub fn new(shards: usize, config: ShardConfig) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(shards <= u16::MAX as usize, "too many shards");
        Self {
            shards: (0..shards)
                .map(|id| ShardCore::new(id as u16, config.clone()))
                .collect(),
            stream: Vec::new(),
        }
    }

    /// Enqueues one proposal on its shard (fire-and-forget; facts are
    /// read back from [`tick_all`](Self::tick_all) or
    /// [`fact`](Self::fact)).
    pub fn propose(&mut self, instance: InstanceId, value: u64, tag: u64) {
        let shard = shard_of(instance, self.shards.len());
        self.shards[shard].submit(Proposal {
            instance,
            value,
            tag,
            waiter: None,
            submitted: None,
        });
    }

    /// Ticks every shard in shard order, appending newly decided facts
    /// to the stream and returning this tick's batch of them.
    pub fn tick_all(&mut self) -> Vec<CommitFact> {
        let mut new_facts = Vec::new();
        for shard in &mut self.shards {
            new_facts.extend(shard.tick());
        }
        self.stream.extend(new_facts.iter().cloned());
        new_facts
    }

    /// [`tick_all`](Self::tick_all) with a simulated worker crash:
    /// shard `s` decides only its first `crash_after[s]` instance
    /// batches this tick (missing entries mean "no crash"); the rest
    /// stay queued for the next tick (see
    /// `ShardCore::tick_crashing`). An immediate follow-up
    /// [`tick_all`](Self::tick_all) — the "restart" — decides exactly
    /// what the crash suppressed, so crash + retry leaves every
    /// *per-shard* stream byte-identical to a crash-free run (only the
    /// cross-shard interleaving can shift); compare via
    /// [`canonical_stream`](Self::canonical_stream). The soak tier's
    /// recovery claim is built on this.
    pub fn tick_all_crashing(&mut self, crash_after: &[usize]) -> Vec<CommitFact> {
        let mut new_facts = Vec::new();
        for (index, shard) in self.shards.iter_mut().enumerate() {
            let budget = crash_after.get(index).copied().unwrap_or(usize::MAX);
            new_facts.extend(shard.tick_crashing(budget));
        }
        self.stream.extend(new_facts.iter().cloned());
        new_facts
    }

    /// Replays a proposal script, ticking every `window` proposals (and
    /// once at the end). Tags are script positions. `window == 0` means
    /// one final tick only — maximal batching.
    pub fn run_script(&mut self, script: &[(InstanceId, u64)], window: usize) {
        for (position, &(instance, value)) in script.iter().enumerate() {
            self.propose(instance, value, position as u64);
            if window > 0 && (position + 1) % window == 0 {
                self.tick_all();
            }
        }
        self.tick_all();
    }

    /// The stored fact for `instance`, if decided and retained.
    pub fn fact(&self, instance: InstanceId) -> Option<&CommitFact> {
        self.shards[shard_of(instance, self.shards.len())].fact(instance)
    }

    /// The commit-fact stream so far, in tick order (shard order within
    /// a tick, decision order within a shard).
    pub fn stream(&self) -> &[CommitFact] {
        &self.stream
    }

    /// The stream re-sorted into `(shard, seq)` order — the canonical
    /// form for comparing runs whose tick cadences (or injected
    /// crashes) interleaved the shards differently. Two runs that
    /// decided the same instances from the same batches have equal
    /// canonical streams even if their global tick orders differ.
    pub fn canonical_stream(&self) -> Vec<CommitFact> {
        let mut sorted = self.stream.clone();
        sorted.sort_by_key(|fact| (fact.meta.shard, fact.meta.seq));
        sorted
    }

    /// FNV-1a digest of the full commit-fact stream, metadata included.
    /// Two runs produce equal digests iff they decided the same values
    /// with the same batches, phases, and deciding proposals.
    pub fn digest(&self) -> u64 {
        let mut h = FingerprintHasher::new();
        for fact in &self.stream {
            h.write_u64(fact.instance.0);
            h.write_u64(fact.value);
            h.write_u64(u64::from(fact.meta.shard));
            h.write_u64(fact.meta.seq);
            h.write_u64(u64::from(fact.meta.batch_size));
            h.write_u64(u64::from(fact.meta.attempts));
            h.write_u64(u64::from(fact.meta.phases));
            h.write_u64(fact.meta.deciding_tag);
        }
        h.finish()
    }

    /// Aggregated table introspection across shards.
    pub fn stats(&self) -> ShardStats {
        self.shards
            .iter()
            .map(ShardCore::stats)
            .fold(ShardStats::default(), ShardStats::merge)
    }

    /// The merged observation report (per-shard `shardNNN.*` keys plus
    /// `service.*` aggregates).
    pub fn obs_report(&self) -> ObsReport {
        shard_obs_report(self.shards.iter().map(|s| (s.id(), s.obs())))
    }
}

/// Generates a seeded proposal script: `proposals` entries over
/// `instances` uniformly random instances with values in `0..values`.
/// The deterministic golden tests use this generator.
///
/// # Panics
///
/// Panics if `instances == 0` or `values == 0`.
pub fn uniform_script(
    seed: u64,
    proposals: usize,
    instances: u64,
    values: u64,
) -> Vec<(InstanceId, u64)> {
    assert!(instances > 0, "need at least one instance");
    assert!(values > 0, "need at least one value");
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..proposals)
        .map(|_| (InstanceId(rng.range_u64(instances)), rng.range_u64(values)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_script_same_digest() {
        let script = uniform_script(9, 60, 12, 4);
        let run = |window| {
            let mut svc = DeterministicService::new(4, ShardConfig::default());
            svc.run_script(&script, window);
            svc.digest()
        };
        assert_eq!(run(5), run(5));
        // A different tick cadence changes batching, hence the stream.
        assert_ne!(run(5), run(1), "batching must be observable in the digest");
    }

    #[test]
    #[allow(clippy::disallowed_types)] // a check, not a table on the served path
    fn every_instance_decides_exactly_once() {
        let script = uniform_script(3, 100, 10, 5);
        let mut svc = DeterministicService::new(3, ShardConfig::default());
        svc.run_script(&script, 7);
        let mut seen = std::collections::HashSet::new();
        for fact in svc.stream() {
            assert!(
                seen.insert(fact.instance),
                "{} decided twice",
                fact.instance
            );
        }
        // Exactly the distinct proposed instances decided.
        let distinct: std::collections::HashSet<_> = script.iter().map(|&(id, _)| id).collect();
        assert_eq!(seen, distinct);
        assert_eq!(svc.stats().pending, 0);
    }

    #[test]
    fn crash_plus_retry_matches_clean_stream() {
        let script = uniform_script(11, 80, 16, 4);
        let mut clean = DeterministicService::new(4, ShardConfig::default());
        clean.run_script(&script, 0);

        let mut crashed = DeterministicService::new(4, ShardConfig::default());
        for (position, &(instance, value)) in script.iter().enumerate() {
            crashed.propose(instance, value, position as u64);
        }
        // Crash every shard after one batch, then restart-and-retry
        // until the backlog drains.
        crashed.tick_all_crashing(&[1, 1, 1, 1]);
        while crashed.stats().pending > 0 {
            crashed.tick_all();
        }
        // The crash shifts the cross-shard interleaving but not any
        // per-shard stream: canonical forms match exactly.
        assert_eq!(crashed.canonical_stream(), clean.canonical_stream());
    }

    #[test]
    fn obs_report_aggregates_across_shards() {
        let script = uniform_script(5, 40, 8, 3);
        let mut svc = DeterministicService::new(2, ShardConfig::default());
        svc.run_script(&script, 4);
        let report = svc.obs_report();
        assert_eq!(report.count("service.proposals"), 40);
        assert_eq!(
            report.count("shard000.proposals") + report.count("shard001.proposals"),
            40
        );
        assert_eq!(report.count("service.decided"), svc.stream().len() as u64);
        assert!(report.hist("service.batch_size").is_some());
    }
}
