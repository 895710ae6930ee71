//! One shard: an instance table plus batching consensus executor.
//!
//! A [`ShardCore`] owns every instance whose id hashes to it. Each
//! instance is a single-shot consensus: the proposals that have
//! arrived by the time the shard ticks form the instance's *batch*, the
//! batch becomes the participant set of a conciliator + adopt-commit
//! stack over a simulator [`Memory`], and the stack's decision is
//! frozen into a [`CommitFact`]. Proposals that arrive after the
//! decision never re-run consensus — they read the stored fact
//! (idempotence).
//!
//! A decision pays only for what its batch needs. A batch of one is
//! decided without running anything: validity leaves its value as the
//! only legal output, and the stack would commit it in phase 1. For
//! larger batches the stack's shape — its layout, and so its memory —
//! depends only on the batch size (the phase budget is a constant of the
//! shard), never on the instance, so the shard keeps the stacks it has
//! built and hands each one out again with its memory
//! [`reset`](Memory::reset) (DESIGN.md, "What a decision allocates").
//!
//! A decision runs on one thread, under the shard's lock, as a
//! round-robin lockstep ([`drive_lockstep`]) — a schedule fixed in
//! advance over atomic registers and unit-cost snapshots, which is the
//! model the paper's guarantees are stated for and the memory that
//! DPOR, the fuzzer and the conformance suites check. Under it every
//! update lands before any scan, so every batch commits in phase 1 and
//! the stack runs once per decision, with no retry (DESIGN.md, "What
//! this layer does not provide"). Nothing here touches the threaded
//! substrate (`sift-shmem`).
//!
//! The instance tables — decided facts, tombstones and a tick's
//! grouping index — hash an id with one keyed multiply-mix
//! (`InstanceHashing`) instead of std's SipHash.
//!
//! A shard observes itself through a `Copy` record of typed fields —
//! the hot paths add to a counter or record into a histogram, and the
//! string-keyed [`ObsReport`] exists only once someone reads it.
//!
//! The core is single-owner and synchronous; the async frontend in
//! [`service`](crate::service) wraps one core per shard in a mutex and
//! ticks it from a worker thread, and the deterministic mode in
//! [`det`](crate::det) drives cores directly on one thread. Both paths
//! execute this exact code, so the deterministic suite exercises the
//! same batching and decision logic the threaded service runs.

use std::collections::VecDeque;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::time::Instant;

use sift_adopt_commit::GafniSnapshotAc;
use sift_consensus::{ConsensusOutcome, ConsensusProtocol};
use sift_core::{Epsilon, PersonaName, SnapshotConciliator};
use sift_obs::{Histogram, ObsReport};
use sift_sim::rng::SeedSplitter;
use sift_sim::{drive_lockstep, LayoutBuilder, Memory, ProcessId};

use crate::fact::{CommitFact, DecideMeta, InstanceId, ServiceError};
use crate::runtime::oneshot;

/// Per-shard configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Master seed; every consensus run draws its randomness from
    /// `(seed, shard, instance)`, so decisions are replayable.
    pub seed: u64,
    /// Decided facts retained per shard. When the table exceeds this,
    /// the oldest decided instances are evicted (their facts dropped,
    /// later proposals rejected with
    /// [`ServiceError::Evicted`]). `usize::MAX` retains everything.
    pub capacity: usize,
    /// Phase budget of the one consensus run on a batch of two or more
    /// (0 is treated as 1). Under the served round-robin schedule every
    /// batch commits in phase 1, so the budget sizes the stack's layout
    /// and changes no fact. A batch of one never runs the stack and
    /// always reports one phase, whatever the budget.
    pub base_phases: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            capacity: usize::MAX,
            base_phases: 4,
        }
    }
}

/// One proposal travelling through the service.
#[derive(Debug)]
pub struct Proposal {
    /// Target instance.
    pub instance: InstanceId,
    /// Proposed value.
    pub value: u64,
    /// Client-chosen tag, echoed in [`DecideMeta::deciding_tag`] if
    /// this proposal's value wins.
    pub tag: u64,
    /// Completion channel, resolved with the instance's commit fact (or
    /// a rejection) when the shard processes the proposal; `None` for
    /// fire-and-forget submission (the deterministic driver reads facts
    /// from `ShardCore::tick` instead).
    pub waiter: Option<oneshot::Sender<Result<CommitFact, ServiceError>>>,
    /// Submission time for latency accounting; `None` in deterministic
    /// mode, which must not read the wall clock.
    pub submitted: Option<Instant>,
}

/// Introspection snapshot of one shard's table (leak assertions in the
/// negative-path tests are built on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Proposals waiting for the next tick.
    pub pending: usize,
    /// How many of those carry a live completion channel.
    pub waiters: usize,
    /// Decided facts currently retained.
    pub decided: usize,
    /// Instances evicted so far (tombstones).
    pub evicted: usize,
}

impl ShardStats {
    /// Key-wise sum, for aggregating across shards.
    pub(crate) fn merge(self, other: ShardStats) -> ShardStats {
        ShardStats {
            pending: self.pending + other.pending,
            waiters: self.waiters + other.waiters,
            decided: self.decided + other.decided,
            evicted: self.evicted + other.evicted,
        }
    }
}

/// The state of one shard. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct ShardCore {
    id: u16,
    config: ShardConfig,
    /// Proposals accepted since the last tick, in arrival order.
    inbox: Vec<Proposal>,
    /// Decided instances and their immutable facts.
    decided: InstanceMap<CommitFact>,
    /// Decision order, for FIFO eviction under `capacity`.
    decided_order: VecDeque<InstanceId>,
    /// Tombstones: evicted instances are remembered (one u64 each) so
    /// late proposals get a definite rejection instead of silently
    /// re-deciding a fresh instance.
    evicted: InstanceSet,
    seq: u64,
    obs: ShardObs,
    stacks: StackCache,
    grouping: Grouping,
}

/// What one shard has observed, one typed field per observation: the
/// hot paths record with a plain add, `max` or [`Histogram::record`] —
/// no key is looked up or built per proposal — and
/// [`render`](Self::render) names the fields only when the report is
/// read.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardObs {
    proposals: u64,
    idempotent: u64,
    evicted_rejects: u64,
    decided: u64,
    cancelled: u64,
    evictions: u64,
    /// Shared-memory operations the served decisions executed, the
    /// paper's cost unit; a lone proposer executes none.
    ops: u64,
    max_batch: u64,
    batch_size: Histogram,
    phases: Histogram,
    latency_ns: Histogram,
}

impl ShardObs {
    /// The record as an [`ObsReport`] under the keys a string-keyed
    /// report would have grown: a key appears once something was
    /// recorded into it, so a zero counter, the maximum of a shard that
    /// decided nothing and an empty histogram are left out.
    pub(crate) fn render(&self) -> ObsReport {
        let mut report = ObsReport::new();
        let counters = [
            ("proposals", self.proposals),
            ("idempotent", self.idempotent),
            ("evicted_rejects", self.evicted_rejects),
            ("decided", self.decided),
            ("cancelled", self.cancelled),
            ("evictions", self.evictions),
            ("ops", self.ops),
        ];
        for (name, n) in counters {
            if n > 0 {
                report.add_count(name, n);
            }
        }
        if self.decided > 0 {
            report.observe_max("max_batch", self.max_batch);
        }
        let hists = [
            ("batch_size", &self.batch_size),
            ("phases", &self.phases),
            ("latency_ns", &self.latency_ns),
        ];
        for (name, hist) in hists {
            if !hist.is_empty() {
                report.merge_hist(name, hist);
            }
        }
        report
    }
}

/// What the served memory stores: persona *names*, each phase's coins
/// sitting in that phase's conciliator, so an operation copies 16 bytes
/// and touches no reference count. `Copy`, checked at compile time.
type Held = PersonaName;

const _: () = {
    const fn copy<T: Copy>() {}
    copy::<Held>()
};

/// The stack every batch of two or more is decided by.
type ServedProtocol = ConsensusProtocol<SnapshotConciliator<Held>, GafniSnapshotAc<Held>, Held>;

/// The stacks this shard has built, each with the memory it runs on,
/// keyed by batch size — all that a stack's layout depends on, the
/// phase budget being one constant per shard.
#[derive(Debug)]
struct StackCache {
    phases: usize,
    stacks: Vec<(ServedProtocol, Memory<Held>)>,
}

impl StackCache {
    /// Stacks kept at once. Batch sizes are few in practice; a shard
    /// that has seen more of them than this forgets them all and
    /// rebuilds what it meets next, so the cache is a constant number
    /// of stacks, not a function of the traffic.
    const LIMIT: usize = 32;

    /// An empty cache whose stacks all get `phases` phases.
    fn new(phases: usize) -> Self {
        Self {
            phases,
            stacks: Vec::new(),
        }
    }

    /// The stack for `n` participants, its memory and coin tables
    /// fresh. This is the one place a stack is built.
    fn checkout(&mut self, n: usize) -> &mut (ServedProtocol, Memory<Held>) {
        let cached = self.stacks.iter().position(|(p, _)| p.process_count() == n);
        let index = match cached {
            Some(index) => {
                let (protocol, memory) = &mut self.stacks[index];
                memory.reset();
                protocol.conciliators().for_each(|c| c.coins().clear());
                index
            }
            None => {
                if self.stacks.len() == Self::LIMIT {
                    self.stacks.clear();
                }
                let mut builder = LayoutBuilder::new();
                let protocol = ConsensusProtocol::allocate(
                    &mut builder,
                    n,
                    self.phases,
                    |b| SnapshotConciliator::allocate_as(b, n, Epsilon::HALF),
                    |b| GafniSnapshotAc::allocate(b, n, |p: &Held| p.input),
                );
                self.stacks.push((protocol, Memory::new(&builder.build())));
                self.stacks.len() - 1
            }
        };
        &mut self.stacks[index]
    }
}

/// What [`ShardCore::tick_crashing`] groups an inbox with, kept between
/// ticks so a tick allocates nothing to group: the instance → batch
/// index (empty between ticks, its key drawn once with the shard) and
/// the batch vectors (each empty between ticks, capacity retained).
#[derive(Debug)]
struct Grouping {
    index: InstanceMap<usize>,
    batches: Vec<Vec<Proposal>>,
}

impl Grouping {
    /// A tick over more proposals than this gives its grouping storage
    /// (and the inbox's) back to the allocator instead of keeping it,
    /// so one burst does not size the shard for good.
    const KEEP_UP_TO: usize = 4096;
}

impl ShardCore {
    /// Creates an empty shard with the given id and configuration.
    pub(crate) fn new(id: u16, config: ShardConfig) -> Self {
        Self {
            id,
            stacks: StackCache::new(config.base_phases.max(1)),
            config,
            inbox: Vec::new(),
            decided: InstanceMap::with_hasher(InstanceHashing::new()),
            decided_order: VecDeque::new(),
            evicted: InstanceSet::with_hasher(InstanceHashing::new()),
            seq: 0,
            obs: ShardObs::default(),
            grouping: Grouping {
                index: InstanceMap::with_hasher(InstanceHashing::new()),
                batches: Vec::new(),
            },
        }
    }

    /// This shard's id.
    pub(crate) fn id(&self) -> u16 {
        self.id
    }

    /// Accepts one proposal. Decided instances answer immediately from
    /// the table; evicted ones reject immediately; open ones batch
    /// until the next `tick`.
    ///
    /// Returns `true` if the proposal is waiting for a tick (the
    /// caller should schedule one).
    pub fn submit(&mut self, proposal: Proposal) -> bool {
        self.obs.proposals += 1;
        if let Some(fact) = self.decided.get(&proposal.instance) {
            self.obs.idempotent += 1;
            let fact = fact.clone();
            self.complete(proposal, Ok(fact));
            return false;
        }
        if self.evicted.contains(&proposal.instance) {
            self.obs.evicted_rejects += 1;
            let instance = proposal.instance;
            self.complete(proposal, Err(ServiceError::Evicted(instance)));
            return false;
        }
        self.inbox.push(proposal);
        true
    }

    /// Processes every proposal accepted since the last tick: groups
    /// them by instance (arrival order preserved), runs one consensus
    /// per still-open instance, completes all waiters, and applies the
    /// eviction policy. Returns the newly minted facts in decision
    /// order.
    pub(crate) fn tick(&mut self) -> Vec<CommitFact> {
        self.tick_crashing(usize::MAX)
    }

    /// [`tick`](Self::tick) with a simulated worker crash: only the
    /// first `crash_after` instance batches are decided; every later
    /// batch's proposals return to the inbox *untouched* — no fact, no
    /// sequence number, no observation, waiters intact. Because batch
    /// grouping depends only on arrival order and decisions only on
    /// `(seed, shard, instance)` and batch content, a retry
    /// tick after the "restart" decides exactly the facts this tick
    /// would have (provided no new proposals interleave), which is the
    /// crash-recovery invariant the soak tier checks.
    pub(crate) fn tick_crashing(&mut self, crash_after: usize) -> Vec<CommitFact> {
        if self.inbox.is_empty() {
            return Vec::new();
        }
        let mut inbox = std::mem::take(&mut self.inbox);
        let Grouping { index, batches } = &mut self.grouping;
        let proposals = inbox.len();
        // Group by instance, keeping both first-arrival instance order
        // and intra-batch arrival order — the batch order is what makes
        // deterministic runs replayable.
        let mut groups = 0;
        for proposal in inbox.drain(..) {
            let slot = *index.entry(proposal.instance).or_insert(groups);
            if slot == groups {
                groups += 1;
                if batches.len() < groups {
                    batches.push(Vec::new());
                }
            }
            batches[slot].push(proposal);
        }
        index.clear();
        // Deciding needs `&mut self`, so the batches leave the shard
        // for the loop; the index, and with it its key, stays.
        let mut batches = std::mem::take(batches);
        self.inbox = inbox;
        let mut facts = Vec::with_capacity(groups.min(crash_after));
        for (position, batch) in batches[..groups].iter_mut().enumerate() {
            if position >= crash_after {
                // Crash point: the undecided batches go back into the
                // inbox in order, so the post-restart tick regroups
                // them identically.
                self.inbox.append(batch);
                continue;
            }
            let instance = batch[0].instance;
            let fact = self.decide(instance, batch);
            for proposal in batch.drain(..) {
                self.complete(proposal, Ok(fact.clone()));
            }
            self.decided.insert(instance, fact.clone());
            self.decided_order.push_back(instance);
            facts.push(fact);
            self.enforce_capacity();
        }
        if proposals <= Grouping::KEEP_UP_TO {
            self.grouping.batches = batches;
        } else {
            self.grouping.index.shrink_to_fit();
            self.inbox.shrink_to(Grouping::KEEP_UP_TO);
        }
        facts
    }

    /// Decides one instance's batch and mints its fact.
    fn decide(&mut self, instance: InstanceId, batch: &[Proposal]) -> CommitFact {
        let (value, decider_phases) = match batch {
            // A lone proposer's value is the only output validity
            // allows, and the stack would commit it in phase 1: the
            // conciliator returns a lone participant's own persona and
            // adopt-commit commits a lone proposal.
            // `tests/substrate_differential.rs` holds this shortcut to
            // the full stack's `(value, phases)`.
            [lone] => (lone.value, 1),
            _ => self.run_stack(instance, batch),
        };
        let deciding_tag = batch
            .iter()
            .find(|p| p.value == value)
            .map(|p| p.tag)
            .expect("validity: decided value was proposed by someone in the batch");
        let fact = CommitFact {
            instance,
            value,
            meta: DecideMeta {
                shard: self.id,
                seq: self.seq,
                batch_size: batch.len() as u32,
                attempts: 1,
                phases: decider_phases as u32,
                deciding_tag,
            },
        };
        self.seq += 1;
        self.obs.decided += 1;
        self.obs.batch_size.record(batch.len() as u64);
        self.obs.phases.record(decider_phases as u64);
        self.obs.max_batch = self.obs.max_batch.max(batch.len() as u64);
        fact
    }

    /// Runs the consensus stack over `batch` once, at the shard's phase
    /// budget; returns the decided value and the phases its decider ran.
    /// Panics if every participant exhausts its phases, which round
    /// robin cannot produce: better a dead shard than an undecided fact.
    fn run_stack(&mut self, instance: InstanceId, batch: &[Proposal]) -> (u64, usize) {
        let split = self.run_seed(instance);
        let (protocol, memory) = self.stacks.checkout(batch.len());
        let participants: Vec<_> = batch
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut rng = split.stream("participant", i as u64);
                protocol.participant(ProcessId(i), p.value, &mut rng)
            })
            .collect();
        let outcomes = drive_lockstep(participants, |_, op| memory.execute(op));
        self.obs.ops += memory.ops_executed();
        // Agreement is absolute, so the first decider speaks for all;
        // exhausted participants would have adopted the same value had
        // they been given more phases.
        let decision = outcomes
            .iter()
            .find_map(|o| match o {
                ConsensusOutcome::Decided(d) => Some(d),
                ConsensusOutcome::Exhausted { .. } => None,
            })
            .unwrap_or_else(|| {
                panic!(
                    "shard {} instance {instance}: every participant exhausted its phases",
                    self.id
                )
            });
        (decision.value, decision.phases)
    }

    /// Seed material for `(seed, shard, instance)`; the constant
    /// `("attempt", 0)` link is what every pinned digest was minted under.
    fn run_seed(&self, instance: InstanceId) -> SeedSplitter {
        let shard_seed = SeedSplitter::new(self.config.seed).seed("shard", self.id as u64);
        let instance_seed = SeedSplitter::new(shard_seed).seed("instance", instance.0);
        SeedSplitter::new(SeedSplitter::new(instance_seed).seed("attempt", 0))
    }

    /// Resolves one proposal, recording latency; a dropped receiver
    /// (client cancelled mid-proposal) is counted, never an error.
    fn complete(&mut self, proposal: Proposal, result: Result<CommitFact, ServiceError>) {
        if let Some(submitted) = proposal.submitted {
            self.obs
                .latency_ns
                .record(submitted.elapsed().as_nanos() as u64);
        }
        if let Some(waiter) = proposal.waiter {
            if waiter.send(result).is_err() {
                self.obs.cancelled += 1;
            }
        }
    }

    fn enforce_capacity(&mut self) {
        while self.decided.len() > self.config.capacity {
            let Some(oldest) = self.decided_order.pop_front() else {
                break;
            };
            self.decided.remove(&oldest);
            self.evicted.insert(oldest);
            self.obs.evictions += 1;
        }
    }

    /// Explicitly evicts a *decided* instance: drops its fact and
    /// leaves a tombstone. Returns `false` if the instance is not
    /// currently decided (open, unknown, or already evicted).
    pub(crate) fn evict(&mut self, instance: InstanceId) -> bool {
        if self.decided.remove(&instance).is_none() {
            return false;
        }
        self.decided_order.retain(|&id| id != instance);
        self.evicted.insert(instance);
        self.obs.evictions += 1;
        true
    }

    /// The stored fact for `instance`, if it is decided and retained.
    pub(crate) fn fact(&self, instance: InstanceId) -> Option<&CommitFact> {
        self.decided.get(&instance)
    }

    /// Current table introspection (see [`ShardStats`]).
    pub(crate) fn stats(&self) -> ShardStats {
        ShardStats {
            pending: self.inbox.len(),
            waiters: self.inbox.iter().filter(|p| p.waiter.is_some()).count(),
            decided: self.decided.len(),
            evicted: self.evicted.len(),
        }
    }

    /// This shard's observations so far, as a copy of the typed record
    /// (cheap enough to take under a lock and render after it).
    pub(crate) fn observations(&self) -> ShardObs {
        self.obs
    }

    /// This shard's observations so far, rendered.
    pub(crate) fn obs(&self) -> ObsReport {
        self.obs.render()
    }
}

/// A table keyed by instance id, hashed by [`InstanceHashing`]. This
/// alias and [`InstanceSet`] are where the crate names std's hash
/// tables; `clippy.toml` refuses them anywhere else.
#[allow(clippy::disallowed_types)]
type InstanceMap<V> = std::collections::HashMap<InstanceId, V, InstanceHashing>;

/// The set of instance ids [`InstanceMap`] is the map of.
#[allow(clippy::disallowed_types)]
type InstanceSet = std::collections::HashSet<InstanceId, InstanceHashing>;

/// How the instance tables hash an id: one keyed mix, SplitMix64's
/// finalizer over `id ^ key`, where std's tables would run SipHash-1-3.
///
/// - *Keyed, one key per table*, drawn from std's [`RandomState`] — the
///   key source std's tables use — when the shard builds the table, and
///   kept for its life. Instance ids come from clients; under an
///   unkeyed mix a client could precompute ids that share a bucket.
/// - *Not [`shard_of`]'s mix.* A table takes an id's home bucket from
///   the low bits of its hash, and every id shard `s` of `S` holds has
///   `shard_of`'s mix ≡ `s` (mod `S`): reused here, with `S` a power of
///   two, it would leave all but one in `S` of every table's home
///   buckets empty.
/// - *Not cryptographic.* The mix is a bijection on `u64`, so distinct
///   ids never share a whole hash, but the key is all that hides their
///   buckets: it is no defence against a client that learns the key,
///   from timings or otherwise.
#[derive(Debug, Clone, Copy)]
struct InstanceHashing {
    key: u64,
}

impl InstanceHashing {
    /// A hasher under a fresh key from std's [`RandomState`].
    fn new() -> Self {
        Self {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for InstanceHashing {
    type Hasher = InstanceHasher;

    fn build_hasher(&self) -> InstanceHasher {
        InstanceHasher { state: self.key }
    }
}

/// One hash in progress under an [`InstanceHashing`] key. An
/// [`InstanceId`] reaches it as a single `write_u64`: one mix.
struct InstanceHasher {
    state: u64,
}

impl Hasher for InstanceHasher {
    fn write_u64(&mut self, word: u64) {
        self.state = splitmix_finalize(self.state ^ word);
    }

    /// Anything that is not one `u64`, eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// SplitMix64's output finalizer, a bijection on `u64`.
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Maps an instance id onto one of `shards` shards with a fixed
/// splitmix-style mix, so placement is stable across runs, workers, and
/// processes.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_of(instance: InstanceId, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    let z = splitmix_finalize(instance.0.wrapping_add(0x9E3779B97F4A7C15));
    (z % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proposal(instance: u64, value: u64, tag: u64) -> Proposal {
        Proposal {
            instance: InstanceId(instance),
            value,
            tag,
            waiter: None,
            submitted: None,
        }
    }

    #[test]
    fn single_proposal_decides_its_own_value() {
        let mut core = ShardCore::new(0, ShardConfig::default());
        assert!(core.submit(proposal(7, 42, 1)));
        let facts = core.tick();
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].value, 42);
        assert_eq!(facts[0].meta.batch_size, 1);
        assert_eq!(facts[0].meta.deciding_tag, 1);
        assert_eq!(facts[0].meta.seq, 0);
    }

    #[test]
    fn lone_proposal_takes_one_phase_at_every_budget() {
        for base_phases in [1usize, 2, 4, 8] {
            let config = ShardConfig {
                base_phases,
                ..ShardConfig::default()
            };
            let mut core = ShardCore::new(0, config);
            core.submit(proposal(7, 42, 9));
            let fact = core.tick().remove(0);
            assert_eq!((fact.value, fact.meta.deciding_tag), (42, 9));
            assert_eq!((fact.meta.phases, fact.meta.attempts), (1, 1));
            let obs = core.obs();
            assert_eq!(obs.count("decided"), 1);
            assert_eq!(obs.max("max_batch"), 1);
            for name in ["batch_size", "phases"] {
                let hist = obs.hist(name).unwrap();
                assert_eq!((hist.count(), hist.count_at(1)), (1, 1), "{name}");
            }
        }
    }

    #[test]
    fn conflicting_batch_decides_one_proposed_value() {
        let mut core = ShardCore::new(3, ShardConfig::default());
        for (i, v) in [5u64, 9, 5, 13].into_iter().enumerate() {
            core.submit(proposal(1, v, i as u64));
        }
        let facts = core.tick();
        assert_eq!(facts.len(), 1);
        assert!([5, 9, 13].contains(&facts[0].value));
        assert_eq!(facts[0].meta.batch_size, 4);
        // The deciding tag names the first proposal with the value.
        let expected_tag = [5u64, 9, 5, 13]
            .iter()
            .position(|&v| v == facts[0].value)
            .unwrap() as u64;
        assert_eq!(facts[0].meta.deciding_tag, expected_tag);
    }

    #[test]
    fn repeat_proposals_return_the_original_fact() {
        let mut core = ShardCore::new(0, ShardConfig::default());
        core.submit(proposal(2, 10, 0));
        let original = core.tick().remove(0);
        // Late proposal with a *different* value: answered from the
        // table, no new consensus, identical fact.
        assert!(!core.submit(proposal(2, 999, 7)));
        assert!(core.tick().is_empty());
        assert_eq!(core.fact(InstanceId(2)), Some(&original));
        assert_eq!(core.obs().count("idempotent"), 1);
        assert_eq!(core.obs().count("decided"), 1);
    }

    #[test]
    fn decisions_are_replayable_from_the_seed() {
        let run = || {
            let mut core = ShardCore::new(1, ShardConfig::default());
            for i in 0..6u64 {
                core.submit(proposal(4, i % 3, i));
            }
            core.tick().remove(0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_zero_phase_budget_is_treated_as_one() {
        let facts = |base_phases| {
            let config = ShardConfig {
                base_phases,
                ..ShardConfig::default()
            };
            let mut core = ShardCore::new(0, config);
            for i in 0..6u64 {
                core.submit(proposal(1, i % 3, i));
            }
            core.tick()
        };
        let zero = facts(0);
        assert_eq!(zero, facts(1));
        assert_eq!(zero[0].meta.phases, 1);
    }

    #[test]
    fn capacity_evicts_oldest_decided_first() {
        let config = ShardConfig {
            capacity: 2,
            ..ShardConfig::default()
        };
        let mut core = ShardCore::new(0, config);
        for id in 0..4u64 {
            core.submit(proposal(id, id, id));
            core.tick();
        }
        let stats = core.stats();
        assert_eq!(stats.decided, 2);
        assert_eq!(stats.evicted, 2);
        assert!(core.fact(InstanceId(0)).is_none());
        assert!(core.fact(InstanceId(3)).is_some());
        // A late proposal to an evicted instance is rejected.
        let (tx, rx) = oneshot::channel();
        core.submit(Proposal {
            instance: InstanceId(0),
            value: 1,
            tag: 0,
            waiter: Some(tx),
            submitted: None,
        });
        assert_eq!(
            crate::runtime::block_on(rx).unwrap(),
            Err(ServiceError::Evicted(InstanceId(0)))
        );
    }

    #[test]
    fn a_dropped_receiver_is_counted_as_cancelled() {
        let mut core = ShardCore::new(0, ShardConfig::default());
        let (tx, rx) = oneshot::channel();
        core.submit(Proposal {
            instance: InstanceId(3),
            value: 8,
            tag: 0,
            waiter: Some(tx),
            submitted: None,
        });
        // The client walks away before the tick answers it.
        drop(rx);
        let facts = core.tick();
        assert_eq!(facts.len(), 1, "a cancelled proposal still decides");
        assert_eq!(core.obs().count("cancelled"), 1);
        assert_eq!(core.stats().waiters, 0);
    }

    #[test]
    fn explicit_evict_only_touches_decided_instances() {
        let mut core = ShardCore::new(0, ShardConfig::default());
        assert!(!core.evict(InstanceId(9)), "unknown instance");
        core.submit(proposal(9, 1, 0));
        assert!(!core.evict(InstanceId(9)), "still open");
        core.tick();
        assert!(core.evict(InstanceId(9)));
        assert!(!core.evict(InstanceId(9)), "already evicted");
    }

    #[test]
    fn zero_capacity_still_decides_and_answers() {
        let config = ShardConfig {
            capacity: 0,
            ..ShardConfig::default()
        };
        let mut core = ShardCore::new(0, config);
        let (tx, rx) = oneshot::channel();
        core.submit(Proposal {
            instance: InstanceId(5),
            value: 77,
            tag: 0,
            waiter: Some(tx),
            submitted: None,
        });
        core.tick();
        let fact = crate::runtime::block_on(rx).unwrap().unwrap();
        assert_eq!(fact.value, 77);
        // The fact was delivered, then immediately evicted.
        assert_eq!(core.stats().decided, 0);
        assert_eq!(core.stats().evicted, 1);
    }

    #[test]
    fn crashed_tick_plus_retry_equals_clean_tick() {
        let feed = |core: &mut ShardCore| {
            for i in 0..12u64 {
                core.submit(proposal(i % 4, i % 3, i));
            }
        };
        // Cold cores, then cores that have already decided other
        // instances of the same and other shapes: the grouping scratch
        // and the stacks a tick reuses must not show in its facts.
        for warm_ticks in [0u64, 3] {
            let core = || {
                let mut core = ShardCore::new(2, ShardConfig::default());
                for tick in 0..warm_ticks {
                    for i in 0..10u64 {
                        core.submit(proposal(100 + tick * 10 + i % (tick + 2), i % 4, i));
                    }
                    core.tick();
                }
                core
            };
            let warm_decided = core().obs().count("decided");
            let mut clean = core();
            feed(&mut clean);
            let clean_facts = clean.tick();

            for crash_after in 0..=4usize {
                let mut crashed = core();
                feed(&mut crashed);
                let mut facts = crashed.tick_crashing(crash_after);
                assert_eq!(facts.len(), crash_after.min(4));
                // Restarted worker retries the surviving inbox.
                facts.extend(crashed.tick());
                let context = format!("warm_ticks={warm_ticks} crash_after={crash_after}");
                assert_eq!(facts, clean_facts, "{context}");
                assert_eq!(crashed.obs().count("decided"), warm_decided + 4);
                assert_eq!(crashed.obs(), clean.obs(), "{context}");
            }
        }
    }

    #[test]
    fn a_cached_stack_runs_like_a_new_one() {
        let outcomes = |cache: &mut StackCache, n: usize, seed: u64| {
            let (protocol, memory) = cache.checkout(n);
            assert_eq!((protocol.process_count(), protocol.max_phases()), (n, 2));
            assert_eq!(memory.ops_executed(), 0, "handed out fresh");
            assert!(protocol.conciliators().all(|c| c.coins().is_empty()));
            let split = SeedSplitter::new(seed);
            let participants: Vec<_> = (0..n)
                .map(|i| {
                    let mut rng = split.stream("participant", i as u64);
                    protocol.participant(ProcessId(i), (i as u64 * 7 + seed) % 3, &mut rng)
                })
                .collect();
            drive_lockstep(participants, |_, op| memory.execute(op))
        };
        let mut warm = StackCache::new(2);
        for (seed, n) in [3, 4, 5, 3, 4, 5, 3].into_iter().enumerate() {
            assert_eq!(
                outcomes(&mut warm, n, seed as u64),
                outcomes(&mut StackCache::new(2), n, seed as u64),
                "n={n} seed={seed}"
            );
        }
        assert_eq!(warm.stacks.len(), 3, "one stack per batch size");
    }

    #[test]
    fn the_stack_cache_holds_a_constant_number_of_stacks() {
        let mut cache = StackCache::new(2);
        for n in 2..2 + 3 * StackCache::LIMIT {
            cache.checkout(n);
            assert!(cache.stacks.len() <= StackCache::LIMIT);
        }
    }

    #[test]
    fn crashed_batches_emit_nothing_and_keep_waiters() {
        let mut core = ShardCore::new(0, ShardConfig::default());
        core.submit(proposal(1, 10, 0));
        let (tx, rx) = oneshot::channel();
        core.submit(Proposal {
            instance: InstanceId(2),
            value: 20,
            tag: 1,
            waiter: Some(tx),
            submitted: None,
        });
        let facts = core.tick_crashing(1);
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].instance, InstanceId(1));
        // The crashed instance decided nothing: no fact, no seq burn,
        // no observation, and the waiter is still pending.
        assert!(core.fact(InstanceId(2)).is_none());
        assert_eq!(core.obs().count("decided"), 1);
        assert_eq!(core.stats().pending, 1);
        assert_eq!(core.stats().waiters, 1);
        let retry = core.tick();
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].meta.seq, 1);
        let fact = crate::runtime::block_on(rx).unwrap().unwrap();
        assert_eq!(fact.value, 20);
    }

    #[test]
    fn instance_hashing_spreads_the_ids_of_one_shard() {
        // Two id sets a table must not cluster: the ids one shard of
        // four holds (they agree on `shard_of`'s mix mod 4) and ids that
        // differ only above bit 32. Each lands in 4096 buckets by the
        // low 12 bits of its hash, as in a table of 2500 ids (a
        // `hot-zipf` shard); at 16 ids a bucket on average, a mix as
        // good as random leaves none empty and loads none past 3x that.
        let hashing = InstanceHashing {
            key: 0x243F_6A88_85A3_08D3,
        };
        let count = 1 << 16;
        let one_shard: Vec<u64> = (0..)
            .filter(|&id| shard_of(InstanceId(id), 4) == 0)
            .take(count)
            .collect();
        let high_bits: Vec<u64> = (0..count as u64).map(|i| i << 32).collect();
        for (name, ids) in [
            ("shard 0 of 4", one_shard),
            ("multiples of 2^32", high_bits),
        ] {
            let mut load = vec![0u32; 4096];
            for id in ids {
                load[(hashing.hash_one(InstanceId(id)) % 4096) as usize] += 1;
            }
            let empty = load.iter().filter(|&&n| n == 0).count();
            let max = load.iter().max().copied().unwrap_or(0);
            assert_eq!(empty, 0, "{name}: {empty} of 4096 buckets never hit");
            assert!(max < 48, "{name}: a bucket holds {max} ids");
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 64] {
            for id in 0..200u64 {
                let s = shard_of(InstanceId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(InstanceId(id), shards));
            }
        }
    }
}
