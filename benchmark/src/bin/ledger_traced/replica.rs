//! A replica of what `ShardCore::decide` assembles for one batch, built
//! from the same public constructors in the same order, so each stage
//! of a decision can be timed from outside: stack allocation, memory
//! construction, participants, the lockstep run, memory teardown.
//!
//! The replica derives its randomness exactly as the shard does
//! (`SeedSplitter` over seed → shard → instance → attempt), so on the
//! same inputs it decides the same value the service did;
//! `bench.replica_match_share` reports how often that held, and a
//! value below 1 means the served decide path no longer is what this
//! file replays.

use sift_adopt_commit::{AdoptCommit, GafniSnapshotAc};
use sift_consensus::{ConsensusOutcome, ConsensusProtocol};
use sift_core::{Conciliator, Epsilon, Persona, SnapshotConciliator};
use sift_ledger::alloc::AllocCount;
use sift_ledger::span::Tracer;
use sift_ledger::sys;
use sift_ledger::workloads::service::{ColdInputs, BASE_PHASES, SHARDS};
use sift_service::shard_of;
use sift_shmem::memory::AtomicMemory;
use sift_shmem::{run_lockstep_on, ExecuteOps};
use sift_sim::rng::SeedSplitter;
use sift_sim::{Layout, LayoutBuilder, ProcessId};

use crate::counting::CountingMemory;

type Stack = ConsensusProtocol<SnapshotConciliator, GafniSnapshotAc<Persona>>;

/// The five stage spans of a replica decision, in order; each is a
/// child of [`DECIDE`].
pub const STAGES: [&str; 5] = [
    "consensus.allocate",
    "shmem.memory_new",
    "consensus.participants",
    "shmem.lockstep_run",
    "shmem.memory_drop",
];
/// The span around one whole replica decision.
pub const DECIDE: &str = "replica.decide";

fn adopt_commit(builder: &mut LayoutBuilder, n: usize) -> GafniSnapshotAc<Persona> {
    GafniSnapshotAc::allocate(builder, n, |p: &Persona| p.input())
}

/// `LayoutBuilder` + `ConsensusProtocol::allocate` + `build`, as the
/// shard does for a batch of `n` with `phases` phases.
pub fn allocate(n: usize, phases: usize) -> (Stack, Layout) {
    let mut builder = LayoutBuilder::new();
    let protocol = ConsensusProtocol::allocate(
        &mut builder,
        n,
        phases,
        |b| SnapshotConciliator::allocate(b, n, Epsilon::HALF),
        |b| adopt_commit(b, n),
    );
    (protocol, builder.build())
}

/// The shard's seed material for `(seed, shard, instance, attempt)`.
fn run_seed(inputs: &ColdInputs, i: usize, attempt: u64) -> SeedSplitter {
    let instance = inputs.id(i);
    let shard = shard_of(instance, SHARDS) as u64;
    let shard_seed = SeedSplitter::new(inputs.shard_seed).seed("shard", shard);
    let instance_seed = SeedSplitter::new(shard_seed).seed("instance", instance.0);
    SeedSplitter::new(SeedSplitter::new(instance_seed).seed("attempt", attempt))
}

/// What one replica decision produced.
pub struct Decided {
    /// The decided value.
    pub value: u64,
    /// Phases the first decider used.
    pub phases: u64,
}

/// Decides instance `i` of `inputs` the way the shard would, running
/// the stack on the memory `make_memory` builds for its layout and
/// showing that memory to `inspect` after each run (the counting pass
/// reads its tallies there; the timed pass passes a no-op). With a
/// tracer, every stage of every attempt is recorded as a span
/// (`window` = `i`).
pub fn decide<M: ExecuteOps<Persona>>(
    inputs: &ColdInputs,
    i: usize,
    make_memory: impl Fn(&Layout) -> M,
    mut inspect: impl FnMut(&M),
    mut tracer: Option<(&mut Tracer, u32)>,
) -> Decided {
    let batch = inputs.proposed(i);
    let n = batch.len();
    let mut phases = BASE_PHASES;
    for attempt in 0..64u64 {
        let split = run_seed(inputs, i, attempt);
        let t0 = sys::now_ns();
        let (protocol, layout) = allocate(n, phases);
        let t1 = sys::now_ns();
        let memory = make_memory(&layout);
        let t2 = sys::now_ns();
        let participants: Vec<_> = batch
            .iter()
            .enumerate()
            .map(|(p, &value)| {
                let mut rng = split.stream("participant", p as u64);
                protocol.participant(ProcessId(p), value as u64, &mut rng)
            })
            .collect();
        let t3 = sys::now_ns();
        let outcomes = run_lockstep_on(&memory, participants);
        inspect(&memory);
        let t4 = sys::now_ns();
        drop(memory);
        let t5 = sys::now_ns();
        if let Some((tracer, rep)) = tracer.as_mut() {
            let edges = [t0, t1, t2, t3, t4, t5];
            tracer.record(DECIDE, None, *rep, i as u32, t0, t5);
            for (stage, pair) in STAGES.iter().zip(edges.windows(2)) {
                tracer.record(stage, Some(DECIDE), *rep, i as u32, pair[0], pair[1]);
            }
        }
        let decision = outcomes.iter().find_map(|o| match o {
            ConsensusOutcome::Decided(d) => Some(d),
            ConsensusOutcome::Exhausted { .. } => None,
        });
        if let Some(decision) = decision {
            return Decided {
                value: decision.value,
                phases: decision.phases as u64,
            };
        }
        phases = (phases * 2).min(64);
    }
    panic!("replica: 64 consensus attempts all exhausted, as the shard would have panicked");
}

/// One half of the stack run alone, summed over the counting pass.
#[derive(Debug, Default)]
pub struct Alone {
    /// Nanoseconds inside `run_lockstep_on`.
    pub ns: u64,
    /// Shared-memory operations issued.
    pub ops: u64,
    /// Participants that issued them.
    pub participants: u64,
}

/// What the counting pass measured, summed over its decisions.
#[derive(Debug, Default)]
pub struct StackCounts {
    /// Shared-memory operations by kind (`Kind::MIX` order), summed
    /// over the pass.
    pub ops: [u64; 6],
    /// Sum of the deciders' phases.
    pub phases: u64,
    /// Decisions in the pass.
    pub decisions: u64,
    /// The conciliator alone.
    pub conciliator: Alone,
    /// The adopt-commit alone, fed the conciliator's outputs.
    pub adopt_commit: Alone,
    /// Allocations `AtomicMemory::new` makes for the stack's layout.
    pub memory_new_allocs: u64,
}

/// The exact pass: the first `decisions` instances once more, on a
/// counting memory — the whole stack for operation counts and phases,
/// then the conciliator alone and the adopt-commit alone, each in
/// lockstep on the batch's own inputs.
pub fn count_stack(inputs: &ColdInputs, decisions: usize) -> StackCounts {
    let mut counts = StackCounts::default();
    let n = inputs.k;
    let (_, layout) = allocate(n, BASE_PHASES);
    let before = AllocCount::now();
    let memory = AtomicMemory::<Persona>::new(&layout);
    counts.memory_new_allocs = AllocCount::since(before).allocations;
    drop(memory);

    for i in 0..decisions.min(inputs.instances()) {
        let ops = &mut counts.ops;
        let decided = decide(
            inputs,
            i,
            |layout| CountingMemory::new(AtomicMemory::new(layout)),
            |memory| {
                for (total, seen) in ops.iter_mut().zip(memory.counts()) {
                    *total += seen;
                }
            },
            None,
        );
        counts.phases += decided.phases;
        counts.decisions += 1;

        let split = run_seed(inputs, i, 0);
        let batch = inputs.proposed(i);

        let mut builder = LayoutBuilder::new();
        let conciliator = SnapshotConciliator::allocate(&mut builder, n, Epsilon::HALF);
        let memory = CountingMemory::new(AtomicMemory::<Persona>::new(&builder.build()));
        let participants: Vec<_> = batch
            .iter()
            .enumerate()
            .map(|(p, &value)| {
                let mut rng = split.stream("participant", p as u64);
                conciliator.participant(ProcessId(p), value as u64, &mut rng)
            })
            .collect();
        let start = sys::now_ns();
        let personas = run_lockstep_on(&memory, participants);
        counts.conciliator.ns += sys::now_ns() - start;
        counts.conciliator.ops += memory.counts().iter().sum::<u64>();
        counts.conciliator.participants += n as u64;

        // The adopt-commit sees what the conciliator handed on.
        let mut builder = LayoutBuilder::new();
        let object = adopt_commit(&mut builder, n);
        let memory = CountingMemory::new(AtomicMemory::<Persona>::new(&builder.build()));
        let proposers: Vec<_> = personas
            .into_iter()
            .enumerate()
            .map(|(p, persona)| object.proposer(ProcessId(p), persona.input(), persona))
            .collect();
        let start = sys::now_ns();
        std::hint::black_box(run_lockstep_on(&memory, proposers));
        counts.adopt_commit.ns += sys::now_ns() - start;
        counts.adopt_commit.ops += memory.counts().iter().sum::<u64>();
        counts.adopt_commit.participants += n as u64;
    }
    counts
}
