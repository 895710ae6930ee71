//! Compile-only pin of the API that `benchmark/` links by name
//! (ROADMAP constraint (a)). `benchmark/` is a workspace of its own, so
//! the tier-1 command never builds it; this file names every symbol it
//! uses, at the signature it uses it, so a public-API change that would
//! break the ledger fails `cargo test` here instead.

use sift::adopt_commit::{AdoptCommit, GafniSnapshotAc, GafniSnapshotProposer};
use sift::consensus::{
    sifting_consensus, ConsensusOutcome, ConsensusParticipant, ConsensusProtocol, SiftingConsensus,
};
use sift::core::{
    Conciliator, Epsilon, Persona, SiftingConciliator, SiftingParticipant, SnapshotConciliator,
    SnapshotParticipant,
};
use sift::obs::ObsReport;
use sift::service::det::DeterministicService;
use sift::service::runtime::{block_on, oneshot};
use sift::service::{
    shard_of, CommitFact, DecideMeta, InstanceId, ProposeFuture, Service, ServiceConfig,
    ServiceError, ShardConfig,
};
use sift::shmem::memory::AtomicMemory;
use sift::shmem::{affinity, run_lockstep_on, ExecuteOps};
use sift::sim::rng::{SeedSplitter, Xoshiro256StarStar};
use sift::sim::schedule::{RandomInterleave, RoundRobin, Schedule};
use sift::sim::{
    Engine, Layout, LayoutBuilder, MaxRegisterId, Op, OpKind, OpResult, ProcessId, RegisterId,
    RunReport, SnapshotId, SparseReport, StopReason,
};

type P = SiftingParticipant;
type Factory = fn(ProcessId) -> P;
type Rng = Xoshiro256StarStar;
type Ac = GafniSnapshotAc<Persona>;
type Stack = ConsensusProtocol<SnapshotConciliator, Ac>;
type Build<T> = fn(&mut LayoutBuilder) -> T;
type CodeOf = fn(&Persona) -> u64;

#[test]
fn the_symbols_benchmark_links_keep_their_signatures() {
    let _: fn(&Layout, Vec<P>) -> Engine<P> = Engine::new;
    let _: fn(&Layout, usize, Factory) -> Engine<P> = Engine::lazy;
    let _: fn(&mut Engine<P>, u64) -> &mut Engine<P> = Engine::limit_slots;
    let _: fn(Engine<P>, RoundRobin) -> RunReport<P> = Engine::run;
    let _: fn(Engine<P>, RoundRobin) -> SparseReport<P> = Engine::run_sparse;

    let _: fn(&Layout) -> AtomicMemory<Persona> = AtomicMemory::new;
    let _: fn(&AtomicMemory<Persona>, Op<Persona>) -> OpResult<Persona> = ExecuteOps::execute;
    let _: fn(&AtomicMemory<Persona>, Vec<P>) -> Vec<Persona> = run_lockstep_on;
    let _: fn(usize) -> bool = affinity::pin_to_core;

    let _: fn(&SeedSplitter, &str, u64) -> u64 = SeedSplitter::seed;
    let _: fn(&SeedSplitter, &str, u64) -> Xoshiro256StarStar = SeedSplitter::stream;
    let _: fn(ProcessId, u64) -> Persona = Persona::bare;

    let _: fn(usize, ShardConfig) -> DeterministicService = DeterministicService::new;
    let _: fn(&DecideMeta) -> (u32, u32) = |meta| (meta.phases, meta.attempts);
    let _: usize = ShardConfig::default().base_phases;

    let (tx, rx) = oneshot::channel::<u64>();
    assert_eq!(tx.send(7), Ok(()));
    assert_eq!(block_on(rx).ok(), Some(7));

    let _: fn(InstanceId, usize) -> usize = shard_of;
    let _: fn(ServiceConfig) -> Service = Service::start;
    let _: fn(&Service, InstanceId, u64) -> ProposeFuture = Service::propose;
    let _: fn(&Service, InstanceId, u64) -> Result<CommitFact, ServiceError> =
        Service::propose_sync;
    let _: fn(Service) -> ObsReport = Service::shutdown;
    let _: fn(ProposeFuture) -> Result<CommitFact, ServiceError> = block_on::<ProposeFuture>;
    let _: fn(&ObsReport, &str) -> u64 = ObsReport::count;
    let ServiceConfig {
        shards: _,
        workers: _,
        shard: ShardConfig { .. },
    } = ServiceConfig::default();

    let _: fn(&mut LayoutBuilder, usize, u64, u64) -> SiftingConsensus = sifting_consensus;
    let _: fn(&mut LayoutBuilder, usize, usize, Build<SnapshotConciliator>, Build<Ac>) -> Stack =
        ConsensusProtocol::allocate;
    let _: fn(&Stack, ProcessId, u64, &mut Rng) -> ConsensusParticipant<SnapshotConciliator, Ac> =
        ConsensusProtocol::participant;
    let _: fn(ConsensusOutcome) -> Option<u64> = |outcome| match outcome {
        ConsensusOutcome::Decided(decision) => Some(decision.value),
        ConsensusOutcome::Exhausted { .. } => None,
    };
    let _: fn(&mut LayoutBuilder, usize, CodeOf) -> Ac = GafniSnapshotAc::allocate;
    let _: fn(&Ac, ProcessId, u64, Persona) -> GafniSnapshotProposer<Persona> =
        AdoptCommit::proposer;

    let _: fn(&mut LayoutBuilder, usize, Epsilon) -> SiftingConciliator =
        SiftingConciliator::allocate;
    let _: fn(&mut LayoutBuilder, usize, Epsilon) -> SnapshotConciliator =
        SnapshotConciliator::allocate;
    let _: fn(&SiftingConciliator, ProcessId, u64, &mut Rng) -> P = Conciliator::participant;
    let _: fn(&SnapshotConciliator, ProcessId, u64, &mut Rng) -> SnapshotParticipant =
        Conciliator::participant;
    let _: Epsilon = Epsilon::HALF;

    let _: fn() -> LayoutBuilder = LayoutBuilder::new;
    let _: fn(&mut LayoutBuilder, usize) -> Vec<RegisterId> = LayoutBuilder::registers;
    let _: fn(&mut LayoutBuilder, usize) -> SnapshotId = LayoutBuilder::snapshot;
    let _: fn(&mut LayoutBuilder) -> MaxRegisterId = LayoutBuilder::max_register;
    let _: fn(LayoutBuilder) -> Layout = LayoutBuilder::build;
    let _: fn(usize, u64) -> RandomInterleave = RandomInterleave::new;
    let _: fn(&mut RandomInterleave) -> Option<ProcessId> = Schedule::next_pid;
    let _: fn(Engine<P>, RandomInterleave) -> RunReport<P> = Engine::run;
    let _: fn(&RunReport<P>) -> bool = |report| report.stop_reason == StopReason::SlotLimit;
    let _: [OpKind; 6] = [
        OpKind::SnapshotUpdate,
        OpKind::SnapshotScan,
        OpKind::RegisterWrite,
        OpKind::RegisterRead,
        OpKind::MaxWrite,
        OpKind::MaxRead,
    ];
}
