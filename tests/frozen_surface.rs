//! Compile-only pin of the API that `benchmark/` links by name
//! (ROADMAP constraint (a)). `benchmark/` is a workspace of its own, so
//! the tier-1 command never builds it; this file names every symbol it
//! uses, at the signature it uses it, so a public-API change that would
//! break the ledger fails `cargo test` here instead.

use sift::core::{Persona, SiftingParticipant};
use sift::service::det::DeterministicService;
use sift::service::runtime::{block_on, oneshot};
use sift::service::{DecideMeta, ShardConfig};
use sift::shmem::memory::AtomicMemory;
use sift::shmem::{affinity, run_lockstep_on, ExecuteOps};
use sift::sim::rng::{SeedSplitter, Xoshiro256StarStar};
use sift::sim::schedule::RoundRobin;
use sift::sim::{Engine, Layout, Op, OpResult, ProcessId, RunReport, SparseReport};

type P = SiftingParticipant;
type Factory = fn(ProcessId) -> P;

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
}
