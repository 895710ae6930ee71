//! Cross-runtime equivalence: the same protocol state machines run on
//! the deterministic simulator and on the threaded substrate, and a
//! lockstep driver over `AtomicMemory`, the model's objects one lock
//! each — and over the model
//! under a lock, their reference — reproduces the simulator's outcome
//! exactly. The last test pins the same boundary for the stack the
//! service decides with: round robin, the served schedule, never leaves
//! phase 1; a checked random interleaving does.

use std::sync::Mutex;

use sift::adopt_commit::GafniSnapshotAc;
use sift::consensus::{ConsensusOutcome, ConsensusProtocol};
use sift::core::{Conciliator, Epsilon, Persona, SiftingConciliator, SnapshotConciliator};
use sift::shmem::{drive_threads, run_lockstep_on, AtomicMemory, ExecuteOps};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::{RandomInterleave, RoundRobin};
use sift::sim::{drive_lockstep, Engine, Layout, LayoutBuilder, Memory, Process, ProcessId};

fn sifting_participants(n: usize, seed: u64) -> (Layout, Vec<sift::core::SiftingParticipant>) {
    let mut b = LayoutBuilder::new();
    let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
    let layout = b.build();
    let split = SeedSplitter::new(seed);
    let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
    (layout, procs)
}

/// Asserts that a lockstep run of `build()`'s processes over each
/// threaded memory decides exactly what the simulator decides under
/// round robin. The simulator's engine resumes a state machine
/// immediately after its op executes, so "one op per scheduled slot"
/// in the lockstep driver is the same discipline.
fn assert_lockstep_matches_simulator<P>(n: usize, seed: u64, build: impl Fn() -> (Layout, Vec<P>))
where
    P: Process<Value = sift::core::Persona, Output = sift::core::Persona>,
{
    let inputs =
        |outputs: Vec<P::Output>| -> Vec<u64> { outputs.into_iter().map(|p| p.input()).collect() };
    let (layout, procs) = build();
    let sim = inputs(
        Engine::new(&layout, procs)
            .run(RoundRobin::new(n))
            .unwrap_outputs(),
    );
    let lock_free = inputs(run_lockstep_on(&AtomicMemory::new(&layout), build().1));
    let model = inputs(run_lockstep_on(
        &Mutex::new(Memory::new(&layout)),
        build().1,
    ));
    assert_eq!(sim, lock_free, "seed {seed}: lock-free");
    assert_eq!(sim, model, "seed {seed}: model under a lock");
}

#[test]
fn lockstep_threads_match_simulator_exactly() {
    for seed in 0..20 {
        assert_lockstep_matches_simulator(9, seed, || sifting_participants(9, seed));
    }
}

#[test]
fn lockstep_matches_for_snapshot_conciliator_too() {
    for seed in 0..10 {
        let n = 6;
        assert_lockstep_matches_simulator(n, seed, || {
            let mut b = LayoutBuilder::new();
            let c = SnapshotConciliator::allocate(&mut b, n, Epsilon::HALF);
            let layout = b.build();
            let split = SeedSplitter::new(seed);
            let procs = split.processes(n, |pid, rng| {
                c.participant(pid, 10 + pid.index() as u64, rng)
            });
            (layout, procs)
        });
    }
}

/// Free-running threads (the OS schedules) still satisfy validity and
/// exact step counts, on either memory.
#[test]
fn free_threads_preserve_protocol_invariants() {
    let n = 6;
    let (layout, procs) = sifting_participants(n, 5);
    let rounds = {
        let mut b = LayoutBuilder::new();
        SiftingConciliator::allocate(&mut b, n, Epsilon::HALF).rounds() as u64
    };
    let lock_free = AtomicMemory::new(&layout);
    let model = Mutex::new(Memory::new(&layout));
    let reports = [
        drive_threads(procs, |_, op| lock_free.execute(op)),
        drive_threads(sifting_participants(n, 5).1, |_, op| model.execute(op)),
    ];
    for report in reports {
        for p in &report.outputs {
            assert!(p.input() < n as u64);
        }
        assert!(report.ops.iter().all(|&o| o == rounds));
    }
}

/// Where the served stack's phase machinery is dead and where it is
/// live. `drive_lockstep` over `Memory` (what `ShardCore` runs) and
/// `Engine::run(RoundRobin)` are the same schedule and agree outcome for
/// outcome, always deciding in phase 1: every update lands before any
/// scan. Under `Engine::run(RandomInterleave)` — a schedule the checked
/// lanes draw, the service never — some runs need phase 2, and the four
/// phases the shard budgets by default are never exhausted.
#[test]
fn served_stack_decides_in_phase_one_under_round_robin_only() {
    let mut needed_phase_two = 0;
    for k in [2usize, 4, 8] {
        let mut b = LayoutBuilder::new();
        let protocol = ConsensusProtocol::allocate(
            &mut b,
            k,
            4,
            |b| SnapshotConciliator::allocate(b, k, Epsilon::HALF),
            |b| GafniSnapshotAc::allocate(b, k, |p: &Persona| p.input()),
        );
        let layout = b.build();
        for seed in 0..100u64 {
            let participants = || {
                let split = SeedSplitter::new(seed);
                (0..k)
                    .map(|i| {
                        let mut rng = split.stream("participant", i as u64);
                        protocol.participant(ProcessId(i), (i as u64 * 7 + seed) % 3, &mut rng)
                    })
                    .collect::<Vec<_>>()
            };
            // `unwrap_decided` panics on an exhausted participant.
            let phases = |outcomes: Vec<ConsensusOutcome>| -> Vec<usize> {
                let phases = outcomes.into_iter().map(|o| o.unwrap_decided().phases);
                phases.collect()
            };

            let mut memory: Memory<Persona> = Memory::new(&layout);
            let served = drive_lockstep(participants(), |_, op| memory.execute(op));
            let round_robin = Engine::new(&layout, participants())
                .run(RoundRobin::new(k))
                .unwrap_outputs();
            assert_eq!(served, round_robin, "k={k} seed={seed}");
            assert_eq!(phases(served), vec![1; k], "k={k} seed={seed}");

            let interleaved = Engine::new(&layout, participants())
                .run(RandomInterleave::new(k, seed))
                .unwrap_outputs();
            needed_phase_two += usize::from(phases(interleaved).contains(&2));
        }
    }
    assert_eq!(needed_phase_two, 8, "of 300 random interleavings");
}
