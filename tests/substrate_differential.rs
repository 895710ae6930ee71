//! Differential testing of the two shared-memory substrates (and, for
//! the served stack, the simulator memory the service decides on).
//!
//! `sift-shmem` ships a lock-free substrate (`LockFreeMemory`, what
//! `AtomicMemory` names) and the original lock-based one
//! (`CoarseMemory`, kept as the reference for exactly this purpose).
//! Both are always compiled, so one binary drives the *same*
//! deterministic lockstep schedule through each and demands
//! observational equality: identical operation results on raw
//! workloads, and identical conciliator outcomes end to end. Any
//! divergence would mean one substrate is not implementing the atomic
//! object semantics the protocols are verified against.

use sift::core::{Conciliator, Epsilon, SiftingConciliator, SnapshotConciliator};
use sift::shmem::{run_lockstep_on, run_script_on, CoarseMemory, LockFreeMemory};
use sift::sim::mc::replay_report;
use sift::sim::rng::{SeedSplitter, Xoshiro256StarStar};
use sift::sim::{LayoutBuilder, Op, OpResult, Process, ProcessId, Step, Value};
use sift_bench::fuzz::{run_fuzz, FuzzConfig};

/// Raw-operation differential: every operation of a seeded mixed
/// workload must produce byte-identical results on both substrates when
/// executed in the same sequential order.
#[test]
fn raw_operations_agree_across_substrates() {
    for seed in 0..10u64 {
        let mut b = LayoutBuilder::new();
        let registers = b.registers(3);
        let snapshot = b.snapshot(4);
        let max_regs = b.max_registers(2);
        let layout = b.build();
        let lockfree: LockFreeMemory<u64> = LockFreeMemory::new(&layout);
        let coarse: CoarseMemory<u64> = CoarseMemory::new(&layout);
        let mut rng = SeedSplitter::new(seed).stream("raw-diff", 0);
        for step in 0..200 {
            let op = match rng.range_u64(6) {
                0 => Op::RegisterRead(registers[rng.range_u64(3) as usize]),
                1 => Op::RegisterWrite(registers[rng.range_u64(3) as usize], rng.next_u64() % 100),
                2 => Op::SnapshotUpdate(snapshot, rng.range_u64(4) as usize, rng.next_u64() % 100),
                3 => Op::SnapshotScan(snapshot),
                4 => Op::MaxRead(max_regs[rng.range_u64(2) as usize]),
                _ => Op::MaxWrite(
                    max_regs[rng.range_u64(2) as usize],
                    rng.range_u64(8),
                    rng.next_u64() % 100,
                ),
            };
            // `OpResult` carries `ScanView`s, which have no `PartialEq`;
            // the derived `Debug` rendering is a faithful value image.
            let a = format!("{:?}", lockfree.execute(op.clone()));
            let b = format!("{:?}", coarse.execute(op.clone()));
            assert_eq!(a, b, "seed {seed}, step {step}, op {op:?}");
        }
    }
}

/// A pre-generated operation sequence over an arbitrary value type
/// that logs the `Debug` rendering of every result it receives — so
/// two substrates driven through the same schedule can be compared
/// operation by operation, not just on their final state.
#[derive(Clone)]
struct ObservingWorkload<V> {
    ops: Vec<Op<V>>,
    next: usize,
    log: Vec<String>,
}

impl<V: Value> Process for ObservingWorkload<V> {
    type Value = V;
    type Output = Vec<String>;

    fn step(&mut self, prev: Option<OpResult<V>>) -> Step<V, Vec<String>> {
        if let Some(r) = prev {
            self.log.push(format!("{r:?}"));
        }
        if self.next < self.ops.len() {
            self.next += 1;
            Step::Issue(self.ops[self.next - 1].clone())
        } else {
            Step::Done(self.log.clone())
        }
    }
}

/// Builds per-process register/max-register workloads over value type
/// `V` for the interleaved differentials below.
fn typed_workloads<V: Value>(
    seed: u64,
    n: usize,
    ops_per_proc: usize,
    regs: &[sift::sim::RegisterId],
    max_regs: &[sift::sim::MaxRegisterId],
    mut value: impl FnMut(u64) -> V,
) -> Vec<ObservingWorkload<V>> {
    let split = SeedSplitter::new(seed);
    (0..n)
        .map(|i| {
            let mut rng = split.stream("typed-diff", i as u64);
            let ops = (0..ops_per_proc)
                .map(|_| match rng.range_u64(4) {
                    0 => Op::RegisterRead(regs[rng.range_u64(regs.len() as u64) as usize]),
                    1 => Op::RegisterWrite(
                        regs[rng.range_u64(regs.len() as u64) as usize],
                        value(rng.next_u64() % 100),
                    ),
                    2 => Op::MaxRead(max_regs[rng.range_u64(max_regs.len() as u64) as usize]),
                    _ => Op::MaxWrite(
                        max_regs[rng.range_u64(max_regs.len() as u64) as usize],
                        rng.range_u64(16),
                        value(rng.next_u64() % 100),
                    ),
                })
                .collect();
            ObservingWorkload {
                ops,
                next: 0,
                log: Vec::new(),
            }
        })
        .collect()
}

/// The inline register paths under randomized interleavings: a seeded
/// random schedule script drives the same per-process workloads
/// through the lock-free substrate (seqlock registers + combining max
/// registers for these payloads) and the lock-based references, and
/// every operation result must agree. The payload fills both inline
/// words, so a torn read or a lost combining write would diverge here
/// with a replayable (seed, script) witness.
#[test]
fn interleaved_inline_workloads_agree_across_substrates() {
    run_interleaved_differential("inline", |v| (v, v.wrapping_mul(3)));
}

/// The same randomized-interleaving differential for oversized
/// payloads, pinning the pointer-publication paths behind the new
/// representation dispatch.
#[test]
fn interleaved_oversized_workloads_agree_across_substrates() {
    run_interleaved_differential("oversized", |v| [v, v + 1, v + 2]);
}

fn run_interleaved_differential<V: Value + PartialEq>(tag: &str, mut value: impl FnMut(u64) -> V) {
    let (n, ops_per_proc) = (4, 12);
    for seed in 0..10u64 {
        let mut b = LayoutBuilder::new();
        let regs = b.registers(2);
        let max_regs = b.max_registers(2);
        let layout = b.build();
        // A random schedule long enough to drain every process, with
        // deliberately uneven process frequencies (solo bursts and
        // stragglers both occur across seeds).
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x5EED);
        let script: Vec<usize> = (0..n * (ops_per_proc + 2) * 2)
            .map(|_| rng.range_u64(n as u64) as usize)
            .collect();
        let mut make = |s| typed_workloads(s, n, ops_per_proc, &regs, &max_regs, &mut value);
        let on_lockfree = run_script_on(&LockFreeMemory::new(&layout), make(seed), &script);
        let on_coarse = run_script_on(&CoarseMemory::new(&layout), make(seed), &script);
        assert_eq!(on_lockfree, on_coarse, "{tag}, seed {seed}");
        assert!(
            on_lockfree.iter().any(|o| o.is_some()),
            "{tag}, seed {seed}: schedule drained no process at all"
        );
    }
}

/// Genuinely threaded combining-max differential: unique keys make the
/// final state deterministic, so after all writers join, the combining
/// register must hold exactly what the lock-based reference holds
/// after the same (sequentially applied) write set.
#[test]
fn threaded_combining_max_final_state_matches_lock_reference() {
    use sift::shmem::max_register::{LockFreeMaxRegister, LockMaxRegister};
    use std::sync::Arc;

    let (threads, writes) = (8u64, 400u64);
    let combining: Arc<LockFreeMaxRegister<(u32, u32)>> = Arc::new(LockFreeMaxRegister::new());
    assert!(combining.is_combining());
    let reference: LockMaxRegister<(u32, u32)> = LockMaxRegister::new();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let combining = Arc::clone(&combining);
            std::thread::spawn(move || {
                // Interleave key ranges across threads so the running
                // maximum keeps changing hands.
                for k in 0..writes {
                    let key = k * threads + t;
                    combining.write(key, (t as u32, k as u32));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..threads {
        for k in 0..writes {
            reference.write(k * threads + t, (t as u32, k as u32));
        }
    }
    assert_eq!(combining.read(), reference.read());
}

/// The sifting conciliator, run in lockstep from identical seeds, must
/// produce identical personas on both substrates.
#[test]
fn sifting_conciliator_outcomes_agree_across_substrates() {
    let n = 8;
    for seed in 0..10u64 {
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let make_procs = || {
            let split = SeedSplitter::new(seed);
            split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng))
        };
        let on_lockfree = run_lockstep_on(&LockFreeMemory::new(&layout), make_procs());
        let on_coarse = run_lockstep_on(&CoarseMemory::new(&layout), make_procs());
        assert_eq!(on_lockfree, on_coarse, "seed {seed}");
    }
}

/// The fuzzer's coverage-novel schedules, replayed as differential
/// inputs: every corpus script — an adversary interleaving the fuzzer
/// found interesting enough to keep — must drive both substrates *and*
/// the simulator engine to identical decisions (and hence identical
/// survivor sets). Coverage-guided schedules exercise interleavings
/// hand-written differential seeds never reach: solo bursts, stalled
/// front-runners, crash-truncated prefixes.
#[test]
fn fuzz_corpus_replays_agree_across_substrates_and_engine() {
    let config = FuzzConfig {
        n: 6,
        generations: 4,
        population: 8,
        seed: 0xD1FF,
        ..FuzzConfig::default()
    };
    let campaign = run_fuzz(&config);
    assert!(
        campaign.violations.is_empty(),
        "the unmodified sifter must be clean: {}",
        campaign.violations[0]
    );
    assert!(
        !campaign.corpus_scripts.is_empty(),
        "corpus must not be empty"
    );

    let mut b = LayoutBuilder::new();
    let c = SiftingConciliator::allocate(&mut b, config.n, Epsilon::HALF);
    let layout = b.build();
    let make_procs = |seed: u64| {
        let split = SeedSplitter::new(seed);
        split.processes(config.n, |pid, rng| {
            c.participant(pid, pid.index() as u64, rng)
        })
    };

    for (idx, script) in campaign.corpus_scripts.iter().enumerate() {
        // Corpus scripts name processes 0..n of the campaign's size.
        let seed = 900 + idx as u64;
        let on_engine = replay_report(&layout, make_procs(seed), script).outputs;
        let on_lockfree = run_script_on(&LockFreeMemory::new(&layout), make_procs(seed), script);
        let on_coarse = run_script_on(&CoarseMemory::new(&layout), make_procs(seed), script);
        assert_eq!(
            on_engine, on_lockfree,
            "corpus script {idx}: engine vs lock-free"
        );
        assert_eq!(
            on_lockfree, on_coarse,
            "corpus script {idx}: lock-free vs coarse"
        );
        // Survivor sets: the distinct decided personas must coincide.
        // Personas are identified by their origin process (no Ord on
        // the full struct), which is exactly the survivor identity the
        // round histories track.
        let survivors = |outs: &[Option<sift::core::Persona>]| {
            let mut s: Vec<_> = outs.iter().flatten().map(|p| p.origin()).collect();
            s.sort();
            s.dedup();
            s
        };
        assert_eq!(
            survivors(&on_engine),
            survivors(&on_coarse),
            "corpus script {idx}: survivor sets diverge"
        );
    }
}

/// Regular-register mode with every overlap resolved to the new value
/// is observationally atomic, so replaying the fuzz corpus scripts
/// through the simulator under `Regular(AlwaysNew)` must reproduce the
/// atomic replays bit for bit — the simulator-side analogue of the
/// substrate differentials above, on exactly the coverage-novel
/// interleavings the fuzzer found interesting.
#[test]
fn fuzz_corpus_replays_agree_between_atomic_and_always_new_regular() {
    use sift::sim::schedule::FixedSchedule;
    use sift::sim::{RegisterSemantics, Resolution};

    let config = FuzzConfig {
        n: 6,
        generations: 4,
        population: 8,
        seed: 0xA70_11C,
        ..FuzzConfig::default()
    };
    let campaign = run_fuzz(&config);
    assert!(campaign.violations.is_empty());
    assert!(!campaign.corpus_scripts.is_empty());

    let mut b = LayoutBuilder::new();
    let c = SiftingConciliator::allocate(&mut b, config.n, Epsilon::HALF);
    let layout = b.build();
    let make_procs = |seed: u64| {
        let split = SeedSplitter::new(seed);
        split.processes(config.n, |pid, rng| {
            c.participant(pid, pid.index() as u64, rng)
        })
    };

    for (idx, script) in campaign.corpus_scripts.iter().enumerate() {
        let seed = 7100 + idx as u64;
        let replay_under = |semantics: RegisterSemantics| {
            let mut engine = sift::sim::Engine::new(&layout, make_procs(seed));
            engine.enable_trace();
            engine.set_register_semantics(semantics);
            engine.run(FixedSchedule::from_indices(script.iter().copied()))
        };
        let atomic = replay_under(RegisterSemantics::Atomic);
        let regular = replay_under(RegisterSemantics::Regular(Resolution::AlwaysNew));
        assert_eq!(
            atomic.outputs, regular.outputs,
            "corpus script {idx}: outputs diverge"
        );
        assert_eq!(
            atomic.metrics, regular.metrics,
            "corpus script {idx}: metrics diverge"
        );
        assert_eq!(
            atomic.trace.as_ref().map(|t| t.events()),
            regular.trace.as_ref().map(|t| t.events()),
            "corpus script {idx}: traces diverge"
        );
    }
}

/// Same differential for the snapshot conciliator, whose scan-heavy
/// access pattern exercises the copy-on-write scan views hardest.
#[test]
fn snapshot_conciliator_outcomes_agree_across_substrates() {
    let n = 6;
    for seed in 0..10u64 {
        let mut b = LayoutBuilder::new();
        let c = SnapshotConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let make_procs = || {
            let split = SeedSplitter::new(seed);
            split.processes(n, |pid, rng| {
                c.participant(pid, 100 + pid.index() as u64, rng)
            })
        };
        let on_lockfree = run_lockstep_on(&LockFreeMemory::new(&layout), make_procs());
        let on_coarse = run_lockstep_on(&CoarseMemory::new(&layout), make_procs());
        assert_eq!(on_lockfree, on_coarse, "seed {seed}");
    }
}

/// Served-stack differential: the stack `ShardCore` decides a batch
/// with — a `ConsensusProtocol` of `SnapshotConciliator` and
/// `GafniSnapshotAc` phases, one participant per proposal, randomness
/// from the service's `(seed, shard, instance)` streams — built fresh
/// here for every batch and driven by the one lockstep loop over both
/// threaded substrates *and* the simulator's `Memory` the service
/// decides on. Any substrate divergence that survives the protocol stack
/// would surface here as a different decided value, phase count or step
/// count.
///
/// Each batch is also put through real `DeterministicService`s, whose
/// facts must name the outcome of that one run, so the stack built here
/// cannot drift from what is served. That is the proof of two things the
/// shard does instead of building this stack per batch: at k = 1 it
/// decides without running anything (the fresh stack must agree: the
/// lone value, one phase), and at k > 1 it reuses the stack and memory it
/// built for an earlier batch of the same size. One service is fresh per
/// batch; the other lives through all 40 batches, so its shard decides
/// on warm stacks across changing batch sizes.
#[test]
fn service_commit_streams_agree_across_substrates() {
    use sift::service::det::DeterministicService;
    use sift::service::{InstanceId, ShardConfig};

    let long_lived_config = ShardConfig {
        seed: 0x5EED,
        base_phases: 2,
        ..ShardConfig::default()
    };
    let mut long_lived = DeterministicService::new(1, long_lived_config.clone());
    for seed in 0..5u64 {
        for k in 1..=8usize {
            let instance = InstanceId(seed * 8 + k as u64);
            let values: Vec<u64> = (0..k as u64).map(|i| (i * 7 + seed) % 3).collect();
            let fresh_config = ShardConfig {
                seed,
                ..ShardConfig::default()
            };
            let mut fresh = DeterministicService::new(1, fresh_config.clone());
            for (tag, &value) in values.iter().enumerate() {
                fresh.propose(instance, value, tag as u64);
                long_lived.propose(instance, value, tag as u64);
            }
            let fact = fresh.tick_all().remove(0);
            assert_fact_names_a_fresh_stacks_outcome(&fresh_config, &values, &fact);
            let fact = long_lived.tick_all().remove(0);
            assert_fact_names_a_fresh_stacks_outcome(&long_lived_config, &values, &fact);
        }
    }
}

/// Replays `fact`'s instance — `values` proposed in order to shard 0 of
/// a one-shard service under `config` — on a fresh full stack at the
/// shard's phase budget: the three memories must agree, and the run must
/// have decided the fact's `(value, phases)`.
fn assert_fact_names_a_fresh_stacks_outcome(
    config: &sift::service::ShardConfig,
    values: &[u64],
    fact: &sift::service::CommitFact,
) {
    use sift::adopt_commit::GafniSnapshotAc;
    use sift::consensus::{ConsensusOutcome, ConsensusProtocol};
    use sift::core::Persona;
    use sift::sim::{drive_lockstep, Memory};

    let k = values.len();
    let shard_seed = SeedSplitter::new(config.seed).seed("shard", 0);
    let instance_seed = SeedSplitter::new(shard_seed).seed("instance", fact.instance.0);
    let split = SeedSplitter::new(SeedSplitter::new(instance_seed).seed("attempt", 0));
    let mut b = LayoutBuilder::new();
    let protocol = ConsensusProtocol::allocate(
        &mut b,
        k,
        config.base_phases,
        |b| SnapshotConciliator::allocate(b, k, Epsilon::HALF),
        |b| GafniSnapshotAc::allocate(b, k, |p: &Persona| p.input()),
    );
    let layout = b.build();
    let participants = || {
        values
            .iter()
            .enumerate()
            .map(|(i, &value)| {
                let mut rng = split.stream("participant", i as u64);
                protocol.participant(ProcessId(i), value, &mut rng)
            })
            .collect::<Vec<_>>()
    };
    let on_lockfree = run_lockstep_on(&LockFreeMemory::new(&layout), participants());
    let on_coarse = run_lockstep_on(&CoarseMemory::new(&layout), participants());
    let mut served: Memory<Persona> = Memory::new(&layout);
    let on_served = drive_lockstep(participants(), |_, op| served.execute(op));
    let context = format!(
        "service seed {}, instance {}, batch {k}",
        config.seed, fact.instance
    );
    assert_eq!(on_lockfree, on_coarse, "{context}: substrates diverge");
    assert_eq!(on_lockfree, on_served, "{context}: served memory diverges");

    let decision = on_served
        .iter()
        .find_map(|o| match o {
            ConsensusOutcome::Decided(d) => Some(d),
            ConsensusOutcome::Exhausted { .. } => None,
        })
        .unwrap_or_else(|| panic!("{context}: the service decided here"));
    assert_eq!(
        (fact.value, fact.meta.phases as usize, fact.meta.attempts),
        (decision.value, decision.phases, 1),
        "{context}: the service serves a different stack"
    );
}
