//! Differential testing of the lock-free substrate against the model.
//!
//! `AtomicMemory` (the lock-free objects) has one reference: the model
//! itself, `sift_sim::Memory` under one lock — the memory DPOR, the
//! fuzzer, conformance and the service run on. Hadzilacos–Hu–Toueg
//! (arXiv 2006.06771) is why the reference must be *obviously* atomic,
//! and the sequential spec under a lock is. Each differential drives
//! the *same* deterministic schedule through a subject memory and the
//! model and returns the first divergence: every operation result of
//! raw and interleaved workloads, every result a conciliator
//! participant observes and the persona it ends with. The tests demand
//! none for `AtomicMemory`; `differentials_catch_a_broken_lock_free_side`
//! hands the same functions two test-side broken wrappers around it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use sift::core::{Conciliator, Epsilon, Persona, SiftingConciliator, SnapshotConciliator};
use sift::shmem::{run_lockstep_on, run_script_on, AtomicMemory, ExecuteOps};
use sift::sim::mc::replay_report;
use sift::sim::rng::{SeedSplitter, Xoshiro256StarStar};
use sift::sim::{Layout, LayoutBuilder, Memory, Op, OpResult, Process, ProcessId, Step, Value};
use sift_bench::fuzz::{run_fuzz, FuzzConfig};

/// A differential's verdict: `Err` names the first place the subject
/// memory and the model disagree.
type Divergence = Result<(), String>;

/// The reference: the model's memory for `layout`, under one lock.
fn model<V: Value>(layout: &Layout) -> Mutex<Memory<V>> {
    Mutex::new(Memory::new(layout))
}

/// `Err` naming `context` and both answers if they differ.
fn compare<T: PartialEq + std::fmt::Debug>(subject: T, model: T, context: String) -> Divergence {
    if subject == model {
        return Ok(());
    }
    Err(format!("{context}: subject {subject:?}, model {model:?}"))
}

/// Raw-operation differential: every operation of a seeded mixed
/// workload must produce the model's result when executed in the same
/// sequential order.
fn raw_ops_divergence<M: ExecuteOps<u64>>(subject: impl Fn(&Layout) -> M) -> Divergence {
    for seed in 0..10u64 {
        let mut b = LayoutBuilder::new();
        let registers = b.registers(3);
        let snapshot = b.snapshot(4);
        let max_regs = b.max_registers(2);
        let layout = b.build();
        let (memory, model) = (subject(&layout), model(&layout));
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
            let got = format!("{:?}", memory.execute(op.clone()));
            let want = format!("{:?}", model.execute(op.clone()));
            compare(got, want, format!("seed {seed}, step {step}, op {op:?}"))?;
        }
    }
    Ok(())
}

#[test]
fn raw_operations_agree_across_substrates() {
    assert_eq!(raw_ops_divergence(AtomicMemory::new), Ok(()));
}

/// Process `P`, also logging the `Debug` rendering of every result it
/// receives — so two memories driven through the same schedule are
/// compared operation by operation, not just on their final outputs.
struct Observed<P> {
    inner: P,
    log: Vec<String>,
}

impl<P: Process> Process for Observed<P> {
    type Value = P::Value;
    type Output = (P::Output, Vec<String>);

    fn step(&mut self, prev: Option<OpResult<P::Value>>) -> Step<P::Value, Self::Output> {
        if let Some(r) = &prev {
            self.log.push(format!("{r:?}"));
        }
        match self.inner.step(prev) {
            Step::Issue(op) => Step::Issue(op),
            Step::Done(output) => Step::Done((output, std::mem::take(&mut self.log))),
        }
    }
}

fn observed<P>(processes: Vec<P>) -> Vec<Observed<P>> {
    let observe = |inner| Observed {
        inner,
        log: Vec::new(),
    };
    processes.into_iter().map(observe).collect()
}

/// A pre-generated operation sequence.
struct OpSequence<V>(std::vec::IntoIter<Op<V>>);

impl<V: Value> Process for OpSequence<V> {
    type Value = V;
    type Output = ();

    fn step(&mut self, _prev: Option<OpResult<V>>) -> Step<V, ()> {
        self.0.next().map_or(Step::Done(()), Step::Issue)
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
    value: impl Fn(u64) -> V,
) -> Vec<OpSequence<V>> {
    let split = SeedSplitter::new(seed);
    (0..n)
        .map(|i| {
            let mut rng = split.stream("typed-diff", i as u64);
            let ops: Vec<_> = (0..ops_per_proc)
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
            OpSequence(ops.into_iter())
        })
        .collect()
}

/// A seeded random schedule script drives the same per-process
/// register/max-register workloads through the subject and the model,
/// and every operation result must agree.
fn interleaved_divergence<V, M>(
    tag: &str,
    value: impl Fn(u64) -> V,
    subject: impl Fn(&Layout) -> M,
) -> Divergence
where
    V: Value,
    M: ExecuteOps<V>,
{
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
        let make = || {
            observed(typed_workloads(
                seed,
                n,
                ops_per_proc,
                &regs,
                &max_regs,
                &value,
            ))
        };
        let got = run_script_on(&subject(&layout), make(), &script);
        let want = run_script_on(&model(&layout), make(), &script);
        assert!(
            want.iter().any(|o| o.is_some()),
            "{tag}, seed {seed}: schedule drained no process at all"
        );
        compare(got, want, format!("{tag}, seed {seed}"))?;
    }
    Ok(())
}

/// Registers and max registers under randomized interleavings, with a
/// three-word payload: a torn read or a lost write would diverge here
/// with a replayable (seed, script) witness.
#[test]
fn interleaved_oversized_workloads_agree_across_substrates() {
    assert_eq!(
        interleaved_divergence("oversized", oversized_payload, AtomicMemory::new),
        Ok(())
    );
}

fn oversized_payload(v: u64) -> [u64; 3] {
    [v, v + 1, v + 2]
}

/// Genuinely threaded max-register differential: unique keys make the
/// final state deterministic, so after all writers join, the lock-free
/// register must hold exactly what the model's max register holds
/// after the same write set, applied as a sequence of `MaxWrite`s.
#[test]
fn threaded_max_register_final_state_matches_the_model() {
    use sift::shmem::max_register::LockFreeMaxRegister;
    use std::sync::Arc;

    let (threads, writes) = (8u64, 400u64);
    let lock_free: Arc<LockFreeMaxRegister<(u32, u32)>> = Arc::new(LockFreeMaxRegister::new());
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let lock_free = Arc::clone(&lock_free);
            std::thread::spawn(move || {
                // Interleave key ranges across threads so the running
                // maximum keeps changing hands.
                for k in 0..writes {
                    let key = k * threads + t;
                    lock_free.write(key, (t as u32, k as u32));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut b = LayoutBuilder::new();
    let m = b.max_register();
    let mut reference = Memory::new(&b.build());
    for t in 0..threads {
        for k in 0..writes {
            let write = Op::MaxWrite(m, k * threads + t, (t as u32, k as u32));
            reference.execute(write).expect_ack();
        }
    }
    assert_eq!(
        lock_free.read(),
        reference.execute(Op::MaxRead(m)).expect_max()
    );
}

/// A conciliator, run in lockstep from identical seeds, must observe
/// the model's results and produce the model's personas: `n`
/// participants of `allocate`'s conciliator with inputs
/// `first_input..`, ten seeds.
fn conciliator_divergence<C: Conciliator, M: ExecuteOps<Persona>>(
    n: usize,
    allocate: fn(&mut LayoutBuilder, usize, Epsilon) -> C,
    first_input: u64,
    subject: impl Fn(&Layout) -> M,
) -> Divergence {
    for seed in 0..10u64 {
        let mut b = LayoutBuilder::new();
        let c = allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let procs = || {
            observed(SeedSplitter::new(seed).processes(n, |pid, rng| {
                c.participant(pid, first_input + pid.index() as u64, rng)
            }))
        };
        let got = run_lockstep_on(&subject(&layout), procs());
        let want = run_lockstep_on(&model(&layout), procs());
        compare(got, want, format!("seed {seed}"))?;
    }
    Ok(())
}

fn sifting_divergence<M: ExecuteOps<Persona>>(subject: impl Fn(&Layout) -> M) -> Divergence {
    conciliator_divergence(8, SiftingConciliator::allocate, 0, subject)
}

/// The snapshot conciliator's scan-heavy access pattern exercises the
/// copy-on-write scan views hardest.
fn snapshot_divergence<M: ExecuteOps<Persona>>(subject: impl Fn(&Layout) -> M) -> Divergence {
    conciliator_divergence(6, SnapshotConciliator::allocate, 100, subject)
}

#[test]
fn sifting_conciliator_outcomes_agree_across_substrates() {
    assert_eq!(sifting_divergence(AtomicMemory::new), Ok(()));
}

#[test]
fn snapshot_conciliator_outcomes_agree_across_substrates() {
    assert_eq!(snapshot_divergence(AtomicMemory::new), Ok(()));
}

/// The process count of the fuzz campaign below.
const CORPUS_N: usize = 6;

/// The corpus of one fuzz campaign against the unmodified sifter,
/// run once per test binary.
fn corpus() -> &'static [Vec<usize>] {
    static CORPUS: OnceLock<Vec<Vec<usize>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let config = FuzzConfig {
            n: CORPUS_N,
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
        campaign.corpus_scripts
    })
}

/// The fuzzer's coverage-novel schedules as differential inputs: every
/// corpus script — an adversary interleaving the fuzzer found
/// interesting enough to keep — must drive the subject, the model and
/// the simulator engine to identical decisions (and hence identical
/// survivor sets). Coverage-guided schedules exercise interleavings
/// hand-written differential seeds never reach: solo bursts, stalled
/// front-runners, crash-truncated prefixes.
fn fuzz_corpus_divergence<M: ExecuteOps<Persona>>(subject: impl Fn(&Layout) -> M) -> Divergence {
    let mut b = LayoutBuilder::new();
    let c = SiftingConciliator::allocate(&mut b, CORPUS_N, Epsilon::HALF);
    let layout = b.build();
    let make_procs = |seed: u64| {
        let split = SeedSplitter::new(seed);
        split.processes(CORPUS_N, |pid, rng| {
            c.participant(pid, pid.index() as u64, rng)
        })
    };
    for (idx, script) in corpus().iter().enumerate() {
        // Corpus scripts name processes 0..n of the campaign's size.
        let seed = 900 + idx as u64;
        let on_engine = replay_report(&layout, make_procs(seed), script).outputs;
        let on_model = run_script_on(&model(&layout), make_procs(seed), script);
        assert_eq!(on_engine, on_model, "corpus script {idx}: engine vs model");
        let on_subject = run_script_on(&subject(&layout), make_procs(seed), script);
        compare(on_subject, on_model, format!("corpus script {idx}"))?;
    }
    Ok(())
}

#[test]
fn fuzz_corpus_replays_agree_across_substrates_and_engine() {
    assert_eq!(fuzz_corpus_divergence(AtomicMemory::new), Ok(()));
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
            let report = engine.run(FixedSchedule::from_indices(script.iter().copied()));
            let events = report.trace.map(|t| t.events().to_vec());
            (report.outputs, report.metrics, events)
        };
        let atomic = replay_under(RegisterSemantics::Atomic);
        let regular = replay_under(RegisterSemantics::Regular(Resolution::AlwaysNew));
        assert_eq!(regular, atomic, "corpus script {idx}");
    }
}

/// The two test-side faults of [`Mutant`].
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Every `k`-th write (register, snapshot component or max
    /// register) is acknowledged and dropped.
    DropsWrite(u64),
    /// Every `k`-th scan of an object returns the view its previous
    /// scan returned.
    StaleScan(u64),
}

/// `AtomicMemory` broken by one [`Fault`]. The differentials run it in
/// lockstep, so its op counter makes the fault deterministic.
struct Mutant<V: Value> {
    memory: AtomicMemory<V>,
    fault: Fault,
    count: AtomicU64,
    last_scans: Mutex<HashMap<usize, OpResult<V>>>,
}

impl<V: Value> Mutant<V> {
    fn build(fault: Fault) -> impl Fn(&Layout) -> Self {
        move |layout: &Layout| Mutant {
            memory: AtomicMemory::new(layout),
            fault,
            count: AtomicU64::new(0),
            last_scans: Mutex::new(HashMap::new()),
        }
    }

    /// Counts one faultable operation; true on every `k`-th.
    fn kth(&self, k: u64) -> bool {
        (self.count.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(k)
    }
}

impl<V: Value> ExecuteOps<V> for Mutant<V> {
    fn execute(&self, op: Op<V>) -> OpResult<V> {
        match (self.fault, &op) {
            (
                Fault::DropsWrite(k),
                Op::RegisterWrite(..) | Op::SnapshotUpdate(..) | Op::MaxWrite(..),
            ) if self.kth(k) => OpResult::Ack,
            (Fault::StaleScan(k), &Op::SnapshotScan(s)) => {
                let fresh = self.memory.execute(op);
                let mut last = self.last_scans.lock().unwrap();
                match last.insert(s.index(), fresh.clone()) {
                    Some(previous) if self.kth(k) => previous,
                    _ => fresh,
                }
            }
            _ => self.memory.execute(op),
        }
    }
}

/// Each differential still catches a broken lock-free side: every one
/// reports the dropped writes (the tests above demand that the
/// unmodified `AtomicMemory` never diverges). Only the raw workload
/// sees the stale scans: the interleaved workloads never scan, and the
/// conciliators run in lockstep round robin, where every update of a
/// round lands before any scan, so consecutive scans see one view.
#[test]
fn differentials_catch_a_broken_lock_free_side() {
    let caught = |name: &str, expected: [bool; 2], differential: &dyn Fn(Fault) -> Divergence| {
        let mutants = [Fault::DropsWrite(3), Fault::StaleScan(3)];
        let verdicts = mutants.map(|fault| differential(fault).is_err());
        assert_eq!(verdicts, expected, "{name}: caught {mutants:?}");
    };
    caught("raw ops", [true, true], &|f| {
        raw_ops_divergence(Mutant::build(f))
    });
    caught("oversized", [true, false], &|f| {
        interleaved_divergence("oversized", oversized_payload, Mutant::build(f))
    });
    caught("sifting", [true, false], &|f| {
        sifting_divergence(Mutant::build(f))
    });
    caught("snapshot", [true, false], &|f| {
        snapshot_divergence(Mutant::build(f))
    });
    caught("fuzz corpus", [true, false], &|f| {
        fuzz_corpus_divergence(Mutant::build(f))
    });
}

/// Served-stack differential: the stack `ShardCore` decides a batch
/// with — a `ConsensusProtocol` of `SnapshotConciliator` and
/// `GafniSnapshotAc` phases, one participant per proposal, randomness
/// from the service's `(seed, shard, instance)` streams — built fresh
/// here for every batch and driven by the one lockstep loop over
/// `AtomicMemory` *and* the simulator's `Memory` the service decides
/// on. Any substrate divergence that survives the protocol stack would
/// surface here as a different decided value, phase count or step
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
/// shard's phase budget: the two memories must agree, and the run must
/// have decided the fact's `(value, phases)`.
fn assert_fact_names_a_fresh_stacks_outcome(
    config: &sift::service::ShardConfig,
    values: &[u64],
    fact: &sift::service::CommitFact,
) {
    use sift::adopt_commit::GafniSnapshotAc;
    use sift::consensus::{ConsensusOutcome, ConsensusProtocol};
    use sift::sim::drive_lockstep;

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
    let on_lockfree = run_lockstep_on(&AtomicMemory::new(&layout), participants());
    let mut served: Memory<Persona> = Memory::new(&layout);
    let on_served = drive_lockstep(participants(), |_, op| served.execute(op));
    let context = format!(
        "service seed {}, instance {}, batch {k}",
        config.seed, fact.instance
    );
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
