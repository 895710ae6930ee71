//! Linearizability of the threaded substrate: concurrent histories
//! captured from `sift_shmem`'s objects must pass the Wing–Gong checker.
//!
//! This is the tooling for the Golab–Higham–Woelfel caveat (paper §2):
//! the threaded runtime only stands in for the atomic model if its
//! objects are linearizable, and here we actually check captured
//! histories instead of taking the locks' word for it. Workloads are
//! generated from the in-tree seeded RNG (the workspace is offline, so
//! no property-testing crate; seeds make every failure reproducible) and
//! run both free-threaded and in lockstep, over `AtomicMemory` (one lock
//! per object) and over the model under a lock alike; the snapshot workload also
//! runs over `WaitFreeSnapshot`, and the max-register workloads over
//! `TreeMaxRegister` — the substitution table's two constructions. A
//! hand-built non-linearizable history keeps the checker itself honest.

use std::sync::Mutex;

use sift::shmem::max_register::TreeMaxRegister;
use sift::shmem::snapshot::WaitFreeSnapshot;
use sift::shmem::{run_lockstep_recorded, run_threads_recorded, AtomicMemory, ExecuteOps};
use sift::sim::mc::{check_linearizable, check_regular, History, HistoryEntry, ObjectKey};
use sift::sim::rng::{SeedSplitter, Xoshiro256StarStar};
use sift::sim::{
    Layout, LayoutBuilder, MaxRegisterId, Memory, Op, OpResult, Process, ProcessId, RegisterId,
    RegisterSemantics, Resolution, SnapshotId, Step, Value,
};

/// A process that performs a pre-generated random operation sequence
/// over a mixed layout, then returns how many ops it ran.
#[derive(Clone)]
struct RandomWorkload {
    ops: Vec<Op<u64>>,
    next: usize,
}

impl RandomWorkload {
    fn generate(
        rng: &mut Xoshiro256StarStar,
        pid: ProcessId,
        registers: &[RegisterId],
        snapshot: SnapshotId,
        max_regs: &[MaxRegisterId],
        len: usize,
    ) -> Self {
        let ops = (0..len)
            .map(|_| match rng.range_u64(6) {
                0 => Op::RegisterRead(registers[rng.range_u64(registers.len() as u64) as usize]),
                1 => Op::RegisterWrite(
                    registers[rng.range_u64(registers.len() as u64) as usize],
                    rng.next_u64() % 100,
                ),
                2 => Op::SnapshotUpdate(snapshot, pid.index(), rng.next_u64() % 100),
                3 => Op::SnapshotScan(snapshot),
                4 => Op::MaxRead(max_regs[rng.range_u64(max_regs.len() as u64) as usize]),
                _ => Op::MaxWrite(
                    max_regs[rng.range_u64(max_regs.len() as u64) as usize],
                    rng.range_u64(8),
                    rng.next_u64() % 100,
                ),
            })
            .collect();
        Self { ops, next: 0 }
    }
}

impl Process for RandomWorkload {
    type Value = u64;
    type Output = usize;

    fn step(&mut self, _prev: Option<OpResult<u64>>) -> Step<u64, usize> {
        if self.next < self.ops.len() {
            self.next += 1;
            Step::Issue(self.ops[self.next - 1].clone())
        } else {
            Step::Done(self.ops.len())
        }
    }
}

fn mixed_instance(seed: u64, n: usize, ops_per_proc: usize) -> (Layout, Vec<RandomWorkload>) {
    let mut b = LayoutBuilder::new();
    let registers = b.registers(3);
    let snapshot = b.snapshot(n);
    let max_regs = b.max_registers(2);
    let layout = b.build();
    let split = SeedSplitter::new(seed);
    let procs = (0..n)
        .map(|i| {
            let mut rng = split.stream("workload", i as u64);
            RandomWorkload::generate(
                &mut rng,
                ProcessId(i),
                &registers,
                snapshot,
                &max_regs,
                ops_per_proc,
            )
        })
        .collect();
    (layout, procs)
}

/// A pre-generated operation sequence over an arbitrary value type —
/// the value-generic sibling of [`RandomWorkload`], for register and
/// max-register histories over payloads wider than a word.
#[derive(Clone)]
struct TypedWorkload<V> {
    ops: Vec<Op<V>>,
    next: usize,
}

impl<V: Value> Process for TypedWorkload<V> {
    type Value = V;
    type Output = usize;

    fn step(&mut self, _prev: Option<OpResult<V>>) -> Step<V, usize> {
        if self.next < self.ops.len() {
            self.next += 1;
            Step::Issue(self.ops[self.next - 1].clone())
        } else {
            Step::Done(self.ops.len())
        }
    }
}

/// Captures a free-threaded history of `procs` over `memory` and checks
/// that it records all `expected_ops` operations, is well formed, and
/// linearizes.
fn check_threaded_history<P, M>(
    layout: &Layout,
    memory: M,
    procs: Vec<P>,
    expected_ops: usize,
    seed: u64,
) where
    P: Process<Output = usize> + Send,
    P::Value: PartialEq,
    M: ExecuteOps<P::Value>,
{
    let (report, history) = run_threads_recorded(memory, procs);
    assert_eq!(report.total_ops(), expected_ops as u64, "seed {seed}");
    assert_eq!(history.len(), expected_ops, "seed {seed}");
    history
        .check_well_formed()
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    check_linearizable(layout, &history).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
}

/// [`check_threaded_history`] over each memory: `AtomicMemory`, one
/// lock per object, then the model under one lock.
fn check_threaded_histories<P>(layout: &Layout, procs: Vec<P>, expected_ops: usize, seed: u64)
where
    P: Process<Output = usize> + Clone + Send,
    P::Value: PartialEq,
{
    let lock_free = AtomicMemory::new(layout);
    check_threaded_history(layout, lock_free, procs.clone(), expected_ops, seed);
    let model = Mutex::new(Memory::new(layout));
    check_threaded_history(layout, model, procs, expected_ops, seed);
}

/// Captures threaded register histories over value type `V` (4
/// processes × 8 ops, 2 registers) and checks each against Wing–Gong.
fn check_register_histories<V: Value + PartialEq>(tag: &str, mut value: impl FnMut(u64) -> V) {
    for seed in 0..10 {
        let mut b = LayoutBuilder::new();
        let regs = b.registers(2);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs: Vec<_> = (0..4)
            .map(|i| {
                let mut rng = split.stream(tag, i as u64);
                let ops = (0..8)
                    .map(|_| {
                        let r = regs[rng.range_u64(regs.len() as u64) as usize];
                        if rng.range_u64(2) == 0 {
                            Op::RegisterRead(r)
                        } else {
                            Op::RegisterWrite(r, value(rng.next_u64() % 50))
                        }
                    })
                    .collect();
                TypedWorkload { ops, next: 0 }
            })
            .collect();
        check_threaded_histories(&layout, procs, 4 * 8, seed);
    }
}

/// [`TreeMaxRegister`]s behind [`ExecuteOps`], for max-register-only
/// layouts. Keys must fit the trie: `new(4)` holds `0..16`.
struct TreeMaxRegisters<V>(Vec<TreeMaxRegister<V>>);

impl<V: Value> ExecuteOps<V> for TreeMaxRegisters<V> {
    fn execute(&self, op: Op<V>) -> OpResult<V> {
        match op {
            Op::MaxWrite(m, key, v) => {
                self.0[m.index()].write(key, v);
                OpResult::Ack
            }
            Op::MaxRead(m) => OpResult::MaxValue(self.0[m.index()].read()),
            other => unimplemented!("max-register-only memory, got {other:?}"),
        }
    }
}

/// Captures threaded max-register histories over value type `V` and
/// checks each against Wing–Gong: on `AtomicMemory`'s max register, the
/// model's, and the switch-trie construction (keys are drawn from
/// `0..10`, inside the trie's `0..16`).
fn check_max_register_histories<V: Value + PartialEq>(tag: &str, mut value: impl FnMut(u64) -> V) {
    for seed in 0..10 {
        let mut b = LayoutBuilder::new();
        let m = b.max_register();
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs: Vec<_> = (0..4)
            .map(|i| {
                let mut rng = split.stream(tag, i as u64);
                let ops = (0..8)
                    .map(|_| {
                        if rng.range_u64(2) == 0 {
                            Op::MaxRead(m)
                        } else {
                            Op::MaxWrite(m, rng.range_u64(10), value(rng.next_u64() % 50))
                        }
                    })
                    .collect();
                TypedWorkload { ops, next: 0 }
            })
            .collect();
        let tree = TreeMaxRegisters(vec![TreeMaxRegister::new(4)]);
        check_threaded_history(&layout, tree, procs.clone(), 4 * 8, seed);
        check_threaded_histories(&layout, procs, 4 * 8, seed);
    }
}

/// Threaded histories of the register alone must linearize.
#[test]
fn threaded_register_histories_linearize() {
    check_register_histories("reg", |v| v);
}

/// [`WaitFreeSnapshot`]s behind [`ExecuteOps`], for snapshot-only
/// layouts: the Afek et al. construction is single-writer, so it may
/// only run workloads where process `i` updates component `i` alone.
struct WaitFreeSnapshots(Vec<WaitFreeSnapshot<u64>>);

impl ExecuteOps<u64> for WaitFreeSnapshots {
    fn execute(&self, op: Op<u64>) -> OpResult<u64> {
        match op {
            Op::SnapshotUpdate(s, component, v) => {
                self.0[s.index()].update(component, v);
                OpResult::Ack
            }
            Op::SnapshotScan(s) => OpResult::SnapshotView(self.0[s.index()].scan()),
            other => unimplemented!("snapshot-only memory, got {other:?}"),
        }
    }
}

/// Threaded histories of the snapshot alone must linearize — on the
/// `AtomicMemory`'s snapshot, the model's, and the wait-free construction
/// (every process updates only its own component).
#[test]
fn threaded_snapshot_histories_linearize() {
    for seed in 0..10 {
        let mut b = LayoutBuilder::new();
        let snap = b.snapshot(4);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs: Vec<_> = (0..4)
            .map(|i| {
                let mut rng = split.stream("snap", i as u64);
                let ops = (0..8)
                    .map(|_| {
                        if rng.range_u64(2) == 0 {
                            Op::SnapshotScan(snap)
                        } else {
                            Op::SnapshotUpdate(snap, i, rng.next_u64() % 50)
                        }
                    })
                    .collect();
                RandomWorkload { ops, next: 0 }
            })
            .collect();
        let wait_free = WaitFreeSnapshots(vec![WaitFreeSnapshot::new(4)]);
        check_threaded_history(&layout, wait_free, procs.clone(), 4 * 8, seed);
        check_threaded_histories(&layout, procs, 4 * 8, seed);
    }
}

/// Threaded histories of the max register alone must linearize.
#[test]
fn threaded_max_register_histories_linearize() {
    check_max_register_histories("max", |v| v);
}

/// Threaded register histories over a three-word payload must
/// linearize: a read that mixed the words of two writes would be caught
/// as a value no write produced.
#[test]
fn threaded_multiword_register_histories_linearize() {
    check_register_histories("multiword-reg", |v| [v, v + 1, v + 2]);
}

/// Threaded max-register histories over a three-word payload must
/// linearize.
#[test]
fn threaded_multiword_max_register_histories_linearize() {
    check_max_register_histories("multiword-max", |v| [v, v + 1, v + 2]);
}

/// Free-running threads over `RecordingMemory`: every captured
/// concurrent history must linearize. (A failure here would be a real
/// atomicity bug in a `sift_shmem` object — exactly what this harness
/// exists to catch.)
#[test]
fn threaded_histories_linearize() {
    for seed in 0..20 {
        let (layout, procs) = mixed_instance(seed, 4, 8);
        check_threaded_histories(&layout, procs, 4 * 8, seed);
    }
}

/// The lockstep driver produces sequential (point-interval) histories,
/// which must trivially linearize in recording order.
#[test]
fn lockstep_histories_linearize() {
    for seed in 0..10 {
        let (layout, procs) = mixed_instance(seed, 5, 6);
        let runs = [
            run_lockstep_recorded(AtomicMemory::new(&layout), procs.clone()),
            run_lockstep_recorded(Mutex::new(Memory::new(&layout)), procs),
        ];
        for (outputs, history) in runs {
            assert_eq!(outputs, vec![6; 5], "seed {seed}");
            history
                .check_well_formed()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_linearizable(&layout, &history).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}

/// Negative control: a hand-built history in which a read returns the
/// initial ⊥ *after* a write to the same register has completed. No
/// sequential order explains it, and the checker must say so.
#[test]
fn seeded_non_linearizable_history_is_rejected() {
    let mut b = LayoutBuilder::new();
    let r = b.register();
    let layout = b.build();
    let history = History::from_entries(vec![
        HistoryEntry {
            pid: ProcessId(0),
            op: Op::RegisterWrite(r, 42u64),
            result: OpResult::Ack,
            invoked: 0,
            responded: 1,
        },
        HistoryEntry {
            pid: ProcessId(1),
            op: Op::RegisterRead(r),
            result: OpResult::RegisterValue(None),
            invoked: 2,
            responded: 3,
        },
    ]);
    let err = check_linearizable(&layout, &history).unwrap_err();
    assert_eq!(err.object, ObjectKey::Register(r));
    assert!(err.to_string().contains("not linearizable"));
}

/// A deliberately broken register memory: reads *tear*, combining the
/// high half of the latest write with the low half of the one before
/// it — the classic failure a non-atomic multi-word register exhibits.
/// Wrapped in `RecordingMemory::over`, it proves the checker catches a
/// realistically broken substrate, not just hand-built histories.
#[derive(Debug, Default)]
struct TornRegisterMemory {
    state: std::sync::Mutex<(Option<u64>, Option<u64>)>,
}

impl sift::shmem::ExecuteOps<u64> for TornRegisterMemory {
    fn execute(&self, op: Op<u64>) -> OpResult<u64> {
        let mut state = self.state.lock().unwrap();
        match op {
            Op::RegisterWrite(_, v) => {
                state.0 = state.1.replace(v);
                OpResult::Ack
            }
            Op::RegisterRead(_) => OpResult::RegisterValue(match *state {
                (Some(prev), Some(cur)) => {
                    Some((cur & 0xFFFF_FFFF_0000_0000) | (prev & 0x0000_0000_FFFF_FFFF))
                }
                (_, cur) => cur,
            }),
            other => unimplemented!("torn memory only models registers, got {other:?}"),
        }
    }
}

/// Seeded torn-write histories must be rejected: after two writes with
/// distinct halves, a read observes a value that was never written, and
/// no linearization order can explain it.
#[test]
fn seeded_torn_write_histories_are_rejected() {
    use sift::shmem::RecordingMemory;
    for seed in 0..8u64 {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();
        let mem = RecordingMemory::over(TornRegisterMemory::default());
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        // Writes are (k << 32) | k for distinct non-zero k: any torn
        // combination of two different writes is a value never written.
        let writes = 2 + rng.range_u64(4);
        for i in 0..writes {
            let k = 1 + seed * 100 + i * (1 + rng.range_u64(5));
            mem.execute_as(ProcessId(0), Op::RegisterWrite(r, (k << 32) | k))
                .expect_ack();
        }
        mem.execute_as(ProcessId(1), Op::RegisterRead(r));
        let history = mem.into_history();
        history.check_well_formed().unwrap();
        let err =
            check_linearizable(&layout, &history).expect_err("torn read must not be linearizable");
        assert_eq!(err.object, ObjectKey::Register(r), "seed {seed}");
    }
}

/// Second negative control on a max register: a read that "forgets" a
/// completed higher-key write is rejected.
#[test]
fn non_linearizable_max_register_history_is_rejected() {
    let mut b = LayoutBuilder::new();
    let m = b.max_register();
    let layout = b.build();
    let history = History::from_entries(vec![
        HistoryEntry {
            pid: ProcessId(0),
            op: Op::MaxWrite(m, 9, 90u64),
            result: OpResult::Ack,
            invoked: 0,
            responded: 1,
        },
        HistoryEntry {
            pid: ProcessId(1),
            op: Op::MaxRead(m),
            result: OpResult::MaxValue(None),
            invoked: 2,
            responded: 3,
        },
    ]);
    let err = check_linearizable(&layout, &history).unwrap_err();
    assert_eq!(err.object, ObjectKey::MaxRegister(m));
}

// ---------------------------------------------------------------------
// The regularity boundary, taken from the model's regular register
// (`RegisterSemantics::Regular`, the one E24/E25 stand on): what it
// serves must pass `check_regular`, new/old inversions must fail the
// Wing–Gong atomic checker — and genuinely broken (word-tearing)
// histories must fail both.
// ---------------------------------------------------------------------

/// A layout of `count` registers and a model memory over it with
/// regular registers resolved by `resolution`.
fn regular_registers(
    count: usize,
    resolution: Resolution,
) -> (Layout, Vec<RegisterId>, Memory<u64>) {
    let mut b = LayoutBuilder::new();
    let registers = b.registers(count);
    let layout = b.build();
    let mut mem = Memory::new(&layout);
    mem.set_semantics(RegisterSemantics::Regular(resolution));
    (layout, registers, mem)
}

fn entry(pid: usize, op: Op<u64>, result: OpResult<u64>, span: (u64, u64)) -> HistoryEntry<u64> {
    HistoryEntry {
        pid: ProcessId(pid),
        op,
        result,
        invoked: span.0,
        responded: span.1,
    }
}

/// A read of `r` by the reader of the two boundary cases, process 1.
fn reader_saw(r: RegisterId, value: Option<u64>, span: (u64, u64)) -> HistoryEntry<u64> {
    entry(1, Op::RegisterRead(r), OpResult::RegisterValue(value), span)
}

/// With a write of 20 still in flight for the reader — its epoch stays
/// before that write across both reads — the model's regular register
/// serves the new value and then the old one: the new/old inversion
/// Lamport regularity permits and atomicity forbids. The checker pair
/// must agree with the theory on both counts.
#[test]
fn new_old_inversion_histories_are_regular_but_not_atomic() {
    let (layout, registers, mut mem) = regular_registers(1, Resolution::AlwaysNew);
    let r = registers[0];
    mem.execute_for(Op::RegisterWrite(r, 10), 0).expect_ack();
    let before_second_write = mem.ops_executed();
    mem.execute_for(Op::RegisterWrite(r, 20), before_second_write)
        .expect_ack();
    let after_second_write = mem.ops_executed();
    let first = mem
        .execute_for(Op::RegisterRead(r), before_second_write)
        .expect_register();
    mem.set_semantics(RegisterSemantics::Regular(Resolution::AlwaysOld));
    let second = mem
        .execute_for(Op::RegisterRead(r), before_second_write)
        .expect_register();
    let settled = mem
        .execute_for(Op::RegisterRead(r), after_second_write)
        .expect_register();
    assert_eq!(first, Some(20), "the overlapping read resolved new");
    assert_eq!(second, Some(10), "the overlapping read resolved old");
    assert_eq!(settled, Some(20), "a read after the write is forced new");

    // The same execution as a timed history: the write of 20 spans the
    // two overlapping reads, the settled read follows its response.
    let history = History::from_entries(vec![
        entry(0, Op::RegisterWrite(r, 10), OpResult::Ack, (0, 1)),
        entry(0, Op::RegisterWrite(r, 20), OpResult::Ack, (2, 9)),
        reader_saw(r, first, (3, 4)),
        reader_saw(r, second, (5, 6)),
        reader_saw(r, settled, (10, 11)),
    ]);
    history.check_well_formed().unwrap();
    let err =
        check_linearizable(&layout, &history).expect_err("a new/old inversion must not linearize");
    assert_eq!(err.object, ObjectKey::Register(r));
    check_regular(&layout, &history)
        .expect("both reads resolve to an overlapping or latest-preceding write");
}

/// While the first-ever write is in flight (reader epoch 0) the old
/// value is ⊥: a ⊥ read after a read has already returned the new
/// value is atomically inexplicable, but regular — the write has not
/// responded, so no completed write precedes the ⊥ read.
#[test]
fn bottom_reads_during_the_first_write_are_regular_but_not_atomic() {
    let (layout, registers, mut mem) = regular_registers(1, Resolution::AlwaysNew);
    let r = registers[0];
    mem.execute_for(Op::RegisterWrite(r, 7), 0).expect_ack();
    let first = mem.execute_for(Op::RegisterRead(r), 0).expect_register();
    mem.set_semantics(RegisterSemantics::Regular(Resolution::AlwaysOld));
    let second = mem.execute_for(Op::RegisterRead(r), 0).expect_register();
    assert_eq!((first, second), (Some(7), None));

    let history = History::from_entries(vec![
        entry(0, Op::RegisterWrite(r, 7), OpResult::Ack, (0, 7)),
        reader_saw(r, first, (1, 2)),
        reader_saw(r, second, (3, 4)),
    ]);
    history.check_well_formed().unwrap();
    let err = check_linearizable(&layout, &history).expect_err("7-then-⊥ must not linearize");
    assert_eq!(err.object, ObjectKey::Register(r));
    check_regular(&layout, &history).expect("⊥ is legal while the first write is in flight");
}

/// A seeded run of the model's regular register: 2–3 processes issue
/// random reads and distinct-valued writes over two registers, each
/// through `execute_for` with its real previous-step clock as `epoch`.
/// Returns the run as two timed histories: `spans`, where an operation
/// lasts from its process's previous step to its own, (epoch, clock] —
/// the interval over which the regular register calls a write
/// concurrent with a read — and `steps`, where it is the instant of its
/// own step, as the schedule ran it. Times are doubled so the open end
/// of a span stays strictly after whatever responded at the epoch.
fn regular_register_run(seed: u64, resolution: Resolution) -> (Layout, [History<u64>; 2]) {
    let (layout, registers, mut mem) = regular_registers(2, resolution);
    let mut rng = SeedSplitter::new(seed).stream("regular", 0);
    let mut last_step = vec![0u64; 2 + rng.range_u64(2) as usize];
    let (mut spans, mut steps) = (History::new(), History::new());
    for step in 0..24u64 {
        let pid = rng.range_u64(last_step.len() as u64) as usize;
        let r = registers[rng.range_u64(2) as usize];
        let op = if rng.coin() {
            Op::RegisterWrite(r, step + 1)
        } else {
            Op::RegisterRead(r)
        };
        let epoch = last_step[pid];
        let result = mem.execute_for(op.clone(), epoch);
        let clock = mem.ops_executed();
        last_step[pid] = clock;
        spans.push(entry(
            pid,
            op.clone(),
            result.clone(),
            (2 * epoch + 1, 2 * clock),
        ));
        steps.push(entry(pid, op, result, (2 * clock - 1, 2 * clock)));
    }
    spans.check_well_formed().unwrap();
    (layout, [spans, steps])
}

/// E24/E25's verdicts rest on the model's regular register being
/// Lamport-regular and no weaker. Over its spans every resolution's
/// history passes `check_regular` — and also `check_linearizable`: with
/// honest epochs a stale read always fits just before the write that
/// displaced its value, inside its own span, so what the register
/// weakens is *where* in the span a read takes effect, and an inversion
/// like the two above needs a reader held in flight across two reads.
/// Against the schedule's own steps the stale reads show: `AlwaysNew`
/// is the atomic register, `AlwaysOld` is not in a pinned share of
/// seeds — the loop is not vacuous.
#[test]
fn the_models_regular_register_is_lamport_regular() {
    let mut stale_seeds = 0;
    for seed in 0..200u64 {
        for resolution in [
            Resolution::AlwaysNew,
            Resolution::AlwaysOld,
            Resolution::Coin(seed),
        ] {
            let (layout, [spans, steps]) = regular_register_run(seed, resolution);
            check_regular(&layout, &spans)
                .unwrap_or_else(|e| panic!("seed {seed} under {resolution:?}: {e}"));
            check_linearizable(&layout, &spans)
                .unwrap_or_else(|e| panic!("seed {seed} under {resolution:?}: {e}"));
            let stepwise = || check_linearizable(&layout, &steps);
            match resolution {
                Resolution::AlwaysNew => stepwise().unwrap_or_else(|e| panic!("seed {seed}: {e}")),
                Resolution::AlwaysOld => stale_seeds += u32::from(stepwise().is_err()),
                Resolution::Coin(_) => {}
            }
        }
    }
    assert_eq!(
        stale_seeds, 195,
        "seeds whose AlwaysOld run served a stale read"
    );
}

/// Regularity is not a free pass: word-tearing histories — reads
/// combining halves of two different writes into a value *no* write
/// produced — must fail `check_regular` exactly as they fail the
/// atomic checker. Only whole old-or-new values are excused.
#[test]
fn word_torn_histories_fail_even_the_regularity_checker() {
    use sift::shmem::RecordingMemory;

    for seed in 0..8u64 {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();
        let mem = RecordingMemory::over(TornRegisterMemory::default());
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let writes = 2 + rng.range_u64(4);
        for i in 0..writes {
            let k = 1 + seed * 100 + i * (1 + rng.range_u64(5));
            mem.execute_as(ProcessId(0), Op::RegisterWrite(r, (k << 32) | k))
                .expect_ack();
        }
        mem.execute_as(ProcessId(1), Op::RegisterRead(r));
        let history = mem.into_history();
        history.check_well_formed().unwrap();
        let err =
            check_regular(&layout, &history).expect_err("a torn word is not any write's value");
        assert_eq!(err.object, ObjectKey::Register(r), "seed {seed}");
    }
}
