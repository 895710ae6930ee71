//! `shmem-persona`: `AtomicMemory<Persona>::execute` alone, with the
//! payload type the protocols store and the mix the served stack
//! issues, first uncontended (*t1*, the use the service's lockstep run
//! makes of the substrate), then against one concurrent peer (*t2*).

use std::sync::Barrier;

use sift_core::Persona;
use sift_shmem::memory::AtomicMemory;
use sift_sim::{LayoutBuilder, MaxRegisterId, Op, OpResult, ProcessId, RegisterId, SnapshotId};

use super::{run_phases, scaled, summarize, timed_setup, EndToEnd, Pick, Rep};
use crate::rng::SplitMix64;
use crate::sys::{self, Placement};

/// Registers in the layout.
pub const REGISTERS: usize = 8;
/// Components of the layout's one snapshot object.
pub const COMPONENTS: usize = 8;
/// Distinct inputs a written persona can carry.
pub const INPUTS: u64 = 16;
/// Operations per timed block.
pub const BLOCK: usize = 1024;

/// Frozen sizes (operations per repetition).
pub mod sizes {
    /// *t1*: operations of the one thread.
    pub const T1_OPS: usize = 2_097_152;
    /// *t2*: operations of each of the two threads.
    pub const T2_OPS_EACH: usize = 524_288;
}

/// The six operation kinds, in the ledger's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Op::SnapshotUpdate`
    SnapshotUpdate,
    /// `Op::SnapshotScan`
    SnapshotScan,
    /// `Op::RegisterWrite`
    RegisterWrite,
    /// `Op::RegisterRead`
    RegisterRead,
    /// `Op::MaxWrite`
    MaxWrite,
    /// `Op::MaxRead`
    MaxRead,
}

impl Kind {
    /// Every kind with its share of the mix in percent: 25 : 30 is the
    /// served stack's 4 updates : 5 scans (rounded to 5%).
    pub const MIX: [(Kind, u64); 6] = [
        (Kind::SnapshotUpdate, 25),
        (Kind::SnapshotScan, 30),
        (Kind::RegisterWrite, 15),
        (Kind::RegisterRead, 20),
        (Kind::MaxWrite, 5),
        (Kind::MaxRead, 5),
    ];

    /// Position in [`Kind::MIX`] (the enum is declared in that order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The kind's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SnapshotUpdate => "snapshot_update",
            Kind::SnapshotScan => "snapshot_scan",
            Kind::RegisterWrite => "register_write",
            Kind::RegisterRead => "register_read",
            Kind::MaxWrite => "max_write",
            Kind::MaxRead => "max_read",
        }
    }
}

/// One scripted operation.
#[derive(Debug, Clone, Copy)]
pub struct ScriptOp {
    /// What to do.
    pub kind: Kind,
    /// Register index or snapshot component.
    pub target: u8,
    /// Index into the persona palette (writes).
    pub persona: u8,
    /// Max-register key (max writes).
    pub key: u32,
}

/// The kind a roll in `0..100` selects under [`Kind::MIX`].
fn kind_at(roll: u64) -> Kind {
    let mut upto = 0;
    for (kind, share) in Kind::MIX {
        upto += share;
        if roll < upto {
            return kind;
        }
    }
    unreachable!("the mix sums to 100 and rolls stay below it")
}

/// Draws `len` operations of the ledger's mix.
pub fn script(rng: &mut SplitMix64, len: usize, palette: usize) -> Vec<ScriptOp> {
    (0..len)
        .map(|_| ScriptOp {
            kind: kind_at(rng.below(100)),
            target: rng.below(REGISTERS.min(COMPONENTS) as u64) as u8,
            persona: rng.below(palette as u64) as u8,
            key: rng.next_u64() as u32,
        })
        .collect()
}

/// The object ids of the layout.
#[derive(Debug, Clone)]
pub struct Objects {
    /// The registers.
    pub registers: Vec<RegisterId>,
    /// The snapshot object.
    pub snapshot: SnapshotId,
    /// The max register.
    pub max: MaxRegisterId,
}

/// Declares the layout: [`REGISTERS`] registers, one snapshot of
/// `components` components, one max register.
pub fn declare(components: usize) -> (LayoutBuilder, Objects) {
    let mut builder = LayoutBuilder::new();
    let objects = Objects {
        registers: builder.registers(REGISTERS),
        snapshot: builder.snapshot(components),
        max: builder.max_register(),
    };
    (builder, objects)
}

/// Every persona a script can write: `Persona::bare` for each
/// `(origin, input)` pair; a write clones one of these.
pub fn palette() -> Vec<Persona> {
    (0..COMPONENTS)
        .flat_map(|origin| (0..INPUTS).map(move |input| Persona::bare(ProcessId(origin), input)))
        .collect()
}

/// Whether a persona read back is one somebody could have written.
pub fn written(persona: &Persona) -> bool {
    persona.input() < INPUTS && persona.origin().index() < COMPONENTS
}

/// Builds the `Op` for one scripted operation.
pub fn op_of(step: ScriptOp, objects: &Objects, palette: &[Persona]) -> Op<Persona> {
    let persona = || palette[step.persona as usize].clone();
    match step.kind {
        Kind::SnapshotUpdate => {
            Op::SnapshotUpdate(objects.snapshot, step.target as usize, persona())
        }
        Kind::SnapshotScan => Op::SnapshotScan(objects.snapshot),
        Kind::RegisterWrite => {
            Op::RegisterWrite(objects.registers[step.target as usize], persona())
        }
        Kind::RegisterRead => Op::RegisterRead(objects.registers[step.target as usize]),
        Kind::MaxWrite => Op::MaxWrite(objects.max, step.key as u64, persona()),
        Kind::MaxRead => Op::MaxRead(objects.max),
    }
}

/// Whether a result carries only payloads somebody wrote.
pub fn result_ok(result: &OpResult<Persona>) -> bool {
    match result {
        OpResult::Ack => true,
        OpResult::RegisterValue(value) => value.as_ref().is_none_or(written),
        OpResult::SnapshotView(view) => view.present().all(|(_, persona)| written(persona)),
        OpResult::MaxValue(entry) => entry.as_ref().is_none_or(|(_, persona)| written(persona)),
    }
}

/// What set-up builds for `shmem-persona`.
pub struct ShmemSetup {
    /// The layout's builder output and object ids.
    pub layout: sift_sim::Layout,
    /// The object ids.
    pub objects: Objects,
    /// The writable personas.
    pub palette: Vec<Persona>,
    /// *t1*'s script.
    pub t1: Vec<ScriptOp>,
    /// *t2*'s two scripts (client thread, peer thread).
    pub t2: [Vec<ScriptOp>; 2],
}

/// Set-up of `shmem-persona`: layout, palette, the three scripts.
pub fn setup(seed: u64, scale: f64) -> ShmemSetup {
    let (builder, objects) = declare(COMPONENTS);
    let palette = palette();
    let t1_len = scaled(sizes::T1_OPS, scale, BLOCK);
    let t2_len = scaled(sizes::T2_OPS_EACH, scale, BLOCK);
    let draw = |label: &str, len| script(&mut SplitMix64::fork(seed, label), len, palette.len());
    ShmemSetup {
        layout: builder.build(),
        t1: draw("shmem-t1", t1_len),
        t2: [
            draw("shmem-t2-client", t2_len),
            draw("shmem-t2-peer", t2_len),
        ],
        objects,
        palette,
    }
}

/// One thread's pass over a script, on the process clock.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Before the first operation.
    pub start: u64,
    /// After each [`BLOCK`] operations (the last block may be shorter).
    pub block_ends: Vec<u64>,
    /// Operations executed.
    pub ops: u64,
    /// Reads that returned a payload nobody wrote.
    pub failed: u64,
}

impl Pass {
    /// When the pass ended.
    pub fn end(&self) -> u64 {
        self.block_ends.last().copied().unwrap_or(self.start)
    }

    /// The blocks that ran entirely inside `from..=until`, as
    /// `(operations, nanoseconds, ns-per-operation samples)`.
    fn within(&self, script_len: usize, from: u64, until: u64) -> (u64, u64, Vec<f64>) {
        let (mut ops, mut ns, mut samples) = (0, 0, Vec::new());
        let mut began = self.start;
        for (i, &ended) in self.block_ends.iter().enumerate() {
            if began >= from && ended <= until {
                let len = BLOCK.min(script_len - i * BLOCK) as u64;
                ops += len;
                ns += ended - began;
                samples.push((ended - began) as f64 / len as f64);
            }
            began = ended;
        }
        (ops, ns, samples)
    }
}

/// Executes `script` against `memory`, one clock read per [`BLOCK`]
/// operations.
pub fn drive(memory: &AtomicMemory<Persona>, setup: &ShmemSetup, script: &[ScriptOp]) -> Pass {
    let mut pass = Pass {
        start: sys::now_ns(),
        block_ends: Vec::with_capacity(script.len().div_ceil(BLOCK)),
        ops: script.len() as u64,
        failed: 0,
    };
    for block in script.chunks(BLOCK) {
        for &step in block {
            let result = memory.execute(op_of(step, &setup.objects, &setup.palette));
            pass.failed += u64::from(!result_ok(&result));
        }
        pass.block_ends.push(sys::now_ns());
    }
    pass
}

/// One *t1* repetition on a fresh memory; a sample is a block's
/// nanoseconds per operation.
pub fn t1_rep(setup: &ShmemSetup) -> Rep {
    let memory = AtomicMemory::new(&setup.layout);
    let pass = drive(&memory, setup, &setup.t1);
    let (work, wall_ns, samples) = pass.within(setup.t1.len(), pass.start, pass.end());
    let mut rep = Rep {
        work,
        wall_ns,
        samples,
        attempted: pass.ops,
        failed: pass.failed,
        ..Rep::default()
    };
    rep.seal();
    rep
}

/// One *t2* repetition on a fresh memory: the calling thread and one
/// peer (pinned to the other core) start together and run their own
/// scripts against the same objects. Only the blocks that ran while
/// **both** threads were running count — the thread that finishes
/// second runs its tail alone, at *t1* speed, and which thread that is
/// changes from repetition to repetition. Work per second is the sum of
/// the two threads' rates over those blocks; each latency quantile is
/// taken per thread and averaged over the two, so it does not depend on
/// which thread the contention happened to favour.
pub fn t2_rep(setup: &ShmemSetup) -> Rep {
    let memory = AtomicMemory::new(&setup.layout);
    let pinned = Placement::get().pinned;
    let barrier = Barrier::new(2);
    let passes = std::thread::scope(|scope| {
        let peer = scope.spawn(|| {
            if pinned {
                sys::pin(Placement::PEER_CORE);
            }
            barrier.wait();
            drive(&memory, setup, &setup.t2[1])
        });
        barrier.wait();
        let mine = drive(&memory, setup, &setup.t2[0]);
        [mine, peer.join().expect("peer thread panicked")]
    });
    let mut from = passes[0].start.max(passes[1].start);
    let mut until = passes[0].end().min(passes[1].end());
    if passes
        .iter()
        .zip(&setup.t2)
        .any(|(pass, script)| pass.within(script.len(), from, until).0 == 0)
    {
        // The threads never overlapped for a whole block (one core, or a
        // thread held back for a whole pass): count everything.
        (from, until) = (0, u64::MAX);
    }
    let mut rep = Rep::default();
    let mut per_ns = 0.0;
    for (pass, script) in passes.iter().zip(&setup.t2) {
        let (ops, ns, samples) = pass.within(script.len(), from, until);
        let mut thread = Rep {
            samples,
            ..Rep::default()
        };
        thread.seal();
        for (sum, q) in rep.quantiles_ns.iter_mut().zip(thread.quantiles_ns) {
            *sum += q / 2.0;
        }
        rep.sample_count += thread.sample_count;
        rep.work += ops;
        per_ns += ops as f64 / ns.max(1) as f64;
        rep.attempted += pass.ops;
        rep.failed += pass.failed;
    }
    // `work / wall_ns` is the sum of the two threads' rates.
    rep.wall_ns = (rep.work as f64 / per_ns) as u64;
    rep
}

/// The sizes a run used, for the record.
pub fn sizes_of(setup: &ShmemSetup) -> Vec<(&'static str, u64)> {
    vec![
        ("registers", REGISTERS as u64),
        ("snapshot_components", COMPONENTS as u64),
        ("t1_ops_per_rep", setup.t1.len() as u64),
        ("t2_ops_per_thread_per_rep", setup.t2[0].len() as u64),
    ]
}

/// `shmem-persona` end to end.
pub fn run(seed: u64, seconds: f64, scale: f64) -> EndToEnd {
    let build = || setup(seed, scale);
    let (setup, mut setup_rounds) = timed_setup(build);
    let [t1, t2] = run_phases(
        seconds,
        || setup_rounds.again(build),
        |_| t1_rep(&setup),
        |_| t2_rep(&setup),
    );
    EndToEnd {
        setup_rounds,
        phases: [
            summarize(&t1, Pick::FastDecile),
            summarize(&t2, Pick::Median),
        ],
        pinned: Placement::get().pinned,
        sizes: sizes_of(&setup),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_follows_the_mix() {
        let ops = script(&mut SplitMix64::new(5), 100_000, 128);
        for (kind, share) in Kind::MIX {
            let seen = ops.iter().filter(|op| op.kind == kind).count() as f64 / 1_000.0;
            assert!(
                (seen - share as f64).abs() < 1.0,
                "{} is {seen}% of the script, wanted {share}%",
                kind.name()
            );
        }
        assert!(ops.iter().all(|op| (op.target as usize) < COMPONENTS));
        assert!(Kind::MIX
            .iter()
            .enumerate()
            .all(|(i, (kind, _))| kind.index() == i));
    }

    #[test]
    fn reads_return_only_written_payloads() {
        let small = setup(11, 0.001);
        assert!(small.t1.len() >= BLOCK);
        let rep = t1_rep(&small);
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.work as usize, small.t1.len());
        assert!(!written(&Persona::bare(ProcessId(COMPONENTS), 0)));
        assert!(!written(&Persona::bare(ProcessId(0), INPUTS)));
    }

    #[test]
    fn only_blocks_inside_the_window_count() {
        let len = 2 * BLOCK + 10;
        let pass = Pass {
            start: 100,
            block_ends: vec![200, 300, 450],
            ops: len as u64,
            failed: 0,
        };
        assert_eq!(pass.end(), 450);
        let (ops, ns, samples) = pass.within(len, 100, 450);
        assert_eq!((ops, ns, samples.len()), (len as u64, 350, 3));
        assert_eq!(samples[2], 15.0);
        // A window that opens mid-block and closes before the last block
        // ends keeps the middle block only.
        let (ops, ns, samples) = pass.within(len, 150, 400);
        assert_eq!((ops, ns), (BLOCK as u64, 100));
        assert_eq!(samples, [100.0 / BLOCK as f64]);
    }

    #[test]
    fn t2_counts_both_threads_over_their_overlap() {
        let small = setup(11, 0.02);
        let rep = t2_rep(&small);
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.attempted as usize, 2 * small.t2[0].len());
        assert!(rep.work > 0 && rep.work <= rep.attempted);
        assert!(rep.work.is_multiple_of(BLOCK as u64));
        assert!(rep.wall_ns > 0 && rep.sample_count > 0);
        assert!(rep.quantiles_ns[0] > 0.0 && rep.quantiles_ns[0] <= rep.quantiles_ns[2]);
    }
}
