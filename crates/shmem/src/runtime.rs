//! Runs simulator state machines on real OS threads.
//!
//! The adversary here is the operating-system scheduler: it cannot see
//! the processes' coins (they live in thread-local state), so it is a
//! reasonable real-world approximation of a content-oblivious adversary
//! — with the caveat discussed in the paper's §2 (and in
//! Golab–Higham–Woelfel) that linearizable implementations do not in
//! general preserve the probabilistic guarantees proved for atomic
//! objects. The statistical experiments therefore run on the simulator;
//! this runtime demonstrates the algorithms working on real atomics.
//!
//! A run is processes + memory + driver. The processes come from
//! [`SeedSplitter::processes`](sift_sim::rng::SeedSplitter::processes);
//! the memory is an argument (any [`ExecuteOps`], usually an
//! [`AtomicMemory`](crate::AtomicMemory)); and there are two drivers —
//! [`drive_threads`] here and [`sift_sim::drive_lockstep`] — of which
//! every `run_*` function below but one is a short call.
//! [`run_script_on`] is its own sequential loop: it steps the processes
//! in a fixed script's order, not round robin.

use sift_sim::mc::History;
use sift_sim::{drive_lockstep, Op, OpResult, Process, ProcessId, Step};

use crate::history::RecordingMemory;
use crate::memory::ExecuteOps;

/// Outcome of one threaded run.
#[derive(Debug)]
pub struct ThreadReport<O> {
    /// Per-process outputs, in process order.
    pub outputs: Vec<O>,
    /// Per-process operation counts.
    pub ops: Vec<u64>,
}

impl<O> ThreadReport<O> {
    /// Total operations across all processes.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }
}

/// Runs each process state machine to completion on its own OS thread,
/// executing every issued operation through `execute`, and blocks until
/// all have finished — the threaded mirror of
/// [`sift_sim::drive_lockstep`], and the crate's one thread-spawning
/// loop.
///
/// # Panics
///
/// Panics if a process thread panics (after the other threads have run
/// to completion; the scope joins them all).
///
/// # Examples
///
/// ```
/// use sift_core::{Conciliator, Epsilon, SiftingConciliator};
/// use sift_shmem::runtime::drive_threads;
/// use sift_shmem::{AtomicMemory, ExecuteOps};
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::LayoutBuilder;
///
/// let n = 4;
/// let mut b = LayoutBuilder::new();
/// let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
/// let layout = b.build();
/// let memory = AtomicMemory::new(&layout);
/// let split = SeedSplitter::new(1);
/// let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
/// let report = drive_threads(procs, |_, op| memory.execute(op));
/// assert_eq!(report.outputs.len(), n);
/// ```
pub fn drive_threads<P>(
    processes: Vec<P>,
    execute: impl Fn(ProcessId, Op<P::Value>) -> OpResult<P::Value> + Sync,
) -> ThreadReport<P::Output>
where
    P: Process + Send,
    P::Output: Send,
{
    let execute = &execute;
    let (outputs, ops) = std::thread::scope(|scope| {
        let handles: Vec<_> = processes
            .into_iter()
            .enumerate()
            .map(|(i, mut proc)| {
                scope.spawn(move || {
                    let mut ops = 0u64;
                    let mut prev = None;
                    loop {
                        match proc.step(prev.take()) {
                            Step::Issue(op) => {
                                ops += 1;
                                prev = Some(execute(ProcessId(i), op));
                            }
                            Step::Done(output) => return (output, ops),
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("process thread panicked"))
            .unzip()
    });
    ThreadReport { outputs, ops }
}

/// [`drive_threads`] over a [`RecordingMemory`] wrapped around
/// `memory`: returns the report together with the captured concurrent
/// [`History`] (see
/// [`check_linearizable`](sift_sim::mc::check_linearizable)).
///
/// # Panics
///
/// Panics if a process thread panics.
pub fn run_threads_recorded<P, M>(
    memory: M,
    processes: Vec<P>,
) -> (ThreadReport<P::Output>, History<P::Value>)
where
    P: Process + Send,
    P::Output: Send,
    M: ExecuteOps<P::Value>,
{
    let memory = RecordingMemory::over(memory);
    let report = drive_threads(processes, |pid, op| memory.execute_as(pid, op));
    (report, memory.into_history())
}

/// Drives the state machines against `memory` — any [`ExecuteOps`]
/// implementation — in the exact round-robin order the simulator's
/// engine would use, single-threaded: [`sift_sim::drive_lockstep`] over
/// the threaded objects. Outputs must match a simulator run under
/// [`RoundRobin`](sift_sim::schedule::RoundRobin) exactly, which
/// `tests/cross_runtime.rs` verifies on
/// [`AtomicMemory`](crate::AtomicMemory) and on the model under a lock;
/// the differential tests drive the *same* deterministic schedule
/// through each and compare outcomes.
pub fn run_lockstep_on<P: Process, M: ExecuteOps<P::Value>>(
    memory: &M,
    processes: Vec<P>,
) -> Vec<P::Output> {
    drive_lockstep(processes, |_, op| memory.execute(op))
}

/// [`run_lockstep_on`] over a [`RecordingMemory`] wrapped around
/// `memory`: returns the outputs and the captured (sequential) history.
pub fn run_lockstep_recorded<P: Process, M: ExecuteOps<P::Value>>(
    memory: M,
    processes: Vec<P>,
) -> (Vec<P::Output>, History<P::Value>) {
    let memory = RecordingMemory::over(memory);
    let outputs = drive_lockstep(processes, |pid, op| memory.execute_as(pid, op));
    (outputs, memory.into_history())
}

/// Replays a process-id script — e.g. a fuzzer corpus entry or a shrunk
/// counterexample — against a caller-provided memory, mirroring the
/// simulator engine's slot semantics exactly: each script slot executes
/// the scheduled process's pending operation and immediately resumes
/// the state machine, slots naming finished processes are free no-ops,
/// and processes the script starves end with `None`.
///
/// This is the substrate half of the differential fuzz harness: the
/// same script replayed here on [`AtomicMemory`](crate::AtomicMemory)
/// and on the model under a lock (or through the simulator's
/// `replay_script`) must produce identical outputs.
///
/// # Panics
///
/// Panics if the script names a process index out of range.
pub fn run_script_on<P: Process, M: ExecuteOps<P::Value>>(
    memory: &M,
    processes: Vec<P>,
    script: &[usize],
) -> Vec<Option<P::Output>> {
    enum Slot<P: Process> {
        Running { proc: P, pending: Op<P::Value> },
        Done(P::Output),
    }
    let mut slots: Vec<Slot<P>> = processes
        .into_iter()
        .map(|mut proc| match proc.step(None) {
            Step::Issue(op) => Slot::Running { proc, pending: op },
            Step::Done(output) => Slot::Done(output),
        })
        .collect();
    for &i in script {
        assert!(i < slots.len(), "script names out-of-range process {i}");
        if let Slot::Running { proc, pending } = &mut slots[i] {
            let result = memory.execute(pending.clone());
            match proc.step(Some(result)) {
                Step::Issue(next) => *pending = next,
                Step::Done(output) => slots[i] = Slot::Done(output),
            }
        }
    }
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Running { .. } => None,
            Slot::Done(output) => Some(output),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AtomicMemory;
    use sift_core::{
        CilConciliator, Conciliator, EmbeddedConciliator, Epsilon, SiftingConciliator,
        SnapshotConciliator,
    };
    use sift_sim::rng::SeedSplitter;
    use sift_sim::{Layout, LayoutBuilder, Memory, ProcessId};
    use std::sync::Mutex;

    /// Runs `procs()` on threads over each memory — an
    /// [`AtomicMemory`], then the whole model under one lock — and
    /// hands each report to `check`.
    fn on_both_memories<P>(
        layout: &Layout,
        procs: impl Fn() -> Vec<P>,
        mut check: impl FnMut(ThreadReport<P::Output>),
    ) where
        P: Process + Send,
        P::Output: Send,
    {
        let atomic = AtomicMemory::new(layout);
        check(drive_threads(procs(), |_, op| atomic.execute(op)));
        let model = Mutex::new(Memory::new(layout));
        check(drive_threads(procs(), |_, op| model.execute(op)));
    }

    #[test]
    fn sifting_conciliator_runs_on_threads() {
        let n = 8;
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let split = SeedSplitter::new(2);
        let procs = || split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
        on_both_memories(&layout, procs, |report| {
            assert_eq!(report.outputs.len(), n);
            for p in &report.outputs {
                assert!(p.input() < n as u64, "validity on threads");
            }
            let rounds = c.rounds() as u64;
            assert!(report.ops.iter().all(|&o| o == rounds));
        });
    }

    /// Finishes at once, or panics on its first step.
    struct Faulty {
        panics: bool,
    }

    impl Process for Faulty {
        type Value = u64;
        type Output = ();

        fn step(&mut self, _prev: Option<OpResult<u64>>) -> Step<u64, ()> {
            assert!(!self.panics, "process bug");
            Step::Done(())
        }
    }

    /// The documented contract of `drive_threads`: a panicking process
    /// fails the run — it neither hangs the join nor yields a report.
    #[test]
    #[should_panic(expected = "process thread panicked")]
    fn a_panicking_process_fails_the_run() {
        let procs = vec![Faulty { panics: false }, Faulty { panics: true }];
        drive_threads(procs, |_, _| unreachable!("no process issues an operation"));
    }

    #[test]
    fn script_replay_matches_the_simulator_engine() {
        use sift_sim::mc::replay_script;
        use sift_sim::schedule::RandomInterleave;
        use sift_sim::Engine;

        let n = 6;
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let split = SeedSplitter::new(11);
        let make_procs = || -> Vec<_> {
            split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng))
        };
        // Record the charged slot script of a random interleaving.
        let mut engine = Engine::new(&layout, make_procs());
        engine.enable_trace();
        let report = engine.run(RandomInterleave::new(n, 5));
        let script: Vec<usize> = report
            .trace
            .as_ref()
            .expect("trace enabled")
            .events()
            .iter()
            .map(|e| e.pid.index())
            .collect();

        let sim_outputs = replay_script(&layout, make_procs(), &script);
        assert!(sim_outputs.iter().all(Option::is_some));
        let on_atomic = run_script_on(&AtomicMemory::new(&layout), make_procs(), &script);
        let on_model = run_script_on(&Mutex::new(Memory::new(&layout)), make_procs(), &script);
        assert_eq!(sim_outputs, on_atomic);
        assert_eq!(sim_outputs, on_model);
    }

    #[test]
    fn script_replay_starves_unscheduled_processes() {
        let n = 3;
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let split = SeedSplitter::new(12);
        let procs = || split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
        // Only p0 is ever scheduled, and generously enough to finish.
        let script = vec![0usize; 4 * c.rounds()];
        let on_atomic = run_script_on(&AtomicMemory::new(&layout), procs(), &script);
        let on_model = run_script_on(&Mutex::new(Memory::new(&layout)), procs(), &script);
        for outputs in [on_atomic, on_model] {
            assert!(outputs[0].is_some());
            assert!(outputs[1].is_none());
            assert!(outputs[2].is_none());
        }
    }

    #[test]
    fn snapshot_conciliator_runs_on_threads() {
        let n = 6;
        let mut b = LayoutBuilder::new();
        let c = SnapshotConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let split = SeedSplitter::new(3);
        let procs = || {
            split.processes(n, |pid, rng| {
                c.participant(pid, 100 + pid.index() as u64, rng)
            })
        };
        on_both_memories(&layout, procs, |report| {
            for p in &report.outputs {
                assert!((100..106).contains(&p.input()));
            }
        });
    }

    #[test]
    fn embedded_conciliator_runs_on_threads() {
        let n = 8;
        let mut b = LayoutBuilder::new();
        let c = EmbeddedConciliator::allocate(&mut b, n);
        let layout = b.build();
        let split = SeedSplitter::new(4);
        let procs = || split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
        let bound = c.steps_bound().unwrap();
        on_both_memories(&layout, procs, |report| {
            for (&ops, p) in report.ops.iter().zip(&report.outputs) {
                assert!(ops <= bound);
                assert!(p.input() < n as u64);
            }
        });
    }

    #[test]
    fn cil_conciliator_usually_agrees_on_threads() {
        let n = 4;
        let (mut agreements, mut runs) = (0, 0);
        for seed in 0..20 {
            let mut b = LayoutBuilder::new();
            let c = CilConciliator::allocate(&mut b, n);
            let layout = b.build();
            let split = SeedSplitter::new(seed);
            let procs =
                || split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
            on_both_memories(&layout, procs, |report| {
                runs += 1;
                agreements += u32::from(report.outputs.windows(2).all(|w| w[0] == w[1]));
            });
        }
        assert!(
            agreements * 2 > runs,
            "agreement rate {agreements}/{runs} suspiciously low"
        );
    }

    #[test]
    fn adopt_commit_objects_run_on_threads() {
        use sift_adopt_commit::{check_ac_properties, AdoptCommit, GafniSnapshotAc};
        let n = 6;
        let mut b = LayoutBuilder::new();
        let ac = GafniSnapshotAc::<u64>::allocate(&mut b, n, |v| *v);
        let layout = b.build();
        let proposals: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
        let procs = || -> Vec<_> {
            proposals
                .iter()
                .enumerate()
                .map(|(i, &c)| ac.proposer(ProcessId(i), c, c))
                .collect()
        };
        on_both_memories(&layout, procs, |report| {
            let outputs: Vec<_> = report.outputs.into_iter().map(Some).collect();
            check_ac_properties(&proposals, &outputs);
        });
    }

    #[test]
    fn sifting_tas_runs_on_threads() {
        use sift_tas::{check_tas_properties, SiftingTas};
        let n = 8;
        for seed in 0..10 {
            let mut b = LayoutBuilder::new();
            let tas = SiftingTas::allocate(&mut b, n);
            let layout = b.build();
            let split = SeedSplitter::new(seed);
            let procs = || split.processes(n, |pid, rng| tas.participant(pid, rng));
            on_both_memories(&layout, procs, |report| {
                let outputs: Vec<_> = report.outputs.into_iter().map(Some).collect();
                check_tas_properties(&outputs);
            });
        }
    }

    #[test]
    fn full_consensus_stack_runs_on_threads() {
        use sift_consensus::{check_consensus, snapshot_consensus};
        let n = 5;
        let mut b = LayoutBuilder::new();
        let protocol = snapshot_consensus(&mut b, n);
        let layout = b.build();
        let split = SeedSplitter::new(6);
        let inputs: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
        let procs = || {
            split.processes(n, |pid, rng| {
                protocol.participant(pid, inputs[pid.index()], rng)
            })
        };
        on_both_memories(&layout, procs, |report| {
            check_consensus(&inputs, report.outputs.iter());
        });
    }
}
