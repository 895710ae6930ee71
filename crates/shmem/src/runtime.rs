//! Runs simulator state machines on real OS threads.
//!
//! The adversary here is the operating-system scheduler: it cannot see
//! the processes' coins (they live in thread-local state), so it is a
//! reasonable real-world approximation of a content-oblivious adversary
//! — with the caveat discussed in the paper's §2 (and in
//! Golab–Higham–Woelfel) that linearizable implementations do not in
//! general preserve the probabilistic guarantees proved for atomic
//! objects. The statistical experiments therefore run on the simulator;
//! this runtime demonstrates the algorithms working on real atomics and
//! measures wall-clock cost.

use std::sync::Arc;

use sift_sim::mc::History;
use sift_sim::{drive_lockstep, Layout, Op, Process, ProcessId, Step};

use crate::history::RecordingMemory;
use crate::memory::AtomicMemory;

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

impl<O: PartialEq> ThreadReport<O> {
    /// Returns `true` if all outputs are equal.
    pub fn outputs_agree(&self) -> bool {
        self.outputs.windows(2).all(|w| w[0] == w[1])
    }
}

/// Runs each process state machine on its own OS thread against
/// [`AtomicMemory`] built from `layout`, blocking until all finish.
///
/// # Examples
///
/// ```
/// use sift_core::{Conciliator, Epsilon, SiftingConciliator};
/// use sift_shmem::runtime::run_threads;
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::{LayoutBuilder, ProcessId};
///
/// let n = 4;
/// let mut b = LayoutBuilder::new();
/// let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
/// let layout = b.build();
/// let split = SeedSplitter::new(1);
/// let procs: Vec<_> = (0..n)
///     .map(|i| {
///         let mut rng = split.stream("process", i as u64);
///         c.participant(ProcessId(i), i as u64, &mut rng)
///     })
///     .collect();
/// let report = run_threads(&layout, procs);
/// assert_eq!(report.outputs.len(), n);
/// ```
///
/// # Panics
///
/// Panics if a process thread panics.
pub fn run_threads<P>(layout: &Layout, processes: Vec<P>) -> ThreadReport<P::Output>
where
    P: Process + Send + 'static,
    P::Output: Send + 'static,
{
    let memory: Arc<AtomicMemory<P::Value>> = Arc::new(AtomicMemory::new(layout));
    let handles: Vec<_> = processes
        .into_iter()
        .map(|mut proc| {
            let memory = Arc::clone(&memory);
            std::thread::spawn(move || {
                let mut ops = 0u64;
                let mut prev = None;
                loop {
                    match proc.step(prev.take()) {
                        Step::Issue(op) => {
                            ops += 1;
                            prev = Some(memory.execute(op));
                        }
                        Step::Done(output) => return (output, ops),
                    }
                }
            })
        })
        .collect();
    let mut outputs = Vec::with_capacity(handles.len());
    let mut ops = Vec::with_capacity(handles.len());
    for handle in handles {
        let (output, count) = handle.join().expect("process thread panicked");
        outputs.push(output);
        ops.push(count);
    }
    ThreadReport { outputs, ops }
}

/// Runs each process state machine on its own OS thread against a
/// [`RecordingMemory`], returning the report together with the captured
/// concurrent [`History`] (see
/// [`check_linearizable`](sift_sim::mc::check_linearizable)).
///
/// # Panics
///
/// Panics if a process thread panics.
pub fn run_threads_recorded<P>(
    layout: &Layout,
    processes: Vec<P>,
) -> (ThreadReport<P::Output>, History<P::Value>)
where
    P: Process + Send + 'static,
    P::Output: Send + 'static,
{
    let memory: Arc<RecordingMemory<P::Value>> = Arc::new(RecordingMemory::new(layout));
    let handles: Vec<_> = processes
        .into_iter()
        .enumerate()
        .map(|(i, mut proc)| {
            let memory = Arc::clone(&memory);
            std::thread::spawn(move || {
                let mut ops = 0u64;
                let mut prev = None;
                loop {
                    match proc.step(prev.take()) {
                        Step::Issue(op) => {
                            ops += 1;
                            prev = Some(memory.execute_as(ProcessId(i), op));
                        }
                        Step::Done(output) => return (output, ops),
                    }
                }
            })
        })
        .collect();
    let mut outputs = Vec::with_capacity(handles.len());
    let mut ops = Vec::with_capacity(handles.len());
    for handle in handles {
        let (output, count) = handle.join().expect("process thread panicked");
        outputs.push(output);
        ops.push(count);
    }
    let Ok(memory) = Arc::try_unwrap(memory) else {
        unreachable!("all process threads joined, so no clone outlives us");
    };
    (ThreadReport { outputs, ops }, memory.into_history())
}

/// Drives the state machines against the threaded objects in the exact
/// round-robin order the simulator's engine would use, single-threaded
/// — [`sift_sim::drive_lockstep`] over a fresh [`AtomicMemory`].
/// Outputs must match a simulator run under
/// [`RoundRobin`](sift_sim::schedule::RoundRobin) exactly, which
/// `tests/cross_runtime.rs` verifies.
pub fn run_lockstep<P: Process>(layout: &Layout, processes: Vec<P>) -> Vec<P::Output> {
    run_lockstep_on(&AtomicMemory::new(layout), processes)
}

/// [`run_lockstep`] against a caller-provided memory — any
/// [`ExecuteOps`](crate::memory::ExecuteOps) implementation. This is
/// what differential tests use to drive the *same* deterministic
/// schedule through both substrates (e.g.
/// [`LockFreeMemory`](crate::memory::LockFreeMemory) versus
/// [`CoarseMemory`](crate::memory::CoarseMemory)) and compare outcomes.
pub fn run_lockstep_on<P: Process, M: crate::memory::ExecuteOps<P::Value>>(
    memory: &M,
    processes: Vec<P>,
) -> Vec<P::Output> {
    drive_lockstep(processes, |_, op| memory.execute(op))
}

/// [`run_lockstep`] over a [`RecordingMemory`]: returns the outputs and
/// the captured (sequential) history.
pub fn run_lockstep_recorded<P: Process>(
    layout: &Layout,
    processes: Vec<P>,
) -> (Vec<P::Output>, History<P::Value>) {
    let memory = RecordingMemory::new(layout);
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
/// same script replayed here on [`LockFreeMemory`](crate::memory::
/// LockFreeMemory) and [`CoarseMemory`](crate::memory::CoarseMemory)
/// (or through the simulator's `replay_script`) must produce identical
/// outputs.
///
/// # Panics
///
/// Panics if the script names a process index out of range.
pub fn run_script_on<P: Process, M: crate::memory::ExecuteOps<P::Value>>(
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
    use sift_core::{
        CilConciliator, Conciliator, EmbeddedConciliator, Epsilon, SiftingConciliator,
        SnapshotConciliator,
    };
    use sift_sim::rng::SeedSplitter;
    use sift_sim::{LayoutBuilder, ProcessId};

    #[test]
    fn sifting_conciliator_runs_on_threads() {
        let n = 8;
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let split = SeedSplitter::new(2);
        let procs: Vec<_> = (0..n)
            .map(|i| {
                let mut rng = split.stream("process", i as u64);
                c.participant(ProcessId(i), i as u64, &mut rng)
            })
            .collect();
        let report = run_threads(&layout, procs);
        assert_eq!(report.outputs.len(), n);
        for p in &report.outputs {
            assert!(p.input() < n as u64, "validity on threads");
        }
        let rounds = c.rounds() as u64;
        assert!(report.ops.iter().all(|&o| o == rounds));
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
            (0..n)
                .map(|i| {
                    let mut rng = split.stream("process", i as u64);
                    c.participant(ProcessId(i), i as u64, &mut rng)
                })
                .collect()
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
        let substrate_outputs = run_script_on(&AtomicMemory::new(&layout), make_procs(), &script);
        assert_eq!(sim_outputs.len(), substrate_outputs.len());
        for (a, b) in sim_outputs.iter().zip(&substrate_outputs) {
            assert_eq!(a, b);
        }
        assert!(substrate_outputs.iter().all(Option::is_some));
    }

    #[test]
    fn script_replay_starves_unscheduled_processes() {
        let n = 3;
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let split = SeedSplitter::new(12);
        let procs: Vec<_> = (0..n)
            .map(|i| {
                let mut rng = split.stream("process", i as u64);
                c.participant(ProcessId(i), i as u64, &mut rng)
            })
            .collect();
        // Only p0 is ever scheduled, and generously enough to finish.
        let script = vec![0usize; 4 * c.rounds()];
        let outputs = run_script_on(&AtomicMemory::new(&layout), procs, &script);
        assert!(outputs[0].is_some());
        assert!(outputs[1].is_none());
        assert!(outputs[2].is_none());
    }

    #[test]
    fn snapshot_conciliator_runs_on_threads() {
        let n = 6;
        let mut b = LayoutBuilder::new();
        let c = SnapshotConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let split = SeedSplitter::new(3);
        let procs: Vec<_> = (0..n)
            .map(|i| {
                let mut rng = split.stream("process", i as u64);
                c.participant(ProcessId(i), 100 + i as u64, &mut rng)
            })
            .collect();
        let report = run_threads(&layout, procs);
        for p in &report.outputs {
            assert!((100..106).contains(&p.input()));
        }
    }

    #[test]
    fn embedded_conciliator_runs_on_threads() {
        let n = 8;
        let mut b = LayoutBuilder::new();
        let c = EmbeddedConciliator::allocate(&mut b, n);
        let layout = b.build();
        let split = SeedSplitter::new(4);
        let procs: Vec<_> = (0..n)
            .map(|i| {
                let mut rng = split.stream("process", i as u64);
                c.participant(ProcessId(i), i as u64, &mut rng)
            })
            .collect();
        let report = run_threads(&layout, procs);
        let bound = c.steps_bound().unwrap();
        for (&ops, p) in report.ops.iter().zip(&report.outputs) {
            assert!(ops <= bound);
            assert!(p.input() < n as u64);
        }
    }

    #[test]
    fn cil_conciliator_usually_agrees_on_threads() {
        let n = 4;
        let mut agreements = 0;
        let trials = 20;
        for seed in 0..trials {
            let mut b = LayoutBuilder::new();
            let c = CilConciliator::allocate(&mut b, n);
            let layout = b.build();
            let split = SeedSplitter::new(seed);
            let procs: Vec<_> = (0..n)
                .map(|i| {
                    let mut rng = split.stream("process", i as u64);
                    c.participant(ProcessId(i), i as u64, &mut rng)
                })
                .collect();
            let report = run_threads(&layout, procs);
            if report.outputs_agree() {
                agreements += 1;
            }
        }
        assert!(
            agreements * 2 > trials,
            "agreement rate {agreements}/{trials} suspiciously low"
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
        let procs: Vec<_> = proposals
            .iter()
            .enumerate()
            .map(|(i, &c)| ac.proposer(ProcessId(i), c, c))
            .collect();
        let report = run_threads(&layout, procs);
        let outputs: Vec<_> = report.outputs.into_iter().map(Some).collect();
        check_ac_properties(&proposals, &outputs);
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
            let procs: Vec<_> = (0..n)
                .map(|i| tas.participant(ProcessId(i), &mut split.stream("process", i as u64)))
                .collect();
            let report = run_threads(&layout, procs);
            let outputs: Vec<_> = report.outputs.into_iter().map(Some).collect();
            check_tas_properties(&outputs);
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
        let procs: Vec<_> = (0..n)
            .map(|i| {
                let mut rng = split.stream("process", i as u64);
                protocol.participant(ProcessId(i), inputs[i], &mut rng)
            })
            .collect();
        let report = run_threads(&layout, procs);
        check_consensus(&inputs, report.outputs.iter());
    }
}
