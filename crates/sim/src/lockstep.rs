//! The round-robin lockstep driver: a sequential loop that runs
//! [`Process`] state machines to completion, round robin, against a
//! caller-supplied memory.
//!
//! The [`Engine`](crate::engine::Engine) resumes a state machine
//! immediately after its operation executes, so "one operation per
//! round-robin slot" here is the same discipline: outputs match an
//! engine run under [`RoundRobin`] exactly (`tests/cross_runtime.rs`
//! pins that). The loop carries none of the engine's accounting —
//! metrics, traces, crash sets, lazy process tables — which is what
//! makes it the right driver for a batch of one. `sift-service` calls
//! it over [`Memory`](crate::memory::Memory); `sift_shmem::runtime`
//! calls it over the threaded substrates, except for
//! `run_script_on`, which keeps its own loop to step the processes in
//! a fixed script's order.

use crate::ids::ProcessId;
use crate::op::{Op, OpResult};
use crate::process::{Process, Step};
use crate::schedule::{RoundRobin, Schedule};

/// A live process paired with the result of its last operation, or
/// `None` once it has finished.
type LockstepSlot<P> = Option<(P, Option<OpResult<<P as Process>::Value>>)>;

/// Runs every process to completion in round-robin order on the calling
/// thread, executing each issued operation through `execute`, and
/// returns the outputs in process order. Slots that fall to finished
/// processes are skipped.
///
/// # Panics
///
/// Panics if `processes` is empty (a round robin needs someone to
/// schedule).
///
/// # Examples
///
/// ```
/// use sift_sim::{drive_lockstep, LayoutBuilder, Memory, Op, OpResult, Process, RegisterId, Step};
///
/// /// Writes its id, then returns what it reads back.
/// struct P { reg: RegisterId, id: u32, phase: u8 }
///
/// impl Process for P {
///     type Value = u32;
///     type Output = u32;
///     fn step(&mut self, prev: Option<OpResult<u32>>) -> Step<u32, u32> {
///         self.phase += 1;
///         match self.phase {
///             1 => Step::Issue(Op::RegisterWrite(self.reg, self.id)),
///             2 => Step::Issue(Op::RegisterRead(self.reg)),
///             _ => Step::Done(prev.unwrap().expect_register().unwrap()),
///         }
///     }
/// }
///
/// let mut b = LayoutBuilder::new();
/// let reg = b.register();
/// let mut memory: Memory<u32> = Memory::new(&b.build());
/// let procs: Vec<P> = (0..3).map(|id| P { reg, id, phase: 0 }).collect();
/// // All three write before anyone reads, so everyone sees the last writer.
/// assert_eq!(drive_lockstep(procs, |_, op| memory.execute(op)), vec![2, 2, 2]);
/// ```
pub fn drive_lockstep<P: Process>(
    processes: Vec<P>,
    mut execute: impl FnMut(ProcessId, Op<P::Value>) -> OpResult<P::Value>,
) -> Vec<P::Output> {
    let mut slots: Vec<LockstepSlot<P>> = processes.into_iter().map(|p| Some((p, None))).collect();
    let mut outputs: Vec<Option<P::Output>> = (0..slots.len()).map(|_| None).collect();
    let mut schedule = RoundRobin::new(slots.len());
    let mut remaining = slots.len();
    while remaining > 0 {
        let pid = schedule.next_pid().expect("round robin is infinite");
        let slot = &mut slots[pid.index()];
        if let Some((proc_ref, prev)) = slot.as_mut() {
            match proc_ref.step(prev.take()) {
                Step::Issue(op) => {
                    *prev = Some(execute(pid, op));
                }
                Step::Done(out) => {
                    outputs[pid.index()] = Some(out);
                    *slot = None;
                    remaining -= 1;
                }
            }
        }
    }
    outputs
        .into_iter()
        .map(|o| o.expect("lockstep runs every process to completion"))
        .collect()
}
