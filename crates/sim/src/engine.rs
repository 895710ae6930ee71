//! The execution engine: a discrete-event core driving process state
//! machines under an oblivious-adversary schedule against simulated
//! shared memory.
//!
//! Semantics (matching §1.1 of the paper):
//!
//! * At each schedule slot, the scheduled process executes exactly one
//!   shared-memory operation (atomically).
//! * Slots given to a finished process are free no-ops.
//! * The run ends when every process in the schedule's support has
//!   finished, when the schedule is exhausted, or when an explicit slot
//!   limit is reached.
//!
//! Local computation between operations is free: the engine resumes the
//! state machine with the operation's result immediately after executing
//! it, so the *next* operation is ready for the process's next slot, and
//! a process whose final operation completes needs no extra slot to
//! return its output.
//!
//! ## The event core
//!
//! Internally the engine treats the schedule as an event stream: slots
//! are prefetched in flat buckets (a calendar queue keyed by schedule
//! position, `event::SlotQueue`) whenever the schedule
//! declares itself
//! [`completion_oblivious`](crate::schedule::Schedule::completion_oblivious),
//! and process state machines live in an arena addressed through a
//! dense `ProcessId → slot` table
//! (`event::ProcessTable`). With
//! [`Engine::lazy`], processes (and, via the paged
//! [`Memory`], their registers) materialize on
//! first touch: a schedule that only ever exercises 100 of a million
//! declared processes allocates proportionally to those 100. The
//! regression suite (`tests/determinism.rs`, `tests/mc_replay.rs`) pins
//! a digest of the outputs, metrics, stop reason and trace of every
//! shipped schedule family, crash subsets, fuzz genomes, slot limits
//! and replay scripts — the answers the per-step loop this core
//! replaced gave, cell for cell.
//!
//! One divergence from that loop is lazy-only: a process whose first
//! step returns `Done` without issuing an operation announces its
//! completion at its first scheduled slot (charged as a free skip)
//! rather than before the run, because an untouched process cannot be
//! observed.

use crate::event::{ProcessTable, SlotQueue, Touched};
use crate::ids::ProcessId;
use crate::layout::Layout;
use crate::memory::{Memory, RegisterSemantics};
use crate::metrics::Metrics;
use crate::op::Op;
use crate::process::Process;
use crate::schedule::Schedule;
use crate::trace::{Trace, TraceEvent};

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every process in the schedule's support finished.
    AllDone,
    /// The schedule produced no more slots.
    ScheduleExhausted,
    /// The configured slot limit was reached.
    SlotLimit,
}

/// The engine owning memory, processes, and accounting for one run.
///
/// # Examples
///
/// ```
/// use sift_sim::{Engine, LayoutBuilder, Op, OpResult, Process, RegisterId, Step};
/// use sift_sim::schedule::RoundRobin;
///
/// struct WriteOnce(RegisterId, u32, bool);
/// impl Process for WriteOnce {
///     type Value = u32;
///     type Output = u32;
///     fn step(&mut self, _prev: Option<OpResult<u32>>) -> Step<u32, u32> {
///         if self.2 {
///             Step::Done(self.1)
///         } else {
///             self.2 = true;
///             Step::Issue(Op::RegisterWrite(self.0, self.1))
///         }
///     }
/// }
///
/// let mut b = LayoutBuilder::new();
/// let r = b.register();
/// let layout = b.build();
/// let procs = vec![WriteOnce(r, 10, false), WriteOnce(r, 20, false)];
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(2));
/// assert_eq!(report.outputs, vec![Some(10), Some(20)]);
/// assert_eq!(report.metrics.total_steps, 2);
/// ```
pub struct Engine<P: Process> {
    memory: Memory<P::Value>,
    table: ProcessTable<P>,
    metrics: Metrics,
    trace: Option<Trace>,
    slot_limit: u64,
    /// Per-slot reader epochs: the memory op-clock value when the slot's
    /// process last executed an operation (0 before its first). Indexed
    /// by slot (touch order), so it grows with the materialized set and
    /// preserves the lazy O(touched) allocation guarantee. Only the
    /// regular-register semantics consult it.
    epochs: Vec<u64>,
}

impl<P: Process> Engine<P> {
    /// Creates an engine over fresh unit-cost memory for `layout`.
    pub fn new(layout: &Layout, processes: Vec<P>) -> Self {
        Self::with_memory(Memory::new(layout), processes)
    }

    /// Creates an engine over explicitly constructed memory (e.g. with a
    /// non-default [`CostModel`](crate::memory::CostModel)).
    pub fn with_memory(memory: Memory<P::Value>, processes: Vec<P>) -> Self {
        let n = processes.len();
        Self {
            memory,
            table: ProcessTable::eager(processes),
            metrics: Metrics::new(n),
            trace: None,
            slot_limit: u64::MAX,
            epochs: Vec::new(),
        }
    }

    /// Creates a **lazily materializing** engine over `n` processes:
    /// `factory(pid)` builds a process the first time the schedule
    /// touches it, and processes never touched cost four bytes of
    /// index space. Combined with the paged [`Memory`], building an
    /// engine for `n = 10^6` and running a 100-process schedule
    /// allocates proportionally to the 100 touched processes.
    ///
    /// Semantics differ from the eager constructor in exactly one
    /// place: a process whose first step returns `Done` without issuing
    /// any operation announces its completion
    /// ([`Schedule::on_done`]) at its first scheduled slot (which is
    /// charged as a free skip) instead of before the run — an untouched
    /// process cannot be observed at all. Use [`Engine::run_sparse`] to
    /// keep the report proportional to the touched set; [`Engine::run`]
    /// materializes the remainder at report time to stay dense.
    pub fn lazy(layout: &Layout, n: usize, factory: impl FnMut(ProcessId) -> P + 'static) -> Self {
        Self::lazy_with_memory(Memory::new(layout), n, factory)
    }

    /// [`Engine::lazy`] over explicitly constructed memory.
    pub(crate) fn lazy_with_memory(
        memory: Memory<P::Value>,
        n: usize,
        factory: impl FnMut(ProcessId) -> P + 'static,
    ) -> Self {
        Self {
            memory,
            table: ProcessTable::lazy(n, Box::new(factory)),
            metrics: Metrics::new(0),
            trace: None,
            slot_limit: u64::MAX,
            epochs: Vec::new(),
        }
    }

    /// Enables trace recording (off by default; traces can be large).
    pub fn enable_trace(&mut self) -> &mut Self {
        self.trace = Some(Trace::new());
        self
    }

    /// Caps the number of *charged* slots; the run stops with
    /// [`StopReason::SlotLimit`] when reached. Useful for protocols with
    /// unbounded worst cases (e.g. Chor–Israeli–Li). Accounting
    /// saturates, so a budget hit mid-round at any scale is a clean
    /// stop, never an overflow.
    pub fn limit_slots(&mut self, limit: u64) -> &mut Self {
        self.slot_limit = limit;
        self
    }

    /// Switches the register semantics of this engine's memory (atomic
    /// by default; see
    /// [`RegisterSemantics`]). Under
    /// regular semantics, a register read by a process whose previous
    /// step preceded the latest write to that register resolves old or
    /// new per the configured resolution — the simulator-side model of
    /// a non-atomic register substrate.
    pub fn set_register_semantics(&mut self, semantics: RegisterSemantics) -> &mut Self {
        self.memory.set_semantics(semantics);
        self
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.table.n()
    }

    /// Number of processes materialized so far — an allocation probe
    /// for the lazy-engine guarantee (equals
    /// [`process_count`](Self::process_count) for eager engines).
    pub fn materialized_count(&self) -> usize {
        self.table.materialized()
    }

    fn advance(&mut self, pid: ProcessId, slot: usize, schedule: &mut impl Schedule) -> bool {
        let op = self.table.take_pending(slot);
        let kind = op.kind();
        let cost = self.memory.cost(&op);
        let epoch = self.epochs.get(slot).copied().unwrap_or(0);
        let result = self.memory.execute_for(op, epoch);
        if self.epochs.len() <= slot {
            self.epochs.resize(slot + 1, 0);
        }
        self.epochs[slot] = self.memory.ops_executed();
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                slot: self.metrics.total_ops,
                pid,
                kind,
            });
        }
        self.metrics.record(pid.index(), kind, cost);

        let finished = self.table.resume(slot, result);
        if finished {
            schedule.on_done(pid);
        }
        finished
    }

    /// Runs under an **adaptive adversary**: before every step,
    /// `chooser` inspects the live processes — including their internal
    /// state and, crucially, the operation each is about to perform —
    /// plus the full memory contents, and picks who moves next.
    ///
    /// This is precisely the power the oblivious adversary is denied
    /// (§1.1), provided to quantify the gap: the paper's conciliators
    /// lose their agreement guarantees against it (experiment E20),
    /// which is why `Ω(n²)` total work is needed in the adaptive model
    /// (Attiya–Censor).
    ///
    /// The run ends when all processes finish or the slot limit is
    /// reached.
    ///
    /// # Panics
    ///
    /// Panics if `chooser` returns an id that is out of range or
    /// already finished, or if the engine was built with
    /// [`Engine::lazy`] (an adaptive adversary must see every live
    /// process, so all of them have to exist).
    pub fn run_adaptive(
        mut self,
        mut chooser: impl FnMut(AdaptiveView<'_, P>) -> ProcessId,
    ) -> RunReport<P> {
        assert!(
            !self.table.is_lazy(),
            "adaptive runs require an eager engine: the adversary inspects every live process"
        );
        let reason = loop {
            if self.table.live() == 0 {
                break StopReason::AllDone;
            }
            if self.metrics.scheduled_slots() >= self.slot_limit {
                break StopReason::SlotLimit;
            }
            let live = self.table.live_view();
            let pid = chooser(AdaptiveView {
                live: &live,
                memory: &self.memory,
            });
            drop(live);
            let slot = self.table.running_slot(pid);
            let slot = slot.unwrap_or_else(|| panic!("adaptive adversary chose non-live {pid}"));
            let mut noop = NoopSchedule;
            self.advance(pid, slot, &mut noop);
        };
        self.into_report(reason)
    }

    /// Runs to completion under `schedule` and returns the dense,
    /// pid-indexed report. A lazy engine materializes its untouched
    /// processes at report time; use [`run_sparse`](Self::run_sparse)
    /// to keep the report proportional to the touched set.
    ///
    /// # Panics
    ///
    /// Panics if the schedule yields a process id out of range.
    pub fn run(mut self, schedule: impl Schedule) -> RunReport<P> {
        let reason = self.run_inner(schedule);
        self.into_report(reason)
    }

    /// Runs to completion under `schedule` and reports **only the
    /// touched processes**, in touch order. This is the scale path: a
    /// lazy million-process engine driven by a finite schedule returns
    /// a report proportional to the processes the schedule exercised.
    ///
    /// # Panics
    ///
    /// Panics if the schedule yields a process id out of range.
    pub fn run_sparse(mut self, schedule: impl Schedule) -> SparseReport<P> {
        let reason = self.run_inner(schedule);
        let process_count = self.table.n();
        let entries = self
            .table
            .into_entries()
            .into_iter()
            .map(|(pid, process, output)| SparseEntry {
                pid,
                process,
                output,
            })
            .collect();
        SparseReport {
            process_count,
            entries,
            metrics: self.metrics,
            memory: self.memory,
            trace: self.trace,
            stop_reason: reason,
        }
    }

    fn run_inner(&mut self, mut schedule: impl Schedule) -> StopReason {
        let support = schedule.support();
        let support_total = support.len();
        // In the order the pinned digests hold: count finished support
        // members, then tell the schedule about every process that
        // finished without taking any steps (their first `step(None)`
        // returned `Done`). A lazy
        // table has materialized nothing yet, so these loops see only
        // eagerly built processes.
        let mut support_done = support
            .iter()
            .filter(|pid| self.table.is_pid_done(**pid))
            .count();
        let done_at_start: Vec<ProcessId> = self
            .table
            .slots()
            .filter(|&(slot, _)| self.table.is_done(slot))
            .map(|(_, pid)| pid)
            .collect();
        for pid in done_at_start {
            schedule.on_done(pid);
        }

        let mut in_support = crate::event::BitSet::new(self.table.n());
        for pid in &support {
            in_support.set(pid.index());
        }

        let mut queue = SlotQueue::new(schedule.completion_oblivious());
        loop {
            if self.table.all_done() || (support_total > 0 && support_done == support_total) {
                break StopReason::AllDone;
            }
            if self.metrics.scheduled_slots() >= self.slot_limit {
                break StopReason::SlotLimit;
            }
            let Some(pid) = queue.pop(&mut schedule) else {
                break StopReason::ScheduleExhausted;
            };
            let Touched {
                slot,
                instantly_done,
            } = self.table.touch(pid);
            if instantly_done {
                // First touch materialized a process that finished
                // without issuing any operation: the slot is a free
                // skip, and the completion notification that eager
                // construction would have delivered before the run
                // fires now.
                self.metrics.record_skip();
                schedule.on_done(pid);
                if support_total == 0 || in_support.get(pid.index()) {
                    support_done += 1;
                }
                continue;
            }
            if self.table.is_done(slot) {
                self.metrics.record_skip();
                continue;
            }
            let finished = self.advance(pid, slot, &mut schedule);
            if finished && (support_total == 0 || in_support.get(pid.index())) {
                support_done += 1;
            }
        }
    }

    fn into_report(mut self, reason: StopReason) -> RunReport<P> {
        let n = self.table.n();
        // A lazy run materializes its untouched remainder now (in pid
        // order, deterministically) so the report stays dense; their
        // pending first operations were never executed, exactly like a
        // never-scheduled process in an eager run.
        for i in 0..n {
            let _ = self.table.touch(ProcessId(i));
        }
        // Dense reports expose per-process metrics for every pid.
        self.metrics.pad_processes(n);

        let mut outputs: Vec<Option<P::Output>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut processes: Vec<Option<P>> = std::iter::repeat_with(|| None).take(n).collect();
        for (pid, proc, output) in self.table.into_entries() {
            outputs[pid.index()] = output;
            processes[pid.index()] = Some(proc);
        }

        RunReport {
            outputs,
            processes: processes
                .into_iter()
                .map(|p| p.expect("every pid materialized above"))
                .collect(),
            metrics: self.metrics,
            memory: self.memory,
            trace: self.trace,
            stop_reason: reason,
        }
    }
}

/// What an adaptive adversary sees before choosing the next step: every
/// live process (with its internal state and pending operation) and the
/// shared memory.
pub struct AdaptiveView<'a, P: Process> {
    /// Live processes: id, state machine, and the operation each will
    /// execute when scheduled.
    pub live: &'a [(ProcessId, &'a P, &'a Op<P::Value>)],
    /// Read access to the shared memory contents.
    pub memory: &'a Memory<P::Value>,
}

/// Internal placeholder schedule for adaptive runs (completion
/// notifications are dropped).
struct NoopSchedule;

impl Schedule for NoopSchedule {
    fn next_pid(&mut self) -> Option<ProcessId> {
        unreachable!("adaptive runs do not pull from a schedule")
    }
}

/// Everything known after a run.
#[derive(Debug)]
pub struct RunReport<P: Process> {
    /// Per-process output; `None` if the process never finished (crashed
    /// or starved by a finite schedule).
    pub outputs: Vec<Option<P::Output>>,
    /// The (final-state) process state machines, for post-hoc probes.
    pub processes: Vec<P>,
    /// Step accounting.
    pub metrics: Metrics,
    /// Final memory state, for assertions on shared objects.
    pub memory: Memory<P::Value>,
    /// The execution trace, if recording was enabled.
    pub trace: Option<Trace>,
    /// Why the run ended.
    pub stop_reason: StopReason,
}

impl<P: Process> RunReport<P> {
    /// Returns `true` if every process produced an output.
    pub fn all_decided(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }

    /// Iterates over the outputs of processes that finished.
    pub fn decided(&self) -> impl Iterator<Item = &P::Output> {
        self.outputs.iter().filter_map(Option::as_ref)
    }

    /// Unwraps all outputs.
    ///
    /// # Panics
    ///
    /// Panics if any process did not finish.
    pub fn unwrap_outputs(self) -> Vec<P::Output> {
        self.outputs
            .into_iter()
            .map(|o| o.expect("process did not finish"))
            .collect()
    }
}

impl<P: Process> RunReport<P>
where
    P::Output: PartialEq,
{
    /// Returns `true` if all *decided* outputs are equal (vacuously true
    /// when fewer than two processes decided).
    pub fn outputs_agree(&self) -> bool {
        let mut decided = self.decided();
        match decided.next() {
            None => true,
            Some(first) => decided.all(|o| o == first),
        }
    }
}

/// One touched process in a [`SparseReport`].
#[derive(Debug)]
pub struct SparseEntry<P: Process> {
    /// The process id.
    pub pid: ProcessId,
    /// The (final-state) state machine.
    pub process: P,
    /// Its output, if it finished.
    pub output: Option<P::Output>,
}

/// The report of [`Engine::run_sparse`]: everything known after a run,
/// sized by the *touched* process set rather than the declared one.
pub struct SparseReport<P: Process> {
    /// Declared process count (touched or not).
    pub process_count: usize,
    /// Touched processes in touch order.
    pub entries: Vec<SparseEntry<P>>,
    /// Step accounting (per-process vectors cover pids up to the
    /// highest touched).
    pub metrics: Metrics,
    /// Final memory state.
    pub memory: Memory<P::Value>,
    /// The execution trace, if recording was enabled.
    pub trace: Option<Trace>,
    /// Why the run ended.
    pub stop_reason: StopReason,
}

impl<P: Process> SparseReport<P> {
    /// Number of processes the schedule touched.
    pub fn touched_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(pid, output)` of touched processes that
    /// finished.
    pub fn decided(&self) -> impl Iterator<Item = (ProcessId, &P::Output)> {
        self.entries
            .iter()
            .filter_map(|e| e.output.as_ref().map(|o| (e.pid, o)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RegisterId;
    use crate::layout::LayoutBuilder;
    use crate::op::OpResult;
    use crate::process::Step;
    use crate::schedule::{FixedSchedule, RoundRobin};

    /// Writes `input` to the register, reads it back, returns what it saw.
    struct WriteRead {
        reg: RegisterId,
        input: u32,
        phase: u8,
    }

    impl WriteRead {
        fn new(reg: RegisterId, input: u32) -> Self {
            Self {
                reg,
                input,
                phase: 0,
            }
        }
    }

    impl Process for WriteRead {
        type Value = u32;
        type Output = u32;

        fn step(&mut self, prev: Option<OpResult<u32>>) -> Step<u32, u32> {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Step::Issue(Op::RegisterWrite(self.reg, self.input))
                }
                1 => {
                    self.phase = 2;
                    Step::Issue(Op::RegisterRead(self.reg))
                }
                _ => Step::Done(prev.unwrap().expect_register().unwrap()),
            }
        }
    }

    fn one_register() -> (crate::layout::Layout, RegisterId) {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        (b.build(), r)
    }

    #[test]
    fn round_robin_interleaves_atomically() {
        let (layout, r) = one_register();
        let procs = vec![WriteRead::new(r, 1), WriteRead::new(r, 2)];
        let report = Engine::new(&layout, procs).run(RoundRobin::new(2));
        // Slots: p0 writes 1, p1 writes 2, p0 reads (sees 2), p1 reads (2).
        assert_eq!(report.outputs, vec![Some(2), Some(2)]);
        assert_eq!(report.metrics.total_steps, 4);
        assert_eq!(report.stop_reason, StopReason::AllDone);
        assert!(report.all_decided());
        assert!(report.outputs_agree());
    }

    #[test]
    fn fixed_schedule_controls_interleaving() {
        let (layout, r) = one_register();
        let procs = vec![WriteRead::new(r, 1), WriteRead::new(r, 2)];
        // p0 runs solo first: sees its own write.
        let report = Engine::new(&layout, procs).run(FixedSchedule::from_indices([0, 0, 1, 1]));
        assert_eq!(report.outputs, vec![Some(1), Some(2)]);
        assert!(!report.outputs_agree());
    }

    #[test]
    fn finite_schedule_leaves_pending() {
        let (layout, r) = one_register();
        let procs = vec![WriteRead::new(r, 1), WriteRead::new(r, 2)];
        let report = Engine::new(&layout, procs).run(FixedSchedule::from_indices([0]));
        assert_eq!(report.stop_reason, StopReason::ScheduleExhausted);
        assert_eq!(report.outputs, vec![None, None]);
        assert!(!report.all_decided());
        assert!(report.outputs_agree(), "vacuous agreement with no outputs");
    }

    #[test]
    fn slot_limit_stops_run() {
        let (layout, r) = one_register();
        let procs = vec![WriteRead::new(r, 1), WriteRead::new(r, 2)];
        let mut engine = Engine::new(&layout, procs);
        engine.limit_slots(3);
        let report = engine.run(RoundRobin::new(2));
        assert_eq!(report.stop_reason, StopReason::SlotLimit);
        assert_eq!(report.metrics.total_ops, 3);
    }

    #[test]
    fn skips_finished_processes_for_free() {
        let (layout, r) = one_register();
        let procs = vec![WriteRead::new(r, 1), WriteRead::new(r, 2)];
        // p0 finishes after two ops; its two extra slots are skipped and
        // not charged while p1 is still running.
        let report =
            Engine::new(&layout, procs).run(FixedSchedule::from_indices([0, 0, 0, 0, 1, 1]));
        assert_eq!(report.metrics.total_ops, 4);
        assert_eq!(report.metrics.skipped_slots, 2);
        assert_eq!(report.outputs, vec![Some(1), Some(2)]);
        assert_eq!(report.stop_reason, StopReason::AllDone);
    }

    #[test]
    fn immediately_done_process_costs_nothing() {
        struct Instant;
        impl Process for Instant {
            type Value = u32;
            type Output = u8;
            fn step(&mut self, _prev: Option<OpResult<u32>>) -> Step<u32, u8> {
                Step::Done(7)
            }
        }
        let (layout, _r) = one_register();
        let report = Engine::new(&layout, vec![Instant]).run(RoundRobin::new(1));
        assert_eq!(report.outputs, vec![Some(7)]);
        assert_eq!(report.metrics.total_steps, 0);
        assert_eq!(report.stop_reason, StopReason::AllDone);
    }

    #[test]
    fn trace_records_charged_ops() {
        let (layout, r) = one_register();
        let procs = vec![WriteRead::new(r, 1), WriteRead::new(r, 2)];
        let mut engine = Engine::new(&layout, procs);
        engine.enable_trace();
        let report = engine.run(RoundRobin::new(2));
        let trace = report.trace.expect("trace enabled");
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.by_process(ProcessId(0)).count(), 2);
    }

    #[test]
    fn unwrap_outputs_returns_all() {
        let (layout, r) = one_register();
        let report = Engine::new(&layout, vec![WriteRead::new(r, 9)]).run(RoundRobin::new(1));
        assert_eq!(report.unwrap_outputs(), vec![9]);
    }

    #[test]
    fn adaptive_run_with_lowest_id_chooser_matches_blocks() {
        let (layout, r) = one_register();
        let procs = vec![WriteRead::new(r, 1), WriteRead::new(r, 2)];
        let report = Engine::new(&layout, procs)
            .run_adaptive(|view| view.live.iter().map(|(pid, _, _)| *pid).min().unwrap());
        // Lowest-live-id scheduling is exactly block-sequential order.
        assert_eq!(report.outputs, vec![Some(1), Some(2)]);
        assert_eq!(report.metrics.total_steps, 4);
        assert_eq!(report.stop_reason, StopReason::AllDone);
    }

    #[test]
    fn adaptive_chooser_sees_pending_ops_and_memory() {
        let (layout, r) = one_register();
        let procs = vec![WriteRead::new(r, 7), WriteRead::new(r, 8)];
        let mut saw_write = false;
        let mut saw_read = false;
        let mut ops_seen = 0;
        let report = Engine::new(&layout, procs).run_adaptive(|view| {
            for (_, _, op) in view.live {
                match op {
                    Op::RegisterWrite(_, _) => saw_write = true,
                    Op::RegisterRead(_) => saw_read = true,
                    _ => {}
                }
            }
            ops_seen = view.memory.ops_executed();
            view.live.iter().map(|(pid, _, _)| *pid).max().unwrap()
        });
        assert!(
            saw_write && saw_read,
            "adversary observes pending operations"
        );
        // The last choice is made with three of the four ops executed.
        assert_eq!(ops_seen, 3, "adversary observes memory");
        assert!(report.all_decided());
    }

    #[test]
    fn adaptive_run_respects_slot_limit() {
        let (layout, r) = one_register();
        let procs = vec![WriteRead::new(r, 1), WriteRead::new(r, 2)];
        let mut engine = Engine::new(&layout, procs);
        engine.limit_slots(3);
        let report = engine.run_adaptive(|view| view.live[0].0);
        assert_eq!(report.stop_reason, StopReason::SlotLimit);
        assert_eq!(report.metrics.total_ops, 3);
    }

    #[test]
    #[should_panic(expected = "non-live")]
    fn adaptive_chooser_cannot_pick_finished_process() {
        let (layout, r) = one_register();
        let procs = vec![WriteRead::new(r, 1), WriteRead::new(r, 2)];
        let _ = Engine::new(&layout, procs).run_adaptive(|_| ProcessId(0));
        // p0 finishes after two of its own steps; choosing it again panics.
    }

    #[test]
    #[should_panic(expected = "did not finish")]
    fn unwrap_outputs_panics_on_pending() {
        let (layout, r) = one_register();
        let report =
            Engine::new(&layout, vec![WriteRead::new(r, 9)]).run(FixedSchedule::from_indices([0]));
        let _ = report.unwrap_outputs();
    }

    #[test]
    fn lazy_engine_materializes_only_touched_processes() {
        let (layout, r) = one_register();
        let engine = Engine::lazy(&layout, 1_000_000, move |pid| {
            WriteRead::new(r, pid.index() as u32)
        });
        assert_eq!(engine.process_count(), 1_000_000);
        assert_eq!(engine.materialized_count(), 0);
        // Touch only processes 5 and 17.
        let report = engine.run_sparse(FixedSchedule::from_indices([5, 5, 5, 17, 17, 17]));
        assert_eq!(report.touched_count(), 2);
        assert_eq!(report.process_count, 1_000_000);
        assert_eq!(report.stop_reason, StopReason::ScheduleExhausted);
        let decided: Vec<(ProcessId, u32)> = report.decided().map(|(pid, &o)| (pid, o)).collect();
        assert_eq!(decided, vec![(ProcessId(5), 5), (ProcessId(17), 17)]);
    }

    #[test]
    fn lazy_dense_run_matches_eager_on_full_schedules() {
        let (layout, r) = one_register();
        let eager = Engine::new(&layout, (0..4).map(|i| WriteRead::new(r, i)).collect())
            .run(RoundRobin::new(4));
        let lazy = Engine::lazy(&layout, 4, move |pid| WriteRead::new(r, pid.index() as u32))
            .run(RoundRobin::new(4));
        assert_eq!(eager.outputs, lazy.outputs);
        assert_eq!(eager.metrics, lazy.metrics);
        assert_eq!(eager.stop_reason, lazy.stop_reason);
    }

    #[test]
    fn lazy_dense_report_covers_untouched_processes() {
        let (layout, r) = one_register();
        let report = Engine::lazy(&layout, 6, move |pid| WriteRead::new(r, pid.index() as u32))
            .run(FixedSchedule::from_indices([1, 1, 1]));
        assert_eq!(report.outputs.len(), 6);
        assert_eq!(report.processes.len(), 6);
        assert_eq!(report.outputs[1], Some(1));
        assert!(report
            .outputs
            .iter()
            .enumerate()
            .all(|(i, o)| i == 1 || o.is_none()));
        assert_eq!(report.metrics.per_process_ops.len(), 6);
    }

    #[test]
    fn lazy_instantly_done_process_charges_a_skip_on_first_touch() {
        struct Instant;
        impl Process for Instant {
            type Value = u32;
            type Output = u8;
            fn step(&mut self, _prev: Option<OpResult<u32>>) -> Step<u32, u8> {
                Step::Done(9)
            }
        }
        let (layout, _r) = one_register();
        let report =
            Engine::lazy(&layout, 8, |_| Instant).run_sparse(FixedSchedule::from_indices([3, 3]));
        assert_eq!(report.metrics.skipped_slots, 2);
        assert_eq!(report.metrics.total_ops, 0);
        assert_eq!(report.touched_count(), 1);
        assert_eq!(report.entries[0].output, Some(9));
    }

    #[test]
    fn lazy_run_terminates_when_support_completes() {
        let (layout, r) = one_register();
        // RoundRobin over all 4: support is everyone; the lazy engine
        // must still stop with AllDone once the last one finishes.
        let report = Engine::lazy(&layout, 4, move |pid| WriteRead::new(r, pid.index() as u32))
            .run_sparse(RoundRobin::new(4));
        assert_eq!(report.stop_reason, StopReason::AllDone);
        assert_eq!(report.touched_count(), 4);
        assert!(report.decided().count() == 4);
    }

    #[test]
    #[should_panic(expected = "adaptive runs require an eager engine")]
    fn lazy_adaptive_run_is_rejected() {
        let (layout, r) = one_register();
        let _ = Engine::lazy(&layout, 2, move |pid| WriteRead::new(r, pid.index() as u32))
            .run_adaptive(|view| view.live[0].0);
    }

    #[test]
    fn slot_limit_hit_mid_round_is_a_clean_stop() {
        // The hardening negative test: a budget that lands mid-round at
        // a large-ish n must produce SlotLimit — never a panic or a
        // wrapped counter — and the accounting must equal the budget.
        let n = 1_000;
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();
        let mut engine = Engine::lazy(&layout, n, move |pid| WriteRead::new(r, pid.index() as u32));
        let limit = (n as u64 * 3) / 2 + 7; // mid second round, odd offset
        engine.limit_slots(limit);
        let report = engine.run_sparse(RoundRobin::new(n));
        assert_eq!(report.stop_reason, StopReason::SlotLimit);
        assert_eq!(report.metrics.scheduled_slots(), limit);
        let undecided = report.entries.iter().filter(|e| e.output.is_none()).count();
        assert!(undecided > 0, "budget landed mid-round");
    }

    #[test]
    fn saturated_slot_accounting_still_stops() {
        // Even a metrics state at the numeric ceiling stops cleanly.
        let (layout, r) = one_register();
        let mut engine = Engine::new(&layout, vec![WriteRead::new(r, 1)]);
        engine.limit_slots(u64::MAX);
        engine.metrics.total_ops = u64::MAX - 1;
        engine.metrics.skipped_slots = u64::MAX - 1;
        let report = engine.run(RoundRobin::new(1));
        assert_eq!(report.stop_reason, StopReason::SlotLimit);
    }
}
