//! Building blocks of the discrete-event engine: packed bitsets, the
//! bucketed slot queue (a single-lane calendar queue over schedule
//! positions), and the arena-backed process table with lazy
//! materialization.
//!
//! Instead of a `Vec<Slot<P>>` indexed by process id, with one virtual
//! `next_pid` call plus one enum-tag match per scheduled slot, the
//! [`Engine`](crate::engine::Engine) is built from:
//!
//! * [`BitSet`] — one bit per tracked flag (done processes, schedule
//!   support), 64 processes per word.
//! * [`SlotQueue`] — schedule slots prefetched in flat buckets keyed by
//!   schedule position, so a boxed schedule costs one virtual call per
//!   *bucket* instead of per slot. Bucketing is only enabled when the
//!   schedule declares itself
//!   [`completion_oblivious`](crate::schedule::Schedule::completion_oblivious);
//!   completion-sensitive schedules (e.g.
//!   [`BlockSequential`](crate::schedule::BlockSequential)) fall back to
//!   a bucket of one, which is exactly a pull-per-slot loop.
//! * [`ProcessTable`] — process state machines live in an arena in
//!   touch order; a dense `ProcessId → slot` table maps ids to arena
//!   slots and a factory materializes never-before-scheduled processes
//!   on first touch, so untouched processes cost four bytes of index
//!   and nothing else.

use crate::ids::ProcessId;
use crate::op::Op;
use crate::process::{Process, Step};
use crate::schedule::Schedule;

/// A packed bitset over `0..len`, used for SoA bookkeeping (finished
/// processes, schedule support) instead of `Vec<bool>`.
///
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bitset over `0..len`, all bits clear.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of addressable bits.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Grows the addressable range to at least `len` bits (new bits
    /// clear); never shrinks.
    pub(crate) fn grow(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            self.words.resize(len.div_ceil(64), 0);
        }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    #[cfg(test)]
    pub(crate) fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// How many slots to prefetch per bucket from a completion-oblivious
/// schedule. One virtual `fill` call amortizes over this many slots;
/// the per-slot termination and budget checks are unaffected.
pub(crate) const BUCKET_SLOTS: usize = 1024;

/// The engine's event queue: schedule slots, prefetched in flat
/// buckets keyed by schedule position (a single-lane calendar queue —
/// schedule time is one-dimensional, so one rotating bucket suffices).
#[derive(Debug)]
pub(crate) struct SlotQueue {
    /// The current bucket of prefetched slots, drained front to back.
    bucket: Vec<ProcessId>,
    /// Next unread index into `bucket`.
    cursor: usize,
    /// Schedule position of `bucket[0]` (the key of the current
    /// bucket; kept for diagnostics and trace alignment).
    base: u64,
    /// Slots fetched per refill: [`BUCKET_SLOTS`] for
    /// completion-oblivious schedules, 1 otherwise.
    width: usize,
    /// The schedule returned `None`; once the bucket drains the queue
    /// is exhausted for good.
    exhausted: bool,
}

impl SlotQueue {
    pub(crate) fn new(completion_oblivious: bool) -> Self {
        let width = if completion_oblivious {
            BUCKET_SLOTS
        } else {
            1
        };
        Self {
            bucket: Vec::with_capacity(width),
            cursor: 0,
            base: 0,
            width,
            exhausted: false,
        }
    }

    /// Pops the next scheduled process id, refilling the bucket from
    /// `schedule` when drained. `None` means the schedule is exhausted.
    pub(crate) fn pop(&mut self, schedule: &mut impl Schedule) -> Option<ProcessId> {
        if self.cursor == self.bucket.len() {
            if self.exhausted {
                return None;
            }
            self.base += self.bucket.len() as u64;
            self.bucket.clear();
            self.cursor = 0;
            self.exhausted = schedule.fill(&mut self.bucket, self.width);
            if self.bucket.is_empty() {
                return None;
            }
        }
        let pid = self.bucket[self.cursor];
        self.cursor += 1;
        Some(pid)
    }

    /// Schedule position of the next slot to be served (equivalently,
    /// slots served so far) — the calendar key of the queue head.
    #[cfg(test)]
    pub(crate) fn pop_count(&self) -> u64 {
        self.base + self.cursor as u64
    }
}

/// Sentinel in the dense pid → slot table: process not yet
/// materialized.
const UNMATERIALIZED: u32 = u32::MAX;

/// Arena-backed process storage with a dense `ProcessId → slot` table.
///
/// Fields are structure-of-arrays over arena slots: the state machines,
/// their pending operations, their outputs, and a done bitset live in
/// parallel arrays indexed by slot. Slots are assigned in touch order;
/// in eager mode (every process materialized at construction) slot `i`
/// is process `i`, which keeps reports and adaptive-adversary views in
/// pid order.
pub(crate) struct ProcessTable<P: Process> {
    n: usize,
    /// Dense pid → arena slot; `UNMATERIALIZED` for untouched pids.
    pid_to_slot: Vec<u32>,
    /// Arena slot → pid (touch order).
    pids: Vec<ProcessId>,
    /// The state machines, one per materialized slot.
    procs: Vec<P>,
    /// Pending operation per slot (`None` once finished).
    pending: Vec<Option<Op<P::Value>>>,
    /// Output per slot (`Some` once finished).
    outputs: Vec<Option<P::Output>>,
    /// Finished flags, one bit per slot.
    done: BitSet,
    /// Materialized-but-unfinished count.
    live: usize,
    /// Builds process `pid` on first touch (lazy mode); `None` in eager
    /// mode, where construction materializes everything up front.
    factory: Option<Box<dyn FnMut(ProcessId) -> P>>,
}

/// What touching a pid produced.
pub(crate) struct Touched {
    /// The arena slot for the pid.
    pub slot: usize,
    /// The touch materialized the process and its very first
    /// `step(None)` returned `Done` (it finished without taking any
    /// shared-memory operation).
    pub instantly_done: bool,
}

impl<P: Process> ProcessTable<P> {
    /// Eager construction: materializes every process now, in pid
    /// order.
    pub(crate) fn eager(processes: Vec<P>) -> Self {
        let n = processes.len();
        let mut table = Self::with_capacity(n, n, None);
        for (i, proc) in processes.into_iter().enumerate() {
            table.materialize(ProcessId(i), proc);
        }
        table
    }

    /// Lazy construction: processes are built by `factory` on first
    /// touch. Untouched processes cost one `u32` of index space.
    pub(crate) fn lazy(n: usize, factory: Box<dyn FnMut(ProcessId) -> P>) -> Self {
        Self::with_capacity(n, 0, Some(factory))
    }

    fn with_capacity(
        n: usize,
        arena: usize,
        factory: Option<Box<dyn FnMut(ProcessId) -> P>>,
    ) -> Self {
        Self {
            n,
            pid_to_slot: vec![UNMATERIALIZED; n],
            pids: Vec::with_capacity(arena),
            procs: Vec::with_capacity(arena),
            pending: Vec::with_capacity(arena),
            outputs: Vec::with_capacity(arena),
            done: BitSet::new(0),
            live: 0,
            factory,
        }
    }

    fn materialize(&mut self, pid: ProcessId, mut proc: P) -> Touched {
        let slot = self.procs.len();
        let instantly_done = match proc.step(None) {
            Step::Issue(op) => {
                self.pending.push(Some(op));
                self.outputs.push(None);
                self.live += 1;
                false
            }
            Step::Done(output) => {
                self.pending.push(None);
                self.outputs.push(Some(output));
                true
            }
        };
        self.procs.push(proc);
        self.pids.push(pid);
        self.done.grow(slot + 1);
        if instantly_done {
            self.done.set(slot);
        }
        self.pid_to_slot[pid.index()] = slot as u32;
        Touched {
            slot,
            instantly_done,
        }
    }

    /// Resolves `pid` to its arena slot, materializing it on first
    /// touch in lazy mode.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub(crate) fn touch(&mut self, pid: ProcessId) -> Touched {
        assert!(pid.index() < self.n, "schedule produced out-of-range {pid}");
        let slot = self.pid_to_slot[pid.index()];
        if slot != UNMATERIALIZED {
            return Touched {
                slot: slot as usize,
                instantly_done: false,
            };
        }
        let factory = self
            .factory
            .as_mut()
            .expect("eager table materializes every pid at construction");
        let proc = factory(pid);
        self.materialize(pid, proc)
    }

    /// Number of processes (materialized or not).
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Number of materialized processes.
    pub(crate) fn materialized(&self) -> usize {
        self.procs.len()
    }

    /// Materialized-but-unfinished count.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// `true` once every process is materialized and finished.
    pub(crate) fn all_done(&self) -> bool {
        self.live == 0 && self.procs.len() == self.n
    }

    /// `true` if the table was built lazily (with a factory).
    pub(crate) fn is_lazy(&self) -> bool {
        self.factory.is_some()
    }

    /// Whether `pid` is materialized and finished (untouched processes
    /// are by definition unfinished).
    pub(crate) fn is_pid_done(&self, pid: ProcessId) -> bool {
        match self.pid_to_slot.get(pid.index()) {
            Some(&slot) if slot != UNMATERIALIZED => self.done.get(slot as usize),
            _ => false,
        }
    }

    /// The arena slot of `pid` if it is materialized and still running.
    pub(crate) fn running_slot(&self, pid: ProcessId) -> Option<usize> {
        match self.pid_to_slot.get(pid.index()) {
            Some(&slot) if slot != UNMATERIALIZED && !self.done.get(slot as usize) => {
                Some(slot as usize)
            }
            _ => None,
        }
    }

    /// Whether the process in `slot` has finished.
    pub(crate) fn is_done(&self, slot: usize) -> bool {
        self.done.get(slot)
    }

    /// Takes the pending operation of the running process in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is finished (finished slots are skipped, not
    /// advanced).
    pub(crate) fn take_pending(&mut self, slot: usize) -> Op<P::Value> {
        self.pending[slot]
            .take()
            .expect("running process always has a pending op")
    }

    /// Resumes the process in `slot` with `result`; returns `true` if
    /// it finished.
    pub(crate) fn resume(&mut self, slot: usize, result: crate::op::OpResult<P::Value>) -> bool {
        match self.procs[slot].step(Some(result)) {
            Step::Issue(op) => {
                self.pending[slot] = Some(op);
                false
            }
            Step::Done(output) => {
                self.outputs[slot] = Some(output);
                self.done.set(slot);
                self.live -= 1;
                true
            }
        }
    }

    /// Iterates materialized slots as `(slot, pid)` in arena order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (usize, ProcessId)> + '_ {
        self.pids.iter().enumerate().map(|(s, &pid)| (s, pid))
    }

    /// The live processes with their pending operations, in arena
    /// order, for the adaptive adversary's view.
    pub(crate) fn live_view(&self) -> Vec<(ProcessId, &P, &Op<P::Value>)> {
        self.slots()
            .filter(|&(slot, _)| !self.done.get(slot))
            .map(|(slot, pid)| {
                (
                    pid,
                    &self.procs[slot],
                    self.pending[slot]
                        .as_ref()
                        .expect("running process has a pending op"),
                )
            })
            .collect()
    }

    /// Tears the table down into `(pid, process, output)` triples in
    /// arena (touch) order.
    pub(crate) fn into_entries(self) -> Vec<(ProcessId, P, Option<P::Output>)> {
        self.pids
            .into_iter()
            .zip(self.procs)
            .zip(self.outputs)
            .map(|((pid, proc), output)| (pid, proc, output))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpResult;
    use crate::schedule::RoundRobin;

    #[test]
    fn bitset_set_get_count() {
        let mut b = BitSet::new(100);
        assert_eq!(b.len(), 100);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(99);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(99));
        assert!(!b.get(1) && !b.get(65));
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn bitset_grows_with_clear_bits() {
        let mut b = BitSet::new(1);
        b.set(0);
        b.grow(200);
        assert_eq!(b.len(), 200);
        assert!(b.get(0));
        assert!(!b.get(199));
        b.set(199);
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitset_get_out_of_range_panics() {
        BitSet::new(8).get(8);
    }

    #[test]
    fn slot_queue_matches_unbatched_pulls() {
        let mut batched = SlotQueue::new(true);
        let mut unbatched = SlotQueue::new(false);
        let mut a = RoundRobin::new(7);
        let mut b = RoundRobin::new(7);
        for served in 0..3000u64 {
            assert_eq!(batched.pop(&mut a), unbatched.pop(&mut b));
            assert_eq!(batched.pop_count(), served + 1);
        }
    }

    #[test]
    fn slot_queue_drains_finite_schedules() {
        use crate::schedule::FixedSchedule;
        let mut q = SlotQueue::new(true);
        let mut s = FixedSchedule::from_indices([0usize, 1, 0]);
        let drained: Vec<_> = std::iter::from_fn(|| q.pop(&mut s)).collect();
        assert_eq!(drained, vec![ProcessId(0), ProcessId(1), ProcessId(0)]);
        assert_eq!(q.pop(&mut s), None);
    }

    struct Nop(u8);
    impl Process for Nop {
        type Value = u32;
        type Output = u8;
        fn step(&mut self, _prev: Option<OpResult<u32>>) -> Step<u32, u8> {
            Step::Done(self.0)
        }
    }

    #[test]
    fn lazy_table_materializes_on_touch_only() {
        let mut t: ProcessTable<Nop> =
            ProcessTable::lazy(1_000, Box::new(|pid| Nop(pid.index() as u8)));
        assert_eq!(t.materialized(), 0);
        assert!(t.is_lazy());
        let touched = t.touch(ProcessId(17));
        assert!(touched.instantly_done);
        assert_eq!(t.materialized(), 1);
        // Second touch of the same pid is not a materialization.
        let again = t.touch(ProcessId(17));
        assert_eq!(again.slot, touched.slot);
        assert!(!again.instantly_done);
        assert_eq!(t.materialized(), 1);
        assert!(!t.all_done(), "999 processes never materialized");
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn touch_out_of_range_panics() {
        let mut t: ProcessTable<Nop> = ProcessTable::lazy(4, Box::new(|_| Nop(0)));
        t.touch(ProcessId(4));
    }
}
