//! History-recording instrumentation for the threaded substrate.
//!
//! [`RecordingMemory`] wraps a memory — any [`ExecuteOps`] — and logs
//! every operation as a [`HistoryEntry`]: a global atomic ticket clock is
//! drawn immediately before and immediately after each `execute`, so
//! the recorded `[invoked, responded]` interval always contains the
//! operation's linearization point. Recorded real-time precedence
//! (`A.responded < B.invoked`) therefore under-approximates true
//! precedence, which makes feeding the resulting
//! [`History`] to
//! [`check_linearizable`](sift_sim::mc::check_linearizable) sound: a
//! history the checker rejects is genuinely non-linearizable.
//!
//! This is the tooling for the Golab–Higham–Woelfel caveat (§2 of the
//! paper): the threaded runtime is only a faithful stand-in for the
//! atomic model if its objects are linearizable, and with this module we
//! can at least falsify that claim on real captured histories.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sift_sim::fuzz::FingerprintHasher;
use sift_sim::mc::{History, HistoryEntry, ObjectKey};
use sift_sim::{Op, OpResult, ProcessId, Value};

use crate::memory::ExecuteOps;

/// Digests a history's register-write interleaving signature: the
/// sequence of `(process, operation kind, object)` triples in recording
/// order, with value payloads erased. Feeds the fuzzer's coverage
/// fingerprint, letting substrate-level histories distinguish schedules
/// whose final outputs coincide but whose interleavings differ.
pub(crate) fn history_fingerprint<V: Value>(history: &History<V>) -> u64 {
    let mut h = FingerprintHasher::new();
    for entry in history.entries() {
        h.write_usize(entry.pid.index());
        h.write_u64(sift_sim::metrics::op_kind_index(entry.op.kind()) as u64);
        let (tag, index) = match entry.object() {
            ObjectKey::Register(r) => (0u64, r.index()),
            ObjectKey::Snapshot(s) => (1, s.index()),
            ObjectKey::MaxRegister(m) => (2, m.index()),
        };
        h.write_u64(tag);
        h.write_usize(index);
    }
    h.finish()
}

/// An [`ExecuteOps`] memory wrapped so that every operation is recorded
/// with invocation/response timestamps.
///
/// The memory is the caller's: wrap an
/// [`AtomicMemory`](crate::memory::AtomicMemory) or the model under a
/// lock via [`over`](RecordingMemory::over) for differential testing,
/// or a deliberately broken memory to check that the linearizability
/// checker rejects its histories.
#[derive(Debug)]
pub struct RecordingMemory<V, M> {
    memory: M,
    clock: AtomicU64,
    log: Mutex<Vec<HistoryEntry<V>>>,
}

impl<V: Value, M: ExecuteOps<V>> RecordingMemory<V, M> {
    /// Wraps an existing memory in the recorder.
    pub fn over(memory: M) -> Self {
        Self {
            memory,
            clock: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Executes `op` on behalf of `pid`, recording the operation, its
    /// result, and its invocation/response interval.
    pub fn execute_as(&self, pid: ProcessId, op: Op<V>) -> OpResult<V> {
        let invoked = self.clock.fetch_add(1, Ordering::SeqCst);
        let result = self.memory.execute(op.clone());
        let responded = self.clock.fetch_add(1, Ordering::SeqCst);
        self.log
            .lock()
            .expect("history log poisoned by a panicking recorder")
            .push(HistoryEntry {
                pid,
                op,
                result: result.clone(),
                invoked,
                responded,
            });
        result
    }

    /// The `history_fingerprint` of everything recorded so far,
    /// without consuming the recorder.
    pub fn fingerprint(&self) -> u64 {
        history_fingerprint(&History::from_entries(
            self.log
                .lock()
                .expect("history log poisoned by a panicking recorder")
                .clone(),
        ))
    }

    /// Consumes the recorder and returns the captured history.
    pub fn into_history(self) -> History<V> {
        History::from_entries(
            self.log
                .into_inner()
                .expect("history log poisoned by a panicking recorder"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AtomicMemory;
    use sift_sim::mc::check_linearizable;
    use sift_sim::{Layout, LayoutBuilder, Memory};

    /// Runs a test body once per memory: `$recorder` builds a fresh
    /// [`RecordingMemory`] over an [`AtomicMemory`] (one lock per
    /// object) on the first pass and over the whole model under one
    /// lock on the second.
    macro_rules! on_both_memories {
        (|$recorder:ident| $body:block) => {{
            let $recorder =
                |layout: &Layout| RecordingMemory::over(AtomicMemory::<u64>::new(layout));
            $body
            let $recorder = |layout: &Layout| {
                RecordingMemory::over(Mutex::new(Memory::<u64>::new(layout)))
            };
            $body
        }};
    }

    #[test]
    fn records_intervals_and_results() {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();
        on_both_memories!(|recorder| {
            let mem = recorder(&layout);
            mem.execute_as(ProcessId(0), Op::RegisterWrite(r, 7))
                .expect_ack();
            assert_eq!(
                mem.execute_as(ProcessId(1), Op::RegisterRead(r))
                    .expect_register(),
                Some(7)
            );
            let history = mem.into_history();
            history.check_well_formed().unwrap();
            assert_eq!(history.len(), 2);
            let e = &history.entries()[0];
            assert_eq!(e.pid, ProcessId(0));
            assert!(e.invoked < e.responded);
            assert!(e.responded < history.entries()[1].invoked);
            check_linearizable(&layout, &history).unwrap();
        });
    }

    #[test]
    fn fingerprint_reflects_interleaving_not_payloads() {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();

        on_both_memories!(|recorder| {
            let write_then_read = |w: u64| {
                let mem = recorder(&layout);
                mem.execute_as(ProcessId(0), Op::RegisterWrite(r, w));
                mem.execute_as(ProcessId(1), Op::RegisterRead(r));
                mem.fingerprint()
            };
            // Same interleaving, different payloads: same fingerprint.
            assert_eq!(write_then_read(7), write_then_read(9));

            // Reordered interleaving: different fingerprint.
            let mem = recorder(&layout);
            mem.execute_as(ProcessId(1), Op::RegisterRead(r));
            mem.execute_as(ProcessId(0), Op::RegisterWrite(r, 7));
            assert_ne!(mem.fingerprint(), write_then_read(7));
        });
    }

    #[test]
    fn fingerprint_matches_the_free_function_on_the_history() {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();
        on_both_memories!(|recorder| {
            let mem = recorder(&layout);
            mem.execute_as(ProcessId(0), Op::RegisterWrite(r, 3));
            let live = mem.fingerprint();
            assert_eq!(live, history_fingerprint(&mem.into_history()));
        });
    }

    #[test]
    fn fingerprint_distinguishes_objects() {
        let mut b = LayoutBuilder::new();
        let r0 = b.register();
        let r1 = b.register();
        let layout = b.build();
        on_both_memories!(|recorder| {
            let on = |reg| {
                let mem = recorder(&layout);
                mem.execute_as(ProcessId(0), Op::RegisterWrite(reg, 1));
                mem.fingerprint()
            };
            assert_ne!(on(r0), on(r1));
        });
    }
}
