//! Concurrent operation histories: invocation/response intervals with
//! recorded results, the input of the linearizability checker.
//!
//! A [`History`] is runtime-agnostic — the simulator produces trivially
//! sequential ones (each operation's interval is a point), while the
//! threaded substrate (`sift-shmem`) records genuinely overlapping
//! intervals by drawing invocation and response timestamps from a
//! global atomic counter around each operation. Operation `A`
//! *really precedes* `B` iff `A.responded < B.invoked`; overlapping
//! intervals are concurrent and the checker may order them either way.

use crate::ids::ProcessId;
use crate::mc::dependence::ObjectKey;
use crate::op::{Op, OpResult};
use crate::value::Value;

/// One completed operation in a concurrent history.
#[derive(Debug, Clone)]
pub struct HistoryEntry<V> {
    /// The invoking process.
    pub pid: ProcessId,
    /// The operation performed.
    pub op: Op<V>,
    /// The result the runtime returned for it.
    pub result: OpResult<V>,
    /// Timestamp drawn immediately before the operation started.
    pub invoked: u64,
    /// Timestamp drawn immediately after the operation returned.
    pub responded: u64,
}

impl<V> HistoryEntry<V> {
    /// The shared object this entry operated on.
    pub fn object(&self) -> ObjectKey {
        self.op.access().object()
    }
}

/// A complete concurrent history (every invocation has its response).
///
/// Pending operations of crashed threads are simply absent: for
/// linearizability of complete histories this is equivalent to checking
/// the completed prefix, which is what all our harnesses need.
#[derive(Debug, Clone, Default)]
pub struct History<V> {
    entries: Vec<HistoryEntry<V>>,
}

impl<V: Value> History<V> {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Builds a history from explicit entries (tests, adapters).
    pub fn from_entries(entries: Vec<HistoryEntry<V>>) -> Self {
        Self { entries }
    }

    /// Appends one completed operation.
    pub fn push(&mut self, entry: HistoryEntry<V>) {
        self.entries.push(entry);
    }

    /// All entries, in recording order.
    pub fn entries(&self) -> &[HistoryEntry<V>] {
        &self.entries
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The distinct objects touched by the history, sorted.
    pub(crate) fn objects(&self) -> Vec<ObjectKey> {
        let mut keys: Vec<ObjectKey> = self.entries.iter().map(HistoryEntry::object).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Validates interval sanity: every response strictly follows its
    /// invocation, and per-process intervals do not overlap (a process
    /// performs one operation at a time).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.invoked >= e.responded {
                return Err(format!(
                    "entry {i} ({} by {}): invocation {} not before response {}",
                    e.op.kind() as usize,
                    e.pid,
                    e.invoked,
                    e.responded
                ));
            }
        }
        for pid in self.entries.iter().map(|e| e.pid) {
            let mut intervals: Vec<(u64, u64)> = self
                .entries
                .iter()
                .filter(|e| e.pid == pid)
                .map(|e| (e.invoked, e.responded))
                .collect();
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                if w[0].1 > w[1].0 {
                    return Err(format!(
                        "process {pid} has overlapping operation intervals {:?} and {:?}",
                        w[0], w[1]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RegisterId;

    fn entry(pid: usize, reg: usize, inv: u64, res: u64) -> HistoryEntry<u64> {
        HistoryEntry {
            pid: ProcessId(pid),
            op: Op::RegisterRead(RegisterId(reg)),
            result: OpResult::RegisterValue(None),
            invoked: inv,
            responded: res,
        }
    }

    #[test]
    fn collects_objects() {
        let h = History::from_entries(vec![entry(0, 1, 0, 1), entry(1, 0, 2, 3)]);
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
        assert_eq!(
            h.objects(),
            vec![
                ObjectKey::Register(RegisterId(0)),
                ObjectKey::Register(RegisterId(1)),
            ]
        );
        h.check_well_formed().unwrap();
    }

    #[test]
    fn rejects_inverted_interval() {
        let h = History::from_entries(vec![entry(0, 0, 5, 5)]);
        assert!(h.check_well_formed().is_err());
    }

    #[test]
    fn rejects_overlapping_same_process_intervals() {
        let h = History::from_entries(vec![entry(0, 0, 0, 4), entry(0, 0, 2, 6)]);
        assert!(h.check_well_formed().unwrap_err().contains("overlapping"));
    }
}
