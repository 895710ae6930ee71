//! Execution traces for debugging and linearizability checks.

use crate::ids::ProcessId;
use crate::op::OpKind;

/// One executed operation in an execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global slot index at which the operation executed (0-based, counts
    /// only charged slots, not skips).
    pub slot: u64,
    /// The process that executed the operation.
    pub pid: ProcessId,
    /// The kind of operation.
    pub kind: OpKind,
}

/// A recorded execution: the sequence of charged operations in order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events executed by one process, in order.
    pub fn by_process(&self, pid: ProcessId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.pid == pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = Trace::new();
        t.push(TraceEvent {
            slot: 0,
            pid: ProcessId(1),
            kind: OpKind::RegisterWrite,
        });
        t.push(TraceEvent {
            slot: 1,
            pid: ProcessId(0),
            kind: OpKind::RegisterRead,
        });
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.events()[0].pid, ProcessId(1));
        assert_eq!(t.by_process(ProcessId(0)).count(), 1);
    }
}
