//! The dependence relation on shared-memory operations, and canonical
//! Mazurkiewicz-trace signatures built from it.
//!
//! Two operations of *different* processes are **independent** when they
//! commute: executed in either order from any state they leave the same
//! memory state and return the same results. Independent adjacent
//! operations can be swapped without changing anything any process can
//! observe, so two executions that differ only by such swaps are
//! *trace-equivalent* (they belong to the same Mazurkiewicz trace) and a
//! safety property holds on one iff it holds on the other. The DPOR
//! explorer ([`explore_dpor`](crate::mc::explore_dpor)) exploits this to
//! visit exactly one interleaving per trace.
//!
//! The relation is computed on an [`Access`] — the footprint of an
//! [`Op`] with its value payload erased but its *addressing* payload
//! (register id, snapshot component, max-register key) retained, which
//! is what makes the reduction *dynamic*: two `SnapshotUpdate`s to
//! different components commute even though their
//! [`OpKind`](crate::op::OpKind)s collide.
//!
//! | pair (same object)                  | dependent?              |
//! |-------------------------------------|-------------------------|
//! | register read / read                | no                      |
//! | register read / write, write / write| yes                     |
//! | snapshot scan / scan                | no                      |
//! | snapshot update(c) / update(c′)     | iff `c == c′`           |
//! | snapshot update / scan              | yes                     |
//! | max read / read                     | no                      |
//! | max write(k) / write(k′)            | iff `k == k′`           |
//! | max write / read                    | yes                     |
//!
//! Operations on different objects are always independent; operations of
//! the same process are always dependent (program order). Max-register
//! writes with distinct keys commute because `max` is commutative and
//! both return `Ack`; equal keys conflict because the first writer's
//! value is retained (ties do not overwrite).

use crate::ids::{MaxRegisterId, ProcessId, RegisterId, SnapshotId};
use crate::op::Op;

/// The shared object an operation addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjectKey {
    /// A multi-writer multi-reader register.
    Register(RegisterId),
    /// A snapshot object.
    Snapshot(SnapshotId),
    /// A max register.
    MaxRegister(MaxRegisterId),
}

/// The memory footprint of an [`Op`]: the object it addresses and how,
/// with value payloads erased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Read of a register.
    RegisterRead(RegisterId),
    /// Write of a register.
    RegisterWrite(RegisterId),
    /// Scan of a snapshot object.
    SnapshotScan(SnapshotId),
    /// Update of one snapshot component.
    SnapshotUpdate(SnapshotId, usize),
    /// Read of a max register.
    MaxRead(MaxRegisterId),
    /// Write to a max register with the given key.
    MaxWrite(MaxRegisterId, u64),
}

impl Access {
    /// The object this access addresses.
    pub(crate) fn object(self) -> ObjectKey {
        match self {
            Access::RegisterRead(id) | Access::RegisterWrite(id) => ObjectKey::Register(id),
            Access::SnapshotScan(id) | Access::SnapshotUpdate(id, _) => ObjectKey::Snapshot(id),
            Access::MaxRead(id) | Access::MaxWrite(id, _) => ObjectKey::MaxRegister(id),
        }
    }

    /// The dependence relation: `true` iff the two accesses (assumed to
    /// be by *different* processes) may fail to commute.
    ///
    /// See the module docs for the full table. The relation is
    /// symmetric and an over-approximation is always sound for the
    /// explorer (it only costs reduction), so value-equality refinements
    /// (two writes of the same value commute) are deliberately not
    /// attempted — `Access` carries no values.
    pub(crate) fn dependent(self, other: Access) -> bool {
        use Access::*;
        if self.object() != other.object() {
            return false;
        }
        match (self, other) {
            (RegisterRead(_), RegisterRead(_)) => false,
            (RegisterRead(_), RegisterWrite(_))
            | (RegisterWrite(_), RegisterRead(_))
            | (RegisterWrite(_), RegisterWrite(_)) => true,
            (SnapshotScan(_), SnapshotScan(_)) => false,
            (SnapshotUpdate(_, c1), SnapshotUpdate(_, c2)) => c1 == c2,
            (SnapshotScan(_), SnapshotUpdate(_, _)) | (SnapshotUpdate(_, _), SnapshotScan(_)) => {
                true
            }
            (MaxRead(_), MaxRead(_)) => false,
            (MaxWrite(_, k1), MaxWrite(_, k2)) => k1 == k2,
            (MaxRead(_), MaxWrite(_, _)) | (MaxWrite(_, _), MaxRead(_)) => true,
            // Different object kinds share no object; unreachable after
            // the object() guard, but spelled out for exhaustiveness.
            _ => false,
        }
    }
}

impl<V> Op<V> {
    /// Classifies this operation's memory footprint for the dependence
    /// relation (see [`Access`]).
    pub(crate) fn access(&self) -> Access {
        match self {
            Op::RegisterRead(id) => Access::RegisterRead(*id),
            Op::RegisterWrite(id, _) => Access::RegisterWrite(*id),
            Op::SnapshotScan(id) => Access::SnapshotScan(*id),
            Op::SnapshotUpdate(id, component, _) => Access::SnapshotUpdate(*id, *component),
            Op::MaxRead(id) => Access::MaxRead(*id),
            Op::MaxWrite(id, key, _) => Access::MaxWrite(*id, *key),
        }
    }
}

/// One scheduled event in a model-checked execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum McEvent {
    /// A process executed its pending operation (with this footprint).
    Step {
        /// The process that took the step.
        pid: ProcessId,
        /// The footprint of the executed operation.
        access: Access,
    },
    /// A process crashed permanently; it takes no further steps.
    Crash {
        /// The crashed process.
        pid: ProcessId,
    },
}

impl McEvent {
    /// The process the event belongs to.
    pub(crate) fn pid(self) -> ProcessId {
        match self {
            McEvent::Step { pid, .. } | McEvent::Crash { pid } => pid,
        }
    }

    /// Event-level independence: program order makes same-process events
    /// dependent; steps of different processes follow [`Access::dependent`];
    /// a crash commutes with any other process's step (it touches no
    /// memory) but conflicts with other crashes (they compete for the
    /// shared crash budget, so one may disable the other).
    pub(crate) fn independent(self, other: McEvent) -> bool {
        if self.pid() == other.pid() {
            return false;
        }
        match (self, other) {
            (McEvent::Step { access: a, .. }, McEvent::Step { access: b, .. }) => !a.dependent(b),
            (McEvent::Crash { .. }, McEvent::Step { .. })
            | (McEvent::Step { .. }, McEvent::Crash { .. }) => true,
            (McEvent::Crash { .. }, McEvent::Crash { .. }) => false,
        }
    }
}

/// Canonical signature of the Mazurkiewicz trace an execution belongs
/// to: the process-id sequence of the trace's lexicographically least
/// linearization.
///
/// Two executions have equal signatures iff they are trace-equivalent
/// (reachable from each other by swapping adjacent independent events).
/// The signature is computed by a greedy topological sort of the
/// execution's dependence partial order (program order plus
/// `McEvent::independent`), always emitting the ready event of the
/// smallest process id. Used by tests to prove the DPOR explorer covers
/// every trace the naive enumerator covers.
pub fn trace_signature(events: &[McEvent]) -> Vec<usize> {
    let n = events.len();
    // preds[j] = number of i < j with events[i] dependent on events[j]
    // that have not been emitted yet; succs adjacency for decrementing.
    let mut pred_count = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        for i in 0..j {
            if !events[i].independent(events[j]) {
                pred_count[j] += 1;
                succs[i].push(j);
            }
        }
    }
    let mut emitted = vec![false; n];
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Smallest-pid ready event; ties broken by position, which for
        // events of one process is program order.
        let next = (0..n)
            .filter(|&j| !emitted[j] && pred_count[j] == 0)
            .min_by_key(|&j| (events[j].pid().index(), j))
            .expect("dependence order of a valid execution is acyclic");
        emitted[next] = true;
        out.push(events[next].pid().index());
        for &s in &succs[next] {
            pred_count[s] -= 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: usize) -> RegisterId {
        RegisterId(i)
    }

    #[test]
    fn op_access_classification() {
        assert_eq!(
            Op::RegisterWrite(r(1), 9u64).access(),
            Access::RegisterWrite(r(1))
        );
        assert_eq!(
            Op::<u64>::SnapshotScan(SnapshotId(2)).access(),
            Access::SnapshotScan(SnapshotId(2))
        );
        assert_eq!(
            Op::MaxWrite(MaxRegisterId(0), 7, 70u64).access(),
            Access::MaxWrite(MaxRegisterId(0), 7)
        );
    }

    #[test]
    fn different_objects_are_independent() {
        assert!(!Access::RegisterWrite(r(0)).dependent(Access::RegisterWrite(r(1))));
        assert!(!Access::RegisterWrite(r(0)).dependent(Access::SnapshotScan(SnapshotId(0))));
    }

    #[test]
    fn register_dependence() {
        assert!(!Access::RegisterRead(r(0)).dependent(Access::RegisterRead(r(0))));
        assert!(Access::RegisterRead(r(0)).dependent(Access::RegisterWrite(r(0))));
        assert!(Access::RegisterWrite(r(0)).dependent(Access::RegisterWrite(r(0))));
    }

    #[test]
    fn snapshot_components_commute() {
        let s = SnapshotId(0);
        assert!(!Access::SnapshotUpdate(s, 0).dependent(Access::SnapshotUpdate(s, 1)));
        assert!(Access::SnapshotUpdate(s, 1).dependent(Access::SnapshotUpdate(s, 1)));
        assert!(Access::SnapshotUpdate(s, 0).dependent(Access::SnapshotScan(s)));
        assert!(!Access::SnapshotScan(s).dependent(Access::SnapshotScan(s)));
    }

    #[test]
    fn max_register_writes_with_distinct_keys_commute() {
        let m = MaxRegisterId(0);
        assert!(!Access::MaxWrite(m, 1).dependent(Access::MaxWrite(m, 2)));
        assert!(Access::MaxWrite(m, 2).dependent(Access::MaxWrite(m, 2)));
        assert!(Access::MaxWrite(m, 1).dependent(Access::MaxRead(m)));
        assert!(!Access::MaxRead(m).dependent(Access::MaxRead(m)));
    }

    #[test]
    fn dependence_is_symmetric() {
        let accesses = [
            Access::RegisterRead(r(0)),
            Access::RegisterWrite(r(0)),
            Access::SnapshotScan(SnapshotId(0)),
            Access::SnapshotUpdate(SnapshotId(0), 0),
            Access::SnapshotUpdate(SnapshotId(0), 1),
            Access::MaxRead(MaxRegisterId(0)),
            Access::MaxWrite(MaxRegisterId(0), 3),
            Access::MaxWrite(MaxRegisterId(0), 4),
        ];
        for &a in &accesses {
            for &b in &accesses {
                assert_eq!(a.dependent(b), b.dependent(a), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn crash_events_commute_with_other_processes_only() {
        let step = McEvent::Step {
            pid: ProcessId(0),
            access: Access::RegisterWrite(r(0)),
        };
        let crash_same = McEvent::Crash { pid: ProcessId(0) };
        let crash_other = McEvent::Crash { pid: ProcessId(1) };
        assert!(!step.independent(crash_same));
        assert!(step.independent(crash_other));
        assert!(!crash_other.independent(McEvent::Crash { pid: ProcessId(2) }));
    }

    #[test]
    fn signature_identifies_traces() {
        let w = |pid: usize, reg: usize| McEvent::Step {
            pid: ProcessId(pid),
            access: Access::RegisterWrite(r(reg)),
        };
        // Independent writes to different registers: both orders are the
        // same trace.
        assert_eq!(
            trace_signature(&[w(0, 0), w(1, 1)]),
            trace_signature(&[w(1, 1), w(0, 0)])
        );
        // Conflicting writes to one register: orders are distinct traces.
        assert_ne!(
            trace_signature(&[w(0, 0), w(1, 0)]),
            trace_signature(&[w(1, 0), w(0, 0)])
        );
    }

    #[test]
    fn signature_respects_program_order() {
        // p0 writes r0 then r1; p1 reads r2. The p1 read commutes with
        // everything, so all three interleavings share one signature.
        let e0 = McEvent::Step {
            pid: ProcessId(0),
            access: Access::RegisterWrite(r(0)),
        };
        let e1 = McEvent::Step {
            pid: ProcessId(0),
            access: Access::RegisterWrite(r(1)),
        };
        let q = McEvent::Step {
            pid: ProcessId(1),
            access: Access::RegisterRead(r(2)),
        };
        let s1 = trace_signature(&[e0, e1, q]);
        let s2 = trace_signature(&[e0, q, e1]);
        let s3 = trace_signature(&[q, e0, e1]);
        assert_eq!(s1, s2);
        assert_eq!(s2, s3);
        assert_eq!(s1, vec![0, 0, 1]);
    }
}
