//! A counting `ExecuteOps` wrapper: forwards every operation to the
//! memory it wraps and tallies it by kind, so "which shared-memory
//! operations does a decision issue" is read off the real run instead
//! of assumed.

use std::sync::atomic::{AtomicU64, Ordering};

use sift_core::Persona;
use sift_ledger::workloads::shmem::Kind;
use sift_shmem::ExecuteOps;
use sift_sim::{Op, OpKind, OpResult};

/// The ledger's kind for a model operation kind.
pub fn kind_of(kind: OpKind) -> Kind {
    match kind {
        OpKind::SnapshotUpdate => Kind::SnapshotUpdate,
        OpKind::SnapshotScan => Kind::SnapshotScan,
        OpKind::RegisterWrite => Kind::RegisterWrite,
        OpKind::RegisterRead => Kind::RegisterRead,
        OpKind::MaxWrite => Kind::MaxWrite,
        OpKind::MaxRead => Kind::MaxRead,
    }
}

/// A memory that counts what passes through it.
pub struct CountingMemory<M> {
    inner: M,
    // Relaxed counters: they publish nothing, and `ExecuteOps` requires
    // `Sync`, which rules out plain cells.
    counts: [AtomicU64; 6],
}

impl<M: ExecuteOps<Persona>> CountingMemory<M> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            counts: Default::default(),
        }
    }

    /// Operations seen so far, in [`Kind::MIX`] order.
    pub fn counts(&self) -> [u64; 6] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }
}

impl<M: ExecuteOps<Persona>> ExecuteOps<Persona> for CountingMemory<M> {
    fn execute(&self, op: Op<Persona>) -> OpResult<Persona> {
        self.counts[kind_of(op.kind()).index()].fetch_add(1, Ordering::Relaxed);
        self.inner.execute(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_ledger::workloads::shmem::{declare, op_of, palette, ScriptOp};
    use sift_shmem::memory::AtomicMemory;

    #[test]
    fn counts_by_kind_and_forwards_the_operation() {
        let (builder, objects) = declare(4);
        let memory = CountingMemory::new(AtomicMemory::<Persona>::new(&builder.build()));
        let palette = palette();
        let step = |kind, target| ScriptOp {
            kind,
            target,
            persona: 3,
            key: 9,
        };
        let script = [
            step(Kind::SnapshotUpdate, 2),
            step(Kind::SnapshotScan, 0),
            step(Kind::SnapshotScan, 0),
            step(Kind::RegisterWrite, 1),
            step(Kind::RegisterRead, 1),
            step(Kind::MaxWrite, 0),
            step(Kind::MaxRead, 0),
            step(Kind::MaxRead, 0),
            step(Kind::MaxRead, 0),
        ];
        let mut last_view = None;
        let mut last_register = None;
        for op in script {
            match memory.execute(op_of(op, &objects, &palette)) {
                OpResult::SnapshotView(view) => last_view = Some(view),
                OpResult::RegisterValue(value) => last_register = value,
                _ => {}
            }
        }
        assert_eq!(memory.counts(), [1, 2, 1, 1, 1, 3]);
        // Forwarded, not swallowed: the writes are visible to the reads.
        let view = last_view.unwrap();
        assert_eq!(
            view[2].as_ref().map(Persona::input),
            Some(palette[3].input())
        );
        assert_eq!(last_register.map(|p| p.input()), Some(palette[3].input()));
    }
}
