//! Thread-safe shared memory mirroring a simulator [`Layout`].
//!
//! Two memories execute the model's [`Op`]s from any thread:
//!
//! * [`AtomicMemory`] — the lock-free objects ([`LockFreeRegister`],
//!   [`LockFreeSnapshot`], [`LockFreeMaxRegister`]), every one of them
//!   pointer publication with interval-stamp reclamation, whatever the
//!   payload. What the runtime's conveniences and the benchmark ledger
//!   use.
//! * `Mutex<sift_sim::Memory<V>>` — the model itself, the sequential
//!   spec under one lock: obviously atomic, and the one reference the
//!   runtime, history, cross-runtime, linearizability and differential
//!   suites check `AtomicMemory` against.

use std::sync::Mutex;

use sift_sim::{Layout, Memory, Op, OpResult, Value};

use crate::max_register::LockFreeMaxRegister;
use crate::register::LockFreeRegister;
use crate::snapshot::LockFreeSnapshot;

/// Anything that can execute the model's [`Op`]s against shared state.
///
/// Implemented by [`AtomicMemory`], by the model under a lock
/// (`Mutex<sift_sim::Memory<V>>`), and by
/// [`RecordingMemory`](crate::history::RecordingMemory), which wraps
/// either and records a timestamped history.
pub trait ExecuteOps<V: Value>: Send + Sync {
    /// Executes one operation atomically.
    fn execute(&self, op: Op<V>) -> OpResult<V>;
}

/// The model as a thread-safe reference: every operation runs
/// [`Memory::execute`] under one lock, so the lock order is the
/// linearization order and the object semantics are the model's own.
///
/// Panics if the lock is poisoned: an operation already panicked
/// inside it, so its state is no longer the spec's.
impl<V: Value> ExecuteOps<V> for Mutex<Memory<V>> {
    fn execute(&self, op: Op<V>) -> OpResult<V> {
        self.lock()
            .expect("model memory poisoned by a panicking operation")
            .execute(op)
    }
}

/// Lock-free shared memory for real threads, instantiated from the
/// same [`Layout`] a protocol declares for the simulator — so a
/// protocol written once runs on both runtimes unchanged.
///
/// All objects are linearizable; operations take `&self` and are safe to
/// call from any number of threads.
///
/// # Examples
///
/// ```
/// use sift_shmem::memory::AtomicMemory;
/// use sift_sim::{LayoutBuilder, Op};
///
/// let mut b = LayoutBuilder::new();
/// let r = b.register();
/// let mem: AtomicMemory<u32> = AtomicMemory::new(&b.build());
/// mem.execute(Op::RegisterWrite(r, 9)).expect_ack();
/// assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), Some(9));
/// ```
#[derive(Debug)]
pub struct AtomicMemory<V: Value> {
    registers: Vec<LockFreeRegister<V>>,
    snapshots: Vec<LockFreeSnapshot<V>>,
    max_registers: Vec<LockFreeMaxRegister<V>>,
}

impl<V: Value> AtomicMemory<V> {
    /// Instantiates thread-safe memory for `layout`.
    pub fn new(layout: &Layout) -> Self {
        Self {
            registers: (0..layout.register_count())
                .map(|_| LockFreeRegister::new())
                .collect(),
            snapshots: layout
                .snapshot_components()
                .iter()
                .map(|&c| LockFreeSnapshot::new(c))
                .collect(),
            max_registers: (0..layout.max_register_count())
                .map(|_| LockFreeMaxRegister::new())
                .collect(),
        }
    }

    /// Executes one operation atomically.
    ///
    /// # Panics
    ///
    /// Panics if an object id is out of range for the layout.
    pub fn execute(&self, op: Op<V>) -> OpResult<V> {
        match op {
            Op::RegisterRead(id) => OpResult::RegisterValue(self.registers[id.index()].read()),
            Op::RegisterWrite(id, v) => {
                self.registers[id.index()].write(v);
                OpResult::Ack
            }
            Op::SnapshotUpdate(id, component, v) => {
                self.snapshots[id.index()].update(component, v);
                OpResult::Ack
            }
            Op::SnapshotScan(id) => OpResult::SnapshotView(self.snapshots[id.index()].scan()),
            Op::MaxRead(id) => OpResult::MaxValue(self.max_registers[id.index()].read()),
            Op::MaxWrite(id, key, v) => {
                self.max_registers[id.index()].write(key, v);
                OpResult::Ack
            }
        }
    }
}

impl<V: Value> ExecuteOps<V> for AtomicMemory<V> {
    fn execute(&self, op: Op<V>) -> OpResult<V> {
        AtomicMemory::execute(self, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_sim::{LayoutBuilder, MaxRegisterId, RegisterId, SnapshotId};

    fn exercise<Mem: ExecuteOps<u32>>(mem: &Mem, layout: (RegisterId, SnapshotId, MaxRegisterId)) {
        let (r, s, m) = layout;
        mem.execute(Op::RegisterWrite(r, 1)).expect_ack();
        assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), Some(1));

        mem.execute(Op::SnapshotUpdate(s, 2, 5)).expect_ack();
        let view = mem.execute(Op::SnapshotScan(s)).expect_view();
        assert_eq!(view[2], Some(5));

        mem.execute(Op::MaxWrite(m, 9, 90)).expect_ack();
        mem.execute(Op::MaxWrite(m, 3, 30)).expect_ack();
        assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), Some((9, 90)));
    }

    #[test]
    fn both_substrates_mirror_layout_objects() {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let s = b.snapshot(4);
        let m = b.max_register();
        let layout = b.build();

        exercise(&AtomicMemory::new(&layout), (r, s, m));
        exercise(&Mutex::new(Memory::new(&layout)), (r, s, m));
    }

    /// Every `u64` is a max-register key, `u64::MAX` included: the
    /// model takes it, so the lock-free side must too.
    #[test]
    fn max_write_takes_every_key_like_the_model() {
        let mut b = LayoutBuilder::new();
        let m = b.max_register();
        let layout = b.build();
        let run = |mem: &dyn ExecuteOps<u32>| {
            mem.execute(Op::MaxWrite(m, u64::MAX, 7)).expect_ack();
            mem.execute(Op::MaxWrite(m, 3, 8)).expect_ack();
            mem.execute(Op::MaxRead(m)).expect_max()
        };
        let model = run(&Mutex::new(Memory::new(&layout)));
        assert_eq!(model, Some((u64::MAX, 7)));
        assert_eq!(run(&AtomicMemory::new(&layout)), model);
    }

    #[test]
    fn empty_layout_is_fine() {
        let mem: AtomicMemory<u32> = AtomicMemory::new(&LayoutBuilder::new().build());
        let _ = mem;
    }
}
