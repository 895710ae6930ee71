//! Thread-safe shared memory mirroring a simulator [`Layout`].
//!
//! [`ObjectMemory`] assembles any trio of object implementations
//! ([`SharedRegister`], [`SharedSnapshot`], [`SharedMaxRegister`]) into
//! an [`Op`]-executing memory. Two assemblies are named:
//!
//! * [`LockFreeMemory`] — the lock-free objects
//!   ([`LockFreeRegister`], [`LockFreeSnapshot`],
//!   [`LockFreeMaxRegister`]); registers and max registers holding
//!   small `Copy`-like payloads take allocation-free inline fast
//!   paths (seqlock cells and a combining announce array) instead of
//!   pointer publication;
//! * [`CoarseMemory`] — the lock-based references ([`LockRegister`],
//!   [`CoarseSnapshot`], [`LockMaxRegister`]).
//!
//! [`AtomicMemory`] — the default the runtime's conveniences and the
//! benchmark ledger use — is `LockFreeMemory`. `CoarseMemory` is the
//! reference it is checked against: both are always compiled, and the
//! runtime, history, cross-runtime, linearizability and differential
//! suites run over each of them in the one default build.

use sift_sim::{Layout, MaxRegisterId, Op, OpResult, RegisterId, ScanView, SnapshotId, Value};

use crate::max_register::{LockFreeMaxRegister, LockMaxRegister};
use crate::register::{LockFreeRegister, LockRegister};
use crate::snapshot::{CoarseSnapshot, LockFreeSnapshot};

/// A linearizable MWMR register usable from any thread.
pub trait SharedRegister<V: Value>: Send + Sync {
    /// Creates a register holding ⊥.
    fn new() -> Self;
    /// Reads the register (`None` is ⊥).
    fn read(&self) -> Option<V>;
    /// Writes `value`.
    fn write(&self, value: V);
}

/// A linearizable snapshot object usable from any thread.
pub trait SharedSnapshot<V: Value>: Send + Sync {
    /// Creates a snapshot object with `components` components, all ⊥.
    fn new(components: usize) -> Self;
    /// Atomically replaces one component.
    fn update(&self, component: usize, value: V);
    /// Returns an atomic view of all components.
    fn scan(&self) -> ScanView<V>;
}

/// A linearizable max register usable from any thread.
pub trait SharedMaxRegister<V: Value>: Send + Sync {
    /// Creates an empty max register.
    fn new() -> Self;
    /// Reads the current maximum entry.
    fn read(&self) -> Option<(u64, V)>;
    /// Writes `(key, value)`, kept only if `key` exceeds the current
    /// maximum.
    fn write(&self, key: u64, value: V);
}

macro_rules! impl_shared_register {
    ($ty:ident) => {
        impl<V: Value> SharedRegister<V> for $ty<V> {
            fn new() -> Self {
                $ty::new()
            }
            fn read(&self) -> Option<V> {
                $ty::read(self)
            }
            fn write(&self, value: V) {
                $ty::write(self, value)
            }
        }
    };
}

impl_shared_register!(LockRegister);
impl_shared_register!(LockFreeRegister);

macro_rules! impl_shared_snapshot {
    ($ty:ident) => {
        impl<V: Value> SharedSnapshot<V> for $ty<V> {
            fn new(components: usize) -> Self {
                $ty::new(components)
            }
            fn update(&self, component: usize, value: V) {
                $ty::update(self, component, value)
            }
            fn scan(&self) -> ScanView<V> {
                $ty::scan(self)
            }
        }
    };
}

impl_shared_snapshot!(CoarseSnapshot);
impl_shared_snapshot!(LockFreeSnapshot);

macro_rules! impl_shared_max_register {
    ($ty:ident) => {
        impl<V: Value> SharedMaxRegister<V> for $ty<V> {
            fn new() -> Self {
                $ty::new()
            }
            fn read(&self) -> Option<(u64, V)> {
                $ty::read(self)
            }
            fn write(&self, key: u64, value: V) {
                $ty::write(self, key, value)
            }
        }
    };
}

impl_shared_max_register!(LockMaxRegister);
impl_shared_max_register!(LockFreeMaxRegister);

/// Anything that can execute the model's [`Op`]s against shared state.
///
/// Implemented by every memory assembly here and by
/// [`RecordingMemory`](crate::history::RecordingMemory), which wraps
/// one of them and records a timestamped history.
pub trait ExecuteOps<V: Value>: Send + Sync {
    /// Executes one operation atomically.
    fn execute(&self, op: Op<V>) -> OpResult<V>;
}

/// Shared memory for real threads, instantiated from the same
/// [`Layout`] a protocol declares for the simulator — so a protocol
/// written once runs on both runtimes unchanged.
///
/// Generic over the three object implementations; use the
/// [`AtomicMemory`] alias unless you are comparing substrates (as the
/// differential tests and benches do via [`LockFreeMemory`] /
/// [`CoarseMemory`]).
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
pub struct ObjectMemory<V, R, S, M>
where
    V: Value,
    R: SharedRegister<V>,
    S: SharedSnapshot<V>,
    M: SharedMaxRegister<V>,
{
    registers: Vec<R>,
    snapshots: Vec<S>,
    max_registers: Vec<M>,
    _marker: std::marker::PhantomData<V>,
}

/// Memory assembled from the lock-free objects.
pub type LockFreeMemory<V> =
    ObjectMemory<V, LockFreeRegister<V>, LockFreeSnapshot<V>, LockFreeMaxRegister<V>>;

/// Memory assembled from the lock-based reference objects.
pub type CoarseMemory<V> = ObjectMemory<V, LockRegister<V>, CoarseSnapshot<V>, LockMaxRegister<V>>;

/// The default memory — what [`run_threads`](crate::runtime::run_threads)
/// builds, since its caller does not pass one: always
/// [`LockFreeMemory`].
pub type AtomicMemory<V> = LockFreeMemory<V>;

impl<V, R, S, M> ObjectMemory<V, R, S, M>
where
    V: Value,
    R: SharedRegister<V>,
    S: SharedSnapshot<V>,
    M: SharedMaxRegister<V>,
{
    /// Instantiates thread-safe memory for `layout`.
    pub fn new(layout: &Layout) -> Self {
        Self {
            registers: (0..layout.register_count()).map(|_| R::new()).collect(),
            snapshots: layout
                .snapshot_components()
                .iter()
                .map(|&c| S::new(c))
                .collect(),
            max_registers: (0..layout.max_register_count()).map(|_| M::new()).collect(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Executes one operation atomically.
    ///
    /// # Panics
    ///
    /// Panics if an object id is out of range for the layout.
    pub fn execute(&self, op: Op<V>) -> OpResult<V> {
        match op {
            Op::RegisterRead(id) => OpResult::RegisterValue(self.register(id).read()),
            Op::RegisterWrite(id, v) => {
                self.register(id).write(v);
                OpResult::Ack
            }
            Op::SnapshotUpdate(id, component, v) => {
                self.snapshot(id).update(component, v);
                OpResult::Ack
            }
            Op::SnapshotScan(id) => OpResult::SnapshotView(self.snapshot(id).scan()),
            Op::MaxRead(id) => OpResult::MaxValue(self.max_register(id).read()),
            Op::MaxWrite(id, key, v) => {
                self.max_register(id).write(key, v);
                OpResult::Ack
            }
        }
    }

    fn register(&self, id: RegisterId) -> &R {
        &self.registers[id.index()]
    }

    fn snapshot(&self, id: SnapshotId) -> &S {
        &self.snapshots[id.index()]
    }

    fn max_register(&self, id: MaxRegisterId) -> &M {
        &self.max_registers[id.index()]
    }
}

impl<V, R, S, M> ExecuteOps<V> for ObjectMemory<V, R, S, M>
where
    V: Value,
    R: SharedRegister<V>,
    S: SharedSnapshot<V>,
    M: SharedMaxRegister<V>,
{
    fn execute(&self, op: Op<V>) -> OpResult<V> {
        ObjectMemory::execute(self, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_sim::LayoutBuilder;

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

        let lock_free: LockFreeMemory<u32> = LockFreeMemory::new(&layout);
        exercise(&lock_free, (r, s, m));
        let coarse: CoarseMemory<u32> = CoarseMemory::new(&layout);
        exercise(&coarse, (r, s, m));
    }

    #[test]
    fn empty_layout_is_fine() {
        let mem: AtomicMemory<u32> = AtomicMemory::new(&LayoutBuilder::new().build());
        let _ = mem;
    }
}
