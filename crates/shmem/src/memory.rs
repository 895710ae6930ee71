//! Thread-safe shared memory mirroring a simulator [`Layout`].
//!
//! Two memories execute the model's [`Op`]s from any thread:
//!
//! * [`AtomicMemory`] — one lock per object: each register, snapshot
//!   and max register is the model's own sequential object
//!   ([`Register`], [`SnapshotObject`], [`MaxRegister`]) behind its own
//!   [`Mutex`], whatever the payload. What the runtime's conveniences
//!   and the benchmark ledger use.
//! * `Mutex<sift_sim::Memory<V>>` — the whole model under one lock: the
//!   one reference the runtime, history, cross-runtime,
//!   linearizability and differential suites check `AtomicMemory`
//!   against.
//!
//! Both are obviously atomic: an operation runs the model's code inside
//! a critical section, so it linearizes there, and because each
//! `AtomicMemory` object is linearizable on its own, the memory as a
//! whole is (Herlihy–Wing locality).

use std::sync::{Mutex, MutexGuard};

use sift_sim::max_register::MaxRegister;
use sift_sim::register::Register;
use sift_sim::snapshot::SnapshotObject;
use sift_sim::{Layout, Memory, Op, OpResult, Value};

/// Anything that can execute the model's [`Op`]s against shared state.
///
/// Implemented by [`AtomicMemory`], by the model under a lock
/// (`Mutex<sift_sim::Memory<V>>`), and by
/// [`RecordingMemory`](crate::history::RecordingMemory), which wraps
/// either and records a timestamped history.
///
/// # Examples
///
/// ```
/// use std::sync::Mutex;
/// use sift_shmem::{AtomicMemory, ExecuteOps};
/// use sift_sim::{LayoutBuilder, Memory, Op, RegisterId};
///
/// fn round_trip(mem: &impl ExecuteOps<String>, r: RegisterId) -> Option<String> {
///     assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), None);
///     mem.execute(Op::RegisterWrite(r, "hello".to_string())).expect_ack();
///     mem.execute(Op::RegisterRead(r)).expect_register()
/// }
///
/// let mut b = LayoutBuilder::new();
/// let r = b.register();
/// let layout = b.build();
/// let threaded = round_trip(&AtomicMemory::new(&layout), r);
/// assert_eq!(threaded.as_deref(), Some("hello"));
/// assert_eq!(round_trip(&Mutex::new(Memory::new(&layout)), r), threaded);
/// ```
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

/// Shared memory for real threads, instantiated from the same
/// [`Layout`] a protocol declares for the simulator — so a protocol
/// written once runs on both runtimes unchanged.
///
/// Every object is the model's sequential object behind its own lock;
/// operations take `&self` and are safe to call from any number of
/// threads. Operations on different objects never contend.
///
/// # Examples
///
/// ```
/// use sift_shmem::memory::AtomicMemory;
/// use sift_sim::{LayoutBuilder, Op};
///
/// let mut b = LayoutBuilder::new();
/// let r = b.register();
/// let s = b.snapshot(3);
/// let m = b.max_register();
/// let mem: AtomicMemory<u32> = AtomicMemory::new(&b.build());
/// mem.execute(Op::RegisterWrite(r, 9)).expect_ack();
/// assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), Some(9));
/// mem.execute(Op::SnapshotUpdate(s, 1, 7)).expect_ack();
/// assert_eq!(&mem.execute(Op::SnapshotScan(s)).expect_view()[..], &[None, Some(7), None]);
/// mem.execute(Op::MaxWrite(m, 4, 40)).expect_ack();
/// mem.execute(Op::MaxWrite(m, 2, 20)).expect_ack();
/// assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), Some((4, 40)));
/// ```
#[derive(Debug)]
pub struct AtomicMemory<V: Value> {
    registers: Vec<Mutex<Register<V>>>,
    snapshots: Vec<Mutex<SnapshotObject<V>>>,
    max_registers: Vec<Mutex<MaxRegister<V>>>,
}

/// Locks one object, refusing to serve it after a panic inside its
/// critical section: its state may be half an operation.
fn lock<T>(object: &Mutex<T>) -> MutexGuard<'_, T> {
    object
        .lock()
        .expect("shared object poisoned by a panicking operation")
}

impl<V: Value> AtomicMemory<V> {
    /// Instantiates thread-safe memory for `layout`.
    pub fn new(layout: &Layout) -> Self {
        Self {
            registers: (0..layout.register_count())
                .map(|_| Mutex::new(Register::new()))
                .collect(),
            snapshots: layout
                .snapshot_components()
                .iter()
                .map(|&c| Mutex::new(SnapshotObject::new(c)))
                .collect(),
            max_registers: (0..layout.max_register_count())
                .map(|_| Mutex::new(MaxRegister::new()))
                .collect(),
        }
    }

    /// Executes one operation atomically: locks the one object `op`
    /// names and runs the model's method on it, cloning the result
    /// before the lock is released.
    ///
    /// # Panics
    ///
    /// Panics if an object id is out of range for the layout, if a
    /// snapshot component is out of range, or if the object's lock is
    /// poisoned by an earlier panicking operation.
    pub fn execute(&self, op: Op<V>) -> OpResult<V> {
        match op {
            Op::RegisterRead(id) => {
                OpResult::RegisterValue(lock(&self.registers[id.index()]).read().cloned())
            }
            Op::RegisterWrite(id, v) => {
                lock(&self.registers[id.index()]).write(v);
                OpResult::Ack
            }
            Op::SnapshotUpdate(id, component, v) => {
                lock(&self.snapshots[id.index()]).update(component, v);
                OpResult::Ack
            }
            Op::SnapshotScan(id) => {
                OpResult::SnapshotView(lock(&self.snapshots[id.index()]).scan())
            }
            Op::MaxRead(id) => OpResult::MaxValue(
                lock(&self.max_registers[id.index()])
                    .read()
                    .map(|(k, v)| (k, v.clone())),
            ),
            Op::MaxWrite(id, key, v) => {
                lock(&self.max_registers[id.index()]).write(key, v);
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
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

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
    /// model takes it, so the threaded side must too.
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

    /// A memory with two registers, one `components`-component
    /// snapshot and one max register.
    fn memory<V: Value>(
        components: usize,
    ) -> (AtomicMemory<V>, [RegisterId; 2], SnapshotId, MaxRegisterId) {
        let mut b = LayoutBuilder::new();
        let (r, s, m) = (
            [b.register(), b.register()],
            b.snapshot(components),
            b.max_register(),
        );
        (AtomicMemory::new(&b.build()), r, s, m)
    }

    #[test]
    fn u64_registers_round_trip() {
        let (mem, [r, _], _, _) = memory::<u64>(0);
        assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), None);
        mem.execute(Op::RegisterWrite(r, 41)).expect_ack();
        mem.execute(Op::RegisterWrite(r, 42)).expect_ack();
        assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), Some(42));
    }

    #[test]
    fn string_registers_round_trip() {
        let (mem, [r, _], _, _) = memory::<String>(0);
        assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), None);
        mem.execute(Op::RegisterWrite(r, "a".into())).expect_ack();
        mem.execute(Op::RegisterWrite(r, "b".into())).expect_ack();
        let read = mem.execute(Op::RegisterRead(r)).expect_register();
        assert_eq!(read.as_deref(), Some("b"));
    }

    #[test]
    fn array_registers_round_trip() {
        let (mem, [r, _], _, _) = memory::<[u64; 3]>(0);
        assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), None);
        mem.execute(Op::RegisterWrite(r, [1, 2, 3])).expect_ack();
        mem.execute(Op::RegisterWrite(r, [4, 5, 6])).expect_ack();
        let read = mem.execute(Op::RegisterRead(r)).expect_register();
        assert_eq!(read, Some([4, 5, 6]));
    }

    #[test]
    fn a_smaller_max_write_keeps_the_winner() {
        let (mem, _, _, m) = memory::<&'static str>(0);
        mem.execute(Op::MaxWrite(m, 5, "five")).expect_ack();
        mem.execute(Op::MaxWrite(m, 3, "three")).expect_ack();
        assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), Some((5, "five")));
        mem.execute(Op::MaxWrite(m, 9, "nine")).expect_ack();
        assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), Some((9, "nine")));
    }

    #[test]
    fn max_registers_keep_the_maximum_and_the_first_on_a_tie() {
        let (mem, _, _, m) = memory::<char>(0);
        assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), None);
        for (key, v) in [(5, 'a'), (3, 'b'), (7, 'c'), (7, 'd')] {
            mem.execute(Op::MaxWrite(m, key, v)).expect_ack();
        }
        assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), Some((7, 'c')));
    }

    #[test]
    fn string_max_registers_keep_the_first_on_a_tie() {
        let (mem, _, _, m) = memory::<String>(0);
        assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), None);
        for (key, v) in [(5, "a"), (3, "b"), (7, "c"), (7, "d")] {
            mem.execute(Op::MaxWrite(m, key, v.into())).expect_ack();
        }
        let read = mem.execute(Op::MaxRead(m)).expect_max();
        assert_eq!(read, Some((7, "c".to_string())));
    }

    #[test]
    fn a_first_scan_is_all_bottom() {
        let (mem, _, s, _) = memory::<u32>(4);
        let view = mem.execute(Op::SnapshotScan(s)).expect_view();
        assert_eq!(&view[..], &[None, None, None, None]);
    }

    #[test]
    fn snapshot_scans_round_trip() {
        let (mem, _, s, _) = memory::<u64>(3);
        let scan = || mem.execute(Op::SnapshotScan(s)).expect_view();
        mem.execute(Op::SnapshotUpdate(s, 0, 10)).expect_ack();
        mem.execute(Op::SnapshotUpdate(s, 2, 30)).expect_ack();
        assert_eq!(&scan()[..], &[Some(10), None, Some(30)]);
        mem.execute(Op::SnapshotUpdate(s, 0, 11)).expect_ack();
        assert_eq!(&scan()[..], &[Some(11), None, Some(30)]);
    }

    #[test]
    fn quiescent_scans_share_one_vector() {
        let (mem, _, s, _) = memory::<u32>(2);
        let scan = || mem.execute(Op::SnapshotScan(s)).expect_view();
        mem.execute(Op::SnapshotUpdate(s, 0, 1)).expect_ack();
        let first = scan();
        assert_eq!(
            first.as_ptr(),
            scan().as_ptr(),
            "an unchanged state is shared"
        );
        mem.execute(Op::SnapshotUpdate(s, 1, 2)).expect_ack();
        assert_ne!(first.as_ptr(), scan().as_ptr());
        // The earlier view is immutable even after the update.
        assert_eq!(&first[..], &[Some(1), None]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn snapshot_update_out_of_range_panics() {
        let (mem, _, s, _) = memory::<u32>(2);
        mem.execute(Op::SnapshotUpdate(s, 2, 1));
    }

    // The concurrent tests below spawn scoped threads; a panic in any
    // of them fails the test when the scope joins it.

    #[test]
    fn concurrent_snapshot_updates_are_never_lost() {
        // One updater per component; after each of its updates, the
        // updater's own next scan must hold it.
        let (mem, _, s, _) = memory::<u64>(4);
        std::thread::scope(|scope| {
            for c in 0..4 {
                let mem = &mem;
                scope.spawn(move || {
                    for k in 0..250u64 {
                        mem.execute(Op::SnapshotUpdate(s, c, k)).expect_ack();
                        let view = mem.execute(Op::SnapshotScan(s)).expect_view();
                        assert_eq!(view[c], Some(k), "update {k} of {c} was lost");
                    }
                });
            }
        });
        let view = mem.execute(Op::SnapshotScan(s)).expect_view();
        assert_eq!(&view[..], &[Some(249); 4]);
    }

    #[test]
    fn concurrent_scans_are_component_wise_monotone() {
        // Single writer per component, each writing an increasing
        // counter: every atomic view must dominate the ones a scanner
        // saw before it.
        let (mem, _, s, _) = memory::<u64>(4);
        std::thread::scope(|scope| {
            let mem = &mem;
            for c in 0..4 {
                scope.spawn(move || {
                    for k in 0..400u64 {
                        mem.execute(Op::SnapshotUpdate(s, c, k)).expect_ack();
                    }
                });
                scope.spawn(move || {
                    let mut seen = [None::<u64>; 4];
                    for _ in 0..400 {
                        let view = mem.execute(Op::SnapshotScan(s)).expect_view();
                        for (c, now) in view.iter().enumerate() {
                            assert!(*now >= seen[c], "component {c}: {:?} -> {now:?}", seen[c]);
                            seen[c] = *now;
                        }
                    }
                });
            }
        });
        let view = mem.execute(Op::SnapshotScan(s)).expect_view();
        assert_eq!(&view[..], &[Some(399); 4]);
    }

    #[test]
    fn concurrent_max_reads_are_monotone_and_end_at_the_global_maximum() {
        let (mem, _, _, m) = memory::<(u64, u64)>(0);
        std::thread::scope(|scope| {
            let mem = &mem;
            for t in 0..8u64 {
                scope.spawn(move || {
                    for k in 0..300 {
                        mem.execute(Op::MaxWrite(m, t * 300 + k, (t, k)))
                            .expect_ack();
                    }
                });
            }
            for _ in 0..3 {
                scope.spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..2000 {
                        if let Some((key, (t, k))) = mem.execute(Op::MaxRead(m)).expect_max() {
                            assert_eq!(key, t * 300 + k, "entry is self-consistent");
                            assert!(key >= last, "max went backwards: {last} -> {key}");
                            last = key;
                        }
                    }
                });
            }
        });
        let read = mem.execute(Op::MaxRead(m)).expect_max();
        assert_eq!(read, Some((7 * 300 + 299, (7, 299))));
    }

    #[test]
    fn concurrent_max_reads_never_go_backwards() {
        let (mem, _, _, m) = memory::<u64>(0);
        std::thread::scope(|scope| {
            let mem = &mem;
            for t in 0..8u64 {
                scope.spawn(move || {
                    for k in 0..300 {
                        let key = t * 300 + k;
                        mem.execute(Op::MaxWrite(m, key, key)).expect_ack();
                    }
                });
            }
            scope.spawn(move || {
                let mut last = 0u64;
                for _ in 0..2000 {
                    if let Some((_, v)) = mem.execute(Op::MaxRead(m)).expect_max() {
                        assert!(v >= last, "max went backwards: {last} -> {v}");
                        last = v;
                    }
                }
            });
        });
        let read = mem.execute(Op::MaxRead(m)).expect_max();
        assert_eq!(read, Some((8 * 300 - 1, 8 * 300 - 1)));
    }

    #[test]
    fn concurrent_array_max_writes_keep_the_global_maximum() {
        let (mem, _, _, m) = memory::<[u64; 3]>(0);
        std::thread::scope(|scope| {
            let mem = &mem;
            for t in 0..4u64 {
                scope.spawn(move || {
                    for k in 0..200 {
                        let key = t * 200 + k;
                        mem.execute(Op::MaxWrite(m, key, [t, k, key])).expect_ack();
                    }
                });
            }
        });
        let read = mem.execute(Op::MaxRead(m)).expect_max();
        assert_eq!(read, Some((3 * 200 + 199, [3, 199, 799])));
    }

    #[test]
    fn concurrent_register_reads_are_never_torn() {
        // A reader must never get half of one write and half of
        // another: each written pair is tagged so a mix fails the check.
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        let (mem, [r, _], _, _) = memory::<(u64, u64)>(0);
        std::thread::scope(|scope| {
            let mem = &mem;
            for t in 0..4u64 {
                scope.spawn(move || {
                    for k in 0..2000u64 {
                        let tagged = (k, k.wrapping_mul(MIX) ^ t);
                        mem.execute(Op::RegisterWrite(r, tagged)).expect_ack();
                    }
                });
            }
            for _ in 0..3 {
                scope.spawn(move || {
                    for _ in 0..4000 {
                        let read = mem.execute(Op::RegisterRead(r)).expect_register();
                        if let Some((k, tagged)) = read {
                            let t = tagged ^ k.wrapping_mul(MIX);
                            assert!(t < 4, "torn read: ({k}, {tagged:#x})");
                        }
                    }
                });
            }
        });
        let last = mem.execute(Op::RegisterRead(r)).expect_register();
        assert_eq!(
            last.map(|(k, _)| k),
            Some(1999),
            "the last value is a writer's last"
        );
    }

    #[test]
    fn concurrent_register_writers_leave_a_last_write() {
        let (mem, [r, _], _, _) = memory::<(u64, u64)>(0);
        std::thread::scope(|scope| {
            let mem = &mem;
            for i in 0..8u64 {
                scope.spawn(move || {
                    for k in 0..500 {
                        mem.execute(Op::RegisterWrite(r, (i, k))).expect_ack();
                    }
                });
            }
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..1000 {
                        if let Some((i, k)) = mem.execute(Op::RegisterRead(r)).expect_register() {
                            assert!(i < 8 && k < 500, "read a value no writer wrote");
                        }
                    }
                });
            }
        });
        let (_, k) = mem
            .execute(Op::RegisterRead(r))
            .expect_register()
            .expect("someone wrote");
        assert_eq!(k, 499, "the last value is a writer's last");
    }

    /// Set while [`Fragile`] payloads must not be cloned.
    static CLONE_PANICS: AtomicBool = AtomicBool::new(false);

    /// A payload whose `clone` panics while [`CLONE_PANICS`] is set.
    #[derive(Debug, PartialEq)]
    struct Fragile(u32);

    impl Clone for Fragile {
        fn clone(&self) -> Self {
            assert!(!CLONE_PANICS.load(Ordering::SeqCst), "clone refused");
            Fragile(self.0)
        }
    }

    #[test]
    fn a_poisoned_object_is_not_served() {
        let (mem, [r0, r1], _, _) = memory::<Fragile>(0);
        mem.execute(Op::RegisterWrite(r0, Fragile(1))).expect_ack();
        mem.execute(Op::RegisterWrite(r1, Fragile(2))).expect_ack();
        let read = |r| catch_unwind(AssertUnwindSafe(|| mem.execute(Op::RegisterRead(r))));

        // The read's clone panics inside register 0's critical section.
        CLONE_PANICS.store(true, Ordering::SeqCst);
        let first = read(r0);
        CLONE_PANICS.store(false, Ordering::SeqCst);
        assert!(first.is_err(), "the read's clone must panic");

        let next = read(r0).expect_err("a poisoned register must not be served");
        let message = next
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("poisoned"), "unexpected panic: {message}");
        let other = read(r1).expect("a second register is still served");
        assert_eq!(other.expect_register(), Some(Fragile(2)));
    }
}
