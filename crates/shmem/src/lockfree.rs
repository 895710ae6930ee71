//! Lock-free publication cells with reader-gated reclamation: the one
//! publication scheme of the substrate.
//!
//! Everything lock-free in `sift-shmem` (registers, max registers, the
//! snapshot's root) is built from the two types here, whatever the
//! payload:
//!
//! * [`Slot<T>`] — an atomic pointer to an immutable heap node holding a
//!   `T` (null encodes ⊥). Writers publish with a single
//!   [`swap`](Slot::store) or a [`compare_exchange`](Slot::publish_max)
//!   loop; readers dereference under a [`ReadGuard`].
//! * [`Pile<T>`] — the retire pile shared by the slots of one object:
//!   *striped* reader pins plus a Treiber stack of stamped retired
//!   nodes.
//!
//! # Reclamation protocol (interval stamps)
//!
//! A node that is swapped out of a slot is *retired* onto the pile, not
//! freed: a concurrent reader may still hold a reference into it. The
//! pile decides what is safe to free with retire-sequence **stamps**
//! rather than by waiting for global quiescence (which, under sustained
//! read traffic from many threads, simply never occurs):
//!
//! 1. every retired node is stamped with a ticket from the pile's
//!    monotone retire sequence — assigned *after* the `SeqCst` swap
//!    that unlinked the node from its slot;
//! 2. a guard, on entry, **pins** a value the sequence has already
//!    reached (a read-mostly *epoch* copy, refreshed at reclaim time)
//!    into its stripe: each stripe packs an occupancy count with the
//!    minimum pin of its current occupants;
//! 3. the reclaimer (every [`RECLAIM_INTERVAL`]-th retire, and `Drop`)
//!    detaches the whole retire chain, reads all stripes, takes the
//!    minimum pin over the *occupied* ones, frees exactly the nodes
//!    stamped strictly below that minimum, and splices the survivors
//!    back.
//!
//! Soundness: every pointer publication, detach, stripe RMW, stripe
//! read and sequence access is `SeqCst`, so they share one total order
//! `S`. Suppose a reader `R` holds a reference into node `N`. `R`'s
//! slot load returned `N`, so that load precedes `N`'s unlink swap in
//! `S` (a later load returns a newer publication); `R`'s pin read
//! precedes its enter-CAS, which precedes the load; and `N`'s stamp is
//! drawn from the sequence *after* the unlink. Monotonicity then gives
//! `pin(R) ≤ seq-at-pin-read ≤ stamp(N)` (the pinned epoch never
//! exceeds the sequence). The reclaimer reads `R`'s stripe after the
//! detach; if `R`'s enter-CAS precedes that read in `S`, the stripe's
//! packed minimum is `≤ pin(R) ≤ stamp(N)` and `N` survives. If instead
//! `R` enters *after* the stripe read, then `R`'s slot load follows the
//! read, follows the detach, follows every unlink of every node in the
//! detached chain — so `R` cannot acquire `N` at all. Either way no
//! freed node is reachable. (Stripes are shared by design: later
//! entrants only lower the packed minimum, exits never raise it, and it
//! resets to a fresh pin only on an empty-to-occupied transition.)
//!
//! The pins are striped across [`STRIPES`] cache-line-padded words,
//! indexed by a per-thread id: a guard enter/exit is an (almost always
//! uncontended) RMW on the thread's own line, while the reclaimer —
//! which runs rarely — pays to read all stripes.
//!
//! All operations are lock-free: no step ever blocks on another
//! thread, a stalled reader only delays *reclamation of the nodes
//! retired after it pinned* (memory is freed later, never unsafely
//! early), and a stalled writer delays nobody. Unreclaimed memory is
//! bounded by the retires during the longest in-flight guard plus the
//! reclaim interval — crucially, steady read traffic does *not* stall
//! reclamation, because each fresh guard pins a fresh sequence value
//! and the occupied minimum keeps advancing. Everything still
//! unreclaimed is freed in `Drop`, when `&mut self` proves no reader
//! can exist.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Reader-gate stripes per pile (power of two).
const STRIPES: usize = 16;

/// Retires between opportunistic reclamation attempts.
const RECLAIM_INTERVAL: usize = 64;

/// Stripe word layout: low bits count the stripe's occupants, the rest
/// hold the minimum retire-sequence pin among them (meaningless while
/// the count is zero). 16 bits allow far more nested guards per stripe
/// than any realistic thread count; 48 stamp bits outlast any run.
const COUNT_MASK: u64 = (1 << STAMP_SHIFT) - 1;
const STAMP_SHIFT: u32 = 16;

/// One reader stripe (packed count + minimum pin), padded to its own
/// cache line pair so enter/exit RMWs from different threads never
/// false-share.
#[repr(align(128))]
#[derive(Debug)]
struct Stripe(AtomicU64);

/// The stripe this thread's guards use. Thread ids are handed out once
/// per thread from a global counter; with up to [`STRIPES`] live
/// threads every thread gets a private line.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
    }
    STRIPE.with(|s| *s)
}

/// An immutable published value plus the retire-chain link.
///
/// `value` is written once, before publication, and never mutated
/// afterwards; `next` is only touched while the node is exclusively
/// owned (before a retire push, or by the reclaimer after a detach).
pub(crate) struct Node<T: Send> {
    value: T,
    next: AtomicPtr<Node<T>>,
    /// Retire-sequence ticket, written at retirement. Atomic because
    /// readers may still hold `&Node` when the retirer writes it.
    stamp: AtomicU64,
}

impl<T: Send> Node<T> {
    fn boxed(value: T) -> *mut Node<T> {
        Box::into_raw(Box::new(Node {
            value,
            next: AtomicPtr::new(ptr::null_mut()),
            stamp: AtomicU64::new(0),
        }))
    }
}

/// The reader gate and retire pile shared by one object's slots.
#[derive(Debug)]
pub(crate) struct Pile<T: Send> {
    stripes: [Stripe; STRIPES],
    /// A *stale* copy of [`seq`](Self::seq), refreshed only at reclaim
    /// time, that guards pin instead of the live sequence. Pinning an
    /// older value is always sound (it only keeps nodes longer), and it
    /// turns the reader's hottest shared load into a read-mostly hit:
    /// this line changes once per [`RECLAIM_INTERVAL`] retires, while
    /// `seq` changes on every one. Own cache line pair so writer
    /// traffic on the neighbouring fields never invalidates it.
    epoch: Stripe,
    /// The monotone retire sequence stamps dole out of.
    seq: AtomicU64,
    retired: AtomicPtr<Node<T>>,
    /// Retires since creation (approximate); paces reclamation.
    retire_count: AtomicUsize,
    /// The pile owns the retired nodes (and therefore their `T`s).
    _owns: PhantomData<Node<T>>,
}

/// Proof that a reader-count stripe of a [`Pile`] is elevated;
/// references obtained from [`Slot::load`] under this guard stay valid
/// until the guard drops.
#[derive(Debug)]
pub(crate) struct ReadGuard<'p, T: Send> {
    pile: &'p Pile<T>,
    stripe: usize,
}

impl<T: Send> Pile<T> {
    pub(crate) fn new() -> Self {
        Self {
            stripes: std::array::from_fn(|_| Stripe(AtomicU64::new(0))),
            epoch: Stripe(AtomicU64::new(0)),
            seq: AtomicU64::new(0),
            retired: AtomicPtr::new(ptr::null_mut()),
            retire_count: AtomicUsize::new(0),
            _owns: PhantomData,
        }
    }

    /// Enters a read-side critical section, pinning the current retire
    /// sequence into this thread's stripe: a load plus one (almost
    /// always uncontended) CAS on the thread's own line. See the module
    /// docs for the soundness argument.
    pub(crate) fn enter(&self) -> ReadGuard<'_, T> {
        let stripe = stripe_index();
        let pin = self.epoch.0.load(Ordering::SeqCst);
        let word = &self.stripes[stripe].0;
        let mut old = word.load(Ordering::SeqCst);
        loop {
            let count = old & COUNT_MASK;
            let min_pin = if count == 0 {
                pin
            } else {
                pin.min(old >> STAMP_SHIFT)
            };
            let new = (count + 1) | (min_pin << STAMP_SHIFT);
            match word.compare_exchange_weak(old, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(now) => old = now,
            }
        }
        ReadGuard { pile: self, stripe }
    }

    /// Retires `node` (already unreachable from every slot) and
    /// occasionally attempts reclamation.
    fn retire(&self, node: *mut Node<T>) {
        debug_assert!(!node.is_null());
        let stamp = self.seq.fetch_add(1, Ordering::SeqCst);
        // Safety: unlinked and not yet pushed — no other writer touches
        // `stamp`; concurrent readers may hold `&Node`, hence atomic.
        unsafe { (*node).stamp.store(stamp, Ordering::Relaxed) };
        let mut head = self.retired.load(Ordering::Relaxed);
        loop {
            // Safety: until the compare_exchange below succeeds, `node`
            // is exclusively owned by this thread.
            unsafe { (*node).next.store(head, Ordering::Relaxed) };
            match self.retired.compare_exchange_weak(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        // Reclaim in batches: reading all gate stripes touches many
        // lines, so doing it on every retire would defeat the striping.
        if self.retire_count.fetch_add(1, Ordering::Relaxed) % RECLAIM_INTERVAL
            == RECLAIM_INTERVAL - 1
        {
            self.try_reclaim();
        }
    }

    /// Detaches the retire chain, frees every node stamped before the
    /// minimum pin of the occupied stripes, and splices the survivors
    /// back. Lock-free and safe to call from any thread at any time.
    fn try_reclaim(&self) {
        // Advance the pinnable epoch (any value `seq` has already
        // reached is sound — see the `epoch` field docs).
        self.epoch
            .0
            .store(self.seq.load(Ordering::SeqCst), Ordering::SeqCst);
        let head = self.retired.swap(ptr::null_mut(), Ordering::SeqCst);
        if head.is_null() {
            return;
        }
        // Minimum pin among stripes that currently host a reader; ∞
        // when none does. Read *after* the detach (the module docs'
        // argument needs that order).
        let min_pin = self.stripes.iter().fold(u64::MAX, |min, s| {
            let word = s.0.load(Ordering::SeqCst);
            if word & COUNT_MASK == 0 {
                min
            } else {
                min.min(word >> STAMP_SHIFT)
            }
        });
        let mut keep_head: *mut Node<T> = ptr::null_mut();
        let mut keep_tail: *mut Node<T> = ptr::null_mut();
        let mut cur = head;
        let (mut freed, mut kept) = (0u64, 0u64);
        while !cur.is_null() {
            // Safety: the detached chain is exclusively ours.
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            if unsafe { (*cur).stamp.load(Ordering::Relaxed) } < min_pin {
                // Safety: retired before every active reader pinned —
                // unreachable (module docs).
                drop(unsafe { Box::from_raw(cur) });
                freed += 1;
            } else {
                unsafe { (*cur).next.store(keep_head, Ordering::Relaxed) };
                if keep_head.is_null() {
                    keep_tail = cur;
                }
                keep_head = cur;
                kept += 1;
            }
            cur = next;
        }
        crate::obs::note_reclaim(freed, kept);
        if !keep_head.is_null() {
            // Safety: `keep_head..keep_tail` is an exclusively owned
            // chain; splice it back for a later attempt.
            unsafe { self.splice(keep_head, keep_tail) };
        }
    }

    /// Re-links an exclusively owned chain onto the retire stack.
    ///
    /// # Safety
    ///
    /// `head..tail` must be a well-formed chain this thread exclusively
    /// owns (obtained from the detach in [`try_reclaim`]).
    unsafe fn splice(&self, head: *mut Node<T>, tail: *mut Node<T>) {
        let mut current = self.retired.load(Ordering::Relaxed);
        loop {
            (*tail).next.store(current, Ordering::Relaxed);
            match self.retired.compare_exchange_weak(
                current,
                head,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => current = now,
            }
        }
    }
}

impl<T: Send> Drop for Pile<T> {
    fn drop(&mut self) {
        // `&mut self`: no guard can be alive, every retired node is ours.
        let head = *self.retired.get_mut();
        if !head.is_null() {
            unsafe { free_chain(head) };
        }
    }
}

impl<T: Send> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        self.pile.stripes[self.stripe]
            .0
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// Frees a detached retire chain.
///
/// # Safety
///
/// The chain must be exclusively owned by the caller and unreachable
/// from any slot or reader.
unsafe fn free_chain<T: Send>(mut head: *mut Node<T>) {
    while !head.is_null() {
        let node = Box::from_raw(head);
        head = node.next.load(Ordering::Relaxed);
    }
}

/// An atomic publication cell: a pointer to the current [`Node`], null
/// for ⊥.
///
/// A `Slot` must always be used with the [`Pile`] of the object that
/// owns it: loads require a guard on that pile, and stores retire the
/// displaced node into it. The modules building on this one keep the
/// pairing a private invariant of each object. All pointer operations
/// are `SeqCst` — the reclamation gate's soundness argument needs the
/// single total order (module docs), and on x86 a `SeqCst` load is a
/// plain load anyway.
#[derive(Debug)]
pub(crate) struct Slot<T: Send> {
    ptr: AtomicPtr<Node<T>>,
    /// The slot owns its current node (and therefore a `T`).
    _owns: PhantomData<Node<T>>,
}

impl<T: Send> Slot<T> {
    pub(crate) fn new() -> Self {
        Self {
            ptr: AtomicPtr::new(ptr::null_mut()),
            _owns: PhantomData,
        }
    }

    /// The raw current pointer; only for identity comparisons (the
    /// double collect). Stable for the lifetime of `guard`: nodes are
    /// never freed while a reader is inside the pile, so distinct
    /// pointers observed under one guard are distinct publications.
    pub(crate) fn load_raw(&self, _guard: &ReadGuard<'_, T>) -> *mut Node<T> {
        self.ptr.load(Ordering::SeqCst)
    }

    /// Dereferences a pointer previously returned by
    /// [`load_raw`](Slot::load_raw) under the same guard.
    pub(crate) fn deref_raw<'g>(raw: *mut Node<T>, _guard: &ReadGuard<'g, T>) -> Option<&'g T> {
        if raw.is_null() {
            None
        } else {
            // Safety: the guard keeps every node published before or
            // during it alive (reclamation gates on the reader count).
            Some(unsafe { &(*raw).value })
        }
    }

    /// Reads the current value under `guard`.
    pub(crate) fn load<'g>(&self, guard: &ReadGuard<'g, T>) -> Option<&'g T> {
        Self::deref_raw(self.load_raw(guard), guard)
    }

    /// Publishes `value` unconditionally (register semantics), retiring
    /// the displaced node onto `pile`. A single swap: wait-free.
    pub(crate) fn store(&self, value: T, pile: &Pile<T>) {
        let node = Node::boxed(value);
        let old = self.ptr.swap(node, Ordering::SeqCst);
        if !old.is_null() {
            pile.retire(old);
        }
    }

    /// Publishes `value` only while `keep(current)` says the current
    /// entry loses to it (max-register semantics): a compare-exchange
    /// loop that retires each displaced node. Returns `true` if the
    /// value was published.
    ///
    /// Lock-free: a failed CAS means another writer published, which is
    /// system-wide progress.
    pub(crate) fn publish_max(
        &self,
        value: T,
        pile: &Pile<T>,
        guard: &ReadGuard<'_, T>,
        mut keep: impl FnMut(&T) -> bool,
    ) -> bool {
        let mut pending = Some(value);
        let mut new: *mut Node<T> = ptr::null_mut();
        let mut current = self.load_raw(guard);
        loop {
            if let Some(cur) = Self::deref_raw(current, guard) {
                if keep(cur) {
                    // The current entry wins; free our unpublished node.
                    if !new.is_null() {
                        // Safety: never published, exclusively ours.
                        drop(unsafe { Box::from_raw(new) });
                    }
                    return false;
                }
            }
            if new.is_null() {
                new = Node::boxed(pending.take().expect("node allocated at most once"));
            }
            match self
                .ptr
                .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(old) => {
                    if !old.is_null() {
                        pile.retire(old);
                    }
                    return true;
                }
                Err(now) => {
                    crate::obs::note_cas_retry();
                    current = now;
                }
            }
        }
    }
}

impl<T: Send> Slot<T> {
    /// Publishes a value derived from the current entry (copy-on-write
    /// semantics): a compare-exchange loop that rebuilds the candidate
    /// from the freshest entry on every conflict, reusing the
    /// candidate's allocation across retries. The displaced node is
    /// retired onto `pile`.
    ///
    /// Lock-free: a failed CAS means another writer published, which is
    /// system-wide progress.
    pub(crate) fn publish_with(
        &self,
        pile: &Pile<T>,
        guard: &ReadGuard<'_, T>,
        mut make: impl FnMut(Option<&T>) -> T,
    ) {
        let mut current = self.load_raw(guard);
        let mut new: *mut Node<T> = ptr::null_mut();
        let mut attempts = 0u32;
        loop {
            let value = make(Self::deref_raw(current, guard));
            if new.is_null() {
                new = Node::boxed(value);
            } else {
                // Safety: never published yet, exclusively ours.
                unsafe { (*new).value = value };
            }
            match self
                .ptr
                .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(old) => {
                    if !old.is_null() {
                        pile.retire(old);
                    }
                    return;
                }
                Err(now) => {
                    crate::obs::note_republish_conflict();
                    current = now;
                    // Bounded backoff: under a write burst, each failed
                    // CAS costs a full `make` rebuild, so a short pause
                    // that lets the winner finish is much cheaper than
                    // immediately re-colliding.
                    for _ in 0..(1u32 << attempts.min(6)) {
                        std::hint::spin_loop();
                    }
                    attempts += 1;
                }
            }
        }
    }
}

impl<T: Clone + Send> Slot<T> {
    /// Reads and clones the current value in one guarded section.
    pub(crate) fn read_cloned(&self, pile: &Pile<T>) -> Option<T> {
        let guard = pile.enter();
        self.load(&guard).cloned()
    }
}

impl<T: Send> Drop for Slot<T> {
    fn drop(&mut self) {
        let current = *self.ptr.get_mut();
        if !current.is_null() {
            // Safety: `&mut self` — no reader can hold this node.
            drop(unsafe { Box::from_raw(current) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn store_and_load_round_trip() {
        let pile = Pile::new();
        let slot = Slot::new();
        let guard = pile.enter();
        assert_eq!(slot.load(&guard), None);
        drop(guard);
        slot.store(41u64, &pile);
        slot.store(42u64, &pile);
        assert_eq!(slot.read_cloned(&pile), Some(42));
    }

    #[test]
    fn publish_max_keeps_winner() {
        let pile = Pile::new();
        let slot: Slot<(u64, &str)> = Slot::new();
        let g = pile.enter();
        assert!(slot.publish_max((5, "five"), &pile, &g, |cur| cur.0 >= 5));
        assert!(!slot.publish_max((3, "three"), &pile, &g, |cur| cur.0 >= 3));
        assert!(slot.publish_max((9, "nine"), &pile, &g, |cur| cur.0 >= 9));
        assert_eq!(slot.load(&g), Some(&(9, "nine")));
    }

    #[test]
    fn guards_keep_displaced_nodes_alive() {
        let pile = Pile::new();
        let slot = Slot::new();
        slot.store(String::from("first"), &pile);
        let guard = pile.enter();
        let held = slot.load(&guard).unwrap();
        slot.store(String::from("second"), &pile);
        // `held` points into the retired node; the guard keeps it valid.
        assert_eq!(held, "first");
        assert_eq!(slot.load(&guard), Some(&String::from("second")));
        drop(guard);
        assert_eq!(slot.read_cloned(&pile), Some(String::from("second")));
    }

    #[test]
    fn drop_counts_are_exact_under_churn() {
        // Every publication's value must be dropped exactly once, no
        // matter how reclamation interleaves with readers.
        struct Counted(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        impl Clone for Counted {
            fn clone(&self) -> Self {
                Counted(Arc::clone(&self.0))
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let published = Arc::new(AtomicUsize::new(0));
        {
            let pile = Arc::new(Pile::new());
            let slot = Arc::new(Slot::new());
            let writers: Vec<_> = (0..4)
                .map(|_| {
                    let (pile, slot) = (Arc::clone(&pile), Arc::clone(&slot));
                    let (drops, published) = (Arc::clone(&drops), Arc::clone(&published));
                    std::thread::spawn(move || {
                        for _ in 0..500 {
                            slot.store(Counted(Arc::clone(&drops)), &pile);
                            published.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    let (pile, slot) = (Arc::clone(&pile), Arc::clone(&slot));
                    std::thread::spawn(move || {
                        for _ in 0..2000 {
                            let guard = pile.enter();
                            let _ = slot.load(&guard);
                        }
                    })
                })
                .collect();
            for h in writers.into_iter().chain(readers) {
                h.join().unwrap();
            }
            // Dropping the slot frees the current node; dropping the
            // pile frees whatever is still retired.
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            published.load(Ordering::SeqCst),
            "every published node dropped exactly once"
        );
    }

    #[test]
    fn seq_cell_concurrent_reads_never_tear() {
        // A register cell must never hand a reader half of one write and
        // half of another; the name dates from the seqlock cell, and the
        // published slot that replaced it keeps the same guarantee.
        let pile = Arc::new(Pile::new());
        let slot: Arc<Slot<(u64, u64)>> = Arc::new(Slot::new());
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let (pile, slot) = (Arc::clone(&pile), Arc::clone(&slot));
                std::thread::spawn(move || {
                    for k in 0..2000 {
                        slot.store((k, k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t), &pile);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (pile, slot) = (Arc::clone(&pile), Arc::clone(&slot));
                std::thread::spawn(move || {
                    for _ in 0..4000 {
                        if let Some((k, tagged)) = slot.read_cloned(&pile) {
                            let t = tagged ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            assert!(t < 4, "torn read: ({k}, {tagged:#x})");
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        let (k, _) = slot.read_cloned(&pile).expect("someone wrote");
        assert_eq!(k, 1999, "final value is some writer's last write");
    }

    #[test]
    fn concurrent_max_publication_is_monotone() {
        let pile = Arc::new(Pile::new());
        let slot: Arc<Slot<u64>> = Arc::new(Slot::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let (pile, slot) = (Arc::clone(&pile), Arc::clone(&slot));
                std::thread::spawn(move || {
                    for k in 0..300 {
                        let key = t * 300 + k;
                        let g = pile.enter();
                        slot.publish_max(key, &pile, &g, |cur| *cur >= key);
                    }
                })
            })
            .collect();
        let reader = {
            let (pile, slot) = (Arc::clone(&pile), Arc::clone(&slot));
            std::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..2000 {
                    if let Some(v) = slot.read_cloned(&pile) {
                        assert!(v >= last, "max went backwards: {last} -> {v}");
                        last = v;
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(slot.read_cloned(&pile), Some(8 * 300 - 1));
    }
}
