//! Linearizable multi-writer multi-reader registers for real threads.

use crate::lockfree::{inline_ok, Pile, SeqCell, Slot};

use sift_sim::Value;

/// A lock-free MWMR register over any value type, with an
/// allocation-free inline fast path for small payloads.
///
/// The representation is chosen once, at construction, from the value
/// type (the branch is const-foldable, so each monomorphization
/// compiles to a single path):
///
/// * **Inline** — values that fit 16 bytes and have no destructor live
///   directly in a seqlock cell (`SeqCell` in the `lockfree` module):
///   writes are a claim CAS plus plain stores, reads are pure loads
///   with sequence validation. No allocation, no node retirement, no
///   reader guards anywhere on the path. Writes linearize at the
///   sequence publish store, reads at the first sequence load of the
///   validated attempt.
/// * **Published** — larger or `Drop`-carrying values keep the original
///   pointer-publication path: writes publish an immutable heap node
///   with a single swap (wait-free), reads dereference and clone under
///   a reader guard, and displaced nodes go through interval-stamp
///   reclamation. A write linearizes at its swap, a read at its pointer
///   load.
///
/// On the inline path writers serialize on the claim word (a stalled
/// mid-publication writer delays other writers and makes readers of
/// that cell retry); the published path keeps the stronger lock-free
/// guarantee. DESIGN.md ("Inline seqlock registers") argues the
/// linearizability of both.
///
/// # Examples
///
/// ```
/// use sift_shmem::register::LockFreeRegister;
/// let r: LockFreeRegister<String> = LockFreeRegister::new();
/// assert_eq!(r.read(), None);
/// r.write("hello".to_string());
/// assert_eq!(r.read(), Some("hello".to_string()));
///
/// let small: LockFreeRegister<(u64, u64)> = LockFreeRegister::new();
/// assert!(small.is_inline());
/// small.write((1, 2));
/// assert_eq!(small.read(), Some((1, 2)));
/// ```
#[derive(Debug)]
pub struct LockFreeRegister<V: Value> {
    repr: Repr<V>,
}

/// The two register representations. `Published` is boxed so an inline
/// register stays a cache-line pair instead of carrying a dormant
/// `Pile` (which is ~2 KiB of stripes) in its footprint.
#[derive(Debug)]
enum Repr<V: Value> {
    Inline(SeqCell<V>),
    Published(Box<Published<V>>),
}

#[derive(Debug)]
struct Published<V: Value> {
    pile: Pile<V>,
    slot: Slot<V>,
}

impl<V: Value> Default for LockFreeRegister<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Value> LockFreeRegister<V> {
    /// Creates a register holding ⊥.
    pub fn new() -> Self {
        let repr = if inline_ok::<V>() {
            Repr::Inline(SeqCell::new())
        } else {
            Repr::Published(Box::new(Published {
                pile: Pile::new(),
                slot: Slot::new(),
            }))
        };
        Self { repr }
    }

    /// Whether this register uses the inline seqlock path (diagnostic;
    /// decided by the value type at construction).
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Reads the register (`None` is ⊥).
    pub fn read(&self) -> Option<V> {
        match &self.repr {
            Repr::Inline(cell) => cell.read(),
            Repr::Published(p) => p.slot.read_cloned(&p.pile),
        }
    }

    /// Writes `value`.
    pub fn write(&self, value: V) {
        match &self.repr {
            Repr::Inline(cell) => cell.write(value),
            Repr::Published(p) => p.slot.store(value, &p.pile),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_free_register_round_trip() {
        let r: LockFreeRegister<String> = LockFreeRegister::new();
        assert_eq!(r.read(), None);
        r.write("a".to_string());
        r.write("b".to_string());
        assert_eq!(r.read(), Some("b".to_string()));
    }

    #[test]
    fn representation_follows_value_type() {
        // Small trivially-destructible payloads take the inline path.
        assert!(LockFreeRegister::<u64>::new().is_inline());
        assert!(LockFreeRegister::<(u64, u64)>::new().is_inline());
        assert!(LockFreeRegister::<[u8; 16]>::new().is_inline());
        // Oversized or Drop-carrying payloads keep pointer publication.
        assert!(!LockFreeRegister::<String>::new().is_inline());
        assert!(!LockFreeRegister::<[u64; 3]>::new().is_inline());
    }

    #[test]
    fn oversized_published_path_round_trips() {
        let r: LockFreeRegister<[u64; 3]> = LockFreeRegister::new();
        assert_eq!(r.read(), None);
        r.write([1, 2, 3]);
        r.write([4, 5, 6]);
        assert_eq!(r.read(), Some([4, 5, 6]));
    }

    #[test]
    fn concurrent_lock_free_writers_leave_some_written_value() {
        let r = Arc::new(LockFreeRegister::new());
        let writers: Vec<_> = (0..8u64)
            .map(|i| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for k in 0..500 {
                        r.write((i, k));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        if let Some((i, k)) = r.read() {
                            assert!(i < 8 && k < 500, "read a torn or foreign value");
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        let (_, k) = r.read().expect("someone wrote");
        assert_eq!(k, 499, "final value is some writer's last write");
    }
}
