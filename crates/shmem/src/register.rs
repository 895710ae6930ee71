//! Linearizable multi-writer multi-reader registers for real threads.

use crate::lockfree::{Pile, Slot};

use sift_sim::Value;

/// A lock-free MWMR register over any value type.
///
/// Writes publish an immutable heap node with a single swap
/// (wait-free), reads dereference and clone under a reader guard, and
/// displaced nodes go through interval-stamp reclamation. A write
/// linearizes at its swap, a read at its pointer load (DESIGN.md,
/// "Linearization points").
///
/// # Examples
///
/// ```
/// use sift_shmem::register::LockFreeRegister;
/// let r: LockFreeRegister<String> = LockFreeRegister::new();
/// assert_eq!(r.read(), None);
/// r.write("hello".to_string());
/// assert_eq!(r.read(), Some("hello".to_string()));
/// ```
#[derive(Debug)]
pub struct LockFreeRegister<V: Value> {
    /// Boxed: a `Pile` is ~2 KiB of cache-padded stripes, and the
    /// register stays pointer-sized.
    cell: Box<Published<V>>,
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
        Self {
            cell: Box::new(Published {
                pile: Pile::new(),
                slot: Slot::new(),
            }),
        }
    }

    /// Reads the register (`None` is ⊥).
    pub fn read(&self) -> Option<V> {
        self.cell.slot.read_cloned(&self.cell.pile)
    }

    /// Writes `value`.
    pub fn write(&self, value: V) {
        self.cell.slot.store(value, &self.cell.pile);
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
