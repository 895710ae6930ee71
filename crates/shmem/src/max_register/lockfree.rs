//! Lock-free max register: a compare-exchange loop on a monotone key.

use crate::lockfree::{Pile, Slot};

use sift_sim::Value;

/// A lock-free linearizable max register over any value type.
///
/// The maximum lives in one publication slot; `write` runs a
/// compare-exchange loop that re-reads and re-decides on every
/// conflict, and displaced nodes go through interval-stamp
/// reclamation. The published key sequence is strictly increasing,
/// ties keep the first value (matching the simulator's
/// [`MaxRegister`](sift_sim::max_register::MaxRegister)), and a dropped
/// write linearizes at the load that observed a key at least as large
/// (DESIGN.md, "Linearization points"). Every `u64` is a valid key.
///
/// # Examples
///
/// ```
/// use sift_shmem::max_register::LockFreeMaxRegister;
/// let m = LockFreeMaxRegister::new();
/// m.write(2, 10u64);
/// m.write(9, 90);
/// m.write(4, 40);
/// assert_eq!(m.read(), Some((9, 90)));
/// ```
#[derive(Debug)]
pub struct LockFreeMaxRegister<V: Value> {
    /// Boxed: a `Pile` is ~2 KiB of cache-padded stripes, and the
    /// register stays pointer-sized.
    cell: Box<PublishedMax<V>>,
}

#[derive(Debug)]
struct PublishedMax<V: Value> {
    pile: Pile<(u64, V)>,
    slot: Slot<(u64, V)>,
}

impl<V: Value> LockFreeMaxRegister<V> {
    /// Creates an empty max register.
    pub fn new() -> Self {
        Self {
            cell: Box::new(PublishedMax {
                pile: Pile::new(),
                slot: Slot::new(),
            }),
        }
    }

    /// Writes `(key, value)`, kept only if `key` exceeds the current
    /// maximum.
    pub fn write(&self, key: u64, value: V) {
        let PublishedMax { pile, slot } = &*self.cell;
        let guard = pile.enter();
        slot.publish_max((key, value), pile, &guard, |current| current.0 >= key);
    }

    /// Reads the current maximum entry.
    pub fn read(&self) -> Option<(u64, V)> {
        self.cell.slot.read_cloned(&self.cell.pile)
    }
}

impl<V: Value> Default for LockFreeMaxRegister<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn keeps_maximum_and_first_on_tie() {
        let m = LockFreeMaxRegister::new();
        assert_eq!(m.read(), None);
        m.write(5, 'a');
        m.write(3, 'b');
        m.write(7, 'c');
        m.write(7, 'd');
        assert_eq!(m.read(), Some((7, 'c')));
    }

    #[test]
    fn published_path_keeps_maximum_and_first_on_tie() {
        let m: LockFreeMaxRegister<String> = LockFreeMaxRegister::new();
        assert_eq!(m.read(), None);
        m.write(5, "a".into());
        m.write(3, "b".into());
        m.write(7, "c".into());
        m.write(7, "d".into());
        assert_eq!(m.read(), Some((7, "c".to_string())));
    }

    #[test]
    fn concurrent_writes_keep_global_maximum_and_reads_are_monotone() {
        let m = Arc::new(LockFreeMaxRegister::new());
        let writers: Vec<_> = (0..8u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for k in 0..300 {
                        m.write(t * 300 + k, (t, k));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..2000 {
                        if let Some((key, (t, k))) = m.read() {
                            assert_eq!(key, t * 300 + k, "entry is self-consistent");
                            assert!(key >= last, "max went backwards: {last} -> {key}");
                            last = key;
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert_eq!(m.read(), Some((7 * 300 + 299, (7, 299))));
    }

    #[test]
    fn concurrent_writes_on_published_path_keep_global_maximum() {
        let m: Arc<LockFreeMaxRegister<[u64; 3]>> = Arc::new(LockFreeMaxRegister::new());
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for k in 0..200 {
                        let key = t * 200 + k;
                        m.write(key, [t, k, key]);
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        assert_eq!(m.read(), Some((3 * 200 + 199, [3, 199, 799])));
    }
}
