//! Wait-free atomic snapshot from single-writer registers
//! (Afek, Attiya, Dolev, Gafni, Merritt, Shavit 1993).
//!
//! Each writer owns one register holding its current value, a sequence
//! number, and the *embedded view* it obtained by scanning before its
//! write. A scanner repeatedly collects all registers:
//!
//! * two identical consecutive collects (no sequence number moved) form
//!   a **clean double collect** — the common snapshot is returned;
//! * otherwise some writer moved; a writer seen moving **twice** wrote
//!   its register entirely within the scan's interval, so its embedded
//!   view is a valid snapshot inside the interval and is *borrowed*.
//!
//! By pigeonhole one of the two happens within `n + 2` collects, so
//! scans are wait-free with `O(n²)` register reads — the cost the
//! paper's unit-cost snapshot model abstracts to 1 (compare the
//! simulator's `CostModel::RegisterImplemented`).
//!
//! The registers are [`LockFreeRegister`]s. An entry carries a view, so
//! it takes the published path: a write is one pointer swap and a read
//! takes no lock. No operation waits on another thread's lock; the
//! collect bound above counts register operations, each exactly as
//! non-blocking as the register.

use sift_sim::{ScanView, Value};

use crate::register::LockFreeRegister;

#[derive(Debug, Clone)]
struct Entry<V> {
    value: Option<V>,
    seq: u64,
    view: Option<ScanView<V>>,
}

impl<V> Default for Entry<V> {
    fn default() -> Self {
        Self {
            value: None,
            seq: 0,
            view: None,
        }
    }
}

/// A wait-free snapshot object over `n` single-writer registers.
///
/// Component `i` may only be updated by the thread acting as writer `i`
/// (single-writer discipline; enforced only by convention, as in the
/// original construction).
///
/// # Examples
///
/// ```
/// use sift_shmem::snapshot::WaitFreeSnapshot;
/// let s: WaitFreeSnapshot<u32> = WaitFreeSnapshot::new(2);
/// s.update(0, 10);
/// s.update(1, 20);
/// let view = s.scan();
/// assert_eq!(view[0], Some(10));
/// assert_eq!(view[1], Some(20));
/// ```
#[derive(Debug)]
pub struct WaitFreeSnapshot<V: Value> {
    registers: Vec<LockFreeRegister<Entry<V>>>,
}

impl<V: Value> WaitFreeSnapshot<V> {
    /// Creates a snapshot object with `len` components, all ⊥.
    pub fn new(len: usize) -> Self {
        Self {
            registers: (0..len).map(|_| LockFreeRegister::new()).collect(),
        }
    }

    fn collect(&self) -> Vec<Entry<V>> {
        self.registers
            .iter()
            .map(|r| r.read().unwrap_or_default())
            .collect()
    }

    /// Sets component `component` to `value` (single-writer: only one
    /// thread may update a given component).
    ///
    /// # Panics
    ///
    /// Panics if `component` is out of range.
    pub fn update(&self, component: usize, value: V) {
        let view = self.scan();
        let seq = self.registers[component].read().map(|e| e.seq).unwrap_or(0);
        self.registers[component].write(Entry {
            value: Some(value),
            seq: seq + 1,
            view: Some(view),
        });
    }

    /// Returns a linearizable view of all components.
    pub fn scan(&self) -> ScanView<V> {
        let n = self.registers.len();
        let mut moved = vec![0u32; n];
        let mut previous = self.collect();
        loop {
            let current = self.collect();
            if previous
                .iter()
                .zip(current.iter())
                .all(|(a, b)| a.seq == b.seq)
            {
                // Clean double collect.
                return ScanView::from_components(current.into_iter().map(|e| e.value).collect());
            }
            for (j, (a, b)) in previous.iter().zip(current.iter()).enumerate() {
                if a.seq != b.seq {
                    moved[j] += 1;
                    if moved[j] >= 2 {
                        // Writer j performed a complete update inside our
                        // interval: borrow its embedded view.
                        if let Some(view) = &b.view {
                            return view.clone();
                        }
                    }
                }
            }
            previous = current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        let s = WaitFreeSnapshot::new(3);
        assert_eq!(&s.scan()[..], &[None, None, None]);
        s.update(2, 7u32);
        s.update(0, 5u32);
        assert_eq!(&s.scan()[..], &[Some(5), None, Some(7)]);
    }

    #[test]
    fn updates_overwrite_own_component() {
        let s = WaitFreeSnapshot::new(1);
        s.update(0, 1u32);
        s.update(0, 2u32);
        assert_eq!(s.scan()[0], Some(2));
    }

    #[test]
    fn concurrent_scans_see_monotone_component_histories() {
        // Writer thread increments its component; scanner threads verify
        // that observed values never decrease (regularity implied by
        // linearizability for a single writer).
        let s = Arc::new(WaitFreeSnapshot::new(2));
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for v in 0..2000u32 {
                    s.update(0, v);
                }
            })
        };
        let scanners: Vec<_> = (0..3)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut last = None::<u32>;
                    for _ in 0..500 {
                        let view = s.scan();
                        let v = view[0];
                        if let (Some(prev), Some(cur)) = (last, v) {
                            assert!(cur >= prev, "component went backwards: {prev} -> {cur}");
                        }
                        if v.is_some() {
                            last = v;
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for h in scanners {
            h.join().unwrap();
        }
    }

    #[test]
    fn two_writers_and_scanners_produce_consistent_views() {
        // Views must be "comparable" in the single-object partial order:
        // for single-writer components with increasing values, any two
        // views are component-wise ordered one way or the other.
        let s = Arc::new(WaitFreeSnapshot::new(2));
        let writers: Vec<_> = (0..2usize)
            .map(|i| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for v in 0..1500u32 {
                        s.update(i, v);
                    }
                })
            })
            .collect();
        let scanner = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut views = Vec::new();
                for _ in 0..300 {
                    let view = s.scan();
                    views.push([view[0], view[1]]);
                }
                views
            })
        };
        for h in writers {
            h.join().unwrap();
        }
        let views = scanner.join().unwrap();
        let key = |x: Option<u32>| x.map(|v| v as i64 + 1).unwrap_or(0);
        for w in views.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Later scans by the same thread must dominate earlier ones.
            assert!(
                key(b[0]) >= key(a[0]) && key(b[1]) >= key(a[1]),
                "scan order violated: {a:?} then {b:?}"
            );
        }
    }
}
