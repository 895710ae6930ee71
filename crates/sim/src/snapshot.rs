//! Atomic snapshot objects for the simulator.
//!
//! A snapshot object holds one component per process. `update(i, v)` sets
//! component `i`; `scan()` returns an atomic view of all components. In
//! the paper's *unit-cost snapshot model* (§2) a scan costs one step; the
//! [`Memory`](crate::memory::Memory) cost model can alternatively charge
//! `n` steps per scan to model a register-based implementation.
//!
//! Scans are O(1) amortized: the component vector lives behind an
//! [`Arc`] and scans hand out shared views; an update copies the vector
//! only if a view from an earlier scan is still alive (copy-on-write).

use std::sync::Arc;

use crate::op::ScanView;
use crate::value::Value;

/// An atomic snapshot object with a fixed number of components.
///
/// # Examples
///
/// ```
/// use sift_sim::snapshot::SnapshotObject;
/// let mut s = SnapshotObject::new(3);
/// s.update(1, "b");
/// let view = s.scan();
/// assert_eq!(view[1], Some("b"));
/// assert_eq!(view[0], None);
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotObject<V> {
    /// Lazily allocated so that layouts with many large snapshot objects
    /// (e.g. one per round per consensus phase) only pay for the rounds
    /// actually reached.
    components: Option<Arc<Vec<Option<V>>>>,
    len: usize,
    updates: u64,
    scans: u64,
}

impl<V: Value> SnapshotObject<V> {
    /// Creates a snapshot object with `len` components, all ⊥.
    pub fn new(len: usize) -> Self {
        Self {
            components: None,
            len,
            updates: 0,
            scans: 0,
        }
    }

    /// Number of components.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn materialize(&mut self) -> &mut Arc<Vec<Option<V>>> {
        if self.components.is_none() {
            self.components = Some(Arc::new(vec![None; self.len]));
        }
        self.components.as_mut().expect("just materialized")
    }

    /// Sets component `component` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `component >= self.len()`.
    pub fn update(&mut self, component: usize, value: V) {
        assert!(
            component < self.len,
            "snapshot component {component} out of range 0..{}",
            self.len
        );
        self.updates += 1;
        let arc = self.materialize();
        Arc::make_mut(arc)[component] = Some(value);
    }

    /// Returns an atomic view of all components.
    pub fn scan(&mut self) -> ScanView<V> {
        self.scans += 1;
        let arc = self.materialize();
        ScanView::new(Arc::clone(arc))
    }

    /// Returns the object to its freshly constructed state: every
    /// component ⊥, both operation counts zero. The component vector is
    /// cleared in place when no [`ScanView`] still shares it — its
    /// allocation then serves the next run — and dropped otherwise, so
    /// a view taken before the reset keeps reading what it scanned.
    pub fn reset(&mut self) {
        self.updates = 0;
        self.scans = 0;
        if let Some(arc) = &mut self.components {
            match Arc::get_mut(arc) {
                Some(components) => components.fill(None),
                None => self.components = None,
            }
        }
    }

    /// Number of update operations executed.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Number of scan operations executed.
    pub fn scan_count(&self) -> u64 {
        self.scans
    }

    /// Returns `true` if the component vector has been allocated.
    pub fn is_materialized(&self) -> bool {
        self.components.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_then_scan() {
        let mut s = SnapshotObject::new(4);
        s.update(2, 9u32);
        let v = s.scan();
        assert_eq!(&v[..], &[None, None, Some(9), None]);
    }

    #[test]
    fn scans_are_immutable_views() {
        let mut s = SnapshotObject::new(2);
        s.update(0, 1u32);
        let v1 = s.scan();
        s.update(1, 2u32);
        let v2 = s.scan();
        // The old view must not observe the later update (atomicity).
        assert_eq!(&v1[..], &[Some(1), None]);
        assert_eq!(&v2[..], &[Some(1), Some(2)]);
    }

    #[test]
    fn views_nest() {
        // Views from successive scans form a chain: each is a sub-view of
        // the next (monotone component-wise, since components here are
        // written at most once).
        let mut s = SnapshotObject::new(3);
        let mut views = Vec::new();
        for i in 0..3 {
            s.update(i, i as u32);
            views.push(s.scan());
        }
        for w in views.windows(2) {
            for (earlier, later) in w[0].iter().zip(w[1].iter()) {
                if earlier.is_some() {
                    assert_eq!(earlier, later);
                }
            }
        }
    }

    #[test]
    fn lazy_materialization() {
        let s: SnapshotObject<u64> = SnapshotObject::new(1_000_000);
        assert!(!s.is_materialized());
        let mut s = s;
        let _ = s.scan();
        assert!(s.is_materialized());
    }

    #[test]
    fn counts_ops() {
        let mut s = SnapshotObject::new(2);
        s.update(0, 1u8);
        let _ = s.scan();
        let _ = s.scan();
        assert_eq!(s.update_count(), 1);
        assert_eq!(s.scan_count(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_out_of_range_panics() {
        let mut s = SnapshotObject::new(2);
        s.update(2, 1u8);
    }
}
