//! The operation vocabulary of the shared-memory model.
//!
//! A process interacts with shared memory exclusively by issuing one
//! [`Op`] per scheduled step and receiving one [`OpResult`] back. This is
//! the complete operation set of the paper's model (§1.1): atomic
//! multi-writer multi-reader registers, atomic snapshot objects, and max
//! registers (footnote 1).

use std::ops::Deref;
use std::sync::Arc;

use crate::ids::{MaxRegisterId, RegisterId, SnapshotId};
use crate::value::Value;

/// A single shared-memory operation.
///
/// Each variant executes atomically at the moment the issuing process is
/// scheduled, and costs exactly one step in the unit-cost accounting
/// (snapshot scans included, per the paper's unit-cost snapshot model; the
/// [`Memory`](crate::memory::Memory) can optionally charge register-model
/// costs instead).
#[derive(Debug, Clone)]
pub enum Op<V> {
    /// Read a register; yields [`OpResult::RegisterValue`].
    RegisterRead(RegisterId),
    /// Write a register; yields [`OpResult::Ack`].
    RegisterWrite(RegisterId, V),
    /// Update one component of a snapshot object; yields
    /// [`OpResult::Ack`]. The component index is typically the writing
    /// process's id.
    SnapshotUpdate(SnapshotId, usize, V),
    /// Atomically scan a snapshot object; yields
    /// [`OpResult::SnapshotView`].
    SnapshotScan(SnapshotId),
    /// Read the maximum entry of a max register; yields
    /// [`OpResult::MaxValue`].
    MaxRead(MaxRegisterId),
    /// Write a `(key, value)` pair to a max register; retained only if
    /// `key` exceeds the current maximum. Yields [`OpResult::Ack`].
    MaxWrite(MaxRegisterId, u64, V),
}

impl<V> Op<V> {
    /// Returns a short human-readable operation kind, for traces.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::RegisterRead(_) => OpKind::RegisterRead,
            Op::RegisterWrite(_, _) => OpKind::RegisterWrite,
            Op::SnapshotUpdate(_, _, _) => OpKind::SnapshotUpdate,
            Op::SnapshotScan(_) => OpKind::SnapshotScan,
            Op::MaxRead(_) => OpKind::MaxRead,
            Op::MaxWrite(_, _, _) => OpKind::MaxWrite,
        }
    }
}

/// The kind of an [`Op`], without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A register read.
    RegisterRead,
    /// A register write.
    RegisterWrite,
    /// A snapshot component update.
    SnapshotUpdate,
    /// A snapshot scan.
    SnapshotScan,
    /// A max-register read.
    MaxRead,
    /// A max-register write.
    MaxWrite,
}

/// An immutable view of a snapshot object returned by a scan.
///
/// Cloning is `O(1)`: the view shares the underlying vector with the
/// snapshot object via copy-on-write. A process that drops its view before
/// its next step (the common pattern) makes subsequent updates allocation-
/// free; holding a view across steps is allowed and forces at most one
/// copy.
#[derive(Debug, Clone)]
pub struct ScanView<V> {
    components: Arc<Vec<Option<V>>>,
}

impl<V> ScanView<V> {
    pub(crate) fn new(components: Arc<Vec<Option<V>>>) -> Self {
        Self { components }
    }

    /// Builds a view from explicit components (useful in tests and in
    /// alternative runtimes).
    pub fn from_components(components: Vec<Option<V>>) -> Self {
        Self {
            components: Arc::new(components),
        }
    }

    /// Iterates over `(component, value)` pairs for non-empty components.
    pub fn present(&self) -> impl Iterator<Item = (usize, &V)> {
        self.components
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (i, v)))
    }
}

impl<V> Deref for ScanView<V> {
    type Target = [Option<V>];

    fn deref(&self) -> &Self::Target {
        &self.components
    }
}

/// The result of executing an [`Op`].
#[derive(Debug, Clone)]
pub enum OpResult<V> {
    /// Acknowledgement of a write or update.
    Ack,
    /// Value read from a register; `None` is the initial ⊥.
    RegisterValue(Option<V>),
    /// Atomic view returned by a snapshot scan.
    SnapshotView(ScanView<V>),
    /// Current maximum `(key, value)` of a max register; `None` if never
    /// written.
    MaxValue(Option<(u64, V)>),
}

impl<V: Value> OpResult<V> {
    /// Extracts a register read result.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::RegisterValue`]; this
    /// indicates a protocol state-machine bug (an op/result mismatch), not
    /// a runtime condition.
    pub fn expect_register(self) -> Option<V> {
        match self {
            OpResult::RegisterValue(v) => v,
            other => panic!("expected register value, got {other:?}"),
        }
    }

    /// Extracts a snapshot scan result.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::SnapshotView`].
    pub fn expect_view(self) -> ScanView<V> {
        match self {
            OpResult::SnapshotView(view) => view,
            other => panic!("expected snapshot view, got {other:?}"),
        }
    }

    /// Extracts a max-register read result.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::MaxValue`].
    pub fn expect_max(self) -> Option<(u64, V)> {
        match self {
            OpResult::MaxValue(v) => v,
            other => panic!("expected max value, got {other:?}"),
        }
    }

    /// Extracts a write acknowledgement.
    ///
    /// # Panics
    ///
    /// Panics if the result is not [`OpResult::Ack`].
    pub fn expect_ack(self) {
        match self {
            OpResult::Ack => {}
            other => panic!("expected ack, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{RegisterId, SnapshotId};

    #[test]
    fn op_kind_matches() {
        assert_eq!(
            Op::RegisterWrite(RegisterId(0), 1u32).kind(),
            OpKind::RegisterWrite
        );
        assert_eq!(
            Op::<u32>::SnapshotScan(SnapshotId(2)).kind(),
            OpKind::SnapshotScan
        );
    }

    #[test]
    fn scan_view_present_filters_nulls() {
        let view = ScanView::from_components(vec![None, Some(7u32), None, Some(9)]);
        let present: Vec<(usize, u32)> = view.present().map(|(i, &v)| (i, v)).collect();
        assert_eq!(present, vec![(1, 7), (3, 9)]);
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
    }

    #[test]
    fn result_extractors() {
        assert_eq!(
            OpResult::RegisterValue(Some(3u32)).expect_register(),
            Some(3)
        );
        OpResult::<u32>::Ack.expect_ack();
        assert_eq!(
            OpResult::MaxValue(Some((5, 8u32))).expect_max(),
            Some((5, 8))
        );
        let view =
            OpResult::SnapshotView(ScanView::from_components(vec![Some(1u32)])).expect_view();
        assert_eq!(view.len(), 1);
    }

    #[test]
    #[should_panic(expected = "expected register value")]
    fn extractor_mismatch_panics() {
        OpResult::<u32>::Ack.expect_register();
    }
}
