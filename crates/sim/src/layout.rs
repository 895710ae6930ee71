//! Declarative description of a protocol's shared-memory footprint.
//!
//! Protocols declare the objects they need through a [`LayoutBuilder`],
//! which hands out typed ids. Both the simulator
//! ([`Memory`](crate::memory::Memory)) and alternative runtimes (such as
//! the threaded runtime in `sift-shmem`) instantiate their object arenas
//! from the resulting [`Layout`], so a protocol written once runs
//! anywhere.

use crate::ids::{MaxRegisterId, RegisterId, SnapshotId};

/// An allocator of typed object ids.
///
/// # Examples
///
/// ```
/// use sift_sim::layout::LayoutBuilder;
/// let mut b = LayoutBuilder::new();
/// let proposal = b.register();
/// let rounds = b.registers(4);
/// let arr = b.snapshot(8);
/// let layout = b.build();
/// assert_eq!(layout.register_count(), 5);
/// assert_eq!(layout.snapshot_components(), &[8]);
/// assert_eq!(proposal.index(), 0);
/// assert_eq!(rounds[0].index(), 1);
/// assert_eq!(arr.index(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LayoutBuilder {
    registers: usize,
    snapshots: Vec<usize>,
    max_registers: usize,
}

impl LayoutBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates one register (initially ⊥).
    pub fn register(&mut self) -> RegisterId {
        let id = RegisterId(self.registers);
        self.registers += 1;
        id
    }

    /// Allocates `count` consecutive registers.
    pub fn registers(&mut self, count: usize) -> Vec<RegisterId> {
        (0..count).map(|_| self.register()).collect()
    }

    /// Allocates a snapshot object with `components` components.
    pub fn snapshot(&mut self, components: usize) -> SnapshotId {
        let id = SnapshotId(self.snapshots.len());
        self.snapshots.push(components);
        id
    }

    /// Allocates `count` snapshot objects, each with `components`
    /// components.
    pub fn snapshots(&mut self, count: usize, components: usize) -> Vec<SnapshotId> {
        (0..count).map(|_| self.snapshot(components)).collect()
    }

    /// Allocates one max register.
    pub fn max_register(&mut self) -> MaxRegisterId {
        let id = MaxRegisterId(self.max_registers);
        self.max_registers += 1;
        id
    }

    /// Allocates `count` max registers.
    pub fn max_registers(&mut self, count: usize) -> Vec<MaxRegisterId> {
        (0..count).map(|_| self.max_register()).collect()
    }

    /// Finalizes the layout.
    pub fn build(self) -> Layout {
        Layout {
            registers: self.registers,
            snapshots: self.snapshots,
            max_registers: self.max_registers,
        }
    }
}

/// The shared-memory footprint of a protocol instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layout {
    registers: usize,
    snapshots: Vec<usize>,
    max_registers: usize,
}

impl Layout {
    /// Number of registers.
    pub fn register_count(&self) -> usize {
        self.registers
    }

    /// Component counts of each snapshot object, indexed by
    /// [`SnapshotId`].
    pub fn snapshot_components(&self) -> &[usize] {
        &self.snapshots
    }

    /// Number of max registers.
    pub fn max_register_count(&self) -> usize {
        self.max_registers
    }

    /// Merges another layout after this one, returning the id offsets at
    /// which the other layout's objects begin.
    ///
    /// Composite protocols (e.g. a conciliator plus an adopt-commit
    /// object) build their layout by appending sub-layouts and shifting
    /// the sub-protocol ids by the returned offsets.
    #[cfg(test)]
    pub(crate) fn append(&mut self, other: &Layout) -> LayoutOffsets {
        let offsets = LayoutOffsets {
            registers: self.registers,
            snapshots: self.snapshots.len(),
            max_registers: self.max_registers,
        };
        self.registers += other.registers;
        self.snapshots.extend_from_slice(&other.snapshots);
        self.max_registers += other.max_registers;
        offsets
    }
}

/// Id offsets returned by [`Layout::append`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LayoutOffsets {
    /// Offset to add to the appended layout's register indices.
    pub registers: usize,
    /// Offset to add to the appended layout's snapshot indices.
    pub snapshots: usize,
    /// Offset to add to the appended layout's max-register indices.
    pub max_registers: usize,
}

#[cfg(test)]
impl LayoutOffsets {
    /// Identity offsets (no shift).
    pub(crate) fn zero() -> Self {
        Self {
            registers: 0,
            snapshots: 0,
            max_registers: 0,
        }
    }

    /// Shifts a register id allocated against the appended layout.
    pub(crate) fn register(&self, id: RegisterId) -> RegisterId {
        RegisterId(id.index() + self.registers)
    }

    /// Shifts a snapshot id allocated against the appended layout.
    pub(crate) fn snapshot(&self, id: SnapshotId) -> SnapshotId {
        SnapshotId(id.index() + self.snapshots)
    }

    /// Shifts a max-register id allocated against the appended layout.
    pub(crate) fn max_register(&self, id: MaxRegisterId) -> MaxRegisterId {
        MaxRegisterId(id.index() + self.max_registers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_allocates_dense_ids() {
        let mut b = LayoutBuilder::new();
        assert_eq!(b.register().index(), 0);
        assert_eq!(b.register().index(), 1);
        assert_eq!(b.snapshot(3).index(), 0);
        assert_eq!(b.snapshot(5).index(), 1);
        assert_eq!(b.max_register().index(), 0);
        let layout = b.build();
        assert_eq!(layout.register_count(), 2);
        assert_eq!(layout.snapshot_components(), &[3, 5]);
        assert_eq!(layout.max_register_count(), 1);
    }

    #[test]
    fn bulk_allocations() {
        let mut b = LayoutBuilder::new();
        let rs = b.registers(3);
        let ss = b.snapshots(2, 7);
        let ms = b.max_registers(2);
        assert_eq!(rs.len(), 3);
        assert_eq!(ss.len(), 2);
        assert_eq!(ms.len(), 2);
        let layout = b.build();
        assert_eq!(layout.register_count(), 3);
        assert_eq!(layout.snapshot_components(), &[7, 7]);
        assert_eq!(layout.max_register_count(), 2);
    }

    #[test]
    fn append_shifts_ids() {
        let mut outer = LayoutBuilder::new();
        outer.registers(2);
        outer.snapshot(4);
        let mut outer = outer.build();

        let mut inner = LayoutBuilder::new();
        let r = inner.register();
        let s = inner.snapshot(9);
        let m = inner.max_register();
        let inner = inner.build();

        let off = outer.append(&inner);
        assert_eq!(off.register(r).index(), 2);
        assert_eq!(off.snapshot(s).index(), 1);
        assert_eq!(off.max_register(m).index(), 0);
        assert_eq!(outer.register_count(), 3);
        assert_eq!(outer.snapshot_components(), &[4, 9]);
    }

    #[test]
    fn zero_offsets_are_identity() {
        let off = LayoutOffsets::zero();
        assert_eq!(off.register(RegisterId(3)).index(), 3);
        assert_eq!(off.snapshot(SnapshotId(2)).index(), 2);
        assert_eq!(off.max_register(MaxRegisterId(1)).index(), 1);
    }
}
