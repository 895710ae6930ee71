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
        let id = RegisterId::from_index(self.registers);
        self.registers += 1;
        id
    }

    /// Allocates `count` consecutive registers.
    pub fn registers(&mut self, count: usize) -> Vec<RegisterId> {
        (0..count).map(|_| self.register()).collect()
    }

    /// Allocates a snapshot object with `components` components.
    pub fn snapshot(&mut self, components: usize) -> SnapshotId {
        let id = SnapshotId::from_index(self.snapshots.len());
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
        let id = MaxRegisterId::from_index(self.max_registers);
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
}
