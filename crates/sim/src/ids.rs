//! Typed identifiers for processes and shared-memory objects.
//!
//! All identifiers are plain indices wrapped in newtypes so that a register
//! id can never be confused with a snapshot id at compile time
//! (C-NEWTYPE). Objects are allocated through
//! [`LayoutBuilder`](crate::layout::LayoutBuilder), which hands out dense
//! ids starting at zero.

use core::fmt;

/// Identifier of a simulated process, in `0..n`.
///
/// # Examples
///
/// ```
/// use sift_sim::ProcessId;
/// let p = ProcessId(3);
/// assert_eq!(p.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

macro_rules! object_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) usize);

        impl $name {
            /// Returns the underlying dense index.
            pub fn index(self) -> usize {
                self.0
            }

            /// Builds an id from a raw dense index: how
            /// [`LayoutBuilder`](crate::layout::LayoutBuilder) mints ids.
            pub(crate) fn from_index(index: usize) -> Self {
                Self(index)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

object_id!(
    /// Identifier of a multi-writer multi-reader atomic register.
    RegisterId,
    "r"
);

object_id!(
    /// Identifier of an atomic snapshot object.
    SnapshotId,
    "s"
);

object_id!(
    /// Identifier of a max register (see paper footnote 1).
    MaxRegisterId,
    "m"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(ProcessId(2).to_string(), "p2");
        assert_eq!(RegisterId(0).to_string(), "r0");
        assert_eq!(SnapshotId(1).to_string(), "s1");
        assert_eq!(MaxRegisterId(7).to_string(), "m7");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(RegisterId(1));
        set.insert(RegisterId(1));
        set.insert(RegisterId(2));
        assert_eq!(set.len(), 2);
        assert!(RegisterId(1) < RegisterId(2));
    }

    #[test]
    fn from_index_round_trips() {
        assert_eq!(RegisterId::from_index(9).index(), 9);
        assert_eq!(SnapshotId::from_index(3).index(), 3);
        assert_eq!(MaxRegisterId::from_index(4).index(), 4);
    }
}
