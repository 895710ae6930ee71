//! Snapshot objects for real threads.
//!
//! [`WaitFreeSnapshot`] is the classic Afek et al. construction from
//! single-writer registers (double collect with embedded-scan helping).
//! Built here to demonstrate that the model's snapshot object is
//! implementable from registers alone; its operations cost `O(n)`
//! register accesses, which is exactly the gap the paper's "unit-cost
//! snapshot" accounting abstracts away (and which the simulator's
//! `CostModel::RegisterImplemented` charges).
//! [`AtomicMemory`](crate::memory::AtomicMemory) serves the model's own
//! snapshot object under a lock instead.
//!
//! # Examples
//!
//! ```
//! use sift_shmem::{snapshot::WaitFreeSnapshot, AtomicMemory};
//! use sift_sim::{LayoutBuilder, Op};
//!
//! let mut b = LayoutBuilder::new();
//! let s = b.snapshot(3);
//! let mem: AtomicMemory<u32> = AtomicMemory::new(&b.build());
//! mem.execute(Op::SnapshotUpdate(s, 1, 7)).expect_ack();
//! let view = mem.execute(Op::SnapshotScan(s)).expect_view();
//! assert_eq!(&view[..], &[None, Some(7), None]);
//!
//! let snap = WaitFreeSnapshot::new(3);
//! snap.update(1, 7u32);
//! assert_eq!(&snap.scan()[..], &view[..]);
//! ```

mod waitfree;

pub use waitfree::WaitFreeSnapshot;
