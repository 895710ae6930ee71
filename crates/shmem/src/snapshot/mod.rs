//! Snapshot objects for real threads.
//!
//! Two implementations of the same linearizable scan/update interface:
//!
//! * [`LockFreeSnapshot`] — versioned copy-on-write publication with
//!   `O(1)` wait-free scans. What
//!   [`AtomicMemory`](crate::memory::AtomicMemory) uses; the suites
//!   check it against the model's snapshot under one lock.
//! * [`WaitFreeSnapshot`] — the classic Afek et al. construction from
//!   single-writer registers (double collect with embedded-scan
//!   helping), over lock-free registers. Built here to demonstrate that
//!   the model's snapshot object is implementable from registers alone;
//!   its operations cost `O(n)` register accesses, which is exactly the
//!   gap the paper's "unit-cost snapshot" accounting abstracts away (and
//!   which the simulator's `CostModel::RegisterImplemented` charges).

mod lockfree;
mod waitfree;

pub use lockfree::LockFreeSnapshot;
pub use waitfree::WaitFreeSnapshot;
