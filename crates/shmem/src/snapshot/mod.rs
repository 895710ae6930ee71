//! Snapshot objects for real threads.
//!
//! Three implementations of the same linearizable scan/update interface:
//!
//! * [`LockFreeSnapshot`] — optimistic double collect over lock-free
//!   publication cells, with an `O(1)` cached-view fast path for
//!   quiescent scans and a bounded helping fallback under sustained
//!   interference. What the runtime uses by default.
//! * [`CoarseSnapshot`] — a reader-writer lock around the component
//!   vector. Simple and obviously linearizable; kept as the reference
//!   implementation ([`CoarseMemory`](crate::memory::CoarseMemory)
//!   assembles it; the test suites run over both memories, and
//!   `benches/substrate.rs` times it beside the lock-free one).
//! * [`WaitFreeSnapshot`] — the classic Afek et al. construction from
//!   single-writer registers (double collect with embedded-scan
//!   helping). Built here to demonstrate that the model's snapshot
//!   object is implementable from registers alone; its operations cost
//!   `O(n)` register accesses, which is exactly the gap the paper's
//!   "unit-cost snapshot" accounting abstracts away (and which the
//!   simulator's `CostModel::RegisterImplemented` charges).

mod coarse;
mod lockfree;
mod waitfree;

pub use coarse::CoarseSnapshot;
pub use lockfree::LockFreeSnapshot;
pub use waitfree::WaitFreeSnapshot;
