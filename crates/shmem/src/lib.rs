//! # sift-shmem — threaded shared-memory substrate
//!
//! Real-thread counterparts of the simulator's shared objects, plus a
//! runtime that drives the same [`Process`](sift_sim::Process) state
//! machines on OS threads:
//!
//! * [`memory::AtomicMemory`] + [`runtime::drive_threads`] — instantiate
//!   a protocol's [`Layout`](sift_sim::Layout) as the model's own
//!   objects, one lock each, and run its participants on threads.
//!   [`ExecuteOps`] is also implemented for
//!   `Mutex<sift_sim::Memory<V>>`, the whole model under one lock: the
//!   one reference the test suites check `AtomicMemory` against.
//! * [`snapshot::WaitFreeSnapshot`] — the Afek et al. construction from
//!   single-writer registers, the one the paper's unit-cost accounting
//!   abstracts away.
//! * [`max_register::TreeMaxRegister`] — the switch-trie construction
//!   from monotone circuits (footnote 1's object, built from plain
//!   bits).
//!
//! Statistical claims are measured on the simulator, where the adversary
//! is controlled; this crate shows the algorithms running on real
//! threads. Wall-clock cost is measured in one place, the ledger under
//! `benchmark/`, whose `shmem-persona` workload times this crate.
//!
//! The crate's only `unsafe` is the tiny [`affinity`] module (one raw
//! `sched_setaffinity` syscall for the ledger's core pinning);
//! everything else forbids it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod affinity;
pub mod history;
pub mod max_register;
pub mod memory;
pub mod runtime;
pub mod snapshot;

pub use history::RecordingMemory;
pub use memory::{AtomicMemory, ExecuteOps};
pub use runtime::{
    drive_threads, run_lockstep_on, run_lockstep_recorded, run_script_on, run_threads_recorded,
    ThreadReport,
};
