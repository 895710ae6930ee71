//! # sift-shmem — threaded shared-memory substrate
//!
//! Real-thread counterparts of the simulator's shared objects, plus a
//! runtime that drives the same [`Process`](sift_sim::Process) state
//! machines on OS threads:
//!
//! * [`register::LockFreeRegister`] — lock-free linearizable MWMR
//!   register: pointer publication with interval-stamp reclamation.
//! * [`snapshot::LockFreeSnapshot`] — lock-free snapshot: versioned
//!   copy-on-write publication with `O(1)` wait-free scans.
//!   [`snapshot::WaitFreeSnapshot`] is the Afek et al. construction
//!   from single-writer registers, the one the paper's unit-cost
//!   accounting abstracts away.
//! * [`max_register::LockFreeMaxRegister`] — max register: a
//!   compare-exchange publication loop on the monotone key;
//!   [`max_register::TreeMaxRegister`] is the switch-trie construction
//!   from monotone circuits (footnote 1's object, built from plain
//!   bits).
//! * [`memory::AtomicMemory`] + [`runtime::run_threads`] — instantiate a
//!   protocol's [`Layout`](sift_sim::Layout) over the lock-free objects
//!   and run its participants on threads. [`ExecuteOps`] is also
//!   implemented for `Mutex<sift_sim::Memory<V>>`, the model under one
//!   lock: the one reference the test suites check `AtomicMemory`
//!   against.
//!
//! Statistical claims are measured on the simulator, where the adversary
//! is controlled; this crate shows the algorithms running on real
//! atomics and provides the substrate for wall-clock benches.
//!
//! All `unsafe` in the crate lives in two audited leaf modules: the
//! private `lockfree` module (pointer publication with reader-gated
//! reclamation, the one publication scheme every object above is built
//! from) and the tiny [`affinity`] module (one raw
//! `sched_setaffinity` syscall for bench core pinning); everything
//! else forbids it.
//!
//! The [`obs`] module's contention and reclamation counters are
//! compiled into every build; each hook sits off the uncontended fast
//! path.

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod affinity;
pub mod history;
#[allow(unsafe_code)]
mod lockfree;
pub mod max_register;
pub mod memory;
pub mod obs;
pub mod register;
pub mod runtime;
pub mod snapshot;
mod sync;

pub use history::RecordingMemory;
pub use memory::{AtomicMemory, ExecuteOps};
pub use runtime::{
    drive_threads, run_lockstep_on, run_lockstep_recorded, run_script_on, run_threads,
    run_threads_recorded, ThreadReport,
};
