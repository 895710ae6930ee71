//! # sift-sim — a deterministic oblivious-adversary shared-memory simulator
//!
//! This crate implements the execution model of Aspnes, *"Faster
//! Randomized Consensus With an Oblivious Adversary"* (PODC 2012), §1.1:
//! `n` asynchronous processes communicate through atomic shared objects —
//! multi-writer multi-reader registers, snapshot objects, and max
//! registers — while an **oblivious adversary** fixes the schedule of
//! process steps in advance, independently of the processes' coin flips.
//!
//! Protocols are written once as resumable [`Process`] state machines
//! that issue one shared-memory [`Op`] per scheduled step; the
//! [`Engine`] drives them deterministically under any
//! [`Schedule`](schedule::Schedule) and accounts for individual and total
//! step complexity exactly as the paper does (slots given to finished
//! processes are free).
//!
//! ## Example
//!
//! ```
//! use sift_sim::{Engine, LayoutBuilder, Op, OpResult, Process, RegisterId, Step};
//! use sift_sim::schedule::RoundRobin;
//!
//! /// Each process writes its id and returns the last value it reads.
//! struct P { reg: RegisterId, id: u32, phase: u8 }
//!
//! impl Process for P {
//!     type Value = u32;
//!     type Output = u32;
//!     fn step(&mut self, prev: Option<OpResult<u32>>) -> Step<u32, u32> {
//!         self.phase += 1;
//!         match self.phase {
//!             1 => Step::Issue(Op::RegisterWrite(self.reg, self.id)),
//!             2 => Step::Issue(Op::RegisterRead(self.reg)),
//!             _ => Step::Done(prev.unwrap().expect_register().unwrap()),
//!         }
//!     }
//! }
//!
//! let mut b = LayoutBuilder::new();
//! let reg = b.register();
//! let layout = b.build();
//! let procs: Vec<P> = (0..4).map(|id| P { reg, id, phase: 0 }).collect();
//! let report = Engine::new(&layout, procs).run(RoundRobin::new(4));
//! assert!(report.all_decided());
//! assert_eq!(report.metrics.total_steps, 8);
//! ```
//!
//! ## Determinism and obliviousness
//!
//! Everything is reproducible from seeds. Use
//! [`SeedSplitter`](rng::SeedSplitter) to derive disjoint randomness
//! streams for the schedule and for each process; because the schedule's
//! stream is fixed before any process stream is consumed, the adversary
//! is oblivious *by construction*.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod engine;
mod event;
pub mod fuzz;
pub mod ids;
pub mod layout;
pub mod lockstep;
pub mod max_register;
pub mod mc;
pub mod memory;
pub mod metrics;
pub mod obs;
pub mod op;
mod paged;
pub mod process;
pub mod register;
pub mod rng;
pub mod schedule;
pub mod snapshot;
pub mod trace;
pub mod value;

pub use adversary::{AdversaryStrength, DelayedChooser};
pub use engine::{AdaptiveView, Engine, RunReport, SparseEntry, SparseReport, StopReason};
pub use ids::{MaxRegisterId, ProcessId, RegisterId, SnapshotId};
pub use layout::{Layout, LayoutBuilder};
pub use lockstep::drive_lockstep;
pub use memory::{CostModel, Memory, RegisterSemantics, Resolution};
pub use metrics::Metrics;
pub use op::{Op, OpKind, OpResult, ScanView};
pub use process::{Process, Step};
pub use value::Value;

// Compile-time audit that everything a parallel trial executor shares
// across worker threads (layouts, schedules, metrics, seeds) is
// thread-safe. A field that loses `Send`/`Sync` (e.g. an `Rc` or a raw
// pointer) fails the build here, not at a distant use-site.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<Layout>();
    require_send_sync::<LayoutBuilder>();
    require_send_sync::<Metrics>();
    require_send_sync::<schedule::ScheduleKind>();
    require_send_sync::<StopReason>();
    require_send_sync::<rng::SeedSplitter>();
    require_send_sync::<CostModel>();
    require_send_sync::<RegisterSemantics>();
    require_send_sync::<AdversaryStrength>();
};

/// Definition-checked proof that a finished run's report can be sent to
/// the aggregating thread whenever the process type itself can.
#[allow(dead_code)]
fn _run_report_is_send<P>(report: RunReport<P>) -> impl Send
where
    P: Process + Send,
    P::Output: Send,
{
    report
}
