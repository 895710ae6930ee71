//! Stateless model checking of protocol safety properties.
//!
//! The paper's safety claims — adopt-commit coherence, conciliator
//! validity — are universally quantified over *all* schedules, so
//! sampling random schedules can only ever falsify them. This module
//! checks them exhaustively on bounded instances:
//!
//! * [`dependence`] defines the commutativity structure of the
//!   shared-memory operation set ([`Access`], [`McEvent`]) and canonical
//!   Mazurkiewicz-trace signatures ([`trace_signature`]).
//! * [`naive`] enumerates raw interleavings ([`explore_naive`]) — the
//!   multinomial-cost baseline. It stays as DPOR's oracle: its callers
//!   compare the *set* of trace signatures it reaches with DPOR's, which
//!   no pinned count can stand in for.
//! * [`dpor`] is the sleep-set dynamic partial-order-reduced explorer
//!   ([`explore_dpor`]): one interleaving per trace, with optional
//!   crash-fault injection ([`McOptions::max_crashes`]).
//! * [`counterexample`] shrinks violating schedules into minimal
//!   replayable [`FixedSchedule`](crate::schedule::FixedSchedule)
//!   scripts ([`check_dpor`], `shrink_schedule`).
//! * [`history`] and [`linearize`] record concurrent operation
//!   histories and check them against the sequential object
//!   specifications with a Wing–Gong search ([`check_linearizable`]) —
//!   usable both on simulated executions and on histories captured from
//!   a real threaded runtime.

pub mod counterexample;
pub mod dependence;
pub mod dpor;
pub mod history;
pub mod linearize;
pub mod naive;

pub use counterexample::{
    check_dpor, replay_report, replay_script, shrink_schedule_with, CheckError, Violation,
};
pub use dependence::{trace_signature, Access, McEvent, ObjectKey};
pub use dpor::{explore_dpor, McError, McOptions, McStats, RawViolation};
pub use history::{History, HistoryEntry};
pub use linearize::{check_linearizable, check_regular, NotLinearizable, NotRegular};
pub use naive::explore_naive;

/// Error returned when the execution tree exceeds the configured limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyExecutions {
    /// The limit that was exceeded.
    pub limit: u64,
}

impl std::fmt::Display for TooManyExecutions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "more than {} executions; shrink the instance",
            self.limit
        )
    }
}

impl std::error::Error for TooManyExecutions {}

/// One maximal execution, as handed to explorer visitors.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionView<'a, O> {
    /// Final per-process outputs; `None` for crashed processes.
    pub outputs: &'a [Option<O>],
    /// The event sequence (steps and crashes) that produced them.
    pub events: &'a [McEvent],
}
