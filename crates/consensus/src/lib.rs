//! # sift-consensus — consensus from conciliators and adopt-commit
//!
//! The paper's composition (§1.2, after \[5\]): alternate a conciliator
//! (creates agreement with probability `δ`, cannot detect it) with an
//! adopt-commit object (detects agreement, cannot create it); decide on
//! the first `(commit, v)`. Agreement and validity are absolute;
//! termination holds with probability 1 with expected phase count
//! `≤ 1/δ`, so expected cost is the sum of one conciliator and one
//! adopt-commit, times a constant:
//!
//! * [`snapshot_consensus`] — Corollary 1: `O(log* n)` expected
//!   individual steps (unit-cost snapshots), any input domain.
//! * [`max_register_consensus`] — the same over max registers.
//! * [`sifting_consensus`] — Corollary 2:
//!   `O(log log n + cost(AC(m)))` expected individual steps (registers).
//! * [`linear_work_consensus`] — Corollary 3: additionally `O(n)`
//!   expected total steps.
//! * [`cil_consensus`] — the Chor–Israeli–Li baseline.
//!
//! On top of single-shot consensus, [`log::ReplicatedLog`] provides
//! state-machine replication: a sequence of slots, each decided by one
//! consensus instance, with per-proposer FIFO commit order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod framework;
pub mod log;
pub mod protocols;

pub use framework::{
    check_consensus, ConsensusOutcome, ConsensusParticipant, ConsensusProtocol, Decision,
};
pub use log::{LogParticipant, ReplicatedLog};
pub use protocols::{
    cil_consensus, linear_work_consensus, max_register_consensus, sifting_consensus,
    snapshot_consensus, CilConsensus, LinearWorkConsensus, MaxRegisterConsensus, SiftingConsensus,
    SnapshotConsensus,
};
