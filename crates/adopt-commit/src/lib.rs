//! # sift-adopt-commit — adopt-commit objects
//!
//! Adopt-commit objects *detect* agreement without creating it: the
//! operation `AdoptCommit(v)` returns `(commit, v')` or `(adopt, v')`
//! subject to validity, convergence, and coherence (see
//! [`spec`]). Alternating them with conciliators — which *create*
//! agreement with constant probability but cannot detect it — yields
//! consensus (paper §1.2; the alternation lives in `sift-consensus`).
//!
//! Implementations, by cost profile:
//!
//! | Object | Collects | Cost per proposer | Paper role |
//! |---|---|---|---|
//! | [`GafniSnapshotAc`] | snapshot scans | ≤ 5 ops | the `O(1)` object of \[16\] (Corollary 1) |
//! | [`GafniRegisterAc`] | register reads | `3n + 2` ops | classic register construction |
//! | [`FlagsAc`] | per-code flags | `2m + 3` ops | small code spaces |
//! | [`DigitAc`] | per-digit flags | `2·⌈log_b m⌉·(b+1) + 2` ops | stand-in for Aspnes–Ellen \[9\] (Corollaries 2–3) |
//! | [`BinaryAc`] | per-code flags | ≤ 7 ops | Algorithm 3's combining stage |
//!
//! All proposers are wait-free state machines over `sift-sim`'s
//! [`Process`](sift_sim::Process) trait, so they run on the simulator or
//! any other runtime and compose into larger protocols.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binary;
pub mod digit;
pub mod flags;
pub mod gafni;
pub mod spec;

pub use binary::BinaryAc;
pub use digit::{DigitAc, DigitProposer};
pub use flags::{FlagsAc, FlagsProposer};
pub use gafni::{GafniRegisterAc, GafniRegisterProposer, GafniSnapshotAc, GafniSnapshotProposer};
pub use spec::{check_ac_properties, try_check_ac_properties, AcOutput, AdoptCommit, Verdict};
