//! # sift-core — the paper's conciliators
//!
//! Implementation of the algorithms in Aspnes, *"Faster Randomized
//! Consensus With an Oblivious Adversary"* (PODC 2012):
//!
//! * [`SnapshotConciliator`] — **Algorithm 1**: priority-based
//!   conciliator in the unit-cost snapshot model; agreement probability
//!   `1-ε` in exactly `2R` steps, `R = log* n + ⌈log(1/ε)⌉ + 1`
//!   (Theorem 1).
//! * [`MaxConciliator`] — the max-register variant of Algorithm 1
//!   (footnote 1): same analysis, `O(1)`-cost operations.
//! * [`SiftingConciliator`] — **Algorithm 2**: sifting conciliator over
//!   multi-writer registers; agreement probability `1-ε` in
//!   `R = ⌈log log n⌉ + ⌈log_{4/3}(8/ε)⌉` steps (Theorem 2).
//! * [`CilConciliator`] — the classic Chor–Israeli–Li conciliator
//!   (baseline; `O(n)` expected total work, unbounded worst case).
//! * [`EscalatingCilConciliator`] — the doubling-probability CIL
//!   variant: `O(log n)` worst-case individual steps, the prior state
//!   of the art the paper improves on (its reference \[5\]).
//! * [`EmbeddedConciliator`] — **Algorithm 3**: Algorithm 2 embedded in
//!   a CIL shell with a combining stage; worst-case `O(log log n)`
//!   individual steps, expected `O(n)` total steps, agreement ≥ 1/8
//!   (Theorem 3). Can also embed the Algorithm 1 variant.
//!
//! All of them share the *persona* technique ([`persona::Persona`]):
//! every coin a value will ever need is pre-flipped by its originating
//! process and travels with the value, which is sound precisely because
//! the adversary is oblivious.
//!
//! ## Quick start
//!
//! ```
//! use sift_core::{Conciliator, Epsilon, SiftingConciliator};
//! use sift_sim::rng::SeedSplitter;
//! use sift_sim::schedule::RandomInterleave;
//! use sift_sim::{Engine, LayoutBuilder};
//!
//! let n = 100;
//! let mut builder = LayoutBuilder::new();
//! let conciliator = SiftingConciliator::allocate(&mut builder, n, Epsilon::HALF);
//! let layout = builder.build();
//!
//! // Schedule randomness and process randomness come from disjoint
//! // streams: the adversary is oblivious by construction.
//! let split = SeedSplitter::new(2024);
//! let schedule = RandomInterleave::new(n, split.schedule_seed());
//! let participants = split.processes(n, |pid, rng| {
//!     conciliator.participant(pid, (pid.index() % 5) as u64, rng)
//! });
//!
//! let report = Engine::new(&layout, participants).run(schedule);
//! let outputs = report.unwrap_outputs();
//! // Validity always holds; agreement holds with probability >= 1/2.
//! assert!(outputs.iter().all(|p| p.input() < 5));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod cil;
pub mod compact;
pub mod conciliator;
pub mod embedded;
pub mod escalating;
pub mod math;
pub mod max_conciliator;
pub mod params;
pub mod persona;
pub mod sifting;
pub mod snapshot_conciliator;

pub use cil::{CilConciliator, CilParticipant};
pub use compact::{CompactSiftingConciliator, CompactSiftingParticipant, PackedPersona};
pub use conciliator::{distinct_per_round, try_check_validity, Conciliator, RoundHistory};
pub use embedded::{EmbeddedConciliator, EmbeddedParticipant};
pub use escalating::{EscalatingCilConciliator, EscalatingCilParticipant};
pub use max_conciliator::{MaxConciliator, MaxParticipant};
pub use params::{Epsilon, InvalidEpsilon};
pub use persona::{Persona, PersonaSpec};
pub use sifting::{SiftingConciliator, SiftingParticipant};
pub use snapshot_conciliator::{SnapshotConciliator, SnapshotParticipant};
