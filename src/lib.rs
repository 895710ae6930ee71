//! # sift — randomized consensus against an oblivious adversary
//!
//! Facade crate re-exporting the whole workspace. See the README for an
//! overview and the member crates for details:
//!
//! * [`sim`] — deterministic oblivious-adversary shared-memory simulator.
//! * [`shmem`] — threaded shared-memory substrate over real atomics.
//! * [`core`] — the paper's conciliators (snapshot, sifting, CIL-embedded).
//! * [`adopt_commit`] — adopt-commit objects.
//! * [`consensus`] — consensus from conciliator/adopt-commit alternation.
//! * [`tas`] — test-and-set from sifting (the §5 connection).
//! * [`obs`] — mergeable observation primitives (log-bucketed
//!   histograms, reports, JSON) behind the observability layer.
//! * [`service`] — consensus-as-a-service: a sharded multi-instance
//!   frontend batching proposals into per-instance consensus runs.

#![forbid(unsafe_code)]

pub use sift_adopt_commit as adopt_commit;
pub use sift_consensus as consensus;
pub use sift_core as core;
pub use sift_obs as obs;
pub use sift_service as service;
pub use sift_shmem as shmem;
pub use sift_sim as sim;
pub use sift_tas as tas;

// README's quick start runs as a doc-test of this crate.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
