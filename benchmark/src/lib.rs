//! # sift-ledger — the repo's one performance ledger
//!
//! Five workloads, five end-to-end metrics every workload reports, and
//! a per-layer account of where a decision's time goes — all measured
//! from outside, by timing calls into the repo's public functions. See
//! `benchmark/README.md` for every name defined here and how the
//! numbers interact.
//!
//! The library holds what both binaries share and binds only to the
//! narrow program surface (`README.md`, "surface manifest"): `ledger`
//! is this library plus a `main`; `ledger-traced` adds the counting
//! allocator, spans, the decide-path replica and the layer probes.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc;
pub mod cli;
pub mod json;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod span;
pub mod stats;
pub mod sys;
pub mod workloads;
