//! # sift-bench — experiment harness
//!
//! Regenerates every table of the evaluation (see `DESIGN.md`'s
//! experiment index E1–E26 and `EXPERIMENTS.md` for recorded results).
//! There is one way in: the `exp` binary — `exp <name>` prints one
//! experiment, `exp all` the whole table suite, `exp list` the
//! [`experiments::REGISTRY`] they are all rows of. [`cli`] is the only
//! module that reads the environment or the arguments; everything else
//! takes its knobs as values. Run in `--release`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod conformance;
pub mod exec;
pub mod experiments;
pub mod fuzz;
pub mod obs;
pub mod runner;
mod schema;
pub mod soak;
pub mod stats;
pub mod table;

pub use conformance::{all_pass, Verdict};
pub use exec::{map_reduce, Batch, Merge, TrialSpec};
pub use runner::Trial;
pub use stats::{Peak, RateCounter, RoundExcess, Summary, Welford};
pub use table::Table;
