//! # sift-obs — observability primitives
//!
//! The building blocks of the observability layer threaded through the
//! simulator (`sift-sim`), the service (`sift-service`) and the
//! experiment harness (`sift-bench`):
//!
//! * [`Histogram`] — log-bucketed power-of-two histograms (latencies,
//!   batch sizes, step counts). Merging never loses counts, and merge
//!   is commutative and associative, so aggregates are identical under
//!   any fold order — the property the parallel harness's determinism
//!   guarantee rests on.
//! * [`ObsReport`] — a named bag of counters, maxima, and histograms
//!   with a commutative [`merge`](ObsReport::merge) and a stable JSON
//!   value (`BTreeMap`-ordered keys, so the byte output is
//!   deterministic).
//! * [`json`] — the workspace's one JSON value type, writer and parser:
//!   every file the workspace writes or reads back as JSON goes through
//!   it.
//! * [`WindowedReport`] — a sliding ring of per-window reports with an
//!   on-demand merge of the retained windows (the soak tier's
//!   sliding-window conformance statistics are folded through this).
//!
//! The crate is dependency-free and holds no atomics and no global
//! state: a recorder owns the values it records into, and aggregates
//! are built by merging them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod report;
pub mod window;

pub use hist::{bucket_lower_bound, bucket_of, Histogram, BUCKETS};
pub use report::ObsReport;
pub use window::WindowedReport;
