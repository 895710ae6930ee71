//! # sift-obs — observability primitives
//!
//! The building blocks of the observability layer threaded through the
//! substrate (`sift-shmem`), the simulator (`sift-sim`), and the
//! experiment harness (`sift-bench`):
//!
//! * [`Histogram`] / [`AtomicHistogram`] — log-bucketed power-of-two
//!   histograms (latencies, batch sizes, step counts). Merging never
//!   loses counts, and merge is commutative and associative, so
//!   aggregates are identical under any fold order — the property the
//!   parallel harness's determinism guarantee rests on.
//! * [`StripedCounter`] — a cache-padded, striped relaxed counter for
//!   hot-path increments from many threads (same striping discipline as
//!   the reclamation gate in `sift-shmem::lockfree`).
//! * [`MaxTracker`] — a relaxed high-water-mark cell.
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
//! The crate is dependency-free and makes no assumptions about who is
//! observing what: the substrate records CAS retries and reclamation
//! batches, the harness records per-trial step counts, and both flow
//! into the same report type.
//!
//! Counter updates are `Relaxed`: observability must never perturb the
//! memory-ordering arguments of the code it watches (see DESIGN.md,
//! "Observability"). Reads (`sum`, `snapshot`) are also relaxed and
//! therefore approximate *while writers are active*; every aggregate
//! read in this repository happens after the observed threads have been
//! joined, where relaxed reads are exact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counter;
pub mod hist;
pub mod json;
pub mod report;
pub mod window;

pub use counter::{MaxTracker, StripedCounter};
pub use hist::{bucket_lower_bound, bucket_of, AtomicHistogram, Histogram, BUCKETS};
pub use report::ObsReport;
pub use window::WindowedReport;
