//! E3/E6 — individual step complexity versus `n` (the headline
//! `O(log* n)` and `O(log log n)` curves).

use sift_core::analysis::{theorem1_steps, theorem2_rounds};
use sift_core::math::{ceil_log_log, log_star};
use sift_core::{Epsilon, MaxConciliator, SiftingConciliator};
use sift_sim::schedule::ScheduleKind;

use crate::runner::run_trial;
use crate::table::Table;

/// Measures per-process step counts (deterministic for both algorithms)
/// across a wide `n` sweep, next to the paper's formulas.
pub(crate) fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E3 — individual step complexity vs n (ε = 1/2)",
        &[
            "n",
            "log* n",
            "⌈loglog n⌉",
            "Alg 1 steps (measured)",
            "paper 2(log* n + ⌈log 1/ε⌉ + 1)",
            "Alg 2 steps (measured)",
            "paper ⌈loglog n⌉+⌈log_{4/3} 8/ε⌉",
        ],
    );
    let eps = Epsilon::HALF;
    // Decimal large-n rows (10^4, 10^5, 10^6) ride alongside the
    // original power-of-two sweep: the event engine makes the
    // million-process rows a few seconds of work, and the decimal
    // points line up with the `sim_engine` bench's throughput sweep.
    for &n in &[
        4usize,
        16,
        256,
        4096,
        10_000,
        65_536,
        100_000,
        1_000_000,
        1 << 20,
    ] {
        // Algorithm 1 is measured through its max-register variant
        // (footnote 1) so the sweep reaches 2^20 processes; step counts
        // are identical to the snapshot version by construction.
        let alg1 = run_trial(n, 1, ScheduleKind::RoundRobin, |b| {
            MaxConciliator::allocate(b, n, eps)
        });
        let alg2 = run_trial(n, 1, ScheduleKind::RoundRobin, |b| {
            SiftingConciliator::allocate(b, n, eps)
        });
        table.row(vec![
            n.to_string(),
            log_star(n as u64).to_string(),
            ceil_log_log(n as u64).to_string(),
            alg1.metrics.max_individual_steps().to_string(),
            theorem1_steps(n as u64, eps).to_string(),
            alg2.metrics.max_individual_steps().to_string(),
            theorem2_rounds(n as u64, eps).to_string(),
        ]);
    }
    table.note(
        "Both algorithms take exactly their worst-case step counts in every execution; \
         the curves are the paper's log* n and log log n shapes.",
    );
    vec![table]
}
