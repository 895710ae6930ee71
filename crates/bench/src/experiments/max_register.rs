//! E15 — the max-register variant of Algorithm 1 (footnote 1) at scale:
//! identical step counts and agreement behaviour with `O(1)`-cost
//! operations, swept to a million simulated processes.

use sift_core::analysis::theorem1_steps;
use sift_core::math::log_star;
use sift_core::{Epsilon, MaxConciliator};
use sift_sim::schedule::ScheduleKind;

use crate::exec::Batch;
use crate::runner::default_trials;
use crate::stats::{Last, RateCounter};
use crate::table::{fmt_f64, Table};

/// Steps and agreement for the max-register Algorithm 1 at large `n`.
pub(crate) fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E15 — Algorithm 1 over max registers (footnote 1), ε = 1/2",
        &[
            "n",
            "log* n",
            "steps/process (measured)",
            "paper 2R",
            "trials",
            "agree rate",
        ],
    );
    let eps = Epsilon::HALF;
    for &n in &[256usize, 4096, 65_536, 1 << 20] {
        let trials = default_trials(if n >= 1 << 20 { 3 } else { 20 });
        let (agree, steps) = Batch::new(n, trials, ScheduleKind::RandomInterleave).run(
            |b| MaxConciliator::allocate(b, n, eps),
            || (RateCounter::new(), Last::new()),
            |(agree, steps), t| {
                agree.record(t.agreed);
                steps.record(t.metrics.max_individual_steps());
            },
        );
        table.row(vec![
            n.to_string(),
            log_star(n as u64).to_string(),
            steps.get().copied().unwrap_or(0).to_string(),
            theorem1_steps(n as u64, eps).to_string(),
            agree.total().to_string(),
            fmt_f64(agree.rate()),
        ]);
    }
    table.note(
        "Max registers make each round O(1) local work, so the log* n sweep reaches 2^20 \
         simulated processes; step counts match the snapshot variant exactly.",
    );
    vec![table]
}
