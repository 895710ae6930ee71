//! E7/E10 — Algorithm 3: linear expected total work with bounded
//! individual steps (Theorem 3), versus Algorithm 2's `Θ(n log log n)`
//! total.

use sift_core::analysis::{theorem3_expected_total_steps, theorem3_individual_steps};
use sift_core::{Conciliator, EmbeddedConciliator, Epsilon, SiftingConciliator};
use sift_sim::schedule::ScheduleKind;
use sift_sim::LayoutBuilder;

use crate::exec::Batch;
use crate::runner::default_trials;
use crate::stats::{Peak, RateCounter, Welford};
use crate::table::{fmt_f64, fmt_mean_ci, Table};

/// Measures Algorithm 3's total and individual step complexity and
/// agreement rate across `n`, next to Algorithm 2's deterministic total.
pub(super) fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E7/E10 — Algorithm 3 (CIL + embedded sifter) vs Algorithm 2 totals",
        &[
            "n",
            "Alg 3 total steps (mean)",
            "paper O(n) bound",
            "Alg 2 total steps (= nR)",
            "Alg 3 max individual",
            "worst-case bound",
            "agree rate",
            "paper ≥ 1/8",
        ],
    );
    let kind = ScheduleKind::RandomInterleave;
    for &n in &[16usize, 64, 256, 1024, 4096] {
        let trials = default_trials((40_000 / n).clamp(10, 200));
        let (totals, max_indiv, agree) = Batch::new(n, trials, kind).run(
            |b| EmbeddedConciliator::allocate(b, n),
            || (Welford::new(), Peak::new(), RateCounter::new()),
            |(totals, max_indiv, agree), t| {
                totals.push(t.metrics.total_steps as f64);
                max_indiv.record(t.metrics.max_individual_steps());
                agree.record(t.agreed);
            },
        );
        let max_indiv = max_indiv.get();
        let alg2_total = {
            let mut b = LayoutBuilder::new();
            let c = SiftingConciliator::allocate(&mut b, n, Epsilon::QUARTER);
            (n * c.rounds()) as u64
        };
        let bound = {
            let mut b = LayoutBuilder::new();
            EmbeddedConciliator::allocate(&mut b, n)
                .steps_bound()
                .expect("Algorithm 3 is bounded")
        };
        let s = totals.summary();
        table.row(vec![
            n.to_string(),
            fmt_mean_ci(s.mean, s.ci95),
            fmt_f64(theorem3_expected_total_steps(n as u64)),
            alg2_total.to_string(),
            max_indiv.to_string(),
            bound.to_string(),
            fmt_f64(agree.rate()),
            "0.125".to_string(),
        ]);
        assert_eq!(bound, theorem3_individual_steps(n as u64));
    }
    table.note(
        "Alg 3's total grows linearly in n while Alg 2's grows as n·log log n; individual \
         steps stay within the O(log log n) worst-case bound in every run.",
    );
    vec![table]
}
