//! E18 — the `log(1/ε)` tail: disagreement probability versus extra
//! rounds beyond `⌈log log n⌉`, the upper-bound mirror of the
//! Attiya–Censor-Hillel lower bound the paper cites (failure
//! probability must decay at most geometrically in the extra work).

use sift_core::math::{ceil_log_log, sifting_p};
use sift_core::{Epsilon, SiftingConciliator};
use sift_sim::schedule::ScheduleKind;

use crate::exec::{Batch, Merge};
use crate::runner::default_trials;
use crate::stats::{RateCounter, Truncations};
use crate::table::{fmt_f64, Table};

/// Measures the disagreement rate of Algorithm 2 as a function of the
/// number of `p = 1/2` tail rounds, against Lemma 4's
/// `8·(3/4)^j` prediction.
pub(super) fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E18 — Algorithm 2 tail: disagreement vs extra rounds j beyond ⌈loglog n⌉ (n = 64)",
        &[
            "tail rounds j",
            "total rounds",
            "trials",
            "disagree rate",
            "Lemma 4 bound min(1, 8·(3/4)^j)",
            "within bound",
        ],
    );
    let n = 64usize;
    let kind = ScheduleKind::RandomInterleave;
    let aggressive = ceil_log_log(n as u64);
    let trials = default_trials(1200);
    let mut truncations = Truncations::new();
    for &j in &[1u32, 2, 4, 6, 8, 10, 12, 16, 20] {
        let probs: Vec<f64> = (1..=aggressive + j)
            .map(|i| {
                if i <= aggressive {
                    sifting_p(n as u64, i)
                } else {
                    0.5
                }
            })
            .collect();
        let (rate, trunc) = Batch::new(n, trials, kind).run(
            |b| SiftingConciliator::with_probabilities(b, n, probs.clone(), Epsilon::HALF),
            || (RateCounter::new(), Truncations::new()),
            |(rate, trunc), t| {
                rate.record(!t.agreed);
                trunc.record(t.stop_reason);
            },
        );
        truncations.merge(trunc);
        let bound = (8.0 * 0.75f64.powi(j as i32)).min(1.0);
        table.row(vec![
            j.to_string(),
            (aggressive + j).to_string(),
            rate.total().to_string(),
            fmt_f64(rate.rate()),
            fmt_f64(bound),
            if rate.rate() <= bound { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table.note(
        "Each extra 1/2-round multiplies the expected excess by 3/4 (Lemma 4); the measured \
         disagreement decays geometrically, matching the Θ(log 1/ε) round cost that the \
         Attiya–Censor-Hillel lower bound shows is necessary.",
    );
    if let Some(note) = truncations.note() {
        table.note(&note);
    }
    vec![table, run_at_scale()]
}

/// The same tail experiment at event-engine scale: n ∈ {10⁴, 10⁵}.
///
/// Trial counts are deliberately *hard-coded* (not routed through
/// [`default_trials`], which `SIFT_TRIALS` overrides): a single
/// n = 10⁵ trial schedules millions of events, so these rows exist to
/// pin the large-n shape — the geometric decay and the within-bound
/// check — while keeping the thread-invariance CI gate (which runs
/// `exp all` twice) inside its wall-clock budget. The n = 64 table
/// above carries the statistical weight.
fn run_at_scale() -> Table {
    let mut table = Table::new(
        "E18b — Algorithm 2 tail at scale (fixed small trial counts)",
        &[
            "n",
            "tail rounds j",
            "total rounds",
            "trials",
            "disagree rate",
            "Lemma 4 bound min(1, 8·(3/4)^j)",
        ],
    );
    let kind = ScheduleKind::RandomInterleave;
    for &(n, trials) in &[(10_000usize, 12usize), (100_000, 4)] {
        let aggressive = ceil_log_log(n as u64);
        for &j in &[4u32, 8] {
            let probs: Vec<f64> = (1..=aggressive + j)
                .map(|i| {
                    if i <= aggressive {
                        sifting_p(n as u64, i)
                    } else {
                        0.5
                    }
                })
                .collect();
            let rate = Batch::new(n, trials, kind).run(
                |b| SiftingConciliator::with_probabilities(b, n, probs.clone(), Epsilon::HALF),
                RateCounter::new,
                |rate, t| rate.record(!t.agreed),
            );
            let bound = (8.0 * 0.75f64.powi(j as i32)).min(1.0);
            table.row(vec![
                n.to_string(),
                j.to_string(),
                (aggressive + j).to_string(),
                rate.total().to_string(),
                fmt_f64(rate.rate()),
                fmt_f64(bound),
            ]);
        }
    }
    table.note(
        "Large-n rows demonstrate the O(log log n) tail shape survives at simulator scale; \
         at these trial counts the rates are illustrative, not hypothesis tests (E22 covers \
         those).",
    );
    table
}
