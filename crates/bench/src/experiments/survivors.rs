//! E1/E4/E5 — survivor (excess-personae) decay per round, versus the
//! paper's Lemma 1 (Algorithm 1) and Lemmas 3–4 (Algorithm 2).

use sift_core::analysis::{lemma1_expected_excess, sifting_expected_excess};
use sift_core::{
    Conciliator, Epsilon, Persona, RoundHistory, SiftingConciliator, SnapshotConciliator,
};
use sift_sim::schedule::ScheduleKind;
use sift_sim::{LayoutBuilder, Process};

use crate::exec::Batch;
use crate::runner::default_trials;
use crate::stats::RoundExcess;
use crate::table::{fmt_f64, Table};

fn mean_excess_per_round<C, P>(
    n: usize,
    trials: usize,
    kind: ScheduleKind,
    build: impl Fn(&mut LayoutBuilder) -> C + Sync,
) -> Vec<f64>
where
    C: Conciliator<Participant = P>,
    P: Process<Value = Persona, Output = Persona> + RoundHistory,
{
    Batch::new(n, trials, kind)
        .run_with_history(build, RoundExcess::new, |acc, t| {
            acc.record(&t.survivors.expect("history collected"));
        })
        .means()
}

/// Both decay tables: Algorithm 1, then Algorithm 2.
pub(crate) fn run() -> Vec<Table> {
    let mut tables = snapshot_conciliator();
    tables.extend(sifting_conciliator());
    tables
}

/// E1: Algorithm 1 survivor decay vs `f^{(i)}(n-1)`,
/// `f(x) = min(ln(x+1), x/2)` (Lemma 1 iterated as in Theorem 1).
fn snapshot_conciliator() -> Vec<Table> {
    let mut table = Table::new(
        "E1 — Algorithm 1 (snapshot conciliator): mean excess personae per round",
        &[
            "n",
            "round",
            "measured E[X_i]",
            "paper bound f^(i)(n-1)",
            "within bound",
        ],
    );
    let kind = ScheduleKind::RandomInterleave;
    for &n in &[16usize, 64, 256, 1024] {
        let trials = default_trials((6400 / n).max(24));
        let means = mean_excess_per_round(n, trials, kind, |b| {
            SnapshotConciliator::allocate(b, n, Epsilon::HALF)
        });
        for (i, &mean) in means.iter().enumerate() {
            let bound = lemma1_expected_excess(n as u64, (i + 1) as u32);
            table.row(vec![
                n.to_string(),
                (i + 1).to_string(),
                fmt_f64(mean),
                fmt_f64(bound),
                if mean <= bound * 1.15 { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    table.note(
        "Bound is E[X_i] ≤ f^(i)(X_0) from Lemma 1 + Jensen; 15% slack absorbs sampling noise.",
    );
    vec![table]
}

/// E4/E5: Algorithm 2 survivor decay vs `x_i = 2^{2-2^{1-i}}(n-1)^{2^{-i}}`
/// for the aggressive rounds and `8·(3/4)^j` for the tail.
fn sifting_conciliator() -> Vec<Table> {
    let mut table = Table::new(
        "E4/E5 — Algorithm 2 (sifting conciliator): mean excess personae per round",
        &[
            "n",
            "round",
            "phase",
            "measured E[X_i]",
            "paper bound",
            "within bound",
        ],
    );
    let kind = ScheduleKind::RandomInterleave;
    for &n in &[16usize, 256, 4096, 65536] {
        let trials = default_trials((200_000 / n).clamp(12, 400));
        let aggressive = {
            let mut b = sift_sim::LayoutBuilder::new();
            SiftingConciliator::allocate(&mut b, n, Epsilon::HALF).aggressive_rounds()
        };
        let means = mean_excess_per_round(n, trials, kind, |b| {
            SiftingConciliator::allocate(b, n, Epsilon::HALF)
        });
        for (i, &mean) in means.iter().enumerate() {
            let round = i + 1;
            let bound = sifting_expected_excess(n as u64, round as u32);
            let phase = if round <= aggressive {
                "p_i (eq. 3)"
            } else {
                "p = 1/2"
            };
            table.row(vec![
                n.to_string(),
                round.to_string(),
                phase.to_string(),
                fmt_f64(mean),
                fmt_f64(bound),
                if mean <= bound * 1.15 { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    table.note(
        "Aggressive rounds follow x_{i+1} = 2√x_i (Lemma 3); tail rounds decay by 3/4 (Lemma 4).",
    );
    vec![table]
}
