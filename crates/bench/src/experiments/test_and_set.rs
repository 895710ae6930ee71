//! E17 — test-and-set from sifting (§5's connection to
//! Alistarh–Aspnes): losers leave after `O(log log n)` register
//! operations; only `O(1)` expected survivors pay for the tournament.

use sift_core::math::ceil_log_log;
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::ScheduleKind;
use sift_sim::{Engine, LayoutBuilder, ProcessId};
use sift_tas::{check_tas_properties, SiftingTas, TasOutcome, TournamentTas};

use crate::exec::Batch;
use crate::runner::default_trials;
use crate::stats::Welford;
use crate::table::{fmt_f64, fmt_mean_ci, Table};

/// Per-trial measurements of one sifting-TAS + plain-tournament pair.
struct TasTrial {
    survivors: f64,
    winner_steps: Vec<f64>,
    loser_steps: Vec<f64>,
    plain_loser_steps: Vec<f64>,
}

/// Loser/winner cost split of the sifting test-and-set versus a plain
/// tournament, across `n`.
pub(super) fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E17 — sifting test-and-set vs plain tournament (random schedule)",
        &[
            "n",
            "⌈loglog n⌉",
            "sift rounds",
            "mean survivors",
            "loser steps (mean)",
            "winner steps (mean)",
            "tournament-only loser steps",
        ],
    );
    let kind = ScheduleKind::RandomInterleave;
    for &n in &[16usize, 64, 256, 1024, 4096] {
        let trials = default_trials((20_000 / n).clamp(8, 100));
        let (survivors, loser_steps, winner_steps, plain_loser_steps) = Batch::new(n, trials, kind)
            .run_with(
                |spec| {
                    // Sifting TAS.
                    let mut b = LayoutBuilder::new();
                    let tas = SiftingTas::allocate(&mut b, n);
                    let layout = b.build();
                    let split = SeedSplitter::new(spec.seed);
                    let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
                    let report =
                        Engine::new(&layout, procs).run(kind.build(n, split.schedule_seed()));
                    check_tas_properties(&report.outputs);
                    let mut trial = TasTrial {
                        survivors: report
                            .processes
                            .iter()
                            .filter(|p| p.reached_tournament())
                            .count() as f64,
                        winner_steps: Vec::new(),
                        loser_steps: Vec::new(),
                        plain_loser_steps: Vec::new(),
                    };
                    for (i, out) in report.outputs.iter().enumerate() {
                        let steps = report.metrics.per_process_steps[i] as f64;
                        match out {
                            Some(TasOutcome::Won) => trial.winner_steps.push(steps),
                            Some(TasOutcome::Lost) => trial.loser_steps.push(steps),
                            None => {}
                        }
                    }

                    // Plain tournament for contrast.
                    let mut b = LayoutBuilder::new();
                    let tas = TournamentTas::allocate(&mut b, n);
                    let layout = b.build();
                    let procs: Vec<_> = (0..n)
                        .map(|i| {
                            tas.participant(ProcessId(i), &mut split.stream("plain", i as u64))
                        })
                        .collect();
                    let report =
                        Engine::new(&layout, procs).run(kind.build(n, split.seed("schedule2", 0)));
                    check_tas_properties(&report.outputs);
                    for (i, out) in report.outputs.iter().enumerate() {
                        if out == &Some(TasOutcome::Lost) {
                            trial
                                .plain_loser_steps
                                .push(report.metrics.per_process_steps[i] as f64);
                        }
                    }
                    trial
                },
                || {
                    (
                        Welford::new(),
                        Welford::new(),
                        Welford::new(),
                        Welford::new(),
                    )
                },
                |(survivors, losers, winners, plain), trial| {
                    survivors.push(trial.survivors);
                    for x in trial.loser_steps {
                        losers.push(x);
                    }
                    for x in trial.winner_steps {
                        winners.push(x);
                    }
                    for x in trial.plain_loser_steps {
                        plain.push(x);
                    }
                },
            );
        let rounds = {
            let mut b = LayoutBuilder::new();
            SiftingTas::allocate(&mut b, n).sift_rounds()
        };
        let (s, l, w, pl) = (
            survivors.summary(),
            loser_steps.summary(),
            winner_steps.summary(),
            plain_loser_steps.summary(),
        );
        table.row(vec![
            n.to_string(),
            ceil_log_log(n as u64).to_string(),
            rounds.to_string(),
            fmt_mean_ci(s.mean, s.ci95),
            fmt_mean_ci(l.mean, l.ci95),
            fmt_mean_ci(w.mean, w.ci95),
            fmt_f64(pl.mean),
        ]);
    }
    table.note(
        "Sift losers pay ~loglog n register ops regardless of n; plain-tournament losers \
         pay Θ(log n) node games each. The winner's cost is the tournament climb, paid by \
         O(1) expected survivors (Alistarh–Aspnes replace it with an adaptive object).",
    );
    vec![table]
}
