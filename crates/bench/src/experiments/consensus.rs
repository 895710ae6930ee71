//! E8/E9 — full consensus stacks: expected individual steps, phase
//! counts, and the conciliator-vs-adopt-commit cost split (Corollaries
//! 1–3).

use sift_consensus::{
    linear_work_consensus, max_register_consensus, sifting_consensus, ConsensusOutcome,
};
use sift_core::analysis::expected_consensus_phases;
use sift_core::math::{ceil_log_log, log_star};
use sift_core::Persona;
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::RandomInterleave;
use sift_sim::{Engine, LayoutBuilder};

use crate::exec::Batch;
use crate::runner::default_trials;
use crate::stats::{Peak, Welford};
use crate::table::{fmt_f64, fmt_mean_ci, Table};

struct StackRun {
    mean_individual: f64,
    max_phases: usize,
    conciliator_steps: f64,
    adopt_commit_steps: f64,
}

fn run_stack<C, A>(
    layout: sift_sim::Layout,
    protocol: sift_consensus::ConsensusProtocol<C, A>,
    n: usize,
    m: u64,
    seed: u64,
) -> StackRun
where
    C: sift_core::Conciliator,
    A: sift_adopt_commit::AdoptCommit<Persona>,
{
    let split = SeedSplitter::new(seed);
    let mut input_rng = split.stream("inputs", 0);
    let inputs: Vec<u64> = (0..n).map(|_| input_rng.range_u64(m)).collect();
    let procs = split.processes(n, |pid, rng| {
        protocol.participant(pid, inputs[pid.index()], rng)
    });
    let report = Engine::new(&layout, procs).run(RandomInterleave::new(n, split.schedule_seed()));
    let mean_individual = report.metrics.mean_individual_steps();
    let outcomes = report.unwrap_outputs();
    sift_consensus::check_consensus(&inputs, outcomes.iter());
    let decisions: Vec<_> = outcomes
        .into_iter()
        .map(|o| match o {
            ConsensusOutcome::Decided(d) => d,
            ConsensusOutcome::Exhausted { .. } => unreachable!("checked above"),
        })
        .collect();
    StackRun {
        mean_individual,
        max_phases: decisions.iter().map(|d| d.phases).max().unwrap_or(0),
        conciliator_steps: decisions
            .iter()
            .map(|d| d.conciliator_steps as f64)
            .sum::<f64>()
            / decisions.len() as f64,
        adopt_commit_steps: decisions
            .iter()
            .map(|d| d.adopt_commit_steps as f64)
            .sum::<f64>()
            / decisions.len() as f64,
    }
}

/// Corollary 1 and 2/3 stacks swept over `n`, plus the Corollary 2
/// crossover sweep over `m`.
pub(crate) fn run() -> Vec<Table> {
    vec![n_sweep(), m_sweep()]
}

fn n_sweep() -> Table {
    let mut table = Table::new(
        "E8 — consensus stacks: expected individual steps and phases vs n (m = 8 inputs)",
        &[
            "stack",
            "n",
            "log* n / ⌈loglog n⌉",
            "mean individual steps",
            "max phases seen",
            "paper E[phases]",
        ],
    );
    let m = 8u64;
    for &n in &[8usize, 32, 128, 512] {
        let trials = default_trials((4000 / n).clamp(8, 80));
        for stack in [
            "snapshot (Cor. 1)",
            "sifting (Cor. 2)",
            "linear-work (Cor. 3)",
        ] {
            let (indiv, phases) = Batch::new(
                n,
                trials,
                sift_sim::schedule::ScheduleKind::RandomInterleave,
            )
            .run_with(
                |spec| {
                    let mut b = LayoutBuilder::new();
                    match stack {
                        "snapshot (Cor. 1)" => {
                            let p = max_register_consensus(&mut b, n);
                            run_stack(b.build(), p, n, m, spec.seed)
                        }
                        "sifting (Cor. 2)" => {
                            let p = sifting_consensus(&mut b, n, m, 2);
                            run_stack(b.build(), p, n, m, spec.seed)
                        }
                        _ => {
                            let p = linear_work_consensus(&mut b, n, m, 2);
                            run_stack(b.build(), p, n, m, spec.seed)
                        }
                    }
                },
                || (Welford::new(), Peak::new()),
                |(indiv, phases), run| {
                    indiv.push(run.mean_individual);
                    phases.record(run.max_phases as u64);
                },
            );
            let phases = phases.get();
            let s = indiv.summary();
            let delta = match stack {
                "linear-work (Cor. 3)" => 0.125,
                _ => 0.5,
            };
            let shape = format!("{} / {}", log_star(n as u64), ceil_log_log(n as u64));
            table.row(vec![
                stack.to_string(),
                n.to_string(),
                shape,
                fmt_mean_ci(s.mean, s.ci95),
                phases.to_string(),
                format!("≤ {}", fmt_f64(expected_consensus_phases(delta))),
            ]);
        }
    }
    table.note(
        "Mean individual steps grow like the conciliator+AC cost times a constant phase \
         count — the log*/loglog shape, not any polynomial in n.",
    );
    table
}

fn m_sweep() -> Table {
    let mut table = Table::new(
        "E9 — Corollary 2 crossover: conciliator vs adopt-commit cost vs m (n = 64)",
        &[
            "m",
            "mean conciliator steps",
            "mean adopt-commit steps",
            "AC share",
            "dominant term",
        ],
    );
    let n = 64usize;
    for &m in &[2u64, 16, 256, 4096, 65_536, 1 << 24] {
        let trials = default_trials(30);
        let (conc, ac) = Batch::new(
            n,
            trials,
            sift_sim::schedule::ScheduleKind::RandomInterleave,
        )
        .run_with(
            |spec| {
                let mut b = LayoutBuilder::new();
                let p = sifting_consensus(&mut b, n, m, 2);
                run_stack(b.build(), p, n, m, spec.seed)
            },
            || (Welford::new(), Welford::new()),
            |(conc, ac), run| {
                conc.push(run.conciliator_steps);
                ac.push(run.adopt_commit_steps);
            },
        );
        let (c, a) = (conc.summary(), ac.summary());
        let share = a.mean / (a.mean + c.mean);
        table.row(vec![
            m.to_string(),
            fmt_mean_ci(c.mean, c.ci95),
            fmt_mean_ci(a.mean, a.ci95),
            fmt_f64(share),
            if share > 0.5 {
                "adopt-commit"
            } else {
                "conciliator"
            }
            .to_string(),
        ]);
    }
    table.note(
        "As m grows the adopt-commit's O(log m) cost overtakes the conciliator's \
         O(log log n) — the paper's break-even discussion after Corollary 2.",
    );
    table
}
