//! E20 — why obliviousness matters: an *adaptive* adversary (one that
//! sees pending operations and process states, the §1.1 power the
//! oblivious adversary is denied) defeats both conciliators outright.
//!
//! * Against the sifting conciliator it schedules, within each round,
//!   every reader before any writer: all readers see ⊥ and survive with
//!   their own personae, so no sifting ever happens.
//! * Against the priority conciliator it runs processes in increasing
//!   order of their current round priority, each to the end of its
//!   scan: every process sees only lower priorities and keeps its own
//!   persona.
//!
//! Both attacks keep all `n` personae alive through every round, so
//! agreement only happens if it held at the start. This is the
//! empirical face of the adaptive-adversary lower bounds
//! (Attiya–Censor) the paper contrasts itself against.

use sift_core::{Epsilon, SnapshotConciliator};
use sift_sim::adversary::AdversaryStrength;
use sift_sim::fuzz::Environment;
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::RandomInterleave;
use sift_sim::{Engine, Op};

use crate::exec::Batch;
use crate::runner::{default_trials, run_in, sifter, TrialFixture};
use crate::stats::{RateCounter, Welford};
use crate::table::{fmt_f64, Table};

fn distinct_outputs<P, O: std::hash::Hash + Eq>(
    report: &sift_sim::RunReport<P>,
    key: impl Fn(&P::Output) -> O,
) -> usize
where
    P: sift_sim::Process,
{
    use std::collections::HashSet;
    let set: HashSet<O> = report.outputs.iter().flatten().map(key).collect();
    set.len()
}

fn sifting_run(n: usize, seed: u64, adaptive: bool) -> (bool, usize) {
    let fixture = TrialFixture::new(n, |b| sifter(b, n));
    let split = SeedSplitter::new(seed);
    let engine = Engine::new(fixture.layout(), fixture.participants(&split));
    // The adaptive sifting breaker: readers of the earliest round go
    // first, so nobody is ever sifted.
    let strength = if adaptive {
        AdversaryStrength::Adaptive
    } else {
        AdversaryStrength::Oblivious
    };
    let env = Environment {
        strength,
        ..Environment::default()
    };
    let report = run_in(engine, env, RandomInterleave::new(n, split.schedule_seed()));
    let distinct = distinct_outputs(&report, |p| p.origin());
    (distinct <= 1, distinct)
}

fn snapshot_run(n: usize, seed: u64, adaptive: bool) -> (bool, usize) {
    let fixture = TrialFixture::new(n, |b| SnapshotConciliator::allocate(b, n, Epsilon::HALF));
    let split = SeedSplitter::new(seed);
    let engine = Engine::new(fixture.layout(), fixture.participants(&split));
    let report = if adaptive {
        // Ascending current-round priority, each process finishing its
        // update+scan pair before the next starts: everyone sees only
        // lower priorities and keeps its own persona.
        engine.run_adaptive(|view| {
            view.live
                .iter()
                .min_by_key(|(pid, proc, op)| {
                    let scan_pending = matches!(op, Op::SnapshotScan(_));
                    let priority = proc.persona().priority(proc.round());
                    // A process mid-pair (scan pending) must finish
                    // before its successor starts.
                    (proc.round(), !scan_pending, priority, pid.index())
                })
                .map(|(pid, _, _)| *pid)
                .expect("live processes exist")
        })
    } else {
        engine.run(RandomInterleave::new(n, split.schedule_seed()))
    };
    let distinct = distinct_outputs(&report, |p| p.origin());
    (distinct <= 1, distinct)
}

/// Agreement under the oblivious random schedule versus the adaptive
/// breaker, for both conciliators.
pub(super) fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E20 — oblivious vs adaptive adversary (n = 64, distinct inputs)",
        &[
            "conciliator",
            "adversary",
            "trials",
            "agree rate",
            "mean distinct outputs",
        ],
    );
    let n = 64;
    let trials = default_trials(150);
    type RunFn = fn(usize, u64, bool) -> (bool, usize);
    for (name, runner) in [
        ("Alg 1 (snapshot)", snapshot_run as RunFn),
        ("Alg 2 (sifting)", sifting_run as RunFn),
    ] {
        for adaptive in [false, true] {
            let (agree, distinct) = Batch::new(
                n,
                trials,
                sift_sim::schedule::ScheduleKind::RandomInterleave,
            )
            .run_with(
                |spec| runner(n, spec.seed, adaptive),
                || (RateCounter::new(), Welford::new()),
                |(agree, distinct), (ok, d)| {
                    agree.record(ok);
                    distinct.push(d as f64);
                },
            );
            let s = distinct.summary();
            table.row(vec![
                name.to_string(),
                if adaptive {
                    "adaptive breaker"
                } else {
                    "oblivious random"
                }
                .to_string(),
                agree.total().to_string(),
                fmt_f64(agree.rate()),
                fmt_f64(s.mean),
            ]);
        }
    }
    table.note(
        "The adaptive adversary watches pending operations (readers vs writers, current \
         priorities) — exactly what §1.1 forbids — and keeps all n personae alive forever. \
         Agreement collapses to 0 and every input survives to the output, confirming that \
         the paper's speedups are specifically oblivious-adversary phenomena.",
    );
    vec![table]
}
