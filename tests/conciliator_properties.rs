//! Property-based tests of the conciliator contract (termination,
//! validity, probabilistic agreement plumbing) across all four
//! constructions and every schedule family.

mod common;

use common::{cases, schedule_kind, size_in};

use sift::core::{
    distinct_per_round, CilConciliator, Conciliator, EmbeddedConciliator, Epsilon, MaxConciliator,
    Recorder, RoundHistory, SiftingConciliator, SnapshotConciliator,
};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::ScheduleKind;
use sift::sim::{Engine, LayoutBuilder};

#[derive(Debug, Clone, Copy)]
enum Alg {
    Snapshot,
    Max,
    Sifting,
    Embedded,
    /// Algorithm 3 around the max-register Algorithm 1 (§4's closing
    /// remark).
    EmbeddedMax,
    Cil,
}

const ALGS: [Alg; 6] = [
    Alg::Snapshot,
    Alg::Max,
    Alg::Sifting,
    Alg::Embedded,
    Alg::EmbeddedMax,
    Alg::Cil,
];

/// Runs a conciliator and returns the input carried by each output.
fn run_alg(alg: Alg, n: usize, inputs: &[u64], seed: u64, kind: ScheduleKind) -> Vec<u64> {
    let split = SeedSplitter::new(seed);
    let schedule = kind.build(n, split.schedule_seed());
    let mut b = LayoutBuilder::new();

    macro_rules! go {
        ($c:expr) => {{
            let c = $c;
            let layout = b.build();
            let procs = split.processes(n, |pid, rng| c.participant(pid, inputs[pid.index()], rng));
            let report = Engine::new(&layout, procs).run(schedule);
            report
                .unwrap_outputs()
                .into_iter()
                .map(|p| p.input())
                .collect::<Vec<u64>>()
        }};
    }

    match alg {
        Alg::Snapshot => go!(SnapshotConciliator::allocate(&mut b, n, Epsilon::HALF)),
        Alg::Max => go!(MaxConciliator::allocate(&mut b, n, Epsilon::HALF)),
        Alg::Sifting => go!(SiftingConciliator::allocate(&mut b, n, Epsilon::HALF)),
        Alg::Embedded => go!(EmbeddedConciliator::allocate(&mut b, n)),
        Alg::EmbeddedMax => go!(EmbeddedConciliator::allocate_with_max_inner(&mut b, n)),
        Alg::Cil => go!(CilConciliator::allocate(&mut b, n)),
    }
}

/// Termination + validity: every process decides some process's
/// input, under every algorithm and schedule family.
#[test]
fn validity_and_termination() {
    cases("validity_and_termination", 64, |rng| {
        let alg = ALGS[size_in(rng, 0..ALGS.len())];
        let kind = schedule_kind(rng);
        let n = size_in(rng, 1..12);
        let seed = rng.range_u64(10_000);
        let input_mod = 1 + rng.range_u64(5);
        let inputs: Vec<u64> = (0..n as u64).map(|i| i % input_mod).collect();
        let outputs = run_alg(alg, n, &inputs, seed, kind);
        assert_eq!(outputs.len(), n);
        for out in outputs {
            assert!(inputs.contains(&out), "output {out} not an input");
        }
    });
}

/// Unanimity in, unanimity out: when all inputs are equal, validity
/// forces agreement deterministically.
#[test]
fn unanimous_inputs_always_agree() {
    cases("unanimous_inputs_always_agree", 64, |rng| {
        let alg = ALGS[size_in(rng, 0..ALGS.len())];
        let kind = schedule_kind(rng);
        let n = size_in(rng, 1..10);
        let seed = rng.range_u64(10_000);
        let value = rng.range_u64(50);
        let inputs = vec![value; n];
        for out in run_alg(alg, n, &inputs, seed, kind) {
            assert_eq!(out, value);
        }
    });
}

/// Round-structured conciliators never invent personae and their
/// survivor sets only shrink.
#[test]
fn survivors_shrink_monotonically() {
    cases("survivors_shrink_monotonically", 64, |rng| {
        let kind = schedule_kind(rng);
        let n = size_in(rng, 2..16);
        let seed = rng.range_u64(10_000);
        let use_sifting = rng.coin();
        let split = SeedSplitter::new(seed);
        let schedule = kind.build(n, split.schedule_seed());
        let mut b = LayoutBuilder::new();
        let counts = if use_sifting {
            let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
            let layout = b.build();
            let procs = split.processes(n, |pid, rng| {
                Recorder::new(c.participant(pid, pid.index() as u64, rng))
            });
            let report = Engine::new(&layout, procs).run(schedule);
            distinct_per_round(report.processes.iter().map(|p| p.history()))
        } else {
            let c = SnapshotConciliator::allocate(&mut b, n, Epsilon::HALF);
            let layout = b.build();
            let procs = split.processes(n, |pid, rng| {
                Recorder::new(c.participant(pid, pid.index() as u64, rng))
            });
            let report = Engine::new(&layout, procs).run(schedule);
            distinct_per_round(report.processes.iter().map(|p| p.history()))
        };
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "survivors grew: {counts:?}");
        }
    });
}

/// The deterministic step counts of Theorems 1 and 2 hold exactly:
/// Algorithm 1 takes 2R ops per process, Algorithm 2 takes R.
#[test]
fn step_counts_are_exact() {
    cases("step_counts_are_exact", 64, |rng| {
        let kind = schedule_kind(rng);
        let n = size_in(rng, 1..16);
        let seed = rng.range_u64(10_000);
        let split = SeedSplitter::new(seed);
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let rounds = c.rounds() as u64;
        let procs = split.processes(n, |pid, rng| c.participant(pid, 0, rng));
        let report = Engine::new(&layout, procs).run(kind.build(n, split.schedule_seed()));
        for &steps in &report.metrics.per_process_steps {
            assert_eq!(steps, rounds);
        }
    });
}
