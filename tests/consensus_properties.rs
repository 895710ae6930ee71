//! Property-based tests of the full consensus stacks: agreement and
//! validity are *absolute* (never merely probabilistic), under every
//! schedule family and under crash failures.

mod common;

use common::{cases, schedule_kind, size_in, vec_below};

use sift::consensus::{
    check_consensus, cil_consensus, linear_work_consensus, max_register_consensus,
    sifting_consensus, snapshot_consensus, ConsensusOutcome,
};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::{CrashSubset, RandomInterleave, Schedule, ScheduleKind};
use sift::sim::{Engine, LayoutBuilder};

fn run_protocol(
    which: usize,
    inputs: &[u64],
    m: u64,
    seed: u64,
    kind: ScheduleKind,
) -> Vec<ConsensusOutcome> {
    let n = inputs.len();
    let split = SeedSplitter::new(seed);
    let schedule = kind.build(n, split.schedule_seed());
    let mut b = LayoutBuilder::new();

    macro_rules! go {
        ($p:expr) => {{
            let p = $p;
            let layout = b.build();
            let procs = split.processes(n, |pid, rng| p.participant(pid, inputs[pid.index()], rng));
            Engine::new(&layout, procs).run(schedule).unwrap_outputs()
        }};
    }

    match which {
        0 => go!(snapshot_consensus(&mut b, n)),
        1 => go!(max_register_consensus(&mut b, n)),
        2 => go!(sifting_consensus(&mut b, n, m, 2)),
        3 => go!(linear_work_consensus(&mut b, n, m, 2)),
        _ => go!(cil_consensus(&mut b, n)),
    }
}

/// Agreement and validity hold in every execution of every stack.
#[test]
fn consensus_safety_is_absolute() {
    cases("consensus_safety_is_absolute", 48, |rng| {
        let which = size_in(rng, 0..5);
        let kind = schedule_kind(rng);
        let inputs = vec_below(rng, 1..10, 8);
        let seed = rng.range_u64(100_000);
        let outcomes = run_protocol(which, &inputs, 8, seed, kind);
        check_consensus(&inputs, outcomes.iter());
    });
}

/// Unanimity decides in exactly one phase (convergence end to end).
#[test]
fn unanimity_decides_in_one_phase() {
    cases("unanimity_decides_in_one_phase", 48, |rng| {
        let which = size_in(rng, 0..4); // CIL conciliator may still need >1 phase
        let kind = schedule_kind(rng);
        let n = size_in(rng, 1..8);
        let value = rng.range_u64(8);
        let seed = rng.range_u64(100_000);
        let inputs = vec![value; n];
        for o in run_protocol(which, &inputs, 8, seed, kind) {
            match o {
                ConsensusOutcome::Decided(d) => {
                    assert_eq!(d.value, value);
                    assert_eq!(d.phases, 1);
                }
                ConsensusOutcome::Exhausted { .. } => panic!("exhausted"),
            }
        }
    });
}

/// Wait-freedom: under crash failures, every surviving process still
/// decides, and survivors agree.
#[test]
fn survivors_decide_under_crashes() {
    cases("survivors_decide_under_crashes", 48, |rng| {
        let inputs = vec_below(rng, 2..10, 4);
        let fraction = rng.unit_f64() * 0.9;
        let seed = rng.range_u64(100_000);
        let n = inputs.len();
        let split = SeedSplitter::new(seed);
        let mut b = LayoutBuilder::new();
        let p = sifting_consensus(&mut b, n, 4, 2);
        let layout = b.build();
        let schedule = CrashSubset::random(
            RandomInterleave::new(n, split.schedule_seed()),
            n,
            fraction,
            split.seed("crashes", 0),
        );
        let live = schedule.support().len();
        let procs = split.processes(n, |pid, rng| p.participant(pid, inputs[pid.index()], rng));
        let report = Engine::new(&layout, procs).run(schedule);
        let decided: Vec<&ConsensusOutcome> = report.outputs.iter().flatten().collect();
        assert_eq!(decided.len(), live, "every live process decides");
        check_consensus(&inputs, decided);
    });
}
