//! Property-based tests of the adopt-commit contract (validity,
//! convergence, coherence) for every implementation under arbitrary
//! proposals and schedule families.

mod common;

use common::{cases, schedule_kind, size_in, vec_below};

use sift::adopt_commit::{
    check_ac_properties, AcOutput, AdoptCommit, BinaryAc, DigitAc, FlagsAc, GafniRegisterAc,
    GafniSnapshotAc,
};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::ScheduleKind;
use sift::sim::{Engine, LayoutBuilder, ProcessId};

fn run_object<A: AdoptCommit<u64>>(
    ac: &A,
    layout: &sift::sim::Layout,
    proposals: &[u64],
    kind: ScheduleKind,
    seed: u64,
) -> Vec<Option<AcOutput<u64>>> {
    let n = proposals.len();
    let split = SeedSplitter::new(seed);
    let procs: Vec<_> = proposals
        .iter()
        .enumerate()
        .map(|(i, &c)| ac.proposer(ProcessId(i), c, c))
        .collect();
    let report = Engine::new(layout, procs).run(kind.build(n, split.schedule_seed()));
    report.outputs
}

/// Runs one of the five implementations (`which`) on `proposals`.
fn run_which(
    which: usize,
    proposals: &[u64],
    kind: ScheduleKind,
    seed: u64,
) -> Vec<Option<AcOutput<u64>>> {
    let n = proposals.len();
    let mut b = LayoutBuilder::new();
    match which {
        0 => {
            let ac = FlagsAc::allocate(&mut b, 16);
            let layout = b.build();
            run_object(&ac, &layout, proposals, kind, seed)
        }
        1 => {
            let ac = DigitAc::for_code_space(&mut b, 16, 2);
            let layout = b.build();
            run_object(&ac, &layout, proposals, kind, seed)
        }
        2 => {
            let ac = DigitAc::for_code_space(&mut b, 16, 4);
            let layout = b.build();
            run_object(&ac, &layout, proposals, kind, seed)
        }
        3 => {
            let ac = GafniSnapshotAc::<u64>::allocate(&mut b, n, |v| *v);
            let layout = b.build();
            run_object(&ac, &layout, proposals, kind, seed)
        }
        _ => {
            let ac = GafniRegisterAc::<u64>::allocate(&mut b, n, |v| *v);
            let layout = b.build();
            run_object(&ac, &layout, proposals, kind, seed)
        }
    }
}

fn assert_spec(which: usize, proposals: &[u64], kind: ScheduleKind, seed: u64) {
    let outputs = run_which(which, proposals, kind, seed);
    assert!(outputs.iter().all(Option::is_some), "termination");
    check_ac_properties(proposals, &outputs);
}

/// All five implementations satisfy the spec under arbitrary
/// proposals (codes < 16) and any schedule family.
#[test]
fn all_objects_satisfy_the_spec() {
    cases("all_objects_satisfy_the_spec", 96, |rng| {
        let kind = schedule_kind(rng);
        let proposals = vec_below(rng, 1..10, 16);
        let seed = rng.range_u64(100_000);
        let which = size_in(rng, 0..5);
        assert_spec(which, &proposals, kind, seed);
    });
}

/// The case proptest once shrank a failure to: `FlagsAc`, a single
/// proposer of code 0, under `Stutter` (which has nobody to starve at
/// `n = 1`).
#[test]
fn flags_ac_with_a_lone_stuttering_proposer() {
    assert_spec(0, &[0], ScheduleKind::Stutter, 0);
}

/// The binary object used by Algorithm 3's combining stage.
#[test]
fn binary_object_satisfies_the_spec() {
    cases("binary_object_satisfies_the_spec", 96, |rng| {
        let kind = schedule_kind(rng);
        let bits: Vec<bool> = (0..size_in(rng, 1..10)).map(|_| rng.coin()).collect();
        let seed = rng.range_u64(100_000);
        let n = bits.len();
        let mut b = LayoutBuilder::new();
        let ac = BinaryAc::allocate(&mut b);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs: Vec<_> = bits
            .iter()
            .enumerate()
            .map(|(i, &bit)| ac.propose_bit(ProcessId(i), bit))
            .collect();
        let report = Engine::new(&layout, procs).run(kind.build(n, split.schedule_seed()));
        let proposals: Vec<u64> = bits.iter().map(|&b| u64::from(b)).collect();
        check_ac_properties(&proposals, &report.outputs);
    });
}

/// Step bounds hold for every implementation in every execution.
#[test]
fn step_bounds_hold() {
    cases("step_bounds_hold", 96, |rng| {
        let kind = schedule_kind(rng);
        let proposals = vec_below(rng, 2..8, 64);
        let seed = rng.range_u64(100_000);
        let n = proposals.len();
        // Digit object, base 2, m = 64.
        let mut b = LayoutBuilder::new();
        let ac = DigitAc::for_code_space(&mut b, 64, 2);
        let bound = <DigitAc as AdoptCommit<u64>>::steps_bound(&ac);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs: Vec<_> = proposals
            .iter()
            .enumerate()
            .map(|(i, &c)| ac.proposer(ProcessId(i), c, c))
            .collect();
        let report = Engine::new(&layout, procs).run(kind.build(n, split.schedule_seed()));
        for &steps in &report.metrics.per_process_steps {
            assert!(steps <= bound, "{steps} > {bound}");
        }
    });
}
