//! Property-based tests of the test-and-set family across schedules,
//! sizes, and crash patterns.

mod common;

use common::{cases, schedule_kind, size_in};

use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::{CrashSubset, RandomInterleave, Schedule};
use sift::sim::{Engine, LayoutBuilder, ProcessId};
use sift::tas::{check_tas_properties, SiftingTas, TasOutcome, TournamentTas, TwoProcessTas};

/// The sifting test-and-set: exactly one winner whenever everyone
/// finishes, for any size and schedule family.
#[test]
fn sifting_tas_has_exactly_one_winner() {
    cases("sifting_tas_has_exactly_one_winner", 48, |rng| {
        let n = size_in(rng, 1..20);
        let kind = schedule_kind(rng);
        let seed = rng.range_u64(100_000);
        let mut b = LayoutBuilder::new();
        let tas = SiftingTas::allocate(&mut b, n);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
        let report = Engine::new(&layout, procs).run(kind.build(n, split.schedule_seed()));
        assert!(report.outputs.iter().all(Option::is_some), "termination");
        check_tas_properties(&report.outputs);
    });
}

/// The tournament alone: same guarantee.
#[test]
fn tournament_tas_has_exactly_one_winner() {
    cases("tournament_tas_has_exactly_one_winner", 48, |rng| {
        let n = size_in(rng, 1..16);
        let kind = schedule_kind(rng);
        let seed = rng.range_u64(100_000);
        let mut b = LayoutBuilder::new();
        let tas = TournamentTas::allocate(&mut b, n);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
        let report = Engine::new(&layout, procs).run(kind.build(n, split.schedule_seed()));
        check_tas_properties(&report.outputs);
    });
}

/// Crash tolerance: at most one winner among survivors; every
/// survivor terminates.
#[test]
fn sifting_tas_tolerates_crashes() {
    cases("sifting_tas_tolerates_crashes", 48, |rng| {
        let n = size_in(rng, 2..16);
        let fraction = rng.unit_f64() * 0.9;
        let seed = rng.range_u64(100_000);
        let mut b = LayoutBuilder::new();
        let tas = SiftingTas::allocate(&mut b, n);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let schedule = CrashSubset::random(
            RandomInterleave::new(n, split.schedule_seed()),
            n,
            fraction,
            split.seed("crashes", 0),
        );
        let live = schedule.support().len();
        let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
        let report = Engine::new(&layout, procs).run(schedule);
        let finished = report.outputs.iter().flatten().count();
        assert_eq!(finished, live, "all live processes must finish");
        let winners = report
            .outputs
            .iter()
            .flatten()
            .filter(|o| o.is_win())
            .count();
        assert!(winners <= 1, "{winners} winners");
    });
}

/// Two-process node: the loser never wins against a solo winner.
#[test]
fn two_process_tas_is_safe() {
    cases("two_process_tas_is_safe", 48, |rng| {
        let kind = schedule_kind(rng);
        let seed = rng.range_u64(100_000);
        let both = rng.coin();
        let mut b = LayoutBuilder::new();
        let tas = TwoProcessTas::allocate(&mut b);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let mut procs = vec![tas.participant(false, &mut split.process_stream(ProcessId(0)))];
        if both {
            procs.push(tas.participant(true, &mut split.process_stream(ProcessId(1))));
        }
        let n = procs.len();
        let report = Engine::new(&layout, procs).run(kind.build(n, split.schedule_seed()));
        check_tas_properties(&report.outputs);
        if !both {
            assert_eq!(report.outputs[0], Some(TasOutcome::Won), "solo always wins");
        }
    });
}
