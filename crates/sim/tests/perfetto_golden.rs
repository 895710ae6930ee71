//! Golden test for the Chrome-trace (Perfetto) exporter: a fixed run
//! must export byte-identically to the committed fixture, and the
//! fixture must pass the structural schema check.
//!
//! To regenerate the fixture after an intentional format change, run
//! this test and copy the "actual" output it prints into
//! `tests/fixtures/perfetto_golden.json`.

use sift_sim::obs::{check_trace_shape, perfetto_trace_json};
use sift_sim::schedule::FixedSchedule;
use sift_sim::{Engine, LayoutBuilder, MaxRegisterId, Op, OpResult, Process, RegisterId, Step};

const GOLDEN: &str = include_str!("fixtures/perfetto_golden.json");

/// Writes its input to a register, bids into a max register, reads the
/// winner back: exercises four distinct op kinds deterministically.
struct Bidder {
    reg: RegisterId,
    max: MaxRegisterId,
    input: u64,
    phase: u8,
}

impl Process for Bidder {
    type Value = u64;
    type Output = u64;

    fn step(&mut self, prev: Option<OpResult<u64>>) -> Step<u64, u64> {
        self.phase += 1;
        match self.phase {
            1 => Step::Issue(Op::RegisterWrite(self.reg, self.input)),
            2 => Step::Issue(Op::MaxWrite(self.max, self.input, self.input)),
            3 => Step::Issue(Op::MaxRead(self.max)),
            _ => Step::Done(prev.unwrap().expect_max().map_or(0, |(k, _)| k)),
        }
    }
}

fn fixed_run_trace() -> String {
    let mut b = LayoutBuilder::new();
    let reg = b.register();
    let max = b.max_register();
    let layout = b.build();
    let procs = (0..2)
        .map(|i| Bidder {
            reg,
            max,
            input: 10 + i,
            phase: 0,
        })
        .collect();
    let mut engine = Engine::new(&layout, procs);
    engine.enable_trace_ring(16);
    let report = engine.run(FixedSchedule::from_indices([0, 1, 0, 1, 0, 1]));
    assert_eq!(report.outputs, vec![Some(11), Some(11)]);
    let ring = report.ring.expect("ring enabled");
    // Both personae survive round 0; the bid 11 alone survives round 1.
    perfetto_trace_json(ring.events(), 2, &[(0, 2), (1, 1)])
}

#[test]
fn export_matches_committed_fixture() {
    let actual = fixed_run_trace();
    assert_eq!(
        actual, GOLDEN,
        "exporter output diverged from fixture.\n--- actual ---\n{actual}"
    );
}

#[test]
fn fixture_passes_schema_check() {
    // 1 process_name + 2 thread_name + 6 ops + 2 counter samples.
    assert_eq!(check_trace_shape(GOLDEN), Ok(11));
}

#[test]
fn export_is_stable_across_repeated_runs() {
    assert_eq!(fixed_run_trace(), fixed_run_trace());
}

#[test]
fn empty_export_passes_schema_check() {
    let json = perfetto_trace_json([].iter(), 0, &[]);
    assert!(check_trace_shape(&json).is_ok());
}
