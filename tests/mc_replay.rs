//! Counterexample replay: a deliberately broken adopt-commit object
//! must produce a model-checking violation whose shrunk schedule
//! replays deterministically through the ordinary engine under a
//! [`FixedSchedule`] — the end-to-end contract of the counterexample
//! reporter.

mod common;

use common::report_digest;
use sift::adopt_commit::{try_check_ac_properties, AcOutput, Verdict};
use sift::sim::mc::{check_dpor, replay_script, CheckError, McOptions};
use sift::sim::schedule::FixedSchedule;
use sift::sim::{Engine, Layout, LayoutBuilder, Op, OpResult, Process, RegisterId, Step};

/// A broken "adopt-commit" proposer (test-only mutant): write your code
/// to one shared register, read it back, and commit if you see your own
/// code. Two solo-running proposers with different codes both commit —
/// a coherence violation a real adopt-commit object must prevent.
#[derive(Clone)]
struct BrokenProposer {
    reg: RegisterId,
    code: u64,
    phase: u8,
}

impl Process for BrokenProposer {
    type Value = u64;
    type Output = AcOutput<u64>;

    fn step(&mut self, prev: Option<OpResult<u64>>) -> Step<u64, AcOutput<u64>> {
        self.phase += 1;
        match self.phase {
            1 => Step::Issue(Op::RegisterWrite(self.reg, self.code)),
            2 => Step::Issue(Op::RegisterRead(self.reg)),
            _ => {
                let seen = prev
                    .expect("read result")
                    .expect_register()
                    .expect("register was written");
                let verdict = if seen == self.code {
                    Verdict::Commit
                } else {
                    Verdict::Adopt
                };
                Step::Done(AcOutput {
                    verdict,
                    code: seen,
                    value: seen,
                })
            }
        }
    }
}

fn broken_instance() -> (Layout, [u64; 2], impl Fn() -> Vec<BrokenProposer>) {
    let mut b = LayoutBuilder::new();
    let reg = b.register();
    let layout = b.build();
    let proposals = [0u64, 1];
    let factory = move || {
        proposals
            .iter()
            .map(|&code| BrokenProposer {
                reg,
                code,
                phase: 0,
            })
            .collect()
    };
    (layout, proposals, factory)
}

#[test]
fn broken_adopt_commit_yields_shrunk_replayable_violation() {
    let (layout, proposals, factory) = broken_instance();
    let err = check_dpor(&layout, &factory, McOptions::new(10_000), |outputs| {
        try_check_ac_properties(&proposals, outputs)
    })
    .unwrap_err();
    let CheckError::Violation(violation) = err else {
        panic!("expected a coherence violation, got {err}");
    };
    assert!(
        violation.message.contains("coherence violated"),
        "{}",
        violation.message
    );

    // The shrunk schedule is the minimal solo-then-solo run: each
    // proposer takes its two steps uninterrupted and commits its own
    // code. No single slot can be removed without losing the failure.
    assert_eq!(violation.script, vec![0, 0, 1, 1]);

    // The report prints a schedule the reader can paste into a replay.
    let printed = violation.to_string();
    assert!(printed.contains("FixedSchedule::from_indices([0, 0, 1, 1])"));
    assert!(printed.contains("coherence violated"));

    // Deterministic replay through the helper: same outputs every time,
    // and the property fails on them.
    let outputs = replay_script(&layout, factory(), &violation.script);
    assert_eq!(
        outputs,
        replay_script(&layout, factory(), &violation.script)
    );
    let message = try_check_ac_properties(&proposals, &outputs).unwrap_err();
    assert_eq!(message, violation.message);

    // And through the ordinary engine + FixedSchedule, as the printed
    // report instructs.
    let report =
        Engine::new(&layout, factory()).run(FixedSchedule::from_indices(violation.script.clone()));
    let both_commit = report
        .outputs
        .iter()
        .flatten()
        .filter(|o| o.is_commit())
        .count();
    assert_eq!(both_commit, 2, "both proposers commit different codes");
    assert_ne!(
        report.outputs[0].as_ref().unwrap().code,
        report.outputs[1].as_ref().unwrap().code
    );
}

/// The same mutant under a crash budget: with one proposer crashed the
/// coherence violation needs both to finish, so every counterexample
/// the checker reports must still contain both processes' slots.
#[test]
fn shrunk_counterexample_survives_crash_injection() {
    let (layout, proposals, factory) = broken_instance();
    let err = check_dpor(
        &layout,
        &factory,
        McOptions::new(10_000).with_crashes(1),
        |outputs| try_check_ac_properties(&proposals, outputs),
    )
    .unwrap_err();
    let CheckError::Violation(violation) = err else {
        panic!("expected a coherence violation, got {err}");
    };
    assert_eq!(violation.script, vec![0, 0, 1, 1]);
    assert!(violation.script.contains(&0) && violation.script.contains(&1));
}

/// Sanity: the shrinker leaves already-minimal schedules alone and the
/// violation replays from a *fresh* engine (no state leaks between
/// replays during shrinking).
#[test]
fn replay_is_deterministic_across_engines() {
    let (layout, _, factory) = broken_instance();
    let script = [0usize, 0, 1, 1];
    let a = replay_script(&layout, factory(), &script);
    let b = replay_script(&layout, factory(), &script);
    assert_eq!(a, b);
    assert!(a.iter().all(Option::is_some));
}

/// Contract for model-checking replays: a violation script (and
/// padded/truncated variants of it) replays to the report digest both
/// engines gave — the event engine and the per-step legacy one it
/// replaced, checked equal on these scripts before the legacy engine
/// was deleted — so counterexamples found before the refactor replay
/// unchanged.
#[test]
fn mc_violation_scripts_replay_identically_on_both_engines() {
    let (layout, _, factory) = broken_instance();
    let pinned: [(&[usize], u64); 5] = [
        (&[0, 0, 1, 1], 0x6c356d84e0c77650),
        (&[1, 1, 0, 0], 0xe31cd0116942c5c8),
        (&[0, 1, 0, 1], 0x4d380327c1de2dc0),
        // Padded with free slots to a finished process.
        (&[0, 0, 0, 0, 1, 1, 0, 1], 0x6bbfc41bbdbb464e),
        // Truncated mid-protocol: both stop exhausted with pending state.
        (&[0, 1], 0xcd5323e8db82046e),
    ];
    for (script, digest) in pinned {
        let mut engine = Engine::new(&layout, factory());
        engine.enable_trace();
        let got = report_digest(&engine.run(FixedSchedule::from_indices(script.to_vec())));
        assert_eq!(got, digest, "script {script:?}: {got:#018x}");
    }
}
