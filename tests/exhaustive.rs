//! Bounded model checking: enumerate every Mazurkiewicz trace of small
//! instances and check safety on each — exhaustive proofs where
//! randomized testing only samples.
//!
//! The naive enumerator visits every raw interleaving (multinomial
//! growth) and is kept as the oracle: on instances it can still handle,
//! the DPOR explorer must visit exactly the same set of trace
//! signatures, strictly fewer executions. On larger instances (three
//! proposers at 7–8 ops each, where the naive count is in the hundreds
//! of millions to billions), only the DPOR explorer runs — with and
//! without an injected crash.

use std::collections::HashSet;

use sift::adopt_commit::{
    try_check_ac_properties, AcOutput, AdoptCommit, DigitAc, FlagsAc, GafniRegisterAc,
    GafniSnapshotAc,
};
use sift::core::{try_check_validity, Conciliator, Epsilon, SiftingConciliator};
use sift::sim::mc::{check_dpor, explore_dpor, explore_naive, trace_signature, McOptions, McStats};
use sift::sim::rng::SeedSplitter;
use sift::sim::{Layout, LayoutBuilder, Process, ProcessId};

fn flags_instance(
    n: usize,
    proposals: &[u64],
) -> (
    Layout,
    Vec<impl Process<Output = AcOutput<u64>, Value = u64> + Clone>,
) {
    let mut builder = LayoutBuilder::new();
    let ac = FlagsAc::allocate(&mut builder, n);
    let layout = builder.build();
    let procs = proposals
        .iter()
        .enumerate()
        .map(|(i, &c)| ac.proposer(ProcessId(i), c, c))
        .collect();
    (layout, procs)
}

fn digit_instance(
    code_space: u64,
    base: u64,
    proposals: &[u64],
) -> (
    Layout,
    Vec<impl Process<Output = AcOutput<u64>, Value = u64> + Clone>,
) {
    let mut builder = LayoutBuilder::new();
    let ac = DigitAc::for_code_space(&mut builder, code_space, base);
    let layout = builder.build();
    let procs = proposals
        .iter()
        .enumerate()
        .map(|(i, &c)| ac.proposer(ProcessId(i), c, c))
        .collect();
    (layout, procs)
}

/// The acceptance benchmark: on the two-proposer flags-AC instance
/// (2m+3 = 7 ops each, naive multinomial C(14,7) = 3432 per full-length
/// pair), the DPOR explorer visits *exactly* the naive enumerator's set
/// of Mazurkiewicz traces — each exactly once — in strictly fewer
/// executions. Coherence is checked on every visited execution of both.
#[test]
fn dpor_covers_all_flags_ac_traces_with_strictly_fewer_executions() {
    let mut reduced = Vec::new();
    for a in 0u64..2 {
        for b in 0u64..2 {
            let proposals = [a, b];

            let (layout, procs) = flags_instance(2, &proposals);
            let mut naive_sigs = HashSet::new();
            let naive_total = explore_naive(&layout, procs, 10_000, &mut |view| {
                naive_sigs.insert(trace_signature(view.events));
                if let Err(m) = try_check_ac_properties(&proposals, view.outputs) {
                    panic!("naive, proposals ({a},{b}): {m}");
                }
            })
            .unwrap();
            assert!(
                (1000..=3432).contains(&naive_total),
                "proposals ({a},{b}): {naive_total}"
            );

            let (layout, procs) = flags_instance(2, &proposals);
            let mut dpor_sigs = HashSet::new();
            let stats = explore_dpor(&layout, procs, McOptions::new(10_000), &mut |view| {
                assert!(
                    dpor_sigs.insert(trace_signature(view.events)),
                    "trace visited twice"
                );
                try_check_ac_properties(&proposals, view.outputs)
            })
            .unwrap();

            assert_eq!(dpor_sigs, naive_sigs, "proposals ({a},{b})");
            assert_eq!(stats.executions, naive_sigs.len() as u64);
            assert!(
                stats.executions < naive_total,
                "proposals ({a},{b}): DPOR {} vs naive {naive_total}",
                stats.executions
            );
            reduced.push((proposals, naive_total, stats.executions));
        }
    }
    // The reduction is substantial, not marginal: the unanimous pairs
    // cost the full multinomial C(14,7) = 3432 naively but only 16
    // traces; conflicting pairs finish early (1302 naive) in 8 traces.
    assert_eq!(
        reduced,
        vec![
            ([0, 0], 3432, 16),
            ([0, 1], 1302, 8),
            ([1, 0], 1302, 8),
            ([1, 1], 3432, 16),
        ]
    );
}

/// THREE flags-AC proposers at 7 ops each: the naive count is
/// 21!/(7!)³ ≈ 399 million interleavings — infeasible. The DPOR
/// explorer checks coherence over every trace.
#[test]
fn flags_ac_is_coherent_under_all_traces_of_three() {
    let proposals = [0u64, 1, 0];
    let (layout, procs) = flags_instance(3, &proposals);
    let stats = explore_dpor(&layout, procs, McOptions::new(5_000_000), &mut |view| {
        try_check_ac_properties(&proposals, view.outputs)
    })
    .unwrap();
    // Naive ≈ 3.99e8 executions; the DPOR walk is exact and
    // deterministic, so the trace count is pinned.
    assert_eq!(stats.executions, 348);
}

/// Three flags-AC proposers with one injected crash: coherence must
/// hold on every crash-truncated execution too (a crashed proposer's
/// output is `None` and is skipped by the checker).
#[test]
fn flags_ac_is_coherent_under_one_crash() {
    let proposals = [0u64, 1, 0];
    let (layout, procs) = flags_instance(3, &proposals);
    let stats = explore_dpor(
        &layout,
        procs,
        McOptions::new(20_000_000).with_crashes(1),
        &mut |view| try_check_ac_properties(&proposals, view.outputs),
    )
    .unwrap();
    // Every (crash placement, trace-of-survivors) pair, exactly once.
    assert_eq!(stats.executions, 3710);
}

/// Two digit-AC proposers, naive vs DPOR (m = 2, base 2: 8 ops each →
/// C(16,8) = 12870 raw interleavings per pair).
#[test]
fn digit_ac_is_coherent_under_all_traces_of_two() {
    for a in 0u64..2 {
        for b in 0u64..2 {
            let proposals = [a, b];
            let (layout, procs) = digit_instance(2, 2, &proposals);
            let mut naive_sigs = HashSet::new();
            let naive_total = explore_naive(&layout, procs, 20_000, &mut |view| {
                naive_sigs.insert(trace_signature(view.events));
            })
            .unwrap();

            let (layout, procs) = digit_instance(2, 2, &proposals);
            let mut dpor_sigs = HashSet::new();
            let stats = explore_dpor(&layout, procs, McOptions::new(20_000), &mut |view| {
                assert!(
                    dpor_sigs.insert(trace_signature(view.events)),
                    "trace visited twice"
                );
                try_check_ac_properties(&proposals, view.outputs)
            })
            .unwrap();
            assert_eq!(dpor_sigs, naive_sigs, "proposals ({a},{b})");
            assert!(
                stats.executions < naive_total,
                "proposals ({a},{b}): DPOR {} vs naive {naive_total}",
                stats.executions
            );
        }
    }
}

/// THREE digit-AC proposers at 8 ops each (naive: 24!/(8!)³ ≈ 9.5
/// billion — far beyond feasibility; DPOR collapses it to 348 traces
/// in milliseconds).
#[test]
fn digit_ac_is_coherent_under_all_traces_of_three() {
    let proposals = [0u64, 1, 0];
    let (layout, procs) = digit_instance(2, 2, &proposals);
    let stats = explore_dpor(&layout, procs, McOptions::new(50_000_000), &mut |view| {
        try_check_ac_properties(&proposals, view.outputs)
    })
    .unwrap();
    assert_eq!(stats.executions, 348);
}

/// Three digit-AC proposers with a crash budget of TWO: every placement
/// of up to two crashes, exhaustively.
#[test]
fn digit_ac_is_coherent_under_two_crashes_of_three() {
    let proposals = [0u64, 1, 0];
    let (layout, procs) = digit_instance(2, 2, &proposals);
    let stats = explore_dpor(
        &layout,
        procs,
        McOptions::new(50_000_000).with_crashes(2),
        &mut |view| try_check_ac_properties(&proposals, view.outputs),
    )
    .unwrap();
    assert_eq!(stats.executions, 13_276);
}

/// FOUR flags-AC proposers at 7 ops each: the naive count is
/// 28!/(7!)⁴ ≈ 4.7×10¹³ interleavings. DPOR visits 28 360 traces in a
/// few seconds (release) — run via `just mc-full` / nightly CI.
#[test]
#[ignore = "heavy: run with `just mc-full`"]
fn flags_ac_is_coherent_under_all_traces_of_four() {
    let proposals = [0u64, 1, 0, 1];
    let (layout, procs) = flags_instance(4, &proposals);
    let stats = explore_dpor(&layout, procs, McOptions::new(100_000_000), &mut |view| {
        try_check_ac_properties(&proposals, view.outputs)
    })
    .unwrap();
    assert_eq!(stats.executions, 28_360);
}

/// Four flags-AC proposers with one injected crash — the heaviest
/// instance in the suite (~467k traces; run via `just mc-full`).
#[test]
#[ignore = "heavy: run with `just mc-full`"]
fn flags_ac_is_coherent_under_one_crash_of_four() {
    let proposals = [0u64, 1, 0, 1];
    let (layout, procs) = flags_instance(4, &proposals);
    let stats = explore_dpor(
        &layout,
        procs,
        McOptions::new(100_000_000).with_crashes(1),
        &mut |view| try_check_ac_properties(&proposals, view.outputs),
    )
    .unwrap();
    assert_eq!(stats.executions, 467_312);
}

/// Four digit-AC proposers with one injected crash (naive base count
/// 32!/(8!)⁴ ≈ 10¹⁶; run via `just mc-full`).
#[test]
#[ignore = "heavy: run with `just mc-full`"]
fn digit_ac_is_coherent_under_one_crash_of_four() {
    let proposals = [0u64, 1, 0, 1];
    let (layout, procs) = digit_instance(2, 2, &proposals);
    let stats = explore_dpor(
        &layout,
        procs,
        McOptions::new(100_000_000).with_crashes(1),
        &mut |view| try_check_ac_properties(&proposals, view.outputs),
    )
    .unwrap();
    assert_eq!(stats.executions, 237_376);
}

/// Two digit-AC proposers under one injected crash.
#[test]
fn digit_ac_is_coherent_under_one_crash() {
    for a in 0u64..2 {
        for b in 0u64..2 {
            let proposals = [a, b];
            let (layout, procs) = digit_instance(2, 2, &proposals);
            explore_dpor(
                &layout,
                procs,
                McOptions::new(100_000).with_crashes(1),
                &mut |view| try_check_ac_properties(&proposals, view.outputs),
            )
            .unwrap();
        }
    }
}

/// Every trace of two snapshot-Gafni proposers, all proposal pairs.
#[test]
fn gafni_snapshot_ac_is_coherent_under_all_traces_of_two() {
    for a in 0u64..2 {
        for b in 0u64..2 {
            let proposals = [a, b];
            let mut builder = LayoutBuilder::new();
            let ac = GafniSnapshotAc::<u64>::allocate(&mut builder, 2, |v| *v);
            let layout = builder.build();
            let procs = vec![
                ac.proposer(ProcessId(0), a, a),
                ac.proposer(ProcessId(1), b, b),
            ];
            explore_dpor(&layout, procs, McOptions::new(10_000), &mut |view| {
                try_check_ac_properties(&proposals, view.outputs)
            })
            .unwrap();
        }
    }
}

/// Three snapshot-Gafni proposers with a crash budget of one — the
/// wait-freedom-dependent case the naive explorer never covered.
#[test]
fn gafni_snapshot_ac_is_coherent_under_one_crash_of_three() {
    let proposals = [0u64, 1, 0];
    let mut builder = LayoutBuilder::new();
    let ac = GafniSnapshotAc::<u64>::allocate(&mut builder, 3, |v| *v);
    let layout = builder.build();
    let procs: Vec<_> = proposals
        .iter()
        .enumerate()
        .map(|(i, &c)| ac.proposer(ProcessId(i), c, c))
        .collect();
    let stats = explore_dpor(
        &layout,
        procs,
        McOptions::new(2_000_000).with_crashes(1),
        &mut |view| try_check_ac_properties(&proposals, view.outputs),
    )
    .unwrap();
    assert_eq!(stats.executions, 730);
}

/// Every trace of two register-Gafni proposers (3n+2 = 8 ops worst case
/// at n = 2), coherent with and without a crash.
#[test]
fn gafni_register_ac_is_coherent_under_all_traces_of_two() {
    for crashes in [0usize, 1] {
        for a in 0u64..2 {
            for b in 0u64..2 {
                let proposals = [a, b];
                let mut builder = LayoutBuilder::new();
                let ac = GafniRegisterAc::<u64>::allocate(&mut builder, 2, |v| *v);
                let layout = builder.build();
                let procs = vec![
                    ac.proposer(ProcessId(0), a, a),
                    ac.proposer(ProcessId(1), b, b),
                ];
                explore_dpor(
                    &layout,
                    procs,
                    McOptions::new(100_000).with_crashes(crashes),
                    &mut |view| try_check_ac_properties(&proposals, view.outputs),
                )
                .unwrap();
            }
        }
    }
}

/// Two-process sifting conciliator: validity and termination hold on
/// every trace, for several pre-flipped coin seeds. Uses the
/// counterexample-shrinking checker so a failure would print a
/// replayable schedule.
#[test]
fn sifting_conciliator_is_valid_under_all_traces_of_two() {
    let inputs = [100u64, 101];
    for seed in 0..10 {
        let mut builder = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut builder, 2, Epsilon::HALF);
        let layout = builder.build();
        let factory = || {
            let split = SeedSplitter::new(seed);
            split.processes(2, |pid, rng| c.participant(pid, inputs[pid.index()], rng))
        };
        let stats: McStats = check_dpor(&layout, factory, McOptions::new(500_000), |outputs| {
            try_check_validity(&inputs, outputs)?;
            if !outputs.iter().all(Option::is_some) {
                return Err("termination violated without crashes".to_string());
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(stats.executions > 0, "seed {seed}");
    }
}

/// Two-process sifting conciliator with one injected crash: validity
/// must still hold on every partial execution (the survivor may return
/// either input; a crashed process returns nothing).
#[test]
fn sifting_conciliator_is_valid_under_one_crash() {
    let inputs = [100u64, 101];
    for seed in 0..10 {
        let mut builder = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut builder, 2, Epsilon::HALF);
        let layout = builder.build();
        let factory = || {
            let split = SeedSplitter::new(seed);
            split.processes(2, |pid, rng| c.participant(pid, inputs[pid.index()], rng))
        };
        check_dpor(
            &layout,
            factory,
            McOptions::new(500_000).with_crashes(1),
            |outputs| try_check_validity(&inputs, outputs),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
