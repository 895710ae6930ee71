//! The obliviousness boundary as first-class negative tests.
//!
//! The paper's sifting bounds (Lemmas 2–3) are proved against an
//! *oblivious* adversary on *atomic* registers. These tests pin that
//! boundary from both sides at fixed per-claim seeds: the decay claim
//! must be decisively refuted — `cp_lower(violations, N, 1%)` excludes
//! the Markov cap, or the sample-mean LCB exceeds the bound — the
//! moment either hypothesis is dropped (adaptive scheduling, or
//! always-old regular registers), and must keep holding when both
//! hypotheses stand. A silent pass under the breaker would mean the
//! conformance machinery cannot detect the very failure mode the
//! obliviousness assumption exists to rule out.

use sift_bench::conformance::{self, Verdict};
use sift_bench::experiments::adversary;

fn by_id<'a>(results: &'a [Verdict], id: &str) -> &'a Verdict {
    results
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("negative tier is missing claim {id}"))
}

#[test]
fn negative_tier_pins_the_boundary_from_both_sides() {
    let results = conformance::run_negative(1);
    assert_eq!(results.len(), 4, "the tier is exactly four cases");

    // Under the adaptive sifting breaker the blow-up is *detected*: the
    // inner decay verdict is a refutation, which is exactly what this
    // expected-failure case requires.
    let adaptive = by_id(&results, "NEG.adaptive.decay");
    assert!(
        !adaptive.expect_hold,
        "adaptive breaker is expected to refute the decay bound: {adaptive:?}"
    );
    assert!(
        adaptive.pass,
        "the decay bound must be refuted: {adaptive:?}"
    );

    // Always-old regular registers starve first-round readers of every
    // concurrent write, which defeats sifting even obliviously.
    let regular = by_id(&results, "NEG.regular.decay");
    assert!(
        !regular.expect_hold,
        "always-old substrate is expected to refute the decay bound: {regular:?}"
    );
    assert!(regular.pass, "the decay bound must be refuted: {regular:?}");

    // The controls: inside the paper's model the same statistics at the
    // same trial counts do NOT refute the claim — the detector has a
    // calibrated zero, not a hair trigger.
    for id in ["NEG.oblivious.control", "NEG.alwaysnew.control"] {
        let control = by_id(&results, id);
        assert!(
            control.expect_hold,
            "{id} is expected to leave the bound standing: {control:?}"
        );
        assert!(
            control.pass,
            "{id} must leave the bound standing: {control:?}"
        );
    }
}

/// The E24 lattice endpoints agree with the negative tier: the
/// oblivious/atomic cell is the paper's model and agrees in the large
/// majority of trials, while both adaptive cells never agree and keep
/// all n personae alive in every trial.
#[test]
fn lattice_extremes_bracket_the_boundary() {
    let trials = 40;
    let report = adversary::run_lattice(adversary::LATTICE_N, trials);
    let cell = |strength: &str, substrate: &str| {
        report
            .cells
            .iter()
            .find(|c| c.strength == strength && c.substrate == substrate)
            .unwrap_or_else(|| panic!("missing lattice cell {strength}/{substrate}"))
    };

    let model = cell("oblivious", "atomic");
    assert!(
        model.agree_rate() >= 0.7,
        "the paper's model must mostly agree: {model:?}"
    );

    for substrate in ["atomic", "regular"] {
        let broken = cell("adaptive", substrate);
        assert_eq!(broken.agreements, 0, "the breaker defeats sifting");
        assert_eq!(
            broken.distinct_sum,
            trials as u64 * adversary::LATTICE_N as u64,
            "every persona survives every adaptive trial ({substrate})"
        );
    }
}
