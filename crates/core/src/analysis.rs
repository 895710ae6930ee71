//! Closed-form predictions from the paper's lemmas and theorems.
//!
//! The benchmark harness prints these next to measured values so each
//! experiment table carries its own "paper" column. All bounds are
//! *upper bounds on expectations* (the paper's style), so measured
//! values should sit at or below them, with Markov-level slack for tail
//! probabilities.

use crate::math::{ceil_log2, ceil_log_4_3, ceil_log_log, lemma1_f_iter, log_star, sifting_x};
use crate::params::Epsilon;

/// Theorem 1: round count `R = log* n + ⌈log(1/ε)⌉ + 1` of Algorithm 1.
pub(crate) fn theorem1_rounds(n: u64, epsilon: Epsilon) -> u64 {
    (log_star(n) + ceil_log2(epsilon.inverse()) + 1) as u64
}

/// Theorem 1: individual step complexity `2R` of Algorithm 1.
pub fn theorem1_steps(n: u64, epsilon: Epsilon) -> u64 {
    2 * theorem1_rounds(n, epsilon)
}

/// Lemma 1 (iterated): upper bound on the expected number of excess
/// personae after `i` rounds of Algorithm 1 with `n` initial personae.
pub fn lemma1_expected_excess(n: u64, i: u32) -> f64 {
    lemma1_f_iter((n.saturating_sub(1)) as f64, i)
}

/// Theorem 2: round count `R = ⌈log log n⌉ + ⌈log_{4/3}(8/ε)⌉` of
/// Algorithm 2 (also its individual step complexity).
pub fn theorem2_rounds(n: u64, epsilon: Epsilon) -> u64 {
    (ceil_log_log(n) + ceil_log_4_3(8.0 * epsilon.inverse()).max(1)) as u64
}

/// Lemmas 3–4: upper bound on the expected excess personae after `i`
/// rounds of Algorithm 2.
///
/// For `i ≤ ⌈log log n⌉` this is `x_i` from equation (2); beyond that it
/// decays geometrically as `8·(3/4)^{i-⌈log log n⌉}` (capped by the
/// phase-1 value for small `n`).
pub fn sifting_expected_excess(n: u64, i: u32) -> f64 {
    let aggressive = ceil_log_log(n);
    if i <= aggressive {
        sifting_x(n, i)
    } else {
        let at_switch = sifting_x(n, aggressive).min(8.0);
        at_switch * 0.75f64.powi((i - aggressive) as i32)
    }
}

/// Theorem 3: worst-case individual step bound of Algorithm 3 (loop
/// iterations × 2 + combining stage), parameterized the way
/// [`EmbeddedConciliator`](crate::EmbeddedConciliator) is built
/// (`ε = 1/4` inner sifter, 7-operation binary adopt-commit).
pub fn theorem3_individual_steps(n: u64) -> u64 {
    let inner = theorem2_rounds(n, Epsilon::QUARTER);
    2 * (inner + 1) + 1 + 7 + 1
}

/// Theorem 3: bound on the expected total steps of Algorithm 3.
///
/// The main loop performs an expected `≤ 4n` iterations before some
/// process writes `proposal` (each iteration flips a `1/(4n)` coin),
/// after which every process completes at most 2 further iterations
/// (the one in flight plus one that reads the proposal); at ≤ 2
/// operations per iteration that is `≤ 2(4n + 2n)` operations. The
/// combining stage adds ≤ 9 per process (output write + 7-operation
/// binary adopt-commit + final read): `21n` in total.
pub fn theorem3_expected_total_steps(n: u64) -> f64 {
    21.0 * n as f64
}

/// Expected number of conciliator+adopt-commit phases of a consensus
/// stack whose conciliator has agreement probability `delta`: a
/// geometric distribution with success probability `delta`, so `1/delta`
/// in expectation (paper §1.2).
pub fn expected_consensus_phases(delta: f64) -> f64 {
    assert!(delta > 0.0 && delta <= 1.0, "delta must be in (0, 1]");
    1.0 / delta
}

/// §2's duplicate-priority analysis: with priorities drawn from
/// `1..=range`, `R` rounds, and `n` personae, the probability that any
/// two personae ever share a priority is at most
/// `R · n²/2 · (1/range)`.
pub fn duplicate_priority_probability(n: u64, rounds: u64, range: u64) -> f64 {
    let pairs = (n as f64) * (n as f64) / 2.0;
    (rounds as f64 * pairs / range as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_rounds_grow_very_slowly() {
        let eps = Epsilon::HALF;
        assert_eq!(theorem1_rounds(2, eps), 3);
        assert_eq!(theorem1_rounds(1 << 16, eps), 6);
        assert_eq!(theorem1_rounds(1 << 20, eps), 7);
        assert_eq!(theorem1_steps(1 << 16, eps), 12);
    }

    #[test]
    fn theorem1_rounds_grow_with_inverse_epsilon() {
        let n = 1 << 10;
        let r_half = theorem1_rounds(n, Epsilon::HALF);
        let r_64 = theorem1_rounds(n, Epsilon::new(1.0 / 64.0).unwrap());
        assert_eq!(r_64 - r_half, 5, "log(64) - log(2) = 5 extra rounds");
    }

    #[test]
    fn lemma1_excess_after_r_rounds_is_tiny() {
        let n = 1u64 << 16;
        let r = theorem1_rounds(n, Epsilon::HALF) as u32;
        assert!(lemma1_expected_excess(n, r) <= 0.25 + 1e-9);
    }

    #[test]
    fn theorem2_rounds_values() {
        assert_eq!(theorem2_rounds(1 << 16, Epsilon::HALF), 14);
        assert_eq!(theorem2_rounds(1 << 16, Epsilon::QUARTER), 17);
    }

    #[test]
    fn sifting_excess_is_continuous_at_the_switch() {
        let n = 1u64 << 16;
        let a = ceil_log_log(n);
        let before = sifting_expected_excess(n, a);
        let after = sifting_expected_excess(n, a + 1);
        assert!(after <= before, "decay must continue: {before} -> {after}");
        assert!(before < 8.0 + 1e-9, "x at switch must be < 8");
    }

    #[test]
    fn sifting_excess_tail_reaches_epsilon() {
        // Theorem 2's calculation: after R rounds expected excess <= eps.
        let n = 1u64 << 16;
        let eps = 0.5;
        let r = theorem2_rounds(n, Epsilon::HALF) as u32;
        assert!(sifting_expected_excess(n, r) <= eps + 1e-9);
    }

    #[test]
    fn theorem3_bounds() {
        assert_eq!(
            theorem3_individual_steps(1 << 16),
            2 * 18 + 9,
            "matches EmbeddedConciliator::steps_bound"
        );
        assert_eq!(theorem3_expected_total_steps(100), 2100.0);
    }

    #[test]
    fn consensus_phase_expectation() {
        assert_eq!(expected_consensus_phases(0.5), 2.0);
        assert_eq!(expected_consensus_phases(0.125), 8.0);
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1]")]
    fn zero_delta_panics() {
        expected_consensus_phases(0.0);
    }

    #[test]
    fn duplicate_probability_matches_parameters() {
        // With the paper's range ⌈R n²/ε⌉ the bound is ε/2.
        let n = 100u64;
        let rounds = 7u64;
        let eps = 0.25;
        let range = (rounds as f64 * (n * n) as f64 / eps).ceil() as u64;
        let p = duplicate_priority_probability(n, rounds, range);
        assert!(p <= eps / 2.0 + 1e-9, "{p} > eps/2");
        assert_eq!(duplicate_priority_probability(1000, 100, 1), 1.0);
    }
}
