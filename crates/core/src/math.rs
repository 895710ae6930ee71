//! The small zoo of logarithms and recurrences used by the paper.
//!
//! Everything here is pure arithmetic shared between the algorithms
//! (round counts, write probabilities) and the analysis/bench code
//! (predicted columns for the experiment tables).

/// Iterated logarithm `log* n` (base 2): the number of times `log2` must
/// be applied before the result is ≤ 1 (paper §1.3).
///
/// # Examples
///
/// ```
/// use sift_core::math::log_star;
/// assert_eq!(log_star(1), 0);
/// assert_eq!(log_star(2), 1);
/// assert_eq!(log_star(4), 2);
/// assert_eq!(log_star(16), 3);
/// assert_eq!(log_star(65536), 4);
/// assert_eq!(log_star(u64::MAX), 5);
/// ```
pub fn log_star(n: u64) -> u32 {
    let mut x = n as f64;
    let mut count = 0;
    while x > 1.0 {
        x = x.log2();
        count += 1;
    }
    count
}

/// `⌈log2 x⌉` for a positive real (used for `⌈log(1/ε)⌉`).
///
/// # Panics
///
/// Panics if `x` is not positive and finite.
pub(crate) fn ceil_log2(x: f64) -> u32 {
    assert!(
        x.is_finite() && x > 0.0,
        "ceil_log2 needs a positive finite input"
    );
    let l = x.log2();
    let c = l.ceil();
    // Guard against representation error for exact powers of two.
    if (c - l).abs() < 1e-12 {
        l.round().max(0.0) as u32
    } else {
        c.max(0.0) as u32
    }
}

/// `⌈log log n⌉` (base 2), with `n ≤ 2` giving 0 — the number of
/// aggressive sifting rounds in Algorithm 2.
///
/// # Examples
///
/// ```
/// use sift_core::math::ceil_log_log;
/// assert_eq!(ceil_log_log(2), 0);
/// assert_eq!(ceil_log_log(3), 1);
/// assert_eq!(ceil_log_log(4), 1);
/// assert_eq!(ceil_log_log(5), 2);
/// assert_eq!(ceil_log_log(16), 2);
/// assert_eq!(ceil_log_log(65536), 4);
/// ```
pub fn ceil_log_log(n: u64) -> u32 {
    if n <= 2 {
        return 0;
    }
    let ll = (n as f64).log2().log2();
    let c = ll.ceil();
    if (c - ll).abs() < 1e-12 {
        ll.round() as u32
    } else {
        c as u32
    }
}

/// `⌈log_{4/3} x⌉`, the number of tail sifting rounds needed to shrink
/// the expected excess by a factor of `x` (Theorem 2).
///
/// # Panics
///
/// Panics if `x` is not positive and finite.
pub fn ceil_log_4_3(x: f64) -> u32 {
    assert!(
        x.is_finite() && x > 0.0,
        "ceil_log_4_3 needs a positive finite input"
    );
    if x <= 1.0 {
        return 0;
    }
    let l = x.ln() / (4.0f64 / 3.0).ln();
    let c = l.ceil();
    if (c - l).abs() < 1e-9 {
        l.round() as u32
    } else {
        c as u32
    }
}

/// The contraction map of Lemma 1: `f(x) = min(ln(x+1), x/2)`.
pub(crate) fn lemma1_f(x: f64) -> f64 {
    ((x + 1.0).ln()).min(x / 2.0)
}

/// `i`-fold composition `f^{(i)}(x)` of [`lemma1_f`] (Theorem 1's
/// predicted expected excess after `i` rounds, starting from `x`).
pub(crate) fn lemma1_f_iter(x: f64, i: u32) -> f64 {
    let mut v = x;
    for _ in 0..i {
        v = lemma1_f(v);
    }
    v
}

/// The sifting recurrence solution (paper equation (2)):
/// `x_i = 2^{2 - 2^{1-i}} · (n-1)^{2^{-i}}`, the predicted expected
/// excess after `i` aggressive rounds.
///
/// `x_0 = n - 1` by definition; `i = 0` returns exactly that.
pub(crate) fn sifting_x(n: u64, i: u32) -> f64 {
    let x0 = (n.saturating_sub(1)) as f64;
    if i == 0 {
        return x0;
    }
    let e = 2f64.powi(-(i as i32));
    2f64.powf(2.0 - 2.0 * e) * x0.powf(e)
}

/// The tuned write probability `p_i = 1/√(x_{i-1})`, in closed form
/// `p_i = 2^{2^{1-i} - 1} · (n-1)^{-2^{-i}}` for round `i ≥ 1`, clamped
/// to `(0, 1]`.
///
/// Note: the paper's equation (3) prints the exponent of 2 as
/// `1 - 2^{1-i}`, which is inconsistent with its own recurrence
/// `p_{i+1} = 1/√(x_i)` and equation (2) (as `i → ∞` it would give
/// `p_i → 2` rather than `→ 1/2`). We implement the derivation-correct
/// form; experiment E4 verifies that the measured survivor decay then
/// matches Lemma 3's `x_i` exactly, and exceeds it with the printed
/// exponent.
///
/// # Panics
///
/// Panics if `i == 0` (rounds are 1-based in the paper).
pub fn sifting_p(n: u64, i: u32) -> f64 {
    assert!(i >= 1, "write probabilities are defined for rounds i >= 1");
    let x0 = (n.saturating_sub(1)) as f64;
    if x0 <= 1.0 {
        return 1.0;
    }
    let e = 2f64.powi(-(i as i32));
    let p = 2f64.powf(2.0 * e - 1.0) * x0.powf(-e);
    p.clamp(f64::MIN_POSITIVE, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(0), 0);
        assert_eq!(log_star(3), 2);
        assert_eq!(log_star(5), 3);
        assert_eq!(log_star(17), 4);
        assert_eq!(log_star(1 << 20), 5);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1.0), 0);
        assert_eq!(ceil_log2(2.0), 1);
        assert_eq!(ceil_log2(3.0), 2);
        assert_eq!(ceil_log2(1024.0), 10);
        assert_eq!(ceil_log2(0.5), 0, "negative logs clamp to zero");
        // 1/epsilon for epsilon = 1/64.
        assert_eq!(ceil_log2(64.0), 6);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn ceil_log2_rejects_zero() {
        ceil_log2(0.0);
    }

    #[test]
    fn ceil_log_4_3_values() {
        assert_eq!(ceil_log_4_3(1.0), 0);
        // log_{4/3}(16) = ln16/ln(4/3) ≈ 9.64.
        assert_eq!(ceil_log_4_3(16.0), 10);
        // 8/epsilon with epsilon = 1/2 => log_{4/3}(16) again.
        assert_eq!(ceil_log_4_3(8.0 / 0.5), 10);
    }

    #[test]
    fn lemma1_f_is_min_of_the_two_bounds() {
        // Large x: ln wins. Small x: x/2 wins.
        assert!((lemma1_f(1000.0) - 1001f64.ln()).abs() < 1e-12);
        assert!((lemma1_f(0.5) - 0.25).abs() < 1e-12);
        // f is increasing.
        let mut last = 0.0;
        for i in 1..100 {
            let v = lemma1_f(i as f64 * 0.5);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn lemma1_iteration_reaches_small_values_in_log_star_rounds() {
        // Theorem 1: f^{(log* n)}(n) <= 1.
        for &n in &[16u64, 256, 65536, 1 << 40] {
            let i = log_star(n);
            assert!(
                lemma1_f_iter(n as f64, i) <= 1.0 + 1e-9,
                "n = {n}: f^({i})(n) = {}",
                lemma1_f_iter(n as f64, i)
            );
        }
    }

    #[test]
    fn lemma1_halving_tail() {
        // Each extra application at least halves: f(x) <= x/2.
        let x = lemma1_f_iter(1000.0, 3);
        assert!(lemma1_f(x) <= x / 2.0 + 1e-12);
    }

    #[test]
    fn sifting_recurrence_solution_matches_iteration() {
        // x_{i+1} = 2 * sqrt(x_i) must match the closed form (2).
        for &n in &[10u64, 100, 4096] {
            let mut x = (n - 1) as f64;
            for i in 1..=6u32 {
                x = 2.0 * x.sqrt();
                let closed = sifting_x(n, i);
                assert!(
                    (x - closed).abs() / closed < 1e-9,
                    "n={n} i={i}: iterated {x} vs closed {closed}"
                );
            }
        }
    }

    #[test]
    fn sifting_x_after_loglog_rounds_is_below_8() {
        // The paper shows x_{⌈log log n⌉} < 8.
        for &n in &[4u64, 16, 256, 65536, 1 << 20, 1 << 40] {
            let i = ceil_log_log(n);
            let x = sifting_x(n, i);
            assert!(x < 8.0 + 1e-9, "n={n}: x_{i} = {x}");
        }
    }

    #[test]
    fn sifting_p_first_round_is_inverse_sqrt() {
        // p_1 = 1/sqrt(n-1).
        for &n in &[5u64, 17, 1025] {
            let p = sifting_p(n, 1);
            let expect = 1.0 / ((n - 1) as f64).sqrt();
            assert!((p - expect).abs() < 1e-12, "n={n}: {p} vs {expect}");
        }
    }

    #[test]
    fn sifting_p_is_increasing_toward_one_half() {
        let n = 1 << 16;
        let mut last = 0.0;
        for i in 1..=ceil_log_log(n) {
            let p = sifting_p(n, i);
            assert!(p > last, "p_i should increase");
            assert!(p <= 1.0);
            last = p;
        }
        // After the aggressive phase p_i would be near 1/2; the algorithm
        // switches to exactly 1/2.
        assert!(last < 1.0);
    }

    #[test]
    fn sifting_p_degenerate_n() {
        assert_eq!(sifting_p(1, 1), 1.0);
        assert_eq!(sifting_p(2, 1), 1.0);
    }
}
