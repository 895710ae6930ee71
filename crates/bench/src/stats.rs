//! Streaming, mergeable statistics for experiment aggregation.
//!
//! Workers of the parallel executor fold trial results into chunk-local
//! accumulators which are merged at the barrier (see
//! [`Merge`]), so sweeps never materialize a full
//! `Vec<f64>` of samples. [`Welford`] is the workhorse; [`Summary`] is
//! its frozen, printable form.

use crate::exec::Merge;
use sift_sim::StopReason;

/// Summary statistics of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator).
    pub std_dev: f64,
    /// Half-width of a normal-approximation 95% confidence interval.
    pub ci95: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

/// Streaming mean/variance accumulator (Welford's algorithm) with an
/// exact parallel merge (Chan et al.).
///
/// # Examples
///
/// ```
/// use sift_bench::exec::Merge;
/// use sift_bench::stats::Welford;
///
/// let mut a = Welford::new();
/// let mut b = Welford::new();
/// a.push(1.0);
/// a.push(2.0);
/// b.push(3.0);
/// b.push(4.0);
/// a.merge(b);
/// let s = a.summary();
/// assert_eq!(s.count, 4);
/// assert!((s.mean - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorbs one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples absorbed so far.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// The running mean (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// One-sided normal-approximation lower confidence bound on the
    /// population mean: `mean - z·s/√n`. The conformance suite refutes
    /// a claimed expectation bound only when this *lower* bound exceeds
    /// it — the data then excludes the claim at the chosen confidence.
    ///
    /// # Panics
    ///
    /// Panics if no samples were absorbed.
    pub(crate) fn mean_lcb(&self, z: f64) -> f64 {
        let s = self.summary();
        s.mean - z * s.std_dev / (s.count as f64).sqrt()
    }

    /// Freezes the accumulator into a [`Summary`].
    ///
    /// # Panics
    ///
    /// Panics if no samples were absorbed (matches the historical
    /// "cannot summarize an empty sample" contract).
    pub fn summary(&self) -> Summary {
        assert!(self.count > 0, "cannot summarize an empty sample");
        let var = if self.count > 1 {
            self.m2 / (self.count - 1) as f64
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        Summary {
            count: self.count as usize,
            mean: self.mean,
            std_dev,
            ci95: 1.96 * std_dev / (self.count as f64).sqrt(),
            min: self.min,
            max: self.max,
        }
    }
}

impl Merge for Welford {
    fn merge(&mut self, other: Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// `P(X ≤ k)` for `X ~ Binomial(n, p)`, computed with an iterative
/// log-space pmf recurrence (no special-function dependencies; exact to
/// double rounding for the `n` used in the conformance suite).
///
/// Terms that underflow `exp` contribute 0, which only matters when the
/// whole CDF is far below any confidence threshold we test against.
pub(crate) fn binomial_cdf(k: u64, n: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    if p == 0.0 {
        return 1.0;
    }
    if p == 1.0 {
        return if k >= n { 1.0 } else { 0.0 };
    }
    if k >= n {
        return 1.0;
    }
    let ln_ratio = (p / (1.0 - p)).ln();
    // ln pmf(0) = n·ln(1−p); pmf(i+1)/pmf(i) = (n−i)/(i+1) · p/(1−p).
    let mut ln_pmf = n as f64 * (-p).ln_1p();
    let mut cdf = ln_pmf.exp();
    for i in 0..k {
        ln_pmf += ((n - i) as f64 / (i + 1) as f64).ln() + ln_ratio;
        cdf += ln_pmf.exp();
    }
    cdf.min(1.0)
}

/// One-sided Clopper–Pearson **lower** confidence bound at confidence
/// `1 - alpha` on a binomial success probability, having observed `x`
/// successes in `n` trials: the smallest `p` not rejected by
/// `P(X ≥ x) ≥ alpha`.
///
/// This is the conformance suite's refutation tool: if even the 99%
/// lower confidence bound on a failure rate exceeds the paper's bound,
/// the data excludes the bound at 99% confidence.
///
/// # Panics
///
/// Panics if `n == 0`, `x > n`, or `alpha` is outside `(0, 1)`.
pub(crate) fn cp_lower(x: u64, n: u64, alpha: f64) -> f64 {
    assert!(n > 0, "need at least one trial");
    assert!(x <= n, "successes {x} exceed trials {n}");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    if x == 0 {
        return 0.0;
    }
    // P(X ≥ x) = 1 − P(X ≤ x−1) is strictly increasing in p.
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if 1.0 - binomial_cdf(x - 1, n, mid) < alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// z-quantile for one-sided 99% confidence, used by the conformance
/// suite's mean tests (`Φ(2.326) ≈ 0.99`).
pub(crate) const Z_99: f64 = 2.326;

/// An online success-rate counter (for agreement probabilities).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateCounter {
    hits: u64,
    total: u64,
}

impl RateCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial.
    pub fn record(&mut self, hit: bool) {
        self.hits += u64::from(hit);
        self.total += 1;
    }

    /// Number of successes.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of trials.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// The empirical rate (0 when no trials were recorded).
    pub(crate) fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

impl Merge for RateCounter {
    fn merge(&mut self, other: Self) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

/// Running maximum of integer samples (e.g. worst observed steps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Peak(u64);

impl Peak {
    /// Creates a zeroed peak tracker.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Absorbs one sample.
    pub(crate) fn record(&mut self, x: u64) {
        self.0 = self.0.max(x);
    }

    /// The maximum sample seen (0 when empty).
    pub(crate) fn get(&self) -> u64 {
        self.0
    }
}

impl Merge for Peak {
    fn merge(&mut self, other: Self) {
        self.0 = self.0.max(other.0);
    }
}

/// Keeps the value recorded by the highest-indexed trial (chunk merges
/// preserve trial order, so "last wins" is deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Last<T>(Option<T>);

impl<T> Last<T> {
    /// Creates an empty holder.
    pub(crate) fn new() -> Self {
        Self(None)
    }

    /// Records a value, replacing any earlier one.
    pub(crate) fn record(&mut self, value: T) {
        self.0 = Some(value);
    }

    /// The last recorded value, if any.
    pub(crate) fn get(&self) -> Option<&T> {
        self.0.as_ref()
    }
}

impl<T> Merge for Last<T> {
    fn merge(&mut self, other: Self) {
        if other.0.is_some() {
            self.0 = other.0;
        }
    }
}

/// Per-round sums of excess personae (`survivors - 1`), the aggregation
/// behind the survivor-decay experiments (E1/E4/E5).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundExcess {
    sums: Vec<f64>,
    trials: u64,
}

impl RoundExcess {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one trial's per-round survivor counts.
    pub fn record(&mut self, survivors: &[usize]) {
        if self.sums.len() < survivors.len() {
            self.sums.resize(survivors.len(), 0.0);
        }
        for (sum, &s) in self.sums.iter_mut().zip(survivors) {
            *sum += s.saturating_sub(1) as f64;
        }
        self.trials += 1;
    }

    /// Mean excess per round over all absorbed trials.
    pub fn means(&self) -> Vec<f64> {
        self.sums.iter().map(|s| s / self.trials as f64).collect()
    }
}

impl Merge for RoundExcess {
    fn merge(&mut self, other: Self) {
        if self.sums.len() < other.sums.len() {
            self.sums.resize(other.sums.len(), 0.0);
        }
        for (sum, o) in self.sums.iter_mut().zip(&other.sums) {
            *sum += o;
        }
        self.trials += other.trials;
    }
}

/// Counts runs that ended without every process deciding, by
/// [`StopReason`] — reported separately instead of being silently
/// folded into "disagreed".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Truncations {
    /// Runs stopped because the (finite) schedule ran out of slots.
    pub schedule_exhausted: u64,
    /// Runs stopped by an explicit slot limit.
    pub slot_limit: u64,
}

impl Truncations {
    /// Creates a zeroed counter.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one run's stop reason.
    pub(crate) fn record(&mut self, reason: StopReason) {
        match reason {
            StopReason::AllDone => {}
            StopReason::ScheduleExhausted => self.schedule_exhausted += 1,
            StopReason::SlotLimit => self.slot_limit += 1,
        }
    }

    /// Total truncated runs.
    pub(crate) fn total(&self) -> u64 {
        self.schedule_exhausted + self.slot_limit
    }

    /// A table footnote describing the truncations, or `None` when every
    /// run completed (the common case — tables stay unchanged).
    pub(crate) fn note(&self) -> Option<String> {
        (self.total() > 0).then(|| {
            format!(
                "{} truncated run(s) not counted as disagreement: \
                 {} schedule-exhausted, {} slot-limited.",
                self.total(),
                self.schedule_exhausted,
                self.slot_limit
            )
        })
    }
}

impl Merge for Truncations {
    fn merge(&mut self, other: Self) {
        self.schedule_exhausted += other.schedule_exhausted;
        self.slot_limit += other.slot_limit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(samples: &[f64]) -> Summary {
        let mut w = Welford::new();
        for &x in samples {
            w.push(x);
        }
        w.summary()
    }

    #[test]
    fn summary_of_constant_sample() {
        let s = summary_of(&[4.0, 4.0, 4.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = summary_of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // Variance = (2.25+0.25+0.25+2.25)/3 = 5/3.
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_of_single_sample() {
        let s = summary_of(&[7.0]);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        summary_of(&[]);
    }

    #[test]
    fn welford_merge_matches_serial_fold() {
        let samples: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut serial = Welford::new();
        for &x in &samples {
            serial.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &samples[..37] {
            left.push(x);
        }
        for &x in &samples[37..] {
            right.push(x);
        }
        left.merge(right);
        let (a, b) = (serial.summary(), left.summary());
        assert_eq!(a.count, b.count);
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.std_dev - b.std_dev).abs() < 1e-12);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn welford_merge_with_empty_sides() {
        let mut w = Welford::new();
        w.merge(Welford::new());
        assert_eq!(w.count(), 0);
        let mut filled = Welford::new();
        filled.push(5.0);
        w.merge(filled);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 5.0);
        let mut other = Welford::new();
        other.merge(w);
        assert_eq!(other.count(), 1);
    }

    #[test]
    fn rate_counter() {
        let mut r = RateCounter::new();
        assert_eq!(r.rate(), 0.0);
        r.record(true);
        r.record(false);
        r.record(true);
        r.record(true);
        assert_eq!(r.hits(), 3);
        assert_eq!(r.total(), 4);
        assert!((r.rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rate_counter_merges_by_sum() {
        let mut a = RateCounter::new();
        a.record(true);
        let mut b = RateCounter::new();
        b.record(false);
        b.record(true);
        a.merge(b);
        assert_eq!(a.hits(), 2);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut p = Peak::new();
        p.record(3);
        p.record(9);
        p.record(5);
        let mut q = Peak::new();
        q.record(7);
        p.merge(q);
        assert_eq!(p.get(), 9);
    }

    #[test]
    fn last_keeps_later_side() {
        let mut a = Last::new();
        a.record(1);
        let mut b = Last::new();
        b.record(2);
        a.merge(b);
        assert_eq!(a.get(), Some(&2));
        a.merge(Last::<i32>::new());
        assert_eq!(a.get(), Some(&2));
    }

    #[test]
    fn round_excess_means_and_merge() {
        let mut a = RoundExcess::new();
        a.record(&[4, 2, 1]);
        let mut b = RoundExcess::new();
        b.record(&[2, 1]);
        a.merge(b);
        assert_eq!(a.trials, 2);
        let means = a.means();
        // Round 1: (3 + 1)/2 = 2; round 2: (1 + 0)/2 = 0.5; round 3: 0/2.
        assert_eq!(means, vec![2.0, 0.5, 0.0]);
    }

    #[test]
    fn binomial_cdf_matches_exact_small_cases() {
        // Binomial(10, 1/2): P(X ≤ 5) = 638/1024.
        assert!((binomial_cdf(5, 10, 0.5) - 638.0 / 1024.0).abs() < 1e-12);
        // P(X ≤ 0) = (1-p)^n.
        assert!((binomial_cdf(0, 20, 0.3) - 0.7f64.powi(20)).abs() < 1e-12);
        // Full support sums to 1.
        assert!((binomial_cdf(10, 10, 0.37) - 1.0).abs() < 1e-12);
        assert_eq!(binomial_cdf(3, 10, 0.0), 1.0);
        assert_eq!(binomial_cdf(3, 10, 1.0), 0.0);
        assert_eq!(binomial_cdf(10, 10, 1.0), 1.0);
    }

    #[test]
    fn binomial_cdf_is_monotone_in_its_arguments() {
        for k in 0..19u64 {
            assert!(binomial_cdf(k, 20, 0.4) <= binomial_cdf(k + 1, 20, 0.4));
        }
        let mut last = 1.0;
        for i in 1..20 {
            let p = i as f64 / 20.0;
            let c = binomial_cdf(7, 20, p);
            assert!(c <= last, "CDF must decrease in p");
            last = c;
        }
    }

    #[test]
    fn cp_lower_matches_the_all_successes_closed_form() {
        // x = n: the lower bound solves p^n = alpha.
        for (n, alpha) in [(10u64, 0.05f64), (100, 0.01)] {
            let expect = alpha.powf(1.0 / n as f64);
            assert!(
                (cp_lower(n, n, alpha) - expect).abs() < 1e-9,
                "n={n} alpha={alpha}"
            );
        }
        assert_eq!(cp_lower(0, 50, 0.01), 0.0);
    }

    #[test]
    fn cp_interval_brackets_the_empirical_rate() {
        // The lower bound must sit below x/n and tighten with n.
        for (x, n) in [(3u64, 20u64), (17, 100), (250, 1000)] {
            let rate = x as f64 / n as f64;
            let lo = cp_lower(x, n, 0.01);
            assert!(lo < rate, "({x},{n}): {lo} < {rate}");
        }
        let wide = 0.1 - cp_lower(5, 50, 0.01);
        let tight = 0.1 - cp_lower(50, 500, 0.01);
        assert!(tight < wide, "more trials must tighten the interval");
    }

    #[test]
    fn cp_bounds_have_exact_binomial_coverage_at_the_boundary() {
        // By construction: at p = cp_lower(x, n, α), P(X ≥ x) = α.
        let (x, n, alpha) = (9u64, 60u64, 0.01);
        let lo = cp_lower(x, n, alpha);
        assert!((1.0 - binomial_cdf(x - 1, n, lo) - alpha).abs() < 1e-9);
    }

    #[test]
    fn mean_lcb_mirrors_the_ucb_around_the_mean() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        let s = w.summary();
        let ucb = s.mean + Z_99 * s.std_dev / 2.0;
        assert!((ucb - s.mean - (s.mean - w.mean_lcb(Z_99))).abs() < 1e-12);
        assert!(w.mean_lcb(Z_99) < s.mean);
    }

    #[test]
    fn truncations_note_only_when_present() {
        let mut t = Truncations::new();
        t.record(StopReason::AllDone);
        assert_eq!(t.note(), None);
        t.record(StopReason::ScheduleExhausted);
        t.record(StopReason::SlotLimit);
        let mut other = Truncations::new();
        other.record(StopReason::SlotLimit);
        t.merge(other);
        assert_eq!(t.total(), 3);
        assert!(t.note().unwrap().contains("1 schedule-exhausted"));
        assert!(t.note().unwrap().contains("2 slot-limited"));
    }
}
