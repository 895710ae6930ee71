//! Deterministic pseudo-random number generation for reproducible
//! simulations.
//!
//! Results of every experiment must be reproducible from a single master
//! seed, independent of the version of any external crate. We therefore
//! implement two small, well-known generators in-tree:
//!
//! * [`SplitMix64`] — used to expand seeds into independent streams.
//! * [`Xoshiro256StarStar`] — the workhorse generator, seeded via
//!   `SplitMix64` as its authors recommend.
//!
//! The oblivious-adversary model requires that the adversary's schedule is
//! fixed *before* any process flips a coin. [`SeedSplitter`] makes the
//! separation explicit: schedule randomness and per-process randomness are
//! derived from disjoint, labelled streams of the master seed, so no
//! information can flow from coins to the schedule.

use crate::ids::ProcessId;

/// SplitMix64 generator (Steele, Lea, Flood 2014).
///
/// A tiny, fast generator with a 64-bit state that equidistributes over all
/// 64-bit outputs. Used here to derive seeds for [`Xoshiro256StarStar`] and
/// to split a master seed into independent labelled streams.
///
/// # Examples
///
/// ```
/// use sift_sim::rng::SplitMix64;
/// let mut g = SplitMix64::new(42);
/// let a = g.next_u64();
/// let b = g.next_u64();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** 1.0 (Blackman, Vigna 2018).
///
/// The primary generator used by processes and schedule builders. It has a
/// 256-bit state, passes BigCrush, and is seeded from [`SplitMix64`] so that
/// correlated user-provided seeds still yield well-mixed states.
///
/// # Examples
///
/// ```
/// use sift_sim::rng::Xoshiro256StarStar;
/// let mut g = Xoshiro256StarStar::seed_from_u64(7);
/// let x = g.range_u64(10); // uniform in 0..10
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the generator by expanding `seed` with [`SplitMix64`].
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // All-zero state is the one invalid state; SplitMix64 expansion of
        // any seed makes this astronomically unlikely, but guard anyway.
        if s == [0, 0, 0, 0] {
            return Self { s: [1, 2, 3, 4] };
        }
        Self { s }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// Uses Lemire's nearly-divisionless rejection method, so the result is
    /// exactly uniform (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range_u64 bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed value in `1..=bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn range_u64_inclusive_from_one(&mut self, bound: u64) -> u64 {
        1 + self.range_u64(bound)
    }

    /// Returns `true` with probability `p`.
    ///
    /// `p` is clamped to `[0, 1]`; NaN is treated as 0.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p.is_nan() || p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 random bits give a uniform double in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform random boolean.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Splits a master seed into independent labelled streams.
///
/// The split is a keyed hash of `(master, label, index)`: streams with
/// different labels or indices are computationally independent.
///
/// # The seed-label contract
///
/// A run is processes + memory + driver, and the oblivious-adversary
/// model (§1.1) fixes the adversary's schedule independently of the
/// processes' coins. Two labels encode that, and they are private to
/// this module:
///
/// * process `i` draws its coins from the stream `("process", i)` —
///   [`processes`](Self::processes) builds a whole cohort that way and
///   [`process_stream`](Self::process_stream) hands out one stream (for
///   [`Engine::lazy`](crate::engine::Engine::lazy) factories);
/// * the adversary's schedule is seeded by `("schedule", 0)` —
///   [`schedule_seed`](Self::schedule_seed).
///
/// Every golden digest in the tree depends on those two spellings, so
/// callers go through the three methods and never name the labels
/// (CI's lint job greps for a stray `.stream("process"` or
/// `.seed("schedule"`). Any *other* randomness a harness needs (crash
/// subsets, inputs, register semantics) takes its own label through
/// [`seed`](Self::seed) / [`stream`](Self::stream).
///
/// # Examples
///
/// ```
/// use sift_sim::rng::SeedSplitter;
/// let split = SeedSplitter::new(99);
/// let schedule_seed = split.schedule_seed();
/// let first_coins = split.processes(4, |_pid, rng| rng.next_u64());
/// assert!(!first_coins.contains(&schedule_seed));
/// assert_ne!(split.seed("crashes", 0), schedule_seed);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SeedSplitter {
    master: u64,
}

/// Label of the per-process coin streams.
const PROCESS: &str = "process";
/// Label of the adversary's schedule seed.
const SCHEDULE: &str = "schedule";

impl SeedSplitter {
    /// Creates a splitter over `master`.
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// Derives the 64-bit seed of the stream `(label, index)`.
    pub fn seed(&self, label: &str, index: u64) -> u64 {
        // FNV-1a over the label, mixed with master and index through
        // SplitMix64 steps. Not cryptographic, but thoroughly decorrelated.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut sm = SplitMix64::new(self.master ^ h.rotate_left(17));
        let a = sm.next_u64();
        let mut sm2 = SplitMix64::new(a ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        sm2.next_u64()
    }

    /// Returns a fresh generator for the stream `(label, index)`.
    pub fn stream(&self, label: &str, index: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(self.seed(label, index))
    }

    /// The generator process `pid` draws its coins from.
    pub fn process_stream(&self, pid: ProcessId) -> Xoshiro256StarStar {
        self.stream(PROCESS, pid.index() as u64)
    }

    /// Builds the `n` processes of a run: `build` is called once per
    /// process id, in order, with that process's own coin stream.
    pub fn processes<P>(
        &self,
        n: usize,
        mut build: impl FnMut(ProcessId, &mut Xoshiro256StarStar) -> P,
    ) -> Vec<P> {
        (0..n)
            .map(|i| build(ProcessId(i), &mut self.process_stream(ProcessId(i))))
            .collect()
    }

    /// The seed of the adversary's schedule, independent of every
    /// process stream.
    pub fn schedule_seed(&self) -> u64 {
        self.seed(SCHEDULE, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference values for seed 0 from the public-domain reference
        // implementation.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256StarStar::seed_from_u64(5);
        let mut b = Xoshiro256StarStar::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should diverge");
    }

    #[test]
    fn range_is_in_bounds_and_hits_all_values() {
        let mut g = Xoshiro256StarStar::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = g.range_u64(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_inclusive_from_one_bounds() {
        let mut g = Xoshiro256StarStar::seed_from_u64(12);
        for _ in 0..1000 {
            let x = g.range_u64_inclusive_from_one(5);
            assert!((1..=5).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn range_zero_panics() {
        let mut g = Xoshiro256StarStar::seed_from_u64(1);
        g.range_u64(0);
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut g = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..100 {
            assert!(!g.bernoulli(0.0));
            assert!(g.bernoulli(1.0));
            assert!(!g.bernoulli(f64::NAN));
            assert!(g.bernoulli(1.5));
            assert!(!g.bernoulli(-0.5));
        }
    }

    #[test]
    fn bernoulli_is_roughly_calibrated() {
        let mut g = Xoshiro256StarStar::seed_from_u64(17);
        let n = 100_000;
        let hits = (0..n).filter(|_| g.bernoulli(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate} too far from 0.3");
    }

    #[test]
    fn unit_f64_in_range() {
        let mut g = Xoshiro256StarStar::seed_from_u64(19);
        for _ in 0..1000 {
            let u = g.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn splitter_streams_are_independent() {
        let split = SeedSplitter::new(7);
        let first8 =
            |mut g: Xoshiro256StarStar| -> Vec<u64> { (0..8).map(|_| g.next_u64()).collect() };
        let av = first8(split.stream("schedule", 0));
        let bv = first8(split.stream("process", 0));
        let cv = first8(split.stream("schedule", 1));
        assert_ne!(av, bv);
        assert_ne!(av, cv);
        assert_ne!(bv, cv);

        // The named accessors are those same streams, bit for bit: this
        // is what keeps every golden digest where it is.
        assert_eq!(split.schedule_seed(), split.seed("schedule", 0));
        assert_eq!(
            first8(Xoshiro256StarStar::seed_from_u64(split.schedule_seed())),
            av
        );
        let cohort = split.processes(5, |pid, rng| (pid, first8(rng.clone())));
        for (i, (pid, coins)) in cohort.iter().enumerate() {
            assert_eq!(*pid, ProcessId(i));
            assert_eq!(*coins, first8(split.stream("process", i as u64)));
            assert_eq!(*coins, first8(split.process_stream(*pid)));
            assert_ne!(*coins, av, "process and schedule streams stay distinct");
        }
    }

    #[test]
    fn splitter_is_deterministic() {
        let s1 = SeedSplitter::new(1234);
        let s2 = SeedSplitter::new(1234);
        assert_eq!(s1.seed("x", 9), s2.seed("x", 9));
        assert_eq!(s1.master, 1234);
    }
}
