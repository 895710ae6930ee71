//! The benchmark's own input generator. Inputs are made here from the
//! workload seed and handed to the program as plain values, so the
//! program under test never sees the seed — and a reshaping of the
//! repo's generators (`sift_sim::rng`, `sift-bench`'s Zipf sampler)
//! cannot silently change what the ledger feeds it.

/// SplitMix64 (Steele, Lea, Flood): a 64-bit state, full-period mixer.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// An independent generator for the named part of a workload, so
    /// adding a draw to one part never shifts another's inputs.
    pub fn fork(seed: u64, label: &str) -> Self {
        let mut state = seed ^ 0x6C65_6467_6572_2131;
        for byte in label.bytes() {
            state = (state ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut forked = Self { state };
        forked.next_u64();
        forked
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` by multiply-shift; the bias is below
    /// `bound / 2^64`, far under anything a workload mix can show.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`exponent`) over ranks `0..n` (rank 0 hottest), sampled by
/// inverting a precomputed cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the table for `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-exponent);
            cumulative.push(total);
        }
        for entry in &mut cumulative {
            *entry /= total;
        }
        Self { cumulative }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.cumulative.len()
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut x = SplitMix64::fork(7, "values");
        let mut y = SplitMix64::fork(7, "script");
        assert_ne!(x.next_u64(), y.next_u64());
        assert_eq!(
            SplitMix64::fork(7, "values").next_u64(),
            SplitMix64::fork(7, "values").next_u64()
        );
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 16];
        for _ in 0..2_000 {
            seen[rng.below(16) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_is_monotone_and_matches_its_head_mass() {
        let zipf = Zipf::new(1_000, 0.99);
        let mut rng = SplitMix64::new(42);
        let mut counts = vec![0u32; zipf.ranks()];
        let draws = 200_000;
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1 / H(1000, 0.99) of the mass.
        let harmonic: f64 = (1..=1_000).map(|r| (r as f64).powf(-0.99)).sum();
        let expected = draws as f64 / harmonic;
        assert!((counts[0] as f64 - expected).abs() < expected * 0.05);
        // Decade buckets fall off: the sampler is heavy-headed, not uniform.
        let head: u32 = counts[..10].iter().sum();
        let tail: u32 = counts[990..].iter().sum();
        assert!(head > 100 * tail.max(1));
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn zipf_single_rank_is_constant() {
        let zipf = Zipf::new(1, 0.99);
        let mut rng = SplitMix64::new(3);
        assert!((0..100).all(|_| zipf.sample(&mut rng) == 0));
    }
}
