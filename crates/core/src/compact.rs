//! Compact sifting: Algorithm 2 over word-sized registers.
//!
//! §3 of the paper remarks that the originating process id carried by a
//! persona "is not used by the algorithm and can be omitted in an
//! actual implementation", shrinking each register from
//! `O(log n + log m)` to `O(log log n + log m)` bits: what remains is
//! the input value plus one pre-flipped bit per round
//! (`R = O(log log n + log(1/ε))` of them) and the combining-stage
//! coin.
//!
//! [`CompactSiftingConciliator`] implements exactly that: personae are
//! packed into a single `u64` word ([`PackedPersona`]) — input code in
//! the low bits, one `chooseWrite` bit per round, one coin bit — and
//! the algorithm runs over `u64`-valued registers. Two processes with
//! the same input *and* the same coin flips become indistinguishable,
//! which only merges personae earlier (the analysis already counts such
//! merges pessimistically), so all guarantees carry over.

use std::sync::Arc;

use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, Op, OpResult, Process, ProcessId, RegisterId, Step};

use crate::math::{ceil_log_4_3, ceil_log_log, sifting_p};
use crate::params::Epsilon;

/// A persona packed into one machine word: `[coin | chooseWrite bits |
/// input code]`.
///
/// # Examples
///
/// ```
/// use sift_core::compact::PackedPersona;
/// let p = PackedPersona::pack(5, &[true, false, true], false, 4);
/// assert_eq!(p.input(4), 5);
/// assert!(p.wants_write(0, 4));
/// assert!(!p.wants_write(1, 4));
/// assert!(p.wants_write(2, 4));
/// assert!(!p.coin(3, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedPersona(pub u64);

impl PackedPersona {
    /// Packs an input code (`< 2^input_bits`), per-round write choices,
    /// and a coin bit.
    ///
    /// # Panics
    ///
    /// Panics if the pieces do not fit in 64 bits or the input code is
    /// too large.
    pub fn pack(input: u64, choose_write: &[bool], coin: bool, input_bits: u32) -> Self {
        assert!(
            input_bits + (choose_write.len() as u32) < 64,
            "packed persona needs {} bits, only 64 available",
            input_bits as usize + choose_write.len() + 1
        );
        assert!(
            input_bits == 64 || input < (1u64 << input_bits),
            "input {input} does not fit in {input_bits} bits"
        );
        let mut word = input;
        for (i, &w) in choose_write.iter().enumerate() {
            word |= (w as u64) << (input_bits as usize + i);
        }
        word |= (coin as u64) << (input_bits as usize + choose_write.len());
        Self(word)
    }

    /// The input code.
    pub fn input(self, input_bits: u32) -> u64 {
        if input_bits == 64 {
            self.0
        } else {
            self.0 & ((1u64 << input_bits) - 1)
        }
    }

    /// The round-`round` write choice (0-based).
    pub fn wants_write(self, round: usize, input_bits: u32) -> bool {
        (self.0 >> (input_bits as usize + round)) & 1 == 1
    }

    /// The combining-stage coin bit (`rounds` = total round count).
    pub fn coin(self, rounds: usize, input_bits: u32) -> bool {
        (self.0 >> (input_bits as usize + rounds)) & 1 == 1
    }
}

/// Width accounting for §3's remark: bits per register with and without
/// the originating id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterWidth {
    /// Rounds `R` of the sifting conciliator.
    pub rounds: u32,
    /// Bits for the input code (`⌈log₂ m⌉`).
    pub input_bits: u32,
    /// Bits with the id included: `⌈log₂ n⌉ + input_bits + R + 1`.
    pub with_id_bits: u32,
    /// Bits of the compact encoding: `input_bits + R + 1` —
    /// `O(log log n + log m)`.
    pub compact_bits: u32,
}

/// Computes the register width of Algorithm 2 for `n` processes, `m`
/// input values, and failure budget `epsilon`.
pub fn register_width(n: u64, m: u64, epsilon: Epsilon) -> RegisterWidth {
    let rounds = ceil_log_log(n) + ceil_log_4_3(8.0 * epsilon.inverse()).max(1);
    let input_bits = 64 - m.saturating_sub(1).leading_zeros().min(63);
    let input_bits = if m <= 1 { 1 } else { input_bits };
    let id_bits = 64 - n.saturating_sub(1).leading_zeros().min(63);
    RegisterWidth {
        rounds,
        input_bits,
        with_id_bits: id_bits + input_bits + rounds + 1,
        compact_bits: input_bits + rounds + 1,
    }
}

/// Algorithm 2 over packed `u64` personae: the id-free implementation
/// of §3's remark.
///
/// # Examples
///
/// ```
/// use sift_core::compact::CompactSiftingConciliator;
/// use sift_core::Epsilon;
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
///
/// let n = 32;
/// let mut b = LayoutBuilder::new();
/// let c = CompactSiftingConciliator::allocate(&mut b, n, 8, Epsilon::HALF);
/// let layout = b.build();
/// let split = SeedSplitter::new(5);
/// let procs = split.processes(n, |pid, rng| c.participant(pid, (pid.index() % 8) as u64, rng));
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// let outputs = report.unwrap_outputs();
/// assert!(outputs.iter().all(|&v| v < 8), "validity");
/// ```
#[derive(Debug, Clone)]
pub struct CompactSiftingConciliator {
    registers: Arc<Vec<RegisterId>>,
    probs: Arc<Vec<f64>>,
    n: usize,
    m: u64,
    input_bits: u32,
}

impl CompactSiftingConciliator {
    /// Allocates an instance for `n` processes and inputs in `0..m`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `m == 0`, or the packed persona would exceed
    /// 64 bits (extremely small ε).
    pub fn allocate(builder: &mut LayoutBuilder, n: usize, m: u64, epsilon: Epsilon) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(m > 0, "need at least one possible input");
        let width = register_width(n as u64, m, epsilon);
        assert!(
            width.compact_bits <= 64,
            "packed persona needs {} bits; use the Arc-based persona instead",
            width.compact_bits
        );
        let aggressive = ceil_log_log(n as u64);
        let probs: Vec<f64> = (1..=width.rounds)
            .map(|i| {
                if i <= aggressive {
                    sifting_p(n as u64, i)
                } else {
                    0.5
                }
            })
            .collect();
        let registers = builder.registers(probs.len());
        Self {
            registers: Arc::new(registers),
            probs: Arc::new(probs),
            n,
            m,
            input_bits: width.input_bits,
        }
    }

    /// Number of rounds `R`.
    pub(crate) fn rounds(&self) -> usize {
        self.probs.len()
    }

    /// Bits actually stored per register.
    pub fn register_bits(&self) -> u32 {
        self.input_bits + self.rounds() as u32 + 1
    }

    /// Creates the participant for `pid` with input `input`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` or `input` is out of range.
    pub fn participant(
        &self,
        pid: ProcessId,
        input: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> CompactSiftingParticipant {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        assert!(input < self.m, "input {input} out of range 0..{}", self.m);
        let choose_write: Vec<bool> = self.probs.iter().map(|&p| rng.bernoulli(p)).collect();
        let persona = PackedPersona::pack(input, &choose_write, rng.coin(), self.input_bits);
        CompactSiftingParticipant {
            shared: self.clone(),
            persona,
            round: 0,
            finished: false,
        }
    }
}

/// Single-use participant of [`CompactSiftingConciliator`]: exactly one
/// `u64` register operation per round.
#[derive(Debug, Clone)]
pub struct CompactSiftingParticipant {
    shared: CompactSiftingConciliator,
    persona: PackedPersona,
    round: usize,
    finished: bool,
}

impl Process for CompactSiftingParticipant {
    type Value = u64;
    type Output = u64;

    fn step(&mut self, prev: Option<OpResult<u64>>) -> Step<u64, u64> {
        if self.finished {
            panic!("participant stepped after completion");
        }
        if let Some(result) = prev {
            match result {
                OpResult::Ack => {}
                OpResult::RegisterValue(Some(seen)) => self.persona = PackedPersona(seen),
                OpResult::RegisterValue(None) => {}
                other => panic!("unexpected result {other:?}"),
            }
            self.round += 1;
        }
        if self.round == self.shared.rounds() {
            self.finished = true;
            return Step::Done(self.persona.input(self.shared.input_bits));
        }
        let reg = self.shared.registers[self.round];
        if self.persona.wants_write(self.round, self.shared.input_bits) {
            Step::Issue(Op::RegisterWrite(reg, self.persona.0))
        } else {
            Step::Issue(Op::RegisterRead(reg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{RandomInterleave, RoundRobin, Schedule};
    use sift_sim::Engine;

    #[test]
    fn packing_round_trips() {
        let bits = [true, false, false, true, true];
        let p = PackedPersona::pack(37, &bits, true, 6);
        assert_eq!(p.input(6), 37);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(p.wants_write(i, 6), b, "round {i}");
        }
        assert!(p.coin(5, 6));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_input_panics() {
        PackedPersona::pack(8, &[], false, 3);
    }

    #[test]
    #[should_panic(expected = "only 64 available")]
    fn oversized_word_panics() {
        PackedPersona::pack(0, &[false; 64], false, 1);
    }

    #[test]
    fn width_matches_the_papers_remark() {
        let w = register_width(1 << 16, 256, Epsilon::HALF);
        assert_eq!(w.rounds, 14);
        assert_eq!(w.input_bits, 8);
        // With id: 16 + 8 + 14 + 1; compact drops the 16 id bits.
        assert_eq!(w.with_id_bits, 39);
        assert_eq!(w.compact_bits, 23);
        // The saving grows with n while the compact width stays at
        // O(log log n + log m).
        let w_big = register_width(1 << 40, 256, Epsilon::HALF);
        assert_eq!(w_big.with_id_bits - w_big.compact_bits, 40);
        assert!(w_big.compact_bits <= 25);
    }

    fn run(
        n: usize,
        m: u64,
        seed: u64,
        schedule: impl Schedule,
    ) -> sift_sim::RunReport<CompactSiftingParticipant> {
        let mut b = LayoutBuilder::new();
        let c = CompactSiftingConciliator::allocate(&mut b, n, m, Epsilon::HALF);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| {
            c.participant(pid, pid.index() as u64 % m, rng)
        });
        Engine::new(&layout, procs).run(schedule)
    }

    #[test]
    fn validity_and_exact_step_counts() {
        for seed in 0..20 {
            let report = run(24, 8, seed, RandomInterleave::new(24, seed + 3));
            for &v in report.outputs.iter().flatten() {
                assert!(v < 8);
            }
            let rounds = report.processes[0].shared.rounds() as u64;
            for &steps in &report.metrics.per_process_steps {
                assert_eq!(steps, rounds);
            }
        }
    }

    #[test]
    fn agreement_rate_matches_arc_persona_version() {
        let trials = 200;
        let mut disagreements = 0;
        for seed in 0..trials {
            let report = run(16, 4, seed, RandomInterleave::new(16, seed + 900));
            let outs: Vec<u64> = report.unwrap_outputs();
            if !outs.windows(2).all(|w| w[0] == w[1]) {
                disagreements += 1;
            }
        }
        assert!(
            disagreements * 2 < trials,
            "disagreement {disagreements}/{trials} exceeds epsilon"
        );
    }

    #[test]
    fn register_bits_are_small() {
        let mut b = LayoutBuilder::new();
        let c = CompactSiftingConciliator::allocate(&mut b, 1 << 20, 2, Epsilon::HALF);
        assert!(c.register_bits() <= 20, "bits = {}", c.register_bits());
    }

    #[test]
    fn single_process_returns_own_input() {
        let report = run(1, 4, 0, RoundRobin::new(1));
        assert_eq!(report.outputs[0], Some(0));
    }
}
