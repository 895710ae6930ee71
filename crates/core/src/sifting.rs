//! Algorithm 2: the sifting conciliator for the multi-writer register
//! model.
//!
//! One multi-writer register `r_i` per round. In round `i` a persona
//! either *writes* itself to `r_i` (with probability `p_i`, pre-flipped
//! into the persona) and survives, or *reads* `r_i` and is replaced by
//! whatever it sees (surviving only if the register is still empty).
//! With `p_i = 1/√(x_{i-1})` (see [`sifting_p`](crate::math::sifting_p())
//! for a note on the paper's equation (3)) the expected number of
//! excess personae follows `x_{i+1} = 2√x_i` (Lemmas 2–3), dropping
//! below 8 after `⌈log log n⌉` rounds; `p_i = 1/2` thereafter shrinks it
//! by 3/4 per round (Lemma 4). After
//! `R = ⌈log log n⌉ + ⌈log_{4/3}(8/ε)⌉` rounds agreement holds with
//! probability at least `1 - ε` (Theorem 2). Each participant takes
//! exactly one operation per round: `R` steps.

use std::sync::Arc;

use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, Op, OpResult, Process, ProcessId, RegisterId, Step};

use crate::conciliator::{Conciliator, RoundHistory};
use crate::math::{ceil_log_4_3, ceil_log_log, sifting_p};
use crate::params::Epsilon;
use crate::persona::{Persona, PersonaSpec};

/// Shared state of an Algorithm 2 instance.
///
/// # Examples
///
/// ```
/// use sift_core::{Conciliator, Epsilon, SiftingConciliator};
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
///
/// let n = 64;
/// let mut b = LayoutBuilder::new();
/// let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
/// let layout = b.build();
/// let split = SeedSplitter::new(11);
/// let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// // Each participant takes exactly R steps.
/// assert!(report.metrics.per_process_steps.iter().all(|&s| s == c.rounds() as u64));
/// ```
#[derive(Debug, Clone)]
pub struct SiftingConciliator {
    registers: Arc<Vec<RegisterId>>,
    probs: Arc<Vec<f64>>,
    n: usize,
    epsilon: Epsilon,
}

impl SiftingConciliator {
    /// Allocates an instance with the paper's tuned probabilities:
    /// `p_i` from equation (3) for the first `⌈log log n⌉` rounds, then
    /// `1/2` for `⌈log_{4/3}(8/ε)⌉` further rounds.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn allocate(builder: &mut LayoutBuilder, n: usize, epsilon: Epsilon) -> Self {
        assert!(n > 0, "need at least one process");
        Self::with_probabilities(builder, n, Self::tuned_probabilities(n, epsilon), epsilon)
    }

    /// The paper's per-round write probabilities for `n` processes.
    fn tuned_probabilities(n: usize, epsilon: Epsilon) -> Vec<f64> {
        let aggressive = ceil_log_log(n as u64);
        let tail = ceil_log_4_3(8.0 * epsilon.inverse()).max(1);
        (1..=aggressive + tail)
            .map(|i| {
                if i <= aggressive {
                    sifting_p(n as u64, i)
                } else {
                    0.5
                }
            })
            .collect()
    }

    /// Allocates an instance with explicit per-round write
    /// probabilities, for ablations (e.g. all-`1/2` sifting, the
    /// Alistarh–Aspnes-style schedule).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `probs` is empty, or any probability is
    /// outside `(0, 1]`.
    pub fn with_probabilities(
        builder: &mut LayoutBuilder,
        n: usize,
        probs: Vec<f64>,
        epsilon: Epsilon,
    ) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(!probs.is_empty(), "need at least one round");
        assert!(
            probs.iter().all(|&p| p > 0.0 && p <= 1.0),
            "write probabilities must be in (0, 1]"
        );
        Self {
            registers: Arc::new(builder.registers(probs.len())),
            probs: Arc::new(probs),
            n,
            epsilon,
        }
    }

    /// Number of rounds `R`.
    pub fn rounds(&self) -> usize {
        self.probs.len()
    }

    /// The per-round write probabilities.
    pub fn write_probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Number of aggressive (tuned-probability) rounds `⌈log log n⌉`.
    pub fn aggressive_rounds(&self) -> usize {
        ceil_log_log(self.n as u64) as usize
    }

    fn spec(&self) -> PersonaSpec {
        PersonaSpec {
            priority_rounds: 0,
            priority_range: 0,
            write_probs: self.probs.as_ref().clone(),
        }
    }

    /// Creates a participant that carries a pre-built persona (used by
    /// Algorithm 3, whose personae also carry the combining-stage coin).
    pub(crate) fn participant_with_persona(&self, persona: Persona) -> SiftingParticipant {
        assert!(
            persona.sifting_rounds() >= self.rounds(),
            "persona carries too few sifting choices"
        );
        SiftingParticipant {
            shared: self.clone(),
            persona,
            round: 0,
            history: Vec::with_capacity(self.rounds()),
            finished: false,
        }
    }

    /// The persona spec participants use (exposed so embedding protocols
    /// can extend it).
    pub(crate) fn persona_spec(&self) -> PersonaSpec {
        self.spec()
    }
}

impl Conciliator for SiftingConciliator {
    type Participant = SiftingParticipant;

    fn participant(
        &self,
        pid: ProcessId,
        input: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> SiftingParticipant {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        self.participant_with_persona(Persona::generate(pid, input, &self.spec(), rng))
    }

    fn steps_bound(&self) -> Option<u64> {
        Some(self.rounds() as u64)
    }

    fn agreement_probability(&self) -> f64 {
        1.0 - self.epsilon.get()
    }
}

/// Single-use participant of [`SiftingConciliator`]: exactly one register
/// operation per round.
#[derive(Debug, Clone)]
pub struct SiftingParticipant {
    shared: SiftingConciliator,
    persona: Persona,
    round: usize,
    history: Vec<ProcessId>,
    finished: bool,
}

impl SiftingParticipant {
    /// The persona currently held (the output once finished).
    pub fn persona(&self) -> &Persona {
        &self.persona
    }

    /// The round about to be executed (0-based).
    pub fn round(&self) -> usize {
        self.round
    }
}

impl Process for SiftingParticipant {
    type Value = Persona;
    type Output = Persona;

    fn step(&mut self, prev: Option<OpResult<Persona>>) -> Step<Persona, Persona> {
        if self.finished {
            panic!("participant stepped after completion");
        }
        // Absorb the result of the previous round's operation.
        if let Some(result) = prev {
            match result {
                OpResult::Ack => {} // our write: persona survives
                OpResult::RegisterValue(Some(seen)) => self.persona = seen,
                OpResult::RegisterValue(None) => {} // empty register: survive
                other => panic!("unexpected result {other:?}"),
            }
            self.history.push(self.persona.origin());
            self.round += 1;
        }
        if self.round == self.shared.rounds() {
            self.finished = true;
            return Step::Done(self.persona.clone());
        }
        let reg = self.shared.registers[self.round];
        if self.persona.wants_write(self.round) {
            Step::Issue(Op::RegisterWrite(reg, self.persona.clone()))
        } else {
            Step::Issue(Op::RegisterRead(reg))
        }
    }
}

impl RoundHistory for SiftingParticipant {
    fn history(&self) -> &[ProcessId] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conciliator::distinct_per_round;
    use crate::math::sifting_x;
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{BlockSequential, RandomInterleave, RoundRobin, Schedule};
    use sift_sim::Engine;

    fn run(
        n: usize,
        epsilon: Epsilon,
        seed: u64,
        schedule: impl Schedule,
    ) -> sift_sim::RunReport<SiftingParticipant> {
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, n, epsilon);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
        Engine::new(&layout, procs).run(schedule)
    }

    #[test]
    fn round_count_matches_theorem_2() {
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, 1 << 16, Epsilon::HALF);
        // ceil(loglog 2^16) = 4; ceil(log_{4/3} 16) = 10.
        assert_eq!(c.rounds(), 14);
        assert_eq!(c.aggressive_rounds(), 4);
        assert_eq!(c.steps_bound(), Some(14));
    }

    #[test]
    fn probabilities_follow_equation_3_then_one_half() {
        let n = 1 << 16;
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
        let probs = c.write_probabilities();
        for (i, &p) in probs.iter().enumerate() {
            if i < c.aggressive_rounds() {
                let expect = sifting_p(n as u64, i as u32 + 1);
                assert!((p - expect).abs() < 1e-12, "round {i}: {p} vs {expect}");
            } else {
                assert_eq!(p, 0.5, "tail rounds use 1/2");
            }
        }
    }

    #[test]
    fn each_participant_takes_exactly_r_steps() {
        let report = run(32, Epsilon::HALF, 2, RoundRobin::new(32));
        let rounds = report.processes[0].shared.rounds() as u64;
        for &steps in &report.metrics.per_process_steps {
            assert_eq!(steps, rounds);
        }
    }

    #[test]
    fn validity_holds() {
        for seed in 0..20 {
            let report = run(10, Epsilon::HALF, seed, RandomInterleave::new(10, seed + 1));
            for p in report.unwrap_outputs() {
                assert!(p.input() < 10);
            }
        }
    }

    #[test]
    fn personae_are_never_invented() {
        // Survivor sets only shrink: the set of origins at round i+1 is a
        // subset of the origins at round i (a persona can only be adopted
        // from a register someone wrote).
        use std::collections::HashSet;
        let report = run(24, Epsilon::HALF, 7, RandomInterleave::new(24, 8));
        let rounds = report.processes[0].shared.rounds();
        for round in 1..rounds {
            let prev: HashSet<_> = report
                .processes
                .iter()
                .map(|p| p.history()[round - 1])
                .collect();
            let next: HashSet<_> = report
                .processes
                .iter()
                .map(|p| p.history()[round])
                .collect();
            assert!(
                next.is_subset(&prev),
                "round {round}: {next:?} not a subset of {prev:?}"
            );
        }
    }

    #[test]
    fn agreement_rate_meets_theorem_2_bound() {
        let trials = 200;
        let mut disagreements = 0;
        for seed in 0..trials {
            let report = run(
                16,
                Epsilon::HALF,
                seed,
                RandomInterleave::new(16, seed + 400),
            );
            if !report.outputs_agree() {
                disagreements += 1;
            }
        }
        assert!(
            disagreements * 2 < trials,
            "disagreement rate {disagreements}/{trials} exceeds epsilon = 1/2"
        );
    }

    #[test]
    fn survivor_decay_tracks_lemma_3_on_average() {
        // Mean survivors after the aggressive rounds should be within a
        // small factor of the x_i prediction (Markov-level slack).
        let n = 256;
        let trials = 60;
        let mut total_after_aggressive = 0.0;
        let mut aggressive = 0;
        for seed in 0..trials {
            let report = run(n, Epsilon::HALF, seed as u64, RoundRobin::new(n));
            aggressive = report.processes[0].shared.aggressive_rounds();
            let counts = distinct_per_round(report.processes.iter().map(|p| p.history()));
            total_after_aggressive += (counts[aggressive - 1] - 1) as f64;
        }
        let mean = total_after_aggressive / trials as f64;
        let predicted = sifting_x(n as u64, aggressive as u32);
        assert!(
            mean <= predicted * 2.0,
            "mean excess {mean} far above prediction {predicted}"
        );
    }

    #[test]
    fn block_schedule_meets_agreement_bound() {
        let trials = 150;
        let mut disagreements = 0;
        for seed in 0..trials {
            let report = run(8, Epsilon::HALF, seed, BlockSequential::shuffled(8, seed));
            if !report.outputs_agree() {
                disagreements += 1;
            }
        }
        assert!(disagreements * 2 < trials, "{disagreements}/{trials}");
    }

    #[test]
    fn single_process_trivially_agrees() {
        let report = run(1, Epsilon::HALF, 0, RoundRobin::new(1));
        let outs = report.unwrap_outputs();
        assert_eq!(outs[0].input(), 0);
    }

    #[test]
    fn custom_probabilities_are_validated() {
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::with_probabilities(&mut b, 4, vec![0.5, 0.25], Epsilon::HALF);
        assert_eq!(c.rounds(), 2);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn zero_probability_panics() {
        let mut b = LayoutBuilder::new();
        let _ = SiftingConciliator::with_probabilities(&mut b, 4, vec![0.0], Epsilon::HALF);
    }

    #[test]
    #[should_panic(expected = "too few sifting choices")]
    fn short_persona_panics() {
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, 16, Epsilon::HALF);
        let _ = c.participant_with_persona(Persona::bare(ProcessId(0), 1));
    }
}
