//! The Chor–Israeli–Li conciliator (baseline, and the outer shell of
//! Algorithm 3).
//!
//! A single `proposal` register, initially ⊥. Each step a process reads
//! `proposal` and returns its value if non-⊥; otherwise with probability
//! `1/(4n)` it writes its own persona and returns it. Some process
//! writes after `4n` attempts in expectation (so expected *total* work
//! is `O(n)`), and the first written value is overwritten before
//! everyone reads it with probability at most `(n-1)/4n < 1/4`, giving
//! agreement probability greater than `3/4` (paper §4).
//!
//! The weakness the paper improves on: a process running *alone* (the
//! block-sequential adversary) needs `Θ(n)` expected steps before its
//! own coin fires — CIL has no useful worst-case individual bound.

use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, Op, OpResult, Process, ProcessId, RegisterId, Step};

use crate::conciliator::Conciliator;
use crate::persona::{Persona, PersonaSpec};

/// Shared state of a CIL conciliator instance: one `proposal` register.
///
/// # Examples
///
/// ```
/// use sift_core::{CilConciliator, Conciliator};
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
///
/// let n = 16;
/// let mut b = LayoutBuilder::new();
/// let c = CilConciliator::allocate(&mut b, n);
/// let layout = b.build();
/// let split = SeedSplitter::new(21);
/// let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// assert!(report.all_decided());
/// ```
#[derive(Debug, Clone)]
pub struct CilConciliator {
    proposal: RegisterId,
    n: usize,
}

impl CilConciliator {
    /// Allocates an instance for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn allocate(builder: &mut LayoutBuilder, n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        Self {
            proposal: builder.register(),
            n,
        }
    }

    /// The per-attempt write probability `1/(4n)`.
    pub(crate) fn write_probability(&self) -> f64 {
        1.0 / (4.0 * self.n as f64)
    }
}

impl Conciliator for CilConciliator {
    type Participant = CilParticipant;

    fn participant(
        &self,
        pid: ProcessId,
        input: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> CilParticipant {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        // CIL flips a coin per attempt, so the participant keeps its own
        // generator (still independent of the oblivious schedule).
        let mut own = Xoshiro256StarStar::seed_from_u64(rng.next_u64());
        let persona = Persona::generate(pid, input, &PersonaSpec::default(), &mut own);
        CilParticipant {
            shared: self.clone(),
            persona,
            rng: own,
            phase: Phase::Read,
        }
    }

    fn steps_bound(&self) -> Option<u64> {
        None // unbounded worst case; expected O(n) attempts solo
    }

    fn agreement_probability(&self) -> f64 {
        0.75
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Read,
    AwaitRead,
    AwaitWrite,
    Finished,
}

/// Single-use participant of [`CilConciliator`].
#[derive(Debug, Clone)]
pub struct CilParticipant {
    shared: CilConciliator,
    persona: Persona,
    rng: Xoshiro256StarStar,
    phase: Phase,
}

impl Process for CilParticipant {
    type Value = Persona;
    type Output = Persona;

    fn step(&mut self, prev: Option<OpResult<Persona>>) -> Step<Persona, Persona> {
        match self.phase {
            Phase::Read => {
                self.phase = Phase::AwaitRead;
                Step::Issue(Op::RegisterRead(self.shared.proposal))
            }
            Phase::AwaitRead => {
                match prev.expect("resumed with proposal value").expect_register() {
                    Some(seen) => {
                        self.phase = Phase::Finished;
                        Step::Done(seen)
                    }
                    None => {
                        if self.rng.bernoulli(self.shared.write_probability()) {
                            self.phase = Phase::AwaitWrite;
                            Step::Issue(Op::RegisterWrite(
                                self.shared.proposal,
                                self.persona.clone(),
                            ))
                        } else {
                            self.phase = Phase::Read;
                            self.step(None)
                        }
                    }
                }
            }
            Phase::AwaitWrite => {
                self.phase = Phase::Finished;
                Step::Done(self.persona.clone())
            }
            Phase::Finished => panic!("participant stepped after completion"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{BlockSequential, RandomInterleave, RoundRobin, Schedule};
    use sift_sim::Engine;

    fn run(n: usize, seed: u64, schedule: impl Schedule) -> sift_sim::RunReport<CilParticipant> {
        let mut b = LayoutBuilder::new();
        let c = CilConciliator::allocate(&mut b, n);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
        Engine::new(&layout, procs).run(schedule)
    }

    #[test]
    fn terminates_with_valid_outputs() {
        for seed in 0..20 {
            let report = run(8, seed, RandomInterleave::new(8, seed + 3));
            for p in report.unwrap_outputs() {
                assert!(p.input() < 8);
            }
        }
    }

    #[test]
    fn agreement_rate_meets_three_quarters_bound() {
        let trials = 300;
        let mut disagreements = 0;
        for seed in 0..trials {
            let report = run(8, seed, RandomInterleave::new(8, seed + 17));
            if !report.outputs_agree() {
                disagreements += 1;
            }
        }
        assert!(
            (disagreements as f64) < trials as f64 * 0.25,
            "disagreement rate {disagreements}/{trials} exceeds 1/4"
        );
    }

    #[test]
    fn total_work_is_linear_on_average() {
        // Expected total ops ~ 8n (each attempt is <= 2 ops, 4n expected
        // attempts); allow generous slack.
        let n = 64;
        let trials = 30;
        let mut total = 0u64;
        for seed in 0..trials {
            let report = run(n, seed, RoundRobin::new(n));
            total += report.metrics.total_steps;
        }
        let mean = total as f64 / trials as f64;
        assert!(
            mean < 16.0 * n as f64,
            "mean total steps {mean} not O(n) for n={n}"
        );
    }

    #[test]
    fn solo_runner_needs_linear_steps() {
        // Under the block adversary the first process must fire its own
        // 1/(4n) coin: expected ~8n steps. This is the weakness that
        // Algorithm 3 fixes.
        let n = 64;
        let trials = 30;
        let mut first_steps = 0u64;
        for seed in 0..trials {
            let report = run(n, seed, BlockSequential::in_order(n));
            first_steps += report.metrics.per_process_steps[0];
        }
        let mean = first_steps as f64 / trials as f64;
        assert!(
            mean > n as f64,
            "solo CIL runner should need Ω(n) steps, got {mean}"
        );
    }

    #[test]
    fn write_probability_is_quarter_inverse_n() {
        let mut b = LayoutBuilder::new();
        let c = CilConciliator::allocate(&mut b, 10);
        assert!((c.write_probability() - 0.025).abs() < 1e-12);
        assert_eq!(c.steps_bound(), None);
        assert_eq!(c.agreement_probability(), 0.75);
    }
}
