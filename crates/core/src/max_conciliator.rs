//! The max-register variant of Algorithm 1 (paper footnote 1).
//!
//! Algorithm 1 uses its snapshots only to find the maximum-priority
//! persona, so a max register per round suffices: write your persona
//! keyed by its round priority, read the maximum back, adopt it. The
//! analysis is unchanged — the sequence of values readable from the max
//! register forms the same nested-view structure — and both operations
//! are `O(1)`, which lets the simulator scale this variant to millions
//! of processes (experiment E15) where full snapshot scans would cost
//! `Θ(n)` local work each.

use std::sync::Arc;

use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, MaxRegisterId, Op, OpResult, Process, ProcessId, Step};

use crate::conciliator::{Conciliator, RoundHistory};
use crate::math::{ceil_log2, log_star};
use crate::params::Epsilon;
use crate::persona::{Persona, PersonaSpec};

/// Shared state of the max-register Algorithm 1 variant.
///
/// # Examples
///
/// ```
/// use sift_core::{Conciliator, Epsilon, MaxConciliator};
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
///
/// let n = 1000;
/// let mut b = LayoutBuilder::new();
/// let c = MaxConciliator::allocate(&mut b, n, Epsilon::HALF);
/// let layout = b.build();
/// let split = SeedSplitter::new(3);
/// let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// assert!(report.all_decided());
/// ```
#[derive(Debug, Clone)]
pub struct MaxConciliator {
    registers: Arc<Vec<MaxRegisterId>>,
    n: usize,
    rounds: usize,
    priority_range: u64,
    epsilon: Epsilon,
}

impl MaxConciliator {
    /// Allocates an instance with the parameters of Theorem 1.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn allocate(builder: &mut LayoutBuilder, n: usize, epsilon: Epsilon) -> Self {
        assert!(n > 0, "need at least one process");
        let rounds = (log_star(n as u64) + ceil_log2(epsilon.inverse()) + 1) as usize;
        let priority_range =
            (rounds as f64 * (n as f64) * (n as f64) / epsilon.get()).ceil() as u64;
        Self {
            registers: Arc::new(builder.max_registers(rounds)),
            n,
            rounds,
            priority_range,
            epsilon,
        }
    }

    fn spec(&self) -> PersonaSpec {
        PersonaSpec {
            priority_rounds: self.rounds,
            priority_range: self.priority_range,
            write_probs: Vec::new(),
        }
    }
}

impl Conciliator for MaxConciliator {
    type Participant = MaxParticipant;

    fn participant(
        &self,
        pid: ProcessId,
        input: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> MaxParticipant {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        MaxParticipant {
            shared: self.clone(),
            persona: Persona::generate(pid, input, &self.spec(), rng),
            round: 0,
            phase: Phase::Write,
            history: Vec::with_capacity(self.rounds),
        }
    }

    fn steps_bound(&self) -> Option<u64> {
        Some(2 * self.rounds as u64)
    }

    fn agreement_probability(&self) -> f64 {
        1.0 - self.epsilon.get()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Write,
    Read,
    Finished,
}

/// Single-use participant of [`MaxConciliator`]: exactly `2R` max-register
/// operations.
#[derive(Debug, Clone)]
pub struct MaxParticipant {
    shared: MaxConciliator,
    persona: Persona,
    round: usize,
    phase: Phase,
    history: Vec<ProcessId>,
}

impl MaxParticipant {
    /// The persona currently held.
    pub(crate) fn persona(&self) -> &Persona {
        &self.persona
    }
}

impl Process for MaxParticipant {
    type Value = Persona;
    type Output = Persona;

    fn step(&mut self, prev: Option<OpResult<Persona>>) -> Step<Persona, Persona> {
        match self.phase {
            Phase::Write => {
                self.phase = Phase::Read;
                let key = self.persona.priority(self.round);
                Step::Issue(Op::MaxWrite(
                    self.shared.registers[self.round],
                    key,
                    self.persona.clone(),
                ))
            }
            Phase::Read => match prev.expect("resumed with ack or max value") {
                OpResult::Ack => Step::Issue(Op::MaxRead(self.shared.registers[self.round])),
                OpResult::MaxValue(entry) => {
                    let (_, persona) =
                        entry.expect("own write precedes the read, so the register is non-empty");
                    self.persona = persona;
                    self.history.push(self.persona.origin());
                    self.round += 1;
                    if self.round == self.shared.rounds {
                        self.phase = Phase::Finished;
                        Step::Done(self.persona.clone())
                    } else {
                        self.phase = Phase::Write;
                        self.step(None)
                    }
                }
                other => panic!("unexpected result {other:?}"),
            },
            Phase::Finished => panic!("participant stepped after completion"),
        }
    }
}

impl RoundHistory for MaxParticipant {
    fn history(&self) -> &[ProcessId] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conciliator::distinct_per_round;
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{RandomInterleave, RoundRobin, Schedule};
    use sift_sim::Engine;

    fn run(n: usize, seed: u64, schedule: impl Schedule) -> sift_sim::RunReport<MaxParticipant> {
        let mut b = LayoutBuilder::new();
        let c = MaxConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
        Engine::new(&layout, procs).run(schedule)
    }

    #[test]
    fn parameters_match_snapshot_variant() {
        let mut b = LayoutBuilder::new();
        let c = MaxConciliator::allocate(&mut b, 1 << 16, Epsilon::HALF);
        assert_eq!(c.rounds, 6);
        assert_eq!(c.steps_bound(), Some(12));
    }

    #[test]
    fn validity_and_termination() {
        for seed in 0..20 {
            let report = run(7, seed, RandomInterleave::new(7, seed + 99));
            let outs = report.unwrap_outputs();
            assert!(outs.iter().all(|p| p.input() < 7));
        }
    }

    #[test]
    fn uses_exactly_2r_steps() {
        let report = run(5, 1, RoundRobin::new(5));
        let rounds = report.processes[0].shared.rounds as u64;
        for &steps in &report.metrics.per_process_steps {
            assert_eq!(steps, 2 * rounds);
        }
    }

    #[test]
    fn agreement_rate_meets_bound() {
        let trials = 200;
        let mut disagreements = 0;
        for seed in 0..trials {
            let report = run(8, seed, RandomInterleave::new(8, seed + 7777));
            if !report.outputs_agree() {
                disagreements += 1;
            }
        }
        assert!(disagreements * 2 < trials, "{disagreements}/{trials}");
    }

    #[test]
    fn survivors_shrink_like_snapshot_variant() {
        let report = run(32, 5, RoundRobin::new(32));
        let counts = distinct_per_round(report.processes.iter().map(|p| p.history()));
        assert!(counts[0] <= 32);
        assert!(
            *counts.last().unwrap() <= counts[0],
            "survivors must not grow: {counts:?}"
        );
        for w in counts.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn scales_to_many_processes() {
        // The whole point of the max-register variant: O(1) per op.
        let n = 10_000;
        let report = run(n, 3, RoundRobin::new(n));
        assert!(report.all_decided());
        let rounds = report.processes[0].shared.rounds as u64;
        assert_eq!(report.metrics.total_steps, 2 * rounds * n as u64);
    }
}
