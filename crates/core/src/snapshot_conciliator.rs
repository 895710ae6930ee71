//! Algorithm 1: the priority-based conciliator for the unit-cost
//! snapshot model.
//!
//! Each process generates a vector of `R` random priorities for its
//! input (one per round) — together they form its persona. In round `i`
//! the process writes its current persona into snapshot array `A_i`,
//! scans `A_i`, and adopts the persona with the highest round-`i`
//! priority among those it sees. Left-to-right-maxima structure makes
//! the number of distinct surviving personae drop from `m` to `O(log m)`
//! per round (Lemma 1), so after `R = log* n + ⌈log(1/ε)⌉ + 1` rounds a
//! single persona survives with probability at least `1 - ε`
//! (Theorem 1). Each participant takes exactly `2R` operations.

use std::sync::Arc;

use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, Op, OpResult, Process, ProcessId, ScanView, SnapshotId, Step};

use crate::conciliator::{Conciliator, RoundHistory};
use crate::math::{ceil_log2, log_star};
use crate::params::Epsilon;
use crate::persona::{Persona, PersonaSpec};

/// Shared state of an Algorithm 1 instance.
///
/// # Examples
///
/// ```
/// use sift_core::{Conciliator, Epsilon, SnapshotConciliator};
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
///
/// let n = 8;
/// let mut b = LayoutBuilder::new();
/// let c = SnapshotConciliator::allocate(&mut b, n, Epsilon::HALF);
/// let layout = b.build();
/// let split = SeedSplitter::new(7);
/// let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// let outputs = report.unwrap_outputs();
/// // Validity: every output is some process's input.
/// assert!(outputs.iter().all(|p| p.input() < n as u64));
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotConciliator {
    arrays: Arc<Vec<SnapshotId>>,
    n: usize,
    rounds: usize,
    priority_range: u64,
    epsilon: Epsilon,
}

impl SnapshotConciliator {
    /// Allocates an instance for `n` processes with failure budget
    /// `epsilon`, using the paper's parameters:
    /// `R = log* n + ⌈log(1/ε)⌉ + 1` rounds and priorities drawn from
    /// `1..=⌈R n²/ε⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn allocate(builder: &mut LayoutBuilder, n: usize, epsilon: Epsilon) -> Self {
        assert!(n > 0, "need at least one process");
        let rounds = (log_star(n as u64) + ceil_log2(epsilon.inverse()) + 1) as usize;
        let priority_range =
            (rounds as f64 * (n as f64) * (n as f64) / epsilon.get()).ceil() as u64;
        Self::with_parameters(builder, n, rounds, priority_range, epsilon)
    }

    /// Allocates an instance with explicit round count and priority
    /// range, for ablation experiments (E13).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `rounds == 0`, or `priority_range == 0`.
    pub fn with_parameters(
        builder: &mut LayoutBuilder,
        n: usize,
        rounds: usize,
        priority_range: u64,
        epsilon: Epsilon,
    ) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(rounds > 0, "need at least one round");
        assert!(priority_range > 0, "priority range must be positive");
        Self {
            arrays: Arc::new(builder.snapshots(rounds, n)),
            n,
            rounds,
            priority_range,
            epsilon,
        }
    }

    /// Number of rounds `R`.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The priority range `⌈R n²/ε⌉`.
    pub fn priority_range(&self) -> u64 {
        self.priority_range
    }

    fn spec(&self) -> PersonaSpec {
        PersonaSpec {
            priority_rounds: self.rounds,
            priority_range: self.priority_range,
            write_probs: Vec::new(),
        }
    }
}

impl Conciliator for SnapshotConciliator {
    type Participant = SnapshotParticipant;

    fn participant(
        &self,
        pid: ProcessId,
        input: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> SnapshotParticipant {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        SnapshotParticipant {
            shared: self.clone(),
            pid,
            persona: Persona::generate(pid, input, &self.spec(), rng),
            round: 0,
            phase: Phase::Update,
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
    Update,
    Scan,
    Finished,
}

/// Single-use participant of [`SnapshotConciliator`]: exactly `2R`
/// snapshot operations.
#[derive(Debug, Clone)]
pub struct SnapshotParticipant {
    shared: SnapshotConciliator,
    pid: ProcessId,
    persona: Persona,
    round: usize,
    phase: Phase,
    history: Vec<ProcessId>,
}

impl SnapshotParticipant {
    /// The persona currently held (the output once finished).
    pub fn persona(&self) -> &Persona {
        &self.persona
    }

    /// The round about to be executed (0-based).
    pub fn round(&self) -> usize {
        self.round
    }

    fn adopt_best(&mut self, view: &ScanView<Persona>) {
        let round = self.round;
        let best = view
            .present()
            .map(|(_, p)| p)
            .max_by_key(|p| (p.priority(round), p.origin()))
            .expect("own update precedes the scan, so the view is non-empty")
            .clone();
        self.persona = best;
    }
}

impl Process for SnapshotParticipant {
    type Value = Persona;
    type Output = Persona;

    fn step(&mut self, prev: Option<OpResult<Persona>>) -> Step<Persona, Persona> {
        match self.phase {
            Phase::Update => {
                self.phase = Phase::Scan;
                Step::Issue(Op::SnapshotUpdate(
                    self.shared.arrays[self.round],
                    self.pid.index(),
                    self.persona.clone(),
                ))
            }
            Phase::Scan => match prev.expect("resumed with update ack or scan view") {
                OpResult::Ack => Step::Issue(Op::SnapshotScan(self.shared.arrays[self.round])),
                OpResult::SnapshotView(view) => {
                    self.adopt_best(&view);
                    self.history.push(self.persona.origin());
                    self.round += 1;
                    if self.round == self.shared.rounds {
                        self.phase = Phase::Finished;
                        Step::Done(self.persona.clone())
                    } else {
                        self.phase = Phase::Update;
                        self.step(None)
                    }
                }
                other => panic!("unexpected result {other:?}"),
            },
            Phase::Finished => panic!("participant stepped after completion"),
        }
    }
}

impl RoundHistory for SnapshotParticipant {
    fn history(&self) -> &[ProcessId] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conciliator::distinct_per_round;
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{BlockSequential, RandomInterleave, RoundRobin, Schedule};
    use sift_sim::Engine;

    fn run(
        n: usize,
        epsilon: Epsilon,
        seed: u64,
        schedule: impl Schedule,
    ) -> sift_sim::RunReport<SnapshotParticipant> {
        let mut b = LayoutBuilder::new();
        let c = SnapshotConciliator::allocate(&mut b, n, epsilon);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| {
            c.participant(pid, 100 + pid.index() as u64, rng)
        });
        Engine::new(&layout, procs).run(schedule)
    }

    #[test]
    fn round_count_matches_theorem_1() {
        let mut b = LayoutBuilder::new();
        let c = SnapshotConciliator::allocate(&mut b, 1 << 16, Epsilon::HALF);
        // log*(2^16) = 4, ceil(log 2) = 1, + 1 => 6.
        assert_eq!(c.rounds(), 6);
        assert_eq!(c.steps_bound(), Some(12));
        assert!((c.agreement_probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn priority_range_matches_paper() {
        let mut b = LayoutBuilder::new();
        let c = SnapshotConciliator::allocate(&mut b, 10, Epsilon::new(0.1).unwrap());
        let r = c.rounds() as f64;
        assert_eq!(c.priority_range(), (r * 100.0 / 0.1).ceil() as u64);
    }

    #[test]
    fn validity_holds_in_all_runs() {
        for seed in 0..20 {
            let report = run(
                6,
                Epsilon::HALF,
                seed,
                RandomInterleave::new(6, seed + 1000),
            );
            for p in report.unwrap_outputs() {
                assert!(
                    (100..106).contains(&p.input()),
                    "invented value {}",
                    p.input()
                );
            }
        }
    }

    #[test]
    fn termination_uses_exactly_2r_steps_each() {
        let report = run(5, Epsilon::HALF, 3, RoundRobin::new(5));
        let rounds = report.processes[0].shared.rounds as u64;
        for &steps in &report.metrics.per_process_steps {
            assert_eq!(steps, 2 * rounds);
        }
    }

    #[test]
    fn agreement_rate_meets_theorem_1_bound() {
        // epsilon = 1/2; over many seeds the disagreement rate must be
        // well below 1/2 (it is far smaller in practice).
        let trials = 200;
        let mut disagreements = 0;
        for seed in 0..trials {
            let report = run(
                8,
                Epsilon::HALF,
                seed,
                RandomInterleave::new(8, seed + 5000),
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
    fn survivor_counts_never_increase() {
        for seed in 0..10 {
            let report = run(16, Epsilon::HALF, seed, RandomInterleave::new(16, seed));
            let counts = distinct_per_round(report.processes.iter().map(|p| p.history()));
            for w in counts.windows(2) {
                assert!(w[1] <= w[0], "seed {seed}: survivors increased {counts:?}");
            }
            assert_eq!(counts.len(), report.processes[0].shared.rounds);
        }
    }

    #[test]
    fn solo_execution_keeps_own_persona() {
        let report = run(4, Epsilon::HALF, 1, BlockSequential::in_order(4));
        // The first process runs alone: it sees only itself in round 1…
        // then later processes adopt whatever wins each array. Its output
        // must still be *some* input (validity), and all outputs agree
        // here because each later block sees all earlier personae.
        let outs = report.unwrap_outputs();
        assert!(outs.iter().all(|p| (100..104).contains(&p.input())));
    }

    #[test]
    fn block_schedule_meets_agreement_bound() {
        // The solo-blocks adversary is the natural worst case here (a
        // later process disagrees with an earlier solo runner only by
        // out-prioritizing it in *every* round). Theorem 1 still bounds
        // disagreement by epsilon.
        let trials = 120;
        let mut disagreements = 0;
        for seed in 0..trials {
            let report = run(6, Epsilon::HALF, seed, BlockSequential::in_order(6));
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
    fn history_has_one_entry_per_round() {
        let report = run(3, Epsilon::QUARTER, 9, RoundRobin::new(3));
        for p in &report.processes {
            assert_eq!(p.history().len(), p.shared.rounds);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pid_panics() {
        let mut b = LayoutBuilder::new();
        let c = SnapshotConciliator::allocate(&mut b, 2, Epsilon::HALF);
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let _ = c.participant(ProcessId(2), 0, &mut rng);
    }
}
