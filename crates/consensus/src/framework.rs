//! Consensus from alternating conciliators and adopt-commit objects.
//!
//! The composition of the paper's §1.2 (following Aspnes's modular
//! consensus construction \[5\]): phase `r` runs a conciliator on the
//! current preference and feeds its output to an adopt-commit object; a
//! `(commit, v)` decides `v`, an `(adopt, v)` makes `v` the next
//! preference. Agreement is *absolute* (coherence pins every later
//! phase to the committed value); termination holds with probability 1
//! because each conciliator creates agreement with probability
//! `δ > 0` independently, so the expected number of phases is at most
//! `1/δ` and the expected cost is `O(cost(conciliator) + cost(AC))`.
//!
//! Phases are pre-allocated: a stack with `max_phases` phases fails
//! (returns [`ConsensusOutcome::Exhausted`]) with probability at most
//! `(1-δ)^max_phases`, which the default of 64 phases makes negligible;
//! allocation is cheap because snapshot objects materialize lazily.

use std::sync::Arc;

use sift_adopt_commit::{AcOutput, AdoptCommit, Verdict};
use sift_core::{Conciliator, Persona};
use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, OpResult, Process, ProcessId, Step};

/// Default number of pre-allocated phases.
pub(crate) const DEFAULT_MAX_PHASES: usize = 64;

/// The result of a consensus participant.
#[derive(Debug, Clone, PartialEq)]
pub enum ConsensusOutcome {
    /// Decided on a value.
    Decided(Decision),
    /// Ran out of pre-allocated phases (probability `(1-δ)^max_phases`).
    Exhausted {
        /// The preference held when phases ran out.
        last_preference: u64,
    },
}

impl ConsensusOutcome {
    /// The decided value.
    ///
    /// # Panics
    ///
    /// Panics if the participant exhausted its phases.
    pub fn unwrap_decided(self) -> Decision {
        match self {
            ConsensusOutcome::Decided(d) => d,
            ConsensusOutcome::Exhausted { last_preference } => {
                panic!("consensus exhausted its phases (last preference {last_preference})")
            }
        }
    }

    /// The decided value, if any.
    pub fn value(&self) -> Option<u64> {
        match self {
            ConsensusOutcome::Decided(d) => Some(d.value),
            ConsensusOutcome::Exhausted { .. } => None,
        }
    }
}

/// A successful decision and its cost breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The agreed value.
    pub value: u64,
    /// Number of conciliator+adopt-commit phases this process ran
    /// (1-based: deciding in the first phase gives 1).
    pub phases: usize,
    /// Operations spent inside conciliators.
    pub conciliator_steps: u64,
    /// Operations spent inside adopt-commit objects.
    pub adopt_commit_steps: u64,
}

/// A consensus protocol: `max_phases` pre-allocated
/// (conciliator, adopt-commit) pairs.
///
/// # Examples
///
/// ```
/// use sift_adopt_commit::GafniSnapshotAc;
/// use sift_consensus::ConsensusProtocol;
/// use sift_core::{Epsilon, Persona, SnapshotConciliator};
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
///
/// let n = 8;
/// let mut b = LayoutBuilder::new();
/// let protocol = ConsensusProtocol::allocate(
///     &mut b,
///     n,
///     16,
///     |b| SnapshotConciliator::allocate(b, n, Epsilon::HALF),
///     |b| GafniSnapshotAc::<Persona>::allocate(b, n, |p| p.input()),
/// );
/// let layout = b.build();
/// let split = SeedSplitter::new(1);
/// let procs = split.processes(n, |pid, rng| {
///     protocol.participant(pid, (pid.index() % 3) as u64, rng)
/// });
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// let values: Vec<u64> = report
///     .unwrap_outputs()
///     .into_iter()
///     .map(|o| o.unwrap_decided().value)
///     .collect();
/// assert!(values.windows(2).all(|w| w[0] == w[1]), "agreement is absolute");
/// ```
#[derive(Debug)]
pub struct ConsensusProtocol<C, A> {
    phases: Arc<Vec<(C, A)>>,
    n: usize,
}

impl<C, A> Clone for ConsensusProtocol<C, A> {
    fn clone(&self) -> Self {
        Self {
            phases: Arc::clone(&self.phases),
            n: self.n,
        }
    }
}

impl<C, A> ConsensusProtocol<C, A>
where
    C: Conciliator,
    A: AdoptCommit<Persona>,
{
    /// Allocates `max_phases` phases, building each phase's conciliator
    /// and adopt-commit object with the given constructors.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `max_phases == 0`.
    pub fn allocate(
        builder: &mut LayoutBuilder,
        n: usize,
        max_phases: usize,
        mut conciliator: impl FnMut(&mut LayoutBuilder) -> C,
        mut adopt_commit: impl FnMut(&mut LayoutBuilder) -> A,
    ) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(max_phases > 0, "need at least one phase");
        let phases = (0..max_phases)
            .map(|_| (conciliator(builder), adopt_commit(builder)))
            .collect();
        Self {
            phases: Arc::new(phases),
            n,
        }
    }

    /// Number of pre-allocated phases.
    pub fn max_phases(&self) -> usize {
        self.phases.len()
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Upper bound on the probability of exhausting all phases:
    /// `(1 - δ)^max_phases`, where `δ` is the first phase conciliator's
    /// guaranteed agreement probability.
    pub fn exhaustion_probability(&self) -> f64 {
        let delta = self.phases[0].0.agreement_probability();
        (1.0 - delta).powi(self.max_phases() as i32)
    }

    /// Creates the participant for process `pid` with input `input`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn participant(
        &self,
        pid: ProcessId,
        input: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> ConsensusParticipant<C, A> {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        let own = Xoshiro256StarStar::seed_from_u64(rng.next_u64());
        ConsensusParticipant {
            shared: self.clone(),
            pid,
            preference: input,
            rng: own,
            phase_index: 0,
            stage: Stage::StartPhase,
            conciliator_steps: 0,
            adopt_commit_steps: 0,
        }
    }
}

enum Stage<C: Conciliator, A: AdoptCommit<Persona>> {
    /// About to mint the next phase's conciliator participant.
    StartPhase,
    /// Driving the conciliator.
    Conciliate {
        sub: C::Participant,
        started: bool,
    },
    /// Driving the adopt-commit proposer.
    Propose {
        sub: A::Proposer,
        started: bool,
    },
    Finished,
}

impl<C: Conciliator, A: AdoptCommit<Persona>> std::fmt::Debug for Stage<C, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Stage::StartPhase => "StartPhase",
            Stage::Conciliate { .. } => "Conciliate",
            Stage::Propose { .. } => "Propose",
            Stage::Finished => "Finished",
        };
        f.write_str(name)
    }
}

/// Single-use consensus participant.
#[derive(Debug)]
pub struct ConsensusParticipant<C: Conciliator, A: AdoptCommit<Persona>> {
    shared: ConsensusProtocol<C, A>,
    pid: ProcessId,
    preference: u64,
    rng: Xoshiro256StarStar,
    phase_index: usize,
    stage: Stage<C, A>,
    conciliator_steps: u64,
    adopt_commit_steps: u64,
}

impl<C: Conciliator, A: AdoptCommit<Persona>> ConsensusParticipant<C, A> {
    fn decide(&mut self, value: u64) -> Step<Persona, ConsensusOutcome> {
        self.stage = Stage::Finished;
        Step::Done(ConsensusOutcome::Decided(Decision {
            value,
            phases: self.phase_index + 1,
            conciliator_steps: self.conciliator_steps,
            adopt_commit_steps: self.adopt_commit_steps,
        }))
    }
}

impl<C: Conciliator, A: AdoptCommit<Persona>> Process for ConsensusParticipant<C, A> {
    type Value = Persona;
    type Output = ConsensusOutcome;

    fn step(&mut self, mut prev: Option<OpResult<Persona>>) -> Step<Persona, ConsensusOutcome> {
        loop {
            match std::mem::replace(&mut self.stage, Stage::Finished) {
                Stage::StartPhase => {
                    if self.phase_index == self.shared.max_phases() {
                        return Step::Done(ConsensusOutcome::Exhausted {
                            last_preference: self.preference,
                        });
                    }
                    let (conc, _) = &self.shared.phases[self.phase_index];
                    let sub = conc.participant(self.pid, self.preference, &mut self.rng);
                    self.stage = Stage::Conciliate {
                        sub,
                        started: false,
                    };
                    // Fall through to drive the new conciliator.
                }
                Stage::Conciliate { mut sub, started } => {
                    let step = if started {
                        sub.step(prev.take())
                    } else {
                        sub.step(None)
                    };
                    match step {
                        Step::Issue(op) => {
                            self.conciliator_steps += 1;
                            self.stage = Stage::Conciliate { sub, started: true };
                            return Step::Issue(op);
                        }
                        Step::Done(persona) => {
                            let (_, ac) = &self.shared.phases[self.phase_index];
                            let proposer = ac.proposer(self.pid, persona.input(), persona.clone());
                            self.stage = Stage::Propose {
                                sub: proposer,
                                started: false,
                            };
                            // Fall through to drive the proposer.
                        }
                    }
                }
                Stage::Propose { mut sub, started } => {
                    let step = if started {
                        sub.step(prev.take())
                    } else {
                        sub.step(None)
                    };
                    match step {
                        Step::Issue(op) => {
                            self.adopt_commit_steps += 1;
                            self.stage = Stage::Propose { sub, started: true };
                            return Step::Issue(op);
                        }
                        Step::Done(AcOutput {
                            verdict,
                            code,
                            value: _,
                        }) => match verdict {
                            Verdict::Commit => return self.decide(code),
                            Verdict::Adopt => {
                                self.preference = code;
                                self.phase_index += 1;
                                self.stage = Stage::StartPhase;
                                // Fall through to the next phase.
                            }
                        },
                    }
                }
                Stage::Finished => panic!("participant stepped after completion"),
            }
        }
    }
}

/// Asserts the consensus safety properties over a finished run: all
/// decided values equal, and every decided value is one of `inputs`.
///
/// # Panics
///
/// Panics (with a description) if agreement or validity is violated, or
/// if any outcome is [`ConsensusOutcome::Exhausted`].
pub fn check_consensus<'a>(
    inputs: &[u64],
    outcomes: impl IntoIterator<Item = &'a ConsensusOutcome>,
) {
    let mut decided: Option<u64> = None;
    for outcome in outcomes {
        match outcome {
            ConsensusOutcome::Exhausted { last_preference } => {
                panic!("consensus exhausted phases (preference {last_preference})")
            }
            ConsensusOutcome::Decided(d) => {
                assert!(
                    inputs.contains(&d.value),
                    "validity violated: decided {} not in {inputs:?}",
                    d.value
                );
                match decided {
                    None => decided = Some(d.value),
                    Some(v) => assert_eq!(v, d.value, "agreement violated"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_adopt_commit::GafniSnapshotAc;
    use sift_core::{Epsilon, SiftingConciliator, SnapshotConciliator};
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{RandomInterleave, RoundRobin};
    use sift_sim::Engine;

    type SnapStack = ConsensusProtocol<SnapshotConciliator, GafniSnapshotAc<Persona>>;

    fn snapshot_stack(n: usize, phases: usize) -> (sift_sim::Layout, SnapStack) {
        let mut b = LayoutBuilder::new();
        let p = ConsensusProtocol::allocate(
            &mut b,
            n,
            phases,
            |b| SnapshotConciliator::allocate(b, n, Epsilon::HALF),
            |b| GafniSnapshotAc::<Persona>::allocate(b, n, |p| p.input()),
        );
        (b.build(), p)
    }

    #[test]
    fn agreement_and_validity_always_hold() {
        for seed in 0..30 {
            let n = 9;
            let (layout, protocol) = snapshot_stack(n, 32);
            let split = SeedSplitter::new(seed);
            let inputs: Vec<u64> = (0..n).map(|i| (i % 4) as u64).collect();
            let procs = split.processes(n, |pid, rng| {
                protocol.participant(pid, inputs[pid.index()], rng)
            });
            let report = Engine::new(&layout, procs).run(RandomInterleave::new(n, seed + 100));
            let outcomes = report.unwrap_outputs();
            check_consensus(&inputs, outcomes.iter());
        }
    }

    #[test]
    fn unanimous_inputs_decide_in_one_phase() {
        let n = 6;
        let (layout, protocol) = snapshot_stack(n, 8);
        let split = SeedSplitter::new(4);
        let procs = split.processes(n, |pid, rng| protocol.participant(pid, 42, rng));
        let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
        for outcome in report.unwrap_outputs() {
            let d = outcome.unwrap_decided();
            assert_eq!(d.value, 42);
            assert_eq!(d.phases, 1, "unanimity must commit in the first phase");
        }
    }

    #[test]
    fn expected_phase_count_is_small() {
        // With delta >= 1/2 conciliators, mean phases should be < 3.
        let n = 8;
        let trials = 40;
        let mut total_phases = 0usize;
        for seed in 0..trials {
            let (layout, protocol) = snapshot_stack(n, 32);
            let split = SeedSplitter::new(seed);
            let procs = split.processes(n, |pid, rng| {
                protocol.participant(pid, pid.index() as u64, rng)
            });
            let report = Engine::new(&layout, procs).run(RandomInterleave::new(n, seed + 7));
            total_phases += report
                .unwrap_outputs()
                .into_iter()
                .map(|o| o.unwrap_decided().phases)
                .max()
                .unwrap();
        }
        let mean = total_phases as f64 / trials as f64;
        assert!(mean < 4.0, "mean max phases {mean} too high");
    }

    #[test]
    fn sifting_stack_with_register_ac_agrees() {
        use sift_adopt_commit::DigitAc;
        let n = 12;
        let m = 16u64;
        for seed in 0..15 {
            let mut b = LayoutBuilder::new();
            let protocol = ConsensusProtocol::allocate(
                &mut b,
                n,
                48,
                |b| SiftingConciliator::allocate(b, n, Epsilon::HALF),
                |b| DigitAc::for_code_space(b, m, 2),
            );
            let layout = b.build();
            let split = SeedSplitter::new(seed);
            let inputs: Vec<u64> = (0..n).map(|i| (i as u64 * 7) % m).collect();
            let procs = split.processes(n, |pid, rng| {
                protocol.participant(pid, inputs[pid.index()], rng)
            });
            let report = Engine::new(&layout, procs).run(RandomInterleave::new(n, seed + 900));
            let outcomes = report.unwrap_outputs();
            check_consensus(&inputs, outcomes.iter());
        }
    }

    #[test]
    fn step_accounting_splits_conciliator_and_ac() {
        let n = 4;
        let (layout, protocol) = snapshot_stack(n, 8);
        let split = SeedSplitter::new(11);
        let procs = split.processes(n, |pid, rng| {
            protocol.participant(pid, pid.index() as u64, rng)
        });
        let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
        let metrics = report.metrics.clone();
        let decisions: Vec<Decision> = report
            .unwrap_outputs()
            .into_iter()
            .map(|o| o.unwrap_decided())
            .collect();
        let split_total: u64 = decisions
            .iter()
            .map(|d| d.conciliator_steps + d.adopt_commit_steps)
            .sum();
        assert_eq!(split_total, metrics.total_steps);
        for d in &decisions {
            assert!(d.conciliator_steps > 0);
            assert!(d.adopt_commit_steps > 0);
        }
    }

    #[test]
    fn exhausted_outcome_reports_preference() {
        let out = ConsensusOutcome::Exhausted { last_preference: 3 };
        assert_eq!(out.value(), None);
        let decided = ConsensusOutcome::Decided(Decision {
            value: 5,
            phases: 2,
            conciliator_steps: 10,
            adopt_commit_steps: 4,
        });
        assert_eq!(decided.value(), Some(5));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn unwrap_decided_panics_on_exhausted() {
        ConsensusOutcome::Exhausted { last_preference: 0 }.unwrap_decided();
    }

    #[test]
    fn exhaustion_probability_is_negligible_by_default() {
        let (_, protocol) = snapshot_stack(4, DEFAULT_MAX_PHASES);
        assert!(protocol.exhaustion_probability() < 1e-15);
        let (_, small) = snapshot_stack(4, 2);
        assert!((small.exhaustion_probability() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn phase_exhaustion_is_reported_not_hidden() {
        use sift_core::SiftingConciliator;
        // A deliberately broken conciliator: every persona always
        // writes (p = 1), so nobody ever adopts and agreement never
        // happens. With 1 phase the stack must report Exhausted with
        // the preference it was left holding.
        let n = 4;
        let mut b = LayoutBuilder::new();
        let protocol = ConsensusProtocol::allocate(
            &mut b,
            n,
            1,
            |b| {
                SiftingConciliator::with_probabilities(b, n, vec![1.0; 4], sift_core::Epsilon::HALF)
            },
            |b| sift_adopt_commit::FlagsAc::allocate(b, 8),
        );
        let layout = b.build();
        let split = sift_sim::rng::SeedSplitter::new(5);
        let procs = split.processes(n, |pid, rng| {
            protocol.participant(pid, pid.index() as u64, rng)
        });
        let report =
            sift_sim::Engine::new(&layout, procs).run(sift_sim::schedule::RoundRobin::new(n));
        let outcomes = report.unwrap_outputs();
        // With all-write sifting, everyone keeps its own persona:
        // mixed inputs cannot commit, so at least one process reports
        // exhaustion, and preferences are always valid inputs.
        let exhausted = outcomes
            .iter()
            .filter(|o| matches!(o, ConsensusOutcome::Exhausted { .. }))
            .count();
        assert!(
            exhausted > 0,
            "expected exhaustion with 1 phase: {outcomes:?}"
        );
        for o in &outcomes {
            if let ConsensusOutcome::Exhausted { last_preference } = o {
                assert!(*last_preference < n as u64, "preference stays valid");
            }
        }
    }
}
