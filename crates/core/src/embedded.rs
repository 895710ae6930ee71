//! Algorithm 3: the CIL conciliator with an embedded sifter — worst-case
//! `O(log log n)` individual steps, expected `O(n)` total steps,
//! agreement probability at least 1/8 (Theorem 3).
//!
//! Structure (paper §4):
//!
//! 1. **Main loop.** Read `proposal`; if non-⊥, leave with that persona
//!    (side 1). Otherwise with probability `1/(4n)` write your persona
//!    to `proposal` and leave with it (side 1); otherwise execute one
//!    step of the embedded Algorithm 2 sifter, leaving with its result
//!    (side 0) once it finishes. The loop runs at most `R+1` iterations
//!    because each non-exiting iteration advances the sifter.
//! 2. **Combining stage.** Write the persona you left with to
//!    `output[side]`, run a binary adopt-commit on `side`; on
//!    `(commit, b)` decide `output[b]`, on `(adopt, _)` decide
//!    `output[c]` where `c` is the *coin bit carried by your persona* —
//!    the persona technique turning a pre-flipped bit into a shared
//!    coin.
//!
//! The same embedding works with Algorithm 1 as the inner conciliator
//! ([`EmbeddedConciliator::allocate_with_max_inner`] uses the
//! max-register variant so the unit-cost claim carries over), giving
//! `O(log* n)` worst-case individual steps with `O(n)` expected total.

use sift_adopt_commit::{AcOutput, AdoptCommit, BinaryAc, FlagsProposer, Verdict};
use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, Op, OpResult, Process, ProcessId, RegisterId, Step};

use crate::conciliator::Conciliator;
use crate::max_conciliator::{MaxConciliator, MaxParticipant};
use crate::params::Epsilon;
use crate::persona::Persona;
use crate::sifting::{SiftingConciliator, SiftingParticipant};

/// The inner conciliator driven inside the CIL loop.
#[derive(Debug, Clone)]
enum Inner {
    Sifting(SiftingConciliator),
    Max(MaxConciliator),
}

/// A running inner participant.
#[derive(Debug)]
enum InnerRun {
    Sifting(SiftingParticipant),
    Max(MaxParticipant),
}

impl InnerRun {
    fn step(&mut self, prev: Option<OpResult<Persona>>) -> Step<Persona, Persona> {
        match self {
            InnerRun::Sifting(p) => p.step(prev),
            InnerRun::Max(p) => p.step(prev),
        }
    }
}

/// Shared state of an Algorithm 3 instance.
///
/// # Examples
///
/// ```
/// use sift_core::{Conciliator, EmbeddedConciliator};
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
///
/// let n = 32;
/// let mut b = LayoutBuilder::new();
/// let c = EmbeddedConciliator::allocate(&mut b, n);
/// let layout = b.build();
/// let split = SeedSplitter::new(5);
/// let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// assert!(report.all_decided());
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddedConciliator {
    proposal: RegisterId,
    outputs: [RegisterId; 2],
    inner: Inner,
    combine: BinaryAc,
    n: usize,
}

impl EmbeddedConciliator {
    /// Allocates an instance embedding the Algorithm 2 sifter with
    /// `ε = 1/4`, as in Theorem 3.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn allocate(builder: &mut LayoutBuilder, n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        let inner = Inner::Sifting(SiftingConciliator::allocate(builder, n, Epsilon::QUARTER));
        Self::finish_allocation(builder, n, inner)
    }

    /// Allocates an instance embedding the max-register Algorithm 1
    /// variant (the `O(log* n)` version discussed at the end of §4).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn allocate_with_max_inner(builder: &mut LayoutBuilder, n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        let inner = Inner::Max(MaxConciliator::allocate(builder, n, Epsilon::QUARTER));
        Self::finish_allocation(builder, n, inner)
    }

    fn finish_allocation(builder: &mut LayoutBuilder, n: usize, inner: Inner) -> Self {
        Self {
            proposal: builder.register(),
            outputs: [builder.register(), builder.register()],
            inner,
            combine: BinaryAc::allocate(builder),
            n,
        }
    }

    /// The per-iteration proposal-write probability `1/(4n)`.
    pub(crate) fn write_probability(&self) -> f64 {
        1.0 / (4.0 * self.n as f64)
    }

    /// Worst-case iterations of the main loop (inner rounds + 1).
    pub(crate) fn loop_bound(&self) -> u64 {
        let inner_steps = match &self.inner {
            Inner::Sifting(c) => c.steps_bound().expect("sifting is bounded"),
            Inner::Max(c) => c.steps_bound().expect("max variant is bounded"),
        };
        inner_steps + 1
    }
}

impl Conciliator for EmbeddedConciliator {
    type Participant = EmbeddedParticipant;

    fn participant(
        &self,
        pid: ProcessId,
        input: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> EmbeddedParticipant {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        let mut own = Xoshiro256StarStar::seed_from_u64(rng.next_u64());
        let (persona, inner_run) = match &self.inner {
            Inner::Sifting(c) => {
                let persona = Persona::generate(pid, input, &c.persona_spec(), &mut own);
                let run = InnerRun::Sifting(c.participant_with_persona(persona.clone()));
                (persona, run)
            }
            Inner::Max(c) => {
                // The max variant generates its own persona (priorities);
                // the CIL shell and combining stage use the same persona.
                let inner = c.participant(pid, input, &mut own);
                let persona = {
                    // Extract the generated persona before any steps run.
                    inner.persona().clone()
                };
                (persona, InnerRun::Max(inner))
            }
        };
        let mut inner_run = inner_run;
        let pending_inner_op = match inner_run.step(None) {
            Step::Issue(op) => Some(op),
            Step::Done(_) => unreachable!("inner conciliators have at least one round"),
        };
        EmbeddedParticipant {
            shared: self.clone(),
            pid,
            persona,
            rng: own,
            inner: inner_run,
            pending_inner_op,
            result: None,
            phase: Phase::ReadProposal,
        }
    }

    fn steps_bound(&self) -> Option<u64> {
        // Each loop iteration costs at most 2 ops; plus output write,
        // the binary adopt-commit, and the final output read.
        let combine: u64 = <BinaryAc as AdoptCommit<Persona>>::steps_bound(&self.combine);
        Some(2 * self.loop_bound() + 1 + combine + 1)
    }

    fn agreement_probability(&self) -> f64 {
        0.125
    }
}

#[derive(Debug)]
enum Phase {
    /// About to read `proposal` (start of a main-loop iteration).
    ReadProposal,
    /// Waiting for the `proposal` read result.
    AwaitProposal,
    /// Waiting for the ack of our `proposal` write.
    AwaitProposalWrite,
    /// Waiting for the result of one inner-conciliator operation.
    AwaitInner,
    /// Waiting for the ack of the `output[side]` write.
    AwaitOutputWrite {
        side: usize,
    },
    /// Driving the binary adopt-commit proposer.
    Combine {
        ac: Box<FlagsProposer<Persona>>,
        started: bool,
    },
    /// Waiting for the final `output[target]` read.
    AwaitFinal,
    Finished,
}

/// Single-use participant of [`EmbeddedConciliator`].
#[derive(Debug)]
pub struct EmbeddedParticipant {
    shared: EmbeddedConciliator,
    pid: ProcessId,
    /// The persona we entered with (carries the combining-stage coin and
    /// the inner conciliator's bits).
    persona: Persona,
    rng: Xoshiro256StarStar,
    inner: InnerRun,
    /// The inner machine's next operation, pre-computed so the main loop
    /// can hand it out when a coin flip says "sift".
    pending_inner_op: Option<Op<Persona>>,
    /// The persona we left the main loop with.
    result: Option<Persona>,
    phase: Phase,
}

impl EmbeddedParticipant {
    fn leave(&mut self, result: Persona, side: usize) -> Step<Persona, Persona> {
        self.result = Some(result.clone());
        self.phase = Phase::AwaitOutputWrite { side };
        Step::Issue(Op::RegisterWrite(self.shared.outputs[side], result))
    }
}

impl Process for EmbeddedParticipant {
    type Value = Persona;
    type Output = Persona;

    fn step(&mut self, prev: Option<OpResult<Persona>>) -> Step<Persona, Persona> {
        match std::mem::replace(&mut self.phase, Phase::Finished) {
            Phase::ReadProposal => {
                self.phase = Phase::AwaitProposal;
                Step::Issue(Op::RegisterRead(self.shared.proposal))
            }
            Phase::AwaitProposal => {
                match prev.expect("resumed with proposal value").expect_register() {
                    Some(seen) => self.leave(seen, 1),
                    None => {
                        if self.rng.bernoulli(self.shared.write_probability()) {
                            self.phase = Phase::AwaitProposalWrite;
                            Step::Issue(Op::RegisterWrite(
                                self.shared.proposal,
                                self.persona.clone(),
                            ))
                        } else {
                            let op = self
                                .pending_inner_op
                                .take()
                                .expect("inner op pending while the loop is running");
                            self.phase = Phase::AwaitInner;
                            Step::Issue(op)
                        }
                    }
                }
            }
            Phase::AwaitProposalWrite => {
                let own = self.persona.clone();
                self.leave(own, 1)
            }
            Phase::AwaitInner => {
                let result = prev.expect("resumed with inner result");
                match self.inner.step(Some(result)) {
                    Step::Issue(op) => {
                        // Stash the inner machine's next op and start the
                        // next main-loop iteration with a proposal read.
                        self.pending_inner_op = Some(op);
                        self.phase = Phase::AwaitProposal;
                        Step::Issue(Op::RegisterRead(self.shared.proposal))
                    }
                    Step::Done(persona) => self.leave(persona, 0),
                }
            }
            Phase::AwaitOutputWrite { side } => {
                let result = self.result.clone().expect("result set before output write");
                let ac = self.shared.combine.proposer(self.pid, side as u64, result);
                self.phase = Phase::Combine {
                    ac: Box::new(ac),
                    started: false,
                };
                self.step(None)
            }
            Phase::Combine { mut ac, started } => {
                let step = if started {
                    ac.step(prev)
                } else {
                    ac.step(None)
                };
                match step {
                    Step::Issue(op) => {
                        self.phase = Phase::Combine { ac, started: true };
                        Step::Issue(op)
                    }
                    Step::Done(AcOutput {
                        verdict,
                        code,
                        value,
                    }) => {
                        let target = match verdict {
                            Verdict::Commit => code as usize,
                            Verdict::Adopt => usize::from(value.coin()),
                        };
                        self.phase = Phase::AwaitFinal;
                        Step::Issue(Op::RegisterRead(self.shared.outputs[target]))
                    }
                }
            }
            Phase::AwaitFinal => {
                let value = prev
                    .expect("resumed with output register value")
                    .expect_register()
                    .expect("combining-stage target register is always initialized");
                Step::Done(value)
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

    fn run(
        n: usize,
        seed: u64,
        max_inner: bool,
        schedule: impl Schedule,
    ) -> sift_sim::RunReport<EmbeddedParticipant> {
        let mut b = LayoutBuilder::new();
        let c = if max_inner {
            EmbeddedConciliator::allocate_with_max_inner(&mut b, n)
        } else {
            EmbeddedConciliator::allocate(&mut b, n)
        };
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
        Engine::new(&layout, procs).run(schedule)
    }

    #[test]
    fn terminates_with_valid_outputs() {
        for seed in 0..20 {
            let report = run(12, seed, false, RandomInterleave::new(12, seed + 31));
            for p in report.unwrap_outputs() {
                assert!(p.input() < 12, "invented value {}", p.input());
            }
        }
    }

    #[test]
    fn max_inner_variant_terminates_with_valid_outputs() {
        for seed in 0..10 {
            let report = run(12, seed, true, RandomInterleave::new(12, seed + 77));
            for p in report.unwrap_outputs() {
                assert!(p.input() < 12);
            }
        }
    }

    #[test]
    fn individual_steps_respect_worst_case_bound() {
        let n = 64;
        let mut b = LayoutBuilder::new();
        let c = EmbeddedConciliator::allocate(&mut b, n);
        let bound = c.steps_bound().expect("Algorithm 3 is bounded");
        for seed in 0..10 {
            let report = run(n, seed, false, RandomInterleave::new(n, seed + 3));
            for &steps in &report.metrics.per_process_steps {
                assert!(steps <= bound, "{steps} > bound {bound}");
            }
        }
    }

    #[test]
    fn agreement_rate_meets_one_eighth_bound() {
        // Theorem 3 guarantees only 1/8; empirically agreement is far
        // more frequent. Require comfortably above 1/8.
        let trials = 200;
        let mut agreements = 0;
        for seed in 0..trials {
            let report = run(16, seed, false, RandomInterleave::new(16, seed + 41));
            if report.outputs_agree() {
                agreements += 1;
            }
        }
        assert!(
            agreements * 8 > trials,
            "agreement rate {agreements}/{trials} below 1/8"
        );
    }

    #[test]
    fn total_work_is_linear_on_average() {
        // Theorem 3: O(n) expected total steps. The loop shuts down after
        // ~4n iterations in expectation; combine adds O(1) per process.
        let trials = 20;
        for n in [32usize, 128] {
            let mut total = 0u64;
            for seed in 0..trials {
                let report = run(n, seed, false, RoundRobin::new(n));
                total += report.metrics.total_steps;
            }
            let mean = total as f64 / trials as f64;
            assert!(
                mean < 40.0 * n as f64,
                "n={n}: mean total steps {mean} not O(n)"
            );
        }
    }

    #[test]
    fn solo_runner_stays_sublinear() {
        // The fix over plain CIL: a solo process exits after at most
        // loop_bound iterations because the embedded sifter finishes.
        let n = 256;
        let mut b = LayoutBuilder::new();
        let c = EmbeddedConciliator::allocate(&mut b, n);
        let bound = c.steps_bound().unwrap();
        assert!(
            bound < n as u64 / 2,
            "worst-case bound {bound} should be far below n={n}"
        );
        for seed in 0..5 {
            let report = run(n, seed, false, BlockSequential::in_order(n));
            assert!(report.all_decided());
            assert!(report.metrics.max_individual_steps() <= bound);
        }
    }

    #[test]
    fn loop_bound_tracks_inner_rounds() {
        let mut b = LayoutBuilder::new();
        let c = EmbeddedConciliator::allocate(&mut b, 1 << 16);
        // Inner sifter with eps = 1/4: ceil(loglog 2^16) = 4 rounds plus
        // ceil(log_{4/3} 32) = 13 tail rounds = 17; +1 = 18.
        assert_eq!(c.loop_bound(), 18);
        assert!((c.write_probability() - 1.0 / (4.0 * 65536.0)).abs() < 1e-18);
        assert_eq!(c.agreement_probability(), 0.125);
    }

    #[test]
    fn single_process_decides_its_own_input() {
        let report = run(1, 7, false, RoundRobin::new(1));
        let outs = report.unwrap_outputs();
        assert_eq!(outs[0].input(), 0);
    }
}
