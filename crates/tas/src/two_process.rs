//! Two-process test-and-set from binary consensus.
//!
//! Two processes (one per *side*) each propose their side to a
//! two-process consensus instance; the process whose side is decided
//! wins. Consensus agreement and validity give "at most one winner" and
//! "a solo participant always wins" immediately; termination with
//! probability 1 is the consensus stack's. This is the node primitive
//! of [`TournamentTas`](crate::tournament::TournamentTas).
//!
//! The underlying stack is the register-model pair the paper builds:
//! an Algorithm 2 sifting conciliator for `n = 2` alternated with the
//! `O(1)` flags adopt-commit.

use sift_adopt_commit::FlagsAc;
use sift_consensus::{ConsensusOutcome, ConsensusParticipant, ConsensusProtocol};
use sift_core::{Epsilon, Persona, SiftingConciliator};
use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, OpResult, Process, ProcessId, Step};

use crate::spec::TasOutcome;

/// Phases pre-allocated per node: each phase agrees with probability
/// ≥ 1/2, so 24 phases fail with probability < 10⁻⁷.
const NODE_PHASES: usize = 24;

/// A one-shot test-and-set for (at most) two participants, one per
/// side.
///
/// # Examples
///
/// ```
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder, ProcessId};
/// use sift_tas::{check_tas_properties, TwoProcessTas};
///
/// let mut b = LayoutBuilder::new();
/// let tas = TwoProcessTas::allocate(&mut b);
/// let layout = b.build();
/// let split = SeedSplitter::new(3);
/// let procs = vec![
///     tas.participant(false, &mut split.process_stream(ProcessId(0))),
///     tas.participant(true, &mut split.process_stream(ProcessId(1))),
/// ];
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(2));
/// check_tas_properties(&report.outputs);
/// ```
#[derive(Debug, Clone)]
pub struct TwoProcessTas {
    consensus: ConsensusProtocol<SiftingConciliator, FlagsAc>,
}

impl TwoProcessTas {
    /// Allocates one instance.
    pub fn allocate(builder: &mut LayoutBuilder) -> Self {
        let consensus = ConsensusProtocol::allocate(
            builder,
            2,
            NODE_PHASES,
            |b| SiftingConciliator::allocate(b, 2, Epsilon::HALF),
            |b| FlagsAc::allocate(b, 2),
        );
        Self { consensus }
    }

    /// Creates the participant for `side` (`false` = side 0, `true` =
    /// side 1). At most one process may use each side.
    pub fn participant(
        &self,
        side: bool,
        rng: &mut Xoshiro256StarStar,
    ) -> TwoProcessTasParticipant {
        let pid = ProcessId(usize::from(side));
        TwoProcessTasParticipant {
            side: u64::from(side),
            inner: self.consensus.participant(pid, u64::from(side), rng),
            started: false,
        }
    }
}

/// Single-use participant of [`TwoProcessTas`].
#[derive(Debug)]
pub struct TwoProcessTasParticipant {
    side: u64,
    inner: ConsensusParticipant<SiftingConciliator, FlagsAc>,
    started: bool,
}

impl Process for TwoProcessTasParticipant {
    type Value = Persona;
    type Output = TasOutcome;

    fn step(&mut self, prev: Option<OpResult<Persona>>) -> Step<Persona, TasOutcome> {
        let step = if self.started {
            self.inner.step(prev)
        } else {
            self.started = true;
            self.inner.step(None)
        };
        match step {
            Step::Issue(op) => Step::Issue(op),
            Step::Done(ConsensusOutcome::Decided(d)) => Step::Done(if d.value == self.side {
                TasOutcome::Won
            } else {
                TasOutcome::Lost
            }),
            Step::Done(ConsensusOutcome::Exhausted { .. }) => {
                unreachable!("24 phases at delta >= 1/2 cannot realistically exhaust")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_tas_properties;
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{FixedSchedule, RandomInterleave, RoundRobin};
    use sift_sim::Engine;

    fn run(seed: u64, schedule: impl sift_sim::schedule::Schedule) -> Vec<Option<TasOutcome>> {
        let mut b = LayoutBuilder::new();
        let tas = TwoProcessTas::allocate(&mut b);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = vec![
            tas.participant(false, &mut split.process_stream(ProcessId(0))),
            tas.participant(true, &mut split.process_stream(ProcessId(1))),
        ];
        let report = Engine::new(&layout, procs).run(schedule);
        report.outputs
    }

    #[test]
    fn exactly_one_winner_across_seeds() {
        for seed in 0..200 {
            let outs = run(seed, RandomInterleave::new(2, seed + 1));
            check_tas_properties(&outs);
            assert!(outs.iter().all(Option::is_some));
        }
    }

    #[test]
    fn solo_participant_wins() {
        let mut b = LayoutBuilder::new();
        let tas = TwoProcessTas::allocate(&mut b);
        let layout = b.build();
        let split = SeedSplitter::new(9);
        let procs = vec![tas.participant(true, &mut split.process_stream(ProcessId(0)))];
        let report = Engine::new(&layout, procs).run(RoundRobin::new(1));
        assert_eq!(report.outputs[0], Some(TasOutcome::Won));
    }

    #[test]
    fn sequential_first_runner_wins() {
        // Side 0 runs to completion alone, then side 1: side 0 must win
        // (it decides its own side solo; side 1 then adopts it).
        let mut slots = vec![0usize; 2000];
        slots.extend(vec![1usize; 2000]);
        let outs = run(5, FixedSchedule::from_indices(slots));
        assert_eq!(outs[0], Some(TasOutcome::Won));
        assert_eq!(outs[1], Some(TasOutcome::Lost));
    }

    #[test]
    fn both_sides_win_sometimes_under_contention() {
        let mut side0 = 0;
        let mut side1 = 0;
        for seed in 0..100 {
            let outs = run(seed, RandomInterleave::new(2, seed * 7 + 3));
            match (outs[0], outs[1]) {
                (Some(TasOutcome::Won), Some(TasOutcome::Lost)) => side0 += 1,
                (Some(TasOutcome::Lost), Some(TasOutcome::Won)) => side1 += 1,
                other => panic!("bad outcome {other:?}"),
            }
        }
        assert!(
            side0 > 10 && side1 > 10,
            "races should go both ways: {side0}/{side1}"
        );
    }
}
