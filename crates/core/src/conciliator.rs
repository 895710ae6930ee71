//! The conciliator abstraction.
//!
//! A conciliator (paper §1.2) keeps consensus's termination and validity
//! but weakens agreement to *probabilistic agreement*: there is a fixed
//! `δ > 0` such that, for any adversary strategy, all return values are
//! equal with probability at least `δ`. Conciliators create agreement
//! but cannot detect it; adopt-commit objects (in `sift-adopt-commit`)
//! detect it but cannot create it; alternating the two yields consensus
//! (`sift-consensus`).

use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{OpResult, Process, ProcessId, Step};

use crate::persona::Persona;

/// A family of conciliator participant state machines over one shared
/// instance.
///
/// Implementations hold the shared-object ids (allocated from a
/// [`LayoutBuilder`](sift_sim::LayoutBuilder)) and mint one single-use
/// participant per process. Its participants store personae of type
/// `V` in shared memory and return the persona they settled on; the
/// caller extracts the input. Every conciliator of `sift-core` stores
/// [`Persona`] values, and Algorithm 1 can store any
/// [`PersonaRepr`](crate::persona::PersonaRepr).
pub trait Conciliator<V = Persona> {
    /// The participant state machine type.
    type Participant: Process<Value = V, Output = V>;

    /// Creates the participant for process `pid` with input `input`.
    ///
    /// All coin flips the participant will ever need are drawn from
    /// `rng` *now* (the persona technique), except for protocols that
    /// inherently flip per-step coins (Chor–Israeli–Li), which keep the
    /// generator.
    fn participant(
        &self,
        pid: ProcessId,
        input: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> Self::Participant;

    /// Worst-case number of shared-memory operations per participant,
    /// or `None` if only an expected bound exists (CIL-style loops).
    fn steps_bound(&self) -> Option<u64>;

    /// The agreement probability `δ` guaranteed by the construction
    /// against any oblivious adversary.
    fn agreement_probability(&self) -> f64;
}

/// Checks conciliator validity over a (possibly partial) execution:
/// every decided persona must carry some process's input.
///
/// `inputs[i]` is the input of process `i`; `outputs[i]` its returned
/// persona, or `None` if it crashed or was starved. This is the hook
/// the model checker's visitors use
/// (see [`check_dpor`](sift_sim::mc::check_dpor)).
///
/// # Errors
///
/// Returns a description of the first invalid output.
pub fn try_check_validity(inputs: &[u64], outputs: &[Option<Persona>]) -> Result<(), String> {
    for (pid, persona) in outputs.iter().enumerate() {
        if let Some(persona) = persona {
            if !inputs.contains(&persona.input()) {
                return Err(format!(
                    "validity violated: process {pid} returned input {} \
                     which nobody proposed (inputs {inputs:?})",
                    persona.input()
                ));
            }
        }
    }
    Ok(())
}

/// What an observer reads of a round-structured participant: how many
/// rounds it completed and whose persona it holds. The protocol itself
/// never reads it; [`Recorder`] and adversaries that inspect process
/// state do.
pub trait RoundState {
    /// Rounds completed so far (equivalently, the 0-based round about
    /// to run).
    fn round(&self) -> usize;

    /// Origin of the persona held now.
    fn held_origin(&self) -> ProcessId;
}

/// Round-by-round persona history, for survivor-decay experiments
/// (E1, E4, E5).
///
/// Participants keep no history: an observer records it. [`Recorder`]
/// wraps a participant and notes which persona it held after each
/// round it completed; aggregating over processes gives the number of
/// distinct surviving personae per round — the paper's progress
/// measure `Y_i` ([`distinct_per_round`]).
pub trait RoundHistory {
    /// `history()[i]` is the origin of the persona held after round
    /// `i+1` (i.e. one entry per completed round).
    fn history(&self) -> &[ProcessId];
}

/// A participant wrapped so that its [`RoundHistory`] is recorded.
///
/// Steps are forwarded unchanged; after each one the recorder appends
/// the held persona's origin once for every round the participant
/// completed in it. A participant that crashes or is starved mid-run
/// has recorded exactly the rounds it finished.
///
/// # Examples
///
/// ```
/// use sift_core::{Conciliator, Epsilon, Recorder, RoundHistory, SiftingConciliator};
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
///
/// let n = 16;
/// let mut b = LayoutBuilder::new();
/// let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
/// let layout = b.build();
/// let split = SeedSplitter::new(4);
/// let procs = split.processes(n, |pid, rng| {
///     Recorder::new(c.participant(pid, pid.index() as u64, rng))
/// });
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// assert!(report.processes.iter().all(|p| p.history().len() == c.rounds()));
/// ```
#[derive(Debug, Clone)]
pub struct Recorder<P> {
    participant: P,
    history: Vec<ProcessId>,
}

impl<P> Recorder<P> {
    /// Starts recording `participant`, which has not stepped yet.
    pub fn new(participant: P) -> Self {
        Self {
            participant,
            history: Vec::new(),
        }
    }

    /// The wrapped participant.
    pub fn participant(&self) -> &P {
        &self.participant
    }
}

impl<P: Process + RoundState> Process for Recorder<P> {
    type Value = P::Value;
    type Output = P::Output;

    fn step(&mut self, prev: Option<OpResult<P::Value>>) -> Step<P::Value, P::Output> {
        let step = self.participant.step(prev);
        let done = self.participant.round();
        if done > self.history.len() {
            self.history.resize(done, self.participant.held_origin());
        }
        step
    }
}

impl<P: RoundState> RoundState for Recorder<P> {
    fn round(&self) -> usize {
        self.participant.round()
    }

    fn held_origin(&self) -> ProcessId {
        self.participant.held_origin()
    }
}

impl<P> RoundHistory for Recorder<P> {
    fn history(&self) -> &[ProcessId] {
        &self.history
    }
}

/// Counts distinct personae held after each round, across participants.
///
/// Returns one count per round; participants that did not reach a round
/// (crashed/starved) simply do not contribute to it. The excess count of
/// the paper is `count - 1`.
///
/// # Examples
///
/// ```
/// use sift_core::conciliator::distinct_per_round;
/// use sift_sim::ProcessId;
/// let histories: Vec<Vec<ProcessId>> = vec![
///     vec![ProcessId(0), ProcessId(0)],
///     vec![ProcessId(1), ProcessId(0)],
/// ];
/// assert_eq!(distinct_per_round(histories.iter().map(|h| h.as_slice())), vec![2, 1]);
/// ```
pub fn distinct_per_round<'a>(histories: impl Iterator<Item = &'a [ProcessId]>) -> Vec<usize> {
    use std::collections::HashSet;
    let mut per_round: Vec<HashSet<ProcessId>> = Vec::new();
    for history in histories {
        for (round, &origin) in history.iter().enumerate() {
            if per_round.len() <= round {
                per_round.resize_with(round + 1, HashSet::new);
            }
            per_round[round].insert(origin);
        }
    }
    per_round.into_iter().map(|s| s.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_counts_shrink_with_adoption() {
        let h0 = [ProcessId(0), ProcessId(2), ProcessId(2)];
        let h1 = [ProcessId(1), ProcessId(2), ProcessId(2)];
        let h2 = [ProcessId(2), ProcessId(1), ProcessId(2)];
        let counts = distinct_per_round([&h0[..], &h1[..], &h2[..]].into_iter());
        assert_eq!(counts, vec![3, 2, 1]);
    }

    #[test]
    fn ragged_histories_are_tolerated() {
        let h0 = [ProcessId(0)];
        let h1 = [ProcessId(1), ProcessId(1)];
        let counts = distinct_per_round([&h0[..], &h1[..]].into_iter());
        assert_eq!(counts, vec![2, 1]);
    }

    #[test]
    fn empty_input_is_empty() {
        let counts = distinct_per_round(std::iter::empty());
        assert!(counts.is_empty());
    }

    #[test]
    fn a_starved_participant_records_exactly_the_rounds_it_completed() {
        use crate::{Epsilon, SiftingConciliator};
        use sift_sim::rng::SeedSplitter;
        use sift_sim::schedule::RoundRobin;
        use sift_sim::{Engine, LayoutBuilder, StopReason};

        let n = 4;
        let mut b = LayoutBuilder::new();
        let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let run = |limit: u64| {
            let split = SeedSplitter::new(5);
            let procs = split.processes(n, |pid, rng| {
                Recorder::new(c.participant(pid, pid.index() as u64, rng))
            });
            let mut engine = Engine::new(&layout, procs);
            engine.limit_slots(limit);
            engine.run(RoundRobin::new(n))
        };
        let full = run(u64::MAX);
        // A slot runs one register operation, which ends one round. Two
        // round-robin passes plus one slot: process 0 has completed
        // three rounds, the others two, and nobody finished.
        assert!(c.rounds() > 3);
        let starved = run(2 * n as u64 + 1);
        assert_eq!(starved.stop_reason, StopReason::SlotLimit);
        let completed: Vec<usize> = starved
            .processes
            .iter()
            .map(|p| p.history().len())
            .collect();
        assert_eq!(completed, vec![3, 2, 2, 2]);
        for (cut, whole) in starved.processes.iter().zip(&full.processes) {
            assert_eq!(cut.history().len(), cut.participant().round());
            assert_eq!(cut.history(), &whole.history()[..cut.history().len()]);
        }
        assert!(full
            .processes
            .iter()
            .all(|p| p.history().len() == c.rounds()));
    }
}
