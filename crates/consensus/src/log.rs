//! A replicated log: state-machine replication from repeated consensus.
//!
//! The classic downstream use of a consensus object: a sequence of log
//! slots, each decided by one consensus instance. Every process
//! proposes the front of its local command queue for the next
//! undecided slot; when a slot decides its command it pops it,
//! otherwise it re-proposes the same command at the next slot. Log
//! agreement and per-proposer FIFO order follow directly from consensus
//! agreement and validity.
//!
//! Built on any of this crate's stacks, so the per-slot cost is the
//! paper's `O(log* n)` / `O(log log n + cost(AC))` expected steps — a
//! replicated log whose slot latency is essentially independent of the
//! number of replicas.

use std::sync::Arc;

use sift_adopt_commit::AdoptCommit;
use sift_core::{Conciliator, Persona};
use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, OpResult, Process, ProcessId, Step};

use crate::framework::{ConsensusOutcome, ConsensusParticipant, ConsensusProtocol};

/// A fixed-length replicated log over per-slot consensus instances.
///
/// # Examples
///
/// ```
/// use sift_adopt_commit::DigitAc;
/// use sift_consensus::log::ReplicatedLog;
/// use sift_core::{Epsilon, SiftingConciliator};
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
///
/// let n = 4;
/// let mut b = LayoutBuilder::new();
/// let log = ReplicatedLog::allocate(
///     &mut b,
///     n,
///     3, // slots
///     16,
///     |b| SiftingConciliator::allocate(b, n, Epsilon::HALF),
///     |b| DigitAc::for_code_space(b, 16, 2),
/// );
/// let layout = b.build();
/// let split = SeedSplitter::new(9);
/// let procs = split.processes(n, |pid, rng| log.participant(pid, vec![pid.index() as u64], rng));
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// let logs = report.unwrap_outputs();
/// assert!(logs.windows(2).all(|w| w[0] == w[1]), "identical logs");
/// ```
#[derive(Debug)]
pub struct ReplicatedLog<C, A> {
    slots: Arc<Vec<ConsensusProtocol<C, A>>>,
    n: usize,
}

impl<C, A> Clone for ReplicatedLog<C, A> {
    fn clone(&self) -> Self {
        Self {
            slots: Arc::clone(&self.slots),
            n: self.n,
        }
    }
}

impl<C, A> ReplicatedLog<C, A>
where
    C: Conciliator,
    A: AdoptCommit<Persona>,
{
    /// Allocates a log with `slots` entries, each a consensus instance
    /// with `max_phases` phases built by the given constructors.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `slots == 0`.
    pub fn allocate(
        builder: &mut LayoutBuilder,
        n: usize,
        slots: usize,
        max_phases: usize,
        mut conciliator: impl FnMut(&mut LayoutBuilder) -> C,
        mut adopt_commit: impl FnMut(&mut LayoutBuilder) -> A,
    ) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(slots > 0, "need at least one log slot");
        let slots = (0..slots)
            .map(|_| {
                ConsensusProtocol::allocate(
                    builder,
                    n,
                    max_phases,
                    &mut conciliator,
                    &mut adopt_commit,
                )
            })
            .collect();
        Self {
            slots: Arc::new(slots),
            n,
        }
    }

    /// Number of log slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Creates the participant for `pid` with its local command queue.
    /// Commands are proposed front-first; a command stays queued until
    /// some slot commits it. If the queue empties before the log fills,
    /// the participant re-proposes its last command.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or `commands` is empty.
    pub fn participant(
        &self,
        pid: ProcessId,
        commands: Vec<u64>,
        rng: &mut Xoshiro256StarStar,
    ) -> LogParticipant<C, A> {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        assert!(!commands.is_empty(), "need at least one command to propose");
        let own = Xoshiro256StarStar::seed_from_u64(rng.next_u64());
        let mut participant = LogParticipant {
            shared: self.clone(),
            pid,
            rng: own,
            queue: std::collections::VecDeque::from(commands),
            decided: Vec::with_capacity(self.len()),
            current: None,
            started: false,
        };
        participant.enter_next_slot();
        participant
    }
}

/// Single-use replicated-log participant; output is the decided log.
#[derive(Debug)]
pub struct LogParticipant<C: Conciliator, A: AdoptCommit<Persona>> {
    shared: ReplicatedLog<C, A>,
    pid: ProcessId,
    rng: Xoshiro256StarStar,
    queue: std::collections::VecDeque<u64>,
    decided: Vec<u64>,
    current: Option<ConsensusParticipant<C, A>>,
    started: bool,
}

impl<C: Conciliator, A: AdoptCommit<Persona>> LogParticipant<C, A> {
    fn proposal(&self) -> u64 {
        *self.queue.front().expect("queue never empties below one")
    }

    fn enter_next_slot(&mut self) {
        let slot = self.decided.len();
        if slot == self.shared.len() {
            self.current = None;
            return;
        }
        let proposal = self.proposal();
        self.current = Some(self.shared.slots[slot].participant(self.pid, proposal, &mut self.rng));
        self.started = false;
    }

    fn absorb(&mut self, outcome: ConsensusOutcome) {
        let decision = outcome.unwrap_decided();
        if decision.value == self.proposal() && self.queue.len() > 1 {
            self.queue.pop_front();
        } else if decision.value == self.proposal() {
            // Keep the last command for potential re-proposal so the
            // queue never empties (duplicates are deduplicated by the
            // application layer, as in any at-least-once log).
        }
        self.decided.push(decision.value);
        self.enter_next_slot();
    }
}

impl<C: Conciliator, A: AdoptCommit<Persona>> Process for LogParticipant<C, A> {
    type Value = Persona;
    type Output = Vec<u64>;

    fn step(&mut self, mut prev: Option<OpResult<Persona>>) -> Step<Persona, Vec<u64>> {
        loop {
            let Some(consensus) = self.current.as_mut() else {
                return Step::Done(self.decided.clone());
            };
            let step = if self.started {
                consensus.step(prev.take())
            } else {
                self.started = true;
                consensus.step(None)
            };
            match step {
                Step::Issue(op) => return Step::Issue(op),
                Step::Done(outcome) => self.absorb(outcome),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_adopt_commit::{DigitAc, GafniSnapshotAc};
    use sift_core::{Epsilon, SiftingConciliator, SnapshotConciliator};
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{RandomInterleave, ScheduleKind};
    use sift_sim::Engine;

    fn run_log(n: usize, slots: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut b = LayoutBuilder::new();
        let log = ReplicatedLog::allocate(
            &mut b,
            n,
            slots,
            32,
            |b| SiftingConciliator::allocate(b, n, Epsilon::HALF),
            |b| DigitAc::for_code_space(b, 64, 2),
        );
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| {
            // Process i's commands: i*10, i*10+1, …
            let commands: Vec<u64> = (0..3).map(|k| (pid.index() as u64) * 10 + k).collect();
            log.participant(pid, commands, rng)
        });
        let report =
            Engine::new(&layout, procs).run(RandomInterleave::new(n, split.schedule_seed()));
        report.unwrap_outputs()
    }

    #[test]
    fn all_replicas_decide_identical_logs() {
        for seed in 0..15 {
            let logs = run_log(5, 4, seed);
            for w in logs.windows(2) {
                assert_eq!(w[0], w[1], "seed {seed}: logs diverged");
            }
            assert_eq!(logs[0].len(), 4);
        }
    }

    #[test]
    fn every_entry_was_proposed_by_someone() {
        for seed in 0..15 {
            let logs = run_log(4, 5, seed);
            for &entry in &logs[0] {
                let proposer = entry / 10;
                let index = entry % 10;
                assert!(proposer < 4 && index < 3, "invented entry {entry}");
            }
        }
    }

    #[test]
    fn own_commands_commit_in_fifo_order() {
        for seed in 0..15 {
            let logs = run_log(4, 6, seed);
            for p in 0u64..4 {
                let mine: Vec<u64> = logs[0].iter().copied().filter(|&e| e / 10 == p).collect();
                let mut deduped = mine.clone();
                deduped.dedup();
                assert!(
                    deduped.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}: p{p}'s commands out of order: {mine:?}"
                );
            }
        }
    }

    #[test]
    fn works_on_the_snapshot_stack_too() {
        let n = 4;
        let mut b = LayoutBuilder::new();
        let log = ReplicatedLog::allocate(
            &mut b,
            n,
            3,
            16,
            |b| SnapshotConciliator::allocate(b, n, Epsilon::HALF),
            |b| GafniSnapshotAc::allocate(b, n, |p: &Persona| p.input()),
        );
        let layout = b.build();
        let split = SeedSplitter::new(3);
        let procs = split.processes(n, |pid, rng| {
            log.participant(pid, vec![pid.index() as u64 + 1], rng)
        });
        let report = Engine::new(&layout, procs)
            .run(ScheduleKind::RandomInterleave.build(n, split.schedule_seed()));
        let logs = report.unwrap_outputs();
        assert!(logs.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(logs[0].len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one command")]
    fn empty_command_queue_panics() {
        let mut b = LayoutBuilder::new();
        let log = ReplicatedLog::allocate(
            &mut b,
            2,
            1,
            8,
            |b| SiftingConciliator::allocate(b, 2, Epsilon::HALF),
            |b| DigitAc::for_code_space(b, 4, 2),
        );
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let _ = log.participant(ProcessId(0), Vec::new(), &mut rng);
    }
}
