//! Tournament test-and-set: a binary tree of two-process nodes.
//!
//! Process `i` starts at leaf `i` and climbs toward the root; at each
//! internal node it plays the node's [`TwoProcessTas`] on the side it
//! arrived from (left/right child). Winning all `⌈log₂ n⌉` levels wins
//! the object; losing anywhere loses overall. At most one process
//! ascends from each subtree, so every node really has at most one
//! participant per side.
//!
//! This is the classic fallback structure; on its own it costs
//! `O(log n)` node games per process. [`SiftingTas`](crate::SiftingTas)
//! puts sift rounds in front so only `O(1)` processes (in expectation)
//! ever pay for the climb.

use std::sync::Arc;

use sift_core::Persona;
use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, OpResult, Process, ProcessId, Step};

use crate::spec::TasOutcome;
use crate::two_process::{TwoProcessTas, TwoProcessTasParticipant};

/// A one-shot test-and-set for up to `n` participants, as a tournament
/// of two-process nodes.
///
/// # Examples
///
/// ```
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
/// use sift_tas::{check_tas_properties, TournamentTas};
///
/// let n = 5;
/// let mut b = LayoutBuilder::new();
/// let tas = TournamentTas::allocate(&mut b, n);
/// let layout = b.build();
/// let split = SeedSplitter::new(2);
/// let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// check_tas_properties(&report.outputs);
/// ```
#[derive(Debug, Clone)]
pub struct TournamentTas {
    /// Heap-ordered internal nodes: root at index 1, children of `i` at
    /// `2i` and `2i+1`; indices `leaf_base..2·leaf_base` are leaves.
    nodes: Arc<Vec<TwoProcessTas>>,
    leaf_base: usize,
    n: usize,
}

impl TournamentTas {
    /// Allocates an instance for up to `n` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn allocate(builder: &mut LayoutBuilder, n: usize) -> Self {
        assert!(n > 0, "need at least one participant");
        let leaf_base = n.next_power_of_two();
        // Internal nodes are indices 1..leaf_base; index 0 is unused.
        let nodes = (0..leaf_base)
            .map(|_| TwoProcessTas::allocate(builder))
            .collect();
        Self {
            nodes: Arc::new(nodes),
            leaf_base,
            n,
        }
    }

    /// Creates the participant for `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid.index() >= n`.
    pub fn participant(
        &self,
        pid: ProcessId,
        rng: &mut Xoshiro256StarStar,
    ) -> TournamentParticipant {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        let own = Xoshiro256StarStar::seed_from_u64(rng.next_u64());
        let mut participant = TournamentParticipant {
            shared: self.clone(),
            position: self.leaf_base + pid.index(),
            rng: own,
            current: None,
            started: false,
        };
        participant.enter_next_node();
        participant
    }
}

/// Single-use participant of [`TournamentTas`].
#[derive(Debug)]
pub struct TournamentParticipant {
    shared: TournamentTas,
    /// Current heap position (a leaf initially; 1 after winning the
    /// root's child game... the participant has won overall once it
    /// would move to position 0).
    position: usize,
    rng: Xoshiro256StarStar,
    current: Option<TwoProcessTasParticipant>,
    started: bool,
}

impl TournamentParticipant {
    /// Sets up the game at the parent of `self.position`, if any.
    fn enter_next_node(&mut self) {
        let parent = self.position / 2;
        if parent == 0 {
            self.current = None; // climbed past the root: overall win
            return;
        }
        let side = self.position % 2 == 1;
        let node = &self.shared.nodes[parent];
        self.current = Some(node.participant(side, &mut self.rng));
        self.position = parent;
        self.started = false;
    }
}

impl Process for TournamentParticipant {
    type Value = Persona;
    type Output = TasOutcome;

    fn step(&mut self, mut prev: Option<OpResult<Persona>>) -> Step<Persona, TasOutcome> {
        loop {
            let Some(game) = self.current.as_mut() else {
                return Step::Done(TasOutcome::Won);
            };
            let step = if self.started {
                game.step(prev.take())
            } else {
                self.started = true;
                game.step(None)
            };
            match step {
                Step::Issue(op) => return Step::Issue(op),
                Step::Done(TasOutcome::Lost) => return Step::Done(TasOutcome::Lost),
                Step::Done(TasOutcome::Won) => self.enter_next_node(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_tas_properties;
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{BlockSequential, RandomInterleave, RoundRobin};
    use sift_sim::Engine;

    fn run(
        n: usize,
        seed: u64,
        schedule: impl sift_sim::schedule::Schedule,
    ) -> Vec<Option<TasOutcome>> {
        let mut b = LayoutBuilder::new();
        let tas = TournamentTas::allocate(&mut b, n);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
        Engine::new(&layout, procs).run(schedule).outputs
    }

    #[test]
    fn exactly_one_winner_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 8, 13, 16] {
            for seed in 0..20 {
                let outs = run(n, seed, RandomInterleave::new(n, seed + 77));
                assert!(outs.iter().all(Option::is_some), "n={n} seed={seed}");
                check_tas_properties(&outs);
            }
        }
    }

    #[test]
    fn block_schedule_first_process_wins() {
        // Running solo to completion, process 0 wins every node game it
        // plays (solo consensus decides its own side).
        let outs = run(8, 3, BlockSequential::in_order(8));
        assert_eq!(outs[0], Some(TasOutcome::Won));
        for o in &outs[1..] {
            assert_eq!(*o, Some(TasOutcome::Lost));
        }
    }

    #[test]
    fn single_participant_wins_immediately() {
        let outs = run(1, 0, RoundRobin::new(1));
        assert_eq!(outs[0], Some(TasOutcome::Won));
    }

    #[test]
    fn levels_are_logarithmic() {
        let mut b = LayoutBuilder::new();
        let tas = TournamentTas::allocate(&mut b, 9);
        assert_eq!(tas.leaf_base, 16, "9 participants pad to 16 leaves");
        assert_eq!(tas.n, 9);
    }

    #[test]
    fn winners_are_not_always_the_same_process() {
        use std::collections::HashSet;
        let mut winners = HashSet::new();
        for seed in 0..40 {
            let outs = run(4, seed, RandomInterleave::new(4, seed * 13 + 1));
            let w = outs
                .iter()
                .position(|o| o == &Some(TasOutcome::Won))
                .expect("one winner");
            winners.insert(w);
        }
        assert!(winners.len() >= 2, "randomness should vary the winner");
    }
}
