//! Sifting test-and-set, after Alistarh–Aspnes (the paper's reference
//! \[1\] and the direct ancestor of its Algorithm 2).
//!
//! Each round has one register. A participant either *writes* its
//! persona (with the tuned probability `p_i`) and survives, or *reads*:
//! an empty register means it survives, a non-empty register means
//! another contender is ahead — it **loses immediately and leaves**.
//! This is exactly Algorithm 2's sift with adoption replaced by
//! elimination, which is the difference the paper calls out in §3. At
//! least one participant survives every round (the first one scheduled
//! does), and the analysis of Lemmas 2–4 bounds the expected survivors
//! by `O(1)` after `⌈log log n⌉` rounds.
//!
//! Survivors then enter a [`TournamentTas`] to
//! pick the unique winner. The tournament costs `O(log n)` node games,
//! but only the expected-`O(1)` sift survivors ever pay it; everyone
//! else leaves after at most `R = O(log log n)` register operations.
//! (Alistarh–Aspnes use an *adaptive* fallback to keep even the
//! survivors at `O(log log n)` expected steps; the tournament is our
//! simpler stand-in, recorded in `DESIGN.md`.)

use sift_core::math::{ceil_log_4_3, ceil_log_log, sifting_p};
use sift_core::{Persona, PersonaSpec};
use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{LayoutBuilder, Op, OpResult, Process, ProcessId, RegisterId, Step};

use crate::spec::TasOutcome;
use crate::tournament::{TournamentParticipant, TournamentTas};

/// A one-shot test-and-set for up to `n` participants: sift rounds in
/// front of a tournament.
///
/// # Examples
///
/// ```
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RandomInterleave;
/// use sift_sim::{Engine, LayoutBuilder};
/// use sift_tas::{check_tas_properties, SiftingTas};
///
/// let n = 32;
/// let mut b = LayoutBuilder::new();
/// let tas = SiftingTas::allocate(&mut b, n);
/// let layout = b.build();
/// let split = SeedSplitter::new(4);
/// let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
/// let report = Engine::new(&layout, procs)
///     .run(RandomInterleave::new(n, split.schedule_seed()));
/// check_tas_properties(&report.outputs);
/// ```
#[derive(Debug, Clone)]
pub struct SiftingTas {
    registers: std::sync::Arc<Vec<RegisterId>>,
    probs: std::sync::Arc<Vec<f64>>,
    tournament: TournamentTas,
    n: usize,
}

impl SiftingTas {
    /// Allocates an instance for up to `n` participants, with
    /// `⌈log log n⌉` tuned rounds plus a short constant tail.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn allocate(builder: &mut LayoutBuilder, n: usize) -> Self {
        assert!(n > 0, "need at least one participant");
        let aggressive = ceil_log_log(n as u64);
        // A short 1/2-tail keeps the expected survivor count ~1–2
        // without paying for full agreement (losers here merely enter
        // the tournament, they do not break safety).
        let tail = ceil_log_4_3(8.0).max(1);
        let probs: Vec<f64> = (1..=aggressive + tail)
            .map(|i| {
                if i <= aggressive {
                    sifting_p(n as u64, i)
                } else {
                    0.5
                }
            })
            .collect();
        let registers = builder.registers(probs.len());
        let tournament = TournamentTas::allocate(builder, n);
        Self {
            registers: std::sync::Arc::new(registers),
            probs: std::sync::Arc::new(probs),
            tournament,
            n,
        }
    }

    /// Number of sift rounds in front of the tournament.
    pub fn sift_rounds(&self) -> usize {
        self.probs.len()
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
    ) -> SiftingTasParticipant {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        let mut own = Xoshiro256StarStar::seed_from_u64(rng.next_u64());
        let spec = PersonaSpec {
            priority_rounds: 0,
            priority_range: 0,
            write_probs: self.probs.as_ref().clone(),
        };
        let persona = Persona::generate(pid, pid.index() as u64, &spec, &mut own);
        SiftingTasParticipant {
            shared: self.clone(),
            pid,
            persona,
            rng: own,
            round: 0,
            stage: Stage::Sift,
        }
    }
}

#[derive(Debug)]
enum Stage {
    Sift,
    AwaitSift,
    Tournament {
        sub: Box<TournamentParticipant>,
        started: bool,
    },
    Finished,
}

/// Single-use participant of [`SiftingTas`].
#[derive(Debug)]
pub struct SiftingTasParticipant {
    shared: SiftingTas,
    pid: ProcessId,
    persona: Persona,
    rng: Xoshiro256StarStar,
    round: usize,
    stage: Stage,
}

impl SiftingTasParticipant {
    /// Whether this participant reached the tournament.
    pub fn reached_tournament(&self) -> bool {
        matches!(self.stage, Stage::Tournament { .. } | Stage::Finished)
            && self.round == self.shared.sift_rounds()
    }
}

impl Process for SiftingTasParticipant {
    type Value = Persona;
    type Output = TasOutcome;

    fn step(&mut self, mut prev: Option<OpResult<Persona>>) -> Step<Persona, TasOutcome> {
        loop {
            match std::mem::replace(&mut self.stage, Stage::Finished) {
                Stage::Sift => {
                    if self.round == self.shared.sift_rounds() {
                        let sub = self.shared.tournament.participant(self.pid, &mut self.rng);
                        self.stage = Stage::Tournament {
                            sub: Box::new(sub),
                            started: false,
                        };
                        continue;
                    }
                    let reg = self.shared.registers[self.round];
                    self.stage = Stage::AwaitSift;
                    return if self.persona.wants_write(self.round) {
                        Step::Issue(Op::RegisterWrite(reg, self.persona.clone()))
                    } else {
                        Step::Issue(Op::RegisterRead(reg))
                    };
                }
                Stage::AwaitSift => {
                    match prev.take().expect("resumed with sift result") {
                        OpResult::Ack => {}                 // wrote: survive
                        OpResult::RegisterValue(None) => {} // empty: survive
                        OpResult::RegisterValue(Some(_)) => {
                            // Another contender is ahead: lose and leave.
                            return Step::Done(TasOutcome::Lost);
                        }
                        other => panic!("unexpected result {other:?}"),
                    }
                    self.round += 1;
                    self.stage = Stage::Sift;
                }
                Stage::Tournament { mut sub, started } => {
                    let step = if started {
                        sub.step(prev.take())
                    } else {
                        sub.step(None)
                    };
                    match step {
                        Step::Issue(op) => {
                            self.stage = Stage::Tournament { sub, started: true };
                            return Step::Issue(op);
                        }
                        Step::Done(outcome) => return Step::Done(outcome),
                    }
                }
                Stage::Finished => panic!("participant stepped after completion"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_tas_properties;
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{BlockSequential, RandomInterleave, RoundRobin, ScheduleKind};
    use sift_sim::Engine;

    fn run(
        n: usize,
        seed: u64,
        schedule: impl sift_sim::schedule::Schedule,
    ) -> sift_sim::RunReport<SiftingTasParticipant> {
        let mut b = LayoutBuilder::new();
        let tas = SiftingTas::allocate(&mut b, n);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
        Engine::new(&layout, procs).run(schedule)
    }

    #[test]
    fn exactly_one_winner_across_sizes_and_seeds() {
        for n in [1usize, 2, 3, 7, 16, 33] {
            for seed in 0..20 {
                let report = run(n, seed, RandomInterleave::new(n, seed + 5));
                assert!(report.all_decided(), "n={n} seed={seed}");
                check_tas_properties(&report.outputs);
            }
        }
    }

    #[test]
    fn safety_under_all_schedule_families() {
        let n = 16;
        for kind in ScheduleKind::all() {
            for seed in 0..20 {
                let mut b = LayoutBuilder::new();
                let tas = SiftingTas::allocate(&mut b, n);
                let layout = b.build();
                let split = SeedSplitter::new(seed);
                let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
                let report = Engine::new(&layout, procs).run(kind.build(n, split.schedule_seed()));
                check_tas_properties(&report.outputs);
            }
        }
    }

    #[test]
    fn losers_leave_after_few_steps() {
        // Most participants must lose within the sift prefix: their
        // step count is at most the number of sift rounds.
        let n = 256;
        let mut cheap_losers = 0u64;
        let mut losers = 0u64;
        for seed in 0..10 {
            let report = run(n, seed, RandomInterleave::new(n, seed + 9));
            let rounds = report.processes[0].shared.sift_rounds() as u64;
            for (i, out) in report.outputs.iter().enumerate() {
                if out == &Some(TasOutcome::Lost) {
                    losers += 1;
                    if report.metrics.per_process_steps[i] <= rounds {
                        cheap_losers += 1;
                    }
                }
            }
        }
        assert!(
            cheap_losers * 10 >= losers * 8,
            "at least 80% of losers should leave inside the sift: {cheap_losers}/{losers}"
        );
    }

    #[test]
    fn few_processes_reach_the_tournament() {
        let n = 1024;
        let mut total_survivors = 0usize;
        let trials = 10;
        for seed in 0..trials {
            let report = run(n, seed, RandomInterleave::new(n, seed + 31));
            total_survivors += report
                .processes
                .iter()
                .filter(|p| p.reached_tournament())
                .count();
        }
        let mean = total_survivors as f64 / trials as f64;
        assert!(
            mean < 8.0,
            "expected O(1) sift survivors, got {mean} on average for n={n}"
        );
    }

    #[test]
    fn first_solo_runner_wins_under_block_schedule() {
        let report = run(32, 2, BlockSequential::in_order(32));
        assert_eq!(report.outputs[0], Some(TasOutcome::Won));
        check_tas_properties(&report.outputs);
    }

    #[test]
    fn single_participant_wins() {
        let report = run(1, 0, RoundRobin::new(1));
        assert_eq!(report.outputs[0], Some(TasOutcome::Won));
    }
}
