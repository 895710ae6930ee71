//! Shared trial machinery: build a protocol, run it under a schedule,
//! collect agreement/step/survivor data. [`TrialFixture`] is the one
//! place a conciliator trial is built: the experiments' `run_trial`
//! mints its participants from it, and every checked Algorithm 2 run —
//! the fuzzer's, the soak's, E22's and the E20/E24 lattice runs — is
//! its [`run`](TrialFixture::run). A witness goes back through the same
//! method: it is replayed ([`replay`](TrialFixture::replay)) and shrunk
//! (`shrink`) on the registers of the run that found it, and checked at
//! its adversary's tier with the shared property checks (`check_steps`,
//! `check_validity`, with `check_agreement` beside it).
//!
//! Builders are reusable (`Fn`, not `FnOnce`) so one closure can be
//! shared by every worker of the parallel executor
//! (see [`exec`](crate::exec)).

use std::sync::atomic::{AtomicUsize, Ordering};

use sift_core::{
    distinct_per_round, try_check_validity, Conciliator, Epsilon, Persona, Recorder, RoundHistory,
    RoundState, SiftingConciliator,
};
use sift_sim::adversary::{AdversaryStrength, DelayedChooser};
use sift_sim::fuzz::Environment;
use sift_sim::mc::shrink_schedule_with;
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::{FixedSchedule, Schedule, ScheduleKind};
use sift_sim::{
    AdaptiveView, Engine, Layout, LayoutBuilder, Metrics, Op, Process, ProcessId, RunReport,
    StopReason,
};

/// Result of one conciliator trial.
#[derive(Debug, Clone)]
pub struct Trial {
    /// All processes returned the same persona.
    pub agreed: bool,
    /// Number of distinct output personae.
    pub distinct_outputs: usize,
    /// Step accounting for the run.
    pub metrics: Metrics,
    /// Why the engine stopped. Anything but [`StopReason::AllDone`]
    /// means the run was truncated and `agreed` reflects an incomplete
    /// execution; aggregations count truncations separately (see
    /// `Truncations`).
    pub stop_reason: StopReason,
    /// Distinct-persona counts per round, when the trial recorded
    /// history.
    pub survivors: Option<Vec<usize>>,
}

static TRIALS: AtomicUsize = AtomicUsize::new(0);

/// Sets the trial count every experiment uses in place of its own
/// default (`0` restores the defaults). [`crate::cli`] calls this with
/// `SIFT_TRIALS`.
pub fn set_trials(trials: usize) {
    TRIALS.store(trials, Ordering::Relaxed);
}

/// The trial count for a configuration whose own default is `wanted`:
/// the [`set_trials`] value, else `wanted`.
pub(crate) fn default_trials(wanted: usize) -> usize {
    match TRIALS.load(Ordering::Relaxed) {
        0 => wanted,
        set => set,
    }
}

/// Extraction half of the E20-style sifting breaker: from an adaptive
/// view, pick the live process furthest behind (lowest round), readers
/// before writers within a round, lowest pid as the final tiebreak.
/// Starving first-round reads of the writes they should have seen keeps
/// every persona alive — the construction that defeats sifting once the
/// adversary can inspect process state.
fn breaker_extract<P>(view: &AdaptiveView<'_, P>) -> ProcessId
where
    P: Process + RoundState,
{
    view.live
        .iter()
        .min_by_key(|(pid, proc, op)| {
            let is_writer = matches!(op, Op::RegisterWrite(_, _));
            (proc.round(), is_writer, pid.index())
        })
        .map(|(pid, _, _)| *pid)
        .expect("run_adaptive only consults a nonempty live set")
}

/// Decision half of the breaker: schedule the `k`-stale choice if that
/// process is still live, else fall back to the first live process
/// (liveness knowledge is always current; see
/// [`sift_sim::adversary`]).
fn breaker_decide(stale: Option<&ProcessId>, live: &[ProcessId]) -> ProcessId {
    stale
        .copied()
        .filter(|p| live.contains(p))
        .unwrap_or_else(|| live[0])
}

/// The unmodified Algorithm 2 build (`ε = 1/2`) every checker runs
/// against by default.
pub fn sifter(builder: &mut LayoutBuilder, n: usize) -> SiftingConciliator {
    SiftingConciliator::allocate(builder, n, Epsilon::HALF)
}

/// The seed-independent ingredients of a conciliator trial, built in
/// one place: the layout, the conciliator allocated in it, and — for
/// the checkers — its worst-case step bound and the slot budget past
/// which a run counts as livelocked. Participants are minted per seed,
/// so one fixture serves a run, its replays and its shrink.
#[derive(Debug)]
pub struct TrialFixture<C> {
    n: usize,
    layout: Layout,
    conciliator: C,
    steps_bound: Option<u64>,
}

impl<C: Conciliator> TrialFixture<C> {
    /// Allocates `build`'s conciliator for `n` processes in a fresh
    /// layout.
    pub fn new(n: usize, build: impl FnOnce(&mut LayoutBuilder) -> C) -> Self {
        let mut builder = LayoutBuilder::new();
        let conciliator = build(&mut builder);
        Self {
            n,
            layout: builder.build(),
            steps_bound: conciliator.steps_bound(),
            conciliator,
        }
    }

    /// The layout the conciliator's objects live in.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The conciliator's worst-case charged ops per participant.
    ///
    /// # Panics
    ///
    /// Panics if the conciliator only has an expected bound.
    pub fn steps_bound(&self) -> u64 {
        self.steps_bound
            .expect("a checked trial needs a worst-case step bound")
    }

    /// The inputs [`participants`](Self::participants) propose:
    /// process `i` proposes `i`.
    pub(crate) fn inputs(&self) -> Vec<u64> {
        (0..self.n as u64).collect()
    }

    /// Mints the `n` participants, each drawing its coins from its own
    /// stream of `split`.
    pub fn participants(&self, split: &SeedSplitter) -> Vec<C::Participant> {
        split.processes(self.n, |pid, rng| {
            self.conciliator.participant(pid, pid.index() as u64, rng)
        })
    }

    /// [`participants`](Self::participants), each wrapped in a
    /// [`Recorder`] so the run's [`RoundHistory`] is kept.
    pub fn recorded(&self, split: &SeedSplitter) -> Vec<Recorder<C::Participant>>
    where
        C::Participant: RoundState,
    {
        self.participants(split)
            .into_iter()
            .map(Recorder::new)
            .collect()
    }

    /// Runs a traced trial of [`recorded`](Self::recorded) participants
    /// minted from `split` in `env`, the one place a checked run states
    /// its adversary and registers: the registers take `env.semantics`;
    /// the oblivious tier runs `schedule`, every stronger lattice point
    /// the sifting breaker on `k`-stale observations (delay 0 is E20's
    /// adaptive adversary). `budget_from: Some(prefix)` stops a run as
    /// livelocked after `prefix` slots plus `4·n·(R + 2)`, 4× headroom
    /// over a correct run's slots, skipped ones included; `None` never.
    pub fn run(
        &self,
        split: &SeedSplitter,
        env: Environment,
        schedule: impl Schedule,
        budget_from: Option<usize>,
    ) -> RunReport<Recorder<C::Participant>>
    where
        C::Participant: RoundState,
    {
        let mut engine = Engine::new(&self.layout, self.recorded(split));
        engine.enable_trace();
        if let Some(prefix) = budget_from {
            let budget = 4 * self.n as u64 * (self.steps_bound() + 2);
            engine.limit_slots(prefix as u64 + budget);
        }
        engine.set_register_semantics(env.semantics);
        match env.strength.delay() {
            None => engine.run(schedule),
            Some(delay) => {
                let mut chooser = DelayedChooser::new(delay, breaker_extract, breaker_decide);
                engine.run_adaptive(|view| chooser.choose(&view))
            }
        }
    }

    /// Replays a run's charged `script` as a fixed schedule on the run's
    /// registers, `env.semantics`; unlimited, as the script is finite.
    pub fn replay(
        &self,
        split: &SeedSplitter,
        env: Environment,
        script: &[usize],
    ) -> RunReport<Recorder<C::Participant>>
    where
        C::Participant: RoundState,
    {
        let schedule = FixedSchedule::from_indices(script.iter().copied());
        let strength = AdversaryStrength::Oblivious;
        self.run(split, Environment { strength, ..env }, schedule, None)
    }

    /// Replays a violating run's charged `script` in its `env`; if
    /// `check` still fails, greedily shrinks the script to a 1-minimal
    /// one in that same environment and returns it with its failure
    /// message. Otherwise the violation does not reproduce from the
    /// finite script (it depends on the schedule's infinite tail, as a
    /// slot-limit livelock does) and is reported unshrunk, with the
    /// run's own `message`.
    pub(crate) fn shrink(
        &self,
        split: &SeedSplitter,
        env: Environment,
        script: Vec<usize>,
        message: String,
        check: impl Fn(&RunReport<Recorder<C::Participant>>) -> Result<(), String>,
    ) -> (Option<Vec<usize>>, String)
    where
        C::Participant: RoundState,
    {
        if check(&self.replay(split, env, &script)).is_ok() {
            return (None, message);
        }
        let replay = |script: &[usize]| self.replay(split, env, script);
        let (script, message) = shrink_schedule_with(replay, script, &check);
        (Some(script), message)
    }

    /// The step-bound property: no participant performed more than
    /// [`steps_bound`](Self::steps_bound) charged ops.
    pub(crate) fn check_steps<P: Process>(&self, report: &RunReport<P>) -> Result<(), String> {
        let steps_bound = self.steps_bound();
        for (pid, &ops) in report.metrics.per_process_ops.iter().enumerate() {
            if ops > steps_bound {
                return Err(format!(
                    "step bound violated: process {pid} performed {ops} charged ops \
                     (bound {steps_bound})"
                ));
            }
        }
        Ok(())
    }

    /// Validity: every decided persona carries one of the
    /// [`inputs`](Self::inputs).
    pub(crate) fn check_validity<P>(&self, report: &RunReport<P>) -> Result<(), String>
    where
        P: Process<Output = Persona>,
    {
        try_check_validity(&self.inputs(), &report.outputs)
    }
}

/// Agreement: every decided output is the same.
pub(crate) fn check_agreement<P>(report: &RunReport<P>) -> Result<(), String>
where
    P: Process,
    P::Output: PartialEq,
{
    if report.outputs_agree() {
        Ok(())
    } else {
        Err("decided outputs disagree".to_string())
    }
}

/// Runs `build`'s conciliator under the `kind` schedule, both seeded
/// from `seed`, over the participants `mint` makes of the fixture.
/// Returns the report and the inputs.
fn run_once<C: Conciliator, P: Process>(
    n: usize,
    seed: u64,
    kind: ScheduleKind,
    build: impl Fn(&mut LayoutBuilder) -> C,
    mint: impl Fn(&TrialFixture<C>, &SeedSplitter) -> Vec<P>,
) -> (RunReport<P>, Vec<u64>) {
    let fixture = TrialFixture::new(n, build);
    let split = SeedSplitter::new(seed);
    let schedule = kind.build(n, split.schedule_seed());
    let report = Engine::new(fixture.layout(), mint(&fixture, &split)).run(schedule);
    (report, fixture.inputs())
}

/// Runs one trial of a round-structured conciliator, recording its
/// history to collect per-round survivor counts.
pub(crate) fn run_trial_with_history<C, P>(
    n: usize,
    seed: u64,
    kind: ScheduleKind,
    build: impl Fn(&mut LayoutBuilder) -> C,
) -> Trial
where
    C: Conciliator<Participant = P>,
    P: Process<Value = Persona, Output = Persona> + RoundState,
{
    let (report, inputs) = run_once(n, seed, kind, build, TrialFixture::recorded);
    let survivors = distinct_per_round(report.processes.iter().map(|p| p.history()));
    summarize(report, &inputs, Some(survivors))
}

/// Runs one trial of any conciliator (no survivor collection).
pub(crate) fn run_trial<C>(
    n: usize,
    seed: u64,
    kind: ScheduleKind,
    build: impl Fn(&mut LayoutBuilder) -> C,
) -> Trial
where
    C: Conciliator,
{
    let (report, inputs) = run_once(n, seed, kind, build, TrialFixture::participants);
    summarize(report, &inputs, None)
}

/// Checks validity against the inputs the participants were actually
/// constructed with (not an assumed `0..n` range) and folds the run
/// report into a [`Trial`].
fn summarize<P>(
    report: sift_sim::RunReport<P>,
    inputs: &[u64],
    survivors: Option<Vec<usize>>,
) -> Trial
where
    P: Process<Value = Persona, Output = Persona>,
{
    use std::collections::HashSet;
    let allowed: HashSet<u64> = inputs.iter().copied().collect();
    let outputs: Vec<&Persona> = report.outputs.iter().flatten().collect();
    for p in &outputs {
        assert!(
            allowed.contains(&p.input()),
            "validity violated: output {} was not any participant's input",
            p.input()
        );
    }
    let distinct: HashSet<ProcessId> = outputs.iter().map(|p| p.origin()).collect();
    let trial = Trial {
        agreed: distinct.len() <= 1 && outputs.len() == report.outputs.len(),
        distinct_outputs: distinct.len(),
        metrics: report.metrics,
        stop_reason: report.stop_reason,
        survivors,
    };
    crate::obs::record_trial(&trial);
    trial
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_core::{CilConciliator, Epsilon, SiftingConciliator};

    #[test]
    fn trial_reports_steps_and_agreement() {
        let t = run_trial(8, 3, ScheduleKind::RoundRobin, |b| {
            SiftingConciliator::allocate(b, 8, Epsilon::HALF)
        });
        assert!(t.metrics.total_steps > 0);
        assert!(t.distinct_outputs >= 1);
        assert!(t.survivors.is_none());
        assert_eq!(t.stop_reason, StopReason::AllDone);
    }

    #[test]
    fn trial_with_history_reports_survivors() {
        let t = run_trial_with_history(8, 3, ScheduleKind::RandomInterleave, |b| {
            SiftingConciliator::allocate(b, 8, Epsilon::HALF)
        });
        let survivors = t.survivors.expect("history requested");
        assert!(!survivors.is_empty());
        assert!(survivors[0] <= 8);
        assert_eq!(t.agreed, *survivors.last().unwrap() == 1);
    }

    #[test]
    fn cil_trial_runs_without_history() {
        let t = run_trial(6, 1, ScheduleKind::RoundRobin, |b| {
            CilConciliator::allocate(b, 6)
        });
        assert!(t.metrics.total_steps > 0);
    }

    #[test]
    fn builders_are_reusable() {
        let build = |b: &mut LayoutBuilder| SiftingConciliator::allocate(b, 4, Epsilon::HALF);
        let a = run_trial(4, 1, ScheduleKind::RoundRobin, build);
        let b = run_trial(4, 1, ScheduleKind::RoundRobin, build);
        assert_eq!(a.metrics.total_steps, b.metrics.total_steps);
    }

    #[test]
    fn default_trials_fall_back_to_wanted() {
        // Nothing in this test binary calls `set_trials`.
        assert_eq!(default_trials(42), 42);
    }
}
