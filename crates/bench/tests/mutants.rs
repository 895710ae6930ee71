//! Mutation testing of the test-stack itself: two deliberately broken
//! sifters, written here as ordinary test code over `sift-core`'s
//! public API, must be caught within the CI smoke budget by the same
//! generic entry points that check the shipped protocol
//! (`conformance::sifting_claims`, `fuzz::run_fuzz_with`,
//! `soak::run_soak_with`) — or the fuzzer, conformance and soak layers
//! are theater. Runs under the plain `cargo test`.
//!
//! Division of labor (see `DESIGN.md`):
//!
//! * [`biased_coin`] is *statistical* — every single run looks fine,
//!   only the disagreement rate is wrong, so the conformance layer's
//!   Clopper–Pearson test must refute it.
//! * [`StuckRead`] is *schedule-dependent* — reader-first interleavings
//!   push a process past the exact `R`-step bound of Theorem 2, and its
//!   persona convergence livelocks round-robin tails; the fuzzer must
//!   find both and shrink the reproducible one to a minimal script.

use sift_bench::conformance;
use sift_bench::fuzz::{check_invariants, run_fuzz_with, FuzzConfig};
use sift_bench::runner::{sifter, TrialFixture};
use sift_core::{Conciliator, Epsilon, Persona, RoundHistory, RoundState, SiftingConciliator};
use sift_sim::fuzz::Environment;
use sift_sim::rng::{SeedSplitter, Xoshiro256StarStar};
use sift_sim::schedule::{FixedSchedule, RepeatingSchedule};
use sift_sim::{
    Engine, LayoutBuilder, Metrics, Op, OpResult, Process, ProcessId, RegisterId,
    RegisterSemantics, Step, StopReason,
};

/// Every write probability doubled (`min(1, 2·p_i)`): the `1/2` tail
/// becomes all-writers, so tail rounds stop sifting and the
/// disagreement rate blows past `ε`. Caught by a Clopper–Pearson check,
/// not by any single run.
fn biased_coin(builder: &mut LayoutBuilder, n: usize) -> SiftingConciliator {
    let tuned = sifter(&mut LayoutBuilder::new(), n);
    let doubled = tuned
        .write_probabilities()
        .iter()
        .map(|p| (2.0 * p).min(1.0))
        .collect();
    SiftingConciliator::with_probabilities(builder, n, doubled, Epsilon::HALF)
}

/// Off-by-one at the round-advance boundary, wrapped around any
/// register-reading participant: a read that finds the register still
/// empty does **not** reach the participant, and the read is reissued.
/// Invisible under writer-first interleavings, but any schedule that
/// runs a reader before the round's first writer makes the reader
/// exceed the exact `R`-step bound of Theorem 2.
struct StuckRead<P> {
    inner: P,
    last_read: Option<RegisterId>,
}

impl<P: Process<Value = Persona>> Process for StuckRead<P> {
    type Value = Persona;
    type Output = P::Output;

    fn step(&mut self, prev: Option<OpResult<Persona>>) -> Step<Persona, P::Output> {
        if let (Some(OpResult::RegisterValue(None)), Some(reg)) = (&prev, self.last_read) {
            return Step::Issue(Op::RegisterRead(reg));
        }
        let step = self.inner.step(prev);
        self.last_read = match &step {
            Step::Issue(Op::RegisterRead(reg)) => Some(*reg),
            _ => None,
        };
        step
    }
}

impl<P: RoundState> RoundState for StuckRead<P> {
    fn round(&self) -> usize {
        self.inner.round()
    }

    fn held_origin(&self) -> ProcessId {
        self.inner.held_origin()
    }
}

/// A conciliator whose participants are all [`StuckRead`].
struct StuckReadConciliator<C>(C);

impl<C: Conciliator> Conciliator for StuckReadConciliator<C> {
    type Participant = StuckRead<C::Participant>;

    fn participant(
        &self,
        pid: ProcessId,
        input: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> Self::Participant {
        StuckRead {
            inner: self.0.participant(pid, input, rng),
            last_read: None,
        }
    }

    fn steps_bound(&self) -> Option<u64> {
        self.0.steps_bound()
    }

    fn agreement_probability(&self) -> f64 {
        self.0.agreement_probability()
    }
}

fn stuck_read(builder: &mut LayoutBuilder, n: usize) -> StuckReadConciliator<SiftingConciliator> {
    StuckReadConciliator(sifter(builder, n))
}

#[test]
fn biased_coin_doubles_probabilities_and_saturates_the_tail() {
    let mutant = biased_coin(&mut LayoutBuilder::new(), 256);
    let reference = sifter(&mut LayoutBuilder::new(), 256);
    for (i, (&m, &r)) in mutant
        .write_probabilities()
        .iter()
        .zip(reference.write_probabilities())
        .enumerate()
    {
        assert!((m - (2.0 * r).min(1.0)).abs() < 1e-12, "round {i}");
    }
    // Tail rounds write with certainty: the 3/4 decay of Lemma 4 is
    // gone.
    assert!(mutant.write_probabilities()[mutant.aggressive_rounds()..]
        .iter()
        .all(|&p| p == 1.0));
}

#[test]
fn stuck_read_is_transparent_while_no_read_returns_empty() {
    // The control the wrapper needs: driven through a run in which
    // every read finds a persona, `StuckRead` must yield the wrapped
    // participant's exact op sequence — so whatever the checkers flag
    // below is the reissued read's doing, not the wrapping's.
    let n = 4;
    let split = SeedSplitter::new(3);
    let plain = TrialFixture::new(n, |b| sifter(b, n)).recorded(&split);
    let wrapped = TrialFixture::new(n, |b| stuck_read(b, n)).recorded(&split);
    let mut reads = 0;
    for (mut plain, mut wrapped) in plain.into_iter().zip(wrapped) {
        let seen = plain.participant().persona().clone();
        let mut prev = None;
        loop {
            let step = plain.step(prev.clone());
            assert_eq!(format!("{step:?}"), format!("{:?}", wrapped.step(prev)));
            prev = Some(match step {
                Step::Issue(Op::RegisterWrite(..)) => OpResult::Ack,
                Step::Issue(Op::RegisterRead(_)) => {
                    reads += 1;
                    OpResult::RegisterValue(Some(seen.clone()))
                }
                Step::Issue(other) => panic!("a sifter issues register ops only, got {other:?}"),
                Step::Done(_) => break,
            });
        }
        assert_eq!(plain.history(), wrapped.history());
    }
    assert!(
        reads > 0,
        "seed 3 gave all-write personae: nothing was checked"
    );
}

#[test]
fn stuck_read_exceeds_the_exact_step_bound_under_reader_first_schedules() {
    // Find a seed where p0 reads in round 0 (wants_write is pre-flipped
    // into the persona), then schedule p0 before any writer: the mutant
    // reissues the read, so p0 is charged more than one op for round 0
    // and busts the exact R-step bound.
    for seed in 0..64 {
        let split = SeedSplitter::new(seed);
        let fixture = TrialFixture::new(4, |b| stuck_read(b, 4));
        if fixture.participants(&split)[0]
            .inner
            .persona()
            .wants_write(0)
        {
            continue;
        }
        let rounds = fixture.steps_bound();
        // p0 solo twice (two charged reads of the empty register), then
        // everyone round-robin to completion.
        let mut script = vec![0usize, 0];
        for _ in 0..2 * rounds {
            script.extend(0..4);
        }
        let report = Engine::new(fixture.layout(), fixture.participants(&split))
            .run(FixedSchedule::from_indices(script));
        assert!(
            report.metrics.per_process_ops[0] > rounds,
            "seed {seed}: expected p0 to exceed {rounds} ops, took {}",
            report.metrics.per_process_ops[0]
        );
        return;
    }
    panic!("no seed in 0..64 gave p0 a round-0 read");
}

#[test]
fn stuck_read_livelocks_where_the_correct_protocol_terminates() {
    // Solo schedule: a correct participant finishes in exactly R ops
    // (writes and empty reads both advance the round), while the mutant
    // spins on its first read round forever — the termination violation
    // the fuzzer reports as a slot-limit hit.
    let split = SeedSplitter::new(0);
    let plain = TrialFixture::new(4, |b| sifter(b, 4));
    let rounds = plain.steps_bound();
    let procs = plain.participants(&split);
    let p0_reads_somewhere = (0..rounds as usize).any(|r| !procs[0].persona().wants_write(r));
    assert!(p0_reads_somewhere, "seed 0 gave an all-write persona");
    let solo = vec![0usize; 4 * rounds as usize];
    let report = Engine::new(plain.layout(), procs).run(FixedSchedule::from_indices(solo));
    assert_eq!(report.metrics.per_process_ops[0], rounds);
    assert!(report.outputs[0].is_some());

    let fixture = TrialFixture::new(4, |b| stuck_read(b, 4));
    let mut engine = Engine::new(fixture.layout(), fixture.participants(&split));
    engine.limit_slots(4 * rounds);
    let report = engine.run(RepeatingSchedule::new(vec![ProcessId(0)]));
    assert_eq!(report.stop_reason, StopReason::SlotLimit);
    assert!(report.outputs[0].is_none());
}

#[test]
fn conformance_refutes_the_biased_coin_mutant() {
    let results = conformance::sifting_claims(1, "mutant.", &biased_coin);
    assert!(
        !conformance::all_pass(&results),
        "the biased-coin mutant must fail at least one sifting claim"
    );
    // The broken tail stops sifting, so specifically the disagreement
    // bound must be excluded at 99% confidence.
    let disagreement = results
        .iter()
        .find(|r| r.id == "mutant.T2.disagreement")
        .expect("disagreement claim present");
    assert!(
        !disagreement.pass,
        "ε-disagreement must be refuted, got: {disagreement:?}"
    );
}

#[test]
fn fuzzer_catches_and_shrinks_the_stuck_read_mutant() {
    let report = run_fuzz_with(&FuzzConfig::default(), &stuck_read);
    assert!(
        !report.violations.is_empty(),
        "the stuck-read mutant must violate an invariant within the smoke budget"
    );
    // At least one violation must reproduce from its finite charged
    // script and carry a shrunk, replayable FixedSchedule script.
    let shrunk = report
        .violations
        .iter()
        .filter_map(|(_, v)| v.failure.shrunk.as_ref().map(|s| (v, s)))
        .min_by_key(|(_, s)| s.len())
        .expect("at least one violation should shrink to a finite replay script");
    let (violation, script) = shrunk;
    assert!(
        !script.is_empty() && script.len() <= violation.script.len(),
        "shrinking must not grow the script"
    );
    assert!(
        violation.failure.message.contains("step bound"),
        "expected a step-bound violation, got: {}",
        violation.failure.message
    );
    // The printed report is what CI surfaces on failure: it must carry
    // the replay recipe.
    let rendered = violation.to_string();
    assert!(rendered.contains("FixedSchedule::from_indices"));
}

#[test]
fn regular_register_witnesses_replay_and_shrink_in_their_own_environment() {
    // The extended pool draws environment genes; this pinned campaign
    // (4 generations of 8 at n = 8) leaves five stuck-read witnesses
    // whose genomes ask for regular registers.
    let config = FuzzConfig {
        generations: 4,
        population: 8,
        extended: true,
        ..FuzzConfig::default()
    };
    let n = config.n;
    let fixture = TrialFixture::new(n, |b| stuck_read(b, n));
    let report = run_fuzz_with(&config, &stuck_read);
    let (mut regular, mut stale) = (0, 0);
    for (seed, violation) in &report.violations {
        let env = violation.genome.environment();
        if !matches!(env.semantics, RegisterSemantics::Regular(_)) {
            continue;
        }
        regular += 1;
        let split = SeedSplitter::new(*seed);
        let schedule = violation.genome.compile(n);
        let prefix = schedule.prefix_len();
        let run = fixture.run(&split, env, schedule, Some(prefix));
        let trace = run.trace.as_ref().expect("a checked run is traced");
        let charged: Vec<usize> = trace.events().iter().map(|e| e.pid.index()).collect();
        assert_eq!(charged, violation.script, "the rerun is the violating run");

        // Its full charged script replays to the run, byte for byte. A
        // script gives no slot to a finished process, and it ends where
        // the run's charged ops did: with every process done, or
        // exhausted where the run hit its slot limit or left crashed
        // processes undecided.
        let replay = fixture.replay(&split, env, &violation.script);
        let metrics = Metrics {
            skipped_slots: 0,
            ..run.metrics.clone()
        };
        let stop = if run.all_decided() {
            StopReason::AllDone
        } else {
            StopReason::ScheduleExhausted
        };
        assert_eq!(
            format!(
                "{:?}",
                (&replay.outputs, &replay.metrics, replay.stop_reason)
            ),
            format!("{:?}", (&run.outputs, &metrics, stop)),
            "the charged script does not replay in its own environment:\n{violation}"
        );
        let atomic = Environment {
            semantics: RegisterSemantics::Atomic,
            ..env
        };
        if fixture.replay(&split, atomic, &violation.script).metrics != replay.metrics {
            stale += 1;
        }

        // Its shrunk script still fails the check for its tier, on its
        // own registers.
        let shrunk = violation
            .failure
            .shrunk
            .as_ref()
            .expect("a stuck-read witness shrinks to a finite script");
        let shrunk_run = fixture.replay(&split, env, shrunk);
        assert!(
            check_invariants(&fixture, env.strength, &shrunk_run).is_err(),
            "the shrunk script passes its own tier's check:\n{violation}"
        );
    }
    assert_eq!(
        regular, 5,
        "the pinned campaign's regular-register witnesses"
    );
    // Non-vacuity: some witness read stale values, so a replay on
    // atomic registers would not reproduce its run.
    assert!(stale > 0, "no witness read a stale value");
}

mod soak_mutants {
    //! The soak tier's half of mutation testing: the sliding-window
    //! checker must flag an injected mutant within a bounded number of
    //! windows *of live mixed traffic* (service + sifting + fuzz
    //! lanes), and every replayable witness must still reproduce under
    //! a from-seed rebuild of the mutant — the claims in E26.

    use super::{biased_coin, stuck_read};
    use sift_bench::runner::sifter;
    use sift_bench::soak::{replay_violation_with, run_soak_with, SoakConfig};

    /// The soak must flag a mutant no later than this window (both
    /// mutants empirically flag in window 0; 2 leaves slack for claim
    /// retuning without letting detection degrade silently).
    const DETECTION_WINDOW_BOUND: u64 = 2;

    fn config(windows: usize) -> SoakConfig {
        SoakConfig {
            windows,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn soak_flags_the_biased_coin_mutant_within_bounded_windows() {
        let report = run_soak_with(&config(4), biased_coin);
        // The statistical mutant: single runs look fine, but the
        // window LCB of the disagreement rate must clear ε = 1/2.
        let first_flag = report
            .rows
            .iter()
            .filter(|row| !row.pass && row.claim == "sift.disagreement")
            .map(|row| row.window)
            .min()
            .expect("the biased coin must flag the disagreement claim");
        assert!(
            first_flag <= DETECTION_WINDOW_BOUND,
            "detection took until window {first_flag}"
        );
        // Unanimous per-window disagreement leaves a shrunk witness
        // script, and the script still witnesses under a from-seed
        // rebuild of the mutant.
        let witness = report
            .violations
            .iter()
            .find(|v| v.claim == "sift.disagreement" && v.script.is_some())
            .expect("unanimous disagreement must leave a shrunk witness");
        assert!(
            witness.script.as_ref().unwrap().len() <= witness.shrunk_from,
            "shrinking must not grow the script"
        );
        let reproduced = replay_violation_with(witness, &biased_coin)
            .expect("the shrunk script must reproduce the disagreement");
        assert!(reproduced.contains("disagree"), "got: {reproduced}");
    }

    #[test]
    fn soak_flags_and_shrinks_the_stuck_read_mutant() {
        let report = run_soak_with(&config(2), stuck_read);
        // The schedule-dependent mutant: the fuzz lane's step-bound
        // invariant and the sifting lane's step/liveness claims all
        // see it.
        for claim in ["fuzz.invariants", "sift.steps", "sift.liveness"] {
            let first_flag = report
                .rows
                .iter()
                .filter(|row| !row.pass && row.claim == claim)
                .map(|row| row.window)
                .min()
                .unwrap_or_else(|| panic!("{claim} must flag under StuckRead"));
            assert!(
                first_flag <= DETECTION_WINDOW_BOUND,
                "{claim} detection took until window {first_flag}"
            );
        }
        // At least one violation carries a shrunk FixedSchedule script
        // that replays against the mutant.
        let (witness, script) = report
            .violations
            .iter()
            .filter_map(|v| v.script.as_ref().map(|s| (v, s)))
            .min_by_key(|(_, s)| s.len())
            .expect("a step-bound violation must shrink to a replayable script");
        assert!(!script.is_empty() && script.len() <= witness.shrunk_from);
        let reproduced = replay_violation_with(witness, &stuck_read)
            .expect("the shrunk script must reproduce under the mutant");
        assert!(
            reproduced.contains("step bound"),
            "expected a step-bound reproduction, got: {reproduced}"
        );
        // Polarity: the same script must NOT witness on the intact
        // protocol — the bug is the mutation's, not the schedule's.
        assert_eq!(
            replay_violation_with(witness, &sifter),
            None,
            "the witness script must be clean on the unmodified protocol"
        );
    }

    #[test]
    fn every_shrunk_soak_witness_replays_under_its_seed() {
        let report = run_soak_with(&config(2), stuck_read);
        let witnesses: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.script.is_some())
            .collect();
        assert!(
            witnesses.iter().any(|v| v.claim == "fuzz.invariants"),
            "the fuzz lane must leave a shrunk witness under StuckRead"
        );
        // Each witness names the seed its own trial ran under: no two
        // fuzz candidates of a window share one, and a from-seed
        // rebuild of the mutant fails on the witness's script.
        let mut cases = std::collections::HashSet::new();
        for witness in witnesses {
            if witness.claim == "fuzz.invariants" {
                assert!(
                    cases.insert((witness.window, witness.seed)),
                    "two fuzz witnesses of one window name the same case:\n{witness}"
                );
            }
            assert!(
                replay_violation_with(witness, &stuck_read).is_some(),
                "witness does not reproduce under its own seed:\n{witness}"
            );
        }
    }
}
