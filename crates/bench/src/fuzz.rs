//! Parallel driver for the coverage-guided adversary fuzzer.
//!
//! [`sift_sim::fuzz`] owns proposal, coverage, and the corpus; this
//! module owns what needs a concrete protocol: candidate *evaluation*.
//! Each candidate genome is compiled to an oblivious schedule, run
//! against a fresh instance of the conciliator under test (any
//! round-structured [`Conciliator`]; [`run_fuzz`] picks the unmodified
//! sifter) under a generous slot budget, checked against the protocol's
//! schedule-independent invariants, and — when a violation reproduces
//! under deterministic replay of its charged script — greedily shrunk
//! to a 1-minimal
//! [`FixedSchedule`](sift_sim::schedule::FixedSchedule) script via
//! [`shrink_schedule_with`](sift_sim::mc::shrink_schedule_with).
//!
//! The invariants hold for **every** oblivious schedule, so any failure
//! is a protocol bug (or a deliberately broken conciliator handed to
//! [`run_fuzz_with`] — the mutation tests in `tests/mutants.rs`):
//!
//! 1. *Step bound*: no process performs more than
//!    [`steps_bound`](sift_core::Conciliator::steps_bound) charged ops.
//! 2. *Survivor monotonicity*: the number of distinct personae alive
//!    after round `i+1` never exceeds round `i`'s (the paper's sifting
//!    progress measure only moves down).
//! 3. *Validity*: every decided persona carries some process's input.
//! 4. *Liveness under the slot budget*: exhausting
//!    `prefix + 4·n·(R+2)` scheduled slots means a livelock — a
//!    correct sifter finishes each process in exactly `R` charged ops.
//!    Such hangs depend on the schedule's infinite tail and are
//!    reported unshrunk (`shrunk: None`).
//!
//! Evaluation is a pure function of `(genome, case seed)`, so a
//! generation fans out over [`map_reduce`] and folds back in proposal
//! order — the whole run, including the corpus [`digest`](
//! FuzzReport::digest), is byte-identical for any `SIFT_THREADS`.

use std::path::Path;
use std::process::ExitCode;

use sift_core::{distinct_per_round, Conciliator, Persona, Recorder, RoundHistory, RoundState};
use sift_sim::fuzz::{
    interleaving_signature, Evaluation, FingerprintHasher, FuzzFailure, FuzzViolation, Fuzzer,
    ScheduleGenome,
};
use sift_sim::rng::SeedSplitter;
use sift_sim::{Engine, LayoutBuilder, Process, RunReport, StopReason};

use crate::exec::map_reduce;
use crate::runner::{run_in, sifter, TrialFixture};

/// Parameters of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of processes in each candidate schedule.
    pub n: usize,
    /// Propose/evaluate/absorb cycles.
    pub generations: usize,
    /// Candidates per generation.
    pub population: usize,
    /// Master seed of the campaign (drives both genome proposal and
    /// every per-candidate protocol randomness).
    pub seed: u64,
    /// Propose from the extended gene pool: environment genes choosing
    /// the adversary-lattice point and the register semantics each
    /// candidate runs under. Off by default — the base pool's proposal
    /// stream is pinned by the seed-stability goldens.
    pub extended: bool,
}

impl Default for FuzzConfig {
    /// The CI smoke budget: 12 generations of 16 candidates at `n = 8`.
    fn default() -> Self {
        Self {
            n: 8,
            generations: 12,
            population: 16,
            seed: 0xF0_22,
            extended: false,
        }
    }
}

/// Outcome of a fuzzing campaign.
#[derive(Debug)]
pub struct FuzzReport {
    /// Distinct coverage fingerprints observed.
    pub coverage: usize,
    /// Coverage-novel schedules kept (≤ `coverage`).
    pub corpus_len: usize,
    /// Total candidates evaluated.
    pub evaluated: usize,
    /// Every invariant violation found, in evaluation order.
    pub violations: Vec<FuzzViolation>,
    /// Corpus fingerprints in insertion order (the deterministic part
    /// of the corpus — [`CoverageMap`](sift_sim::fuzz::CoverageMap)
    /// itself is a hash set with no stable iteration order).
    pub corpus_fingerprints: Vec<u64>,
    /// Corpus scripts in insertion order, for downstream replay (the
    /// differential substrate harness feeds on these).
    pub corpus_scripts: Vec<Vec<usize>>,
}

impl FuzzReport {
    /// FNV digest of the campaign: corpus fingerprints in insertion
    /// order plus the violation count. The seed-stability regression
    /// hook — byte-identical across `SIFT_THREADS` for a fixed config.
    pub fn digest(&self) -> u64 {
        let mut h = FingerprintHasher::new();
        h.write_usize(self.evaluated);
        for &fp in &self.corpus_fingerprints {
            h.write_u64(fp);
        }
        h.write_usize(self.violations.len());
        h.finish()
    }
}

/// Runs a fuzzing campaign against the unmodified
/// [`SiftingConciliator`](sift_core::SiftingConciliator). On correct
/// code this finds schedules, not bugs: expect `violations` to be empty
/// and the corpus to grow.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    run_fuzz_with(config, &sifter)
}

/// `exp fuzz`: one campaign and its coverage report. Every violation
/// prints with its shrunk `FixedSchedule` replay script when one
/// exists; `out` (`SIFT_FUZZ_OUT`) receives the same text — what the
/// nightly CI job uploads as an artifact.
///
/// Exit code 1 if any violation was found or `out` could not be written.
pub(crate) fn main(config: &FuzzConfig, out: Option<&Path>) -> ExitCode {
    let start = std::time::Instant::now();
    let report = run_fuzz(config);

    let mut summary = String::new();
    summary.push_str(&format!(
        "fuzz campaign: n={} generations={} population={} seed={:#x} extended={}\n",
        config.n, config.generations, config.population, config.seed, config.extended
    ));
    summary.push_str(&format!(
        "evaluated {} candidates; {} distinct fingerprints; corpus {}; {} violations\n",
        report.evaluated,
        report.coverage,
        report.corpus_len,
        report.violations.len()
    ));
    summary.push_str(&format!("campaign digest: {:#018x}\n", report.digest()));
    for violation in &report.violations {
        summary.push_str(&format!("\n{violation}\n"));
    }
    print!("{summary}");

    if let Some(path) = out {
        match std::fs::write(path, &summary) {
            Ok(()) => eprintln!("wrote campaign report to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write campaign report to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!("total time: {:.1?}", start.elapsed());
    if !report.violations.is_empty() {
        eprintln!(
            "fuzz: {} invariant violation(s) found",
            report.violations.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// [`run_fuzz`] against any round-structured conciliator `build`
/// allocates for the campaign's `n` — how the mutation tests hand the
/// fuzzer a deliberately broken sifter.
pub fn run_fuzz_with<C>(
    config: &FuzzConfig,
    build: &(impl Fn(&mut LayoutBuilder, usize) -> C + Sync),
) -> FuzzReport
where
    C: Conciliator,
    C::Participant: RoundState,
{
    assert!(config.n > 0, "need at least one process");
    assert!(config.population > 0, "need a nonempty generation");
    let split = SeedSplitter::new(config.seed);
    let mut fuzzer =
        Fuzzer::new(config.n, split.seed("proposals", 0)).with_extended_genes(config.extended);
    for generation in 0..config.generations {
        let first_case = (generation * config.population) as u64;
        run_generation(
            &mut fuzzer,
            config.n,
            config.population,
            &split,
            first_case,
            build,
        );
    }

    FuzzReport {
        coverage: fuzzer.coverage(),
        corpus_len: fuzzer.corpus().len(),
        evaluated: fuzzer.evaluated(),
        corpus_fingerprints: fuzzer
            .corpus()
            .entries()
            .iter()
            .map(|e| e.fingerprint)
            .collect(),
        corpus_scripts: fuzzer
            .corpus()
            .entries()
            .iter()
            .map(|e| e.script.clone())
            .collect(),
        violations: fuzzer.violations().to_vec(),
    }
}

/// One generation of `fuzzer`: propose `population` candidates,
/// evaluate candidate `i` under case seed `split.seed("case",
/// first_case + i)`, and absorb the evaluations in proposal order.
/// Evaluations are pure, so they fan out over [`map_reduce`] (Vec's
/// Merge concatenates chunk results in chunk order). Returns the
/// generation's violations, each with the case seed it ran under.
pub(crate) fn run_generation<C>(
    fuzzer: &mut Fuzzer,
    n: usize,
    population: usize,
    split: &SeedSplitter,
    first_case: u64,
    build: &(impl Fn(&mut LayoutBuilder, usize) -> C + Sync),
) -> Vec<(u64, FuzzViolation)>
where
    C: Conciliator,
    C::Participant: RoundState,
{
    let candidates = fuzzer.propose(population);
    let evals: Vec<(u64, Evaluation)> = map_reduce(
        population,
        |index| {
            let seed = split.seed("case", first_case + index);
            (seed, evaluate(n, seed, &candidates[index as usize], build))
        },
        Vec::new,
        |acc, eval| acc.push(eval),
    );
    let mut found = Vec::new();
    for (genome, (seed, eval)) in candidates.into_iter().zip(evals) {
        let failed = eval.failure.is_some();
        fuzzer.absorb(genome, eval);
        if failed {
            let violation = fuzzer
                .violations()
                .last()
                .expect("absorb records a failure");
            found.push((seed, violation.clone()));
        }
    }
    found
}

/// Evaluates one candidate genome: run in the genome's environment,
/// fingerprint, invariant check, replay pre-check, shrink.
fn evaluate<C>(
    n: usize,
    case_seed: u64,
    genome: &ScheduleGenome,
    build: &impl Fn(&mut LayoutBuilder, usize) -> C,
) -> Evaluation
where
    C: Conciliator,
    C::Participant: RoundState,
{
    let fixture = TrialFixture::new(n, |b| build(b, n));
    let case = SeedSplitter::new(case_seed);
    let env = genome.environment();
    let schedule = genome.compile(n);
    // The livelock budget starts counting past the compiled prefix.
    let budget = schedule.prefix_len() as u64 + fixture.slot_budget();
    let mut engine = Engine::new(fixture.layout(), fixture.recorded(&case));
    engine.enable_trace();
    engine.limit_slots(budget);
    // Stronger lattice points replace the compiled schedule with the
    // k-stale sifting breaker: the earliest-round reader goes first, so
    // first-round reads land before the writes they should have seen.
    let report = run_in(engine, env, schedule);

    let trace = report.trace.as_ref().expect("trace recording was enabled");
    let script: Vec<usize> = trace.events().iter().map(|e| e.pid.index()).collect();
    let survivors = distinct_per_round(report.processes.iter().map(|p| p.history()));
    let mut h = FingerprintHasher::new();
    h.write_u64(interleaving_signature(trace));
    for &s in &survivors {
        h.write_usize(s);
    }
    for &k in &report.metrics.ops_by_kind {
        h.write_u64(k);
    }
    let fingerprint = h.finish();

    let oblivious = env.strength.is_oblivious();
    let check = |r: &RunReport<Recorder<C::Participant>>| check_invariants(&fixture, oblivious, r);
    let failure = check(&report).err().map(|message| {
        let (shrunk, message) = match fixture.shrink(&case, script.clone(), check) {
            Some((shrunk, message)) => (Some(shrunk), message),
            None => (None, message),
        };
        FuzzFailure { message, shrunk }
    });

    Evaluation {
        fingerprint,
        script,
        failure,
    }
}

/// The schedule-independent invariants of the sifting conciliator.
///
/// Survivor monotonicity and validity hold for every environment the
/// extended genome can ask for. The step-bound and livelock invariants
/// are *oblivious-tier* claims (the paper states its complexity bounds
/// against the oblivious adversary only), so runs driven by a
/// stronger-than-oblivious chooser skip them.
pub(crate) fn check_invariants<C, P>(
    fixture: &TrialFixture<C>,
    oblivious: bool,
    report: &RunReport<P>,
) -> Result<(), String>
where
    C: Conciliator,
    P: Process<Output = Persona> + RoundHistory,
{
    if oblivious {
        fixture.check_steps(report)?;
    }
    let survivors = distinct_per_round(report.processes.iter().map(|p| p.history()));
    if let Some(w) = survivors.windows(2).find(|w| w[1] > w[0]) {
        return Err(format!(
            "survivor monotonicity violated: {} distinct personae after a round \
             that started with {}",
            w[1], w[0]
        ));
    }
    fixture.check_validity(report)?;
    if oblivious && report.stop_reason == StopReason::SlotLimit {
        return Err(format!(
            "slot budget exhausted after {} charged ops + {} skipped slots — livelock",
            report.metrics.total_ops, report.metrics.skipped_slots
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuzzConfig {
        FuzzConfig {
            n: 4,
            generations: 3,
            population: 6,
            seed: 11,
            extended: false,
        }
    }

    #[test]
    fn clean_campaign_finds_coverage_and_no_violations() {
        let _guard = crate::exec::override_lock();
        let report = run_fuzz(&tiny());
        assert_eq!(report.evaluated, 18);
        assert!(report.coverage >= 2, "schedule diversity should show up");
        assert_eq!(report.corpus_len, report.corpus_fingerprints.len());
        assert_eq!(report.corpus_len, report.corpus_scripts.len());
        assert!(
            report.violations.is_empty(),
            "unexpected violations: {}",
            report.violations[0]
        );
    }

    #[test]
    fn campaign_digest_is_reproducible_and_seed_sensitive() {
        let _guard = crate::exec::override_lock();
        let a = run_fuzz(&tiny());
        let b = run_fuzz(&tiny());
        assert_eq!(a.digest(), b.digest());
        let mut other = tiny();
        other.seed = 12;
        assert_ne!(a.digest(), run_fuzz(&other).digest());
    }

    #[test]
    fn campaign_digest_is_thread_count_invariant() {
        let _guard = crate::exec::override_lock();
        let digests: Vec<u64> = [1usize, 4, 8]
            .into_iter()
            .map(|t| {
                crate::exec::set_threads(t);
                run_fuzz(&tiny()).digest()
            })
            .collect();
        crate::exec::set_threads(0);
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn invariant_checker_accepts_a_clean_run() {
        let fixture = TrialFixture::new(4, |b| sifter(b, 4));
        let procs = fixture.recorded(&SeedSplitter::new(5));
        let report =
            Engine::new(fixture.layout(), procs).run(sift_sim::schedule::RoundRobin::new(4));
        assert_eq!(report.stop_reason, StopReason::AllDone);
        check_invariants(&fixture, true, &report).unwrap();
    }

    /// The extended pool drives candidates through every environment —
    /// delayed/adaptive choosers, regular register semantics — and the
    /// tier-tagged invariants must stay clean on correct code.
    #[test]
    fn extended_campaign_is_clean_and_reproducible() {
        let _guard = crate::exec::override_lock();
        let config = FuzzConfig {
            extended: true,
            generations: 4,
            ..tiny()
        };
        let a = run_fuzz(&config);
        assert!(
            a.violations.is_empty(),
            "unexpected violations: {}",
            a.violations[0]
        );
        assert!(a.coverage >= 2);
        assert_eq!(a.digest(), run_fuzz(&config).digest());
        // The extended pool draws a different proposal stream, so the
        // campaign must diverge from the base pool's.
        let base = FuzzConfig {
            extended: false,
            generations: 4,
            ..tiny()
        };
        assert_ne!(a.digest(), run_fuzz(&base).digest());
    }
}
