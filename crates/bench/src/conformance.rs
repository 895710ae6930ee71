//! Statistical conformance suite for the paper's probability bounds.
//!
//! Every quantitative claim of the paper — Lemmas 1–4, Theorems 1–3,
//! Corollaries 1–3 — is phrased as a one-sided hypothesis test: run `N`
//! seeded trials, count the trials violating the claimed event (or
//! exceeding a Markov threshold derived from a claimed expectation), and
//! compute the Clopper–Pearson **lower** confidence bound on the true
//! violation rate at 99% confidence (`cp_lower`). The claim *fails*
//! only when the data excludes the paper's bound at that confidence —
//! so a passing verdict is robust to sampling noise at smoke trial
//! counts, while a genuinely broken protocol (the biased-coin sifter
//! `tests/mutants.rs` hands to [`sifting_claims`]) is refuted
//! decisively.
//!
//! Two claim shapes:
//!
//! * **Event claims** (`disagreement ≤ ε`, `steps = bound exactly`,
//!   `phase exhaustion ≤ (1-δ)^max`): count violating trials directly;
//!   fail iff `cp_lower(x, N, 1%) > bound`. Deterministic claims are
//!   the `bound = 0` special case — a single violation refutes them.
//! * **Mean claims** (`E[excess after round i] ≤ x_i`,
//!   `E[total steps] ≤ 21n`, `E[phases] ≤ 1/δ`): Markov's inequality
//!   turns the expectation bound into the event
//!   `P(X ≥ 4·bound) ≤ 1/4`, which gets the same CP treatment, plus a
//!   one-sided 99% normal-approximation check that the sample mean's
//!   *lower* confidence bound does not exceed the paper's bound (only
//!   then does the data exclude the claimed expectation).
//!
//! Trials fan out over [`map_reduce`] with
//! per-claim fixed master seeds, so the whole suite — including the
//! [`digest`] of its rendered verdicts — is byte-identical for any
//! `SIFT_THREADS`. `scale` multiplies every trial count: 1 is the CI
//! smoke tier, larger values are the nightly/heavy tier.

use std::process::ExitCode;

use sift_consensus::{
    linear_work_consensus, max_register_consensus, sifting_consensus, ConsensusOutcome,
};
use sift_core::analysis::{
    expected_consensus_phases, lemma1_expected_excess, sifting_expected_excess,
    theorem3_expected_total_steps, theorem3_individual_steps,
};
use sift_core::math::ceil_log_log;
use sift_core::{
    distinct_per_round, Conciliator, EmbeddedConciliator, Epsilon, RoundHistory, RoundState,
    SnapshotConciliator,
};
use sift_sim::adversary::AdversaryStrength;
use sift_sim::fuzz::{Environment, FingerprintHasher};
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::RandomInterleave;
use sift_sim::{Engine, LayoutBuilder, RegisterSemantics, Resolution, StopReason};

use crate::exec::{map_reduce, Merge};
use crate::runner::{sifter, TrialFixture};
use crate::stats::{cp_lower, Welford, Z_99};
use crate::table::{fmt_f64, Table};

/// Confidence level of every test: claims fail only when excluded at
/// `1 - ALPHA` confidence.
pub(crate) const ALPHA: f64 = 0.01;

/// Markov's inequality at threshold `4·bound` caps the event
/// probability at 1/4.
const MARKOV_CAP: f64 = 0.25;

/// Numeric slack for comparisons against exact bounds.
pub(crate) const SLACK: f64 = 1e-9;

/// The verdict on one claim of the paper.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Short identifier, e.g. `"T2.disagreement"`.
    pub id: String,
    /// The bound being tested, in words.
    pub statement: String,
    /// Number of trials behind the verdict.
    pub trials: u64,
    /// What was measured (violation count / worst mean).
    pub observed: String,
    /// The paper's bound, rendered.
    pub bound: String,
    /// The confidence computation backing the verdict.
    pub cp: String,
    /// `true` iff the data does not exclude the bound at 99% confidence.
    pub pass: bool,
}

/// Runs the full conformance suite. `scale` multiplies every per-claim
/// trial count (1 = smoke tier).
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn run(scale: usize) -> Vec<ClaimResult> {
    assert!(scale > 0, "scale must be positive");
    let mut results = Vec::new();
    results.extend(algorithm1_claims(scale));
    results.extend(sifting_claims(scale, "", &sifter));
    results.extend(theorem3_claims(scale));
    results.extend(consensus_claims(scale));
    results
}

/// `exp conformance`: the suite at scale `SIFT_TRIALS` (default 1 =
/// the CI smoke tier; the nightly tier runs a larger scale), its table
/// — the one `EXPERIMENTS.md` records — and its digest.
///
/// Exit code 1 if any claim is refuted.
pub(crate) fn main() -> ExitCode {
    let scale = crate::runner::default_trials(1);
    let start = std::time::Instant::now();
    let results = run(scale);
    render(&results).print();
    println!(
        "conformance digest: {:#018x} (scale {scale})",
        digest(&results)
    );
    eprintln!("total time: {:.1?}", start.elapsed());
    if !all_pass(&results) {
        eprintln!("conformance: at least one claim refuted at 99% confidence");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `true` iff every claim passed.
pub fn all_pass(results: &[ClaimResult]) -> bool {
    results.iter().all(|r| r.pass)
}

/// Renders the suite as one table (the layout recorded in
/// `EXPERIMENTS.md`).
pub(crate) fn render(results: &[ClaimResult]) -> Table {
    let mut table = claims_table(
        "E22 — conformance: the paper's bounds as 99% hypothesis tests",
        results,
    );
    table.note(format!(
        "A claim fails only when the observed rate excludes the paper's bound at {:.0}% \
         confidence (one-sided Clopper–Pearson); mean claims additionally check the \
         z={Z_99} lower confidence bound of the sample mean against the paper's bound.",
        (1.0 - ALPHA) * 100.0
    ));
    table
}

/// Renders the negative tier (see [`run_negative`]) as its own table.
pub(crate) fn render_negative(results: &[ClaimResult]) -> Table {
    let mut table = claims_table(
        "E25 — negative conformance: the obliviousness boundary as expected-failure tests",
        results,
    );
    table.note(
        "NEG.*.decay cases pass when the decay bound is decisively refuted (the adaptive \
         breaker and the always-old regular substrate defeat sifting); the control rows \
         pass when the bound still holds. Both polarities run under fixed per-claim seeds.",
    );
    table
}

fn claims_table(title: &str, results: &[ClaimResult]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "claim",
            "statement",
            "N",
            "observed",
            "bound",
            "CP check",
            "verdict",
        ],
    );
    for r in results {
        table.row(vec![
            r.id.clone(),
            r.statement.clone(),
            r.trials.to_string(),
            r.observed.clone(),
            r.bound.clone(),
            r.cp.clone(),
            if r.pass { "pass" } else { "FAIL" }.to_string(),
        ]);
    }
    table
}

/// FNV digest of the rendered verdicts — the seed-stability regression
/// hook. Byte-identical across `SIFT_THREADS` for a fixed `scale`.
pub fn digest(results: &[ClaimResult]) -> u64 {
    let mut h = FingerprintHasher::new();
    for r in results {
        h.write_bytes(r.id.as_bytes());
        h.write_u64(r.trials);
        h.write_bytes(r.observed.as_bytes());
        h.write_bytes(r.bound.as_bytes());
        h.write_bytes(r.cp.as_bytes());
        h.write_u64(r.pass as u64);
    }
    h.finish()
}

/// Fixed master seed of claim group `idx` — conformance results must
/// not depend on `SIFT_SEED`, or golden digests would be meaningless.
pub(crate) fn claim_seed(idx: u64) -> u64 {
    SeedSplitter::new(0x5EED_C0F0).seed("claim", idx)
}

pub(crate) fn event_claim(
    id: &str,
    statement: &str,
    bound: f64,
    trials: u64,
    violations: u64,
) -> ClaimResult {
    let lo = cp_lower(violations, trials, ALPHA);
    ClaimResult {
        id: id.into(),
        statement: statement.into(),
        trials,
        observed: format!("{violations} violating"),
        bound: format!("≤ {}", fmt_f64(bound)),
        cp: format!("CP99 lower {}", fmt_f64(lo)),
        pass: lo <= bound + SLACK,
    }
}

pub(crate) fn mean_claim(
    id: &str,
    statement: &str,
    bound: f64,
    wf: &Welford,
    markov: u64,
) -> ClaimResult {
    let trials = wf.count() as u64;
    let lo = cp_lower(markov, trials, ALPHA);
    let lcb = wf.mean_lcb(Z_99);
    ClaimResult {
        id: id.into(),
        statement: statement.into(),
        trials,
        observed: format!("mean {}, {markov} ≥ 4·bound", fmt_f64(wf.mean())),
        bound: format!("E ≤ {}", fmt_f64(bound)),
        cp: format!("mean LCB {}, CP99 lower {}", fmt_f64(lcb), fmt_f64(lo)),
        pass: lo <= MARKOV_CAP + SLACK && lcb <= bound + SLACK,
    }
}

/// Per-round decay accumulator: a [`Welford`] of the excess plus a
/// Markov-event counter per round.
#[derive(Debug, Clone, Default)]
struct PerRound {
    wf: Vec<Welford>,
    markov: Vec<u64>,
}

impl PerRound {
    fn record(&mut self, survivors: &[usize], bounds: &[f64]) {
        if self.wf.len() < survivors.len() {
            self.wf.resize_with(survivors.len(), Welford::new);
            self.markov.resize(survivors.len(), 0);
        }
        for (i, &s) in survivors.iter().enumerate() {
            let excess = s.saturating_sub(1) as f64;
            self.wf[i].push(excess);
            // Markov threshold 4·bound; any positive threshold is valid.
            if excess >= 4.0 * bounds[i] {
                self.markov[i] += 1;
            }
        }
    }
}

impl Merge for PerRound {
    fn merge(&mut self, other: Self) {
        if self.wf.len() < other.wf.len() {
            self.wf.resize_with(other.wf.len(), Welford::new);
            self.markov.resize(other.markov.len(), 0);
        }
        for (a, b) in self.wf.iter_mut().zip(other.wf) {
            a.merge(b);
        }
        for (a, b) in self.markov.iter_mut().zip(other.markov) {
            *a += b;
        }
    }
}

/// Collapses a round range of a [`PerRound`] into one claim: every
/// round must pass its own mean + Markov test; the reported figures are
/// the worst round's (largest mean-to-bound ratio).
fn decay_claim(
    id: &str,
    statement: &str,
    per_round: &PerRound,
    bounds: &[f64],
    rounds: std::ops::Range<usize>,
) -> ClaimResult {
    let mut pass = true;
    let mut worst: Option<(usize, f64)> = None;
    for i in rounds {
        if i >= per_round.wf.len() {
            break;
        }
        let wf = &per_round.wf[i];
        let trials = wf.count() as u64;
        let lo = cp_lower(per_round.markov[i], trials, ALPHA);
        let lcb = wf.mean_lcb(Z_99);
        if lo > MARKOV_CAP + SLACK || lcb > bounds[i] + SLACK {
            pass = false;
        }
        let ratio = if bounds[i] > 0.0 {
            wf.mean() / bounds[i]
        } else {
            f64::INFINITY
        };
        if worst.is_none_or(|(_, w)| ratio > w) {
            worst = Some((i, ratio));
        }
    }
    let (round, _) = worst.expect("decay claim needs at least one round");
    let wf = &per_round.wf[round];
    ClaimResult {
        id: id.into(),
        statement: statement.into(),
        trials: wf.count() as u64,
        observed: format!(
            "worst round {}: mean {}, {} ≥ 4·bound",
            round + 1,
            fmt_f64(wf.mean()),
            per_round.markov[round]
        ),
        bound: format!("E ≤ {}", fmt_f64(bounds[round])),
        cp: format!(
            "mean LCB {}, CP99 lower {}",
            fmt_f64(wf.mean_lcb(Z_99)),
            fmt_f64(cp_lower(per_round.markov[round], wf.count() as u64, ALPHA))
        ),
        pass,
    }
}

// ---------------------------------------------------------------------
// Claim group A: Algorithm 1 (Lemma 1, Theorem 1).
// ---------------------------------------------------------------------

const ALG1_N: usize = 128;
const ALG1_TRIALS: usize = 60;

fn algorithm1_claims(scale: usize) -> Vec<ClaimResult> {
    let n = ALG1_N;
    let eps = Epsilon::HALF;
    let trials = ALG1_TRIALS * scale;
    let master = claim_seed(1);

    let mut b = LayoutBuilder::new();
    let probe = SnapshotConciliator::allocate(&mut b, n, eps);
    let steps_bound = probe.steps_bound().expect("Algorithm 1 is bounded");
    let rounds = (steps_bound / 2) as usize;
    let bounds: Vec<f64> = (1..=rounds)
        .map(|i| lemma1_expected_excess(n as u64, i as u32))
        .collect();

    let (per_round, step_violations, disagreements) = map_reduce(
        trials,
        |index| {
            let seed = crate::exec::trial_seed(master, index);
            conciliator_trial(n, seed, Environment::default(), |b| {
                SnapshotConciliator::allocate(b, n, eps)
            })
        },
        || (PerRound::default(), 0u64, 0u64),
        |(per_round, steps, disagree), t| {
            per_round.record(&t.survivors, &bounds);
            *steps += u64::from(t.ops.iter().any(|&o| o != steps_bound));
            *disagree += u64::from(!t.agreed);
        },
    );

    vec![
        decay_claim(
            "L1.decay",
            &format!("Alg 1 mean excess after round i ≤ f^(i)(n-1), n={n}"),
            &per_round,
            &bounds,
            0..rounds,
        ),
        event_claim(
            "T1.steps",
            &format!("Alg 1 takes exactly 2R = {steps_bound} ops per process"),
            0.0,
            trials as u64,
            step_violations,
        ),
        event_claim(
            "T1.disagreement",
            &format!("Alg 1 disagreement ≤ ε = {eps}, n={n}"),
            eps.get(),
            trials as u64,
            disagreements,
        ),
    ]
}

// ---------------------------------------------------------------------
// Claim group B: Algorithm 2 (Lemmas 2–4, Theorem 2). Shared with the
// mutation tests, so trials are slot-limited (a broken sifter may
// livelock where the correct one terminates).
// ---------------------------------------------------------------------

const SIFTING_N: usize = 128;
const SIFTING_TRIALS: usize = 60;

/// The Algorithm 2 claims (Lemmas 2–4, Theorem 2), ids prefixed with
/// `prefix`, against the sifter `build` allocates for the suite's `n`.
/// [`run`] passes the unmodified protocol; the mutation tests pass a
/// biased-coin sifter, whose disagreement and decay claims must fail
/// at smoke trial counts. A conciliator that can livelock under an
/// infinite schedule is truncated by the slot budget and fails the
/// step claim.
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn sifting_claims<C>(
    scale: usize,
    prefix: &str,
    build: &(impl Fn(&mut LayoutBuilder, usize) -> C + Sync),
) -> Vec<ClaimResult>
where
    C: Conciliator,
    C::Participant: RoundState,
{
    assert!(scale > 0, "scale must be positive");
    let n = SIFTING_N;
    let trials = SIFTING_TRIALS * scale;
    let master = claim_seed(2);

    // Theorem 2: one charged op per round, so the step bound is R.
    let steps_bound = TrialFixture::new(n, |b| build(b, n)).steps_bound();
    let rounds = steps_bound as usize;
    let aggressive = ceil_log_log(n as u64) as usize;
    let bounds: Vec<f64> = (1..=rounds)
        .map(|i| sifting_expected_excess(n as u64, i as u32))
        .collect();

    let (per_round, step_violations, disagreements) = map_reduce(
        trials,
        |index| {
            let seed = crate::exec::trial_seed(master, index);
            conciliator_trial(n, seed, Environment::default(), |b| build(b, n))
        },
        || (PerRound::default(), 0u64, 0u64),
        |(per_round, steps, disagree), t| {
            per_round.record(&t.survivors, &bounds);
            // Truncated runs (possible only for livelocking mutants
            // under the generous slot limit) count as violating both
            // the step and the agreement claims.
            let truncated = t.stop_reason != StopReason::AllDone;
            *steps += u64::from(truncated || t.ops.iter().any(|&o| o != steps_bound));
            *disagree += u64::from(!t.agreed);
        },
    );

    let eps = Epsilon::HALF;
    vec![
        decay_claim(
            &format!("{prefix}L2-3.decay"),
            &format!("Alg 2 mean excess in rounds 1..⌈loglog n⌉ ≤ x_i, n={n}"),
            &per_round,
            &bounds,
            0..aggressive.min(rounds),
        ),
        decay_claim(
            &format!("{prefix}L4.tail"),
            "Alg 2 tail excess decays as 8·(3/4)^j past the switch",
            &per_round,
            &bounds,
            aggressive.min(rounds)..rounds,
        ),
        event_claim(
            &format!("{prefix}T2.steps"),
            &format!("Alg 2 takes exactly R = {steps_bound} ops per process"),
            0.0,
            trials as u64,
            step_violations,
        ),
        event_claim(
            &format!("{prefix}T2.disagreement"),
            &format!("Alg 2 disagreement ≤ ε = {eps}, n={n}"),
            eps.get(),
            trials as u64,
            disagreements,
        ),
    ]
}

/// A slot-limited conciliator trial in an environment (see
/// [`TrialFixture::run`]) whose oblivious tier runs the
/// [`RandomInterleave`] schedule, with round history.
struct ConciliatorTrial {
    agreed: bool,
    ops: Vec<u64>,
    survivors: Vec<usize>,
    stop_reason: StopReason,
}

fn conciliator_trial<C>(
    n: usize,
    seed: u64,
    env: Environment,
    build: impl Fn(&mut LayoutBuilder) -> C,
) -> ConciliatorTrial
where
    C: Conciliator,
    C::Participant: RoundState,
{
    let fixture = TrialFixture::new(n, build);
    let split = SeedSplitter::new(seed);
    let schedule = RandomInterleave::new(n, split.schedule_seed());
    // A livelocking mutant must terminate the trial instead of hanging
    // the suite.
    let report = fixture.run(&split, env, schedule, Some(0));
    let survivors = distinct_per_round(report.processes.iter().map(|p| p.history()));
    let agreed = report.all_decided() && report.outputs_agree();
    ConciliatorTrial {
        agreed,
        ops: report.metrics.per_process_ops.clone(),
        survivors,
        stop_reason: report.stop_reason,
    }
}

// ---------------------------------------------------------------------
// Negative tier: the obliviousness boundary as expected-failure tests.
// ---------------------------------------------------------------------

/// Runs the negative conformance tier: the sifting decay claim (Lemmas
/// 2–3) re-tested *outside* the model it is proved in. Each case pins
/// an environment — an adversary-lattice point × a register substrate —
/// and an expected polarity: under the oblivious adversary on atomic
/// (or always-new regular, which is observationally atomic) registers
/// the bound must hold, while the adaptive sifting breaker and the
/// always-old regular substrate must *refute* it at 99% confidence
/// (`cp_lower` excludes the Markov cap, or the sample-mean LCB exceeds
/// the bound). A case passes when the inner verdict matches its
/// expected polarity, so the suite pins the obliviousness boundary from
/// both sides: the paper's model still conforms, and the known breakers
/// are decisively detected rather than silently absorbed.
///
/// Seeds are fixed per case (independent of `SIFT_SEED`), making the
/// verdicts — and [`digest`] over them — golden-stable.
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn run_negative(scale: usize) -> Vec<ClaimResult> {
    assert!(scale > 0, "scale must be positive");
    let cases: [(&str, AdversaryStrength, RegisterSemantics, bool); 4] = [
        (
            "NEG.oblivious.control",
            AdversaryStrength::Oblivious,
            RegisterSemantics::Atomic,
            true,
        ),
        (
            "NEG.alwaysnew.control",
            AdversaryStrength::Oblivious,
            RegisterSemantics::Regular(Resolution::AlwaysNew),
            true,
        ),
        (
            "NEG.adaptive.decay",
            AdversaryStrength::Adaptive,
            RegisterSemantics::Atomic,
            false,
        ),
        (
            "NEG.regular.decay",
            AdversaryStrength::Oblivious,
            RegisterSemantics::Regular(Resolution::AlwaysOld),
            false,
        ),
    ];
    cases
        .into_iter()
        .enumerate()
        .map(|(idx, (id, strength, semantics, expect_hold))| {
            let env = Environment {
                strength,
                semantics,
            };
            negative_decay_case(scale, 10 + idx as u64, id, env, expect_hold)
        })
        .collect()
}

fn substrate_name(semantics: RegisterSemantics) -> &'static str {
    match semantics {
        RegisterSemantics::Atomic => "atomic",
        RegisterSemantics::Regular(Resolution::AlwaysNew) => "regular/new",
        RegisterSemantics::Regular(Resolution::AlwaysOld) => "regular/old",
        RegisterSemantics::Regular(Resolution::Coin(_)) => "regular/coin",
    }
}

fn negative_decay_case(
    scale: usize,
    seed_idx: u64,
    id: &str,
    env: Environment,
    expect_hold: bool,
) -> ClaimResult {
    let n = SIFTING_N;
    let trials = SIFTING_TRIALS * scale;
    let master = claim_seed(seed_idx);

    let rounds = TrialFixture::new(n, |b| sifter(b, n)).steps_bound() as usize;
    let aggressive = ceil_log_log(n as u64) as usize;
    let bounds: Vec<f64> = (1..=rounds)
        .map(|i| sifting_expected_excess(n as u64, i as u32))
        .collect();

    let per_round = map_reduce(
        trials,
        |index| {
            let seed = crate::exec::trial_seed(master, index);
            conciliator_trial(n, seed, env, |b| sifter(b, n)).survivors
        },
        PerRound::default,
        |per_round, survivors| per_round.record(&survivors, &bounds),
    );

    let statement = format!(
        "Alg 2 aggressive decay under the {} adversary on {} registers",
        env.strength.name(),
        substrate_name(env.semantics)
    );
    let inner = decay_claim(
        id,
        &statement,
        &per_round,
        &bounds,
        0..aggressive.min(rounds),
    );
    ClaimResult {
        cp: format!(
            "{}; decay {}, expected to {}",
            inner.cp,
            if inner.pass { "holds" } else { "refuted" },
            if expect_hold { "hold" } else { "be refuted" },
        ),
        pass: inner.pass == expect_hold,
        ..inner
    }
}

// ---------------------------------------------------------------------
// Claim group C: Algorithm 3 (Theorem 3).
// ---------------------------------------------------------------------

const ALG3_N: usize = 64;
const ALG3_TRIALS: usize = 100;

fn theorem3_claims(scale: usize) -> Vec<ClaimResult> {
    let n = ALG3_N;
    let trials = ALG3_TRIALS * scale;
    let master = claim_seed(3);
    let indiv_bound = theorem3_individual_steps(n as u64);
    let total_bound = theorem3_expected_total_steps(n as u64);

    let (total_wf, total_markov, indiv_violations, disagreements) = map_reduce(
        trials,
        |index| {
            let seed = crate::exec::trial_seed(master, index);
            let fixture = TrialFixture::new(n, |b| EmbeddedConciliator::allocate(b, n));
            let split = SeedSplitter::new(seed);
            let report = Engine::new(fixture.layout(), fixture.participants(&split))
                .run(RandomInterleave::new(n, split.schedule_seed()));
            let agreed = report.all_decided() && report.outputs_agree();
            let max_indiv = report.metrics.per_process_ops.iter().copied().max();
            (report.metrics.total_ops, max_indiv.unwrap_or(0), agreed)
        },
        || (Welford::new(), 0u64, 0u64, 0u64),
        |(wf, markov, indiv, disagree), (total, max_indiv, agreed)| {
            wf.push(total as f64);
            *markov += u64::from(total as f64 >= 4.0 * total_bound);
            *indiv += u64::from(max_indiv > indiv_bound);
            *disagree += u64::from(!agreed);
        },
    );

    vec![
        event_claim(
            "T3.individual",
            &format!("Alg 3 individual ops ≤ {indiv_bound} = 2(R'+1)+9, n={n}"),
            0.0,
            trials as u64,
            indiv_violations,
        ),
        event_claim(
            "T3.failure",
            &format!("Alg 3 disagreement ≤ 7/8, n={n}"),
            7.0 / 8.0,
            trials as u64,
            disagreements,
        ),
        mean_claim(
            "T3.total",
            &format!("Alg 3 expected total ops ≤ 21n = {}", total_bound as u64),
            total_bound,
            &total_wf,
            total_markov,
        ),
    ]
}

// ---------------------------------------------------------------------
// Claim groups D–F: the consensus stacks (Corollaries 1–3).
// ---------------------------------------------------------------------

const CONSENSUS_N: usize = 16;
const CONSENSUS_M: u64 = 4;
const CONSENSUS_TRIALS: usize = 60;

struct StackTrial {
    consistent: bool,
    exhausted: bool,
    phases_p0: u64,
}

fn consensus_trial<C, A>(
    layout: sift_sim::Layout,
    protocol: sift_consensus::ConsensusProtocol<C, A>,
    n: usize,
    m: u64,
    seed: u64,
) -> StackTrial
where
    C: Conciliator,
    A: sift_adopt_commit::AdoptCommit<sift_core::Persona>,
{
    let split = SeedSplitter::new(seed);
    let mut input_rng = split.stream("inputs", 0);
    let inputs: Vec<u64> = (0..n).map(|_| input_rng.range_u64(m)).collect();
    let procs = split.processes(n, |pid, rng| {
        protocol.participant(pid, inputs[pid.index()], rng)
    });
    let report = Engine::new(&layout, procs).run(RandomInterleave::new(n, split.schedule_seed()));
    let outcomes = report.unwrap_outputs();
    let exhausted = outcomes
        .iter()
        .any(|o| matches!(o, ConsensusOutcome::Exhausted { .. }));
    let decided: Vec<u64> = outcomes.iter().filter_map(|o| o.value()).collect();
    let consistent =
        decided.windows(2).all(|w| w[0] == w[1]) && decided.iter().all(|v| inputs.contains(v));
    let phases_p0 = match &outcomes[0] {
        ConsensusOutcome::Decided(d) => d.phases as u64,
        ConsensusOutcome::Exhausted { .. } => u64::MAX,
    };
    StackTrial {
        consistent,
        exhausted,
        phases_p0,
    }
}

fn consensus_claims(scale: usize) -> Vec<ClaimResult> {
    let n = CONSENSUS_N;
    let m = CONSENSUS_M;
    let trials = CONSENSUS_TRIALS * scale;
    let mut results = Vec::new();

    for (idx, name, delta) in [(4u64, "Cor1", 0.5), (5, "Cor2", 0.5), (6, "Cor3", 0.125)] {
        let master = claim_seed(idx);
        let phase_bound = expected_consensus_phases(delta);
        let exhaustion_bound = {
            // Probe the stack for its exhaustion probability.
            let mut b = LayoutBuilder::new();
            match name {
                "Cor1" => max_register_consensus(&mut b, n).exhaustion_probability(),
                "Cor2" => sifting_consensus(&mut b, n, m, 2).exhaustion_probability(),
                _ => linear_work_consensus(&mut b, n, m, 2).exhaustion_probability(),
            }
        };

        let (phase_wf, phase_markov, inconsistent, exhausted) = map_reduce(
            trials,
            |index| {
                let seed = crate::exec::trial_seed(master, index);
                let mut b = LayoutBuilder::new();
                match name {
                    "Cor1" => {
                        let p = max_register_consensus(&mut b, n);
                        consensus_trial(b.build(), p, n, m, seed)
                    }
                    "Cor2" => {
                        let p = sifting_consensus(&mut b, n, m, 2);
                        consensus_trial(b.build(), p, n, m, seed)
                    }
                    _ => {
                        let p = linear_work_consensus(&mut b, n, m, 2);
                        consensus_trial(b.build(), p, n, m, seed)
                    }
                }
            },
            || (Welford::new(), 0u64, 0u64, 0u64),
            |(wf, markov, inconsistent, exhausted), t| {
                if t.phases_p0 != u64::MAX {
                    wf.push(t.phases_p0 as f64);
                    *markov += u64::from(t.phases_p0 as f64 >= 4.0 * phase_bound);
                }
                *inconsistent += u64::from(!t.consistent);
                *exhausted += u64::from(t.exhausted);
            },
        );

        results.push(event_claim(
            &format!("{name}.agreement"),
            &format!("{name} stack: agreement + validity absolute, n={n}"),
            0.0,
            trials as u64,
            inconsistent,
        ));
        results.push(event_claim(
            &format!("{name}.exhaustion"),
            &format!("{name} stack: phase exhaustion ≤ (1-δ)^max_phases"),
            exhaustion_bound,
            trials as u64,
            exhausted,
        ));
        results.push(mean_claim(
            &format!("{name}.phases"),
            &format!("{name} stack: E[phases] ≤ 1/δ = {}", fmt_f64(phase_bound)),
            phase_bound,
            &phase_wf,
            phase_markov,
        ));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_claim_passes_within_and_fails_beyond_the_bound() {
        // 5/100 with bound 1/4: CP99 lower on 0.05 is far below 0.25.
        assert!(event_claim("x", "s", 0.25, 100, 5).pass);
        // 60/100 with bound 1/4: excluded decisively.
        assert!(!event_claim("x", "s", 0.25, 100, 60).pass);
        // Deterministic claim: one violation refutes it.
        assert!(event_claim("x", "s", 0.0, 100, 0).pass);
        assert!(!event_claim("x", "s", 0.0, 100, 1).pass);
    }

    #[test]
    fn mean_claim_uses_both_the_markov_and_the_ucb_test() {
        let mut tight = Welford::new();
        for _ in 0..50 {
            tight.push(1.0);
        }
        // Mean 1 with bound 10, no Markov events: passes.
        assert!(mean_claim("x", "s", 10.0, &tight, 0).pass);
        // Same sample with bound 0.5: the mean-LCB test refutes it
        // (a constant sample's LCB is its mean).
        assert!(!mean_claim("x", "s", 0.5, &tight, 0).pass);
        // Markov events on most trials: the CP test refutes it.
        assert!(!mean_claim("x", "s", 10.0, &tight, 40).pass);
    }

    #[test]
    fn per_round_merge_matches_serial_fold() {
        let bounds = [4.0, 2.0, 1.0];
        let trials: Vec<Vec<usize>> = (0..20)
            .map(|i| vec![1 + (i % 5), 1 + (i % 3), 1 + (i % 2)])
            .collect();
        let mut serial = PerRound::default();
        for t in &trials {
            serial.record(t, &bounds);
        }
        let mut left = PerRound::default();
        let mut right = PerRound::default();
        for t in &trials[..7] {
            left.record(t, &bounds);
        }
        for t in &trials[7..] {
            right.record(t, &bounds);
        }
        left.merge(right);
        assert_eq!(serial.markov, left.markov);
        for (a, b) in serial.wf.iter().zip(&left.wf) {
            assert_eq!(a.count(), b.count());
            assert!((a.mean() - b.mean()).abs() < 1e-12);
        }
    }

    #[test]
    fn digest_is_sensitive_to_every_field() {
        let base = vec![event_claim("a", "s", 0.5, 10, 1)];
        let mut other = base.clone();
        other[0].observed = "2 violating".into();
        assert_ne!(digest(&base), digest(&other));
        assert_eq!(digest(&base), digest(&base.clone()));
    }

    #[test]
    fn smoke_suite_passes_on_the_unmodified_protocols() {
        let _guard = crate::exec::override_lock();
        crate::exec::set_threads(0);
        let results = run(1);
        // Every claim of the paper appears exactly once.
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        for expect in [
            "L1.decay",
            "T1.steps",
            "T1.disagreement",
            "L2-3.decay",
            "L4.tail",
            "T2.steps",
            "T2.disagreement",
            "T3.individual",
            "T3.failure",
            "T3.total",
            "Cor1.agreement",
            "Cor1.exhaustion",
            "Cor1.phases",
            "Cor2.agreement",
            "Cor2.exhaustion",
            "Cor2.phases",
            "Cor3.agreement",
            "Cor3.exhaustion",
            "Cor3.phases",
        ] {
            assert!(ids.contains(&expect), "missing claim {expect}");
        }
        for r in &results {
            assert!(r.pass, "claim {} failed: {:?}", r.id, r);
        }
        let table = render(&results);
        assert_eq!(table.rows().len(), results.len());
    }
}
