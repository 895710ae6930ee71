//! Statistical conformance suite for the paper's probability bounds,
//! and the one verdict row every conformance tier emits.
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
//! Two claim shapes, the two kinds of [`Measure`]:
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
//! E22 ([`run`]), E25 ([`run_negative`]) and the E26 soak all emit one
//! [`Verdict`] row, judged by `Verdict::judge` and rendered, digested
//! and written one way. Trials fan out over [`map_reduce`] with
//! per-claim fixed master seeds, so the whole suite — including the
//! [`digest`] of its verdicts — is byte-identical for any
//! `SIFT_THREADS`. `scale` multiplies every trial count: 1 is the CI
//! smoke tier, larger values are the nightly/heavy tier.

use std::process::ExitCode;

use sift_adopt_commit::AdoptCommit;
use sift_consensus::{
    linear_work_consensus, max_register_consensus, sifting_consensus, ConsensusOutcome,
    ConsensusProtocol,
};
use sift_core::analysis::{
    expected_consensus_phases, lemma1_expected_excess, sifting_expected_excess,
    theorem3_expected_total_steps, theorem3_individual_steps,
};
use sift_core::math::ceil_log_log;
use sift_core::{
    distinct_per_round, Conciliator, EmbeddedConciliator, Epsilon, Persona, RoundHistory,
    RoundState, SnapshotConciliator,
};
use sift_obs::json::{self, Json};
use sift_sim::adversary::AdversaryStrength;
use sift_sim::fuzz::{Environment, FingerprintHasher};
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::RandomInterleave;
use sift_sim::{Engine, LayoutBuilder, RegisterSemantics, Resolution, StopReason};

use crate::exec::{map_reduce, Merge};
use crate::runner::{sifter, TrialFixture, SIFTER_EPS};
use crate::stats::{cp_lower, Welford, Z_99};
use crate::table::{fmt_f64, Table};

/// Confidence level of every test: claims fail only when excluded at
/// `1 - ALPHA` confidence.
const ALPHA: f64 = 0.01;

/// Markov's inequality at threshold `4·bound` caps the event
/// probability at 1/4.
const MARKOV_CAP: f64 = 0.25;

/// Numeric slack for comparisons against exact bounds.
const SLACK: f64 = 1e-9;

/// What a [`Verdict`] measured over its trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measure {
    /// Trials that violated the claimed event.
    Violations(u64),
    /// A claimed expectation, tested through Markov's inequality.
    Mean {
        /// The sample mean.
        mean: f64,
        /// Trials at or above the Markov threshold `4·bound`.
        markov: u64,
        /// The sample mean's one-sided 99% lower confidence bound.
        lcb: f64,
        /// The round a per-round decay claim reports — its worst,
        /// counting from 1; `None` for a single expectation.
        round: Option<usize>,
    },
}

impl Measure {
    fn mean(wf: &Welford, markov: u64, round: Option<usize>) -> Self {
        Self::Mean {
            mean: wf.mean(),
            markov,
            lcb: wf.mean_lcb(Z_99),
            round,
        }
    }
}

/// The verdict on one claim of the paper in one environment: the row
/// E22 ([`run`]), E25 ([`run_negative`]) and the E26 soak all emit.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Claim identifier, e.g. `"T2.disagreement"`.
    pub id: String,
    /// The claim in words — display only, neither digested nor written.
    pub statement: String,
    /// The adversary and register semantics the trials ran in.
    pub env: Environment,
    /// Processes per trial (shards in the soak's service lane).
    pub scale: usize,
    /// Trials behind the verdict.
    pub trials: u64,
    /// What was measured.
    pub measure: Measure,
    /// The paper's bound: on the violation rate, or on the expectation.
    pub bound: f64,
    /// Clopper–Pearson 99% lower bound on the violation (Markov event) rate.
    pub lcb: f64,
    /// Whether the bound should hold: `false` for E25's breakers.
    pub expect_hold: bool,
    /// `true` iff the data's verdict on the bound is the expected one.
    pub pass: bool,
}

impl Verdict {
    /// Judges `measure` over `trials` in the paper's environment: the
    /// `bound` holds unless the data excludes it at 99% confidence (see
    /// the module docs). No trials exclude nothing.
    pub(crate) fn judge(
        id: &str,
        statement: &str,
        scale: usize,
        trials: usize,
        measure: Measure,
        bound: f64,
    ) -> Self {
        let (events, cap, mean_holds) = match measure {
            Measure::Violations(violations) => (violations, bound, true),
            Measure::Mean { markov, lcb, .. } => (markov, MARKOV_CAP, lcb <= bound + SLACK),
        };
        let lcb = if trials == 0 {
            0.0
        } else {
            cp_lower(events, trials as u64, ALPHA)
        };
        Self {
            id: id.into(),
            statement: statement.into(),
            env: Environment::default(),
            scale,
            trials: trials as u64,
            measure,
            bound,
            lcb,
            expect_hold: true,
            pass: lcb <= cap + SLACK && mean_holds,
        }
    }

    /// The row as a JSON object — the one row shape of both
    /// `BENCH_*.json` files — with the soak's `window` after its scale.
    pub(crate) fn to_json(&self, window: Option<u64>) -> Json {
        let mut fields = vec![
            ("claim", self.id.as_str().into()),
            ("env", env_json(self.env)),
            ("scale", self.scale.into()),
        ];
        fields.extend(window.map(|window| ("window", window.into())));
        fields.push(("trials", self.trials.into()));
        match self.measure {
            Measure::Violations(violations) => fields.push(("violations", violations.into())),
            Measure::Mean {
                mean,
                markov,
                lcb,
                round,
            } => fields.extend([
                ("mean", Json::fixed(mean, 6)),
                ("markov", markov.into()),
                ("mean_lcb", Json::fixed(lcb, 6)),
                ("round", round.map_or(Json::Null, Json::from)),
            ]),
        }
        fields.extend([
            ("lcb", Json::fixed(self.lcb, 6)),
            ("bound", Json::fixed(self.bound, 6)),
            ("expect_hold", self.expect_hold.into()),
            ("pass", self.pass.into()),
        ]);
        Json::obj(fields)
    }
}

/// An environment in full: the adversary's lattice name and the
/// register semantics, a `Coin` resolution's seed included.
pub(crate) fn env_json(env: Environment) -> Json {
    Json::obj([
        ("strength", env.strength.name().into()),
        ("registers", registers_name(env.semantics).into()),
    ])
}

fn registers_name(semantics: RegisterSemantics) -> String {
    match semantics {
        RegisterSemantics::Atomic => "atomic".into(),
        RegisterSemantics::Regular(Resolution::AlwaysNew) => "regular/new".into(),
        RegisterSemantics::Regular(Resolution::AlwaysOld) => "regular/old".into(),
        RegisterSemantics::Regular(Resolution::Coin(seed)) => format!("regular/coin({seed})"),
    }
}

/// Runs the full conformance suite. `scale` multiplies every per-claim
/// trial count (1 = smoke tier).
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn run(scale: usize) -> Vec<Verdict> {
    assert!(scale > 0, "scale must be positive");
    let mut results = Vec::new();
    results.extend(algorithm1_claims(scale));
    results.extend(sifting_claims(scale, &sifter));
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

/// `true` iff every verdict passed.
pub fn all_pass(results: &[Verdict]) -> bool {
    results.iter().all(|r| r.pass)
}

/// Renders the suite as one table (the layout recorded in
/// `EXPERIMENTS.md`).
pub(crate) fn render(results: &[Verdict]) -> Table {
    let mut table = verdict_table(
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
pub(crate) fn render_negative(results: &[Verdict]) -> Table {
    let mut table = verdict_table(
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

/// The one renderer of verdict rows. A table holding a row expected to
/// be refuted (E25's, all decay claims) states every row's verdict on
/// the bound and its expected polarity after the CP check.
pub(crate) fn verdict_table<'a>(title: &str, rows: impl IntoIterator<Item = &'a Verdict>) -> Table {
    let rows: Vec<&Verdict> = rows.into_iter().collect();
    let polarity = rows.iter().any(|r| !r.expect_hold);
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
    for r in rows {
        let cp = format!("CP99 lower {}", fmt_f64(r.lcb));
        let (observed, bound, mut check) = match r.measure {
            Measure::Violations(violations) => (format!("{violations} violating"), "≤", cp),
            Measure::Mean {
                mean,
                markov,
                lcb,
                round,
            } => (
                format!(
                    "{}mean {}, {markov} ≥ 4·bound",
                    round.map_or(String::new(), |round| format!("worst round {round}: ")),
                    fmt_f64(mean)
                ),
                "E ≤",
                format!("mean LCB {}, {cp}", fmt_f64(lcb)),
            ),
        };
        if polarity {
            let holds = if r.pass == r.expect_hold {
                "holds"
            } else {
                "refuted"
            };
            let expected = if r.expect_hold { "hold" } else { "be refuted" };
            check += &format!("; decay {holds}, expected to {expected}");
        }
        table.row(vec![
            r.id.clone(),
            r.statement.clone(),
            r.trials.to_string(),
            observed,
            format!("{bound} {}", fmt_f64(r.bound)),
            check,
            if r.pass { "pass" } else { "FAIL" }.to_string(),
        ]);
    }
    table
}

/// FNV digest of the verdict rows as written — the seed-stability
/// regression hook. Byte-identical across `SIFT_THREADS` for a fixed
/// `scale`.
pub fn digest(results: &[Verdict]) -> u64 {
    let rows = Json::Arr(results.iter().map(|r| r.to_json(None)).collect());
    let mut h = FingerprintHasher::new();
    h.write_bytes(json::write(&rows).as_bytes());
    h.finish()
}

/// Fixed master seed of claim group `idx` — conformance results must
/// not depend on `SIFT_SEED`, or golden digests would be meaningless.
pub(crate) fn claim_seed(idx: u64) -> u64 {
    SeedSplitter::new(0x5EED_C0F0).seed("claim", idx)
}

/// Per-round decay accumulator: per round, a [`Welford`] of the excess
/// and its count of Markov events.
#[derive(Debug, Clone, Default)]
struct PerRound(Vec<(Welford, u64)>);

impl PerRound {
    fn record(&mut self, survivors: &[usize], bounds: &[f64]) {
        self.grow(survivors.len());
        for (i, &s) in survivors.iter().enumerate() {
            let excess = s.saturating_sub(1) as f64;
            self.0[i].0.push(excess);
            // Markov threshold 4·bound; any positive threshold is valid.
            self.0[i].1 += u64::from(excess >= 4.0 * bounds[i]);
        }
    }

    fn grow(&mut self, rounds: usize) {
        if self.0.len() < rounds {
            self.0.resize(rounds, (Welford::new(), 0));
        }
    }
}

impl Merge for PerRound {
    fn merge(&mut self, other: Self) {
        self.grow(other.0.len());
        for ((wf, markov), (other_wf, other_markov)) in self.0.iter_mut().zip(other.0) {
            wf.merge(other_wf);
            *markov += other_markov;
        }
    }
}

/// Collapses a round range of a [`PerRound`] into one claim: every
/// round must pass its own mean claim; the row reports the worst
/// round's (largest mean-to-bound ratio).
fn decay_claim(
    id: &str,
    statement: &str,
    n: usize,
    per_round: &PerRound,
    bounds: &[f64],
    rounds: std::ops::Range<usize>,
) -> Verdict {
    let mut pass = true;
    let mut worst: Option<(Verdict, f64)> = None;
    for i in rounds.take_while(|&i| i < per_round.0.len()) {
        let (wf, markov) = &per_round.0[i];
        let measure = Measure::mean(wf, *markov, Some(i + 1));
        let verdict = Verdict::judge(id, statement, n, wf.count(), measure, bounds[i]);
        pass &= verdict.pass;
        let ratio = if bounds[i] > 0.0 {
            wf.mean() / bounds[i]
        } else {
            f64::INFINITY
        };
        if worst.as_ref().is_none_or(|(_, w)| ratio > *w) {
            worst = Some((verdict, ratio));
        }
    }
    let (worst, _) = worst.expect("decay claim needs at least one round");
    Verdict { pass, ..worst }
}

// ---------------------------------------------------------------------
// Claim group A: Algorithm 1 (Lemma 1, Theorem 1).
// ---------------------------------------------------------------------

const ALG1_N: usize = 128;
const ALG1_TRIALS: usize = 60;

fn algorithm1_claims(scale: usize) -> Vec<Verdict> {
    let n = ALG1_N;
    let eps = Epsilon::HALF;
    let trials = ALG1_TRIALS * scale;
    let master = claim_seed(1);

    let probe = SnapshotConciliator::allocate(&mut LayoutBuilder::new(), n, eps);
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
            n,
            &per_round,
            &bounds,
            0..rounds,
        ),
        Verdict::judge(
            "T1.steps",
            &format!("Alg 1 takes exactly 2R = {steps_bound} ops per process"),
            n,
            trials,
            Measure::Violations(step_violations),
            0.0,
        ),
        Verdict::judge(
            "T1.disagreement",
            &format!("Alg 1 disagreement ≤ ε = {eps}, n={n}"),
            n,
            trials,
            Measure::Violations(disagreements),
            eps.get(),
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

/// The Algorithm 2 claims (Lemmas 2–4, Theorem 2) against the sifter
/// `build` allocates for the suite's `n`. [`run`] passes the
/// unmodified protocol; the mutation tests pass a biased-coin sifter,
/// whose disagreement and decay claims must fail at smoke trial
/// counts. A conciliator that can livelock under an infinite schedule
/// is truncated by the slot budget and fails the step claim.
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn sifting_claims<C>(
    scale: usize,
    build: &(impl Fn(&mut LayoutBuilder, usize) -> C + Sync),
) -> Vec<Verdict>
where
    C: Conciliator,
    C::Participant: RoundState,
{
    sifting_rows(scale, 2, Environment::default(), build)
}

/// The Algorithm 2 rows of [`sifting_claims`], from trials in `env`
/// under claim group `idx`'s seeds.
fn sifting_rows<C>(
    scale: usize,
    idx: u64,
    env: Environment,
    build: &(impl Fn(&mut LayoutBuilder, usize) -> C + Sync),
) -> Vec<Verdict>
where
    C: Conciliator,
    C::Participant: RoundState,
{
    assert!(scale > 0, "scale must be positive");
    let n = SIFTING_N;
    let trials = SIFTING_TRIALS * scale;
    let master = claim_seed(idx);

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
            conciliator_trial(n, seed, env, |b| build(b, n))
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

    let eps = SIFTER_EPS;
    let mut rows = vec![
        decay_claim(
            "L2-3.decay",
            &format!("Alg 2 mean excess in rounds 1..⌈loglog n⌉ ≤ x_i, n={n}"),
            n,
            &per_round,
            &bounds,
            0..aggressive.min(rounds),
        ),
        decay_claim(
            "L4.tail",
            "Alg 2 tail excess decays as 8·(3/4)^j past the switch",
            n,
            &per_round,
            &bounds,
            aggressive.min(rounds)..rounds,
        ),
        Verdict::judge(
            "T2.steps",
            &format!("Alg 2 takes exactly R = {steps_bound} ops per process"),
            n,
            trials,
            Measure::Violations(step_violations),
            0.0,
        ),
        Verdict::judge(
            "T2.disagreement",
            &format!("Alg 2 disagreement ≤ ε = {eps}, n={n}"),
            n,
            trials,
            Measure::Violations(disagreements),
            eps.get(),
        ),
    ];
    rows.iter_mut().for_each(|row| row.env = env);
    rows
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
/// the bound). A case passes when the data's verdict matches its
/// [`expect_hold`](Verdict::expect_hold), so the suite pins the
/// obliviousness boundary from both sides: the paper's model still
/// conforms, and the known breakers are decisively detected rather than
/// silently absorbed.
///
/// Seeds are fixed per case (independent of `SIFT_SEED`), making the
/// verdicts — and [`digest`] over them — golden-stable.
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn run_negative(scale: usize) -> Vec<Verdict> {
    assert!(scale > 0, "scale must be positive");
    use AdversaryStrength::{Adaptive, Oblivious};
    use RegisterSemantics::{Atomic, Regular};
    use Resolution::{AlwaysNew, AlwaysOld};
    let cases = [
        ("NEG.oblivious.control", Oblivious, Atomic, true),
        ("NEG.alwaysnew.control", Oblivious, Regular(AlwaysNew), true),
        ("NEG.adaptive.decay", Adaptive, Atomic, false),
        ("NEG.regular.decay", Oblivious, Regular(AlwaysOld), false),
    ];
    cases
        .into_iter()
        .enumerate()
        .map(|(idx, (id, strength, semantics, expect_hold))| {
            let env = Environment {
                strength,
                semantics,
            };
            // The aggressive-decay row (Lemmas 2–3) of these trials.
            let decay = sifting_rows(scale, 10 + idx as u64, env, &sifter).swap_remove(0);
            let statement = format!(
                "Alg 2 aggressive decay under the {} adversary on {} registers",
                strength.name(),
                registers_name(semantics)
            );
            Verdict {
                id: id.into(),
                statement,
                pass: decay.pass == expect_hold,
                expect_hold,
                ..decay
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Claim group C: Algorithm 3 (Theorem 3).
// ---------------------------------------------------------------------

const ALG3_N: usize = 64;
const ALG3_TRIALS: usize = 100;

fn theorem3_claims(scale: usize) -> Vec<Verdict> {
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
        Verdict::judge(
            "T3.individual",
            &format!("Alg 3 individual ops ≤ {indiv_bound} = 2(R'+1)+9, n={n}"),
            n,
            trials,
            Measure::Violations(indiv_violations),
            0.0,
        ),
        Verdict::judge(
            "T3.failure",
            &format!("Alg 3 disagreement ≤ 7/8, n={n}"),
            n,
            trials,
            Measure::Violations(disagreements),
            7.0 / 8.0,
        ),
        Verdict::judge(
            "T3.total",
            &format!("Alg 3 expected total ops ≤ 21n = {}", total_bound as u64),
            n,
            total_wf.count(),
            Measure::mean(&total_wf, total_markov, None),
            total_bound,
        ),
    ]
}

// ---------------------------------------------------------------------
// Claim groups D–F: the consensus stacks (Corollaries 1–3).
// ---------------------------------------------------------------------

const CONSENSUS_N: usize = 16;
const CONSENSUS_M: u64 = 4;
const CONSENSUS_TRIALS: usize = 60;

fn consensus_claims(scale: usize) -> Vec<Verdict> {
    let (n, m) = (CONSENSUS_N, CONSENSUS_M);
    [
        stack_claims(scale, 4, "Cor1", 0.5, |b| max_register_consensus(b, n)),
        stack_claims(scale, 5, "Cor2", 0.5, |b| sifting_consensus(b, n, m, 2)),
        stack_claims(scale, 6, "Cor3", 0.125, |b| {
            linear_work_consensus(b, n, m, 2)
        }),
    ]
    .concat()
}

/// Corollary `name`'s three claims on the stack `allocate` builds, each
/// trial on a fresh allocation, under claim group `idx`'s seeds; `delta`
/// is its conciliator's agreement probability.
fn stack_claims<C, A>(
    scale: usize,
    idx: u64,
    name: &str,
    delta: f64,
    allocate: impl Fn(&mut LayoutBuilder) -> ConsensusProtocol<C, A> + Sync,
) -> Vec<Verdict>
where
    C: Conciliator,
    A: AdoptCommit<Persona>,
{
    let (n, m) = (CONSENSUS_N, CONSENSUS_M);
    let trials = CONSENSUS_TRIALS * scale;
    let master = claim_seed(idx);
    let phase_bound = expected_consensus_phases(delta);
    let exhaustion_bound = allocate(&mut LayoutBuilder::new()).exhaustion_probability();

    let (phase_wf, phase_markov, inconsistent, exhausted) = map_reduce(
        trials,
        |index| {
            let split = SeedSplitter::new(crate::exec::trial_seed(master, index));
            let mut b = LayoutBuilder::new();
            let protocol = allocate(&mut b);
            let mut input_rng = split.stream("inputs", 0);
            let inputs: Vec<u64> = (0..n).map(|_| input_rng.range_u64(m)).collect();
            let procs = split.processes(n, |pid, rng| {
                protocol.participant(pid, inputs[pid.index()], rng)
            });
            let schedule = RandomInterleave::new(n, split.schedule_seed());
            let outcomes = Engine::new(&b.build(), procs)
                .run(schedule)
                .unwrap_outputs();
            let decided: Vec<u64> = outcomes.iter().filter_map(|o| o.value()).collect();
            let consistent = decided.windows(2).all(|w| w[0] == w[1])
                && decided.iter().all(|v| inputs.contains(v));
            let phases_p0 = match &outcomes[0] {
                ConsensusOutcome::Decided(d) => Some(d.phases as f64),
                ConsensusOutcome::Exhausted { .. } => None,
            };
            // A process that decided nothing exhausted its phases.
            (consistent, decided.len() < n, phases_p0)
        },
        || (Welford::new(), 0u64, 0u64, 0u64),
        |(wf, markov, inconsistent, exhausted), (consistent, exhaustion, phases)| {
            if let Some(phases) = phases {
                wf.push(phases);
                *markov += u64::from(phases >= 4.0 * phase_bound);
            }
            *inconsistent += u64::from(!consistent);
            *exhausted += u64::from(exhaustion);
        },
    );

    vec![
        Verdict::judge(
            &format!("{name}.agreement"),
            &format!("{name} stack: agreement + validity absolute, n={n}"),
            n,
            trials,
            Measure::Violations(inconsistent),
            0.0,
        ),
        Verdict::judge(
            &format!("{name}.exhaustion"),
            &format!("{name} stack: phase exhaustion ≤ (1-δ)^max_phases"),
            n,
            trials,
            Measure::Violations(exhausted),
            exhaustion_bound,
        ),
        Verdict::judge(
            &format!("{name}.phases"),
            &format!("{name} stack: E[phases] ≤ 1/δ = {}", fmt_f64(phase_bound)),
            n,
            phase_wf.count(),
            Measure::mean(&phase_wf, phase_markov, None),
            phase_bound,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_claim(bound: f64, trials: usize, violations: u64) -> Verdict {
        Verdict::judge("x", "s", 1, trials, Measure::Violations(violations), bound)
    }

    fn mean_claim(bound: f64, wf: &Welford, markov: u64) -> Verdict {
        Verdict::judge(
            "x",
            "s",
            1,
            wf.count(),
            Measure::mean(wf, markov, None),
            bound,
        )
    }

    #[test]
    fn event_claim_passes_within_and_fails_beyond_the_bound() {
        // 5/100 with bound 1/4: CP99 lower on 0.05 is far below 0.25.
        assert!(event_claim(0.25, 100, 5).pass);
        // 60/100 with bound 1/4: excluded decisively.
        assert!(!event_claim(0.25, 100, 60).pass);
        // Deterministic claim: one violation refutes it.
        assert!(event_claim(0.0, 100, 0).pass);
        assert!(!event_claim(0.0, 100, 1).pass);
        // No trials (an empty soak window) exclude nothing.
        let empty = event_claim(0.0, 0, 0);
        assert!(empty.pass && empty.lcb == 0.0);
    }

    #[test]
    fn mean_claim_uses_both_the_markov_and_the_ucb_test() {
        let mut tight = Welford::new();
        for _ in 0..50 {
            tight.push(1.0);
        }
        // Mean 1 with bound 10, no Markov events: passes.
        assert!(mean_claim(10.0, &tight, 0).pass);
        // Same sample with bound 0.5: the mean-LCB test refutes it
        // (a constant sample's LCB is its mean).
        assert!(!mean_claim(0.5, &tight, 0).pass);
        // Markov events on most trials: the CP test refutes it.
        assert!(!mean_claim(10.0, &tight, 40).pass);
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
        assert_eq!(serial.0.len(), left.0.len());
        for ((a, a_markov), (b, b_markov)) in serial.0.iter().zip(&left.0) {
            assert_eq!(a_markov, b_markov);
            assert_eq!(a.count(), b.count());
            assert!((a.mean() - b.mean()).abs() < 1e-12);
        }
    }

    #[test]
    fn digest_is_sensitive_to_every_field() {
        let base = vec![event_claim(0.5, 10, 1)];
        let mutations: [fn(&mut Verdict); 4] = [
            |v| v.measure = Measure::Violations(2),
            |v| v.env.strength = AdversaryStrength::Adaptive,
            |v| v.scale = 2,
            |v| v.expect_hold = false,
        ];
        for mutate in mutations {
            let mut other = base.clone();
            mutate(&mut other[0]);
            assert_ne!(digest(&base), digest(&other));
        }
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
        // EXPERIMENTS.md records the E22 and E25 tables verbatim.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let recorded = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
        for table in [table, render_negative(&run_negative(1))] {
            let rendered = table.render();
            assert!(
                recorded.contains(&rendered),
                "EXPERIMENTS.md does not record this table verbatim:\n{rendered}"
            );
        }
    }
}
