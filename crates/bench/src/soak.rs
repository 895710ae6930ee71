//! Soak-mode conformance: continuous statistical verification with
//! crash injection against the live service layer.
//!
//! One soak *window* drives three lanes against the same protocol
//! build and folds every outcome into a sliding-window statistical
//! checker:
//!
//! 1. **Service lane** — a Zipf-skewed proposal script (fresh
//!    instances plus idempotent re-proposals of recent windows and
//!    probes of evicted ones) runs against *two* persistent
//!    [`DeterministicService`]s: the live copy takes seeded mid-tick
//!    worker crashes ([`DeterministicService::tick_all_crashing`])
//!    followed by restart-and-drain; the shadow copy never crashes.
//!    The recovery claim is that the two canonical commit streams
//!    stay byte-identical; exactly-once and validity are checked on
//!    every new fact.
//! 2. **Sifting lane** — seeded trials of the conciliator under test
//!    (the unmodified [`SiftingConciliator`] unless [`run_soak_with`]
//!    is handed another) at two scales under random interleaving, half
//!    of them with a random
//!    quarter of the processes crashed ([`CrashSubset`]). Step-count
//!    exactness (crash-free trials), liveness of the surviving
//!    support, agreement, and validity are re-checked per trial, and
//!    any replayable violation is greedily shrunk to a 1-minimal
//!    [`FixedSchedule`](sift_sim::schedule::FixedSchedule) script.
//! 3. **Fuzz lane** — one generation of the coverage-guided adversary
//!    fuzzer per window, with the corpus carried across windows and
//!    seeded with schedules harvested from the sifting lane
//!    ([`Fuzzer::seed_corpus`]), so live traffic feeds the mutation
//!    pool.
//!
//! Every claim is one row of one table — id, scales, bound and what it
//! checks; a claim E22 also checks takes E22's id and ε. Every
//! violation carries its run's environment (the
//! sifting lane's default, the fuzz genome's), in which its witness is
//! replayed, shrunk on the registers that found it and re-checked at
//! its adversary's tier ([`replay_violation_with`]).
//!
//! Each claim keeps a [`WindowedReport`] ring of the last `width`
//! windows; after each window it emits one [`Verdict`] — E22's row,
//! judged by the same rule — over the retained windows, so one bad
//! window cannot hide inside an ever-growing denominator.
//! A window is one deterministic unit of work: for a fixed
//! [`SoakConfig`] the whole trajectory — rows, violations, shrunk
//! scripts, digest — is byte-identical for any `SIFT_THREADS` (trials
//! fan out over [`map_reduce`] and fold back in index order), which
//! is what lets `BENCH_conformance.json` be golden-pinned.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sift_core::{Conciliator, Recorder, RoundState, SiftingConciliator};
use sift_obs::json::{self, Json};
use sift_obs::{ObsReport, WindowedReport};
use sift_service::det::DeterministicService;
use sift_service::runtime::block_on;
use sift_service::{InstanceId, Service, ServiceConfig, ShardConfig};
use sift_sim::fuzz::{
    interleaving_signature, CorpusEntry, Environment, FingerprintHasher, Fuzzer, Gene,
    ScheduleGenome,
};
use sift_sim::rng::{SeedSplitter, Xoshiro256StarStar};
use sift_sim::schedule::{CrashSubset, RandomInterleave, Schedule};
use sift_sim::{LayoutBuilder, RunReport, StopReason};

use crate::conformance::{env_json, verdict_table, Measure, Verdict};
use crate::exec::map_reduce;
use crate::fuzz::{check_invariants, run_generation};
use crate::runner::{check_agreement, sifter, TrialFixture, SIFTER_EPS};
use crate::table::Table;

/// Sifting-lane scales checked every window.
pub(crate) const SIFT_SCALES: [usize; 2] = [16, 48];
/// Sifting trials per scale per window.
const SIFT_TRIALS: usize = 8;
/// Fraction of processes crashed in a crash-injected sifting trial.
const SIFT_CRASH_FRACTION: f64 = 0.25;
/// Scripts longer than this are reported unshrunk (shrinking is
/// quadratic in script length).
const SHRINK_CAP: usize = 1500;
/// Harvested corpus entries per sifting scale per window.
const HARVEST_PER_SCALE: usize = 2;

/// Shards of the persistent service pair.
pub(crate) const SERVICE_SHARDS: usize = 8;
/// Per-shard decided-fact capacity — deliberately small so the soak
/// traffic exercises eviction tombstones.
const SERVICE_CAPACITY: usize = 12;
/// Fresh instances per service window.
const SERVICE_INSTANCES: u64 = 40;
/// Zipf-skewed proposals per service window (before revisits).
const SERVICE_PROPOSALS: usize = 96;
/// Distinct proposal values.
const SERVICE_VALUES: u64 = 8;
/// Zipf skew of the instance popularity distribution.
const SERVICE_THETA: f64 = 0.99;
/// Tick cadence: both services tick every this many proposals.
const SERVICE_TICK_EVERY: usize = 16;
/// Idempotent re-proposals of the previous window's instances.
const SERVICE_REVISITS: usize = 4;
/// Probes of instances old enough to have been evicted.
const SERVICE_EVICTED_PROBES: usize = 2;
/// Windows back for the eviction probes.
const SERVICE_EVICTED_LAG: u64 = 4;

/// Processes in the fuzz lane's candidate schedules.
pub(crate) const FUZZ_N: usize = 6;
/// Fuzz candidates evaluated per window.
const FUZZ_POPULATION: usize = 6;

/// Zipf(θ) sampler over ranks `0..n` via inverse CDF on a precomputed
/// cumulative table (deterministic given the caller's RNG). The service
/// lane draws its instance popularity from it.
#[derive(Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the table for `n` ranks with skew `theta` (0 = uniform;
    /// ~0.99 = classic web-cache skew).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(theta >= 0.0 && theta.is_finite(), "bad zipf theta {theta}");
        let mut cumulative = Vec::with_capacity(n as usize);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        let u = rng.unit_f64();
        self.cumulative.partition_point(|&c| c < u) as u64
    }
}

/// Parameters of a soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed; every window derives its traffic, schedules, and
    /// crash plans from disjoint labelled streams of it.
    pub seed: u64,
    /// Windows to run under [`run_soak_with`] (a wall-clock driver calls
    /// `Soak::step` directly instead).
    pub windows: usize,
    /// Sliding-window width of the conformance checker.
    pub width: usize,
    /// Inject crashes: seeded mid-tick service crashes plus
    /// [`CrashSubset`] process kills in half the sifting trials.
    pub crashes: bool,
    /// Propose fuzz candidates from the extended gene pool
    /// (adversary-lattice and register-semantics environment genes).
    pub extended: bool,
}

impl Default for SoakConfig {
    /// The CI smoke budget: 6 windows of width 4 with crashes on.
    fn default() -> Self {
        Self {
            seed: 0x50AC,
            windows: 6,
            width: 4,
            crashes: true,
            extended: false,
        }
    }
}

/// A concrete violation observed during a soak window.
#[derive(Debug, Clone)]
pub struct SoakViolation {
    /// Window the violating trial ran in.
    pub window: u64,
    /// The violated claim.
    pub claim: &'static str,
    /// Scale of the violating trial.
    pub scale: usize,
    /// Trial seed — enough to rebuild the layout and participants for
    /// replay (see [`replay_violation_with`]).
    pub seed: u64,
    /// The violating run's environment — the genome's in the fuzz lane,
    /// else the default — which a replay of the witness runs in.
    pub env: Environment,
    /// What went wrong.
    pub message: String,
    /// The 1-minimal replay script when the violation reproduced under
    /// deterministic replay; `None` for claims that depend on the
    /// schedule tail or on service state (reported unshrunk).
    pub script: Option<Vec<usize>>,
    /// Length of the original charged script before shrinking (0 when
    /// no script applies).
    pub shrunk_from: usize,
}

impl fmt::Display for SoakViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "soak violation [window {} claim {} n={} seed {:#x}",
            self.window, self.claim, self.scale, self.seed
        )?;
        if self.env != Environment::default() {
            write!(f, " {:?}", self.env)?;
        }
        writeln!(f, "]: {}", self.message)?;
        match &self.script {
            Some(script) => write!(
                f,
                "replay: FixedSchedule over pids {script:?} (shrunk from {} slots)",
                self.shrunk_from
            ),
            None => write!(f, "not replayable from a finite script"),
        }
    }
}

/// Outcome of a soak run.
#[derive(Debug)]
pub struct SoakReport {
    /// The configuration the run used.
    pub config: SoakConfig,
    /// Windows actually run (wall-clock drivers may not hit
    /// `config.windows`).
    pub windows_run: u64,
    /// Every emitted verdict over its retained windows, with the window
    /// it was emitted after, in window order then claim order.
    pub rows: Vec<(u64, Verdict)>,
    /// Every concrete violation, in detection order.
    pub violations: Vec<SoakViolation>,
    /// Total fuzz candidates evaluated across windows.
    pub fuzz_evaluated: usize,
    /// Sum of per-window coverage counts (windows share a carried
    /// corpus but keep private coverage maps).
    pub fuzz_coverage: usize,
    /// Digest of the live service's full commit stream.
    pub service_digest: u64,
    /// Distinct instances the live service decided.
    pub service_decided: usize,
}

impl SoakReport {
    /// `true` iff every row passed its sliding-window check.
    pub fn all_pass(&self) -> bool {
        self.rows.iter().all(|(_, row)| row.pass)
    }

    /// Rows that failed their check, in emission order.
    pub fn flagged(&self) -> Vec<&(u64, Verdict)> {
        self.rows.iter().filter(|(_, row)| !row.pass).collect()
    }

    /// FNV digest of the whole trajectory as written: every row (its
    /// window and [`Verdict`]), every violation (environment, message
    /// and script included), and the service stream digest. The
    /// seed-stability regression hook — byte-identical across
    /// `SIFT_THREADS` for a fixed config.
    pub fn digest(&self) -> u64 {
        let mut h = FingerprintHasher::new();
        h.write_u64(self.windows_run);
        for part in self.trajectory() {
            h.write_bytes(json::write(&part).as_bytes());
        }
        h.write_u64(self.service_digest);
        h.finish()
    }

    /// The rows and the violations, as written to JSON.
    fn trajectory(&self) -> [Json; 2] {
        let rows = self
            .rows
            .iter()
            .map(|(window, row)| row.to_json(Some(*window)));
        let violations = self.violations.iter().map(|v| {
            let script = v.script.as_ref().map_or(Json::Null, |script| {
                Json::Arr(script.iter().map(|&pid| pid.into()).collect())
            });
            Json::obj([
                ("claim", v.claim.into()),
                ("scale", v.scale.into()),
                ("window", v.window.into()),
                ("seed", v.seed.into()),
                ("env", env_json(v.env)),
                ("message", v.message.as_str().into()),
                ("shrunk_from", v.shrunk_from.into()),
                ("script", script),
            ])
        });
        [Json::Arr(rows.collect()), Json::Arr(violations.collect())]
    }

    /// Renders the final window's rows as a console table.
    pub(crate) fn render(&self) -> Table {
        let last = self.windows_run.saturating_sub(1);
        let rows = self.rows.iter().filter(|(window, _)| *window == last);
        let mut table = verdict_table(
            "E26 soak conformance (sliding-window LCBs, final window)",
            rows.map(|(_, row)| row),
        );
        table.note(format!(
            "{} windows, {} rows, {} violations, fuzz {} evaluated, \
             service {} decided, digest {:#018x}",
            self.windows_run,
            self.rows.len(),
            self.violations.len(),
            self.fuzz_evaluated,
            self.service_decided,
            self.digest(),
        ));
        table
    }
}

/// The tracked `BENCH_conformance.json` document: the full row
/// trajectory plus violations. Deliberately carries no thread
/// count — the bytes are invariant under `SIFT_THREADS`.
impl From<&SoakReport> for Json {
    fn from(report: &SoakReport) -> Json {
        let [rows, violations] = report.trajectory();
        let hex = |digest: u64| Json::Str(format!("{digest:#018x}"));
        Json::obj([
            ("suite", "soak".into()),
            ("seed", report.config.seed.into()),
            ("windows", report.windows_run.into()),
            ("width", report.config.width.into()),
            ("crashes", report.config.crashes.into()),
            ("extended", report.config.extended.into()),
            ("digest", hex(report.digest())),
            ("service_digest", hex(report.service_digest)),
            ("rows", rows),
            ("violations", violations),
        ])
    }
}

/// Allocates the conciliator under test for `n` processes.
type Build<C> = Box<dyn Fn(&mut LayoutBuilder, usize) -> C + Sync>;

/// The incremental soak driver: one [`step`](Soak::step) is one
/// deterministic window. [`run_soak_with`] wraps it for a fixed window
/// budget; the wall-clock mode of [`main`] (`SIFT_SOAK_SECS > 0`) calls
/// `step` until a deadline instead.
pub(crate) struct Soak<C = SiftingConciliator> {
    config: SoakConfig,
    build: Build<C>,
    split: SeedSplitter,
    window: u64,
    live: DeterministicService,
    shadow: DeterministicService,
    decided_ever: HashSet<InstanceId>,
    proposed_values: HashMap<InstanceId, BTreeSet<u64>>,
    /// One ring per claim row, in [`claim_rows`] order.
    rings: Vec<WindowedReport>,
    rows: Vec<(u64, Verdict)>,
    violations: Vec<SoakViolation>,
    carried: Vec<CorpusEntry>,
    fuzz_evaluated: usize,
    fuzz_coverage: usize,
}

impl<C> fmt::Debug for Soak<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Soak")
            .field("config", &self.config)
            .field("window", &self.window)
            .field("rows", &self.rows.len())
            .field("violations", &self.violations.len())
            .finish_non_exhaustive()
    }
}

impl<C> Soak<C>
where
    C: Conciliator,
    C::Participant: RoundState,
{
    fn with_build(config: SoakConfig, build: Build<C>) -> Self {
        assert!(config.width > 0, "need at least one window of width");
        let split = SeedSplitter::new(config.seed);
        let shard_config = ShardConfig {
            seed: split.seed("service", 0),
            capacity: SERVICE_CAPACITY,
            ..ShardConfig::default()
        };
        Self {
            build,
            split,
            window: 0,
            live: DeterministicService::new(SERVICE_SHARDS, shard_config.clone()),
            shadow: DeterministicService::new(SERVICE_SHARDS, shard_config),
            decided_ever: HashSet::new(),
            proposed_values: HashMap::new(),
            rings: claim_rows()
                .map(|_| WindowedReport::new(config.width))
                .collect(),
            rows: Vec::new(),
            violations: Vec::new(),
            carried: Vec::new(),
            fuzz_evaluated: 0,
            fuzz_coverage: 0,
            config,
        }
    }

    /// Runs one window: service traffic with crash injection, sifting
    /// trials, one fuzz generation, then the sliding-window check.
    /// Returns the rows emitted for this window.
    pub(crate) fn step(&mut self) -> &[(u64, Verdict)] {
        let window = self.window;
        let wsplit = SeedSplitter::new(self.split.seed("window", window));
        let mut tally: Tally = claim_rows().map(|_| (0, 0)).collect();

        let row_start = self.rows.len();
        self.service_window(&wsplit, &mut tally);
        for &n in &SIFT_SCALES {
            self.sift_window(&wsplit, n, &mut tally);
        }
        self.fuzz_window(&wsplit, &mut tally);

        for (((claim, scale), (trials, violations)), ring) in
            claim_rows().zip(tally).zip(&mut self.rings)
        {
            let mut report = ObsReport::new();
            report.add_count("trials", trials);
            report.add_count("violations", violations);
            ring.push(report);
            let merged = ring.merged();
            let (trials, bound) = (merged.count("trials") as usize, claim.bound());
            let measure = Measure::Violations(merged.count("violations"));
            let statement = match claim.check {
                Check::Service => format!("{scale} shards"),
                _ => format!("n={scale}"),
            };
            let row = Verdict::judge(claim.id, &statement, scale, trials, measure, bound);
            self.rows.push((window, row));
        }
        self.window += 1;
        &self.rows[row_start..]
    }

    /// Finishes the soak and reports the trajectory.
    pub(crate) fn finish(self) -> SoakReport {
        SoakReport {
            windows_run: self.window,
            rows: self.rows,
            violations: self.violations,
            fuzz_evaluated: self.fuzz_evaluated,
            fuzz_coverage: self.fuzz_coverage,
            service_digest: self.live.digest(),
            service_decided: self.decided_ever.len(),
            config: self.config,
        }
    }

    /// One service window: Zipf traffic plus revisits against the
    /// live/shadow pair, crashes injected on the live copy only.
    fn service_window(&mut self, wsplit: &SeedSplitter, tally: &mut Tally) {
        let window = self.window;
        let mut rng = wsplit.stream("traffic", 0);
        let zipf = Zipf::new(SERVICE_INSTANCES, SERVICE_THETA);
        let base = window * SERVICE_INSTANCES;
        let mut script: Vec<(InstanceId, u64)> = (0..SERVICE_PROPOSALS)
            .map(|_| {
                (
                    InstanceId(base + zipf.sample(&mut rng)),
                    rng.range_u64(SERVICE_VALUES),
                )
            })
            .collect();
        // Idempotent revisits: recently decided instances must return
        // their original facts, not decide again.
        if window > 0 {
            for i in 0..SERVICE_REVISITS as u64 {
                let id = base - SERVICE_INSTANCES + (i * 7) % SERVICE_INSTANCES;
                script.push((InstanceId(id), rng.range_u64(SERVICE_VALUES)));
            }
        }
        // Eviction probes: instances old enough to have rolled off the
        // capacity-bounded tables must reject, never re-decide.
        if window >= SERVICE_EVICTED_LAG {
            for i in 0..SERVICE_EVICTED_PROBES as u64 {
                let id = (window - SERVICE_EVICTED_LAG) * SERVICE_INSTANCES + i;
                script.push((InstanceId(id), rng.range_u64(SERVICE_VALUES)));
            }
        }
        for &(instance, value) in &script {
            self.proposed_values
                .entry(instance)
                .or_default()
                .insert(value);
        }

        // Drive both services on the same cadence; crash the live one
        // mid-tick (a seeded per-shard batch budget), then restart and
        // drain before accepting more traffic — the crash model is
        // "worker dies mid-batch, supervisor restarts it before the
        // next proposals land".
        let mut crash_rng = wsplit.stream("crash", 0);
        let facts_before = self.live.stream().len();
        let mut cadence = |live: &mut DeterministicService, shadow: &mut DeterministicService| {
            if self.config.crashes {
                let plan: Vec<usize> = (0..SERVICE_SHARDS)
                    .map(|_| crash_rng.range_u64(3) as usize)
                    .collect();
                live.tick_all_crashing(&plan);
                while live.stats().pending > 0 {
                    live.tick_all();
                }
            } else {
                live.tick_all();
            }
            shadow.tick_all();
        };
        for (position, &(instance, value)) in script.iter().enumerate() {
            self.live.propose(instance, value, position as u64);
            self.shadow.propose(instance, value, position as u64);
            if (position + 1) % SERVICE_TICK_EVERY == 0 {
                cadence(&mut self.live, &mut self.shadow);
            }
        }
        cadence(&mut self.live, &mut self.shadow);
        while self.live.stats().pending > 0 || self.shadow.stats().pending > 0 {
            self.live.tick_all();
            self.shadow.tick_all();
        }

        // A service-lane violation has no run to replay.
        let shards = SERVICE_SHARDS;
        let violation = |claim, message| SoakViolation {
            window,
            claim,
            scale: shards,
            seed: wsplit.seed("traffic", 0),
            env: Environment::default(),
            message,
            script: None,
            shrunk_from: 0,
        };

        // Recovery: crash + restart must leave the canonical stream
        // identical to the never-crashed shadow's.
        let recovered = self.live.canonical_stream() == self.shadow.canonical_stream();
        add_tally(tally, "service.recovery", shards, 1, !recovered as u64);
        if !recovered {
            self.violations.push(violation(
                "service.recovery",
                format!(
                    "crash-injected canonical stream diverged from shadow ({} vs {} facts)",
                    self.live.stream().len(),
                    self.shadow.stream().len()
                ),
            ));
        }

        // Exactly-once and validity over this window's new facts.
        let new_facts: Vec<_> = self.live.stream()[facts_before..].to_vec();
        let mut duplicates = 0;
        let mut invalid = 0;
        for fact in &new_facts {
            if !self.decided_ever.insert(fact.instance) {
                duplicates += 1;
                let message = format!("{} decided a second time", fact.instance);
                self.violations
                    .push(violation("service.exactly_once", message));
            }
            let proposed = self
                .proposed_values
                .get(&fact.instance)
                .is_some_and(|values| values.contains(&fact.value));
            if !proposed {
                invalid += 1;
                let message = format!(
                    "{} decided value {} that nobody proposed",
                    fact.instance, fact.value
                );
                self.violations.push(violation("service.validity", message));
            }
        }
        let trials = new_facts.len() as u64;
        add_tally(tally, "service.exactly_once", shards, trials, duplicates);
        add_tally(tally, "service.validity", shards, trials, invalid);
    }

    /// One sifting window at scale `n`: seeded trials under random
    /// interleaving, half crash-injected, checked per trial.
    fn sift_window(&mut self, wsplit: &SeedSplitter, n: usize, tally: &mut Tally) {
        let window = self.window;
        let crashes = self.config.crashes;
        let outcomes: Vec<SiftOutcome> = {
            let build = &self.build;
            map_reduce(
                SIFT_TRIALS,
                |index| {
                    let seed = wsplit.seed("sift", ((n as u64) << 32) | index);
                    sift_trial(n, seed, crashes && index % 2 == 1, build)
                },
                Vec::new,
                |acc, outcome| acc.push(outcome),
            )
        };

        // Harvest schedule diversity for the fuzz lane's corpus.
        for outcome in outcomes.iter().take(HARVEST_PER_SCALE) {
            self.carried.push(CorpusEntry {
                genome: ScheduleGenome::from_genes(vec![Gene::Random {
                    seed: outcome.schedule_seed,
                    slots: outcome.script.len().max(1),
                }]),
                script: outcome.script.clone(),
                fingerprint: outcome.fingerprint,
            });
        }

        // Tally each claim, and shrink the first violating trial per
        // claim.
        for claim in &CLAIMS {
            // Each trial's verdict, unless the claim exempts it.
            let verdicts: Vec<(&SiftOutcome, bool)> = outcomes
                .iter()
                .filter_map(|o| Some((o, claim.check.violated(o)?)))
                .collect();
            if verdicts.is_empty() {
                continue; // outside the sifting lane, or every trial exempt
            }
            let trials = verdicts.len() as u64;
            let mut violating = verdicts.iter().filter(|(_, v)| *v).map(|(o, _)| *o);
            let violations = violating.clone().count() as u64;
            add_tally(tally, claim.id, n, trials, violations);
            // A nonzero rate bound (disagreement, ε = 1/2) expects
            // violating trials; only a window in which every trial
            // violates (probability ≤ ε^T on correct code, certain under
            // the biased-coin mutant) leaves a shrinkable witness.
            if claim.bound() > 0.0 && violations < trials {
                continue;
            }
            let Some(outcome) = violating.next() else {
                continue;
            };
            // The lane runs in the default environment, so a witness is
            // replayed and shrunk there.
            let env = Environment::default();
            let message = claim.check.witness(outcome);
            let (script, message) = if outcome.script.len() <= SHRINK_CAP {
                let fixture = TrialFixture::new(n, |b| (self.build)(b, n));
                let split = SeedSplitter::new(outcome.seed);
                let check = |r: &_| claim.check.replay(&fixture, env, r);
                fixture.shrink(&split, env, outcome.script.clone(), message, check)
            } else {
                (None, message)
            };
            self.violations.push(SoakViolation {
                window,
                claim: claim.id,
                scale: n,
                seed: outcome.seed,
                env,
                message,
                script,
                shrunk_from: outcome.script.len(),
            });
        }
    }

    /// One fuzz generation: carry the corpus forward, seed it with the
    /// harvested sifting schedules, evaluate one population.
    fn fuzz_window(&mut self, wsplit: &SeedSplitter, tally: &mut Tally) {
        let window = self.window;
        let mut fuzzer =
            Fuzzer::new(FUZZ_N, wsplit.seed("fuzz", 0)).with_extended_genes(self.config.extended);
        fuzzer.seed_corpus(std::mem::take(&mut self.carried));
        let found = run_generation(&mut fuzzer, FUZZ_N, FUZZ_POPULATION, wsplit, 0, &self.build);
        let (trials, violations) = (FUZZ_POPULATION as u64, found.len() as u64);
        add_tally(tally, "fuzz.invariants", FUZZ_N, trials, violations);
        for (seed, violation) in found {
            self.violations.push(SoakViolation {
                window,
                claim: "fuzz.invariants",
                scale: FUZZ_N,
                seed,
                env: violation.genome.environment(),
                message: violation.failure.message,
                script: violation.failure.shrunk,
                shrunk_from: violation.script.len(),
            });
        }
        self.fuzz_evaluated += fuzzer.evaluated();
        self.fuzz_coverage += fuzzer.coverage();
        self.carried = fuzzer.corpus().entries().to_vec();
    }
}

/// One soak claim, stated once: each window emits one row per scale.
struct Claim {
    /// Identifier: E22's where E22 checks the same claim.
    id: &'static str,
    /// Scales it is checked at (processes, shards, or fuzz `n`).
    scales: &'static [usize],
    /// What it checks.
    check: Check,
}

impl Claim {
    const fn new(id: &'static str, check: Check) -> Self {
        let scales: &[usize] = match check {
            Check::Service => &[SERVICE_SHARDS],
            Check::Invariants => &[FUZZ_N],
            _ => &SIFT_SCALES,
        };
        Self { id, scales, check }
    }

    /// The violation rate allowed: ε for disagreement, else zero.
    fn bound(&self) -> f64 {
        match self.check {
            Check::Agreement => SIFTER_EPS.get(),
            _ => 0.0,
        }
    }
}

/// Every claim checked each window, in the order of its rows: by id,
/// then scale.
static CLAIMS: [Claim; 8] = [
    Claim::new("T2.disagreement", Check::Agreement),
    Claim::new("T2.steps", Check::Steps),
    Claim::new("fuzz.invariants", Check::Invariants),
    Claim::new("service.exactly_once", Check::Service),
    Claim::new("service.recovery", Check::Service),
    Claim::new("service.validity", Check::Service),
    Claim::new("sift.liveness", Check::Liveness),
    Claim::new("sift.validity", Check::Validity),
];

/// What a claim checks: how the sifting lane judges a trial and words
/// its witness, and what a replay of a witness's script re-checks.
#[derive(Clone, Copy)]
enum Check {
    /// A service-lane property: no run, so no script to replay.
    Service,
    /// The fuzz lane's invariants, at the witness's adversary tier.
    Invariants,
    /// Every decided value agrees (Theorem 2's ε-bounded event).
    Agreement,
    /// Liveness depends on the schedule's tail, so no finite script
    /// replays it.
    Liveness,
    /// Exact-R step counts; a truncated replay script re-checks only
    /// the over-bound direction.
    Steps,
    /// Every decided value is some process's input.
    Validity,
}

impl Check {
    /// A sifting trial's verdict: whether it violates the check, `None`
    /// for a trial the check exempts (a crashed one, from step
    /// exactness) and outside the sifting lane.
    fn violated(self, o: &SiftOutcome) -> Option<bool> {
        match self {
            Self::Service | Self::Invariants => None,
            Self::Agreement => Some(!o.agree_ok),
            Self::Liveness => Some(!o.live_ok),
            Self::Steps => (!o.crashed).then_some(!o.steps_ok),
            Self::Validity => Some(!o.valid_ok),
        }
    }

    /// What a violating sifting trial's witness says.
    fn witness(self, o: &SiftOutcome) -> String {
        match self {
            Self::Agreement => {
                "every trial in the window disagreed — ε-bound refuted pointwise".into()
            }
            Self::Liveness => "a surviving process failed to decide".into(),
            Self::Steps => format!(
                "step-count exactness violated (over_bound: {})",
                o.over_bound
            ),
            Self::Validity => "a decided value was nobody's input".into(),
            Self::Service | Self::Invariants => unreachable!("not a sifting-lane check"),
        }
    }

    /// Re-checks a witness's replay in its `env`. A check no finite
    /// script replays passes every replay.
    fn replay<C>(
        self,
        fixture: &TrialFixture<C>,
        env: Environment,
        report: &RunReport<Recorder<C::Participant>>,
    ) -> Result<(), String>
    where
        C: Conciliator,
        C::Participant: RoundState,
    {
        match self {
            Self::Service | Self::Liveness => Ok(()),
            Self::Invariants => check_invariants(fixture, env.strength, report),
            Self::Agreement => check_agreement(report),
            Self::Steps => fixture.check_steps(report),
            Self::Validity => fixture.check_validity(report),
        }
    }
}

/// Every `(claim, scale)` row a window emits, in emission order.
fn claim_rows() -> impl Iterator<Item = (&'static Claim, usize)> {
    CLAIMS
        .iter()
        .flat_map(|claim| claim.scales.iter().map(move |&scale| (claim, scale)))
}

/// A window's `(trials, violations)` per row, in [`claim_rows`] order.
type Tally = Vec<(u64, u64)>;

fn add_tally(tally: &mut Tally, id: &str, scale: usize, trials: u64, violations: u64) {
    let row = claim_rows()
        .position(|(c, s)| c.id == id && s == scale)
        .expect("every claim is tallied at one of its scales");
    tally[row].0 += trials;
    tally[row].1 += violations;
}

/// Per-trial outcome of the sifting lane.
struct SiftOutcome {
    seed: u64,
    schedule_seed: u64,
    crashed: bool,
    over_bound: bool,
    steps_ok: bool,
    live_ok: bool,
    agree_ok: bool,
    valid_ok: bool,
    script: Vec<usize>,
    fingerprint: u64,
}

/// Runs one seeded sifting trial, optionally with a crashed quarter of
/// the processes, and checks the per-trial claims.
fn sift_trial<C>(
    n: usize,
    seed: u64,
    crash: bool,
    build: &impl Fn(&mut LayoutBuilder, usize) -> C,
) -> SiftOutcome
where
    C: Conciliator,
    C::Participant: RoundState,
{
    let fixture = TrialFixture::new(n, |b| build(b, n));
    let steps_bound = fixture.steps_bound();
    let split = SeedSplitter::new(seed);
    let schedule_seed = split.schedule_seed();
    let base = RandomInterleave::new(n, schedule_seed);
    let env = Environment::default();
    let (report, support): (_, Vec<usize>) = if crash {
        let schedule = CrashSubset::random(base, n, SIFT_CRASH_FRACTION, split.seed("crash", 0));
        let support = schedule.support().iter().map(|p| p.index()).collect();
        (fixture.run(&split, env, schedule, Some(0)), support)
    } else {
        (fixture.run(&split, env, base, Some(0)), (0..n).collect())
    };

    let trace = report.trace.as_ref().expect("trace recording was enabled");
    let script: Vec<usize> = trace.events().iter().map(|e| e.pid.index()).collect();
    let mut h = FingerprintHasher::new();
    h.write_u64(interleaving_signature(trace));
    for &ops in &report.metrics.per_process_ops {
        h.write_u64(ops);
    }
    let fingerprint = h.finish();

    let over_bound = fixture.check_steps(&report).is_err();
    // A crash-free run of a correct sifter finishes every process in
    // exactly R charged ops; a crashed run never reaches AllDone (the
    // crashed processes cannot decide) and is exempt.
    let steps_ok = !crash
        && report.stop_reason == StopReason::AllDone
        && report
            .metrics
            .per_process_ops
            .iter()
            .all(|&ops| ops == steps_bound);
    let live_ok = support.iter().all(|&pid| report.outputs[pid].is_some());
    let agree_ok = check_agreement(&report).is_ok();
    let valid_ok = fixture.check_validity(&report).is_ok();
    SiftOutcome {
        seed,
        schedule_seed,
        crashed: crash,
        over_bound,
        steps_ok,
        live_ok,
        agree_ok,
        valid_ok,
        script,
        fingerprint,
    }
}

/// Replays a shrunk violation script against the conciliator `build`
/// allocates — in the violation's own environment, checked at its
/// adversary's tier — and returns the reproduced error message, or
/// `None` when the script no longer violates (as it should against the
/// unmodified [`sifter`]). Only claims with a
/// replayable property are supported; service-lane violations return
/// `None`.
pub fn replay_violation_with<C>(
    violation: &SoakViolation,
    build: &impl Fn(&mut LayoutBuilder, usize) -> C,
) -> Option<String>
where
    C: Conciliator,
    C::Participant: RoundState,
{
    let script = violation.script.as_ref()?;
    let claim = CLAIMS.iter().find(|c| c.id == violation.claim)?;
    let n = violation.scale;
    let fixture = TrialFixture::new(n, |b| build(b, n));
    let env = violation.env;
    let report = fixture.replay(&SeedSplitter::new(violation.seed), env, script);
    claim.check.replay(&fixture, env, &report).err()
}

/// Runs a soak for `config.windows` windows against the
/// round-structured conciliator `build` allocates. Against the
/// unmodified [`sifter`] expect every row to
/// pass and the violation list to stay empty; handed a deliberately
/// broken sifter (the mutation tests in `tests/mutants.rs`), the
/// sliding-window checker must flag it within a bounded number of
/// windows and shrink a replayable witness.
pub fn run_soak_with<C>(
    config: &SoakConfig,
    build: impl Fn(&mut LayoutBuilder, usize) -> C + Sync + 'static,
) -> SoakReport
where
    C: Conciliator,
    C::Participant: RoundState,
{
    let mut soak = Soak::with_build(config.clone(), Box::new(build));
    for _ in 0..config.windows {
        soak.step();
    }
    soak.finish()
}

/// Drives the threaded frontend under load with worker kills between
/// batches: every queued proposal must survive the restarts, and
/// repeat proposals must come back with their original facts. This is
/// the non-deterministic (real threads, real wall clock) complement
/// of the golden-pinned deterministic crash model.
fn exercise_live_service(seed: u64, deadline: Instant) -> Result<(u64, u64), String> {
    let mut service = Service::start(ServiceConfig {
        shards: 8,
        workers: 4,
        shard: ShardConfig {
            seed,
            ..ShardConfig::default()
        },
    });
    let mut decided = 0u64;
    let mut restarts = 0u64;
    let mut round = 0u64;
    while Instant::now() < deadline {
        let base = round * 64;
        let queued: Vec<_> = (0..64u64)
            .map(|i| service.propose(InstanceId(base + i), i))
            .collect();
        service.restart_workers();
        restarts += 1;
        let mut originals = Vec::new();
        for future in queued {
            let fact = block_on(future)
                .map_err(|e| format!("queued proposal rejected across a restart: {e:?}"))?;
            originals.push(fact);
            decided += 1;
        }
        // Idempotence across the kill: repeats answer with the
        // original facts.
        for (i, original) in originals.iter().enumerate().step_by(16) {
            let repeat = service
                .propose_sync(InstanceId(base + i as u64), 9999)
                .map_err(|e| format!("repeat proposal rejected: {e:?}"))?;
            if repeat != *original {
                return Err(format!(
                    "idempotence broken across restart: {repeat:?} != {original:?}"
                ));
            }
        }
        round += 1;
    }
    service.shutdown();
    Ok((decided, restarts))
}

/// `exp soak` (E26): the soak table, and the trajectory to `json`.
///
/// `secs` (`SIFT_SOAK_SECS`) is the wall-clock budget. `0` runs a pure
/// tick budget of `config.windows` windows — the *deterministic* mode:
/// the emitted trajectory is byte-identical for a fixed seed at any
/// `SIFT_THREADS`, and is what `BENCH_conformance.json` golden-pins. A
/// nonzero budget loops windows until the deadline (window count then
/// depends on machine speed — not golden) and first exercises the
/// threaded [`Service`] with mid-load worker kills.
///
/// `json` (`SIFT_SOAK_JSON`) is schema-checked before overwriting (a
/// malformed existing file is refused rather than silently clobbering a
/// tracked trajectory), and the freshly rendered JSON is self-validated
/// before it is written.
///
/// Exit code 1 if a claim was flagged, a violation was found or an
/// output target was refused.
pub(crate) fn main(config: &SoakConfig, secs: u64, json: Option<&Path>) -> ExitCode {
    let start = Instant::now();
    let report = if secs == 0 {
        run_soak_with(config, sifter)
    } else {
        // Wall-clock soak: reserve a slice of the budget for the
        // threaded frontend, spend the rest on deterministic windows.
        let deadline = start + Duration::from_secs(secs);
        let live_deadline = start + Duration::from_secs((secs / 5).clamp(1, 30));
        if config.crashes {
            match exercise_live_service(config.seed, live_deadline) {
                Ok((decided, restarts)) => eprintln!(
                    "live service: {decided} proposals decided across {restarts} worker kills"
                ),
                Err(message) => {
                    eprintln!("live service FAILED: {message}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let mut soak = Soak::with_build(config.clone(), Box::new(sifter));
        loop {
            soak.step();
            if Instant::now() >= deadline {
                break;
            }
        }
        soak.finish()
    };

    report.render().print();
    let flagged = report.flagged().len();

    if let Some(path) = json {
        if let Err(e) = crate::schema::write_tracked(path, &Json::from(&report)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote conformance trajectory to {}", path.display());
    }

    for violation in &report.violations {
        eprintln!("\n{violation}");
    }
    eprintln!("total time: {:.1?}", start.elapsed());
    if flagged > 0 || !report.violations.is_empty() {
        eprintln!(
            "soak: {flagged} flagged row(s), {} violation(s)",
            report.violations.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_sim::adversary::AdversaryStrength;
    use sift_sim::{RegisterSemantics, Resolution};

    fn tiny() -> SoakConfig {
        SoakConfig {
            seed: 0x50AC,
            windows: 2,
            width: 2,
            crashes: true,
            extended: false,
        }
    }

    #[test]
    fn clean_soak_passes_every_claim() {
        let _guard = crate::exec::override_lock();
        let report = run_soak_with(&tiny(), sifter);
        assert_eq!(report.windows_run, 2);
        assert!(
            report.violations.is_empty(),
            "unexpected violation: {}",
            report.violations[0]
        );
        assert!(report.all_pass(), "flagged: {:?}", report.flagged());
        // Every claim row appears in every window, by id, then scale.
        assert_eq!(report.rows.len(), 2 * claim_rows().count());
        let window = &report.rows[..claim_rows().count()];
        assert!(window
            .windows(2)
            .all(|w| (&w[0].1.id, w[0].1.scale) < (&w[1].1.id, w[1].1.scale)));
        assert!(report.fuzz_evaluated > 0);
        assert!(report.service_decided > 0);
    }

    #[test]
    fn soak_digest_is_reproducible_and_seed_sensitive() {
        let _guard = crate::exec::override_lock();
        let a = run_soak_with(&tiny(), sifter);
        let b = run_soak_with(&tiny(), sifter);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(Json::from(&a), Json::from(&b));
        let mut other = tiny();
        other.seed = 0x50AD;
        assert_ne!(a.digest(), run_soak_with(&other, sifter).digest());
    }

    #[test]
    fn crash_injection_is_observable_in_the_trajectory() {
        let _guard = crate::exec::override_lock();
        let mut calm = tiny();
        calm.crashes = false;
        let crashed = run_soak_with(&tiny(), sifter);
        let calm = run_soak_with(&calm, sifter);
        // Both must pass, but they take different trajectories (the
        // sift lane runs different schedules).
        assert!(crashed.all_pass() && calm.all_pass());
        assert_ne!(crashed.digest(), calm.digest());
    }

    #[test]
    fn soak_json_validates_against_its_own_schema() {
        let _guard = crate::exec::override_lock();
        let report = run_soak_with(&tiny(), sifter);
        let text = sift_obs::json::write(&Json::from(&report));
        crate::schema::validate_bench_json("BENCH_conformance.json", &text)
            .expect("the soak trajectory must satisfy the tracked schema");
    }

    #[test]
    fn a_violation_is_written_and_digested_in_its_environment() {
        let env = Environment {
            strength: AdversaryStrength::Delayed(8),
            semantics: RegisterSemantics::Regular(Resolution::Coin(7)),
        };
        let mut report = SoakReport {
            config: tiny(),
            windows_run: 1,
            rows: Vec::new(),
            violations: vec![SoakViolation {
                window: 0,
                claim: "fuzz.invariants",
                scale: FUZZ_N,
                seed: 3,
                env,
                message: "step bound exceeded".into(),
                script: Some(vec![0, 1, 0]),
                shrunk_from: 9,
            }],
            fuzz_evaluated: 1,
            fuzz_coverage: 1,
            service_digest: 0,
            service_decided: 0,
        };
        let doc = Json::from(&report);
        let violations = doc.get("violations").and_then(Json::items).unwrap();
        let written = violations[0]
            .get("env")
            .expect("the violation names its environment");
        let field = |key| written.get(key).and_then(Json::as_str);
        assert_eq!(field("strength"), Some("delayed(8)"));
        assert_eq!(field("registers"), Some("regular/coin(7)"));
        let digest = report.digest();
        report.violations[0].env = Environment::default();
        assert_ne!(
            report.digest(),
            digest,
            "the digest must cover the environment"
        );
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut head = 0u64;
        let draws = 10_000;
        for _ in 0..draws {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 1000);
            if rank < 10 {
                head += 1;
            }
        }
        // With θ = 0.99 the top-10 ranks carry roughly 40% of the mass;
        // uniform would give 1%.
        assert!(head > draws / 5, "zipf head too light: {head}/{draws}");
    }

    #[test]
    fn stepwise_driver_matches_run_soak() {
        let _guard = crate::exec::override_lock();
        let config = tiny();
        let mut soak = Soak::with_build(config.clone(), Box::new(sifter));
        let first = soak.step().len();
        assert_eq!(first, claim_rows().count());
        soak.step();
        let stepped = soak.finish();
        assert_eq!(stepped.digest(), run_soak_with(&config, sifter).digest());
    }
}
