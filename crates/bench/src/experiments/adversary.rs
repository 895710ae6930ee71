//! E12/E16 — robustness across adversary strategies, and wait-freedom
//! under crash failures — plus E24, the adversary-lattice sweep:
//! agreement as a function of adversary strength (oblivious →
//! k-delayed → late → adaptive) on both the atomic and the regular
//! register substrate.

use std::collections::HashSet;
use std::path::Path;
use std::process::ExitCode;

use sift_core::{
    CilConciliator, Conciliator, EmbeddedConciliator, Epsilon, EscalatingCilConciliator, Persona,
    SiftingConciliator, SnapshotConciliator,
};
use sift_obs::json::Json;
use sift_sim::adversary::AdversaryStrength;
use sift_sim::fuzz::{Environment, FingerprintHasher};
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::{CrashSubset, RandomInterleave, RoundRobin, Schedule, ScheduleKind};
use sift_sim::{LayoutBuilder, Process, ProcessId, RegisterSemantics, Resolution, RunReport};

use crate::conformance::{self, ClaimResult};
use crate::exec::Batch;
use crate::runner::{default_trials, sifter, TrialFixture};
use crate::stats::RateCounter;
use crate::table::{fmt_f64, Table};

/// Agreement rates per (conciliator, schedule family), wait-freedom
/// under crash subsets, and the adversary-lattice sweep: what `exp all`
/// prints for this entry.
pub(crate) fn run() -> Vec<Table> {
    let mut tables = run_base();
    tables.push(run_lattice(LATTICE_N, default_trials(LATTICE_TRIALS)).table());
    tables
}

/// The E12/E16 tables alone — the lattice sweep is separate so [`main`]
/// can reuse one sweep for the table, the digest, and the
/// `BENCH_adversary.json` artifact.
fn run_base() -> Vec<Table> {
    vec![schedules(), crashes()]
}

/// `exp adversary`: the [`run`] tables with the lattice digest, plus
/// the E25 negative conformance tier that pins the obliviousness
/// boundary. `json` (`SIFT_ADVERSARY_JSON`) receives the lattice sweep
/// and the negative-tier verdicts — `just bench-json` points it at
/// `BENCH_adversary.json`.
///
/// Exit code 1 if any negative-tier case lands on the wrong side of the
/// boundary or the JSON could not be written.
pub(crate) fn main(json: Option<&Path>) -> ExitCode {
    for t in run_base() {
        t.print();
    }

    let lattice = run_lattice(LATTICE_N, default_trials(LATTICE_TRIALS));
    lattice.table().print();
    println!("lattice digest: {:#018x}\n", lattice.digest());

    let negative = conformance::run_negative(default_trials(1));
    conformance::render_negative(&negative).print();
    println!("negative digest: {:#018x}", conformance::digest(&negative));

    if let Some(path) = json {
        if let Err(e) = crate::schema::write_tracked(path, &lattice.to_json(&negative)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote adversary report to {}", path.display());
    }

    if !conformance::all_pass(&negative) {
        eprintln!("negative conformance: a case landed on the wrong side of the boundary");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Instance size of the lattice sweep (adaptive runs scan the live set
/// each step, so this stays below the E12 n = 64).
pub const LATTICE_N: usize = 32;

/// Default trials per lattice cell (scaled by `SIFT_TRIALS`).
pub const LATTICE_TRIALS: usize = 100;

/// One cell of the agreement-vs-adversary-strength sweep: a lattice
/// point × substrate pair with integer tallies (integers, not rates, so
/// the [`digest`](LatticeReport::digest) is exact and thread-invariant).
#[derive(Debug, Clone)]
pub struct LatticeCell {
    /// Lattice point name (see [`AdversaryStrength::name`]).
    pub strength: String,
    /// `"atomic"` or `"regular"`.
    pub substrate: &'static str,
    /// Trials behind the tallies.
    pub trials: u64,
    /// Trials where every decided process returned one persona.
    pub agreements: u64,
    /// Sum over trials of the distinct-output count.
    pub distinct_sum: u64,
}

impl LatticeCell {
    /// Fraction of trials that agreed.
    pub fn agree_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.agreements as f64 / self.trials as f64
        }
    }

    /// Mean distinct outputs per trial.
    pub(crate) fn mean_distinct(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.distinct_sum as f64 / self.trials as f64
        }
    }
}

/// The E24 sweep: the sifting conciliator at every adversary-lattice
/// point, on the atomic and the regular (coin-resolved) substrate.
#[derive(Debug)]
pub struct LatticeReport {
    /// Processes per trial.
    pub n: usize,
    /// One cell per lattice point × substrate, in sweep order.
    pub cells: Vec<LatticeCell>,
}

impl LatticeReport {
    /// Renders the sweep as the E24 table.
    pub(crate) fn table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "E24 — agreement vs adversary strength (sifting, n = {}, distinct inputs)",
                self.n
            ),
            &[
                "adversary",
                "substrate",
                "trials",
                "agree rate",
                "mean distinct outputs",
            ],
        );
        for c in &self.cells {
            table.row(vec![
                c.strength.clone(),
                c.substrate.to_string(),
                c.trials.to_string(),
                fmt_f64(c.agree_rate()),
                fmt_f64(c.mean_distinct()),
            ]);
        }
        table.note(
            "Strength decreases left-to-right along the lattice: the oblivious row is the \
             paper's model; delayed choosers interpolate; the adaptive row is the E20 \
             breaker. The regular substrate resolves overlapping reads by coin, weakening \
             sifting even against the oblivious adversary.",
        );
        table
    }

    /// The sweep, its [`digest`](Self::digest) and the negative tier's
    /// verdicts as a small JSON document (tracked in
    /// `BENCH_adversary.json`).
    pub(crate) fn to_json(&self, negative: &[ClaimResult]) -> Json {
        let cells = self.cells.iter().map(|c| {
            Json::obj([
                ("strength", c.strength.as_str().into()),
                ("substrate", c.substrate.into()),
                ("trials", c.trials.into()),
                ("agreements", c.agreements.into()),
                ("agree_rate", Json::fixed(c.agree_rate(), 4)),
                ("mean_distinct", Json::fixed(c.mean_distinct(), 4)),
            ])
        });
        let negative = negative.iter().map(|r| {
            Json::obj([
                ("id", r.id.as_str().into()),
                ("trials", r.trials.into()),
                ("pass", r.pass.into()),
            ])
        });
        Json::obj([
            ("n", self.n.into()),
            ("cells", Json::Arr(cells.collect())),
            ("lattice_digest", format!("{:#018x}", self.digest()).into()),
            ("negative", Json::Arr(negative.collect())),
        ])
    }

    /// FNV digest over the integer tallies — the seed-stability
    /// regression hook, byte-identical across `SIFT_THREADS`.
    pub fn digest(&self) -> u64 {
        let mut h = FingerprintHasher::new();
        h.write_usize(self.n);
        for c in &self.cells {
            h.write_bytes(c.strength.as_bytes());
            h.write_bytes(c.substrate.as_bytes());
            h.write_u64(c.trials);
            h.write_u64(c.agreements);
            h.write_u64(c.distinct_sum);
        }
        h.finish()
    }
}

/// A named substrate: a label plus a per-trial-seed semantics choice.
type Substrate = (&'static str, fn(u64) -> RegisterSemantics);

/// Runs the lattice sweep: every [`AdversaryStrength::lattice`] point ×
/// {atomic, regular} substrate, `trials` seeded trials per cell. Seeds
/// are fixed per cell (independent of `SIFT_SEED`), so the report's
/// [`digest`](LatticeReport::digest) is a stable golden.
pub fn run_lattice(n: usize, trials: usize) -> LatticeReport {
    let split = SeedSplitter::new(0x5EED_AD7E);
    let substrates: [Substrate; 2] = [
        ("atomic", |_| RegisterSemantics::Atomic),
        ("regular", |seed| {
            RegisterSemantics::Regular(Resolution::Coin(seed))
        }),
    ];
    let mut cells = Vec::new();
    for (i, strength) in AdversaryStrength::lattice().into_iter().enumerate() {
        for (j, (substrate, semantics_of)) in substrates.into_iter().enumerate() {
            let (agree, distinct_sum) = Batch::new(n, trials, ScheduleKind::RandomInterleave)
                .with_master_seed(split.seed("cell", (i * substrates.len() + j) as u64))
                .run_with(
                    |spec| lattice_trial(n, spec.seed, strength, semantics_of),
                    || (RateCounter::new(), 0u64),
                    |(agree, sum), (ok, d)| {
                        agree.record(ok);
                        *sum += d as u64;
                    },
                );
            cells.push(LatticeCell {
                strength: strength.name(),
                substrate,
                trials: agree.total(),
                agreements: agree.hits(),
                distinct_sum,
            });
        }
    }
    LatticeReport { n, cells }
}

/// One sifting trial under a lattice point and substrate (see
/// [`TrialFixture::run`]): oblivious strengths run the fixed
/// [`RandomInterleave`] schedule, stronger points the E20 sifting
/// breaker on `k`-stale observations. Returns whether the decided
/// outputs agree and how many distinct ones there are.
pub(super) fn lattice_trial(
    n: usize,
    seed: u64,
    strength: AdversaryStrength,
    semantics_of: fn(u64) -> RegisterSemantics,
) -> (bool, usize) {
    let fixture = TrialFixture::new(n, |b| sifter(b, n));
    let split = SeedSplitter::new(seed);
    let env = Environment {
        strength,
        semantics: semantics_of(split.seed("regular", 0)),
    };
    let schedule = RandomInterleave::new(n, split.schedule_seed());
    let distinct = distinct_origins(&fixture.run(&split, env, schedule, None));
    (distinct <= 1, distinct)
}

/// How many distinct personae a run decided, told apart by origin.
pub(super) fn distinct_origins<P: Process<Output = Persona>>(report: &RunReport<P>) -> usize {
    let origins: HashSet<ProcessId> = report
        .outputs
        .iter()
        .flatten()
        .map(|p| p.origin())
        .collect();
    origins.len()
}

type BatchFn = Box<dyn Fn(ScheduleKind, usize) -> RateCounter>;

fn schedules() -> Table {
    let mut table = Table::new(
        "E12 — agreement rate per adversary strategy",
        &[
            "conciliator",
            "guarantee",
            "round-robin",
            "random",
            "block-seq",
            "block-rot",
            "stutter",
        ],
    );
    let n = 64;
    let trials = default_trials(300);
    fn rate_of<C: Conciliator>(
        n: usize,
        trials: usize,
        kind: ScheduleKind,
        build: impl Fn(&mut LayoutBuilder) -> C + Sync,
    ) -> RateCounter {
        Batch::new(n, trials, kind).run(build, RateCounter::new, |r, t| r.record(t.agreed))
    }
    let algs: [(&str, &str, BatchFn); 5] = [
        (
            "Alg 1 (snapshot)",
            "≥ 0.5",
            Box::new(move |kind, trials| {
                rate_of(n, trials, kind, |b| {
                    SnapshotConciliator::allocate(b, n, Epsilon::HALF)
                })
            }),
        ),
        (
            "Alg 2 (sifting)",
            "≥ 0.5",
            Box::new(move |kind, trials| {
                rate_of(n, trials, kind, |b| {
                    SiftingConciliator::allocate(b, n, Epsilon::HALF)
                })
            }),
        ),
        (
            "Alg 3 (embedded)",
            "≥ 0.125",
            Box::new(move |kind, trials| {
                rate_of(n, trials, kind, |b| EmbeddedConciliator::allocate(b, n))
            }),
        ),
        (
            "CIL",
            "≥ 0.75",
            Box::new(move |kind, trials| {
                rate_of(n, trials, kind, |b| CilConciliator::allocate(b, n))
            }),
        ),
        (
            "escalating CIL",
            "≥ 0.25",
            Box::new(move |kind, trials| {
                rate_of(n, trials, kind, |b| {
                    EscalatingCilConciliator::allocate(b, n)
                })
            }),
        ),
    ];
    for (name, guarantee, runner) in &algs {
        let mut cells = vec![name.to_string(), guarantee.to_string()];
        for kind in ScheduleKind::all() {
            let rate = runner(kind, trials);
            cells.push(fmt_f64(rate.rate()));
        }
        table.row(cells);
    }
    table.note(
        "Every strategy is oblivious (fixed before coin flips); the guarantees hold across \
         all of them, as Theorems 1–3 require.",
    );
    table
}

fn crashes() -> Table {
    let mut table = Table::new(
        "E16 — wait-freedom: sifting conciliator under crash subsets",
        &[
            "n",
            "crash fraction",
            "live processes",
            "live decided",
            "validity",
        ],
    );
    let n = 64;
    for &fraction in &[0.25, 0.5, 0.9] {
        // One representative row per fraction; the batch checks all seeds.
        let (live, decided, valid) = crash_run(n, fraction, 0);
        table.row(vec![
            n.to_string(),
            fraction.to_string(),
            live.to_string(),
            decided.to_string(),
            if valid { "yes" } else { "NO" }.to_string(),
        ]);
        // Check every seed; in-trial asserts propagate through the
        // executor's panic forwarding.
        Batch::new(n, default_trials(20), ScheduleKind::RoundRobin).run_with(
            |spec| {
                let (live, decided, valid) = crash_run(n, fraction, spec.seed);
                assert_eq!(live, decided, "wait-freedom violated at seed {}", spec.seed);
                assert!(valid, "validity violated at seed {}", spec.seed);
            },
            || (),
            |(), ()| {},
        );
    }
    table
        .note("Crashed processes never take a step; all survivors still terminate (wait-freedom).");
    table
}

fn crash_run(n: usize, fraction: f64, seed: u64) -> (usize, usize, bool) {
    let fixture = TrialFixture::new(n, |b| sifter(b, n));
    let split = SeedSplitter::new(seed);
    let schedule = CrashSubset::random(RoundRobin::new(n), n, fraction, split.schedule_seed());
    let live = schedule.support().len();
    let report = fixture.run(&split, Environment::default(), schedule, None);
    let decided = report.decided().count();
    let valid = report.decided().all(|p| p.input() < n as u64);
    (live, decided, valid)
}
