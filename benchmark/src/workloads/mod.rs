//! The five workloads. Each has two phases; a phase runs repetitions of
//! one fixed-size job, alternating with the other phase's, until
//! `--seconds` are spent, and reports one of them ([`Pick`]): the fast
//! decile where one thread runs, the median where two do.
//!
//! Only the narrow surface listed in `benchmark/README.md` ("surface
//! manifest") is called from here, so `ledger` keeps building when the
//! wider surface the traced run uses is reshaped.

pub mod service;
pub mod shmem;
pub mod sim;

use crate::stats::{best_decile, median, quantile_sorted, spread_share};
use crate::sys;

/// One of the ledger's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh instance per proposal: every proposal is a batch-of-one decision.
    ColdSingle,
    /// Eight conflicting proposals per fresh instance.
    ColdBatch8,
    /// Zipf repeats over a pre-decided table: every proposal is a table hit.
    HotZipf,
    /// The simulator alone.
    SimSift,
    /// The lock-free substrate alone, with the protocols' payload type.
    ShmemPersona,
}

impl Workload {
    /// Every workload, in ledger order.
    pub const ALL: [Workload; 5] = [
        Workload::ColdSingle,
        Workload::ColdBatch8,
        Workload::HotZipf,
        Workload::SimSift,
        Workload::ShmemPersona,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in
    /// every record.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSingle => "cold-single",
            Workload::ColdBatch8 => "cold-batch8",
            Workload::HotZipf => "hot-zipf",
            Workload::SimSift => "sim-sift",
            Workload::ShmemPersona => "shmem-persona",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the two phases are, and what one unit of `phaseN_per_s` and
    /// one sample of `phaseN_p50_ns` / `phaseN_p90_ns` mean there. The
    /// fourth entry is the name the issue gave the throughput metric.
    pub fn phases(self) -> [PhaseInfo; 2] {
        match self {
            Workload::ColdSingle => [
                PhaseInfo::new(
                    "det",
                    "decisions",
                    "tick_all ÷ facts, per tick",
                    "det_decisions_per_s",
                ),
                PhaseInfo::new(
                    "rt",
                    "proposals",
                    "propose_sync round trip",
                    "rt_proposals_per_s",
                )
                .two_threads(),
            ],
            Workload::ColdBatch8 => [
                PhaseInfo::new(
                    "det",
                    "decisions",
                    "tick_all ÷ facts, per tick",
                    "det_decisions_per_s",
                ),
                PhaseInfo::new(
                    "rt-burst",
                    "decisions",
                    "8-proposal burst until the reply",
                    "rt_burst_decisions_per_s",
                )
                .two_threads(),
            ],
            Workload::HotZipf => [
                PhaseInfo::new(
                    "det",
                    "proposals",
                    "ns per proposal, per 4096-proposal block",
                    "det_proposals_per_s",
                ),
                PhaseInfo::new(
                    "rt",
                    "proposals",
                    "propose_sync round trip",
                    "rt_proposals_per_s",
                )
                .two_threads(),
            ],
            Workload::SimSift => [
                PhaseInfo::new(
                    "eager",
                    "events",
                    "ns per event, per trial (build to report)",
                    "sim_events_per_s",
                ),
                PhaseInfo::new(
                    "lazy",
                    "events",
                    "one lazy sifting round",
                    "sim_lazy_events_per_s",
                ),
            ],
            Workload::ShmemPersona => [
                PhaseInfo::new(
                    "t1",
                    "ops",
                    "ns per op, per 1024-op block",
                    "persona_ops_per_s_t1",
                ),
                PhaseInfo::new(
                    "t2",
                    "ops",
                    "ns per op, per 1024-op block while both threads run",
                    "persona_ops_per_s_t2",
                )
                .two_threads(),
            ],
        }
    }
}

/// Description of one phase of a workload.
#[derive(Debug, Clone, Copy)]
pub struct PhaseInfo {
    /// Short phase name (`det`, `rt`, `eager`, …).
    pub name: &'static str,
    /// What `phaseN_per_s` counts.
    pub unit_of_work: &'static str,
    /// What one latency sample is.
    pub sample: &'static str,
    /// The issue's name for this phase's throughput on this workload.
    pub alias: &'static str,
    /// Which repetition the phase reports.
    pub pick: Pick,
}

/// Which of a phase's repetitions stands for the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The repetition a tenth of the way in from the fast end
    /// ([`best_decile`]): for a phase that runs one thread. A host
    /// neighbour only ever slows such a repetition, for seconds to
    /// minutes at a time, so the median repetition follows the
    /// neighbour and the fast decile follows the program.
    FastDecile,
    /// The median repetition: for a phase that runs two threads, where
    /// luck cuts both ways — a peer whose vCPU the host took away makes
    /// *t2* faster, and a hand-off is faster or slower by whether the
    /// host was still polling for the sleeping worker's wake-up.
    Median,
}

impl Pick {
    /// The word a record uses.
    pub fn word(self) -> &'static str {
        match self {
            Pick::FastDecile => "fast decile",
            Pick::Median => "median",
        }
    }

    fn of(self, values: &[f64], higher_is_better: bool) -> f64 {
        match self {
            Pick::FastDecile => best_decile(values, higher_is_better),
            Pick::Median => median(values),
        }
    }
}

impl PhaseInfo {
    const fn new(
        name: &'static str,
        unit_of_work: &'static str,
        sample: &'static str,
        alias: &'static str,
    ) -> Self {
        Self {
            name,
            unit_of_work,
            sample,
            alias,
            pick: Pick::FastDecile,
        }
    }

    const fn two_threads(mut self) -> Self {
        self.pick = Pick::Median;
        self
    }
}

/// What one repetition of a phase measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Units of work completed (decisions, proposals, events, ops).
    pub work: u64,
    /// Timed wall time of the repetition.
    pub wall_ns: u64,
    /// Latency samples, in nanoseconds, in the phase's sample unit;
    /// emptied by [`seal`](Self::seal).
    pub samples: Vec<f64>,
    /// p50, p90 and p99 of the samples, set by [`seal`](Self::seal).
    pub quantiles_ns: [f64; 3],
    /// How many samples the quantiles were taken over.
    pub sample_count: usize,
    /// Operations the repetition attempted …
    pub attempted: u64,
    /// … and how many of them failed a correctness check.
    pub failed: u64,
}

impl Rep {
    /// Reduces the samples to their quantiles and frees them. Every
    /// repetition is sealed as it ends: half a million round-trip
    /// samples kept for each of a dozen repetitions would be most of the
    /// process's peak memory, which is itself a reported metric.
    ///
    /// # Panics
    ///
    /// Panics if the repetition took no samples.
    pub fn seal(&mut self) {
        let mut samples = std::mem::take(&mut self.samples);
        samples.sort_by(f64::total_cmp);
        self.quantiles_ns = [0.5, 0.9, 0.99].map(|q| quantile_sorted(&samples, q));
        self.sample_count = samples.len();
    }
}

/// What a phase's repetitions come to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Work per second of the repetition the phase's [`Pick`] names.
    pub per_s: f64,
    /// Median latency sample of that repetition.
    pub p50_ns: f64,
    /// 90th-percentile latency sample of the median repetition
    /// (recorded, never gated).
    pub p90_ns: f64,
    /// 99th-percentile latency sample of the median repetition
    /// (recorded, never gated).
    pub p99_ns: f64,
    /// Spread of the repetitions (interquartile distance over median)
    /// of `per_s` and `p50_ns`, which `ledger diff` uses to tell a
    /// resolved change from one inside this run's own noise.
    pub spread: [f64; 2],
    /// Repetitions run.
    pub reps: usize,
    /// Latency samples in one repetition.
    pub samples_per_rep: usize,
    /// Attempted operations over all repetitions.
    pub attempted: u64,
    /// Failed operations over all repetitions.
    pub failed: u64,
}

/// Fewest repetitions a phase runs however short its budget.
pub const MIN_REPS: usize = 3;

/// Runs `rep` until `budget_s` seconds have passed (and at least
/// [`MIN_REPS`] times), handing it the repetition index.
pub fn run_reps(budget_s: f64, mut rep: impl FnMut(u32) -> Rep) -> Vec<Rep> {
    let start = sys::now_s();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || sys::now_s() - start < budget_s {
        reps.push(rep(reps.len() as u32));
    }
    reps
}

/// Runs the two phases' repetitions alternately — one of phase 1, one
/// of phase 2, then `between` (which re-times a cheap set-up, see
/// [`SetupRounds::again`]), and so on — until `budget_s` seconds have
/// passed (and at least [`MIN_REPS`] rounds). Alternating makes both
/// phases and the set-up sample the whole run: on a shared machine
/// whose speed shifts for seconds at a time, whatever is confined to one
/// stretch of the run inherits that stretch's luck.
pub fn run_phases(
    budget_s: f64,
    mut between: impl FnMut(),
    mut phase1: impl FnMut(u32) -> Rep,
    mut phase2: impl FnMut(u32) -> Rep,
) -> [Vec<Rep>; 2] {
    let start = sys::now_s();
    let mut reps = [Vec::new(), Vec::new()];
    while reps[0].len() < MIN_REPS || sys::now_s() - start < budget_s {
        let round = reps[0].len() as u32;
        reps[0].push(phase1(round));
        reps[1].push(phase2(round));
        between();
    }
    reps
}

/// Reduces repetitions to the phase's numbers: throughput and median
/// latency are the repetition `pick` names; the tails (p90, p99: what a
/// client feels, recorded but not gated) are always the median
/// repetition's.
///
/// # Panics
///
/// Panics if `reps` is empty or a repetition was not sealed.
pub fn summarize(reps: &[Rep], pick: Pick) -> PhaseStats {
    assert!(
        reps.iter().all(|r| r.sample_count > 0),
        "unsealed repetition"
    );
    let each = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let per_s = each(&|r| r.work as f64 * 1e9 / r.wall_ns.max(1) as f64);
    let [p50, p90, p99] = [0, 1, 2].map(|q| each(&|r| r.quantiles_ns[q]));
    PhaseStats {
        per_s: pick.of(&per_s, true),
        p50_ns: pick.of(&p50, false),
        p90_ns: median(&p90),
        p99_ns: median(&p99),
        spread: [&per_s, &p50].map(|values| spread_share(values)),
        reps: reps.len(),
        samples_per_rep: reps[0].sample_count,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
    }
}

/// Scales a frozen size by `--scale` (1.0 in every measured run; about
/// 0.01 under `--check`), keeping it a positive multiple of `multiple`.
pub fn scaled(size: usize, scale: f64, multiple: usize) -> usize {
    let raw = (size as f64 * scale).round() as usize;
    (raw / multiple).max(1) * multiple
}

/// Both phases of an end-to-end run plus how long set-up took.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Every set-up round's duration.
    pub setup_rounds: SetupRounds,
    /// Phase 1 and phase 2.
    pub phases: [PhaseStats; 2],
    /// Whether the threaded phase ran pinned.
    pub pinned: bool,
    /// The frozen sizes this run used, for the record.
    pub sizes: Vec<(&'static str, u64)>,
}

/// Set-up rounds before anything else runs.
pub const SETUP_ROUNDS: usize = 5;
/// A set-up whose fastest round so far took less than this is timed
/// once more after every round of the phases.
pub const SETUP_CHEAP_S: f64 = 0.01;

/// Every set-up round's duration in seconds; `setup_s` is their
/// [`best_decile`].
#[derive(Debug, Clone, Default)]
pub struct SetupRounds(pub Vec<f64>);

impl SetupRounds {
    /// Times one round of `setup` and returns what it built.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = sys::now_ns();
        let built = setup();
        self.0.push((sys::now_ns() - start) as f64 / 1e9);
        built
    }

    /// One more round — its product dropped — if the set-up is cheap
    /// ([`SETUP_CHEAP_S`]). The phases call this between their rounds,
    /// so a sub-millisecond set-up is timed dozens of times across the
    /// whole run instead of five times in its first millisecond. A
    /// set-up that takes longer keeps its five rounds: timing it again
    /// would eat the run, and building its product a second time beside
    /// the first would become the process's peak memory.
    pub fn again<T>(&mut self, setup: impl FnOnce() -> T) {
        if self.0.iter().any(|&round| round < SETUP_CHEAP_S) {
            drop(self.time(setup));
        }
    }

    /// `setup_s`.
    pub fn setup_s(&self) -> f64 {
        best_decile(&self.0, false)
    }
}

/// Runs `setup` [`SETUP_ROUNDS`] times — dropping each round's result
/// before the next starts — and returns the last result with every
/// round's duration.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, SetupRounds) {
    let mut rounds = SetupRounds::default();
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        drop(last.take());
        last = Some(rounds.time(&mut setup));
    }
    (last.expect("SETUP_ROUNDS > 0"), rounds)
}

/// Runs one workload end to end: set-up, then both phases' repetitions
/// alternating for `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64, scale: f64) -> EndToEnd {
    // Settle placement before anything is timed: the main thread stays
    // on the client core for the whole run, single-threaded phases
    // included — the scheduler moving it mid-phase is noise, not work.
    sys::Placement::get();
    match workload {
        Workload::ColdSingle => service::run_cold(1, seed, seconds, scale),
        Workload::ColdBatch8 => service::run_cold(8, seed, seconds, scale),
        Workload::HotZipf => service::run_hot(seed, seconds, scale),
        Workload::SimSift => sim::run(seed, seconds, scale),
        Workload::ShmemPersona => shmem::run(seed, seconds, scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
            // Phase 1 is single-threaded everywhere; phase 2 runs two
            // threads everywhere but in the simulator.
            let [one, two] = workload.phases().map(|phase| phase.pick);
            assert_eq!(one, Pick::FastDecile);
            assert_eq!(two == Pick::Median, workload != Workload::SimSift);
        }
        assert_eq!(Workload::from_name("warm"), None);
    }

    #[test]
    fn summarize_takes_the_fast_decile_and_the_median_tail() {
        let rep = |wall_ns: u64, base: f64| {
            let mut rep = Rep {
                work: 1_000,
                wall_ns,
                samples: (1..=10).rev().map(|i| base * i as f64).collect(),
                attempted: 1_000,
                ..Rep::default()
            };
            rep.seal();
            assert!(rep.samples.is_empty());
            rep
        };
        // Disturbed repetitions (up to 4× slower) do not move the result.
        let reps = [
            rep(1_100_000, 1.1),
            rep(4_000_000, 4.0),
            rep(1_000_000, 1.0),
        ];
        let middle = summarize(&reps, Pick::Median);
        assert!((middle.per_s - 1e9 / 1.1e3).abs() < 1.0);
        assert!((middle.p50_ns - 5.5).abs() < 1e-9);
        let stats = summarize(&reps, Pick::FastDecile);
        assert!((stats.per_s - 1e9 / 1e3).abs() < 1.0);
        assert!((stats.p50_ns - 5.0).abs() < 1e-9);
        assert!((stats.p90_ns - 9.9).abs() < 1e-9);
        assert_eq!((stats.reps, stats.samples_per_rep), (3, 10));
        assert!(stats.spread.iter().all(|&s| s > 0.0));
        assert_eq!((stats.attempted, stats.failed), (3_000, 0));
    }

    #[test]
    fn scaled_sizes_stay_positive_multiples() {
        assert_eq!(scaled(100_000, 1.0, 64), 99_968);
        assert_eq!(scaled(100_000, 0.01, 64), 960);
        assert_eq!(scaled(100, 0.001, 64), 64);
    }

    #[test]
    fn rep_loops_run_at_least_the_minimum() {
        let rep = |i: u32| Rep {
            work: i as u64,
            sample_count: 1,
            ..Rep::default()
        };
        assert_eq!(run_reps(0.0, rep).len(), MIN_REPS);
        let mut order = Vec::new();
        let mut between = 0;
        let [a, b] = run_phases(
            0.0,
            || between += 1,
            |i| {
                order.push((1, i));
                rep(i)
            },
            |i| rep(i + 10),
        );
        assert_eq!((a.len(), b.len(), between), (MIN_REPS, MIN_REPS, MIN_REPS));
        assert_eq!(b[2].work, 12);
        assert_eq!(order, [(1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn only_a_cheap_setup_is_timed_again() {
        let (built, mut rounds) = timed_setup(|| 7);
        assert_eq!((built, rounds.0.len()), (7, SETUP_ROUNDS));
        rounds.again(|| 8);
        assert_eq!(rounds.0.len(), SETUP_ROUNDS + 1);
        assert!(rounds.setup_s() <= rounds.0[0]);
        let mut slow = SetupRounds(vec![1.5, 1.6, 1.4]);
        slow.again(|| unreachable!("a set-up that takes seconds keeps its rounds"));
        assert_eq!(slow.setup_s(), 1.4);
    }
}
