//! Statistical integration tests: the paper's quantitative guarantees,
//! measured end to end with enough trials to be decisive but few enough
//! to keep `cargo test` fast. (The full sweeps live in `sift-bench`.)
//!
//! Trials fan out over `sift_bench::exec::map_reduce`, so these tests
//! use every core while remaining bit-identical to a serial run.

use sift::core::analysis::{lemma1_expected_excess, sifting_expected_excess};
use sift::core::{
    distinct_per_round, Conciliator, EmbeddedConciliator, Epsilon, RoundHistory,
    SiftingConciliator, SnapshotConciliator,
};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::RandomInterleave;
use sift::sim::{Engine, LayoutBuilder};
use sift_bench::exec::map_reduce;
use sift_bench::stats::RoundExcess;

fn run_survivors<C>(
    n: usize,
    seed: u64,
    build: impl Fn(&mut LayoutBuilder) -> C,
) -> (Vec<usize>, bool, u64)
where
    C: Conciliator,
    C::Participant: RoundHistory,
{
    let mut b = LayoutBuilder::new();
    let c = build(&mut b);
    let layout = b.build();
    let split = SeedSplitter::new(seed);
    let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
    let report = Engine::new(&layout, procs).run(RandomInterleave::new(n, split.schedule_seed()));
    let counts = distinct_per_round(report.processes.iter().map(|p| p.history()));
    let total = report.metrics.total_steps;
    let agreed = {
        use std::collections::HashSet;
        let outs: HashSet<_> = report.decided().map(|p| p.origin()).collect();
        outs.len() == 1
    };
    (counts, agreed, total)
}

fn mean_excess<C>(
    n: usize,
    trials: usize,
    build: impl Fn(&mut LayoutBuilder) -> C + Sync,
) -> Vec<f64>
where
    C: Conciliator,
    C::Participant: RoundHistory,
{
    map_reduce(
        trials,
        |seed| run_survivors(n, seed, &build).0,
        RoundExcess::new,
        |acc, counts| acc.record(&counts),
    )
    .means()
}

/// Lemma 1, measured: the mean excess after each round of Algorithm 1
/// stays within the iterated-f bound (with sampling slack).
#[test]
fn lemma1_decay_holds_at_n_128() {
    let n = 128;
    let means = mean_excess(n, 60, |b| {
        SnapshotConciliator::allocate(b, n, Epsilon::HALF)
    });
    assert!(!means.is_empty());
    for (i, &mean) in means.iter().enumerate() {
        let bound = lemma1_expected_excess(n as u64, (i + 1) as u32);
        assert!(
            mean <= bound * 1.25,
            "round {}: measured {mean} vs bound {bound}",
            i + 1
        );
    }
}

/// Lemmas 3–4, measured: sifting excess follows x_i = 2√x_{i-1} then a
/// (3/4)-geometric tail.
#[test]
fn sifting_decay_holds_at_n_512() {
    let n = 512;
    let means = mean_excess(n, 60, |b| SiftingConciliator::allocate(b, n, Epsilon::HALF));
    assert!(!means.is_empty());
    for (i, &mean) in means.iter().enumerate() {
        let bound = sifting_expected_excess(n as u64, (i + 1) as u32);
        assert!(
            mean <= bound * 1.25,
            "round {}: measured {mean} vs bound {bound}",
            i + 1
        );
    }
}

/// Theorem 3, measured: Algorithm 3's expected total work is linear
/// with a small constant, and agreement beats 1/8 comfortably.
#[test]
fn theorem3_total_work_and_agreement() {
    let n = 256;
    let trials = 30usize;
    let (total, agreements) = map_reduce(
        trials,
        |seed| {
            let mut b = LayoutBuilder::new();
            let c = EmbeddedConciliator::allocate(&mut b, n);
            let layout = b.build();
            let split = SeedSplitter::new(seed);
            let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
            let report =
                Engine::new(&layout, procs).run(RandomInterleave::new(n, split.schedule_seed()));
            use std::collections::HashSet;
            let outs: HashSet<_> = report.decided().map(|p| p.origin()).collect();
            (report.metrics.total_steps, u64::from(outs.len() == 1))
        },
        || (0u64, 0u64),
        |(total, agreements), (t, a)| {
            *total += t;
            *agreements += a;
        },
    );
    let mean_total = total as f64 / trials as f64;
    assert!(
        mean_total < 30.0 * n as f64,
        "mean total {mean_total} not linear for n={n}"
    );
    assert!(
        agreements as f64 >= trials as f64 / 8.0,
        "agreement {agreements}/{trials} below 1/8"
    );
}

/// Theorems 1 and 2, measured at ε = 1/4: disagreement stays below ε.
#[test]
fn epsilon_budgets_are_respected() {
    let n = 32;
    let trials = 400usize;
    let eps = Epsilon::QUARTER;
    let (disagree_snapshot, disagree_sifting) = map_reduce(
        trials,
        |seed| {
            let (_, snap_agreed, _) =
                run_survivors(n, seed, |b| SnapshotConciliator::allocate(b, n, eps));
            let (_, sift_agreed, _) = run_survivors(n, seed + 100_000, |b| {
                SiftingConciliator::allocate(b, n, eps)
            });
            (u64::from(!snap_agreed), u64::from(!sift_agreed))
        },
        || (0u64, 0u64),
        |(snap, sift), (s1, s2)| {
            *snap += s1;
            *sift += s2;
        },
    );
    let budget = (trials as f64 * eps.get()) as u64;
    assert!(
        disagree_snapshot <= budget,
        "Algorithm 1: {disagree_snapshot}/{trials} disagreements exceed ε = 1/4"
    );
    assert!(
        disagree_sifting <= budget,
        "Algorithm 2: {disagree_sifting}/{trials} disagreements exceed ε = 1/4"
    );
}
