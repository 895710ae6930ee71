//! `sim-sift`: the simulator alone — schedule, event engine, process
//! step, simulator memory. Nothing from the service or the threaded
//! substrate runs.
//!
//! Phase *eager* runs whole trials of the Corollary 2 stack
//! (`sifting_consensus(n = 256, m = 4, base = 2)`) under
//! `RandomInterleave`; phase *lazy* runs single sifting rounds at
//! n = 10⁵ on the lazily materializing engine under `RoundRobin`, the
//! engine's other mode of use.

use std::sync::Arc;

use sift_consensus::{sifting_consensus, SiftingConsensus};
use sift_core::{Conciliator, Epsilon, SiftingConciliator};
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::{RandomInterleave, RoundRobin};
use sift_sim::{Engine, Layout, LayoutBuilder, ProcessId, StopReason};

use super::{run_phases, scaled, summarize, timed_setup, EndToEnd, Pick, Rep};
use crate::rng::SplitMix64;
use crate::sys;

/// Frozen sizes.
pub mod sizes {
    /// Eager: processes per trial.
    pub const EAGER_N: usize = 256;
    /// Eager: input domain `0..M`.
    pub const EAGER_M: u64 = 4;
    /// Eager: digit base of the adopt-commit.
    pub const EAGER_BASE: u64 = 2;
    /// Eager: trials per repetition.
    pub const EAGER_TRIALS: usize = 400;
    /// Lazy: declared processes per round.
    pub const LAZY_N: usize = 100_000;
    /// Lazy: rounds per repetition.
    pub const LAZY_ROUNDS: usize = 10;
}

/// What set-up builds for `sim-sift`.
pub struct SimSetup {
    /// Eager: processes per trial.
    pub n: usize,
    /// Eager: the layout of the stack.
    pub layout: Layout,
    /// Eager: the stack.
    pub protocol: SiftingConsensus,
    /// Eager: one protocol seed and one schedule seed per trial.
    pub trial_seeds: Vec<(u64, u64)>,
    /// Eager: `n` inputs per trial, trial-major.
    pub inputs: Vec<u8>,
    /// Lazy: declared processes.
    pub lazy_n: usize,
    /// Lazy: the conciliator's layout.
    pub lazy_layout: Layout,
    /// Lazy: the conciliator.
    pub lazy_conciliator: SiftingConciliator,
    /// Lazy: one protocol seed per round.
    pub lazy_seeds: Vec<u64>,
    /// Lazy: one input per process.
    pub lazy_inputs: Arc<Vec<u8>>,
}

/// Set-up of `sim-sift`: allocate both layouts and draw every trial's
/// seeds and inputs.
pub fn setup(seed: u64, scale: f64) -> SimSetup {
    let n = sizes::EAGER_N;
    let trials = scaled(sizes::EAGER_TRIALS, scale, 1);
    let mut rng = SplitMix64::fork(seed, "sim-eager");
    let mut builder = LayoutBuilder::new();
    let protocol = sifting_consensus(&mut builder, n, sizes::EAGER_M, sizes::EAGER_BASE);
    let layout = builder.build();
    let trial_seeds = (0..trials)
        .map(|_| (rng.next_u64(), rng.next_u64()))
        .collect();
    let inputs = (0..trials * n)
        .map(|_| rng.below(sizes::EAGER_M) as u8)
        .collect();

    let lazy_n = scaled(sizes::LAZY_N, scale, 1);
    let mut rng = SplitMix64::fork(seed, "sim-lazy");
    let mut builder = LayoutBuilder::new();
    let lazy_conciliator = SiftingConciliator::allocate(&mut builder, lazy_n, Epsilon::HALF);
    SimSetup {
        n,
        layout,
        protocol,
        trial_seeds,
        inputs,
        lazy_n,
        lazy_layout: builder.build(),
        lazy_conciliator,
        lazy_seeds: (0..sizes::LAZY_ROUNDS).map(|_| rng.next_u64()).collect(),
        lazy_inputs: Arc::new(
            (0..lazy_n)
                .map(|_| rng.below(sizes::EAGER_M) as u8)
                .collect(),
        ),
    }
}

/// One eager trial with a clock read at every layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct EagerTrial {
    /// Before the participants are built.
    pub t0: u64,
    /// Participants built, before `Engine::new`.
    pub t1: u64,
    /// Engine built, before `run`.
    pub t2: u64,
    /// `run` returned its report.
    pub t3: u64,
    /// `metrics.total_ops` of the report.
    pub ops: u64,
    /// `metrics.scheduled_slots()` of the report.
    pub slots: u64,
    /// `metrics.mean_individual_steps()` of the report.
    pub steps_per_proc: f64,
    /// Every process decided, all on one value, and that value was
    /// some process's input.
    pub ok: bool,
}

/// Runs eager trial `t`.
pub fn eager_trial(setup: &SimSetup, t: usize) -> EagerTrial {
    let n = setup.n;
    let inputs = &setup.inputs[t * n..(t + 1) * n];
    let (protocol_seed, schedule_seed) = setup.trial_seeds[t];
    let t0 = sys::now_ns();
    let split = SeedSplitter::new(protocol_seed);
    let processes: Vec<_> = (0..n)
        .map(|i| {
            let mut rng = split.stream("process", i as u64);
            setup
                .protocol
                .participant(ProcessId(i), inputs[i] as u64, &mut rng)
        })
        .collect();
    let t1 = sys::now_ns();
    let engine = Engine::new(&setup.layout, processes);
    let t2 = sys::now_ns();
    let report = engine.run(RandomInterleave::new(n, schedule_seed));
    let t3 = sys::now_ns();
    let first = report.outputs[0].as_ref().and_then(|o| o.value());
    let ok = first.is_some_and(|v| inputs.contains(&(v as u8)) && v < sizes::EAGER_M)
        && report
            .outputs
            .iter()
            .all(|o| o.as_ref().and_then(|o| o.value()) == first);
    EagerTrial {
        t0,
        t1,
        t2,
        t3,
        ops: report.metrics.total_ops,
        slots: report.metrics.scheduled_slots(),
        steps_per_proc: report.metrics.mean_individual_steps(),
        ok,
    }
}

impl EagerTrial {
    /// Adds this trial to its repetition. The latency sample is the
    /// trial's wall time — building its participants to its report —
    /// per event: trials differ in length (most decide in one phase,
    /// about a tenth need two), so per-trial times are bimodal and their
    /// p90 sits on the boundary between the modes, moving by a third
    /// with the seed.
    pub fn add_to(&self, rep: &mut Rep) {
        rep.work += self.ops;
        rep.wall_ns += self.t3 - self.t0;
        rep.samples
            .push((self.t3 - self.t0) as f64 / self.ops.max(1) as f64);
        rep.attempted += 1;
        rep.failed += u64::from(!self.ok);
    }
}

/// One eager repetition: every trial once.
pub fn eager_rep(setup: &SimSetup) -> Rep {
    let mut rep = Rep::default();
    for t in 0..setup.trial_seeds.len() {
        eager_trial(setup, t).add_to(&mut rep);
    }
    rep.seal();
    rep
}

/// One lazy round with its clock reads.
#[derive(Debug, Clone, Copy)]
pub struct LazyRound {
    /// Before `Engine::lazy`.
    pub t0: u64,
    /// `run_sparse` returned its report.
    pub t1: u64,
    /// `metrics.total_ops` of the report.
    pub ops: u64,
    /// Processes the round materialized.
    pub touched: usize,
    /// Exactly `2n` operations, stopped by the slot limit, every
    /// process touched once.
    pub ok: bool,
}

/// Runs lazy round `r`: every participant writes the round-0 register
/// and reads it back — `2n` events — under `RoundRobin`.
pub fn lazy_round(setup: &SimSetup, r: usize) -> LazyRound {
    let n = setup.lazy_n;
    let split = SeedSplitter::new(setup.lazy_seeds[r]);
    let conciliator = setup.lazy_conciliator.clone();
    let inputs = Arc::clone(&setup.lazy_inputs);
    let t0 = sys::now_ns();
    let mut engine = Engine::lazy(&setup.lazy_layout, n, move |pid| {
        let mut rng = split.stream("process", pid.index() as u64);
        conciliator.participant(pid, inputs[pid.index()] as u64, &mut rng)
    });
    engine.limit_slots(2 * n as u64);
    let report = engine.run_sparse(RoundRobin::new(n));
    let t1 = sys::now_ns();
    let ops = report.metrics.total_ops;
    LazyRound {
        t0,
        t1,
        ops,
        touched: report.touched_count(),
        ok: ops == 2 * n as u64
            && report.stop_reason == StopReason::SlotLimit
            && report.touched_count() == n,
    }
}

impl LazyRound {
    /// Adds this round to its repetition; the latency sample is the
    /// round's wall time including engine construction.
    pub fn add_to(&self, rep: &mut Rep) {
        rep.work += self.ops;
        rep.wall_ns += self.t1 - self.t0;
        rep.samples.push((self.t1 - self.t0) as f64);
        rep.attempted += 1;
        rep.failed += u64::from(!self.ok);
    }
}

/// One lazy repetition: every round once.
pub fn lazy_rep(setup: &SimSetup) -> Rep {
    let mut rep = Rep::default();
    for r in 0..setup.lazy_seeds.len() {
        lazy_round(setup, r).add_to(&mut rep);
    }
    rep.seal();
    rep
}

/// The sizes a run used, for the record.
pub fn sizes_of(setup: &SimSetup) -> Vec<(&'static str, u64)> {
    vec![
        ("eager_n", setup.n as u64),
        ("eager_trials_per_rep", setup.trial_seeds.len() as u64),
        ("lazy_n", setup.lazy_n as u64),
        ("lazy_rounds_per_rep", setup.lazy_seeds.len() as u64),
    ]
}

/// `sim-sift` end to end.
pub fn run(seed: u64, seconds: f64, scale: f64) -> EndToEnd {
    let build = || setup(seed, scale);
    let (setup, mut setup_rounds) = timed_setup(build);
    let [eager, lazy] = run_phases(
        seconds,
        || setup_rounds.again(build),
        |_| eager_rep(&setup),
        |_| lazy_rep(&setup),
    );
    EndToEnd {
        setup_rounds,
        phases: [
            summarize(&eager, Pick::FastDecile),
            summarize(&lazy, Pick::FastDecile),
        ],
        pinned: sys::Placement::get().pinned,
        sizes: sizes_of(&setup),
    }
}
