//! Event-engine throughput at scale (in-tree microbench harness).
//!
//! Two groups, each swept over n ∈ {10³, 10⁵, 10⁶}:
//!
//! * `engine_events` — one full round-robin round over `n` lazily
//!   materialized processes, each executing one register write per
//!   slot. One measured iteration schedules exactly `n` events, so
//!   events/second is `n / median_iteration_time`.
//! * `sifting_round` — one full round of Algorithm 2 (every
//!   participant writes its persona to the round register and reads it
//!   back: `2n` scheduled events) on the lazy engine. This is the
//!   headline number: the n = 10⁶ row must stay in single-digit
//!   seconds.
//!
//! The CI `sim-scale-smoke` job runs the n = 10⁵ tier on every PR and
//! the full 10⁶ tier nightly; the ledger's `sim-sift` workload is the
//! tracked measurement of this layer.

use sift_bench::microbench::{BenchmarkId, Criterion};
use sift_bench::{criterion_group, criterion_main};
use sift_core::{Conciliator, Epsilon, SiftingConciliator};
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::RoundRobin;
use sift_sim::{Engine, LayoutBuilder, Op, OpResult, Process, RegisterId, Step, StopReason};

/// Process scales for both groups. Override with `SIFT_BENCH_MAX_N` to
/// cap the sweep (the PR smoke tier stops at 10⁵; nightly runs all
/// three).
const SIZES: [usize; 3] = [1_000, 100_000, 1_000_000];

fn sizes(c: &Criterion) -> Vec<usize> {
    let cap = c.knobs().max_n.unwrap_or(usize::MAX);
    SIZES.iter().copied().filter(|&n| n <= cap).collect()
}

/// Writes its id to its own register on every slot, forever — the
/// minimal always-live load, so a slot-limited run measures pure
/// engine scheduling throughput.
struct Writer {
    reg: RegisterId,
    id: u64,
}

impl Process for Writer {
    type Value = u64;
    type Output = u64;

    fn step(&mut self, _prev: Option<OpResult<u64>>) -> Step<u64, u64> {
        Step::Issue(Op::RegisterWrite(self.reg, self.id))
    }
}

fn bench_engine_events(c: &mut Criterion) {
    let sizes = sizes(c);
    let mut group = c.benchmark_group("engine_events");
    for n in sizes {
        // One register per process, addressed by index (the layout is
        // built once; the paged memory materializes only written pages).
        let mut b = LayoutBuilder::new();
        for _ in 0..n {
            b.register();
        }
        let layout = b.build();
        group.bench_with_input(BenchmarkId::new("round_robin", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut engine = Engine::lazy(&layout, n, |pid| Writer {
                    reg: RegisterId::from_index(pid.index()),
                    id: pid.index() as u64,
                });
                engine.limit_slots(n as u64);
                let report = engine.run_sparse(RoundRobin::new(n));
                assert_eq!(report.stop_reason, StopReason::SlotLimit);
                assert_eq!(report.metrics.total_ops, n as u64);
                report.metrics.total_ops
            });
        });
    }
    group.finish();
}

fn bench_sifting_round(c: &mut Criterion) {
    let sizes = sizes(c);
    let mut group = c.benchmark_group("sifting_round");
    for n in sizes {
        let mut b = LayoutBuilder::new();
        let conciliator = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        group.bench_with_input(BenchmarkId::new("alg2_lazy", n), &n, |bench, &n| {
            let mut seed = 0u64;
            bench.iter(|| {
                seed += 1;
                let split = SeedSplitter::new(seed);
                let c = conciliator.clone();
                let mut engine = Engine::lazy(&layout, n, move |pid| {
                    let mut rng = split.process_stream(pid);
                    c.participant(pid, pid.index() as u64, &mut rng)
                });
                // One full round: every participant writes the round-0
                // register and reads it back.
                engine.limit_slots(2 * n as u64);
                let report = engine.run_sparse(RoundRobin::new(n));
                assert_eq!(report.metrics.total_ops, 2 * n as u64);
                report.metrics.total_ops
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_events, bench_sifting_round);
criterion_main!(benches);
