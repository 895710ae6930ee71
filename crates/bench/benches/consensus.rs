//! Wall-clock benches (in-tree microbench harness): full consensus stacks end to end (wall-clock form
//! of experiments E8/E9).

use sift_bench::microbench::{BenchmarkId, Criterion};
use sift_bench::{criterion_group, criterion_main};
use sift_consensus::{
    cil_consensus, linear_work_consensus, max_register_consensus, sifting_consensus,
    snapshot_consensus,
};
use sift_core::Persona;
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::RandomInterleave;
use sift_sim::{Engine, LayoutBuilder};

fn run_consensus<C, A>(
    layout: &sift_sim::Layout,
    protocol: &sift_consensus::ConsensusProtocol<C, A>,
    n: usize,
    seed: u64,
) where
    C: sift_core::Conciliator,
    A: sift_adopt_commit::AdoptCommit<Persona>,
{
    let split = SeedSplitter::new(seed);
    let procs = split.processes(n, |pid, rng| {
        protocol.participant(pid, (pid.index() % 4) as u64, rng)
    });
    let report = Engine::new(layout, procs).run(RandomInterleave::new(n, split.schedule_seed()));
    assert!(report.all_decided());
}

fn bench_consensus(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus_run");
    for &n in &[8usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("snapshot_cor1", n), &n, |b, &n| {
            let mut builder = LayoutBuilder::new();
            let p = snapshot_consensus(&mut builder, n);
            let layout = builder.build();
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                run_consensus(&layout, &p, n, seed)
            });
        });
        group.bench_with_input(BenchmarkId::new("max_register_cor1", n), &n, |b, &n| {
            let mut builder = LayoutBuilder::new();
            let p = max_register_consensus(&mut builder, n);
            let layout = builder.build();
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                run_consensus(&layout, &p, n, seed)
            });
        });
        group.bench_with_input(BenchmarkId::new("sifting_cor2", n), &n, |b, &n| {
            let mut builder = LayoutBuilder::new();
            let p = sifting_consensus(&mut builder, n, 4, 2);
            let layout = builder.build();
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                run_consensus(&layout, &p, n, seed)
            });
        });
        group.bench_with_input(BenchmarkId::new("linear_work_cor3", n), &n, |b, &n| {
            let mut builder = LayoutBuilder::new();
            let p = linear_work_consensus(&mut builder, n, 4, 2);
            let layout = builder.build();
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                run_consensus(&layout, &p, n, seed)
            });
        });
        group.bench_with_input(BenchmarkId::new("cil_baseline", n), &n, |b, &n| {
            let mut builder = LayoutBuilder::new();
            let p = cil_consensus(&mut builder, n);
            let layout = builder.build();
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                run_consensus(&layout, &p, n, seed)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_consensus);
criterion_main!(benches);
