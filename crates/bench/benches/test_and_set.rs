//! Wall-clock benches (in-tree microbench harness): test-and-set cost (wall-clock form of E17).

use sift_bench::microbench::{BenchmarkId, Criterion};
use sift_bench::{criterion_group, criterion_main};
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::RandomInterleave;
use sift_sim::{Engine, LayoutBuilder};
use sift_tas::{SiftingTas, TournamentTas};

fn bench_tas(c: &mut Criterion) {
    let mut group = c.benchmark_group("test_and_set_run");
    for &n in &[16usize, 256] {
        group.bench_with_input(BenchmarkId::new("sifting_tas", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut builder = LayoutBuilder::new();
                let tas = SiftingTas::allocate(&mut builder, n);
                let layout = builder.build();
                let split = SeedSplitter::new(seed);
                let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
                Engine::new(&layout, procs).run(RandomInterleave::new(n, split.schedule_seed()))
            });
        });
        group.bench_with_input(BenchmarkId::new("tournament_tas", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut builder = LayoutBuilder::new();
                let tas = TournamentTas::allocate(&mut builder, n);
                let layout = builder.build();
                let split = SeedSplitter::new(seed);
                let procs = split.processes(n, |pid, rng| tas.participant(pid, rng));
                Engine::new(&layout, procs).run(RandomInterleave::new(n, split.schedule_seed()))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tas);
criterion_main!(benches);
