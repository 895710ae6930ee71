//! Wall-clock benches (in-tree microbench harness): the threaded shared-memory substrate — object
//! operation costs and a conciliator running on real threads.

use sift_bench::microbench::Criterion;
use sift_bench::{criterion_group, criterion_main};
use sift_core::{Conciliator, Epsilon, SiftingConciliator};
use sift_shmem::max_register::TreeMaxRegister;
use sift_shmem::runtime::run_threads;
use sift_shmem::snapshot::WaitFreeSnapshot;
use sift_sim::rng::SeedSplitter;
use sift_sim::LayoutBuilder;

fn bench_objects(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_objects");

    group.bench_function("waitfree_snapshot_update_scan_n16", |b| {
        let s = WaitFreeSnapshot::new(16);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            s.update((i % 16) as usize, i);
            s.scan()
        });
    });

    group.bench_function("tree_max_register_write_read_12bit", |b| {
        let m: TreeMaxRegister<u64> = TreeMaxRegister::new(12);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.write(i % (1 << 12), i);
            m.read()
        });
    });

    group.finish();
}

fn bench_threaded_conciliator(c: &mut Criterion) {
    let mut group = c.benchmark_group("threaded_runtime");
    group.sample_size(10);
    for &n in &[4usize, 8] {
        group.bench_function(format!("sifting_threads_n{n}"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut builder = LayoutBuilder::new();
                let conciliator = SiftingConciliator::allocate(&mut builder, n, Epsilon::HALF);
                let layout = builder.build();
                let split = SeedSplitter::new(seed);
                let procs = split.processes(n, |pid, rng| {
                    conciliator.participant(pid, pid.index() as u64, rng)
                });
                run_threads(&layout, procs)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_objects, bench_threaded_conciliator);
criterion_main!(benches);
