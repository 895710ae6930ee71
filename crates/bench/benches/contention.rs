//! Multi-threaded contention benches: the lock-free substrate objects
//! against the model under one lock (`Mutex<sift_sim::Memory<u64>>`,
//! driven through `ExecuteOps` — the suites' reference) under a mixed
//! read/write load, swept across thread counts.
//!
//! Worker threads are spawned once per benchmark, pinned round-robin
//! to cores (when the platform supports it — the first line printed
//! says whether it did), and coordinated with barriers; each
//! measured iteration is one *round* in which every worker drives a
//! fixed, interleaved operation sequence through one shared object.
//! All workers start a round together, so the substrates see genuine
//! sustained interference (not a spawn-staggered sequence of solo
//! phases), and the reported per-iteration time is inversely
//! proportional to t-thread throughput.
//!
//! The contention groups sweep `t ∈ {2, 4, 8, 16}` by default;
//! `SIFT_BENCH_THREADS` (a comma-separated list) overrides the sweep.
//! Every contention row's id ends in its thread count (`lockfree/t8`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::thread;

use sift_bench::microbench::{Bencher, Criterion};
use sift_bench::{criterion_group, criterion_main};
use sift_shmem::affinity::pin_to_core;
use sift_shmem::max_register::LockFreeMaxRegister;
use sift_shmem::register::LockFreeRegister;
use sift_shmem::snapshot::LockFreeSnapshot;
use sift_shmem::ExecuteOps;
use sift_sim::{LayoutBuilder, Memory, Op};

/// Operations per worker per round.
const OPS: usize = 2048;
/// One in this many operations is a write; the rest read. Protocols in
/// this repository are scan-heavy — a process polls shared state at
/// every step of a phase but publishes once per phase.
const WRITE_EVERY: usize = 64;
/// Snapshot components: one per simulated process, at the scale the
/// experiment harness actually runs (max registers and registers are
/// single cells).
const COMPONENTS: usize = 128;

/// The contention sweep: `SIFT_BENCH_THREADS`, defaulting to
/// {2, 4, 8, 16}.
fn thread_counts(c: &Criterion) -> Vec<usize> {
    c.knobs()
        .threads
        .clone()
        .unwrap_or_else(|| vec![2, 4, 8, 16])
}

/// The model's memory for a layout of the objects `declare` adds, under
/// one lock, with the ids `declare` returned.
fn model<T>(declare: impl FnOnce(&mut LayoutBuilder) -> T) -> (Mutex<Memory<u64>>, T) {
    let mut b = LayoutBuilder::new();
    let ids = declare(&mut b);
    (Mutex::new(Memory::new(&b.build())), ids)
}

/// Whether workers can be pinned round-robin to cores, probed (and
/// printed) once on a scratch thread: affinity calls fail on non-Linux
/// or restricted hosts, and the scheduler places the workers there.
fn pin_workers() -> bool {
    static PIN: OnceLock<bool> = OnceLock::new();
    *PIN.get_or_init(|| {
        let pin = thread::spawn(|| pin_to_core(0)).join().unwrap_or(false);
        println!("worker pinning: {}", if pin { "cores" } else { "none" });
        pin
    })
}

/// Runs `op(thread, k)` for `OPS` values of `k` on each of `threads`
/// persistent workers, once per measured iteration, with all workers
/// released into the round together. Workers are pinned round-robin
/// across the host's cores when `pin` holds. Prints the substrate's
/// contention counters for the whole benchmark (warm-up included) once
/// the workers have joined; the model rows print zeros.
fn bench_rounds(b: &mut Bencher, threads: usize, pin: bool, op: impl Fn(usize, usize) + Sync) {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let start = Barrier::new(threads + 1);
    let end = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    sift_shmem::obs::reset();
    thread::scope(|scope| {
        for t in 0..threads {
            let (start, end, stop, op) = (&start, &end, &stop, &op);
            scope.spawn(move || {
                if pin {
                    pin_to_core(t % cores);
                }
                loop {
                    start.wait();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    for k in 0..OPS {
                        op(t, k);
                    }
                    end.wait();
                }
            });
        }
        b.iter(|| {
            start.wait();
            end.wait();
        });
        // Release the workers from their final `start.wait`.
        stop.store(true, Ordering::Relaxed);
        start.wait();
    });
    let snap = sift_shmem::obs::snapshot();
    println!(
        "substrate: cas_retries={} republish_conflicts={} reclaim_passes={}",
        snap.slot_cas_retries, snap.republish_conflicts, snap.reclaim_passes,
    );
}

fn bench_snapshot_contention(c: &mut Criterion) {
    let pin = pin_workers();
    let sweep = thread_counts(c);
    let mut group = c.benchmark_group("snapshot_contention");
    for t in sweep {
        group.bench_function(format!("lockfree/t{t}"), |b| {
            let snap: LockFreeSnapshot<u64> = LockFreeSnapshot::new(COMPONENTS);
            bench_rounds(b, t, pin, |t, k| {
                if k % WRITE_EVERY == 0 {
                    snap.update(t % COMPONENTS, (t * OPS + k) as u64);
                } else {
                    std::hint::black_box(snap.scan());
                }
            });
        });
        group.bench_function(format!("model/t{t}"), |b| {
            let (memory, snap) = model(|layout| layout.snapshot(COMPONENTS));
            bench_rounds(b, t, pin, |t, k| {
                if k % WRITE_EVERY == 0 {
                    memory.execute(Op::SnapshotUpdate(
                        snap,
                        t % COMPONENTS,
                        (t * OPS + k) as u64,
                    ));
                } else {
                    std::hint::black_box(memory.execute(Op::SnapshotScan(snap)));
                }
            });
        });
    }
    group.finish();
}

fn bench_register_contention(c: &mut Criterion) {
    let pin = pin_workers();
    let sweep = thread_counts(c);
    let mut group = c.benchmark_group("register_contention");
    for t in sweep {
        group.bench_function(format!("lockfree/t{t}"), |b| {
            let reg: LockFreeRegister<u64> = LockFreeRegister::new();
            bench_rounds(b, t, pin, |t, k| {
                if k % WRITE_EVERY == 0 {
                    reg.write((t * OPS + k) as u64);
                } else {
                    std::hint::black_box(reg.read());
                }
            });
        });
        group.bench_function(format!("model/t{t}"), |b| {
            let (memory, reg) = model(LayoutBuilder::register);
            bench_rounds(b, t, pin, |t, k| {
                if k % WRITE_EVERY == 0 {
                    memory.execute(Op::RegisterWrite(reg, (t * OPS + k) as u64));
                } else {
                    std::hint::black_box(memory.execute(Op::RegisterRead(reg)));
                }
            });
        });
    }
    group.finish();
}

fn bench_max_register_contention(c: &mut Criterion) {
    let pin = pin_workers();
    let sweep = thread_counts(c);
    let mut group = c.benchmark_group("max_register_contention");
    for t in sweep {
        group.bench_function(format!("lockfree/t{t}"), |b| {
            let max: LockFreeMaxRegister<u64> = LockFreeMaxRegister::new();
            bench_rounds(b, t, pin, |t, k| {
                if k % WRITE_EVERY == 0 {
                    max.write((t * OPS + k) as u64, t as u64);
                } else {
                    std::hint::black_box(max.read());
                }
            });
        });
        group.bench_function(format!("model/t{t}"), |b| {
            let (memory, max) = model(LayoutBuilder::max_register);
            bench_rounds(b, t, pin, |t, k| {
                if k % WRITE_EVERY == 0 {
                    memory.execute(Op::MaxWrite(max, (t * OPS + k) as u64, t as u64));
                } else {
                    std::hint::black_box(memory.execute(Op::MaxRead(max)));
                }
            });
        });
    }
    group.finish();
}

fn bench_quiescent_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("quiescent_scan");
    group.bench_function("lockfree/n128", |b| {
        let snap: LockFreeSnapshot<u64> = LockFreeSnapshot::new(COMPONENTS);
        for i in 0..COMPONENTS {
            snap.update(i, i as u64);
        }
        b.iter(|| snap.scan());
    });
    group.bench_function("model/n128", |b| {
        let (memory, snap) = model(|layout| layout.snapshot(COMPONENTS));
        for i in 0..COMPONENTS {
            memory.execute(Op::SnapshotUpdate(snap, i, i as u64));
        }
        b.iter(|| memory.execute(Op::SnapshotScan(snap)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_snapshot_contention,
    bench_register_contention,
    bench_max_register_contention,
    bench_quiescent_scan,
);
criterion_main!(benches);
