//! Adversary lab: pit each conciliator against every shipped oblivious
//! adversary strategy and print the empirical agreement rates and step
//! costs — a compact reproduction of the paper's robustness story.
//!
//! Run with: `cargo run --release --example adversary_lab`

use sift::core::{
    CilConciliator, Conciliator, EmbeddedConciliator, Epsilon, SiftingConciliator,
    SnapshotConciliator,
};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::ScheduleKind;
use sift::sim::{Engine, LayoutBuilder};
use std::collections::HashSet;

const N: usize = 48;
const TRIALS: u64 = 150;

fn trial<C: Conciliator>(
    seed: u64,
    kind: ScheduleKind,
    build: impl FnOnce(&mut LayoutBuilder) -> C,
) -> (bool, u64) {
    let mut builder = LayoutBuilder::new();
    let conciliator = build(&mut builder);
    let layout = builder.build();
    let split = SeedSplitter::new(seed);
    let schedule = kind.build(N, split.schedule_seed());
    let participants = split.processes(N, |pid, rng| {
        conciliator.participant(pid, (pid.index() % 5) as u64, rng)
    });
    let report = Engine::new(&layout, participants).run(schedule);
    let distinct: HashSet<_> = report.decided().map(|p| p.origin()).collect();
    (distinct.len() == 1, report.metrics.max_individual_steps())
}

fn main() {
    println!("{N} processes, {TRIALS} trials per cell — agreement rate / worst individual steps\n");
    print!("{:<22}", "conciliator");
    for kind in ScheduleKind::all() {
        print!("{:>22}", kind.name());
    }
    println!();

    type Row = fn(u64, ScheduleKind) -> (bool, u64);
    let rows: [(&str, Row); 4] = [
        ("Alg 1 (snapshot)", |s, k| {
            trial(s, k, |b| SnapshotConciliator::allocate(b, N, Epsilon::HALF))
        }),
        ("Alg 2 (sifting)", |s, k| {
            trial(s, k, |b| SiftingConciliator::allocate(b, N, Epsilon::HALF))
        }),
        ("Alg 3 (embedded)", |s, k| {
            trial(s, k, |b| EmbeddedConciliator::allocate(b, N))
        }),
        ("CIL baseline", |s, k| {
            trial(s, k, |b| CilConciliator::allocate(b, N))
        }),
    ];

    for (name, run) in rows {
        print!("{name:<22}");
        for kind in ScheduleKind::all() {
            let mut agreed = 0u64;
            let mut worst = 0u64;
            for seed in 0..TRIALS {
                let (ok, steps) = run(seed, kind);
                agreed += u64::from(ok);
                worst = worst.max(steps);
            }
            let rate = agreed as f64 / TRIALS as f64;
            print!("{:>22}", format!("{rate:.2} / {worst}"));
        }
        println!();
    }

    println!(
        "\nNote how CIL's worst individual steps explode under block-sequential \
         scheduling (a solo process must fire a 1/4n coin) while the paper's \
         conciliators keep their log*/loglog worst cases."
    );
}
