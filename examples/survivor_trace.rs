//! Visualize the heart of the paper: how fast each conciliator whittles
//! `n` competing personae down to one, round by round.
//!
//! Prints an ASCII decay chart for Algorithm 1 (priority sift) and
//! Algorithm 2 (register sift) side by side with the analytical bounds.
//!
//! Run with: `cargo run --release --example survivor_trace`

use sift::core::analysis::{lemma1_expected_excess, sifting_expected_excess};
use sift::core::{
    distinct_per_round, Conciliator, Epsilon, RoundHistory, SiftingConciliator, SnapshotConciliator,
};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::RandomInterleave;
use sift::sim::{Engine, LayoutBuilder};

const N: usize = 512;
const TRIALS: u64 = 40;

fn mean_survivors<C>(build: impl Fn(&mut LayoutBuilder) -> C) -> Vec<f64>
where
    C: Conciliator,
    C::Participant: RoundHistory,
{
    let mut sums: Vec<f64> = Vec::new();
    for seed in 0..TRIALS {
        let mut b = LayoutBuilder::new();
        let c = build(&mut b);
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(N, |pid, rng| c.participant(pid, pid.index() as u64, rng));
        let report =
            Engine::new(&layout, procs).run(RandomInterleave::new(N, split.schedule_seed()));
        let counts = distinct_per_round(report.processes.iter().map(|p| p.history()));
        if sums.len() < counts.len() {
            sums.resize(counts.len(), 0.0);
        }
        for (i, &c) in counts.iter().enumerate() {
            sums[i] += c as f64;
        }
    }
    sums.iter().map(|s| s / TRIALS as f64).collect()
}

fn bar(value: f64, max: f64) -> String {
    let width = 48.0;
    let filled = ((value.max(1.0).ln() / max.ln()) * width).round() as usize;
    "#".repeat(filled.min(width as usize))
}

fn main() {
    println!("{N} processes, {TRIALS} trials, log-scale bars (surviving personae)\n");

    println!("Algorithm 1 (priority sift, Lemma 1: E[X] -> min(ln(X+1), X/2)):");
    let alg1 = mean_survivors(|b| SnapshotConciliator::allocate(b, N, Epsilon::HALF));
    println!("  round  0: {:>8.2} {}", N as f64, bar(N as f64, N as f64));
    for (i, &mean) in alg1.iter().enumerate() {
        let bound = 1.0 + lemma1_expected_excess(N as u64, (i + 1) as u32);
        println!(
            "  round {:>2}: {mean:>8.2} {} (bound {bound:.2})",
            i + 1,
            bar(mean, N as f64)
        );
    }

    println!("\nAlgorithm 2 (register sift, Lemma 3: x -> 2*sqrt(x), then 3/4-tail):");
    let alg2 = mean_survivors(|b| SiftingConciliator::allocate(b, N, Epsilon::HALF));
    println!("  round  0: {:>8.2} {}", N as f64, bar(N as f64, N as f64));
    for (i, &mean) in alg2.iter().enumerate() {
        let bound = 1.0 + sifting_expected_excess(N as u64, (i + 1) as u32);
        println!(
            "  round {:>2}: {mean:>8.2} {} (bound {bound:.2})",
            i + 1,
            bar(mean, N as f64)
        );
    }

    println!(
        "\nAlgorithm 1 collapses in ~log* n rounds; Algorithm 2 needs ~loglog n \
         aggressive rounds\nplus a geometric tail — both far below the measured bounds."
    );
}
