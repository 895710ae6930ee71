//! One-shot lock acquisition with the sifting test-and-set: a burst of
//! workers races for a one-time initialization token; exactly one wins
//! and the rest learn they lost after only a handful of register
//! operations (the §5 connection to Alistarh–Aspnes).
//!
//! Run with: `cargo run --release --example lock_acquisition`

use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::RandomInterleave;
use sift::sim::{Engine, LayoutBuilder, ProcessId};
use sift::tas::{check_tas_properties, SiftingTas, TasOutcome};

fn main() {
    let n = 256; // racing workers
    let mut builder = LayoutBuilder::new();
    let tas = SiftingTas::allocate(&mut builder, n);
    let layout = builder.build();

    let split = SeedSplitter::new(99);
    let participants: Vec<_> = (0..n)
        .map(|i| tas.participant(ProcessId(i), &mut split.stream("worker", i as u64)))
        .collect();

    let report =
        Engine::new(&layout, participants).run(RandomInterleave::new(n, split.schedule_seed()));
    check_tas_properties(&report.outputs);

    let winner = report
        .outputs
        .iter()
        .position(|o| o == &Some(TasOutcome::Won))
        .expect("exactly one winner");
    let loser_steps: Vec<u64> = report
        .outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| **o == Some(TasOutcome::Lost))
        .map(|(i, _)| report.metrics.per_process_steps[i])
        .collect();
    let survivors = report
        .processes
        .iter()
        .filter(|p| p.reached_tournament())
        .count();

    println!("{n} workers raced for the initialization token");
    println!(
        "worker {winner} won after {} operations",
        report.metrics.per_process_steps[winner]
    );
    println!(
        "losers needed {:.1} operations on average (max {}) — {} sift rounds were available",
        loser_steps.iter().sum::<u64>() as f64 / loser_steps.len() as f64,
        loser_steps.iter().max().unwrap(),
        tas.sift_rounds()
    );
    println!(
        "{survivors} of {n} workers survived the sift and played the tournament; \
         everyone else left after the first register they read was already taken"
    );
}
