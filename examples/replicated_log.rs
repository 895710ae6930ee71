//! State-machine replication on top of the paper's consensus: a tiny
//! replicated key-value store whose replicas commit operations through
//! a [`ReplicatedLog`] built from sifting conciliators — per-slot cost
//! `O(log log n)` expected steps, independent of the data.
//!
//! Run with: `cargo run --release --example replicated_log`

use std::collections::BTreeMap;

use sift::adopt_commit::DigitAc;
use sift::consensus::log::ReplicatedLog;
use sift::core::{Epsilon, SiftingConciliator};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::RandomInterleave;
use sift::sim::{Engine, LayoutBuilder, ProcessId};

/// A command is packed as `key * 100 + value` (keys 0..10, values
/// 0..100): the u64 domain of the consensus stack.
fn pack(key: u64, value: u64) -> u64 {
    key * 100 + value
}

fn unpack(cmd: u64) -> (u64, u64) {
    (cmd / 100, cmd % 100)
}

fn main() {
    let n = 6; // replicas
    let slots = 8; // log length

    let mut builder = LayoutBuilder::new();
    let log = ReplicatedLog::allocate(
        &mut builder,
        n,
        slots,
        32,
        |b| SiftingConciliator::allocate(b, n, Epsilon::HALF),
        |b| DigitAc::for_code_space(b, 1000, 2),
    );
    let layout = builder.build();

    // Each replica wants to apply its own writes.
    let split = SeedSplitter::new(31);
    let participants: Vec<_> = (0..n)
        .map(|i| {
            let mut rng = split.stream("replica", i as u64);
            let commands = vec![
                pack(i as u64, 10 + i as u64),
                pack((i as u64 + 1) % 10, 50 + i as u64),
            ];
            log.participant(ProcessId(i), commands, &mut rng)
        })
        .collect();

    let report =
        Engine::new(&layout, participants).run(RandomInterleave::new(n, split.schedule_seed()));

    let total_steps = report.metrics.total_steps;
    let logs = report.unwrap_outputs();
    assert!(
        logs.windows(2).all(|w| w[0] == w[1]),
        "replicas must hold identical logs"
    );

    // Apply the agreed log to the state machine.
    let mut store: BTreeMap<u64, u64> = BTreeMap::new();
    println!("committed log ({} entries):", logs[0].len());
    for (slot, &cmd) in logs[0].iter().enumerate() {
        let (key, value) = unpack(cmd);
        let proposer = value % 10;
        store.insert(key, value);
        println!("  slot {slot}: set k{key} = {value} (from replica ~{proposer})");
    }
    println!("\nfinal store (identical on all {n} replicas): {store:?}");
    println!(
        "total shared-memory steps: {} ({:.1} per replica per slot)",
        total_steps,
        total_steps as f64 / (n * slots) as f64
    );
}
