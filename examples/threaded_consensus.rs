//! The same protocol, real threads: run the Corollary 1 consensus stack
//! on OS threads over lock-based linearizable shared objects, with the
//! OS scheduler as the (uncontrolled) adversary.
//!
//! Also demonstrates interning: the replicas agree on a *configuration
//! string* by interning candidate configs into u64 codes up front.
//!
//! Run with: `cargo run --example threaded_consensus`

use sift::consensus::{snapshot_consensus, ConsensusOutcome};
use sift::shmem::runtime::run_threads;
use sift::sim::rng::SeedSplitter;
use sift::sim::LayoutBuilder;

fn main() {
    // The value domain: candidate configurations, interned to codes.
    let configs = [
        "primary=alpha,replicas=3",
        "primary=beta,replicas=3",
        "primary=alpha,replicas=5",
    ];

    let n = 8;
    let mut builder = LayoutBuilder::new();
    let protocol = snapshot_consensus(&mut builder, n);
    let layout = builder.build();

    let split = SeedSplitter::new(2026);
    let inputs: Vec<u64> = (0..n as u64).map(|i| i % configs.len() as u64).collect();
    let participants = split.processes(n, |pid, rng| {
        protocol.participant(pid, inputs[pid.index()], rng)
    });

    // Each participant runs on its own OS thread against lock-based
    // linearizable registers and snapshots.
    let report = run_threads(&layout, participants);

    let mut agreed: Option<u64> = None;
    for (i, outcome) in report.outputs.iter().enumerate() {
        match outcome {
            ConsensusOutcome::Decided(d) => {
                println!(
                    "thread {i}: proposed {:?}, decided {:?} ({} ops, {} phase(s))",
                    configs[inputs[i] as usize], configs[d.value as usize], report.ops[i], d.phases
                );
                agreed.get_or_insert(d.value);
                assert_eq!(agreed, Some(d.value), "split brain!");
            }
            ConsensusOutcome::Exhausted { .. } => unreachable!(),
        }
    }
    let winner = agreed.expect("all threads decide");
    println!(
        "\ncluster converged on {:?} ({} total shared-memory ops)",
        configs[winner as usize],
        report.total_ops()
    );
}
