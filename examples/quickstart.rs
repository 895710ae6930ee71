//! Quickstart: reach consensus among 16 simulated processes with the
//! paper's sifting conciliator (Algorithm 2), then inspect the cost.
//!
//! Run with: `cargo run --example quickstart`

use sift::consensus::{sifting_consensus, ConsensusOutcome};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::RandomInterleave;
use sift::sim::{Engine, LayoutBuilder};

fn main() {
    let n = 16; // processes
    let m = 8; // possible input values

    // 1. Declare the protocol's shared memory and build the stack:
    //    Algorithm 2 conciliators alternated with digit adopt-commit
    //    objects (Corollary 2 of the paper).
    let mut builder = LayoutBuilder::new();
    let protocol = sifting_consensus(&mut builder, n, m, 2);
    let layout = builder.build();

    // 2. Seed everything from one master seed. Schedule randomness and
    //    process randomness come from disjoint streams, so the adversary
    //    is oblivious by construction.
    let split = SeedSplitter::new(42);
    let schedule = RandomInterleave::new(n, split.schedule_seed());

    // 3. Give each process an input and mint its participant.
    let inputs: Vec<u64> = (0..n as u64).map(|i| i % m).collect();
    let participants = split.processes(n, |pid, rng| {
        protocol.participant(pid, inputs[pid.index()], rng)
    });

    // 4. Run to completion under the oblivious schedule.
    let report = Engine::new(&layout, participants).run(schedule);

    println!("inputs:  {inputs:?}");
    let mut decided = Vec::new();
    for (i, outcome) in report.outputs.iter().enumerate() {
        match outcome.as_ref().expect("all processes decide") {
            ConsensusOutcome::Decided(d) => {
                decided.push(d.value);
                println!(
                    "p{i}: decided {} after {} phase(s) \
                     ({} conciliator ops + {} adopt-commit ops)",
                    d.value, d.phases, d.conciliator_steps, d.adopt_commit_steps
                );
            }
            ConsensusOutcome::Exhausted { .. } => unreachable!("64 phases is plenty"),
        }
    }
    assert!(decided.windows(2).all(|w| w[0] == w[1]), "agreement");
    assert!(inputs.contains(&decided[0]), "validity");

    println!(
        "\nagreed on {} in {} total steps (mean {:.1} steps/process)",
        decided[0],
        report.metrics.total_steps,
        report.metrics.mean_individual_steps()
    );
}
