//! Leader election for a replicated service: `n` replicas each nominate
//! a candidate (themselves, or a node they believe is healthiest) and
//! must agree on one leader for the epoch — even though replicas run at
//! wildly different speeds and some crash mid-election.
//!
//! Uses the linear-work stack (Algorithm 3 + digit adopt-commit,
//! Corollary 3): the election costs `O(n)` total steps no matter how
//! the scheduler interleaves the replicas, and a replica running alone
//! still finishes in `O(log log n)` of its own steps.
//!
//! Run with: `cargo run --example leader_election`

use sift::consensus::{linear_work_consensus, ConsensusOutcome};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::{CrashSubset, RandomInterleave, Schedule};
use sift::sim::{Engine, LayoutBuilder};

/// A replica's view of the cluster.
struct Replica {
    id: usize,
    /// The node this replica nominates (a u64 "node id" — the consensus
    /// value domain).
    nomination: u64,
}

fn main() {
    let n = 32; // replicas
    let split = SeedSplitter::new(7);

    // Each replica nominates a candidate based on its local health view
    // (here: a deterministic pseudo-health score).
    let replicas: Vec<Replica> = (0..n)
        .map(|id| {
            let mut rng = split.stream("health-view", id as u64);
            // A replica nominates whichever of three probes looks best.
            let nomination = (0..3).map(|_| rng.range_u64(n as u64)).min().unwrap();
            Replica { id, nomination }
        })
        .collect();

    // Build the election: inputs are node ids in 0..n.
    let mut builder = LayoutBuilder::new();
    let protocol = linear_work_consensus(&mut builder, n, n as u64, 2);
    let layout = builder.build();

    // The environment: a random interleaving with 25% of replicas
    // crashing before taking any step (a crash is indistinguishable from
    // never being scheduled).
    let schedule = CrashSubset::random(
        RandomInterleave::new(n, split.schedule_seed()),
        n,
        0.25,
        split.seed("crashes", 0),
    );
    let crashed: Vec<usize> = schedule.crashed().map(|p| p.index()).collect();
    let live = schedule.support().len();

    let participants = split.processes(n, |pid, rng| {
        protocol.participant(pid, replicas[pid.index()].nomination, rng)
    });

    let report = Engine::new(&layout, participants).run(schedule);

    println!("{n} replicas, {} crashed: {crashed:?}", crashed.len());
    let mut leader = None;
    let mut decided = 0;
    for (replica, outcome) in replicas.iter().zip(&report.outputs) {
        match outcome {
            None => println!("  replica {:>2}: crashed", replica.id),
            Some(ConsensusOutcome::Decided(d)) => {
                decided += 1;
                leader.get_or_insert(d.value);
                assert_eq!(Some(d.value), leader, "two leaders elected!");
            }
            Some(ConsensusOutcome::Exhausted { .. }) => unreachable!(),
        }
    }
    let leader = leader.expect("someone decided");
    assert_eq!(
        decided, live,
        "every live replica must finish (wait-freedom)"
    );
    assert!(
        replicas.iter().any(|r| r.nomination == leader),
        "leader must have been nominated by someone"
    );

    println!(
        "elected node {leader} — all {decided} live replicas agree \
         ({} total steps, worst replica {} steps)",
        report.metrics.total_steps,
        report.metrics.max_individual_steps()
    );
}
