//! Property-based tests of the replicated log: identical logs on every
//! replica, validity of every entry, and per-proposer FIFO order —
//! under arbitrary schedules and command mixes.

mod common;

use common::{cases, schedule_kind, size_in};

use sift::adopt_commit::DigitAc;
use sift::consensus::log::ReplicatedLog;
use sift::core::{Epsilon, SiftingConciliator};
use sift::sim::rng::SeedSplitter;
use sift::sim::{Engine, LayoutBuilder};

/// Log safety: identical logs, every entry proposed by someone, and
/// each replica's own committed commands appear in FIFO order.
#[test]
fn replicated_log_is_safe() {
    cases("replicated_log_is_safe", 32, |rng| {
        let n = size_in(rng, 1..6);
        let slots = size_in(rng, 1..6);
        let commands_per_replica = size_in(rng, 1..4);
        let kind = schedule_kind(rng);
        let seed = rng.range_u64(100_000);
        let mut b = LayoutBuilder::new();
        let log = ReplicatedLog::allocate(
            &mut b,
            n,
            slots,
            32,
            |b| SiftingConciliator::allocate(b, n, Epsilon::HALF),
            |b| DigitAc::for_code_space(b, 64, 2),
        );
        let layout = b.build();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| {
            // Replica i proposes commands i*10, i*10+1, … (< 64).
            let commands: Vec<u64> = (0..commands_per_replica as u64)
                .map(|k| (pid.index() as u64) * 10 + k)
                .collect();
            log.participant(pid, commands, rng)
        });
        let report = Engine::new(&layout, procs).run(kind.build(n, split.schedule_seed()));
        let logs = report.unwrap_outputs();

        // Agreement: all replicas hold the same log, full length.
        for w in logs.windows(2) {
            assert_eq!(&w[0], &w[1], "logs diverged");
        }
        assert_eq!(logs[0].len(), slots);

        // Validity: every entry decodes to a real (replica, index).
        for &entry in &logs[0] {
            let proposer = (entry / 10) as usize;
            let index = (entry % 10) as usize;
            assert!(
                proposer < n && index < commands_per_replica,
                "invented entry {entry}"
            );
        }

        // FIFO per proposer (ignoring trailing re-proposals of the last
        // command, which produce adjacent duplicates).
        for p in 0..n as u64 {
            let mine: Vec<u64> = logs[0].iter().copied().filter(|&e| e / 10 == p).collect();
            let mut deduped = mine.clone();
            deduped.dedup();
            assert!(
                deduped.windows(2).all(|w| w[0] < w[1]),
                "replica {p}'s commands out of order: {mine:?}"
            );
        }
    });
}
