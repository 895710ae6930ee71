//! Integration tests for execution traces and the snapshot cost model —
//! the accounting machinery behind experiments E3 and E21.

use sift::core::{Conciliator, Epsilon, SiftingConciliator, SnapshotConciliator};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::RoundRobin;
use sift::sim::{CostModel, Engine, LayoutBuilder, Memory, OpKind, ProcessId};

fn sifting_engine(n: usize, seed: u64) -> (Engine<sift::core::SiftingParticipant>, usize) {
    let mut b = LayoutBuilder::new();
    let c = SiftingConciliator::allocate(&mut b, n, Epsilon::HALF);
    let layout = b.build();
    let split = SeedSplitter::new(seed);
    let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
    (Engine::new(&layout, procs), c.rounds())
}

#[test]
fn trace_records_every_charged_operation_in_order() {
    let n = 6;
    let (mut engine, rounds) = sifting_engine(n, 3);
    engine.enable_trace();
    let report = engine.run(RoundRobin::new(n));
    let trace = report.trace.expect("trace enabled");

    // One event per charged op, in slot order.
    assert_eq!(trace.len() as u64, report.metrics.total_ops);
    let slots: Vec<u64> = trace.events().iter().map(|e| e.slot).collect();
    assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots must increase");

    // Each process contributed exactly R events, all register ops.
    for pid in 0..n {
        let mine: Vec<_> = trace.by_process(ProcessId(pid)).collect();
        assert_eq!(mine.len(), rounds);
        for e in mine {
            assert!(
                matches!(e.kind, OpKind::RegisterRead | OpKind::RegisterWrite),
                "sifting uses registers only, saw {:?}",
                e.kind
            );
        }
    }
}

#[test]
fn trace_interleaving_matches_round_robin() {
    let n = 4;
    let (mut engine, _) = sifting_engine(n, 9);
    engine.enable_trace();
    let report = engine.run(RoundRobin::new(n));
    let trace = report.trace.unwrap();
    // Sifting participants all take the same number of steps, so under
    // round-robin the trace is a perfect rotation: event k belongs to
    // process k mod n.
    for (k, e) in trace.events().iter().enumerate() {
        assert_eq!(e.pid.index(), k % n, "event {k}");
    }
}

#[test]
fn register_cost_model_multiplies_snapshot_charges() {
    let n = 8;
    let build = |model: CostModel| {
        let mut b = LayoutBuilder::new();
        let c = SnapshotConciliator::allocate(&mut b, n, Epsilon::HALF);
        let layout = b.build();
        let split = SeedSplitter::new(4);
        let procs = split.processes(n, |pid, rng| c.participant(pid, pid.index() as u64, rng));
        let memory = Memory::with_cost_model(&layout, model);
        Engine::with_memory(memory, procs).run(RoundRobin::new(n))
    };

    let unit = build(CostModel::UnitCost);
    let register = build(CostModel::RegisterImplemented);

    // Same ops either way; only the charged steps differ.
    assert_eq!(unit.metrics.total_ops, register.metrics.total_ops);
    assert_eq!(unit.metrics.total_steps, unit.metrics.total_ops);
    assert_eq!(
        register.metrics.total_steps,
        unit.metrics.total_steps * n as u64,
        "every snapshot op (update and scan) costs n under the register model"
    );

    // Identical outcomes: the cost model is pure accounting.
    let u: Vec<u64> = unit.unwrap_outputs().iter().map(|p| p.input()).collect();
    let r: Vec<u64> = register
        .unwrap_outputs()
        .iter()
        .map(|p| p.input())
        .collect();
    assert_eq!(u, r);
}

#[test]
fn op_kind_breakdown_matches_protocol_structure() {
    let n = 5;
    let (engine, rounds) = sifting_engine(n, 7);
    let report = engine.run(RoundRobin::new(n));
    let reads = report.metrics.ops_of_kind(OpKind::RegisterRead);
    let writes = report.metrics.ops_of_kind(OpKind::RegisterWrite);
    assert_eq!(reads + writes, (n * rounds) as u64);
    assert!(writes >= rounds as u64 / 2, "someone writes most rounds");
    assert_eq!(report.metrics.ops_of_kind(OpKind::SnapshotScan), 0);
}
