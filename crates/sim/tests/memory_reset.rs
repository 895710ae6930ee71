//! `Memory::reset` must be indistinguishable from `Memory::new`: a
//! caller that keeps one memory per layout and resets it between runs
//! (the service's per-shard stack cache) has to get, op for op, what a
//! fresh memory would have returned.
//!
//! `sift-sim` is dependency-free, so randomness comes from its own
//! `SplitMix64` — deterministic seeds, no external property-test crate.

use sift_sim::rng::SplitMix64;
use sift_sim::snapshot::SnapshotObject;
use sift_sim::{
    Layout, LayoutBuilder, MaxRegisterId, Memory, Op, RegisterId, RegisterSemantics, Resolution,
    SnapshotId,
};

fn below(rng: &mut SplitMix64, bound: usize) -> usize {
    (rng.next_u64() % bound as u64) as usize
}

const SNAPSHOT_COMPONENTS: [usize; 2] = [3, 5];

struct Objects {
    layout: Layout,
    registers: Vec<RegisterId>,
    snapshots: Vec<SnapshotId>,
    max_registers: Vec<MaxRegisterId>,
}

fn objects() -> Objects {
    let mut b = LayoutBuilder::new();
    let registers = b.registers(6);
    let snapshots = SNAPSHOT_COMPONENTS.map(|c| b.snapshot(c)).to_vec();
    let max_registers = b.max_registers(3);
    Objects {
        layout: b.build(),
        registers,
        snapshots,
        max_registers,
    }
}

/// A random script over every op kind. Each op carries the fraction (in
/// 1/8ths) of the op clock its issuer last ran at, so register reads
/// overlap writes and the regular semantics have something to resolve.
fn script(objects: &Objects, seed: u64, len: usize) -> Vec<(Op<u32>, u64)> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let value = rng.next_u64() as u32;
            let op = match below(&mut rng, 6) {
                0 => Op::RegisterRead(objects.registers[below(&mut rng, 6)]),
                1 => Op::RegisterWrite(objects.registers[below(&mut rng, 6)], value),
                2 => {
                    let s = below(&mut rng, 2);
                    Op::SnapshotUpdate(
                        objects.snapshots[s],
                        below(&mut rng, SNAPSHOT_COMPONENTS[s]),
                        value,
                    )
                }
                3 => Op::SnapshotScan(objects.snapshots[below(&mut rng, 2)]),
                4 => Op::MaxRead(objects.max_registers[below(&mut rng, 3)]),
                _ => Op::MaxWrite(
                    objects.max_registers[below(&mut rng, 3)],
                    rng.next_u64() % 64,
                    value,
                ),
            };
            (op, rng.next_u64() % 9)
        })
        .collect()
}

/// Runs `script` and renders every result (`OpResult` is not `Eq`;
/// its `Debug` shows every value, component and key).
fn run(memory: &mut Memory<u32>, script: &[(Op<u32>, u64)]) -> Vec<String> {
    script
        .iter()
        .map(|(op, eighths)| {
            let epoch = memory.ops_executed() * eighths / 8;
            format!("{:?}", memory.execute_for(op.clone(), epoch))
        })
        .collect()
}

#[test]
fn a_reset_memory_replays_like_a_new_one() {
    let objects = objects();
    let all_semantics = [
        RegisterSemantics::Atomic,
        RegisterSemantics::Regular(Resolution::AlwaysOld),
        RegisterSemantics::Regular(Resolution::Coin(0xC01)),
    ];
    for semantics in all_semantics {
        for seed in 0..20u64 {
            let wanted = script(&objects, seed, 300);
            let other = script(&objects, seed + 1000, 50 + 40 * seed as usize);

            let mut fresh: Memory<u32> = Memory::new(&objects.layout);
            fresh.set_semantics(semantics);
            let expected = run(&mut fresh, &wanted);

            let mut reused: Memory<u32> = Memory::new(&objects.layout);
            reused.set_semantics(semantics);
            run(&mut reused, &other);
            reused.reset();
            assert_eq!(reused.ops_executed(), 0);
            assert_eq!(reused.semantics(), semantics);
            assert_eq!(reused.materialized_registers(), 0);
            assert_eq!(reused.materialized_max_registers(), 0);
            let context = format!("{semantics:?}, seed {seed}");
            assert_eq!(run(&mut reused, &wanted), expected, "{context}");
            assert_eq!(reused.ops_executed(), fresh.ops_executed(), "{context}");

            // And again: a second reset of the same memory is as good.
            reused.reset();
            assert_eq!(run(&mut reused, &wanted), expected, "{context}, twice");
        }
    }
}

#[test]
fn the_coin_script_does_flip_coins() {
    // Guards the test above: if no read overlapped a write, the Coin
    // rows would pass without `reset` ever re-seeding the stream.
    let objects = objects();
    let wanted = script(&objects, 3, 300);
    let mut atomic: Memory<u32> = Memory::new(&objects.layout);
    let mut coin: Memory<u32> = Memory::new(&objects.layout);
    coin.set_semantics(RegisterSemantics::Regular(Resolution::Coin(0xC01)));
    assert_ne!(run(&mut atomic, &wanted), run(&mut coin, &wanted));
}

#[test]
fn a_view_taken_before_reset_keeps_what_it_scanned() {
    let objects = objects();
    let s = objects.snapshots[0];
    let mut memory: Memory<u32> = Memory::new(&objects.layout);
    memory.execute(Op::SnapshotUpdate(s, 1, 11)).expect_ack();
    let before = memory.execute(Op::SnapshotScan(s)).expect_view();
    memory.reset();
    memory.execute(Op::SnapshotUpdate(s, 2, 22)).expect_ack();
    let after = memory.execute(Op::SnapshotScan(s)).expect_view();
    assert_eq!(&before[..], &[None, Some(11), None]);
    assert_eq!(&after[..], &[None, None, Some(22)]);
}

#[test]
fn snapshot_reset_clears_in_place_only_when_unshared() {
    let mut object = SnapshotObject::new(3);
    object.update(0, 5u32);
    drop(object.scan());
    object.reset();
    assert!(object.is_materialized(), "unshared: the vector is reused");
    assert_eq!((object.update_count(), object.scan_count()), (0, 0));
    assert_eq!(&object.scan()[..], &[None, None, None]);

    object.update(0, 6);
    let held = object.scan();
    object.reset();
    assert!(
        !object.is_materialized(),
        "shared: the view keeps the vector"
    );
    assert_eq!(&held[..], &[Some(6), None, None]);
    assert_eq!(&object.scan()[..], &[None, None, None]);
}
