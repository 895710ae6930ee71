//! The simulated shared memory: an arena of registers, snapshot objects,
//! and max registers, executing one [`Op`] atomically per call.

use crate::ids::{MaxRegisterId, RegisterId, SnapshotId};
use crate::layout::Layout;
use crate::max_register::MaxRegister;
use crate::op::{Op, OpResult};
use crate::paged::Paged;
use crate::register::Register;
use crate::rng::Xoshiro256StarStar;
use crate::snapshot::SnapshotObject;
use crate::value::Value;

/// How steps are charged for snapshot operations.
///
/// The paper's §2 assumes the *unit-cost snapshot model*: a scan costs one
/// step. To quantify what the algorithms would cost over plain registers,
/// [`CostModel::RegisterImplemented`] charges each snapshot operation the
/// `O(n)` steps of a register-based snapshot implementation instead.
/// Register and max-register operations cost 1 in both models (max
/// registers can be made polylogarithmic from registers, which
/// `sift-shmem` demonstrates; here they stay unit-cost as in footnote 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// Every operation costs one step (the paper's accounting).
    #[default]
    UnitCost,
    /// Snapshot scans and updates cost `n` steps (`n` = component count),
    /// modelling a linear-time register-based snapshot.
    RegisterImplemented,
}

/// How a *regular* register resolves a read that overlaps a write.
///
/// A regular register (Lamport; Hadzilacos–Hu–Toueg, arXiv 2006.06771)
/// guarantees only that a read returns the value of some write
/// concurrent with it or of the last write preceding it — weaker than
/// atomicity, which additionally forbids new/old inversions. The
/// resolution picks, deterministically from the schedule state, which
/// of the legal values each overlapping read observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Every overlapping read resolves to the newest value — observably
    /// identical to the atomic substrate (the differential anchor).
    AlwaysNew,
    /// Every overlapping read resolves to the stalest legal value (the
    /// displaced value, or ⊥ if no write preceded the read's start) —
    /// the adversarially worst regular register.
    AlwaysOld,
    /// Each overlapping read flips a coin from a dedicated seeded
    /// stream, independent of process and schedule randomness.
    Coin(u64),
}

/// Which semantics simulated registers follow.
///
/// [`RegisterSemantics::Atomic`] is the paper's model and the default;
/// [`RegisterSemantics::Regular`] weakens reads that overlap writes as
/// selected by the [`Resolution`]. Only plain registers weaken —
/// snapshots and max registers keep their atomic semantics (they model
/// higher-level objects with their own implementations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegisterSemantics {
    /// Linearizable registers (the default).
    #[default]
    Atomic,
    /// Regular registers with the given overlap resolution.
    Regular(Resolution),
}

/// Simulated shared memory.
///
/// # Examples
///
/// ```
/// use sift_sim::layout::LayoutBuilder;
/// use sift_sim::memory::Memory;
/// use sift_sim::op::Op;
///
/// let mut b = LayoutBuilder::new();
/// let r = b.register();
/// let mut mem: Memory<u32> = Memory::new(&b.build());
/// mem.execute(Op::RegisterWrite(r, 7)).expect_ack();
/// assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), Some(7));
/// ```
/// Registers and max registers are stored in `Paged` arrays: a layout
/// may declare O(n) slots (one per process, one per round, …) but the
/// backing storage materializes per page on first access, so a run that
/// touches 100 processes of a million-slot layout allocates ~kilobytes,
/// not O(n). Snapshot objects are cheap per declared object (their
/// component vectors are already lazy) and stay in a plain `Vec`.
#[derive(Debug, Clone)]
pub struct Memory<V> {
    registers: Paged<Register<V>>,
    snapshots: Vec<SnapshotObject<V>>,
    max_registers: Paged<MaxRegister<V>>,
    cost_model: CostModel,
    semantics: RegisterSemantics,
    /// The [`Resolution::Coin`] stream; `None` under every other
    /// semantics. Kept in the memory so cloning a memory clones the
    /// stream position (replays stay bit-identical).
    coin: Option<Xoshiro256StarStar>,
    ops_executed: u64,
}

impl<V: Value> Memory<V> {
    /// Instantiates memory for `layout` with the unit-cost model.
    pub fn new(layout: &Layout) -> Self {
        Self::with_cost_model(layout, CostModel::UnitCost)
    }

    /// Instantiates memory for `layout` with an explicit cost model.
    ///
    /// Construction is O(#snapshot objects + declared slots / page
    /// size): no register storage is allocated until an operation
    /// touches it.
    pub fn with_cost_model(layout: &Layout, cost_model: CostModel) -> Self {
        Self {
            registers: Paged::new(layout.register_count()),
            snapshots: layout
                .snapshot_components()
                .iter()
                .map(|&c| SnapshotObject::new(c))
                .collect(),
            max_registers: Paged::new(layout.max_register_count()),
            cost_model,
            semantics: RegisterSemantics::Atomic,
            coin: None,
            ops_executed: 0,
        }
    }

    /// The register semantics in effect.
    pub fn semantics(&self) -> RegisterSemantics {
        self.semantics
    }

    /// Switches the register semantics. Effective for subsequent
    /// [`Memory::execute_for`] calls; [`Memory::execute`] always applies
    /// atomic semantics (a plain execute carries no reader epoch, so
    /// every read trivially follows all writes).
    pub fn set_semantics(&mut self, semantics: RegisterSemantics) {
        self.coin = match semantics {
            RegisterSemantics::Regular(Resolution::Coin(seed)) => {
                Some(Xoshiro256StarStar::seed_from_u64(seed))
            }
            _ => None,
        };
        self.semantics = semantics;
    }

    /// Returns the memory to the state [`Memory::with_cost_model`] built
    /// it in, keeping the cost model and semantics it was given since:
    /// every object ⊥, `ops_executed` zero, the [`Resolution::Coin`]
    /// stream back at its seed. A run after `reset` is
    /// indistinguishable, by results and by op count, from the same run
    /// on a new memory for the same layout — which is what lets a
    /// caller that runs many small protocols keep one memory per layout
    /// instead of building one per run. Snapshot component vectors are
    /// reused when nothing else holds them (see
    /// [`SnapshotObject::reset`]); register and max-register pages are
    /// dropped.
    pub fn reset(&mut self) {
        self.registers.clear();
        self.max_registers.clear();
        self.snapshots.iter_mut().for_each(SnapshotObject::reset);
        self.ops_executed = 0;
        self.set_semantics(self.semantics);
    }

    /// Executes one operation atomically and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range for the layout this memory was
    /// built from, or if a snapshot component index is out of range. Both
    /// indicate protocol construction bugs.
    pub fn execute(&mut self, op: Op<V>) -> OpResult<V> {
        // An epoch after every write makes each read trivially
        // non-overlapping, so this is atomic under every semantics.
        self.execute_for(op, u64::MAX)
    }

    /// Executes one operation on behalf of a process whose *previous*
    /// scheduled step completed at global op-clock time `epoch` (0 for
    /// a process taking its first step).
    ///
    /// Under [`RegisterSemantics::Atomic`] this behaves exactly like
    /// [`Memory::execute`]. Under [`RegisterSemantics::Regular`], a
    /// register read overlapping a write — one executed after `epoch`,
    /// i.e. while the reading process was between scheduled steps —
    /// resolves old or new per the configured [`Resolution`]. Writes
    /// and all snapshot/max-register operations are unaffected.
    ///
    /// # Panics
    ///
    /// As [`Memory::execute`].
    pub fn execute_for(&mut self, op: Op<V>, epoch: u64) -> OpResult<V> {
        self.ops_executed += 1;
        let now = self.ops_executed;
        match op {
            Op::RegisterRead(id) => {
                let stale = match self.semantics {
                    RegisterSemantics::Atomic
                    | RegisterSemantics::Regular(Resolution::AlwaysNew) => false,
                    RegisterSemantics::Regular(Resolution::AlwaysOld) => true,
                    RegisterSemantics::Regular(Resolution::Coin(_)) => {
                        // Consume a coin only on genuinely overlapping
                        // reads, so uncontended prefixes stay identical
                        // across resolutions.
                        self.registers
                            .get(id.index())
                            .is_some_and(|r| r.written_since(epoch))
                            && self
                                .coin
                                .as_mut()
                                .expect("Coin semantics always carries a stream")
                                .coin()
                    }
                };
                let reg = self.register_mut(id);
                let value = if stale {
                    reg.read_stale(epoch).cloned()
                } else {
                    reg.read().cloned()
                };
                OpResult::RegisterValue(value)
            }
            Op::RegisterWrite(id, v) => {
                self.register_mut(id).write_at(v, now);
                OpResult::Ack
            }
            Op::SnapshotUpdate(id, component, v) => {
                self.snapshot_mut(id).update(component, v);
                OpResult::Ack
            }
            Op::SnapshotScan(id) => OpResult::SnapshotView(self.snapshot_mut(id).scan()),
            Op::MaxRead(id) => OpResult::MaxValue(
                self.max_register_mut(id)
                    .read()
                    .map(|(k, v)| (k, v.clone())),
            ),
            Op::MaxWrite(id, key, v) => {
                self.max_register_mut(id).write(key, v);
                OpResult::Ack
            }
        }
    }

    /// Step cost of `op` under the configured cost model.
    pub(crate) fn cost(&self, op: &Op<V>) -> u64 {
        match (self.cost_model, op) {
            (CostModel::RegisterImplemented, Op::SnapshotScan(id))
            | (CostModel::RegisterImplemented, Op::SnapshotUpdate(id, _, _)) => {
                self.snapshots[id.index()].len().max(1) as u64
            }
            _ => 1,
        }
    }

    /// Total operations executed so far.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Register slots whose backing page has been materialized — an
    /// allocation probe for the lazy-memory guarantee (untouched slots
    /// cost nothing beyond the page table).
    pub fn materialized_registers(&self) -> usize {
        self.registers.materialized()
    }

    /// Max-register slots whose backing page has been materialized.
    pub fn materialized_max_registers(&self) -> usize {
        self.max_registers.materialized()
    }

    fn register_mut(&mut self, id: RegisterId) -> &mut Register<V> {
        self.registers.get_mut(id.index())
    }

    fn snapshot_mut(&mut self, id: SnapshotId) -> &mut SnapshotObject<V> {
        &mut self.snapshots[id.index()]
    }

    fn max_register_mut(&mut self, id: MaxRegisterId) -> &mut MaxRegister<V> {
        self.max_registers.get_mut(id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutBuilder;

    fn small_memory() -> (Memory<u32>, RegisterId, SnapshotId, MaxRegisterId) {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let s = b.snapshot(3);
        let m = b.max_register();
        (Memory::new(&b.build()), r, s, m)
    }

    #[test]
    fn register_round_trip() {
        let (mut mem, r, _, _) = small_memory();
        assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), None);
        mem.execute(Op::RegisterWrite(r, 5)).expect_ack();
        assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), Some(5));
    }

    #[test]
    fn snapshot_round_trip() {
        let (mut mem, _, s, _) = small_memory();
        mem.execute(Op::SnapshotUpdate(s, 1, 10)).expect_ack();
        let view = mem.execute(Op::SnapshotScan(s)).expect_view();
        assert_eq!(&view[..], &[None, Some(10), None]);
    }

    #[test]
    fn max_register_round_trip() {
        let (mut mem, _, _, m) = small_memory();
        assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), None);
        mem.execute(Op::MaxWrite(m, 4, 40)).expect_ack();
        mem.execute(Op::MaxWrite(m, 2, 20)).expect_ack();
        assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), Some((4, 40)));
    }

    #[test]
    fn unit_cost_model_charges_one() {
        let (mem, r, s, m) = small_memory();
        assert_eq!(mem.cost(&Op::RegisterRead(r)), 1);
        assert_eq!(mem.cost(&Op::SnapshotScan(s)), 1);
        assert_eq!(mem.cost(&Op::MaxRead(m)), 1);
    }

    #[test]
    fn register_cost_model_charges_n_for_snapshots() {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let s = b.snapshot(16);
        let mem: Memory<u32> = Memory::with_cost_model(&b.build(), CostModel::RegisterImplemented);
        assert_eq!(mem.cost(&Op::SnapshotScan(s)), 16);
        assert_eq!(mem.cost(&Op::SnapshotUpdate(s, 0, 1)), 16);
        assert_eq!(mem.cost(&Op::RegisterRead(r)), 1);
    }

    #[test]
    fn counts_total_ops() {
        let (mut mem, r, _, _) = small_memory();
        mem.execute(Op::RegisterWrite(r, 1)).expect_ack();
        let _ = mem.execute(Op::RegisterRead(r));
        assert_eq!(mem.ops_executed(), 2);
    }

    #[test]
    fn construction_allocates_no_register_storage() {
        let mut b = LayoutBuilder::new();
        let regs = b.registers(1_000_000);
        let maxes = b.max_registers(1_000_000);
        let mut mem: Memory<u32> = Memory::new(&b.build());
        assert_eq!(mem.materialized_registers(), 0);
        assert_eq!(mem.materialized_max_registers(), 0);
        // An operation materializes only the touched page.
        mem.execute(Op::RegisterWrite(regs[123_456], 5))
            .expect_ack();
        mem.execute(Op::MaxWrite(maxes[7], 1, 2)).expect_ack();
        assert!(mem.materialized_registers() < 5_000);
        assert!(mem.materialized_max_registers() < 5_000);
        assert_eq!(
            mem.execute(Op::RegisterRead(regs[123_456]))
                .expect_register(),
            Some(5)
        );
    }

    #[test]
    fn reads_of_untouched_registers_are_bot() {
        let mut b = LayoutBuilder::new();
        let regs = b.registers(4096);
        let mut mem: Memory<u32> = Memory::new(&b.build());
        assert_eq!(
            mem.execute(Op::RegisterRead(regs[4095])).expect_register(),
            None
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_register_panics() {
        let mut b = LayoutBuilder::new();
        let _ = b.register();
        let mut mem: Memory<u32> = Memory::new(&b.build());
        let _ = mem.execute(Op::RegisterRead(crate::ids::RegisterId::from_index(1)));
    }

    #[test]
    fn regular_always_old_serves_stale_values() {
        let (mut mem, r, _, _) = small_memory();
        mem.set_semantics(RegisterSemantics::Regular(Resolution::AlwaysOld));
        assert_eq!(
            mem.semantics(),
            RegisterSemantics::Regular(Resolution::AlwaysOld)
        );
        mem.execute_for(Op::RegisterWrite(r, 1), 0).expect_ack();
        let after_first = mem.ops_executed();
        mem.execute_for(Op::RegisterWrite(r, 2), after_first)
            .expect_ack();
        // Reader whose last step preceded both writes: sees ⊥.
        assert_eq!(
            mem.execute_for(Op::RegisterRead(r), 0).expect_register(),
            None
        );
        // Reader from between the writes: sees the displaced value.
        assert_eq!(
            mem.execute_for(Op::RegisterRead(r), after_first)
                .expect_register(),
            Some(1)
        );
        // Reader from after both writes: regularity forces the newest.
        assert_eq!(
            mem.execute_for(Op::RegisterRead(r), mem.ops_executed())
                .expect_register(),
            Some(2)
        );
    }

    #[test]
    fn regular_always_new_matches_atomic() {
        let (mut mem, r, _, _) = small_memory();
        mem.set_semantics(RegisterSemantics::Regular(Resolution::AlwaysNew));
        mem.execute_for(Op::RegisterWrite(r, 7), 0).expect_ack();
        assert_eq!(
            mem.execute_for(Op::RegisterRead(r), 0).expect_register(),
            Some(7)
        );
    }

    #[test]
    fn regular_coin_is_deterministic_and_clones_with_memory() {
        let (mut mem, r, _, _) = small_memory();
        mem.set_semantics(RegisterSemantics::Regular(Resolution::Coin(42)));
        mem.execute_for(Op::RegisterWrite(r, 1), 0).expect_ack();
        mem.execute_for(Op::RegisterWrite(r, 2), 0).expect_ack();
        let mut replay = mem.clone();
        for _ in 0..32 {
            // Overlapping reads (epoch 0) flip coins; the cloned memory
            // must flip the same ones.
            assert_eq!(
                format!("{:?}", mem.execute_for(Op::RegisterRead(r), 0)),
                format!("{:?}", replay.execute_for(Op::RegisterRead(r), 0))
            );
        }
        // Both legal answers actually occur across the stream.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            seen.insert(mem.execute_for(Op::RegisterRead(r), 0).expect_register());
        }
        assert!(seen.contains(&Some(2)), "newest value never served");
        assert!(seen.len() > 1, "coin never served a stale value");
    }

    #[test]
    fn plain_execute_stays_atomic_under_regular_semantics() {
        let (mut mem, r, _, _) = small_memory();
        mem.set_semantics(RegisterSemantics::Regular(Resolution::AlwaysOld));
        mem.execute(Op::RegisterWrite(r, 1)).expect_ack();
        mem.execute(Op::RegisterWrite(r, 2)).expect_ack();
        assert_eq!(mem.execute(Op::RegisterRead(r)).expect_register(), Some(2));
    }
}
