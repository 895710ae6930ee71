//! A Wing–Gong linearizability checker for register, snapshot, and
//! max-register histories.
//!
//! Linearizability is *compositional* (Herlihy–Wing): a history is
//! linearizable iff its per-object subhistories each are, so the checker
//! partitions the history by [`ObjectKey`] and checks objects
//! independently. Per object it runs the Wing–Gong search: repeatedly
//! pick a *minimal* completed operation (one not really-preceded by any
//! other remaining operation), apply it to the sequential specification,
//! and require the recorded result to match; backtrack on mismatch.
//! Failed `(remaining-set, state)` pairs are memoized, which keeps the
//! worst case at `O(2^k)` states for `k` operations on one object
//! instead of `O(k!)` orders.
//!
//! The sequential specifications mirror [`Memory`](crate::memory::Memory)
//! exactly — in particular a max-register write is retained only if its
//! key *strictly* exceeds the current maximum, so ties keep the first
//! value.

use std::error::Error;
use std::fmt;

use crate::layout::Layout;
use crate::mc::dependence::ObjectKey;
use crate::mc::history::{History, HistoryEntry};
use crate::op::{Op, OpResult, ScanView};
use crate::value::Value;

/// Evidence that a history is not linearizable (or could not be
/// checked).
#[derive(Debug, Clone)]
pub struct NotLinearizable {
    /// The object whose subhistory admits no legal linearization.
    pub object: ObjectKey,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for NotLinearizable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "history not linearizable at {:?}: {}",
            self.object, self.message
        )
    }
}

impl Error for NotLinearizable {}

/// The sequential specification state of one shared object.
#[derive(Debug, Clone)]
enum SeqState<V> {
    Register(Option<V>),
    Snapshot(Vec<Option<V>>),
    Max(Option<(u64, V)>),
}

impl<V: Value + PartialEq> SeqState<V> {
    fn initial(layout: &Layout, object: ObjectKey) -> Self {
        match object {
            ObjectKey::Register(_) => SeqState::Register(None),
            ObjectKey::Snapshot(id) => {
                let components = layout
                    .snapshot_components()
                    .get(id.index())
                    .copied()
                    .unwrap_or(0);
                SeqState::Snapshot(vec![None; components])
            }
            ObjectKey::MaxRegister(_) => SeqState::Max(None),
        }
    }

    /// Applies `op` to the sequential state, returning the result the
    /// specification dictates. Mirrors `Memory::execute`.
    fn apply(&mut self, op: &Op<V>) -> OpResult<V> {
        match (op, self) {
            (Op::RegisterRead(_), SeqState::Register(v)) => OpResult::RegisterValue(v.clone()),
            (Op::RegisterWrite(_, value), SeqState::Register(v)) => {
                *v = Some(value.clone());
                OpResult::Ack
            }
            (Op::SnapshotScan(_), SeqState::Snapshot(components)) => {
                OpResult::SnapshotView(ScanView::from_components(components.clone()))
            }
            (Op::SnapshotUpdate(_, component, value), SeqState::Snapshot(components)) => {
                components[*component] = Some(value.clone());
                OpResult::Ack
            }
            (Op::MaxRead(_), SeqState::Max(v)) => OpResult::MaxValue(v.clone()),
            (Op::MaxWrite(_, key, value), SeqState::Max(v)) => {
                match v {
                    Some((current, _)) if *current >= *key => {}
                    _ => *v = Some((*key, value.clone())),
                }
                OpResult::Ack
            }
            (op, state) => unreachable!("op {op:?} applied to mismatched object state {state:?}"),
        }
    }

    fn matches(&self, other: &Self) -> bool {
        match (self, other) {
            (SeqState::Register(a), SeqState::Register(b)) => a == b,
            (SeqState::Snapshot(a), SeqState::Snapshot(b)) => a == b,
            (SeqState::Max(a), SeqState::Max(b)) => a == b,
            _ => false,
        }
    }
}

fn results_match<V: Value + PartialEq>(spec: &OpResult<V>, recorded: &OpResult<V>) -> bool {
    match (spec, recorded) {
        (OpResult::Ack, OpResult::Ack) => true,
        (OpResult::RegisterValue(a), OpResult::RegisterValue(b)) => a == b,
        (OpResult::MaxValue(a), OpResult::MaxValue(b)) => a == b,
        (OpResult::SnapshotView(a), OpResult::SnapshotView(b)) => a[..] == b[..],
        _ => false,
    }
}

/// Checks that `history` is linearizable with respect to the sequential
/// register/snapshot/max-register specifications, given the `layout`
/// that sizes the snapshot objects.
///
/// # Errors
///
/// Returns [`NotLinearizable`] naming the first object whose subhistory
/// admits no legal sequential order consistent with real-time precedence
/// (`A` precedes `B` iff `A.responded < B.invoked`).
///
/// # Panics
///
/// Panics if any single object carries more than 128 operations (the
/// memoization mask is a `u128`); split workloads across objects or
/// shorten runs instead.
pub fn check_linearizable<V: Value + PartialEq>(
    layout: &Layout,
    history: &History<V>,
) -> Result<(), NotLinearizable> {
    for object in history.objects() {
        let entries: Vec<&HistoryEntry<V>> = history
            .entries()
            .iter()
            .filter(|e| e.object() == object)
            .collect();
        assert!(
            entries.len() <= 128,
            "object {object:?} carries {} operations; the checker supports at most 128 per object",
            entries.len()
        );
        check_object(layout, object, &entries)?;
    }
    Ok(())
}

fn check_object<V: Value + PartialEq>(
    layout: &Layout,
    object: ObjectKey,
    entries: &[&HistoryEntry<V>],
) -> Result<(), NotLinearizable> {
    let full: u128 = if entries.len() == 128 {
        u128::MAX
    } else {
        (1u128 << entries.len()) - 1
    };
    let mut failed: Vec<(u128, SeqState<V>)> = Vec::new();
    let state = SeqState::initial(layout, object);
    if search(entries, 0, state, full, &mut failed) {
        Ok(())
    } else {
        Err(NotLinearizable {
            object,
            message: format!(
                "no sequential order of its {} operations matches the recorded \
                 results under real-time precedence",
                entries.len()
            ),
        })
    }
}

/// Evidence that a history is not even *regular* (see [`check_regular`]).
#[derive(Debug, Clone)]
pub struct NotRegular {
    /// The object whose subhistory violates regularity.
    pub object: ObjectKey,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for NotRegular {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "history not regular at {:?}: {}",
            self.object, self.message
        )
    }
}

impl Error for NotRegular {}

/// Checks that `history` satisfies *regular*-register semantics — the
/// weaker consistency level of Lamport's regular registers
/// (Hadzilacos–Hu–Toueg, arXiv 2006.06771): every read must return the
/// value of some write **overlapping** it, or of a latest write
/// **preceding** it (⊥ counts as the initial virtual write). Unlike
/// atomicity, regularity permits new/old inversions between concurrent
/// reads, so histories of a regular register that fail
/// [`check_linearizable`] can still pass here — this is the boundary
/// `tests/linearizability.rs` pins against the model's
/// [`RegisterSemantics::Regular`](crate::RegisterSemantics::Regular).
///
/// Register subhistories are checked with the per-read regularity
/// predicate (no search needed — regularity is a local property of each
/// read). Snapshot and max-register subhistories are held to full
/// linearizability, since no substrate mode weakens them.
///
/// # Errors
///
/// Returns [`NotRegular`] naming the first object with an inexplicable
/// read (for registers) or a non-linearizable subhistory (for the other
/// object kinds).
///
/// # Panics
///
/// As [`check_linearizable`], for the non-register objects.
pub fn check_regular<V: Value + PartialEq>(
    layout: &Layout,
    history: &History<V>,
) -> Result<(), NotRegular> {
    for object in history.objects() {
        let entries: Vec<&HistoryEntry<V>> = history
            .entries()
            .iter()
            .filter(|e| e.object() == object)
            .collect();
        match object {
            ObjectKey::Register(_) => check_register_regular(object, &entries)?,
            _ => {
                assert!(
                    entries.len() <= 128,
                    "object {object:?} carries {} operations; the checker supports \
                     at most 128 per object",
                    entries.len()
                );
                check_object(layout, object, &entries).map_err(|e| NotRegular {
                    object: e.object,
                    message: e.message,
                })?;
            }
        }
    }
    Ok(())
}

/// The per-read regularity predicate over one register's subhistory:
/// `O(reads × writes²)`, no backtracking.
fn check_register_regular<V: Value + PartialEq>(
    object: ObjectKey,
    entries: &[&HistoryEntry<V>],
) -> Result<(), NotRegular> {
    let illegal = |message: String| Err(NotRegular { object, message });
    let writes: Vec<(&HistoryEntry<V>, &V)> = entries
        .iter()
        .filter_map(|e| match &e.op {
            Op::RegisterWrite(_, v) => Some((*e, v)),
            _ => None,
        })
        .collect();
    for read in entries {
        let value = match (&read.op, &read.result) {
            (Op::RegisterWrite(_, _), OpResult::Ack) => continue,
            (Op::RegisterRead(_), OpResult::RegisterValue(v)) => v,
            (op, result) => {
                return illegal(format!("malformed entry: op {op:?} returned {result:?}"))
            }
        };
        // A write `w` may serve this read if it overlaps it, or if it
        // precedes it without another write *definitively* between the
        // two (one that starts after `w` responds and responds before
        // the read invokes — such a write supersedes `w` in every
        // serialization of the writes).
        let may_serve = |w: &HistoryEntry<V>| {
            let overlaps = w.invoked <= read.responded && w.responded >= read.invoked;
            if overlaps {
                return true;
            }
            let precedes = w.responded < read.invoked;
            precedes
                && !writes.iter().any(|(between, _)| {
                    between.invoked > w.responded && between.responded < read.invoked
                })
        };
        match value {
            // ⊥ is the initial virtual write: legal iff no real write
            // completed before the read began (otherwise some written
            // value precedes the read and must be visible).
            None => {
                if let Some((w, _)) = writes.iter().find(|(w, _)| w.responded < read.invoked) {
                    return illegal(format!(
                        "read at [{}, {}] returned ⊥ although a write at [{}, {}] \
                         completed before it",
                        read.invoked, read.responded, w.invoked, w.responded
                    ));
                }
            }
            Some(v) => {
                if !writes.iter().any(|(w, wv)| *wv == v && may_serve(w)) {
                    return illegal(format!(
                        "read at [{}, {}] returned a value no overlapping or \
                         latest-preceding write produced",
                        read.invoked, read.responded
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Wing–Gong search: `done` marks linearized operations, `state` is the
/// spec state after them. Returns `true` iff the remainder linearizes.
fn search<V: Value + PartialEq>(
    entries: &[&HistoryEntry<V>],
    done: u128,
    state: SeqState<V>,
    full: u128,
    failed: &mut Vec<(u128, SeqState<V>)>,
) -> bool {
    if done == full {
        return true;
    }
    if failed
        .iter()
        .any(|(mask, s)| *mask == done && s.matches(&state))
    {
        return false;
    }
    for (i, entry) in entries.iter().enumerate() {
        if done & (1 << i) != 0 {
            continue;
        }
        // `entry` is minimal iff no other remaining operation really
        // precedes it (responded strictly before this one was invoked).
        let minimal = entries
            .iter()
            .enumerate()
            .all(|(j, other)| j == i || done & (1 << j) != 0 || other.responded >= entry.invoked);
        if !minimal {
            continue;
        }
        let mut next = state.clone();
        let spec_result = next.apply(&entry.op);
        if !results_match(&spec_result, &entry.result) {
            continue;
        }
        if search(entries, done | (1 << i), next, full, failed) {
            return true;
        }
    }
    failed.push((done, state));
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ProcessId, RegisterId};
    use crate::layout::LayoutBuilder;

    fn entry(
        pid: usize,
        op: Op<u64>,
        result: OpResult<u64>,
        inv: u64,
        res: u64,
    ) -> HistoryEntry<u64> {
        HistoryEntry {
            pid: ProcessId(pid),
            op,
            result,
            invoked: inv,
            responded: res,
        }
    }

    fn register_layout() -> (Layout, RegisterId) {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        (b.build(), r)
    }

    #[test]
    fn empty_history_linearizes() {
        let (layout, _) = register_layout();
        check_linearizable(&layout, &History::<u64>::new()).unwrap();
    }

    #[test]
    fn sequential_register_history_linearizes() {
        let (layout, r) = register_layout();
        let h = History::from_entries(vec![
            entry(0, Op::RegisterWrite(r, 7), OpResult::Ack, 0, 1),
            entry(
                1,
                Op::RegisterRead(r),
                OpResult::RegisterValue(Some(7)),
                2,
                3,
            ),
        ]);
        check_linearizable(&layout, &h).unwrap();
    }

    #[test]
    fn overlapping_read_may_return_either_value() {
        let (layout, r) = register_layout();
        // Write [0, 10] overlaps both reads; one sees ⊥, one sees 7.
        let h = History::from_entries(vec![
            entry(0, Op::RegisterWrite(r, 7), OpResult::Ack, 0, 10),
            entry(1, Op::RegisterRead(r), OpResult::RegisterValue(None), 1, 2),
            entry(
                1,
                Op::RegisterRead(r),
                OpResult::RegisterValue(Some(7)),
                3,
                4,
            ),
        ]);
        check_linearizable(&layout, &h).unwrap();
    }

    #[test]
    fn stale_read_after_completed_write_is_rejected() {
        let (layout, r) = register_layout();
        // The write completes strictly before the read is invoked, yet
        // the read returns the initial ⊥.
        let h = History::from_entries(vec![
            entry(0, Op::RegisterWrite(r, 7), OpResult::Ack, 0, 1),
            entry(1, Op::RegisterRead(r), OpResult::RegisterValue(None), 2, 3),
        ]);
        let err = check_linearizable(&layout, &h).unwrap_err();
        assert_eq!(err.object, ObjectKey::Register(r));
        assert!(err.to_string().contains("not linearizable"));
    }

    #[test]
    fn new_old_inversion_is_rejected() {
        let (layout, r) = register_layout();
        // Both reads overlap the write, but the first returns the new
        // value and the second (which starts after the first responds)
        // returns the old one — no sequential order explains that.
        let h = History::from_entries(vec![
            entry(0, Op::RegisterWrite(r, 7), OpResult::Ack, 0, 10),
            entry(
                1,
                Op::RegisterRead(r),
                OpResult::RegisterValue(Some(7)),
                1,
                2,
            ),
            entry(2, Op::RegisterRead(r), OpResult::RegisterValue(None), 3, 4),
        ]);
        check_linearizable(&layout, &h).unwrap_err();
    }

    #[test]
    fn new_old_inversion_is_regular() {
        let (layout, r) = register_layout();
        // The exact shape `check_linearizable` rejects above: both
        // reads overlap the write, the earlier one sees the new value,
        // the later one the old. Regularity allows it — each read
        // returns an overlapping write's value or the preceding ⊥.
        let h = History::from_entries(vec![
            entry(0, Op::RegisterWrite(r, 7), OpResult::Ack, 0, 10),
            entry(
                1,
                Op::RegisterRead(r),
                OpResult::RegisterValue(Some(7)),
                1,
                2,
            ),
            entry(2, Op::RegisterRead(r), OpResult::RegisterValue(None), 3, 4),
        ]);
        check_linearizable(&layout, &h).unwrap_err();
        check_regular(&layout, &h).unwrap();
    }

    #[test]
    fn stale_read_after_completed_write_is_not_regular() {
        let (layout, r) = register_layout();
        // ⊥ after a completed write: not even regular.
        let h = History::from_entries(vec![
            entry(0, Op::RegisterWrite(r, 7), OpResult::Ack, 0, 1),
            entry(1, Op::RegisterRead(r), OpResult::RegisterValue(None), 2, 3),
        ]);
        let err = check_regular(&layout, &h).unwrap_err();
        assert_eq!(err.object, ObjectKey::Register(r));
        assert!(err.to_string().contains("not regular"));
    }

    #[test]
    fn superseded_write_may_not_serve_a_regular_read() {
        let (layout, r) = register_layout();
        // Write 1 then write 2, both complete before the read: only the
        // later value is a legal return.
        let h = History::from_entries(vec![
            entry(0, Op::RegisterWrite(r, 1), OpResult::Ack, 0, 1),
            entry(0, Op::RegisterWrite(r, 2), OpResult::Ack, 2, 3),
            entry(
                1,
                Op::RegisterRead(r),
                OpResult::RegisterValue(Some(1)),
                4,
                5,
            ),
        ]);
        check_regular(&layout, &h).unwrap_err();
        // But if the two writes overlap each other, either value can be
        // "the latest preceding write" in some write serialization.
        let h = History::from_entries(vec![
            entry(0, Op::RegisterWrite(r, 1), OpResult::Ack, 0, 3),
            entry(2, Op::RegisterWrite(r, 2), OpResult::Ack, 1, 2),
            entry(
                1,
                Op::RegisterRead(r),
                OpResult::RegisterValue(Some(1)),
                4,
                5,
            ),
        ]);
        check_regular(&layout, &h).unwrap();
    }

    #[test]
    fn regular_read_may_not_invent_values() {
        let (layout, r) = register_layout();
        let h = History::from_entries(vec![
            entry(0, Op::RegisterWrite(r, 7), OpResult::Ack, 0, 10),
            entry(
                1,
                Op::RegisterRead(r),
                OpResult::RegisterValue(Some(99)),
                1,
                2,
            ),
        ]);
        let err = check_regular(&layout, &h).unwrap_err();
        assert!(err.to_string().contains("no overlapping"));
    }

    #[test]
    fn non_register_objects_keep_atomic_semantics_under_check_regular() {
        let mut b = LayoutBuilder::new();
        let m = b.max_register();
        let layout = b.build();
        // A max-register read forgetting a completed higher-key write
        // fails even the regularity check (only plain registers weaken).
        let h = History::from_entries(vec![
            entry(0, Op::MaxWrite(m, 9, 90), OpResult::Ack, 0, 1),
            entry(1, Op::MaxRead(m), OpResult::MaxValue(None), 2, 3),
        ]);
        let err = check_regular(&layout, &h).unwrap_err();
        assert_eq!(err.object, ObjectKey::MaxRegister(m));
    }

    #[test]
    fn max_register_tie_keeps_first_value() {
        let mut b = LayoutBuilder::new();
        let m = b.max_register();
        let layout = b.build();
        // Two completed writes with the same key: the read must see the
        // first writer's value in some legal order — and because either
        // write may linearize first, both values are acceptable...
        let h = History::from_entries(vec![
            entry(0, Op::MaxWrite(m, 5, 50), OpResult::Ack, 0, 10),
            entry(1, Op::MaxWrite(m, 5, 51), OpResult::Ack, 1, 11),
            entry(2, Op::MaxRead(m), OpResult::MaxValue(Some((5, 51))), 12, 13),
        ]);
        check_linearizable(&layout, &h).unwrap();
        // ...but a key lower than a really-preceding write must lose.
        let h = History::from_entries(vec![
            entry(0, Op::MaxWrite(m, 5, 50), OpResult::Ack, 0, 1),
            entry(1, Op::MaxWrite(m, 3, 30), OpResult::Ack, 2, 3),
            entry(2, Op::MaxRead(m), OpResult::MaxValue(Some((3, 30))), 4, 5),
        ]);
        check_linearizable(&layout, &h).unwrap_err();
    }

    #[test]
    fn snapshot_scan_must_reflect_completed_updates() {
        let mut b = LayoutBuilder::new();
        let s = b.snapshot(2);
        let layout = b.build();
        let view = |c: Vec<Option<u64>>| OpResult::SnapshotView(ScanView::from_components(c));
        let h = History::from_entries(vec![
            entry(0, Op::SnapshotUpdate(s, 0, 8), OpResult::Ack, 0, 1),
            entry(1, Op::SnapshotScan(s), view(vec![Some(8), None]), 2, 3),
        ]);
        check_linearizable(&layout, &h).unwrap();
        let h = History::from_entries(vec![
            entry(0, Op::SnapshotUpdate(s, 0, 8), OpResult::Ack, 0, 1),
            entry(1, Op::SnapshotScan(s), view(vec![None, None]), 2, 3),
        ]);
        let err = check_linearizable(&layout, &h).unwrap_err();
        assert_eq!(err.object, ObjectKey::Snapshot(s));
    }

    #[test]
    fn objects_are_checked_compositionally() {
        let mut b = LayoutBuilder::new();
        let r0 = b.register();
        let r1 = b.register();
        let layout = b.build();
        // r0's subhistory is fine; r1's is not.
        let h = History::from_entries(vec![
            entry(0, Op::RegisterWrite(r0, 1), OpResult::Ack, 0, 1),
            entry(
                1,
                Op::RegisterRead(r0),
                OpResult::RegisterValue(Some(1)),
                2,
                3,
            ),
            entry(0, Op::RegisterWrite(r1, 2), OpResult::Ack, 4, 5),
            entry(1, Op::RegisterRead(r1), OpResult::RegisterValue(None), 6, 7),
        ]);
        let err = check_linearizable(&layout, &h).unwrap_err();
        assert_eq!(err.object, ObjectKey::Register(r1));
    }
}
