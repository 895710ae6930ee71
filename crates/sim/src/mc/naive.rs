//! The naive interleaving enumerator: the baseline the DPOR explorer is
//! measured against.
//!
//! Walks the full tree of interleavings (which live process takes the
//! next step) and invokes a visitor on every maximal execution. The
//! number of executions of processes taking `s₁, …, s_k` steps is the
//! multinomial `(Σsᵢ)! / Πsᵢ!`, so only toy instances are feasible —
//! two 7-step proposers cost 3432 executions, three 8-step proposers
//! already ~9.5 billion. Use [`explore_dpor`](crate::mc::explore_dpor)
//! for anything non-trivial; this enumerator exists as a correctness
//! oracle (its trace signatures must equal DPOR's) and for exact
//! multinomial counting in tests.

use crate::layout::Layout;
use crate::mc::dependence::McEvent;
use crate::mc::{ExecutionView, TooManyExecutions};
use crate::memory::Memory;
use crate::op::Op;
use crate::process::{Process, Step};
use crate::value::Value;

enum ExpSlot<P: Process> {
    Running { proc: P, pending: Op<P::Value> },
    Done,
}

impl<P: Process + Clone> Clone for ExpSlot<P>
where
    P::Value: Value,
{
    fn clone(&self) -> Self {
        match self {
            ExpSlot::Running { proc, pending } => ExpSlot::Running {
                proc: proc.clone(),
                pending: pending.clone(),
            },
            ExpSlot::Done => ExpSlot::Done,
        }
    }
}

/// Enumerates every interleaving of `processes` over fresh memory for
/// `layout`, calling `visit` with each maximal execution (outputs plus
/// the event sequence that produced them).
///
/// Returns the number of executions visited.
///
/// # Errors
///
/// Returns [`TooManyExecutions`] (after aborting the walk) if more than
/// `limit` executions exist.
pub fn explore_naive<P>(
    layout: &Layout,
    processes: Vec<P>,
    limit: u64,
    visit: &mut impl FnMut(ExecutionView<'_, P::Output>),
) -> Result<u64, TooManyExecutions>
where
    P: Process + Clone,
    P::Output: Clone,
{
    let n = processes.len();
    let mut outputs: Vec<Option<P::Output>> = vec![None; n];
    let slots: Vec<ExpSlot<P>> = processes
        .into_iter()
        .enumerate()
        .map(|(i, mut proc)| match proc.step(None) {
            Step::Issue(op) => ExpSlot::Running { proc, pending: op },
            Step::Done(out) => {
                outputs[i] = Some(out);
                ExpSlot::Done
            }
        })
        .collect();
    let memory = Memory::new(layout);
    let mut count = 0u64;
    let mut path = Vec::new();
    dfs(memory, slots, outputs, limit, &mut count, &mut path, visit)?;
    Ok(count)
}

fn dfs<P>(
    memory: Memory<P::Value>,
    slots: Vec<ExpSlot<P>>,
    outputs: Vec<Option<P::Output>>,
    limit: u64,
    count: &mut u64,
    path: &mut Vec<McEvent>,
    visit: &mut impl FnMut(ExecutionView<'_, P::Output>),
) -> Result<(), TooManyExecutions>
where
    P: Process + Clone,
    P::Output: Clone,
{
    let live: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, ExpSlot::Running { .. }))
        .map(|(i, _)| i)
        .collect();
    if live.is_empty() {
        *count += 1;
        if *count > limit {
            return Err(TooManyExecutions { limit });
        }
        visit(ExecutionView {
            outputs: &outputs,
            events: path,
        });
        return Ok(());
    }
    for &i in &live {
        let (mut memory, mut slots, mut outputs) = (memory.clone(), slots.clone(), outputs.clone());
        let ExpSlot::Running { mut proc, pending } =
            std::mem::replace(&mut slots[i], ExpSlot::Done)
        else {
            unreachable!("live slot is running");
        };
        path.push(McEvent::Step {
            pid: crate::ids::ProcessId(i),
            access: pending.access(),
        });
        let result = memory.execute(pending);
        match proc.step(Some(result)) {
            Step::Issue(op) => slots[i] = ExpSlot::Running { proc, pending: op },
            Step::Done(out) => outputs[i] = Some(out),
        }
        let res = dfs(memory, slots, outputs, limit, count, path, visit);
        path.pop();
        res?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ProcessId, RegisterId};
    use crate::layout::LayoutBuilder;
    use crate::op::OpResult;

    #[derive(Clone)]
    struct Steps {
        reg: RegisterId,
        id: u64,
        ops: u32,
        issued: u32,
    }

    impl Process for Steps {
        type Value = u64;
        type Output = u64;

        fn step(&mut self, _prev: Option<OpResult<u64>>) -> Step<u64, u64> {
            if self.issued < self.ops {
                self.issued += 1;
                Step::Issue(Op::RegisterWrite(self.reg, self.id))
            } else {
                Step::Done(self.id)
            }
        }
    }

    fn layout_one() -> (crate::layout::Layout, RegisterId) {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        (b.build(), r)
    }

    #[test]
    fn counts_interleavings_multinomially() {
        // s1 = 2, s2 = 3: C(5, 2) = 10.
        let (layout, r) = layout_one();
        let procs = vec![
            Steps {
                reg: r,
                id: 0,
                ops: 2,
                issued: 0,
            },
            Steps {
                reg: r,
                id: 1,
                ops: 3,
                issued: 0,
            },
        ];
        let total = explore_naive(&layout, procs, 100, &mut |_| {}).unwrap();
        assert_eq!(total, 10);
    }

    #[derive(Clone)]
    struct WriteThenRead(RegisterId, u64, u8);

    impl Process for WriteThenRead {
        type Value = u64;
        type Output = Option<u64>;

        fn step(&mut self, prev: Option<OpResult<u64>>) -> Step<u64, Option<u64>> {
            self.2 += 1;
            match self.2 {
                1 => Step::Issue(Op::RegisterWrite(self.0, self.1)),
                2 => Step::Issue(Op::RegisterRead(self.0)),
                _ => Step::Done(prev.unwrap().expect_register()),
            }
        }
    }

    #[test]
    fn reads_see_a_write_in_every_interleaving() {
        // Two ops each: C(4, 2) = 6, and each read follows its own
        // process's write, so no branch of the walk reads ⊥.
        let (layout, r) = layout_one();
        let procs = vec![WriteThenRead(r, 1, 0), WriteThenRead(r, 2, 0)];
        let total = explore_naive(&layout, procs, 1_000, &mut |view| {
            assert!(view.outputs.iter().all(|o| o.unwrap().is_some()));
        })
        .unwrap();
        assert_eq!(total, 6);
    }

    #[test]
    fn three_processes_count() {
        // 2 ops each: 6!/(2!2!2!) = 90.
        let (layout, r) = layout_one();
        let procs: Vec<Steps> = (0..3)
            .map(|id| Steps {
                reg: r,
                id,
                ops: 2,
                issued: 0,
            })
            .collect();
        let total = explore_naive(&layout, procs, 1000, &mut |_| {}).unwrap();
        assert_eq!(total, 90);
    }

    #[test]
    fn limit_is_enforced() {
        let (layout, r) = layout_one();
        let procs = vec![
            Steps {
                reg: r,
                id: 0,
                ops: 5,
                issued: 0,
            },
            Steps {
                reg: r,
                id: 1,
                ops: 5,
                issued: 0,
            },
        ];
        let err = explore_naive(&layout, procs, 10, &mut |_| {}).unwrap_err();
        assert_eq!(err.limit, 10);
        assert!(err.to_string().contains("shrink"));
    }

    #[test]
    fn zero_processes_yield_one_empty_execution() {
        let (layout, _) = layout_one();
        let mut visits = 0;
        let total = explore_naive::<Steps>(&layout, Vec::new(), 10, &mut |view| {
            visits += 1;
            assert!(view.outputs.is_empty());
            assert!(view.events.is_empty());
        })
        .unwrap();
        assert_eq!(total, 1);
        assert_eq!(visits, 1);
    }

    #[test]
    fn immediately_done_processes_are_visited_once() {
        let (layout, r) = layout_one();
        let procs = vec![Steps {
            reg: r,
            id: 7,
            ops: 0,
            issued: 0,
        }];
        let mut seen = Vec::new();
        explore_naive(&layout, procs, 10, &mut |view| seen.push(view.outputs[0])).unwrap();
        assert_eq!(seen, vec![Some(7)]);
    }

    #[test]
    fn events_record_the_interleaving() {
        let (layout, r) = layout_one();
        let procs = vec![
            Steps {
                reg: r,
                id: 0,
                ops: 1,
                issued: 0,
            },
            Steps {
                reg: r,
                id: 1,
                ops: 1,
                issued: 0,
            },
        ];
        let mut orders = Vec::new();
        explore_naive(&layout, procs, 10, &mut |view| {
            orders.push(
                view.events
                    .iter()
                    .map(|e| e.pid().index())
                    .collect::<Vec<_>>(),
            );
        })
        .unwrap();
        assert_eq!(orders, vec![vec![0, 1], vec![1, 0]]);
        assert!(orders.iter().all(|o| o.len() == 2));
        let _ = ProcessId(0);
    }
}
