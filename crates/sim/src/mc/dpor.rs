//! Sleep-set dynamic partial-order reduction with crash-fault
//! injection.
//!
//! # The explorer
//!
//! [`explore_dpor`] walks the tree of interleavings like the naive
//! enumerator, but prunes with **sleep sets** (Godefroid): after a
//! branch explores event `e` from a node, `e` is added to the sleep set
//! of the later sibling branches; a child inherits every slept event
//! that is independent of the edge
//! taken. A node whose every enabled event is asleep is abandoned — any
//! continuation from it would be trace-equivalent to an execution some
//! earlier sibling already covered. Because every live process always
//! has exactly one enabled operation (shared-memory ops never block),
//! the enabled set only shrinks as processes finish, which is the
//! friendly "non-blocking" case for sleep sets: the walk visits **at
//! least one interleaving of every Mazurkiewicz trace** (the classical
//! deadlock-preservation theorem — every maximal execution's final
//! state is reached) and **no two visited maximal executions are
//! equivalent** (the first point where two equivalent executions
//! diverge would have put one's event to sleep in the other). The
//! execution count therefore *equals* the trace count, which tests
//! verify against [`trace_signature`](crate::mc::trace_signature) sets
//! computed from the naive enumeration.
//!
//! # Crash injection
//!
//! With a non-zero [`McOptions::max_crashes`] budget, every live
//! process additionally has a *crash event* enabled at every node:
//! taking it permanently removes the process (its output stays `None`,
//! exactly as a process starved by a finite
//! [`FixedSchedule`](crate::schedule::FixedSchedule) — in the
//! asynchronous model a crash is indistinguishable from never being
//! scheduled again, the same semantics as
//! [`CrashSubset`](crate::schedule::CrashSubset)). Crash events take
//! part in the reduction: a crash touches no shared memory, so it
//! commutes with every other process's step, and all the interleavings
//! of "p crashes after its k-th operation" collapse into one trace per
//! (truncation, trace-of-survivors) pair. Two crash events conflict
//! with each other (they compete for the budget) and with their own
//! process's steps (crashing before or after a step are different
//! truncations).

use std::fmt;

use crate::layout::Layout;
use crate::mc::dependence::McEvent;
use crate::mc::{ExecutionView, TooManyExecutions};
use crate::memory::Memory;
use crate::op::Op;
use crate::process::{Process, Step};
use crate::value::Value;

/// Configuration of a model-checking run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McOptions {
    /// Abort with [`TooManyExecutions`] beyond this many maximal
    /// executions.
    pub limit: u64,
    /// Crash-fault budget: at every branch point, any live process may
    /// additionally crash permanently, as long as fewer than this many
    /// processes have crashed so far.
    pub max_crashes: usize,
}

impl Default for McOptions {
    fn default() -> Self {
        Self {
            limit: 1_000_000,
            max_crashes: 0,
        }
    }
}

impl McOptions {
    /// Options with an execution limit and no crash injection.
    pub fn new(limit: u64) -> Self {
        Self {
            limit,
            max_crashes: 0,
        }
    }

    /// Sets the crash budget.
    pub fn with_crashes(mut self, max_crashes: usize) -> Self {
        self.max_crashes = max_crashes;
        self
    }
}

/// Exploration statistics reported by [`explore_dpor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McStats {
    /// Maximal executions visited — with sleep sets this equals the
    /// number of Mazurkiewicz traces of the instance.
    pub executions: u64,
    /// Events executed across the whole walk (tree edges taken).
    pub transitions: u64,
    /// Interior nodes abandoned because every enabled event was asleep.
    pub sleep_blocked: u64,
}

/// A safety violation reported by the visitor, with the exact event
/// sequence that produced it (unshrunk; see
/// `shrink_schedule`).
#[derive(Debug, Clone)]
pub struct RawViolation {
    /// The visitor's error message.
    pub message: String,
    /// The maximal execution on which the property failed.
    pub events: Vec<McEvent>,
}

/// Why a model-checking run stopped early.
#[derive(Debug, Clone)]
pub enum McError {
    /// The instance has more executions than the configured limit.
    TooManyExecutions(TooManyExecutions),
    /// The property failed on some execution.
    Violation(RawViolation),
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::TooManyExecutions(e) => e.fmt(f),
            McError::Violation(v) => write!(
                f,
                "property violated: {} (after {} events)",
                v.message,
                v.events.len()
            ),
        }
    }
}

impl std::error::Error for McError {}

enum McSlot<P: Process> {
    Running { proc: P, pending: Op<P::Value> },
    Done,
    Crashed,
}

impl<P: Process + Clone> Clone for McSlot<P>
where
    P::Value: Value,
{
    fn clone(&self) -> Self {
        match self {
            McSlot::Running { proc, pending } => McSlot::Running {
                proc: proc.clone(),
                pending: pending.clone(),
            },
            McSlot::Done => McSlot::Done,
            McSlot::Crashed => McSlot::Crashed,
        }
    }
}

struct Walk<'a, F> {
    options: McOptions,
    stats: McStats,
    path: Vec<McEvent>,
    visit: &'a mut F,
}

/// Explores one interleaving per Mazurkiewicz trace of `processes` over
/// fresh memory for `layout` (plus, with a crash budget, one per trace
/// of every crash-truncated variant), calling `visit` with every
/// maximal execution.
///
/// The visitor returns `Err(message)` to report a property violation,
/// which aborts the walk and is returned as
/// [`McError::Violation`] carrying the violating event sequence.
///
/// # Errors
///
/// [`McError::TooManyExecutions`] if more than `options.limit` maximal
/// executions are visited; [`McError::Violation`] if `visit` fails.
///
/// # Examples
///
/// Two writers to *different* registers commute, so all `C(4, 2) = 6`
/// interleavings form a single trace:
///
/// ```
/// use sift_sim::mc::{explore_dpor, McOptions};
/// use sift_sim::{LayoutBuilder, Op, OpResult, Process, RegisterId, Step};
///
/// #[derive(Clone)]
/// struct TwoWrites(RegisterId, u8);
/// impl Process for TwoWrites {
///     type Value = u64;
///     type Output = ();
///     fn step(&mut self, _: Option<OpResult<u64>>) -> Step<u64, ()> {
///         self.1 += 1;
///         if self.1 <= 2 {
///             Step::Issue(Op::RegisterWrite(self.0, 1))
///         } else {
///             Step::Done(())
///         }
///     }
/// }
///
/// let mut b = LayoutBuilder::new();
/// let (r0, r1) = (b.register(), b.register());
/// let layout = b.build();
/// let procs = vec![TwoWrites(r0, 0), TwoWrites(r1, 0)];
/// let stats = explore_dpor(&layout, procs, McOptions::new(100), &mut |_| Ok(())).unwrap();
/// assert_eq!(stats.executions, 1);
/// ```
pub fn explore_dpor<P>(
    layout: &Layout,
    processes: Vec<P>,
    options: McOptions,
    visit: &mut impl FnMut(ExecutionView<'_, P::Output>) -> Result<(), String>,
) -> Result<McStats, McError>
where
    P: Process + Clone,
    P::Output: Clone,
{
    let n = processes.len();
    let mut outputs: Vec<Option<P::Output>> = vec![None; n];
    let slots: Vec<McSlot<P>> = processes
        .into_iter()
        .enumerate()
        .map(|(i, mut proc)| match proc.step(None) {
            Step::Issue(op) => McSlot::Running { proc, pending: op },
            Step::Done(out) => {
                outputs[i] = Some(out);
                McSlot::Done
            }
        })
        .collect();
    let memory = Memory::new(layout);
    let mut walk = Walk {
        options,
        stats: McStats::default(),
        path: Vec::new(),
        visit,
    };
    walk.dfs(memory, slots, outputs, 0, Vec::new())?;
    Ok(walk.stats)
}

impl<F> Walk<'_, F> {
    fn dfs<P>(
        &mut self,
        memory: Memory<P::Value>,
        slots: Vec<McSlot<P>>,
        outputs: Vec<Option<P::Output>>,
        crashes_used: usize,
        mut sleep: Vec<McEvent>,
    ) -> Result<(), McError>
    where
        P: Process + Clone,
        P::Output: Clone,
        F: FnMut(ExecutionView<'_, P::Output>) -> Result<(), String>,
    {
        // Enabled events: one step per live process, plus (budget
        // permitting) one crash per live process.
        let mut enabled: Vec<McEvent> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                McSlot::Running { pending, .. } => Some(McEvent::Step {
                    pid: crate::ids::ProcessId(i),
                    access: pending.access(),
                }),
                _ => None,
            })
            .collect();
        if enabled.is_empty() {
            self.stats.executions += 1;
            if self.stats.executions > self.options.limit {
                return Err(McError::TooManyExecutions(TooManyExecutions {
                    limit: self.options.limit,
                }));
            }
            return (self.visit)(ExecutionView {
                outputs: &outputs,
                events: &self.path,
            })
            .map_err(|message| {
                McError::Violation(RawViolation {
                    message,
                    events: self.path.clone(),
                })
            });
        }
        if crashes_used < self.options.max_crashes {
            let crashes: Vec<McEvent> = enabled
                .iter()
                .map(|e| McEvent::Crash { pid: e.pid() })
                .collect();
            enabled.extend(crashes);
        }

        let mut explored_any = false;
        for event in enabled {
            if sleep.iter().any(|s| {
                s.pid() == event.pid()
                    && std::mem::discriminant(s) == std::mem::discriminant(&event)
            }) {
                continue;
            }
            explored_any = true;
            self.stats.transitions += 1;

            let mut memory = memory.clone();
            let mut slots: Vec<McSlot<P>> = slots.clone();
            let mut outputs = outputs.clone();
            let mut crashes = crashes_used;
            let i = event.pid().index();
            match event {
                McEvent::Step { .. } => {
                    let McSlot::Running { mut proc, pending } =
                        std::mem::replace(&mut slots[i], McSlot::Done)
                    else {
                        unreachable!("enabled step on a non-running slot");
                    };
                    let result = memory.execute(pending);
                    match proc.step(Some(result)) {
                        Step::Issue(op) => slots[i] = McSlot::Running { proc, pending: op },
                        Step::Done(out) => outputs[i] = Some(out),
                    }
                }
                McEvent::Crash { .. } => {
                    slots[i] = McSlot::Crashed;
                    crashes += 1;
                }
            }

            let child_sleep: Vec<McEvent> = sleep
                .iter()
                .filter(|s| s.independent(event))
                .copied()
                .collect();
            self.path.push(event);
            let res = self.dfs(memory, slots, outputs, crashes, child_sleep);
            self.path.pop();
            res?;

            sleep.push(event);
        }
        if !explored_any {
            self.stats.sleep_blocked += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RegisterId;
    use crate::layout::LayoutBuilder;
    use crate::mc::naive::explore_naive;
    use crate::mc::trace_signature;
    use crate::op::OpResult;
    use std::collections::HashSet;

    /// Writes `id` to `reg` `ops` times, then returns `id`.
    #[derive(Clone)]
    struct Writer {
        reg: RegisterId,
        id: u64,
        ops: u32,
        issued: u32,
    }

    impl Writer {
        fn new(reg: RegisterId, id: u64, ops: u32) -> Self {
            Self {
                reg,
                id,
                ops,
                issued: 0,
            }
        }
    }

    impl Process for Writer {
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

    #[test]
    fn disjoint_registers_collapse_to_one_trace() {
        let mut b = LayoutBuilder::new();
        let regs = b.registers(3);
        let layout = b.build();
        let procs: Vec<Writer> = (0..3).map(|i| Writer::new(regs[i], i as u64, 3)).collect();
        let stats = explore_dpor(&layout, procs, McOptions::new(100), &mut |view| {
            assert_eq!(view.outputs.len(), 3);
            assert!(view.outputs.iter().all(Option::is_some));
            Ok(())
        })
        .unwrap();
        // Naive would visit 9!/(3!3!3!) = 1680 interleavings.
        assert_eq!(stats.executions, 1);
    }

    #[test]
    fn conflicting_writes_match_naive_traces_exactly() {
        let build = || {
            let mut b = LayoutBuilder::new();
            let r = b.register();
            let layout = b.build();
            let procs = vec![Writer::new(r, 0, 2), Writer::new(r, 1, 2)];
            (layout, procs)
        };

        let (layout, procs) = build();
        let mut naive_sigs = HashSet::new();
        let naive_total = explore_naive(&layout, procs, 1000, &mut |view| {
            naive_sigs.insert(trace_signature(view.events));
        })
        .unwrap();
        // All ops conflict, so every interleaving is its own trace.
        assert_eq!(naive_total, 6);
        assert_eq!(naive_sigs.len(), 6);

        let (layout, procs) = build();
        let mut dpor_sigs = HashSet::new();
        let stats = explore_dpor(&layout, procs, McOptions::new(1000), &mut |view| {
            assert!(
                dpor_sigs.insert(trace_signature(view.events)),
                "trace visited twice"
            );
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.executions, 6);
        assert_eq!(dpor_sigs, naive_sigs);
    }

    #[test]
    fn mixed_instance_visits_every_trace_once() {
        // p0 and p1 conflict on r0; p2 is off on its own register.
        let build = || {
            let mut b = LayoutBuilder::new();
            let r0 = b.register();
            let r2 = b.register();
            let layout = b.build();
            let procs = vec![
                Writer::new(r0, 0, 2),
                Writer::new(r0, 1, 2),
                Writer::new(r2, 2, 2),
            ];
            (layout, procs)
        };

        let (layout, procs) = build();
        let mut naive_sigs = HashSet::new();
        let naive_total = explore_naive(&layout, procs, 10_000, &mut |view| {
            naive_sigs.insert(trace_signature(view.events));
        })
        .unwrap();
        assert_eq!(naive_total, 90); // 6!/(2!2!2!)

        let (layout, procs) = build();
        let mut dpor_sigs = HashSet::new();
        let stats = explore_dpor(&layout, procs, McOptions::new(10_000), &mut |view| {
            assert!(
                dpor_sigs.insert(trace_signature(view.events)),
                "trace visited twice"
            );
            Ok(())
        })
        .unwrap();
        assert_eq!(dpor_sigs, naive_sigs);
        assert_eq!(stats.executions, naive_sigs.len() as u64);
        assert_eq!(stats.executions, 6); // p2 contributes no new traces
    }

    #[test]
    fn crash_injection_enumerates_truncations() {
        // Two single-write processes on one register, budget 1:
        // no-crash traces {01, 10}, plus "p0 crashed" and "p1 crashed".
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();
        let procs = vec![Writer::new(r, 0, 1), Writer::new(r, 1, 1)];
        let mut outcomes = HashSet::new();
        let stats = explore_dpor(
            &layout,
            procs,
            McOptions::new(100).with_crashes(1),
            &mut |view| {
                outcomes.insert(view.outputs.to_vec());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(stats.executions, 4);
        assert!(outcomes.contains(&vec![Some(0), Some(1)]));
        assert!(outcomes.contains(&vec![None, Some(1)]));
        assert!(outcomes.contains(&vec![Some(0), None]));
        assert!(!outcomes.contains(&vec![None, None]), "budget respected");
    }

    #[test]
    fn crash_budget_two_reaches_the_empty_execution() {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();
        let procs = vec![Writer::new(r, 0, 1), Writer::new(r, 1, 1)];
        let mut saw_all_crashed = false;
        explore_dpor(
            &layout,
            procs,
            McOptions::new(100).with_crashes(2),
            &mut |view| {
                if view.outputs.iter().all(Option::is_none) {
                    saw_all_crashed = true;
                }
                Ok(())
            },
        )
        .unwrap();
        assert!(saw_all_crashed);
    }

    #[test]
    fn violation_carries_the_event_path() {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();
        let procs = vec![Writer::new(r, 0, 1), Writer::new(r, 1, 1)];
        let err = explore_dpor(&layout, procs, McOptions::new(100), &mut |view| {
            if view.events.first().map(|e| e.pid()) == Some(crate::ids::ProcessId(1)) {
                Err("p1 went first".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        match err {
            McError::Violation(v) => {
                assert_eq!(v.message, "p1 went first");
                assert_eq!(v.events.len(), 2);
                assert_eq!(v.events[0].pid().index(), 1);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn execution_limit_is_enforced() {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();
        let procs = vec![Writer::new(r, 0, 4), Writer::new(r, 1, 4)];
        let err = explore_dpor(&layout, procs, McOptions::new(3), &mut |_| Ok(())).unwrap_err();
        assert!(matches!(err, McError::TooManyExecutions(t) if t.limit == 3));
    }

    #[test]
    fn zero_processes_visit_once() {
        let layout = LayoutBuilder::new().build();
        let mut visits = 0;
        let stats = explore_dpor::<Writer>(&layout, Vec::new(), McOptions::new(10), &mut |view| {
            visits += 1;
            assert!(view.outputs.is_empty());
            Ok(())
        })
        .unwrap();
        assert_eq!(visits, 1);
        assert_eq!(stats.executions, 1);
        assert_eq!(stats.transitions, 0);
    }
}
