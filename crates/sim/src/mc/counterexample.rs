//! Counterexample reporting: schedule shrinking and replayable traces.
//!
//! A model-checking violation arrives as the full event path of one
//! maximal execution — typically longer than necessary and cluttered
//! with steps of innocent processes. This module turns it into a
//! minimal, *replayable* artifact: a plain process-id script for
//! [`FixedSchedule`]. Crashes need no
//! explicit representation — in a finite schedule, a crashed process is
//! simply one that never appears again, so every shrunk counterexample
//! replays through the ordinary deterministic [`Engine`].
//!
//! Shrinking is greedy delta-debugging at step granularity: try
//! deleting each slot in turn, keep the deletion whenever the property
//! still fails on the deterministic replay, and repeat until a full
//! pass deletes nothing. The result is *1-minimal* (no single slot can
//! be removed), not globally minimal — good enough to cut a violating
//! execution down to the conflicting core.

use std::error::Error;
use std::fmt;

use crate::engine::{Engine, RunReport};
use crate::layout::Layout;
use crate::mc::dependence::McEvent;
use crate::mc::dpor::{explore_dpor, McError, McOptions, McStats};
use crate::mc::TooManyExecutions;
use crate::process::Process;
use crate::schedule::FixedSchedule;

/// Replays a process-id script deterministically and returns the
/// per-process outputs (`None` for processes the script starves, which
/// is how crashes replay).
pub fn replay_script<P: Process>(
    layout: &Layout,
    processes: Vec<P>,
    script: &[usize],
) -> Vec<Option<P::Output>> {
    replay_report(layout, processes, script).outputs
}

/// Replays a process-id script deterministically and returns the full
/// [`RunReport`] — outputs plus final process state machines, metrics,
/// and memory — for properties that judge more than outputs (e.g. the
/// fuzzer's survivor-monotonicity and step-bound checks).
pub fn replay_report<P: Process>(
    layout: &Layout,
    processes: Vec<P>,
    script: &[usize],
) -> RunReport<P> {
    Engine::new(layout, processes).run(FixedSchedule::from_indices(script.iter().copied()))
}

/// Extracts the replay script of an explored execution: the process ids
/// of its [`Step`](McEvent::Step) events, in order. Crash events
/// contribute nothing — the crashed process simply stops appearing.
pub(crate) fn script_of_events(events: &[McEvent]) -> Vec<usize> {
    events
        .iter()
        .filter_map(|e| match e {
            McEvent::Step { pid, .. } => Some(pid.index()),
            McEvent::Crash { .. } => None,
        })
        .collect()
}

/// Greedily shrinks a failing schedule script to a 1-minimal one.
///
/// `factory` must build the same initial processes every call;
/// `property` judges the outputs of a replay (`Err` means the violation
/// reproduces). The returned script still fails, along with the message
/// its replay produced.
///
/// # Panics
///
/// Panics if the initial `script` does not reproduce a failure (the
/// caller should only pass scripts extracted from a violating
/// execution).
pub(crate) fn shrink_schedule<P, O>(
    layout: &Layout,
    factory: &impl Fn() -> Vec<P>,
    script: Vec<usize>,
    property: &impl Fn(&[Option<O>]) -> Result<(), String>,
) -> (Vec<usize>, String)
where
    P: Process<Output = O>,
{
    shrink_schedule_with(layout, factory, script, &|report: &RunReport<P>| {
        property(&report.outputs)
    })
}

/// Like `shrink_schedule`, but the property judges the full replay
/// [`RunReport`] — final process state machines, metrics, and stop
/// reason included — which is what the fuzzer's deterministic
/// invariants (survivor monotonicity, exact step bounds) need.
///
/// # Panics
///
/// Panics if the initial `script` does not reproduce a failure.
pub fn shrink_schedule_with<P>(
    layout: &Layout,
    factory: &impl Fn() -> Vec<P>,
    mut script: Vec<usize>,
    property: &impl Fn(&RunReport<P>) -> Result<(), String>,
) -> (Vec<usize>, String)
where
    P: Process,
{
    let mut message = property(&replay_report(layout, factory(), &script))
        .expect_err("shrink_schedule requires a script that reproduces the violation");
    loop {
        let mut deleted_any = false;
        let mut i = 0;
        while i < script.len() {
            let mut candidate = script.clone();
            candidate.remove(i);
            match property(&replay_report(layout, factory(), &candidate)) {
                Err(msg) => {
                    script = candidate;
                    message = msg;
                    deleted_any = true;
                    // Do not advance: position `i` now holds the next slot.
                }
                Ok(()) => i += 1,
            }
        }
        if !deleted_any {
            return (script, message);
        }
    }
}

/// A model-checking violation with a shrunk, replayable schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The property failure message from replaying the shrunk script.
    pub message: String,
    /// The full event path of the originally explored violating
    /// execution (steps and crashes).
    pub events: Vec<McEvent>,
    /// The shrunk process-id schedule; replay it with
    /// [`FixedSchedule::from_indices`].
    pub script: Vec<usize>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "property violated: {}", self.message)?;
        writeln!(
            f,
            "replay with: FixedSchedule::from_indices({:?})",
            self.script
        )?;
        write!(
            f,
            "(original execution: {} events; shrunk to {} slots)",
            self.events.len(),
            self.script.len()
        )
    }
}

impl Error for Violation {}

/// Outcome of a failed [`check_dpor`] run.
#[derive(Debug, Clone)]
pub enum CheckError {
    /// The instance exceeded the execution limit.
    TooManyExecutions(TooManyExecutions),
    /// The property failed; the violation carries a shrunk replayable
    /// schedule.
    Violation(Violation),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::TooManyExecutions(e) => e.fmt(f),
            CheckError::Violation(v) => v.fmt(f),
        }
    }
}

impl Error for CheckError {}

/// Model-checks `property` over every Mazurkiewicz trace (and crash
/// truncation, per `options.max_crashes`) of the processes built by
/// `factory`, shrinking any violation into a replayable schedule.
///
/// The property judges final outputs only (which is what safety
/// properties like adopt-commit coherence need); this is what makes
/// violations replayable through the ordinary [`Engine`] without
/// re-running the explorer.
///
/// # Errors
///
/// [`CheckError::Violation`] with a shrunk script if the property fails
/// anywhere; [`CheckError::TooManyExecutions`] if the instance exceeds
/// `options.limit`.
pub fn check_dpor<P>(
    layout: &Layout,
    factory: impl Fn() -> Vec<P>,
    options: McOptions,
    property: impl Fn(&[Option<P::Output>]) -> Result<(), String>,
) -> Result<McStats, CheckError>
where
    P: Process + Clone,
    P::Output: Clone,
{
    let result = explore_dpor(layout, factory(), options, &mut |view| {
        property(view.outputs)
    });
    match result {
        Ok(stats) => Ok(stats),
        Err(McError::TooManyExecutions(e)) => Err(CheckError::TooManyExecutions(e)),
        Err(McError::Violation(raw)) => {
            let script = script_of_events(&raw.events);
            let (script, message) = shrink_schedule(layout, &factory, script, &property);
            Err(CheckError::Violation(Violation {
                message,
                events: raw.events,
                script,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ProcessId, RegisterId};
    use crate::layout::LayoutBuilder;
    use crate::mc::dependence::Access;
    use crate::op::{Op, OpResult};
    use crate::process::Step;

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

    fn one_register() -> (Layout, RegisterId) {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        (b.build(), r)
    }

    #[test]
    fn script_of_events_drops_crashes() {
        let events = [
            McEvent::Step {
                pid: ProcessId(1),
                access: Access::RegisterRead(RegisterId(0)),
            },
            McEvent::Crash { pid: ProcessId(0) },
            McEvent::Step {
                pid: ProcessId(1),
                access: Access::RegisterRead(RegisterId(0)),
            },
        ];
        assert_eq!(script_of_events(&events), vec![1, 1]);
    }

    #[test]
    fn shrink_drops_innocent_steps() {
        let (layout, r) = one_register();
        let factory = || vec![Writer::new(r, 0, 3), Writer::new(r, 1, 1)];
        // "Violation": p1 finished. p0's steps are irrelevant noise.
        let property = |outputs: &[Option<u64>]| {
            if outputs[1].is_some() {
                Err("p1 finished".to_string())
            } else {
                Ok(())
            }
        };
        let script = vec![0, 0, 1, 0];
        let (shrunk, message) = shrink_schedule(&layout, &factory, script, &property);
        assert_eq!(shrunk, vec![1]);
        assert_eq!(message, "p1 finished");
    }

    #[test]
    fn check_dpor_reports_shrunk_replayable_violation() {
        let (layout, r) = one_register();
        let factory = || vec![Writer::new(r, 0, 2), Writer::new(r, 1, 2)];
        let err = check_dpor(&layout, factory, McOptions::new(1000), |outputs| {
            if outputs.iter().all(Option::is_some) {
                Err("everyone finished".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        let CheckError::Violation(v) = err else {
            panic!("expected a violation");
        };
        // Minimal failing schedule: both processes run to completion.
        assert_eq!(v.script.len(), 4);
        assert_eq!(v.message, "everyone finished");
        // The shrunk script replays deterministically to the violation.
        let outputs = replay_script(&layout, factory(), &v.script);
        assert!(outputs.iter().all(Option::is_some));
        assert_eq!(outputs, replay_script(&layout, factory(), &v.script));
        // The report prints a replayable schedule.
        let printed = v.to_string();
        assert!(printed.contains("FixedSchedule::from_indices"));
        assert!(printed.contains("everyone finished"));
    }

    #[test]
    fn check_dpor_passes_clean_properties() {
        let (layout, r) = one_register();
        let factory = || vec![Writer::new(r, 0, 1), Writer::new(r, 1, 1)];
        let stats = check_dpor(&layout, factory, McOptions::new(1000), |_| Ok(())).unwrap();
        assert!(stats.executions > 0);
    }

    #[test]
    #[should_panic(expected = "reproduces the violation")]
    fn shrink_rejects_passing_scripts() {
        let (layout, r) = one_register();
        let factory = || vec![Writer::new(r, 0, 1)];
        let _ = shrink_schedule(&layout, &factory, vec![0], &|_: &[Option<u64>]| Ok(()));
    }
}
