//! Gafni's two-phase adopt-commit with per-process slots.
//!
//! Phase 1: announce the proposal in slot `A[pid]` and collect `A`; a
//! proposer that saw only its own code becomes a *candidate*. Phase 2:
//! record the proposal in `Bcand[pid]` (candidates) or `Braw[pid]`
//! (others) — the tag is encoded by *which* array is written, so a single
//! atomic write suffices — then collect and decide:
//!
//! * a candidate that sees no raw entry **commits** its value;
//! * a candidate that sees a raw entry adopts its own value (which is the
//!   unique candidate value);
//! * a raw proposer adopts any visible candidate entry, falling back to
//!   its own value.
//!
//! Two collect flavors are provided:
//!
//! * [`GafniSnapshotAc`] — collects are snapshot scans: **at most 5
//!   operations** per proposer. This is the `O(1)` adopt-commit of the
//!   paper's reference \[16\], used by Corollary 1.
//! * [`GafniRegisterAc`] — collects read `n` single-writer registers:
//!   `3n + 2` operations, the classic register-model construction.
//!
//! Unlike the code-indexed objects ([`FlagsAc`](crate::flags::FlagsAc),
//! [`DigitAc`](crate::digit::DigitAc)), cost here depends on the number
//! of *processes*, not on the code space, so any `u64` code is accepted.
//! Values are compared through a caller-supplied code extractor
//! (equal values ⇒ equal codes), which is how personae wrapping the same
//! input are recognized as the same proposal.

use std::sync::Arc;

use sift_sim::{
    LayoutBuilder, Op, OpResult, Process, ProcessId, RegisterId, ScanView, SnapshotId, Step, Value,
};

use crate::spec::{AcOutput, AdoptCommit, Verdict};

/// Shared code extractor: recovers a value's code. Must agree with the
/// codes passed to [`AdoptCommit::proposer`].
pub(crate) type CodeOf<V> = Arc<dyn Fn(&V) -> u64 + Send + Sync>;

fn decide<V: Value>(
    cand: bool,
    raw_empty: bool,
    candidate: Option<(u64, V)>,
    code: u64,
    value: V,
) -> AcOutput<V> {
    if cand {
        AcOutput {
            verdict: if raw_empty {
                Verdict::Commit
            } else {
                Verdict::Adopt
            },
            code,
            value,
        }
    } else {
        match candidate {
            Some((c, v)) => AcOutput {
                verdict: Verdict::Adopt,
                code: c,
                value: v,
            },
            None => AcOutput {
                verdict: Verdict::Adopt,
                code,
                value,
            },
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot flavor
// ---------------------------------------------------------------------

/// Shared state of a snapshot-collect Gafni adopt-commit for `n`
/// processes.
///
/// # Examples
///
/// ```
/// use sift_adopt_commit::{AdoptCommit, GafniSnapshotAc};
/// use sift_sim::{Engine, LayoutBuilder, ProcessId};
/// use sift_sim::schedule::RoundRobin;
///
/// let mut b = LayoutBuilder::new();
/// let ac = GafniSnapshotAc::<u64>::allocate(&mut b, 3, |v| *v);
/// let layout = b.build();
/// let procs: Vec<_> = (0..3).map(|i| ac.proposer(ProcessId(i), 9, 9u64)).collect();
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(3));
/// assert!(report.unwrap_outputs().iter().all(|o| o.is_commit()));
/// ```
#[derive(Clone)]
pub struct GafniSnapshotAc<V> {
    a: SnapshotId,
    bcand: SnapshotId,
    braw: SnapshotId,
    n: usize,
    code_of: CodeOf<V>,
}

impl<V: Value> GafniSnapshotAc<V> {
    /// Allocates an instance for `n` processes with the given code
    /// extractor.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn allocate(
        builder: &mut LayoutBuilder,
        n: usize,
        code_of: impl Fn(&V) -> u64 + Send + Sync + 'static,
    ) -> Self {
        assert!(n > 0, "need at least one process");
        Self {
            a: builder.snapshot(n),
            bcand: builder.snapshot(n),
            braw: builder.snapshot(n),
            n,
            code_of: Arc::new(code_of),
        }
    }
}

impl<V> std::fmt::Debug for GafniSnapshotAc<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GafniSnapshotAc")
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl<V: Value> AdoptCommit<V> for GafniSnapshotAc<V> {
    type Proposer = GafniSnapshotProposer<V>;

    /// # Panics
    ///
    /// Panics if `pid` is out of range or `code_of(&value) != code`.
    fn proposer(&self, pid: ProcessId, code: u64, value: V) -> GafniSnapshotProposer<V> {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        assert_eq!(
            (self.code_of)(&value),
            code,
            "code extractor disagrees with the proposed code"
        );
        GafniSnapshotProposer {
            shared: self.clone(),
            pid,
            code,
            value,
            phase: SnapPhase::Init,
        }
    }

    fn steps_bound(&self) -> u64 {
        5
    }
}

#[derive(Debug, Clone)]
enum SnapPhase<V> {
    Init,
    AwaitAckA,
    AwaitViewA,
    AwaitAckB { cand: bool },
    AwaitViewBc { cand: bool },
    AwaitViewBr { candidate: Option<(u64, V)> },
    Finished,
}

/// Single-use proposer of [`GafniSnapshotAc`]: at most 5 snapshot
/// operations.
#[derive(Debug, Clone)]
pub struct GafniSnapshotProposer<V> {
    shared: GafniSnapshotAc<V>,
    pid: ProcessId,
    code: u64,
    value: V,
    phase: SnapPhase<V>,
}

impl<V: Value> GafniSnapshotProposer<V> {
    fn first_candidate(&self, view: &ScanView<V>) -> Option<(u64, V)> {
        view.present()
            .next()
            .map(|(_, v)| ((self.shared.code_of)(v), v.clone()))
    }
}

impl<V: Value> Process for GafniSnapshotProposer<V> {
    type Value = V;
    type Output = AcOutput<V>;

    fn step(&mut self, prev: Option<OpResult<V>>) -> Step<V, AcOutput<V>> {
        match std::mem::replace(&mut self.phase, SnapPhase::Finished) {
            SnapPhase::Init => {
                self.phase = SnapPhase::AwaitAckA;
                Step::Issue(Op::SnapshotUpdate(
                    self.shared.a,
                    self.pid.index(),
                    self.value.clone(),
                ))
            }
            SnapPhase::AwaitAckA => {
                self.phase = SnapPhase::AwaitViewA;
                Step::Issue(Op::SnapshotScan(self.shared.a))
            }
            SnapPhase::AwaitViewA => {
                let view = prev.expect("resumed with scan of A").expect_view();
                let cand = view
                    .present()
                    .all(|(_, v)| (self.shared.code_of)(v) == self.code);
                let target = if cand {
                    self.shared.bcand
                } else {
                    self.shared.braw
                };
                self.phase = SnapPhase::AwaitAckB { cand };
                Step::Issue(Op::SnapshotUpdate(
                    target,
                    self.pid.index(),
                    self.value.clone(),
                ))
            }
            SnapPhase::AwaitAckB { cand } => {
                self.phase = SnapPhase::AwaitViewBc { cand };
                Step::Issue(Op::SnapshotScan(self.shared.bcand))
            }
            SnapPhase::AwaitViewBc { cand } => {
                let view = prev.expect("resumed with scan of Bcand").expect_view();
                if cand {
                    debug_assert!(
                        view.present()
                            .all(|(_, v)| (self.shared.code_of)(v) == self.code),
                        "two candidate writers with different codes"
                    );
                    self.phase = SnapPhase::AwaitViewBr { candidate: None };
                    Step::Issue(Op::SnapshotScan(self.shared.braw))
                } else {
                    // Raw path never commits, so the raw array is
                    // irrelevant: decide now (4 ops total).
                    let candidate = self.first_candidate(&view);
                    Step::Done(decide(
                        false,
                        false,
                        candidate,
                        self.code,
                        self.value.clone(),
                    ))
                }
            }
            SnapPhase::AwaitViewBr { candidate } => {
                let view = prev.expect("resumed with scan of Braw").expect_view();
                let raw_empty = view.present().next().is_none();
                Step::Done(decide(
                    true,
                    raw_empty,
                    candidate,
                    self.code,
                    self.value.clone(),
                ))
            }
            SnapPhase::Finished => panic!("proposer stepped after completion"),
        }
    }
}

// ---------------------------------------------------------------------
// Register flavor
// ---------------------------------------------------------------------

/// Shared state of a register-collect Gafni adopt-commit for `n`
/// processes: `3n + 2` operations per proposer.
#[derive(Clone)]
pub struct GafniRegisterAc<V> {
    a: Arc<Vec<RegisterId>>,
    bcand: Arc<Vec<RegisterId>>,
    braw: Arc<Vec<RegisterId>>,
    n: usize,
    code_of: CodeOf<V>,
}

impl<V: Value> GafniRegisterAc<V> {
    /// Allocates an instance for `n` processes with the given code
    /// extractor.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn allocate(
        builder: &mut LayoutBuilder,
        n: usize,
        code_of: impl Fn(&V) -> u64 + Send + Sync + 'static,
    ) -> Self {
        assert!(n > 0, "need at least one process");
        Self {
            a: Arc::new(builder.registers(n)),
            bcand: Arc::new(builder.registers(n)),
            braw: Arc::new(builder.registers(n)),
            n,
            code_of: Arc::new(code_of),
        }
    }
}

impl<V> std::fmt::Debug for GafniRegisterAc<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GafniRegisterAc")
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl<V: Value> AdoptCommit<V> for GafniRegisterAc<V> {
    type Proposer = GafniRegisterProposer<V>;

    /// # Panics
    ///
    /// Panics if `pid` is out of range or `code_of(&value) != code`.
    fn proposer(&self, pid: ProcessId, code: u64, value: V) -> GafniRegisterProposer<V> {
        assert!(pid.index() < self.n, "{pid} out of range 0..{}", self.n);
        assert_eq!(
            (self.code_of)(&value),
            code,
            "code extractor disagrees with the proposed code"
        );
        GafniRegisterProposer {
            shared: self.clone(),
            pid,
            code,
            value,
            phase: RegPhase::Init,
            saw_other: false,
            candidate: None,
            raw_empty: true,
        }
    }

    fn steps_bound(&self) -> u64 {
        3 * self.n as u64 + 2
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegPhase {
    Init,
    CollectA { next: usize },
    CollectBc { next: usize, cand: bool },
    CollectBr { next: usize },
    Finished,
}

/// Single-use proposer of [`GafniRegisterAc`].
#[derive(Debug, Clone)]
pub struct GafniRegisterProposer<V> {
    shared: GafniRegisterAc<V>,
    pid: ProcessId,
    code: u64,
    value: V,
    phase: RegPhase,
    saw_other: bool,
    candidate: Option<(u64, V)>,
    raw_empty: bool,
}

impl<V: Value> Process for GafniRegisterProposer<V> {
    type Value = V;
    type Output = AcOutput<V>;

    fn step(&mut self, prev: Option<OpResult<V>>) -> Step<V, AcOutput<V>> {
        let n = self.shared.n;
        loop {
            match self.phase {
                RegPhase::Init => {
                    self.phase = RegPhase::CollectA { next: 0 };
                    return Step::Issue(Op::RegisterWrite(
                        self.shared.a[self.pid.index()],
                        self.value.clone(),
                    ));
                }
                RegPhase::CollectA { next } => {
                    if next > 0 {
                        if let Some(v) = prev
                            .as_ref()
                            .expect("collect resumed with a result")
                            .clone()
                            .expect_register()
                        {
                            if (self.shared.code_of)(&v) != self.code {
                                self.saw_other = true;
                            }
                        }
                    }
                    if next < n {
                        self.phase = RegPhase::CollectA { next: next + 1 };
                        return Step::Issue(Op::RegisterRead(self.shared.a[next]));
                    }
                    let cand = !self.saw_other;
                    let target = if cand {
                        self.shared.bcand[self.pid.index()]
                    } else {
                        self.shared.braw[self.pid.index()]
                    };
                    self.phase = RegPhase::CollectBc { next: 0, cand };
                    return Step::Issue(Op::RegisterWrite(target, self.value.clone()));
                }
                RegPhase::CollectBc { next, cand } => {
                    if next > 0 {
                        if let Some(v) = prev
                            .as_ref()
                            .expect("collect resumed with a result")
                            .clone()
                            .expect_register()
                        {
                            let code = (self.shared.code_of)(&v);
                            debug_assert!(
                                !cand || code == self.code,
                                "two candidate writers with different codes"
                            );
                            if self.candidate.is_none() {
                                self.candidate = Some((code, v));
                            }
                        }
                    }
                    if next < n {
                        self.phase = RegPhase::CollectBc {
                            next: next + 1,
                            cand,
                        };
                        return Step::Issue(Op::RegisterRead(self.shared.bcand[next]));
                    }
                    if cand {
                        self.phase = RegPhase::CollectBr { next: 0 };
                        continue;
                    }
                    self.phase = RegPhase::Finished;
                    let candidate = self.candidate.take();
                    return Step::Done(decide(
                        false,
                        false,
                        candidate,
                        self.code,
                        self.value.clone(),
                    ));
                }
                RegPhase::CollectBr { next } => {
                    if next > 0
                        && prev
                            .as_ref()
                            .expect("collect resumed with a result")
                            .clone()
                            .expect_register()
                            .is_some()
                    {
                        self.raw_empty = false;
                    }
                    if next < n {
                        self.phase = RegPhase::CollectBr { next: next + 1 };
                        return Step::Issue(Op::RegisterRead(self.shared.braw[next]));
                    }
                    self.phase = RegPhase::Finished;
                    return Step::Done(decide(
                        true,
                        self.raw_empty,
                        None,
                        self.code,
                        self.value.clone(),
                    ));
                }
                RegPhase::Finished => panic!("proposer stepped after completion"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_ac_properties;
    use sift_sim::schedule::{BlockSequential, FixedSchedule, RandomInterleave, RoundRobin};
    use sift_sim::Engine;

    enum Flavor {
        Snapshot,
        Register,
    }

    fn run(
        flavor: Flavor,
        proposals: &[u64],
        schedule: impl sift_sim::schedule::Schedule,
    ) -> Vec<Option<AcOutput<u64>>> {
        let n = proposals.len();
        let mut b = LayoutBuilder::new();
        let outputs = match flavor {
            Flavor::Snapshot => {
                let ac = GafniSnapshotAc::<u64>::allocate(&mut b, n, |v| *v);
                let layout = b.build();
                let procs: Vec<_> = proposals
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| ac.proposer(ProcessId(i), c, c))
                    .collect();
                Engine::new(&layout, procs).run(schedule).outputs
            }
            Flavor::Register => {
                let ac = GafniRegisterAc::<u64>::allocate(&mut b, n, |v| *v);
                let layout = b.build();
                let procs: Vec<_> = proposals
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| ac.proposer(ProcessId(i), c, c))
                    .collect();
                Engine::new(&layout, procs).run(schedule).outputs
            }
        };
        check_ac_properties(proposals, &outputs);
        outputs
    }

    #[test]
    fn unanimous_commits_both_flavors() {
        for flavor in [Flavor::Snapshot, Flavor::Register] {
            let outs = run(flavor, &[7, 7, 7], RoundRobin::new(3));
            for o in outs {
                assert_eq!(o.unwrap().verdict, Verdict::Commit);
            }
        }
    }

    #[test]
    fn sequential_conflict_adopts_committed_value() {
        for flavor in [Flavor::Snapshot, Flavor::Register] {
            let mut slots = vec![0usize; 20];
            slots.extend(vec![1usize; 20]);
            let outs = run(flavor, &[4, 9], FixedSchedule::from_indices(slots));
            assert_eq!(outs[0].as_ref().unwrap().verdict, Verdict::Commit);
            assert_eq!(outs[1].as_ref().unwrap().code, 4);
        }
    }

    #[test]
    fn concurrent_conflicts_never_double_commit() {
        for flavor in [Flavor::Snapshot, Flavor::Register] {
            for seed in 0..50 {
                let outs = run(
                    match flavor {
                        Flavor::Snapshot => Flavor::Snapshot,
                        Flavor::Register => Flavor::Register,
                    },
                    &[1, 2, 3, 1],
                    RandomInterleave::new(4, seed),
                );
                let commits: Vec<u64> = outs
                    .iter()
                    .flatten()
                    .filter(|o| o.is_commit())
                    .map(|o| o.code)
                    .collect();
                assert!(commits.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
            }
        }
    }

    #[test]
    fn block_schedule_chains_adoption() {
        for flavor in [Flavor::Snapshot, Flavor::Register] {
            let outs = run(flavor, &[8, 1, 2], BlockSequential::in_order(3));
            for o in outs {
                assert_eq!(o.unwrap().code, 8);
            }
        }
    }

    #[test]
    fn snapshot_flavor_uses_constant_ops() {
        let mut b = LayoutBuilder::new();
        let ac = GafniSnapshotAc::<u64>::allocate(&mut b, 64, |v| *v);
        let layout = b.build();
        let procs: Vec<_> = (0..64)
            .map(|i| ac.proposer(ProcessId(i), i as u64 % 3, i as u64 % 3))
            .collect();
        let report = Engine::new(&layout, procs).run(RoundRobin::new(64));
        assert!(report.all_decided());
        for &steps in &report.metrics.per_process_steps {
            assert!(steps <= 5, "snapshot Gafni must be O(1), got {steps}");
        }
    }

    #[test]
    fn register_flavor_bound_holds() {
        let n = 16;
        let mut b = LayoutBuilder::new();
        let ac = GafniRegisterAc::<u64>::allocate(&mut b, n, |v| *v);
        let layout = b.build();
        let bound = <GafniRegisterAc<u64> as AdoptCommit<u64>>::steps_bound(&ac);
        assert_eq!(bound, 3 * n as u64 + 2);
        let procs: Vec<_> = (0..n)
            .map(|i| ac.proposer(ProcessId(i), i as u64 % 2, i as u64 % 2))
            .collect();
        let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
        for &steps in &report.metrics.per_process_steps {
            assert!(steps <= bound);
        }
    }

    #[test]
    fn codes_identify_values_not_processes() {
        // Different processes proposing the same code must be treated as
        // agreeing, even though they are distinct proposers.
        let outs = run(Flavor::Snapshot, &[5, 5, 5, 5], RandomInterleave::new(4, 3));
        for o in outs {
            assert_eq!(o.unwrap().verdict, Verdict::Commit);
        }
    }

    #[test]
    #[should_panic(expected = "code extractor disagrees")]
    fn mismatched_code_panics() {
        let mut b = LayoutBuilder::new();
        let ac = GafniSnapshotAc::<u64>::allocate(&mut b, 2, |v| *v);
        let _ = ac.proposer(ProcessId(0), 1, 2u64);
    }
}
