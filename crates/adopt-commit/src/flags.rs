//! Value-indexed two-phase adopt-commit: `O(m)` register operations for a
//! code space of size `m`.
//!
//! This is the multi-writer register analogue of Gafni's two-phase
//! adopt-commit, with the per-process arrays replaced by per-*value*
//! flag registers (the natural construction when the code space is
//! small). Phase 1 announces the proposal in `a[code]` and collects `a`;
//! a proposer that saw only its own value becomes a *candidate writer*
//! and records `bc[code]`, others record the shared `raw` register.
//! Phase 2 collects `bc` and `raw` and decides.
//!
//! Safety sketch (full proofs as property tests in this crate):
//!
//! * *Candidate uniqueness*: two candidate writers with different codes
//!   would each have to read the other's `a` slot as ⊥ after writing
//!   their own — impossible for atomic registers.
//! * *Coherence*: a committer read `raw` as ⊥ after writing `bc[code]`,
//!   so every raw proposer (whose `raw` write therefore follows that
//!   read) sees `bc[code]` in its later collect and adopts it; by
//!   uniqueness no other candidate code exists.

use std::sync::Arc;

use sift_sim::{LayoutBuilder, Op, OpResult, Process, ProcessId, RegisterId, Step, Value};

use crate::spec::{AcOutput, AdoptCommit, Verdict};

/// Shared state of a flags adopt-commit instance over codes `0..m`.
///
/// # Examples
///
/// ```
/// use sift_adopt_commit::{AdoptCommit, FlagsAc};
/// use sift_sim::{Engine, LayoutBuilder, ProcessId};
/// use sift_sim::schedule::RoundRobin;
///
/// let mut b = LayoutBuilder::new();
/// let ac = FlagsAc::allocate(&mut b, 4);
/// let layout = b.build();
/// let procs: Vec<_> = (0..3).map(|i| ac.proposer(ProcessId(i), 2, 20u64)).collect();
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(3));
/// for out in report.unwrap_outputs() {
///     assert!(out.is_commit()); // unanimous input commits
///     assert_eq!(out.code, 2);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FlagsAc {
    a: Arc<Vec<RegisterId>>,
    bc: Arc<Vec<RegisterId>>,
    raw: RegisterId,
    m: usize,
}

impl FlagsAc {
    /// Allocates an instance for codes `0..m`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn allocate(builder: &mut LayoutBuilder, m: usize) -> Self {
        assert!(m > 0, "code space must be non-empty");
        Self {
            a: Arc::new(builder.registers(m)),
            bc: Arc::new(builder.registers(m)),
            raw: builder.register(),
            m,
        }
    }
}

impl<V: Value> AdoptCommit<V> for FlagsAc {
    type Proposer = FlagsProposer<V>;

    /// # Panics
    ///
    /// Panics if `code >= m`.
    fn proposer(&self, _pid: ProcessId, code: u64, value: V) -> FlagsProposer<V> {
        assert!(
            (code as usize) < self.m,
            "code {code} out of code space 0..{}",
            self.m
        );
        FlagsProposer {
            shared: self.clone(),
            code: code as usize,
            value,
            state: State::Start,
            saw_other: false,
            candidate: None,
        }
    }

    fn steps_bound(&self) -> u64 {
        2 * self.m as u64 + 3
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    CollectA { next: usize },
    CollectBc { next: usize, cand: bool },
    ReadRaw,
    Finished,
}

/// Single-use proposer state machine of [`FlagsAc`].
#[derive(Debug, Clone)]
pub struct FlagsProposer<V> {
    shared: FlagsAc,
    code: usize,
    value: V,
    state: State,
    saw_other: bool,
    /// First candidate entry observed in the `bc` collect.
    candidate: Option<(usize, V)>,
}

impl<V: Value> FlagsProposer<V> {
    fn decide(&mut self, raw_empty: bool, cand: bool) -> Step<V, AcOutput<V>> {
        self.state = State::Finished;
        if cand {
            // Candidate-writer path: by uniqueness our code is the only
            // candidate code; commit iff nobody recorded a conflict.
            let verdict = if raw_empty {
                Verdict::Commit
            } else {
                Verdict::Adopt
            };
            Step::Done(AcOutput {
                verdict,
                code: self.code as u64,
                value: self.value.clone(),
            })
        } else {
            // Raw path: adopt the (unique) candidate if one is visible.
            match self.candidate.take() {
                Some((code, value)) => Step::Done(AcOutput {
                    verdict: Verdict::Adopt,
                    code: code as u64,
                    value,
                }),
                None => Step::Done(AcOutput {
                    verdict: Verdict::Adopt,
                    code: self.code as u64,
                    value: self.value.clone(),
                }),
            }
        }
    }
}

impl<V: Value> Process for FlagsProposer<V> {
    type Value = V;
    type Output = AcOutput<V>;

    fn step(&mut self, prev: Option<OpResult<V>>) -> Step<V, AcOutput<V>> {
        let m = self.shared.m;
        {
            match self.state {
                State::Start => {
                    self.state = State::CollectA { next: 0 };
                    Step::Issue(Op::RegisterWrite(
                        self.shared.a[self.code],
                        self.value.clone(),
                    ))
                }
                State::CollectA { next } => {
                    if next > 0 {
                        // Result of reading slot `next - 1`.
                        let seen = prev
                            .as_ref()
                            .expect("collect resumed with a result")
                            .clone()
                            .expect_register();
                        if seen.is_some() && next - 1 != self.code {
                            self.saw_other = true;
                        }
                    }
                    if next < m {
                        self.state = State::CollectA { next: next + 1 };
                        return Step::Issue(Op::RegisterRead(self.shared.a[next]));
                    }
                    let cand = !self.saw_other;
                    self.state = State::CollectBc { next: 0, cand };
                    if cand {
                        Step::Issue(Op::RegisterWrite(
                            self.shared.bc[self.code],
                            self.value.clone(),
                        ))
                    } else {
                        Step::Issue(Op::RegisterWrite(self.shared.raw, self.value.clone()))
                    }
                }
                State::CollectBc { next, cand } => {
                    if next > 0 {
                        let slot = next - 1;
                        if let Some(v) = prev
                            .as_ref()
                            .expect("collect resumed with a result")
                            .clone()
                            .expect_register()
                        {
                            if self.candidate.is_none() && slot != self.code {
                                self.candidate = Some((slot, v));
                            }
                        }
                    }
                    if next < m {
                        self.state = State::CollectBc {
                            next: next + 1,
                            cand,
                        };
                        return Step::Issue(Op::RegisterRead(self.shared.bc[next]));
                    }
                    if cand {
                        // Candidate uniqueness: no other candidate code
                        // can be visible.
                        debug_assert!(
                            self.candidate.is_none(),
                            "two candidate writers with different codes"
                        );
                        self.state = State::ReadRaw;
                        return Step::Issue(Op::RegisterRead(self.shared.raw));
                    }
                    self.decide(false, false)
                }
                State::ReadRaw => {
                    let raw = prev
                        .as_ref()
                        .expect("resumed with raw register value")
                        .clone()
                        .expect_register();
                    self.decide(raw.is_none(), true)
                }
                State::Finished => panic!("proposer stepped after completion"),
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

    fn run(
        m: usize,
        proposals: &[u64],
        schedule: impl sift_sim::schedule::Schedule,
    ) -> Vec<Option<AcOutput<u64>>> {
        let mut b = LayoutBuilder::new();
        let ac = FlagsAc::allocate(&mut b, m);
        let layout = b.build();
        let procs: Vec<_> = proposals
            .iter()
            .enumerate()
            .map(|(i, &c)| ac.proposer(ProcessId(i), c, c * 10))
            .collect();
        let report = Engine::new(&layout, procs).run(schedule);
        let outputs = report.outputs;
        check_ac_properties(proposals, &outputs);
        outputs
    }

    #[test]
    fn unanimous_commits() {
        let outs = run(4, &[1, 1, 1, 1], RoundRobin::new(4));
        for o in outs {
            let o = o.unwrap();
            assert_eq!(o.verdict, Verdict::Commit);
            assert_eq!(o.code, 1);
            assert_eq!(o.value, 10);
        }
    }

    #[test]
    fn solo_proposer_commits() {
        let outs = run(8, &[5], RoundRobin::new(1));
        assert_eq!(outs[0].as_ref().unwrap().verdict, Verdict::Commit);
    }

    #[test]
    fn sequential_conflict_adopts_committed_value() {
        // p0 runs alone and commits 0; p1 then proposes 1 and must adopt 0.
        let mut slots = vec![0usize; 20];
        slots.extend(vec![1usize; 20]);
        let outs = run(2, &[0, 1], FixedSchedule::from_indices(slots));
        assert_eq!(outs[0].as_ref().unwrap().verdict, Verdict::Commit);
        assert_eq!(outs[0].as_ref().unwrap().code, 0);
        let o1 = outs[1].as_ref().unwrap();
        assert_eq!(o1.verdict, Verdict::Adopt);
        assert_eq!(o1.code, 0);
        assert_eq!(o1.value, 0, "adopted value travels with its code");
    }

    #[test]
    fn concurrent_conflict_never_double_commits() {
        for seed in 0..50 {
            let outs = run(3, &[0, 1, 2], RandomInterleave::new(3, seed));
            let commits: Vec<u64> = outs
                .iter()
                .flatten()
                .filter(|o| o.is_commit())
                .map(|o| o.code)
                .collect();
            let mut unique = commits.clone();
            unique.dedup();
            assert!(unique.len() <= 1, "seed {seed}: commits on {commits:?}");
        }
    }

    #[test]
    fn block_schedule_chains_adoption() {
        let outs = run(4, &[3, 1, 2], BlockSequential::in_order(3));
        // p0 commits 3 solo; everyone else adopts 3.
        for o in outs {
            assert_eq!(o.unwrap().code, 3);
        }
    }

    #[test]
    fn steps_bound_holds() {
        let mut b = LayoutBuilder::new();
        let ac = FlagsAc::allocate(&mut b, 6);
        let layout = b.build();
        let bound = <FlagsAc as AdoptCommit<u64>>::steps_bound(&ac);
        let procs: Vec<_> = (0..4)
            .map(|i| ac.proposer(ProcessId(i), i as u64, i as u64))
            .collect();
        let report = Engine::new(&layout, procs).run(RoundRobin::new(4));
        assert!(report.all_decided());
        for &steps in &report.metrics.per_process_steps {
            assert!(steps <= bound, "{steps} > bound {bound}");
        }
    }

    #[test]
    #[should_panic(expected = "out of code space")]
    fn oversized_code_panics() {
        let mut b = LayoutBuilder::new();
        let ac = FlagsAc::allocate(&mut b, 2);
        let _ = ac.proposer(ProcessId(0), 2, 0u64);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_code_space_panics() {
        let mut b = LayoutBuilder::new();
        let _ = FlagsAc::allocate(&mut b, 0);
    }
}
