//! Digit-decomposed adopt-commit: `O(log m)` register operations for a
//! code space of size `m`.
//!
//! Stand-in for the Aspnes–Ellen adopt-commit object (paper reference
//! \[9\], cost `O(log m / log log m)`): codes are written positionally as
//! `digits` base-`base` digits, with one flag array per position acting
//! as a per-digit conflict detector. Two distinct codes differ in at
//! least one position, and at that position the flags-array argument of
//! [`FlagsAc`](crate::flags::FlagsAc) applies verbatim, so candidate
//! uniqueness — and with it coherence — carries over.
//!
//! Cost is `2·digits·(base+1) + 2` operations; with `base = 2` this is
//! `O(log m)`, within a `log log m` factor of \[9\]. The substitution is
//! recorded in `DESIGN.md`; the experiment harness measures the actual
//! curve (experiment E14).

use std::sync::Arc;

use sift_sim::{LayoutBuilder, Op, OpResult, Process, ProcessId, RegisterId, Step, Value};

use crate::spec::{AcOutput, AdoptCommit, Verdict};

/// Shared state of a digit adopt-commit instance.
///
/// # Examples
///
/// ```
/// use sift_adopt_commit::{AdoptCommit, DigitAc};
/// use sift_sim::{Engine, LayoutBuilder, ProcessId};
/// use sift_sim::schedule::RoundRobin;
///
/// let mut b = LayoutBuilder::new();
/// // Codes 0..1024 with base-4 digits: 5 positions.
/// let ac = DigitAc::for_code_space(&mut b, 1024, 4);
/// let layout = b.build();
/// let procs: Vec<_> = (0..4).map(|i| ac.proposer(ProcessId(i), 777, 1u64)).collect();
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(4));
/// assert!(report.unwrap_outputs().iter().all(|o| o.is_commit()));
/// ```
#[derive(Debug, Clone)]
pub struct DigitAc {
    /// `a[position][digit]` announcement flags.
    a: Arc<Vec<Vec<RegisterId>>>,
    /// `bc[position][digit]` candidate flags.
    bc: Arc<Vec<Vec<RegisterId>>>,
    raw: RegisterId,
    base: u64,
    digits: usize,
}

impl DigitAc {
    /// Allocates an instance with an explicit digit layout. The code
    /// space is `base^digits`.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2` or `digits == 0`.
    pub(crate) fn allocate(builder: &mut LayoutBuilder, base: u64, digits: usize) -> Self {
        assert!(base >= 2, "base must be at least 2");
        assert!(digits > 0, "need at least one digit position");
        let mk = |builder: &mut LayoutBuilder| {
            Arc::new(
                (0..digits)
                    .map(|_| builder.registers(base as usize))
                    .collect::<Vec<_>>(),
            )
        };
        let a = mk(builder);
        let bc = mk(builder);
        Self {
            a,
            bc,
            raw: builder.register(),
            base,
            digits,
        }
    }

    /// Allocates an instance covering codes `0..m` with the given base,
    /// using `⌈log_base m⌉` digit positions.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `base < 2`.
    pub fn for_code_space(builder: &mut LayoutBuilder, m: u64, base: u64) -> Self {
        assert!(m > 0, "code space must be non-empty");
        assert!(base >= 2, "base must be at least 2");
        let mut digits = 1;
        let mut span = base;
        while span < m {
            span = span.saturating_mul(base);
            digits += 1;
        }
        Self::allocate(builder, base, digits)
    }

    /// The size of the code space (`base^digits`), saturating.
    pub(crate) fn code_space(&self) -> u64 {
        self.base.saturating_pow(self.digits as u32)
    }

    fn digit(&self, code: u64, position: usize) -> usize {
        ((code / self.base.pow(position as u32)) % self.base) as usize
    }
}

impl<V: Value> AdoptCommit<V> for DigitAc {
    type Proposer = DigitProposer<V>;

    /// # Panics
    ///
    /// Panics if `code` does not fit in `digits` base-`base` digits.
    fn proposer(&self, _pid: ProcessId, code: u64, value: V) -> DigitProposer<V> {
        assert!(
            code < self.code_space(),
            "code {code} out of code space 0..{}",
            self.code_space()
        );
        let digits = self.digits;
        DigitProposer {
            shared: self.clone(),
            code,
            value,
            state: State::WriteA { position: 0 },
            saw_other: false,
            seen: vec![None; digits],
        }
    }

    fn steps_bound(&self) -> u64 {
        2 * self.digits as u64 * (self.base + 1) + 2
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    WriteA { position: usize },
    CollectA { flat: usize },
    WriteBc { position: usize },
    WriteRaw,
    CollectBc { flat: usize, cand: bool },
    ReadRaw,
    Finished,
}

/// Single-use proposer state machine of [`DigitAc`].
#[derive(Debug, Clone)]
pub struct DigitProposer<V> {
    shared: DigitAc,
    code: u64,
    value: V,
    state: State,
    saw_other: bool,
    /// Candidate digit (and stored value) observed per position during
    /// the `bc` collect. By candidate uniqueness at most one digit per
    /// position can ever be flagged.
    seen: Vec<Option<(usize, V)>>,
}

impl<V: Value> DigitProposer<V> {
    fn slot(&self, flat: usize) -> (usize, usize) {
        let base = self.shared.base as usize;
        (flat / base, flat % base)
    }

    fn total_slots(&self) -> usize {
        self.shared.digits * self.shared.base as usize
    }

    fn finish(&mut self, verdict: Verdict, code: u64, value: V) -> Step<V, AcOutput<V>> {
        self.state = State::Finished;
        Step::Done(AcOutput {
            verdict,
            code,
            value,
        })
    }
}

impl<V: Value> Process for DigitProposer<V> {
    type Value = V;
    type Output = AcOutput<V>;

    fn step(&mut self, prev: Option<OpResult<V>>) -> Step<V, AcOutput<V>> {
        loop {
            match self.state {
                State::WriteA { position } => {
                    if position < self.shared.digits {
                        let d = self.shared.digit(self.code, position);
                        self.state = State::WriteA {
                            position: position + 1,
                        };
                        return Step::Issue(Op::RegisterWrite(
                            self.shared.a[position][d],
                            self.value.clone(),
                        ));
                    }
                    self.state = State::CollectA { flat: 0 };
                }
                State::CollectA { flat } => {
                    if flat > 0 {
                        let (pos, dig) = self.slot(flat - 1);
                        let seen = prev
                            .as_ref()
                            .expect("collect resumed with a result")
                            .clone()
                            .expect_register();
                        if seen.is_some() && dig != self.shared.digit(self.code, pos) {
                            self.saw_other = true;
                        }
                    }
                    if flat < self.total_slots() {
                        let (pos, dig) = self.slot(flat);
                        self.state = State::CollectA { flat: flat + 1 };
                        return Step::Issue(Op::RegisterRead(self.shared.a[pos][dig]));
                    }
                    self.state = if self.saw_other {
                        State::WriteRaw
                    } else {
                        State::WriteBc { position: 0 }
                    };
                }
                State::WriteBc { position } => {
                    if position < self.shared.digits {
                        let d = self.shared.digit(self.code, position);
                        self.state = State::WriteBc {
                            position: position + 1,
                        };
                        return Step::Issue(Op::RegisterWrite(
                            self.shared.bc[position][d],
                            self.value.clone(),
                        ));
                    }
                    self.state = State::CollectBc {
                        flat: 0,
                        cand: true,
                    };
                }
                State::WriteRaw => {
                    self.state = State::CollectBc {
                        flat: 0,
                        cand: false,
                    };
                    return Step::Issue(Op::RegisterWrite(self.shared.raw, self.value.clone()));
                }
                State::CollectBc { flat, cand } => {
                    if flat > 0 {
                        let (pos, dig) = self.slot(flat - 1);
                        if let Some(v) = prev
                            .as_ref()
                            .expect("collect resumed with a result")
                            .clone()
                            .expect_register()
                        {
                            match &self.seen[pos] {
                                None => self.seen[pos] = Some((dig, v)),
                                Some((prev_dig, _)) => debug_assert_eq!(
                                    *prev_dig, dig,
                                    "two candidate writers with different codes"
                                ),
                            }
                        }
                    }
                    if flat < self.total_slots() {
                        let (pos, dig) = self.slot(flat);
                        self.state = State::CollectBc {
                            flat: flat + 1,
                            cand,
                        };
                        return Step::Issue(Op::RegisterRead(self.shared.bc[pos][dig]));
                    }
                    if cand {
                        self.state = State::ReadRaw;
                        return Step::Issue(Op::RegisterRead(self.shared.raw));
                    }
                    // Raw path: adopt the candidate only if its full code
                    // is visible. A partially visible candidate implies
                    // nobody committed (and nobody ever will, since our
                    // raw write precedes this collect), so adopting our
                    // own value is then safe.
                    return match self.reconstruct_candidate() {
                        Some((code, v)) => self.finish(Verdict::Adopt, code, v),
                        None => {
                            let (code, value) = (self.code, self.value.clone());
                            self.finish(Verdict::Adopt, code, value)
                        }
                    };
                }
                State::ReadRaw => {
                    let raw = prev
                        .as_ref()
                        .expect("resumed with raw register value")
                        .clone()
                        .expect_register();
                    let verdict = if raw.is_none() {
                        Verdict::Commit
                    } else {
                        Verdict::Adopt
                    };
                    let (code, value) = (self.code, self.value.clone());
                    return self.finish(verdict, code, value);
                }
                State::Finished => panic!("proposer stepped after completion"),
            }
        }
    }
}

impl<V: Value> DigitProposer<V> {
    /// Reassembles the candidate's `(code, value)` from the per-position
    /// digits observed during the `bc` collect, if every position was
    /// flagged. By candidate uniqueness all flags belong to one code, so
    /// any recorded value is the candidate's.
    fn reconstruct_candidate(&mut self) -> Option<(u64, V)> {
        if self.seen.iter().any(Option::is_none) {
            return None;
        }
        let mut code = 0u64;
        let mut value = None;
        for (pos, entry) in self.seen.iter_mut().enumerate() {
            let (dig, v) = entry.take().expect("checked above");
            code += dig as u64 * self.shared.base.pow(pos as u32);
            value = Some(v);
        }
        Some((code, value.expect("at least one digit position")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_ac_properties;
    use sift_sim::schedule::{BlockSequential, FixedSchedule, RandomInterleave, RoundRobin};
    use sift_sim::Engine;

    fn run(
        m: u64,
        base: u64,
        proposals: &[u64],
        schedule: impl sift_sim::schedule::Schedule,
    ) -> Vec<Option<AcOutput<u64>>> {
        let mut b = LayoutBuilder::new();
        let ac = DigitAc::for_code_space(&mut b, m, base);
        let layout = b.build();
        let procs: Vec<_> = proposals
            .iter()
            .enumerate()
            .map(|(i, &c)| ac.proposer(ProcessId(i), c, c + 100))
            .collect();
        let report = Engine::new(&layout, procs).run(schedule);
        let outputs = report.outputs;
        check_ac_properties(proposals, &outputs);
        outputs
    }

    #[test]
    fn unanimous_commits() {
        let outs = run(256, 2, &[200, 200, 200], RoundRobin::new(3));
        for o in outs {
            let o = o.unwrap();
            assert_eq!(o.verdict, Verdict::Commit);
            assert_eq!(o.code, 200);
            assert_eq!(o.value, 300);
        }
    }

    #[test]
    fn sequential_conflict_adopts_committed_value() {
        let mut slots = vec![0usize; 60];
        slots.extend(vec![1usize; 60]);
        let outs = run(64, 4, &[17, 42], FixedSchedule::from_indices(slots));
        assert_eq!(outs[0].as_ref().unwrap().verdict, Verdict::Commit);
        let o1 = outs[1].as_ref().unwrap();
        assert_eq!(o1.verdict, Verdict::Adopt);
        assert_eq!(o1.code, 17);
        assert_eq!(o1.value, 117);
    }

    #[test]
    fn concurrent_conflicts_are_safe_across_seeds_and_bases() {
        for base in [2u64, 3, 8] {
            for seed in 0..40 {
                let outs = run(64, base, &[5, 40, 63, 5], RandomInterleave::new(4, seed));
                let commits: Vec<u64> = outs
                    .iter()
                    .flatten()
                    .filter(|o| o.is_commit())
                    .map(|o| o.code)
                    .collect();
                assert!(
                    commits.windows(2).all(|w| w[0] == w[1]),
                    "base {base} seed {seed}: {commits:?}"
                );
            }
        }
    }

    #[test]
    fn block_schedule_chains_adoption() {
        let outs = run(1 << 16, 2, &[9999, 1, 2, 3], BlockSequential::in_order(4));
        for o in outs {
            assert_eq!(o.unwrap().code, 9999);
        }
    }

    #[test]
    fn steps_bound_holds_and_is_logarithmic() {
        let mut b = LayoutBuilder::new();
        let ac = DigitAc::for_code_space(&mut b, 1 << 20, 2);
        let layout = b.build();
        let bound = <DigitAc as AdoptCommit<u64>>::steps_bound(&ac);
        assert!(bound <= 2 * 20 * 3 + 2, "bound {bound} not logarithmic");
        let procs: Vec<_> = (0..3)
            .map(|i| ac.proposer(ProcessId(i), i as u64 * 1000, 0u64))
            .collect();
        let report = Engine::new(&layout, procs).run(RoundRobin::new(3));
        assert!(report.all_decided());
        for &steps in &report.metrics.per_process_steps {
            assert!(steps <= bound);
        }
    }

    #[test]
    fn digit_extraction() {
        let mut b = LayoutBuilder::new();
        let ac = DigitAc::allocate(&mut b, 4, 3);
        assert_eq!(ac.code_space(), 64);
        // 27 = 123 in base 4.
        assert_eq!(ac.digit(27, 0), 3);
        assert_eq!(ac.digit(27, 1), 2);
        assert_eq!(ac.digit(27, 2), 1);
    }

    #[test]
    fn for_code_space_sizes() {
        let mut b = LayoutBuilder::new();
        let ac = DigitAc::for_code_space(&mut b, 100, 10);
        assert_eq!(ac.digits, 2);
        assert_eq!(ac.base, 10);
        let ac2 = DigitAc::for_code_space(&mut b, 101, 10);
        assert_eq!(ac2.digits, 3);
    }

    #[test]
    #[should_panic(expected = "out of code space")]
    fn oversized_code_panics() {
        let mut b = LayoutBuilder::new();
        let ac = DigitAc::allocate(&mut b, 2, 3);
        let _ = ac.proposer(ProcessId(0), 8, 0u64);
    }
}
