//! The 2-value adopt-commit used by the combining stage of the paper's
//! Algorithm 3.

use sift_sim::{LayoutBuilder, ProcessId, Value};

use crate::flags::{FlagsAc, FlagsProposer};
use crate::spec::AdoptCommit;

/// A binary adopt-commit object: codes are `0` and `1`, cost is `O(1)`
/// (7 register operations at most).
///
/// Algorithm 3 of the paper uses one of these to reconcile values coming
/// from the embedded sifter (side 0) with values coming from the
/// Chor–Israeli–Li `proposal` register (side 1).
///
/// # Examples
///
/// ```
/// use sift_adopt_commit::{AdoptCommit, BinaryAc};
/// use sift_sim::{Engine, LayoutBuilder, ProcessId};
/// use sift_sim::schedule::RoundRobin;
///
/// let mut b = LayoutBuilder::new();
/// let ac = BinaryAc::allocate(&mut b);
/// let layout = b.build();
/// let procs = vec![ac.propose_bit(ProcessId(0), false), ac.propose_bit(ProcessId(1), false)];
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(2));
/// assert!(report.unwrap_outputs().iter().all(|o| o.is_commit()));
/// ```
#[derive(Debug, Clone)]
pub struct BinaryAc {
    inner: FlagsAc,
}

impl BinaryAc {
    /// Allocates a binary adopt-commit instance.
    pub fn allocate(builder: &mut LayoutBuilder) -> Self {
        Self {
            inner: FlagsAc::allocate(builder, 2),
        }
    }

    /// Creates a proposer for a bare bit (value = code).
    pub fn propose_bit(&self, pid: ProcessId, bit: bool) -> FlagsProposer<u64> {
        let code = u64::from(bit);
        self.inner.proposer(pid, code, code)
    }
}

impl<V: Value> AdoptCommit<V> for BinaryAc {
    type Proposer = FlagsProposer<V>;

    /// # Panics
    ///
    /// Panics if `code > 1`.
    fn proposer(&self, pid: ProcessId, code: u64, value: V) -> FlagsProposer<V> {
        self.inner.proposer(pid, code, value)
    }

    fn steps_bound(&self) -> u64 {
        <FlagsAc as AdoptCommit<V>>::steps_bound(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{check_ac_properties, Verdict};
    use sift_sim::schedule::{RandomInterleave, RoundRobin};
    use sift_sim::Engine;

    #[test]
    fn unanimous_bits_commit() {
        let mut b = LayoutBuilder::new();
        let ac = BinaryAc::allocate(&mut b);
        let layout = b.build();
        let procs: Vec<_> = (0..4).map(|i| ac.propose_bit(ProcessId(i), true)).collect();
        let report = Engine::new(&layout, procs).run(RoundRobin::new(4));
        let outputs = report.outputs;
        check_ac_properties(&[1, 1, 1, 1], &outputs);
        for o in outputs {
            let o = o.unwrap();
            assert_eq!(o.verdict, Verdict::Commit);
            assert_eq!(o.code, 1);
        }
    }

    #[test]
    fn mixed_bits_are_coherent_across_seeds() {
        for seed in 0..100 {
            let mut b = LayoutBuilder::new();
            let ac = BinaryAc::allocate(&mut b);
            let layout = b.build();
            let procs: Vec<_> = (0..4)
                .map(|i| ac.propose_bit(ProcessId(i), i % 2 == 0))
                .collect();
            let report = Engine::new(&layout, procs).run(RandomInterleave::new(4, seed));
            check_ac_properties(&[1, 0, 1, 0], &report.outputs);
        }
    }

    #[test]
    fn constant_step_bound() {
        let mut b = LayoutBuilder::new();
        let ac = BinaryAc::allocate(&mut b);
        assert_eq!(<BinaryAc as AdoptCommit<u64>>::steps_bound(&ac), 7);
    }
}
