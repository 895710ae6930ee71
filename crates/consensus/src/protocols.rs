//! Preconfigured consensus stacks matching the paper's corollaries.

use sift_adopt_commit::{DigitAc, GafniRegisterAc, GafniSnapshotAc};
use sift_core::{
    CilConciliator, EmbeddedConciliator, Epsilon, MaxConciliator, Persona, SiftingConciliator,
    SnapshotConciliator,
};
use sift_sim::LayoutBuilder;

use crate::framework::{ConsensusProtocol, DEFAULT_MAX_PHASES};

/// Corollary 1: Algorithm 1 alternated with the `O(1)` snapshot
/// adopt-commit — `O(log* n)` expected individual steps in the unit-cost
/// snapshot model, any input domain.
pub type SnapshotConsensus = ConsensusProtocol<SnapshotConciliator, GafniSnapshotAc<Persona>>;

/// Corollary 1 at scale: the max-register Algorithm 1 variant with the
/// snapshot adopt-commit.
pub type MaxRegisterConsensus = ConsensusProtocol<MaxConciliator, GafniSnapshotAc<Persona>>;

/// Corollary 2: Algorithm 2 alternated with the digit-decomposed
/// adopt-commit — `O(log log n + cost(AC(m)))` expected individual steps
/// in the multi-writer register model, for `m` possible inputs.
pub type SiftingConsensus = ConsensusProtocol<SiftingConciliator, DigitAc>;

/// Corollary 3: Algorithm 3 alternated with the digit-decomposed
/// adopt-commit — adds the `O(n)` expected-total-steps property.
pub type LinearWorkConsensus = ConsensusProtocol<EmbeddedConciliator, DigitAc>;

/// Baseline: the classic CIL conciliator with a register adopt-commit.
pub type CilConsensus = ConsensusProtocol<CilConciliator, GafniRegisterAc<Persona>>;

/// Builds the Corollary 1 stack ([`SnapshotConsensus`]).
///
/// # Examples
///
/// ```
/// use sift_consensus::{check_consensus, snapshot_consensus};
/// use sift_sim::rng::SeedSplitter;
/// use sift_sim::schedule::RoundRobin;
/// use sift_sim::{Engine, LayoutBuilder};
///
/// let n = 6;
/// let mut b = LayoutBuilder::new();
/// let protocol = snapshot_consensus(&mut b, n);
/// let layout = b.build();
/// let split = SeedSplitter::new(8);
/// let inputs: Vec<u64> = (0..n as u64).collect();
/// let procs = split.processes(n, |pid, rng| protocol.participant(pid, inputs[pid.index()], rng));
/// let report = Engine::new(&layout, procs).run(RoundRobin::new(n));
/// let outcomes = report.unwrap_outputs();
/// check_consensus(&inputs, outcomes.iter());
/// ```
pub fn snapshot_consensus(builder: &mut LayoutBuilder, n: usize) -> SnapshotConsensus {
    ConsensusProtocol::allocate(
        builder,
        n,
        DEFAULT_MAX_PHASES,
        |b| SnapshotConciliator::allocate(b, n, Epsilon::HALF),
        |b| GafniSnapshotAc::allocate(b, n, |p: &Persona| p.input()),
    )
}

/// Builds the max-register variant of the Corollary 1 stack
/// ([`MaxRegisterConsensus`]), suitable for very large `n`.
pub fn max_register_consensus(builder: &mut LayoutBuilder, n: usize) -> MaxRegisterConsensus {
    ConsensusProtocol::allocate(
        builder,
        n,
        DEFAULT_MAX_PHASES,
        |b| MaxConciliator::allocate(b, n, Epsilon::HALF),
        |b| GafniSnapshotAc::allocate(b, n, |p: &Persona| p.input()),
    )
}

/// Builds the Corollary 2 stack ([`SiftingConsensus`]) for inputs in
/// `0..m`, with base-`base` digit conflict detectors.
///
/// # Panics
///
/// Panics if `m == 0` or `base < 2`.
pub fn sifting_consensus(
    builder: &mut LayoutBuilder,
    n: usize,
    m: u64,
    base: u64,
) -> SiftingConsensus {
    ConsensusProtocol::allocate(
        builder,
        n,
        DEFAULT_MAX_PHASES,
        |b| SiftingConciliator::allocate(b, n, Epsilon::HALF),
        |b| DigitAc::for_code_space(b, m, base),
    )
}

/// Builds the Corollary 3 stack ([`LinearWorkConsensus`]) for inputs in
/// `0..m`.
///
/// # Panics
///
/// Panics if `m == 0` or `base < 2`.
pub fn linear_work_consensus(
    builder: &mut LayoutBuilder,
    n: usize,
    m: u64,
    base: u64,
) -> LinearWorkConsensus {
    ConsensusProtocol::allocate(
        builder,
        n,
        DEFAULT_MAX_PHASES,
        |b| EmbeddedConciliator::allocate(b, n),
        |b| DigitAc::for_code_space(b, m, base),
    )
}

/// Builds the CIL baseline stack ([`CilConsensus`]).
pub fn cil_consensus(builder: &mut LayoutBuilder, n: usize) -> CilConsensus {
    ConsensusProtocol::allocate(
        builder,
        n,
        DEFAULT_MAX_PHASES,
        |b| CilConciliator::allocate(b, n),
        |b| GafniRegisterAc::allocate(b, n, |p: &Persona| p.input()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::check_consensus;
    use sift_sim::rng::SeedSplitter;
    use sift_sim::schedule::{BlockSequential, RandomInterleave};
    use sift_sim::Engine;

    fn run_stack<C, A>(
        layout: sift_sim::Layout,
        protocol: ConsensusProtocol<C, A>,
        inputs: &[u64],
        seed: u64,
    ) -> Vec<crate::framework::ConsensusOutcome>
    where
        C: sift_core::Conciliator,
        A: sift_adopt_commit::AdoptCommit<Persona>,
    {
        let n = inputs.len();
        let split = SeedSplitter::new(seed);
        let procs = split.processes(n, |pid, rng| {
            protocol.participant(pid, inputs[pid.index()], rng)
        });
        let report = Engine::new(&layout, procs).run(RandomInterleave::new(n, seed + 1));
        report.unwrap_outputs()
    }

    #[test]
    fn all_stacks_reach_consensus() {
        let n = 8;
        let inputs: Vec<u64> = (0..n as u64).map(|i| i % 3).collect();
        for seed in 0..10 {
            {
                let mut b = LayoutBuilder::new();
                let p = snapshot_consensus(&mut b, n);
                let outs = run_stack(b.build(), p, &inputs, seed);
                check_consensus(&inputs, outs.iter());
            }
            {
                let mut b = LayoutBuilder::new();
                let p = max_register_consensus(&mut b, n);
                let outs = run_stack(b.build(), p, &inputs, seed);
                check_consensus(&inputs, outs.iter());
            }
            {
                let mut b = LayoutBuilder::new();
                let p = sifting_consensus(&mut b, n, 8, 2);
                let outs = run_stack(b.build(), p, &inputs, seed);
                check_consensus(&inputs, outs.iter());
            }
            {
                let mut b = LayoutBuilder::new();
                let p = linear_work_consensus(&mut b, n, 8, 2);
                let outs = run_stack(b.build(), p, &inputs, seed);
                check_consensus(&inputs, outs.iter());
            }
            {
                let mut b = LayoutBuilder::new();
                let p = cil_consensus(&mut b, n);
                let outs = run_stack(b.build(), p, &inputs, seed);
                check_consensus(&inputs, outs.iter());
            }
        }
    }

    #[test]
    fn linear_work_stack_survives_block_adversary_cheaply() {
        let n = 64;
        let inputs: Vec<u64> = (0..n as u64).map(|i| i % 4).collect();
        let mut b = LayoutBuilder::new();
        let p = linear_work_consensus(&mut b, n, 4, 2);
        let layout = b.build();
        let split = SeedSplitter::new(3);
        let procs = split.processes(n, |pid, rng| p.participant(pid, inputs[pid.index()], rng));
        let report = Engine::new(&layout, procs).run(BlockSequential::in_order(n));
        let max_individual = report.metrics.max_individual_steps();
        let outcomes = report.unwrap_outputs();
        check_consensus(&inputs, outcomes.iter());
        // Worst-case individual steps stay far below n even under the
        // solo-block adversary (the property CIL lacks).
        assert!(
            max_individual < (n as u64) * 4,
            "individual steps {max_individual} too high"
        );
    }
}
