//! E14 — adopt-commit objects: safety properties and cost curves versus
//! the code-space size `m` (the `log m` shape that drives Corollaries
//! 2–3).

use sift_adopt_commit::{
    check_ac_properties, AcOutput, AdoptCommit, DigitAc, FlagsAc, GafniRegisterAc, GafniSnapshotAc,
};
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::RandomInterleave;
use sift_sim::{Engine, LayoutBuilder, ProcessId};

use crate::exec::Batch;
use crate::runner::default_trials;
use crate::stats::Peak;
use crate::table::Table;

fn run_object<A: AdoptCommit<u64>>(
    ac: &A,
    layout: &sift_sim::Layout,
    m: u64,
    n: usize,
    seed: u64,
) -> u64 {
    let split = SeedSplitter::new(seed);
    let mut rng = split.stream("proposals", 0);
    let proposals: Vec<u64> = (0..n).map(|_| rng.range_u64(m)).collect();
    let procs: Vec<_> = proposals
        .iter()
        .enumerate()
        .map(|(i, &c)| ac.proposer(ProcessId(i), c, c))
        .collect();
    let report = Engine::new(layout, procs).run(RandomInterleave::new(n, split.schedule_seed()));
    let max = report.metrics.max_individual_steps();
    let outputs: Vec<Option<AcOutput<u64>>> = report.outputs;
    check_ac_properties(&proposals, &outputs);
    max
}

/// Worst proposer step count over a batch of property-checked runs of
/// one adopt-commit implementation.
fn worst_steps<A: AdoptCommit<u64>>(
    n: usize,
    trials: usize,
    m: u64,
    alloc: impl Fn(&mut LayoutBuilder) -> A + Sync,
) -> u64 {
    Batch::new(
        n,
        trials,
        sift_sim::schedule::ScheduleKind::RandomInterleave,
    )
    .run_with(
        |spec| {
            let mut b = LayoutBuilder::new();
            let ac = alloc(&mut b);
            let layout = b.build();
            run_object(&ac, &layout, m, n, spec.seed)
        },
        Peak::new,
        |p, steps| p.record(steps),
    )
    .get()
}

/// Cost (max proposer steps) of each adopt-commit object versus `m`,
/// with every run property-checked.
pub(crate) fn run() -> Vec<Table> {
    let mut table = Table::new(
        "E14 — adopt-commit cost vs code space m (n = 16 proposers, worst observed steps)",
        &[
            "m",
            "flags 2m+3",
            "digit b=2 (~6 log2 m)",
            "digit b=16",
            "Gafni snapshot (≤5)",
            "Gafni register (3n+2)",
        ],
    );
    let n = 16;
    let trials = default_trials(40);
    for &m in &[2u64, 4, 16, 64, 256, 1024, 4096, 65_536] {
        let mut cells = vec![m.to_string()];

        // Flags (skip very large m: O(m) registers).
        if m <= 4096 {
            let worst = worst_steps(n, trials, m, |b| FlagsAc::allocate(b, m as usize));
            cells.push(worst.to_string());
        } else {
            cells.push("-".to_string());
        }

        for &base in &[2u64, 16] {
            let worst = worst_steps(n, trials, m, |b| DigitAc::for_code_space(b, m, base));
            cells.push(worst.to_string());
        }

        let worst = worst_steps(n, trials, m, |b| {
            GafniSnapshotAc::<u64>::allocate(b, n, |v| *v)
        });
        cells.push(worst.to_string());

        let worst = worst_steps(n, trials, m, |b| {
            GafniRegisterAc::<u64>::allocate(b, n, |v| *v)
        });
        cells.push(worst.to_string());
        table.row(cells);
    }
    table.note(
        "Every run is checked for validity, convergence, and coherence. The digit object is \
         our stand-in for Aspnes–Ellen [9]: O(log m) vs their O(log m / log log m); the \
         Gafni objects cost O(1) snapshot ops / O(n) register ops independent of m.",
    );
    vec![table]
}
