//! E19 — §3's register-width remark: dropping the originating id
//! shrinks sifting registers from `O(log n + log m)` to
//! `O(log log n + log m)` bits, and the compact implementation behaves
//! identically.

use sift_core::compact::{register_width, CompactSiftingConciliator};
use sift_core::Epsilon;
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::RandomInterleave;
use sift_sim::{Engine, LayoutBuilder};

use crate::exec::Batch;
use crate::runner::default_trials;
use crate::stats::{Last, RateCounter};
use crate::table::{fmt_f64, Table};

/// Register widths across `(n, m)` plus the compact conciliator's
/// measured agreement rate.
pub(crate) fn run() -> Vec<Table> {
    let mut widths = Table::new(
        "E19a — sifting register width in bits (ε = 1/2)",
        &[
            "n",
            "m",
            "R",
            "with id: ⌈log n⌉+⌈log m⌉+R+1",
            "compact: ⌈log m⌉+R+1",
            "saved",
        ],
    );
    for &n in &[1u64 << 8, 1 << 16, 1 << 24, 1 << 40] {
        for &m in &[2u64, 256, 1 << 16] {
            let w = register_width(n, m, Epsilon::HALF);
            widths.row(vec![
                n.to_string(),
                m.to_string(),
                w.rounds.to_string(),
                w.with_id_bits.to_string(),
                w.compact_bits.to_string(),
                format!("{} bits", w.with_id_bits - w.compact_bits),
            ]);
        }
    }
    widths.note("The id contributes ⌈log n⌉ bits; everything else is O(loglog n + log m).");

    let mut behaviour = Table::new(
        "E19b — compact (id-free) sifting conciliator: agreement unchanged",
        &[
            "n",
            "m",
            "register bits",
            "trials",
            "agree rate",
            "guarantee",
        ],
    );
    for &(n, m) in &[(64usize, 4u64), (256, 16), (1024, 256)] {
        let trials = default_trials(400);
        let (agree, bits) = Batch::new(
            n,
            trials,
            sift_sim::schedule::ScheduleKind::RandomInterleave,
        )
        .run_with(
            |spec| {
                let mut b = LayoutBuilder::new();
                let c = CompactSiftingConciliator::allocate(&mut b, n, m, Epsilon::HALF);
                let bits = c.register_bits();
                let layout = b.build();
                let split = SeedSplitter::new(spec.seed);
                let procs = split.processes(n, |pid, rng| {
                    c.participant(pid, pid.index() as u64 % m, rng)
                });
                let report = Engine::new(&layout, procs)
                    .run(RandomInterleave::new(n, split.schedule_seed()));
                let outs: Vec<u64> = report.unwrap_outputs();
                (outs.windows(2).all(|w| w[0] == w[1]), bits)
            },
            || (RateCounter::new(), Last::new()),
            |(agree, last), (hit, bits)| {
                agree.record(hit);
                last.record(bits);
            },
        );
        behaviour.row(vec![
            n.to_string(),
            m.to_string(),
            bits.get().copied().unwrap_or(0).to_string(),
            agree.total().to_string(),
            fmt_f64(agree.rate()),
            "≥ 0.5".to_string(),
        ]);
    }
    behaviour.note(
        "Identical coin flips can merge same-input personae early; the analysis already \
         counts such merges pessimistically, so the guarantee is unaffected.",
    );
    vec![widths, behaviour]
}
