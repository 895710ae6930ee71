//! Export a conciliator run as a Chrome trace (Perfetto) JSON file.
//!
//! Runs Algorithm 2 (the sifting conciliator) for a small `n` with the
//! engine's trace enabled, attaches the per-round persona
//! survival counter track, and writes the trace to the path given as
//! the first argument (stdout when omitted). Open the file in
//! <https://ui.perfetto.dev> or `chrome://tracing`: one track per
//! process, one slice per shared-memory operation, slots as
//! microseconds (the paper's unit-cost measure, not wall-clock).
//!
//! Run with: `cargo run --release --example trace_export -- trace.json`

use std::io::Write as _;

use sift::core::{
    distinct_per_round, Conciliator, Epsilon, Recorder, RoundHistory, SiftingConciliator,
};
use sift::sim::obs::{check_trace_shape, perfetto_trace_json};
use sift::sim::rng::SeedSplitter;
use sift::sim::schedule::RandomInterleave;
use sift::sim::{Engine, LayoutBuilder};

const N: usize = 16;

fn main() {
    let mut builder = LayoutBuilder::new();
    let conciliator = SiftingConciliator::allocate(&mut builder, N, Epsilon::HALF);
    let layout = builder.build();
    let split = SeedSplitter::new(12);
    let processes = split.processes(N, |pid, rng| {
        Recorder::new(conciliator.participant(pid, pid.index() as u64, rng))
    });

    let mut engine = Engine::new(&layout, processes);
    engine.enable_trace();
    let report = engine.run(RandomInterleave::new(N, split.schedule_seed()));

    let survival: Vec<(u64, u64)> =
        distinct_per_round(report.processes.iter().map(|p| p.history()))
            .into_iter()
            .enumerate()
            .map(|(round, count)| (round as u64, count as u64))
            .collect();
    let trace = report.trace.as_ref().expect("trace was enabled");
    let json = perfetto_trace_json(trace.events(), N, &survival);
    let records = check_trace_shape(&json).expect("exporter output passes its own schema check");

    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &json).expect("write trace file");
            eprintln!("wrote {path}: {records} records ({} ops)", trace.len());
        }
        None => {
            std::io::stdout()
                .write_all(json.as_bytes())
                .expect("write trace to stdout");
        }
    }
}
