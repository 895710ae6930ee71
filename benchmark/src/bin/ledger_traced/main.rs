//! `ledger-traced` — the per-layer binary: counting allocator, spans,
//! the decide-path replica and the layer probes. It runs the same
//! workload drivers as `ledger`, turns their clock reads into spans,
//! and adds what only the wider program surface can show.

mod counting;
mod probes;
mod replica;

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sift_ledger::alloc::{AllocCount, CountingAllocator};
use sift_ledger::cli::{parse_run, RunArgs};
use sift_ledger::json::Json;
use sift_ledger::metrics::per_layer;
use sift_ledger::report::{host_context, Record};
use sift_ledger::span::Tracer;
use sift_ledger::stats::{median, quantile};
use sift_ledger::sys::{self, Placement};
use sift_ledger::workloads::service::{self, ColdInputs, DetRun};
use sift_ledger::workloads::shmem::{self, Kind};
use sift_ledger::workloads::{run_reps, sim, summarize, PhaseStats, Pick, Rep, Workload};
use sift_service::runtime::block_on;
use sift_service::{CommitFact, InstanceId, Service, ServiceError};
use sift_shmem::memory::AtomicMemory;

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// Share of `--seconds` given to the untraced reference run, to each
/// traced phase, and (on the cold workloads) to the replica slices that
/// follow each phase-1 repetition.
const UNTRACED_SHARE: f64 = 0.3;
const PHASE_SHARE: f64 = 0.3;
const REPLICA_SHARE: f64 = 0.15;
/// Decisions of the exact (counting) pass.
const COUNTED_DECISIONS: usize = 2_048;
/// The open-loop probe: proposals per second, and how many.
const OPEN_LOOP_RATE: u64 = 20_000;
const OPEN_LOOP_COUNT: usize = 8_192;

/// Per-layer values by metric name.
#[derive(Default)]
struct Layers {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    context: Vec<(String, Json)>,
}

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn count(&mut self, stats: &PhaseStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
    }
}

fn main() {
    sys::start_clock();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_run(&args) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("ledger-traced: {message}");
            std::process::exit(2);
        }
    };
    Placement::get();
    let mut tracer = Tracer::new(run.workload.name());
    let mut layers = Layers::default();
    let traced_per_s = trace(run.workload, &run, &mut tracer, &mut layers);
    reference_passes(&run, &mut layers);
    match untraced_per_s(&run) {
        Some(untraced) => layers.set("bench.trace_overhead_share", 1.0 - traced_per_s / untraced),
        None => eprintln!(
            "warning: no `ledger` binary beside this one; bench.trace_overhead_share reads 0"
        ),
    }
    layers.set(
        "bench.pinning",
        f64::from(u8::from(Placement::get().pinned)),
    );

    if let Some(out) = &run.out {
        let path = trace_path(out, run.workload);
        tracer.write(&path).expect("write trace file");
    }
    let mut context = host_context(Placement::get().pinned);
    context.append(&mut layers.context);
    let record = Record {
        args: run.clone(),
        attempted: layers.attempted,
        failed: layers.failed,
        metrics: per_layer()
            .into_iter()
            .map(|def| {
                let value = layers.values.get(&def.name).copied().unwrap_or(0.0);
                (def.name, value, def.unit)
            })
            .collect(),
        ungated: Vec::new(),
        context,
    };
    record.emit().expect("write record");
}

/// Runs one workload's traced measurement; returns its traced phase-1
/// throughput.
fn trace(workload: Workload, run: &RunArgs, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
    match workload {
        Workload::ColdSingle => cold(run, 1, tracer, layers),
        Workload::ColdBatch8 => cold(run, 8, tracer, layers),
        Workload::HotZipf => hot(run, tracer, layers),
        Workload::SimSift => sim_sift(run, tracer, layers),
        Workload::ShmemPersona => shmem_persona(run, tracer, layers),
    }
}

/// Fills the layers the selected workload does not exercise from a
/// small reference pass (2% size, 0.1 s phases) of the workload that
/// does, so every run prints a measured value for every layer — a
/// price list taken on the same machine in the same minute. The record
/// names the borrowed metrics under `reference_layers`; read them as
/// orders of magnitude, and read a layer's real numbers on its own
/// workload.
fn reference_passes(run: &RunArgs, layers: &mut Layers) {
    let mini = RunArgs {
        seconds: 0.1,
        scale: run.scale * 0.02,
        out: None,
        ..run.clone()
    };
    let mut borrowed = Vec::new();
    for workload in [
        Workload::ColdSingle,
        Workload::HotZipf,
        Workload::SimSift,
        Workload::ShmemPersona,
    ] {
        if workload == run.workload {
            continue;
        }
        let mut scratch = Layers::default();
        trace(workload, &mini, &mut Tracer::new("reference"), &mut scratch);
        layers.attempted += scratch.attempted;
        layers.failed += scratch.failed;
        for (name, value) in scratch.values {
            if let Entry::Vacant(slot) = layers.values.entry(name) {
                borrowed.push(Json::str(slot.key().as_str()));
                slot.insert(value);
            }
        }
    }
    layers
        .context
        .push(("reference_layers".into(), Json::Arr(borrowed)));
}

/// `<dir of --out>/<workload>.trace.json`.
fn trace_path(out: &Path, workload: Workload) -> PathBuf {
    out.with_file_name(format!("{}.trace.json", workload.name()))
}

/// Phase-1 throughput of a short untraced run of the `ledger` binary
/// beside this one: the reference the traced run's slowdown is a share
/// of.
fn untraced_per_s(run: &RunArgs) -> Option<f64> {
    let ledger = std::env::current_exe().ok()?.with_file_name("ledger");
    let seconds = (run.seconds * UNTRACED_SHARE).max(0.1);
    let output = std::process::Command::new(ledger)
        .args(["--workload", run.workload.name()])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &run.scale.to_string()])
        .output()
        .ok()?;
    let stdout = String::from_utf8(output.stdout).ok()?;
    Json::parse(stdout.lines().last()?)
        .ok()?
        .get("metrics")?
        .get("phase1_per_s")?
        .get("value")?
        .as_f64()
}

/// Records a det repetition's windows as spans under a `det.rep` root.
fn det_spans(tracer: &mut Tracer, rep: u32, run: &DetRun, ticks: bool) {
    let (Some(first), Some(last)) = (run.windows.first(), run.windows.last()) else {
        return;
    };
    tracer.record("det.rep", None, rep, 0, first.t0, last.t2);
    for (w, window) in run.windows.iter().enumerate() {
        tracer.record(
            "shard.submit",
            Some("det.rep"),
            rep,
            w as u32,
            window.t0,
            window.t1,
        );
        if ticks {
            tracer.record(
                "shard.tick",
                Some("det.rep"),
                rep,
                w as u32,
                window.t1,
                window.t2,
            );
        }
    }
}

/// The client call of the traced rt phases: `propose` and `block_on`
/// timed apart, which is what `propose_sync` is made of.
fn split_call<'a>(
    tracer: &'a mut Tracer,
    rep: u32,
    calls: &'a mut Vec<f64>,
) -> impl FnMut(&Service, InstanceId, u64) -> Result<CommitFact, ServiceError> + 'a {
    let mut window = 0;
    move |service, id, value| {
        let t0 = sys::now_ns();
        let future = service.propose(id, value);
        let t1 = sys::now_ns();
        let reply = block_on(future);
        let t2 = sys::now_ns();
        tracer.record("service.round_trip", None, rep, window, t0, t2);
        tracer.record(
            "service.propose_call",
            Some("service.round_trip"),
            rep,
            window,
            t0,
            t1,
        );
        tracer.record(
            "service.wait",
            Some("service.round_trip"),
            rep,
            window,
            t1,
            t2,
        );
        calls.push((t1 - t0) as f64);
        window += 1;
        reply
    }
}

/// Sets the service-layer metrics every traced rt phase yields.
fn rt_layers(layers: &mut Layers, stats: &PhaseStats, calls: &mut [f64], decide_p50_ns: f64) {
    let propose_call = quantile(calls, 0.5);
    layers.set("service.propose_call_ns_p50", propose_call);
    layers.set(
        "service.handoff_ns_p50",
        stats.p50_ns - propose_call - decide_p50_ns,
    );
    layers.set("service.rt_p99_ns", stats.p99_ns);
    layers.context.push((
        "rt".into(),
        Json::obj([
            ("repetitions", Json::Num(stats.reps as f64)),
            (
                "samples_per_repetition",
                Json::Num(stats.samples_per_rep as f64),
            ),
            ("p50_ns", Json::Num(stats.p50_ns)),
            ("per_s", Json::Num(stats.per_s)),
        ]),
    ));
}

/// A 64-bit digest folded to 32 bits, which a JSON number (an `f64`)
/// carries exactly.
fn fold32(digest: u64) -> f64 {
    ((digest >> 32) ^ (digest & 0xFFFF_FFFF)) as f64
}

/// The shard-layer exact metrics of a cold det repetition.
fn shard_exact(layers: &mut Layers, run: &DetRun) {
    let decisions = run.rep.work.max(1) as f64;
    layers.set("shard.batch_size_mean", run.batch_sum as f64 / decisions);
    layers.set("shard.batch_size_max", run.batch_max as f64);
    layers.set("shard.phases_mean", run.phases_sum as f64 / decisions);
    layers.set("shard.attempts_mean", run.attempts_sum as f64 / decisions);
    layers.set("shard.retries", run.retries as f64);
    layers.set(
        "shard.idempotent_share",
        run.idempotent as f64 / run.proposals.max(1) as f64,
    );
    layers.set("shard.fact_digest", fold32(run.digest));
    layers.set(
        "shard.allocs_per_decision",
        run.allocated.allocations as f64 / decisions,
    );
    layers.set(
        "shard.alloc_bytes_per_decision",
        run.allocated.bytes as f64 / decisions,
    );
}

/// `cold-single` / `cold-batch8`, traced. Returns the traced phase-1
/// throughput.
fn cold(run: &RunArgs, k: usize, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
    let setup = service::cold_setup(k, run.seed, run.scale);
    let det_stats = cold_det(run, &setup.det, tracer, layers);
    cold_stack(run, &setup.det, layers);
    cold_rt(run, &setup.rt, det_stats.p50_ns, tracer, layers);
    if k == 1 {
        let svc = service::start_service(setup.rt.shard_seed);
        let probe = probes::open_loop(&svc, &setup.rt, OPEN_LOOP_RATE, OPEN_LOOP_COUNT);
        svc.shutdown();
        layers.attempted += probe.attempted;
        layers.failed += probe.failed;
        layers.set("service.ol20k_p50_ns", probe.p50_ns);
        layers.set("service.ol20k_p99_ns", probe.p99_ns);
        layers.set("service.ol20k_gen_late_p99_ns", probe.gen_late_p99_ns);
        layers.set(
            "service.ol20k_max_outstanding",
            probe.max_outstanding as f64,
        );
    }
    det_stats.per_s
}

/// Cold phase 1 under spans and the counting allocator. After each
/// repetition the replica replays a slice of the same instances stage
/// by stage, so the tick and the stages it is split into are measured
/// side by side in time — this machine's speed drifts by a tenth over
/// seconds, which is the size of the residual.
fn cold_det(
    run: &RunArgs,
    inputs: &ColdInputs,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> PhaseStats {
    let slice = (inputs.instances() / 8).max(1);
    let (mut replayed, mut matched) = (0usize, 0usize);
    let mut first: Option<DetRun> = None;
    let mut changed_digests = 0;
    let det = run_reps(run.seconds * (PHASE_SHARE + REPLICA_SHARE), |rep| {
        let det_run = service::cold_det_rep(inputs);
        det_spans(tracer, rep, &det_run, true);
        for _ in 0..slice {
            let i = replayed % inputs.instances();
            let decided = replica::decide(
                inputs,
                i,
                AtomicMemory::new,
                |_| {},
                Some((&mut *tracer, rep)),
            );
            matched += usize::from(decided.value == det_run.decided[i] as u64);
            replayed += 1;
        }
        let (out, digest) = (det_run.rep.clone(), det_run.digest);
        // A seed fixes the stream: every repetition must mint the
        // facts the first one did.
        changed_digests += u64::from(first.get_or_insert(det_run).digest != digest);
        out
    });
    let stats = summarize(&det, Pick::FastDecile);
    layers.count(&stats);
    layers.failed += changed_digests;
    shard_exact(layers, first.as_ref().expect("MIN_REPS > 0"));

    let proposals: u64 = det.iter().map(|r| r.attempted).sum();
    let decisions: u64 = det.iter().map(|r| r.work).sum();
    let tick_ns = tracer.total("shard.tick").total_ns as f64 / decisions.max(1) as f64;
    layers.set(
        "shard.submit_ns_per_proposal",
        tracer.total("shard.submit").total_ns as f64 / proposals.max(1) as f64,
    );
    layers.set("shard.tick_ns_per_decision", tick_ns);
    layers.set("shard.tick_p99_ns", stats.p99_ns);
    layers.set(
        "bench.replica_match_share",
        matched as f64 / replayed as f64,
    );
    // Means per decision, not per attempt: a retried decision pays for
    // every attempt's stages, as the tick it replays did.
    let mut stages = 0.0;
    for (stage, metric) in replica::STAGES.iter().zip([
        "consensus.allocate_ns",
        "shmem.memory_new_ns",
        "consensus.participants_ns",
        "shmem.lockstep_run_ns",
        "shmem.memory_drop_ns",
    ]) {
        let mean = tracer.total(stage).total_ns as f64 / replayed as f64;
        layers.set(metric, mean);
        stages += mean;
    }
    layers.set("shard.residual_ns_per_decision", tick_ns - stages);
    layers
        .context
        .push(("replica_decisions".into(), Json::Num(replayed as f64)));
    stats
}

/// The exact pass over the stack and the substrate's own price list,
/// which together predict the lockstep run.
fn cold_stack(run: &RunArgs, inputs: &ColdInputs, layers: &mut Layers) {
    let counts = replica::count_stack(inputs, COUNTED_DECISIONS);
    let per = |total: u64, by: u64| total as f64 / by.max(1) as f64;
    let decisions = counts.decisions;
    layers.set("consensus.phases_mean", per(counts.phases, decisions));
    layers.set(
        "core.conciliator_run_ns",
        per(counts.conciliator.ns, decisions),
    );
    layers.set(
        "core.conciliator_ops_per_proc",
        per(counts.conciliator.ops, counts.conciliator.participants),
    );
    layers.set(
        "adopt_commit.run_ns",
        per(counts.adopt_commit.ns, decisions),
    );
    layers.set(
        "adopt_commit.ops_per_proc",
        per(counts.adopt_commit.ops, counts.adopt_commit.participants),
    );
    layers.set("shmem.memory_new_allocs", counts.memory_new_allocs as f64);
    let ns_per_op = probes::substrate_ns_per_op(inputs.k, run.seed, false);
    let mut predicted = 0.0;
    for (kind, _) in Kind::MIX {
        let ops = per(counts.ops[kind.index()], decisions);
        layers.set(&format!("shmem.ops_per_decision.{}", kind.name()), ops);
        layers.set(
            &format!("shmem.ns_per_op.{}.t1", kind.name()),
            ns_per_op[kind.index()],
        );
        predicted += ops * ns_per_op[kind.index()];
    }
    let measured = layers.values["shmem.lockstep_run_ns"];
    layers.set("shmem.predicted_run_ns", predicted);
    layers.set("shmem.run_unexplained_ns", measured - predicted);
}

/// Cold phase 2 with the client call split in two.
fn cold_rt(
    run: &RunArgs,
    inputs: &ColdInputs,
    decide_p50_ns: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let mut calls = Vec::new();
    let (mut batches, mut replies) = (0, 0);
    let rt = run_reps(run.seconds * PHASE_SHARE, |rep| {
        let svc = service::start_service(inputs.shard_seed);
        let rt_run = service::cold_rt_rep(&svc, inputs, split_call(tracer, rep, &mut calls));
        svc.shutdown();
        batches += rt_run.batch_sum;
        replies += rt_run.rep.work;
        rt_run.rep
    });
    let stats = summarize(&rt, Pick::Median);
    layers.count(&stats);
    rt_layers(layers, &stats, &mut calls, decide_p50_ns);
    layers.set(
        "service.rt_batch_size_mean",
        batches as f64 / replies.max(1) as f64,
    );
}

/// `hot-zipf`, traced. Returns the traced phase-1 throughput.
fn hot(run: &RunArgs, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
    let (setup, mut det_service) = service::hot_setup(run.seed, run.scale);
    layers.failed += setup.failed;
    let (det_size, rt_size) = service::hot_sizes(run.scale);

    let mut first: Option<DetRun> = None;
    let det = run_reps(run.seconds * PHASE_SHARE, |rep| {
        let det_run = service::hot_det_rep(&setup, &mut det_service, det_size);
        det_spans(tracer, rep, &det_run, false);
        let rep = det_run.rep.clone();
        first.get_or_insert(det_run);
        rep
    });
    let det_stats = summarize(&det, Pick::FastDecile);
    layers.count(&det_stats);
    let first = first.expect("MIN_REPS > 0");
    let proposals: u64 = det.iter().map(|r| r.work).sum();
    layers.set(
        "shard.submit_ns_per_proposal",
        tracer.total("shard.submit").total_ns as f64 / proposals.max(1) as f64,
    );
    layers.set(
        "shard.idempotent_share",
        first.idempotent as f64 / first.proposals.max(1) as f64,
    );
    layers.set("shard.fact_digest", fold32(first.digest));

    let mut calls = Vec::new();
    let rt = run_reps(run.seconds * PHASE_SHARE, |rep| {
        service::hot_rt_rep(&setup, rt_size, split_call(tracer, rep, &mut calls))
    });
    let rt_stats = summarize(&rt, Pick::Median);
    layers.count(&rt_stats);
    rt_layers(layers, &rt_stats, &mut calls, 0.0);

    layers.set(
        "runtime.oneshot_roundtrip_ns",
        probes::oneshot_roundtrip_ns(),
    );
    let (add_count, record_hist) = probes::obs_ns();
    layers.set("obs.add_count_ns", add_count);
    layers.set("obs.record_hist_ns", record_hist);
    det_stats.per_s
}

/// `sim-sift`, traced. Returns the traced phase-1 throughput.
fn sim_sift(run: &RunArgs, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
    let setup = sim::setup(run.seed, run.scale);
    let n = setup.n as f64;
    let trials = setup.trial_seeds.len();

    // Repetition 0's counts are the exact ones.
    let (mut ops, mut slots, mut steps, mut allocated) = (0u64, 0u64, 0.0, AllocCount::default());
    let eager = run_reps(run.seconds * PHASE_SHARE, |rep| {
        let mut out = Rep::default();
        for t in 0..trials {
            let before = AllocCount::now();
            let trial = sim::eager_trial(&setup, t);
            if rep == 0 {
                let used = AllocCount::since(before);
                allocated.allocations += used.allocations;
                ops += trial.ops;
                slots += trial.slots;
                steps += trial.steps_per_proc;
            }
            let w = t as u32;
            tracer.record("sim.trial", None, rep, w, trial.t0, trial.t3);
            tracer.record(
                "sim.process_build",
                Some("sim.trial"),
                rep,
                w,
                trial.t0,
                trial.t1,
            );
            tracer.record(
                "sim.engine_new",
                Some("sim.trial"),
                rep,
                w,
                trial.t1,
                trial.t2,
            );
            tracer.record("sim.run", Some("sim.trial"), rep, w, trial.t2, trial.t3);
            trial.add_to(&mut out);
        }
        out.seal();
        out
    });
    let eager_stats = summarize(&eager, Pick::FastDecile);
    layers.count(&eager_stats);
    let all_trials = tracer.total("sim.trial").count as f64;
    let all_events: u64 = eager.iter().map(|r| r.work).sum();
    layers.set(
        "sim.process_build_ns_per_proc",
        tracer.total("sim.process_build").total_ns as f64 / (all_trials * n),
    );
    layers.set(
        "sim.engine_new_ns_per_proc",
        tracer.total("sim.engine_new").total_ns as f64 / (all_trials * n),
    );
    layers.set(
        "sim.run_ns_per_event",
        tracer.total("sim.run").total_ns as f64 / all_events.max(1) as f64,
    );
    layers.set("sim.events_per_trial", ops as f64 / trials as f64);
    layers.set("sim.steps_per_proc_mean", steps / trials as f64);
    layers.set("sim.useful_slot_share", ops as f64 / slots.max(1) as f64);
    layers.set("sim.total_ops", ops as f64);
    layers.set(
        "sim.allocs_per_event",
        allocated.allocations as f64 / ops.max(1) as f64,
    );
    layers.set(
        "sim.schedule_ns_per_slot",
        probes::schedule_ns_per_slot(setup.n, run.seed),
    );

    let mut touched = 0;
    let lazy = run_reps(run.seconds * PHASE_SHARE, |rep| {
        let mut out = Rep::default();
        for r in 0..setup.lazy_seeds.len() {
            let round = sim::lazy_round(&setup, r);
            tracer.record("sim.lazy_round", None, rep, r as u32, round.t0, round.t1);
            touched = round.touched;
            round.add_to(&mut out);
        }
        out.seal();
        out
    });
    layers.count(&summarize(&lazy, Pick::FastDecile));
    layers.set(
        "sim.lazy_materialized_share",
        touched as f64 / setup.lazy_n as f64,
    );
    eager_stats.per_s
}

/// `shmem-persona`, traced. Returns the traced phase-1 throughput.
fn shmem_persona(run: &RunArgs, tracer: &mut Tracer, layers: &mut Layers) -> f64 {
    let setup = shmem::setup(run.seed, run.scale);
    let mut spanned = |name: &'static str, rep: u32, run: &dyn Fn() -> Rep| {
        let start = sys::now_ns();
        let out = run();
        tracer.record(name, None, rep, 0, start, sys::now_ns());
        out
    };
    let t1 = run_reps(run.seconds * PHASE_SHARE, |rep| {
        spanned("shmem.t1_rep", rep, &|| shmem::t1_rep(&setup))
    });
    let t1_stats = summarize(&t1, Pick::FastDecile);
    layers.count(&t1_stats);
    let t2 = run_reps(run.seconds * PHASE_SHARE, |rep| {
        spanned("shmem.t2_rep", rep, &|| shmem::t2_rep(&setup))
    });
    layers.count(&summarize(&t2, Pick::Median));

    for (threads, contended) in [("t1", false), ("t2", true)] {
        let ns_per_op = probes::substrate_ns_per_op(shmem::COMPONENTS, run.seed, contended);
        for (kind, _) in Kind::MIX {
            layers.set(
                &format!("shmem.ns_per_op.{}.{threads}", kind.name()),
                ns_per_op[kind.index()],
            );
        }
    }
    let (read, write) = probes::u64_register_ns();
    layers.set("shmem.ns_per_op.register_read.u64_t1", read);
    layers.set("shmem.ns_per_op.register_write.u64_t1", write);

    // Building and dropping this layout's memory, as a decision does.
    let before = AllocCount::now();
    let counted = AtomicMemory::<sift_core::Persona>::new(&setup.layout);
    let allocations = AllocCount::since(before).allocations;
    layers.set("shmem.memory_new_allocs", allocations as f64);
    drop(counted);
    let mut news = Vec::new();
    let mut drops = Vec::new();
    for i in 0..4_096u32 {
        let t0 = sys::now_ns();
        let memory = AtomicMemory::<sift_core::Persona>::new(&setup.layout);
        let t1 = sys::now_ns();
        drop(memory);
        let t2 = sys::now_ns();
        tracer.record("shmem.memory_new", None, 0, i, t0, t1);
        tracer.record("shmem.memory_drop", None, 0, i, t1, t2);
        news.push((t1 - t0) as f64);
        drops.push((t2 - t1) as f64);
    }
    layers.set("shmem.memory_new_ns", median(&news));
    layers.set("shmem.memory_drop_ns", median(&drops));
    t1_stats.per_s
}
