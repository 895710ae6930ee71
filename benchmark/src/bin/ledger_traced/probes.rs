//! Single-layer probes: each times one layer's public calls in a tight
//! loop, or — the open-loop probe — drives the threaded service on a
//! schedule instead of in a closed loop.

use std::collections::VecDeque;
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::task::{Context, Poll, Waker};

use sift_core::Persona;
use sift_ledger::rng::SplitMix64;
use sift_ledger::stats::quantile;
use sift_ledger::sys::{self, Placement};
use sift_ledger::workloads::service::ColdInputs;
use sift_ledger::workloads::shmem::{
    declare, op_of, palette, script, Kind, ScriptOp, COMPONENTS, REGISTERS,
};
use sift_obs::ObsReport;
use sift_service::runtime::{block_on, oneshot};
use sift_service::{ProposeFuture, Service};
use sift_shmem::memory::AtomicMemory;
use sift_sim::schedule::{RandomInterleave, Schedule};
use sift_sim::{LayoutBuilder, Op};

/// Operations timed per kind by the substrate probe.
const PROBE_OPS: usize = 100_000;
/// Iterations of the runtime, obs and schedule probes.
const TIGHT_LOOP: usize = 1_000_000;

/// Nanoseconds per operation of each kind (`Kind::MIX` order) on an
/// `AtomicMemory<Persona>` with the ledger's layout and a snapshot of
/// `components` components. Every object is written once first, so
/// reads return payloads as they do mid-run; write payloads are cloned
/// per operation, as a protocol's are. With `contended`, a peer thread
/// on the other core runs the ledger's mixed script against the same
/// objects for the whole measurement.
pub fn substrate_ns_per_op(components: usize, seed: u64, contended: bool) -> [f64; 6] {
    let (builder, objects) = declare(components);
    let memory = AtomicMemory::<Persona>::new(&builder.build());
    let palette = palette();
    let targets = components.min(REGISTERS).min(COMPONENTS);
    let step = |kind, j: usize, key: u32| ScriptOp {
        kind,
        target: (j % targets) as u8,
        persona: (j % palette.len()) as u8,
        key,
    };
    for j in 0..targets {
        for kind in [Kind::SnapshotUpdate, Kind::RegisterWrite, Kind::MaxWrite] {
            memory.execute(op_of(step(kind, j, j as u32), &objects, &palette));
        }
    }
    let measure = || {
        let mut keys = SplitMix64::fork(seed, "probe-keys");
        Kind::MIX.map(|(kind, _)| {
            let start = sys::now_ns();
            for j in 0..PROBE_OPS {
                let op = op_of(step(kind, j, keys.next_u64() as u32), &objects, &palette);
                black_box(memory.execute(op));
            }
            (sys::now_ns() - start) as f64 / PROBE_OPS as f64
        })
    };
    if !contended {
        return measure();
    }
    let pinned = Placement::get().pinned;
    let (stop, ready) = (AtomicBool::new(false), Barrier::new(2));
    let noise = script(
        &mut SplitMix64::fork(seed, "probe-peer"),
        4096,
        palette.len(),
    );
    std::thread::scope(|scope| {
        scope.spawn(|| {
            if pinned {
                sys::pin(Placement::PEER_CORE);
            }
            ready.wait();
            // Relaxed: the flag publishes nothing but itself.
            while !stop.load(Ordering::Relaxed) {
                for &op in &noise {
                    black_box(memory.execute(op_of(op, &objects, &palette)));
                }
            }
        });
        ready.wait();
        let measured = measure();
        stop.store(true, Ordering::Relaxed);
        measured
    })
}

/// `(read, write)` nanoseconds per operation on `AtomicMemory<u64>`
/// registers — the inline seqlock path no protocol payload takes,
/// reported for contrast with the `Persona` rows.
pub fn u64_register_ns() -> (f64, f64) {
    let mut builder = LayoutBuilder::new();
    let registers = builder.registers(REGISTERS);
    let memory = AtomicMemory::<u64>::new(&builder.build());
    let timed = |op: &dyn Fn(usize) -> Op<u64>| {
        let start = sys::now_ns();
        for j in 0..PROBE_OPS {
            black_box(memory.execute(op(j)));
        }
        (sys::now_ns() - start) as f64 / PROBE_OPS as f64
    };
    let write = timed(&|j| Op::RegisterWrite(registers[j % REGISTERS], j as u64));
    let read = timed(&|j| Op::RegisterRead(registers[j % REGISTERS]));
    (read, write)
}

/// `oneshot::channel` + `send` + `block_on` on one thread: what a
/// proposal answered inline from the table still pays the runtime.
pub fn oneshot_roundtrip_ns() -> f64 {
    let start = sys::now_ns();
    for j in 0..TIGHT_LOOP as u64 {
        let (tx, rx) = oneshot::channel::<u64>();
        let _ = tx.send(j);
        black_box(block_on(rx).ok());
    }
    (sys::now_ns() - start) as f64 / TIGHT_LOOP as f64
}

/// `(add_count, record_hist)` nanoseconds per string-keyed `ObsReport`
/// call, with the keys `submit` and `decide` use.
pub fn obs_ns() -> (f64, f64) {
    let mut obs = ObsReport::new();
    let start = sys::now_ns();
    for _ in 0..TIGHT_LOOP / 2 {
        obs.add_count(black_box("proposals"), 1);
        obs.add_count(black_box("idempotent"), 1);
    }
    let add = (sys::now_ns() - start) as f64 / TIGHT_LOOP as f64;
    let start = sys::now_ns();
    for j in 0..TIGHT_LOOP as u64 {
        obs.record_hist(black_box("latency_ns"), j & 0xFFFF);
    }
    let hist = (sys::now_ns() - start) as f64 / TIGHT_LOOP as f64;
    black_box(obs.count("proposals"));
    (add, hist)
}

/// Nanoseconds per slot of `RandomInterleave` stepped alone.
pub fn schedule_ns_per_slot(n: usize, seed: u64) -> f64 {
    let mut schedule = RandomInterleave::new(n, seed);
    let start = sys::now_ns();
    for _ in 0..TIGHT_LOOP {
        black_box(schedule.next_pid());
    }
    (sys::now_ns() - start) as f64 / TIGHT_LOOP as f64
}

/// What the open-loop probe measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Median latency from a proposal's due time to its reply.
    pub p50_ns: f64,
    /// 99th percentile of the same.
    pub p99_ns: f64,
    /// 99th percentile of how late the generator submitted.
    pub gen_late_p99_ns: f64,
    /// Most proposals in flight at once.
    pub max_outstanding: usize,
    /// Proposals sent.
    pub attempted: u64,
    /// Replies that were errors or carried another value.
    pub failed: u64,
}

/// Drives `service` open loop: proposal `i` (a fresh instance of
/// `inputs`, batch of one) is due at `i / rate` seconds and is sent as
/// soon after that as the generator gets to it, whether or not earlier
/// ones have been answered. Latency runs from the due time, so a stall
/// charges every proposal it delays. The generator is the calling
/// thread: between due times it spins, polling the replies in flight
/// with a no-op waker.
pub fn open_loop(service: &Service, inputs: &ColdInputs, rate: u64, count: usize) -> OpenLoop {
    assert_eq!(inputs.k, 1, "the open-loop probe sends batches of one");
    let count = count.min(inputs.instances());
    let interval = 1_000_000_000 / rate;
    let mut probe = OpenLoop::default();
    let mut latencies = Vec::with_capacity(count);
    let mut lateness = Vec::with_capacity(count);
    let mut in_flight: VecDeque<(u64, u64, ProposeFuture)> = VecDeque::new();
    let mut cx = Context::from_waker(Waker::noop());
    let mut reap = |in_flight: &mut VecDeque<(u64, u64, ProposeFuture)>, probe: &mut OpenLoop| {
        in_flight.retain_mut(
            |(due, value, future)| match Pin::new(future).poll(&mut cx) {
                Poll::Pending => true,
                Poll::Ready(reply) => {
                    latencies.push((sys::now_ns() - *due) as f64);
                    let ok = reply.is_ok_and(|fact| fact.value == *value);
                    probe.failed += u64::from(!ok);
                    false
                }
            },
        );
    };
    let begin = sys::now_ns() + 1_000_000;
    for i in 0..count {
        let due = begin + i as u64 * interval;
        while sys::now_ns() < due {
            reap(&mut in_flight, &mut probe);
            std::hint::spin_loop();
        }
        lateness.push((sys::now_ns() - due) as f64);
        let value = inputs.proposed(i)[0] as u64;
        in_flight.push_back((due, value, service.propose(inputs.id(i), value)));
        probe.max_outstanding = probe.max_outstanding.max(in_flight.len());
    }
    while !in_flight.is_empty() {
        reap(&mut in_flight, &mut probe);
        std::hint::spin_loop();
    }
    probe.attempted = count as u64;
    probe.p50_ns = quantile(&mut latencies, 0.5);
    probe.p99_ns = quantile(&mut latencies, 0.99);
    probe.gen_late_p99_ns = quantile(&mut lateness, 0.99);
    probe
}
