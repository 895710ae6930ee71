//! The three service workloads: `cold-single`, `cold-batch8`, `hot-zipf`.
//!
//! Phase 1 drives `DeterministicService` on the calling thread; phase 2
//! drives the threaded `Service` (one worker, one closed-loop client)
//! across two cores. All use 4 shards, `base_phases: 2`, values uniform
//! in `0..16` and an unbounded table.

use sift_service::{
    CommitFact, DeterministicService, InstanceId, Service, ServiceConfig, ServiceError, ShardConfig,
};

use super::{run_phases, scaled, summarize, timed_setup, EndToEnd, Pick, Rep};
use crate::alloc::AllocCount;
use crate::rng::{SplitMix64, Zipf};
use crate::sys::{self, Placement};

/// Shards in every service workload.
pub const SHARDS: usize = 4;
/// Phase budget of a first consensus attempt.
pub const BASE_PHASES: usize = 2;
/// Proposed values are uniform in `0..VALUES`.
pub const VALUES: u64 = 16;
/// Fresh instances between two `tick_all` calls in the cold det phases.
pub const TICK_EVERY: usize = 64;
/// Proposals per timed block in the hot det phase.
pub const HOT_BLOCK: usize = 4096;

/// Frozen sizes (per repetition unless stated).
pub mod sizes {
    /// `cold-single` det: fresh instances.
    pub const COLD_SINGLE_DET: usize = 51_200;
    /// `cold-single` rt: `propose_sync` calls.
    pub const COLD_SINGLE_RT: usize = 4_096;
    /// `cold-batch8` det: fresh instances (8 proposals each).
    pub const COLD_BATCH8_DET: usize = 8_192;
    /// `cold-batch8` rt-burst: fresh instances (8 proposals each).
    pub const COLD_BATCH8_RT: usize = 4_096;
    /// `hot-zipf`: instances pre-decided in set-up (the table).
    pub const HOT_TABLE: usize = 10_000;
    /// `hot-zipf`: Zipf draws generated in set-up and cycled through.
    pub const HOT_DRAWS: usize = 1 << 18;
    /// `hot-zipf` det: repeat proposals.
    pub const HOT_DET: usize = 2_097_152;
    /// `hot-zipf` rt: `propose_sync` calls.
    pub const HOT_RT: usize = 524_288;
}

/// The shard configuration every service workload uses; `seed` is an
/// input the benchmark generated, like the proposals.
pub fn shard_config(seed: u64) -> ShardConfig {
    ShardConfig {
        seed,
        capacity: usize::MAX,
        base_phases: BASE_PHASES,
        ..ShardConfig::default()
    }
}

// The struct update is the point: a field added to `ServiceConfig` later
// must not stop the end-to-end binary from building.
#[allow(clippy::needless_update)]
fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        workers: 1,
        shard: shard_config(seed),
        ..ServiceConfig::default()
    }
}

/// Starts a one-worker service with the worker on the peer core and the
/// calling (client) thread back on the client core.
pub fn start_service(seed: u64) -> Service {
    Placement::get().start_peer(|| Service::start(service_config(seed)))
}

/// Generated inputs of a cold phase: `k` proposed values for each of a
/// run of fresh instance ids.
#[derive(Debug, Clone)]
pub struct ColdInputs {
    /// Proposals per instance.
    pub k: usize,
    /// First instance id; instance `i` is `id_base + i`.
    pub id_base: u64,
    /// `k` values per instance, instance-major.
    pub values: Vec<u8>,
    /// Seed handed to the shards.
    pub shard_seed: u64,
}

impl ColdInputs {
    /// Draws inputs for `instances` instances from `seed`.
    pub fn generate(seed: u64, label: &str, k: usize, instances: usize) -> Self {
        let mut rng = SplitMix64::fork(seed, label);
        Self {
            k,
            // Top bit clear so `id_base + i` cannot wrap.
            id_base: rng.next_u64() >> 1,
            shard_seed: rng.next_u64(),
            values: (0..instances * k)
                .map(|_| rng.below(VALUES) as u8)
                .collect(),
        }
    }

    /// Number of instances.
    pub fn instances(&self) -> usize {
        self.values.len() / self.k
    }

    /// Id of instance `i`.
    pub fn id(&self, i: usize) -> InstanceId {
        InstanceId(self.id_base + i as u64)
    }

    /// The values proposed for instance `i`.
    pub fn proposed(&self, i: usize) -> &[u8] {
        &self.values[i * self.k..(i + 1) * self.k]
    }

    /// Index of the instance a fact belongs to, if it is one of ours.
    fn index_of(&self, fact: &CommitFact) -> Option<usize> {
        let index = fact.instance.0.checked_sub(self.id_base)? as usize;
        (index < self.instances()).then_some(index)
    }
}

/// Marks an instance no fact has been seen for yet.
pub const UNDECIDED: u8 = u8::MAX;

/// Exactly-once bookkeeping for a repetition's facts.
struct Ledger<'a> {
    inputs: &'a ColdInputs,
    /// Decided value per instance, [`UNDECIDED`] until its first fact.
    decided: Vec<u8>,
    failed: u64,
}

impl<'a> Ledger<'a> {
    fn new(inputs: &'a ColdInputs) -> Self {
        Self {
            inputs,
            decided: vec![UNDECIDED; inputs.instances()],
            failed: 0,
        }
    }

    /// Checks a newly minted fact: ours, first for its instance, value
    /// from its batch's proposed set, batch size within `batch`.
    fn admit(&mut self, fact: &CommitFact, batch: std::ops::RangeInclusive<u32>) {
        let ok = self.inputs.index_of(fact).is_some_and(|i| {
            let value = u8::try_from(fact.value).unwrap_or(UNDECIDED);
            let first = std::mem::replace(&mut self.decided[i], value) == UNDECIDED;
            first
                && self.inputs.proposed(i).contains(&value)
                && batch.contains(&fact.meta.batch_size)
        });
        self.failed += u64::from(!ok);
    }

    /// Failures so far plus every instance that never decided, and the
    /// decided value of each instance.
    fn close(self) -> (u64, Vec<u8>) {
        let missing = self.decided.iter().filter(|&&d| d == UNDECIDED).count() as u64;
        (self.failed + missing, self.decided)
    }
}

/// One timed window of a det phase, on the process clock.
#[derive(Debug, Clone, Copy)]
pub struct DetWindow {
    /// Before the window's first `propose`.
    pub t0: u64,
    /// After its last `propose`, before `tick_all`.
    pub t1: u64,
    /// After `tick_all` returned.
    pub t2: u64,
    /// Facts that `tick_all` returned.
    pub facts: u32,
}

/// A det repetition with everything the traced run derives layers from.
#[derive(Debug, Clone, Default)]
pub struct DetRun {
    /// The end-to-end view.
    pub rep: Rep,
    /// Every window's timestamps.
    pub windows: Vec<DetWindow>,
    /// Decided value per instance (cold phases).
    pub decided: Vec<u8>,
    /// What the calling thread allocated inside the timed windows; zero
    /// unless the binary installed the counting allocator.
    pub allocated: AllocCount,
    /// `DeterministicService::digest` when the repetition ended.
    pub digest: u64,
    /// Sums over the repetition's facts, from `CommitFact.meta`.
    pub batch_sum: u64,
    /// Largest `batch_size` seen.
    pub batch_max: u32,
    /// Sum of `meta.phases`.
    pub phases_sum: u64,
    /// Sum of `meta.attempts`.
    pub attempts_sum: u64,
    /// `service.retries`, `service.idempotent`, `service.proposals`
    /// from `obs_report` when the repetition ended.
    pub retries: u64,
    /// See `retries`.
    pub idempotent: u64,
    /// See `retries`.
    pub proposals: u64,
}

/// One cold det repetition: a fresh `DeterministicService`, every
/// instance proposed `k` times, `tick_all` every [`TICK_EVERY`]
/// instances. A window's latency sample is `tick_all` ÷ facts.
pub fn cold_det_rep(inputs: &ColdInputs) -> DetRun {
    let mut svc: DeterministicService =
        DeterministicService::new(SHARDS, shard_config(inputs.shard_seed));
    let mut ledger = Ledger::new(inputs);
    let mut run = DetRun::default();
    let k = inputs.k as u32;
    let mut tag = 0u64;
    for window in 0..inputs.instances().div_ceil(TICK_EVERY) {
        let from = window * TICK_EVERY;
        let to = (from + TICK_EVERY).min(inputs.instances());
        let allocated = AllocCount::now();
        let t0 = sys::now_ns();
        for i in from..to {
            let id = inputs.id(i);
            for &value in inputs.proposed(i) {
                svc.propose(id, value as u64, tag);
                tag += 1;
            }
        }
        let t1 = sys::now_ns();
        let facts = svc.tick_all();
        let t2 = sys::now_ns();
        let allocated = AllocCount::since(allocated);
        run.allocated.allocations += allocated.allocations;
        run.allocated.bytes += allocated.bytes;
        for fact in &facts {
            ledger.admit(fact, k..=k);
            run.batch_sum += fact.meta.batch_size as u64;
            run.batch_max = run.batch_max.max(fact.meta.batch_size);
            run.phases_sum += fact.meta.phases as u64;
            run.attempts_sum += fact.meta.attempts as u64;
        }
        run.rep.wall_ns += t2 - t0;
        run.rep.work += facts.len() as u64;
        if !facts.is_empty() {
            run.rep.samples.push((t2 - t1) as f64 / facts.len() as f64);
        }
        run.windows.push(DetWindow {
            t0,
            t1,
            t2,
            facts: facts.len() as u32,
        });
    }
    run.rep.attempted = tag;
    run.rep.seal();
    (run.rep.failed, run.decided) = ledger.close();
    read_obs(&svc, &mut run);
    run
}

fn read_obs(svc: &DeterministicService, run: &mut DetRun) {
    run.digest = svc.digest();
    let obs = svc.obs_report();
    run.retries = obs.count("service.retries");
    run.idempotent = obs.count("service.idempotent");
    run.proposals = obs.count("service.proposals");
}

/// A cold rt repetition: the end-to-end view plus how the batches formed.
#[derive(Debug, Clone, Default)]
pub struct RtRun {
    /// The end-to-end view.
    pub rep: Rep,
    /// Sum of `batch_size` over the replies.
    pub batch_sum: u64,
}

/// One cold rt repetition against a freshly started service: each
/// instance gets `k - 1` fire-and-forget `propose` calls and one
/// `call` (a `propose_sync`, or the traced run's split equivalent)
/// whose reply ends the round trip. With `k = 1` that is a plain
/// closed-loop `propose_sync` client. Timestamps chain — one clock
/// read per round trip — so a sample also holds the client's own
/// checking of the reply.
pub fn cold_rt_rep(
    service: &Service,
    inputs: &ColdInputs,
    mut call: impl FnMut(&Service, InstanceId, u64) -> Result<CommitFact, ServiceError>,
) -> RtRun {
    let mut ledger = Ledger::new(inputs);
    let mut run = RtRun::default();
    let k = inputs.k as u32;
    run.rep.samples.reserve(inputs.instances());
    let start = sys::now_ns();
    let mut previous = start;
    for i in 0..inputs.instances() {
        let id = inputs.id(i);
        let (last, burst) = inputs.proposed(i).split_last().expect("k >= 1");
        for &value in burst {
            // Dropping the future cancels only the delivery.
            drop(service.propose(id, value as u64));
        }
        match call(service, id, *last as u64) {
            Ok(fact) => {
                ledger.admit(&fact, 1..=k);
                run.batch_sum += fact.meta.batch_size as u64;
            }
            Err(_) => ledger.failed += 1,
        }
        let now = sys::now_ns();
        run.rep.samples.push((now - previous) as f64);
        previous = now;
    }
    run.rep.wall_ns = previous - start;
    run.rep.work = inputs.instances() as u64;
    run.rep.attempted = (inputs.instances() * inputs.k) as u64;
    run.rep.failed = ledger.close().0;
    run.rep.seal();
    run
}

/// The frozen per-repetition sizes of a cold workload, scaled.
pub fn cold_sizes(k: usize, scale: f64) -> (usize, usize) {
    let (det, rt) = if k == 1 {
        (sizes::COLD_SINGLE_DET, sizes::COLD_SINGLE_RT)
    } else {
        (sizes::COLD_BATCH8_DET, sizes::COLD_BATCH8_RT)
    };
    (
        scaled(det, scale, TICK_EVERY),
        scaled(rt, scale, TICK_EVERY),
    )
}

/// What set-up builds for a cold workload.
#[derive(Debug)]
pub struct ColdSetup {
    /// Inputs of the det phase.
    pub det: ColdInputs,
    /// Inputs of the rt phase.
    pub rt: ColdInputs,
}

/// Set-up of a cold workload: generate both phases' inputs, settle
/// thread placement, and start (then stop) a pinned service once so the
/// cost of bringing a worker up is part of `setup_s`.
pub fn cold_setup(k: usize, seed: u64, scale: f64) -> ColdSetup {
    let (det_size, rt_size) = cold_sizes(k, scale);
    let det = ColdInputs::generate(seed, "cold-det", k, det_size);
    let rt = ColdInputs::generate(seed, "cold-rt", k, rt_size);
    start_service(rt.shard_seed).shutdown();
    ColdSetup { det, rt }
}

/// `cold-single` (`k = 1`) and `cold-batch8` (`k = 8`) end to end.
pub fn run_cold(k: usize, seed: u64, seconds: f64, scale: f64) -> EndToEnd {
    let build = || cold_setup(k, seed, scale);
    let (setup, mut setup_rounds) = timed_setup(build);
    let [det, rt] = run_phases(
        seconds,
        || setup_rounds.again(build),
        |_| cold_det_rep(&setup.det).rep,
        |_| {
            let service = start_service(setup.rt.shard_seed);
            let run = cold_rt_rep(&service, &setup.rt, Service::propose_sync);
            service.shutdown();
            run.rep
        },
    );
    EndToEnd {
        setup_rounds,
        phases: [
            summarize(&det, Pick::FastDecile),
            summarize(&rt, Pick::Median),
        ],
        pinned: Placement::get().pinned,
        sizes: vec![
            ("k", k as u64),
            ("det_instances_per_rep", setup.det.instances() as u64),
            ("rt_instances_per_rep", setup.rt.instances() as u64),
            ("tick_every_instances", TICK_EVERY as u64),
            ("shards", SHARDS as u64),
            ("base_phases", BASE_PHASES as u64),
        ],
    }
}

/// What set-up builds for `hot-zipf` besides the det service: the
/// draws, and the threaded service with the whole table already
/// decided. Dropping it stops the worker.
pub struct HotSetup {
    /// First instance id; rank `r` is instance `id_base + r`.
    pub id_base: u64,
    /// Zipf(0.99) ranks, cycled through by both phases.
    pub draws: Vec<u32>,
    /// The threaded service, table decided (`None` only while dropping).
    rt: Option<Service>,
    /// The rt service's original facts, by rank.
    pub originals: Vec<CommitFact>,
    /// Failures seen while pre-deciding (rejections, wrong values).
    pub failed: u64,
}

impl HotSetup {
    /// The threaded service.
    pub fn rt(&self) -> &Service {
        self.rt.as_ref().expect("present until drop")
    }
}

impl Drop for HotSetup {
    fn drop(&mut self) {
        // `Service` has no `Drop`: without `shutdown` its worker would
        // outlive the set-up round that started it.
        if let Some(service) = self.rt.take() {
            service.shutdown();
        }
    }
}

/// The value rank `r` was first proposed with.
fn original_value(rank: u32) -> u64 {
    rank as u64 % VALUES
}

/// The instance a rank stands for.
fn instance_of(id_base: u64, rank: u32) -> InstanceId {
    InstanceId(id_base + rank as u64)
}

/// Set-up of `hot-zipf`: build the Zipf table and draw the ranks, then
/// decide every instance of the table once on each service — the det
/// one by proposing and ticking, the threaded one by queueing
/// fire-and-forget `propose` calls (so the worker decides in large
/// ticks, not one round trip each) and then reading every fact back.
pub fn hot_setup(seed: u64, scale: f64) -> (HotSetup, DeterministicService) {
    let table = scaled(sizes::HOT_TABLE, scale, 1);
    let mut rng = SplitMix64::fork(seed, "hot-zipf");
    let id_base = rng.next_u64() >> 1;
    let shard_seed = rng.next_u64();
    let zipf = Zipf::new(table, 0.99);
    let draws: Vec<u32> = (0..scaled(sizes::HOT_DRAWS, scale, HOT_BLOCK))
        .map(|_| zipf.sample(&mut rng) as u32)
        .collect();
    let mut failed = 0;

    let mut det: DeterministicService = DeterministicService::new(SHARDS, shard_config(shard_seed));
    let mut decided = 0;
    for rank in 0..table as u32 {
        det.propose(
            instance_of(id_base, rank),
            original_value(rank),
            rank as u64,
        );
        if (rank as usize + 1).is_multiple_of(TICK_EVERY) {
            decided += det.tick_all().len();
        }
    }
    decided += det.tick_all().len();
    failed += (table - decided) as u64;

    let rt = start_service(shard_seed);
    let mut originals = Vec::with_capacity(table);
    let ranks: Vec<u32> = (0..table as u32).collect();
    // In chunks, so the inbox — and with it peak memory — stays bounded
    // however the client's and the worker's speeds compare.
    for chunk in ranks.chunks(HOT_BLOCK) {
        for &rank in chunk {
            drop(rt.propose(instance_of(id_base, rank), original_value(rank)));
        }
        for &rank in chunk {
            match rt.propose_sync(instance_of(id_base, rank), original_value(rank)) {
                Ok(fact) => {
                    failed += u64::from(fact.value != original_value(rank));
                    originals.push(fact);
                }
                Err(_) => failed += 1,
            }
        }
    }
    failed += (table - originals.len()) as u64;
    let setup = HotSetup {
        id_base,
        draws,
        rt: Some(rt),
        originals,
        failed,
    };
    (setup, det)
}

/// One hot det repetition: `proposals` repeat proposals, drawn ranks,
/// values that differ from the original ones, timed per
/// [`HOT_BLOCK`]-proposal block. Nothing may decide: `tick_all` must
/// come back empty, the digest must not move, and the shard counters
/// must show every proposal as an idempotent hit.
pub fn hot_det_rep(setup: &HotSetup, det: &mut DeterministicService, proposals: usize) -> DetRun {
    let mut run = DetRun::default();
    read_obs(det, &mut run);
    let (digest, idempotent, seen) = (run.digest, run.idempotent, run.proposals);
    let mut draws = setup.draws.iter().cycle();
    for _ in 0..proposals / HOT_BLOCK {
        let t0 = sys::now_ns();
        for _ in 0..HOT_BLOCK {
            let rank = *draws.next().expect("cycle never ends");
            det.propose(
                instance_of(setup.id_base, rank),
                original_value(rank) ^ 1,
                0,
            );
        }
        let t1 = sys::now_ns();
        run.rep.wall_ns += t1 - t0;
        run.rep.samples.push((t1 - t0) as f64 / HOT_BLOCK as f64);
        run.windows.push(DetWindow {
            t0,
            t1,
            t2: t1,
            facts: 0,
        });
    }
    let sent = (proposals / HOT_BLOCK * HOT_BLOCK) as u64;
    let late = det.tick_all().len() as u64;
    read_obs(det, &mut run);
    run.idempotent -= idempotent;
    run.proposals -= seen;
    run.rep.work = sent;
    run.rep.attempted = sent;
    run.rep.seal();
    run.rep.failed = late
        + u64::from(run.digest != digest)
        + sent.saturating_sub(run.idempotent)
        + run.proposals.abs_diff(sent);
    run
}

/// One hot rt repetition: `proposals` closed-loop `call`s on drawn
/// ranks; every reply must equal the fact the instance first decided.
pub fn hot_rt_rep(
    setup: &HotSetup,
    proposals: usize,
    mut call: impl FnMut(&Service, InstanceId, u64) -> Result<CommitFact, ServiceError>,
) -> Rep {
    let mut rep = Rep::default();
    rep.samples.reserve(proposals);
    let mut draws = setup.draws.iter().cycle();
    let start = sys::now_ns();
    let mut previous = start;
    for _ in 0..proposals {
        let rank = *draws.next().expect("cycle never ends");
        let id = instance_of(setup.id_base, rank);
        let reply = call(setup.rt(), id, original_value(rank) ^ 1);
        let same = reply.is_ok_and(|fact| fact == setup.originals[rank as usize]);
        rep.failed += u64::from(!same);
        let now = sys::now_ns();
        rep.samples.push((now - previous) as f64);
        previous = now;
    }
    rep.wall_ns = previous - start;
    rep.work = proposals as u64;
    rep.attempted = proposals as u64;
    rep.seal();
    rep
}

/// The frozen per-repetition sizes of `hot-zipf`, scaled.
pub fn hot_sizes(scale: f64) -> (usize, usize) {
    (
        scaled(sizes::HOT_DET, scale, HOT_BLOCK),
        scaled(sizes::HOT_RT, scale, HOT_BLOCK),
    )
}

/// `hot-zipf` end to end.
pub fn run_hot(seed: u64, seconds: f64, scale: f64) -> EndToEnd {
    let build = || hot_setup(seed, scale);
    let ((setup, mut det_service), mut setup_rounds) = timed_setup(build);
    let (det_size, rt_size) = hot_sizes(scale);
    let [det, rt] = run_phases(
        seconds,
        // A no-op at full size, where a round takes over a second.
        || setup_rounds.again(build),
        |_| hot_det_rep(&setup, &mut det_service, det_size).rep,
        |_| hot_rt_rep(&setup, rt_size, Service::propose_sync),
    );
    let mut phases = [
        summarize(&det, Pick::FastDecile),
        summarize(&rt, Pick::Median),
    ];
    phases[0].failed += setup.failed;
    let sizes = vec![
        ("table_instances", setup.originals.len() as u64),
        ("zipf_draws", setup.draws.len() as u64),
        ("det_proposals_per_rep", det_size as u64),
        ("rt_proposals_per_rep", rt_size as u64),
        ("shards", SHARDS as u64),
    ];
    EndToEnd {
        setup_rounds,
        phases,
        pinned: Placement::get().pinned,
        sizes,
    }
}
