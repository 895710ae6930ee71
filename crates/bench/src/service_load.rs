//! Load generator for the consensus service (E23).
//!
//! Drives a [`Service`] with a Zipf-skewed multi-instance workload:
//! a *warm sweep* first touches every instance once (so the run decides
//! the full instance space), then the remaining proposals sample
//! instances from a Zipf(θ) popularity distribution — a handful of hot
//! instances absorb most of the traffic, exactly the shape that makes
//! the decided-fact fast path and per-instance batching matter.
//!
//! Two client models:
//!
//! * **closed loop** — each client thread waits for one proposal's
//!   commit fact before issuing the next (latency-coupled, like RPC
//!   callers);
//! * **open loop** — clients fire proposals without waiting, draining
//!   completions in chunks (arrival-rate-coupled, like a queue fed by
//!   the outside world).
//!
//! The result folds the service's own per-shard observations together
//! with `load.*` counters (throughput, elapsed, client model) into one
//! [`ObsReport`], which [`main`] (`exp service`) renders and hands to
//! the `--obs-json` collector.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sift_obs::ObsReport;
use sift_service::runtime::block_on;
use sift_service::{InstanceId, ProposeFuture, Service, ServiceConfig, ShardConfig};
use sift_sim::rng::{SeedSplitter, Xoshiro256StarStar};

/// Client model: see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Fire-and-drain: proposals are issued without waiting, completions
    /// drained in chunks.
    Open,
    /// One-at-a-time per client: each proposal waits for its fact.
    Closed,
}

impl LoadMode {
    /// Parses `"open"` / `"closed"` (ASCII case-insensitive).
    pub(crate) fn parse(s: &str) -> Option<LoadMode> {
        if s.eq_ignore_ascii_case("open") {
            Some(LoadMode::Open)
        } else if s.eq_ignore_ascii_case("closed") {
            Some(LoadMode::Closed)
        } else {
            None
        }
    }
}

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total proposals to issue across all clients.
    pub proposals: u64,
    /// Instance-id space (the warm sweep touches each id once).
    pub instances: u64,
    /// Proposal values are uniform in `0..values`.
    pub values: u64,
    /// Shards in the service.
    pub shards: usize,
    /// Shard worker threads.
    pub workers: usize,
    /// Client threads.
    pub clients: usize,
    /// Zipf skew θ (0 = uniform; ~0.99 = classic web-cache skew).
    pub zipf_theta: f64,
    /// Client model.
    pub mode: LoadMode,
    /// Workload seed (shapes the sampled instance/value stream only).
    pub seed: u64,
    /// Per-shard decided-fact retention (see
    /// [`ShardConfig::capacity`]).
    pub capacity: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            proposals: 1_000_000,
            instances: 100_000,
            values: 16,
            shards: 16,
            workers: 4,
            clients: 8,
            zipf_theta: 0.99,
            mode: LoadMode::Closed,
            seed: 0,
            capacity: usize::MAX,
        }
    }
}

/// Result of one load run.
#[derive(Debug, Clone)]
pub(crate) struct LoadReport {
    /// The service's merged per-shard observations plus `load.*` keys.
    pub obs: ObsReport,
    /// Wall-clock duration of the proposal phase.
    pub elapsed: Duration,
    /// Proposals issued.
    pub proposals: u64,
    /// Instances decided (each exactly once).
    pub decided: u64,
    /// Proposals rejected (evictions racing the workload; zero with
    /// unbounded capacity).
    pub rejected: u64,
}

impl LoadReport {
    /// Proposals per second.
    pub(crate) fn throughput(&self) -> f64 {
        self.proposals as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Zipf(θ) sampler over ranks `0..n` via inverse CDF on a precomputed
/// cumulative table (deterministic given the caller's RNG).
#[derive(Debug)]
pub(crate) struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the table for `n` ranks with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub(crate) fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(theta >= 0.0 && theta.is_finite(), "bad zipf theta {theta}");
        let mut cumulative = Vec::with_capacity(n as usize);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    /// Draws one rank.
    pub(crate) fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        let u = rng.unit_f64();
        self.cumulative.partition_point(|&c| c < u) as u64
    }
}

/// `exp service`: one load run — throughput, decision counts, latency
/// and batch-size quantiles. The merged observation report, per-shard
/// latency histograms included, goes to the `--obs-json` collector.
///
/// Exit code 1 if any instance failed to decide.
pub(crate) fn main(config: &LoadConfig) -> ExitCode {
    println!(
        "service load: {} proposals over {} instances (zipf θ={}), \
         {} shards / {} workers / {} clients, {:?} loop",
        config.proposals,
        config.instances,
        config.zipf_theta,
        config.shards,
        config.workers,
        config.clients,
        config.mode
    );
    let report = run_load(config);

    println!(
        "decided {} instances in {:.2?} — {:.0} proposals/sec \
         ({} idempotent hits, {} batched runs, {} rejected)",
        report.decided,
        report.elapsed,
        report.throughput(),
        report.obs.count("service.idempotent"),
        report.obs.count("service.decided"),
        report.rejected,
    );
    if let Some(latency) = report.obs.hist("service.latency_ns") {
        println!(
            "latency (ns, log-bucket upper bounds): p50 ≤ {}, p99 ≤ {}, p999 ≤ {}",
            latency.quantile_upper_bound(0.50),
            latency.quantile_upper_bound(0.99),
            latency.quantile_upper_bound(0.999),
        );
    }
    if let Some(batch) = report.obs.hist("service.batch_size") {
        println!(
            "batch size: p50 ≤ {}, p99 ≤ {}, max observed {}",
            batch.quantile_upper_bound(0.50),
            batch.quantile_upper_bound(0.99),
            report.obs.max("service.max_batch"),
        );
    }

    crate::obs::record_report(&report.obs);

    if report.decided < config.instances {
        eprintln!(
            "error: only {} of {} instances decided",
            report.decided, config.instances
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs one load experiment. See the module docs for the workload
/// shape; the returned report carries throughput, per-shard latency
/// histograms, and table counters.
///
/// # Panics
///
/// Panics if a client thread panics or the configuration is degenerate
/// (zero proposals, clients, shards, or workers).
pub(crate) fn run_load(config: &LoadConfig) -> LoadReport {
    assert!(config.proposals > 0, "need at least one proposal");
    assert!(config.clients > 0, "need at least one client");
    let service = Arc::new(Service::start(ServiceConfig {
        shards: config.shards,
        workers: config.workers,
        shard: ShardConfig {
            seed: config.seed,
            capacity: config.capacity,
            // Every batch commits in phase 1 (round robin), so the
            // budget only sizes each stack's layout: keep it small.
            base_phases: 2,
        },
    }));
    let zipf = Arc::new(Zipf::new(config.instances, config.zipf_theta));
    let split = SeedSplitter::new(config.seed);

    let started = Instant::now();
    let clients: Vec<_> = (0..config.clients)
        .map(|client| {
            let service = Arc::clone(&service);
            let zipf = Arc::clone(&zipf);
            let config = config.clone();
            let mut rng = split.stream("load-client", client as u64);
            std::thread::Builder::new()
                .name(format!("sift-load-{client}"))
                .spawn(move || {
                    // Client c owns global proposal positions
                    // c, c + clients, c + 2·clients, …
                    let mut rejected = 0u64;
                    let mut drain = Drain::new(config.mode);
                    let mut position = client as u64;
                    while position < config.proposals {
                        let instance = if position < config.instances {
                            // Warm sweep: positions 0..instances touch
                            // each instance exactly once.
                            InstanceId(position)
                        } else {
                            InstanceId(zipf.sample(&mut rng))
                        };
                        let value = rng.range_u64(config.values);
                        rejected += drain.issue(service.propose(instance, value));
                        position += config.clients as u64;
                    }
                    rejected + drain.finish()
                })
                .expect("spawn load client")
        })
        .collect();
    let rejected: u64 = clients
        .into_iter()
        .map(|c| c.join().expect("load client panicked"))
        .sum();
    let elapsed = started.elapsed();

    let service = Arc::try_unwrap(service)
        .ok()
        .expect("all clients joined, so no clone outlives us");
    let stats = service.stats();
    let mut obs = service.shutdown();
    let decided = obs.count("service.decided");
    debug_assert_eq!(stats.decided as u64 + stats.evicted as u64, decided);

    obs.add_count("load.proposals", config.proposals);
    obs.add_count("load.instances", config.instances);
    obs.add_count("load.decided", decided);
    obs.add_count("load.rejected", rejected);
    obs.add_count("load.elapsed_ns", elapsed.as_nanos() as u64);
    obs.add_count(
        "load.throughput_per_sec",
        (config.proposals as f64 / elapsed.as_secs_f64().max(1e-9)) as u64,
    );
    obs.add_count("load.clients", config.clients as u64);
    obs.add_count("load.shards", config.shards as u64);
    obs.add_count("load.workers", config.workers as u64);
    obs.add_count(
        "load.mode_closed",
        matches!(config.mode, LoadMode::Closed) as u64,
    );
    obs.add_count("load.zipf_theta_milli", (config.zipf_theta * 1000.0) as u64);
    LoadReport {
        obs,
        elapsed,
        proposals: config.proposals,
        decided,
        rejected,
    }
}

/// Per-client completion handling: closed loop waits inline; open loop
/// buffers futures and drains them in chunks.
enum Drain {
    Closed,
    Open { buffer: Vec<ProposeFuture> },
}

impl Drain {
    const CHUNK: usize = 4096;

    fn new(mode: LoadMode) -> Self {
        match mode {
            LoadMode::Closed => Drain::Closed,
            LoadMode::Open => Drain::Open { buffer: Vec::new() },
        }
    }

    /// Issues one proposal; returns how many rejections surfaced.
    fn issue(&mut self, future: ProposeFuture) -> u64 {
        match self {
            Drain::Closed => block_on(future).is_err() as u64,
            Drain::Open { buffer } => {
                buffer.push(future);
                if buffer.len() >= Self::CHUNK {
                    Self::drain(buffer)
                } else {
                    0
                }
            }
        }
    }

    fn finish(self) -> u64 {
        match self {
            Drain::Closed => 0,
            Drain::Open { mut buffer } => Self::drain(&mut buffer),
        }
    }

    fn drain(buffer: &mut Vec<ProposeFuture>) -> u64 {
        buffer.drain(..).map(|f| block_on(f).is_err() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mode: LoadMode) -> LoadConfig {
        LoadConfig {
            proposals: 2_000,
            instances: 200,
            values: 4,
            shards: 4,
            workers: 2,
            clients: 4,
            mode,
            ..LoadConfig::default()
        }
    }

    #[test]
    fn closed_loop_decides_the_full_instance_space() {
        let report = run_load(&tiny(LoadMode::Closed));
        assert_eq!(report.decided, 200, "warm sweep must decide every instance");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.obs.count("service.proposals"), 2_000);
        assert!(report.obs.hist("service.latency_ns").is_some());
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn open_loop_matches_on_totals() {
        let report = run_load(&tiny(LoadMode::Open));
        assert_eq!(report.decided, 200);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.obs.count("load.mode_closed"), 0);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut head = 0u64;
        let draws = 10_000;
        for _ in 0..draws {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 1000);
            if rank < 10 {
                head += 1;
            }
        }
        // With θ = 0.99 the top-10 ranks carry roughly 40% of the mass;
        // uniform would give 1%.
        assert!(head > draws / 5, "zipf head too light: {head}/{draws}");
    }

    #[test]
    fn mode_parses() {
        assert_eq!(LoadMode::parse("open"), Some(LoadMode::Open));
        assert_eq!(LoadMode::parse("CLOSED"), Some(LoadMode::Closed));
        assert_eq!(LoadMode::parse("bogus"), None);
    }
}
