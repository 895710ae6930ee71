//! The threaded async frontend: shard workers plus a proposal future.
//!
//! [`Service::start`] spins up `workers` OS threads; worker `w` owns
//! shards `w, w + workers, …` and ticks them whenever proposals are
//! pending. Clients call [`Service::propose`] from any thread or async
//! task: the proposal lands in its shard's inbox and resolves — as a
//! future — with the instance's [`CommitFact`]. Proposals that reach an
//! already-decided instance resolve immediately from the table;
//! proposals that land on an open instance within the same shard tick
//! are batched into one consensus run.
//!
//! Each worker has a doorbell, a `parked` flag. A worker that finds
//! nothing to do raises its flag, re-checks its shards' `dirty` flags
//! and the stop flags, and parks only if all are clear; `propose` raises
//! `dirty` and then unparks the owning worker only if its flag is up.
//! Both sides store, then load, under `SeqCst`, so at least one sees the
//! other's store and no wake-up is lost; no timeout backs it up.
//! Stopping unparks every worker unconditionally. A waiting client
//! spins briefly before it parks ([`block_on`]); a worker never spins,
//! so it does not snatch the first proposal of a burst and the rest
//! still batch with it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sift_obs::ObsReport;

use crate::fact::{CommitFact, InstanceId, ServiceError};
use crate::runtime::{block_on, oneshot};
use crate::shard::{shard_of, Proposal, ShardConfig, ShardCore, ShardObs, ShardStats};
use crate::shard_obs_report;

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards (instance-table partitions).
    pub shards: usize,
    /// Number of worker threads ticking the shards.
    pub workers: usize,
    /// Per-shard configuration (seed, capacity, phase budgets).
    pub shard: ShardConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            workers: 4,
            shard: ShardConfig::default(),
        }
    }
}

struct ShardSlot {
    core: Mutex<ShardCore>,
    /// Set when the shard has proposals waiting for a tick.
    dirty: AtomicBool,
}

struct Inner {
    slots: Vec<ShardSlot>,
    shutdown: AtomicBool,
    /// Crash injection: when set, workers exit *without* the shutdown
    /// drain, leaving queued proposals in their shards' inboxes.
    abort: AtomicBool,
    /// Worker `w`'s doorbell: up while it is about to park or parked.
    parked: Vec<AtomicBool>,
}

/// The running service. Cheap to share behind an [`Arc`]; consumed by
/// [`shutdown`](Service::shutdown).
///
/// # Examples
///
/// ```
/// use sift_service::{Service, ServiceConfig, InstanceId};
///
/// let service = Service::start(ServiceConfig::default());
/// let fact = service.propose_sync(InstanceId(1), 42).unwrap();
/// assert_eq!(fact.value, 42);
/// // A repeat proposal — even with another value — returns the same fact.
/// assert_eq!(service.propose_sync(InstanceId(1), 7).unwrap(), fact);
/// service.shutdown();
/// ```
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_tag: AtomicU64,
}

impl Service {
    /// Starts the shard workers.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `workers` is zero, or `shards` exceeds
    /// `u16::MAX`.
    pub fn start(config: ServiceConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.shards <= u16::MAX as usize, "too many shards");
        assert!(config.workers > 0, "need at least one worker");
        let inner = Arc::new(Inner {
            slots: (0..config.shards)
                .map(|id| ShardSlot {
                    core: Mutex::new(ShardCore::new(id as u16, config.shard.clone())),
                    dirty: AtomicBool::new(false),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            parked: (0..config.workers)
                .map(|_| AtomicBool::new(false))
                .collect(),
        });
        let workers = spawn_workers(&inner);
        Self {
            inner,
            workers,
            next_tag: AtomicU64::new(0),
        }
    }

    /// Proposes `value` for `instance` with an auto-assigned unique
    /// tag. The returned future resolves with the instance's commit
    /// fact — the new one if this batch decides, the original one if
    /// the instance already decided.
    pub fn propose(&self, instance: InstanceId, value: u64) -> ProposeFuture {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        self.propose_tagged(instance, value, tag)
    }

    /// [`propose`](Self::propose) with a caller-chosen tag (echoed in
    /// [`DecideMeta::deciding_tag`](crate::DecideMeta::deciding_tag) if
    /// this proposal's value wins).
    fn propose_tagged(&self, instance: InstanceId, value: u64, tag: u64) -> ProposeFuture {
        let (tx, rx) = oneshot::channel();
        let shard = shard_of(instance, self.inner.slots.len());
        let slot = &self.inner.slots[shard];
        let pending = {
            let mut core = slot.core.lock().unwrap_or_else(|e| e.into_inner());
            core.submit(Proposal {
                instance,
                value,
                tag,
                waiter: Some(tx),
                submitted: Some(Instant::now()),
            })
        };
        if pending {
            slot.dirty.store(true, Ordering::SeqCst);
            let owner = shard % self.inner.parked.len();
            if self.inner.parked[owner].load(Ordering::SeqCst) {
                self.workers[owner].thread().unpark();
            }
        }
        ProposeFuture { receiver: rx }
    }

    /// Blocking [`propose`](Self::propose), for plain-thread clients.
    pub fn propose_sync(
        &self,
        instance: InstanceId,
        value: u64,
    ) -> Result<CommitFact, ServiceError> {
        block_on(self.propose(instance, value))
    }

    /// Evicts a decided instance (drops its fact, leaves a tombstone).
    /// Returns `false` if the instance is not currently decided.
    pub fn evict(&self, instance: InstanceId) -> bool {
        let shard = shard_of(instance, self.inner.slots.len());
        let mut core = self.inner.slots[shard]
            .core
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        core.evict(instance)
    }

    /// The stored fact for `instance`, if decided and retained.
    pub fn fact(&self, instance: InstanceId) -> Option<CommitFact> {
        let shard = shard_of(instance, self.inner.slots.len());
        let core = self.inner.slots[shard]
            .core
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        core.fact(instance).cloned()
    }

    /// Aggregated table introspection across all shards.
    pub fn stats(&self) -> ShardStats {
        self.inner
            .slots
            .iter()
            .map(|slot| slot.core.lock().unwrap_or_else(|e| e.into_inner()).stats())
            .fold(ShardStats::default(), ShardStats::merge)
    }

    /// A live snapshot of the merged observation report (per-shard
    /// `shardNNN.*` keys plus `service.*` aggregates). Each shard's
    /// typed record is copied under its lock and rendered after the
    /// lock is released.
    pub(crate) fn obs_report(&self) -> ObsReport {
        let shards: Vec<(u16, ShardObs)> = self
            .inner
            .slots
            .iter()
            .map(|slot| {
                let core = slot.core.lock().unwrap_or_else(|e| e.into_inner());
                (core.id(), core.observations())
            })
            .collect();
        shard_obs_report(shards.into_iter().map(|(id, obs)| (id, obs.render())))
    }

    /// Crash injection: kills every worker thread *without* the
    /// shutdown drain — whatever the killed workers had not yet ticked
    /// stays queued in the shards' inboxes, waiters intact — then
    /// respawns the same number of workers. The instance tables
    /// (decided facts and eviction tombstones) live in the shard cores,
    /// not the workers, so they survive unchanged; every shard is
    /// re-marked dirty so the restarted workers immediately retry the
    /// interrupted work. Decisions are a deterministic function of
    /// `(seed, shard, instance)` and batch content, so a retry
    /// either finds the fact already in the table or re-decides it
    /// identically — the recovery invariant `tests/service_crash.rs`
    /// checks.
    pub fn restart_workers(&mut self) {
        self.inner.abort.store(true, Ordering::SeqCst);
        self.join_workers();
        self.inner.abort.store(false, Ordering::Release);
        for slot in &self.inner.slots {
            slot.dirty.store(true, Ordering::Release);
        }
        self.workers = spawn_workers(&self.inner);
    }

    /// Stops the workers, drains every shard one final time (pending
    /// waiters resolve with their facts), and returns the final merged
    /// observation report.
    pub fn shutdown(mut self) -> ObsReport {
        self.stop_workers();
        // Workers drain before exiting, but a proposal may have raced
        // past the final worker pass; settle every shard here.
        for slot in &self.inner.slots {
            let mut core = slot.core.lock().unwrap_or_else(|e| e.into_inner());
            core.tick();
        }
        self.obs_report()
    }

    /// Raises `shutdown` and joins the workers (each drains its shards
    /// before exiting).
    fn stop_workers(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.join_workers();
    }

    /// Unparks every worker, whatever its doorbell says, and joins them
    /// all; the caller has raised `shutdown` or `abort`.
    fn join_workers(&mut self) {
        for worker in &self.workers {
            worker.thread().unpark();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A service that goes out of scope without [`shutdown`](Service::shutdown)
/// (an early return, a panicking test) still stops its workers: left
/// detached they would stay parked holding the shard tables for the
/// life of the process. After `shutdown` there is nothing left to join.
impl Drop for Service {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// One worker per doorbell; worker `w` owns shards `w, w + workers, …`.
fn spawn_workers(inner: &Arc<Inner>) -> Vec<std::thread::JoinHandle<()>> {
    (0..inner.parked.len())
        .map(|w| {
            let inner = Arc::clone(inner);
            std::thread::Builder::new()
                .name(format!("sift-shard-{w}"))
                .spawn(move || worker_loop(&inner, w))
                .expect("spawn shard worker")
        })
        .collect()
}

fn worker_loop(inner: &Arc<Inner>, worker: usize) {
    let owned: Vec<usize> = (worker..inner.slots.len())
        .step_by(inner.parked.len())
        .collect();
    let doorbell = &inner.parked[worker];
    loop {
        if inner.abort.load(Ordering::Acquire) {
            // Simulated crash: die without the shutdown drain; queued
            // proposals wait in the inboxes for the restarted workers.
            return;
        }
        let mut did_work = false;
        for &index in &owned {
            let slot = &inner.slots[index];
            if slot.dirty.swap(false, Ordering::Acquire) {
                let mut core = slot.core.lock().unwrap_or_else(|e| e.into_inner());
                did_work |= !core.tick().is_empty();
            }
        }
        if did_work {
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            // Final drain: settle anything that raced in after the
            // last scan, then exit.
            for &index in &owned {
                let mut core = inner.slots[index]
                    .core
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                core.tick();
            }
            return;
        }
        // Raise the doorbell, then look again: a `propose` that set
        // `dirty` after our scan either shows here or sees the doorbell
        // up and unparks us (both sides store, then load, `SeqCst`).
        doorbell.store(true, Ordering::SeqCst);
        let woken = owned
            .iter()
            .any(|&index| inner.slots[index].dirty.load(Ordering::SeqCst))
            || inner.shutdown.load(Ordering::SeqCst)
            || inner.abort.load(Ordering::SeqCst);
        if !woken {
            std::thread::park();
        }
        doorbell.store(false, Ordering::Relaxed);
    }
}

/// Future for one proposal's outcome. Dropping it cancels nothing but
/// the delivery: the proposal still participates in (or reads) the
/// decision; the shard just discards the reply.
pub struct ProposeFuture {
    receiver: oneshot::Receiver<Result<CommitFact, ServiceError>>,
}

impl std::future::Future for ProposeFuture {
    type Output = Result<CommitFact, ServiceError>;

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        std::pin::Pin::new(&mut self.receiver).poll(cx).map(|r| {
            // A dropped sender means the service shut down with this
            // proposal still queued.
            r.unwrap_or(Err(ServiceError::ShuttingDown))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    #[test]
    fn propose_decides_and_is_idempotent() {
        let service = Service::start(ServiceConfig {
            shards: 4,
            workers: 2,
            ..ServiceConfig::default()
        });
        let first = service.propose_sync(InstanceId(5), 11).unwrap();
        assert_eq!(first.value, 11);
        let repeat = service.propose_sync(InstanceId(5), 999).unwrap();
        assert_eq!(repeat, first, "idempotence must return the original fact");
        let report = service.shutdown();
        assert_eq!(report.count("service.decided"), 1);
        assert_eq!(report.count("service.idempotent"), 1);
        let latency = report.hist("service.latency_ns").unwrap();
        assert_eq!(latency.count(), 2, "one latency per proposal resolved");
    }

    #[test]
    fn concurrent_conflicting_proposals_agree() {
        let service = Arc::new(Service::start(ServiceConfig::default()));
        let clients: Vec<_> = (0..8u64)
            .map(|i| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || service.propose_sync(InstanceId(77), i).unwrap())
            })
            .collect();
        let facts: Vec<CommitFact> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let value = facts[0].value;
        assert!(value < 8, "validity");
        assert!(facts.iter().all(|f| *f == facts[0]), "agreement");
        Arc::try_unwrap(service).ok().unwrap().shutdown();
    }

    /// With no polling timeout behind the doorbell, a lost wake-up is a
    /// client blocked forever, so every configuration runs under a
    /// watchdog: 20 000 closed-loop round trips on fresh instances.
    #[test]
    fn closed_loop_round_trips_never_lose_a_wakeup() {
        const ROUND_TRIPS: u64 = 20_000;
        const WATCHDOG: Duration = Duration::from_secs(60);
        for (workers, shards, clients) in [(1, 1, 1), (1, 4, 1), (2, 4, 1), (4, 8, 1), (4, 8, 4)] {
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let service = Arc::new(Service::start(ServiceConfig {
                    shards,
                    workers,
                    ..ServiceConfig::default()
                }));
                let per_client = ROUND_TRIPS / clients;
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let service = Arc::clone(&service);
                        std::thread::spawn(move || {
                            for i in c * per_client..(c + 1) * per_client {
                                let fact = service.propose_sync(InstanceId(i), i % 16).unwrap();
                                assert_eq!(fact.value, i % 16);
                            }
                        })
                    })
                    .collect();
                for handle in handles {
                    handle.join().unwrap();
                }
                let report = Arc::try_unwrap(service).ok().unwrap().shutdown();
                done.send(report.count("service.decided")).unwrap();
            });
            let config = format!("{workers} workers, {shards} shards, {clients} clients");
            match finished.recv_timeout(WATCHDOG) {
                Ok(decided) => assert_eq!(decided, ROUND_TRIPS, "{config}"),
                Err(RecvTimeoutError::Timeout) => {
                    panic!("{config}: no progress in {WATCHDOG:?}, a wake-up was lost")
                }
                Err(RecvTimeoutError::Disconnected) => panic!("{config}: a client failed"),
            }
        }
    }

    #[test]
    fn restart_preserves_table_and_resolves_queued_proposals() {
        let mut service = Service::start(ServiceConfig {
            shards: 4,
            workers: 2,
            ..ServiceConfig::default()
        });
        let original = service.propose_sync(InstanceId(1), 5).unwrap();
        let queued: Vec<_> = (10..26u64)
            .map(|i| service.propose(InstanceId(i), i))
            .collect();
        for _ in 0..3 {
            service.restart_workers();
        }
        for (i, f) in queued.into_iter().enumerate() {
            let fact = block_on(f).expect("queued proposal survives the crash");
            assert_eq!(fact.value, i as u64 + 10);
        }
        // The decided table survived: a repeat proposal still answers
        // with the pre-crash fact.
        assert_eq!(service.propose_sync(InstanceId(1), 999).unwrap(), original);
        service.shutdown();
    }

    #[test]
    fn shutdown_resolves_or_rejects_every_waiter() {
        let service = Service::start(ServiceConfig {
            shards: 2,
            workers: 1,
            ..ServiceConfig::default()
        });
        let futures: Vec<_> = (0..16u64)
            .map(|i| service.propose(InstanceId(i), i))
            .collect();
        service.shutdown();
        for (i, f) in futures.into_iter().enumerate() {
            // The final drain decides everything that was queued.
            let fact = block_on(f).expect("queued proposal resolves on shutdown");
            assert_eq!(fact.value, i as u64);
        }
    }

    #[test]
    fn a_dropped_service_joins_its_workers() {
        let service = Service::start(ServiceConfig::default());
        service.propose_sync(InstanceId(2), 4).unwrap();
        let inner = Arc::downgrade(&service.inner);
        drop(service);
        assert!(
            inner.upgrade().is_none(),
            "a worker outlived the service and still holds the shard tables"
        );
    }

    /// Counts wake-ups instead of unparking a thread: what an executor's
    /// task waker looks like to the future.
    struct CountingWaker(std::sync::atomic::AtomicUsize);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Release);
        }
    }

    #[test]
    fn a_pending_proposal_wakes_a_non_thread_waker() {
        use std::future::Future;
        use std::task::{Context, Poll, Waker};

        let mut service = Service::start(ServiceConfig {
            shards: 1,
            workers: 1,
            ..ServiceConfig::default()
        });
        // Kill the worker so the first poll is certain to find the
        // proposal undecided.
        service.inner.abort.store(true, Ordering::SeqCst);
        service.join_workers();
        let mut future = std::pin::pin!(service.propose(InstanceId(3), 9));
        let wakes = Arc::new(CountingWaker(Default::default()));
        let waker = Waker::from(Arc::clone(&wakes));
        let mut cx = Context::from_waker(&waker);
        assert!(future.as_mut().poll(&mut cx).is_pending());
        assert_eq!(wakes.0.load(Ordering::Acquire), 0);

        // A new worker finds the shard dirty and decides.
        service.inner.abort.store(false, Ordering::Release);
        service.workers = spawn_workers(&service.inner);
        let deadline = Instant::now() + Duration::from_secs(30);
        while wakes.0.load(Ordering::Acquire) == 0 {
            assert!(
                Instant::now() < deadline,
                "the decision never woke the waker"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(Ok(fact)) => assert_eq!(fact.value, 9),
            other => panic!("woken but not ready with the fact: {other:?}"),
        }
        service.shutdown();
    }
}
