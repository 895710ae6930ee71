//! Crash/restart tests for the service frontend: a worker killed
//! mid-batch must either **never** emit a commit fact for an affected
//! instance or emit **exactly the original** fact on retry — never a
//! second, different decision.
//!
//! Two crash models are covered, mirroring the soak tier
//! (`crates/bench/src/soak.rs`):
//!
//! * the *threaded* model — [`Service::restart_workers`] kills every
//!   worker without the shutdown drain (the abort flag strands
//!   whatever the inbox holds) and respawns them against the same
//!   shard tables, each at worker counts 1, 4, and 8;
//! * the *deterministic* model — [`DeterministicService::
//!   tick_all_crashing`] stops a tick after a budget of instance
//!   batches, so the crash point is exact and the retry's stream can
//!   be compared byte-for-byte against a never-crashed shadow.
//!
//! Eviction tombstones must also survive a restart: an instance
//! evicted before the kill still answers [`ServiceError::Evicted`]
//! after it, never a fresh decision.

use std::time::{Duration, Instant};

use sift::service::det::DeterministicService;
use sift::service::runtime::block_on;
use sift::service::{InstanceId, Service, ServiceConfig, ServiceError, ShardConfig};

const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

fn service_with(workers: usize, capacity: usize) -> Service {
    Service::start(ServiceConfig {
        shards: 4,
        workers,
        shard: ShardConfig {
            seed: 0xC4A5,
            capacity,
            ..ShardConfig::default()
        },
    })
}

fn settle(service: &Service, context: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = service.stats();
        if stats.pending == 0 && stats.waiters == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{context}: shard table never settled: {stats:?}"
        );
        std::thread::yield_now();
    }
}

/// Queued proposals survive a mid-batch worker kill: every future
/// resolves after the restart, and a repeat proposal answers with the
/// same fact the first decision produced.
#[test]
fn queued_proposals_survive_worker_kills() {
    for workers in WORKER_COUNTS {
        let mut service = service_with(workers, usize::MAX);
        let queued: Vec<_> = (0..32u64)
            .map(|i| service.propose(InstanceId(i), i + 100))
            .collect();
        // Kill repeatedly while the batch is (potentially) mid-tick.
        for _ in 0..3 {
            service.restart_workers();
        }
        let originals: Vec<_> = queued
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                let fact = block_on(f).unwrap_or_else(|e| {
                    panic!("workers={workers}: proposal {i} rejected across kills: {e:?}")
                });
                assert_eq!(fact.value, i as u64 + 100, "singleton validity");
                fact
            })
            .collect();
        // Exactly-the-original on retry: repeats never re-decide.
        for (i, original) in originals.iter().enumerate() {
            let repeat = service
                .propose_sync(InstanceId(i as u64), 777)
                .expect("repeat proposal");
            assert_eq!(
                &repeat, original,
                "workers={workers}: instance {i} re-decided after a kill"
            );
        }
        settle(&service, "post-restart");
        let report = service.shutdown();
        assert_eq!(
            report.count("service.decided"),
            32,
            "workers={workers}: every instance decided exactly once"
        );
    }
}

/// A kill while clients keep proposing from other threads: the
/// restarted workers drain everything, agreement holds per instance,
/// and nothing wedges.
#[test]
fn kills_under_concurrent_load_keep_agreement() {
    use std::sync::{Arc, RwLock};
    for workers in WORKER_COUNTS {
        let service = Arc::new(RwLock::new(service_with(workers, usize::MAX)));
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    (0..16u64)
                        .map(|i| {
                            let fact = service
                                .read()
                                .unwrap()
                                .propose_sync(InstanceId(i), c * 100 + i)
                                .expect("proposal survives restarts");
                            (i, fact)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Kill the workers repeatedly while the clients hammer the
        // table. `restart_workers` needs exclusive access; the write
        // lock waits out in-flight `propose_sync` calls (the workers
        // resolving them run on their own threads and never take this
        // lock), so each kill lands between client operations with
        // other clients' proposals still queued.
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(1));
            service.write().unwrap().restart_workers();
        }
        let results: Vec<Vec<(u64, sift::service::CommitFact)>> = clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .collect();
        let service = Arc::try_unwrap(service)
            .ok()
            .expect("all clients joined")
            .into_inner()
            .unwrap();
        // Per-instance agreement across every client's view.
        for i in 0..16u64 {
            let facts: Vec<_> = results
                .iter()
                .map(|r| &r.iter().find(|(id, _)| *id == i).expect("decided").1)
                .collect();
            assert!(
                facts.windows(2).all(|w| w[0] == w[1]),
                "workers={workers}: clients disagree on instance {i}"
            );
            // And the post-restart table agrees with them.
            let repeat = service.propose_sync(InstanceId(i), 555).expect("repeat");
            assert_eq!(&repeat, facts[0], "table diverged from clients");
        }
        settle(&service, "post-load");
        service.shutdown();
    }
}

/// An eviction tombstone survives a worker kill: the evicted instance
/// keeps failing fast with [`ServiceError::Evicted`] after the
/// restart instead of re-running consensus.
#[test]
fn eviction_tombstones_survive_restarts() {
    for workers in WORKER_COUNTS {
        let mut service = service_with(workers, usize::MAX);
        let instance = InstanceId(9);
        let fact = service.propose_sync(instance, 4).expect("decides");
        assert_eq!(fact.value, 4);
        assert!(service.evict(instance), "decided instance evicts");
        service.restart_workers();
        match service.propose_sync(instance, 5) {
            Err(ServiceError::Evicted(id)) if id == instance => {}
            other => {
                panic!("workers={workers}: evicted instance answered {other:?} after a restart")
            }
        }
        // Un-evicted instances still work after the same restart.
        let fresh = service.propose_sync(InstanceId(10), 6).expect("fresh");
        assert_eq!(fresh.value, 6);
        settle(&service, "post-evict-restart");
        service.shutdown();
    }
}

/// Deterministic mid-batch crash: the crashed tick emits nothing for
/// the suppressed batches ("never"), and the retry emits exactly what
/// a never-crashed shadow emits ("exactly the original") — canonical
/// streams match byte for byte.
#[test]
fn deterministic_crash_emits_nothing_then_exactly_the_original() {
    let config = ShardConfig {
        seed: 0xDE7,
        ..ShardConfig::default()
    };
    let script: Vec<(InstanceId, u64)> = (0..48u64).map(|i| (InstanceId(i % 12), i)).collect();

    let mut shadow = DeterministicService::new(4, config.clone());
    for (pos, &(instance, value)) in script.iter().enumerate() {
        shadow.propose(instance, value, pos as u64);
    }
    shadow.tick_all();

    let mut crashed = DeterministicService::new(4, config);
    for (pos, &(instance, value)) in script.iter().enumerate() {
        crashed.propose(instance, value, pos as u64);
    }
    // Every shard dies after its first instance batch.
    let first = crashed.tick_all_crashing(&[1, 1, 1, 1]);
    assert!(
        first.len() <= 4,
        "a crashed tick must not decide past its budget"
    );
    // "Never": the suppressed instances have no fact yet.
    let decided_now: Vec<_> = first.iter().map(|f| f.instance).collect();
    for instance in (0..12).map(InstanceId) {
        if !decided_now.contains(&instance) {
            assert!(
                crashed.fact(instance).is_none(),
                "{instance} leaked a fact from a crashed batch"
            );
        }
    }
    // "Exactly the original": retry decides the rest identically.
    while crashed.stats().pending > 0 {
        crashed.tick_all();
    }
    assert_eq!(crashed.canonical_stream(), shadow.canonical_stream());
}
