//! Negative-path service tests: the frontend must stay live and leak
//! nothing when clients misbehave or the shard table runs degenerate
//! configurations.
//!
//! Covered here, each at worker counts 1, 4, and 8:
//!
//! * proposals to an **evicted instance** fail fast with
//!   [`ServiceError::Evicted`] instead of re-running consensus;
//! * a **zero-capacity** shard (decide → deliver → evict immediately)
//!   still answers every first proposal and never wedges;
//! * **client cancellation** — dropping a [`ProposeFuture`] mid-flight
//!   — must neither wedge the shard nor leak table entries, asserted
//!   via the shard-table introspection counters
//!   ([`Service::stats`]: `pending == 0 && waiters == 0` after settle).

use std::time::{Duration, Instant};

use sift::service::runtime::block_on;
use sift::service::{InstanceId, Service, ServiceConfig, ServiceError, ShardConfig};

const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

fn service_with(workers: usize, capacity: usize) -> Service {
    Service::start(ServiceConfig {
        shards: 4,
        workers,
        shard: ShardConfig {
            seed: 0xBAD,
            capacity,
            ..ShardConfig::default()
        },
    })
}

/// Polls the shard tables until nothing is pending and no waiter is
/// registered, or panics after a generous deadline. This is the
/// "must not wedge" assertion: a stuck shard keeps `pending > 0`
/// forever, a leaked cancelled client keeps `waiters > 0`.
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

#[test]
fn proposals_to_evicted_instances_fail_fast() {
    for workers in WORKER_COUNTS {
        let service = service_with(workers, usize::MAX);
        let instance = InstanceId(3);
        let fact = service.propose_sync(instance, 42).expect("decides");
        assert_eq!(fact.value, 42, "singleton validity");
        assert!(service.evict(instance), "decided instances evict");

        // Every later proposal — any value — is rejected, not decided
        // anew (which could violate decide-exactly-once downstream).
        for value in [42u64, 7, 0] {
            match service.propose_sync(instance, value) {
                Err(ServiceError::Evicted(id)) => assert_eq!(id, instance),
                other => panic!("workers={workers}: expected Evicted, got {other:?}"),
            }
        }
        // The original decision is gone from the table, and the
        // tombstone is visible through introspection.
        assert_eq!(service.fact(instance), None, "workers={workers}");
        let stats = service.stats();
        assert_eq!(stats.evicted, 1, "workers={workers}");
        assert_eq!(stats.decided, 0, "workers={workers}");
        let obs = service.shutdown();
        assert_eq!(obs.count("service.evicted_rejects"), 3, "workers={workers}");
        assert_eq!(obs.count("service.decided"), 1, "workers={workers}");
    }
}

#[test]
fn evicting_undecided_or_unknown_instances_is_refused() {
    for workers in WORKER_COUNTS {
        let service = service_with(workers, usize::MAX);
        assert!(
            !service.evict(InstanceId(99)),
            "workers={workers}: unknown instances have no fact to evict"
        );
        service.propose_sync(InstanceId(1), 5).expect("decides");
        assert!(!service.evict(InstanceId(99)), "workers={workers}");
        assert!(service.evict(InstanceId(1)), "workers={workers}");
        assert!(
            !service.evict(InstanceId(1)),
            "workers={workers}: double-evict is a no-op"
        );
        service.shutdown();
    }
}

#[test]
fn zero_capacity_shards_answer_and_never_wedge() {
    for workers in WORKER_COUNTS {
        let service = service_with(workers, 0);
        // First proposal per instance gets its fact delivered even
        // though the table retains nothing…
        for raw in 0..20u64 {
            let fact = service
                .propose_sync(InstanceId(raw), raw * 10)
                .expect("zero-capacity still answers the deciding client");
            assert_eq!(
                fact.value,
                raw * 10,
                "workers={workers}: singleton validity"
            );
            assert_eq!(service.fact(InstanceId(raw)), None, "nothing retained");
        }
        // …and repeats hit the tombstone, not a second consensus run.
        for raw in 0..20u64 {
            assert!(
                matches!(
                    service.propose_sync(InstanceId(raw), 1),
                    Err(ServiceError::Evicted(_))
                ),
                "workers={workers}: instance {raw} must reject after eviction"
            );
        }
        settle(&service, "zero-capacity");
        let stats = service.stats();
        assert_eq!(stats.decided, 0, "workers={workers}: table stays empty");
        assert_eq!(stats.evicted, 20, "workers={workers}");
        let obs = service.shutdown();
        assert_eq!(obs.count("service.decided"), 20, "workers={workers}");
        assert_eq!(obs.count("service.evictions"), 20, "workers={workers}");
    }
}

#[test]
fn dropped_futures_neither_wedge_nor_leak() {
    for workers in WORKER_COUNTS {
        let service = service_with(workers, usize::MAX);
        let instances = 30u64;
        // Fire a wave of proposals and immediately drop every future:
        // the clients walked away mid-proposal.
        for raw in 0..instances {
            drop(service.propose(InstanceId(raw), raw));
            drop(service.propose(InstanceId(raw), raw + 1000));
        }
        // The shards must still decide everything (commit facts are
        // facts regardless of who is listening) and drop the dead
        // waiters without blocking on them.
        settle(&service, "dropped futures");
        let stats = service.stats();
        assert_eq!(
            stats.decided, instances as usize,
            "workers={workers}: cancelled clients must not stop decisions"
        );
        // A fresh, live client still gets the decided fact instantly.
        for raw in 0..instances {
            let fact = block_on(service.propose(InstanceId(raw), 777))
                .expect("idempotent hit after cancellations");
            assert!(
                fact.value == raw || fact.value == raw + 1000,
                "workers={workers}: validity after cancellation"
            );
        }
        let obs = service.shutdown();
        assert_eq!(obs.count("service.decided"), instances, "workers={workers}");
        // Whether a dropped future is counted depends on whether the
        // client dropped it before a worker answered, a race this test
        // does not control; `shard::tests` pins the counting itself.
        assert!(
            obs.count("service.cancelled") <= 2 * instances,
            "workers={workers}: at most one cancellation per dropped future"
        );
    }
}

#[test]
fn shutdown_resolves_in_flight_proposals() {
    for workers in WORKER_COUNTS {
        let service = service_with(workers, usize::MAX);
        // Queue proposals and shut down immediately: the final drain
        // must resolve every waiter (with its fact) rather than wedge
        // or drop them on the floor.
        let futures: Vec<_> = (0..16u64)
            .map(|raw| service.propose(InstanceId(raw), raw))
            .collect();
        let obs = service.shutdown();
        assert_eq!(obs.count("service.decided"), 16, "workers={workers}");
        for (raw, future) in futures.into_iter().enumerate() {
            let fact = block_on(future).expect("shutdown drains waiters");
            assert_eq!(fact.value, raw as u64, "workers={workers}");
        }
    }
}

/// Cancellation interleaved with a worker kill: clients that drop
/// their futures before the restart must not leak waiters, and the
/// restarted workers must still decide everything that was queued —
/// the abort path strands the inbox, the restart's dirty re-scan
/// recovers it.
#[test]
fn cancelled_clients_and_worker_kills_leak_nothing() {
    for workers in WORKER_COUNTS {
        let mut service = service_with(workers, usize::MAX);
        // Half the clients cancel (drop) immediately, half stay.
        let kept: Vec<_> = (0..24u64)
            .map(|raw| {
                let future = service.propose(InstanceId(raw), raw);
                if raw % 2 == 0 {
                    drop(future);
                    None
                } else {
                    Some((raw, future))
                }
            })
            .collect();
        service.restart_workers();
        for entry in kept.into_iter().flatten() {
            let (raw, future) = entry;
            let fact = block_on(future).expect("kept waiter survives the kill");
            assert_eq!(fact.value, raw, "workers={workers}: validity");
        }
        settle(&service, "cancellation + kill");
        let stats = service.stats();
        assert_eq!(
            stats.decided, 24,
            "workers={workers}: cancelled proposals still decide after the restart"
        );
        service.shutdown();
    }
}
